import dataclasses
import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxcheck import conditions
from coxcheck.conditions import (
    DENSITY_TARGET_LIMIT,
    DensityProbe,
    FamilyDensityReport,
    audit,
    bel_level_negation,
    chain_consistency,
    check_bounds,
    hypothesis,
    par5_family,
    par5_gap,
    par5_triples,
)
from coxcheck.cli import main
from coxcheck.core import LIMITS, BeliefDomainError, BeliefStructure, Domain, Event
from coxcheck.files import load_structure, save_structure
from coxcheck.forms import Verdict, instance
from coxcheck.generators import (
    affine_rescale,
    build_family,
    coin_extend,
    coin_family,
    gen_distorted,
    gen_probability,
)
from coxcheck.isomorphism import RefutationCertificate

from conftest import FIXTURES, complement_table, fixture_path, merges, seeded_probability


def uniform(n):
    atoms = tuple("abcdef"[:n]) if n <= 6 else tuple(f"x{i}" for i in range(n))
    return gen_probability(Domain(atoms), [F(1, n)] * n)


@st.composite
def small_weights(draw):
    n = draw(st.integers(1, 4))
    ints = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(ints)
    return [F(i, total) for i in ints]


class TestBounds:
    @given(small_weights())
    def test_probability_structures_pass(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        report = check_bounds(gen_probability(d, ws))
        assert report.par1.passed and report.par2.passed

    def test_value_above_one_fails_with_witness(self):
        report = check_bounds(load_structure(fixture_path("par1_violation.bel")))
        assert report.par1.status == "fail"
        assert "3/2" in report.par1.detail

    def test_interval_bounds_pass(self):
        report = check_bounds(load_structure(fixture_path("interval_bounds.bel")))
        assert report.passed

    def test_violations_in_the_last_row(self):
        table = uniform(3).as_table()
        table[0b011, 0b111] = F(3, 2)
        table[0b111, 0b111] = F(1, 2)
        report = check_bounds(BeliefStructure.from_table(Domain(("a", "b", "c")), table))
        assert report.par1.detail == "Bel({a b}|{a b c}) = 3/2 outside [0,1]"
        assert report.par2.detail == "Bel(U|U) = 1/2 ≠ 1 at U={a b c}"

    def test_par1_and_par2_both_violated_name_their_first_pairs(self):
        table = uniform(2).as_table()
        table[0b10, 0b11] = F(-1)
        table[0b01, 0b11] = F(2)
        table[0, 0b10] = F(1, 4)
        table[0b01, 0b01] = F(3, 4)
        report = check_bounds(BeliefStructure.from_table(Domain(("a", "b")), table))
        assert report.par1.detail == "Bel({a}|{a b}) = 2 outside [0,1]"
        assert report.par2.detail == "Bel(U|U) = 3/4 ≠ 1 at U={a}"

    @given(st.integers(1, 5), st.integers(0, 2 ** 32), st.integers(0, 4))
    def test_matches_the_pair_walk(self, n, seed, planted):
        rng = random.Random(seed)
        b = uniform(n)
        table = b.as_table()
        for vu in rng.sample(sorted(table), min(planted, len(table))):
            table[vu] = rng.choice([F(-1), F(0), F(1, 2), F(1), F(3, 2)])
        structure = BeliefStructure.from_table(b.domain, table)
        report = check_bounds(structure)
        assert (report.par1, report.par2) == oracle_bounds(structure)


class TestWeightBounds:
    """A weight backing's values lie in [0,1] with Bel(∅|U) = 0 and
    Bel(U|U) = 1: Par1 holds iff e <= 0 and 1 <= E, Par2 iff e = 0 and
    E = 1, each naming the first pair of its table in canonical order."""

    @pytest.mark.parametrize("bounds,par1,par2", [
        ((0, 1), None, None),
        ((0, 2), None, "Bel(U|U) = 1 ≠ 2 at U={a}"),
        ((-1, 1), None, "Bel(∅|{a}) = 0 ≠ -1"),
        ((F(1, 4), F(3, 4)), "Bel({}|{a}) = 0 outside [1/4,3/4]", "Bel(∅|{a}) = 0 ≠ 1/4"),
        ((-1, F(1, 2)), "Bel({a}|{a}) = 1 outside [-1,1/2]", "Bel(∅|{a}) = 0 ≠ -1"),
    ])
    @pytest.mark.parametrize("k", [1, 3])
    def test_verdicts_and_first_pairs(self, bounds, par1, par2, k):
        bounds = tuple(map(F, bounds))
        weights = BeliefStructure.from_weights(Domain(("a", "b", "c")),
                                               [F(1, 6), F(1, 3), F(1, 2)], k, bounds)
        report = check_bounds(weights)
        assert (report.par1.status == "fail", report.par2.status == "fail") == (
            par1 is not None, par2 is not None)
        if par1:
            assert report.par1.detail == par1
        if par2:
            assert report.par2.detail == par2
        table = BeliefStructure.from_table(weights.domain, weights.as_table(), bounds)
        assert check_bounds(table) == report


def oracle_bounds(structure):
    """Par1 and Par2 from one walk over the canonical pairs, naming the first
    violating pair of each."""
    e, big_e = structure.bounds
    domain = structure.domain
    par1 = Verdict("pass", f"all values within [{e},{big_e}]")
    par2 = Verdict("pass", f"Bel(∅|U)={e} and Bel(U|U)={big_e} for every nonempty U")
    par1_witness = par2_witness = None
    for v, u, x in structure.items():
        if par1_witness is None and not e <= x <= big_e:
            par1_witness = (
                f"Bel({Event(domain, v)!r}|{Event(domain, u)!r}) = {x} "
                f"outside [{e},{big_e}]"
            )
        if par2_witness is None and v == 0 and x != e:
            par2_witness = f"Bel(∅|{Event(domain, u)!r}) = {x} ≠ {e}"
        if par2_witness is None and v == u and x != big_e:
            par2_witness = f"Bel(U|U) = {x} ≠ {big_e} at U={Event(domain, u)!r}"
    if par1_witness:
        par1 = Verdict("fail", par1_witness)
    if par2_witness:
        par2 = Verdict("fail", par2_witness)
    return par1, par2


class TestGap:
    def test_two_coin_uniform_gap(self):
        b = uniform(4)
        assert b.attained("conditional") == [
            F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)
        ]
        assert par5_gap(b) == F(1, 8)

    def test_single_atom_gap(self):
        assert par5_gap(uniform(1)) == F(1, 2)

    @given(small_weights())
    def test_gap_is_positive_on_finite_structures(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        assert par5_gap(gen_probability(d, ws)) > 0

    @given(small_weights(), st.sampled_from([(F(0), F(1)), (F(1, 4), F(3, 4)),
                                             (F(-1), F(1, 3)), (F(2, 3), F(2))]),
           st.sampled_from(["conditional", "unconditional"]))
    def test_gap_matches_the_midpoint_formula(self, ws, bounds, kind):
        # bounds that cut off attained values put midpoints outside (e, E)
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_probability(d, ws).map_values(lambda v: v, bounds=bounds)
        e, big_e = bounds
        values = b.attained(kind)

        def dist(alpha):
            return min(abs(alpha - v) for v in values)

        half_spacing = max(
            ((v2 - v1) / 2 for v1, v2 in zip(values, values[1:])
             if e < (v1 + v2) / 2 < big_e),
            default=F(0),
        )
        assert par5_gap(b, kind) == max(dist(e), dist(big_e), half_spacing)

    def test_gap_weakly_decreases_under_coin_extension(self):
        ext = coin_extend(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2)
        assert par5_gap(ext.extended) <= par5_gap(ext.base)

    def test_unconditional_kind(self):
        b = uniform(4)
        assert par5_gap(b, "unconditional") == F(1, 8)


class TestTriples:
    def test_top_corner_always_reachable(self):
        result = par5_triples(uniform(3), DensityProbe(1, 1, 1, F(1, 100)))
        assert result.passed
        # any fully nested repeat chain realizes (E, E, E)
        assert (result.chain.x, result.chain.y, result.chain.z) == (1, 1, 1)

    def test_single_atom_cannot_reach_half(self):
        result = par5_triples(uniform(1), DensityProbe(F(1, 2), 1, 1, F(1, 4)))
        assert not result.passed
        assert result.deviation == F(1, 2)

    def test_sixteen_atoms_hit_dyadic_targets_with_the_smallest_chain(self):
        probe = DensityProbe(F(1, 2), F(1, 2), F(1, 2), F(1, 8))
        result = par5_triples(uniform(16), probe)
        assert result.passed
        assert result.deviation == 0
        sizes = (result.chain.u1.size, result.chain.u2.size,
                 result.chain.u3.size, result.chain.u4.size)
        assert sizes == (8, 4, 2, 1)  # of the exact chains, the least U1

    @given(small_weights(), st.integers(0, 10))
    def test_epsilon_above_gap_with_trivial_tail_passes(self, ws, num):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_probability(d, ws)
        alpha = F(num, 10)
        probe = DensityProbe(alpha, 1, 1, par5_gap(b) + F(1, 1000))
        assert par5_triples(b, probe).passed

    @pytest.mark.parametrize("structure", [
        gen_probability(Domain(tuple("abcdef")), [F(i, 21) for i in range(1, 7)]),
        gen_distorted(Domain(tuple("abcd")), [F(1, 10), F(2, 10), F(3, 10), F(4, 10)], 2),
        uniform(9),
    ], ids=["weights-6", "distorted-4", "uniform-9"])
    def test_chain_is_nested_and_definitional(self, structure):
        hit = DensityProbe(F(1, 3), F(1, 2), F(2, 3), F(1, 10))
        miss = DensityProbe(F(1, 7), F(5, 7), F(3, 7), F(1, 10**6))
        for probe in (hit, miss):
            result = par5_triples(structure, probe)
            c = result.chain
            assert c.u4.issubset(c.u3) and c.u3.issubset(c.u2) and c.u2.issubset(c.u1)
            assert not c.u3.is_empty
            assert c.x == structure.bel(c.u4, c.u3)
            assert c.y == structure.bel(c.u3, c.u2)
            assert c.z == structure.bel(c.u2, c.u1)
            assert c.u_a == structure.bel(c.u4, c.u2)
            assert c.u_b == structure.bel(c.u3, c.u1)
            assert c.u_c == structure.bel(c.u4, c.u1)
            assert result.deviation == max(abs(c.x - probe.alpha), abs(c.y - probe.beta),
                                           abs(c.z - probe.gamma))
            assert result.passed == (result.deviation < probe.epsilon)

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            DensityProbe(2, 0, 0, F(1, 10))
        with pytest.raises(ValueError):
            DensityProbe(0, 0, 0, 0)

    def test_rescaled_targets_follow_bounds(self):
        b = load_structure(fixture_path("interval_bounds.bel"))  # [1, 2]
        result = par5_triples(b, DensityProbe(1, 1, 1, F(1, 10)))
        assert result.passed
        assert result.chain.x == 2  # E on the shifted interval

    def test_a_member_too_large_to_read_is_refused(self):
        big = BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(13))),
                                           [F(i, 91) for i in range(1, 14)])
        with pytest.raises(BeliefDomainError, match="density pass capped"):
            par5_triples(big, DensityProbe(F(1, 2), F(1, 2), F(1, 2), F(1, 10)))


# -- exact oracles of the density pass --------------------------------------------


def _submasks(mask):
    return [s for s in range(mask + 1) if s & ~mask == 0]


def oracle_steps(structure):
    """The steps (Bel(U4|U3), Bel(U3|U2), Bel(U2|U1)) of every nested chain
    U1 ⊇ U2 ⊇ U3 ⊇ U4 with U3 nonempty, brute force over masks or, for a
    uniform weight backing, over event sizes."""
    n = structure.domain.size
    if structure.is_uniform:
        k = structure.exponent
        return {(F(s4, s3) ** k, F(s3, s2) ** k, F(s2, s1) ** k)
                for s1, s2, s3 in itertools.combinations_with_replacement(range(n, 0, -1), 3)
                for s4 in range(s3 + 1)}
    bel = structure.bel_masks
    return {(bel(u4, u3), bel(u3, u2), bel(u2, u1))
            for u1 in range(1, 1 << n) for u2 in _submasks(u1)[1:]
            for u3 in _submasks(u2)[1:] for u4 in _submasks(u3)}


def oracle_least(structure, steps, target):
    """The least Chebyshev deviation of any chain from the rescaled target."""
    e, big_e = structure.bounds
    a, b, g = (e + t * (big_e - e) for t in target)
    return min(max(abs(x - a), abs(y - b), abs(z - g)) for x, y, z in steps)


def oracle_par5_family(members, grid_resolution, epsilon, steps=None):
    """The report `par5_family` must give, by brute force: each target's
    least deviation over every member, the targets no member meets within
    ε, and the worst target, first of the largest, with the first member
    whose own chains attain it.  `steps` holds each member's
    `oracle_steps`, if they are at hand."""
    grid = ([F(0)] if grid_resolution == 1
            else [F(i, grid_resolution - 1) for i in range(grid_resolution)])
    steps = steps or [oracle_steps(m) for m in members]
    failures, worst = [], None
    for target in itertools.product(grid, repeat=3):
        devs = [oracle_least(m, s, target) for m, s in zip(members, steps)]
        best = min(devs)
        if best >= epsilon:
            failures.append((target, best))
        if worst is None or best > worst[1]:
            worst = (target, best, devs.index(best))
    return FamilyDensityReport(not failures, False, grid_resolution, F(epsilon),
                               len(grid) ** 3, tuple(failures), worst)


def random_member(rng, kind, n=None):
    """A seeded member of `n` atoms or of at most 4, or a uniform one of at
    most 12: a table relabelled onto one of three bounds, a weight backing
    of exponent 1-3, or uniform weights on one of three bounds."""
    n = n or rng.randint(1, 4)
    atoms = tuple(f"x{i}" for i in range(n))
    ints = [rng.randint(1, 9) for _ in range(n)]
    weights = [F(i, sum(ints)) for i in ints]
    if kind == "weights":
        return BeliefStructure.from_weights(Domain(atoms), weights, rng.randint(1, 3))
    if kind == "uniform":
        n = rng.randint(1, 12)
        return BeliefStructure.from_weights(
            Domain(tuple(f"u{i}" for i in range(n))), [F(1, n)] * n, rng.choice([1, 1, 2]),
            bounds=rng.choice([(F(0), F(1)), (F(0), F(2)), (F(-1), F(1))]))
    e, big_e = rng.choice([(F(0), F(1)), (F(1), F(2)), (F(-1, 2), F(3))])
    base = gen_probability(Domain(atoms), weights)
    return base.map_values(lambda v: e + (big_e - e) * v * v / (2 - v), bounds=(e, big_e))


class TestDensityOracle:
    """`par5_family` and `par5_triples` against brute force over every
    nested chain: the verdicts, each missed target's exact least deviation
    and the worst target with its member."""

    @staticmethod
    def check(members, grid, eps, steps=None):
        got = par5_family(SimpleNamespace(members=tuple(members)), grid, eps)
        assert got == oracle_par5_family(members, grid, eps, steps)
        return got

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables(self, n):
        rng = random.Random(n)
        for kind in ("table", "table", "weights"):
            self.check([random_member(rng, kind, n)], 3, F(1, 20))

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_families(self, seed):
        rng = random.Random(seed)
        kinds = ["table", "weights", "uniform"]
        members = [random_member(rng, rng.choice(kinds)) for _ in range(rng.randint(2, 4))]
        steps = [oracle_steps(m) for m in members]
        for grid, eps in ((2, F(1, 3)), (3, F(1, 20)), (4, F(1, 8))):
            self.check(members, grid, eps, steps)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_triples_on_tables(self, n):
        rng = random.Random(10 + n)
        member = random_member(rng, "table", n)
        steps = oracle_steps(member)
        for target in itertools.product((F(0), F(1, 3), F(1, 2), F(1)), repeat=3):
            result = par5_triples(member, DensityProbe(*target, F(1, 20)))
            assert result.deviation == oracle_least(member, steps, target)

    @pytest.mark.parametrize("sizes", [(12, 2, 6, 3, 7), (2, 5, 9, 11), (10, 3, 4)])
    def test_uniform_members_attain_from_their_own_size(self, sizes):
        """A group of uniform members is read off its largest one; the
        worst target names the first member whose own chains attain it."""
        members = [uniform(n) for n in sizes]
        steps = [oracle_steps(m) for m in members]
        for grid, eps in ((3, F(1, 10)), (4, F(1, 20))):
            self.check(members, grid, eps, steps)

    def test_floats_that_tie_exact_values_that_do_not(self):
        """Bel({a}|W) = 1/3 and Bel({b}|W) = 1/3 + 10^-30 are one float.
        The target (2/3, 1, 1) is met at 1/3 − 10^-30, just under ε = 1/3."""
        tiny = F(1, 10 ** 30)
        table = {(0, 1): F(0), (1, 1): F(1), (0, 2): F(0), (2, 2): F(1),
                 (0, 3): F(0), (1, 3): F(1, 3), (2, 3): F(1, 3) + tiny, (3, 3): F(1)}
        member = BeliefStructure.from_table(Domain(("a", "b")), table)
        result = par5_triples(member, DensityProbe(F(2, 3), 1, 1, F(1, 3)))
        assert result.passed and result.deviation == F(1, 3) - tiny
        assert result.chain.u4.members == ("b",)
        for grid, eps in ((4, F(1, 3)), (4, F(1, 3) - tiny), (7, F(1, 20))):
            self.check([member], grid, eps)

    def test_denominators_too_large_to_snap(self):
        # weights 1/p over four primes near 10^4: the values' denominators
        # are too large for the nearest-fraction step, so every exact
        # deviation comes from rechecking the steps near the float one
        primes = (10007, 10009, 10037, 10039)
        inverse = [F(1, p) for p in primes]
        member = BeliefStructure.from_weights(Domain(tuple("abcd")),
                                              [w / sum(inverse) for w in inverse])
        assert conditions._snap(conditions._step_graph(member), 0.5, 2) is None
        members = [member, uniform(3)]
        steps = [oracle_steps(m) for m in members]
        for grid, eps in ((2, F(1, 3)), (3, F(1, 20))):
            self.check(members, grid, eps, steps)

    def test_values_beyond_the_float_range(self):
        # on the bounds [0, 10^400] the values only read as floats normalized
        big = F(10) ** 400
        members = [uniform(n).map_values(lambda v: v * big, bounds=(F(0), big))
                   for n in (2, 3)]
        got = self.check(members, 3, F(1, 20) * big)
        assert got.failures

    @pytest.mark.parametrize("eps", [F(1), F(3, 2)])
    def test_epsilon_of_one_or_more(self, eps):
        got = self.check(coin_family(4).members, 3, eps)
        assert got.passed

    @pytest.mark.parametrize("coins", [1, 4])
    def test_grid_of_one(self, coins):
        got = self.check(coin_family(coins).members, 1, F(1, 10))
        assert got.targets_checked == 1

    def test_builds_no_chain_quadruple(self, monkeypatch):
        def refuse(*masks):
            raise AssertionError("par5_family built a ChainQuadruple")
        monkeypatch.setattr(BeliefStructure, "_make_chain", refuse)
        report = par5_family(coin_family(4), 4, F(1, 20))
        assert report.failures


class TestUnsearchedMembers:
    """A non-uniform weight backing above 12 atoms cannot be read: it meets
    and misses nothing, and theorem 4's density reads untestable where a
    target is met by no member that was read.  `build_family` leaves it out
    of the merged S and F too."""

    BIG = BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(40))),
                                       [F(i, 820) for i in range(1, 41)])

    def test_listed_and_left_out_of_the_deviations(self):
        members = [uniform(2), self.BIG, uniform(4)]
        got = par5_family(SimpleNamespace(members=tuple(members)), 3, F(1, 20))
        want = oracle_par5_family([uniform(2), uniform(4)], 3, F(1, 20))
        assert got.unsearched == (1,)
        assert got.failures == want.failures and got.failures
        target, deviation, member = want.worst_target
        assert got.worst_target == (target, deviation, {0: 0, 1: 2}[member])

    def test_alone_it_leaves_every_target_open(self):
        got = par5_family(SimpleNamespace(members=(self.BIG,)), 2, F(1, 20))
        assert not got.passed and got.worst_target is None
        assert [dev for _, dev in got.failures] == [None] * 8
        report = got.to_dict()
        assert report["worst_target"] is None and report["unsearched"] == [0]
        assert report["failures"][0] == (["0", "0", "0"], None)

    def test_theorem_4_reads_untestable_and_passes_when_all_are_met(self):
        family = build_family([uniform(16), self.BIG])
        verdict = {h.name: h for h in audit(None, "4", family=family, grid_resolution=3,
                                            epsilon=F(1, 20)).hypotheses}
        density = verdict["par5-family-density"]
        assert density.status == "untestable"
        assert "members [1] are too large to read" in density.witness
        verdict = {h.name: h for h in audit(None, "4", family=family, grid_resolution=2,
                                            epsilon=F(1, 2)).hypotheses}
        assert verdict["par5-family-density"].status == "pass"


def oracle_coin_least(coins, grid):
    """Every target's least deviation on the uniform domain of 2^coins atoms,
    at α·G² + β·G + γ, by the three passes over dense size tables.  A
    deviation |j/m − i/q| has a denominator of at most q·2^coins, so two
    distinct ones differ by far more than float rounding, and the nearest
    such fraction to each float is the exact value."""
    n = 1 << coins
    q = max(grid - 1, 1)
    sizes = np.arange(n + 1)
    ratio = sizes[:, None] / np.maximum(sizes, 1)[None, :]  # [j, m] = j/m
    valid = (sizes[:, None] <= sizes[None, :]) & (sizes[None, :] >= 1)
    points = np.arange(grid) / q
    dev = np.where(valid, np.abs(ratio[None] - points[:, None, None]), np.inf)
    d3 = dev.min(axis=2)  # [γ, U2]: over U1 of size m >= |U2|
    d3[:, 0] = np.inf
    low = dev.min(axis=1)  # [α, U3]: over U4
    low[:, 0] = np.inf
    out = np.empty((grid, grid, grid))
    for b in range(grid):
        # d2[γ, U3] over U2: max(d3[γ, U2], |Bel(U3|U2) − β|)
        d2 = np.maximum(d3[:, None, :], dev[b][None, :, :]).min(axis=2)
        d2[:, 0] = np.inf
        out[:, b, :] = np.maximum(d2[None, :, :], low[:, None, :]).min(axis=2)
    return [F(x).limit_denominator(q * n) for x in out.ravel().tolist()]


def oracle_coin_family(coins, grid, epsilon):
    """The report of the 1..`coins` coin family, from `oracle_coin_least`
    of each member."""
    points = [F(0)] if grid == 1 else [F(i, grid - 1) for i in range(grid)]
    per_member = [oracle_coin_least(c, grid) for c in range(1, coins + 1)]
    least = per_member[-1]  # the largest member holds every chain
    targets = list(itertools.product(points, repeat=3))
    failures = tuple((t, d) for t, d in zip(targets, least) if d >= epsilon)
    worst = max(range(len(targets)), key=lambda t: (least[t], -t))
    member = next(c for c, devs in enumerate(per_member) if devs[worst] == least[worst])
    return FamilyDensityReport(not failures, False, grid, F(epsilon), len(targets),
                               failures, (targets[worst], least[worst], member))


class TestCoinDensityOracle:
    """Coin families against the dense size-table oracle.  The rows of the
    table of misses that greedy and sampled chains overcounted keep their
    exact counts."""

    @pytest.mark.parametrize("coins,grid,eps,misses", [
        (3, 7, F(1, 30), 269), (4, 5, F(1, 20), 59), (4, 7, F(1, 30), 183),
        (4, 9, F(1, 50), 493), (5, 7, F(1, 30), 121), (5, 9, F(1, 50), 330),
        (6, 3, F(1, 10), 3), (6, 9, F(1, 50), 218), (8, 5, F(1, 20), 9),
        (8, 7, F(1, 30), 33),
    ])
    def test_exact_miss_counts(self, coins, grid, eps, misses):
        got = par5_family(coin_family(coins), grid, eps)
        assert len(got.failures) == misses
        assert got == oracle_coin_family(coins, grid, eps)

    @pytest.mark.parametrize("coins", range(1, 9))
    def test_sweep(self, coins):
        family = coin_family(coins)
        for grid in range(2, 10):
            for eps in (F(1, 3), F(1, 20)):
                assert par5_family(family, grid, eps) == oracle_coin_family(coins, grid, eps), (
                    grid, eps)

    def test_ten_coins_meet_a_quarter_at_a_sixteenth(self):
        # the worst target at grid 5 is (1/4, 0, 0), met within 1/16 by the
        # chain of sizes 1024, 64, 4 and 1 and no closer
        got = par5_family(coin_family(10), 5, F(1, 20))
        assert got.worst_target == ((F(1, 4), F(0), F(0)), F(1, 16), 9)
        result = par5_triples(coin_family(10).members[-1],
                              DensityProbe(F(1, 4), 0, 0, F(1, 20)))
        assert result.deviation == F(1, 16)


class TestFamilyDensity:
    def test_coin_family_passes_modest_grid(self):
        report = par5_family(coin_family(8), 3, F(1, 10))
        assert report.passed and not report.vacuous
        assert report.targets_checked == 27

    def test_single_atom_family_fails_midpoint(self):
        report = par5_family(build_family([uniform(1)]), 3, F(1, 4))
        assert not report.passed
        missed = {tuple(t) for t, _ in report.failures}
        assert (F(1, 2), F(1, 2), F(1, 2)) in missed

    def test_empty_grid_is_a_flagged_vacuous_pass(self):
        report = par5_family(build_family([uniform(1)]), 0, F(1, 4))
        assert report.passed and report.vacuous

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            par5_family(build_family([uniform(1)]), -3, F(1, 4))

    def test_grid_over_the_target_limit_rejected(self):
        over = round(DENSITY_TARGET_LIMIT ** (1 / 3)) + 1
        with pytest.raises(ValueError, match="over the limit"):
            par5_family(build_family([uniform(1)]), over, F(1, 4))

    @pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
    def test_nonpositive_epsilon_rejected_before_any_probe(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            par5_family(build_family([uniform(1)]), 0, eps)

    def test_empty_family_rejected(self):
        class Fake:
            members = ()
        with pytest.raises(ValueError):
            par5_family(Fake(), 3, F(1, 10))


class TestChainConsistency:
    def test_probability_structures_pass_nonvacuously(self):
        report = chain_consistency(gen_probability(
            Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)]
        ))
        assert report.passed and not report.vacuous
        assert report.instances > 0

    def test_single_atom_passes_vacuously(self):
        report = chain_consistency(uniform(1))
        assert report.passed and report.vacuous

    def test_forged_table_yields_certificate(self):
        b = load_structure(fixture_path("chain_conflict.bel"))
        report = chain_consistency(b)
        assert report.status == "fail"
        (_, r), (_, s) = (instance(b, masks) for masks in report.certificate[2:])
        assert r != s
        assert chain_certificate(b).recheck(b)

    def test_certificate_recheck_rejects_other_structures(self):
        b = load_structure(fixture_path("chain_conflict.bel"))
        other = gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        assert not chain_certificate(b).recheck(other)

    def test_extraction_conflict_reported_untestable(self):
        report = chain_consistency(load_structure(fixture_path("a2_conflict.bel")))
        assert report.status == "untestable"
        assert "conflict" in report.detail


class TestNegationInvolution:
    def test_probability_structures_pass_exactly(self):
        report = bel_level_negation(gen_probability(
            Domain(("a", "b")), [F(1, 3), F(2, 3)]
        ))
        assert report.passed
        assert report.checked > 0

    def test_extraction_conflict_reported_untestable(self):
        report = bel_level_negation(load_structure(fixture_path("a1_conflict.bel")))
        assert report.status == "untestable"


class TestAudits:
    def test_t1_on_probability_structure(self):
        report = audit(gen_probability(
            Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)]
        ), "1")
        verdicts = {h.name: h.status for h in report.hypotheses}
        assert verdicts["par1-range"] == "pass"
        assert verdicts["par2-endpoints"] == "pass"
        assert verdicts["par3-negation-decreasing"] == "pass"
        assert verdicts["par4-combination-strict-increase"] == "pass"
        assert verdicts["par5-density"] == "fail"
        par5 = next(h for h in report.hypotheses if h.name == "par5-density")
        assert "unsatisfiable on a finite domain" in par5.witness
        assert "gap = " in par5.witness

    def test_t1_names_are_unique(self):
        report = audit(uniform(2), "1")
        names = [h.name for h in report.hypotheses]
        assert len(names) == len(set(names))

    def test_t2_on_probability_structure_fails_refutation_bullet(self):
        report = audit(uniform(2), "2", seed=0)
        verdict = next(h for h in report.hypotheses if h.name == "verdict-refutation")
        assert verdict.status == "fail"
        assert "isomorphic" in verdict.witness

    def test_t2_on_min_fixture(self):
        b = load_structure(fixture_path("min_counterexample.bel"))
        report = audit(b, "2", seed=0)
        verdicts = {h.name: h.status for h in report.hypotheses}
        assert verdicts["verdict-refutation"] == "pass"
        assert verdicts["negation-linear-complement"] == "pass"
        assert verdicts["combination-commutative"] == "pass"
        assert verdicts["combination-annihilator"] == "pass"
        assert verdicts["combination-unit"] == "pass"
        assert verdicts["combination-nondecreasing"] == "pass"
        # a min-valued table repeats outputs at attained points, so the
        # strict-increase bullet genuinely fails; smoothness is metadata-only
        assert verdicts["combination-strict-increase"] == "fail"
        assert verdicts["combination-smoothness"] == "untestable"

    def test_t3_on_coin_extension(self):
        ext = coin_extend(Domain(("a", "b")), [F(1, 3), F(2, 3)], 1)
        report = audit(ext.base, "3", extension=ext)
        verdicts = {h.name: h.status for h in report.hypotheses}
        assert verdicts["extension-agreement"] == "pass"
        assert verdicts["par5-gap-shrinkage"] == "pass"
        assert report.notes  # existential hypothesis caveat

    def test_t3_detects_disagreeing_extension(self):
        from coxcheck.generators import ExtendedStructure
        base = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        wrong = coin_extend(Domain(("a", "b")), [F(1, 2), F(1, 2)], 1)
        ext = ExtendedStructure(base=base, extended=wrong.extended,
                                atom_blocks=wrong.atom_blocks, coin_count=1)
        report = audit(base, "3", extension=ext)
        agreement = next(h for h in report.hypotheses if h.name == "extension-agreement")
        assert agreement.status == "fail"

    def test_t3_requires_extension(self):
        with pytest.raises(ValueError):
            audit(uniform(2), "3")

    def test_t4_on_coin_family(self):
        report = audit(None, "4", family=coin_family(8),
                       grid_resolution=3, epsilon=F(1, 10))
        verdicts = {h.name: h.status for h in report.hypotheses}
        assert verdicts["uniform-negation"] == "pass"
        assert verdicts["uniform-combination"] == "pass"
        assert verdicts["par5-family-density"] == "pass"
        assert verdicts["par4-combination-continuity"] == "untestable"

    def test_t4_detects_nonuniform_negation(self):
        fam = build_family([
            gen_probability(Domain(("a", "b")), [F(1, 9), F(8, 9)]),
            gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2),
        ])
        assert not fam.negation_uniform
        report = audit(None, "4", family=fam, grid_resolution=2, epsilon=F(1, 4))
        verdict = next(h for h in report.hypotheses if h.name == "uniform-negation")
        assert verdict.status == "fail"

    def test_t4_checks_par3_and_par4_on_the_shared_bounds(self):
        # v ↦ 1 + v: x = e = 1 is excluded from Par4's comparisons
        family = build_family([affine_rescale(m, 1, 1) for m in coin_family(3).members])
        report = audit(None, "4", family=family, grid_resolution=2)
        verdicts = {h.name: h for h in report.hypotheses}
        assert verdicts["par3-negation-decreasing"].status == "pass"
        strict = verdicts["par4-combination-strict-increase"]
        assert strict.status == "pass"
        assert strict.witness.endswith("comparable pairs in (1,2]^2")

    def test_t4_members_on_different_bounds_leave_par3_and_par4_untestable(self):
        members = [affine_rescale(m, 1, 1) for m in coin_family(2).members]
        family = build_family(members + [uniform(2)])
        report = audit(None, "4", family=family, grid_resolution=2)
        verdicts = {h.name: h for h in report.hypotheses}
        for name in ("par3-negation-decreasing", "par4-combination-strict-increase",
                     "par4-combination-continuity"):
            assert verdicts[name].status == "untestable"
            assert verdicts[name].witness == "members 0 and 2 differ in bounds: [1,2] vs [0,1]"

    def test_t4_takes_the_bounds_of_the_merged_members(self):
        # a member over the "evidence" limit adds nothing to the merged S and
        # F, so its other bounds leave Par3/Par4 testable, even as member 0
        members = [affine_rescale(m, 1, 1) for m in coin_family(2).members]
        family = build_family([uniform(LIMITS["evidence"].atoms + 1), *members])
        assert family.merged == (1, 2)
        report = audit(None, "4", family=family, grid_resolution=2)
        verdicts = {h.name: h for h in report.hypotheses}
        assert verdicts["par3-negation-decreasing"].status == "pass"
        strict = verdicts["par4-combination-strict-increase"]
        assert strict.status == "pass"
        assert strict.witness.endswith("comparable pairs in (1,2]^2")

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            audit(uniform(2), "5")


A1_CLASH = ("S(1/2) is forced to both 3/5 [Bel({a}|{a b c})] and 1/2 [Bel({b}|{a b c})]")
A2_CLASH = {
    "a1_conflict": "F(3/5, 3/5) is forced to both 1/2 [({b} ⊆ {a b} ⊆ {a b c})] "
                   "and 2/5 [({c} ⊆ {b c} ⊆ {a b c})]",
    "a2_conflict": "F(1/4, 2/5) is forced to both 3/5 [({a} ⊆ {a b} ⊆ {a b c})] "
                   "and 1/5 [({b} ⊆ {b c} ⊆ {a b c})]",
}
A2_UNTESTABLE = [(name, "untestable", "A2 admits no function") for name in (
    "combination-annihilator", "combination-unit", "combination-nondecreasing",
    "combination-strict-increase", "combination-smoothness")]

#: Every hypothesis line of the theorem-1 and theorem-2 audits of the two
#: clash fixtures: (name, status, witness).
CLASH_AUDITS = {
    ("a1_conflict", "1"): [
        ("par1-range", "pass", "all values within [0,1]"),
        ("par2-endpoints", "pass", "Bel(∅|U)=0 and Bel(U|U)=1 for every nonempty U"),
        ("par3-negation-decreasing", "fail", f"A1 admits no function: {A1_CLASH}"),
        ("par4-combination-strict-increase", "fail",
         f"A2 admits no function: {A2_CLASH['a1_conflict']}"),
        ("par4-combination-continuity", "untestable", "A2 admits no function"),
        ("par5-density", "fail", "unsatisfiable on a finite domain: gap = 1/5 > 0"),
    ],
    ("a1_conflict", "2"): [
        ("range-in-interval", "pass", "all values within [0,1]"),
        ("negation-linear-complement", "fail", A1_CLASH),
        ("negation-smoothness", "untestable", "A1 admits no function"),
        ("combination-commutative", "fail", A2_CLASH["a1_conflict"]),
        *A2_UNTESTABLE,
        ("verdict-refutation", "pass", "refuted: A1-conflict"),
    ],
    ("a2_conflict", "1"): [
        ("par1-range", "pass", "all values within [0,1]"),
        ("par2-endpoints", "pass", "Bel(∅|U)=0 and Bel(U|U)=1 for every nonempty U"),
        ("par3-negation-decreasing", "pass", "strictly decreasing on 10 tabular points"),
        ("par4-combination-strict-increase", "fail",
         f"A2 admits no function: {A2_CLASH['a2_conflict']}"),
        ("par4-combination-continuity", "untestable", "A2 admits no function"),
        ("par5-density", "fail", "unsatisfiable on a finite domain: gap = 1/10 > 0"),
    ],
    ("a2_conflict", "2"): [
        ("range-in-interval", "pass", "all values within [0,1]"),
        ("negation-linear-complement", "pass",
         "extracted S-table is a restriction of x ↦ e+E−x"),
        ("negation-smoothness", "untestable",
         "declared smoothness applies to catalog forms only"),
        ("combination-commutative", "fail", A2_CLASH["a2_conflict"]),
        *A2_UNTESTABLE,
        ("verdict-refutation", "pass", "refuted: A2-conflict"),
    ],
}


@pytest.mark.parametrize("fixture,theorem", sorted(CLASH_AUDITS))
def test_clash_audits_print_every_hypothesis(fixture, theorem):
    """An A1 or A2 clash fails Par3/Par4 (theorem 1) and the first law of
    its form (theorem 2), and leaves the laws after it untestable."""
    report = audit(load_structure(fixture_path(f"{fixture}.bel")), theorem, seed=0)
    assert [(h.name, h.status, h.witness) for h in report.hypotheses] == (
        CLASH_AUDITS[fixture, theorem])


#: The verdict of `conditions.hypothesis` behind each line of `check` and of
#: theorems 1-3 that prints one, by printed name.
TABLE_ENTRIES = {
    "bounds-par1": lambda s: hypothesis(s, "par1"),
    "par1-range": lambda s: hypothesis(s, "par1"),
    "range-in-interval": lambda s: hypothesis(s, "par1"),
    "bounds-par2": lambda s: hypothesis(s, "par2"),
    "par2-endpoints": lambda s: hypothesis(s, "par2"),
    "negation-extraction": lambda s: hypothesis(s, "A1"),
    "combination-extraction": lambda s: hypothesis(s, "A2"),
    "chain-consistency": lambda s: hypothesis(s, "chain"),
    "negation-involution": lambda s: hypothesis(s, "involution"),
    "par3-negation-decreasing": lambda s: hypothesis(s, "par3/par4")[0],
    "par4-combination-strict-increase": lambda s: hypothesis(s, "par3/par4")[1],
    "par4-combination-continuity": lambda s: hypothesis(s, "par3/par4")[2],
}


def printed_lines(out: str) -> dict:
    """{name: (status, detail)} of the verdict lines a command printed."""
    lines = {}
    for line in out.splitlines():
        tag, name, _, detail = line[:10].strip(), *line[11:].partition("  ")
        if tag in ("PASS", "FAIL", "UNTESTABLE"):
            lines[name] = (tag.lower(), detail)
    return lines


def test_every_hypothesis_line_reads_the_table(tmp_path, capsys):
    """Each hypothesis line of `check` and of theorems 1 and 3 (theorem 3
    with the structure as its own extension) prints the table's verdict on
    a fresh copy of the structure.  Par1 reads the same under all its
    names, theorem 2's included, and an A1 or A2 clash fails Par3 or Par4,
    and theorem 2's first law of S or F, with the clash of `check`'s
    extraction line.  Over the fixtures and seeded tables, some merged so
    that A1 or A2 clashes."""
    paths = sorted(p for p in FIXTURES.glob("*.bel") if not p.name.startswith("bad_"))
    generated = [seeded_probability(n, seed) for n, seed in ((3, 1), (4, 2))]
    generated += [s for seed in (1, 2, 3) for _, _, s in list(merges(4, seed))[:3]]
    for i, structure in enumerate(generated):
        paths.append(tmp_path / f"generated-{i}.bel")
        save_structure(structure, paths[-1])
    seen = set()
    for path in paths:
        fresh = load_structure(path)
        gap = hypothesis(fresh, "par5-gap")
        runs = {}
        for run, argv in (("check", ["check", path]), ("1", ["audit", path, "--theorem", "1"]),
                          ("2", ["audit", path, "--theorem", "2"]),
                          ("3", ["audit", path, "--theorem", "3", "--extension", path])):
            main([str(a) for a in argv])
            out = capsys.readouterr().out
            runs[run] = printed_lines(out)
            if run == "check":
                assert f"INFO       par5-gap  {gap} " in out
        for run in ("check", "1", "3"):
            for name, line in runs[run].items():
                if name in TABLE_ENTRIES:
                    verdict = TABLE_ENTRIES[name](fresh)
                    assert line == (verdict.status, verdict.detail), (path.name, run, name)
                else:  # the lines read off the gap, and theorem 3's own
                    assert name in ("par5-density", "extension-agreement", "par5-gap-shrinkage")
        assert runs["1"]["par5-density"][1] == f"unsatisfiable on a finite domain: gap = {gap} > 0"
        assert runs["3"]["par5-gap-shrinkage"] == ("pass", f"gap {gap} → {gap}")
        assert (runs["check"]["bounds-par1"] == runs["1"]["par1-range"]
                == runs["2"]["range-in-interval"] == runs["3"]["par1-range"])
        for extraction, par, law, kind in (
                ("negation-extraction", "par3-negation-decreasing", "negation-linear-complement",
                 "A1"),
                ("combination-extraction", "par4-combination-strict-increase",
                 "combination-commutative", "A2")):
            status, clash = runs["check"][extraction]
            if status == "fail":
                seen.add(kind)
                assert runs["1"][par] == runs["3"][par] == (
                    "fail", f"{kind} admits no function: {clash}")
                assert runs["2"][law] == ("fail", clash)
        if runs["check"]["bounds-par1"][0] == "fail":
            seen.add("par1")
    assert seen == {"A1", "A2", "par1"}


class TestGuardsAndForgeries:
    def test_theorem_4_without_a_family(self):
        with pytest.raises(ValueError, match="^theorem 4 audit requires a domain family$"):
            audit(None, "4")

    @pytest.mark.parametrize("theorem, inputs, message", [
        ("1", {}, "theorem 1 audit requires a structure"),
        ("2", {}, "theorem 2 audit requires a structure"),
        ("3", {}, "theorem 3 audit requires an extension"),
        ("3", {"extension": "placeholder"}, "theorem 3 audit requires a structure"),
    ])
    def test_theorems_1_to_3_without_their_inputs(self, theorem, inputs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            audit(None, theorem, **inputs)

    @staticmethod
    def another_triple(structure, masks, keep):
        """The first chain triple of `structure` whose (args, output) differs
        from that of `masks` but agrees with it where `keep` says."""
        want = instance(structure, masks)
        return next(t for t in structure.canonical_triple_masks()
                    if (got := instance(structure, t)) != want and keep(got, want))

    @pytest.mark.parametrize("forge", [
        # the inner right entry's triple replaced by one of other arguments
        lambda s, c: (TestGuardsAndForgeries.another_triple(
            s, c[0], lambda got, want: got[0] != want[0]), *c[1:]),
        # the outer left entry's triple replaced by one of the same x and
        # another output
        lambda s, c: (*c[:2], TestGuardsAndForgeries.another_triple(
            s, c[2], lambda got, want: got[0][0] == want[0][0] and got[1] != want[1]), c[3]),
        # the inner triples exchanged: they no longer read (y, z) and (x, y)
        lambda s, c: (c[1], c[0], *c[2:]),
        # the outer triples exchanged
        lambda s, c: (*c[:2], c[3], c[2]),
    ], ids=["moved-argument", "moved-output", "inner-mislabelled", "outer-mislabelled"])
    def test_a_forged_chain_certificate(self, forge):
        structure = load_structure(FIXTURES / "chain_conflict.bel")
        certificate = chain_certificate(structure)
        assert certificate.recheck(structure)
        ((y, z), _), ((x, _), _) = (instance(structure, m) for m in certificate.instances[:2])
        assert (x, y, z) == (F(3, 7), F(2, 7), F(4, 7))
        forged = dataclasses.replace(
            certificate, instances=forge(structure, certificate.instances))
        assert not forged.recheck(structure)

    def test_a_non_commutative_combination(self):
        structure = complement_table(("1/4", "1/4", "1/3"), ("1/4", "1/4", "1/3"))
        verdicts = {h.name: h for h in audit(structure, "2").hypotheses}
        assert verdicts["combination-commutative"].status == "fail"
        assert verdicts["combination-commutative"].witness == (
            "F(2/3, 3/4) = 1/3 but F(3/4, 2/3) = 1/4")


def chain_certificate(structure) -> RefutationCertificate:
    """The chain-associativity certificate of `chain_consistency`'s failure."""
    report = chain_consistency(structure)
    return RefutationCertificate("chain-associativity", report.certificate, report.detail)
