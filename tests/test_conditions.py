import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxcheck.conditions import (
    DENSITY_TARGET_LIMIT,
    DensityProbe,
    FamilyDensityReport,
    TripleSearchResult,
    _chain_table,
    _random_levels,
    audit,
    bel_level_negation,
    chain_consistency,
    check_bounds,
    par5_family,
    par5_gap,
    par5_triples,
)
from coxcheck.core import EXHAUSTIVE_CHAIN_ATOM_LIMIT, BeliefStructure, Domain, Event
from coxcheck.files import load_structure
from coxcheck.forms import NegationForm, Verdict
from coxcheck.generators import (
    EVIDENCE_SIZE_CAP,
    affine_rescale,
    build_family,
    coin_extend,
    coin_family,
    gen_distorted,
    gen_probability,
)

from conftest import fixture_path


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

    def test_sixteen_atoms_hit_dyadic_targets_exactly(self):
        probe = DensityProbe(F(1, 2), F(1, 2), F(1, 2), F(1, 8))
        result = par5_triples(uniform(16), probe)
        assert result.passed
        assert result.deviation == 0
        sizes = (result.chain.u1.size, result.chain.u2.size,
                 result.chain.u3.size, result.chain.u4.size)
        assert sizes == (16, 8, 4, 2)

    @given(small_weights(), st.integers(0, 10))
    def test_epsilon_above_gap_with_trivial_tail_passes(self, ws, num):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_probability(d, ws)
        alpha = F(num, 10)
        probe = DensityProbe(alpha, 1, 1, par5_gap(b) + F(1, 1000))
        assert par5_triples(b, probe).passed

    def test_sampled_chain_is_nested_and_definitional(self):
        b = gen_probability(Domain(tuple("abcdef")), [F(i, 21) for i in range(1, 7)])
        hit = DensityProbe(F(1, 3), F(1, 2), F(2, 3), F(1, 10))
        miss = DensityProbe(F(1, 7), F(5, 7), F(3, 7), F(1, 10**6))
        for probe, seed in ((hit, 0), (hit, 3), (miss, 0), (miss, 3)):
            result = par5_triples(b, probe, seed=seed, budget=300)
            assert result.method == "sampled"
            c = result.chain
            assert c.u4.issubset(c.u3) and c.u3.issubset(c.u2) and c.u2.issubset(c.u1)
            assert not c.u3.is_empty
            assert c.x == b.bel(c.u4, c.u3)
            assert c.y == b.bel(c.u3, c.u2)
            assert c.z == b.bel(c.u2, c.u1)

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


def _oracle_submasks(mask):
    return sorted(s for s in range(mask + 1) if s & ~mask == 0)


def _oracle_level_sizes(parent, target, eps, floor_size):
    ordered = []
    base = round(target * parent)
    cap = math.ceil((target + eps) * parent) - 1
    for s in (base, base + 1, base - 1, base + 2, base - 2, cap, cap - 1):
        if floor_size <= s <= parent and s not in ordered:
            ordered.append(s)
    return ordered


def oracle_par5_triples(structure, probe, *, seed=0, budget=2000):
    """`par5_triples` as it was before chains were scored from three steps:
    every candidate is built with all six values through `_make_chain`, and
    the chain order, greedy order and sampler are spelt out here."""
    a, b, g = targets = probe.rescaled(structure.bounds)
    eps = probe.epsilon
    best = best_dev = None
    tried = 0

    def consider(*masks):
        nonlocal best, best_dev, tried
        tried += 1
        chain = structure._make_chain(*masks)
        dev = max(abs(chain.x - a), abs(chain.y - b), abs(chain.z - g))
        if best_dev is None or dev < best_dev:
            best, best_dev = chain, dev
        return chain, dev

    n = structure.domain.size
    full = structure.domain.full_mask
    if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT:
        for u1 in range(1, full + 1):
            for u2 in _oracle_submasks(u1):
                for u3 in _oracle_submasks(u2):
                    for u4 in _oracle_submasks(u3) if u3 else ():
                        chain, dev = consider(u1, u2, u3, u4)
                        if dev < eps:
                            return TripleSearchResult(True, chain, dev, "exhaustive", tried)
        return TripleSearchResult(False, best, best_dev, "exhaustive", tried)
    prefix = lambda s: (1 << s) - 1
    for s2 in _oracle_level_sizes(n, probe.gamma, eps, 1):
        for s3 in _oracle_level_sizes(s2, probe.beta, eps, 1):
            for s4 in _oracle_level_sizes(s3, probe.alpha, eps, 0):
                chain, dev = consider(full, prefix(s2), prefix(s3), prefix(s4))
                if dev < eps:
                    return TripleSearchResult(True, chain, dev, "sampled", tried)
    rng = random.Random(seed)
    while tried < budget:
        us = [0, 0, 0, 0]
        for i in range(n):
            level = rng.randint(0, 4)
            for j in range(level):
                us[j] |= 1 << i
        if us[2] == 0:
            continue
        chain, dev = consider(*us)
        if dev < eps:
            return TripleSearchResult(True, chain, dev, "sampled", tried)
    return TripleSearchResult(False, best, best_dev, "sampled", tried)


def _oracle_cases():
    """Coin members of 1-8 coins, non-uniform weight backings with k = 1-3,
    and tables on 1-5 atoms (exhaustive) and 6-7 atoms (sampled), each as
    a pytest param named after it."""
    rng = random.Random(2024)
    cases = [(f"coins-{i + 1}", m) for i, m in enumerate(coin_family(8).members)]
    for n, k in ((3, 1), (5, 2), (6, 3), (9, 1), (12, 2), (20, 3)):
        ints = [rng.randint(1, 9) for _ in range(n)]
        domain = Domain(tuple(f"x{i}" for i in range(n)))
        ws = [F(i, sum(ints)) for i in ints]
        cases.append((f"weights-n{n}-k{k}", BeliefStructure.from_weights(domain, ws, k)))
    for n in (1, 2, 4, 5, 6, 7):
        ints = [rng.randint(1, 9) for _ in range(n)]
        base = gen_probability(Domain(tuple(f"x{i}" for i in range(n))),
                               [F(i, sum(ints)) for i in ints])
        # a monotone relabelling onto [1, 2]: a table, and rescaled targets
        cases.append((f"table-n{n}", base.map_values(lambda v: 1 + v * v / (2 - v),
                                                     bounds=(F(1), F(2)))))
    return [pytest.param(name, structure, id=name) for name, structure in cases]


class TestTriplesOracle:
    """`par5_triples` returns exactly what six-value scoring returned: the
    same verdict, chain, deviation, method and candidate count."""

    # (0, 0, 1) is never met, (1, 1, 1) always; the tight ε misses more
    PROBES = [
        DensityProbe(*target, eps)
        for targets, eps in (
            ([(0, 0, 1), (1, 1, 1), (0, F(1, 3), 1), (F(1, 3), F(1, 2), F(1, 3)),
              (F(1, 2),) * 3, (1, F(1, 3), F(1, 2)), (F(1, 2), 1, F(1, 3))], F(1, 40)),
            ([(F(1, 3),) * 3, (F(1, 3), F(1, 2), 1)], F(1, 10**6)),
        )
        for target in targets
    ]

    @pytest.mark.parametrize("name,structure", _oracle_cases())
    def test_matches_six_value_scoring(self, name, structure):
        sampled = structure.domain.size > EXHAUSTIVE_CHAIN_ATOM_LIMIT
        outcomes = set()
        for seed in (0, 7) if sampled else (0,):
            for probe in self.PROBES:
                got = par5_triples(structure, probe, seed=seed, budget=400)
                assert got == oracle_par5_triples(
                    structure, probe, seed=seed, budget=400
                ), (name, seed, probe)
                outcomes.add(got.passed)
        assert outcomes == {True, False}, name


    # 1/p over distinct primes near 10^4: the units of 7 atoms total about
    # 2^80, beyond int64, so the chain masses are summed in Python ints
    PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069)

    @pytest.mark.parametrize("name,structure", [
        param for param in _oracle_cases()
        if param.id in ("coins-3", "coins-4", "weights-n9-k1", "weights-n12-k2",
                        "table-n5", "table-n7")
    ])
    def test_matches_six_value_scoring_at_full_budget(self, name, structure):
        for probe in self.PROBES[::2]:
            got = par5_triples(structure, probe, budget=2000)
            assert got == oracle_par5_triples(structure, probe, budget=2000), (name, probe)

    def test_one_structure_probed_with_interleaved_seeds_and_budgets(self):
        """The chain table is kept per structure and seed and grows on demand:
        a stale or shared table would change a later answer."""
        structure = BeliefStructure.from_weights(
            Domain(tuple(f"x{i}" for i in range(7))),
            [F(i, 28) for i in range(1, 8)], 2,
        )
        calls = [(0, 50), (7, 2000), (0, 400), (3, 50), (7, 300), (0, 2000), (3, 2000)]
        for i, (seed, budget) in enumerate(calls * 2):
            probe = self.PROBES[i % len(self.PROBES)]
            got = par5_triples(structure, probe, seed=seed, budget=budget)
            assert got == oracle_par5_triples(
                structure, probe, seed=seed, budget=budget
            ), (seed, budget, probe)

    def test_unit_total_beyond_int64_uses_the_lookup_path(self):
        inverse = [F(1, p) for p in self.PRIMES]
        weights = [w / sum(inverse) for w in inverse]
        structure = BeliefStructure.from_weights(
            Domain(tuple(f"x{i}" for i in range(len(weights)))), weights
        )
        assert max(w.denominator for w in weights) >= 1 << 62  # the unit total
        outcomes = set()
        for probe in self.PROBES:
            got = par5_triples(structure, probe, seed=5, budget=400)
            assert got == oracle_par5_triples(structure, probe, seed=5, budget=400), probe
            outcomes.add(got.passed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("coins", [6, 7, 8])
    def test_large_coin_members_over_several_seeds(self, coins):
        member = coin_family(coins).members[-1]
        for seed in (1, 2, 11):
            for probe in self.PROBES[::3] + self.PROBES[-2:]:
                got = par5_triples(member, probe, seed=seed, budget=400)
                assert got == oracle_par5_triples(
                    member, probe, seed=seed, budget=400
                ), (seed, probe)

    def test_missed_target_on_a_256_atom_coin_member(self):
        member = coin_family(8).members[-1]
        assert member.domain.size == 256
        probe = DensityProbe(F(1, 3), F(1, 3), F(1, 3), F(1, 10**6))
        got = par5_triples(member, probe, seed=3)
        assert not got.passed and got.candidates_tried == 2000
        assert got == oracle_par5_triples(member, probe, seed=3)


class TestRandomLevels:
    """The sampler's bulk draw is the stream of one `randint(0, 4)` per atom,
    rows without a level of 3 or more skipped: a change to how `random`
    draws would change which chains are sampled, and fails here."""

    @pytest.mark.parametrize("n", [6, 13, 100])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_blocks_match_a_randint_loop(self, n, seed):
        rng = random.Random(seed)
        want = []
        while len(want) < 957:
            row = [rng.randint(0, 4) for _ in range(n)]
            if max(row) >= 3:
                want.append(row)
        for count in (1, 256, 700, 957):
            got = _random_levels(n, seed, count)
            assert got.tolist() == want[:count], count

    @pytest.mark.parametrize("n", [32, 256])
    def test_a_table_scores_only_the_chains_asked_for(self, n):
        structure = uniform(n)
        table = _chain_table(structure, 4)
        table.grow(structure, 2000)
        assert len(table.steps) == len(table.masks) == 2000


def oracle_par5_family(family, grid_resolution, epsilon, *, seed=0, budget=2000):
    """`par5_family` assembled from `oracle_par5_triples`: members largest
    first, a target's best deviation and member over the members probed up
    to its first hit, and the worst target over all."""
    members = family.members
    if grid_resolution == 1:
        grid = [F(0)]
    else:
        grid = [F(i, grid_resolution - 1) for i in range(grid_resolution)]
    order = sorted(range(len(members)), key=lambda i: -members[i].domain.size)
    failures, worst = [], None
    for target in ((a, b, g) for a in grid for b in grid for g in grid):
        probe = DensityProbe(*target, epsilon)
        best = None
        for i in order:
            result = oracle_par5_triples(members[i], probe, seed=seed, budget=budget)
            if best is None or result.deviation < best[0]:
                best = (result.deviation, i)
            if result.passed:
                break
        else:
            failures.append((target, best[0]))
        if worst is None or best[0] > worst[1]:
            worst = (target, best[0], best[1])
    return FamilyDensityReport(
        not failures, False, grid_resolution, F(epsilon), len(grid) ** 3,
        tuple(failures), worst,
    )


class TestFamilyDensityOracle:
    """The whole family report, failures with their best deviations and the
    worst target with its member, equals the one the oracle assembles."""

    @pytest.mark.parametrize("coins", [3, 4])
    @pytest.mark.parametrize("grid", [3, 4, 5])
    def test_coin_families(self, coins, grid):
        family = coin_family(coins)
        got = par5_family(family, grid, F(1, 20), seed=4, budget=150)
        assert got == oracle_par5_family(family, grid, F(1, 20), seed=4, budget=150)
        assert got.failures and got.worst_target

    def test_non_uniform_family(self):
        members = []
        for n, k in ((3, 1), (4, 2), (7, 1), (9, 3)):
            domain = Domain(tuple(f"x{i}" for i in range(n)))
            ints = list(range(1, n + 1))
            members.append(BeliefStructure.from_weights(
                domain, [F(i, sum(ints)) for i in ints], k
            ))
        family = build_family(members)
        got = par5_family(family, 4, F(1, 10), seed=2, budget=150)
        assert got == oracle_par5_family(family, 4, F(1, 10), seed=2, budget=150)
        assert got.failures and got.worst_target

    @staticmethod
    def check(members, grid, eps, *, seed=0, budget=2000):
        """par5_family on a family of `members` equals the oracle's report;
        the report, for the caller to look into."""
        family = SimpleNamespace(members=tuple(members))
        got = par5_family(family, grid, eps, seed=seed, budget=budget)
        assert got == oracle_par5_family(family, grid, eps, seed=seed, budget=budget)
        return got

    @pytest.mark.parametrize("bounds", [(F(1), F(2)), (F(-1, 2), F(3))], ids=["1-2", "-1/2-3"])
    def test_table_members_on_other_bounds(self, bounds):
        e, big_e = bounds
        rng = random.Random(31)
        members = []
        for n in (2, 4, 6, 7):
            ints = [rng.randint(1, 9) for _ in range(n)]
            base = gen_probability(Domain(tuple(f"x{i}" for i in range(n))),
                                   [F(i, sum(ints)) for i in ints])
            members.append(base.map_values(lambda v: e + (big_e - e) * v * v / (2 - v),
                                           bounds=bounds))
        got = self.check(members, 3, F(1, 10), seed=3, budget=120)
        assert got.failures and not got.passed

    @pytest.mark.parametrize("k", [2, 3])
    def test_weight_members_with_exponents(self, k):
        rng = random.Random(k)
        members = []
        for n in (3, 6, 8, 11):
            ints = [rng.randint(1, 9) for _ in range(n)]
            members.append(BeliefStructure.from_weights(
                Domain(tuple(f"x{i}" for i in range(n))), [F(i, sum(ints)) for i in ints], k))
        got = self.check(members, 3, F(1, 8), seed=5, budget=100)
        assert got.failures

    @pytest.mark.parametrize("budget", [0, 5, 50])
    def test_budgets_below_the_greedy_count(self, budget):
        # a budget at or below a target's greedy chain count leaves it no
        # random chain at all
        members = [*coin_family(4).members,
                   BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(7))),
                                                [F(i, 28) for i in range(1, 8)])]
        self.check(members, 4, F(1, 20), seed=6, budget=budget)

    @pytest.mark.parametrize("eps", [F(1), F(3, 2)])
    def test_epsilon_of_one_or_more(self, eps):
        got = self.check(coin_family(4).members, 3, eps, seed=1, budget=50)
        assert got.passed

    @pytest.mark.parametrize("coins", [1, 4])
    def test_grid_of_one(self, coins):
        got = self.check(coin_family(coins).members, 1, F(1, 10), budget=50)
        assert got.targets_checked == 1

    def test_values_beyond_the_float_range(self):
        # on the bounds [0, 10^400] every nonzero value and target reads as
        # an infinite float, so missed targets are rechecked on every chain
        big = F(10) ** 400
        members = [uniform(n).map_values(lambda v: v * big, bounds=(F(0), big))
                   for n in (2, 3, 6)]
        got = self.check(members, 3, F(1, 20), seed=1, budget=80)
        assert got.failures

    def test_half_sizes_round_to_even(self):
        """γ = 1/2 under an odd parent gives a size of k + 1/2, which
        `round` takes to the even neighbour: 9/2 to 4, 7/2 to 4."""
        assert (round(F(9, 2)), round(F(7, 2))) == (4, 4)
        members = [uniform(n) for n in (7, 9, 11)] + [BeliefStructure.from_weights(
            Domain(tuple(f"x{i}" for i in range(13))), [F(i, 91) for i in range(1, 14)])]
        for member in members:
            for eps in (F(1, 5), F(1, 50), F(1, 10**6)):
                probe = DensityProbe(F(1, 2), F(1, 2), F(1, 2), eps)
                got = par5_triples(member, probe, seed=2, budget=60)
                assert got == oracle_par5_triples(member, probe, seed=2, budget=60)
        self.check(members, 3, F(1, 30), seed=2, budget=60)

    def test_builds_no_chain_quadruple(self, monkeypatch):
        def refuse(*masks):
            raise AssertionError("par5_family built a ChainQuadruple")
        members = [*coin_family(4).members, uniform(7).map_values(lambda v: v, (F(0), F(1)))]
        monkeypatch.setattr(BeliefStructure, "_make_chain", refuse)
        report = par5_family(SimpleNamespace(members=tuple(members)), 4, F(1, 20), budget=150)
        assert report.failures  # missed targets went through every member's table


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
        cert = report.certificate
        assert cert.sides[0] != cert.sides[1]
        assert cert.recheck(b)

    def test_certificate_recheck_rejects_other_structures(self):
        b = load_structure(fixture_path("chain_conflict.bel"))
        other = gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        cert = chain_consistency(b).certificate
        assert not cert.recheck(other)

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
        assert report.checked > 0 and report.gaps == 0

    def test_forged_table_fails_at_the_documented_point(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        forged = NegationForm(kind="tabular", table={
            F(0): F(1), F(1): F(0), F(1, 3): F(2, 3), F(2, 3): F(1, 2),
            F(1, 2): F(2, 3),
        })
        report = bel_level_negation(b, forged)
        assert report.status == "fail"
        assert report.failures[0][0] == F(1, 3)  # S(S(1/3)) = 1/2 ≠ 1/3

    def test_table_gaps_counted_as_untestable_points(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        sparse = NegationForm(kind="tabular", table={
            F(0): F(1), F(1): F(0), F(1, 3): F(2, 3),  # no entry for 2/3
        })
        report = bel_level_negation(b, sparse)
        assert report.passed
        assert report.gaps == 2  # 1/3 hits the gap on the 2nd hop; 2/3 on the 1st

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
        # a member above EVIDENCE_SIZE_CAP adds nothing to the merged S and
        # F, so its other bounds leave Par3/Par4 testable, even as member 0
        members = [affine_rescale(m, 1, 1) for m in coin_family(2).members]
        family = build_family([uniform(EVIDENCE_SIZE_CAP + 1), *members])
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
