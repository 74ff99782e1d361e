import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxcheck.cli import main
from coxcheck import conditions
from coxcheck.core import (
    BeliefDomainError,
    BeliefStructure,
    Domain,
    EmptyConditionError,
    Event,
    intern_values,
    rank_values,
    submask_table,
    weight_units,
)
from coxcheck.files import load_structure, parse_value
from coxcheck.isomorphism import decide, verify_witness

from conftest import FIXTURES


def uniform(n):
    atoms = tuple("abcdef"[:n]) if n <= 6 else tuple(f"x{i}" for i in range(n))
    return BeliefStructure.from_weights(Domain(atoms), [F(1, n)] * n)


@st.composite
def weight_vectors(draw, max_atoms=4):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    ints = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(ints)
    return [F(i, total) for i in ints]


class TestDomainAndEvents:
    def test_domain_requires_atoms(self):
        with pytest.raises(BeliefDomainError):
            Domain(())

    def test_domain_rejects_duplicates(self):
        with pytest.raises(BeliefDomainError):
            Domain(("a", "a"))

    def test_index_is_the_atom_position(self):
        d = Domain(["c", "a", "b"])
        assert [d.index(a) for a in "abc"] == [1, 2, 0]
        assert d == Domain(("c", "a", "b")) and hash(d) == hash(Domain(("c", "a", "b")))
        assert repr(d) == "Domain(atoms=('c', 'a', 'b'))"
        with pytest.raises(BeliefDomainError, match=r"^unknown atom 'z'$"):
            d.index("z")

    def test_event_complement_partitions(self):
        d = Domain(("a", "b", "c"))
        ev = d.event(["a", "c"])
        assert (ev | ev.complement()).mask == d.full_mask
        assert (ev & ev.complement()).is_empty
        assert ev.members == ("a", "c")
        assert "a" in ev and "b" not in ev

    def test_event_subset(self):
        d = Domain(("a", "b"))
        assert d.event(["a"]).issubset(d.whole)
        assert not d.whole.issubset(d.event(["a"]))

    def test_cross_domain_ops_rejected(self):
        with pytest.raises(BeliefDomainError):
            Domain(("a",)).whole & Domain(("b",)).whole


class TestBel:
    def test_uniform_two_atoms(self):
        b = uniform(2)
        d = b.domain
        assert b.bel(d.event(["a"]), d.whole) == F(1, 2)

    def test_conditioning_on_empty_rejected(self):
        b = uniform(2)
        with pytest.raises(EmptyConditionError):
            b.bel(b.domain.whole, b.domain.empty)

    def test_full_conditional_is_one(self):
        b = uniform(3)
        d = b.domain
        for u in range(1, d.full_mask + 1):
            assert b.bel_masks(d.full_mask, u) == 1

    def test_disjoint_lookup_canonicalizes_to_zero(self):
        b = uniform(2)
        d = b.domain
        assert b.bel(d.event(["a"]), d.event(["b"])) == 0

    @given(weight_vectors())
    def test_canonicalization(self, weights):
        d = Domain(tuple(f"x{i}" for i in range(len(weights))))
        b = BeliefStructure.from_weights(d, weights)
        for u in range(1, d.full_mask + 1):
            for v in range(d.full_mask + 1):
                assert b.bel_masks(v, u) == b.bel_masks(v & u, u)

    def test_weights_must_be_positive_and_normalized(self):
        d = Domain(("a", "b"))
        with pytest.raises(BeliefDomainError):
            BeliefStructure.from_weights(d, [F(0), F(1)])
        with pytest.raises(BeliefDomainError):
            BeliefStructure.from_weights(d, [F(1, 2), F(1, 3)])

    # each row breaks every check from its own on; the first check fires
    @pytest.mark.parametrize("weights,exponent,message", [
        ([F(1, 2), F(1, 2)], F(3, 2), "one weight per atom required"),
        ([0, F(1, 2), F(1, 4)], 0, "atom weights must be strictly positive"),
        ([-1, 1, 2], 0, "atom weights must be strictly positive"),
        ([F(1, 2), F(1, 2), F(1, 2)], 0, "atom weights must sum to 1"),
        (["1/4", 0.25, F(1, 2)], 0, "exponent must be a positive integer"),
        (["1/4", 0.25, F(1, 2)], -3, "exponent must be a positive integer"),
    ])
    def test_weight_checks_fire_in_order(self, weights, exponent, message):
        d = Domain(("a", "b", "c"))
        with pytest.raises(BeliefDomainError, match=f"^{message}$"):
            BeliefStructure.from_weights(d, weights, exponent=exponent)

    def test_weight_units(self):
        assert weight_units([F(1, 2), F(1, 3), F(1, 6)]) == (3, 2, 1)
        assert weight_units([F(1)]) == (1,)
        with pytest.raises(BeliefDomainError, match="^generator weights must be strictly positive$"):
            weight_units([F(3, 2), F(-1, 2)], "generator weights")
        with pytest.raises(BeliefDomainError, match="^atom weights must sum to 1$"):
            weight_units([F(1, 2), F(1, 3)])

    @pytest.mark.parametrize("exponent", [1.5, 2.0, F(3, 2), "2"])
    def test_a_non_integral_exponent_is_refused(self, exponent):
        with pytest.raises(TypeError):
            BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 3), F(2, 3)],
                                         exponent=exponent)

    def test_numpy_integer_exponent(self):
        b = BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 3), F(2, 3)],
                                         exponent=np.int64(2))
        assert b.exponent == 2 and type(b.exponent) is int
        assert b.bel_masks(1, 3) == F(1, 9)

    def test_weights_of_every_spelling(self):
        d = Domain(("a", "b", "c", "d"))
        for ws in (["1/4", F(2, 8), 0.25, "0.25"], ["2/8"] * 4, [F(1, 4)] * 4):
            b = BeliefStructure.from_weights(d, ws)
            assert b.weights == (F(1, 4),) * 4 and b.is_uniform
        assert BeliefStructure.from_weights(Domain(("a",)), [1]).is_uniform
        mixed = BeliefStructure.from_weights(d, ["1/2", 0.125, F(1, 8), F(2, 8)])
        assert mixed.weights == (F(1, 2), F(1, 8), F(1, 8), F(1, 4))
        assert not mixed.is_uniform

    def test_table_must_be_total(self):
        d = Domain(("a", "b"))
        with pytest.raises(BeliefDomainError):
            BeliefStructure.from_table(d, {(0, 3): F(0)})


class TestAttained:
    def test_uniform_two_atom_unconditional(self):
        assert uniform(2).attained("unconditional") == [F(0), F(1, 2), F(1)]

    def test_third_two_thirds_conditional(self):
        b = BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        # oracle: enumerate every canonical pair by hand
        expected = sorted({x for _, _, x in b.items()})
        assert expected == [F(0), F(1, 3), F(2, 3), F(1)]
        assert b.attained("conditional") == expected

    def test_single_atom(self):
        assert uniform(1).attained("conditional") == [F(0), F(1)]

    @given(weight_vectors())
    def test_conditional_contains_unconditional(self, weights):
        d = Domain(tuple(f"x{i}" for i in range(len(weights))))
        b = BeliefStructure.from_weights(d, weights)
        assert set(b.attained("conditional")) >= set(b.attained("unconditional"))

    def test_uniform_fast_path_matches_enumeration(self):
        n = 7
        b = uniform(n)
        slow = sorted(
            {
                F(bin(v).count("1"), bin(u).count("1"))
                for u in range(1, 1 << n)
                for v in range(1 << n)
                if v & ~u == 0
            }
        )
        assert b.attained("conditional") == slow


def brute_force_steps(structure):
    """Every canonical pair (v, u) with v ≠ 0, and every one with u ≠ 0: the
    up steps by child, parents ascending, and the down steps by parent."""
    n = structure.domain.size
    pairs = [(v, u) for u in range(1, 1 << n) for v in range(u + 1) if v & ~u == 0]
    return sorted((v, u) for v, u in pairs if v), pairs


class TestChains:
    def test_derived_values_are_definitional(self):
        # every nested chain U1 ⊇ U2 ⊇ U3 ⊇ U4 with U3 ≠ ∅, by brute force
        b = BeliefStructure.from_weights(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        masks = range(b.domain.full_mask + 1)
        for u1, u2, u3, u4 in itertools.product(masks, repeat=4):
            if u2 & ~u1 or u3 & ~u2 or u4 & ~u3 or u3 == 0:
                continue
            c = b._make_chain(u1, u2, u3, u4)
            assert (c.u1.mask, c.u2.mask, c.u3.mask, c.u4.mask) == (u1, u2, u3, u4)
            assert c.x == b.bel_masks(u4, u3)
            assert c.y == b.bel_masks(u3, u2)
            assert c.z == b.bel_masks(u2, u1)
            assert c.u_a == b.bel_masks(u4, u2)
            assert c.u_b == b.bel_masks(u3, u1)
            assert c.u_c == b.bel_masks(u4, u1)


class TestStepGraphs:
    """The steps the density pass reads: the canonical pairs of a table or
    weight backing, or the size pairs of a uniform one, each in its run and
    each with its normalized value."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bounds", [(F(0), F(1)), (F(1), F(3))], ids=["0-1", "1-3"])
    def test_mask_steps_are_the_canonical_pairs(self, n, bounds):
        rng = random.Random(n)
        ints = [rng.randint(1, 9) for _ in range(n)]
        base = BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(n))),
                                            [F(i, sum(ints)) for i in ints], 2)
        e, big_e = bounds
        structure = base.map_values(lambda v: e + (big_e - e) * v, bounds=bounds)
        graph = conditions._step_graph(structure)
        up, down = brute_force_steps(structure)
        runs = lambda start, total: np.repeat(np.arange(1, len(start) + 1),
                                              np.diff(np.append(start, total)))
        assert list(zip(runs(graph.up_start, len(up)).tolist(),
                        graph.up_parent.tolist())) == up
        assert list(zip(graph.down_child.tolist(),
                        runs(graph.down_start, len(down)).tolist())) == down
        for w, keys, steps in ((graph.up_w, graph.up_keys, up),
                               (graph.down_w, graph.down_keys, down)):
            exact = [graph.exact(k) for k in keys(np.arange(len(steps))).tolist()]
            assert exact == [(structure.bel_masks(v, u) - e) / (big_e - e) for v, u in steps]
            assert w.tolist() == [float(x) for x in exact]

    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (8, 3), (30, 1)])
    @pytest.mark.parametrize("bounds", [(F(0), F(1)), (F(-1, 3), F(2))], ids=["0-1", "-1/3-2"])
    def test_size_steps_are_the_size_pairs(self, n, k, bounds):
        structure = BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(n))),
                                                 [F(1, n)] * n, k, bounds)
        graph = conditions._step_graph(structure)
        e, big_e = bounds
        up = [(j, m) for j in range(1, n + 1) for m in range(j, n + 1)]
        down = [(j, m) for m in range(1, n + 1) for j in range(m + 1)]
        assert graph.up_parent.tolist() == [m for _, m in up]
        assert graph.down_child.tolist() == [j for j, _ in down]
        for w, keys, steps in ((graph.up_w, graph.up_keys, up),
                               (graph.down_w, graph.down_keys, down)):
            exact = [graph.exact(key) for key in keys(np.arange(len(steps))).tolist()]
            assert exact == [(F(j, m) ** k - e) / (big_e - e) for j, m in steps]
            assert w.tolist() == [float(x) for x in exact]  # correctly rounded
            assert len(set(keys(np.arange(len(steps))).tolist())) == len(set(exact))

    def test_size_values_beyond_int64_are_divided_as_python_ints(self):
        # 40^13 is beyond 2^53: the powers are taken in Python ints
        structure = BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(40))),
                                                 [F(1, 40)] * 40, 13)
        graph = conditions._step_graph(structure)
        assert graph.down_w[-2] == float(F(39, 40) ** 13)
        assert graph.up_w[0] == float(F(1, 1)) and graph.up_w[1] == float(F(1, 2) ** 13)


class TestStructureEquality:
    def test_weight_and_table_backings_compare_equal(self):
        b = uniform(2)
        t = BeliefStructure.from_table(b.domain, b.as_table())
        assert b == t and t == b

    def test_map_values_applies_everywhere(self):
        b = uniform(2)
        doubled = b.map_values(lambda v: v / 2 + F(1, 4), bounds=(F(1, 4), F(3, 4)))
        assert doubled.bel_masks(1, 3) == F(1, 2)
        assert doubled.bounds == (F(1, 4), F(3, 4))


def index_fixtures():
    return [
        load_structure(p) for p in sorted(FIXTURES.glob("*.bel"))
        if not p.name.startswith("bad_parse")
    ]


def sorted_ranking(xs):
    """The ranking oracle: `sorted()` of the distinct values, and the
    position of each x there."""
    values = sorted(set(xs))
    rank = {x: r for r, x in enumerate(values)}
    return values, [rank[x] for x in xs]


HUGE = 10 ** 999  # 1000 digits: far beyond the float range

#: Values a float-first sort could get wrong, in kinds that tie in floats.
AWKWARD_VALUES = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    # distinct values with the float of 1/3
    st.integers(-3, 3).map(lambda k: F(1, 3) + F(k, 10 ** 30)),
    # literals of 1000 digits, which overflow a float either way
    st.integers(-3, 3).map(lambda k: F(HUGE + k)),
    st.integers(-3, 3).map(lambda k: -F(HUGE + k, 7)),
    st.integers(1, 4).map(lambda k: F(HUGE, HUGE // 3 + k)),  # about 3, huge terms
    # denormal floats and values that underflow to 0.0 or -0.0
    st.integers(1, 4).map(lambda k: F(k, 10 ** 310)),
    st.integers(1, 4).map(lambda k: F(-k, 10 ** 330)),
    st.integers(1, 4).map(lambda k: F(k * 2 ** 60, 10 ** 330)),
    # one value in several spellings
    st.sampled_from(["1/2", "2/4", "0.5", "5e-1", "0", "-0", "0.0", "1/3", "2/6",
                     "-1/3", "-2/6"]).map(parse_value),
)


class TestRankValues:
    """The float-first ranking against `sorted()`."""

    @given(st.lists(AWKWARD_VALUES, max_size=40))
    def test_matches_sorted(self, xs):
        values, ranks = rank_values(xs)
        assert (values, ranks.tolist()) == sorted_ranking(xs)
        assert ranks.dtype == np.int64
        assert intern_values(iter(xs)) == sorted_ranking(xs)

    def test_every_awkward_kind_at_once(self):
        third = F(1, 3)
        assert float(third) == float(third + F(1, 10 ** 30))
        xs = [F(HUGE + 1), -F(HUGE), F(1, 10 ** 320), F(-1, 10 ** 330), third,
              third + F(1, 10 ** 30), third - F(1, 10 ** 30), F(0), F(2, 6),
              parse_value("0.5"), parse_value("1/2"), F(HUGE), -F(HUGE, 3), F(-1, 3)]
        values, ranks = rank_values(xs)
        assert (values, ranks.tolist()) == sorted_ranking(xs)
        assert len(values) == len(xs) - 2  # 2/6 is 1/3, and 0.5 is 1/2

    def test_the_first_of_equal_values_stands_for_them(self):
        a, b = F(1, 2), F(2, 4)
        assert a is not b
        values, _ = rank_values([F(1, 3), a, b])
        assert values[1] is a

    def test_no_fraction_is_hashed(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Fraction was hashed")

        xs = [F(k % 7, 3) for k in range(50)] + [F(HUGE), F(1, 3) + F(1, 10 ** 30)]
        expected = sorted_ranking(xs)
        monkeypatch.setattr(F, "__hash__", refuse)
        values, ranks = rank_values(xs)
        assert (values, ranks.tolist()) == expected

    def test_nothing_to_rank(self):
        values, ranks = rank_values([])
        assert values == [] and ranks.tolist() == []


class TestValueIndex:
    def test_values_strictly_increase_and_hold_the_bounds(self):
        for b in index_fixtures() + [uniform(3)]:
            index = b.value_index()
            assert all(x < y for x, y in zip(index.values, index.values[1:]))
            e, big_e = b.bounds
            assert index.values[index.e] == e and index.values[index.E] == big_e

    def test_ranks_come_in_canonical_order_and_name_each_value(self):
        for b in index_fixtures() + [uniform(3)]:
            index = b.value_index()
            assert [(v, u) for v, u, _ in index.pairs()] == list(b.canonical_pair_masks())
            assert [index.values[r] for _, _, r in index.pairs()] == [
                x for _, _, x in b.items()
            ]
            assert len(index.pair_rank) == 3 ** b.domain.size - 1  # no row for U = ∅

    def test_bounds_outside_the_attained_values_are_ranked_too(self):
        b = uniform(2).map_values(lambda v: v / 2 + F(1, 4), bounds=(F(0), F(1)))
        index = b.value_index()
        assert index.values == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert (index.e, index.E) == (0, 4)
        assert b.attained("conditional") == [F(1, 4), F(1, 2), F(3, 4)]

    def test_pair_rank_holds_the_ranks_in_canonical_order(self):
        for b in index_fixtures() + [uniform(3)]:
            index = b.value_index()
            assert index.pair_rank.dtype == np.int32
            assert index.pair_rank.tolist() == [r for _, _, r in index.pairs()]
            start, sub = submask_table(b.domain.size)
            for v, u, r in index.pairs():
                row = sub[start[u]:start[u + 1]].tolist()
                assert index.pair_rank[start[u] - 1 + row.index(v)] == r

    @pytest.mark.parametrize("n", range(7))
    def test_submask_table_lists_every_mask_s_submasks_ascending(self, n):
        start, sub = submask_table(n)
        assert len(start) == (1 << n) + 1 and len(sub) == 3 ** n
        for m in range(1 << n):
            assert sub[start[m]:start[m + 1]].tolist() == [
                s for s in range(m + 1) if s & ~m == 0
            ]

    def test_submask_table_places_chain_triples_in_their_rows(self):
        # A the c-th submask of U and B the j-th of A: B is U's sub[start[c] + j]-th
        start, sub = submask_table(4)
        for u in range(16):
            row = sub[start[u]:start[u + 1]].tolist()
            for c, a in enumerate(row):
                for j, b in enumerate(sub[start[a]:start[a + 1]].tolist()):
                    assert row[sub[start[c] + j]] == b

    def test_index_is_built_once(self):
        b = uniform(3)
        assert b.value_index() is b.value_index()

    def test_a_table_is_its_index(self):
        b = load_structure(FIXTURES / "three_atoms.bel")
        index = b.value_index()
        again = BeliefStructure.from_table(b.domain, index, bounds=b.bounds)
        assert again.value_index() is index and again == b
        with pytest.raises(BeliefDomainError, match="does not match"):
            BeliefStructure.from_table(b.domain, index, bounds=(F(0), F(2)))
        with pytest.raises(BeliefDomainError, match="does not match"):
            BeliefStructure.from_table(Domain(("a", "b")), index)

    def test_shuffled_bel_lines_change_nothing(self, tmp_path, capsys):
        rng = random.Random(5)
        for name in ("three_atoms.bel", "distorted_k2.bel", "order_conflict.bel",
                     "chain_conflict.bel", "gauge_rescaled_prob.bel"):
            lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
            head = [ln for ln in lines if not ln.startswith("bel ")]
            body = [ln for ln in lines if ln.startswith("bel ")]
            rng.shuffle(body)
            shuffled = tmp_path / name
            shuffled.write_text("\n".join(head + body) + "\n", encoding="utf-8")
            outputs = []
            for path in (FIXTURES / name, shuffled):
                b = load_structure(path)
                verdict = decide(b)
                cert = verdict.certificate
                n = b.domain.size
                skewed = [F(2, n + 1)] + [F(1, n + 1)] * (n - 1)
                main(["check", str(path)])
                outputs.append((
                    verdict.to_dict(),
                    cert and (cert.description, cert.recheck(b)),
                    verify_witness(b, skewed).failing,
                    capsys.readouterr().out,
                ))
            assert outputs[0][2] is not None
            assert outputs[0] == outputs[1], name


class TestGuards:
    """Each guard of the core types, through the call a caller makes."""

    def test_an_event_mask_outside_the_domain(self):
        with pytest.raises(BeliefDomainError, match="^event mask 4 outside domain$"):
            Event(Domain(("a", "b")), 4)

    @pytest.mark.parametrize("kwargs", [{}, {"table": {}, "weights": [F(1)]}])
    def test_exactly_one_backing(self, kwargs):
        with pytest.raises(BeliefDomainError, match="^exactly one of table/weights must be given$"):
            BeliefStructure(Domain(("a",)), **kwargs)

    def test_bounds_out_of_order(self):
        table = {(0, 1): F(0), (1, 1): F(1)}
        with pytest.raises(BeliefDomainError, match="^bounds must satisfy e < E$"):
            BeliefStructure.from_table(Domain(("a",)), table, bounds=(F(1), F(1)))

    def test_the_size_table_cap(self):
        n = 2049
        uniform = BeliefStructure.from_weights(Domain(tuple(f"x{i}" for i in range(n))),
                                               [F(1, n)] * n)
        with pytest.raises(BeliefDomainError, match="^size table capped at 2048 atoms$"):
            uniform.size_ranks()

    def test_an_unknown_attained_kind(self):
        with pytest.raises(ValueError, match="^unknown attained kind 'joint'$"):
            load_structure(FIXTURES / "three_atoms.bel").attained("joint")

    def test_attained_values_of_a_large_non_uniform_weighting(self):
        n = 21
        structure = BeliefStructure.from_weights(
            Domain(tuple(f"x{i}" for i in range(n))), [F(i, n * (n + 1) // 2) for i in range(1, n + 1)])
        with pytest.raises(BeliefDomainError,
                           match="^attained-value enumeration infeasible for this domain size$"):
            structure.attained()


class TestEqualityAndRepr:
    def test_equality(self):
        table = load_structure(FIXTURES / "weights_1_3.bel")
        weights = BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        assert table == weights and weights == table
        assert table != "weights_1_3.bel"  # NotImplemented, then identity
        assert table != BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 3), F(2, 3)],
                                                     bounds=(F(0), F(2)))

    def test_repr(self):
        weights = BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 3), F(2, 3)], exponent=2)
        assert repr(weights) == ("BeliefStructure(('a', 'b'), weights=(Fraction(1, 3), "
                                 "Fraction(2, 3)), k=2)")
        table = load_structure(FIXTURES / "weights_1_3.bel")
        assert repr(table) == "BeliefStructure(('a', 'b'), 8 entries)"
