import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from coxcheck.core import (
    BeliefDomainError,
    BeliefStructure,
    Domain,
    EmptyConditionError,
)


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


def count_chains(structure):
    """Number of nested quadruples with U3 ≠ ∅, by running the enumeration."""
    return sum(1 for _ in structure.chains())


def brute_force_chain_quadruples(domain):
    """Independent oracle: filter all event 4-tuples by pairwise inclusion.

    Deliberately ignorant of the submask trick in chains(); used to
    cross-check the enumeration.
    """
    masks = range(domain.full_mask + 1)
    return [
        (u1, u2, u3, u4)
        for u1, u2, u3, u4 in itertools.product(masks, repeat=4)
        if not (u2 & ~u1 or u3 & ~u2 or u4 & ~u3) and u3 != 0
    ]


class TestChains:
    def test_one_atom_has_two_chains(self):
        assert count_chains(uniform(1)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_enumeration_matches_brute_force(self, n):
        b = uniform(n)
        oracle = set(brute_force_chain_quadruples(b.domain))
        got = [(c.u1.mask, c.u2.mask, c.u3.mask, c.u4.mask) for c in b.chains()]
        assert len(got) == len(set(got)), "chains emitted more than once"
        assert set(got) == oracle

    def test_two_atom_count_frozen(self):
        # brute-force oracle over all event 4-tuples: 16 nested quadruples
        # with nonempty U3 over a 2-atom domain
        assert len(brute_force_chain_quadruples(Domain(("a", "b")))) == 16
        assert count_chains(uniform(2)) == 16

    def test_derived_values_are_definitional(self):
        b = BeliefStructure.from_weights(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        for c in b.chains():
            assert c.x == b.bel_masks(c.u4.mask, c.u3.mask)
            assert c.y == b.bel_masks(c.u3.mask, c.u2.mask)
            assert c.z == b.bel_masks(c.u2.mask, c.u1.mask)
            assert c.u_a == b.bel_masks(c.u4.mask, c.u2.mask)
            assert c.u_b == b.bel_masks(c.u3.mask, c.u1.mask)
            assert c.u_c == b.bel_masks(c.u4.mask, c.u1.mask)

    def test_enumeration_is_capped(self):
        with pytest.raises(BeliefDomainError, match="chain enumeration capped"):
            next(uniform(6).chains())


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
