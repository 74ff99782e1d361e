import bisect
import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxcheck.core import LIMITS, BeliefDomainError, BeliefStructure, Domain, rank_values
from coxcheck.files import load_structure, serialize_structure
from coxcheck.forms import (
    ExtractionConflict,
    combination_ranks,
    extract_combination,
    extract_negation,
    negation_ranks,
)
from coxcheck.generators import (
    DomainFamily,
    affine_rescale,
    build_family,
    coin_domain,
    coin_extend,
    coin_family,
    gen_distorted,
    gen_probability,
    search_min_counterexample,
)
from coxcheck.isomorphism import decide

from conftest import fixture_path, fixture_text


@st.composite
def weight_vectors(draw):
    n = draw(st.integers(2, 4))
    ints = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(ints)
    return [F(i, total) for i in ints]


class TestGenProbability:
    def test_uniform_values(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 2), F(1, 2)])
        assert b.bel_masks(0b01, 0b11) == F(1, 2)
        assert b.bel_masks(0b01, 0b01) == 1

    def test_three_atom_arithmetic(self):
        b = gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        assert b.bel_masks(0b011, 0b111) == F(1, 2)
        assert b.bel_masks(0b001, 0b011) == F(1, 3)

    def test_zero_weight_rejected(self):
        with pytest.raises(BeliefDomainError):
            gen_probability(Domain(("a", "b")), [F(0), F(1)])

    @given(weight_vectors())
    def test_extraction_invariants(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_probability(d, ws)
        neg = extract_negation(b)
        comb = extract_combination(b)
        assert all(x + s == 1 for x, s in neg.table.items())
        assert all(x * y == out for (x, y), out in comb.table.items())
        verdict = decide(b)
        assert verdict.kind == "witness"
        assert verdict.witness.as_fractions(d) == ws


class TestGenDistorted:
    def test_exponent_one_equals_probability(self):
        d = Domain(("a", "b"))
        assert gen_distorted(d, [F(1, 3), F(2, 3)], 1) == gen_probability(
            d, [F(1, 3), F(2, 3)]
        )

    def test_squared_values(self):
        b = gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2)
        assert b.bel_masks(0b01, 0b11) == F(1, 9)

    def test_order_structure_matches_probability(self):
        d = Domain(("a", "b", "c"))
        ws = [F(1, 6), F(1, 3), F(1, 2)]
        plain = gen_probability(d, ws)
        squared = gen_distorted(d, ws, 2)
        pairs = list(plain.canonical_pair_masks())
        rank = lambda b: sorted(range(len(pairs)),
                                key=lambda i: b.bel_masks(*pairs[i]))
        assert rank(plain) == rank(squared)

    def test_bad_exponent(self):
        with pytest.raises(BeliefDomainError, match="distortion exponent"):
            gen_distorted(Domain(("a",)), [F(1)], 0)
        with pytest.raises(TypeError):
            gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 1.5)

    def test_numpy_integer_exponent(self):
        d, ws = Domain(("a", "b")), [F(1, 3), F(2, 3)]
        assert gen_distorted(d, ws, np.int64(2)) == gen_distorted(d, ws, 2)


class TestCoinExtend:
    def test_product_weights(self):
        ext = coin_extend(Domain(("a", "b")), [F(1, 3), F(2, 3)], 1)
        assert ext.extended.weights == (F(1, 6), F(1, 6), F(1, 3), F(1, 3))

    def test_embedding_agreement(self):
        ext = coin_extend(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2)
        assert ext.verify_embedding()
        embedded_a = ext.embed(ext.base.domain.event(["a"]))
        assert ext.extended.bel_unconditional(embedded_a) == F(1, 3)

    def test_unconditional_gap_bound(self):
        from coxcheck.conditions import par5_gap
        d = Domain(("a", "b"))
        ws = [F(1, 2), F(1, 2)]
        for n in range(1, 7):
            ext = coin_extend(d, ws, n)
            assert par5_gap(ext.extended, "unconditional") <= F(1, 2 ** (n + 1))

    def test_witness_preserved_under_extension(self):
        ext = coin_extend(Domain(("a", "b")), [F(1, 4), F(3, 4)], 1)
        assert decide(ext.base).kind == "witness"
        assert decide(ext.extended).kind == "witness"

    def test_size_cap(self):
        with pytest.raises(BeliefDomainError, match="cap"):
            coin_extend(Domain(tuple(f"x{i}" for i in range(5))), [F(1, 5)] * 5, 12)


class TestCoinFamily:
    def test_single_member(self):
        fam = coin_family(1)
        assert len(fam.members) == 1
        assert fam.members[0].domain.size == 2

    def test_merged_combination_table_is_product_restriction(self):
        fam = coin_family(4)
        assert fam.combination_uniform
        # re-check every merged entry against multiplication
        assert all(x * y == out for (x, y), out in fam.f_evidence.items())
        assert all(x + s == 1 for x, s in fam.s_evidence.items())

    def test_large_members_are_noted_as_capped(self):
        fam = coin_family(12)
        assert "capped" in fam.evidence_note

    def test_family_cap(self):
        with pytest.raises(BeliefDomainError):
            coin_family(13)

    def test_nonuniform_negation_detected(self):
        fam = build_family([
            gen_probability(Domain(("a", "b")), [F(1, 9), F(8, 9)]),
            gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2),
        ])
        assert not fam.negation_uniform
        assert "differs across members" in fam.negation_detail


def evidence_read(member):
    """Whether `build_family` reads a member: a uniform weight backing up
    to the "evidence" limit's atoms, any other up to the "pairs" limit's."""
    cap = LIMITS["evidence" if member.is_uniform else "pairs"].atoms
    return member.domain.size <= cap


def evidence_note(skipped):
    if not skipped:
        return "all members contributed evidence"
    return (f"members {skipped} are over {LIMITS['pairs'].atoms} atoms, or "
            f"{LIMITS['evidence'].atoms} for uniform weights; evidence capped")


def oracle_build_family(members):
    """`build_family` as a loop over each member's Fraction S and F dicts:
    every field of the family, the evidence dicts in insertion order."""
    s_table: dict = {}
    f_table: dict = {}
    neg_ok, neg_detail = True, "merged S-table single-valued"
    comb_ok, comb_detail = True, "merged F-table single-valued"
    skipped = []
    for i, member in enumerate(members):
        if not evidence_read(member):
            skipped.append(i)
            continue
        neg = extract_negation(member)
        if isinstance(neg, ExtractionConflict):
            neg_ok, neg_detail = False, f"member {i}: {neg.describe(member.domain)}"
        else:
            for x, s_x in neg.table.items():
                if x in s_table and s_table[x] != s_x:
                    neg_ok = False
                    neg_detail = (
                        f"S({x}) differs across members: {s_table[x]} vs {s_x} "
                        f"(member {i})"
                    )
                else:
                    s_table.setdefault(x, s_x)
        comb = extract_combination(member)
        if isinstance(comb, ExtractionConflict):
            comb_ok, comb_detail = False, f"member {i}: {comb.describe(member.domain)}"
        else:
            for key, out in comb.table.items():
                if key in f_table and f_table[key] != out:
                    comb_ok = False
                    comb_detail = (
                        f"F({key[0]}, {key[1]}) differs across members: "
                        f"{f_table[key]} vs {out} (member {i})"
                    )
                else:
                    f_table.setdefault(key, out)
    return {
        "members": tuple(members),
        "s_evidence": list(s_table.items()),
        "f_evidence": list(f_table.items()),
        "negation_uniform": neg_ok,
        "negation_detail": neg_detail,
        "combination_uniform": comb_ok,
        "combination_detail": comb_detail,
        "evidence_note": evidence_note(skipped),
    }


def weighted(ints, exponent=1):
    domain = Domain(tuple(f"x{i}" for i in range(len(ints))))
    return BeliefStructure.from_weights(
        domain, [F(i, sum(ints)) for i in ints], exponent
    )


def relabelled(structure, g):
    return structure.map_values(g, bounds=structure.bounds)


def uniform(n):
    return gen_probability(Domain(tuple(f"u{i}" for i in range(n))), [F(1, n)] * n)


def halfway_square(v):
    return (v + v * v) / 2


def move_a_third(v):
    """Strictly increasing on the values of three equal weights, fixing all
    but 1/3: S and F then differ from the unmoved table's at some keys."""
    return F(1, 4) if v == F(1, 3) else v


#: Families whose merge the array path must reproduce field for field.
ORACLE_FAMILIES = {
    # members that disagree on S and on F, each second disagreeing member
    # agreeing with the one before it but not with the first to have a key
    "disagreeing": lambda: [
        weighted([1, 8]), weighted([1, 2], 2), weighted([1, 2], 2),
        weighted([1, 1, 1]), relabelled(weighted([1, 1, 1]), move_a_third),
        relabelled(weighted([1, 1, 1]), move_a_third), weighted([1, 1, 2]),
    ],
    "member-conflicts": lambda: [
        weighted([1, 8]), load_structure(fixture_path("a1_conflict.bel")),
        relabelled(weighted([1, 2]), halfway_square),
        load_structure(fixture_path("a2_conflict.bel")), weighted([1, 2], 2),
    ],
    "conflict-last": lambda: [
        weighted([1, 8]), weighted([1, 2], 2),
        load_structure(fixture_path("a1_conflict.bel")),
    ],
    "interval-bounds": lambda: [
        load_structure(fixture_path("interval_bounds.bel")),
        affine_rescale(weighted([1, 2, 4]), F(1, 2), F(1, 4)),
        weighted([1, 2, 4]),
    ],
    "over-the-cap": lambda: [uniform(33), weighted([1, 2]), uniform(8), uniform(40)],
    "only-over-the-cap": lambda: [uniform(33)],
    # a non-uniform weight backing is read up to 12 atoms only
    "non-uniform-over-the-cap": lambda: [uniform(2), weighted(range(1, 14)), uniform(4)],
    "non-uniform": lambda: [
        weighted([1, 2, 3]), weighted([1, 2, 3, 4], 2), weighted([2, 1, 5, 1, 3]),
        weighted([1, 2, 3, 4, 5, 6], 3),
    ],
}


class TestBuildFamilyOracle:
    """`build_family` merges rank arrays; the oracle merges Fraction dicts."""

    @staticmethod
    def assert_matches_oracle(family):
        expected = oracle_build_family(family.members)
        got = {name: getattr(family, name) for name in expected}
        got["s_evidence"] = list(got["s_evidence"].items())
        got["f_evidence"] = list(got["f_evidence"].items())
        assert got == expected

    @pytest.mark.parametrize("coins", range(1, 7))
    def test_coin_families(self, coins):
        self.assert_matches_oracle(coin_family(coins))

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_families(self, name):
        self.assert_matches_oracle(build_family(ORACLE_FAMILIES[name]()))

    def test_the_detail_names_the_last_conflict_met(self):
        """Conflicts are met member by member; each is checked against the
        first member that has the key, not against the member before."""
        family = build_family(ORACLE_FAMILIES["disagreeing"]())
        assert not family.negation_uniform and not family.combination_uniform
        assert family.negation_detail.endswith("3/4 (member 6)")
        assert family.combination_detail == (
            "F(1/2, 2/3) differs across members: "
            "1/3 vs 1/4 (member 5)")
        family = build_family(ORACLE_FAMILIES["member-conflicts"]())
        assert family.negation_detail == (
            "S(1/9) differs across members: 8/9 vs 4/9 (member 4)")
        assert family.combination_detail.startswith("member 3: F(")
        family = build_family(ORACLE_FAMILIES["conflict-last"]())
        assert family.negation_detail.startswith("member 2: S(")
        assert family.combination_detail.startswith("member 2: F(")

    @given(st.lists(weight_vectors(), min_size=1, max_size=4), st.integers(1, 3))
    def test_random_weight_families(self, vectors, exponent):
        members = [gen_distorted(Domain(tuple(f"x{i}" for i in range(len(ws)))), ws,
                                 1 + (exponent * i) % 3)
                   for i, ws in enumerate(vectors)]
        self.assert_matches_oracle(build_family(members))


def reference_build_family(members):
    """`build_family` as it merged member by member: each member under the
    cap read on its own, and all their value lists ranked together."""
    members = tuple(members)
    used = [i for i, m in enumerate(members) if evidence_read(m)]
    skipped = sorted(set(range(len(members))) - set(used))
    local = [negation_ranks(members[i]).values for i in used]
    values, ranks = rank_values([x for xs in local for x in xs])
    width = len(values)
    to_global = np.split(ranks, np.cumsum([len(xs) for xs in local]))
    merged = []
    for label, read, extract in (("S", negation_ranks, extract_negation),
                                 ("F", combination_ranks, extract_combination)):
        detail, last = f"merged {label}-table single-valued", None
        runs, starts, offset = [(np.zeros(0, dtype=np.int64),) * 3], [], 0
        for i, g in zip(used, to_global):
            ranked = read(members[i])
            starts.append(offset)
            if ranked.clash is not None:
                conflict = extract(members[i]).describe(members[i].domain)
                detail, last = f"member {i}: {conflict}", offset
            else:
                x, y = np.divmod(ranked.keys, len(ranked.values))
                keys = g[ranked.keys] if label == "S" else g[x] * width + g[y]
                runs.append((keys, g[ranked.outs], ranked.first + offset))
            offset += int(ranked.layout.lengths.sum())
        keys, outs, first = (np.concatenate(run) for run in zip(*runs))
        order = np.argsort(keys, kind="stable")
        keys, outs, first = keys[order], outs[order], first[order]
        head = np.diff(keys, prepend=-1) != 0
        entry = np.flatnonzero(head)[head.cumsum() - 1]
        conflicts = np.flatnonzero(outs != outs[entry])
        if len(conflicts):
            k = conflicts[first[conflicts].argmax()]
            if last is None or first[k] > last:
                key, i = keys[k], used[bisect.bisect_right(starts, first[k]) - 1]
                name = (f"S({values[key]})" if label == "S"
                        else f"F({values[key // width]}, {values[key % width]})")
                detail = (f"{name} differs across members: {values[outs[entry[k]]]} "
                          f"vs {values[outs[k]]} (member {i})")
        merged += [(values, keys[head], outs[head], first[head]),
                   last is None and not len(conflicts), detail]
    return members, tuple(used), *merged, evidence_note(skipped)


def coins(count, exponent=1, bounds=(F(0), F(1))):
    """The uniform member on {0,1}^count, of the given exponent and bounds."""
    size = 1 << count
    return BeliefStructure.from_weights(coin_domain(count), [F(1, size)] * size,
                                        exponent, bounds)


#: Families with uniform members that `build_family` reads off the size
#: table of their largest one, beside members it reads on their own.
SIZE_TABLE_FAMILIES = {
    **{f"coins-{c}": lambda c=c: [coins(k) for k in range(1, c + 1)] for c in range(1, 9)},
    "coins-3-on-1-2": lambda: [affine_rescale(coins(k), 1, 1) for k in (1, 2, 3)],
    "coins-with-tables": lambda: [
        coins(3), load_structure(fixture_path("uniform2.bel")), coins(1),
        relabelled(weighted([1, 1, 1, 1]), halfway_square), coins(2), weighted([1, 3]),
    ],
    "largest-in-the-middle": lambda: [coins(1), coins(4), coins(2), coins(6), coins(3)],
    "exponents-and-bounds": lambda: [
        coins(2), coins(3, 2), coins(1, 2), coins(2, 1, (F(-1), F(2))), coins(3),
        coins(1, 1, (F(-1), F(2))), uniform(5), uniform(3),
    ],
    "table-disagrees-first": lambda: [disagreeing_table(), coins(1), coins(3), coins(2)],
    "table-disagrees-between": lambda: [coins(1), coins(3), disagreeing_table(), coins(2)],
    "table-disagrees-last": lambda: [coins(2), coins(1), coins(3), disagreeing_table()],
    # S(1/4) = 2/3 and S(2/3) = 1/4, against several coin members each
    "table-disagrees-with-several": lambda: [
        relabelled(weighted([1, 1, 1]), move_a_third), coins(2), coins(3), coins(4),
    ],
    "bounds-line": lambda: [coins(1), coins(2), coins(3, 1, (F(0), F(2))), coins(4)],
    **{f"conflicting-{name}": build for name, build in ORACLE_FAMILIES.items()},
    "conflicting-with-coins": lambda: [
        coins(2), *ORACLE_FAMILIES["member-conflicts"](), coins(1), coins(3),
    ],
}


def disagreeing_table():
    """Two equal weights with the value 1/2 moved to 2/5, so S(2/5) = 2/5;
    the 8-atom coin member has S(2/5) = 3/5."""
    return relabelled(weighted([1, 1]), lambda v: F(2, 5) if v == F(1, 2) else v)


class TestBuildFamilyReference:
    """Every field of `build_family` against the member-by-member merge."""

    @pytest.mark.parametrize("family_name", sorted(SIZE_TABLE_FAMILIES))
    def test_families(self, family_name):
        members = SIZE_TABLE_FAMILIES[family_name]()
        family = build_family(members)
        names = [field.name for field in dataclasses.fields(DomainFamily)]
        for name, want in zip(names, reference_build_family(members), strict=True):
            got = getattr(family, name)
            if name in ("negation", "combination"):
                assert got.values == want[0] and got.clash is None and got.layout is None
                for array, want_array in zip(got[1:4], want[1:], strict=True):
                    assert array.dtype == np.int64, name
                    assert array.tolist() == want_array.tolist(), name
            else:
                assert got == want, name

    def test_the_smaller_members_read_the_largest_ones_tables(self, monkeypatch):
        read = []
        original = BeliefStructure._build_size_ranks
        monkeypatch.setattr(BeliefStructure, "_build_size_ranks",
                            lambda s: read.append(s.domain.size) or original(s))
        build_family(SIZE_TABLE_FAMILIES["exponents-and-bounds"]())
        assert sorted(read) == [4, 8, 8]  # one table per exponent and bounds


class TestAffineRescale:
    def test_values_and_bounds_move_together(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        r = affine_rescale(b, F(1, 2), F(1, 4))
        assert r.bounds == (F(1, 4), F(3, 4))
        assert r.bel_masks(0b01, 0b11) == F(1, 3) / 2 + F(1, 4)

    def test_scale_must_be_positive(self):
        b = gen_probability(Domain(("a",)), [F(1)])
        with pytest.raises(BeliefDomainError):
            affine_rescale(b, F(0), F(0))


class TestMinSearch:
    def test_grid_validation(self):
        with pytest.raises(BeliefDomainError, match="0 and 1"):
            search_min_counterexample(2, [F(1, 2)])
        with pytest.raises(BeliefDomainError, match="closed"):
            search_min_counterexample(2, [F(0), F(1, 3), F(1)])

    def test_two_atoms_on_the_coarse_grid(self):
        # the endpoint-valued table Bel(a|W)=0, Bel(b|W)=1 satisfies the three
        # search conditions but admits no strictly positive witness, so the
        # search reports a (degenerate) hit rather than exhaustion.  A grid
        # value written twice is one value, so each table is decided once
        for grid in ([F(0), F(1, 2), F(1)], [F(0), F(1, 2), F(1, 2), F(1)]):
            outcome = search_min_counterexample(2, grid)
            assert outcome.hit
            assert outcome.grid == (F(0), F(1, 2), F(1))
            assert outcome.consistent_candidates == 2
            assert outcome.isomorphic_count == 1
            assert outcome.found.bel_masks(0b01, 0b11) == 0

    def test_default_search_reproduces_the_shipped_fixture(self):
        grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        outcome = search_min_counterexample(3, grid)
        assert outcome.hit
        assert serialize_structure(outcome.found) == fixture_text(
            "min_counterexample.bel"
        )

    def test_fixture_satisfies_the_three_conditions(self):
        b = load_structure(fixture_path("min_counterexample.bel"))
        for v, u, x in b.items():
            assert b.bel_masks(u ^ v, u) == 1 - x  # A1 with S = 1-x
            if v == 0:
                assert x == 0  # Par2
            if v == u:
                assert x == 1
        for bm, am, um in b.canonical_triple_masks():
            assert b.bel_masks(bm, um) == min(
                b.bel_masks(bm, am), b.bel_masks(am, um)
            )  # A2 with F = min

    def test_fixture_is_refuted(self):
        b = load_structure(fixture_path("min_counterexample.bel"))
        verdict = decide(b)
        assert verdict.kind == "refutation"
        assert verdict.certificate.recheck(b)

    def test_single_atom_search_exhausts(self):
        outcome = search_min_counterexample(1, [F(0), F(1, 2), F(1)])
        assert not outcome.hit
        assert outcome.exhausted
        assert outcome.isomorphic_count == 1


class TestGuardsAndSearchBranches:
    def test_embedding_an_event_of_another_domain(self):
        ext = coin_extend(Domain(("a", "b")), [F(1, 3), F(2, 3)], 1)
        with pytest.raises(BeliefDomainError, match="^event does not belong to the base domain$"):
            ext.embed(Domain(("a", "c")).event(["a"]))

    def test_a_family_of_no_members(self):
        with pytest.raises(BeliefDomainError, match="^family must have at least one member$"):
            build_family([])

    def test_a_search_that_decide_leaves_open_exhausts(self, monkeypatch):
        """Each candidate decide leaves unknown counts as undecided, and the
        search goes on through every value of every slot."""
        import coxcheck.generators as generators
        from coxcheck.isomorphism import IsomorphismVerdict

        calls = []
        monkeypatch.setattr(generators, "decide",
                            lambda s, p: calls.append(s) or IsomorphismVerdict("unknown"))
        outcome = search_min_counterexample(2, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
        assert outcome.exhausted and not outcome.hit
        assert outcome.undecided_count == outcome.consistent_candidates == len(calls) > 1
        assert outcome.isomorphic_count == 0
