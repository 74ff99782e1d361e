"""The array kernels of A1/A2 extraction, the associativity join, the
negation involution and the density gap against the per-instance loops
they replaced, the worklist ratio engine against the sweep loop it
replaced, and the weight backing's ratio ranker against the per-pair and
set-and-sort enumerations it replaced, kept here as oracles."""

import bisect
import contextlib
import math
import random
import tracemalloc
from fractions import Fraction as F
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxcheck import forms
from coxcheck.conditions import (
    associativity_join,
    bel_level_negation,
    chain_consistency,
    par5_gap,
)
from coxcheck.core import (
    ONE, ZERO, BeliefDomainError, BeliefStructure, Domain, pair_position, rank_ratios,
    rank_values,
)
from coxcheck.files import load_structure
from coxcheck.forms import (
    NegationForm,
    combination_ranks,
    extract_negation,
    negation_ranks,
)
from coxcheck.generators import build_family, coin_family
from coxcheck.isomorphism import _Contradiction, _RatioEngine

from conftest import FIXTURES, engine_rules


# -- oracles: the loops, one Python step per instance ---------------------------


def oracle_size_ranks(structure):
    """The uniform size table as it was built: one Fraction per (j, m)."""
    n, k = structure.domain.size, structure.exponent
    sizes = [(j, m) for m in range(1, n + 1) for j in range(m + 1)]
    values, ranks = rank_values(
        [F(j, m) ** k for j, m in sizes] + list(structure.bounds)
    )
    size_rank = np.zeros((n + 1, n + 1), dtype=np.int64)
    j, m = np.array(sizes).T
    size_rank[m, j] = ranks[:-2]
    return values, size_rank


def oracle_value_index(structure):
    """(values, pair ranks, e, E) of a weight backing as it was built: one
    `bel_masks` Fraction per canonical pair, ranked with the bounds."""
    xs = [structure.bel_masks(v, u) for v, u in structure.canonical_pair_masks()]
    values, ranks = rank_values(xs + list(structure.bounds))
    return values, ranks[:-2].tolist(), *ranks[-2:].tolist()


def oracle_attained(structure, kind):
    """The set-and-sort enumeration: uniform closed forms, one measure
    Fraction per mask, or one `bel_masks` Fraction per pair."""
    n, k = structure.domain.size, structure.exponent
    if structure.is_uniform:
        if kind == "unconditional":
            return sorted({F(j, n) ** k for j in range(n + 1)})
        return sorted({F(j, m) ** k for m in range(1, n + 1) for j in range(m + 1)})
    if kind == "unconditional":
        def measure(mask):
            return sum(w for i, w in enumerate(structure.weights) if mask >> i & 1)
        full = structure.domain.full_mask
        return sorted({(measure(m) / measure(full)) ** k for m in range(full + 1)})
    return sorted({structure.bel_masks(v, u) for v, u in structure.canonical_pair_masks()})


def oracle_negation_instances(structure):
    if forms._by_sizes(structure):
        values, size_rank = oracle_size_ranks(structure)
        instances = (
            (size_rank[m, j], size_rank[m, m - j], ((1 << j) - 1, (1 << m) - 1))
            for m in range(1, structure.domain.size + 1)
            for j in range(m + 1)
        )
        return values, instances
    index = structure.value_index()
    rank = {(v, u): r for v, u, r in index.pairs()}
    return index.values, ((r, rank[u ^ v, u], (v, u)) for v, u, r in index.pairs())


def oracle_combination_instances(structure):
    if forms._by_sizes(structure):
        values, size_rank = oracle_size_ranks(structure)
        instances = (
            (
                (size_rank[a_size, j], size_rank[m, a_size]),
                size_rank[m, j],
                ((1 << j) - 1, (1 << a_size) - 1, (1 << m) - 1),
            )
            for m in range(1, structure.domain.size + 1)
            for a_size in range(1, m + 1)
            for j in range(a_size + 1)
        )
        return values, instances
    index = structure.value_index()
    rank = {(v, u): r for v, u, r in index.pairs()}
    instances = (
        ((rank[b, a], rank[a, u]), rank[b, u], (b, a, u))
        for b, a, u in structure.canonical_triple_masks()
    )
    return index.values, instances


class OracleExtraction(NamedTuple):
    """A1 or A2 as dicts: `table` maps each key (rank x, or ranks (x, y)) to
    its output rank, `witnesses` to its first (v,u) or (b,a,u), in
    first-seen order, and `clash` is the first conflicting (key, out,
    witness), or None."""

    values: list
    table: dict
    witnesses: dict
    clash: tuple | None


def oracle_first_outputs(values, instances):
    table, witnesses = {}, {}
    for key, out, witness in instances:
        if key in table:
            if table[key] != out:
                return OracleExtraction(values, table, witnesses, (key, out, witness))
        else:
            table[key] = out
            witnesses[key] = witness
    return OracleExtraction(values, table, witnesses, None)


def oracle_join(table, endpoints):
    """(instances, nontrivial, (x, y, z, p, q) of the first failure or None)."""
    by_first = {}
    for (a, b) in table:
        by_first.setdefault(a, []).append(b)
    for key in by_first:
        by_first[key].sort()
    instances = nontrivial = 0
    for (x, y) in sorted(table):
        q = table[(x, y)]
        for z in by_first.get(y, ()):
            p = table[(y, z)]
            if (x, p) not in table or (q, z) not in table:
                continue
            r, s = table[(x, p)], table[(q, z)]
            instances += 1
            if any(t not in endpoints for t in (x, y, z, p, q, r, s)):
                nontrivial += 1
            if r != s:
                return instances, nontrivial, (x, y, z, p, q)
    return instances, nontrivial, None


def oracle_negation_identity(structure, negation):
    """(checked, gaps, failures) of S(S(y)) = y at each attained value, one
    Fraction lookup at a time, for a NegationForm S."""
    checked = gaps = 0
    failures = []
    for y in structure.attained("conditional"):
        if not negation.defined_at(y):
            gaps += 1
            continue
        s_y = negation(y)
        if not negation.defined_at(s_y):
            gaps += 1
            continue
        checked += 1
        if negation(s_y) != y:
            failures.append((y, s_y, negation(s_y)))
    return checked, gaps, tuple(failures)


def oracle_gap(structure, kind):
    """`par5_gap` with every spacing and midpoint in Fractions."""
    e, big_e = structure.bounds
    values = structure.attained(kind)

    def dist(alpha):
        i = bisect.bisect_left(values, alpha)
        return min(abs(alpha - v) for v in values[max(i - 1, 0):i + 1])

    low, high = 2 * e, 2 * big_e
    spacing = max(
        (v2 - v1 for v1, v2 in zip(values, values[1:]) if low < v1 + v2 < high),
        default=ZERO,
    )
    return max(dist(e), dist(big_e), spacing / 2)


# -- comparisons ----------------------------------------------------------------


def assert_same_extraction(got, want):
    """The kernel's sorted arrays hold the oracle's entries; ordered by
    `first` they are the oracle's dict order, and the witnesses derived
    from `first` and the clash's instance index are the oracle's."""
    assert list(got.values) == list(want.values)
    width = len(got.values)
    pairs = isinstance(next(iter(want.table)), tuple)

    def key_of(key):
        return divmod(key, width) if pairs else key

    keys = got.keys.tolist()
    assert keys == sorted(set(keys))
    # int64 throughout: the join multiplies outputs by the value count
    assert got.keys.dtype == got.outs.dtype == got.first.dtype == np.int64
    assert len(got.outs) == len(got.first) == len(keys)
    assert [(key_of(k), out) for k, out in got.first_seen()] == list(want.table.items())
    order = got.first.argsort()
    witnesses = got.masks(got.first[order])
    assert list(zip(map(key_of, got.keys[order].tolist()), witnesses)) == list(
        want.witnesses.items())
    assert all(type(m) is int for witness in witnesses for m in witness)
    if want.clash is None:
        assert got.clash is None
    else:
        key, out, index = got.clash
        assert (key_of(key), out, got.masks(index)[0]) == want.clash


def assert_kernels_match(structure):
    """Fresh kernel runs (not the memo) against the oracles, and chain
    consistency against the oracle join."""
    a1 = forms._first_outputs(forms._negation_layout(structure))
    assert_same_extraction(a1, oracle_first_outputs(*oracle_negation_instances(structure)))
    want = oracle_first_outputs(*oracle_combination_instances(structure))
    a2 = forms._first_outputs(forms._combination_layout(structure))
    assert_same_extraction(a2, want)
    report = chain_consistency(structure)
    if a2.clash is not None:
        assert report.status == "untestable"
        return report
    values, table = want.values, want.table
    endpoints = {bisect.bisect_left(values, t) for t in structure.bounds}
    instances, nontrivial, failure = oracle_join(table, endpoints)
    assert (report.instances, report.nontrivial) == (instances, nontrivial)
    assert (report.status == "fail") == (failure is not None)
    if failure is not None:
        x, y, z, p, q = failure
        assert report.certificate.args == (values[x], values[y], values[z])
        assert report.certificate.inner_right[1] == values[p]
        assert report.certificate.inner_left[1] == values[q]
        assert report.certificate.recheck(structure)
    return report


@contextlib.contextmanager
def chunk_sizes(first, cap):
    """Tiny chunk sizes make small structures cross many chunk boundaries."""
    saved = forms.FIRST_CHUNK, forms.CHUNK_CAP
    forms.FIRST_CHUNK, forms.CHUNK_CAP = first, cap
    try:
        yield
    finally:
        forms.FIRST_CHUNK, forms.CHUNK_CAP = saved


CHUNK_SIZES = [None, (1, 4), (3, 7)]


@pytest.fixture(params=CHUNK_SIZES, ids=["module", "1-4", "3-7"])
def chunking(request):
    """Run under the module's chunk sizes and under tiny ones."""
    if request.param is None:
        yield
    else:
        with chunk_sizes(*request.param):
            yield


def ratio_table(n, weights, g=lambda x: x):
    """g(μ(V)/μ(U)) on every canonical pair of n atoms with integer weights."""
    mu = [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1 << n)]
    return {
        (v, u): g(F(mu[v], mu[u]))
        for u in range(1, 1 << n) for v in range(u + 1) if v & ~u == 0
    }


def uniform(n, k):
    d = Domain(tuple(f"x{i}" for i in range(n)))
    return BeliefStructure.from_weights(d, [F(1, n)] * n, exponent=k)


def structure_of(n, table):
    return BeliefStructure.from_table(Domain(tuple(f"x{i}" for i in range(n))), table)


def plant(rng, table, u_choices):
    """Set one interior entry (v, u), u drawn from `u_choices`, to another
    value the table attains."""
    pairs = [(v, u) for (v, u) in table if u in u_choices and 0 < v < u]
    if not pairs:
        return table
    out = dict(table)
    v, u = rng.choice(pairs)
    others = sorted(set(table.values()) - {table[v, u]})
    out[v, u] = rng.choice(others)
    return out


# -- extraction -----------------------------------------------------------------


class TestExtractionKernels:
    def test_fixtures(self, chunking):
        for path in sorted(FIXTURES.glob("*.bel")):
            if not path.name.startswith("bad_parse"):
                assert_kernels_match(load_structure(path))

    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2 ** 32))
    def test_random_tables_with_few_values(self, n, levels, seed):
        # few distinct values, so A1 and A2 clashes are common
        rng = random.Random(seed)
        n = min(n, rng.choice((3, 5, 8)))  # keep most examples small
        table = {
            (v, u): F(0) if v == 0 else F(1) if v == u else F(rng.randint(0, levels), levels)
            for u in range(1, 1 << n) for v in range(u + 1) if v & ~u == 0
        }
        assert_kernels_match(structure_of(n, table))

    @given(st.integers(1, 7), st.integers(0, 2 ** 32))
    def test_probability_tables_under_tiny_chunks(self, n, seed):
        rng = random.Random(seed)
        weights = [rng.choice((1, 2, 3)) for _ in range(n)]
        for sizes in ((1, 4), (5, 64)):
            with chunk_sizes(*sizes):
                assert_kernels_match(structure_of(n, ratio_table(n, weights)))

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("seed", range(4))
    def test_perturbation_in_the_first_and_in_the_last_chunk(self, where, seed):
        n = 7
        rng = random.Random(seed)
        table = ratio_table(n, [rng.choice((1, 2)) for _ in range(n)], lambda x: x * x)
        # rows 1-3 are all inside the first chunk; row 2^n - 1 is the last
        rows = {1, 2, 3} if where == "first" else {(1 << n) - 1}
        structure = structure_of(n, plant(rng, table, rows))
        report = assert_kernels_match(structure)
        a1, a2 = negation_ranks(structure), combination_ranks(structure)
        assert a1.clash is not None or a2.clash is not None or report.status == "fail"

    def test_an_early_clash_reads_few_triples(self, monkeypatch):
        # chunks grow from small, so the kernel reads a few times as many
        # triples as the loop, which stops at the clash
        n = 7
        table = plant(random.Random(3), ratio_table(n, [1, 2, 1, 1, 2, 1, 1]), {3})
        structure = structure_of(n, table)
        values, instances = oracle_combination_instances(structure)
        consumed = []
        want = oracle_first_outputs(values, (consumed.append(1) or i for i in instances))
        assert want.clash is not None and len(consumed) < 1000
        read = []
        original = forms.row_chunks

        def counting(lengths):
            for chunk in original(lengths):
                read.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(forms, "row_chunks", counting)
        got = forms._first_outputs(forms._combination_layout(structure))
        assert_same_extraction(got, want)
        assert sum(read) <= 3 * len(consumed) + forms.FIRST_CHUNK

    @pytest.mark.parametrize("n,k", [(7, 1), (8, 2), (9, 1), (10, 3), (70, 1)])
    def test_uniform_structures_read_by_sizes(self, n, k, chunking):
        # at 70 atoms the prefix-event witnesses need more than 64 bits
        structure = uniform(n, k)
        assert forms._by_sizes(structure)
        a1 = forms._first_outputs(forms._negation_layout(structure))
        assert_same_extraction(a1, oracle_first_outputs(*oracle_negation_instances(structure)))
        a2 = forms._first_outputs(forms._combination_layout(structure))
        assert_same_extraction(a2, oracle_first_outputs(*oracle_combination_instances(structure)))

    def test_size_ranks_are_built_once_per_structure(self, monkeypatch):
        # the coin family of 1-5 coins has uniform members of 2-32 atoms;
        # those of 8, 16 and 32 atoms are read by sizes, by A1 and by A2
        calls = []
        original = BeliefStructure._build_size_ranks

        def counting(structure):
            calls.append(structure)
            return original(structure)

        monkeypatch.setattr(BeliefStructure, "_build_size_ranks", counting)
        family = build_family(coin_family(5).members)
        by_sizes = [m for m in family.members if forms._by_sizes(m)]
        assert [m.domain.size for m in by_sizes] == [8, 16, 32]
        assert [m for m in calls if forms._by_sizes(m)] == by_sizes
        for member in family.members:  # later layouts and attained() read the memo
            if forms._by_sizes(member):
                forms._negation_layout(member)
                forms._combination_layout(member)
            member.attained("conditional")
            member.attained("unconditional")
        assert sorted(map(id, calls)) == sorted(map(id, family.members))


# -- the ratio ranker of weight backings -------------------------------------


def weighted(units, k=1, bounds=(ZERO, ONE)):
    """The weight backing of the integer `units`, over their total."""
    d = Domain(tuple(f"x{i}" for i in range(len(units))))
    total = sum(units)
    return BeliefStructure.from_weights(d, [F(u, total) for u in units], k, bounds)


def assert_same_ranking(structure):
    values, ranks, e, big_e = oracle_value_index(structure)
    index = structure.value_index()
    assert list(index.values) == values
    assert index.pair_rank.tolist() == ranks
    assert (index.e, index.E) == (e, big_e)
    for kind in ("conditional", "unconditional"):
        assert structure.attained(kind) == oracle_attained(structure, kind)


class TestRatioRanker:
    def test_random_weights_match_the_per_pair_enumeration(self):
        rng = random.Random(18)
        for n in range(1, 9):
            for k in (1, 2, 3):
                assert_same_ranking(weighted([rng.randint(1, 12) for _ in range(n)], k))

    def test_unit_totals_beyond_int64(self):
        units = [(1 << 62) + 1, (1 << 62) + 3, (1 << 61) + 7, 5]
        for k in (1, 2):
            b = weighted(units, k)
            assert math.lcm(*(w.denominator for w in b.weights)) > 1 << 63
            assert_same_ranking(b)

    def test_equal_ratios_of_different_masses_share_a_rank(self):
        values, ranks = rank_ratios([1, 2, 3, 0, 0], [2, 4, 6, 1, 7])
        assert values == [F(0), F(1, 2)] and ranks.tolist() == [1, 1, 1, 0, 0]
        # weights 1, 1, 2: μ({x0})/μ({x0 x1}) = 1/2 = μ({x0 x1})/μ(W)
        b = weighted([1, 1, 2])
        index = b.value_index()
        half = index.values.index(F(1, 2))
        assert index.pair_rank[pair_position(3, 0b001, 0b011)] == half
        assert index.pair_rank[pair_position(3, 0b011, 0b111)] == half
        assert_same_ranking(b)

    def test_unattained_bounds_are_ranked_but_not_attained(self):
        for b in (weighted([1, 2, 3], 1, (F(-1), F(2))),
                  weighted([1, 2], 2, (ZERO, F(2))),
                  weighted([1, 1, 1, 1], 2, (F(-1, 2), F(3, 2)))):
            assert_same_ranking(b)
            tables = [b.value_index().values] + ([b.size_ranks()[0]] if b.is_uniform else [])
            for bound in b.bounds:
                assert all(bound in values for values in tables)
                assert (bound in b.attained("conditional")) == (bound == ZERO)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 16, 32])
    def test_uniform_size_table_and_attained(self, n):
        for k in (1, 2):
            b = uniform(n, k)
            values, size_rank = b.size_ranks()
            want_values, want_rank = oracle_size_ranks(b)
            assert values == want_values
            assert np.array_equal(size_rank, want_rank)
            for kind in ("conditional", "unconditional"):
                assert b.attained(kind) == oracle_attained(b, kind)

    def test_no_lookup_per_pair_or_mask(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a weight-backed value list looked a value up")

        for name in ("bel_masks", "canonical_pair_masks"):
            monkeypatch.setattr(BeliefStructure, name, refuse)
        b = weighted([3, 1, 4, 1, 5], 2)
        b.value_index()
        assert len(list(b.items())) == 3 ** 5 - 1
        b.attained("unconditional")
        for kind in ("conditional", "unconditional"):
            uniform(9, 1).attained(kind)

    def test_size_ranks_need_a_uniform_weight_backing(self):
        with pytest.raises(BeliefDomainError):
            weighted([1, 2]).size_ranks()


# -- the associativity join -----------------------------------------------------


def associative_table(rng, width):
    """A random part of the Łukasiewicz t-norm max(0, x + y − top) on ranks
    0..top: associative, and closed enough that many instances chain."""
    top = width - 1
    return {
        (x, y): max(0, x + y - top)
        for x in range(width) for y in range(width) if rng.random() < 0.7
    }


def loop_instances(table):
    """Every instance (x, y, z) of a ranked F table {(x, y): out} and
    whether F(x,p) ≠ F(q,z) there, in the order of a loop over sorted
    (x, y) and then z."""
    out = []
    for (x, y), q in sorted(table.items()):
        for z in sorted(b for a, b in table if a == y):
            p = table[y, z]
            if (x, p) in table and (q, z) in table:
                out.append(((x, y, z), table[x, p] != table[q, z]))
    return out


def sorted_arrays(table, width):
    """The join's input for a ranked F table {(x, y): out}: the sorted int64
    keys x·width + y and their outputs."""
    items = sorted(table.items())
    keys = np.array([x * width + y for (x, y), _ in items], dtype=np.int64)
    return keys, np.array([out for _, out in items], dtype=np.int64)


class TestAssociativityJoin:
    @given(st.integers(2, 14), st.integers(0, 2 ** 32), st.booleans())
    def test_random_ranked_tables(self, width, seed, planted):
        rng = random.Random(seed)
        table = associative_table(rng, width)
        if planted and table:
            key = rng.choice(sorted(table))
            table[key] = rng.randrange(width)
        endpoints = {0, width - 1}
        want = oracle_join(table, endpoints)
        if not table:
            return
        assert associativity_join(*sorted_arrays(table, width), width, endpoints) == want
        with chunk_sizes(1, 4):
            assert associativity_join(*sorted_arrays(table, width), width, endpoints) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_failure_late_in_a_large_table(self, seed, chunking):
        rng = random.Random(seed)
        width = 40
        table = associative_table(rng, width)
        interior = [k for k in sorted(table) if 0 < table[k] < width - 1]
        key = interior[-1 - rng.randrange(len(interior) // 4)]
        table[key] += 1
        want = oracle_join(table, {0, width - 1})
        assert want[2] is not None
        assert associativity_join(*sorted_arrays(table, width), width, {0, width - 1}) == want

    @pytest.mark.parametrize("sizes", [None, (1, 4)], ids=["module", "1-4"])
    def test_the_earlier_of_two_failures_is_reported(self, sizes):
        # the Łukasiewicz t-norm on ranks 0..5 with two entries raised by
        # one.  The first failure in (x, y)-then-z order is (1, 5, 4), at
        # p = 4; the column walk takes p = 0, 1, ... in turn, then x, then
        # (y, z), and meets (4, 1, 5), at p = 2, first, in an earlier chunk
        # under chunks of 1-4 candidates
        width = 6
        table = {(x, y): max(0, x + y - 5) for x in range(width) for y in range(width)}
        table[1, 5] += 1
        table[2, 4] += 1
        instances = loop_instances(table)
        failures = [xyz for xyz, fails in instances if fails]
        assert failures[0] == (1, 5, 4)
        walk_order = lambda xyz: (table[xyz[1], xyz[2]], *xyz)  # (p, x, y, z)
        assert min(failures, key=walk_order) == (4, 1, 5)
        want = oracle_join(table, {0, 5})
        assert want[2][:3] == (1, 5, 4)
        assert want[0] == instances.index(((1, 5, 4), True)) + 1 < len(instances)
        with chunk_sizes(*sizes) if sizes else contextlib.nullcontext():
            assert associativity_join(*sorted_arrays(table, width), width, {0, 5}) == want

    def test_sparse_tables_over_three_ranks(self):
        # few entries, few instances, rare failures: each of the seven ranks
        # is, in some instance, the one that is not an endpoint
        rng = random.Random(7)
        keys = [(x, y) for x in range(3) for y in range(3)]
        for _ in range(3000):
            table = {k: rng.randrange(3) for k in rng.sample(keys, rng.randint(1, 6))}
            want = oracle_join(table, {0, 2})
            assert associativity_join(*sorted_arrays(table, 3), 3, {0, 2}) == want

    def test_only_the_chain_conflict_fixture_fails(self):
        failing = [
            path.name for path in sorted(FIXTURES.glob("*.bel"))
            if not path.name.startswith("bad_parse")
            and chain_consistency(load_structure(path)).status == "fail"
        ]
        assert failing == ["chain_conflict.bel"]


# -- the ratio engine against the sweep loop it replaced ---------------------------


class OracleEngine:
    """The ratio engine as it was before the worklist: positivity flags and
    seeds from one Python step per A1 instance, eager (v,u) and (b,a,u)
    witnesses in every fact, and `run` as whole sweeps over every sum and
    product until a sweep changes nothing or DEPTH sweeps have run."""

    DEPTH = 16

    def __init__(self, structure, sums, products):
        values, instances = oracle_negation_instances(structure)
        self.values = values
        self.e, self.E = (bisect.bisect_left(values, t) for t in structure.bounds)
        self.positive, self.below_one, self.known = set(), set(), {}
        self.sums, self.products = sorted(sums), sorted(products)
        self.contradiction = None
        self.converged = False
        self._seeds = []
        for x, s_x, (v, u) in instances:
            for value, vm in ((x, v), (s_x, u ^ v)):
                if vm != 0 or value > self.e:
                    self.positive.add(value)
                if vm != u or value < self.E:
                    self.below_one.add(value)
                if vm == 0 or vm == u or not self.e <= value <= self.E:
                    self._seeds.append((value, vm, u, (v, u)))

    def _seed(self):
        for value, vm, um, pair in self._seeds:
            mark = frozenset([("sum", pair)])
            if value < self.e or value > self.E:
                v = self.values
                raise _Contradiction(
                    f"attained value {v[value]} lies outside the bounds "
                    f"[{v[self.e]},{v[self.E]}]",
                    mark,
                )
            if vm == 0:
                self._set(value, ZERO, mark, "empty intersection forces ratio 0")
            elif vm == um:
                self._set(value, ONE, mark, "full conditioning event forces ratio 1")
        if self.e in self.positive or self.e in self.below_one or self.e in self.known:
            self._set(self.e, ZERO, frozenset([("seed", "g(e)=0")]), "g(e) = 0")
        if self.E in self.positive or self.E in self.below_one or self.E in self.known:
            self._set(self.E, ONE, frozenset([("seed", "g(E)=1")]), "g(E) = 1")

    def _set(self, value, ratio, eqset, why):
        x = self.values[value]
        if value in self.known:
            old_ratio, old_eqs = self.known[value]
            if old_ratio != ratio:
                raise _Contradiction(
                    f"r({x}) forced to both {old_ratio} and {ratio} ({why})",
                    eqset | old_eqs)
            return False
        if ratio < 0 or ratio > 1:
            raise _Contradiction(f"r({x}) forced to {ratio} outside [0,1] ({why})", eqset)
        if ratio == 0 and value in self.positive:
            raise _Contradiction(f"r({x}) forced to 0 but {x} is attained at a nonempty "
                                 f"intersection or exceeds e ({why})", eqset)
        if ratio == 1 and value in self.below_one:
            raise _Contradiction(f"r({x}) forced to 1 but {x} is attained at a proper "
                                 f"subevent or is below E ({why})", eqset)
        self.known[value] = (ratio, eqset)
        return True

    def _check_known_order(self):
        items = sorted(self.known.items())
        for (v1, (r1, e1)), (v2, (r2, e2)) in zip(items, items[1:]):
            if not r1 < r2:
                raise _Contradiction("value order broken", e1 | e2)

    def _check_sum_order(self):
        oriented = []
        for x, y, w in self.sums:
            oriented.append((x, y, w))
            if x != y:
                oriented.append((y, x, w))
        oriented.sort()
        for (x1, y1, w1), (x2, y2, w2) in zip(oriented, oriented[1:]):
            if (y1 != y2) if x1 == x2 else not y1 > y2:
                raise _Contradiction("complement order broken",
                                     frozenset([("sum", w1), ("sum", w2)]))

    def _check_product_groups(self):
        by_factors, by_out_left, by_out_right = {}, {}, {}
        for out, l, r, w in self.products:
            by_factors.setdefault((l, r), []).append((out, w))
            by_out_left.setdefault((out, l), []).append((r, w))
            by_out_right.setdefault((out, r), []).append((l, w))
        for outs in by_factors.values():
            if len({o for o, _ in outs}) > 1:
                raise _Contradiction("equal factors, distinct products",
                                     frozenset([("product", outs[0][1]),
                                                ("product", outs[1][1])]))
        for grouped in (by_out_left, by_out_right):
            for (out, shared), cofactors in grouped.items():
                if len({c for c, _ in cofactors}) > 1 and (
                        shared in self.positive or out in self.positive):
                    raise _Contradiction("cancelling a positive shared factor",
                                         frozenset([("product", cofactors[0][1]),
                                                    ("product", cofactors[1][1])]))

    def _apply_sum(self, x, y, witness):
        mark = frozenset([("sum", witness)])
        if x == y:
            return self._set(x, F(1, 2), mark, "self-complementary value")
        kx, ky = self.known.get(x), self.known.get(y)
        if kx and ky:
            if kx[0] + ky[0] != 1:
                raise _Contradiction("complements do not sum to 1", kx[1] | ky[1] | mark)
            return False
        if kx:
            return self._set(y, 1 - kx[0], kx[1] | mark, "complement")
        if ky:
            return self._set(x, 1 - ky[0], ky[1] | mark, "complement")
        return False

    def _apply_product(self, out, l, r, witness):
        mark = frozenset([("product", witness)])
        changed = False
        for big, small in ((l, r), (r, l)):
            if out > big:
                raise _Contradiction("product exceeds a factor", mark)
            if out == big and big in self.positive and small in self.below_one:
                raise _Contradiction("cancelling needs a unit factor", mark)
            if out == big and big in self.positive:
                changed |= self._set(small, ONE, mark, "cancelling")
        for unit, other in ((l, r), (r, l)):
            ku = self.known.get(unit)
            if not (ku and ku[0] == 1) or out == other:
                continue
            k_other, k_out = self.known.get(other), self.known.get(out)
            if k_other:
                changed |= self._set(out, k_other[0], ku[1] | k_other[1] | mark, "unit")
            elif k_out:
                changed |= self._set(other, k_out[0], ku[1] | k_out[1] | mark, "unit")
            else:
                raise _Contradiction("a unit factor forces equal ratios", ku[1] | mark)
        kl, kr = self.known.get(l), self.known.get(r)
        if kl and kl[0] == 0:
            changed |= self._set(out, ZERO, kl[1] | mark, "zero factor")
        if kr and kr[0] == 0:
            changed |= self._set(out, ZERO, kr[1] | mark, "zero factor")
        kl, kr, ko = self.known.get(l), self.known.get(r), self.known.get(out)
        if kl and kr:
            changed |= self._set(out, kl[0] * kr[0], kl[1] | kr[1] | mark, "product")
        elif ko and kl and kl[0] != 0:
            changed |= self._set(r, ko[0] / kl[0], ko[1] | kl[1] | mark, "quotient")
        elif ko and kr and kr[0] != 0:
            changed |= self._set(l, ko[0] / kr[0], ko[1] | kr[1] | mark, "quotient")
        return changed

    def run(self):
        try:
            self._seed()
            self._check_sum_order()
            self._check_product_groups()
            self._check_known_order()
            for _ in range(self.DEPTH):
                changed = False
                for x, y, w in self.sums:
                    changed |= self._apply_sum(x, y, w)
                for out, l, r, w in self.products:
                    changed |= self._apply_product(out, l, r, w)
                self._check_known_order()
                if not changed:
                    self.converged = True
                    break
        except _Contradiction as exc:
            self.contradiction = exc
        return self


def oracle_engine_inputs(structure):
    """The engine's sums and products from the oracle dicts: one sum per
    complement pair, with the witness met first in canonical (u, v) order,
    and one product per F entry."""
    s = oracle_first_outputs(*oracle_negation_instances(structure))
    f = oracle_first_outputs(*oracle_combination_instances(structure))
    first = {}
    for x, (v, u) in s.witnesses.items():
        s_x = s.table[x]
        key = (min(x, s_x), max(x, s_x))
        if key not in first or (u, v) < first[key][0]:
            first[key] = ((u, v), x)
    sums = [(x, s.table[x], (v, u)) for (u, v), x in first.values()]
    products = [(out, *k, f.witnesses[k]) for k, out in f.table.items()]
    return sums, products


def resolved(structure, eqset):
    """An eqset of the engine with each witness number read as masks: a sum
    or seed numbers an A1 instance, a product an A2 instance."""
    ranked = {"sum": negation_ranks(structure), "product": combination_ranks(structure)}
    return frozenset((kind, ranked[kind].masks(w)[0]) if kind in ranked else (kind, w)
                     for kind, w in eqset)


def seed_outcome(engine, structure=None):
    try:
        engine._seed()
    except _Contradiction as exc:
        eqset = exc.eqset if structure is None else resolved(structure, exc.eqset)
        return exc.description, eqset
    return None


def assert_same_engine(structure, inputs=True):
    """Flags, seeded facts and seeding contradiction against the oracle
    loop; with `inputs`, also the sums and products read off the arrays and
    the whole run against the oracle's sweeps: the same verdict, the same
    pinned ratios wherever the sweeps converged, and a contradiction that
    names only instances the oracle names for the same rules."""
    sums, products = oracle_engine_inputs(structure) if inputs else ((), ())
    want = OracleEngine(structure, sums, products)
    got = (_RatioEngine.from_extraction(structure) if inputs
           else _RatioEngine(structure, (), ()))
    if inputs:
        rules = engine_rules(structure, got)
        assert rules == (want.sums, want.products)
    assert (got.e, got.E) == (want.e, want.E)
    assert set(np.flatnonzero(got.positive).tolist()) == want.positive
    assert set(np.flatnonzero(got.below_one).tolist()) == want.below_one
    assert seed_outcome(got, structure) == seed_outcome(want)
    assert {v: (r, resolved(structure, e)) for v, (r, e) in got.known.items()} == want.known
    if not inputs:
        return None
    got = _RatioEngine.from_extraction(structure).run()
    want = OracleEngine(structure, sums, products).run()
    if want.contradiction is not None or want.converged:
        assert (got.contradiction is None) == (want.contradiction is None)
    if got.contradiction is None:
        if want.converged:
            assert {v: r for v, (r, _) in got.known.items()} == {
                v: r for v, (r, _) in want.known.items()}
    else:
        # every rule in the eqset carries the oracle's eager witness of the
        # same rule; every other sum mark is the witness of a seed
        eager = {("sum", w) for *_, w in want.sums} | {
            ("product", w) for *_, w in want.products} | {
            ("sum", pair) for *_, pair in want._seeds}
        assert resolved(structure, got.contradiction.eqset) <= eager | {
            ("seed", "g(e)=0"), ("seed", "g(E)=1")}
    return got, want


class TestEngineAgainstSweeps:
    def test_fixtures(self):
        for path in sorted(FIXTURES.glob("*.bel")):
            if not path.name.startswith("bad_parse"):
                assert_same_engine(load_structure(path))

    @given(st.integers(2, 6), st.integers(0, 2 ** 32), st.booleans())
    def test_random_tables_with_planted_conflicts(self, n, seed, interval):
        rng = random.Random(seed)
        weights = [rng.randint(1, 4) for _ in range(n)]
        table = ratio_table(n, weights, rng.choice((lambda x: x, lambda x: x * x)))
        for _ in range(rng.randint(1, 3)):
            table = plant(rng, table, {u for _, u in table})
        if interval:  # entries may now lie outside the bounds or on them
            lo, hi = sorted(rng.sample(sorted(set(table.values())), 2))
            structure = BeliefStructure.from_table(
                Domain(tuple(f"x{i}" for i in range(n))), table, bounds=(lo, hi))
        else:
            structure = structure_of(n, table)
        assert_same_engine(structure)

    @pytest.mark.parametrize("g", [lambda x: (x + x * x) / 2, lambda x: (2 * x + x * x) / 3,
                                   lambda x: (x + 2 * x * x) / 3],
                             ids=["mix2", "mix21", "mix12"])
    @pytest.mark.parametrize("n,seed", [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
    def test_mix_tables_reach_the_sweeps_fixpoint(self, n, seed, g):
        """Rescaled probabilities as in the decide-witness benchmark: no
        contradiction, and the worklist pins what the sweeps pin."""
        rng = random.Random(seed)
        weights = [rng.randint(1, 9) for _ in range(n)]
        got, want = assert_same_engine(structure_of(n, ratio_table(n, weights, g)))
        assert got.contradiction is None and want.converged
        assert len(got.known) > 2

    @pytest.mark.parametrize("n,k", [(7, 1), (9, 2)])
    def test_uniform_structures_read_by_sizes(self, n, k):
        assert_same_engine(uniform(n, k), inputs=False)


# -- the negation involution and the density gap --------------------------------


def eight_atom_tables():
    """A probability through v³, a plain probability of weights 1 and 2,
    and that one with an entry of its last row moved to another value."""
    rng = random.Random(8)
    cubed = ratio_table(8, [rng.randint(1, 30) for _ in range(8)], lambda x: x ** 3)
    plain = ratio_table(8, [rng.choice((1, 2)) for _ in range(8)])
    return [structure_of(8, t) for t in (cubed, plain, plant(rng, plain, {255}))]


def fixture_structures():
    return [load_structure(path) for path in sorted(FIXTURES.glob("*.bel"))
            if not path.name.startswith("bad_parse")]


def weight_backed_structures():
    d = Domain(tuple(f"x{i}" for i in range(5)))
    weights = [F(w, 15) for w in (1, 2, 3, 4, 5)]
    return [uniform(8, 1), uniform(9, 2), uniform(70, 1),
            BeliefStructure.from_weights(d, weights),
            BeliefStructure.from_weights(d, weights, exponent=3)]


class TestNegationInvolution:
    def test_the_structures_own_negation(self):
        # A1 single-valued: S maps the attained values onto themselves and
        # S∘S is the identity, as (v, u) ↦ (u∖v, u) is an involution
        clashes = 0
        for structure in fixture_structures() + eight_atom_tables() + weight_backed_structures()[:2]:
            report = bel_level_negation(structure)
            if negation_ranks(structure).clash is not None:
                assert report.status == "untestable"
                clashes += 1
                continue
            want = oracle_negation_identity(structure, extract_negation(structure))
            assert (report.checked, report.gaps, report.failures) == want
            assert report.checked == len(structure.attained("conditional"))
            assert report.gaps == 0 and report.passed
        assert clashes == 2  # a1_conflict.bel and the moved 8-atom entry

    @given(st.integers(0, 2 ** 32))
    def test_caller_forms_against_the_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3))
        structure = structure_of(n, ratio_table(n, [rng.randint(1, 4) for _ in range(n)]))
        pool = structure.attained("conditional") + [F(rng.randint(0, 6), 6) for _ in range(3)]
        table = {x: rng.choice(pool) for x in rng.sample(pool, rng.randint(0, len(pool)))}
        for form in (NegationForm("tabular", table), NegationForm("linear-complement")):
            report = bel_level_negation(structure, form)
            checked, gaps, failures = oracle_negation_identity(structure, form)
            assert (report.checked, report.gaps, report.failures) == (checked, gaps, failures)
            assert report.status == ("fail" if failures else "pass")


def two_atom_table(empty, middle, bounds=(ZERO, ONE)):
    """Bel(∅|U) = `empty`, Bel(U|U) = 1 and Bel({a}|{a b}) = Bel({b}|{a b})
    = `middle`."""
    table = {(0, u): empty for u in (1, 2, 3)}
    table.update({(u, u): ONE for u in (1, 2, 3)})
    table.update({(1, 3): middle, (2, 3): middle})
    return BeliefStructure.from_table(Domain(("a", "b")), table, bounds)


class TestDensityGap:
    def test_fixtures_and_weight_backings_against_the_oracle(self):
        structures = fixture_structures() + eight_atom_tables() + weight_backed_structures()
        names = {path.name for path in FIXTURES.glob("*.bel")}
        assert {"par1_violation.bel", "interval_bounds.bel"} <= names
        for structure in structures:
            for kind in ("conditional", "unconditional"):
                assert par5_gap(structure, kind) == oracle_gap(structure, kind)

    @pytest.mark.parametrize("inner,widest", [
        # spacings 1/4, 1/4 + δ, 1/4 − δ, 1/4: one float, 0.25
        ([F(1, 4), F(1, 2) + F(1, 10 ** 30), F(3, 4)], F(1, 4) + F(1, 10 ** 30)),
        ([F(1, 4), F(1, 2), F(3, 4) + F(1, 10 ** 30)], F(1, 4) + F(1, 10 ** 30)),
        # spacings 1/5, 3/10, 3/10 − δ, 1/5 + δ: floats put the third above
        # the second, 0.30000000000000004 against 0.3
        ([F(1, 5), F(1, 2), F(4, 5) - F(1, 10 ** 18)], F(3, 10)),
    ])
    def test_spacings_floats_cannot_separate(self, inner, widest):
        table = {(v, u): ZERO if v == 0 else ONE if v == u else inner[(v + u) % 3]
                 for u in range(1, 8) for v in range(u + 1) if v & ~u == 0}
        structure = structure_of(3, table)
        values = structure.attained("conditional")
        assert values == [ZERO, *inner, ONE]
        widths = [float(b) - float(a) for a, b in zip(values, values[1:])]
        exact = [b - a for a, b in zip(values, values[1:])]
        # floats cannot single out the widest: they tie it or put another on top
        assert [k for k, w in enumerate(widths) if w == max(widths)] != [exact.index(max(exact))]
        assert par5_gap(structure) == oracle_gap(structure, "conditional") == widest / 2

    @pytest.mark.parametrize("sign", [1, -1])
    def test_midpoints_within_rounding_of_the_bounds(self, sign):
        # the midpoint of -1/2 and 1/2 + δ is δ/2, against e = 0, and floats
        # put it at 0.  Only for δ > 0 is the spacing 1 + δ admitted; for
        # δ < 0 the gap is the distance 1/2 + δ from e to 1/2 + δ
        delta = F(sign, 10 ** 30)
        low = two_atom_table(F(-1, 2), F(1, 2) + delta)
        assert par5_gap(low) == oracle_gap(low, "conditional")
        assert par5_gap(low) == ((1 + delta) / 2 if sign > 0 else F(1, 2) + delta)
        # mirrored: 1/2 - δ and 3/2 against E = 1, with Bel(∅|U) = 0
        high = two_atom_table(ZERO, F(1, 2) - delta).map_values(
            lambda x: F(3, 2) if x == 1 else x, bounds=(ZERO, ONE))
        assert par5_gap(high) == oracle_gap(high, "conditional")
        assert par5_gap(high) == ((1 + delta) / 2 if sign > 0 else F(1, 2) + delta)

    def test_values_beyond_the_float_range(self):
        huge = two_atom_table(ZERO, F(10) ** 400, bounds=(ZERO, F(10) ** 401))
        assert par5_gap(huge) == oracle_gap(huge, "conditional")


def test_memory_stays_bounded_on_eight_atoms():
    """Extraction and the join on an 8-atom table, weights 1-30 through v³,
    peak below 32 MB of traced memory; numpy reports its buffers too.  The
    memoized A2 arrays retain under 2 MB."""
    rng = random.Random(8)
    structure = structure_of(8, ratio_table(8, [rng.randint(1, 30) for _ in range(8)],
                                            lambda x: x ** 3))
    structure.value_index()
    tracemalloc.start()
    try:
        combination_ranks(structure)
        retained, _ = tracemalloc.get_traced_memory()
        report = chain_consistency(structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass" and report.instances > 100_000
    assert peak < 32 * 2 ** 20
    assert retained < 2 * 2 ** 20
