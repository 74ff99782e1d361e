"""The array kernels of A1/A2 extraction and the associativity join against
the per-instance loops they replaced, kept here as oracles."""

import bisect
import contextlib
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from coxcheck import forms
from coxcheck.conditions import associativity_join, chain_consistency
from coxcheck.core import BeliefStructure, Domain, intern_values
from coxcheck.files import load_structure
from coxcheck.forms import RankedExtraction, combination_ranks, negation_ranks

from conftest import FIXTURES


# -- oracles: the loops, one Python step per instance ---------------------------


def oracle_size_ranks(structure):
    n, k = structure.domain.size, structure.exponent
    sizes = [(j, m) for m in range(1, n + 1) for j in range(m + 1)]
    values, ranks = intern_values(
        [F(j, m) ** k for j, m in sizes] + list(structure.bounds)
    )
    size_rank = [[] for _ in range(n + 1)]
    for (j, m), r in zip(sizes, ranks):
        size_rank[m].append(r)
    return values, size_rank


def oracle_negation_instances(structure):
    if forms._by_sizes(structure):
        values, size_rank = oracle_size_ranks(structure)
        instances = (
            (size_rank[m][j], size_rank[m][m - j], ((1 << j) - 1, (1 << m) - 1))
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
                (size_rank[a_size][j], size_rank[m][a_size]),
                size_rank[m][j],
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


def oracle_first_outputs(values, instances):
    table, witnesses = {}, {}
    for key, out, witness in instances:
        if key in table:
            if table[key] != out:
                return RankedExtraction(values, table, witnesses, (key, out, witness))
        else:
            table[key] = out
            witnesses[key] = witness
    return RankedExtraction(values, table, witnesses, None)


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


# -- comparisons ----------------------------------------------------------------


def assert_same_extraction(got, want):
    assert list(got.values) == list(want.values)
    assert list(got.table.items()) == list(want.table.items())  # dict order too
    assert list(got.witnesses.items()) == list(want.witnesses.items())
    assert got.clash == want.clash
    for key, out in got.table.items():
        assert type(key) in (int, tuple) and type(out) is int
        assert all(type(m) is int for m in got.witnesses[key])


def assert_kernels_match(structure):
    """Fresh kernel runs (not the memo) against the oracles, and chain
    consistency against the oracle join."""
    a1 = forms._first_outputs(*forms._negation_chunks(structure))
    assert_same_extraction(a1, oracle_first_outputs(*oracle_negation_instances(structure)))
    a2 = forms._first_outputs(*forms._combination_chunks(structure))
    assert_same_extraction(a2, oracle_first_outputs(*oracle_combination_instances(structure)))
    report = chain_consistency(structure)
    if a2.clash is not None:
        assert report.status == "untestable"
        return report
    values, table = a2.values, a2.table
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
        got = forms._first_outputs(*forms._combination_chunks(structure))
        assert_same_extraction(got, want)
        assert sum(read) <= 3 * len(consumed) + forms.FIRST_CHUNK

    @pytest.mark.parametrize("n,k", [(7, 1), (8, 2), (9, 1), (10, 3)])
    def test_uniform_structures_read_by_sizes(self, n, k, chunking):
        d = Domain(tuple(f"x{i}" for i in range(n)))
        structure = BeliefStructure.from_weights(d, [F(1, n)] * n, exponent=k)
        assert forms._by_sizes(structure)
        a1 = forms._first_outputs(*forms._negation_chunks(structure))
        assert_same_extraction(a1, oracle_first_outputs(*oracle_negation_instances(structure)))
        a2 = forms._first_outputs(*forms._combination_chunks(structure))
        assert_same_extraction(a2, oracle_first_outputs(*oracle_combination_instances(structure)))

    def test_negation_instances_flatten_the_chunks(self, chunking):
        structure = structure_of(4, ratio_table(4, [1, 2, 3, 1]))
        values, instances = forms._negation_instances(structure)
        want_values, want = oracle_negation_instances(structure)
        assert list(values) == list(want_values)
        assert list(instances) == list(want)


# -- the associativity join -----------------------------------------------------


def associative_table(rng, width):
    """A random part of the Łukasiewicz t-norm max(0, x + y − top) on ranks
    0..top: associative, and closed enough that many instances chain."""
    top = width - 1
    return {
        (x, y): max(0, x + y - top)
        for x in range(width) for y in range(width) if rng.random() < 0.7
    }


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
        assert associativity_join(table, width, endpoints) == want
        with chunk_sizes(1, 4):
            assert associativity_join(table, width, endpoints) == want

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
        assert associativity_join(table, width, {0, width - 1}) == want

    def test_sparse_tables_over_three_ranks(self):
        # few entries, few instances, rare failures: each of the seven ranks
        # is, in some instance, the one that is not an endpoint
        rng = random.Random(7)
        keys = [(x, y) for x in range(3) for y in range(3)]
        for _ in range(3000):
            table = {k: rng.randrange(3) for k in rng.sample(keys, rng.randint(1, 6))}
            want = oracle_join(table, {0, 2})
            assert associativity_join(table, 3, {0, 2}) == want

    def test_only_the_chain_conflict_fixture_fails(self):
        failing = [
            path.name for path in sorted(FIXTURES.glob("*.bel"))
            if not path.name.startswith("bad_parse")
            and chain_consistency(load_structure(path)).status == "fail"
        ]
        assert failing == ["chain_conflict.bel"]


def test_memory_stays_bounded_on_eight_atoms():
    """Extraction and the join on an 8-atom table, weights 1-30 through v³,
    peak below 32 MB of traced memory; numpy reports its buffers too."""
    rng = random.Random(8)
    structure = structure_of(8, ratio_table(8, [rng.randint(1, 30) for _ in range(8)],
                                            lambda x: x ** 3))
    tracemalloc.start()
    try:
        combination_ranks(structure)
        report = chain_consistency(structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass" and report.instances > 100_000
    assert peak < 32 * 2 ** 20
