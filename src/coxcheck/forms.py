"""Negation and combination forms, their laws, and the multiplicative representation.

A form is either tabular (a partial function read off a structure's table)
or a catalog closed form.  Catalog combination forms live on [0,1] and are
exactly rational-valued, so law checks on them run in exact arithmetic;
the multiplicative-representation construction is the one place where
high-precision floats (mpmath) take over.  mpmath is imported only there,
inside `multiplicative_rep` and the helpers it calls: no CLI command builds
a representation, so importing this module or running any command loads no
mpmath.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ZERO, ONE, BeliefStructure, Event, rank_values, submask_table,
)

NEGATION_CATALOG = ("linear-complement",)
COMBINATION_CATALOG = ("product", "minimum", "hamacher")

#: Declared differentiability class per catalog form (times continuously
#: differentiable).  Metadata, not something verified from evaluations.
SMOOTHNESS = {
    "linear-complement": math.inf,
    "product": math.inf,
    "minimum": 1,
    "hamacher": math.inf,
}


class FormError(ValueError):
    """Bad form construction or a violated operation precondition."""


class EquationCoverageError(ValueError):
    """A tabular form defines no evaluable instance of the equation."""


@dataclass(frozen=True)
class NegationForm:
    """A negation function S, tabular or from the catalog."""

    kind: str  # 'tabular' or a NEGATION_CATALOG name
    table: dict[Fraction, Fraction] | None = None
    interval: tuple[Fraction, Fraction] = (ZERO, ONE)

    def __post_init__(self):
        if self.kind != "tabular" and self.kind not in NEGATION_CATALOG:
            raise FormError(f"unknown negation form {self.kind!r}")
        if (self.kind == "tabular") != (self.table is not None):
            raise FormError("tabular forms need a table, catalog forms none")

    @property
    def is_tabular(self) -> bool:
        return self.kind == "tabular"

    def defined_at(self, x: Fraction) -> bool:
        return True if not self.is_tabular else x in self.table

    def __call__(self, x: Fraction) -> Fraction:
        if self.is_tabular:
            return self.table[x]
        e, big_e = self.interval
        return e + big_e - x  # 1 - x on the default interval

    @property
    def smoothness(self):
        return None if self.is_tabular else SMOOTHNESS[self.kind]


@dataclass(frozen=True)
class CombinationForm:
    """A combination function F, tabular or from the catalog."""

    kind: str  # 'tabular' or a COMBINATION_CATALOG name
    table: dict[tuple[Fraction, Fraction], Fraction] | None = None
    interval: tuple[Fraction, Fraction] = (ZERO, ONE)

    def __post_init__(self):
        if self.kind != "tabular" and self.kind not in COMBINATION_CATALOG:
            raise FormError(f"unknown combination form {self.kind!r}")
        if (self.kind == "tabular") != (self.table is not None):
            raise FormError("tabular forms need a table, catalog forms none")

    @property
    def is_tabular(self) -> bool:
        return self.kind == "tabular"

    def defined_at(self, x: Fraction, y: Fraction) -> bool:
        return True if not self.is_tabular else (x, y) in self.table

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        if self.is_tabular:
            return self.table[(x, y)]
        if self.kind == "product":
            return x * y
        if self.kind == "minimum":
            return min(x, y)
        # hamacher: xy/(x+y-xy), with F(0,0) = 0 by continuity
        denom = x + y - x * y
        if denom == 0:
            return ZERO
        return x * y / denom

    @property
    def smoothness(self):
        return None if self.is_tabular else SMOOTHNESS[self.kind]


def catalog_negation(name: str, interval=(ZERO, ONE)) -> NegationForm:
    return NegationForm(kind=name, interval=interval)


def catalog_combination(name: str) -> CombinationForm:
    return CombinationForm(kind=name)


# -- extraction ----------------------------------------------------------------


@dataclass(frozen=True)
class NegationConflict:
    """Two pairs with equal Bel values but unequal complement values."""

    value: Fraction
    pair_a: tuple[int, int]
    output_a: Fraction
    pair_b: tuple[int, int]
    output_b: Fraction

    def describe(self, domain) -> str:
        va, ua = self.pair_a
        vb, ub = self.pair_b
        return (
            f"S({self.value}) is forced to both {self.output_a} "
            f"[Bel({Event(domain, va)!r}|{Event(domain, ua)!r})] and "
            f"{self.output_b} [Bel({Event(domain, vb)!r}|{Event(domain, ub)!r})]"
        )


@dataclass(frozen=True)
class CombinationConflict:
    """Two chain triples with equal argument pairs but unequal outputs."""

    args: tuple[Fraction, Fraction]
    triple_a: tuple[int, int, int]
    output_a: Fraction
    triple_b: tuple[int, int, int]
    output_b: Fraction

    def describe(self, domain) -> str:
        def t(tr):
            b, a, u = tr
            return (
                f"({Event(domain, b)!r} ⊆ {Event(domain, a)!r} ⊆ {Event(domain, u)!r})"
            )

        return (
            f"F{self.args} is forced to both {self.output_a} [{t(self.triple_a)}] "
            f"and {self.output_b} [{t(self.triple_b)}]"
        )


#: Size-based extraction on uniform structures enumerates O(n^3) triples;
#: beyond this many atoms even that is out of desk scale.
UNIFORM_EXTRACTION_ATOM_CAP = 128


def _by_sizes(structure: BeliefStructure) -> bool:
    """Uniform structures above 6 atoms are read by event sizes, not pairs."""
    if not (structure.is_uniform and structure.domain.size > 6):
        return False
    if structure.domain.size > UNIFORM_EXTRACTION_ATOM_CAP:
        raise FormError(f"extraction capped at {UNIFORM_EXTRACTION_ATOM_CAP} atoms")
    return True


#: Extraction and the associativity join run over their instances in
#: chunks of whole rows, in canonical order.  Chunks start at FIRST_CHUNK
#: instances and double up to CHUNK_CAP (a single longer row is one chunk),
#: so an early clash costs work in proportion to its position and the
#: temporaries stay bounded.
FIRST_CHUNK = 256
CHUNK_CAP = 1 << 14


def row_chunks(lengths):
    """For rows of the given lengths, yield each chunk's rows r0..r1-1 as
    every instance's row and position in its row."""
    starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    total, r0, size = int(starts[-1]), 0, FIRST_CHUNK
    while (begin := int(starts[r0])) < total:
        # at least up to the first row that is not empty
        r1 = int(max(starts.searchsorted(begin + size, "right") - 1,
                     starts.searchsorted(begin, "right")))
        row = np.arange(r0, r1).repeat(starts[r0 + 1:r1 + 1] - starts[r0:r1])
        yield row, np.arange(begin, starts[r1]) - starts[row]
        r0, size = r1, min(2 * size, CHUNK_CAP)


def row_positions(lengths, index):
    """Row and position in its row of each instance `index`, for rows of
    the given lengths: the numbering that `row_chunks` walks."""
    starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    row = starts.searchsorted(index, "right") - 1
    return row, index - starts[row]


class InstanceLayout(NamedTuple):
    """The A1 or A2 instances of a structure as rows of `lengths` instances,
    in canonical order.  For arrays of rows and of positions in them,
    `read(row, pos)` gives the instances' keys (rank x, or x·V + y for the
    ranks (x, y), V = len(values)), their output ranks, and a function
    that lists their (v,u) or (b,a,u) witnesses as tuples of int masks."""

    values: Sequence[Fraction]
    lengths: np.ndarray
    read: Callable


def _prefixes(*sizes) -> list:
    """Per instance, the prefix events of the given sizes as int masks."""
    return list(zip(*([(1 << s) - 1 for s in size.tolist()] for size in sizes)))


def _negation_layout(structure: BeliefStructure) -> InstanceLayout:
    """A1: per instance the ranks of x and of S(x).  Over pairs, row u holds
    the pairs (v, u), so an instance's index is its pair's position in
    `pair_rank`; read by sizes, row m holds |V| = 0..m on prefix events."""
    if _by_sizes(structure):
        values, size_rank = structure.size_ranks()
        lengths = np.array([0] + [m + 1 for m in range(1, structure.domain.size + 1)])
        return InstanceLayout(values, lengths, lambda m, j: (
            size_rank[m, j], size_rank[m, m - j], lambda: _prefixes(j, m)))
    index = structure.value_index()
    start, sub = submask_table(structure.domain.size)
    lengths = np.diff(start)  # row u holds the pairs (v, u); row 0 none
    lengths[0] = 0

    def read(u, pos):
        # (u^v, u) is as far from the end of row u as (v, u) is from its start
        at = start[u] - 1 + pos
        return (index.pair_rank[at], index.pair_rank[at + lengths[u] - 1 - 2 * pos],
                lambda: list(zip(sub[at + 1].tolist(), u.tolist())))
    return InstanceLayout(index.values, lengths, read)


def _combination_layout(structure: BeliefStructure) -> InstanceLayout:
    """A2: per instance the key x·V + y for the ranks (x, y) of Bel(B|A) and
    Bel(A|U), and the rank of Bel(B|U), over the chain triples B ⊆ A ⊆ U."""
    if _by_sizes(structure):
        values, size_rank = structure.size_ranks()
        width = len(values)
        # row m holds (|A|, |B|) for 1 <= |A| <= m, |B| <= |A|: a prefix of
        # the one layout that lists |A| = 1, 2, ... in turn
        a_starts = np.cumsum([0, 0] + [a + 1 for a in range(1, structure.domain.size + 1)])

        def read_sizes(m, t):
            a = a_starts.searchsorted(t, "right") - 1
            j = t - a_starts[a]
            return (size_rank[a, j] * width + size_rank[m, a], size_rank[m, j],
                    lambda: _prefixes(j, a, m))
        return InstanceLayout(values, np.concatenate(([0], a_starts[2:])), read_sizes)
    index = structure.value_index()
    start, sub = submask_table(structure.domain.size)
    rank = index.pair_rank
    width = len(index.values)

    def read(u, t):
        # row u holds the 3^|U| - 1 triples with A ≠ ∅: entries 1.. of the
        # submask layout, where entry t is the j-th submask B of the c-th
        # submask A of U, and sub[t] is B's position among U's submasks
        t = t + 1
        c = start.searchsorted(t, "right") - 1
        j = t - start[c]
        a = sub[start[u] + c]
        row = start[u] - 1
        x = rank[start[a] - 1 + j].astype(np.int64)
        return (x * width + rank[row + c], rank[row + sub[t]],
                lambda: list(zip(sub[start[a] + j].tolist(), a.tolist(), u.tolist())))
    return InstanceLayout(index.values, start[np.diff(start)] - 1, read)


class RankedExtraction(NamedTuple):
    """A1 or A2 on value ranks, as arrays sorted by key: each key (as in
    `InstanceLayout`) once, its output rank in `outs` and the canonical
    index of its first instance in `first`.  `clash` is the first
    conflicting instance as (key, out, index), or None; the arrays then hold
    the keys met before it.  Witnesses are derived from instance indices
    through `layout`, only where something names them.  A domain family's
    merged table (`coxcheck.generators.build_family`) has no layout."""

    values: Sequence[Fraction]
    keys: np.ndarray
    outs: np.ndarray
    first: np.ndarray
    clash: tuple | None
    layout: InstanceLayout

    def masks(self, index) -> list:
        """The witness masks of each canonical instance in `index`."""
        row, pos = row_positions(self.layout.lengths, np.atleast_1d(index))
        return self.layout.read(row, pos)[2]()

    def entries(self, keys) -> list:
        """(output rank, first witness) of each of `keys`, all in the table."""
        at = self.keys.searchsorted(keys)
        return list(zip(self.outs[at].tolist(), self.masks(self.first[at])))

    def first_seen(self):
        """(key, output rank) pairs in the order their keys are first met."""
        order = self.first.argsort()
        return zip(self.keys[order].tolist(), self.outs[order].tolist())


def _merged(runs) -> tuple:
    """(keys, outs, first) of sorted runs with disjoint keys, as one run."""
    keys, outs, first = (np.concatenate(parts) for parts in zip(*runs))
    order = keys.argsort(kind="stable")
    return keys[order], outs[order], first[order]


def _first_outputs(layout: InstanceLayout) -> RankedExtraction:
    """Each key's first output and instance, and the first clash.

    The instances are read in the chunks of `row_chunks`, in canonical
    order.  Keys met in earlier chunks are kept with their first outputs
    and instance indices in sorted runs, and each chunk is checked against
    them and against its own first occurrences, up to the first clash.  A
    run is merged into the one before it once it is as long, so there are
    O(log keys) runs and each key is merged O(log keys) times.
    """
    runs: list = []  # (keys, first outputs, first indices) of earlier chunks
    clash = None
    offset = 0  # canonical index of the chunk's first instance
    for row, pos in row_chunks(layout.lengths):
        keys, outs, _ = layout.read(row, pos)
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        head = np.empty(len(keys), dtype=bool)  # first of its key, in key order
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        uniq, first = ranked[head], order[head]
        inverse = np.empty(len(keys), dtype=np.int64)
        inverse[order] = head.cumsum() - 1
        expected = outs[first]
        new = np.ones(len(uniq), dtype=bool)
        for seen, seen_out, _ in runs:  # a key is in at most one run
            hit = np.minimum(seen.searchsorted(uniq), len(seen) - 1)
            match = seen[hit] == uniq
            new &= ~match
            expected = np.where(match, seen_out[hit], expected)
        bad = (outs != expected[inverse]).nonzero()[0]
        if len(bad):
            stop = int(bad[0])
            clash = (int(keys[stop]), int(outs[stop]), offset + stop)
            new &= first < stop
        if new.any():
            runs.append((uniq[new], expected[new], offset + first[new]))
        while len(runs) > 1 and len(runs[-2][0]) <= len(runs[-1][0]):
            runs[-2:] = [_merged(runs[-2:])]
        if clash is not None:
            break
        offset += len(keys)
    arrays = (a.astype(np.int64, copy=False) for a in _merged(runs))
    return RankedExtraction(layout.values, *arrays, clash, layout)


def negation_ranks(structure: BeliefStructure) -> RankedExtraction:
    """A1 on value ranks, memoized on the structure; chain consistency and
    the ratio engine read it, `extract_negation` turns it into Fractions."""
    return structure.derived(
        "negation-ranks", lambda s: _first_outputs(_negation_layout(s))
    )


def combination_ranks(structure: BeliefStructure) -> RankedExtraction:
    """A2 on value ranks, memoized on the structure, as `negation_ranks`."""
    return structure.derived(
        "combination-ranks", lambda s: _first_outputs(_combination_layout(s))
    )


def extract_negation(structure: BeliefStructure):
    """Tabular S from all complement pairs, or the first conflict.

    A conflict is a legitimate verdict (A1 admits no function S), not an
    error.  Built from `negation_ranks` and memoized on the structure; the
    table lists the values in the order they are first met.
    """
    return structure.derived("negation", _extract_negation)


def _extract_negation(structure: BeliefStructure):
    s = negation_ranks(structure)
    values = s.values
    if s.clash is not None:
        x, s_x, index = s.clash
        ((first_out, first_pair),) = s.entries([x])
        return NegationConflict(
            values[x], first_pair, values[first_out], s.masks(index)[0], values[s_x]
        )
    return NegationForm("tabular", negation_table(s), structure.bounds)


def extract_combination(structure: BeliefStructure):
    """Tabular F from all chain triples B ⊆ A ⊆ U (A ≠ ∅), or a conflict.

    Built from `combination_ranks` and memoized on the structure, as
    `extract_negation`.
    """
    return structure.derived("combination", _extract_combination)


def _extract_combination(structure: BeliefStructure):
    f = combination_ranks(structure)
    values, width = f.values, len(f.values)
    if f.clash is not None:
        key, out, index = f.clash
        ((first_out, first_triple),) = f.entries([key])
        return CombinationConflict(
            (values[key // width], values[key % width]), first_triple,
            values[first_out], f.masks(index)[0], values[out],
        )
    return CombinationForm("tabular", combination_table(f), structure.bounds)


def negation_table(s: RankedExtraction) -> dict:
    """{x: S(x)} in Fractions, keys in the order they are first met."""
    return {s.values[x]: s.values[s_x] for x, s_x in s.first_seen()}


def combination_table(f: RankedExtraction) -> dict:
    """{(x, y): F(x, y)} in Fractions, keys in the order they are first met."""
    values, width = f.values, len(f.values)
    return {(values[k // width], values[k % width]): values[out] for k, out in f.first_seen()}


# -- monotonicity ---------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    status: str  # 'pass' | 'fail' | 'untestable'
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class MonotonicityReport:
    form_kind: str  # 'negation' | 'combination'
    decreasing: Verdict | None = None  # S strictly decreasing
    strict_increase: Verdict | None = None  # F strict on (e,E]^2
    nondecrease: Verdict | None = None  # F nondecreasing on [e,E]^2
    continuity: Verdict | None = None

    @property
    def passed(self) -> bool:
        checks = [self.decreasing, self.strict_increase, self.nondecrease]
        return all(v is None or v.passed for v in checks)


def _grid(interval: tuple[Fraction, Fraction], n: int) -> list[Fraction]:
    e, big_e = interval
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    step = (big_e - e) / (n - 1)
    return [e + step * i for i in range(n)]


def check_monotonicity(form, grid_resolution: int = 9) -> MonotonicityReport:
    """Par3 for negation forms, Par4 (strict + nondecrease + continuity) for
    combination forms.

    Tabular forms are checked on every comparable pair of entries and report
    continuity as untestable.  A catalog F is tabulated on an exact
    rational grid and checked as that table, and its continuity is probed
    on the grid.
    """
    if not isinstance(form, (NegationForm, CombinationForm)):
        raise FormError(f"not a form: {form!r}")
    kind = "negation" if isinstance(form, NegationForm) else "combination"
    if form.is_tabular:
        return ranked_monotonicity(kind, *_interned(form), form.interval)
    if kind == "negation":  # e + E - x has slope -1 everywhere.
        return MonotonicityReport(kind, decreasing=Verdict(
            "pass", "catalog form, strictly decreasing by closed form"))
    pts = _grid(form.interval, grid_resolution)
    grid = CombinationForm("tabular", {(x, y): form(x, y) for x in pts for y in pts})
    return replace(ranked_monotonicity(kind, *_interned(grid), form.interval),
                   continuity=_check_f_continuity(form, grid_resolution))


def _interned(form) -> tuple:
    """(values, keys, outs) of a tabular form, as `ranked_monotonicity`
    takes them."""
    table, n = form.table, len(form.table)
    pairs = isinstance(form, CombinationForm)
    args = [a for key in table for a in key] if pairs else list(table)
    values, ranks = rank_values(args + list(table.values()))
    keys = ranks[0:2 * n:2] * len(values) + ranks[1:2 * n:2] if pairs else ranks[:n]
    order = keys.argsort()
    return values, keys[order], ranks[len(args):][order]


def ranked_monotonicity(kind: str, values, keys, outs, interval) -> MonotonicityReport:
    """Par3 (kind 'negation') or Par4 (kind 'combination') of a tabular S or
    F on value ranks: `values` strictly increasing, `keys` sorted and
    distinct, `outs` the output rank of each key.  An S key is the rank of
    x, an F key x·V + y for the ranks (x, y) and V = len(values), as in
    `RankedExtraction`.  Fractions are read only for a failure's detail.
    """
    if kind == "negation":  # each output above the next, in key order
        bad = np.flatnonzero(outs[1:] >= outs[:-1])
        if not len(bad):
            return MonotonicityReport(kind, decreasing=Verdict(
                "pass", f"strictly decreasing on {len(keys)} tabular points"))
        i = int(bad[0])
        x1, y1, x2, y2 = (values[r] for r in (keys[i], outs[i], keys[i + 1], outs[i + 1]))
        return MonotonicityReport(kind, decreasing=Verdict(
            "fail", f"S({x1})={y1} vs S({x2})={y2} (not decreasing)"))
    e, big_e = interval
    compared, strict_fail, nondec_fail = _ranked_f_monotone(values, keys, outs, e)
    continuity = Verdict("untestable", "continuity untestable on a tabular form")
    if compared == 0:
        untestable = Verdict("untestable", "no comparable argument pairs")
        return MonotonicityReport(kind, None, untestable, untestable, continuity)
    if strict_fail:
        (p1, f1), (p2, f2) = strict_fail
        strict = Verdict("fail", f"F{p1}={f1} vs F{p2}={f2} (not strict)")
    else:
        strict = Verdict("pass", f"strict on {compared} comparable pairs in ({e},{big_e}]^2")
    if nondec_fail:
        (p1, f1), (p2, f2) = nondec_fail
        nondec = Verdict("fail", f"F{p1}={f1} > F{p2}={f2}")
    else:
        nondec = Verdict("pass", f"nondecreasing on {compared} comparable pairs")
    return MonotonicityReport(kind, None, strict, nondec, continuity)


def _ranked_f_monotone(values, keys, outs, e):
    """(pairs compared, first strict failure, first nondecrease failure) of
    an F on value ranks, as `ranked_monotonicity` takes it.

    Compares the outputs at adjacent arguments that differ in one
    coordinate: every row of equal x by ascending x, then every column of
    equal y by ascending y.  Sorted keys are the rows in that order, and one
    `lexsort` gives the columns.  A failure is the pair of (arguments,
    output), lower one first, in Fractions.
    """
    x, y = np.divmod(keys, len(values))
    column = np.lexsort((x, y))
    row_pair = np.flatnonzero(x[1:] == x[:-1])
    column_pair = np.flatnonzero(y[column[1:]] == y[column[:-1]])
    lower = np.concatenate((row_pair, column[column_pair]))
    upper = np.concatenate((row_pair + 1, column[column_pair + 1]))
    low, up = outs[lower], outs[upper]
    # all four arguments exceed e when the smaller two do
    interior = np.minimum(x[lower], y[lower]) >= bisect.bisect_right(values, e)

    def first(bad):
        if not bad.any():
            return None
        at = bad.argmax()
        return tuple(((values[x[k]], values[y[k]]), values[outs[k]])
                     for k in (lower[at], upper[at]))
    return len(lower), first((low >= up) & interior), first(low > up)


def _tabular_f_monotone(form: CombinationForm):
    """`_ranked_f_monotone` of a tabular form."""
    return _ranked_f_monotone(*_interned(form), form.interval[0])


def _check_f_continuity(form: CombinationForm, grid_resolution: int) -> Verdict:
    pts = _grid(form.interval, grid_resolution)
    step = pts[1] - pts[0]
    bound = 2 * step  # admits any Lipschitz-2 form at this grid pitch
    worst = ZERO
    for x in pts:
        for y1, y2 in zip(pts, pts[1:]):
            worst = max(worst, abs(form(x, y2) - form(x, y1)))
            worst = max(worst, abs(form(y2, x) - form(y1, x)))
    if worst <= bound:
        return Verdict("pass", f"max grid jump {worst} ≤ modulus bound {bound}")
    return Verdict("fail", f"grid jump {worst} exceeds modulus bound {bound}")


# -- functional equations ---------------------------------------------------------

EQUATIONS = ("EQ1", "EQ3", "EQ3.5", "EQSYM")

#: Grid points in one instance of each equation: a grid of n points gives
#: n**arity instances.
EQUATION_ARITY = {"EQ1": 3, "EQ3": 1, "EQ3.5": 2, "EQSYM": 2}

#: Most instances `check_functional_equation` evaluates; checked before any
#: evaluation, so `equations --eq EQ1 --grid 1000` fails at once.
EQUATION_EVALUATION_LIMIT = 100_000

EQUATION_DESCRIPTIONS = {
    "EQ1": "F(x,F(y,z)) = F(F(x,y),z)",
    "EQ3": "S(S(y)) = y",
    "EQ3.5": "y*S(x/y) = S(x)*S(S(y)/S(x))",
    "EQSYM": "y*S(S(x)/y) = x*S(S(y)/x)",
}


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    grid_resolution: int
    residual: Fraction
    witness: tuple | None
    evaluated: int
    skipped: int
    total: int
    partial: bool  # tabular form: only table-defined points evaluated

    @property
    def coverage(self) -> Fraction:
        return Fraction(self.evaluated, self.total) if self.total else ZERO

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "grid": self.grid_resolution,
            "residual": format(float(self.residual), ".17g"),
            "residual_exact": str(self.residual),
            "witness": [str(w) for w in self.witness] if self.witness else None,
            "coverage": str(self.coverage),
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "partial": self.partial,
        }


def check_functional_equation(form, equation: str, grid_resolution: int) -> ResidualReport:
    """Max absolute residual of the named law over a rational grid on [e,E].

    EQ1 needs a combination form (n^3 grid); the rest need a negation form.
    A grid needing over EQUATION_EVALUATION_LIMIT instances is refused.
    Division points with zero denominators are skipped and counted.  Tabular
    forms are evaluated only where defined and the report is flagged partial.
    """
    if equation not in EQUATIONS:
        raise ValueError(f"unknown equation {equation!r}")
    instances = grid_resolution ** EQUATION_ARITY[equation]
    if instances > EQUATION_EVALUATION_LIMIT:
        raise ValueError(
            f"{equation} on a grid of {grid_resolution} needs {instances} "
            f"evaluations, over the limit of {EQUATION_EVALUATION_LIMIT}"
        )
    if equation == "EQ1":
        if not isinstance(form, CombinationForm):
            raise FormError("EQ1 requires a combination form")
        return _residual_eq1(form, grid_resolution)
    if not isinstance(form, NegationForm):
        raise FormError(f"{equation} requires a negation form")
    if equation == "EQ3":
        return _residual_scan(
            form, "EQ3", grid_resolution,
            [(y,) for y in _grid(form.interval, grid_resolution)],
            _eq3_instance,
        )
    pts = _grid(form.interval, grid_resolution)
    pairs = [(x, y) for x in pts for y in pts]
    fn = _eq35_instance if equation == "EQ3.5" else _eqsym_instance
    return _residual_scan(form, equation, grid_resolution, pairs, fn)


def _residual_eq1(form: CombinationForm, n: int) -> ResidualReport:
    pts = _grid(form.interval, n)
    best = ZERO
    witness = None
    evaluated = 0
    skipped = 0
    total = len(pts) ** 3
    for x in pts:
        for y in pts:
            for z in pts:
                if form.is_tabular:
                    value = _eq1_tabular(form, x, y, z)
                    if value is None:
                        skipped += 1
                        continue
                else:
                    value = abs(form(x, form(y, z)) - form(form(x, y), z))
                evaluated += 1
                if value > best:
                    best, witness = value, (x, y, z)
    if evaluated == 0:
        raise EquationCoverageError("EQ1: no evaluable grid triples for this form")
    return ResidualReport(
        "EQ1", n, best, witness, evaluated, skipped, total, form.is_tabular
    )


def _eq1_tabular(form: CombinationForm, x, y, z):
    if not form.defined_at(y, z):
        return None
    inner_r = form(y, z)
    if not form.defined_at(x, y):
        return None
    inner_l = form(x, y)
    if not form.defined_at(x, inner_r) or not form.defined_at(inner_l, z):
        return None
    return abs(form(x, inner_r) - form(inner_l, z))


def _eq3_instance(form: NegationForm, args):
    (y,) = args
    if not form.defined_at(y):
        return None
    s_y = form(y)
    if not form.defined_at(s_y):
        return None
    return abs(form(s_y) - y)


def _eq35_instance(form: NegationForm, args):
    x, y = args
    if y == 0:
        return "skip"
    if not (form.defined_at(x) and form.defined_at(y)):
        return None
    s_x, s_y = form(x), form(y)
    if s_x == 0:
        return "skip"
    if not (form.defined_at(x / y) and form.defined_at(s_y / s_x)):
        return None
    return abs(y * form(x / y) - s_x * form(s_y / s_x))


def _eqsym_instance(form: NegationForm, args):
    x, y = args
    if y == 0 or x == 0:
        return "skip"
    if not (form.defined_at(x) and form.defined_at(y)):
        return None
    s_x, s_y = form(x), form(y)
    if not (form.defined_at(s_x / y) and form.defined_at(s_y / x)):
        return None
    return abs(y * form(s_x / y) - x * form(s_y / x))


def _residual_scan(form, equation, n, points, instance_fn) -> ResidualReport:
    best = ZERO
    witness = None
    evaluated = 0
    skipped = 0
    undefined = 0
    for args in points:
        value = instance_fn(form, args)
        if value == "skip":
            skipped += 1
            continue
        if value is None:
            undefined += 1
            continue
        evaluated += 1
        if value > best:
            best, witness = value, tuple(args)
    if evaluated == 0:
        raise EquationCoverageError(f"{equation}: no evaluable grid points for this form")
    return ResidualReport(
        equation, n, best, witness, evaluated, skipped, len(points),
        form.is_tabular and undefined > 0,
    )


# -- multiplicative representation ---------------------------------------------


@dataclass(frozen=True)
class MultiplicativeRep:
    """Strictly increasing f with C·f(F(x,y)) = f(x)·f(y) on sample points.

    `samples` maps argument values to f-values; `exponents` records the exact
    dyadic exponent q with f = 2^(-q) at each sample, in the same order.
    """

    samples: tuple[tuple[float, float], ...]
    exponents: tuple[Fraction, ...]
    constant: float
    residual: float
    anchor: float
    grid: int

    def f(self, x: float) -> float:
        """Monotone interpolation of the sample graph (log-linear in f)."""
        xs = [p for p, _ in self.samples]
        if x >= xs[-1]:
            return self.samples[-1][1]
        if x <= xs[0]:
            # below the smallest sample, f decays toward 0
            return self.samples[0][1] * x / xs[0] if xs[0] > 0 else 0.0
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= x:
                lo = mid
            else:
                hi = mid
        e_lo = float(self.exponents[lo])
        e_hi = float(self.exponents[hi])
        t = (x - xs[lo]) / (xs[hi] - xs[lo])
        return 2.0 ** (-(e_lo + t * (e_hi - e_lo)))


_ROOT_DEPTH = 6  # dyadic refinement: exponent step 2^-6
_POWER_STEPS = 20  # F-powers of the anchor reached by the sample ladder


def multiplicative_rep(
    form: CombinationForm,
    anchor: Fraction,
    tolerance: float = 1e-9,
    grid: int = 50,
) -> MultiplicativeRep:
    """Construct f with f(E)=1, f(anchor)=1/2 by dyadic iteration.

    Preconditions (verified here): catalog form; Par4-strict monotonicity;
    exact associativity; unit E and annihilator e on a check grid.  The
    constant C is fixed to 1.  The residual is the max of
    |f(F(x,y)) - f(x)f(y)| over a grid of sample-point pairs, which measures
    the representation property at points where f is pinned rather than
    interpolation slack.
    """
    import mpmath

    if form.is_tabular:
        raise FormError("multiplicative_rep requires a catalog combination form")
    e, big_e = form.interval
    anchor = Fraction(anchor)
    if not e < anchor < big_e:
        raise FormError(f"anchor must lie strictly inside ({e}, {big_e})")
    mono = check_monotonicity(form)
    if not mono.strict_increase.passed:
        raise FormError(
            f"precondition Par4-strict fails: {mono.strict_increase.detail}"
        )
    assoc = check_functional_equation(form, "EQ1", 10)
    if float(assoc.residual) > tolerance:
        raise FormError(f"precondition EQ1 fails: residual {assoc.residual}")
    for t in _grid(form.interval, 21):
        if form(t, big_e) != t or form(big_e, t) != t:
            raise FormError(f"precondition unit fails: F({t}, E) != {t}")
        if form(t, e) != e or form(e, t) != e:
            raise FormError(f"precondition annihilator fails: F({t}, e) != {e}")

    with mpmath.workdps(50):
        f_mp = _as_mp_function(form)
        t = _mpf_of(anchor)
        # 2^_ROOT_DEPTH-th F-root of the anchor via monotone bisection.
        for _ in range(_ROOT_DEPTH):
            t = _bisect_diagonal(f_mp, t, form)
        delta = Fraction(1, 2 ** _ROOT_DEPTH)
        count = _POWER_STEPS * (2 ** _ROOT_DEPTH)
        xs = [mpmath.mpf(1)]
        exponents = [Fraction(0)]
        current = mpmath.mpf(1)
        for m in range(1, count + 1):
            current = f_mp(t, current)
            xs.append(current)
            exponents.append(delta * m)
        anchor_index = 2 ** _ROOT_DEPTH
        anchor_drift = abs(xs[anchor_index] - _mpf_of(anchor))
        if anchor_drift > mpmath.mpf(10) ** (-20):
            raise FormError("anchor not recovered by the dyadic ladder")
        for a, b in zip(xs, xs[1:]):
            if not b < a:
                raise FormError("sample ladder is not strictly decreasing")

        # residual over a grid of sample pairs whose exponents stay in range
        half = count // 2
        idx = sorted({max(1, round(1 + i * (half - 1) / (grid - 1))) for i in range(grid)})
        residual = mpmath.mpf(0)
        for i in idx:
            for j in idx:
                z = f_mp(xs[i], xs[j])
                fz = _interp_exponent(xs, exponents, z)
                lhs = mpmath.mpf(2) ** (-fz)
                rhs = mpmath.mpf(2) ** (-float(exponents[i])) * mpmath.mpf(2) ** (
                    -float(exponents[j])
                )
                residual = max(residual, abs(lhs - rhs))

        samples = tuple(
            (float(x), float(mpmath.mpf(2) ** (-mpmath.mpf(q.numerator) / q.denominator)))
            for x, q in zip(reversed(xs), reversed(exponents))
        )
    return MultiplicativeRep(
        samples=samples,
        exponents=tuple(reversed(exponents)),
        constant=1.0,
        residual=float(residual),
        anchor=float(anchor),
        grid=len(idx),
    )


def _as_mp_function(form: CombinationForm):
    import mpmath
    if form.kind == "product":
        return lambda a, b: a * b
    if form.kind == "hamacher":
        def ham(a, b):
            d = a + b - a * b
            return mpmath.mpf(0) if d == 0 else a * b / d
        return ham
    if form.kind == "minimum":
        return lambda a, b: min(a, b)
    raise FormError(f"no high-precision evaluator for {form.kind!r}")


def _mpf_of(x: Fraction):
    import mpmath
    return mpmath.mpf(x.numerator) / x.denominator


def _bisect_diagonal(f_mp, target, form: CombinationForm):
    """Solve F(t,t) = target for t by bisection on the monotone diagonal."""
    lo = _mpf_of(Fraction(form.interval[0]))
    hi = _mpf_of(Fraction(form.interval[1]))
    if not (f_mp(lo, lo) <= target <= f_mp(hi, hi)):
        raise FormError("bisection failure: diagonal does not reach the target")
    for _ in range(200):
        mid = (lo + hi) / 2
        if f_mp(mid, mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _interp_exponent(xs, exponents, z):
    """Exponent of f at z by linear interpolation over the descending ladder."""
    import mpmath
    lo, hi = 0, len(xs) - 1
    if z >= xs[0]:
        return mpmath.mpf(0)
    if z <= xs[-1]:
        return mpmath.mpf(exponents[-1].numerator) / exponents[-1].denominator
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] >= z:
            lo = mid
        else:
            hi = mid
    e_lo = mpmath.mpf(exponents[lo].numerator) / exponents[lo].denominator
    e_hi = mpmath.mpf(exponents[hi].numerator) / exponents[hi].denominator
    t = (z - xs[lo]) / (xs[hi] - xs[lo])
    return e_lo + t * (e_hi - e_lo)
