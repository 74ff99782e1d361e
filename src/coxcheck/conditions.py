"""Hypothesis audits: bounds and endpoints, density probes, chain-level laws.

The density hypothesis splits into a scalar gap statistic (cheap lower bound,
always positive on finite structures) and the faithful three-target probe:
the exact least deviation over every nested chain, from one min–max pass
over a member's steps.  Chain-level associativity is checked as composite
instances over the extracted combination table: within a single chain the two
decompositions of Bel(U4|U1) agree by construction, so the content lives in
instances whose four table entries come from different chains.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    _EXACT_FLOAT_INT,
    ZERO,
    ONE,
    BeliefDomainError,
    BeliefStructure,
    ChainQuadruple,
    Event,
    float_values,
    pair_at,
    pair_masks,
    preflight,
    stable_order,
    submask_table,
    within,
)
from .forms import (
    Verdict,
    check_monotonicity,  # re-exported
    combination_ranks,
    extract_combination,
    extract_negation,
    f_at,
    negation_ranks,
    ranked_monotonicity,
    row_chunks,
)


# -- bounds (Par1 / Par2) --------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    par1: Verdict
    par2: Verdict

    @property
    def passed(self) -> bool:
        return self.par1.passed and self.par2.passed


def check_bounds(structure: BeliefStructure) -> BoundsReport:
    """Range ⊆ [e,E] (Par1) and Bel(∅|U)=e, Bel(U|U)=E for all U (Par2).

    Each names its first violating pair in canonical order.  A table is
    tested on its rank array: Par1 on every rank, Par2 on the first and
    last entry of each row.  A weight backing's values (μ(V∩U)/μ(U))^k lie
    in [0,1], and each row runs from Bel(∅|U) = 0 to Bel(U|U) = 1, so the
    first row, U = {first atom}, decides both: Par1 holds iff e <= 0 and
    1 <= E, Par2 iff e = 0 and E = 1.
    """
    e, big_e = structure.bounds
    domain = structure.domain
    if structure.is_weight_backed:
        # (V, U, Bel(V|U)) of the first value outside [e, E], and
        # (U, Bel(∅|U), Bel(U|U)) of the first row that does not run from e to E
        spill = (0, 1, ZERO) if e > 0 else (1, 1, ONE) if big_e < 1 else None
        row = None if (e, big_e) == (ZERO, ONE) else (1, ZERO, ONE)
    else:
        index = structure.value_index()
        ranks, values = index.pair_rank, index.values
        outside = np.flatnonzero((ranks < index.e) | (ranks > index.E))
        spill = row = None
        if len(outside):
            pos = int(outside[0])
            spill = (*pair_at(domain.size, pos), values[ranks[pos]])
        # row u runs from start[u] - 1 (V = ∅) to start[u + 1] - 2 (V = U)
        start = submask_table(domain.size)[0]
        first, last = ranks[start[1:-1] - 1], ranks[start[2:] - 2]
        bad = np.flatnonzero((first != index.e) | (last != index.E))
        if len(bad):
            u = int(bad[0]) + 1
            row = (u, values[first[u - 1]], values[last[u - 1]])
    par1 = Verdict("pass", f"all values within [{e},{big_e}]")
    if spill is not None:
        v, u, x = spill
        par1 = Verdict("fail", f"Bel({Event(domain, v)!r}|{Event(domain, u)!r}) = {x} "
                               f"outside [{e},{big_e}]")
    par2 = Verdict("pass", f"Bel(∅|U)={e} and Bel(U|U)={big_e} for every nonempty U")
    if row is not None:
        u, low, high = row
        par2 = Verdict("fail", f"Bel(∅|{Event(domain, u)!r}) = {low} ≠ {e}" if low != e
                       else f"Bel(U|U) = {high} ≠ {big_e} at U={Event(domain, u)!r}")
    return BoundsReport(par1, par2)


# -- density (Par5) ----------------------------------------------------------------


def par5_gap(structure: BeliefStructure, kind: str = "conditional") -> Fraction:
    """Sup over α in [e,E] of the distance to the nearest attained value.

    Equals half the maximum spacing of attained(kind) ∪ {e,E} when the
    endpoints are attained; strictly positive for every finite structure.
    Exact, and float-first: only the spacings `_widest_spacings` keeps are
    compared in Fractions.
    """
    e, big_e = structure.bounds
    values = structure.attained(kind)

    def dist(alpha: Fraction) -> Fraction:
        i = bisect.bisect_left(values, alpha)
        return min(abs(alpha - v) for v in values[max(i - 1, 0):i + 1])

    # the midpoint of adjacent values is (v2 - v1)/2 from its nearest value;
    # it lies strictly inside (e, E) when 2e < v1 + v2 < 2E
    low, high = 2 * e, 2 * big_e
    spacing = max(
        (values[k + 1] - values[k] for k in _widest_spacings(values, low, high).tolist()
         if low < values[k] + values[k + 1] < high),
        default=ZERO,
    )
    return max(dist(e), dist(big_e), spacing / 2)


#: The float sum or difference of two correctly rounded Fractions is
#: within 2^-52 of their magnitudes, plus a subnormal spacing, of the exact
#: one.  A margin of 2^-50 of the magnitudes of both values and both bounds
#: also covers the rounding of the bounds and of the comparisons.
_ROUNDING, _SUBNORMAL = 2.0 ** -50, 2.0 ** -1070


def _widest_spacings(values: list, low: Fraction, high: Fraction) -> np.ndarray:
    """The indices k of the spacings values[k+1] − values[k], of the sorted
    Fractions `values`, that floats cannot rule out as the largest one with
    low < values[k] + values[k+1] < high.

    Each float sum and difference is within a margin of the exact one.  A
    spacing whose sum is clear of low and high by the margin is surely
    admissible, one clear on the outside surely not.  Of the rest, a
    spacing is kept unless its width, plus the margin, is below the least
    width a surely admissible spacing is known to have.  Values beyond the
    float range keep every spacing.
    """
    f = float_values(values + [low, high])
    lo, hi, f = f[-2], f[-1], f[:-2]
    with np.errstate(over="ignore", invalid="ignore"):
        sums, widths = f[1:] + f[:-1], f[1:] - f[:-1]
        margin = _ROUNDING * (np.abs(f[1:]) + np.abs(f[:-1]) + abs(lo) + abs(hi)) + _SUBNORMAL
    if not np.isfinite(margin).all():
        return np.arange(len(widths))
    inside = (sums - margin > lo) & (sums + margin < hi)
    maybe = (sums + margin >= lo) & (sums - margin <= hi)
    floor = np.max(widths - margin, where=inside, initial=-np.inf)
    return np.flatnonzero(maybe & (widths + margin >= floor))


@dataclass(frozen=True)
class DensityProbe:
    """Targets (α, β, γ) in [0,1] and a positive tolerance ε.

    Targets are expressed on [0,1] and rescaled onto the structure's value
    interval when probed; ε is in the structure's own units.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    epsilon: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            t = Fraction(getattr(self, name))
            object.__setattr__(self, name, t)
            if not ZERO <= t <= ONE:
                raise ValueError(f"{name} must lie in [0,1]")
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class TripleSearchResult:
    passed: bool
    chain: ChainQuadruple
    deviation: Fraction  # Chebyshev max over the three targets, the least one
    candidates_tried: int  # the steps the pass read


#: Most floats in one intermediate array of the density pass.
_CHUNK = 1 << 15


class _StepGraph:
    """The steps Bel(child|parent) that a member's nested chains are made of.

    Nodes are 0..nodes−1, 0 the empty event.  `up` lists the steps of each
    nonempty child in one run, children ascending (`up_start` holds each
    run's first step), and `down` those of each parent.  A step's value is
    normalized to (Bel − e)/(E − e), as a correctly rounded float `w`, so a
    target's coordinates are the grid points themselves and a deviation is
    in units of E − e.  `up_keys` and `down_keys` name the steps' values,
    and `exact` gives a key's normalized value as a Fraction, whose
    denominator is at most `denominator`.  Each float deviation |w − t| is
    within `eta` of the exact one.
    """

    def __init__(self, nodes, up_start, up_parent, up_w, down_start, down_child, down_w):
        self.nodes = nodes
        self.up_start, self.up_parent, self.up_w = up_start, up_parent, up_w
        self.down_start, self.down_child, self.down_w = down_start, down_child, down_w
        # |fl(w) − w| and |fl(t) − t| are within 2^-53 of |w| and of t <= 1,
        # and the subtraction rounds once: 2^-50 covers all three
        self.eta = _ROUNDING * (1 + max(-down_w.min(), down_w.max())) + _SUBNORMAL


class _SizeGraph(_StepGraph):
    """A uniform weight backing of n atoms and exponent k, by event sizes:
    Bel(V|U) = (|V|/|U|)^k, and a U of size m holds a V of every size j <= m.
    Its chains are those of every uniform member of fewer atoms, the same k
    and the same bounds, each with a U1 of at most that member's atoms."""

    def __init__(self, n: int, k: int, bounds: tuple[Fraction, Fraction]):
        self.n, self.k, (self.e, big_e) = n, k, bounds
        self.span = big_e - self.e
        sizes = np.arange(1, n + 1, dtype=np.int32)  # (n + 1)² / 2 steps fit int32
        up_len, down_len = n + 1 - sizes, sizes + 1
        up_start = np.cumsum(up_len, dtype=np.int32) - up_len
        down_start = np.cumsum(down_len, dtype=np.int32) - down_len
        up_child, down_parent = sizes.repeat(up_len), sizes.repeat(down_len)
        up_parent = np.arange(len(up_child), dtype=np.int32)
        up_parent -= up_start.repeat(up_len)
        up_parent += up_child
        down_child = np.arange(len(down_parent), dtype=np.int32)
        down_child -= down_start.repeat(down_len)
        super().__init__(n + 1, up_start, up_parent, self._values(up_child, up_parent),
                         down_start, down_child, self._values(down_child, down_parent))
        # d·(b·j^k − a·m^k)/(b·c·m^k), for e = a/b and span = c/d
        self.denominator = self.e.denominator * self.span.numerator * n ** k

    def _values(self, j: np.ndarray, m: np.ndarray) -> np.ndarray:
        """((j/m)^k − e)/span, correctly rounded: one division of the ints
        d·(b·j^k − a·m^k) and b·c·m^k, for e = a/b and span = c/d, in int64
        where both are exact as floats and in Python ints otherwise."""
        a, b = self.e.as_integer_ratio()
        c, d = self.span.as_integer_ratio()
        unit = (a, c, d) == (0, 1, 1)  # the bounds [0, 1]
        if max(d * (b + abs(a)), b * c) * self.n ** self.k > _EXACT_FLOAT_INT:
            j, m = j.astype(object), m.astype(object)
        elif self.k > 1 or not unit:
            j, m = j.astype(np.int64), m.astype(np.int64)
        num, den = (j ** self.k, m ** self.k) if self.k > 1 else (j, m)
        if not unit:
            num, den = d * (b * num - a * den), b * c * den
        return np.asarray(num / den, dtype=np.float64)

    def up_keys(self, at: np.ndarray) -> np.ndarray:
        return self._key(self.up_start.searchsorted(at, "right"), self.up_parent[at])

    def down_keys(self, at: np.ndarray) -> np.ndarray:
        return self._key(self.down_child[at], self.down_start.searchsorted(at, "right"))

    def _key(self, j: np.ndarray, m: np.ndarray) -> np.ndarray:
        """j/m in lowest terms, packed as one int: one key per value."""
        g = np.gcd(j, m)
        return j // g * (self.n + 1) + m // g

    def exact(self, key: int) -> Fraction:
        return (Fraction(*divmod(key, self.n + 1)) ** self.k - self.e) / self.span

    @staticmethod
    def mask(size: int) -> int:
        return (1 << size) - 1


class _MaskGraph(_StepGraph):
    """A table, or a weight backing within the "pairs" limit, by event
    masks: the steps are the canonical pairs, keyed by value rank."""

    def __init__(self, structure: BeliefStructure):
        n = structure.domain.size
        index = structure.value_index()
        e, big_e = structure.bounds
        self.values, self.e, self.span = index.values, e, big_e - e
        normalized = (self.values if (e, big_e) == (ZERO, ONE)
                      else [(x - e) / self.span for x in self.values])
        self.denominator = max(x.denominator for x in normalized)
        w = float_values(normalized)
        child, parent = pair_masks(n)
        # the steps with V = ∅, one per parent, lead the stable order by child
        up = stable_order(child)[(1 << n) - 1:]
        self.up_rank, self.down_rank = index.pair_rank[up], index.pair_rank
        super().__init__(1 << n, np.flatnonzero(np.diff(child[up], prepend=0)),
                         parent[up], w[self.up_rank], submask_table(n)[0][1:-1] - 1,
                         child, w[self.down_rank])

    def up_keys(self, at: np.ndarray) -> np.ndarray:
        return self.up_rank[at]

    def down_keys(self, at: np.ndarray) -> np.ndarray:
        return self.down_rank[at]

    def exact(self, key: int) -> Fraction:
        return (self.values[key] - self.e) / self.span

    @staticmethod
    def mask(mask: int) -> int:
        return mask


def _step_graph(structure: BeliefStructure) -> _StepGraph:
    """The step graph of a member: by sizes if it is uniform, else by masks."""
    if structure.is_uniform:
        return _SizeGraph(structure.domain.size, structure.exponent, structure.bounds)
    return _MaskGraph(structure)


def _blocks(start: np.ndarray, total: int, width: int):
    """(lo, hi, first, last) of consecutive runs of steps: the nodes lo..hi−1
    whose runs, `start` their first steps and `total` steps in all, hold the
    steps first..last−1, at most _CHUNK // width of them or one node's run."""
    bounds = np.append(start, total)
    most = max(1, _CHUNK // width)
    lo = 0
    while lo < len(start):
        hi = max(lo + 1, int(bounds.searchsorted(bounds[lo] + most, "right")) - 1)
        yield lo, hi, int(bounds[lo]), int(bounds[hi])
        lo = hi


def _least_deviations(graph: _StepGraph, coords: np.ndarray) -> np.ndarray:
    """The float least deviation of every target (α, β, γ) over `coords`,
    at α·G² + β·G + γ: three min–max passes over the steps.

    - d3(U2) = min over U1 ⊇ U2 of |Bel(U2|U1) − γ|
    - d2(U3) = min over U2 ⊇ U3 of max(d3(U2), |Bel(U3|U2) − β|)
    - the target's = min over U3 of max(d2(U3), min over U4 ⊆ U3 of
      |Bel(U4|U3) − α|)

    U1, U2 and U3 are nonempty.  The first two passes run over blocks of
    children whose steps, times G, fit in _CHUNK floats, the last block
    first: a parent holds its child, so its node is no less, and its d3 is
    known by the time a child reads it.  The middle pass runs once per γ.
    Min and max pick a float without rounding it, so the result is within
    `graph.eta` of the exact least deviation.
    """
    g, nodes = len(coords), graph.nodes
    col = coords[:, None]
    ups = list(_blocks(graph.up_start, len(graph.up_w), g))
    downs = list(_blocks(graph.down_start, len(graph.down_w), g))
    # one set of work arrays serves every block: fresh ones cost page faults
    most = max(last - first for _, _, first, last in ups + downs)
    work, both, above = np.empty((g, most)), np.empty((g, most)), np.empty(most)
    d3 = np.full((g, nodes), np.inf)  # node 0 is no U2
    d2 = np.empty((g, g, nodes - 1))  # by β, γ and U3
    for lo, hi, first, last in reversed(ups):
        dev = work[:, :last - first]
        np.abs(np.subtract(graph.up_w[first:last], col, out=dev), out=dev)
        parent, runs = graph.up_parent[first:last], graph.up_start[lo:hi] - first
        d3[:, lo + 1:hi + 1] = np.minimum.reduceat(dev, runs, axis=1)
        for c in range(g):
            np.take(d3[c], parent, out=above[:last - first])
            np.maximum(dev, above[:last - first], out=both[:, :last - first])
            d2[:, c, lo:hi] = np.minimum.reduceat(both[:, :last - first], runs, axis=1)
    low = np.empty((g, nodes - 1))
    for lo, hi, first, last in downs:
        dev = work[:, :last - first]
        np.abs(np.subtract(graph.down_w[first:last], col, out=dev), out=dev)
        low[:, lo:hi] = np.minimum.reduceat(dev, graph.down_start[lo:hi] - first, axis=1)
    return np.stack([np.maximum(d2, row).min(axis=2) for row in low]).ravel()


def _snap(graph: _StepGraph, found: float, q: int) -> Fraction | None:
    """The exact least deviation from `found`, its float, for a target
    whose coordinates have denominators of at most q, when the exact
    deviations the pass can meet lie more than 4·eta apart: every
    deviation |w − t| has a denominator of at most graph.denominator · q,
    and the one within eta of `found` is the fraction of such a
    denominator nearest to it.  None where they may lie closer."""
    bound = graph.denominator * q
    if 4 * graph.eta * bound * bound < 1:
        return Fraction(float(found)).limit_denominator(bound)
    return None


def _least_chain(graph: _StepGraph, target, found: float) -> tuple:
    """(deviation, nodes) of the exact points `target` = (α, β, γ), given
    `found`, their float least deviation: the exact least one, and the
    nodes (U1, U2, U3, U4) of a chain attaining it with the least U1.

    Where `_snap` gives the deviation, a step lies within it exactly when
    its float deviation lies within 2·eta of `found`.  Else the least
    deviation is that of some step whose float deviation lies within 2·eta
    of `found`.  The steps within 4·eta are rechecked in Fractions, once
    per key, and those exact deviations within 2·eta of `found` are the
    candidates.  The least candidate that some chain stays within is the
    answer; there is usually one.
    """
    eta = graph.eta
    levels = ((graph.down_w, graph.down_keys, target[0]),
              (graph.up_w, graph.up_keys, target[1]),
              (graph.up_w, graph.up_keys, target[2]))
    deviation = _snap(graph, found, max(t.denominator for t in target))
    if deviation is not None:
        work = np.empty(len(graph.down_w))  # reused: fresh arrays cost page faults
        inside = []
        for w, _, t in levels:
            dev = np.subtract(w, float(t), out=work[:len(w)])
            inside.append(np.abs(dev, out=dev) <= found + 2 * eta)
        return deviation, _smallest_chain(graph, *inside)
    low, high = Fraction(found - 2 * eta), Fraction(found + 2 * eta)
    rows, candidates = [], set()
    for w, keys, t in levels:
        dev = np.abs(w - float(t))
        near = np.flatnonzero(np.abs(dev - found) <= 4 * eta)
        distinct, at = np.unique(keys(near), return_inverse=True)
        exact = [abs(graph.exact(key) - t) for key in distinct.tolist()]
        candidates.update(x for x in exact if low <= x <= high)
        rows.append((dev < found - 4 * eta, near, exact, at))
        del dev
    for bound in sorted(candidates):
        inside = []
        for below, near, exact, at in rows:
            ok = below.copy()
            ok[near] = [exact[i] <= bound for i in at.tolist()]
            inside.append(ok)
        nodes = _smallest_chain(graph, *inside)
        if nodes is not None:
            break
    return bound, nodes


def _smallest_chain(graph: _StepGraph, in_a, in_b, in_g) -> tuple | None:
    """The nodes (U1, U2, U3, U4) of a chain whose steps Bel(U4|U3),
    Bel(U3|U2) and Bel(U2|U1) are all allowed by `in_a` (a mask over the
    down steps), `in_b` and `in_g` (over the up steps), with the least U1,
    or None.  Three passes, as in `_least_deviations`, of least U1s."""
    none, parent = graph.nodes, graph.up_parent
    top = np.full(none, none, dtype=parent.dtype)  # node 0 is no U2
    top[1:] = np.minimum.reduceat(np.where(in_g, parent, none), graph.up_start)
    mid = np.minimum.reduceat(np.where(in_b, top[parent], none), graph.up_start)
    low = np.where(np.logical_or.reduceat(in_a, graph.down_start), mid, none)
    u3 = int(low.argmin())
    u1 = int(low[u3])
    if u1 == none:
        return None
    # the first allowed steps in U3's runs (argmax finds the first True)
    first, last = np.append(graph.up_start, len(parent))[u3:u3 + 2].tolist()
    run = slice(first, last)
    u2 = int(parent[first + np.argmax(in_b[run] & (top[parent[run]] == u1))])
    first = int(graph.down_start[u3])
    u4 = int(graph.down_child[first + np.argmax(in_a[first:])])
    return u1, u2, u3 + 1, u4


def member_sources(members, limit: str) -> dict:
    """Which family members a theorem-4 pass reads, and which member each
    is read off: {member index: its source's index}, in member order.

    A member is read within the member selection `limit` of `core.LIMITS`:
    a uniform weight backing by sizes, any other member by masks; a member
    over it is left out.  The read uniform members of one exponent
    and bounds form one group, whose source is its member of most atoms,
    the first of them: its chains and instances hold those of every
    smaller one.  Every other member is its own source.
    """
    group = {}
    for i, member in enumerate(members):
        if within(limit, member.domain.size, member.is_uniform):
            group[i] = ((member.exponent, *(b.as_integer_ratio() for b in member.bounds))
                        if member.is_uniform else i)  # ints hash faster than Fractions
    largest = {}  # group -> its member of most atoms, the first of them
    for i, key in group.items():
        largest[key] = max(largest.get(key, i), i, key=lambda j: members[j].domain.size)
    return {i: largest[key] for i, key in group.items()}


def par5_triples(structure: BeliefStructure, probe: DensityProbe) -> TripleSearchResult:
    """The nested chain that comes closest to the three targets at once.

    The one-target call of the pass `par5_family` makes: the float pass
    over the structure's step graph, the exact recheck of its least
    deviation, and of the chains attaining it the one with the least U1.
    The target is met when that deviation is below ε.  A member over the
    "density" limit is refused (`preflight`).
    """
    preflight("density", structure.domain.size, structure.is_uniform)
    graph = _step_graph(structure)
    target = (probe.alpha, probe.beta, probe.gamma)
    # the pass over the coordinates (α, β, γ) holds this target at 0·9 + 1·3 + 2
    found = _least_deviations(graph, float_values(list(target)))[5]
    deviation, nodes = _least_chain(graph, target, found)
    e, big_e = structure.bounds
    deviation *= big_e - e
    chain = structure._make_chain(*map(graph.mask, nodes))
    return TripleSearchResult(deviation < probe.epsilon, chain, deviation,
                              len(graph.up_w) + len(graph.down_w))


@dataclass(frozen=True)
class FamilyDensityReport:
    passed: bool
    vacuous: bool
    grid_resolution: int
    epsilon: Fraction
    targets_checked: int
    failures: tuple  # ((α,β,γ), least deviation or None) for missed targets
    worst_target: tuple | None  # ((α,β,γ), least deviation, member index)
    unsearched: tuple = ()  # members the pass cannot read

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "vacuous": self.vacuous,
            "grid": self.grid_resolution,
            "epsilon": str(self.epsilon),
            "targets_checked": self.targets_checked,
            "failures": [
                ([str(t) for t in target], None if dev is None else str(dev))
                for target, dev in self.failures
            ],
            "worst_target": (
                [str(t) for t in self.worst_target[0]],
                str(self.worst_target[1]),
                self.worst_target[2],
            )
            if self.worst_target
            else None,
            "unsearched": list(self.unsearched),
        }


#: Most target triples `par5_family` probes: a grid of n points per axis
#: gives n**3 targets.  The pass of a group of members costs about
#: n² times its steps, in blocks of at most _CHUNK floats.
DENSITY_TARGET_LIMIT = 10_000


def check_density_options(grid_resolution: int, epsilon: Fraction) -> None:
    """Refuse a Par5′ grid or tolerance that `par5_family` cannot run:
    a negative grid, one over DENSITY_TARGET_LIMIT targets, or ε ≤ 0.
    Raises ValueError; cheap, so callers run it before loading anything."""
    if grid_resolution < 0:
        raise ValueError(f"grid resolution must be nonnegative, got {grid_resolution}")
    if grid_resolution ** 3 > DENSITY_TARGET_LIMIT:
        raise ValueError(
            f"a density grid of {grid_resolution} needs {grid_resolution ** 3} "
            f"targets, over the limit of {DENSITY_TARGET_LIMIT}"
        )
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def _grid_point(grid: list, t: int) -> tuple:
    """The target (α, β, γ) at t = α·G² + β·G + γ, as grid points."""
    g = len(grid)
    return grid[t // (g * g)], grid[t // g % g], grid[t % g]


class _GroupPass:
    """The pass of one group of members: a member read by masks, or the
    uniform members of one exponent and bounds, read by the sizes of the
    largest, whose chains hold those of every smaller one.  Float least
    deviations of every target; exact ones, in the members' units, and the
    least U1 attaining them, on demand."""

    def __init__(self, structure: BeliefStructure, grid: list, coords: np.ndarray):
        self.graph = _step_graph(structure)
        self.found = _least_deviations(self.graph, coords)
        e, big_e = structure.bounds
        self.span, self.grid = big_e - e, grid
        self.q = max(t.denominator for t in grid)
        self._least, self._u1 = {}, {}

    def least(self, t: int) -> Fraction:
        """The exact least deviation of target t, in the members' units."""
        if t not in self._least:
            deviation = _snap(self.graph, self.found[t], self.q)
            if deviation is None:
                deviation = _least_chain(self.graph, _grid_point(self.grid, t), self.found[t])[0]
            self._least[t] = deviation * self.span
        return self._least[t]

    def least_u1(self, t: int) -> int:
        """The least U1 (a size, or a mask) of the chains attaining target t."""
        if t not in self._u1:
            self._u1[t] = _least_chain(self.graph, _grid_point(self.grid, t),
                                       self.found[t])[1][0]
        return self._u1[t]

    def met(self, epsilon: Fraction) -> np.ndarray:
        """Which targets some chain meets within ε: floats decide those
        clear of ε by the rounding margin, Fractions the rest."""
        bound = float_values([epsilon / self.span])[0]
        eta = self.graph.eta
        met = self.found < bound * (1 - _ROUNDING) - eta
        for t in np.flatnonzero(~met & (self.found < bound * (1 + _ROUNDING) + eta)).tolist():
            met[t] = self.least(t) < epsilon
        return met


def par5_family(family, grid_resolution: int, epsilon: Fraction) -> FamilyDensityReport:
    """Par5′: every target triple on the grid is ε-approximated by some member.

    A zero-resolution grid passes vacuously and is flagged as such; options
    that `check_density_options` refuses raise ValueError.

    Members are grouped by `member_sources`, and each group gets one exact
    pass (`_GroupPass`) of its source: a target is met when a member's
    least deviation is below ε.  A missed target reports its exact least
    deviation over every member, and the worst target is the one of
    largest exact least deviation, first in grid order, with the first
    member in family order that attains it.  A member over the "density"
    limit of `core.LIMITS` is listed as unsearched; it
    meets and misses nothing, and a missed target's deviation is None when
    no member was read.
    """
    members = list(family.members)
    if not members:
        raise ValueError("family must be nonempty")
    epsilon = Fraction(epsilon)
    check_density_options(grid_resolution, epsilon)
    if grid_resolution == 0:
        return FamilyDensityReport(True, True, 0, epsilon, 0, (), None)
    if grid_resolution == 1:
        grid = [ZERO]
    else:
        grid = [Fraction(i, grid_resolution - 1) for i in range(grid_resolution)]
    coords = float_values(grid)
    count = len(grid) ** 3
    source = member_sources(members, "density")
    passes = {s: _GroupPass(members[s], grid, coords) for s in dict.fromkeys(source.values())}
    met = np.zeros(count, dtype=bool)
    for group in passes.values():
        met |= group.met(epsilon)

    def least(t: int) -> Fraction:
        return min(group.least(t) for group in passes.values())

    failures = tuple((_grid_point(grid, t), least(t) if passes else None)
                     for t in np.flatnonzero(~met).tolist())
    worst = None
    if passes:
        # floats pick the targets that may be the worst, Fractions the worst
        groups = list(passes.values())
        spans = float_values([group.span for group in groups])
        close = np.arange(count)
        if np.isfinite(spans).all():
            scaled = np.min([group.found * s for group, s in zip(groups, spans)], axis=0)
            top = scaled.max()
            slack = 4 * max(s * group.graph.eta for group, s in zip(groups, spans))
            close = np.flatnonzero(scaled >= top - slack - 2 * _ROUNDING * top)
        deviation, t = max((least(t), -t) for t in close.tolist())  # the first of the largest
        t = -t

        def attains(i: int) -> bool:
            # a uniform member holds the chains whose U1 has at most its atoms
            group = passes[source[i]]
            return group.least(t) == deviation and (
                not members[i].is_uniform or group.least_u1(t) <= members[i].domain.size)

        worst = (_grid_point(grid, t), deviation, next(filter(attains, source)))
    return FamilyDensityReport(
        not failures, False, grid_resolution, epsilon, count, failures, worst,
        tuple(i for i in range(len(members)) if i not in source),
    )


# -- chain-level associativity ------------------------------------------------------


@dataclass(frozen=True)
class ChainConsistencyReport:
    status: str  # 'pass' | 'fail' | 'untestable'
    vacuous: bool
    instances: int
    nontrivial: int
    # the chain triples of (y,z)→p, (x,y)→q, (x,p)→r and (q,z)→s, with r ≠ s
    certificate: tuple | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of `wanted` in the sorted `keys`, -1 where absent."""
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def associativity_join(keys: np.ndarray, outs: np.ndarray, width: int, endpoints) -> tuple:
    """(instances, nontrivial, failure) of F(F(x,y),z) = F(x,F(y,z)) over a
    ranked F: the sorted int64 keys x·width + y of its entries and their
    output ranks `outs`, all ranks below `width`.

    An instance is an (x, y, z) with (x, y), (y, z), (x, p) and (q, z) all
    in the table, for p = F(y,z) and q = F(x,y); it is nontrivial unless all
    seven ranks are `endpoints`.  Instances are ordered as a loop over
    sorted (x, y) and then z meets them.  The failure is the first instance
    with r = F(x,p) ≠ s = F(q,z), returned as (x, y, z, p, q), and the
    counts stop at it; `failure` is None when all agree.

    The join is driven from the column of p.  One `lexsort` of the keys by
    (y, x) lays out the entries (x, p) of each p as a column, x ascending,
    and one `stable_order` of the outputs the entries (y, z) → p of each
    p, (y, z) ascending.  For each column entry (x, p), in the capped chunks
    of `row_chunks`, the walk takes the entries (y, z) → p and looks up
    (x, y) → q and (q, z) → s.  Nested this way, the keys x·width + y it
    looks up ascend within each column, which `searchsorted` finds faster.
    The walk meets instances in another order than the loop, so it sees
    every candidate: it counts the instances of each (x, y) entry and keeps
    the least failing (x, y) entry and z.  Up to a failure, the instances
    are those of the (x, y) entries before it and those of a re-walk of its
    own row y up to z.  At most eight instances, those with x, y and z
    among the endpoints, can be trivial; they are kept apart.
    """
    endpoint = np.zeros(width, dtype=bool)
    endpoint[list(endpoints)] = True
    second = (keys % width).astype(np.int32)
    both_ends = endpoint[keys // width] & endpoint[second]  # per (x, y) entry
    column = np.lexsort((keys, second))  # by (y, x)
    # x stays int64, as it is multiplied by the width; the rest fit int32
    col_x, col_p, col_r = keys[column] // width, second[column], outs[column].astype(np.int32)
    del second, column
    preimage = stable_order(outs).astype(np.int32)
    pre_start = np.concatenate(([0], np.cumsum(np.bincount(outs, minlength=width))))
    per_entry = np.zeros(len(keys), dtype=np.int32)  # instances of each (x, y)
    trivial = []  # (x, y) entry · width + z of each trivial instance
    failure = None  # the least failing (x, y) entry · width + z
    for c, pos in row_chunks(np.diff(pre_start)[col_p]):
        j = preimage[pre_start[col_p[c]] + pos]  # c is the entry (x, p), j (y, z)
        y, z = np.divmod(keys[j], width)
        i = _lookup(keys, col_x[c] * width + y)
        found = np.flatnonzero(i >= 0)
        c, j, z, i = c[found], j[found], z[found], i[found]
        right = _lookup(keys, outs[i] * width + z)
        found = np.flatnonzero(right >= 0)
        c, j, z, i, right = c[found], j[found], z[found], i[found], right[found]
        per_entry += np.bincount(i, minlength=len(keys))
        at = i * width + z
        r, s = col_r[c], outs[right]
        bad = np.flatnonzero(r != s)
        if len(bad):
            least = int(at[bad].min())
            failure = least if failure is None else min(failure, least)
        ends = both_ends[i] & endpoint[z]
        if ends.any():
            ends &= endpoint[outs[i]] & endpoint[outs[j]] & endpoint[r] & endpoint[s]
            trivial += at[ends].tolist()
    if failure is None:
        instances = int(per_entry.sum())
        return instances, instances - len(trivial), None
    entry, z = divmod(failure, width)
    (x, y), q = divmod(int(keys[entry]), width), int(outs[entry])
    row = slice(np.searchsorted(keys, y * width), np.searchsorted(keys, y * width + z + 1))
    found = (_lookup(keys, x * width + outs[row]) >= 0) & (
        _lookup(keys, q * width + keys[row] % width) >= 0)
    instances = int(per_entry[:entry].sum()) + int(np.count_nonzero(found))
    nontrivial = instances - sum(t <= failure for t in trivial)
    p = int(outs[keys.searchsorted(y * width + z)])
    return instances, nontrivial, (x, y, z, p, q)


def chain_consistency(structure: BeliefStructure) -> ChainConsistencyReport:
    """Associativity of the extracted F at every attained composite instance.

    Instances chain four table entries: p = F(y,z), q = F(x,y), r = F(x,p),
    s = F(q,z); the check is r = s.  Entries sourced from a single chain agree
    by construction, so failures always involve overlapping chains.  If
    extraction itself conflicts, that conflict is the stronger verdict and the
    check reports untestable.  Runs on extraction's value ranks as a join on
    the sorted F keys x·V + y, driven from the column of p
    (`associativity_join`); the failure it reports, and the instances it
    counts up to it, are those of the loop over sorted (x, y) and then z.
    """
    f = combination_ranks(structure)
    if f.clash is not None:
        return ChainConsistencyReport(
            "untestable", False, 0, 0, None,
            f"combination extraction conflict: {hypothesis(structure, 'A2').detail}",
        )
    values, width = f.values, len(f.values)
    endpoints = [bisect.bisect_left(values, t) for t in structure.bounds]
    instances, nontrivial, failure = associativity_join(f.keys, f.outs, width, endpoints)
    if failure is not None:
        x, y, z, p, q = failure
        found = f.entries([a * width + b for a, b in ((y, z), (x, y), (x, p), (q, z))])
        x, y, z, r, s = (values[t] for t in (x, y, z, found[2][0], found[3][0]))
        return ChainConsistencyReport(
            "fail", False, instances, nontrivial, tuple(masks for _, masks in found),
            f"F({x},F({y},{z})) = {r} but F(F({x},{y}),{z}) = {s} over attained entries",
        )
    return ChainConsistencyReport(
        "pass",
        nontrivial == 0,
        instances,
        nontrivial,
        None,
        "all composite instances agree"
        + (" (vacuous: endpoint values only)" if nontrivial == 0 else ""),
    )


# -- Bel-level negation identity ------------------------------------------------------


@dataclass(frozen=True)
class NegationIdentityReport:
    status: str  # 'pass' | 'untestable'
    checked: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def bel_level_negation(structure: BeliefStructure) -> NegationIdentityReport:
    """S(S(y)) = y at every attained conditional value, for the structure's
    own S, read off A1 with no pass of its own.

    A1 gives S(Bel(V|U)) = Bel(U∖V|U) on every pair (V|U); applied to the
    pair (U∖V|U) it gives S(Bel(U∖V|U)) = Bel(V|U).  So where A1 admits a
    function S, S maps the attained values onto themselves and S∘S is the
    identity: the involution holds at each of `negation_ranks`' keys, which
    are the attained values.  Where A1 clashes there is no S to test.  A
    given form's involution is its functional equation EQ3
    (`check_functional_equation`).
    """
    s = negation_ranks(structure)
    if s.clash is not None:
        return NegationIdentityReport("untestable", 0, "negation extraction conflict: "
                                      + hypothesis(structure, "A1").detail)
    return NegationIdentityReport(
        "pass", len(s.keys), f"involution holds at {len(s.keys)} attained values")


# -- the hypothesis table ----------------------------------------------------------------


def _single_valued(structure: BeliefStructure, ranks, extract, over: str) -> Verdict:
    """A1 or A2: S or F, extracted as `ranks`, is single-valued `over` the
    attained values or argument pairs, or fails with the first clash that
    `extract` describes in Fractions."""
    if ranks.clash is not None:
        return Verdict("fail", extract(structure).describe(structure.domain))
    return Verdict("pass", f"single-valued on {len(ranks.keys)} {over}")


def _par34(negation, combination, bounds, a1=None, a2=None) -> tuple:
    """(Par3, Par4 strict increase, Par4 continuity) of a ranked S and F on
    `bounds`: a structure's own, or a domain family's merged ones.  An A1 or
    A2 clash fails Par3 or Par4 with the detail of the A1 or A2 verdict `a1`
    or `a2`, read only then; merged tables have no clash."""
    if negation.clash is not None:
        par3 = Verdict("fail", "A1 admits no function: " + a1.detail)
    else:
        par3 = ranked_monotonicity("negation", *negation[:3], bounds).decreasing
    if combination.clash is not None:
        return (par3, Verdict("fail", "A2 admits no function: " + a2.detail),
                Verdict("untestable", "A2 admits no function"))
    rep = ranked_monotonicity("combination", *combination[:3], bounds)
    strict = rep.strict_increase
    if strict.passed and not rep.nondecrease.passed:
        strict = rep.nondecrease
    return par3, strict, rep.continuity


def _bounds(structure: BeliefStructure) -> BoundsReport:
    return structure.derived("bounds", check_bounds)


#: Every hypothesis `check` and the theorem audits read off one structure, by
#: name: a builder that gives its verdict, with `status`, `detail` and
#: `passed`.  'par3/par4' gives the three verdicts of `_par34`, and
#: 'par5-gap' the gap itself.  A builder looks up the checks it calls when
#: it runs, so a check wrapped after import sees every call.
HYPOTHESES = {
    "par1": lambda s: _bounds(s).par1,
    "par2": lambda s: _bounds(s).par2,
    "A1": lambda s: _single_valued(s, negation_ranks(s), extract_negation, "values"),
    "A2": lambda s: _single_valued(s, combination_ranks(s), extract_combination,
                                   "argument pairs"),
    "chain": lambda s: chain_consistency(s),
    "involution": lambda s: bel_level_negation(s),
    "par3/par4": lambda s: _par34(negation_ranks(s), combination_ranks(s), s.bounds,
                                  hypothesis(s, "A1"), hypothesis(s, "A2")),
    "par5-gap": lambda s: par5_gap(s),
}


def hypothesis(structure: BeliefStructure, name: str):
    """The verdict of `structure` on the hypothesis `name` of HYPOTHESES,
    built once per structure: a hypothesis printed under several names, by
    `check` and by the audits, is one verdict."""
    return structure.derived("hypothesis " + name, HYPOTHESES[name])


# -- theorem audits --------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisVerdict:
    name: str
    status: str  # 'pass' | 'fail' | 'untestable'
    witness: str = ""


@dataclass(frozen=True)
class AuditReport:
    theorem: str
    hypotheses: tuple[HypothesisVerdict, ...]
    notes: tuple[str, ...] = ()
    density: FamilyDensityReport | None = None  # theorem 4 only

    @property
    def failed(self) -> bool:
        return any(h.status == "fail" for h in self.hypotheses)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [
                {"name": h.name, "verdict": h.status, "witness": h.witness}
                for h in self.hypotheses
            ],
            "notes": list(self.notes),
            **({"density": self.density.to_dict()} if self.density else {}),
        }


#: The printed names of Par1, Par2, Par3, Par4's strict increase and Par4's
#: continuity in theorems 1, 3 and 4.
_PAR_NAMES = ("par1-range", "par2-endpoints", "par3-negation-decreasing",
             "par4-combination-strict-increase", "par4-combination-continuity")


def _rows(names, verdicts) -> list[HypothesisVerdict]:
    return [HypothesisVerdict(name, v.status, v.detail) for name, v in zip(names, verdicts)]


def _par_rows(structure: BeliefStructure, untestable=()) -> list[HypothesisVerdict]:
    """The Par1–Par4 rows of `structure`.  An error of a type in
    `untestable` from Par3/Par4 leaves them untestable, with its message."""
    verdicts = [hypothesis(structure, "par1"), hypothesis(structure, "par2")]
    try:
        verdicts += hypothesis(structure, "par3/par4")
    except untestable as exc:
        verdicts += [Verdict("untestable", str(exc))] * 3
    return _rows(_PAR_NAMES, verdicts)


def _audit_t1(structure: BeliefStructure) -> AuditReport:
    hypotheses = _par_rows(structure)
    gap = hypothesis(structure, "par5-gap")
    hypotheses.append(HypothesisVerdict(
        "par5-density", "fail", f"unsatisfiable on a finite domain: gap = {gap} > 0"))
    return AuditReport("T1", tuple(hypotheses))


def _audit_t2(structure, *, seed: int) -> AuditReport:
    from .isomorphism import DecisionParams, decide  # local import: avoids cycle

    e, big_e = structure.bounds
    hypotheses = _rows(["range-in-interval"], [hypothesis(structure, "par1")])

    a1 = hypothesis(structure, "A1")
    if not a1.passed:
        hypotheses.append(HypothesisVerdict("negation-linear-complement", "fail", a1.detail))
        hypotheses.append(HypothesisVerdict("negation-smoothness", "untestable",
                                            "A1 admits no function"))
    else:
        # the keys ascend with x, so the first bad one is the least x
        s = negation_ranks(structure)
        v = s.values
        bad = next(((v[x], v[s_x]) for x, s_x in zip(s.keys.tolist(), s.outs.tolist())
                    if v[x] + v[s_x] != e + big_e), None)
        hypotheses.append(
            HypothesisVerdict("negation-linear-complement", "pass",
                              "extracted S-table is a restriction of x ↦ e+E−x")
            if bad is None
            else HypothesisVerdict(
                "negation-linear-complement", "fail",
                f"S({bad[0]}) = {bad[1]} ≠ {e + big_e - bad[0]}",
            )
        )
        hypotheses.append(
            HypothesisVerdict("negation-smoothness", "untestable",
                              "declared smoothness applies to catalog forms only")
        )

    a2 = hypothesis(structure, "A2")
    if not a2.passed:
        hypotheses.append(HypothesisVerdict("combination-commutative", "fail", a2.detail))
        for name in ("combination-annihilator", "combination-unit",
                     "combination-nondecreasing", "combination-strict-increase",
                     "combination-smoothness"):
            hypotheses.append(HypothesisVerdict(name, "untestable",
                                                "A2 admits no function"))
    else:
        # each law's first failure in ascending (x, y), on value ranks
        f = combination_ranks(structure)
        v, keys, out = f.values, f.keys, f.outs
        x, y = np.divmod(keys, len(v))
        swapped = y * len(v) + x
        at = np.minimum(keys.searchsorted(swapped), len(keys) - 1)
        low, high = (bisect.bisect_left(v, t) for t in (e, big_e))
        laws = (
            ("combination-commutative", (keys[at] == swapped) & (out[at] != out),
             "commutative at all attained argument swaps",
             lambda i: f"{f_at(v[x[i]], v[y[i]])} = {v[out[i]]} "
                       f"but {f_at(v[y[i]], v[x[i]])} = {v[out[at[i]]]}"),
            ("combination-annihilator", ((x == low) | (y == low)) & (out != low),
             f"F(x,{e}) = F({e},x) = {e} at attained entries",
             lambda i: f"{f_at(v[x[i]], v[y[i]])} = {v[out[i]]} ≠ {e}"),
            ("combination-unit", ((y == high) & (out != x)) | ((x == high) & (out != y)),
             f"F(x,{big_e}) = F({big_e},x) = x at attained entries",
             lambda i: f"{f_at(v[x[i]], v[y[i]])} = {v[out[i]]}"),
        )
        for name, bad, passed, failed in laws:
            bad = np.flatnonzero(bad)
            hypotheses.append(HypothesisVerdict(name, "fail", failed(bad[0])) if len(bad)
                              else HypothesisVerdict(name, "pass", passed))
        rep = ranked_monotonicity("combination", v, keys, out, structure.bounds)
        hypotheses += _rows(["combination-nondecreasing", "combination-strict-increase"],
                            [rep.nondecrease, rep.strict_increase])
        hypotheses.append(
            HypothesisVerdict("combination-smoothness", "untestable",
                              "declared smoothness applies to catalog forms only")
        )

    verdict = decide(structure, DecisionParams(seed=seed))
    if verdict.kind == "refutation":
        hypotheses.append(
            HypothesisVerdict("verdict-refutation", "pass",
                              f"refuted: {verdict.certificate.kind}")
        )
    elif verdict.kind == "witness":
        hypotheses.append(
            HypothesisVerdict("verdict-refutation", "fail",
                              "structure is isomorphic to a probability measure, "
                              "not a counterexample")
        )
    else:
        hypotheses.append(
            HypothesisVerdict("verdict-refutation", "untestable",
                              "isomorphism decision exhausted its budget")
        )
    return AuditReport("T2", tuple(hypotheses))


def _audit_t3(structure, extension) -> AuditReport:
    disagreement = extension.first_disagreement()
    extended = extension.extended
    hypotheses = [HypothesisVerdict(
        "extension-agreement", "pass" if disagreement is None else "fail",
        "Bel⁺ agrees with Bel on all embedded pairs" if disagreement is None
        else f"disagreement at embedded pair {disagreement}"),
        # an extension too large to enumerate leaves Par3/Par4 untestable
        *_par_rows(extended, BeliefDomainError)]
    base_gap, ext_gap = hypothesis(structure, "par5-gap"), hypothesis(extended, "par5-gap")
    hypotheses.append(
        HypothesisVerdict(
            "par5-gap-shrinkage",
            "pass" if ext_gap <= base_gap else "fail",
            f"gap {base_gap} → {ext_gap}",
        )
    )
    return AuditReport(
        "T3",
        tuple(hypotheses),
        notes=(
            "the theorem's hypothesis is existential; this audit verifies the "
            "supplied extension only",
        ),
    )


def _audit_t4(family, *, grid_resolution, epsilon) -> AuditReport:
    hypotheses = [
        HypothesisVerdict("uniform-negation", "pass" if family.negation_uniform else "fail",
                          family.negation_detail),
        HypothesisVerdict("uniform-combination",
                          "pass" if family.combination_uniform else "fail",
                          family.combination_detail),
    ]
    # Par1 and Par2 fail at the first member that fails them
    for name, entry, holds in zip(_PAR_NAMES, ("par1", "par2"), (
            "all members within bounds", "all members normalized at the endpoints")):
        verdicts = (hypothesis(member, entry) for member in family.members)
        bad = next(((i, v.detail) for i, v in enumerate(verdicts) if not v.passed), None)
        hypotheses.append(HypothesisVerdict(name, "pass", holds) if bad is None
                          else HypothesisVerdict(name, "fail", "member %d: %s" % bad))
    # the merged forms are checked on the bounds their members share
    merged = family.merged or (0,)
    bounds = family.members[merged[0]].bounds
    other = next((i for i in merged if family.members[i].bounds != bounds), None)
    if other is not None:
        e, big_e = family.members[other].bounds
        why = (f"members {merged[0]} and {other} differ in bounds: "
               f"[{bounds[0]},{bounds[1]}] vs [{e},{big_e}]")
        par34 = [Verdict("untestable", why)] * 3
    else:
        par34 = _par34(family.negation, family.combination, bounds)
    hypotheses += _rows(_PAR_NAMES[2:], par34)
    density = par5_family(family, grid_resolution, epsilon)
    missed = len(density.failures)
    if density.passed:
        status, detail = "pass", "all targets approximated"
    elif density.unsearched:  # a member that was not read may meet them
        status, detail = "untestable", (f"{missed} targets met by no member read; members "
                                        f"{list(density.unsearched)} are too large to read")
    else:
        status, detail = "fail", f"{missed} targets missed"
    hypotheses.append(HypothesisVerdict("par5-family-density", status,
                                        f"grid {grid_resolution}^3 at ε={epsilon}: {detail}"))
    return AuditReport("T4", tuple(hypotheses), density=density)


def audit(
    structure: BeliefStructure | None,
    theorem: str,
    *,
    extension=None,
    family=None,
    grid_resolution: int = 5,
    epsilon: Fraction = Fraction(1, 20),
    seed: int = 0,
) -> AuditReport:
    """Run exactly the hypothesis checks of the named theorem.

    T1 audits Par1–Par4 plus the density gap (finite structures always fail
    Par5 and the report says so).  T2 verifies counterexample shape, with
    `seed` for its decision.  T3 needs a supplied extension; T4 a domain
    family, whose density pass is exact and uses no seed.
    """
    theorem = str(theorem).upper().lstrip("T")
    if theorem == "3" and extension is None:
        raise ValueError("theorem 3 audit requires an extension")
    if theorem == "4" and family is None:
        raise ValueError("theorem 4 audit requires a domain family")
    if theorem in ("1", "2", "3") and structure is None:
        raise ValueError(f"theorem {theorem} audit requires a structure")
    if theorem == "1":
        return _audit_t1(structure)
    if theorem == "2":
        return _audit_t2(structure, seed=seed)
    if theorem == "3":
        return _audit_t3(structure, extension)
    if theorem == "4":
        return _audit_t4(family, grid_resolution=grid_resolution, epsilon=epsilon)
    raise ValueError(f"unknown theorem {theorem!r}")
