"""Hypothesis audits: bounds and endpoints, density probes, chain-level laws.

The density hypothesis splits into a scalar gap statistic (cheap lower bound,
always positive on finite structures) and the faithful three-target probe
along one nested chain.  Chain-level associativity is checked as composite
instances over the extracted combination table: within a single chain the two
decompositions of Bel(U4|U1) agree by construction, so the content lives in
instances whose four table entries come from different chains.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    EXHAUSTIVE_CHAIN_ATOM_LIMIT,
    ZERO,
    ONE,
    BeliefDomainError,
    BeliefStructure,
    ChainQuadruple,
    Event,
    float_values,
    is_canonical,
    pair_at,
    rank_ratios,
    rank_values,
    stable_order,
    submask_table,
)
from .forms import (
    FormError,
    NegationConflict,
    NegationForm,
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

    A table is tested on its rank array: Par1 on every rank, Par2 on the
    first and last entry of each row.  Each names its first violating pair
    in canonical order."""
    e, big_e = structure.bounds
    if structure.is_weight_backed:
        # (μ(V∩U)/μ(U))^k lands in [0,1] with endpoints 0 and 1 exactly.
        if (e, big_e) == (ZERO, ONE):
            return BoundsReport(
                Verdict("pass", "weight backing: values are ratios in [0,1]"),
                Verdict("pass", "weight backing: Bel(∅|U)=0, Bel(U|U)=1 exactly"),
            )
        return BoundsReport(
            Verdict("fail", f"weight backing spans [0,1], declared bounds [{e},{big_e}]"),
            Verdict("fail", f"Bel(∅|U)=0 ≠ e={e}"),
        )
    domain = structure.domain
    index = structure.value_index()
    ranks, values = index.pair_rank, index.values
    start = submask_table(domain.size)[0]
    par1 = Verdict("pass", f"all values within [{e},{big_e}]")
    par2 = Verdict("pass", f"Bel(∅|U)={e} and Bel(U|U)={big_e} for every nonempty U")
    outside = np.flatnonzero((ranks < index.e) | (ranks > index.E))
    if len(outside):
        pos = int(outside[0])
        v, u = pair_at(domain.size, pos)
        witness = (
            f"Bel({Event(domain, v)!r}|{Event(domain, u)!r}) = {values[ranks[pos]]} "
            f"outside [{e},{big_e}]"
        )
        par1 = Verdict("fail", witness)
    # row u runs from start[u] - 1 (V = ∅) to start[u + 1] - 2 (V = U)
    first, last = ranks[start[1:-1] - 1], ranks[start[2:] - 2]
    bad = np.flatnonzero((first != index.e) | (last != index.E))
    if len(bad):
        u = int(bad[0]) + 1
        if first[u - 1] != index.e:
            witness = f"Bel(∅|{Event(domain, u)!r}) = {values[first[u - 1]]} ≠ {e}"
        else:
            witness = (
                f"Bel(U|U) = {values[last[u - 1]]} ≠ {big_e} at U={Event(domain, u)!r}"
            )
        par2 = Verdict("fail", witness)
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
    interval when probed.
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

    def rescaled(self, bounds: tuple[Fraction, Fraction]):
        e, big_e = bounds
        span = big_e - e
        return (e + self.alpha * span, e + self.beta * span, e + self.gamma * span)


@dataclass(frozen=True)
class TripleSearchResult:
    passed: bool
    chain: ChainQuadruple | None
    deviation: Fraction  # Chebyshev max over the three targets
    method: str  # 'exhaustive' | 'sampled'
    candidates_tried: int

    @property
    def failed(self) -> bool:
        return not self.passed


#: Most 32-bit words drawn from the sampler's generator at once.
_WORD_PIECE = 1 << 13


def _exhaustive_levels(n: int) -> np.ndarray:
    """The level rows of every nested chain U1 ⊇ U2 ⊇ U3 ⊇ U4 with U3 ≠ ∅
    over n atoms, each once: an atom's level is the number of U1..U4 that
    hold it.  All 5^n rows are drawn at once, those with U3 = ∅ dropped,
    and the rest sorted by the masks (u1, u2, u3, u4) packed into one int,
    so lexicographically."""
    levels = (np.arange(5 ** n)[:, None] // 5 ** np.arange(n) % 5).astype(np.uint8)
    levels = levels[levels.max(axis=1) >= 3]
    key = np.zeros(len(levels), dtype=np.int64)
    for j in range(1, 5):
        key = key << n | (levels >= j) @ (1 << np.arange(n))
    return levels[np.argsort(key)]


def _random_levels(n: int, seed: int, count: int) -> np.ndarray:
    """The level rows of the first `count` seeded random chains over n atoms.

    A row draws each atom's level as `random.Random(seed).randint(0, 4)`
    would, atom by atom: that call reads one 32-bit word per try, keeps its
    top three bits, and tries again on 5-7.  Here the words come in bulk
    from `getrandbits`, least significant first, which is the same stream.
    Rows with U3 = ∅ (no level of 3 or more) are skipped.
    """
    rng = random.Random(seed)
    pending = np.zeros(0, dtype=np.uint8)  # accepted levels not yet in a row
    rows = [np.zeros((0, n), dtype=np.uint8)]
    while (have := sum(map(len, rows))) < count:
        words = min(2 * n * (count - have), _WORD_PIECE)
        drawn = np.frombuffer(
            rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
        ) >> 29
        pending = np.concatenate((pending, drawn[drawn < 5].astype(np.uint8)))
        whole = len(pending) // n * n
        block = pending[:whole].reshape(-1, n)
        pending = pending[whole:]
        rows.append(block[block.max(axis=1) >= 3])
    return np.concatenate(rows)[:count]


def _step_values(structure: BeliefStructure, levels: np.ndarray, masks: np.ndarray):
    """(values, steps): the sorted distinct steps of the chains of the level
    rows, and each chain's steps Bel(U4|U3), Bel(U3|U2), Bel(U2|U1) as
    ranks in `values`, one int32 row per chain.

    A weight backing sums the masses μ(U1)..μ(U4) off the level rows, in
    int64 below a unit total of 2^62 and in Python ints above it, and ranks
    its (μ(V), μ(U)) steps with `rank_ratios`.  A table looks each step up
    with `bel_masks` on the packed `masks` and ranks them with `rank_values`.
    """
    if structure.is_weight_backed:
        units = np.array(structure._units,
                         dtype=np.int64 if structure._prefix[-1] < 1 << 62 else object)
        step = max(1, (1 << 16) // structure.domain.size)  # rows per product
        mass = np.concatenate([
            np.stack([(part >= j) @ units for j in range(1, 5)], axis=1)
            for part in np.split(levels, range(step, len(levels), step))
        ])
        values, ranks = rank_ratios(mass[:, [3, 2, 1]].ravel(), mass[:, [2, 1, 0]].ravel(),
                                    structure.exponent)
    else:
        bel = structure.bel_masks
        xs = []
        for row in masks:
            u1, u2, u3, u4 = (int.from_bytes(m.tobytes(), "little") for m in row)
            xs += (bel(u4, u3), bel(u3, u2), bel(u2, u1))
        values, ranks = rank_values(xs)
    return values, ranks.astype(np.int32).reshape(-1, 3)


class _ChainTable:
    """The chains a density search scores on one structure, in search order:
    every nested chain up to EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms
    (`_exhaustive_levels`), the first chains of `_random_levels(n, seed)`
    above it.

    `steps[i]` holds the ranks of chain i's steps Bel(U4|U3), Bel(U3|U2),
    Bel(U2|U1) in the sorted `values`; `masks[i]` holds U1..U4 packed
    little-endian.  The level rows are dropped once scored.  Every search
    of the structure, for any number of targets, reads the table as one
    (chains × 3) rank matrix (`_MemberSearch`).
    """

    def __init__(self, atoms: int, seed: int):
        self.atoms, self.seed = atoms, seed
        self.values: list[Fraction] = []
        self.steps = np.zeros((0, 3), dtype=np.int32)
        self.masks = np.zeros((0, 4, (atoms + 7) // 8), dtype=np.uint8)
        self._drawn = 0  # the most chains asked for so far

    def grow(self, structure: BeliefStructure, count: int) -> None:
        """Hold the first `count` chains, or every chain up to
        EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms: a count above any asked before
        draws the table again from the seed and ranks its steps in one pass."""
        if count <= self._drawn:
            return
        self._drawn = count
        n = self.atoms
        levels = (_exhaustive_levels(n) if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT
                  else _random_levels(n, self.seed, count))
        # atom i lies in U_j exactly when its level is at least j
        self.masks = np.stack([np.packbits(levels >= j, axis=1, bitorder="little")
                               for j in range(1, 5)], axis=1)
        self.values, self.steps = _step_values(structure, levels, self.masks)

    def chain(self, i: int) -> tuple[int, int, int, int]:
        return tuple(int.from_bytes(m.tobytes(), "little") for m in self.masks[i])


def _chain_table(structure: BeliefStructure, seed: int) -> _ChainTable:
    """The structure's chain table, built once: per structure up to
    EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms, per structure and seed above."""
    n = structure.domain.size
    key = "par5-chains" if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT else f"par5-chains-{seed}"
    return structure.derived(key, lambda s: _ChainTable(n, seed))


def _level_size_candidates(parent: int, t: Fraction, eps: Fraction, floor: int) -> list[int]:
    """Child sizes worth trying under a parent of size `parent`, in ints:
    round(t·parent), half to even as `round` takes a Fraction, with jitter
    ±1, ±2, then the largest size keeping the ratio under t + ε and the one
    below it, which keeps resolution one level down when t is near 0; each
    once, in [floor, parent]."""
    base, rest = divmod(t.numerator * parent, t.denominator)
    if 2 * rest > t.denominator or (2 * rest == t.denominator and base % 2):
        base += 1
    high = (t.numerator * eps.denominator + eps.numerator * t.denominator) * parent
    cap = -(-high // (t.denominator * eps.denominator)) - 1  # ceil((t + ε)·parent) − 1
    return list(dict.fromkeys(s for s in (base, base + 1, base - 1, base + 2, base - 2,
                                          cap, cap - 1) if floor <= s <= parent))


class _MemberSearch:
    """The Par5′ search of one structure, for any number of targets at once.

    A target is a row (α, β, γ) of indices into `coords`, points of [0, 1]
    that are rescaled onto the structure's bounds, and ε is `eps`.  Each
    target gets what a search for it alone gives: the first chain, in
    search order, whose steps Bel(U4|U3), Bel(U3|U2), Bel(U2|U1) all lie
    within ε of (α, β, γ), or else the first chain of least Chebyshev
    deviation, and the number of chains tried.

    Up to EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms the chains are those of the
    chain table, every nested chain.  Above it come first the greedy prefix
    chains (full, [0, s2), [0, s3), [0, s4)), s2 over the
    `_level_size_candidates` under n for γ, s3 under s2 for β and s4 under
    s3 for α, then the table's seeded random chains up to `budget` in all.
    The greedy chains are scored on memos shared by all targets: each
    prefix step Bel([0, s′)|[0, s)) is read once, and its deviation from a
    coordinate kept by (s′, s, coordinate), so a target's greedy loop is
    memo lookups and `Fraction` comparisons.  The table is then scanned by
    `_scan` for every target the greedy chains missed, at once.
    """

    def __init__(self, structure: BeliefStructure, coords, eps: Fraction, seed: int,
                 budget: int):
        e, big_e = structure.bounds
        self.structure, self.coords, self.eps, self.budget = structure, coords, eps, budget
        self.scaled = [e + t * (big_e - e) for t in coords]
        self.table = _chain_table(structure, seed)
        self._window = [(t - eps, t + eps) for t in self.scaled]
        self._size_memo, self._step_memo, self._dev_memo = {}, {}, {}

    def run(self, targets: np.ndarray) -> tuple:
        """(passed, deviation, tried, at) of each target row: whether it
        was met, the deviation of its chain, the chains tried, and its
        chain's index in the table, or -1 for a greedy chain."""
        count, n = len(targets), self.structure.domain.size
        passed = np.zeros(count, dtype=bool)
        devs = [None] * count
        tried = np.zeros(count, dtype=np.int64)
        if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT:
            limit = np.full(count, 5 ** n, dtype=np.int64)
        else:
            for k, (a, b, g) in enumerate(targets.tolist()):
                passed[k], tried[k], devs[k], _ = self._greedy(a, b, g)
            limit = np.where(passed, 0, np.maximum(self.budget - tried, 0))
        at = np.full(count, -1, dtype=np.int64)
        scan = np.flatnonzero(limit)
        if len(scan):
            self._scan(targets, scan, limit, passed, devs, tried, at)
        return passed, devs, tried, at

    # -- the greedy prefix chains --------------------------------------------

    def _sizes(self, parent: int, i: int, floor: int) -> list[int]:
        sizes = self._size_memo.get((parent, i, floor))
        if sizes is None:
            sizes = self._size_memo[parent, i, floor] = _level_size_candidates(
                parent, self.coords[i], self.eps, floor)
        return sizes

    def _step(self, child: int, parent: int) -> Fraction:
        """Bel([0, child)|[0, parent)), read once."""
        step = self._step_memo.get((child, parent))
        if step is None:
            step = self._step_memo[child, parent] = self.structure.bel_masks(
                (1 << child) - 1, (1 << parent) - 1)
        return step

    def _dev(self, child: int, parent: int, i: int) -> Fraction:
        """The step's distance from coordinate i."""
        dev = self._dev_memo.get((child, parent, i))
        if dev is None:
            dev = self._dev_memo[child, parent, i] = abs(self._step(child, parent)
                                                         - self.scaled[i])
        return dev

    def _greedy(self, a: int, b: int, g: int) -> tuple:
        """(passed, tried, deviation, sizes) of a target's greedy chains:
        the first hit, or else the first chain of least deviation, and its
        (s2, s3, s4).  Chains under a U3 whose two upper steps already
        deviate by ε and by the least deviation so far are counted unread."""
        n, eps = self.structure.domain.size, self.eps
        tried, best = 0, None
        for s2 in self._sizes(n, g, 1):
            d2 = self._dev(s2, n, g)
            for s3 in self._sizes(s2, b, 1):
                d3 = max(d2, self._dev(s3, s2, b))
                lower = self._sizes(s3, a, 0)
                if d3 >= eps and best is not None and d3 >= best[0]:
                    tried += len(lower)
                    continue
                for s4 in lower:
                    tried += 1
                    dev = max(d3, self._dev(s4, s3, a))
                    if dev < eps:
                        return True, tried, dev, (s2, s3, s4)
                    if best is None or dev < best[0]:
                        best = dev, (s2, s3, s4)
        return False, tried, *best

    # -- the chain table -------------------------------------------------------

    def _scan(self, targets, scan, limit, passed, devs, tried, at) -> None:
        """Score the targets `scan` on their first `limit` table chains, in
        place, after their greedy chains.

        A step within ε of a coordinate is a rank in a window that two
        bisections of `values` find, so each column gives a (coordinates ×
        chains) window matrix, and a target's hits are the rows of its
        three coordinates ANDed: the first is its `argmax`.  A missed
        target's deviations are taken in floats, each within `margin` / 2
        of the exact one; every chain within `margin` of the float minimum
        is rechecked exactly, once per distinct triple of step ranks, and
        the first chain of least exact deviation is the best.  Values or
        coordinates beyond the float range recheck every chain.
        """
        table = self.table
        table.grow(self.structure, int(limit[scan].max()))
        values = table.values
        steps = table.steps[:int(limit[scan].max())]
        limit = np.minimum(limit, len(steps))
        exact = {}  # (rank, coordinate) -> |values[rank] − coordinate|

        def deviation(ranks, coordinates) -> Fraction:
            out = None
            for key in zip(ranks, coordinates):
                dev = exact.get(key)
                if dev is None:
                    dev = exact[key] = abs(values[key[0]] - self.scaled[key[1]])
                out = dev if out is None or dev > out else out
            return out

        window = np.array([(bisect.bisect_right(values, low), bisect.bisect_left(values, high))
                           for low, high in self._window]).T
        inside = [(window[0][:, None] <= column) & (column < window[1][:, None])
                  for column in steps.T]
        gaps = margin = triple = None
        chains = np.arange(len(steps))
        rows = max(1, (1 << 16) // len(steps))  # targets per (targets × chains) block
        for start in range(0, len(scan), rows):
            block = scan[start:start + rows]
            a, b, g = targets[block].T
            hits = inside[0][a] & inside[1][b] & inside[2][g]
            first = hits.argmax(axis=1)
            met = hits[np.arange(len(block)), first] & (first < limit[block])
            for k, i, ranks, coordinates in zip(block[met].tolist(), first[met].tolist(),
                                                steps[first[met]].tolist(),
                                                targets[block[met]].tolist()):
                passed[k], devs[k], tried[k], at[k] = (
                    True, deviation(ranks, coordinates), tried[k] + i + 1, i)
            missed = block[~met]
            if not len(missed):
                continue
            tried[missed] += limit[missed]
            out = chains[None, :] >= limit[missed][:, None]
            if gaps is None:
                fv, ft = float_values(values), float_values(self.scaled)
                with np.errstate(over="ignore", invalid="ignore"):
                    gaps = [np.abs(fv[column][None, :] - ft[:, None]) for column in steps.T]
                    margin = 2 * (_ROUNDING * (np.abs(fv).max() + np.abs(ft).max())
                                  + _SUBNORMAL)
                # one int per distinct step-rank triple, below len(steps)·len(values)
                wide = steps.astype(np.int64)
                triple = (np.unique(wide[:, 0] * len(values) + wide[:, 1],
                                    return_inverse=True)[1] * len(values) + wide[:, 2])
            if np.isfinite(margin):
                a, b, g = targets[missed].T
                dev = np.maximum(gaps[0][a], gaps[1][b])
                np.maximum(dev, gaps[2][g], out=dev)
                dev[out] = np.inf
                near = dev <= dev.min(axis=1, keepdims=True) + margin
            else:
                near = ~out
            for k, row in zip(missed.tolist(), near):
                candidates = np.flatnonzero(row)
                chosen = candidates[np.unique(triple[candidates], return_index=True)[1]]
                coordinates = targets[k].tolist()
                best = min((deviation(ranks, coordinates), i)
                           for ranks, i in zip(steps[chosen].tolist(), chosen.tolist()))
                if devs[k] is None or best[0] < devs[k]:
                    devs[k], at[k] = best


def par5_triples(
    structure: BeliefStructure,
    probe: DensityProbe,
    *,
    seed: int = 0,
    budget: int = 2000,
) -> TripleSearchResult:
    """Search for one nested chain ε-approximating all three targets at once.

    Exhaustive over every nested chain up to EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms.
    Above that the search is deterministic-greedy (prefix chains with sizes
    proportional to the targets) followed by seeded random sampling, with the
    candidate count recorded.  Chains are scored from their three steps; the
    six-value `ChainQuadruple` is built for the returned chain only.

    This is the one-target call of the per-member pass `par5_family` makes
    (`_MemberSearch`): the greedy chains are scored on its memos, and the
    exhaustive or random chains read from the structure's chain table
    (`_chain_table`), scored once per structure and seed.
    """
    search = _MemberSearch(structure, [probe.alpha, probe.beta, probe.gamma],
                           probe.epsilon, seed, budget)
    passed, devs, tried, at = search.run(np.array([[0, 1, 2]]))
    if at[0] >= 0:
        masks = search.table.chain(int(at[0]))
    else:
        masks = (structure.domain.full_mask,
                 *((1 << s) - 1 for s in search._greedy(0, 1, 2)[3]))
    n = structure.domain.size
    return TripleSearchResult(
        bool(passed[0]), structure._make_chain(*masks), devs[0],
        "exhaustive" if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT else "sampled", int(tried[0]),
    )


@dataclass(frozen=True)
class FamilyDensityReport:
    passed: bool
    vacuous: bool
    grid_resolution: int
    epsilon: Fraction
    targets_checked: int
    failures: tuple  # ((α,β,γ), best deviation) for failed targets
    worst_target: tuple | None  # ((α,β,γ), achieved deviation, member index)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "vacuous": self.vacuous,
            "grid": self.grid_resolution,
            "epsilon": str(self.epsilon),
            "targets_checked": self.targets_checked,
            "failures": [
                ([str(t) for t in target], str(dev)) for target, dev in self.failures
            ],
            "worst_target": (
                [str(t) for t in self.worst_target[0]],
                str(self.worst_target[1]),
                self.worst_target[2],
            )
            if self.worst_target
            else None,
        }


#: Most target triples `par5_family` probes: a grid of n points per axis
#: gives n**3 targets.  Each member makes one pass over the targets still
#: open: per target, a greedy loop over deviations memoized for the member,
#: then one block-wise scan of its cached chain table for the targets that
#: loop misses, and an exact recheck of the chains near each miss's float
#: minimum.
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


def par5_family(
    family,
    grid_resolution: int,
    epsilon: Fraction,
    *,
    seed: int = 0,
    budget: int = 2000,
) -> FamilyDensityReport:
    """Par5′: every target triple on the grid is ε-approximated by some member.

    A zero-resolution grid passes vacuously and is flagged as such; options
    that `check_density_options` refuses raise ValueError.  The
    worst-approximated triple reports the deviation the search achieved.

    Members are searched largest first, each in one pass (`_MemberSearch`)
    over the targets no member before it met; a target's result is that of
    `par5_triples` on each member in turn up to its first hit.  The pass is
    exact: greedy deviations are Fractions, table hits are rank windows, and
    a miss's float minimum only picks the chains that are rechecked exactly.
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
    targets = np.array(list(itertools.product(range(len(grid)), repeat=3)))
    best = [None] * len(targets)  # (deviation, member) of each target
    open_ = np.arange(len(targets))
    for idx in sorted(range(len(members)), key=lambda i: -members[i].domain.size):
        if not len(open_):
            break
        passed, devs, _, _ = _MemberSearch(members[idx], grid, epsilon, seed, budget).run(
            targets[open_])
        for t, dev in zip(open_.tolist(), devs):
            if best[t] is None or dev < best[t][0]:
                best[t] = (dev, idx)
        open_ = open_[~passed]
    point = lambda t: tuple(grid[i] for i in targets[t].tolist())
    failures = tuple((point(t), best[t][0]) for t in open_.tolist())
    worst = max(range(len(targets)), key=lambda t: best[t][0])  # the first of the largest
    return FamilyDensityReport(
        not failures, False, grid_resolution, epsilon, len(targets), failures,
        (point(worst), *best[worst]),
    )


# -- chain-level associativity ------------------------------------------------------


@dataclass(frozen=True)
class ChainCertificate:
    """Composite associativity failure over the extracted combination table.

    Four table entries (each an A2 chain instance with its witness triple)
    force F(x,F(y,z)) ≠ F(F(x,y),z) at attained arguments.  Entries are
    ((x, y), value, (b_mask, a_mask, u_mask)).
    """

    args: tuple[Fraction, Fraction, Fraction]  # (x, y, z)
    inner_right: tuple  # (y,z) -> p
    inner_left: tuple  # (x,y) -> q
    outer_left: tuple  # (x,p) -> r
    outer_right: tuple  # (q,z) -> s

    @property
    def sides(self) -> tuple[Fraction, Fraction]:
        return self.outer_left[1], self.outer_right[1]

    def entries(self):
        return (self.inner_right, self.inner_left, self.outer_left, self.outer_right)

    def recheck(self, structure: BeliefStructure) -> bool:
        """Re-derive all four entries from the structure in exact arithmetic;
        a triple that is not a chain triple of the structure rejects it."""
        x, y, z = self.args
        full = structure.domain.full_mask
        if not all(is_canonical(t, 3, full) for _, _, t in self.entries()):
            return False
        for (args, value, (b, a, u)) in self.entries():
            if structure.bel_masks(b, a) != args[0]:
                return False
            if structure.bel_masks(a, u) != args[1]:
                return False
            if structure.bel_masks(b, u) != value:
                return False
        p = self.inner_right[1]
        q = self.inner_left[1]
        if self.inner_right[0] != (y, z) or self.inner_left[0] != (x, y):
            return False
        if self.outer_left[0] != (x, p) or self.outer_right[0] != (q, z):
            return False
        r, s = self.sides
        return r != s

    def describe(self, domain) -> str:
        x, y, z = self.args
        r, s = self.sides
        return (
            f"F({x},F({y},{z})) = {r} but F(F({x},{y}),{z}) = {s} "
            f"over attained entries"
        )


@dataclass(frozen=True)
class ChainConsistencyReport:
    status: str  # 'pass' | 'fail' | 'untestable'
    vacuous: bool
    instances: int
    nontrivial: int
    certificate: ChainCertificate | None = None
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
        conflict = extract_combination(structure)
        return ChainConsistencyReport(
            "untestable", False, 0, 0, None,
            f"combination extraction conflict: {conflict.describe(structure.domain)}",
        )
    values, width = f.values, len(f.values)
    endpoints = [bisect.bisect_left(values, t) for t in structure.bounds]
    instances, nontrivial, failure = associativity_join(f.keys, f.outs, width, endpoints)
    if failure is not None:
        x, y, z, p, q = failure
        # inner_right, inner_left, outer_left, outer_right
        args = ((y, z), (x, y), (x, p), (q, z))
        found = f.entries([a * width + b for a, b in args])
        entries = (((values[a], values[b]), values[out], witness)
                   for (a, b), (out, witness) in zip(args, found))
        certificate = ChainCertificate((values[x], values[y], values[z]), *entries)
        return ChainConsistencyReport(
            "fail", False, instances, nontrivial, certificate,
            certificate.describe(structure.domain),
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
    status: str  # 'pass' | 'fail' | 'untestable'
    checked: int
    gaps: int  # values where S or S∘S is undefined on the table
    failures: tuple = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _ranked_negation(structure: BeliefStructure, negation: NegationForm) -> tuple:
    """(values, attained, keys, outs) of a caller's S: its entries and the
    structure's attained conditional values ranked together.  A catalog S
    is tabulated on the attained values and their images."""
    attained = structure.attained("conditional")
    table = negation.table
    if not negation.is_tabular:
        table = {y: negation(y) for y in attained}
        table.update((s_y, negation(s_y)) for s_y in list(table.values()))
    n, m = len(attained), len(table)
    values, ranks = rank_values(attained + list(table) + list(table.values()))
    return values, ranks[:n], ranks[n:n + m], ranks[n + m:]


def bel_level_negation(
    structure: BeliefStructure, negation: NegationForm | NegationConflict | None = None
) -> NegationIdentityReport:
    """S(S(y)) = y at every attained conditional value, over the tabular S.

    Partiality (table gaps on either application) is counted, not hidden.
    One array pass on value ranks: with S as an array from ranks to ranks,
    -1 where it is undefined, the check is S[S[attained]] = attained.  By
    default S is the structure's `negation_ranks`, whose keys are the
    attained values; a caller's S is ranked with them first.
    """
    if negation is None and negation_ranks(structure).clash is not None:
        negation = extract_negation(structure)
    if isinstance(negation, NegationConflict):
        return NegationIdentityReport(
            "untestable", 0, 0, (),
            f"negation extraction conflict: {negation.describe(structure.domain)}",
        )
    if negation is None:
        s = negation_ranks(structure)
        values, attained, keys, outs = s.values, s.keys, s.keys, s.outs
    else:
        values, attained, keys, outs = _ranked_negation(structure, negation)
    image = np.full(len(values) + 1, -1, dtype=np.int64)  # image[-1] = -1: a gap stays one
    image[keys] = outs
    once = image[attained]
    twice = image[once]
    gaps = int(np.count_nonzero(twice < 0))
    checked = len(attained) - gaps
    bad = np.flatnonzero((twice >= 0) & (twice != attained))
    if len(bad):
        failures = tuple((values[attained[k]], values[once[k]], values[twice[k]])
                         for k in bad.tolist())
        y, s_y, s_s_y = failures[0]
        return NegationIdentityReport(
            "fail", checked, gaps, failures,
            f"S(S({y})) = {s_s_y} ≠ {y}",
        )
    detail = f"involution holds at {checked} attained values"
    if gaps:
        detail += f" ({gaps} untestable: table gaps)"
    return NegationIdentityReport("pass", checked, gaps, (), detail)


# -- theorem audits --------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisVerdict:
    name: str
    status: str  # 'pass' | 'fail' | 'untestable'
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class AuditReport:
    theorem: str
    hypotheses: tuple[HypothesisVerdict, ...]
    notes: tuple[str, ...] = ()
    density: FamilyDensityReport | None = None  # theorem 4 only

    @property
    def failed(self) -> bool:
        return any(h.status == "fail" for h in self.hypotheses)

    @property
    def all_passed(self) -> bool:
        return all(h.status == "pass" for h in self.hypotheses)

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


def _verdict_of(v: Verdict, name: str) -> HypothesisVerdict:
    return HypothesisVerdict(name, v.status, v.detail)


def _par34_verdicts(structure: BeliefStructure) -> list[HypothesisVerdict]:
    negation, domain = negation_ranks(structure), structure.domain
    if negation.clash is not None:
        out = [HypothesisVerdict("par3-negation-decreasing", "fail", "A1 admits no function: "
                                 + extract_negation(structure).describe(domain))]
    else:
        rep = ranked_monotonicity("negation", *negation[:3], structure.bounds)
        out = [_verdict_of(rep.decreasing, "par3-negation-decreasing")]
    combination = combination_ranks(structure)
    if combination.clash is not None:
        out.append(HypothesisVerdict("par4-combination-strict-increase", "fail",
                                     "A2 admits no function: "
                                     + extract_combination(structure).describe(domain)))
        out.append(HypothesisVerdict("par4-combination-continuity", "untestable",
                                     "A2 admits no function"))
    else:
        rep = ranked_monotonicity("combination", *combination[:3], structure.bounds)
        strict = rep.strict_increase
        if strict.passed and not rep.nondecrease.passed:
            strict = rep.nondecrease
        out.append(_verdict_of(strict, "par4-combination-strict-increase"))
        out.append(_verdict_of(rep.continuity, "par4-combination-continuity"))
    return out


def _audit_t1(structure: BeliefStructure) -> AuditReport:
    bounds = check_bounds(structure)
    hypotheses = [
        _verdict_of(bounds.par1, "par1-range"),
        _verdict_of(bounds.par2, "par2-endpoints"),
        *_par34_verdicts(structure),
    ]
    gap = par5_gap(structure)
    hypotheses.append(
        HypothesisVerdict(
            "par5-density", "fail",
            f"unsatisfiable on a finite domain: gap = {gap} > 0",
        )
    )
    return AuditReport("T1", tuple(hypotheses))


def _audit_t2(structure, *, seed: int) -> AuditReport:
    from .isomorphism import DecisionParams, decide  # local import: avoids cycle

    e, big_e = structure.bounds
    hypotheses = []
    bounds = check_bounds(structure)
    hypotheses.append(_verdict_of(bounds.par1, "range-in-interval"))

    s = negation_ranks(structure)
    if s.clash is not None:
        hypotheses.append(
            HypothesisVerdict("negation-linear-complement", "fail",
                              extract_negation(structure).describe(structure.domain))
        )
        hypotheses.append(HypothesisVerdict("negation-smoothness", "untestable",
                                            "A1 admits no function"))
    else:
        # the keys ascend with x, so the first bad one is the least x
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

    f = combination_ranks(structure)
    if f.clash is not None:
        hypotheses.append(
            HypothesisVerdict("combination-commutative", "fail",
                              extract_combination(structure).describe(structure.domain))
        )
        for name in ("combination-annihilator", "combination-unit",
                     "combination-nondecreasing", "combination-strict-increase",
                     "combination-smoothness"):
            hypotheses.append(HypothesisVerdict(name, "untestable",
                                                "A2 admits no function"))
    else:
        # each law's first failure in ascending (x, y), on value ranks
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
        hypotheses.append(_verdict_of(rep.nondecrease, "combination-nondecreasing"))
        hypotheses.append(_verdict_of(rep.strict_increase, "combination-strict-increase"))
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
    hypotheses = [HypothesisVerdict(
        "extension-agreement", "pass" if disagreement is None else "fail",
        "Bel⁺ agrees with Bel on all embedded pairs" if disagreement is None
        else f"disagreement at embedded pair {disagreement}")]
    bounds = check_bounds(extension.extended)
    hypotheses.append(_verdict_of(bounds.par1, "par1-range"))
    hypotheses.append(_verdict_of(bounds.par2, "par2-endpoints"))
    try:
        hypotheses.extend(_par34_verdicts(extension.extended))
    except (BeliefDomainError, FormError) as exc:  # too large to enumerate
        hypotheses.append(HypothesisVerdict("par3-negation-decreasing", "untestable", str(exc)))
        hypotheses.append(HypothesisVerdict("par4-combination-strict-increase", "untestable", str(exc)))
        hypotheses.append(HypothesisVerdict("par4-combination-continuity", "untestable", str(exc)))
    base_gap = par5_gap(structure)
    ext_gap = par5_gap(extension.extended)
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


def _audit_t4(family, *, grid_resolution, epsilon, seed, budget) -> AuditReport:
    hypotheses = []
    hypotheses.append(
        HypothesisVerdict("uniform-negation",
                          "pass" if family.negation_uniform else "fail",
                          family.negation_detail)
    )
    hypotheses.append(
        HypothesisVerdict("uniform-combination",
                          "pass" if family.combination_uniform else "fail",
                          family.combination_detail)
    )
    par1 = par2 = None
    for i, member in enumerate(family.members):
        rep = check_bounds(member)
        if par1 is None and not rep.par1.passed:
            par1 = f"member {i}: {rep.par1.detail}"
        if par2 is None and not rep.par2.passed:
            par2 = f"member {i}: {rep.par2.detail}"
    hypotheses.append(
        HypothesisVerdict("par1-range", "fail" if par1 else "pass",
                          par1 or "all members within bounds")
    )
    hypotheses.append(
        HypothesisVerdict("par2-endpoints", "fail" if par2 else "pass",
                          par2 or "all members normalized at the endpoints")
    )
    # the merged forms are checked on the bounds their members share
    merged = family.merged or (0,)
    bounds = family.members[merged[0]].bounds
    other = next((i for i in merged if family.members[i].bounds != bounds), None)
    if other is not None:
        e, big_e = family.members[other].bounds
        why = (f"members {merged[0]} and {other} differ in bounds: "
               f"[{bounds[0]},{bounds[1]}] vs [{e},{big_e}]")
        hypotheses += [HypothesisVerdict(name, "untestable", why) for name in (
            "par3-negation-decreasing", "par4-combination-strict-increase",
            "par4-combination-continuity")]
    else:
        s_rep = ranked_monotonicity("negation", *family.negation[:3], bounds)
        hypotheses.append(_verdict_of(s_rep.decreasing, "par3-negation-decreasing"))
        f_rep = ranked_monotonicity("combination", *family.combination[:3], bounds)
        hypotheses.append(_verdict_of(f_rep.strict_increase,
                                      "par4-combination-strict-increase"))
        hypotheses.append(_verdict_of(f_rep.continuity, "par4-combination-continuity"))
    density = par5_family(family, grid_resolution, epsilon, seed=seed, budget=budget)
    hypotheses.append(
        HypothesisVerdict(
            "par5-family-density",
            "pass" if density.passed else "fail",
            f"grid {grid_resolution}^3 at ε={epsilon}: "
            + (
                "all targets approximated"
                if density.passed
                else f"{len(density.failures)} targets missed"
            ),
        )
    )
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
    budget: int = 2000,
) -> AuditReport:
    """Run exactly the hypothesis checks of the named theorem.

    T1 audits Par1–Par4 plus the density gap (finite structures always fail
    Par5 and the report says so).  T2 verifies counterexample shape.  T3 needs
    a supplied extension; T4 a domain family.
    """
    theorem = str(theorem).upper().lstrip("T")
    if theorem == "1":
        return _audit_t1(structure)
    if theorem == "2":
        return _audit_t2(structure, seed=seed)
    if theorem == "3":
        if extension is None:
            raise ValueError("theorem 3 audit requires an extension")
        return _audit_t3(structure, extension)
    if theorem == "4":
        if family is None:
            raise ValueError("theorem 4 audit requires a domain family")
        return _audit_t4(
            family,
            grid_resolution=grid_resolution,
            epsilon=epsilon,
            seed=seed,
            budget=budget,
        )
    raise ValueError(f"unknown theorem {theorem!r}")
