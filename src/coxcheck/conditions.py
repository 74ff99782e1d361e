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
import math
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
    rank_values,
    submask_table,
)
from .forms import (
    CHUNK_CAP,
    FIRST_CHUNK,
    FormError,
    NegationConflict,
    NegationForm,
    Verdict,
    check_monotonicity,  # re-exported
    combination_ranks,
    extract_combination,
    extract_negation,
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


def _chain_deviation(bel, u1: int, u2: int, u3: int, u4: int, targets) -> Fraction:
    """Chebyshev distance from the chain's steps Bel(U4|U3), Bel(U3|U2),
    Bel(U2|U1) to the targets; `bel` is the structure's `bel_masks`."""
    a, b, g = targets
    return max(abs(bel(u4, u3) - a), abs(bel(u3, u2) - b), abs(bel(u2, u1) - g))


#: Most 32-bit words drawn from the sampler's generator at once.
_WORD_PIECE = 1 << 13


def _exhaustive_levels(structure: BeliefStructure):
    """The level rows of every chain of `chain_masks()`, in its order, as
    one block: an atom's level is the number of U1..U4 that hold it."""
    chains = np.array(list(structure.chain_masks()), dtype=np.int64)
    bits = chains[:, :, None] >> np.arange(structure.domain.size) & 1
    yield bits.sum(axis=1, dtype=np.uint8)


def _random_levels(n: int, seed: int):
    """The level rows of the seeded random chains, in blocks of FIRST_CHUNK
    or more rows that double up to CHUNK_CAP, as `row_chunks` grows.

    A row draws each atom's level as `random.Random(seed).randint(0, 4)`
    would, atom by atom: that call reads one 32-bit word per try, keeps its
    top three bits, and tries again on 5-7.  Here the words come in bulk
    from `getrandbits`, least significant first, which is the same stream.
    Rows with U3 = ∅ (no level of 3 or more) are skipped.
    """
    rng = random.Random(seed)
    pending = np.zeros(0, dtype=np.uint8)  # accepted levels not yet in a row
    size = FIRST_CHUNK
    while True:
        rows, count = [], 0
        while count < size:
            words = min(2 * n * (size - count), _WORD_PIECE)
            drawn = np.frombuffer(
                rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
            ) >> 29
            pending = np.concatenate((pending, drawn[drawn < 5].astype(np.uint8)))
            whole = len(pending) // n * n
            block = pending[:whole].reshape(-1, n)
            pending = pending[whole:]
            block = block[block.max(axis=1) >= 3]
            rows.append(block)
            count += len(block)
        yield np.concatenate(rows)
        size = min(2 * size, CHUNK_CAP)


def _step_values(structure: BeliefStructure, levels: np.ndarray, masks: np.ndarray):
    """(xs, at): Fractions, and for each chain of the level rows the
    positions in xs of its steps Bel(U4|U3), Bel(U3|U2), Bel(U2|U1).

    A weight backing whose unit total is below 2^62 reads the masses
    μ(U1)..μ(U4) off the level rows in int64 and builds one Fraction per
    distinct (mass, mass) step.  Other structures look each step up with
    `bel_masks` on the packed `masks`.
    """
    if structure.is_weight_backed and structure._prefix[-1] < 1 << 62:
        units = np.array(structure._units, dtype=np.int64)
        step = max(1, (1 << 16) // structure.domain.size)  # rows per int64 product
        mass = np.concatenate([
            np.stack([(part >= j) @ units for j in range(1, 5)], axis=1)
            for part in np.split(levels, range(step, len(levels), step))
        ])
        pairs = np.stack((mass[:, [3, 2, 1]].ravel(), mass[:, [2, 1, 0]].ravel()), axis=1)
        distinct, at = np.unique(pairs, axis=0, return_inverse=True)
        k = structure.exponent
        xs = [Fraction(v, u) ** k for v, u in distinct.tolist()]
        return xs, at.reshape(-1, 3)
    bel = structure.bel_masks
    xs = []
    for row in masks:
        u1, u2, u3, u4 = (int.from_bytes(m.tobytes(), "little") for m in row)
        xs += (bel(u4, u3), bel(u3, u2), bel(u2, u1))
    return xs, np.arange(len(xs)).reshape(-1, 3)


class _ChainTable:
    """The chains a density search scores on one structure, in search order,
    grown block by block from a source of level rows.

    `steps[i]` holds the ranks of chain i's steps Bel(U4|U3), Bel(U3|U2),
    Bel(U2|U1) in the sorted `values`; `masks[i]` holds U1..U4 packed
    little-endian.  Each block is scored once, and every target reads it.
    """

    def __init__(self, blocks, atoms: int):
        self._blocks = blocks
        self.values: list[Fraction] = []
        self.steps = np.zeros((0, 3), dtype=np.int32)
        self.masks = np.zeros((0, 4, (atoms + 7) // 8), dtype=np.uint8)

    def grow(self, structure: BeliefStructure, count: int) -> None:
        """Score blocks until the table holds `count` chains or its source
        ends; each new block re-ranks the values the table holds."""
        while len(self.steps) < count:
            levels = next(self._blocks, None)
            if levels is None:
                return
            # atom i lies in U_j exactly when its level is at least j
            masks = np.stack([np.packbits(levels >= j, axis=1, bitorder="little")
                              for j in range(1, 5)], axis=1)
            xs, at = _step_values(structure, levels, masks)
            del levels
            old = len(self.values)
            self.values, ranks = rank_values(self.values + xs)
            ranks = ranks.astype(np.int32)
            self.steps = np.concatenate((ranks[:old][self.steps], ranks[old:][at]))
            self.masks = np.concatenate((self.masks, masks))

    def chain(self, i: int) -> tuple[int, int, int, int]:
        return tuple(int.from_bytes(m.tobytes(), "little") for m in self.masks[i])


def _chain_table(structure: BeliefStructure, seed: int) -> _ChainTable:
    """The structure's chain table, built once: every chain of
    `chain_masks()` up to EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms, the chains of
    `_random_levels(n, seed)` above."""
    n = structure.domain.size
    if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT:
        return structure.derived(
            "par5-chains", lambda s: _ChainTable(_exhaustive_levels(s), n)
        )
    return structure.derived(
        f"par5-chains-{seed}", lambda s: _ChainTable(_random_levels(n, seed), n)
    )


def _scan_table(structure, table, count, targets, eps, method, tried=0, best=None,
                best_dev=None) -> TripleSearchResult:
    """Go on with a search at its first `count` table chains, after `tried`
    candidates whose first best was `best` (masks) at `best_dev`.

    The first chain whose three steps lie within ε of their targets is the
    hit; a step within ε is a rank in a window that two bisections of
    `values` find.  Without a hit, the exact |v − t| of each step value the
    chains use is ranked, a chain's deviation is the largest of its three
    ranks, and the first chain of least rank is the best.
    """
    table.grow(structure, count)
    steps = table.steps[:count]
    values = table.values
    hit = np.ones(len(steps), dtype=bool)
    for column, t in zip(steps.T, targets):
        lo, hi = bisect.bisect_right(values, t - eps), bisect.bisect_left(values, t + eps)
        hit &= (lo <= column) & (column < hi)
    first = np.flatnonzero(hit)
    if len(first):
        i = int(first[0])
        dev = max(abs(values[r] - t) for r, t in zip(steps[i].tolist(), targets))
        return TripleSearchResult(
            True, structure._make_chain(*table.chain(i)), dev, method, tried + i + 1
        )
    # with its inverse, np.unique does not load numpy.ma
    used = [np.unique(column, return_inverse=True) for column in steps.T]
    deviations, ranks = rank_values([
        abs(values[r] - t) for (rs, _), t in zip(used, targets) for r in rs.tolist()
    ])
    rank = np.zeros(len(steps), dtype=np.int64)
    start = 0
    for rs, inverse in used:
        np.maximum(rank, ranks[start:start + len(rs)][inverse], out=rank)
        start += len(rs)
    if len(rank):
        i = int(np.argmin(rank))
        if best_dev is None or deviations[rank[i]] < best_dev:
            best, best_dev = table.chain(i), deviations[rank[i]]
    return TripleSearchResult(
        False, structure._make_chain(*best), best_dev, method, tried + len(steps)
    )


def par5_triples(
    structure: BeliefStructure,
    probe: DensityProbe,
    *,
    seed: int = 0,
    budget: int = 2000,
) -> TripleSearchResult:
    """Search for one nested chain ε-approximating all three targets at once.

    Exhaustive over chain_masks() up to EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms.
    Above that the search is deterministic-greedy (prefix chains with sizes
    proportional to the targets) followed by seeded random sampling, with the
    candidate count recorded.  Chains are scored from their three steps; the
    six-value `ChainQuadruple` is built for the returned chain only.

    The exhaustive and random chains come from the structure's chain table
    (`_chain_table`), scored once per structure and seed.  So a missed
    target costs one vector pass over the cached chains, where it was a
    full budget of `Fraction` scorings; only the greedy chains are scored
    one at a time.
    """
    targets = probe.rescaled(structure.bounds)
    eps = probe.epsilon
    n = structure.domain.size
    if n <= EXHAUSTIVE_CHAIN_ATOM_LIMIT:  # each atom has one of 5 levels
        return _scan_table(structure, _chain_table(structure, seed), 5 ** n, targets, eps,
                           "exhaustive")
    full = structure.domain.full_mask
    bel = structure.bel_masks
    best = None
    best_dev = None
    tried = 0
    prefix = lambda s: (1 << s) - 1
    # greedy proportional prefix chains
    for s2 in _level_size_candidates(n, probe.gamma, eps, 1):
        for s3 in _level_size_candidates(s2, probe.beta, eps, 1):
            for s4 in _level_size_candidates(s3, probe.alpha, eps, 0):
                masks = (full, prefix(s2), prefix(s3), prefix(s4))
                tried += 1
                dev = _chain_deviation(bel, *masks, targets)
                if dev < eps:
                    return TripleSearchResult(
                        True, structure._make_chain(*masks), dev, "sampled", tried
                    )
                if best_dev is None or dev < best_dev:
                    best, best_dev = masks, dev
    # seeded random nested quadruples, up to the budget
    return _scan_table(structure, _chain_table(structure, seed), max(budget - tried, 0),
                       targets, eps, "sampled", tried, best, best_dev)


def _level_size_candidates(parent: int, target: Fraction, eps: Fraction, floor_size: int):
    """Child sizes worth trying under a parent of size `parent`.

    Proportional sizes come first (round(target·parent) with small jitter);
    then the largest size keeping the ratio under target+ε, which preserves
    resolution one level down when the target itself is near 0.
    """
    ordered = []
    seen = set()
    base = round(target * parent)
    cap = math.ceil((target + eps) * parent) - 1
    for s in (base, base + 1, base - 1, base + 2, base - 2, cap, cap - 1):
        if floor_size <= s <= parent and s not in seen:
            seen.add(s)
            ordered.append(s)
    return ordered


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
#: gives n**3 targets.  A target that no member meets costs every member
#: its greedy chains and one vector pass over its cached chain table.
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
    order = sorted(range(len(members)), key=lambda i: -members[i].domain.size)
    failures = []
    worst = None
    checked = 0
    for alpha in grid:
        for beta in grid:
            for gamma in grid:
                checked += 1
                probe = DensityProbe(alpha, beta, gamma, epsilon)
                target_best = None
                target_member = None
                hit = False
                for idx in order:
                    result = par5_triples(
                        members[idx], probe, seed=seed, budget=budget
                    )
                    if target_best is None or result.deviation < target_best:
                        target_best, target_member = result.deviation, idx
                    if result.passed:
                        hit = True
                        break
                if not hit:
                    failures.append(((alpha, beta, gamma), target_best))
                if worst is None or target_best > worst[1]:
                    worst = ((alpha, beta, gamma), target_best, target_member)
    return FamilyDensityReport(
        not failures, False, grid_resolution, epsilon, checked, tuple(failures), worst
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
    and one stable `argsort` of the outputs the entries (y, z) → p of each
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
    preimage = np.argsort(outs, kind="stable").astype(np.int32)
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

    negation = extract_negation(structure)
    if isinstance(negation, NegationConflict):
        hypotheses.append(
            HypothesisVerdict("negation-linear-complement", "fail",
                              negation.describe(structure.domain))
        )
        hypotheses.append(HypothesisVerdict("negation-smoothness", "untestable",
                                            "A1 admits no function"))
    else:
        bad = [
            (x, s_x) for x, s_x in sorted(negation.table.items())
            if x + s_x != e + big_e
        ]
        hypotheses.append(
            HypothesisVerdict("negation-linear-complement", "pass",
                              "extracted S-table is a restriction of x ↦ e+E−x")
            if not bad
            else HypothesisVerdict(
                "negation-linear-complement", "fail",
                f"S({bad[0][0]}) = {bad[0][1]} ≠ {e + big_e - bad[0][0]}",
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
             lambda i: f"F{(v[x[i]], v[y[i]])} = {v[out[i]]} "
                       f"but F{(v[y[i]], v[x[i]])} = {v[out[at[i]]]}"),
            ("combination-annihilator", ((x == low) | (y == low)) & (out != low),
             f"F(x,{e}) = F({e},x) = {e} at attained entries",
             lambda i: f"F{(v[x[i]], v[y[i]])} = {v[out[i]]} ≠ {e}"),
            ("combination-unit", ((y == high) & (out != x)) | ((x == high) & (out != y)),
             f"F(x,{big_e}) = F({big_e},x) = x at attained entries",
             lambda i: f"F{(v[x[i]], v[y[i]])} = {v[out[i]]}"),
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
    # the merged forms are tabular on the default interval [0, 1]
    s_rep = ranked_monotonicity("negation", *family.negation[:3], (ZERO, ONE))
    hypotheses.append(_verdict_of(s_rep.decreasing, "par3-negation-decreasing"))
    f_rep = ranked_monotonicity("combination", *family.combination[:3], (ZERO, ONE))
    hypotheses.append(_verdict_of(f_rep.strict_increase, "par4-combination-strict-increase"))
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
