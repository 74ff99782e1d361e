"""Structure generators: probability tables, monotone distortions, coin
extensions, coin-domain families, and the exhaustive min/1-x counterexample
search.

Generated structures are weight-backed, so large coin domains stay usable
without materializing their tables.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditions import hypothesis, member_sources
from .core import (
    LIMITS, ZERO, ONE, BeliefDomainError, BeliefStructure, Domain, Event, limit_message,
    preflight, rank_values,
)
from .forms import (
    CombinationForm,
    RankedExtraction,
    combination_ranks,
    f_at,
    form_table,
    negation_ranks,
)
from .isomorphism import DecisionParams, decide

FAMILY_COIN_CAP = 12


def gen_probability(domain: Domain, weights) -> BeliefStructure:
    """Bel(V|U) = μ(V∩U)/μ(U) for strictly positive rational weights."""
    return BeliefStructure.from_weights(domain, [Fraction(w) for w in weights])


def gen_distorted(domain: Domain, weights, exponent: int) -> BeliefStructure:
    """Bel(V|U) = (μ(V∩U)/μ(U))^k; k = 1 coincides with gen_probability."""
    if operator.index(exponent) < 1:
        raise BeliefDomainError("distortion exponent must be a positive integer")
    return BeliefStructure.from_weights(
        domain, [Fraction(w) for w in weights], exponent=exponent
    )


def affine_rescale(structure: BeliefStructure, scale: Fraction, offset: Fraction) -> BeliefStructure:
    """Relabel every value v ↦ scale·v + offset (scale > 0), bounds included."""
    scale, offset = Fraction(scale), Fraction(offset)
    if scale <= 0:
        raise BeliefDomainError("rescale factor must be positive")
    e, big_e = structure.bounds
    return structure.map_values(
        lambda v: v * scale + offset,
        bounds=(e * scale + offset, big_e * scale + offset),
    )


# -- coin extensions (irrelevant fair-coin propositions) ---------------------------


@dataclass(frozen=True)
class ExtendedStructure:
    """A base structure, an extension of it, and the event embedding.

    `atom_blocks[i]` is the extended-domain mask of the atoms refining base
    atom i; embedding an event unions its atoms' blocks.
    """

    base: BeliefStructure
    extended: BeliefStructure
    atom_blocks: tuple[int, ...]
    coin_count: int | None = None

    def embed_mask(self, base_mask: int) -> int:
        out = 0
        m = base_mask
        while m:
            low = m & -m
            out |= self.atom_blocks[low.bit_length() - 1]
            m ^= low
        return out

    def embed(self, event: Event) -> Event:
        if event.domain != self.base.domain:
            raise BeliefDomainError("event does not belong to the base domain")
        return Event(self.extended.domain, self.embed_mask(event.mask))

    def first_disagreement(self) -> tuple[int, int] | None:
        """The first base pair (v, u) with Bel⁺(embed V | embed U) ≠ Bel(V|U), or None."""
        for v, u, x in self.base.items():
            if self.extended.bel_masks(self.embed_mask(v), self.embed_mask(u)) != x:
                return v, u
        return None

    def verify_embedding(self) -> bool:
        """Bel⁺(embed V | embed U) = Bel(V|U) on every canonical base pair."""
        return self.first_disagreement() is None


def coin_extend(domain: Domain, weights, coins: int) -> ExtendedStructure:
    """Extend by `coins` fair coins: product weights over W × {0,1}^n."""
    if coins < 1:
        raise BeliefDomainError("at least one coin required")
    if coins >= LIMITS["coin extension"].atoms.bit_length():
        # 2^coins alone is over the cap: refuse it without building 2^coins
        raise BeliefDomainError(limit_message("coin extension", f"{domain.size}·2^{coins}"))
    width = 1 << coins
    preflight("coin extension", domain.size * width)
    base = gen_probability(domain, weights)
    atoms = tuple(
        f"{a}:{c:0{coins}b}" for a in domain.atoms for c in range(width)
    )
    half = Fraction(1, width)
    extended_weights = [w * half for w in base.weights for _ in range(width)]
    extended = BeliefStructure.from_weights(Domain(atoms), extended_weights)
    block = (1 << width) - 1
    blocks = tuple(block << (i * width) for i in range(domain.size))
    return ExtendedStructure(
        base=base, extended=extended, atom_blocks=blocks, coin_count=coins
    )


# -- domain families -----------------------------------------------------------------


@dataclass(frozen=True)
class DomainFamily:
    """Structures sharing (up to evidence) one S and one F across domains.

    `negation` and `combination` are the merged S and F on the ranks of the
    sorted union of the values of the members `merged` (indices into
    `members`), each key's `first` its instance's index among all their
    instances in member order.  `s_evidence` and
    `f_evidence` are the same tables in Fractions, built on first use.
    """

    members: tuple[BeliefStructure, ...]
    merged: tuple[int, ...]
    negation: RankedExtraction
    negation_uniform: bool
    negation_detail: str
    combination: RankedExtraction
    combination_uniform: bool
    combination_detail: str
    evidence_note: str

    @functools.cached_property
    def s_evidence(self) -> dict:
        return form_table(self.negation, 1)

    @functools.cached_property
    def f_evidence(self) -> dict:
        return form_table(self.combination, 2)

    def merged_combination(self) -> CombinationForm:
        return CombinationForm(kind="tabular", table=dict(self.f_evidence))


def build_family(members) -> DomainFamily:
    """Merge per-member extracted tables into uniformity evidence.

    The members `member_sources` reads within the "evidence" limit of
    `core.LIMITS` are merged; one over it is skipped (its full tables are
    infeasible), and the note records which.
    The result is that of merging member by member, each in the order its
    extraction first meets its keys: a key keeps the output of the first
    member that has it, and a later member's other output for it is a
    conflict.  So is a member's own A1 or A2 conflict, and that member adds
    nothing to the table.  A detail names the last conflict met.

    The uniform members of one exponent and bounds are read by sizes, and
    one of N atoms has the instances of a larger one whose U has at most N
    atoms, first: so their source's A1 and A2 serve them all, each cut
    at its own instance count, and a key is in every member whose count
    exceeds its first instance.  They agree on its output, so only the
    first and the last of them can be its entry or its last conflict.
    """
    members = tuple(members)
    if not members:
        raise BeliefDomainError("family must have at least one member")
    read = member_sources(members, "evidence")
    used, source = list(read), list(read.values())  # each one's source: the tables it reads
    skipped = [i for i in range(len(members)) if i not in read]
    sources = list(dict.fromkeys(source))
    local = [negation_ranks(members[s]).values for s in sources]  # A2's are the same
    values, ranks = rank_values([x for xs in local for x in xs])
    width = len(values)
    to_global = np.split(ranks, np.cumsum([len(xs) for xs in local]))
    merged = []
    for label, read, entry in (("S", negation_ranks, "A1"), ("F", combination_ranks, "A2")):
        tables = {s: read(members[s]) for s in sources}
        counts = np.array([
            # a member read off a larger one has its rows up to its own size
            tables[s].layout.lengths[:members[i].domain.size + 1 if s != i else None].sum()
            for i, s in zip(used, source)], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))  # each one's first instance
        detail, last = f"merged {label}-table single-valued", None
        runs = [(np.zeros(0, dtype=np.int64),) * 4]
        for s, g in zip(sources, to_global):
            table = tables[s]
            at = np.flatnonzero(np.equal(source, s))  # its readers, in member order
            if table.clash is not None:  # a member read on its own
                detail = f"member {s}: {hypothesis(members[s], entry).detail}"
                last = int(starts[at[0]])
                continue
            # the first and the last reader whose count exceeds a key's first instance
            c = counts[at]
            opener = at[np.maximum.accumulate(c).searchsorted(table.first, "right")]
            closer = at[::-1][np.maximum.accumulate(c[::-1]).searchsorted(table.first, "right")]
            x, y = np.divmod(table.keys, len(table.values))
            keys = g[table.keys] if label == "S" else g[x] * width + g[y]
            runs.append((keys, g[table.outs], table.first + starts[opener],
                         table.first + starts[closer]))
        keys, outs, first, latest = (np.concatenate(run) for run in zip(*runs))
        # by key, then by first instance (no two rows share one); each
        # table's rows are one sorted run, which the stable sort merges
        span = int(counts.sum()) + 1
        dtype = np.int64 if width * width * span < 1 << 63 else object
        order = np.argsort(keys.astype(dtype) * span + first, kind="stable")
        keys, outs, first, latest = (a[order] for a in (keys, outs, first, latest))
        # each key's rows are in member order, and its first row is the entry
        head = np.diff(keys, prepend=-1) != 0
        entry = np.flatnonzero(head)[head.cumsum() - 1]
        conflicts = np.flatnonzero(outs != outs[entry])
        if len(conflicts):
            k = conflicts[latest[conflicts].argmax()]
            if last is None or latest[k] > last:
                key = keys[k]
                i = used[int(starts.searchsorted(latest[k], "right")) - 1]
                name = (f"S({values[key]})" if label == "S"
                        else f_at(values[key // width], values[key % width]))
                detail = (f"{name} differs across members: {values[outs[entry[k]]]} "
                          f"vs {values[outs[k]]} (member {i})")
        merged += [RankedExtraction(values, keys[head], outs[head], first[head], None, None),
                   last is None and not len(conflicts), detail]
    note = (f"members {skipped} are {limit_message('evidence')}; evidence capped" if skipped
            else "all members contributed evidence")
    return DomainFamily(members, tuple(used), *merged, note)


def coin_domain(coins: int) -> Domain:
    return Domain(tuple(f"{c:0{coins}b}" for c in range(1 << coins)))


def coin_family(n_max: int) -> DomainFamily:
    """Uniform structures over {0,1}^n for n = 1..n_max."""
    if not 1 <= n_max <= FAMILY_COIN_CAP:
        raise BeliefDomainError(f"coin count must lie in 1..{FAMILY_COIN_CAP}")
    members = []
    for n in range(1, n_max + 1):
        size = 1 << n
        members.append(
            gen_probability(coin_domain(n), [Fraction(1, size)] * size)
        )
    return build_family(members)


# -- min/1-x counterexample search ----------------------------------------------------


@dataclass(frozen=True)
class MinSearchOutcome:
    found: BeliefStructure | None
    exhausted: bool
    consistent_candidates: int
    isomorphic_count: int
    undecided_count: int
    atom_count: int
    grid: tuple[Fraction, ...]

    @property
    def hit(self) -> bool:
        return self.found is not None


def _min_search_slots(domain: Domain):
    """Free value slots: one representative per complement pair {V, U\\V}.

    Par2 pins (∅|U) and (U|U); A1 with S = 1-x pins each partner.  Slots are
    ordered by (u_mask, v_mask) ascending: the canonical enumeration order.
    """
    slots = []
    for u in range(1, domain.full_mask + 1):
        seen = set()
        for v in range(1, u):
            if v & ~u or v in seen:
                continue
            partner = u ^ v
            seen.add(partner)
            slots.append((v, u))
    return slots


def _permuted_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, p in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << p
    return out


def search_min_counterexample(atom_count: int, grid) -> MinSearchOutcome:
    """Exhaustively enumerate grid-valued tables satisfying A1 with S = 1-x,
    A2 with F = min, and Par2; return the first (canonical order) that is
    refuted, or report exhaustion.

    The enumeration is depth-first over complement-pair representatives in
    canonical order with constraint pruning; candidates that are not the
    lexicographic minimum of their atom-permutation orbit are skipped.
    """
    if not 1 <= atom_count <= 4:
        raise BeliefDomainError("counterexample search supports 1..4 atoms")
    grid = tuple(sorted({Fraction(g) for g in grid}))
    if ZERO not in grid or ONE not in grid:
        raise BeliefDomainError("value grid must contain 0 and 1")
    if any(1 - g not in grid for g in grid):
        raise BeliefDomainError("value grid must be closed under x ↦ 1-x")
    # Slot values are tried midpoint-first (ties toward the smaller value):
    # endpoint-heavy tables are refutable through the positive-weight
    # strengthening alone, and make uninformative first hits.
    value_order = tuple(sorted(grid, key=lambda g: (abs(g - Fraction(1, 2)), g)))
    domain = Domain(tuple("abcd"[:atom_count]))
    slots = _min_search_slots(domain)
    slot_index = {pair: i for i, pair in enumerate(slots)}
    params = DecisionParams(restarts=4, budget=200)

    def pair_slot(v: int, u: int):
        """(slot, flip) locating the value of (v,u), ∅ ≠ V ≠ U."""
        if (v, u) in slot_index:
            return slot_index[(v, u)], False
        return slot_index[(u ^ v, u)], True

    def value_at(assignment, v, u):
        if v == 0:
            return ZERO
        if v == u:
            return ONE
        # a constraint is checked once every slot it reads is assigned
        slot, flip = pair_slot(v, u)
        val = assignment[slot]
        return 1 - val if flip else val

    # A2-with-min constraints, indexed by the last slot they depend on
    triples = []
    for u in range(1, domain.full_mask + 1):
        for a in range(1, u + 1):
            if a & ~u:
                continue
            for b in range(a + 1):
                if b & ~a:
                    continue
                deps = [
                    pair_slot(b, a) if b not in (0, a) else None,
                    pair_slot(a, u) if a != u else None,
                    pair_slot(b, u) if b not in (0, u) else None,
                ]
                last = max((d[0] for d in deps if d is not None), default=-1)
                triples.append(((b, a, u), last))
    by_last: dict[int, list] = {}
    for triple, last in triples:
        by_last.setdefault(last, []).append(triple)

    perms = [
        p for p in itertools.permutations(range(atom_count))
        if p != tuple(range(atom_count))
    ]

    def permuted_signature(assignment, perm):
        sig = []
        for v, u in slots:
            pv, pu = _permuted_mask(v, perm), _permuted_mask(u, perm)
            sig.append(value_at(assignment, pv & pu, pu))
        return tuple(sig)

    def a2_holds(assignment, b, a, u):
        x = value_at(assignment, b, a)
        y = value_at(assignment, a, u)
        out = value_at(assignment, b, u)
        return out == min(x, y)

    consistent = 0
    isomorphic = 0
    undecided = 0
    found = None

    assignment: list[Fraction | None] = [None] * len(slots)

    def dfs(depth: int):
        nonlocal consistent, isomorphic, undecided, found
        if depth == len(slots):
            sig = tuple(assignment)
            if any(permuted_signature(assignment, p) < sig for p in perms):
                return
            consistent += 1
            table = {}
            for u in range(1, domain.full_mask + 1):
                v = u
                while True:
                    table[(v, u)] = value_at(assignment, v, u)
                    if v == 0:
                        break
                    v = (v - 1) & u
            structure = BeliefStructure.from_table(domain, table)
            verdict = decide(structure, params)
            if verdict.kind == "refutation":
                found = structure
            elif verdict.kind == "witness":
                isomorphic += 1
            else:
                undecided += 1
            return
        for value in value_order:
            assignment[depth] = value
            ok = all(
                a2_holds(assignment, b, a, u)
                for (b, a, u) in by_last.get(depth, ())
            )
            if ok:
                dfs(depth + 1)
            if found is not None:
                return
        assignment[depth] = None

    # constraints that depend on no slot at all must hold outright
    if all(a2_holds(assignment, b, a, u) for (b, a, u) in by_last.get(-1, ())):
        dfs(0)
    return MinSearchOutcome(
        found=found,
        exhausted=found is None,
        consistent_candidates=consistent,
        isomorphic_count=isomorphic,
        undecided_count=undecided,
        atom_count=atom_count,
        grid=grid,
    )
