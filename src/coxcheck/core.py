"""Finite domains, events, and exact-rational conditional belief tables.

Events are bitmasks over an ordered atom list; the atom order is fixed at
construction and defines the canonical encoding used everywhere (table keys,
serialization order, chain enumeration order).

Belief values are `fractions.Fraction` throughout.  Nothing in a structure is
ever stored as a float: equality of belief values is what drives the
well-definedness checks downstream, and float equality would be unsound.
Each structure interns its values once, on demand, as order-preserving
integer ranks (`ValueIndex`), so the decision phases group and compare
pairs by ints instead of re-hashing Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

#: Largest domain for which full canonical-pair/triple enumeration is allowed.
ENUMERATION_ATOM_LIMIT = 12

#: Largest domain whose nested chains are enumerated exhaustively; density
#: probes sample chains above it.
EXHAUSTIVE_CHAIN_ATOM_LIMIT = 5


class BeliefDomainError(ValueError):
    """Malformed domain, event, or belief-table construction."""


class EmptyConditionError(ValueError):
    """Raised when conditioning on the empty event."""


@dataclass(frozen=True)
class Domain:
    """An ordered, finite set of distinct atom names."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise BeliefDomainError("domain must contain at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise BeliefDomainError("atom names must be unique")
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise BeliefDomainError(f"unknown atom {atom!r}") from None

    def event(self, members: Iterable[str]) -> "Event":
        mask = 0
        for atom in members:
            mask |= 1 << self.index(atom)
        return Event(self, mask)

    def event_from_mask(self, mask: int) -> "Event":
        return Event(self, mask)

    @property
    def empty(self) -> "Event":
        return Event(self, 0)

    @property
    def whole(self) -> "Event":
        return Event(self, self.full_mask)

    def events(self) -> Iterator["Event"]:
        """All events in canonical (ascending mask) order."""
        for mask in range(self.full_mask + 1):
            yield Event(self, mask)


@dataclass(frozen=True)
class Event:
    """A subset of a domain's atoms, encoded as a bitmask."""

    domain: Domain
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask > self.domain.full_mask:
            raise BeliefDomainError(f"event mask {self.mask} outside domain")

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.domain.atoms) if self.mask >> i & 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def complement(self) -> "Event":
        return Event(self.domain, self.domain.full_mask ^ self.mask)

    def __and__(self, other: "Event") -> "Event":
        self._check_domain(other)
        return Event(self.domain, self.mask & other.mask)

    def __or__(self, other: "Event") -> "Event":
        self._check_domain(other)
        return Event(self.domain, self.mask | other.mask)

    def issubset(self, other: "Event") -> bool:
        self._check_domain(other)
        return self.mask & ~other.mask == 0

    def _check_domain(self, other: "Event"):
        if other.domain != self.domain:
            raise BeliefDomainError("events belong to different domains")

    def __contains__(self, atom: str) -> bool:
        return self.mask >> self.domain.index(atom) & 1 == 1

    def __repr__(self):
        return "{%s}" % " ".join(self.members)


@dataclass(frozen=True)
class ChainQuadruple:
    """Nested events U1 ⊇ U2 ⊇ U3 ⊇ U4 (U3 nonempty) with the six derived values.

    x, y, z are the step conditionals Bel(U4|U3), Bel(U3|U2), Bel(U2|U1);
    u_a, u_b, u_c are the skipping conditionals Bel(U4|U2), Bel(U3|U1),
    Bel(U4|U1).
    """

    u1: Event
    u2: Event
    u3: Event
    u4: Event
    x: Fraction
    y: Fraction
    z: Fraction
    u_a: Fraction
    u_b: Fraction
    u_c: Fraction


def measure_of(weights: Sequence[Fraction], mask: int) -> Fraction:
    """Sum of the atom weights selected by an event mask."""
    total = ZERO
    m = mask
    while m:
        low = m & -m
        total += weights[low.bit_length() - 1]
        m ^= low
    return total


def subset_sums(weights: Sequence) -> list:
    """`measure_of` for every event mask at once: 2^n additions in all."""
    mu = [0 * weights[0]] * (1 << len(weights))
    for mask in range(1, len(mu)):
        low = mask & -mask
        mu[mask] = mu[mask ^ low] + weights[low.bit_length() - 1]
    return mu


@dataclass(frozen=True)
class ValueIndex:
    """A structure's attained values, interned as order-preserving ranks.

    `values` is strictly increasing and holds every attained value plus the
    bounds e and E.  `rank[u][v]` is the position of Bel(V|U) in `values`
    for every canonical pair; rows run in ascending u and each row in
    ascending v, which is canonical (u, v) order (`rank[0]` is empty).
    Ranks compare exactly as the values do, so order tests run on ints.
    """

    values: tuple[Fraction, ...]
    rank: tuple[dict[int, int], ...]
    e: int  # rank of the lower bound
    E: int  # rank of the upper bound

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """(v, u, rank) for every canonical pair, in canonical order."""
        for u, row in enumerate(self.rank):
            for v, r in row.items():
                yield v, u, r


def intern_values(xs: Iterable[Fraction]) -> tuple[list[Fraction], list[int]]:
    """The sorted distinct values of `xs`, and the rank of each x in turn.

    Python does not cache a Fraction's hash, so this hashes each x once and
    each distinct value once more; whatever runs on the ranks needs none.
    """
    code: dict[Fraction, int] = {}  # value -> first-seen code
    codes = [code.setdefault(x, len(code)) for x in xs]
    values = sorted(code)
    rank_of_code = [0] * len(values)
    for r, x in enumerate(values):
        rank_of_code[code[x]] = r
    return values, [rank_of_code[c] for c in codes]


def _submasks_desc(mask: int) -> Iterator[int]:
    """All submasks of `mask`, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class BeliefStructure:
    """A total conditional belief assignment Bel(V|U) over a finite domain.

    The table is stored on canonical pairs only (V ⊆ U, U nonempty);
    lookups for general V canonicalize through Bel(V|U) = Bel(V∩U|U).

    Two backings exist: an explicit table (parsed or hand-built structures)
    and a weight backing (generated structures), where
    Bel(V|U) = (μ(V∩U)/μ(U))^k for strictly positive atom weights μ.  The
    weight backing keeps large generated domains usable without
    materializing the 3^n-entry table.
    """

    def __init__(
        self,
        domain: Domain,
        *,
        table: Mapping[tuple[int, int], Fraction] | None = None,
        weights: Sequence[Fraction] | None = None,
        exponent: int = 1,
        bounds: tuple[Fraction, Fraction] = (ZERO, ONE),
    ):
        if (table is None) == (weights is None):
            raise BeliefDomainError("exactly one of table/weights must be given")
        e, big_e = Fraction(bounds[0]), Fraction(bounds[1])
        if e >= big_e:
            raise BeliefDomainError("bounds must satisfy e < E")
        self._domain = domain
        self._bounds = (e, big_e)
        self._table: dict[tuple[int, int], Fraction] | None = None
        self._weights: tuple[Fraction, ...] | None = None
        self._exponent = exponent
        self._derived: dict[str, object] = {}
        if table is not None:
            self._table = dict(table)
            self._validate_table()
        else:
            ws = tuple(Fraction(w) for w in weights)
            if len(ws) != domain.size:
                raise BeliefDomainError("one weight per atom required")
            if any(w <= 0 for w in ws):
                raise BeliefDomainError("atom weights must be strictly positive")
            if sum(ws) != 1:
                raise BeliefDomainError("atom weights must sum to 1")
            if exponent < 1:
                raise BeliefDomainError("exponent must be a positive integer")
            self._weights = ws
            self._uniform = len(set(ws)) == 1
            self._prefix = [ZERO]
            for w in ws:
                self._prefix.append(self._prefix[-1] + w)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_table(cls, domain, table, bounds=(ZERO, ONE)):
        return cls(domain, table=table, bounds=bounds)

    @classmethod
    def from_weights(cls, domain, weights, exponent=1, bounds=(ZERO, ONE)):
        return cls(domain, weights=weights, exponent=exponent, bounds=bounds)

    def _validate_table(self):
        if self._domain.size > ENUMERATION_ATOM_LIMIT:
            raise BeliefDomainError(
                f"explicit tables capped at {ENUMERATION_ATOM_LIMIT} atoms"
            )
        missing = [
            (v, u)
            for v, u in self.canonical_pair_masks()
            if (v, u) not in self._table
        ]
        if missing:
            raise BeliefDomainError(
                f"incomplete table: {len(missing)} missing pairs, "
                f"first Bel{self._pair_repr(*missing[0])}"
            )
        for (v, u), value in self._table.items():
            if u == 0:
                raise EmptyConditionError("table conditions on the empty event")
            if v & ~u:
                raise BeliefDomainError(
                    f"non-canonical table key {self._pair_repr(v, u)}"
                )
            if not isinstance(value, Fraction):
                raise BeliefDomainError("table values must be Fractions")

    def _pair_repr(self, v_mask: int, u_mask: int) -> str:
        return f"({Event(self._domain, v_mask)!r} | {Event(self._domain, u_mask)!r})"

    # -- basic accessors ---------------------------------------------------

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        return self._bounds

    @property
    def is_weight_backed(self) -> bool:
        return self._weights is not None

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        return self._weights

    @property
    def exponent(self) -> int:
        return self._exponent

    @property
    def is_uniform(self) -> bool:
        return self._weights is not None and self._uniform

    def measure(self, mask: int) -> Fraction:
        """Weight measure μ of an event mask (weight backing only)."""
        if self._weights is None:
            raise BeliefDomainError("measure() requires a weight backing")
        if mask & (mask + 1) == 0:  # prefix mask 0b0..01..1
            return self._prefix[mask.bit_length()]
        return measure_of(self._weights, mask)

    # -- lookup -------------------------------------------------------------

    def bel_masks(self, v_mask: int, u_mask: int) -> Fraction:
        if u_mask == 0:
            raise EmptyConditionError("conditioning on the empty event")
        v_mask &= u_mask
        if self._table is not None:
            return self._table[(v_mask, u_mask)]
        ratio = self.measure(v_mask) / self.measure(u_mask)
        return ratio if self._exponent == 1 else ratio ** self._exponent

    def bel(self, v: Event, u: Event) -> Fraction:
        """Bel(V|U), canonicalized through V∩U.  U must be nonempty."""
        return self.bel_masks(v.mask, u.mask)

    def bel_unconditional(self, v: Event) -> Fraction:
        return self.bel_masks(v.mask, self._domain.full_mask)

    # -- enumeration ---------------------------------------------------------

    def canonical_pair_masks(self) -> Iterator[tuple[int, int]]:
        """All (v_mask, u_mask) with ∅ ≠ U ⊆ W, V ⊆ U, ascending (u, v)."""
        if self._domain.size > ENUMERATION_ATOM_LIMIT:
            raise BeliefDomainError(
                f"pair enumeration capped at {ENUMERATION_ATOM_LIMIT} atoms"
            )
        for u in range(1, self._domain.full_mask + 1):
            for v in sorted(_submasks_desc(u)):
                yield v, u

    def canonical_triple_masks(self) -> Iterator[tuple[int, int, int]]:
        """All (b, a, u) masks with B ⊆ A ⊆ U, A ≠ ∅, ascending (u, a, b)."""
        if self._domain.size > ENUMERATION_ATOM_LIMIT:
            raise BeliefDomainError(
                f"triple enumeration capped at {ENUMERATION_ATOM_LIMIT} atoms"
            )
        subs = [sorted(_submasks_desc(m)) for m in range(self._domain.full_mask + 1)]
        for u in range(1, self._domain.full_mask + 1):
            for a in subs[u]:
                if a == 0:
                    continue
                for b in subs[a]:
                    yield b, a, u

    def items(self) -> Iterator[tuple[int, int, Fraction]]:
        for v, u in self.canonical_pair_masks():
            yield v, u, self.bel_masks(v, u)

    def as_table(self) -> dict[tuple[int, int], Fraction]:
        """Materialize the canonical table (capped domain size)."""
        return {(v, u): x for v, u, x in self.items()}

    def value_index(self) -> ValueIndex:
        """The memoized rank index of the values (capped domain size).

        Built on first use in one pass over the canonical pairs;
        weight-backed structures read their pairs through the same lookup
        that `as_table` uses.
        """
        return self.derived("value-index", BeliefStructure._build_value_index)

    def _build_value_index(self) -> ValueIndex:
        if self._table is not None:
            table = self._table
            entries = [(v, u, table[v, u]) for v, u in self.canonical_pair_masks()]
        else:
            entries = list(self.items())
        values, ranks = intern_values([x for _, _, x in entries] + list(self._bounds))
        rows: list[dict[int, int]] = [{} for _ in range(self._domain.full_mask + 1)]
        for (v, u, _), r in zip(entries, ranks):
            rows[u][v] = r
        return ValueIndex(tuple(values), tuple(rows), *ranks[-2:])

    def derived(self, key: str, build: Callable[["BeliefStructure"], object]):
        """`build(self)`, computed once per structure and kept under `key`.

        Structures are immutable, so results read off them (the value index,
        the A1/A2 extraction in `coxcheck.forms`) can be shared by every
        consumer.
        """
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def attained(self, kind: str = "conditional") -> list[Fraction]:
        """Strictly sorted, duplicate-free attained values.

        kind 'unconditional' restricts to pairs conditioned on W.
        """
        if kind not in ("conditional", "unconditional"):
            raise ValueError(f"unknown attained kind {kind!r}")
        k = self._exponent
        if self.is_uniform:
            n = self._domain.size
            if kind == "unconditional":
                vals = {Fraction(j, n) ** k for j in range(n + 1)}
            else:
                vals = {
                    Fraction(j, m) ** k
                    for m in range(1, n + 1)
                    for j in range(m + 1)
                }
            return sorted(vals)
        if self._weights is not None:
            n = self._domain.size
            if n > 20:
                raise BeliefDomainError(
                    "attained-value enumeration infeasible for this domain size"
                )
            if kind == "unconditional":
                total = self.measure(self._domain.full_mask)
                return sorted(
                    {self.measure(m) / total for m in range(self._domain.full_mask + 1)}
                ) if k == 1 else sorted(
                    {
                        (self.measure(m) / total) ** k
                        for m in range(self._domain.full_mask + 1)
                    }
                )
        elif kind == "unconditional":
            w = self._domain.full_mask
            return sorted({x for v, u, x in self.items() if u == w})
        index = self.value_index()
        ranks = {r for row in index.rank for r in row.values()}
        return [index.values[r] for r in sorted(ranks)]

    def chains(self) -> Iterator[ChainQuadruple]:
        """Every nested quadruple U1 ⊇ U2 ⊇ U3 ⊇ U4 with U3 ≠ ∅, exactly once.

        Deterministic order; capped at EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms.
        """
        if self._domain.size > EXHAUSTIVE_CHAIN_ATOM_LIMIT:
            raise BeliefDomainError(
                f"chain enumeration capped at {EXHAUSTIVE_CHAIN_ATOM_LIMIT} atoms"
            )
        for u1 in range(1, self._domain.full_mask + 1):
            for u2 in sorted(_submasks_desc(u1)):
                for u3 in sorted(_submasks_desc(u2)):
                    if u3 == 0:
                        continue
                    for u4 in sorted(_submasks_desc(u3)):
                        yield self._make_chain(u1, u2, u3, u4)

    def _make_chain(self, u1: int, u2: int, u3: int, u4: int) -> ChainQuadruple:
        d = self._domain
        return ChainQuadruple(
            Event(d, u1), Event(d, u2), Event(d, u3), Event(d, u4),
            x=self.bel_masks(u4, u3),
            y=self.bel_masks(u3, u2),
            z=self.bel_masks(u2, u1),
            u_a=self.bel_masks(u4, u2),
            u_b=self.bel_masks(u3, u1),
            u_c=self.bel_masks(u4, u1),
        )

    # -- comparison / transforms ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BeliefStructure):
            return NotImplemented
        if self._domain != other._domain or self._bounds != other._bounds:
            return False
        if self.is_weight_backed and other.is_weight_backed:
            return (
                self._weights == other._weights
                and self._exponent == other._exponent
            )
        return self.as_table() == other.as_table()

    def map_values(
        self,
        fn: Callable[[Fraction], Fraction],
        bounds: tuple[Fraction, Fraction],
    ) -> "BeliefStructure":
        """A dict-backed copy with every entry passed through `fn`."""
        table = {(v, u): fn(x) for v, u, x in self.items()}
        return BeliefStructure.from_table(self._domain, table, bounds=bounds)

    def __repr__(self):
        backing = (
            f"weights={self._weights!r}, k={self._exponent}"
            if self.is_weight_backed
            else f"{len(self._table)} entries"
        )
        return f"BeliefStructure({self._domain.atoms}, {backing})"
