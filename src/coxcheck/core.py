"""Finite domains, events, and exact-rational conditional belief tables.

Events are bitmasks over an ordered atom list; the atom order is fixed at
construction and defines the canonical encoding used everywhere (table keys,
serialization order, chain enumeration order).

Belief values are `fractions.Fraction` throughout.  Nothing in a structure is
ever stored as a float: equality of belief values is what drives the
well-definedness checks downstream, and float equality would be unsound.
A table is stored as its `ValueIndex`: the sorted distinct values and one
flat int32 array of order-preserving ranks in canonical pair order.  The
parser fills that array directly, ranking the distinct values float-first
without hashing them, and the decision phases group and compare pairs by
ints; the extraction and chain-consistency kernels read the array with
numpy gathers.  A weight-backed structure builds the same index on demand.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")


class BeliefDomainError(ValueError):
    """Malformed domain, event, or belief-table construction."""


#: Every structure-size limit: the most atoms a step may read, and the message
#: refusing more, with each limit's atoms by name and `size`, the size refused,
#: filled in.  `preflight` raises each refusal before the step it guards allocates.
Limit = NamedTuple("Limit", [("atoms", int), ("message", str)])
LIMITS = {
    "table": Limit(12, "explicit tables capped at {table} atoms"),  # 3^n - 1 pairs
    "pairs": Limit(12, "pair enumeration capped at {pairs} atoms"),
    "expansion": Limit(10, "generator expansion with explicit overrides is capped at "
                           "{expansion} atoms"),
    "subset sums": Limit(20, "attained-value enumeration infeasible for this domain size"),
    # about 0.3·n² values: 2,048 atoms take seconds and hundreds of MB
    "size table": Limit(2048, "size table capped at {size table} atoms"),
    "extraction": Limit(128, "extraction capped at {extraction} atoms"),  # by sizes
    "coin extension": Limit(1 << 14, "extension size {size} exceeds the cap {coin extension}"),
    "density": Limit(1 << 12, "density pass capped at {pairs} atoms, or {density} for "
                              "uniform weights"),  # the 12 coins: 8.4 M size steps
    "evidence": Limit(32, "over {pairs} atoms, or {evidence} for uniform weights"),
}


def limit_message(name: str, size=None) -> str:
    """The message of the limit `name`, refusing `size` atoms."""
    return LIMITS[name].message.format_map(
        {key: limit.atoms for key, limit in LIMITS.items()} | {"size": size})


def within(name: str, size: int, uniform: bool = False) -> bool:
    """Whether `size` atoms are within the limit `name`; the member selections
    "density" and "evidence" hold only for `uniform` weights, "pairs" else."""
    return size <= LIMITS[name if uniform or name not in ("density", "evidence") else "pairs"].atoms


def preflight(name: str, size: int, uniform: bool = False, error=BeliefDomainError) -> None:
    """Refuse `size` atoms over the limit `name`: raise `error` with its message."""
    if not within(name, size, uniform):
        raise error(limit_message(name, size))


class EmptyConditionError(ValueError):
    """Raised when conditioning on the empty event."""


@dataclass(frozen=True)
class Domain:
    """An ordered, finite set of distinct atom names."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise BeliefDomainError("domain must contain at least one atom")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "_positions", {atom: i for i, atom in enumerate(self.atoms)})
        if len(self._positions) != len(self.atoms):
            raise BeliefDomainError("atom names must be unique")

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    def index(self, atom: str) -> int:
        try:
            return self._positions[atom]
        except KeyError:
            raise BeliefDomainError(f"unknown atom {atom!r}") from None

    def event(self, members: Iterable[str]) -> "Event":
        mask = 0
        for atom in members:
            mask |= 1 << self.index(atom)
        return Event(self, mask)

    @property
    def empty(self) -> "Event":
        return Event(self, 0)

    @property
    def whole(self) -> "Event":
        return Event(self, self.full_mask)


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


def weight_units(weights: Sequence[Fraction], what: str = "atom weights") -> tuple[int, ...]:
    """Each weight's numerator over their common denominator.  Raises a
    `BeliefDomainError` on `what` if one is not positive, else if the sum is not 1."""
    scale = math.lcm(*(w.denominator for w in weights))
    units = tuple(w.numerator * (scale // w.denominator) for w in weights)
    if min(units) <= 0:
        raise BeliefDomainError(f"{what} must be strictly positive")
    if sum(units) != scale:
        raise BeliefDomainError(f"{what} must sum to 1")
    return units


def subset_sums(weights: Sequence) -> list:
    """The weight sum of every event mask at once: 2^n additions in all."""
    mu = [0 * weights[0]] * (1 << len(weights))
    for mask in range(1, len(mu)):
        low = mask & -mask
        mu[mask] = mu[mask ^ low] + weights[low.bit_length() - 1]
    return mu


@functools.cache
def submask_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, sub) over every mask m < 2^n: `sub[start[m] + j]` is the j-th
    ascending submask of m, and `start` has 2^n + 1 entries.

    Masks below 2^k own the first 3^k entries, and the j-th submask of m is
    j's bits spread over m's bits.  So if A is the c-th submask of U and B
    the j-th submask of A, then B is the `sub[start[c] + j]`-th submask of
    U: the one table places every chain triple in its rows.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.ones(1 << n, dtype=np.int64)  # 2^|m| submasks of m
    for bit in range(n):
        sizes <<= (masks >> bit) & 1
    start = np.zeros((1 << n) + 1, dtype=np.int64)
    np.cumsum(sizes, out=start[1:])
    mask = masks.repeat(sizes)
    j = np.arange(3 ** n, dtype=np.int64) - start[mask]
    sub = np.zeros(3 ** n, dtype=np.int32)
    for bit in range(n):
        has = (mask >> bit) & 1 == 1
        sub[has] |= ((j[has] & 1) << bit).astype(np.int32)
        j[has] >>= 1
    return start, sub


def pair_masks(n: int, at=None) -> tuple[np.ndarray, np.ndarray]:
    """(v, u): the masks of the canonical pairs at the positions `at` of a
    `pair_rank` over n atoms, or of every pair, in canonical order."""
    start, sub = submask_table(n)
    if at is not None:
        at = np.asarray(at) + 1
        return sub[at], start.searchsorted(at, "right") - 1
    owner = np.arange(1 << n).repeat(np.diff(start))
    return sub[1:], owner[1:]


def stable_order(keys) -> np.ndarray:
    """The permutation that sorts the int array `keys` stably, as
    `argsort(kind="stable")` gives it.

    Each key, less the least, is shifted above its index, and one `np.sort`
    of those ints orders them; ties keep index order.  Where the shifted
    keys would not fit in 63 bits, or the keys do not cast to int64, the
    stable argsort runs instead.
    """
    keys = np.asarray(keys)
    count = len(keys)
    shift = max(count - 1, 0).bit_length()
    if count and np.can_cast(keys.dtype, np.int64):
        low = int(keys.min())
        if int(keys.max()) - low < 1 << (63 - shift):
            packed = (keys.astype(np.int64) - low) << shift
            packed |= np.arange(count)
            packed.sort()
            return packed & ((1 << shift) - 1)
    return np.argsort(keys, kind="stable")


@dataclass(frozen=True)
class ValueIndex:
    """A structure's attained values, interned as order-preserving ranks.

    `values` is strictly increasing and holds every attained value plus the
    bounds e and E.  `pair_rank` holds the position of Bel(V|U) in `values`
    for every canonical pair, as one int32 array in canonical (u, v) order:
    row u starts at `submask_table(atoms)[0][u] - 1` (U = ∅ has no row) and
    Bel(V|U) sits at the position of V among U's ascending submasks.  The
    last row is the full mask's, where that position is v itself.  Ranks
    compare exactly as the values do, so order tests run on ints.
    """

    values: tuple[Fraction, ...]
    e: int  # rank of the lower bound
    E: int  # rank of the upper bound
    atoms: int
    pair_rank: np.ndarray = field(compare=False)

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """(v, u, rank) for every canonical pair, in canonical order."""
        return zip(*(m.tolist() for m in pair_masks(self.atoms)), self.pair_rank.tolist())


#: Integers up to this size are exact as floats, so a quotient of two of
#: them divided in float64 is correctly rounded.
_EXACT_FLOAT_INT = 1 << 53


def _float_or_inf(x: Fraction) -> float:
    """float(x), correctly rounded; ±inf where x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_parts(xs: Sequence[Fraction]) -> tuple:
    """(num, den, approx) of the Fractions `xs`: their numerators and
    denominators as int64 arrays (object arrays where one does not fit),
    and each one's correctly rounded float, ±inf beyond the float range."""
    count = len(xs)
    try:
        num = np.fromiter(map(_NUMERATOR, xs), dtype=np.int64, count=count)
        den = np.fromiter(map(_DENOMINATOR, xs), dtype=np.int64, count=count)
        small = (-_EXACT_FLOAT_INT <= num.min() and num.max() <= _EXACT_FLOAT_INT
                 and den.max() <= _EXACT_FLOAT_INT)
    except OverflowError:
        num = np.fromiter(map(_NUMERATOR, xs), dtype=object, count=count)
        den = np.fromiter(map(_DENOMINATOR, xs), dtype=object, count=count)
        small = False
    approx = (num / den if small
              else np.fromiter(map(_float_or_inf, xs), dtype=np.float64, count=count))
    return num, den, approx


def float_values(xs: Sequence[Fraction]) -> np.ndarray:
    """Each Fraction of the nonempty `xs`, correctly rounded to a float64;
    ±inf beyond the float range."""
    return _float_parts(xs)[2]


def rank_values(xs: Sequence[Fraction]) -> tuple[list[Fraction], np.ndarray]:
    """The sorted distinct values of `xs`, and the rank of each x in turn as
    an int64 array.

    Exact, and no Fraction is hashed.  A Fraction's float is correctly
    rounded, so sorting by floats never puts two values out of order; only
    a run of equal floats needs the exact values.  Equal Fractions have
    equal numerators and denominators, so a run of one value merges by
    comparing ints.  A run that holds distinct values (near-ties, or
    literals beyond the float range read as ±inf) is sorted exactly.
    """
    count = len(xs)
    if not count:
        return [], np.zeros(0, dtype=np.int64)
    num, den, approx = _float_parts(xs)
    order = np.argsort(approx, kind="stable")
    # sorted neighbours with equal floats, then with equal values; each
    # array is dropped once read, as xs may hold 3^12 values
    approx = approx[order]
    same = approx[1:] == approx[:-1]
    del approx
    num = num[order]
    merge = same & (num[1:] == num[:-1])
    del num
    den = den[order]
    merge &= den[1:] == den[:-1]
    del den
    mixed = np.flatnonzero(same != merge)
    if mixed.size:
        run = np.concatenate(([0], np.cumsum(~same)))  # float run of each position
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        ends = np.append(starts[1:], count)
        for r in np.unique(run[mixed + 1]).tolist():
            s, e = int(starts[r]), int(ends[r])
            members = sorted(order[s:e].tolist(), key=xs.__getitem__)  # stable
            order[s:e] = members
            merge[s:e - 1] = [xs[a] == xs[b] for a, b in zip(members, members[1:])]
    first = np.concatenate(([True], ~merge))  # first position of each value
    del same, merge
    sorted_ranks = np.cumsum(first)
    sorted_ranks -= 1
    ranks = np.empty(count, dtype=np.int64)
    ranks[order] = sorted_ranks
    return [xs[i] for i in order[first].tolist()], ranks


def rank_ratios(p: Sequence[int], q: Sequence[int], k: int = 1,
                bounds: Sequence[Fraction] = ()) -> tuple[list[Fraction], np.ndarray]:
    """`rank_values` of every (p/q)^k, over int pairs 0 <= p <= q, q > 0, then
    of the `bounds`: the sorted values, and the ranks of the pairs, then of
    the bounds, as one int64 array.  This is the one place where integer
    masses become ranked ratios.

    Each pair is reduced by its gcd and packed as the int a·width + b; one
    `np.unique` finds the distinct reduced ratios, and one Fraction is built
    per distinct ratio (x ↦ x^k keeps order on [0, 1]).  The masses are
    int64 where width < 2^31, so the packed ints stay below 2^62, and
    Python ints in object arrays otherwise, so totals of any size are
    exact.  A list is read as Python ints: `np.asarray` would turn masses
    above 2^63 into floats."""
    p, q = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (p, q))
    width = int(q.max()) + 1 if len(q) else 1
    dtype = np.int64 if width < 1 << 31 else object
    p, q = p.astype(dtype, copy=False), q.astype(dtype, copy=False)
    g = np.gcd(p, q)
    keys, at = np.unique(p // g * width + q // g, return_inverse=True)
    xs = [Fraction(*divmod(key, width)) for key in keys.tolist()]
    values, distinct = rank_values((xs if k == 1 else [x ** k for x in xs]) + list(bounds))
    return values, np.concatenate((distinct[at], distinct[len(xs):]))


def intern_values(xs: Iterable[Fraction]) -> tuple[list[Fraction], list[int]]:
    """`rank_values` of `xs`, with the ranks as a list."""
    values, ranks = rank_values(list(xs))
    return values, ranks.tolist()


def _pair_repr(domain: Domain, v_mask: int, u_mask: int) -> str:
    return f"({Event(domain, v_mask)!r} | {Event(domain, u_mask)!r})"


def pair_position(n: int, v: int, u: int) -> int:
    """Where Bel(V|U), V ⊆ U ≠ ∅, sits in a `pair_rank` over n atoms: row
    u's start plus v's bits compressed by u."""
    j, bit, rest = 0, 1, u
    while rest:
        low = rest & -rest
        if v & low:
            j |= bit
        bit <<= 1
        rest ^= low
    return int(submask_table(n)[0][u]) - 1 + j


def pair_at(n: int, position: int) -> tuple[int, int]:
    """The canonical pair (v, u) at `position` of a `pair_rank` over n atoms."""
    start, sub = submask_table(n)
    u = int(np.searchsorted(start, position + 1, side="right")) - 1
    return int(sub[position + 1]), u


def canonical_order(domain: Domain, keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """The order that sorts `keys`, distinct canonical pairs as u << n | v,
    into canonical order.  That is ascending key order, as V's position
    among U's ascending submasks grows with v.

    Fewer than 3^n - 1 keys is an incomplete table, reported with its first
    missing pair in canonical order; n is within the "table" limit.
    """
    n = domain.size
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys)
    size = 3 ** n - 1
    if len(keys) != size:
        v, u = pair_masks(n)
        every = (u << n | v)[:len(keys)]
        first = pair_at(n, int(np.argmax(np.append(keys[order] != every, True))))
        raise BeliefDomainError(
            f"incomplete table: {size - len(keys)} missing pairs, "
            f"first Bel{_pair_repr(domain, *first)}"
        )
    return order


def table_index(
    domain: Domain,
    table: Mapping[tuple[int, int], Fraction],
    bounds: tuple[Fraction, Fraction],
) -> ValueIndex:
    """The value index of a table given as a {(v, u): value} dict.

    The dict must hold every canonical pair: the "table" limit is checked
    first, then completeness, then the first key (in the dict's order)
    that is outside the domain or not canonical, or whose value is not a
    Fraction.
    """
    n = domain.size
    preflight("table", n)
    keys: list[int] = []  # u << n | v of every canonical key
    xs: list[Fraction] = []  # and its value
    error: ValueError | None = None
    for (v, u), x in table.items():
        if u == 0:
            error = error or EmptyConditionError("table conditions on the empty event")
        elif (v | u) >> n:  # a mask is negative or has a bit beyond the atoms
            error = error or BeliefDomainError(
                f"table key (v={v}, u={u}) outside the domain"
            )
        elif v & ~u:
            error = error or BeliefDomainError(
                f"non-canonical table key {_pair_repr(domain, v, u)}"
            )
        else:
            keys.append(u << n | v)
            xs.append(x)
            if not isinstance(x, Fraction):
                error = error or BeliefDomainError("table values must be Fractions")
    order = canonical_order(domain, keys)
    if error is not None:
        raise error
    values, ranks = intern_values(xs + list(bounds))
    pair_rank = np.array(ranks[:-2], dtype=np.int32)[order]
    return ValueIndex(tuple(values), *ranks[-2:], n, pair_rank)


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

    Two backings exist: an explicit table (parsed or hand-built structures),
    held as its `ValueIndex` and read as `values[pair_rank[pos]]`, and a
    weight backing (generated structures), where
    Bel(V|U) = (μ(V∩U)/μ(U))^k for strictly positive atom weights μ.  The
    weight backing keeps large generated domains usable without
    materializing the 3^n-entry table.  It stores and checks the weights as
    integer units over their common denominator (each unit positive, their
    sum the denominator), so a lookup sums ints and builds one Fraction.
    """

    def __init__(
        self,
        domain: Domain,
        *,
        table: Mapping[tuple[int, int], Fraction] | ValueIndex | None = None,
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
        self._index: ValueIndex | None = None
        self._weights: tuple[Fraction, ...] | None = None
        self._exponent = exponent
        self._derived: dict[str, object] = {}
        if isinstance(table, ValueIndex):
            if (table.atoms, table.values[table.e], table.values[table.E]) != (
                domain.size, e, big_e
            ):
                raise BeliefDomainError("value index does not match the domain or bounds")
            self._index = table
        elif table is not None:
            self._index = table_index(domain, table, (e, big_e))
        else:
            ws = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in weights)
            if len(ws) != domain.size:
                raise BeliefDomainError("one weight per atom required")
            self._weights, self._units = ws, weight_units(ws)
            self._exponent = operator.index(exponent)
            if self._exponent < 1:
                raise BeliefDomainError("exponent must be a positive integer")
            self._uniform = min(self._units) == max(self._units)
            self._prefix = list(itertools.accumulate(self._units, initial=0))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_table(cls, domain, table, bounds=(ZERO, ONE)):
        """A table-backed structure from a {(v, u): value} dict, or from a
        `ValueIndex` built for these bounds (as the parser builds one)."""
        return cls(domain, table=table, bounds=bounds)

    @classmethod
    def from_weights(cls, domain, weights, exponent=1, bounds=(ZERO, ONE)):
        return cls(domain, weights=weights, exponent=exponent, bounds=bounds)

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

    def _mass(self, mask: int) -> int:
        """μ(mask) in integer units over the weights' common denominator."""
        if mask & (mask + 1) == 0:  # prefix mask 0b0..01..1
            return self._prefix[mask.bit_length()]
        units = self._units
        total = 0
        while mask:
            low = mask & -mask
            total += units[low.bit_length() - 1]
            mask ^= low
        return total

    # -- lookup -------------------------------------------------------------

    def bel_masks(self, v_mask: int, u_mask: int) -> Fraction:
        if u_mask == 0:
            raise EmptyConditionError("conditioning on the empty event")
        v_mask &= u_mask
        index = self._index
        if index is not None:
            position = pair_position(self._domain.size, v_mask, u_mask)
            return index.values[index.pair_rank[position]]
        ratio = Fraction(self._mass(v_mask), self._mass(u_mask))
        return ratio if self._exponent == 1 else ratio ** self._exponent

    def bel(self, v: Event, u: Event) -> Fraction:
        """Bel(V|U), canonicalized through V∩U.  U must be nonempty."""
        return self.bel_masks(v.mask, u.mask)

    def bel_unconditional(self, v: Event) -> Fraction:
        return self.bel_masks(v.mask, self._domain.full_mask)

    # -- enumeration ---------------------------------------------------------

    def canonical_pair_masks(self) -> Iterator[tuple[int, int]]:
        """All (v_mask, u_mask) with ∅ ≠ U ⊆ W, V ⊆ U, ascending (u, v).  No
        `src/` code calls it (`pair_masks` lists the pairs as arrays); it stays
        as the hook `perfbench/spans.py`'s `CallCounter` counts pair passes on."""
        preflight("pairs", self._domain.size)
        for u in range(1, self._domain.full_mask + 1):
            for v in sorted(_submasks_desc(u)):
                yield v, u

    def canonical_triple_masks(self) -> Iterator[tuple[int, int, int]]:
        """All (b, a, u) masks with B ⊆ A ⊆ U, A ≠ ∅, ascending (u, a, b)."""
        preflight("pairs", self._domain.size)
        subs = [sorted(_submasks_desc(m)) for m in range(self._domain.full_mask + 1)]
        for u in range(1, self._domain.full_mask + 1):
            for a in subs[u]:
                if a == 0:
                    continue
                for b in subs[a]:
                    yield b, a, u

    def items(self) -> Iterator[tuple[int, int, Fraction]]:
        """(v, u, Bel(V|U)) for every canonical pair, in canonical order."""
        index = self.value_index()
        values = index.values
        for v, u, r in index.pairs():
            yield v, u, values[r]

    def as_table(self) -> dict[tuple[int, int], Fraction]:
        """Materialize the canonical table (capped domain size)."""
        return {(v, u): x for v, u, x in self.items()}

    def value_index(self) -> ValueIndex:
        """The rank index of the values (capped domain size).

        A table is its index.  A weight-backed structure builds one on
        first use, from its pairs' masses (μ(V), μ(U)), and keeps it.
        """
        if self._index is not None:
            return self._index
        return self.derived("value-index", BeliefStructure._build_value_index)

    def _build_value_index(self) -> ValueIndex:
        n = self._domain.size
        preflight("pairs", n)
        mu = np.array(subset_sums(self._units), dtype=object)
        v, u = pair_masks(n)
        values, ranks = rank_ratios(mu[v], mu[u], self._exponent, self._bounds)
        e, big_e = ranks[-2:].tolist()
        return ValueIndex(tuple(values), e, big_e, n, ranks[:-2].astype(np.int32))

    def size_ranks(self) -> tuple[list[Fraction], np.ndarray]:
        """(values, size_rank) of a uniform structure, built once: the sorted
        (j/m)^k and bounds, and at [m, j] the rank of Bel(V|U) for
        |V| = j <= |U| = m (0 elsewhere).  Extraction by sizes and
        `attained()` read it in place of the 3^n canonical pairs.  Refused
        over the "size table" limit, before anything is built."""
        if not self.is_uniform:
            raise BeliefDomainError("size ranks require a uniform weight backing")
        preflight("size table", self._domain.size)
        return self.derived("size-ranks", BeliefStructure._build_size_ranks)

    def _build_size_ranks(self) -> tuple[list[Fraction], np.ndarray]:
        n = self._domain.size
        sizes = np.arange(n + 1)
        j = np.concatenate([sizes[:m + 1] for m in range(1, n + 1)])
        m = sizes[1:].repeat(np.arange(2, n + 2))
        values, ranks = rank_ratios(j, m, self._exponent, self._bounds)
        size_rank = np.zeros((n + 1, n + 1), dtype=np.int64)
        # row-major over j <= m from (0, 0), which has no condition; then the bounds
        size_rank[np.tri(n + 1, dtype=bool)] = np.concatenate(([0], ranks[:-2]))
        return values, size_rank

    def derived(self, key: str, build: Callable[["BeliefStructure"], object]):
        """`build(self)`, computed once per structure and kept under `key`.

        Structures are immutable, so results read off them (the value index,
        the size table, the A1/A2 extraction in `coxcheck.forms`) can be
        shared by every consumer.
        """
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def attained(self, kind: str = "conditional") -> list[Fraction]:
        """Strictly sorted, duplicate-free attained values.

        kind 'unconditional' restricts to pairs conditioned on W.  Uniform
        weights read the size table, other weights rank μ(V)/μ(W) or the index.
        """
        if kind not in ("conditional", "unconditional"):
            raise ValueError(f"unknown attained kind {kind!r}")
        n = self._domain.size
        if self.is_weight_backed and not self.is_uniform:
            preflight("subset sums", n)
        if self.is_uniform:
            values, size_rank = self.size_ranks()
            ranks = size_rank[n] if kind == "unconditional" else (
                size_rank[np.tri(n + 1, dtype=bool)][1:])
        elif self.is_weight_backed and kind == "unconditional":
            mu = subset_sums(self._units)
            return rank_ratios(mu, [mu[-1]] * len(mu), self._exponent)[0]
        else:
            index = self.value_index()
            values, ranks = index.values, index.pair_rank
            if kind == "unconditional":
                ranks = ranks[-(1 << n):]  # the full mask's row
        # the ranks that occur, ascending; a plain np.unique would load numpy.ma
        return [values[r] for r in np.flatnonzero(np.bincount(ranks)).tolist()]

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
        """A table-backed copy with every entry passed through `fn`."""
        table = {(v, u): fn(x) for v, u, x in self.items()}
        return BeliefStructure.from_table(self._domain, table, bounds=bounds)

    def __repr__(self):
        backing = (
            f"weights={self._weights!r}, k={self._exponent}"
            if self.is_weight_backed
            else f"{len(self._index.pair_rank)} entries"
        )
        return f"BeliefStructure({self._domain.atoms}, {backing})"
