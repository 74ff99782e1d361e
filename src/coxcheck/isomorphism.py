"""Decide whether a belief structure is isomorphic to a probability measure.

Semantics of the verdicts: a Witness is a strictly positive atom weighting
whose conditional ratios reproduce the structure's value pattern through a
strictly increasing rescaling g with g(e)=0 and g(E)=1 (positive weights are
a deliberate strengthening: zero-weight atoms would leave conditional ratios
undefined).  A Refutation is a finite certificate, re-checkable in exact
arithmetic from the structure alone, that no such weighting exists.  Unknown
means neither was found within the search budget, and nothing is claimed.

The refutation engine propagates forced facts about the ratio assignment
r(v) = g(v) over the quotient of pairs by their belief value: pairs with
empty intersection force r = 0, full pairs force r = 1, chain triples force
r(out) = r(left)·r(right), complement pairs force r(x) + r(y) = 1, and the
strictly-increasing g turns the value order into a ratio order.  Any derived
clash is a sound refutation.  Without a clash, the fixpoint is an exact
partial solution: `decide`'s propagation phase reads a weighting off the
pinned ratios by exact elimination, before any numeric search.

Every phase, the numeric search included, runs on numpy and the standard
library alone: the search is a Levenberg–Marquardt loop of its own
(`_weight_solver`).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

from .core import (
    ZERO, ONE, BeliefStructure, pair_masks, preflight, stable_order, subset_sums,
    weight_units,
)
from .conditions import chain_consistency
from .forms import (
    combination_ranks,
    extract_combination,
    extract_negation,
    instance,
    negation_ranks,
)


def __getattr__(name):
    # `minimize` stays resolvable by name (perfbench/spans.py traces it)
    # without binding anything at import time (PEP 562); no phase calls it
    if name == "minimize":
        import scipy.optimize

        return scipy.optimize.minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class RefutationCertificate:
    """A refutation as its kind, its instances and its description.  An
    instance is the masks of a canonical pair (v, u) or of a chain triple
    (b, a, u); no belief value is stored."""

    kind: str  # 'A1-conflict' | 'A2-conflict' | 'chain-associativity' | 'order-conflict'
    instances: tuple
    description: str

    def recheck(self, structure: BeliefStructure) -> bool:
        """Re-validate from scratch, in exact arithmetic, from the structure.

        Every instance is read back through `forms.instance`: one that is
        not a canonical pair or chain triple of the structure rejects the
        certificate, and the kind's rule is checked on the values read.
        """
        read = [instance(structure, masks) for masks in self.instances]
        if None in read:
            return False
        if self.kind == "order-conflict":
            return _recheck_order_conflict(structure, self.instances, read)
        arity = {"A1-conflict": 1, "A2-conflict": 2}.get(self.kind)
        if arity is not None and len(read) == 2:
            # two instances of equal arguments: these force equal ratios,
            # for A1 of the complements and for A2 of the products, which a
            # strictly increasing g forbids for unequal outputs
            (args_a, out_a), (args_b, out_b) = read
            return len(args_a) == arity and args_a == args_b and out_a != out_b
        if self.kind == "chain-associativity" and [len(a) for a, _ in read] == [2] * 4:
            # the F entries (y,z)→p, (x,y)→q, (x,p)→r and (q,z)→s, with r ≠ s
            ((y, z), p), ((x, y_left), q), (outer_left, r), (outer_right, s) = read
            return y == y_left and outer_left == (x, p) and outer_right == (q, z) and r != s
        return False

    def to_dict(self) -> dict:
        return {"kind": self.kind, "description": self.description}


# -- the ratio-constraint propagation engine -----------------------------------------


class _Contradiction(Exception):
    """A clash: the rules it applies and the pinned ranks it reads, whose
    own rules `_RatioEngine.support` collects."""

    def __init__(self, description: str, rules, premises=()):
        super().__init__(description)
        self.description = description
        self.rules = rules
        self.premises = premises


def _rules_by_value(count: int, *columns):
    """For rules whose value ranks are given column by column, the rules
    that mention each rank, in CSR form: rank v's rules, each once and in
    rule order, are `rules[starts[v]:starts[v + 1]]`."""
    width = max(len(columns[0]), 1)
    rule = np.arange(len(columns[0]), dtype=np.int64)
    code = np.sort(np.concatenate([c * width + rule for c in columns]))
    code = code[np.diff(code, prepend=-1) != 0]  # each once
    starts = np.searchsorted(code, np.arange(count + 1, dtype=np.int64) * width)
    return starts.tolist(), (code % width).tolist()


class _RatioEngine:
    """Exact constraint propagation over the attained-value quotient graph.

    Facts are keyed by value rank (`values[rank]` is the value): ranks
    compare as the values do, so every order rule runs on ints and only the
    messages print values.  `sums` is an int array of rows (x, y, w), each
    for r(x) + r(y) = 1, and `products` one of rows (out, l, r, w), each for
    r(out) = r(l)·r(r), at most one row per rank tuple.  The forced zeros
    and ones, the bounds and the positivity flags come from the structure's
    A1 instances, read as arrays.

    `known` maps each pinned rank to its ratio, and `_basis` maps it to the
    rule that pinned it and the ranks whose ratios that rule read.  A rule
    is ("sum", w) or ("product", w), w the number of its witness instance
    (a forced zero's or one's A1 instance), or ("seed", "g(e)=0") or
    ("seed", "g(E)=1"); the caller turns each w into masks.  `support`
    collects a contradiction's rules from these records, once one is found.

    Once `_seed` returns, every attained value lies in [e, E], e is attained
    at V = ∅ alone and E at V = U alone, and `known` is {e: 0, E: 1}: a
    value other than e forced to 0 is positive, and one other than E forced
    to 1 is below one.  So a product with factor E equals its other factor,
    one with factor e is e itself, and no other value can be pinned to 0
    or 1; the rules for unit and zero factors would never change a ratio,
    and the engine has none.

    `run` applies the rules to a fixpoint.  Those that need no pinned ratio
    run once, as array passes; a worklist then takes each newly pinned value
    in turn and fires only the sums and products that mention it.  Each
    value is pinned at most once, so the run ends after at most
    `len(values)` of them.
    """

    def __init__(self, structure: BeliefStructure, sums, products):
        s = negation_ranks(structure)
        self.values = values = s.values
        e, E = self.e, self.E = [bisect.bisect_left(values, t) for t in structure.bounds]
        # per A1 instance V ⊆ U the entries x = Bel(V|U) and S(x) = Bel(U∖V|U),
        # interleaved, and whether an entry's event (V or U∖V) is empty or
        # all of U; V = ∅ comes first in its row and V = U last
        value = np.stack([np.concatenate(part) for part in zip(*s.layout.chunks())],
                         axis=1).ravel()
        lengths = s.layout.lengths[s.layout.lengths > 0]
        ends = np.cumsum(lengths)
        first, last = np.zeros((2, ends[-1]), dtype=bool)  # V = ∅, V = U
        first[ends - lengths] = last[ends - 1] = True
        empty = np.stack((first, last), axis=1).ravel()
        full = np.stack((last, first), axis=1).ravel()
        self.positive = np.zeros(len(values), dtype=bool)  # r(v) > 0
        self.positive[value[~empty | (value > e)]] = True
        self.below_one = np.zeros(len(values), dtype=bool)  # r(v) < 1
        self.below_one[value[~full | (value < E)]] = True
        self.sums = np.asarray(sums, dtype=np.int64).reshape(-1, 3)
        self.products = np.asarray(products, dtype=np.int64).reshape(-1, 4)
        self._sum_rows = self.sums.tolist()
        self._product_rows = self.products.tolist()
        self._sums_of = _rules_by_value(len(values), *self.sums[:, :2].T)
        self._products_of = _rules_by_value(len(values), *self.products[:, :3].T)
        self.known: dict[int, Fraction] = {}
        self._basis: dict[int, tuple[tuple, tuple]] = {}  # rank -> (rule, premise ranks)
        self._order: list[int] = []  # the known ranks, ascending
        self._queue: list[int] = []  # the known ranks, as they were pinned
        self.contradiction: _Contradiction | None = None
        # seeds are applied in run(), once every positivity flag is known: a
        # value outside [e, E] (kind 0), forced to 0 (1) or forced to 1 (2).
        # Only the first seed of a value and kind can act; those are kept
        kind = np.select([(value < e) | (value > E), empty, full], [0, 1, 2], -1)
        seed = np.flatnonzero(kind >= 0)
        seed = np.sort(seed[np.unique(value[seed] * 3 + kind[seed], return_index=True)[1]])
        self._seeds = list(zip(value[seed].tolist(), kind[seed].tolist(),
                               (seed // 2).tolist()))

    @classmethod
    def from_extraction(cls, structure: BeliefStructure) -> "_RatioEngine":
        """One sum per complement pair {x, S(x)} and one product per F entry,
        read off the ranked S and F arrays; each rule's witness is the
        number of its first instance.

        A sum keeps the witness of x or S(x) whose first instance comes
        first in canonical (u, v) order.
        """
        s, f = negation_ranks(structure), combination_ranks(structure)
        pair = np.minimum(s.keys, s.outs) * len(s.values) + np.maximum(s.keys, s.outs)
        order = np.lexsort((s.first, pair))
        pick = order[np.unique(pair[order], return_index=True)[1]]
        sums = np.stack((s.keys[pick], s.outs[pick], s.first[pick]), axis=1)
        width = len(f.values)
        products = np.stack((f.outs, f.keys // width, f.keys % width, f.first), axis=1)
        return cls(structure, sums, products)

    # fact management --------------------------------------------------------

    def _seed(self):
        for value, kind, instance in self._seeds:
            rule = ("sum", instance)
            if kind == 0:
                v = self.values
                raise _Contradiction(f"attained value {v[value]} lies outside the bounds "
                                     f"[{v[self.e]},{v[self.E]}]", (rule,))
            if kind == 1:
                self._set(value, ZERO, rule, (), "empty intersection forces ratio 0")
            else:
                self._set(value, ONE, rule, (), "full conditioning event forces ratio 1")
        if self.positive[self.e] or self.below_one[self.e] or self.e in self.known:
            self._set(self.e, ZERO, ("seed", "g(e)=0"), (), "g(e) = 0")
        if self.positive[self.E] or self.below_one[self.E] or self.E in self.known:
            self._set(self.E, ONE, ("seed", "g(E)=1"), (), "g(E) = 1")

    def _set(self, value: int, ratio: Fraction, rule: tuple, premises: tuple, why: str):
        """Pin r(value) = ratio by `rule` from the ratios of `premises`."""
        x = self.values[value]
        if value in self.known:
            old = self.known[value]
            if old != ratio:
                raise _Contradiction(f"r({x}) forced to both {old} and {ratio} ({why})",
                                     (rule,), (*premises, value))
            return
        if ratio < 0 or ratio > 1:
            raise _Contradiction(
                f"r({x}) forced to {ratio} outside [0,1] ({why})", (rule,), premises
            )
        if ratio == 0 and self.positive[value]:
            raise _Contradiction(
                f"r({x}) forced to 0 but {x} is attained at a nonempty "
                f"intersection or exceeds e ({why})",
                (rule,), premises,
            )
        if ratio == 1 and self.below_one[value]:
            raise _Contradiction(
                f"r({x}) forced to 1 but {x} is attained at a proper "
                f"subevent or is below E ({why})",
                (rule,), premises,
            )
        self.known[value] = ratio
        self._basis[value] = (rule, premises)
        bisect.insort(self._order, value)
        self._queue.append(value)

    def support(self, rules, premises) -> set:
        """`rules` and every rule that the ratios pinned at `premises` rest
        on, through their parents in `_basis`."""
        found, seen, stack = set(rules), set(), list(premises)
        while stack:
            value = stack.pop()
            if value not in seen:
                seen.add(value)
                rule, parents = self._basis[value]
                found.add(rule)
                stack.extend(parents)
        return found

    # rules ----------------------------------------------------------------

    def _check_pair_order(self, v1: int, v2: int):
        r1, r2 = self.known[v1], self.known[v2]
        if not r1 < r2:
            x1, x2 = self.values[v1], self.values[v2]
            raise _Contradiction(
                f"value order broken: {x1} < {x2} but r({x1}) = {r1} ≥ "
                f"r({x2}) = {r2}",
                (), (v1, v2),
            )

    def _check_neighbours(self, value: int):
        """A strictly increasing g orders a pinned value's ratio between
        those of its neighbours among the known ranks.  Checking each value
        when it is taken off the worklist covers every pair that ends up
        adjacent: known values are only ever added, so two values adjacent
        at the end were adjacent when the later of them was taken."""
        order = self._order
        at = bisect.bisect_left(order, value)
        if at > 0:
            self._check_pair_order(order[at - 1], value)
        if at + 1 < len(order):
            self._check_pair_order(value, order[at + 1])

    def _check_sum_order(self):
        # r(x) + r(y) = 1 pairs: as x grows, y must strictly shrink.  Both
        # orientations of every equation enter the scan so the adjacent-pair
        # argument is complete.  Each value has one complement: two sums
        # sharing x would read S(x) twice, an A1 clash, which refutation
        # search reports before the engine runs.
        x, y, w = self.sums.T
        two = x != y
        x, y, w = (np.concatenate(p) for p in ((x, y[two]), (y, x[two]), (w, w[two])))
        order = np.lexsort((y, x))
        x, y, w = x[order], y[order], w[order]
        bad = np.flatnonzero((x[:-1] < x[1:]) & (y[:-1] <= y[1:]))
        if len(bad):
            i = int(bad[0])
            v = self.values
            (x1, x2), (y1, y2) = x[i:i + 2].tolist(), y[i:i + 2].tolist()
            raise _Contradiction(
                f"complement order broken: {v[x1]} < {v[x2]} but complements "
                f"{v[y1]} ≤ {v[y2]}",
                (("sum", int(w[i])), ("sum", int(w[i + 1]))),
            )

    def _check_product_groups(self):
        """Cross-equation rules that need no derived values.

        A shared positive factor cancels, forcing the cofactors' ratios
        equal, and distinct values forced to one ratio contradict the
        strictly increasing g.  Each group is found by sorting the products
        on its key; the message names a group's two least members.
        """
        out, left, right, w = self.products.T
        v = self.values

        for shared, cofactor in ((left, right), (right, left)):
            # sorted on (out, shared, cofactor); `same` marks each product
            # that starts a group of equal (out, shared) with another after it
            order = np.lexsort((cofactor, shared, out))
            same = (np.diff(shared[order]) == 0) & (np.diff(out[order]) == 0)
            start = np.flatnonzero(same & (self.positive[shared] | self.positive[out])[order[:-1]])
            if not len(start):
                continue
            # the group met first in (out, left, right) order
            start = start[np.lexsort((shared[order[start]], left[order[start]],
                                      out[order[start]]))[0]]
            i, j = order[start:start + 2].tolist()
            o, s, c1, c2 = v[out[i]], v[shared[i]], v[cofactor[i]], v[cofactor[j]]
            raise _Contradiction(
                f"cancelling the positive shared factor r({s}) in "
                f"r({o}) = r({s})·r({c1}) = r({s})·r({c2}) "
                f"forces r({c1}) = r({c2}) with {c1} ≠ {c2}",
                (("product", int(w[i])), ("product", int(w[j]))),
            )

    def _apply_static(self):
        """The rules that need no pinned ratio, as array passes: a
        self-complementary value has ratio 1/2, and r(out) = r(l)·r(r) ≤
        min(r(l), r(r)), so the product never exceeds a factor.  A product
        equal to a positive factor, F(l, r) = l with r < E, needs no rule of
        its own: it shares (out, l) with the unit product F(l, E) = l of the
        instance B ⊆ A ⊆ A, and `_check_product_groups` refutes the pair."""
        x, y, w = self.sums.T
        for i in np.flatnonzero(x == y).tolist():
            self._set(int(x[i]), Fraction(1, 2), ("sum", int(w[i])), (),
                      "self-complementary value")
        out, left, right, _ = self.products.T
        bad = np.flatnonzero((out > left) | (out > right))
        if len(bad):
            out, l, r, witness = self._product_rows[int(bad[0])]
            v = self.values
            raise _Contradiction(
                f"product exceeds a factor: r({v[out]}) = r({v[l]})·r({v[r]}) "
                f"but {v[out]} > {v[l if out > l else r]}",
                (("product", witness),),
            )

    def _apply_sum(self, i: int):
        x, y, witness = self._sum_rows[i]
        if x == y:
            return  # pinned to 1/2 by the static pass
        rule = ("sum", witness)
        kx = self.known.get(x)
        ky = self.known.get(y)
        v = self.values
        if kx is not None and ky is not None:
            if kx + ky != 1:
                raise _Contradiction(f"r({v[x]}) + r({v[y]}) = {kx + ky} ≠ 1", (rule,), (x, y))
        elif kx is not None:
            self._set(y, 1 - kx, rule, (x,), f"complement of {v[x]}")
        elif ky is not None:
            self._set(x, 1 - ky, rule, (y,), f"complement of {v[y]}")

    def _apply_product(self, i: int):
        out, l, r, witness = self._product_rows[i]
        known = self.known
        a, b, c = known.get(l), known.get(r), known.get(out)
        if a is not None and b is not None:
            # settled when r(out) is pinned to r(l)·r(r) already
            if c is None or (a.numerator * b.numerator * c.denominator
                             != c.numerator * a.denominator * b.denominator):
                self._set(out, a * b, ("product", witness), (l, r), "product")
        elif c is not None and a:
            self._set(r, c / a, ("product", witness), (out, l), "quotient")
        elif c is not None and b:
            self._set(l, c / b, ("product", witness), (out, r), "quotient")

    def run(self) -> "_RatioEngine":
        try:
            self._seed()
            self._check_sum_order()
            self._check_product_groups()
            self._apply_static()
            (sum_starts, sums_of), (product_starts, products_of) = (
                self._sums_of, self._products_of)
            taken = 0
            while taken < len(self._queue):
                value = self._queue[taken]
                taken += 1
                self._check_neighbours(value)
                for i in sums_of[sum_starts[value]:sum_starts[value + 1]]:
                    self._apply_sum(i)
                for i in products_of[product_starts[value]:product_starts[value + 1]]:
                    self._apply_product(i)
        except _Contradiction as exc:
            self.contradiction = exc
        return self


def _recheck_order_conflict(structure: BeliefStructure, instances, read) -> bool:
    """Re-run the engine on an order conflict's own instances, `read`
    through `forms.instance`: a pair is a sum rule, a chain triple a
    product rule."""
    values = negation_ranks(structure).values
    sums: dict[tuple, tuple] = {}
    products: dict[tuple, tuple] = {}
    # products first, each kind in canonical order, which is ascending
    # reversed masks; a rule's witness is its place in the certificate,
    # which nothing reads
    for _, (args, out) in sorted(zip(instances, read),
                                 key=lambda i: (len(i[0]) == 2, tuple(i[0][::-1]))):
        out, *args = (bisect.bisect_left(values, x) for x in (out, *args))
        if len(args) == 1:
            (x,) = args
            sums.setdefault((min(x, out), max(x, out)), (x, out, len(sums)))
        else:
            products.setdefault((out, *args), (out, *args, len(products)))
    engine = _RatioEngine(structure, list(sums.values()), list(products.values())).run()
    return engine.contradiction is not None


def _fixpoint(structure: BeliefStructure) -> _RatioEngine:
    """The ratio engine on the structure's S and F arrays, run to its
    fixpoint; memoized, so `decide` reads the run of refutation search."""
    return structure.derived(
        "ratio-engine", lambda s: _RatioEngine.from_extraction(s).run()
    )


def refutation_search(structure: BeliefStructure) -> RefutationCertificate | None:
    """Sound refutation certificates only; None when nothing is found.

    Tried in order: A1 extraction conflict (equal values with unequal
    complements force equal ratios for distinct values), A2 extraction
    conflict, composite chain associativity, and the ratio-propagation
    engine's order conflicts.  All of them read extraction's rank arrays;
    the Fraction forms are built only for an A1 or A2 certificate, and
    witness masks only for the rules a certificate names.
    """
    for kind, ranks, extract, why in (
        ("A1-conflict", negation_ranks, extract_negation,
         "; equal values force equal ratios, so the two complement values "
         "would share one ratio under a strictly increasing g"),
        ("A2-conflict", combination_ranks, extract_combination,
         "; equal argument ratios force equal product ratios for two distinct values"),
    ):
        if ranks(structure).clash is not None:
            conflict = extract(structure)
            return RefutationCertificate(
                kind, (conflict.instance_a, conflict.instance_b),
                conflict.describe(structure.domain) + why)
    chain_report = chain_consistency(structure)
    if chain_report.status == "fail":
        return RefutationCertificate(
            "chain-associativity", chain_report.certificate,
            chain_report.detail,
        )
    engine = _fixpoint(structure)
    contradiction = engine.contradiction
    if contradiction is not None:
        ranked = {"sum": negation_ranks(structure), "product": combination_ranks(structure)}
        tagged = sorted(
            (kind, ranked[kind].masks(w)[0])
            for kind, w in engine.support(contradiction.rules, contradiction.premises)
            if kind in ranked
        )
        return RefutationCertificate("order-conflict", tuple(m for _, m in tagged),
                                     contradiction.description)
    return None


# -- witnesses -----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityWitness:
    """Strictly positive atom weights summing to 1, checked exactly."""

    weights: dict

    def as_fractions(self, domain) -> list[Fraction]:
        return [Fraction(self.weights[a]) for a in domain.atoms]

    def to_dict(self) -> dict:
        return {"weights": {a: str(w) for a, w in self.weights.items()}}


@dataclass(frozen=True)
class RescalingMap:
    """Monotone piecewise-linear g through the attained-value graph."""

    points: tuple[tuple[Fraction, Fraction], ...]  # (value, ratio), ascending

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        for (v1, r1), (v2, r2) in zip(pts, pts[1:]):
            if not (v1 < v2 and r1 < r2):
                raise ValueError("rescaling graph must be strictly increasing")

    @property
    def graph(self) -> dict:
        return dict(self.points)

    def __call__(self, value):
        value = Fraction(value)
        pts = self.points
        if value < pts[0][0] or value > pts[-1][0]:
            raise ValueError(f"{value} outside the rescaling domain")
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= value:
                lo = mid
            else:
                hi = mid
        (v1, r1), (v2, r2) = pts[lo], pts[hi]
        if value == v1:
            return r1
        return r1 + (r2 - r1) * (value - v1) / (v2 - v1)

    def to_dict(self) -> dict:
        return {str(v): str(r) for v, r in self.points}


@dataclass(frozen=True)
class WitnessCheck:
    passed: bool
    failing: str | None
    graph: tuple[tuple[int, Fraction, Fraction], ...] | None  # (rank, x, g(x)), ascending

    @property
    def ratio_map(self) -> dict | None:
        """g on the attained values, as {value: ratio}."""
        return None if self.graph is None else {x: g for _, x, g in self.graph}


class _ValueClasses(NamedTuple):
    order: np.ndarray  # the pair positions, in class order
    ranks: np.ndarray  # each class's value rank
    starts: np.ndarray  # each class's first entry
    owner: np.ndarray  # each entry's class
    v: np.ndarray  # each entry's masks
    u: np.ndarray


def _value_classes(structure: BeliefStructure) -> _ValueClasses:
    """The canonical pairs grouped by value class, classes ascending and
    each class's pairs in canonical order; built once, and read by every
    phase that reads weights (the exact check, the numeric search)."""
    def build(s: BeliefStructure) -> _ValueClasses:
        index = s.value_index()
        order = stable_order(index.pair_rank)
        ranks = index.pair_rank[order]
        first = np.diff(ranks, prepend=-1) != 0
        starts = np.flatnonzero(first)
        return _ValueClasses(order, ranks[starts], starts, np.cumsum(first) - 1,
                             *(m[order] for m in pair_masks(index.atoms)))
    return structure.derived("value-classes", build)


def verify_witness(structure: BeliefStructure, weights) -> WitnessCheck:
    """Exact check of a weighting against the structure.

    (i) equal belief values always map to equal conditional ratios,
    (ii) the induced value→ratio map is strictly increasing,
    (iii) it sends e to 0 and E to 1 where those values are attained, no
    attained value lies outside [e, E], and the map stays strictly
    increasing once extended by (e, 0) and (E, 1).

    The product rule g(Bel(V|U))·g(Bel(U|W)) = g(Bel(V|W)) needs no check
    of its own: once (i) holds, each class's ratio is exactly μ(V)/μ(U) at
    each of its pairs, and μ(V)/μ(U)·μ(U)/μ(W) = μ(V)/μ(W).

    One pass over `_value_classes`: μ of every event is an integer over the
    weights' common denominator, and a ratio μ(V)/μ(U) is compared by
    cross-multiplication, which is exact.  The masses are int64 when that
    denominator is below 2^31, so every cross product fits, and Python ints
    in an object array otherwise; the same expressions read both.
    """
    domain = structure.domain
    if isinstance(weights, Mapping):
        ws = [Fraction(weights[a]) for a in domain.atoms]
    else:
        ws = [Fraction(w) for w in weights]
        if len(ws) != domain.size:
            raise ValueError("one weight per atom required")
    index = structure.value_index()  # the atom cap, before the 2^n subset sums
    mu = subset_sums(weight_units(ws, "witness weights"))
    mu = np.array(mu, dtype=np.int64 if mu[-1] < 1 << 31 else object)
    values = index.values
    order, ranks, starts, owner, v, u = _value_classes(structure)
    p, q = mu[v], mu[u]

    def ratio(entry) -> Fraction:
        return Fraction(int(p[entry]), int(q[entry]))
    # (i) against each class's first pair; the failure first in canonical order
    bad = np.flatnonzero(p * q[starts[owner]] != p[starts[owner]] * q)
    if len(bad):
        i = bad[np.argmin(order[bad])]
        return WitnessCheck(False, f"single-valuedness: value {values[ranks[owner[i]]]} maps "
                            f"to ratios {ratio(starts[owner[i]])} and {ratio(i)}", None)
    a, b = starts[:-1], starts[1:]  # (ii) on adjacent classes' first pairs
    bad = np.flatnonzero(p[a] * q[b] >= p[b] * q[a])
    if len(bad):
        c = bad[0]
        return WitnessCheck(False, f"strict increase: values {values[ranks[c]]} < "
                            f"{values[ranks[c + 1]]} map to ratios {ratio(a[c])} ≥ "
                            f"{ratio(b[c])}", None)
    g = dict(zip(ranks.tolist(), map(Fraction, p[starts].tolist(), q[starts].tolist())))
    for x, end in ((index.e, 0), (index.E, 1)):  # (iii)
        if g.get(x, end) != end:
            return WitnessCheck(False, f"endpoint: g({values[x]}) = {g[x]} ≠ {end}", None)
    low, high = ranks[0], ranks[-1]  # the least and greatest class; e and E are ranked too
    for x in (low, high):
        if not index.e <= x <= index.E:
            return WitnessCheck(False, f"endpoint: attained value {values[x]} lies outside "
                                f"the bounds [{values[index.e]},{values[index.E]}]", None)
    for x, y, r, s in ((index.e, low, ZERO, g[low]), (high, index.E, g[high], ONE)):
        if x < y and r >= s:
            return WitnessCheck(False, f"strict increase: values {values[x]} < {values[y]} "
                                f"map to ratios {r} ≥ {s}", None)
    return WitnessCheck(True, None, tuple((x, values[x], r) for x, r in g.items()))


def rescaling_from_witness(structure: BeliefStructure, weights) -> RescalingMap:
    """The graph of g on attained values, extended to (e,0) and (E,1)."""
    check = verify_witness(structure, weights)
    if not check.passed:
        raise ValueError(f"weights are not a witness: {check.failing}")
    return _rescaling(structure, check)


def _rescaling(structure: BeliefStructure, check: WitnessCheck) -> RescalingMap:
    """The witness's graph with e and E added at their ranks where they are
    not attained; ranks order the points, so no value is hashed or sorted."""
    index = structure.value_index()
    g = {x: ratio for x, _, ratio in check.graph}
    g.setdefault(index.e, ZERO)
    g.setdefault(index.E, ONE)
    return RescalingMap(tuple((index.values[x], ratio) for x, ratio in sorted(g.items())))


# -- the decision pipeline -------------------------------------------------------------


def check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance that is negative, NaN or infinite (ValueError).

    `decide`'s `--tol` and `equations`' `--tol` share this check.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, not {tolerance}")


@dataclass(frozen=True)
class DecisionParams:
    """Numeric-phase settings; `restarts=0` skips that phase (an honest
    unknown where the exact phases, structured candidates, refutation
    search and propagation, settle nothing).

    `restarts` seeded starts each run the least-squares search, `budget`
    caps the solver's evaluations per solve, and a solution is rounded to
    rational candidates only when its squared residual is below `tolerance`.
    """

    restarts: int = 8
    budget: int = 400
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError(f"restarts must be nonnegative, not {self.restarts}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, not {self.budget}")
        check_tolerance(self.tolerance)


@dataclass(frozen=True)
class IsomorphismVerdict:
    kind: str  # 'witness' | 'refutation' | 'unknown'
    witness: ProbabilityWitness | None = None
    rescaling: RescalingMap | None = None
    certificate: RefutationCertificate | None = None
    budget: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "budget": dict(self.budget)}
        if self.witness is not None:
            out["weights"] = self.witness.to_dict()["weights"]
            out["exact"] = True  # every witness passed verify_witness
        if self.rescaling is not None:
            out["g-graph"] = self.rescaling.to_dict()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _int_root(n: int, k: int) -> int | None:
    """The exact k-th root (k = 2, 3 or 4) of a nonnegative int, or None."""
    if k == 3 and n > 0:
        # integer Newton from above decreases to the floor of the cube root
        r = 1 << -(-n.bit_length() // 3)
        while (s := (2 * r + n // (r * r)) // 3) < r:
            r = s
    else:
        r = math.isqrt(n) if k == 2 else math.isqrt(math.isqrt(n))
    return r if r ** k == n else None


def _fraction_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None."""
    num, den = _int_root(x.numerator, k), _int_root(x.denominator, k)
    return None if num is None or den is None else Fraction(num, den)


def _structured_candidates(structure: BeliefStructure):
    """Exact witness guesses from the unconditional singleton values.

    The affine-normalized identity covers probability-generated structures
    (and their affine relabelings); exact k-th roots and k-th powers cover
    power-law rescalings.  Every candidate is verified exactly before use.
    """
    domain = structure.domain
    e, big_e = structure.bounds
    span = big_e - e
    full = domain.full_mask
    base = [
        (structure.bel_masks(1 << i, full) - e) / span for i in range(domain.size)
    ]
    if all(b > 0 for b in base):
        if sum(base) == 1:
            yield base
        for k in (2, 3, 4):
            roots = [_fraction_root(b, k) for b in base]
            if all(r is not None and r > 0 for r in roots) and sum(roots) == 1:
                yield roots
        for k in (2, 3):
            powers = [b ** k for b in base]
            if sum(powers) == 1:
                yield powers


def _pinned_weights(structure: BeliefStructure, known) -> list[Fraction] | None:
    """The one weighting that the ratios pinned in `known` allow, or None.

    A pair (V, U) of a value whose ratio p/q is pinned in (0, 1) says
    q·μ(V) − p·μ(U) = 0, an integer row over the atom weights.  The rows
    are taken in canonical order and eliminated fraction-free, each kept in
    lowest terms and reduced against the others, until their rank is n − 1.
    Their null vector is then the only weighting up to scale; it is
    returned, normalized, if it is strictly positive.  The rows not read
    are not checked here, so only `verify_witness` makes it a witness.
    """
    n = structure.domain.size
    index = structure.value_index()
    ratios = {x: r for x, r in known.items() if 0 < r < 1}
    pinned = np.zeros(len(index.values), dtype=bool)
    pinned[list(ratios)] = True
    at = np.flatnonzero(pinned[index.pair_rank])
    basis: dict[int, list[int]] = {}  # pivot column -> a row zero at every other pivot
    for v, u, x in zip(*(m.tolist() for m in pair_masks(n, at)), index.pair_rank[at].tolist()):
        if len(basis) == n - 1:
            break
        p, q = ratios[x].numerator, ratios[x].denominator
        row = [q - p if v >> i & 1 else -p if u >> i & 1 else 0 for i in range(n)]
        for c, b in basis.items():
            if row[c]:
                row = _lowest([b[c] * t - row[c] * s for t, s in zip(row, b)])
        pivot = next((c for c, t in enumerate(row) if t), None)
        if pivot is None:
            continue
        for c, b in basis.items():
            if b[pivot]:
                basis[c] = _lowest([row[pivot] * s - b[pivot] * t for s, t in zip(b, row)])
        basis[pivot] = row
    if len(basis) != n - 1:
        return None
    (free,) = set(range(n)) - set(basis)
    w = [Fraction(1)] * n
    for c, b in basis.items():
        w[c] = Fraction(-b[free], b[c])
    if not all(x > 0 for x in w):
        return None
    total = sum(w)
    return [x / total for x in w]


def _lowest(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [t // g for t in row] if g > 1 else row


def _weight_solver(structure: BeliefStructure, budget: int, report: dict):
    """The numeric phase's least-squares problem over the atom weights.

    The weights are w = (1, w_1, ..., w_{n-1}): a ratio μ(V)/μ(U) does not
    see their scale, so fixing w_0 loses nothing.  The residuals are each
    pair's ratio minus its value class's mean, then a hinge on adjacent class
    means less than 1e-7 apart or out of order, then, with `pull`, the mild
    pull 1e-2·(mean − normalized value) of each class.  `solve(w, free,
    pull)` moves the weights flagged `free` by Levenberg–Marquardt steps in
    their logarithms, so every iterate stays positive, within `budget`
    evaluations; it returns them with the squared residual left without the
    pull, and adds its evaluations to `report["iterations"]`.
    """
    n = structure.domain.size
    values = structure.value_index().values
    _, ranks, starts, owner, v, u = _value_classes(structure)
    sizes = np.diff(starts, append=len(owner))
    e, big_e = structure.bounds
    # normalized exactly, so huge bounds never pass through a float
    targets = np.array([float((values[x] - e) / (big_e - e)) for x in ranks.tolist()])
    bits = 1 << np.arange(n)
    v_in, u_in = ((m[:, None] & bits != 0).astype(float) for m in (v, u))

    def residuals(w, pull):
        """The residual vector at the weights w and its Jacobian in log w;
        ∂(μ(V)/μ(U))/∂log w_i = (1_V(i) − 1_U(i)·ratio)·w_i/μ(U) lies in
        [−1, 1], whatever the scale of w."""
        mu_v, mu_u = v_in @ w, u_in @ w
        ratios = mu_v / mu_u
        d_ratios = (v_in - u_in * ratios[:, None]) * w / mu_u[:, None]
        means = np.add.reduceat(ratios, starts) / sizes
        d_means = np.add.reduceat(d_ratios, starts) / sizes[:, None]
        gaps = means[:-1] + 1e-7 - means[1:]
        on = gaps > 0
        res = [ratios - means[owner], np.where(on, gaps, 0.0)]
        jac = [d_ratios - d_means[owner], np.where(on[:, None], d_means[:-1] - d_means[1:], 0.0)]
        if pull:
            res.append(1e-2 * (means - targets))
            jac.append(1e-2 * d_means)
        return np.concatenate(res), np.concatenate(jac)

    def solve(w, free, pull):
        # a trial point can overflow or divide 0 by 0: its cost is then not
        # below the current one, and it is rejected
        with np.errstate(all="ignore"):
            res, jac = residuals(w, pull)
            cost, damping, evaluations = res @ res, 1e-3, 1
            while evaluations < budget and 0 < cost < math.inf:
                j = jac[:, free]
                gradient, normal = j.T @ res, j.T @ j
                if not np.abs(gradient).max() > 1e-15:
                    break
                step = np.linalg.solve(normal + damping * np.diag(np.diag(normal) + 1e-12),
                                       -gradient)
                # the decrease the linearized residuals promise
                if not cost - np.sum((res + j @ step) ** 2) > 1e-15 * cost:
                    break
                trial = w.copy()
                trial[free] *= np.exp(step)
                trial_res, trial_jac = residuals(trial, pull)
                evaluations += 1
                trial_cost = trial_res @ trial_res
                if not trial_cost < cost:  # NaN included
                    damping *= 10
                    continue
                stalled = cost - trial_cost <= 1e-15 * cost
                w, res, jac, cost = trial, trial_res, trial_jac, trial_cost
                damping = max(damping / 10, 1e-12)
                if stalled:
                    break
            report["iterations"] += evaluations
            return w, float(np.sum(residuals(w, False)[0] ** 2))

    return solve


def _rounded(w):
    """Continued-fraction approximants of w of growing denominator,
    normalized to sum to 1."""
    for cap in (10, 100, 1000, 10 ** 6):
        ws = [Fraction(x).limit_denominator(cap) for x in w]
        if all(x > 0 for x in ws):
            total = sum(ws)
            yield [x / total for x in ws]


def _numeric_candidates(structure: BeliefStructure, params: DecisionParams, report: dict):
    """Rational weightings read off least-squares solutions, in the order to
    check them.

    Each restart solves from a seeded random start with the pull, then
    polishes without it.  A solution whose squared residual is below
    `params.tolerance` is rounded; then the rational-point step fixes one
    weight after another to a small-denominator approximant, re-solves the
    rest and rounds again, which finds a rational point of a feasible set
    that is more than a point.  Only the exact check makes any of them a
    witness.  `report` counts restarts and evaluations and keeps the least
    residual.
    """
    n = structure.domain.size
    solve = _weight_solver(structure, params.budget, report)
    for i in range(params.restarts):
        report["restarts"] += 1
        rng = random.Random(params.seed * 1000003 + i)
        w = np.array([1.0] + [math.exp(rng.gauss(0.0, 1.5)) for _ in range(n - 1)])
        free = np.arange(n) > 0
        w, _ = solve(w, free, pull=True)
        w, residual = solve(w, free, pull=False)
        report["best_penalty"] = min(report["best_penalty"], residual)
        if not residual < params.tolerance:  # NaN included
            continue
        yield from _rounded(w)
        for j in range(1, n - 1):
            w[j] = float(Fraction(w[j]).limit_denominator(10))
            free[j] = False
            w, residual = solve(w, free, pull=False)
            if residual < params.tolerance:
                yield from _rounded(w)


def decide(structure: BeliefStructure, params: DecisionParams | None = None) -> IsomorphismVerdict:
    """Witness, Refutation, or an honest Unknown.

    Pipeline: exact structured candidates (affine identity, power laws)
    first; then refutation search; then propagation, the weighting that
    the ratio engine's fixpoint pins (`_pinned_weights`); then the seeded
    least-squares search of `_numeric_candidates`.  Trying candidates before
    refutation search is sound because `verify_witness` is exact: a
    structure with a verified witness is a rescaled probability, so no valid
    refutation exists and the search could only find nothing.  Propagation
    reads the engine run that refutation search left memoized, so it costs
    one small elimination.  The numeric phase stays last, so a refutable
    structure never pays for its failed restarts.  Every witness
    passes `verify_witness` in exact arithmetic; a near-solution that no
    rational weighting near it confirms is an Unknown, as is an exhausted
    budget.
    """
    params = params or DecisionParams()
    preflight("pairs", structure.domain.size)  # every phase reads the canonical pairs
    budget_report = {"restarts": 0, "iterations": 0, "phase": "structured-candidates"}

    def exact_witness(weights) -> IsomorphismVerdict | None:
        check = verify_witness(structure, weights)
        if not check.passed:
            return None
        return IsomorphismVerdict(
            "witness",
            witness=ProbabilityWitness(dict(zip(structure.domain.atoms, weights))),
            rescaling=_rescaling(structure, check),
            budget=budget_report,
        )

    for candidate in _structured_candidates(structure):
        verdict = exact_witness(candidate)
        if verdict is not None:
            return verdict

    budget_report["phase"] = "refutation"
    certificate = refutation_search(structure)
    if certificate is not None:
        return IsomorphismVerdict(
            "refutation", certificate=certificate, budget=budget_report
        )

    budget_report["phase"] = "propagation"
    weights = _pinned_weights(structure, _fixpoint(structure).known)
    if weights is not None and (verdict := exact_witness(weights)) is not None:
        return verdict

    # one atom has the one weighting, which the structured candidates tried
    if params.restarts > 0 and structure.domain.size > 1:
        budget_report.update({"phase": "numeric", "best_penalty": math.inf})
        for candidate in _numeric_candidates(structure, params, budget_report):
            verdict = exact_witness(candidate)
            if verdict is not None:
                return verdict
    return IsomorphismVerdict("unknown", budget=budget_report)
