"""Decide whether a belief structure is isomorphic to a probability measure.

Semantics of the verdicts: a Witness is a strictly positive atom weighting
whose conditional ratios reproduce the structure's value pattern through a
strictly increasing rescaling g with g(e)=0 and g(E)=1 (positive weights are
a deliberate strengthening: zero-weight atoms would leave conditional ratios
undefined).  A Refutation is a finite certificate, re-checkable in exact
arithmetic from the structure alone, that no such weighting exists.  Unknown
means the search budget ran out and nothing is claimed.

The refutation engine propagates forced facts about the ratio assignment
r(v) = g(v) over the quotient of pairs by their belief value: pairs with
empty intersection force r = 0, full pairs force r = 1, chain triples force
r(out) = r(left)·r(right), complement pairs force r(x) + r(y) = 1, and the
strictly-increasing g turns the value order into a ratio order.  Any derived
clash is a sound refutation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy.optimize import minimize

from .core import ZERO, ONE, BeliefStructure, Event, subset_sums
from .conditions import chain_consistency
from .forms import (
    CombinationConflict,
    CombinationForm,
    NegationConflict,
    NegationForm,
    _negation_instances,
    extract_combination,
    extract_negation,
)


# -- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class OrderConflictData:
    """A contradictory set of forced-ratio constraint instances.

    Instances are ('product', (b,a,u)) and ('sum', (v,u)) tuples of event
    masks; seeds (forced zeros/ones, bounds, the value order) are re-derived
    from the structure during recheck.
    """

    instances: tuple
    description: str


@dataclass(frozen=True)
class RefutationCertificate:
    kind: str  # 'A1-conflict' | 'A2-conflict' | 'chain-associativity' | 'order-conflict'
    data: object
    description: str

    def recheck(self, structure: BeliefStructure) -> bool:
        """Re-validate from scratch, in exact arithmetic, from the structure."""
        if self.kind == "A1-conflict":
            c: NegationConflict = self.data
            va, ua = c.pair_a
            vb, ub = c.pair_b
            if structure.bel_masks(va, ua) != c.value:
                return False
            if structure.bel_masks(vb, ub) != c.value:
                return False
            out_a = structure.bel_masks(ua ^ (va & ua), ua)
            out_b = structure.bel_masks(ub ^ (vb & ub), ub)
            # equal values force equal ratios; complements then share a ratio,
            # which a strictly increasing g forbids for distinct values
            return out_a == c.output_a and out_b == c.output_b and out_a != out_b
        if self.kind == "A2-conflict":
            c: CombinationConflict = self.data
            b1, a1, u1 = c.triple_a
            b2, a2, u2 = c.triple_b
            key1 = (structure.bel_masks(b1, a1), structure.bel_masks(a1, u1))
            key2 = (structure.bel_masks(b2, a2), structure.bel_masks(a2, u2))
            out1 = structure.bel_masks(b1, u1)
            out2 = structure.bel_masks(b2, u2)
            return (
                key1 == key2 == c.args
                and out1 == c.output_a
                and out2 == c.output_b
                and out1 != out2
            )
        if self.kind == "chain-associativity":
            return self.data.recheck(structure)
        if self.kind == "order-conflict":
            return _recheck_order_conflict(self.data, structure)
        return False

    def to_dict(self) -> dict:
        return {"kind": self.kind, "description": self.description}


# -- the ratio-constraint propagation engine -----------------------------------------


class _Contradiction(Exception):
    def __init__(self, description: str, eqset: frozenset):
        super().__init__(description)
        self.description = description
        self.eqset = eqset


class _RatioEngine:
    """Exact constraint propagation over the attained-value quotient graph.

    Facts are keyed by value rank (`values[rank]` is the value): ranks
    compare as the values do, so every order rule runs on ints and only the
    messages print values.  `sums` holds (x, y, (v,u)) for r(x) + r(y) = 1
    and `products` holds (out, l, r, (b,a,u)) for r(out) = r(l)·r(r), each
    at most once per value tuple; both are given as values and stored as
    ranks.  The forced zeros and ones, the bounds and the positivity flags
    come from one pass over the structure's A1 instances.
    """

    def __init__(self, structure: BeliefStructure, sums, products):
        values, instances = _negation_instances(structure)
        self.values = values
        rank_of = {x: r for r, x in enumerate(values)}
        e, big_e = structure.bounds
        self.e, self.E = rank_of[e], rank_of[big_e]
        self.positive: set[int] = set()  # r(v) > 0 forced
        self.below_one: set[int] = set()  # r(v) < 1 forced
        self.known: dict[int, tuple[Fraction, frozenset]] = {}
        self.sums = sorted((rank_of[x], rank_of[y], w) for x, y, w in sums)
        self.products = sorted(
            (rank_of[out], rank_of[l], rank_of[r], w) for out, l, r, w in products
        )
        self.contradiction: _Contradiction | None = None
        # seeds are applied in run(), once every positivity flag is known
        self._seeds: list[tuple[int, int, int, tuple]] = []
        for x, s_x, (v, u) in instances:
            for value, vm in ((x, v), (s_x, u ^ v)):
                self._note_flags(value, vm, u)
                if vm == 0 or vm == u or not self.e <= value <= self.E:
                    self._seeds.append((value, vm, u, (v, u)))

    @classmethod
    def from_forms(
        cls, structure: BeliefStructure, negation: NegationForm,
        combination: CombinationForm,
    ) -> "_RatioEngine":
        """One sum per complement pair {x, S(x)} and one product per F entry.

        A sum keeps the witness of x or S(x) that comes first in canonical
        (u, v) order, which is the first A1 instance showing that pair.
        """
        first: dict[tuple, tuple] = {}
        for x, (v, u) in negation.witnesses.items():
            s_x = negation.table[x]
            key = (min(x, s_x), max(x, s_x))
            if key not in first or (u, v) < first[key][0]:
                first[key] = ((u, v), x)
        sums = ((x, negation.table[x], (v, u)) for (u, v), x in first.values())
        products = (
            (out, *k, combination.witnesses[k]) for k, out in combination.table.items()
        )
        return cls(structure, sums, products)

    def _note_flags(self, value: int, v_mask: int, u_mask: int):
        if v_mask != 0 or value > self.e:
            self.positive.add(value)
        if v_mask != u_mask or value < self.E:
            self.below_one.add(value)

    # fact management --------------------------------------------------------

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

    def _set(self, value: int, ratio: Fraction, eqset: frozenset, why: str) -> bool:
        x = self.values[value]
        if value in self.known:
            old_ratio, old_eqs = self.known[value]
            if old_ratio != ratio:
                raise _Contradiction(
                    f"r({x}) forced to both {old_ratio} and {ratio} ({why})",
                    eqset | old_eqs,
                )
            return False
        if ratio < 0 or ratio > 1:
            raise _Contradiction(
                f"r({x}) forced to {ratio} outside [0,1] ({why})", eqset
            )
        if ratio == 0 and value in self.positive:
            raise _Contradiction(
                f"r({x}) forced to 0 but {x} is attained at a nonempty "
                f"intersection or exceeds e ({why})",
                eqset,
            )
        if ratio == 1 and value in self.below_one:
            raise _Contradiction(
                f"r({x}) forced to 1 but {x} is attained at a proper "
                f"subevent or is below E ({why})",
                eqset,
            )
        self.known[value] = (ratio, eqset)
        return True

    # rules ----------------------------------------------------------------

    def _check_known_order(self):
        items = sorted(self.known.items())
        for (v1, (r1, e1)), (v2, (r2, e2)) in zip(items, items[1:]):
            if not r1 < r2:
                x1, x2 = self.values[v1], self.values[v2]
                raise _Contradiction(
                    f"value order broken: {x1} < {x2} but r({x1}) = {r1} ≥ "
                    f"r({x2}) = {r2}",
                    e1 | e2,
                )

    def _check_sum_order(self):
        # r(x) + r(y) = 1 pairs: as x grows, y must strictly shrink.  Both
        # orientations of every equation enter the scan so the adjacent-pair
        # argument is complete.
        oriented = []
        for x, y, w in self.sums:
            oriented.append((x, y, w))
            if x != y:
                oriented.append((y, x, w))
        oriented.sort()
        v = self.values
        for (x1, y1, w1), (x2, y2, w2) in zip(oriented, oriented[1:]):
            marks = frozenset([("sum", w1), ("sum", w2)])
            if x1 == x2:
                if y1 != y2:
                    raise _Contradiction(
                        f"complements of the shared value {v[x1]} differ: "
                        f"{v[y1]} vs {v[y2]} would share the ratio 1 - r({v[x1]})",
                        marks,
                    )
            elif not y1 > y2:
                raise _Contradiction(
                    f"complement order broken: {v[x1]} < {v[x2]} but complements "
                    f"{v[y1]} ≤ {v[y2]}",
                    marks,
                )

    def _check_product_groups(self):
        """Cross-equation rules that need no derived values.

        Equal factor pairs force equal products; a shared positive factor
        cancels, forcing the cofactors' ratios equal.  Either way, distinct
        values forced to one ratio contradict the strictly increasing g.
        """
        by_factors: dict = {}
        by_out_left: dict = {}
        by_out_right: dict = {}
        for out, l, r, w in self.products:
            by_factors.setdefault((l, r), []).append((out, w))
            by_out_left.setdefault((out, l), []).append((r, w))
            by_out_right.setdefault((out, r), []).append((l, w))
        v = self.values
        for (l, r), outs in by_factors.items():
            if len({o for o, _ in outs}) > 1:
                (o1, w1), (o2, w2) = outs[0], outs[1]
                raise _Contradiction(
                    f"r({v[l]})·r({v[r]}) equals both r({v[o1]}) and r({v[o2]}) "
                    f"with {v[o1]} ≠ {v[o2]}",
                    frozenset([("product", w1), ("product", w2)]),
                )
        for grouped in (by_out_left, by_out_right):
            for (out, shared), cofactors in grouped.items():
                if len({c for c, _ in cofactors}) <= 1:
                    continue
                if shared in self.positive or out in self.positive:
                    (c1, w1), (c2, w2) = cofactors[0], cofactors[1]
                    raise _Contradiction(
                        f"cancelling the positive shared factor r({v[shared]}) in "
                        f"r({v[out]}) = r({v[shared]})·r({v[c1]}) = "
                        f"r({v[shared]})·r({v[c2]}) "
                        f"forces r({v[c1]}) = r({v[c2]}) with {v[c1]} ≠ {v[c2]}",
                        frozenset([("product", w1), ("product", w2)]),
                    )

    def _apply_sum(self, x, y, witness) -> bool:
        mark = frozenset([("sum", witness)])
        changed = False
        if x == y:
            changed |= self._set(x, Fraction(1, 2), mark, "self-complementary value")
            return changed
        kx = self.known.get(x)
        ky = self.known.get(y)
        v = self.values
        if kx and ky:
            if kx[0] + ky[0] != 1:
                raise _Contradiction(
                    f"r({v[x]}) + r({v[y]}) = {kx[0] + ky[0]} ≠ 1",
                    kx[1] | ky[1] | mark,
                )
            return False
        if kx:
            changed |= self._set(y, 1 - kx[0], kx[1] | mark, f"complement of {v[x]}")
        elif ky:
            changed |= self._set(x, 1 - ky[0], ky[1] | mark, f"complement of {v[y]}")
        return changed

    def _apply_product(self, out, l, r, witness) -> bool:
        mark = frozenset([("product", witness)])
        changed = False
        v = self.values
        # r(out) = r(l)·r(r) ≤ min(r(l), r(r)): the product never exceeds a
        # factor, and equals one only when the other factor is 1 (or it is 0)
        for big, small in ((l, r), (r, l)):
            if out > big:
                raise _Contradiction(
                    f"product exceeds a factor: r({v[out]}) = r({v[l]})·r({v[r]}) "
                    f"but {v[out]} > {v[big]}",
                    mark,
                )
            if out == big and big in self.positive and small in self.below_one:
                raise _Contradiction(
                    f"r({v[out]}) = r({v[out]})·r({v[small]}) needs r({v[out]}) = 0 "
                    f"or r({v[small]}) = 1; both are excluded",
                    mark,
                )
            if out == big and big in self.positive:
                changed |= self._set(small, ONE, mark, f"cancelling r({v[big]}) > 0")
        for unit, other in ((l, r), (r, l)):
            ku = self.known.get(unit)
            if not (ku and ku[0] == 1) or out == other:
                continue
            k_other = self.known.get(other)
            k_out = self.known.get(out)
            if k_other:
                changed |= self._set(out, k_other[0], ku[1] | k_other[1] | mark,
                                     "unit factor")
            elif k_out:
                changed |= self._set(other, k_out[0], ku[1] | k_out[1] | mark,
                                     "unit factor")
            else:
                # distinct values forced to share a ratio break strict increase
                raise _Contradiction(
                    f"r({v[unit]}) = 1 forces r({v[out]}) = r({v[other]}) with "
                    f"{v[out]} ≠ {v[other]}",
                    ku[1] | mark,
                )
        kl = self.known.get(l)
        kr = self.known.get(r)
        if kl and kl[0] == 0:
            changed |= self._set(out, ZERO, kl[1] | mark, "zero factor")
        if kr and kr[0] == 0:
            changed |= self._set(out, ZERO, kr[1] | mark, "zero factor")
        kl = self.known.get(l)
        kr = self.known.get(r)
        ko = self.known.get(out)
        if kl and kr:
            changed |= self._set(out, kl[0] * kr[0], kl[1] | kr[1] | mark, "product")
        elif ko and kl and kl[0] != 0:
            changed |= self._set(r, ko[0] / kl[0], ko[1] | kl[1] | mark, "quotient")
        elif ko and kr and kr[0] != 0:
            changed |= self._set(l, ko[0] / kr[0], ko[1] | kr[1] | mark, "quotient")
        return changed

    def run(self, depth: int = 16) -> "_RatioEngine":
        try:
            self._seed()
            self._check_sum_order()
            self._check_product_groups()
            self._check_known_order()
            for _ in range(depth):
                changed = False
                for x, y, w in self.sums:
                    changed |= self._apply_sum(x, y, w)
                for out, l, r, w in self.products:
                    changed |= self._apply_product(out, l, r, w)
                self._check_known_order()
                if not changed:
                    break
        except _Contradiction as exc:
            self.contradiction = exc
        return self


def _is_canonical(masks: tuple, full: int) -> bool:
    """Int masks within the domain, each inside the next, the second nonempty:
    a canonical pair (V ⊆ U ≠ ∅) or chain triple (B ⊆ A ⊆ U, A ≠ ∅)."""
    return (
        all(isinstance(m, int) and 0 <= m <= full for m in masks)
        and masks[1] != 0
        and all(inner & ~outer == 0 for inner, outer in zip(masks, masks[1:]))
    )


def _recheck_order_conflict(data: OrderConflictData, structure: BeliefStructure) -> bool:
    """Re-run the engine on the certificate's own instances.

    Any instance that is not a canonical pair or chain triple of the
    structure rejects the certificate.
    """
    full = structure.domain.full_mask
    arity = {"sum": 2, "product": 3}
    for kind, masks in data.instances:
        if len(masks) != arity.get(kind) or not _is_canonical(masks, full):
            return False
    bel = structure.bel_masks
    sums: dict[tuple, tuple] = {}
    products: dict[tuple, tuple] = {}
    # canonical order is ascending reversed masks: (u, v) and (u, a, b)
    for kind, masks in sorted(data.instances, key=lambda i: (i[0], i[1][::-1])):
        masks = tuple(masks)
        if kind == "sum":
            v, u = masks
            x, s_x = bel(v, u), bel(u ^ v, u)
            sums.setdefault((min(x, s_x), max(x, s_x)), (x, s_x, masks))
        else:
            b, a, u = masks
            out, l, r = bel(b, u), bel(b, a), bel(a, u)
            products.setdefault((out, l, r), (out, l, r, masks))
    engine = _RatioEngine(structure, sums.values(), products.values()).run()
    return engine.contradiction is not None


def refutation_search(
    structure: BeliefStructure, depth: int = 16
) -> RefutationCertificate | None:
    """Sound refutation certificates only; None when nothing is found.

    Tried in order: A1 extraction conflict (equal values with unequal
    complements force equal ratios for distinct values), A2 extraction
    conflict, composite chain associativity, and the ratio-propagation
    engine's order conflicts.
    """
    negation = extract_negation(structure)
    if isinstance(negation, NegationConflict):
        return RefutationCertificate(
            "A1-conflict", negation,
            negation.describe(structure.domain)
            + "; equal values force equal ratios, so the two complement values "
            "would share one ratio under a strictly increasing g",
        )
    combination = extract_combination(structure)
    if isinstance(combination, CombinationConflict):
        return RefutationCertificate(
            "A2-conflict", combination,
            combination.describe(structure.domain)
            + "; equal argument ratios force equal product ratios for two "
            "distinct values",
        )
    chain_report = chain_consistency(structure, combination)
    if chain_report.status == "fail":
        return RefutationCertificate(
            "chain-associativity", chain_report.certificate,
            chain_report.detail,
        )
    engine = _RatioEngine.from_forms(structure, negation, combination).run(depth)
    if engine.contradiction is not None:
        instances = tuple(
            sorted(i for i in engine.contradiction.eqset if i[0] in ("sum", "product"))
        )
        data = OrderConflictData(instances, engine.contradiction.description)
        return RefutationCertificate(
            "order-conflict", data, engine.contradiction.description
        )
    return None


# -- witnesses -----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityWitness:
    """Strictly positive atom weights summing to 1."""

    weights: dict
    exact: bool

    def as_fractions(self, domain) -> list[Fraction]:
        return [Fraction(self.weights[a]) for a in domain.atoms]

    def to_dict(self) -> dict:
        return {
            "weights": {a: str(w) for a, w in self.weights.items()},
            "exact": self.exact,
        }


@dataclass(frozen=True)
class RescalingMap:
    """Monotone piecewise-linear g through the attained-value graph."""

    points: tuple[tuple[Fraction, Fraction], ...]  # (value, ratio), sorted

    def __post_init__(self):
        pts = tuple(sorted(self.points))
        object.__setattr__(self, "points", pts)
        for (v1, r1), (v2, r2) in zip(pts, pts[1:]):
            if v1 == v2 or not r1 < r2:
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
    ratio_map: dict | None

    def __bool__(self):
        return self.passed


def verify_witness(structure: BeliefStructure, weights) -> WitnessCheck:
    """Exact check of a weighting against the structure.

    (i) equal belief values always map to equal conditional ratios,
    (ii) the induced value→ratio map is strictly increasing,
    (iii) it sends e to 0 and E to 1 where those values are attained,
    (iv) the product rule g(Bel(V|U))·g(Bel(U)) = g(Bel(V∩U)) holds for every
    pair (re-checked although it follows from the ratio definition).
    """
    domain = structure.domain
    if isinstance(weights, Mapping):
        ws = [Fraction(weights[a]) for a in domain.atoms]
    else:
        ws = [Fraction(w) for w in weights]
        if len(ws) != domain.size:
            raise ValueError("one weight per atom required")
    if any(w <= 0 for w in ws):
        raise ValueError("witness weights must be strictly positive")
    if sum(ws) != 1:
        raise ValueError("witness weights must sum to 1")
    e, big_e = structure.bounds
    index = structure.value_index()
    values = index.values
    # μ of every event as an integer over the weights' common denominator;
    # a ratio μ(V)/μ(U) is kept as the pair (μ(V), μ(U)) and compared by
    # cross-multiplication, which is exact
    den = math.lcm(*(w.denominator for w in ws))
    mu = subset_sums([w.numerator * (den // w.denominator) for w in ws])
    ratios: dict[int, tuple[int, int]] = {}  # value rank -> (μ(V), μ(U))
    for v, u, x in index.pairs():
        p, q = mu[v], mu[u]
        old = ratios.setdefault(x, (p, q))
        if old[0] * q != p * old[1]:
            return WitnessCheck(
                False,
                f"single-valuedness: value {values[x]} maps to ratios "
                f"{Fraction(*old)} and {Fraction(p, q)}",
                None,
            )
    items = sorted(ratios.items())
    for (x1, (p1, q1)), (x2, (p2, q2)) in zip(items, items[1:]):
        if not p1 * q2 < p2 * q1:
            return WitnessCheck(
                False,
                f"strict increase: values {values[x1]} < {values[x2]} map to ratios "
                f"{Fraction(p1, q1)} ≥ {Fraction(p2, q2)}",
                None,
            )
    if index.e in ratios and ratios[index.e][0] != 0:
        return WitnessCheck(
            False, f"endpoint: g({e}) = {Fraction(*ratios[index.e])} ≠ 0", None
        )
    if index.E in ratios and ratios[index.E][0] != ratios[index.E][1]:
        return WitnessCheck(
            False, f"endpoint: g({big_e}) = {Fraction(*ratios[index.E])} ≠ 1", None
        )
    unconditional = index.rank[domain.full_mask]
    for v, u, x in index.pairs():
        p1, q1 = ratios[x]
        p2, q2 = ratios[unconditional[u]]
        p3, q3 = ratios[unconditional[v]]
        if p1 * p2 * q3 != p3 * q1 * q2:
            return WitnessCheck(
                False,
                f"product rule fails at (V={Event(domain, v)!r}, U={Event(domain, u)!r})",
                None,
            )
    ratio_map = {values[x]: Fraction(p, q) for x, (p, q) in ratios.items()}
    return WitnessCheck(True, None, ratio_map)


def rescaling_from_witness(structure: BeliefStructure, weights) -> RescalingMap:
    """The graph of g on attained values, extended to (e,0) and (E,1)."""
    check = verify_witness(structure, weights)
    if not check.passed:
        raise ValueError(f"weights are not a witness: {check.failing}")
    return _rescaling(structure, check)


def _rescaling(structure: BeliefStructure, check: WitnessCheck) -> RescalingMap:
    e, big_e = structure.bounds
    points = dict(check.ratio_map)
    points.setdefault(e, ZERO)
    points.setdefault(big_e, ONE)
    return RescalingMap(tuple(points.items()))


# -- the decision pipeline -------------------------------------------------------------


@dataclass(frozen=True)
class DecisionParams:
    restarts: int = 8
    budget: int = 400  # local-descent iterations per restart
    tolerance: float = 1e-9
    seed: int = 0
    refutation_depth: int = 16
    denominator_cap: int = 10 ** 6


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
            out["exact"] = self.witness.exact
        if self.rescaling is not None:
            out["g-graph"] = self.rescaling.to_dict()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _fraction_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None."""
    if x < 0:
        return None
    num = round(x.numerator ** (1 / k)) if x.numerator else 0
    den = round(x.denominator ** (1 / k))
    for n in (num - 1, num, num + 1):
        for d in (den - 1, den, den + 1):
            if n >= 0 and d > 0 and n ** k == x.numerator and d ** k == x.denominator:
                return Fraction(n, d)
    return None


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


def _value_classes(structure: BeliefStructure):
    """Sorted attained values with their canonical pair lists."""
    index = structure.value_index()
    classes: dict[int, list[tuple[int, int]]] = {}
    for v, u, x in index.pairs():
        classes.setdefault(x, []).append((v, u))
    return [(index.values[x], pairs) for x, pairs in sorted(classes.items())]


def _numeric_feasibility(structure, params):
    """Penalty minimization over the open simplex via softmax weights.

    Returns (best_weights_float, best_penalty, restarts_used, iterations).
    A mild pull of each class ratio toward its normalized belief value keeps
    the feasible set's gauge freedom from wandering; exact verification later
    makes this a search aid only.
    """
    n = structure.domain.size
    classes = _value_classes(structure)
    e, big_e = structure.bounds
    span = float(big_e - e)
    masks = sorted({m for _, pairs in classes for vu in pairs for m in vu})
    mask_index = {m: i for i, m in enumerate(masks)}
    mask_matrix = np.zeros((len(masks), n))
    for m, i in mask_index.items():
        for bit in range(n):
            if m >> bit & 1:
                mask_matrix[i, bit] = 1.0
    class_pairs = [
        np.array([[mask_index[v], mask_index[u]] for v, u in pairs], dtype=int)
        for _, pairs in classes
    ]
    targets = np.array([(float(x) - float(e)) / span for x, _ in classes])
    delta = 1e-7

    def softmax(theta):
        z = np.concatenate([[0.0], theta])
        z = z - z.max()
        w = np.exp(z)
        return w / w.sum()

    def penalties(theta):
        """(hard, pull): constraint violation vs the identity-pull nudge."""
        mu = mask_matrix @ softmax(theta)
        hard = 0.0
        means = np.empty(len(classes))
        for ci, pairs in enumerate(class_pairs):
            ratios = mu[pairs[:, 0]] / mu[pairs[:, 1]]
            m = ratios.mean()
            means[ci] = m
            hard += ((ratios - m) ** 2).sum()
        order = np.clip(means[:-1] + delta - means[1:], 0.0, None)
        hard += (order ** 2).sum()
        pull = 1e-4 * ((means - targets) ** 2).sum()
        return hard, pull

    def objective(theta):
        hard, pull = penalties(theta)
        return hard + pull

    best_w = None
    best_hard = math.inf
    iterations = 0
    restarts = 0
    for i in range(max(params.restarts, 0)):
        restarts += 1
        rng = random.Random(params.seed * 1000003 + i)
        x0 = np.array([rng.gauss(0.0, 1.5) for _ in range(n - 1)])
        if n == 1:
            best_w, best_hard = np.array([1.0]), penalties(np.zeros(0))[0]
            break
        res = minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": params.budget, "xatol": 1e-12, "fatol": 1e-18},
        )
        iterations += int(res.nit)
        hard = penalties(res.x)[0]
        if hard < best_hard:
            best_hard = float(hard)
            best_w = softmax(res.x)
        if best_hard < 1e-20:
            break
    return best_w, best_hard, restarts, iterations


def _verify_numeric(structure, weights_float, tol) -> bool:
    """High-precision witness check: constraints within tol, order strict."""
    ws = [Fraction(float(w)) for w in weights_float]
    if any(w <= 0 for w in ws):
        return False
    total = sum(ws)
    ws = [w / total for w in ws]
    tol = Fraction(tol).limit_denominator(10 ** 15)
    mu = subset_sums(ws)
    means = []
    for x, pairs in _value_classes(structure):
        ratios = [mu[v] / mu[u] for v, u in pairs]
        if max(ratios) - min(ratios) > tol:
            return False
        means.append((x, sum(ratios) / len(ratios)))
    for (_, r1), (_, r2) in zip(means, means[1:]):
        if not r1 < r2:
            return False
    e, big_e = structure.bounds
    mm = dict(means)
    if e in mm and abs(mm[e]) > tol:
        return False
    if big_e in mm and abs(mm[big_e] - 1) > tol:
        return False
    return True


def decide(structure: BeliefStructure, params: DecisionParams | None = None) -> IsomorphismVerdict:
    """Witness, Refutation, or an honest Unknown.

    Pipeline: refutation search first; then exact structured candidates
    (affine identity, power laws) verified in exact arithmetic; then seeded
    numerical feasibility with continued-fraction rounding and exact
    re-verification; budget exhaustion yields Unknown.
    """
    params = params or DecisionParams()
    budget_report = {"restarts": 0, "iterations": 0, "phase": "refutation"}
    certificate = refutation_search(structure, params.refutation_depth)
    if certificate is not None:
        return IsomorphismVerdict(
            "refutation", certificate=certificate, budget=budget_report
        )

    domain = structure.domain

    def exact_witness(weights) -> IsomorphismVerdict | None:
        check = verify_witness(structure, weights)
        if not check.passed:
            return None
        return IsomorphismVerdict(
            "witness",
            witness=ProbabilityWitness(dict(zip(domain.atoms, weights)), exact=True),
            rescaling=_rescaling(structure, check),
            budget=budget_report,
        )

    for candidate in _structured_candidates(structure):
        verdict = exact_witness(candidate)
        if verdict is not None:
            budget_report["phase"] = "structured-candidates"
            return verdict

    if params.restarts > 0:
        best_w, best_pen, restarts, iterations = _numeric_feasibility(structure, params)
        budget_report.update(
            {"restarts": restarts, "iterations": iterations,
             "phase": "numeric", "best_penalty": best_pen}
        )
        if best_w is not None and best_pen < 1e-12:
            for cap in (10, 100, 1000, params.denominator_cap):
                rounded = [
                    Fraction(float(w)).limit_denominator(cap) for w in best_w
                ]
                total = sum(rounded)
                if total == 0 or any(w <= 0 for w in rounded):
                    continue
                verdict = exact_witness([w / total for w in rounded])
                if verdict is not None:
                    return verdict
            if _verify_numeric(structure, best_w, params.tolerance):
                ws = [Fraction(float(w)) for w in best_w]
                total = sum(ws)
                ws = [w / total for w in ws]
                witness = ProbabilityWitness(
                    dict(zip(domain.atoms, ws)), exact=False
                )
                return IsomorphismVerdict(
                    "witness", witness=witness, budget=budget_report
                )
    return IsomorphismVerdict("unknown", budget=budget_report)
