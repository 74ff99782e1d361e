"""Known-answer checks that do not call into coxcheck's deciders.

`witness_holds` re-checks a returned atom weighting exactly against the table
the benchmark wrote.  `density_misses` counts, for a family of uniform coin
domains, the grid targets no nested chain can ε-approximate; on a uniform
domain a chain's values depend only on the level sizes, so this is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from beltables import measure

# Certificate kinds coxcheck emitted when this benchmark was defined, per
# forgery recipe and per shipped fixture.  Certificate kinds must stay
# identical across changes, so any other kind is a failed operation.
PINNED_KINDS = {
    "perturb": "A1-conflict",
    "fork": "A2-conflict",
    "swap": "order-conflict",
    "a1_conflict.bel": "A1-conflict",
    "a2_conflict.bel": "A2-conflict",
    "chain_conflict.bel": "chain-associativity",
    "order_conflict.bel": "order-conflict",
    "min_counterexample.bel": "order-conflict",
    "par1_violation.bel": "order-conflict",
}


def witness_holds(table: dict, bounds, weights: list[Fraction]) -> bool:
    """μ(V)/μ(U) is single-valued per belief value and strictly increasing,
    with g(e) = 0 and g(E) = 1 where those values are attained."""
    if any(w <= 0 for w in weights) or sum(weights) != 1:
        return False
    ratio_of: dict[Fraction, Fraction] = {}
    for (v, u), x in table.items():
        r = measure(weights, v) / measure(weights, u)
        if ratio_of.setdefault(x, r) != r:
            return False
    ordered = [ratio_of[x] for x in sorted(ratio_of)]
    if any(r1 >= r2 for r1, r2 in zip(ordered, ordered[1:])):
        return False
    e, big_e = bounds
    return ratio_of.get(e, 0) == 0 and ratio_of.get(big_e, 1) == 1


def _hittable(sizes, target, eps) -> bool:
    alpha, beta, gamma = target
    for n in sizes:
        for s2 in range(1, n + 1):
            if abs(Fraction(s2, n) - gamma) >= eps:
                continue
            for s3 in range(1, s2 + 1):
                if abs(Fraction(s3, s2) - beta) >= eps:
                    continue
                if any(abs(Fraction(s4, s3) - alpha) < eps for s4 in range(s3 + 1)):
                    return True
    return False


@functools.lru_cache(maxsize=None)
def density_misses(top: int, grid: int, eps: Fraction) -> int:
    """Grid targets (α, β, γ) that no chain U1⊇U2⊇U3⊇U4 of the family of
    uniform domains on {0,1}^c, c = 1..top, meets within ε on all of
    x=|U4|/|U3|, y=|U3|/|U2|, z=|U2|/|U1|.

    U1 ranges over every nonempty event, so |U1| takes every size up to the
    largest member's atom count.
    """
    sizes = range(1, (1 << top) + 1)
    points = [Fraction(0)] if grid == 1 else [Fraction(i, grid - 1) for i in range(grid)]
    return sum(
        not _hittable(sizes, (a, b, g), eps)
        for a in points for b in points for g in points
    )
