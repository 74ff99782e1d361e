"""Seeded belief tables written by the benchmark itself.

Every table is built from strictly positive integer atom weights μ and a
relabelling g of the probability values: Bel(V|U) = g(μ(V∩U)/μ(U)) on every
canonical pair V ⊆ U, U ≠ ∅.  A strictly increasing g keeps the table
isomorphic to the probability measure μ; the forgeries below break that in
known ways.  Nothing here imports coxcheck, so the known answers cannot
drift with the program under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

ATOMS = "abcdefgh"
ZERO, ONE = Fraction(0), Fraction(1)


def submasks(mask: int) -> list[int]:
    out, sub = [], mask
    while True:
        out.append(sub)
        if sub == 0:
            return sorted(out)
        sub = (sub - 1) & mask


def measure(weights, mask: int) -> Fraction:
    return sum((w for i, w in enumerate(weights) if mask >> i & 1), ZERO)


def subset_sums(weights) -> list:
    """μ of every mask, indexed by mask."""
    sums = [weights[0] * 0]
    for w in weights:
        sums += [x + w for x in sums]
    return sums


def draw_weights(rng: random.Random, n: int, style: str) -> list[int]:
    """'random' integer weights give many distinct values, 'near' few."""
    if style == "random":
        return [rng.randint(1, 9) for _ in range(n)]
    if style == "near":
        return [rng.choice((2, 2, 2, 3)) for _ in range(n)]
    raise ValueError(f"unknown weight style {style!r}")


def distinct_values(raw: list[int]) -> int:
    """Distinct μ(V)/μ(U) over canonical pairs, in integer arithmetic."""
    sums = subset_sums(raw)
    ratios = set()
    for u in range(1, len(sums)):
        for v in submasks(u):
            g = math.gcd(sums[v], sums[u])
            ratios.add((sums[v] // g, sums[u] // g))
    return len(ratios)


def normalized(raw: list[int]) -> list[Fraction]:
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


# name -> (g, bounds); every g is strictly increasing on [0, 1]
RELABELS = {
    "identity": (lambda x: x, (ZERO, ONE)),
    "power2": (lambda x: x * x, (ZERO, ONE)),
    "power3": (lambda x: x ** 3, (ZERO, ONE)),
    "affine": (lambda x: x / 2 + Fraction(1, 4), (Fraction(1, 4), Fraction(3, 4))),
    "mix2": (lambda x: (x + x * x) / 2, (ZERO, ONE)),
    "mix21": (lambda x: (2 * x + x * x) / 3, (ZERO, ONE)),
    "mix12": (lambda x: (x + 2 * x * x) / 3, (ZERO, ONE)),
}


def relabelled_table(weights, relabel: str) -> dict[tuple[int, int], Fraction]:
    g, _ = RELABELS[relabel]
    sums = subset_sums(weights)
    return {(v, u): g(sums[v] / sums[u]) for u in range(1, len(sums)) for v in submasks(u)}


def _interior_pairs(table):
    return [(v, u) for (v, u) in table if v not in (0, u)]


def perturb_entry(rng: random.Random, table: dict) -> dict:
    """Set one entry to a value attained under another condition.

    The two pairs then share a value but not a complement value, so the
    negation function S of axiom A1 is not single-valued.
    """
    out = dict(table)
    pairs = _interior_pairs(table)
    v, u = rng.choice(pairs)
    others = sorted({table[p] for p in pairs if p[1] != u and table[p] != table[(v, u)]})
    out[(v, u)] = rng.choice(others)
    return out


def fork_combination(rng: random.Random, weights, table: dict) -> dict:
    """Break A2 at one output while keeping A1 intact (identity relabel only).

    Two atoms i, j of equal weight make the swap σ=(i j) an automorphism.
    Bel(V|U) and its complement are moved to fresh values, with i ∈ V, j ∈ U∖V
    and |U∖V| ≥ 2.  The triples (V, V∪{j}, U) and (σV, V∪{j}, U) then share
    their argument pair but not their output, while every value keeps a
    single complement.
    """
    n = len(weights)
    twins = [(i, j) for i in range(n) for j in range(n) if i != j and weights[i] == weights[j]]
    i, j = rng.choice(twins)
    choices = [
        (v, u) for (v, u) in _interior_pairs(table)
        if v >> i & 1 and not v >> j & 1 and u >> j & 1 and bin(u & ~v).count("1") >= 2
    ]
    v, u = rng.choice(choices)
    values = sorted(set(table.values()))

    def fresh(x, taken):
        k = values.index(x)
        for lo, hi in ((x, values[k + 1]), (values[k - 1], x)):
            mid = (lo + hi) / 2
            if mid != taken:
                return mid
        raise AssertionError("no fresh value")

    out = dict(table)
    out[(v, u)] = fresh(table[(v, u)], None)
    out[(u & ~v, u)] = fresh(table[(u & ~v, u)], out[(v, u)])
    return out


def swap_adjacent_values(rng: random.Random, table: dict) -> dict:
    """Exchange two adjacent interior attained values everywhere.

    The relabelling is injective but not monotone: A1, A2 and associativity
    survive it, the value order does not.
    """
    values = sorted(set(table.values()) - {ZERO, ONE})
    k = rng.randrange(len(values) - 1)
    a, b = values[k], values[k + 1]
    swap = {a: b, b: a}
    return {key: swap.get(x, x) for key, x in table.items()}


def _event(mask: int, n: int) -> str:
    return "{" + " ".join(ATOMS[i] for i in range(n) if mask >> i & 1) + "}"


def table_text(n: int, table: dict, bounds) -> str:
    lines = [f"domain: {' '.join(ATOMS[:n])}", f"bounds: {bounds[0]} {bounds[1]}"]
    for u in range(1, 1 << n):
        for v in submasks(u):
            lines.append(f"bel {_event(v, n)} | {_event(u, n)} = {table[(v, u)]}")
    return "\n".join(lines) + "\n"


def coin_member_text(coins: int) -> str:
    """The uniform structure on {0,1}^coins as a weight directive."""
    size = 1 << coins
    atoms = [format(i, f"0{coins}b") for i in range(size)]
    weights = " ".join(f"{a}=1/{size}" for a in atoms)
    return f"domain: {' '.join(atoms)}\ngenerate probability {weights}\n"
