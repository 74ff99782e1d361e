"""The density Theorem 4 assumes, read off the coin families it uses.

    python scripts/density_limit.py

For each grid of GRIDS and ε of EPSILONS, prints the least coin count c
whose family of uniform domains on {0,1}^1 .. {0,1}^c meets every grid
target (α, β, γ) within ε: Par5′ of that family, decided exactly by
`par5_family`.  A family of more coins holds every chain of a smaller one,
so the count is found by bisection over 1..FAMILY_COIN_CAP coins, the most
`coin_family` builds; "> N" means even N coins miss a target.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxcheck.conditions import par5_family  # noqa: E402
from coxcheck.generators import FAMILY_COIN_CAP, coin_family  # noqa: E402

GRIDS = range(2, 10)
EPSILONS = (Fraction(1, 4), Fraction(1, 10), Fraction(1, 20))


def least_coins(grid: int, epsilon: Fraction) -> int | None:
    """The least coin count whose family meets every target, or None."""
    low, high = 1, FAMILY_COIN_CAP + 1  # the answer lies in [low, high); high means none
    while low < high:
        mid = (low + high) // 2
        if par5_family(coin_family(mid), grid, epsilon).passed:
            high = mid
        else:
            low = mid + 1
    return low if low <= FAMILY_COIN_CAP else None


def main() -> int:
    print("| grid | " + " | ".join(f"ε = {e}" for e in EPSILONS) + " |")
    print("| --- |" + " --- |" * len(EPSILONS))
    for grid in GRIDS:
        cells = []
        for epsilon in EPSILONS:
            coins = least_coins(grid, epsilon)
            cells.append(str(coins) if coins else f"> {FAMILY_COIN_CAP}")
        print(f"| {grid} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
