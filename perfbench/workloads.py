"""The four workloads: seeded inputs, their argv, and their known answers.

Each workload is a fixed list of slots.  A slot fixes the properties the
pipeline's cost depends on (atom count, weight style, relabelling or forgery
recipe, family shape); the seed draws the instance inside the slot.  That
keeps the mix, and so the medians, comparable across seeds.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import answers
import beltables

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


@dataclass
class Input:
    id: str
    argv: list
    report: Path
    expect_exit: int
    table: dict | None = None  # for the exact witness re-check
    bounds: tuple | None = None
    cert_kind: str | None = None
    density: tuple | None = None  # (largest coin count, grid, epsilon), audit only


# Table slots are (atoms, weight style, relabelling, forgery recipe or None).
# identity/affine/powers settle in the exact structured-candidate phase; the
# mix* relabellings are non-power monotone maps only the numeric phase settles.
WITNESS_SLOTS = [
    (5, "random", "identity", None),
    (5, "random", "power2", None),
    (5, "random", "power3", None),
    (5, "near", "affine", None),
    (6, "near", "identity", None),
    (6, "near", "power2", None),
    (6, "near", "power3", None),
    (7, "near", "affine", None),
    (6, "random", "power2", None),
    (7, "near", "identity", None),
    (4, "near", "mix2", None),
    (4, "near", "mix12", None),
    (5, "near", "mix2", None),
    (4, "random", "mix21", None),
    (5, "near", "mix21", None),
]
# decide-refute is built so that its median falls inside the 20-30 ms group of
# four slots between the early A1 exits and the full-engine order conflicts.
REFUTE_SLOTS = [
    (6, "random", "identity", "perturb"),
    (5, "random", "power2", "perturb"),
    (7, "near", "power2", "perturb"),
    (5, "near", "identity", "swap"),
    (6, "near", "identity", "fork"),
    (7, "near", "identity", "fork"),
    (5, "random", "identity", "swap"),
    (5, "near", "power2", "swap"),
    (6, "near", "identity", "swap"),
    (7, "near", "identity", "swap"),
]
# Round r runs every COPIES-th fixture from r on; chain_conflict comes first so
# that even a one-round run yields every certificate kind.
REFUTE_FIXTURES = [
    ("chain_conflict.bel", []),
    ("a1_conflict.bel", []),
    ("a2_conflict.bel", []),
    ("order_conflict.bel", []),
    ("min_counterexample.bel", ["--seed", "7"]),
    ("par1_violation.bel", []),
]
CHECK_SLOTS = [
    (6, "random", "identity", None),
    (7, "near", "power2", None),
    (6, "near", "affine", None),
    (6, "random", "identity", "swap"),
    (7, "near", "identity", "swap"),
    (6, "near", "power3", "perturb"),
    (7, "near", "identity", "perturb"),
]

# Distinct attained values a draw must have, per (atoms, weight style): about
# the middle of each style's distribution, so every seed gets tables of
# comparable size.
VALUE_BANDS = {
    (4, "random"): (38, 44), (5, "random"): (80, 90), (6, "random"): (150, 170),
    (4, "near"): (15, 17), (5, "near"): (25, 27),
    (6, "near"): (37, 41), (7, "near"): (59, 69),
}

# audit-family: (largest coin count, grid, epsilon, group); the family holds
# the uniform domains on {0,1}^c for c = 1..largest, as `generate family` does.
# A missed target costs the sampler's whole budget on every member, so misses
# take a steady time and the three of them hold the tail.
AUDIT_SLOTS = [
    (4, 2, Fraction(1, 3), "hit"),
    (5, 2, Fraction(1, 4), "hit"),
    (5, 3, Fraction(1, 3), "hit"),
    (6, 3, Fraction(1, 4), "hit"),
    (8, 3, Fraction(1, 6), "hit"),
    (6, 4, Fraction(1, 5), "hit"),
    (3, 2, Fraction(1, 3), "miss"),
    (4, 3, Fraction(1, 3), "miss"),
    (3, 3, Fraction(1, 3), "miss"),
]

# Seconds one round takes at nominal machine speed on the commit that defined
# the benchmark.  `--seconds S` runs round(S / this) rounds, so every run of a
# workload times the same number of inputs however loaded the machine is.
NOMINAL_ROUND_S = {
    "decide-witness": 2.3,
    "decide-refute": 0.53,
    "check-tables": 0.98,
    "audit-family": 3.4,
}

# Each slot is drawn this many times per seed.  The inputs list is ordered in
# rounds of one input per slot, and the loop only stops at a round's end.
# Audit families differ between copies only in the sampler seed.
COPIES = {"decide-witness": 5, "decide-refute": 6, "check-tables": 5, "audit-family": 1}

WORKLOADS = ("decide-witness", "decide-refute", "check-tables", "audit-family")


def _base_table(rng, n, style, relabel):
    lo, hi = VALUE_BANDS[(n, style)]
    for _ in range(1000):
        raw = beltables.draw_weights(rng, n, style)
        if lo <= beltables.distinct_values(raw) <= hi:
            weights = beltables.normalized(raw)
            return weights, beltables.relabelled_table(weights, relabel), beltables.RELABELS[relabel][1]
    raise RuntimeError(f"no {style} weights on {n} atoms within {lo}..{hi} values")


def _forge(rng, recipe, weights, table):
    if recipe == "perturb":
        return beltables.perturb_entry(rng, table)
    if recipe == "fork":
        return beltables.fork_combination(rng, weights, table)
    return beltables.swap_adjacent_values(rng, table)


def _table_round(rng, out, r, prefix, slots, subcommand):
    inputs = []
    for k, (n, style, relabel, recipe) in enumerate(slots):
        weights, table, bounds = _base_table(rng, n, style, relabel)
        if recipe is not None:
            table = _forge(rng, recipe, weights, table)
        ident = f"{prefix}{r}{k:02d}-{n}{style[0]}-{relabel}-{recipe}"
        path = out / f"{ident}.bel"
        path.write_text(beltables.table_text(n, table, bounds), encoding="utf-8")
        report = out / f"{ident}.json"
        if subcommand == "decide":
            expect = 0 if recipe is None else 1
        else:  # check fails only where A1 was broken
            expect = 1 if recipe == "perturb" else 0
        inputs.append(Input(ident, [subcommand, str(path), "--json", str(report)],
                            report, expect, table=table, bounds=bounds,
                            cert_kind=answers.PINNED_KINDS.get(recipe)))
    return inputs


def _decide_witness(rng, out, r):
    return _table_round(rng, out, r, "w", WITNESS_SLOTS, "decide")


def _decide_refute(rng, out, r):
    inputs = _table_round(rng, out, r, "r", REFUTE_SLOTS, "decide")
    for name, args in REFUTE_FIXTURES[r::COPIES["decide-refute"]]:
        report = out / f"fixture{r}-{name}.json"
        inputs.append(Input(f"fixture{r}-{name}",
                            ["decide", str(FIXTURES / name), *args, "--json", str(report)],
                            report, 1, cert_kind=answers.PINNED_KINDS[name]))
    return inputs


def _check_tables(rng, out, r):
    return _table_round(rng, out, r, "c", CHECK_SLOTS, "check")


def _audit_family(rng, out, r):
    inputs = []
    for k, (top, grid, eps, group) in enumerate(AUDIT_SLOTS):
        ident = f"a{r}{k:02d}-{group}-c{top}g{grid}"
        family = out / ident
        family.mkdir()
        for c in range(1, top + 1):
            (family / f"coins_{c:02d}.bel").write_text(beltables.coin_member_text(c),
                                                       encoding="utf-8")
        report = out / f"{ident}.json"
        argv = ["audit", "--theorem", "4", "--family", str(family), "--grid", str(grid),
                "--epsilon", str(eps), "--seed", str(rng.randrange(1000)),
                "--json", str(report)]
        # continuity of a tabular F is untestable, so a family that meets
        # every target is a partial pass (exit 2), one that misses fails (1)
        inputs.append(Input(ident, argv, report, 1 if group == "miss" else 2,
                            density=(top, grid, eps)))
    return inputs


_BUILDERS = {
    "decide-witness": _decide_witness,
    "decide-refute": _decide_refute,
    "check-tables": _check_tables,
    "audit-family": _audit_family,
}


def build(workload: str, seed: int, out: Path) -> list[Input]:
    """Write the workload's inputs for `seed` into a fresh `out`."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    return [inp for r in range(COPIES[workload]) for inp in _BUILDERS[workload](rng, out, r)]

