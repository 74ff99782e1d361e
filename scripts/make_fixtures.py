#!/usr/bin/env python3
"""Regenerate the fixture corpus under fixtures/.

Fixtures are committed; this script records their provenance and keeps them
byte-stable (the counterexample search is deterministic).
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxcheck.core import BeliefStructure, Domain
from coxcheck.files import save_structure
from coxcheck.generators import (
    affine_rescale,
    gen_distorted,
    gen_probability,
    search_min_counterexample,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def table_structure(atoms, entries, bounds=(F(0), F(1))):
    domain = Domain(tuple(atoms))
    table = {}
    for (v_names, u_names), value in entries.items():
        v = domain.event(v_names.split())
        u = domain.event(u_names.split())
        table[(v.mask, u.mask)] = F(value)
    return BeliefStructure.from_table(domain, table, bounds=bounds)


def complete_3atom(w_level, pair_level):
    """Total 3-atom table from W-level values and 2-set conditionals."""
    entries = {}
    atoms = ["a", "b", "c"]
    for names, value in w_level.items():
        entries[(names, "a b c")] = value
    entries[("", "a b c")] = "0"
    entries[("a b c", "a b c")] = "1"
    for pair, assignments in pair_level.items():
        entries[("", pair)] = "0"
        entries[(pair, pair)] = "1"
        for names, value in assignments.items():
            entries[(names, pair)] = value
    for atom in atoms:
        entries[("", atom)] = "0"
        entries[(atom, atom)] = "1"
    return table_structure(atoms, entries)


def merged_probability(n, seed, a, b):
    """The merge step of ROADMAP item 6 without its filters: the probability
    of weights `random.Random(31·seed + n).randint(1, 9)` on n atoms, with
    every value b written as the adjacent value a < b and 1 − a as 1 − b."""
    rng = random.Random(31 * seed + n)
    weights = [rng.randint(1, 9) for _ in range(n)]
    base = gen_probability(Domain(tuple("abcde"[:n])), [F(w, sum(weights)) for w in weights])
    a, b = F(a), F(b)
    table = {key: a if x == b else 1 - b if x == 1 - a else x
             for key, x in base.as_table().items()}
    return BeliefStructure.from_table(base.domain, table)


def main():
    FIXTURES.mkdir(exist_ok=True)

    save_structure(gen_probability(Domain(("a", "b")), [F(1, 2), F(1, 2)]),
                   FIXTURES / "uniform2.bel")
    save_structure(gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)]),
                   FIXTURES / "weights_1_3.bel")
    save_structure(gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)]),
                   FIXTURES / "three_atoms.bel")
    save_structure(gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2),
                   FIXTURES / "distorted_k2.bel")
    save_structure(
        affine_rescale(
            gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)]),
            F(1, 2), F(1, 4),
        ),
        FIXTURES / "gauge_rescaled_prob.bel",
    )
    save_structure(
        affine_rescale(gen_probability(Domain(("a", "b")), [F(1, 2), F(1, 2)]), F(1), F(1)),
        FIXTURES / "interval_bounds.bel",
    )

    # Par1 violation: one value above E
    save_structure(
        table_structure(
            ["a", "b"],
            {
                ("", "a"): "0", ("a", "a"): "1",
                ("", "b"): "0", ("b", "b"): "1",
                ("", "a b"): "0", ("a", "a b"): "3/2",
                ("b", "a b"): "1/2", ("a b", "a b"): "1",
            },
        ),
        FIXTURES / "par1_violation.bel",
    )

    # A1 conflict: equal values with unequal complements at the W level
    save_structure(
        complete_3atom(
            {"a": "1/2", "b": "1/2", "c": "2/5",
             "a b": "3/5", "a c": "1/2", "b c": "3/5"},
            {"a b": {"a": "2/5", "b": "3/5"},
             "a c": {"a": "2/5", "c": "3/5"},
             "b c": {"b": "2/5", "c": "3/5"}},
        ),
        FIXTURES / "a1_conflict.bel",
    )

    # A2 conflict: two chain triples share an argument pair, outputs differ
    save_structure(
        complete_3atom(
            {"a": "3/5", "b": "1/5", "c": "3/5",
             "a b": "2/5", "a c": "4/5", "b c": "2/5"},
            {"a b": {"a": "1/4", "b": "3/4"},
             "a c": {"a": "1/3", "c": "2/3"},
             "b c": {"b": "1/4", "c": "3/4"}},
        ),
        FIXTURES / "a2_conflict.bel",
    )

    # single-valued table whose composite associativity fails
    save_structure(
        complete_3atom(
            {"a": "4/7", "b": "2/7", "c": "2/7",
             "a b": "4/7", "a c": "4/7", "b c": "2/7"},
            {"a b": {"a": "2/7", "b": "4/7"},
             "a c": {"a": "5/7", "c": "3/7"},
             "b c": {"b": "5/7", "c": "3/7"}},
        ),
        FIXTURES / "chain_conflict.bel",
    )

    # forced equal ratios conflicting across conditioning contexts
    save_structure(
        complete_3atom(
            {"a": "1/3", "b": "1/3", "c": "1/3",
             "a b": "2/3", "a c": "2/3", "b c": "2/3"},
            {"a b": {"a": "2/5", "b": "3/5"},
             "a c": {"a": "1/2", "c": "1/2"},
             "b c": {"b": "1/2", "c": "1/2"}},
        ),
        FIXTURES / "order_conflict.bel",
    )

    # one input for each contradiction of the ratio engine that no fixture
    # above reaches; `decide` refutes each with an order conflict
    save_structure(merged_probability(5, 1, "2/7", "3/10"), FIXTURES / "order_forced_both.bel")
    save_structure(merged_probability(5, 1, "5/13", "2/5"), FIXTURES / "order_value_order.bel")
    save_structure(merged_probability(4, 90, "3/7", "7/16"), FIXTURES / "order_sum_not_one.bel")
    save_structure(
        complete_3atom(
            {"a": "1/3", "b": "1/4", "c": "1/4",
             "a b": "3/4", "a c": "3/4", "b c": "2/3"},
            {"a b": {"a": "1/4", "b": "3/4"},
             "a c": {"a": "1/4", "c": "3/4"},
             "b c": {"b": "1/2", "c": "1/2"}},
        ),
        FIXTURES / "order_product_exceeds.bel",
    )
    # two self-complementary values, 1/2 and 4/7: S is not decreasing
    save_structure(
        complete_3atom(
            {"a": "1/3", "b": "1/3", "c": "1/3",
             "a b": "2/3", "a c": "2/3", "b c": "2/3"},
            {"a b": {"a": "4/7", "b": "4/7"},
             "a c": {"a": "1/2", "c": "1/2"},
             "b c": {"b": "1/2", "c": "1/2"}},
        ),
        FIXTURES / "order_complement_order.bel",
    )
    # a nonempty event of conditional belief 0
    save_structure(
        table_structure(
            ["a", "b"],
            {
                ("", "a"): "0", ("a", "a"): "1",
                ("", "b"): "0", ("b", "b"): "1",
                ("", "a b"): "0", ("a", "a b"): "0",
                ("b", "a b"): "1", ("a b", "a b"): "1",
            },
        ),
        FIXTURES / "order_forced_zero.bel",
    )
    # a conditioning event of belief 3/4 in itself, below E = 1
    save_structure(
        table_structure(
            ["a", "b"],
            {
                ("", "a"): "0", ("a", "a"): "3/4",
                ("", "b"): "0", ("b", "b"): "3/4",
                ("", "a b"): "0", ("a", "a b"): "1/4",
                ("b", "a b"): "1/2", ("a b", "a b"): "3/4",
            },
        ),
        FIXTURES / "order_forced_one.bel",
    )
    # a probability whose attained values 0 and 1 lie outside its bounds
    (FIXTURES / "order_outside_bounds.bel").write_text(
        "domain: a b\n"
        "bounds: 1/4 3/4\n"
        "generate probability a=1/3 b=2/3\n",
        encoding="utf-8",
    )

    # the min/1-x counterexample fixture, found by the exhaustive search
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    outcome = search_min_counterexample(3, grid)
    assert outcome.hit, "default search no longer finds a counterexample"
    save_structure(outcome.found, FIXTURES / "min_counterexample.bel")
    (FIXTURES / "min_counterexample.json").write_text(
        json.dumps(
            {
                "generator": "search_min_counterexample",
                "atoms": outcome.atom_count,
                "grid": [str(g) for g in outcome.grid],
                "value_order": "midpoint-first, ties toward the smaller value",
                "consistent_candidates_before_hit": outcome.consistent_candidates,
                "notes": "first canonical candidate satisfying A1 (S=1-x), "
                         "A2 (F=min), Par2 that is refuted",
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # malformed files for the parse-error exit path
    (FIXTURES / "bad_parse_conflict.bel").write_text(
        "domain: a b\n"
        "bel {a} | * = 1/3\n"
        "bel {a} | * = 1/2\n"
        "generate probability a=1/3 b=2/3\n",
        encoding="utf-8",
    )
    (FIXTURES / "bad_parse_incomplete.bel").write_text(
        "domain: a b\n"
        "bel {a} | * = 1/3\n",
        encoding="utf-8",
    )

    manifest = [
        {"args": ["check", "{file}"], "file": "uniform2.bel", "expect": 0},
        {"args": ["check", "{file}"], "file": "weights_1_3.bel", "expect": 0},
        {"args": ["check", "{file}"], "file": "three_atoms.bel", "expect": 0},
        {"args": ["check", "{file}"], "file": "distorted_k2.bel", "expect": 0},
        {"args": ["check", "{file}"], "file": "interval_bounds.bel", "expect": 0},
        {"args": ["check", "{file}"], "file": "min_counterexample.bel", "expect": 0},
        {"args": ["check", "{file}"], "file": "a1_conflict.bel", "expect": 1},
        {"args": ["check", "{file}"], "file": "a2_conflict.bel", "expect": 1},
        {"args": ["check", "{file}"], "file": "chain_conflict.bel", "expect": 1},
        {"args": ["check", "{file}"], "file": "par1_violation.bel", "expect": 1},
        {"args": ["decide", "{file}"], "file": "uniform2.bel", "expect": 0},
        {"args": ["decide", "{file}"], "file": "three_atoms.bel", "expect": 0},
        {"args": ["decide", "{file}"], "file": "distorted_k2.bel", "expect": 0},
        {"args": ["decide", "{file}"], "file": "gauge_rescaled_prob.bel", "expect": 0},
        {"args": ["decide", "{file}", "--seed", "7"],
         "file": "min_counterexample.bel", "expect": 1},
        {"args": ["decide", "{file}"], "file": "chain_conflict.bel", "expect": 1},
        {"args": ["decide", "{file}"], "file": "order_conflict.bel", "expect": 1},
        {"args": ["decide", "{file}"], "file": "a1_conflict.bel", "expect": 1},
        {"args": ["decide", "{file}"], "file": "a2_conflict.bel", "expect": 1},
        {"args": ["decide", "{file}"], "file": "par1_violation.bel", "expect": 1},
        {"args": ["audit", "{file}", "--theorem", "1"],
         "file": "three_atoms.bel", "expect": 1},
        {"args": ["audit", "{file}", "--theorem", "2"],
         "file": "three_atoms.bel", "expect": 1},
        {"args": ["audit", "{file}", "--theorem", "2"],
         "file": "min_counterexample.bel", "expect": 1},
        {"args": ["equations", "--form", "product", "--eq", "EQ1", "--grid", "20"],
         "file": None, "expect": 0},
        {"args": ["equations", "--form", "minimum", "--eq", "EQ1", "--grid", "20"],
         "file": None, "expect": 0},
        {"args": ["equations", "--form", "linear-complement", "--eq", "EQ3.5",
                  "--grid", "100"], "file": None, "expect": 0},
        {"args": ["check", "{file}"], "file": "bad_parse_conflict.bel", "expect": 65},
        {"args": ["check", "{file}"], "file": "bad_parse_incomplete.bel", "expect": 65},
    ]
    (FIXTURES / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
