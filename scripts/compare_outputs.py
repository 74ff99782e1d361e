"""Compare what coxcheck prints and reports between this tree and a revision.

    python scripts/compare_outputs.py --against REV [--seed N [N ...]]

Extracts REV's `src/` with `git archive` into a temporary directory and
builds the jobs there:

- every input of the four benchmark workloads for each seed
  (`perfbench/workloads.build`, default seed 201; `--seed 201 501` builds
  both)
- a `decide`, a `check` and a theorem-1 and theorem-2 `audit` run of every
  fixture, and a theorem-3 `audit` of every fixture with itself as its
  extension, so theorem 3's Par1 failures and A1/A2 clashes are diffed
- a `check` run of malformed copies of a fixture that it writes into its
  temporary directory (`MALFORMED_LINES`), so the parser's error paths are
  diffed too, and of `generate probability` files with a bad weight line
  (`BAD_GENERATOR_LINES`)
- a `check` and a `decide` run of three 8-atom tables (`write_large`), whose
  extraction and associativity join span many chunks
- a `check` and a `decide` run of 8- and 9-atom tables with a clash
  planted late (`write_planted`): an A2 clash past instance 16,384, where
  A2 extraction's second chunk starts, with A1 intact, and an A1 clash in
  the last row
- a `check` run of a uniform 70-atom `generate probability` file and of a
  9-atom table (`write_wide`), and a `check` and a `decide` run of a seeded
  `swap_adjacent_values` forgery of that table (`write_wide_forgery`),
  whose associativity join passes over all 95,436 F keys and whose ratio
  engine ends in an order conflict
- a `check` and a `decide` run of the 9-atom weights through
  v ↦ (2v + v³)/3 (`write_wide_mix`), which the ratio engine's fixpoint
  settles in phase `propagation`
- a `check` and a `decide` run of an all-indented copy of every fixture and
  of the `write_wide_mix` table (`write_indented`); on each tree, each must
  give what its plain copy gives, apart from the report's `file` and
  `command`, which name the copy
- a `decide` run of 200 seeded non-power tables of 3-5 atoms
  (`write_sweep`), of which only the verdict kind, the settling phase, the
  witness weights and any certificate are compared, since the numeric
  phase's evaluation counts and residuals depend on its solver; the tally
  of kinds and phases is printed for each tree
- a theorem-1 `audit` of the 8-atom tables and of the 9-atom table, whose
  Par4 check spans many rows and columns
- a theorem-4 `audit` with its default options (grid 5, ε 1/20) of the
  1-3 coin family, and theorem-4 `audit` runs at grid 3 with two seeds,
  which theorem 4 does not read, of the 1-8 coin family, whose 256-atom
  `generate probability` line is parsed and read by sizes
- theorem-4 `audit` runs that stress the density pass (`DENSITY_RUNS`):
  the 1-3 coin family at grid 21 (9,261 targets), the 1-12 coin family at
  grid 5 and ε 1/100, a family of non-uniform weight backings and tables,
  the 1-3 coin members relabelled onto [1, 2], at grid 3 the 1-3 coin
  members with a 7-atom weight backing of weights 1/p over seven primes
  near 10^4, whose values' denominators are too large for the float pass
  to settle alone, the 1-2 coin members with a 40-atom non-uniform weight
  backing the pass cannot read, the coin families where greedy and
  sampled chains reported misses that some chain meets: 4 coins at grid 5
  and ε 1/20, 8 coins at grid 5 and ε 1/20, and 3 coins at grid 7 and
  ε 1/30, and the 1-3 coin family with its 2-coin member written as a
  table, at grid 5 and ε 1/20
- theorem-4 `audit` runs of families whose members disagree on S and on
  F, some of which conflict on their own (`write_conflicting_families`), so
  the uniformity details are diffed
- theorem-4 `audit` runs of coin families that are not read off one size
  table alone (`write_size_table_families`): the 1-3 coin members with a
  table member that shares their values but not S, first, between them
  and last, and the 1-4 coin members with one on other bounds
- `audit` runs with invalid density options (`AUDIT_OPTION_CASES`) on a
  small coin family it writes there, `decide` runs with invalid search
  options (`DECIDE_OPTION_CASES`) and `equations` runs with invalid ones
  (`EQUATIONS_OPTION_CASES`)
- runs of inputs over a size limit that it writes into its temporary
  directory (`write_hostile`, `HOSTILE_RUNS`): a `check` and a `decide`
  of a complete 13-atom table (3^13 − 1 `bel` lines, 67 MB) and of a
  one-line table over 100,000 atoms, and a `decide` of a 100,000-atom
  `generate probability` file
- weight-backed jobs (`write_weight_backed`, `WEIGHT_BACKED_RUNS`): a
  `check`, a `decide` and a theorem-1 `audit` of a 10-atom `generate
  probability` file, and a `generate probability` of the same weights;
  a `decide` of a 12-atom `generate probability` file of non-uniform
  weights, settled in `structured-candidates` by one `verify_witness` over
  its 531,440 pairs;
  a `generate distorted` of 8 atoms with k = 2; theorem-1 and theorem-2
  `audit` runs of the 1- and 2-coin family members; and a theorem-3
  `audit` of a uniform 2-atom base against its 7-coin extension.

Each tree runs every job once, in-process through `coxcheck.cli.main`, in an
interpreter of its own.  Per job the exit code, stdout, stderr and JSON
report without `timings` must match, for `generate` the SHA-256 of the file
it writes, and for `decide` also the certificate kind, description,
`recheck()` result and order-conflict instances; on each tree, so must an
indented copy's job and its plain copy's.  Prints every differing job with
its differing fields, before and after, then a count; exits 1 on any
difference, 0 when every job matches.
Uses the standard library only and writes nothing inside the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def order_instances(cert) -> list:
    """An order conflict's instances as mask lists, from either format: the
    masks themselves, or the former ('sum' | 'product', masks) pairs under
    `cert.data`, whose tag a mask's arity gives."""
    if hasattr(cert, "data"):
        return [list(masks) for _, masks in cert.data.instances]
    return [list(masks) for masks in cert.instances]


def run_jobs(src: str, jobs_path: str, out_path: str) -> None:
    """Worker: run every job against the coxcheck package under `src`."""
    sys.path.insert(0, src)
    import coxcheck
    from coxcheck import cli
    from coxcheck.files import load_structure

    if not Path(coxcheck.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {coxcheck.__file__}, not the tree under {src}")
    decided = []
    original_decide = cli.decide

    def recording_decide(structure, params=None):
        verdict = original_decide(structure, params)
        decided.append(verdict)
        return verdict

    cli.decide = recording_decide
    results = []
    for job in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        report, written = Path(job["report"]), job.get("written")
        for path in filter(None, (report, written)):
            Path(path).unlink(missing_ok=True)
        decided.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(job["argv"])
            except Exception as exc:  # an escaping exception is a difference
                rc = f"raised {exc!r}"
        result = {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if report.exists():
            result["report"] = json.loads(report.read_text(encoding="utf-8"))
            result["report"].pop("timings", None)
        if written and Path(written).exists():
            result["written"] = hashlib.sha256(Path(written).read_bytes()).hexdigest()
        cert = decided[-1].certificate if decided else None
        if cert is not None:
            result["certificate"] = {
                "kind": cert.kind,
                "description": cert.description,
                # a fresh structure, so the recheck shares nothing with decide
                "recheck": cert.recheck(load_structure(job["argv"][1])),
                "instances": (
                    order_instances(cert) if cert.kind == "order-conflict" else None
                ),
            }
        if job.get("verdict_only") and "report" in result:
            verdict = result["report"]["verdict"]
            result = {"exit": rc, "kind": verdict["kind"],
                      "phase": verdict["budget"]["phase"],
                      "weights": verdict.get("weights"),
                      "certificate": result.get("certificate")}
        results.append(result)
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def build_jobs(tmp: Path, seeds: list[int]) -> list[dict]:
    sys.dont_write_bytecode = True  # keep perfbench/ free of caches
    sys.path.insert(0, str(REPO / "perfbench"))
    import beltables
    import workloads

    jobs = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            out = tmp / "inputs" / str(seed) / workload
            for inp in workloads.build(workload, seed, out):
                jobs.append({"id": f"{workload}/seed{seed}/{inp.id}",
                             "argv": inp.argv, "report": str(inp.report)})
    reports = tmp / "reports"
    reports.mkdir()
    fixtures = sorted((REPO / "fixtures").glob("*.bel"))
    for path in fixtures:
        for name, (sub, *options) in FIXTURE_RUNS.items():
            report = reports / f"{name}-{path.stem}.json"
            jobs.append({"id": f"{name}/{path.name}",
                         "argv": [sub, str(path), *options, "--json", str(report)],
                         "report": str(report)})
        report = reports / f"audit-t3-{path.stem}.json"
        jobs.append({"id": f"audit-t3/{path.name}",
                     "argv": ["audit", str(path), "--theorem", "3", "--extension", str(path),
                              "--json", str(report)],
                     "report": str(report)})
    for path in write_malformed(tmp / "malformed") + write_bad_generators(tmp / "bad-gen"):
        report = reports / f"check-malformed-{path.stem}.json"
        jobs.append({"id": f"check/malformed/{path.name}",
                     "argv": ["check", str(path), "--json", str(report)],
                     "report": str(report)})
    mix = write_wide_mix(tmp / "wide-mix", beltables)
    for kind, paths, names in (("large", write_large(tmp / "large", beltables),
                               ("check", "decide", "audit-t1")),
                              ("wide", write_wide(tmp / "wide", beltables),
                               ("check", "audit-t1")),
                              ("wide-forged", write_wide_forgery(tmp / "wide-forged", beltables),
                               ("check", "decide")),
                              ("wide-mix", mix, ("check", "decide")),
                              ("planted", write_planted(tmp / "planted", beltables),
                               ("check", "decide"))):
        for path in paths:
            for name in names:
                sub, *options = FIXTURE_RUNS[name]
                report = reports / f"{name}-{kind}-{path.stem}.json"
                jobs.append({"id": f"{name}/{kind}/{path.name}",
                             "argv": [sub, str(path), *options, "--json", str(report)],
                             "report": str(report)})
    for plain, path in write_indented(tmp / "indented", [*fixtures, *mix]):
        for name in ("check", "decide"):
            report = reports / f"{name}-indented-{path.stem}.json"
            jobs.append({"id": f"{name}/indented/{path.name}",
                         "argv": [name, str(path), "--json", str(report)],
                         "report": str(report),
                         "same_as": next(job["id"] for job in jobs
                                         if job["argv"][:3] == [name, str(plain), "--json"])})
    for path in write_sweep(tmp / "sweep", beltables):
        report = reports / f"decide-sweep-{path.stem}.json"
        jobs.append({"id": f"decide/sweep/{path.name}", "verdict_only": True,
                     "argv": ["decide", str(path), "--json", str(report)],
                     "report": str(report)})
    for name, argv in DECIDE_OPTION_CASES.items():
        report = reports / f"decide-options-{name}.json"
        jobs.append({"id": f"decide/options/{name}",
                     "argv": ["decide", str(fixtures[0]), *argv, "--json", str(report)],
                     "report": str(report)})
    for name, argv in EQUATIONS_OPTION_CASES.items():
        report = reports / f"equations-options-{name}.json"
        jobs.append({"id": f"equations/options/{name}",
                     "argv": ["equations", "--form", "product", "--eq", "EQ1", *argv,
                              "--json", str(report)],
                     "report": str(report)})
    family = write_coin_family(tmp / "coin-family", 2, beltables)
    three = write_coin_family(tmp / "coin-family-3", 3, beltables)
    report = reports / "audit-t4-default-options.json"
    jobs.append({"id": "audit-t4/default-options/coins-3",
                 "argv": ["audit", "--theorem", "4", "--family", str(three),
                          "--json", str(report)],
                 "report": str(report)})
    four = write_coin_family(tmp / "coin-family-4", 4, beltables)
    eight = write_coin_family(tmp / "coin-family-8", 8, beltables)
    for seed in (0, 9):
        report = reports / f"audit-t4-coins-8-seed{seed}.json"
        jobs.append({"id": f"audit-t4/grid-3/coins-8/seed{seed}",
                     "argv": ["audit", "--theorem", "4", "--family", str(eight),
                              "--grid", "3", "--seed", str(seed), "--json", str(report)],
                     "report": str(report)})
    density = write_density_families(tmp / "density", beltables)
    density.update({"coins-3": three, "coins-4": four, "coins-8": eight})
    for name, members, options in DENSITY_RUNS:
        report = reports / f"audit-t4-density-{name}.json"
        jobs.append({"id": f"audit-t4/density/{name}",
                     "argv": ["audit", "--theorem", "4", "--family", str(density[members]),
                              *options, "--json", str(report)],
                     "report": str(report)})
    for kind, paths in (("conflicting", write_conflicting_families(tmp / "conflicting",
                                                                   beltables)),
                        ("size-table", write_size_table_families(tmp / "size-table",
                                                                 beltables))):
        for path in paths:
            report = reports / f"audit-t4-{kind}-{path.name}.json"
            jobs.append({"id": f"audit-t4/{kind}/{path.name}",
                         "argv": ["audit", "--theorem", "4", "--family", str(path),
                                  "--grid", "2", "--json", str(report)],
                         "report": str(report)})
    for name, path in write_hostile(tmp / "hostile").items():
        for sub in HOSTILE_RUNS[name]:
            report = reports / f"{sub}-hostile-{name}.json"
            jobs.append({"id": f"{sub}/hostile/{name}",
                         "argv": [sub, str(path), "--json", str(report)],
                         "report": str(report)})
    inputs = write_weight_backed(tmp / "weight-backed", family)
    for name, argv in WEIGHT_BACKED_RUNS:
        report = reports / f"weight-backed-{name}.json"
        argv = [str(inputs.get(a, a)) for a in argv]
        job = {"id": f"weight-backed/{name}", "argv": [*argv, "--json", str(report)],
               "report": str(report)}
        if argv[0] == "generate":
            job["written"] = argv[argv.index("--out") + 1]
        jobs.append(job)
    targets = {"1": [str(fixtures[0]), "--theorem", "1"],
               "4": ["--theorem", "4", "--family", str(family)]}
    for name, (theorem, *options) in AUDIT_OPTION_CASES.items():
        report = reports / f"audit-options-{name}.json"
        jobs.append({"id": f"audit/options/{name}",
                     "argv": ["audit", *targets[theorem], *options,
                              "--json", str(report)],
                     "report": str(report)})
    return jobs


#: Job name -> subcommand and options, run on every fixture (and some of
#: them on the large and wide tables).
FIXTURE_RUNS = {
    "decide": ["decide"],
    "check": ["check"],
    "audit-t1": ["audit", "--theorem", "1"],
    "audit-t2": ["audit", "--theorem", "2"],
}

#: `audit` runs, by theorem and options, whose density options must be
#: refused with exit 64.  The over-limit grid goes to a theorem-1 audit,
#: which never probes it, so a tree that does not refuse it still ends.
AUDIT_OPTION_CASES = {
    "zero-denominator-epsilon": ["4", "--epsilon", "1/0"],
    "zero-epsilon": ["4", "--epsilon", "0"],
    "non-numeric-epsilon": ["4", "--epsilon", "abc"],
    "negative-grid": ["4", "--grid", "-1"],
    "negative-epsilon": ["4", "--epsilon", "-1/2"],
    "over-limit-grid": ["1", "--grid", "100000"],
}


#: Weight-backed jobs, by name: argv, where a name of `write_weight_backed`
#: stands for the path it wrote.
TEN_ATOMS = ",".join(f"a{i}" for i in range(10))
TEN_WEIGHTS = ",".join(f"{i}/55" for i in range(1, 11))
WEIGHT_BACKED_RUNS = [
    ("check-p10", ["check", "p10"]),
    ("decide-p12", ["decide", "p12"]),
    ("decide-p10", ["decide", "p10"]),
    ("audit-t1-p10", ["audit", "p10", "--theorem", "1"]),
    ("generate-p10", ["generate", "probability", "--atoms", TEN_ATOMS,
                      "--weights", TEN_WEIGHTS, "--out", "generated-p10"]),
    ("generate-distorted-8-k2", ["generate", "distorted", "--atoms",
                                 ",".join(f"a{i}" for i in range(8)),
                                 "--weights", ",".join(f"{i}/36" for i in range(1, 9)),
                                 "--k", "2", "--out", "generated-distorted-8"]),
    *((f"audit-t{t}-coins-{c}", ["audit", f"coins-{c}", "--theorem", t])
      for c in (1, 2) for t in ("1", "2")),
    ("audit-t3-coins-7", ["audit", "base-2", "--theorem", "3",
                          "--extension", "coins-7-extension"]),
]


def write_weight_backed(out: Path, family: Path) -> dict[str, Path]:
    """The inputs of `WEIGHT_BACKED_RUNS` by name: the 10-atom probability
    of weights 1/55..10/55 and a 12-atom one of weights
    `random.Random(1).randint(1, 9)` as `generate probability` files, the
    uniform 2-atom base and its 7-coin extension as `generate coins` writes
    it, the 1- and 2-coin members of the coin family in `family`, and the
    paths the `generate` jobs write."""
    out.mkdir()
    atoms = TEN_ATOMS.split(",")
    extended = [f"{a}:{c:07b}" for a in "ab" for c in range(128)]
    rng = random.Random(1)
    twelve = [rng.randint(1, 9) for _ in range(12)]
    texts = {
        "p10": (f"domain: {' '.join(atoms)}\ngenerate probability "
                + " ".join(f"{a}={w}" for a, w in zip(atoms, TEN_WEIGHTS.split(",")))),
        "p12": (f"domain: {' '.join(f'x{i}' for i in range(12))}\ngenerate probability "
                + " ".join(f"x{i}={w}/{sum(twelve)}" for i, w in enumerate(twelve))),
        "base-2": "domain: a b\ngenerate probability a=1/2 b=1/2",
        "coins-7-extension": (f"domain: {' '.join(extended)}\ngenerate probability "
                              + " ".join(f"{a}=1/256" for a in extended)),
    }
    paths = {name: out / f"{name}.bel" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text + "\n", encoding="utf-8")
    paths.update({f"coins-{c}": family / f"coins_{c:02d}.bel" for c in (1, 2)})
    paths.update({name: out / f"{name}.bel"
                  for name in ("generated-p10", "generated-distorted-8")})
    return paths


#: The commands run on each input of `write_hostile`.
HOSTILE_RUNS = {"table13": ("check", "decide"), "line100k": ("check", "decide"),
                "weights100k": ("decide",)}


def write_hostile(out: Path) -> dict[str, Path]:
    """Inputs over a size limit, by name: the complete table of 1/2 over
    the 13 atoms a-m, written one conditioning event at a time, a domain
    line of 100,000 atoms with one `bel` line, and a uniform `generate
    probability` file over the same atoms."""
    out.mkdir()
    paths = {name: out / f"{name}.bel" for name in HOSTILE_RUNS}
    atoms = "abcdefghijklm"
    events = ["{%s}" % " ".join(a for i, a in enumerate(atoms) if m >> i & 1)
              for m in range(1 << len(atoms))]
    with open(paths["table13"], "w", encoding="utf-8") as fh:
        fh.write(f"domain: {' '.join(atoms)}\n")
        for u in range(1, 1 << len(atoms)):
            subs, v = [u], u
            while v:
                v = (v - 1) & u
                subs.append(v)
            fh.write("".join(f"bel {events[v]} | {events[u]} = 1/2\n" for v in reversed(subs)))
    wide = [f"x{i}" for i in range(100_000)]
    domain = f"domain: {' '.join(wide)}\n"
    paths["line100k"].write_text(domain + "bel {x0} | * = 1/2\n", encoding="utf-8")
    paths["weights100k"].write_text(
        domain + "generate probability " + " ".join(f"{a}=1/100000" for a in wide) + "\n",
        encoding="utf-8")
    return paths


#: `decide` runs whose search options must be refused with exit 64.
DECIDE_OPTION_CASES = {
    "negative-tolerance": ["--tol", "-1e-9"],
}

#: `equations` runs whose options must be refused with exit 64.
EQUATIONS_OPTION_CASES = {
    "negative-tolerance": ["--tol", "-1"],
    "nan-tolerance": ["--tol", "nan"],
}


def write_coin_family(out: Path, coins: int, beltables) -> Path:
    """The uniform coin members of 1..`coins` coins, as `generate family`
    writes them, in the directory `out`."""
    out.mkdir()
    for c in range(1, coins + 1):
        (out / f"coins_{c:02d}.bel").write_text(beltables.coin_member_text(c),
                                                encoding="utf-8")
    return out


#: Theorem-4 density runs, by name: the family (a name of
#: `write_density_families`, or the 1-3, 1-4 or 1-8 coin family) and the
#: options.
DENSITY_RUNS = [
    ("coins-3-grid-21", "coins-3", ["--grid", "21", "--epsilon", "1/3"]),
    ("coins-12-grid-5", "coins-12", ["--grid", "5", "--epsilon", "1/100"]),
    ("mixed-backings", "mixed", ["--grid", "4", "--epsilon", "1/20", "--seed", "3"]),
    ("bounds-1-2", "bounds-1-2", []),
    ("primes-grid-3", "primes", ["--grid", "3"]),
    ("unsearched-grid-3", "unsearched", ["--grid", "3"]),
    ("coins-4-grid-5", "coins-4", ["--grid", "5", "--epsilon", "1/20"]),
    ("coins-8-grid-5", "coins-8", ["--grid", "5", "--epsilon", "1/20"]),
    ("coins-3-grid-7", "coins-3", ["--grid", "7", "--epsilon", "1/30"]),
    ("table-member", "table-member", ["--grid", "5", "--epsilon", "1/20"]),
]

#: Distinct primes near 10^4: weights 1/p over seven atoms have a unit total
#: of about 2^80, beyond int64.
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069)


def write_density_families(out: Path, beltables) -> dict[str, Path]:
    """The families of `DENSITY_RUNS` by name: the 1-12 coin family, whose
    largest member has 4,096 atoms; a family of non-uniform weight backings
    of 7, 10 and 13 atoms and tables of 3, 5 and 6 atoms; the 1-3 coin
    members as tables relabelled v ↦ 1 + v on the bounds [1, 2]; the 1-3
    coin members with the 7-atom weight backing of weights 1/p over
    `PRIMES`; the 1-2 coin members with a 40-atom weight backing of
    weights i/820; and the 1-3 coin members with the 2-coin one written as
    its table, which must report as the directive family does."""
    out.mkdir()
    paths = {"coins-12": write_coin_family(out / "coins-12", 12, beltables)}
    rng = random.Random(24)
    texts = {}
    for n in (7, 10, 13):
        ints = [rng.randint(1, 9) for _ in range(n)]
        atoms = [f"w{i}" for i in range(n)]
        texts[f"mixed/weights_{n:02d}.bel"] = (
            f"domain: {' '.join(atoms)}\ngenerate probability "
            + " ".join(f"{a}={w}" for a, w in zip(atoms, beltables.normalized(ints))) + "\n")
    for n in (3, 5, 6):
        ints = [rng.randint(1, 9) for _ in range(n)]
        table = beltables.relabelled_table(beltables.normalized(ints), "identity")
        texts[f"mixed/table_{n:02d}.bel"] = beltables.table_text(n, table, (0, 1))
    for coins in (1, 2, 3):
        n = 1 << coins
        table = beltables.relabelled_table(beltables.normalized([1] * n), "identity")
        texts[f"bounds-1-2/coins_{coins:02d}.bel"] = beltables.table_text(
            n, {key: 1 + x for key, x in table.items()}, (1, 2))
    for coins in (1, 2, 3):
        texts[f"primes/coins_{coins:02d}.bel"] = beltables.coin_member_text(coins)
    for coins in (1, 2):
        texts[f"unsearched/coins_{coins:02d}.bel"] = beltables.coin_member_text(coins)
    for coins in (1, 3):
        texts[f"table-member/coins_{coins:02d}.bel"] = beltables.coin_member_text(coins)
    table = beltables.relabelled_table(beltables.normalized([1] * 4), "identity")
    texts["table-member/coins_02.bel"] = beltables.table_text(4, table, (0, 1))
    atoms = [f"w{i}" for i in range(40)]
    texts["unsearched/weights_40.bel"] = (
        f"domain: {' '.join(atoms)}\ngenerate probability "
        + " ".join(f"{a}={i + 1}/820" for i, a in enumerate(atoms)) + "\n")
    product = math.prod(PRIMES)
    atoms = [f"p{i}" for i in range(len(PRIMES))]
    texts["primes/weights_07.bel"] = (
        f"domain: {' '.join(atoms)}\ngenerate probability "
        + " ".join(f"{a}={w}" for a, w in
                   zip(atoms, beltables.normalized([product // p for p in PRIMES]))) + "\n")
    for name, text in texts.items():
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
    paths.update((name, out / name) for name in ("mixed", "bounds-1-2", "primes",
                                                 "unsearched", "table-member"))
    return paths


def write_conflicting_families(out: Path, beltables) -> list[Path]:
    """Two families whose members disagree on S and on F.  The
    probabilities of weights (1, 8) and, squared, (1, 2) share the value
    1/9 but not its complement; three equal weights, once as they are and
    twice with 1/3 moved to 1/4, share the arguments (1/2, 2/3) of F but not
    its output.  The second copy of each disagreeing member agrees with the
    member before it, not with the first one to have the key.  The first
    family ends with a member on the bounds [1/4, 3/4], so its details name
    conflicts across members; the second ends with members that conflict on
    their own, on A1 (`beltables.perturb_entry`) and on A2
    (`fork_combination`)."""

    def table(ints, relabel="identity"):
        return beltables.relabelled_table(beltables.normalized(ints), relabel)
    third = {Fraction(1, 3): Fraction(1, 4)}
    moved = {k: third.get(x, x) for k, x in table([1, 1, 1]).items()}
    rng = random.Random(16)
    disagreeing = [table([1, 8]), table([1, 2], "power2"), table([1, 2], "power2"),
                   table([1, 1, 1]), moved, moved, table([1, 1, 2], "mix2")]
    families = {
        "across-members": disagreeing + [table([1, 2, 4], "affine")],
        "within-members": disagreeing + [
            beltables.fork_combination(rng, beltables.normalized([2, 2, 3]),
                                       table([2, 2, 3])),
            beltables.perturb_entry(rng, table([1, 2, 3])),
        ],
    }
    paths = []
    for name, members in families.items():
        (out / name).mkdir(parents=True)
        for i, member in enumerate(members):
            n = max(u for _, u in member).bit_length()
            bounds = (min(member.values()), max(member.values()))
            (out / name / f"member_{i:02d}.bel").write_text(
                beltables.table_text(n, member, bounds), encoding="utf-8")
        paths.append(out / name)
    return paths


def write_size_table_families(out: Path, beltables) -> list[Path]:
    """Coin families that `build_family` does not read off one size table
    alone.  The 1-3 coin members with a 2-atom table of the values 0, 2/5
    and 1, which the 8-atom member also has, but with S(2/5) = 2/5 where
    the member's is 3/5; the table stands first, between the members and
    last.  And the 1-4 coin members with the 3-coin one on the bounds
    [0, 2] by a `bounds:` line, so that one reads its own table."""
    table = {key: Fraction(2, 5) if x == Fraction(1, 2) else x
             for key, x in beltables.relabelled_table(beltables.normalized([1, 1]),
                                                      "identity").items()}
    coins = [beltables.coin_member_text(c) for c in (1, 2, 3, 4)]
    tabled = beltables.table_text(2, table, (0, 1))
    domain, directive = coins[2].split("\n", 1)
    families = {
        "table-first": [tabled, *coins[:3]],
        "table-between": [*coins[:2], tabled, coins[2]],
        "table-last": [*coins[:3], tabled],
        "bounds-line": [*coins[:2], f"{domain}\nbounds: 0 2\n{directive}", coins[3]],
    }
    paths = []
    for name, members in families.items():
        (out / name).mkdir(parents=True)
        for i, text in enumerate(members):
            (out / name / f"member_{i:02d}.bel").write_text(text, encoding="utf-8")
        paths.append(out / name)
    return paths


def write_large(out: Path, beltables) -> list[Path]:
    """8-atom tables: 65,536 chain triples, so extraction and the
    associativity join run in many chunks.  A probability through v ↦ v³,
    one with an entry of its last row set to a value attained elsewhere
    (the clash sits in the last chunk), and one whose combination function
    forks at one output (`beltables.fork_combination`)."""
    out.mkdir()
    rng = random.Random(8)
    n, full = 8, 255
    weights = beltables.normalized(beltables.draw_weights(rng, n, "random"))
    cubed = beltables.relabelled_table(weights, "power3")
    twins = beltables.normalized(beltables.draw_weights(rng, n, "near"))
    plain = beltables.relabelled_table(twins, "identity")
    late = dict(plain)
    v = rng.choice([v for (v, u) in plain if u == full and 0 < v < full])
    late[v, full] = rng.choice(sorted(
        {x for (_, u), x in plain.items() if u != full} - {plain[v, full]}))
    tables = {
        "probability-power3": cubed,
        "perturbed-late": late,
        "forked": beltables.fork_combination(rng, twins, plain),
    }
    paths = []
    for name, table in tables.items():
        path = out / f"{name}.bel"
        path.write_text(beltables.table_text(n, table, (0, 1)), encoding="utf-8")
        paths.append(path)
    return paths


def write_wide(out: Path, beltables) -> list[Path]:
    """A uniform 70-atom `generate probability` file, which extraction reads
    by event sizes, with witness masks wider than 64 bits, and the 9-atom
    probability of weights 15, 20, 12, 9, 5, 6, 28, 22, 1 through v ↦ v³
    (95,436 F keys)."""
    out.mkdir()
    atoms = [f"x{i}" for i in range(70)]
    uniform = out / "uniform-70.bel"
    uniform.write_text(
        f"domain: {' '.join(atoms)}\n"
        f"generate probability {' '.join(f'{a}=1/70' for a in atoms)}\n",
        encoding="utf-8")
    nine = out / "probability-power3-9.bel"
    nine.write_text(nine_atom_text(nine_atom_table(beltables)), encoding="utf-8")
    return [uniform, nine]


def write_wide_forgery(out: Path, beltables) -> list[Path]:
    """The 9-atom table of `write_wide` with two adjacent interior values
    exchanged everywhere (`beltables.swap_adjacent_values`, seed 9): A1, A2
    and associativity survive, so the join runs to its end."""
    out.mkdir()
    table = beltables.swap_adjacent_values(random.Random(9), nine_atom_table(beltables))
    swapped = out / "probability-power3-9-swapped.bel"
    swapped.write_text(nine_atom_text(table), encoding="utf-8")
    return [swapped]


def write_wide_mix(out: Path, beltables) -> list[Path]:
    """The weights of `write_wide`'s 9-atom table through v ↦ (2v + v³)/3,
    a map no exact candidate fits."""
    out.mkdir()
    plain = nine_atom_table(beltables, "identity")
    mix = out / "probability-mix-9.bel"
    mix.write_text(nine_atom_text({k: (2 * x + x ** 3) / 3 for k, x in plain.items()}),
                   encoding="utf-8")
    return [mix]


#: The indentations `write_indented` gives a file's lines, in turn.
INDENTS = (" ", "\t", "\u00a0", "\u3000", "  \t\u00a0\u3000")


def write_indented(out: Path, paths: list[Path]) -> list[tuple[Path, Path]]:
    """A copy of each file in `paths` with every line indented by `INDENTS`
    in turn, each with the file it copies."""
    out.mkdir()
    copies = []
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        copy = out / path.name
        copy.write_text("".join(f"{INDENTS[i % len(INDENTS)]}{line}\n"
                                for i, line in enumerate(lines)), encoding="utf-8")
        copies.append((path, copy))
    return copies


#: The strictly increasing maps of `write_sweep`, with g(0) = 0 and g(1) = 1;
#: none is affine or a power law, so no structured candidate fits.
SWEEP_MAPS = {
    "mix2": lambda v: (v + v * v) / 2,
    "mobius": lambda v: v / (2 - v),
    "cubic-mix": lambda v: (2 * v + v ** 3) / 3,
    "mix13": lambda v: (v + 3 * v * v) / 4,
    "harmonic": lambda v: 2 * v / (1 + v),
}


def write_sweep(out: Path, beltables) -> list[Path]:
    """200 probabilities drawn from `random.Random(7)`, each of 3-5
    atoms with integer weights 1-9, pushed through the `SWEEP_MAPS` in
    turn; a file is named by its place, map and weights."""
    out.mkdir()
    rng = random.Random(7)
    maps = list(SWEEP_MAPS.items())
    paths = []
    for i in range(200):
        n = rng.randint(3, 5)
        ints = [rng.randint(1, 9) for _ in range(n)]
        name, g = maps[i % len(maps)]
        plain = beltables.relabelled_table(beltables.normalized(ints), "identity")
        path = out / f"{i:03d}-{name}-{'-'.join(map(str, ints))}.bel"
        path.write_text(beltables.table_text(n, {k: g(x) for k, x in plain.items()}, (0, 1)),
                        encoding="utf-8")
        paths.append(path)
    return paths


#: Atom weights with twins (equal weights) for `write_planted`, by atom count.
PLANTED_WEIGHTS = {8: [3, 5, 2, 7, 5, 1, 4, 6], 9: [15, 20, 12, 9, 5, 6, 28, 20, 1]}

#: The A2 instance where extraction's second chunk starts.
SECOND_CHUNK = 1 << 14


def write_planted(out: Path, beltables) -> list[Path]:
    """Probabilities of `PLANTED_WEIGHTS` with a clash planted late.

    `a2-late`: as `beltables.fork_combination` does, Bel(V|U) and its
    complement move to fresh values, with the twin i in V, the twin j in
    U∖V and |U∖V| ≥ 2, for the first such pair whose row U starts past A2
    instance SECOND_CHUNK; each fresh value keeps a single complement, so A1
    holds, and the first A2 clash lies in row U or after it.  `a1-last`: an
    entry of the last row set to a value attained only under other
    conditions, as `write_large` does on 8 atoms."""
    out.mkdir()
    rng = random.Random(23)
    paths = []
    for n, raw in PLANTED_WEIGHTS.items():
        table = beltables.relabelled_table(beltables.normalized(raw), "identity")
        values = sorted(set(table.values()))
        i, j = (k for k in range(n) if raw.count(raw[k]) == 2)
        row_start, past = 0, None  # the A2 instances of row u: 3^|U| - 1
        for u in range(1, 1 << n):
            if row_start > SECOND_CHUNK and u >> i & u >> j & 1 and bin(u).count("1") >= 3:
                past = u
                break
            row_start += 3 ** bin(u).count("1") - 1
        v = next(v for v in beltables.submasks(past)
                 if v >> i & 1 and not v >> j & 1 and bin(past & ~v).count("1") >= 2)

        def fresh(x, taken):
            k = values.index(x)
            return next(mid for mid in ((x + values[k + 1]) / 2, (values[k - 1] + x) / 2)
                        if mid != taken)
        late = dict(table)
        late[v, past] = fresh(table[v, past], None)
        late[past & ~v, past] = fresh(table[past & ~v, past], late[v, past])
        full = (1 << n) - 1
        last = dict(table)
        w = rng.choice([w for w in beltables.submasks(full) if 0 < w < full])
        last[w, full] = rng.choice(sorted(
            {x for (_, u), x in table.items() if u != full} - {table[w, full]}))
        for name, planted in (("a2-late", late), ("a1-last", last)):
            path = out / f"{name}-{n}.bel"
            path.write_text(nine_atom_text(planted) if n == 9
                            else beltables.table_text(n, planted, (0, 1)), encoding="utf-8")
            paths.append(path)
    return paths


def nine_atom_table(beltables, relabel="power3") -> dict:
    return beltables.relabelled_table(
        beltables.normalized([15, 20, 12, 9, 5, 6, 28, 22, 1]), relabel)


def nine_atom_text(table: dict) -> str:
    """A 9-atom table as a structure file; beltables names at most 8 atoms."""
    atoms = [f"x{i}" for i in range(9)]

    def event(mask):
        return "{" + " ".join(atoms[i] for i in range(9) if mask >> i & 1) + "}"
    return (f"domain: {' '.join(atoms)}\n"
            + "".join(f"bel {event(v)} | {event(u)} = {x}\n" for (v, u), x in table.items()))


#: One line per parse error the parser reports on a token or a line, and
#: some that are no error.  `fixtures/three_atoms.bel` sets Bel({a}|{a b})
#: to 1/3 on its line 8 and Bel({b}|{a b}) to 2/3 on its line 9, after the
#: inserted line.  The last ones try how a line is cut into tokens: the
#: "|" and "=" a `bel` line is split at, comments, line breaks other than
#: "\n" (a file read in text mode turns "\r\n" into "\n"; "\v" and "\f"
#: stay and end a line) and tabs.
MALFORMED_LINES = {
    "bad-literal": "bel {a} | * = x/2",
    "long-literal": "bel {a} | * = " + "7" * 1001,
    "unknown-atom": "bel {z} | * = 1",
    "repeated-atom": "bel {a a} | * = 1/2",
    "empty-condition": "bel {a} | {} = 1",
    "conflicting-duplicate": "bel {a} | {a b} = 1/2",
    "same-value-other-spelling": "bel {a} | {a b} = 2/6",
    "duplicate-bounds": "bounds: 0 1",
    "two-bars": "bel {a} | {b} | {a b} = 1/2",
    "equals-in-value": "bel {a} | {a b} = 1=3",
    "mid-line-comment": "bel {a} | {a b} = 1/3  # the same value",
    "comment-hides-value": "bel {a} | {a b} # = 1/3",
    "crlf-break": "bel {a} | {a b} = 1/3\r\nbel {b} | {a b} = 1/2",
    "vertical-tab-break": "bel {a} | {a b} = 1/3\vbel {a} | {a b} = 1/2",
    "form-feed-break": "bel {b} | {a b} = 2/3\fbel {b} | {a b} = 1/2",
    "tab-after-bel": "bel\t{a} | {a b} = 1/3",
    "tabs-around-tokens": "\tbel {a}\t|\t{a b}\t=\t2/6\t",
}

#: Lines inserted before the domain line, which must come first.
LEADING_LINES = {
    "bel-before-domain": "bel {a} | * = 1/3",
}


def write_malformed(out: Path) -> list[Path]:
    """Copies of `fixtures/three_atoms.bel` with a bad line inserted after
    its first `bel` lines (before its first line for `LEADING_LINES`), once,
    and again on a later line.  The parser must stop at the first bad line
    and name it.  One more copy drops the last `bel` line, so the table is
    incomplete."""
    out.mkdir()
    lines = (REPO / "fixtures" / "three_atoms.bel").read_text(encoding="utf-8").splitlines()
    copies = {}
    inserted = [(name, bad, 5) for name, bad in MALFORMED_LINES.items()]
    inserted += [(name, bad, 0) for name, bad in LEADING_LINES.items()]
    for name, bad, first in inserted:
        for variant, at in (("once", [first]), ("repeated", [first, 12])):
            text = list(lines)
            for i in reversed(at):
                text.insert(i, bad)
            copies[f"{name}-{variant}"] = text
    last_bel = max(i for i, line in enumerate(lines) if line.startswith("bel "))
    copies["incomplete-table"] = lines[:last_bel] + lines[last_bel + 1:]
    paths = []
    for name, text in copies.items():
        path = out / f"{name}.bel"
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


#: `generate probability` lines over the atoms a, b, c that the parser must
#: refuse, each with its own message.
BAD_GENERATOR_LINES = {
    "zero-weight": "generate probability a=0 b=1/2 c=1/2",
    "negative-weight": "generate probability a=-1/2 b=1 c=1/2",
    "sum-above-one": "generate probability a=1/2 b=1/2 c=1/3",
    "sum-below-one": "generate probability a=1/4 b=1/4 c=1/3",
    "unknown-atom": "generate probability a=1/3 b=1/3 z=1/3",
    "duplicate-weight": "generate probability a=1/3 b=1/3 a=1/3",
    "missing-atom": "generate probability a=1/2 b=1/2",
}


def write_bad_generators(out: Path) -> list[Path]:
    """A directive-only file over a, b, c for each of `BAD_GENERATOR_LINES`."""
    out.mkdir()
    paths = []
    for name, line in BAD_GENERATOR_LINES.items():
        path = out / f"generator-{name}.bel"
        path.write_text(f"domain: a b c\n{line}\n", encoding="utf-8")
        paths.append(path)
    return paths


def extract_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=REPO, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def differing_fields(before, after, path: str = "", depth: int = 3):
    """Dotted paths of the fields that differ, descending `depth` levels of
    nested dicts (down to a report's `verdict.budget`)."""
    if before == after:
        return []
    if depth and isinstance(before, dict) and isinstance(after, dict):
        return [
            field
            for key in sorted(set(before) | set(after))
            for field in differing_fields(before.get(key), after.get(key),
                                          f"{path}{key}.", depth - 1)
        ]
    return [(path.rstrip("."), before, after)]


def without_paths(result: dict) -> dict:
    """`result` without its report's `file` and `command`, which name the
    input and report paths."""
    report = {key: value for key, value in result.get("report", {}).items()
              if key not in ("file", "command")}
    return {**result, "report": report} if "report" in result else result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--seed", type=int, nargs="+", default=[201])
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "JOBS", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_jobs(*args.worker)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        trees = {args.against: extract_src(args.against, tmp / "rev"),
                 "working tree": REPO / "src"}
        jobs = build_jobs(tmp, args.seed)
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        results = []
        for name, src in trees.items():
            out_path = tmp / f"results-{len(results)}.json"
            print(f"running {len(jobs)} jobs on {name}", flush=True)
            subprocess.run([sys.executable, "-B", __file__, "--worker", str(src),
                            str(jobs_path), str(out_path)], check=True)
            results.append(json.loads(out_path.read_text(encoding="utf-8")))
    for name, tree in zip(trees, results):
        tally = Counter(f"{r.get('kind')}/{r.get('phase')}"
                        for job, r in zip(jobs, tree) if job.get("verdict_only"))
        print(f"sweep on {name}: {dict(sorted(tally.items()))}")
    differing = 0
    at = {job["id"]: i for i, job in enumerate(jobs)}
    for name, tree in zip(trees, results):
        for job, result in zip(jobs, tree):
            if "same_as" in job:
                fields = differing_fields(without_paths(tree[at[job["same_as"]]]),
                                          without_paths(result))
                if fields:
                    differing += 1
                    print(f"job {job['id']} on {name}, against {job['same_as']}:")
                    for field, old, new in fields:
                        print(f"  {field}: {json.dumps(old)[:300]} -> {json.dumps(new)[:300]}")
    for job, before, after in zip(jobs, *results):
        fields = differing_fields(before, after)
        if fields:
            differing += 1
            print(f"job {job['id']}:")
            for name, old, new in fields:
                print(f"  {name}: {json.dumps(old)[:300]} -> {json.dumps(new)[:300]}")
    if not differing:
        print(f"no difference on {len(jobs)} jobs")
        return 0
    print(f"{differing} differences, across trees or from a plain copy, in {len(jobs)} jobs")
    return 1


if __name__ == "__main__":
    sys.exit(main())
