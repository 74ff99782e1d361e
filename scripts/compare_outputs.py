"""Compare what coxcheck prints and reports between this tree and a revision.

    python scripts/compare_outputs.py --against REV [--seed N [N ...]]

Extracts REV's `src/` with `git archive` into a temporary directory and
builds the jobs there:

- every input of the four benchmark workloads for each seed
  (`perfbench/workloads.build`, default seed 201; `--seed 201 501` builds
  both)
- a `decide`, a `check` and a theorem-1 and theorem-2 `audit` run of every
  fixture
- a `check` run of malformed copies of a fixture that it writes into its
  temporary directory (`MALFORMED_LINES`), so the parser's error paths are
  diffed too
- a `check` and a `decide` run of three 8-atom tables (`write_large`), whose
  extraction and associativity join span many chunks
- a `check` run of a uniform 70-atom `generate probability` file and of a
  9-atom table (`write_wide`), and of a seeded `swap_adjacent_values`
  forgery of that table (`write_wide_forgery`), whose associativity join
  passes over all 95,436 F keys
- a theorem-1 `audit` of the 8-atom tables and of the 9-atom table, whose
  Par4 check spans many rows and columns
- a theorem-4 `audit` with its default options (grid 5, ε 1/20) of the
  1-3 coin family, whose missed targets run the density search to its
  full budget
- theorem-4 `audit` runs of families whose members disagree on S and on
  F, some of which conflict on their own (`write_conflicting_families`), so
  the uniformity details are diffed
- `audit` runs with invalid density options (`AUDIT_OPTION_CASES`) on a
  small coin family it writes there, `decide` runs with invalid search
  options (`DECIDE_OPTION_CASES`) and `equations` runs with invalid ones
  (`EQUATIONS_OPTION_CASES`)
- weight-backed jobs (`write_weight_backed`, `WEIGHT_BACKED_RUNS`): a
  `check`, a `decide` and a theorem-1 `audit` of a 10-atom `generate
  probability` file, and a `generate probability` of the same weights;
  a `generate distorted` of 8 atoms with k = 2; theorem-1 and theorem-2
  `audit` runs of the 1- and 2-coin family members; and a theorem-3
  `audit` of a uniform 2-atom base against its 7-coin extension.

Each tree runs every job once, in-process through `coxcheck.cli.main`, in an
interpreter of its own.  Per job the exit code, stdout, stderr and JSON
report without `timings` must match, for `generate` the SHA-256 of the file
it writes, and for `decide` also the certificate kind, description,
`recheck()` result and order-conflict instances.  Prints
every differing job with its differing fields, before and after, then a
count; exits 1 on any difference, 0 when every job matches.
Uses the standard library only and writes nothing inside the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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
                    cert.data.instances if cert.kind == "order-conflict" else None
                ),
            }
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
    for path in write_malformed(tmp / "malformed"):
        report = reports / f"check-malformed-{path.stem}.json"
        jobs.append({"id": f"check/malformed/{path.name}",
                     "argv": ["check", str(path), "--json", str(report)],
                     "report": str(report)})
    for kind, paths, names in (("large", write_large(tmp / "large", beltables),
                               ("check", "decide", "audit-t1")),
                              ("wide", write_wide(tmp / "wide", beltables),
                               ("check", "audit-t1")),
                              ("wide-forged", write_wide_forgery(tmp / "wide-forged", beltables),
                               ("check",))):
        for path in paths:
            for name in names:
                sub, *options = FIXTURE_RUNS[name]
                report = reports / f"{name}-{kind}-{path.stem}.json"
                jobs.append({"id": f"{name}/{kind}/{path.name}",
                             "argv": [sub, str(path), *options, "--json", str(report)],
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
    for path in write_conflicting_families(tmp / "conflicting", beltables):
        report = reports / f"audit-t4-conflicting-{path.name}.json"
        jobs.append({"id": f"audit-t4/conflicting/{path.name}",
                     "argv": ["audit", "--theorem", "4", "--family", str(path),
                              "--grid", "2", "--json", str(report)],
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
    of weights 1/55..10/55 as a `generate probability` file, the uniform
    2-atom base and its 7-coin extension as `generate coins` writes it, the
    1- and 2-coin members of the coin family in `family`, and the paths
    the `generate` jobs write."""
    out.mkdir()
    atoms = TEN_ATOMS.split(",")
    extended = [f"{a}:{c:07b}" for a in "ab" for c in range(128)]
    texts = {
        "p10": (f"domain: {' '.join(atoms)}\ngenerate probability "
                + " ".join(f"{a}={w}" for a, w in zip(atoms, TEN_WEIGHTS.split(",")))),
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


def nine_atom_table(beltables) -> dict:
    return beltables.relabelled_table(
        beltables.normalized([15, 20, 12, 9, 5, 6, 28, 22, 1]), "power3")


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
    differing = 0
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
    print(f"{differing} of {len(jobs)} jobs differ")
    return 1


if __name__ == "__main__":
    sys.exit(main())
