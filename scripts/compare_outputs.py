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
  9-atom table (`write_wide`)
- `audit` runs with invalid density options (`AUDIT_OPTION_CASES`) on a
  small coin family it writes there, `decide` runs with invalid search
  options (`DECIDE_OPTION_CASES`) and `equations` runs with invalid ones
  (`EQUATIONS_OPTION_CASES`).

Each tree runs every job once, in-process through `coxcheck.cli.main`, in an
interpreter of its own.  Per job the exit code, stdout, stderr and JSON
report without `timings` must match, and for `decide` also the certificate
kind, description, `recheck()` result and order-conflict instances.  Prints
every differing job with its differing fields, before and after, then a
count; exits 1 on any difference, 0 when every job matches.
Uses the standard library only and writes nothing inside the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
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
        report = Path(job["report"])
        report.unlink(missing_ok=True)
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
    for path in write_large(tmp / "large", beltables):
        for sub in ("check", "decide"):
            report = reports / f"{sub}-large-{path.stem}.json"
            jobs.append({"id": f"{sub}/large/{path.name}",
                         "argv": [sub, str(path), "--json", str(report)],
                         "report": str(report)})
    for path in write_wide(tmp / "wide", beltables):
        report = reports / f"check-wide-{path.stem}.json"
        jobs.append({"id": f"check/wide/{path.name}",
                     "argv": ["check", str(path), "--json", str(report)],
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
    family = tmp / "coin-family"
    family.mkdir()
    for coins in (1, 2):
        (family / f"coins_{coins:02d}.bel").write_text(
            beltables.coin_member_text(coins), encoding="utf-8")
    targets = {"1": [str(fixtures[0]), "--theorem", "1"],
               "4": ["--theorem", "4", "--family", str(family)]}
    for name, (theorem, *options) in AUDIT_OPTION_CASES.items():
        report = reports / f"audit-options-{name}.json"
        jobs.append({"id": f"audit/options/{name}",
                     "argv": ["audit", *targets[theorem], *options,
                              "--json", str(report)],
                     "report": str(report)})
    return jobs


#: Job name -> subcommand and options, run on every fixture.
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


#: `decide` runs whose search options must be refused with exit 64.
DECIDE_OPTION_CASES = {
    "negative-tolerance": ["--tol", "-1e-9"],
}

#: `equations` runs whose options must be refused with exit 64.
EQUATIONS_OPTION_CASES = {
    "negative-tolerance": ["--tol", "-1"],
    "nan-tolerance": ["--tol", "nan"],
}


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
    table = beltables.relabelled_table(
        beltables.normalized([15, 20, 12, 9, 5, 6, 28, 22, 1]), "power3")

    def event(mask):  # beltables names at most 8 atoms
        return "{" + " ".join(atoms[i] for i in range(9) if mask >> i & 1) + "}"
    nine = out / "probability-power3-9.bel"
    nine.write_text(
        f"domain: {' '.join(atoms[:9])}\n"
        + "".join(f"bel {event(v)} | {event(u)} = {x}\n" for (v, u), x in table.items()),
        encoding="utf-8")
    return [uniform, nine]


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
