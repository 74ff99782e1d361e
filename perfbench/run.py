#!/usr/bin/env python3
"""coxcheck benchmark: time to a checked verdict on four CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, closed loop: each
input is handed to `coxcheck.cli.main(argv)` in-process only after the
previous one returned and was checked against its known answer.  Inputs are
generated from the seed under perfbench/out/.  A run times a fixed number of
rounds of inputs, about S seconds' worth, and divides every timing by the
machine slowdown measured around it (see SpeedGauge).  The last line of
standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from a separate span-traced pass with --trace 1.  Full
records, per-input timings and spans go to perfbench/out/results/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3

sys.path[:0] = [str(HERE), str(REPO / "src")]

import answers  # noqa: E402
import workloads  # noqa: E402
from spans import CallCounter, SpanTracer, self_times  # noqa: E402


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _source_present() -> bool:
    return (REPO / "src" / "coxcheck" / "cli.py").is_file() and workloads.FIXTURES.is_dir()


# -- set-up ----------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> None:
    """Child of `_measure_setup`: import the CLI, write the inputs, report."""
    import coxcheck.cli  # noqa: F401

    workloads.build(workload, seed, OUT / f"{workload}-probe")
    print(time.perf_counter())


def _measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until its inputs are
    ready, over SETUP_PROBES runs (CLOCK_MONOTONIC is system-wide), each
    scaled by the machine slowdown around it like every other timing."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = machine_slowdown()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=REPO,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        samples.append((ready - started) * 2 / (before + machine_slowdown()))
    return statistics.median(samples)


# -- known-answer checks -------------------------------------------------------


class Outcome:
    __slots__ = ("ok", "unknown", "reason", "phase", "cert_kind", "exit_code")

    def __init__(self):
        self.ok, self.unknown, self.reason = True, False, ""
        self.phase = self.cert_kind = None
        self.exit_code = None

    def fail(self, reason: str) -> "Outcome":
        self.ok, self.reason = False, reason
        return self


def check(inp: workloads.Input, rc, validator) -> Outcome:
    out = Outcome()
    out.exit_code = rc
    try:
        report = json.loads(inp.report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return out.fail(f"no readable report: {exc}")
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return out.fail(f"report fails REPORT_SCHEMA: {errors[0]}")
    if report["exit_code"] != rc:
        return out.fail(f"report exit code {report['exit_code']} != returned {rc}")
    sub = report["subcommand"]
    if sub == "decide":
        verdict = report["verdict"]
        out.phase = verdict["budget"].get("phase")
        if verdict["kind"] == "unknown" and rc == 2:
            out.unknown = True
            return out
    if rc != inp.expect_exit:
        return out.fail(f"exit {rc}, expected {inp.expect_exit}")
    if sub == "decide" and inp.expect_exit == 0:
        if verdict["kind"] != "witness":
            return out.fail(f"verdict {verdict['kind']}, expected witness")
        weights = [Fraction(verdict["weights"][a]) for a in sorted(verdict["weights"])]
        if not answers.witness_holds(inp.table, inp.bounds, weights):
            return out.fail("witness fails the exact re-check")
    elif sub == "decide":
        out.cert_kind = verdict.get("certificate", {}).get("kind")
        if verdict["kind"] != "refutation":
            return out.fail(f"verdict {verdict['kind']}, expected refutation")
        if out.cert_kind != inp.cert_kind:
            return out.fail(f"certificate {out.cert_kind}, pinned {inp.cert_kind}")
    elif sub == "check":
        failed = {c["name"] for c in report["checks"] if c["verdict"] == "fail"}
        if inp.expect_exit == 0 and failed:
            return out.fail(f"checks failed: {sorted(failed)}")
        if inp.expect_exit == 1 and "negation-extraction" not in failed:
            return out.fail(f"negation-extraction passed a perturbed table ({sorted(failed)})")
    elif sub == "audit":
        verdicts = {h["name"]: h for h in report["hypotheses"]}
        density = verdicts.pop("par5-family-density")
        missed = 0 if density["verdict"] == "pass" else int(density["witness"].split(": ")[1].split()[0])
        expected = answers.density_misses(*inp.density)
        if missed != expected:
            return out.fail(f"{missed} density targets missed, oracle says {expected}")
        wrong = [n for n, h in verdicts.items() if h["verdict"] == "fail"]
        if wrong:
            return out.fail(f"hypotheses failed on a probability family: {wrong}")
    return out


def coverage_problems(workload: str, outcomes) -> list[str]:
    """A workload that stops reaching its intended layers is a failed run."""
    phases = {o.phase for o in outcomes}
    kinds = {o.cert_kind for o in outcomes}
    exits = {o.exit_code for o in outcomes}
    need = {
        "decide-witness": [("settled by numeric", "numeric" in phases),
                           ("settled by structured-candidates",
                            "structured-candidates" in phases)],
        "decide-refute": [(f"certificate {k}", k in kinds) for k in
                          ("A1-conflict", "A2-conflict", "chain-associativity", "order-conflict")],
        "check-tables": [("exit 0", 0 in exits), ("exit 1", 1 in exits)],
        "audit-family": [("a family meeting every target", 2 in exits),
                         ("a family missing targets", 1 in exits)],
    }[workload]
    return [f"no input {label}" for label, seen in need if not seen]


# -- the loop ------------------------------------------------------------------


def _call(cli, argv) -> tuple[float, object]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            rc = exc
        elapsed = time.perf_counter() - started
    return elapsed, rc


def tail_of(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    def __init__(self, workload, inputs, validator):
        self.workload, self.inputs, self.validator = workload, inputs, validator
        self.outcomes: list[Outcome] = []
        self.failures: list[str] = []

    def op(self, cli, inp, record=True) -> float:
        inp.report.unlink(missing_ok=True)
        elapsed, rc = _call(cli, inp.argv)
        if isinstance(rc, Exception):
            outcome = Outcome().fail(f"{type(rc).__name__}: {rc}")
        else:
            outcome = check(inp, rc, self.validator)
        if record:
            self.outcomes.append(outcome)
            if not outcome.ok:
                self.failures.append(f"{inp.id}: {outcome.reason}")
        return elapsed


def rounds(run: Run, seconds: float):
    """Whole rounds (one input per slot), as many as take `seconds` at the
    calibrated NOMINAL_ROUND_S, so every run of a workload times the same
    number of inputs however loaded the machine is."""
    size = len(run.inputs) // workloads.COPIES[run.workload]
    count = max(1, round(seconds / workloads.NOMINAL_ROUND_S[run.workload]))
    wall_cap = time.perf_counter() + 3 * seconds
    for i in range(count * size):
        if i % size == 0 and i and time.perf_counter() > wall_cap:
            return
        yield i, run.inputs[i % len(run.inputs)]


REFERENCE_KERNEL_S = 0.0060  # one kernel pass on an idle 2-core VM


def machine_slowdown() -> float:
    """Current time of a fixed pure-Python Fraction/dict kernel (fastest of
    two passes) relative to REFERENCE_KERNEL_S; 1.3 means 30% slower now."""
    best = None
    for _ in range(2):
        started = time.perf_counter()
        table = {}
        for a in range(1, 40):
            for b in range(1, 40):
                table[(a, b)] = Fraction(a, b) + Fraction(b, a + b)
        sum(table.values())
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / REFERENCE_KERNEL_S


class SpeedGauge:
    """Divides each timing by the machine slowdown around it.

    Co-tenants on a shared host slow every process down by up to ~2x for
    seconds at a time.  The kernel is timed at most every INTERVAL seconds
    and the timings in between are scaled by the mean of the two readings.
    """

    INTERVAL = 0.2

    def __init__(self):
        self.timeline: list[tuple[str, float, float]] = []  # (key, seconds, slowdown)
        self._pending: list[tuple[str, float]] = []
        self._slowdown = machine_slowdown()
        self._read_at = time.perf_counter()

    def add(self, key: str, elapsed: float) -> None:
        self._pending.append((key, elapsed))
        if time.perf_counter() - self._read_at >= self.INTERVAL:
            self.flush()

    def flush(self) -> None:
        slowdown = machine_slowdown()
        factor = (self._slowdown + slowdown) / 2
        self.timeline.extend((key, elapsed, factor) for key, elapsed in self._pending)
        self._pending.clear()
        self._slowdown, self._read_at = slowdown, time.perf_counter()

    def normalized(self, prefix: str = "") -> list[float]:
        return [e / f for k, e, f in self.timeline if k.startswith(prefix)]


def run_plain(run: Run, cli, seconds: float) -> SpeedGauge:
    gauge = SpeedGauge()
    for _, inp in rounds(run, seconds):
        gauge.add(inp.id, run.op(cli, inp))
    gauge.flush()
    return gauge


def run_traced(run: Run, cli, seconds: float):
    """Each input three times: plain, with spans, with call counters."""
    gauge, tracer, counter = SpeedGauge(), SpanTracer(), CallCounter()
    for i, inp in rounds(run, seconds / 3):
        key = f"{i}:{inp.id}"
        gauge.add("plain", run.op(cli, inp))
        tracer.input_id = key
        with tracer:
            gauge.add("traced", run.op(cli, inp))
        counter.input_id = key
        with counter:
            run.op(cli, inp, record=False)
    gauge.flush()
    return gauge, tracer, counter


# -- metrics -------------------------------------------------------------------


def end_to_end(gauge: SpeedGauge, run: Run, setup_s: float) -> dict:
    samples = gauge.normalized()
    value, pct = tail_of(samples)
    unknown = sum(o.unknown for o in run.outcomes)
    attempted = len(run.outcomes)
    return {
        "verdict_s_p50": (statistics.median(samples), "s"),
        "verdict_s_tail": (value, "s"),
        "inputs_per_s": (len(samples) / sum(samples), "1/s"),
        "settled_rate": (1 - unknown / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"tail_percentile": pct, "samples": len(samples),
        "raw_verdict_s_p50": statistics.median(e for _, e, _ in gauge.timeline),
        "mean_slowdown": statistics.fmean(f for _, _, f in gauge.timeline),
        "error_rate": len(run.failures) / attempted, "unknown_rate": unknown / attempted}


def per_layer(gauge: SpeedGauge, tracer, counter, run: Run) -> tuple[dict, list]:
    selfs = self_times(tracer.spans)
    plain, traced = gauge.normalized("plain"), gauge.normalized("traced")
    n = len(traced)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    f_table = {}  # largest extracted F table per input
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        calls[s.name] += 1
        for k, v in s.attrs.items():
            attr_sum[f"{s.name}.{k}"] += v
        if "f_table_size" in s.attrs:
            f_table[s.input_id] = max(f_table.get(s.input_id, 0), s.attrs["f_table_size"])

    def mean_over(d):
        return sum(d.values()) / len(d) if d else 0.0

    counts = counter.counts
    per_count = {k: sum(c[k] for c in counts.values()) / n
                 for k in ("pair_passes", "triple_passes", "bel_lookups")}
    attained = {i: c["attained_values"] for i, c in counts.items() if c["attained_values"]}
    phases = [o.phase for o in run.outcomes]
    settled = {p: phases.count(p) / len(phases)
               for p in ("refutation", "structured-candidates", "numeric")}

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "files.parse_s": (total["files.parse"] / n, "s/input"),
        "files.parse_calls": (calls["files.parse"] / n, "count/input"),
        "files.bytes_parsed": (attr_sum["files.parse.bytes"] / n, "bytes/input"),
        "core.pair_passes": (per_count["pair_passes"], "count/input"),
        "core.triple_passes": (per_count["triple_passes"], "count/input"),
        "core.bel_lookups": (per_count["bel_lookups"], "count/input"),
        "forms.extract_negation_s": (total["forms.extract_negation"] / n, "s/input"),
        "forms.extract_negation_calls": (calls["forms.extract_negation"] / n, "count/input"),
        "forms.extract_combination_s": (total["forms.extract_combination"] / n, "s/input"),
        "forms.extract_combination_calls": (calls["forms.extract_combination"] / n, "count/input"),
        "forms.f_table_size": (mean_over(f_table), "count"),
        "conditions.chain_consistency_s": (total["conditions.chain_consistency"] / n, "s/input"),
        "conditions.chain_instances": (
            ratio(attr_sum["conditions.chain_consistency.instances"],
                  calls["conditions.chain_consistency"]), "count"),
        "conditions.par5_gap_s": (total["conditions.par5_gap"] / n, "s/input"),
        "conditions.attained_values": (mean_over(attained), "count"),
        "conditions.par5_triples_s": (total["conditions.par5_triples"] / n, "s/input"),
        "conditions.par5_triples_calls": (calls["conditions.par5_triples"] / n, "count/input"),
        "conditions.chains_tried": (attr_sum["conditions.par5_triples.tried"] / n, "count/input"),
        "conditions.probe_hit_ratio": (
            ratio(attr_sum["conditions.par5_triples.hit"], calls["conditions.par5_triples"]),
            "ratio"),
        "conditions.par5_family_self_s": (own["conditions.par5_family"] / n, "s/input"),
        "conditions.audit_self_s": (own["conditions.audit"] / n, "s/input"),
        "conditions.check_bounds_s": (total["conditions.check_bounds"] / n, "s/input"),
        "conditions.bel_level_negation_s": (total["conditions.bel_level_negation"] / n, "s/input"),
        "isomorphism.refutation_search_s": (total["isomorphism.refutation_search"] / n, "s/input"),
        "isomorphism.engine_self_s": (own["isomorphism.refutation_search"] / n, "s/input"),
        "isomorphism.minimize_s": (total["isomorphism.minimize"] / n, "s/input"),
        "isomorphism.minimize_calls": (calls["isomorphism.minimize"] / n, "count/input"),
        "isomorphism.nm_iterations": (attr_sum["isomorphism.minimize.nit"] / n, "count/input"),
        "isomorphism.nm_fevals": (attr_sum["isomorphism.minimize.nfev"] / n, "count/input"),
        "isomorphism.decide_self_s": (own["isomorphism.decide"] / n, "s/input"),
        "isomorphism.verify_witness_s": (total["isomorphism.verify_witness"] / n, "s/input"),
        "isomorphism.verify_witness_calls": (calls["isomorphism.verify_witness"] / n, "count/input"),
        "isomorphism.verify_pass_ratio": (
            ratio(attr_sum["isomorphism.verify_witness.passed"],
                  calls["isomorphism.verify_witness"]), "ratio"),
        "isomorphism.settled_by.refutation": (settled["refutation"], "count/input"),
        "isomorphism.settled_by.structured-candidates": (
            settled["structured-candidates"], "count/input"),
        "isomorphism.settled_by.numeric": (settled["numeric"], "count/input"),
        "generators.build_family_s": (total["generators.build_family"] / n, "s/input"),
        "cli.main_s": (total["cli.main"] / n, "s/input"),
        "cli.self_s": (own["cli.main"] / n, "s/input"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }
    busiest = sorted(own.items(), key=lambda kv: -kv[1])[:6]
    whole = total["cli.main"] or 1.0
    top = [{"layer": name, "self_s_per_input": t / n, "share_of_cli_main": t / whole}
           for name, t in busiest]
    return m, top


# -- driver ----------------------------------------------------------------------


def contract_problems(metrics: dict, trace: int) -> list[str]:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {d["name"]: d["unit"] for d in declared["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want == got:
        return []
    return [f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}"]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": hashlib.sha256(b"".join(
            f.read_bytes() for f in sorted((REPO / "src").rglob("*.py")))).hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _source_present():
        _fail(f"no coxcheck sources under {REPO}; run from a full checkout")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else _measure_setup(args.workload, args.seed)
    import jsonschema
    from coxcheck import cli
    from coxcheck.report_schema import REPORT_SCHEMA

    inputs = workloads.build(args.workload, args.seed, OUT / f"{args.workload}-inputs")
    run = Run(args.workload, inputs, jsonschema.Draft202012Validator(REPORT_SCHEMA))
    run.op(cli, inputs[0], record=False)  # warm-up: first-call costs, unrecorded

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "inputs": len(inputs), "environment": environment()}
    print("environment: " + json.dumps(record["environment"]))
    if args.trace:
        gauge, tracer, counter = run_traced(run, cli, args.seconds)
        metrics, top = per_layer(gauge, tracer, counter, run)
        spans_path = results / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        traced = len(gauge.normalized("traced"))
        record.update({"spans": spans_path.name, "top_self_time": top, "traced_inputs": traced})
        print(f"trace: {len(tracer.spans)} spans over {traced} inputs -> {spans_path}; "
              f"overhead {metrics['trace.overhead_ratio'][0]:.3f}x traced/untraced p50")
        for row in top:
            print(f"  self time {row['layer']:<34} {row['self_s_per_input']:.5f} s/input "
                  f"({100 * row['share_of_cli_main']:.1f}% of cli.main)")
    else:
        gauge = run_plain(run, cli, args.seconds)
        metrics, extra = end_to_end(gauge, run, setup_s)
        record.update(extra, timeline=gauge.timeline)
        print(f"{args.workload}: {extra['samples']} inputs, tail is "
              f"p{extra['tail_percentile']:.1f}, error_rate {extra['error_rate']:.4f}, "
              f"unknown_rate {extra['unknown_rate']:.4f}, machine slowdown "
              f"{extra['mean_slowdown']:.2f}x (raw p50 {extra['raw_verdict_s_p50']:.4f} s)")
    problems = run.failures[:20] + coverage_problems(args.workload, run.outcomes)
    problems += contract_problems(metrics, args.trace)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(run.outcomes),
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    record["problems"] = problems
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
