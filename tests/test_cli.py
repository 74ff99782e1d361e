import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from coxcheck import cli, forms
from coxcheck.cli import main
from coxcheck.core import Domain
from coxcheck.files import load_structure, parse_structure, save_structure, serialize_structure
from coxcheck.generators import gen_distorted, gen_probability
from coxcheck.isomorphism import verify_witness
from coxcheck.report_schema import REPORT_SCHEMA

from conftest import FIXTURES, golden_ratio_structure, relabelled_probability


def run_capped(*argv, limit=3 << 30, timeout=10) -> tuple:
    """(exit code, stdout, stderr, seconds, peak RSS in MB) of `coxcheck
    argv` in a child process under an address-space limit of `limit`
    bytes, 3 GB unless given, and a timeout of `timeout` seconds, 10 unless
    given.  The child writes its peak RSS since it started (its VmHWM: the
    `ru_maxrss` of a forked child also counts its parent's pages) to a
    file of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        peak = Path(tmp) / "peak"
        script = ("import resource, sys\n"
                  f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                  "from coxcheck.cli import main\n"
                  "try:\n"
                  "    code = main(sys.argv[1:])\n"
                  "finally:\n"
                  f"    with open('/proc/self/status') as status, open({str(peak)!r}, 'w') as fh:\n"
                  "        fh.write(next(line.split()[1] for line in status\n"
                  "                      if line.startswith('VmHWM:')))\n"
                  "sys.exit(code)\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=timeout)
        seconds = time.perf_counter() - started
        peak_mb = int(peak.read_text()) / 1024 if peak.exists() else None  # VmHWM is in kB
    return proc.returncode, proc.stdout, proc.stderr, seconds, peak_mb


def run_each_capped(argvs, limit=3 << 30, timeout=120) -> list:
    """(argv, exit code or the traceback of an uncaught exception, stderr,
    seconds) of each `coxcheck argv` in turn, all in one child process
    under an address-space limit of `limit` bytes and a timeout of
    `timeout` seconds."""
    script = ("import contextlib, io, json, resource, sys, time, traceback\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
              "from coxcheck.cli import main\n"
              "results = []\n"
              "for argv in json.loads(sys.stdin.read()):\n"
              "    started, out, err = time.perf_counter(), io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        try:\n"
              "            code = main(argv)\n"
              "        except Exception:\n"
              "            code = traceback.format_exc()\n"
              "    results.append((argv, code, err.getvalue(), time.perf_counter() - started))\n"
              "print(json.dumps(results))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=timeout, check=True)
    return json.loads(proc.stdout)


def write_complete_table(path: Path, n: int) -> None:
    """A complete table of 1/2 over the atoms a, b, ...: 3^n − 1 `bel`
    lines, written one conditioning event at a time."""
    atoms = [chr(ord("a") + i) for i in range(n)]
    events = ["{%s}" % " ".join(a for i, a in enumerate(atoms) if m >> i & 1)
              for m in range(1 << n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"domain: {' '.join(atoms)}\n")
        for u in range(1, 1 << n):
            subs, v = [u], u
            while v:
                v = (v - 1) & u
                subs.append(v)
            fh.write("".join(f"bel {events[v]} | {events[u]} = 1/2\n" for v in reversed(subs)))


def count_triple_passes(monkeypatch) -> list:
    """Patch extraction so each pass over the chain triples is recorded:
    `forms._combination_layout` lays out every triple of a structure."""
    passes = []
    original = forms._combination_layout

    def counting(structure):
        passes.append(structure)
        return original(structure)

    monkeypatch.setattr(forms, "_combination_layout", counting)
    return passes


def run_cli(args, capsys=None):
    code = main([str(a) for a in args])
    return code


def run_with_report(args, tmp_path, name="report.json"):
    report_path = tmp_path / name
    code = main([str(a) for a in args] + ["--json", str(report_path)])
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


class TestManifest:
    def test_every_fixture_maps_to_its_documented_exit_code(self):
        manifest = json.loads((FIXTURES / "manifest.json").read_text())
        for entry in manifest:
            args = [
                a.replace("{file}", str(FIXTURES / entry["file"]))
                if entry["file"] else a
                for a in entry["args"]
            ]
            assert main(args) == entry["expect"], f"args={args}"


class TestReports:
    def test_check_report_matches_text_verdicts(self, tmp_path, capsys):
        code, report = run_with_report(
            ["check", FIXTURES / "three_atoms.bel"], tmp_path
        )
        out = capsys.readouterr().out
        assert code == 0 and report["exit_code"] == 0
        for check in report["checks"]:
            tag = "PASS" if check["verdict"] == "pass" else "FAIL"
            assert any(
                line.startswith(tag) and check["name"] in line
                for line in out.splitlines()
            )
        assert F(report["par5_gap"]) > 0

    def test_decide_witness_report(self, tmp_path, capsys):
        code, report = run_with_report(
            ["decide", FIXTURES / "three_atoms.bel"], tmp_path
        )
        out = capsys.readouterr().out
        assert code == 0
        assert report["verdict"]["kind"] == "witness"
        assert "verdict: witness" in out
        assert report["verdict"]["weights"] == {"a": "1/6", "b": "1/3", "c": "1/2"}

    def test_decide_refutation_report(self, tmp_path, capsys):
        code, report = run_with_report(
            ["decide", FIXTURES / "min_counterexample.bel", "--seed", "7"], tmp_path
        )
        out = capsys.readouterr().out
        assert code == 1
        assert report["verdict"]["kind"] == "refutation"
        assert "verdict: refutation" in out
        assert report["verdict"]["certificate"]["kind"]

    def test_audit_t2_extracts_the_triples_once(self, monkeypatch, capsys):
        passes = count_triple_passes(monkeypatch)
        assert run_cli(["audit", FIXTURES / "three_atoms.bel", "--theorem", "2"]) == 1
        assert len(passes) == 1

    def test_audit_report(self, tmp_path, capsys):
        code, report = run_with_report(
            ["audit", FIXTURES / "three_atoms.bel", "--theorem", "1"], tmp_path
        )
        out = capsys.readouterr().out
        assert code == 1  # the density hypothesis fails on finite domains
        names = [h["name"] for h in report["hypotheses"]]
        assert len(names) == len(set(names))
        assert "par5-density" in names
        assert "FAIL" in out
        assert "density" not in report

    def test_audit_t4_report_carries_the_density_search(self, tmp_path, capsys):
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "2",
                     "--out-dir", str(family)]) == 0
        code, report = run_with_report(
            ["audit", "--theorem", "4", "--family", family, "--grid", "3",
             "--epsilon", "1/4"], tmp_path
        )
        assert code == 1
        density = report["density"]
        assert (density["grid"], density["epsilon"]) == (3, "1/4")
        assert density["targets_checked"] == 27 and not density["passed"]
        verdict = {h["name"]: h for h in report["hypotheses"]}["par5-family-density"]
        assert verdict["witness"].endswith(f": {len(density['failures'])} targets missed")
        for target, deviation in density["failures"]:
            assert len(target) == 3 and F(deviation) >= F(1, 4)
        target, deviation, member = density["worst_target"]
        assert [target, deviation] in density["failures"] and member in (0, 1)

    def test_equations_report(self, tmp_path, capsys):
        code, report = run_with_report(
            ["equations", "--form", "hamacher", "--eq", "EQ1", "--grid", "10"],
            tmp_path,
        )
        assert code == 0
        assert report["residual_exact"] == "0"
        assert report["coverage"] == "1"

    def test_reports_echo_the_command(self, tmp_path):
        _, report = run_with_report(
            ["check", FIXTURES / "uniform2.bel"], tmp_path
        )
        assert report["command"][0] == "coxcheck"
        assert report["command"][1] == "check"
        assert report["timings"]["total_s"] >= 0


class TestCollectorPause:
    """`main` pauses the cyclic collector for the whole command."""

    def test_no_collection_runs_inside_a_command(self, monkeypatch, capsys):
        inside, fired, seen = [False], [], []
        original = cli._main

        def probe(argv):
            seen.append(gc.isenabled())
            inside[0] = True
            try:
                return original(argv)
            finally:
                inside[0] = False

        def record(phase, info):
            if inside[0]:
                fired.append(info["generation"])

        monkeypatch.setattr(cli, "_main", probe)
        threshold = gc.get_threshold()
        gc.callbacks.append(record)
        gc.set_threshold(1, 1, 1)  # a running collector would fire at once
        try:
            assert main(["decide", str(FIXTURES / "three_atoms.bel")]) == 0
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(record)
        assert seen == [False] and fired == []
        assert gc.isenabled()

    def test_collector_state_is_restored_on_every_exit(self, monkeypatch, capsys):
        assert main([]) == 64
        assert gc.isenabled()

        def boom(args, argv):
            raise RuntimeError("escapes main")

        monkeypatch.setitem(cli._COMMANDS, "decide", boom)
        with pytest.raises(RuntimeError):
            main(["decide", str(FIXTURES / "three_atoms.bel")])
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self, capsys):
        gc.disable()
        try:
            assert main(["decide", str(FIXTURES / "three_atoms.bel")]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCheckReadsRankArrays:
    """`check` runs on extraction's rank arrays; the Fraction forms of S and
    F are built only to describe an A1 or A2 conflict."""

    def checked_structure(self, monkeypatch, name):
        loaded = []

        def loading(path):
            loaded.append(load_structure(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_structure", loading)
        main(["check", str(FIXTURES / name)])
        (structure,) = loaded
        return structure._derived

    @pytest.mark.parametrize("name", ["three_atoms.bel", "chain_conflict.bel",
                                      "interval_bounds.bel", "uniform2.bel"])
    def test_no_fraction_forms_without_a_conflict(self, monkeypatch, capsys, name):
        derived = self.checked_structure(monkeypatch, name)
        assert "negation-ranks" in derived and "combination-ranks" in derived
        assert "negation" not in derived and "combination" not in derived

    @pytest.mark.parametrize("name,form", [("a1_conflict.bel", "negation"),
                                           ("a2_conflict.bel", "combination")])
    def test_the_conflicting_form_describes_the_conflict(self, monkeypatch, capsys,
                                                         name, form):
        derived = self.checked_structure(monkeypatch, name)
        assert type(derived[form]).__name__.endswith("Conflict")


class TestParserReuse:
    """The argument parser is built once per process and reused."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_options_do_not_carry_over_between_calls(self, tmp_path, capsys):
        fixture = str(FIXTURES / "three_atoms.bel")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["decide", fixture, "--seed", "3", "--json", str(first)]) == 0
        assert main(["decide", fixture, "--restarts", "-1"]) == 64
        assert main(["decide", "--frob"]) == 64
        assert main(["decide", fixture, "--json", str(second)]) == 0
        assert json.loads(first.read_text())["seed"] == 3
        assert json.loads(second.read_text())["seed"] == 0


class TestAuditOptions:
    @pytest.mark.parametrize("option,message", [
        (["--epsilon", "1/0"], "not a rational literal"),
        (["--epsilon", "0"], "epsilon must be positive"),
        (["--epsilon", "-1/2"], "epsilon must be positive"),
        (["--epsilon", "-.5"], "epsilon must be positive"),
        (["--epsilon", "abc"], "not a rational literal"),
        (["--grid", "22"], "over the limit"),
        (["--grid", "100000"], "over the limit"),
    ])
    def test_invalid_density_option_is_refused_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, option, message
    ):
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "2",
                     "--out-dir", str(family)]) == 0
        capsys.readouterr()
        loaded = []
        monkeypatch.setattr(cli, "load_structure", lambda *a: loaded.append(a))
        started = time.perf_counter()
        assert main(["audit", "--theorem", "4", "--family", str(family), *option]) == 64
        assert main(["audit", str(FIXTURES / "three_atoms.bel"),
                     "--theorem", "1", *option]) == 64
        assert time.perf_counter() - started < 5
        assert loaded == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(message) == 2

    def test_ten_coins_at_the_largest_grid_run_within_1_gb(self, tmp_path):
        # 21^3 = 9,261 targets, the most DENSITY_TARGET_LIMIT allows, on
        # the 1-10 coin family, whose pass reads 1,024 atoms by sizes
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "10",
                     "--out-dir", str(family)]) == 0
        code, out, err, *_ = run_capped("audit", "--theorem", "4", "--family", family,
                                       "--grid", "21", limit=1 << 30)
        assert (code, err) == (1, "")
        assert "grid 21^3 at ε=1/20: 44 targets missed" in out

    def test_twelve_coins_at_the_largest_grid_run_within_768_mb(self, tmp_path):
        # the largest family the size pass reads: its 4,096-atom member has
        # about 8.4 M steps, read G² times.  Exactness costs about 5 s and
        # 380 MB here; the address-space limit and the timeout pin that cost
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "12",
                     "--out-dir", str(family)]) == 0
        code, out, err, *_ = run_capped("audit", "--theorem", "4", "--family", family,
                                       "--grid", "21", limit=768 << 20, timeout=20)
        assert (code, err) == (1, "")
        assert "grid 21^3 at ε=1/20: 2 targets missed" in out

    def test_grid_within_the_limit_still_runs(self, capsys):
        # theorem 1 fails Par5 on every finite structure
        assert main(["audit", str(FIXTURES / "three_atoms.bel"), "--theorem", "1",
                     "--grid", "11", "--epsilon", "1/20"]) == 1
        assert "usage error" not in capsys.readouterr().err


class TestWeightFilesMatchTheirTables:
    """A `generate probability` file on any bounds prints what its table,
    written out by `serialize_structure`, prints: the same Par1 and Par2
    verdicts and messages, and the same exit code."""

    @pytest.mark.parametrize("bounds", ["0 1", "0 2", "-1 1", "1/4 3/4"])
    @pytest.mark.parametrize("weights", [["1"], ["1/3", "2/3"], ["1/6", "1/3", "1/2"]])
    @pytest.mark.parametrize("command", [["check"], ["audit", "--theorem", "1"]])
    def test_same_stdout_and_exit_code(self, tmp_path, capsys, bounds, weights, command):
        atoms = "abc"[:len(weights)]
        text = (f"domain: {' '.join(atoms)}\nbounds: {bounds}\ngenerate probability "
                + " ".join(f"{a}={w}" for a, w in zip(atoms, weights)) + "\n")
        weight_file, table_file = tmp_path / "weights.bel", tmp_path / "table.bel"
        weight_file.write_text(text, encoding="utf-8")
        table_file.write_text(serialize_structure(parse_structure(text)), encoding="utf-8")
        runs = []
        for path in (weight_file, table_file):
            argv = [command[0], str(path), *command[1:]]
            runs.append((main(argv), capsys.readouterr().out))
        assert runs[0] == runs[1]


#: A 2-atom table whose F is strict where it is compared inside (0, 1]²,
#: but falls from F(1/2, 0) = 3/4 to F(1/2, 1) = 1/2.
FALLING_F_TABLE = """domain: a b
bel {} | {a} = 1/2
bel {a} | {a} = 1
bel {} | {b} = 3/4
bel {b} | {b} = 0
bel {} | * = 3/4
bel {a} | * = 0
bel {b} | * = 3/4
bel {a b} | * = 0
"""

#: The fixtures whose S and F are functions: a clash fails Par3/Par4 on
#: one structure, while a family member's clash only leaves it out.
CLASH_FREE = [p.name for p in sorted(FIXTURES.glob("*.bel"))
              if not p.name.startswith(("bad_parse", "a1_conflict", "a2_conflict"))]


class TestParThreeAndFourAgreeAcrossTheorems:
    """A one-member family prints theorem 1's Par3/Par4 lines."""

    PAR34 = ("par3-negation-decreasing", "par4-combination-strict-increase",
             "par4-combination-continuity")

    def par34_lines(self, capsys, path, tmp_path):
        family = tmp_path / "family"
        family.mkdir()
        (family / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        lines = []
        for argv in (["audit", str(path), "--theorem", "1"],
                     ["audit", "--theorem", "4", "--family", str(family), "--grid", "2"]):
            main(argv)
            lines.append([line for line in capsys.readouterr().out.splitlines()
                          if line.split()[1] in self.PAR34])
        return lines

    def test_a_falling_f_fails_par4_in_both(self, capsys, tmp_path):
        path = tmp_path / "falling.bel"
        path.write_text(FALLING_F_TABLE, encoding="utf-8")
        one, family = self.par34_lines(capsys, path, tmp_path)
        assert one == family
        assert one[1] == ("FAIL       par4-combination-strict-increase  "
                          "F(1/2, 0)=3/4 > F(1/2, 1)=1/2")

    @pytest.mark.parametrize("name", CLASH_FREE)
    def test_every_clash_free_fixture(self, capsys, tmp_path, name):
        one, family = self.par34_lines(capsys, FIXTURES / name, tmp_path)
        assert len(one) == 3 and one == family


class TestDensityUntestable:
    @pytest.mark.parametrize("atoms", [13, 40])
    def test_a_member_too_large_to_read_leaves_missed_targets_open(self, tmp_path, capsys,
                                                                   atoms):
        # a non-uniform weight backing of 13 or more atoms is past the 12
        # that both the pass and the merge read, so the family is built
        # without it; weights i/91 or i/820 sum to 1
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "2",
                     "--out-dir", str(family)]) == 0
        names, total = [f"w{i}" for i in range(atoms)], atoms * (atoms + 1) // 2
        (family / f"weights_{atoms}.bel").write_text(
            f"domain: {' '.join(names)}\ngenerate probability "
            + " ".join(f"{a}={i + 1}/{total}" for i, a in enumerate(names)) + "\n",
            encoding="utf-8")
        capsys.readouterr()
        code, report = run_with_report(["audit", "--theorem", "4", "--family", family,
                                        "--grid", "3"], tmp_path)
        density = {h["name"]: h for h in report["hypotheses"]}["par5-family-density"]
        assert code == 2 and density["verdict"] == "untestable"
        assert density["witness"].endswith("members [2] are too large to read")
        assert report["density"]["unsearched"] == [2]


class TestUsageAndParseErrors:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 64

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["decide", "--frob"]) == 64

    def test_missing_file_is_a_parse_error(self, capsys):
        assert main(["check", "no_such_file.bel"]) == 65

    @pytest.mark.parametrize("text", [
        "domain: a b\ngenerate probability a=1/2 z=1/2\n",
        "domain: a b\ngenerate probability a=1/2 b=1/2\nbel {a a} | * = 1/2\n",
        "domain: " + " ".join(f"x{i}" for i in range(13)) + "\nbel {x0} | * = 1/2\n",
        "domain: a\nbel {a} = 1 | {a}\n",
    ], ids=["unknown-generator-atom", "repeated-event-atom", "13-atom-table",
            "bar-after-value"])
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.bel"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 65
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "decide", "audit", "extension", "member"])
    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys, command):
        family = tmp_path / "family"
        family.mkdir()
        bad = family / "latin1.bel"
        bad.write_bytes(b"domain: a b\n# caf\xe9\n")
        argv = {
            "check": ["check", bad],
            "decide": ["decide", bad],
            "audit": ["audit", bad, "--theorem", "1"],
            "extension": ["audit", FIXTURES / "uniform2.bel", "--theorem", "3",
                          "--extension", bad],
            "member": ["audit", "--theorem", "4", "--family", family],
        }[command]
        assert run_cli(argv) == 65
        assert capsys.readouterr().err.startswith(f"parse error: {bad} is not UTF-8: ")

    def test_a_family_member_that_cannot_be_opened_is_a_parse_error(self, tmp_path, capsys):
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "1", "--out-dir", str(family)]) == 0
        (family / "x.bel").mkdir()
        capsys.readouterr()
        assert main(["audit", "--theorem", "4", "--family", str(family)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and str(family / "x.bel") in err

    def test_decide_refuses_a_weight_backed_file_above_twelve_atoms(self, tmp_path, capsys):
        # `check` reads a uniform structure by event sizes, while `decide`
        # enumerates every canonical pair
        path = tmp_path / "uniform13.bel"
        assert main(["generate", "probability",
                     "--atoms", ",".join(f"x{i}" for i in range(13)),
                     "--weights", ",".join(["1/13"] * 13), "--out", str(path)]) == 0
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["decide", str(path)]) == 64
        assert "pair enumeration capped at 12 atoms" in capsys.readouterr().err

    def test_non_uniform_weight_file_above_twelve_atoms_is_refused(self, tmp_path, capsys):
        # the value index of a weight backing is built from its pairs' masses
        # and keeps the pair enumeration's cap and message
        atoms = [f"x{i}" for i in range(13)]
        path = tmp_path / "weights13.bel"
        path.write_text(f"domain: {' '.join(atoms)}\ngenerate probability "
                        + " ".join(f"{a}={i + 1}/91" for i, a in enumerate(atoms)) + "\n",
                        encoding="utf-8")
        for command in ("check", "decide"):
            assert main([command, str(path)]) == 64
            assert capsys.readouterr() == ("", "usage error: pair enumeration capped at 12 atoms\n")

    @pytest.mark.parametrize("size", [16, 20])
    def test_large_non_uniform_weight_files_are_refused_before_any_allocation(
            self, tmp_path, size):
        # the A1 layout's 3^n-entry submask table must not be built before
        # the cap is read: at 20 atoms it would ask for 26 GiB.  Each command
        # runs in a child under a 3 GB address-space limit and a timeout
        rng = random.Random(1)
        ints = [rng.randint(1, 9) for _ in range(size)]
        atoms = [f"x{i}" for i in range(size)]
        path = tmp_path / f"weights{size}.bel"
        path.write_text(f"domain: {' '.join(atoms)}\ngenerate probability "
                        + " ".join(f"{a}={i}/{sum(ints)}" for a, i in zip(atoms, ints))
                        + "\n", encoding="utf-8")
        for argv in (["check"], ["audit", "--theorem", "1"], ["audit", "--theorem", "2"]):
            assert run_capped(*argv, path)[:3] == (
                64, "", "usage error: pair enumeration capped at 12 atoms\n"), argv

    @pytest.mark.parametrize("size", [24, 32, 70])
    def test_large_uniform_weight_files_are_refused_before_the_subset_sums(
            self, tmp_path, size):
        # a witness check sums the weights of all 2^n events: at 32 atoms
        # that list would not fit in 3 GB, and at 70 atoms its length overflows
        atoms = [f"u{i}" for i in range(size)]
        path = tmp_path / f"uniform{size}.bel"
        path.write_text(f"domain: {' '.join(atoms)}\ngenerate probability "
                        + " ".join(f"{a}=1/{size}" for a in atoms) + "\n", encoding="utf-8")
        for argv in (["decide", path], ["audit", path, "--theorem", "2"]):
            code, out, err, seconds, _ = run_capped(*argv)
            assert (code, out, err) == (
                64, "", "usage error: pair enumeration capped at 12 atoms\n"), argv
            assert seconds < 2, argv

    @pytest.mark.parametrize("coins", [11, 13])
    def test_theorem_3_audit_of_a_large_coin_extension_is_refused_up_front(
            self, tmp_path, capsys, coins):
        # the density gap of a uniform extension reads its size table, whose
        # ~0.3·n² values would take minutes at 4,096 atoms and hours at 2^14
        base, extension = tmp_path / "base.bel", tmp_path / f"coins{coins}.bel"
        base.write_text("domain: a b\ngenerate probability a=1/2 b=1/2\n", encoding="utf-8")
        assert main(["generate", "coins", "--atoms", "a,b", "--weights", "1/2,1/2",
                     "--coins", str(coins), "--out", str(extension)]) == 0
        capsys.readouterr()
        code, out, err, seconds, _ = run_capped("audit", base, "--theorem", "3",
                                             "--extension", extension)
        assert (code, out, err) == (64, "", "usage error: size table capped at 2048 atoms\n")
        assert seconds < 2

    def test_huge_literal_fails_fast_as_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "huge.bel"
        text = (FIXTURES / "uniform2.bel").read_text(encoding="utf-8")
        path.write_text(text + "bel {a} | * = 1e9999999\n", encoding="utf-8")
        started = time.perf_counter()
        assert main(["check", str(path)]) == 65
        assert time.perf_counter() - started < 5
        assert "parse error" in capsys.readouterr().err

    def test_report_in_a_missing_directory_is_refused_up_front(self, tmp_path, capsys):
        report = tmp_path / "no_such_dir" / "r.json"
        assert run_cli(["check", FIXTURES / "uniform2.bel", "--json", report]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any check ran
        assert "cannot write report" in captured.err

    def test_failed_report_write_is_a_usage_error(self, tmp_path, capsys):
        # the parent exists, but the report path itself is a directory
        assert run_cli(["check", FIXTURES / "uniform2.bel", "--json", tmp_path]) == 64
        assert "cannot write report" in capsys.readouterr().err

    def test_unwritable_output_file_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "p.bel"
        assert run_cli(["generate", "probability", "--atoms", "a,b",
                        "--weights", "1/2,1/2", "--out", out]) == 64

    def test_generate_without_out_is_a_usage_error(self, capsys):
        assert main(["generate", "probability", "--atoms", "a,b",
                     "--weights", "1/2,1/2"]) == 64

    def test_audit_t4_without_family_is_a_usage_error(self, capsys):
        assert main(["audit", "--theorem", "4"]) == 64

    def test_negative_density_grid_is_a_usage_error(self, tmp_path, capsys):
        family = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "2",
                     "--out-dir", str(family)]) == 0
        assert main(["audit", "--theorem", "4", "--family", str(family),
                     "--grid", "-3"]) == 64
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "grid resolution must be nonnegative" in captured.err

    def test_huge_equation_grid_fails_fast(self, capsys):
        started = time.perf_counter()
        assert main(["equations", "--form", "hamacher", "--eq", "EQ1",
                     "--grid", "1000000"]) == 64
        assert time.perf_counter() - started < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the limit" in captured.err


def numeric_table(tmp_path) -> Path:
    """A 4-atom probability table pushed through v ↦ (v + v²)/2, which only
    `decide`'s numeric phase settles."""
    path = tmp_path / "mix2.bel"
    save_structure(relabelled_probability([3, 2, 5, 2], lambda v: (v + v * v) / 2), path)
    return path


class TestDecideOptions:
    @pytest.mark.parametrize("option", [
        ["--restarts", "-1"],
        ["--budget", "-3"],
        ["--budget", "0"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol", "-1"],
    ])
    def test_invalid_search_option_is_refused_before_the_file_is_read(
        self, tmp_path, monkeypatch, capsys, option
    ):
        path = numeric_table(tmp_path)
        loaded = []
        monkeypatch.setattr(cli, "load_structure", lambda *a: loaded.append(a))
        assert main(["decide", str(path), *option]) == 64
        assert loaded == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    @pytest.mark.parametrize("value", ["-1e-9", "-1", "-.5"])
    def test_negative_tolerance_reaches_its_own_check(self, tmp_path, capsys, value):
        # argparse used to take "-1e-9" for an option and ask for a value
        path = numeric_table(tmp_path)
        assert main(["decide", str(path), "--tol", value]) == 64
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "-1e-9", "nan", "inf"])
    def test_equations_refuses_a_bad_tolerance_before_evaluating(
        self, monkeypatch, capsys, value
    ):
        evaluated = []
        monkeypatch.setattr(cli, "check_functional_equation",
                            lambda *a: evaluated.append(a))
        argv = ["equations", "--form", "product", "--eq", "EQ1", "--tol", value]
        assert main(argv) == 64
        assert evaluated == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and nonnegative" in captured.err

    def test_numeric_table_settles_in_the_numeric_phase(self, tmp_path, capsys):
        code, report = run_with_report(["decide", numeric_table(tmp_path)], tmp_path)
        assert code == 0
        assert report["verdict"]["budget"]["phase"] == "numeric"

    def test_zero_restarts_settle_a_near_five_atom_table_by_propagation(
        self, tmp_path, capsys
    ):
        """Near-uniform weights (2, 2, 3, 2, 3) through v ↦ (v + v²)/2: the
        engine pins enough ratios to read the weights off exactly, so no
        numeric restart is needed."""
        path = tmp_path / "near-mix2.bel"
        save_structure(relabelled_probability([2, 2, 3, 2, 3], lambda v: (v + v * v) / 2),
                       path)
        code, report = run_with_report(["decide", path, "--restarts", "0"], tmp_path)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["budget"]["phase"] == "propagation"
        assert verdict["kind"] == "witness" and verdict["exact"] is True
        weights = [F(verdict["weights"][f"x{i}"]) for i in range(5)]
        assert weights == [F(w, 12) for w in (2, 2, 3, 2, 3)]

    def test_zero_restarts_is_an_honest_unknown(self, tmp_path, capsys):
        path = numeric_table(tmp_path)
        assert main(["decide", str(path), "--restarts", "0", "--tol", "0"]) == 2
        assert "verdict: unknown" in capsys.readouterr().out

    def test_irrational_witness_is_an_honest_unknown(self, tmp_path, capsys):
        path = tmp_path / "golden.bel"
        save_structure(golden_ratio_structure(), path)
        code, report = run_with_report(["decide", path], tmp_path)
        assert code == 2
        assert report["verdict"]["kind"] == "unknown"
        assert "weights" not in report["verdict"]


def decided_weights(path, tmp_path):
    """Exit code and witness weights of `decide` on the file at `path`."""
    code, report = run_with_report(["decide", path], tmp_path)
    verdict = report["verdict"]
    assert verdict["kind"] == "witness" and verdict["exact"] is True
    return code, [F(verdict["weights"][a]) for a in sorted(verdict["weights"])]


class TestDecideHugeValues:
    def test_roots_of_values_near_the_literal_digit_cap(self, tmp_path, capsys):
        """Bel values of 400-digit numerators and denominators, settled by
        exact square roots."""
        weights = [F(1, 10 ** 200), 1 - F(1, 10 ** 200)]
        path = tmp_path / "tiny.bel"
        save_structure(gen_distorted(Domain(("a", "b")), weights, 2), path)
        code, found = decided_weights(path, tmp_path)
        assert code == 0 and found == weights

    def test_bounds_far_beyond_float_range(self, tmp_path, capsys):
        """A numeric-phase table whose values and bounds run to 10^320."""
        scale = 10 ** 320
        base = gen_probability(Domain(("x0", "x1", "x2", "x3")),
                               [F(i, 12) for i in (3, 2, 5, 2)])
        structure = base.map_values(lambda v: scale * (v + v * v) / 2,
                                    bounds=(F(0), F(scale)))
        path = tmp_path / "huge.bel"
        save_structure(structure, path)
        code, found = decided_weights(path, tmp_path)
        assert code == 0
        assert verify_witness(load_structure(path), found).passed


class TestGenerateCommands:
    def test_probability_file_round_trips_through_check(self, tmp_path, capsys):
        out = tmp_path / "p.bel"
        assert main(["generate", "probability", "--atoms", "a,b,c",
                     "--weights", "1/6,1/3,1/2", "--out", str(out)]) == 0
        assert main(["check", str(out)]) == 0
        from coxcheck.core import Domain
        from coxcheck.generators import gen_probability
        expected = gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        assert load_structure(out) == expected

    def test_distorted_file_decides_to_witness(self, tmp_path, capsys):
        out = tmp_path / "d.bel"
        assert main(["generate", "distorted", "--atoms", "a,b",
                     "--weights", "1/3,2/3", "--k", "2", "--out", str(out)]) == 0
        assert main(["decide", str(out)]) == 0

    def test_coins_extension_and_theorem3_audit(self, tmp_path, capsys):
        base = tmp_path / "base.bel"
        ext = tmp_path / "ext.bel"
        assert main(["generate", "probability", "--atoms", "a,b",
                     "--weights", "1/3,2/3", "--out", str(base)]) == 0
        assert main(["generate", "coins", "--atoms", "a,b",
                     "--weights", "1/3,2/3", "--coins", "1", "--out", str(ext)]) == 0
        # continuity is untestable on tabular forms, so the audit is partial
        assert main(["audit", str(base), "--theorem", "3",
                     "--extension", str(ext)]) == 2

    def test_family_generation_and_theorem4_audit(self, tmp_path, capsys):
        out_dir = tmp_path / "family"
        assert main(["generate", "family", "--max-coins", "8",
                     "--out-dir", str(out_dir)]) == 0
        assert len(list(out_dir.glob("*.bel"))) == 8
        assert main(["audit", "--theorem", "4", "--family", str(out_dir),
                     "--grid", "3", "--epsilon", "1/10"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["probability", "--atoms", "a,b", "--weights", "1/2,1/2"], "--out FILE is required"),
        (["distorted", "--atoms", "a,b", "--weights", "1/2,1/2"], "--out FILE is required"),
        (["coins", "--atoms", "a,b", "--weights", "1/2,1/2"], "--out FILE is required"),
        (["family", "--max-coins", "2"], "--out-dir DIR is required"),
        (["probability", "--weights", "1/2,1/2", "--out", "p.bel"],
         "--atoms and --weights are required"),
        (["coins", "--atoms", "a,b", "--out", "p.bel"], "--atoms and --weights are required"),
        (["distorted", "--atoms", "a,b", "--weights", "1", "--out", "p.bel"],
         "one weight per atom required"),
    ])
    def test_usage_errors_write_nothing(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", *argv]) == 64
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestUntestableAuditBranches:
    def test_theorem_2_on_an_irrational_witness(self, tmp_path, capsys):
        # decide leaves the golden-ratio structure unknown, so whether it
        # refutes the isomorphism is untestable
        path = tmp_path / "golden.bel"
        save_structure(golden_ratio_structure(), path)
        assert main(["audit", str(path), "--theorem", "2"]) == 2
        assert ("UNTESTABLE verdict-refutation  isomorphism decision exhausted its budget"
                in capsys.readouterr().out.splitlines())

    def test_theorem_3_on_an_extension_too_large_to_extract(self, tmp_path, capsys):
        # the 7-coin extension has 256 atoms, past UNIFORM_EXTRACTION_ATOM_CAP
        base, extension = tmp_path / "base.bel", tmp_path / "coins7.bel"
        weights = ["--atoms", "a,b", "--weights", "1/2,1/2"]
        assert main(["generate", "probability", *weights, "--out", str(base)]) == 0
        assert main(["generate", "coins", *weights, "--coins", "7",
                     "--out", str(extension)]) == 0
        capsys.readouterr()
        assert main(["audit", str(base), "--theorem", "3", "--extension", str(extension)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("UNTESTABLE")] == [
            f"UNTESTABLE {name}  extraction capped at 128 atoms"
            for name in ("par3-negation-decreasing", "par4-combination-strict-increase",
                         "par4-combination-continuity")]
        assert "PASS       par5-gap-shrinkage  gap 1/4 → 1/512" in lines


class TestSearchMinCommand:
    def test_hit_writes_the_fixture(self, tmp_path, capsys):
        out = tmp_path / "hit.bel"
        code = main(["search-min", "--atoms", "2", "--grid", "0,1/2,1",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert main(["decide", str(out)]) == 1

    def test_exhaustion_exits_partial(self, tmp_path, capsys):
        code, report = run_with_report(
            ["search-min", "--atoms", "1", "--grid", "0,1/2,1"], tmp_path
        )
        assert code == 2
        assert report["hit"] is False
        assert report["isomorphic"] == 1

    def test_seed_is_not_an_option(self, capsys):
        # the search is exhaustive and draws nothing at random
        assert main(["search-min", "--atoms", "1", "--grid", "0,1/2,1", "--seed", "3"]) == 64


DOCUMENTED_EXITS = {0, 1, 2, 64, 65}
SMALL = st.integers(-2, 4).map(str)
FIXTURE_FILES = sorted(FIXTURES.glob("*.bel"))


@st.composite
def mutated_fixture(draw) -> str:
    """A fixture's text with up to three lines revalued, dropped, duplicated,
    truncated, replaced, added or indented."""
    lines = draw(st.sampled_from(FIXTURE_FILES)).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["revalue"] * 4 + ["drop", "repeat", "truncate", "replace", "insert", "indent"]
        ))
        if op == "revalue":  # keeps the file well formed, so the checks run
            value = draw(st.sampled_from(["0", "1/3", "1/2", "2/3", "1", "3/2", "-1"]))
            lines[at] = lines[at].rsplit("=", 1)[0] + "= " + value
        elif op == "drop":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        elif op == "truncate":
            lines[at] = lines[at][: draw(st.integers(0, len(lines[at])))]
        elif op == "indent":
            lines[at] = draw(st.sampled_from([" ", "\t", "\u00a0", "\u3000"])) + lines[at]
        else:
            tokens = st.sampled_from(["bel", "{a}", "{b c}", "*", "|", "=", "1/2",
                                      "domain:", "bounds:", "generate", "a=1"])
            line = " ".join(draw(st.lists(tokens | st.text(max_size=3), max_size=6)))
            if op == "replace":
                lines[at] = line
            else:
                lines.insert(at, line)
    return "\n".join(lines) + "\n"


def options(draw, specs) -> list:
    argv = []
    for flag, values in specs:
        if draw(st.sampled_from([True, True, False])):
            argv += [flag, draw(values)]
    return argv


@st.composite
def cli_argv(draw, file, family, out):
    """argv for every subcommand, with small and sometimes invalid values."""
    inputs = st.sampled_from([file, file, file, family, out + ".missing"])
    command = draw(st.sampled_from(
        ["check", "decide", "audit", "equations", "generate", "search-min", "frob"]
    ))
    argv = [command]
    if command in ("check", "decide", "audit"):
        argv.append(draw(inputs))
    if command == "decide":
        argv += options(draw, [
            ("--restarts", st.integers(-1, 2).map(str)),
            ("--budget", st.integers(-1, 30).map(str)),
            ("--tol", st.sampled_from(["1e-9", "0", "-1", "x"])),
            ("--seed", SMALL),
        ])
    elif command == "audit":
        argv += ["--theorem", draw(st.sampled_from(["1", "2", "3", "4", "5"]))]
        argv += options(draw, [
            ("--family", inputs), ("--extension", inputs), ("--grid", SMALL),
            ("--epsilon", st.sampled_from(["1/20", "0", "-1/2", "2", "x"])),
            ("--seed", SMALL),
        ])
    elif command == "equations":
        argv += ["--form", draw(st.sampled_from(
            ["linear-complement", "product", "minimum", "hamacher", "bogus"]
        ))]
        argv += ["--eq", draw(st.sampled_from(["EQ1", "EQ3", "EQ3.5", "EQSYM", "EQ9"]))]
        argv += options(draw, [
            ("--grid", SMALL),
            ("--tol", st.sampled_from(["0", "1e-9", "x", "-1", "nan"])),
        ])
    elif command == "generate":
        argv.append(draw(st.sampled_from(
            ["probability", "distorted", "coins", "family", "bogus"]
        )))
        argv += options(draw, [
            ("--atoms", st.sampled_from(["a,b", "a", "a,a", ",", "a,b,c"])),
            ("--weights", st.sampled_from(["1/2,1/2", "1", "1/3,1/3", "x,y", "0,1"])),
            ("--k", SMALL), ("--coins", st.integers(-1, 2).map(str)),
            ("--max-coins", st.integers(-1, 3).map(str)),
            ("--out", st.sampled_from([out, out + "/missing/x.bel"])),
            ("--out-dir", st.sampled_from([out + ".d", file])),
        ])
    elif command == "search-min":
        argv += options(draw, [
            ("--atoms", st.integers(-1, 2).map(str)),
            ("--grid", st.sampled_from(["0,1/2,1", "0,1", "1/2", "x", "0,1/4,1/2,3/4,1"])),
            ("--out", st.sampled_from([out, out + "/missing/x.bel"])),
        ])
    report = draw(st.sampled_from([None, None, out + ".json", out + "/missing/r.json"]))
    if report is not None:
        argv += ["--json", report]
    junk = draw(st.sampled_from([None] * 9 + ["--frob", "extra", "--json"]))
    return argv if junk is None else argv + [junk]


class TestDocumentedExitCodes:
    @settings(max_examples=100, deadline=None)
    @given(mutated_fixture(), st.data())
    def test_main_returns_only_documented_exit_codes(self, text, data):
        with tempfile.TemporaryDirectory() as tmp:
            family = Path(tmp, "family")
            family.mkdir()
            file = family / "member.bel"
            file.write_text(text, encoding="utf-8")
            argv = data.draw(cli_argv(str(file), str(family), str(Path(tmp, "out"))))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        assert code in DOCUMENTED_EXITS, (argv, sink.getvalue())


class TestPreflight:
    """An input over a size limit is refused from its header, or from its
    domain, before anything of its size is read or built: each runs in a
    child process under an address-space limit and a timeout."""

    @pytest.fixture(scope="class")
    def hostile(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("hostile")
        paths = {name: out / f"{name}.bel" for name in ("table13", "line100k", "weights100k")}
        write_complete_table(paths["table13"], 13)
        atoms = [f"x{i}" for i in range(100_000)]
        domain = f"domain: {' '.join(atoms)}\n"
        paths["line100k"].write_text(domain + "bel {x0} | * = 1/2\n", encoding="utf-8")
        paths["weights100k"].write_text(
            domain + "generate probability " + " ".join(f"{a}=1/100000" for a in atoms) + "\n",
            encoding="utf-8")
        yield paths
        for path in paths.values():  # 67 MB of them; kept temporary directories would hold it
            path.unlink()

    @pytest.mark.parametrize("name, peak_mb", [("table13", 150), ("line100k", 100)])
    def test_a_table_over_the_atom_limit_is_refused_from_its_header(self, hostile, name,
                                                                     peak_mb):
        # the complete 13-atom table is 3^13 − 1 lines and 67 MB; the
        # one-line table names 100,000 atoms.  Importing numpy alone maps
        # about 110 MB of address space.
        if name == "table13":
            assert hostile[name].stat().st_size > 60 << 20
        for command in ("check", "decide"):
            code, out, err, seconds, peak = run_capped(command, hostile[name], limit=150 << 20)
            assert (code, out, err) == (
                65, "", "parse error: explicit tables capped at 12 atoms\n"), command
            assert seconds < 0.5 and peak < peak_mb, (command, seconds, peak)

    def test_decide_refuses_a_large_weight_file_before_its_candidates(self, hostile):
        code, out, err, seconds, _ = run_capped("decide", hostile["weights100k"])
        assert (code, out, err) == (64, "", "usage error: pair enumeration capped at 12 atoms\n")
        assert seconds < 1

    def test_every_file_up_to_128_atoms_ends_in_a_documented_exit(self, tmp_path):
        """The fixtures, and weight files of 1-40 atoms, uniform and not,
        and uniform ones of 70 and 128 atoms: each command exits 0, 1, 2, 64
        or 65 with no traceback, and a refusal comes within 2 s."""
        paths = sorted(FIXTURES.glob("*.bel"))
        for n, kind in [*((n, kind) for n in range(1, 41) for kind in ("uniform", "ramp")),
                        (70, "uniform"), (128, "uniform")]:
            ints = [1] * n if kind == "uniform" else list(range(1, n + 1))
            path = tmp_path / f"{kind}{n}.bel"
            path.write_text(f"domain: {' '.join(f'x{i}' for i in range(n))}\n"
                            "generate probability "
                            + " ".join(f"x{i}={w}/{sum(ints)}" for i, w in enumerate(ints))
                            + "\n", encoding="utf-8")
            paths.append(path)
        commands = (["check"], ["decide"], ["audit", "--theorem", "1"], ["audit", "--theorem", "2"])
        results = run_each_capped([[*command, str(path)] for path in paths for command in commands])
        assert len(results) == 4 * len(paths)
        for argv, code, err, seconds in results:
            assert code in (0, 1, 2, 64, 65), (argv, code)
            assert "Traceback" not in err, argv
            if code >= 64:
                assert seconds < 2, argv


ELEVEN_ATOMS = ",".join(f"x{i}" for i in range(11))
ELEVEN_WEIGHTS = ",".join(["1/11"] * 11)


class TestGuards:
    """Each usage guard of a command, and each parse guard, with its exit
    code and message."""

    @pytest.mark.parametrize("argv, message", [
        (["audit", "--theorem", "1"], "this audit needs a structure file"),
        (["audit", "--theorem", "3", "--extension", FIXTURES / "three_atoms.bel"],
         "theorem 3 audit needs the base structure file"),
        (["audit", FIXTURES / "three_atoms.bel", "--theorem", "3",
          "--extension", FIXTURES / "uniform2.bel"],
         "extension file carries no atoms for base atom 'c'"),
        (["generate", "coins", "--atoms", "a,b", "--weights", "1/2,1/2", "--coins", "0",
          "--out", "c.bel"], "at least one coin required"),
        (["generate", "distorted", "--atoms", ELEVEN_ATOMS, "--weights", ELEVEN_WEIGHTS,
          "--out", "d.bel"], "cannot serialize a distorted structure of this size explicitly"),
        (["equations", "--form", "product", "--eq", "EQ1", "--grid", "1"],
         "grid needs at least 2 points"),
        (["search-min", "--atoms", "5"], "counterexample search supports 1..4 atoms"),
    ], ids=["audit-without-file", "extension-without-base", "extension-missing-an-atom",
            "zero-coins", "large-distorted", "one-point-grid", "five-atom-search"])
    def test_usage_guards(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 64
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("coins, size", [
        (14, "32768"), (15, "2·2^15"), (100_000, "2·2^100000"),
        (10_000_000_000, "2·2^10000000000")])
    def test_a_coin_count_over_the_cap_is_refused_before_two_to_the_coins_is_built(
            self, tmp_path, monkeypatch, capsys, coins, size):
        # 2^100000 has too many digits to print, and 2^10000000000 would
        # take 1.25 GB: neither is built
        monkeypatch.chdir(tmp_path)
        started = time.perf_counter()
        assert run_cli(["generate", "coins", "--atoms", "a,b", "--weights", "1/2,1/2",
                        "--coins", coins, "--out", "c.bel"]) == 64
        assert time.perf_counter() - started < 1
        assert capsys.readouterr() == (
            "", f"usage error: extension size {size} exceeds the cap 16384\n")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def write_families(tmp_path) -> dict:
        """A family directory whose one member is `uniform2.bel`, and one
        whose one member does not parse."""
        families = {"good": tmp_path / "good", "bad": tmp_path / "bad"}
        for family, text in zip(families.values(), (
                (FIXTURES / "uniform2.bel").read_text(encoding="utf-8"), "bel {a} | {a} = 1\n")):
            family.mkdir()
            (family / "member.bel").write_text(text, encoding="utf-8")
        return families

    @pytest.mark.parametrize("argv, message", [
        (["audit", "--theorem", "1", "--family", "{bad}"], "this audit needs a structure file"),
        (["audit", "--theorem", "1", "--family", "{good}"], "this audit needs a structure file"),
        (["audit", "--theorem", "2", "--extension", FIXTURES / "three_atoms.bel"],
         "this audit needs a structure file"),
        (["audit", FIXTURES / "bad_parse_incomplete.bel", "--theorem", "3"],
         "theorem 3 audit requires an extension"),
        (["audit", FIXTURES / "bad_parse_incomplete.bel", "--theorem", "4"],
         "theorem 4 audit needs --family DIR"),
        (["audit", "--theorem", "4", "--extension", FIXTURES / "three_atoms.bel"],
         "theorem 4 audit needs --family DIR"),
    ], ids=["no-file-bad-family", "no-file-good-family", "no-file-with-extension",
            "no-extension-bad-file", "no-family-bad-file", "no-family-with-extension"])
    def test_audit_guards_come_before_any_input(self, tmp_path, capsys, argv, message):
        """What argv alone decides is refused before any file is read."""
        families = self.write_families(tmp_path)
        assert run_cli([str(a).format(**families) for a in argv]) == 64
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv, unread", [
        (["audit", "--theorem", "4", "--family", "{good}", "--grid", "2"],
         ["--extension", FIXTURES / "three_atoms.bel"]),
        (["audit", "--theorem", "4", "--family", "{good}", "--grid", "2"],
         [FIXTURES / "three_atoms.bel", "--extension", FIXTURES / "uniform2.bel"]),
        (["audit", "--theorem", "4", "--family", "{good}", "--grid", "2"],
         [FIXTURES / "bad_parse_incomplete.bel"]),
        (["audit", FIXTURES / "three_atoms.bel", "--theorem", "1"],
         ["--extension", FIXTURES / "uniform2.bel"]),
        (["audit", FIXTURES / "three_atoms.bel", "--theorem", "2"], ["--family", "{bad}"]),
    ], ids=["t4-extension", "t4-file-and-extension", "t4-bad-file", "t1-extension",
            "t2-bad-family"])
    def test_audit_reads_only_its_theorems_inputs(self, tmp_path, capsys, argv, unread):
        """An input the theorem does not read changes nothing: theorems
        1-3 read FILE, theorem 3 --extension and theorem 4 --family."""
        families = self.write_families(tmp_path)
        runs = []
        for args in (argv, [*argv, *unread]):
            runs.append((run_cli([str(a).format(**families) for a in args]),
                         capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] in (1, 2)

    @pytest.mark.parametrize("text, message", [
        ("bel {a} | {a} = 1\n", "line 1: domain line must come first"),
        ("domain: a b\ngenerate probability a=1/2 b=1/2\ngenerate probability a=1/2 b=1/2\n",
         "line 3: duplicate generator directive"),
        ("domain: a b\ngenerate probability a=1/2 b\n", "line 2: bad weight token 'b'"),
        ("domain: " + ELEVEN_ATOMS.replace(",", " ") + "\ngenerate probability "
         + " ".join(f"x{i}=1/11" for i in range(11)) + "\nbel {x0} | * = 1/2\n",
         "generator expansion with explicit overrides is capped at 10 atoms"),
    ], ids=["no-domain-line", "two-directives", "weight-without-value", "override-past-10"])
    def test_parse_guards(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.bel"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 65
        assert capsys.readouterr() == ("", f"parse error: {message}\n")

    def test_an_empty_family_directory(self, tmp_path, capsys):
        assert main(["audit", "--theorem", "4", "--family", str(tmp_path)]) == 64
        assert capsys.readouterr() == (
            "", f"usage error: no .bel files in family directory {tmp_path}\n")

    @pytest.mark.parametrize("atoms", ["a|b,c", "a b,c", "a#b,c", "a=b,c"])
    def test_reserved_atom_names(self, tmp_path, monkeypatch, capsys, atoms):
        """A name no file can carry: `generate` writes nothing, and a file
        that names it on its domain line is refused (a `#` starts a comment
        there, and whitespace splits the name, so those fail otherwise)."""
        monkeypatch.chdir(tmp_path)
        name = atoms.split(",")[0]
        assert main(["generate", "probability", "--atoms", atoms, "--weights", "1/3,2/3",
                     "--out", "f.bel"]) == 64
        assert capsys.readouterr() == ("", f"usage error: atom name {name!r} holds "
                                       "whitespace or one of | = #, which structure files reserve\n")
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "named.bel"
        path.write_text(f"domain: {name} c\ngenerate probability {name}=1/3 c=2/3\n")
        assert main(["check", str(path)]) == 65
        if name in ("a|b", "a=b"):
            assert capsys.readouterr().err == (f"parse error: line 1: atom name {name!r} holds "
                                               "whitespace or one of | = #, which structure "
                                               "files reserve\n")

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.bel")
                                            if not p.name.startswith("bad_")))
    def test_no_audit_passes_outright(self, capsys, name):
        """Every audit holds a hypothesis that a table leaves untestable, so
        it exits 1 or 2, never 0."""
        for theorem in ("1", "2"):
            code = main(["audit", str(FIXTURES / name), "--theorem", theorem])
            assert code in (1, 2)
            assert "UNTESTABLE " in capsys.readouterr().out
