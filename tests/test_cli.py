import contextlib
import gc
import io
import json
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
from coxcheck.files import load_structure, save_structure
from coxcheck.generators import gen_distorted, gen_probability
from coxcheck.isomorphism import verify_witness
from coxcheck.report_schema import REPORT_SCHEMA

from conftest import FIXTURES, golden_ratio_structure, relabelled_probability


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

    def test_grid_within_the_limit_still_runs(self, capsys):
        # theorem 1 fails Par5 on every finite structure
        assert main(["audit", str(FIXTURES / "three_atoms.bel"), "--theorem", "1",
                     "--grid", "11", "--epsilon", "1/20"]) == 1
        assert "usage error" not in capsys.readouterr().err


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


DOCUMENTED_EXITS = {0, 1, 2, 64, 65}
SMALL = st.integers(-2, 4).map(str)
FIXTURE_FILES = sorted(FIXTURES.glob("*.bel"))


@st.composite
def mutated_fixture(draw) -> str:
    """A fixture's text with up to three lines revalued, dropped, duplicated,
    truncated, replaced or added."""
    lines = draw(st.sampled_from(FIXTURE_FILES)).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["revalue"] * 4 + ["drop", "repeat", "truncate", "replace", "insert"]
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
