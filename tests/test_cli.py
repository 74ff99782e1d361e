import json
from fractions import Fraction as F

import jsonschema
import pytest

from coxcheck.cli import main
from coxcheck.files import load_structure
from coxcheck.report_schema import REPORT_SCHEMA

from conftest import FIXTURES


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
    ], ids=["unknown-generator-atom", "repeated-event-atom", "13-atom-table"])
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.bel"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 65
        assert "parse error" in capsys.readouterr().err

    def test_generate_without_out_is_a_usage_error(self, capsys):
        assert main(["generate", "probability", "--atoms", "a,b",
                     "--weights", "1/2,1/2"]) == 64

    def test_audit_t4_without_family_is_a_usage_error(self, capsys):
        assert main(["audit", "--theorem", "4"]) == 64


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
