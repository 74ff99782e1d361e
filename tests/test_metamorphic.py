"""Metamorphic checks: a report must not depend on how an input is written.

A family member written as its `generate` directive and the same member
written as the table `serialize_structure` gives it are one structure, so a
theorem-4 audit of the family prints and reports the same either way.
"""

import json

import pytest

from coxcheck.cli import main
from coxcheck.files import load_structure, serialize_structure


def audit_family(family, options, report, capsys):
    """(exit code, stdout, JSON report without `command` and `timings`)."""
    code = main(["audit", "--theorem", "4", "--family", str(family), *options,
                 "--json", str(report)])
    payload = json.loads(report.read_text(encoding="utf-8"))
    for name in ("command", "timings"):
        payload.pop(name)
    return code, capsys.readouterr().out, payload


@pytest.mark.parametrize("options", [["--grid", "3", "--epsilon", "1/4"],
                                     ["--grid", "5", "--epsilon", "1/20"]])
def test_a_member_as_its_table_reports_as_its_directive(tmp_path, capsys, options):
    directive, table = tmp_path / "directive", tmp_path / "table"
    assert main(["generate", "family", "--max-coins", "3", "--out-dir", str(directive)]) == 0
    table.mkdir()
    for path in directive.glob("*.bel"):
        (table / path.name).write_bytes(path.read_bytes())
    member = table / "coins_02.bel"
    member.write_text(serialize_structure(load_structure(member)), encoding="utf-8")
    assert "generate" not in member.read_text(encoding="utf-8")
    capsys.readouterr()
    runs = [audit_family(family, options, tmp_path / f"{family.name}.json", capsys)
            for family in (directive, table)]
    assert runs[0] == runs[1]
