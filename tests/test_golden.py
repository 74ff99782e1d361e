"""Golden verdicts: `decide` and `check` on every fixture, pinned byte for byte.

The pinned file was written before the decision phases moved from Fraction
keys to integer value ranks; any change to a verdict, certificate text,
recheck result, witness or `check` line shows up here.  To rewrite it after
a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from coxcheck.cli import main
from coxcheck.files import ParseError, load_structure
from coxcheck.isomorphism import decide

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_verdicts.json"


def _decide_record(path: Path) -> dict:
    try:
        structure = load_structure(path)
    except ParseError as exc:
        return {"parse_error": str(exc)}
    verdict = decide(structure)
    record = {"kind": verdict.kind}
    if verdict.certificate is not None:
        cert = verdict.certificate
        record["certificate"] = cert.kind
        record["description"] = cert.description
        record["recheck"] = cert.recheck(structure)
        if cert.kind == "order-conflict":
            record["instances"] = [[k, list(m)] for k, m in cert.data.instances]
    if verdict.witness is not None:
        record["exact"] = verdict.witness.exact
        if verdict.witness.exact:
            record["weights"] = verdict.witness.to_dict()["weights"]
    if verdict.rescaling is not None:
        record["g-graph"] = verdict.rescaling.to_dict()
    return record


def _check_record(path: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", str(path)])
    return {"exit_code": code, "lines": out.getvalue().splitlines()}


def snapshot() -> dict:
    return {
        path.name: {"decide": _decide_record(path), "check": _check_record(path)}
        for path in sorted(FIXTURES.glob("*.bel"))
    }


GOLDEN_DATA = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_every_fixture_is_pinned():
    assert sorted(GOLDEN_DATA) == sorted(p.name for p in FIXTURES.glob("*.bel"))


@pytest.mark.parametrize("name", sorted(GOLDEN_DATA))
def test_decide_matches_golden(name):
    assert _decide_record(FIXTURES / name) == GOLDEN_DATA[name]["decide"]


@pytest.mark.parametrize("name", sorted(GOLDEN_DATA))
def test_check_matches_golden(name):
    assert _check_record(FIXTURES / name) == GOLDEN_DATA[name]["check"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(snapshot(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    sys.exit(0)
