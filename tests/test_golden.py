"""Golden verdicts: `decide` and `check` on every fixture, pinned byte for byte.

The pinned file was written before the decision phases moved from Fraction
keys to integer value ranks; any change to a verdict, certificate text,
recheck result, witness or `check` line shows up here.

No fixture reaches `decide`'s propagation or numeric phase, so a second
file pins those phases' trajectories on structures built here: rescaled
probabilities whose rescaling is neither affine nor a power law.  It holds
the verdict kind, the budget report (phase, restarts, least-squares
evaluations, the exact `repr` of the least squared residual where the
numeric phase ran) and the exact witness weights.

To rewrite both files after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from coxcheck.cli import main
from coxcheck.files import ParseError, load_structure
from coxcheck.isomorphism import DecisionParams, decide

from conftest import custom_monotone_distortion, relabelled_probability

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_verdicts.json"
GOLDEN_NUMERIC = Path(__file__).resolve().parent / "golden_numeric.json"


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
            # a pair is a sum rule and a chain triple a product rule
            record["instances"] = [["sum" if len(m) == 2 else "product", list(m)]
                                   for m in cert.instances]
    if verdict.witness is not None:
        payload = verdict.to_dict()
        record["exact"] = payload["exact"]
        record["weights"] = payload["weights"]
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


def seeded(seed: int, n: int, g):
    """Seeded integer weights 1-9 on n atoms, every value pushed through g."""
    rng = random.Random(seed)
    return relabelled_probability([rng.randint(1, 9) for _ in range(n)], g)


def mix2(v):
    return (v + v * v) / 2


def mobius(v):
    return v / (2 - v)


# name -> (structure builder, decide parameters, the phase that settles it);
# none is settled before the propagation phase.  mobius-4-seed1 runs on a
# short budget.
NUMERIC_CASES = {
    "mobius-2": (custom_monotone_distortion, DecisionParams(), "numeric"),
    "mix2-4-seed1": (lambda: seeded(1, 4, mix2), DecisionParams(), "numeric"),
    "mix2-4-seed3": (lambda: seeded(3, 4, mix2), DecisionParams(), "numeric"),
    "mix2-5-seed1": (lambda: seeded(1, 5, mix2), DecisionParams(), "propagation"),
    "mix2-5-seed3": (lambda: seeded(3, 5, mix2), DecisionParams(), "numeric"),
    "mobius-4-seed1": (
        lambda: seeded(1, 4, mobius),
        DecisionParams(restarts=2, budget=150),
        "numeric",
    ),
}


def _numeric_record(name: str) -> dict:
    build, params, _ = NUMERIC_CASES[name]
    verdict = decide(build(), params)
    budget = dict(verdict.budget)
    if "best_penalty" in budget:
        budget["best_penalty"] = repr(budget["best_penalty"])
    record = {"kind": verdict.kind, "budget": budget}
    if verdict.witness is not None:
        payload = verdict.to_dict()
        record["exact"] = payload["exact"]
        record["weights"] = payload["weights"]
    return record


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


GOLDEN_DATA = _load(GOLDEN)
GOLDEN_NUMERIC_DATA = _load(GOLDEN_NUMERIC)


def test_every_fixture_is_pinned():
    assert sorted(GOLDEN_DATA) == sorted(p.name for p in FIXTURES.glob("*.bel"))


@pytest.mark.parametrize("name", sorted(GOLDEN_DATA))
def test_decide_matches_golden(name):
    assert _decide_record(FIXTURES / name) == GOLDEN_DATA[name]["decide"]


@pytest.mark.parametrize("name", sorted(GOLDEN_DATA))
def test_check_matches_golden(name):
    assert _check_record(FIXTURES / name) == GOLDEN_DATA[name]["check"]


def test_every_numeric_case_is_pinned():
    assert sorted(GOLDEN_NUMERIC_DATA) == sorted(NUMERIC_CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN_NUMERIC_DATA))
def test_numeric_trajectory_matches_golden(name):
    assert GOLDEN_NUMERIC_DATA[name]["budget"]["phase"] == NUMERIC_CASES[name][2]
    assert _numeric_record(name) == GOLDEN_NUMERIC_DATA[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(snapshot(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    numeric = {name: _numeric_record(name) for name in NUMERIC_CASES}
    GOLDEN_NUMERIC.write_text(json.dumps(numeric, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
