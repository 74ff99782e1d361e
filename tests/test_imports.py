"""What each command loads: the solver only where `decide` runs.

The suite has long since imported scipy and mpmath by the time these tests
run, so the commands run in a fresh interpreter, in order, each through
`cli.main` in-process, and the interpreter reports after each one which of
the heavy modules `sys.modules` holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

import coxcheck
from coxcheck import isomorphism

from conftest import FIXTURES

HEAVY = ("scipy.optimize", "mpmath")

PROBE = """
import json, sys
from pathlib import Path

def loaded():
    return [m for m in {heavy!r} if m in sys.modules]

import coxcheck.cli
steps = {{"import": [None, loaded()]}}
tmp = Path({tmp!r})
for name, argv in [
    ("generate family", ["generate", "family", "--max-coins", "3",
                         "--out-dir", str(tmp / "family")]),
    ("generate probability", ["generate", "probability", "--atoms", "a,b",
                              "--weights", "1/3,2/3", "--out", str(tmp / "p.bel")]),
    ("check", ["check", {check!r}]),
    ("audit --theorem 4", ["audit", "--theorem", "4", "--family", str(tmp / "family")]),
    ("equations", ["equations", "--form", "product", "--eq", "EQ1", "--grid", "5"]),
    ("decide", ["decide", {decide!r}, "--json", str(tmp / "decide.json")]),
]:
    code = coxcheck.cli.main(argv)
    steps[name] = [code, loaded()]
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """{step: [exit code, heavy modules loaded after it]} and the temporary
    directory the commands wrote to."""
    tmp = tmp_path_factory.mktemp("imports")
    src = str(Path(coxcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = PROBE.format(heavy=HEAVY, tmp=str(tmp),
                          check=str(FIXTURES / "uniform2.bel"),
                          decide=str(FIXTURES / "three_atoms.bel"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), tmp


@pytest.mark.parametrize("step, exit_code", [
    ("import", None),
    ("generate family", 0),
    ("generate probability", 0),
    ("check", 0),
    ("audit --theorem 4", 1),  # three coins leave the density grid unmet
    ("equations", 0),
])
def test_command_loads_neither_the_solver_nor_mpmath(steps, step, exit_code):
    results, _ = steps
    assert results[step] == [exit_code, []]


def test_decide_loads_the_solver_before_its_first_phase(steps):
    """three_atoms.bel is settled by the structured candidates, which come
    before any numeric search: the solver is loaded all the same."""
    results, tmp = steps
    code, loaded = results["decide"]
    assert code == 0
    report = json.loads((tmp / "decide.json").read_text())
    assert report["verdict"]["budget"]["phase"] == "structured-candidates"
    assert loaded == ["scipy.optimize"]


def test_minimize_resolves_to_the_scipy_solver_by_name():
    # perfbench/spans.py looks the name up with getattr and wraps it
    assert getattr(isomorphism, "minimize") is scipy.optimize.minimize
    with pytest.raises(AttributeError):
        isomorphism.no_such_name
