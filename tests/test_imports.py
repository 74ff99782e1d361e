"""What each command loads: no command loads scipy.optimize or mpmath.

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
from coxcheck.files import save_structure

from conftest import FIXTURES, relabelled_probability

HEAVY = ("scipy.optimize", "mpmath")

PROBE = """
import json, sys
from pathlib import Path

def loaded():
    return [m for m in {heavy!r} if m in sys.modules]

import coxcheck.cli
steps = {{"import": [None, loaded()], "numpy.ma": []}}
tmp = Path({tmp!r})
for name, argv in [
    ("generate family", ["generate", "family", "--max-coins", "3",
                         "--out-dir", str(tmp / "family")]),
    ("generate probability", ["generate", "probability", "--atoms", "a,b",
                              "--weights", "1/3,2/3", "--out", str(tmp / "p.bel")]),
    ("check", ["check", {check!r}]),
    ("audit --theorem 4", ["audit", "--theorem", "4", "--family", str(tmp / "family")]),
    ("equations", ["equations", "--form", "product", "--eq", "EQ1", "--grid", "5"]),
    ("search-min", ["search-min"]),
    ("audit --theorem 2", ["audit", {decide!r}, "--theorem", "2"]),
    ("decide", ["decide", {decide!r}, "--json", str(tmp / "decide.json")]),
    ("decide numeric", ["decide", {numeric!r}, "--json", str(tmp / "numeric.json")]),
]:
    code = coxcheck.cli.main(argv)
    steps[name] = [code, loaded()]
    if "numpy.ma" in sys.modules:
        steps["numpy.ma"].append(name)
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """{step: [exit code, heavy modules loaded after it]}, with the steps
    after which `numpy.ma` is loaded under "numpy.ma", and the temporary
    directory the commands wrote to."""
    tmp = tmp_path_factory.mktemp("imports")
    # weights (3, 2, 5, 2) through (v + v²)/2, which only the numeric
    # phase settles (test_isomorphism.TestPropagationPhase)
    save_structure(relabelled_probability([3, 2, 5, 2], lambda v: (v + v * v) / 2),
                   tmp / "mix2.bel")
    src = str(Path(coxcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = PROBE.format(heavy=HEAVY, tmp=str(tmp),
                          check=str(FIXTURES / "uniform2.bel"),
                          decide=str(FIXTURES / "three_atoms.bel"),
                          numeric=str(tmp / "mix2.bel"))
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
    ("search-min", 0),
    ("audit --theorem 2", 1),  # a rescaled probability is no counterexample
    ("decide", 0),
    ("decide numeric", 0),
])
def test_command_loads_neither_the_solver_nor_mpmath(steps, step, exit_code):
    results, _ = steps
    assert results[step] == [exit_code, []]


@pytest.mark.parametrize("step", ["check", "audit --theorem 4"])
def test_command_leaves_numpy_ma_unloaded(steps, step):
    """numpy imports `numpy.ma` on first use, as a plain `np.unique` does:
    some 15 ms that `check` and a theorem-4 audit do not need."""
    results, _ = steps
    assert step not in results["numpy.ma"]


@pytest.mark.parametrize("report, phase", [
    ("decide.json", "structured-candidates"),
    ("numeric.json", "numeric"),
])
def test_decide_settles_in_the_phase_its_pin_is_for(steps, report, phase):
    """three_atoms.bel is settled before any numeric search, the mix table
    by it: neither loads the solver."""
    _, tmp = steps
    report = json.loads((tmp / report).read_text())
    assert report["verdict"]["kind"] == "witness"
    assert report["verdict"]["budget"]["phase"] == phase


def test_minimize_resolves_to_the_scipy_solver_by_name():
    # perfbench/spans.py looks the name up with getattr and wraps it
    assert getattr(isomorphism, "minimize") is scipy.optimize.minimize
    with pytest.raises(AttributeError):
        isomorphism.no_such_name
