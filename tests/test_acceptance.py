"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance and budget is pinned here; nothing is deferred to later
calibration.  Runtime limits are asserted with time.perf_counter.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import jsonschema
import pytest

from coxcheck.cli import main
from coxcheck.conditions import (
    bel_level_negation,
    chain_consistency,
    check_bounds,
    check_monotonicity,
    par5_family,
    par5_gap,
)
from coxcheck.core import Domain
from coxcheck.files import load_structure
from coxcheck.forms import (
    FormError,
    catalog_combination,
    catalog_negation,
    check_functional_equation,
    extract_combination,
    extract_negation,
    multiplicative_rep,
)
from coxcheck.generators import (
    affine_rescale,
    coin_extend,
    coin_family,
    gen_distorted,
    gen_probability,
)
from coxcheck.isomorphism import DecisionParams, decide
from coxcheck.report_schema import REPORT_SCHEMA

from conftest import FIXTURES

SWEEP_SEED = 20260810


def _random_weights(rng, n):
    ints = [rng.randint(1, 24) for _ in range(n)]
    total = sum(ints)
    return [F(i, total) for i in ints]


def _report(number, detail):
    print(f"ACCEPTANCE {number} PASS: {detail}")


def test_acceptance_1_probability_soundness_sweep():
    started = time.perf_counter()
    rng = random.Random(SWEEP_SEED)
    count = 0
    for i in range(100):
        n = 2 + i % 3
        ws = _random_weights(rng, n)
        domain = Domain(tuple(f"x{j}" for j in range(n)))
        b = gen_probability(domain, ws)
        assert check_bounds(b).passed
        neg = extract_negation(b)
        assert all(x + s == 1 for x, s in neg.table.items())
        comb = extract_combination(b)
        assert all(x * y == out for (x, y), out in comb.table.items())
        assert chain_consistency(b).passed
        assert bel_level_negation(b).passed
        verdict = decide(b)
        assert verdict.kind == "witness" and verdict.to_dict()["exact"]
        assert verdict.witness.as_fractions(domain) == ws
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(1, f"{count} random structures over 2-4 atoms, exact recovery, "
               f"{elapsed:.1f}s")


def test_acceptance_2_nontrivial_rescaling():
    started = time.perf_counter()
    b = gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2)
    verdict = decide(b)
    assert verdict.kind == "witness"
    worst = 0.0
    for value, ratio in verdict.rescaling.points:
        worst = max(worst, abs(float(ratio) - math.sqrt(float(value))))
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    _report(2, f"witness with square-root rescaling, max |g(v)-√v| = {worst:.2e}")


def test_acceptance_3_counterexample_pipeline():
    started = time.perf_counter()
    params = json.loads((FIXTURES / "min_counterexample.json").read_text())
    assert params["atoms"] == 3
    b = load_structure(FIXTURES / "min_counterexample.bel")
    grid = {F(g) for g in params["grid"]}
    for v, u, x in b.items():
        assert x in grid
        assert b.bel_masks(u ^ v, u) == 1 - x  # A1 with S = 1-x, exactly
        if v == 0:
            assert x == 0  # Par2
        if v == u:
            assert x == 1
    for bm, am, um in b.canonical_triple_masks():
        assert b.bel_masks(bm, um) == min(
            b.bel_masks(bm, am), b.bel_masks(am, um)
        )  # A2 with F = min, exactly
    verdict = decide(b, DecisionParams(seed=7))
    assert verdict.kind == "refutation"
    assert verdict.certificate.recheck(b)
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report(3, f"fixture re-validates A1/A2/Par2 and is refuted "
               f"({verdict.certificate.kind}), {elapsed:.2f}s")


def test_acceptance_4_par4_discrimination():
    started = time.perf_counter()
    minimum = check_monotonicity(catalog_combination("minimum"))
    assert minimum.strict_increase.status == "fail"
    assert minimum.strict_increase.detail  # explicit witness text
    assert min(F(1, 2), F(1, 2)) == min(F(1, 2), F(3, 4))  # the witness shape
    for name in ("product", "hamacher"):
        report = check_monotonicity(catalog_combination(name))
        assert report.strict_increase.passed and report.nondecrease.passed
    elapsed = time.perf_counter() - started
    assert elapsed < 1
    _report(4, "minimum fails strictness with a witness; product and "
               "hamacher pass")


def test_acceptance_5_functional_equations():
    started = time.perf_counter()
    for name in ("product", "minimum"):
        report = check_functional_equation(catalog_combination(name), "EQ1", 20)
        assert report.residual == 0
        assert report.evaluated == 20 ** 3
    lin = catalog_negation("linear-complement")
    skip_oracle = {"EQ3": 0, "EQ3.5": None, "EQSYM": None}
    pts = [F(i, 99) for i in range(100)]
    # independent skip-count oracle: denominators vanish at y=0 (both
    # two-variable laws), at S(x)=0 i.e. x=1 (EQ3.5), and at x=0 (EQSYM)
    skip_oracle["EQ3.5"] = sum(1 for x in pts for y in pts if y == 0 or x == 1)
    skip_oracle["EQSYM"] = sum(1 for x in pts for y in pts if y == 0 or x == 0)
    for eq in ("EQ3", "EQ3.5", "EQSYM"):
        report = check_functional_equation(lin, eq, 100)
        assert report.residual == 0
        assert report.skipped == skip_oracle[eq]
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report(5, f"EQ1 exact 0 on 20^3 for product/minimum; EQ3, EQ3.5, EQSYM "
               f"exact 0 on 100-point grids with {skip_oracle['EQ3.5']} "
               f"skipped division points, {elapsed:.1f}s")


def test_acceptance_6_multiplicative_representation():
    started = time.perf_counter()
    rep = multiplicative_rep(catalog_combination("hamacher"), F(1, 2),
                             tolerance=1e-9, grid=50)
    assert rep.grid == 50
    assert rep.residual < 1e-6
    closed = lambda x: math.exp(-(1 - x) / x)
    gauge = math.log(0.5) / math.log(closed(0.5))  # fix the power at the anchor
    worst = max(
        abs(f - closed(x) ** gauge) for x, f in rep.samples if x > 0
    )
    assert worst < 1e-6
    with pytest.raises(FormError):
        multiplicative_rep(catalog_combination("minimum"), F(1, 2))
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report(6, f"hamacher residual {rep.residual:.2e} on a {rep.grid}^2 grid, "
               f"closed-form deviation {worst:.2e} after gauge fixing; "
               f"minimum rejected")


def test_acceptance_7_density_behavior():
    started = time.perf_counter()
    rng = random.Random(SWEEP_SEED + 7)
    gap_checked = 0
    for path in sorted(FIXTURES.glob("*.bel")):
        if path.name.startswith("bad_parse"):
            continue
        assert par5_gap(load_structure(path)) > 0
        gap_checked += 1
    for _ in range(20):
        n = rng.randint(1, 4)
        b = gen_probability(
            Domain(tuple(f"x{j}" for j in range(n))), _random_weights(rng, n)
        )
        assert par5_gap(b) > 0
        gap_checked += 1
    base = Domain(("a", "b"))
    for n in range(1, 7):
        ext = coin_extend(base, [F(1, 2), F(1, 2)], n)
        assert par5_gap(ext.extended, "unconditional") <= F(1, 2 ** (n + 1))
    family_report = par5_family(coin_family(12), 11, F(1, 20))
    assert family_report.passed and not family_report.vacuous
    assert family_report.targets_checked == 11 ** 3
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _report(7, f"gap positive on {gap_checked} structures; coin-extension "
               f"gaps within dyadic bounds; 12-coin family passes the 11^3 "
               f"grid at ε=0.05, {elapsed:.1f}s")


def test_acceptance_8_gauge_invariance():
    started = time.perf_counter()
    checked = 0
    for path in sorted(FIXTURES.glob("*.bel")):
        if path.name.startswith("bad_parse"):
            continue
        b = load_structure(path)
        rescaled = affine_rescale(b, F(1, 2), F(1, 4))
        before = decide(b)
        after = decide(rescaled)
        assert before.kind == after.kind, path.name
        if before.kind == "witness":
            assert before.witness.weights == after.witness.weights, path.name
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _report(8, f"v ↦ v/2 + 1/4 preserves verdict kind (and witness weights) "
               f"on {checked} fixtures, {elapsed:.1f}s")


def test_acceptance_9_cli_contract(tmp_path, capsys):
    started = time.perf_counter()
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    for idx, entry in enumerate(manifest):
        args = [
            a.replace("{file}", str(FIXTURES / entry["file"]))
            if entry["file"] else a
            for a in entry["args"]
        ]
        report_path = tmp_path / f"report_{idx}.json"
        wants_report = entry["expect"] not in (64, 65)
        if wants_report:
            args = args + ["--json", str(report_path)]
        code = main(args)
        out = capsys.readouterr().out
        assert code == entry["expect"], f"args={args}"
        if not wants_report:
            continue
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["exit_code"] == code
        if entry["args"][0] == "decide":
            kind = report["verdict"]["kind"]
            assert f"verdict: {kind}" in out
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _report(9, f"{len(manifest)} manifest entries match their documented "
               f"exit codes; JSON reports validate and agree with the text, "
               f"{elapsed:.1f}s")
