"""`verify_witness` against a reference: two plain loops over the canonical
pairs, with the product rule re-checked pair by pair.

The reference is the exact check as it read before it became one integer
array pass.  Its check (iv) can never be the one that fails, since (i)
implies it; running it here keeps that argument tested.
"""

import math
import random
from fractions import Fraction as F
from typing import Mapping

import pytest

from coxcheck.core import BeliefStructure, Domain, Event, subset_sums
from coxcheck.generators import affine_rescale, gen_distorted
from coxcheck.isomorphism import WitnessCheck, verify_witness


def reference_verify_witness(structure, weights) -> WitnessCheck:
    domain = structure.domain
    if isinstance(weights, Mapping):
        ws = [F(weights[a]) for a in domain.atoms]
    else:
        ws = [F(w) for w in weights]
        if len(ws) != domain.size:
            raise ValueError("one weight per atom required")
    if any(w <= 0 for w in ws):
        raise ValueError("witness weights must be strictly positive")
    if sum(ws) != 1:
        raise ValueError("witness weights must sum to 1")
    e, big_e = structure.bounds
    index = structure.value_index()
    values = index.values
    den = math.lcm(*(w.denominator for w in ws))
    mu = subset_sums([w.numerator * (den // w.denominator) for w in ws])
    ratios = {}  # value rank -> (μ(V), μ(U)) of its first pair
    for v, u, x in index.pairs():
        p, q = mu[v], mu[u]
        old = ratios.setdefault(x, (p, q))
        if old[0] * q != p * old[1]:
            return WitnessCheck(
                False,
                f"single-valuedness: value {values[x]} maps to ratios "
                f"{F(*old)} and {F(p, q)}",
                None,
            )
    items = sorted(ratios.items())
    for (x1, (p1, q1)), (x2, (p2, q2)) in zip(items, items[1:]):
        if not p1 * q2 < p2 * q1:
            return WitnessCheck(
                False,
                f"strict increase: values {values[x1]} < {values[x2]} map to ratios "
                f"{F(p1, q1)} ≥ {F(p2, q2)}",
                None,
            )
    if index.e in ratios and ratios[index.e][0] != 0:
        return WitnessCheck(False, f"endpoint: g({e}) = {F(*ratios[index.e])} ≠ 0", None)
    if index.E in ratios and ratios[index.E][0] != ratios[index.E][1]:
        return WitnessCheck(False, f"endpoint: g({big_e}) = {F(*ratios[index.E])} ≠ 1", None)
    for x, _ in (items[0], items[-1]):
        if not index.e <= x <= index.E:
            return WitnessCheck(False, f"endpoint: attained value {values[x]} lies outside "
                                f"the bounds [{e},{big_e}]", None)
    unconditional = index.pair_rank[-(1 << domain.size):].tolist()  # the full mask's row
    for v, u, x in index.pairs():
        p1, q1 = ratios[x]
        p2, q2 = ratios[unconditional[u]]
        p3, q3 = ratios[unconditional[v]]
        if p1 * p2 * q3 != p3 * q1 * q2:
            return WitnessCheck(
                False,
                f"product rule fails at (V={Event(domain, v)!r}, U={Event(domain, u)!r})",
                None,
            )
    return WitnessCheck(True, None, tuple((x, values[x], F(p, q)) for x, (p, q) in items))


def outcome(check, structure, weights):
    """(passed, failing, graph), or ("raised", message) for a ValueError."""
    try:
        got = check(structure, weights)
    except ValueError as exc:
        return "raised", str(exc)
    return got.passed, got.failing, got.graph


def assert_agrees(structure, weights):
    ours = outcome(verify_witness, structure, weights)
    assert ours == outcome(reference_verify_witness, structure, weights), weights
    return ours


def units(rng, n):
    return [rng.randint(1, 9) for _ in range(n)]


def normalized(ints):
    return [F(i, sum(ints)) for i in ints]


def moved(ints, rng):
    """The weights with one unit moved from one atom to another, where the
    first atom has a unit to spare."""
    out = list(ints)
    give = rng.choice([i for i, t in enumerate(out) if t > 1] or [0])
    out[give] -= 1
    out[(give + rng.randrange(1, len(out))) % len(out)] += 1
    return out


def perturbed(structure, rng):
    """A table copy of the structure with one of four faults planted: a
    pair moved to another attained value, two values swapped, the least
    value (e, at V = ∅) pushed below the bounds so that the next value is e,
    or the greatest (E, at V = U) above them so that the one before is E.
    The last two need three values and plant nothing on fewer."""
    table = structure.as_table()
    e, big_e = structure.bounds
    values = sorted(set(table.values()))
    kind = rng.randrange(4)
    if kind == 0:
        table[rng.choice(list(table))] = rng.choice(values)
    elif kind == 1:
        a, b = rng.sample(values, 2)
        table = {k: b if x == a else a if x == b else x for k, x in table.items()}
    elif kind == 2 and len(values) > 2:
        table = {k: e - 1 if x == e else x for k, x in table.items()}
        e = values[1]
    elif len(values) > 2:
        table = {k: big_e + 1 if x == big_e else x for k, x in table.items()}
        big_e = values[-2]
    return BeliefStructure.from_table(structure.domain, table, bounds=(e, big_e))


def structures(rng):
    """Weight-backed structures of 1-5 atoms and k = 1-3, on the bounds
    [0, 1] and, as tables, rescaled onto [1, 3]; with each, its generating
    integer weights."""
    for n in range(1, 6):
        for k in (1, 2, 3):
            ints = units(rng, n)
            structure = gen_distorted(Domain(tuple(f"x{i}" for i in range(n))),
                                      normalized(ints), k)
            yield structure, ints
            yield affine_rescale(structure, F(2), F(1)), ints


@pytest.mark.parametrize("seed", range(6))
def test_agrees_with_the_reference_on_correct_and_wrong_weightings(seed):
    rng = random.Random(seed)
    passed = failed = 0
    for structure, ints in structures(rng):
        candidates = [normalized(ints), normalized(units(rng, len(ints)))]
        if len(ints) > 1:
            candidates.append(normalized(moved(ints, rng)))
        for weights in candidates:
            result = assert_agrees(structure, weights)
            passed += result[0] is True
            failed += result[0] is False
    assert passed and failed


def test_agrees_with_the_reference_on_perturbed_tables():
    """Each of checks (i)-(iii) fails somewhere, at e and at E both."""
    failures = set()
    for seed in range(6):
        rng = random.Random(100 + seed)
        for structure, ints in structures(rng):
            for _ in range(3 if len(ints) > 1 else 0):
                result = assert_agrees(perturbed(structure, rng), normalized(ints))
                if result[0] is False:
                    failing = result[1]
                    failures.add(f"endpoint {failing[-1]}" if failing.startswith("endpoint")
                                 else failing.split(":")[0])
    assert failures == {"single-valuedness", "strict increase", "endpoint 0", "endpoint 1"}


@pytest.mark.parametrize("bounds", [(F(1, 4), F(3, 4)), (F(-1), F(1, 2)), (F(1, 2), F(2))])
def test_agrees_with_the_reference_on_values_outside_the_bounds(bounds):
    """A weight-backed structure keeps its values 0 and 1 on any bounds: one
    of them, or both, lies outside these, and its own weights fail (iii)."""
    rng = random.Random(7)
    for n in range(1, 6):
        ints = units(rng, n)
        structure = BeliefStructure.from_weights(
            Domain(tuple(f"x{i}" for i in range(n))), normalized(ints), bounds=bounds)
        passed, failing, _ = assert_agrees(structure, normalized(ints))
        assert not passed and failing.startswith("endpoint: ")
        if n == 1:
            assert failing.endswith(f"lies outside the bounds [{bounds[0]},{bounds[1]}]")


def test_invalid_weightings_raise_the_reference_messages():
    structure = gen_distorted(Domain(("a", "b", "c")), normalized([1, 2, 3]), 1)
    for weights in ([F(0), F(1, 2), F(1, 2)], [F(-1), F(1), F(1)],
                    [F(1, 2), F(1, 3), F(1, 3)], [F(1, 2), F(1, 2)]):
        ours = assert_agrees(structure, weights)
        assert ours[0] == "raised"


@pytest.mark.parametrize("denominator", [(1 << 31) - 1, 1 << 31, (1 << 31) + 1, (1 << 61) - 1])
def test_masses_either_side_of_the_int64_bound(denominator):
    """Masses below 2^31 are int64, at or above it Python ints: either way
    the generating weights verify and a moved unit fails as the reference
    says.  The weights' common denominator is exactly `denominator`."""
    ints = [1, 2, 3, denominator - 6]
    structure = gen_distorted(Domain(("a", "b", "c", "d")), normalized(ints), 1)
    assert math.lcm(*(w.denominator for w in normalized(ints))) == denominator
    assert assert_agrees(structure, normalized(ints))[0] is True
    for wrong in ([2, 1, 3, denominator - 6], [1, 2, 4, denominator - 7]):
        result = assert_agrees(structure, normalized(wrong))
        assert result[0] is False and result[1]
