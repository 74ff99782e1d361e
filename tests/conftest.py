import functools
import random
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import HealthCheck, settings

from coxcheck.core import BeliefStructure, Domain
from coxcheck.forms import combination_ranks, negation_ranks
from coxcheck.generators import gen_probability

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def custom_monotone_distortion():
    """A probability structure pushed through v ↦ v/(2−v): neither affine
    nor a power law, so the structured candidates all miss."""
    base = gen_probability(Domain(("a", "b")), [Fraction(1, 3), Fraction(2, 3)])
    return base.map_values(lambda v: v / (2 - v), bounds=(Fraction(0), Fraction(1)))


def relabelled_probability(ints, g):
    """The probability of integer weights `ints` on atoms x0, x1, ..., every
    value pushed through the strictly increasing g with g(0)=0, g(1)=1."""
    domain = Domain(tuple(f"x{i}" for i in range(len(ints))))
    base = gen_probability(domain, [Fraction(i, sum(ints)) for i in ints])
    return base.map_values(g, bounds=(Fraction(0), Fraction(1)))


def golden_ratio_structure():
    """The probability of weights (s², s − s², 1 − s), s = (√5 − 1)/2, with
    its 7 distinct ratios μ(V)/μ(U) relabelled k/6 in order.

    Any witness has w_a = w_c and w_a/(w_a + w_b) = w_a + w_b, which force
    s² + s − 1 = 0: a rescaled probability with no rational witness.
    """
    with mpmath.workdps(50):
        s = (mpmath.sqrt(5) - 1) / 2
        weights = (s * s, s - s * s, 1 - s)
        mu = [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(8)]
        # ratios equal in exact arithmetic agree here to far more than 30 digits
        keys = {
            (v, u): int(mpmath.nint(mu[v] / mu[u] * 10 ** 30))
            for u in range(1, 8) for v in range(8) if v & ~u == 0
        }
    levels = sorted(set(keys.values()))
    assert len(levels) == 7
    table = {vu: Fraction(levels.index(k), 6) for vu, k in keys.items()}
    return BeliefStructure.from_table(Domain(("a", "b", "c")), table)


@functools.cache
def refuted_fixtures() -> tuple:
    """(name, structure, certificate) of every fixture that
    `refutation_search` refutes, by name."""
    from coxcheck.files import load_structure
    from coxcheck.isomorphism import refutation_search

    refuted = []
    for path in sorted(FIXTURES.glob("*.bel")):
        if not path.name.startswith("bad_parse"):
            structure = load_structure(path)
            certificate = refutation_search(structure)
            if certificate is not None:
                refuted.append((path.name, structure, certificate))
    return tuple(refuted)


def engine_rules(structure, engine):
    """The ratio engine's sums (x, y, (v,u)) and products (out, l, r,
    (b,a,u)), sorted, with each witness number read as the masks of the
    A1 or A2 instance it numbers."""
    s, f = negation_ranks(structure), combination_ranks(structure)
    x, y, w = engine.sums.T
    sums = sorted(zip(x.tolist(), y.tolist(), s.masks(w)))
    out, l, r, w = engine.products.T
    products = sorted(zip(out.tolist(), l.tolist(), r.tolist(), f.masks(w)))
    return sums, products


def seeded_probability(n, seed):
    """The probability of weights `random.Random(31·seed + n).randint(1, 9)`
    on atoms a, b, ...: the base of ROADMAP item 6's merge corpus."""
    rng = random.Random(31 * seed + n)
    weights = [rng.randint(1, 9) for _ in range(n)]
    return gen_probability(Domain(tuple("abcde"[:n])),
                           [Fraction(w, sum(weights)) for w in weights])


def merged_probability(n, seed, a, b):
    """Item 6's merge step without its filters, as `scripts/make_fixtures.py`
    builds its merge fixtures: the seeded probability with every value b
    written as the adjacent value a < b, and 1 − a as 1 − b."""
    base = seeded_probability(n, seed)
    a, b = Fraction(a), Fraction(b)
    table = {key: a if x == b else 1 - b if x == 1 - a else x
             for key, x in base.as_table().items()}
    return BeliefStructure.from_table(base.domain, table)


def merges(n, seed):
    """Every merge of two adjacent interior values of the seeded
    probability on n atoms, as (a, b, structure)."""
    values = sorted(set(seeded_probability(n, seed).as_table().values()))[1:-1]
    for a, b in zip(values, values[1:]):
        yield a, b, merged_probability(n, seed, a, b)


def complement_table(unconditional, pairs):
    """The 3-atom table on atoms a, b, c with S = 1 − x: `unconditional`
    gives Bel({a}|Ω), Bel({b}|Ω), Bel({c}|Ω) and `pairs` Bel({a}|{a b}),
    Bel({a}|{a c}), Bel({b}|{b c}); every other entry follows."""
    table = {}
    for u in range(1, 8):
        table[(0, u)], table[(u, u)] = Fraction(0), Fraction(1)
    for (v, u), x in zip(((1, 7), (2, 7), (4, 7), (1, 3), (1, 5), (2, 6)),
                         (*unconditional, *pairs)):
        table[(v, u)], table[(u ^ v, u)] = Fraction(x), 1 - Fraction(x)
    return BeliefStructure.from_table(Domain(("a", "b", "c")), table)
