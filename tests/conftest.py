from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings

from coxcheck.core import Domain
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
