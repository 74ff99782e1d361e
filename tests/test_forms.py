import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from coxcheck import forms
from coxcheck.core import BeliefStructure, Domain
from coxcheck.files import load_structure
from coxcheck.forms import (
    CombinationForm,
    EquationCoverageError,
    ExtractionConflict,
    FormError,
    NegationForm,
    catalog_combination,
    catalog_negation,
    check_functional_equation,
    check_monotonicity,
    extract_combination,
    extract_negation,
    multiplicative_rep,
)
from coxcheck.generators import coin_family

from conftest import fixture_path


def weights_structure(*weights):
    ws = [F(w) for w in weights]
    n = len(ws)
    atoms = tuple("abcd"[:n]) if n <= 4 else tuple(f"x{i}" for i in range(n))
    return BeliefStructure.from_weights(Domain(atoms), ws)


@st.composite
def small_weights(draw):
    n = draw(st.integers(2, 4))
    ints = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(ints)
    return [F(i, total) for i in ints]


class TestExtractNegation:
    def test_third_structure_table(self):
        neg = extract_negation(weights_structure("1/3", "2/3"))
        assert neg.table == {
            F(0): F(1), F(1, 3): F(2, 3), F(2, 3): F(1, 3), F(1): F(0)
        }

    def test_single_atom_table(self):
        neg = extract_negation(weights_structure("1"))
        assert neg.table == {F(0): F(1), F(1): F(0)}

    def test_conflict_reports_two_witness_pairs(self):
        conflict = extract_negation(load_structure(fixture_path("a1_conflict.bel")))
        assert isinstance(conflict, ExtractionConflict)
        assert conflict.args == (F(1, 2),)
        assert conflict.output_a != conflict.output_b
        assert conflict.instance_a != conflict.instance_b

    @given(small_weights())
    def test_probability_tables_restrict_linear_complement(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        neg = extract_negation(BeliefStructure.from_weights(d, ws))
        assert isinstance(neg, NegationForm)
        assert all(x + s == 1 for x, s in neg.table.items())

    def test_extraction_is_deterministic(self):
        b = weights_structure("1/6", "1/3", "1/2")
        assert extract_negation(b).table == extract_negation(b).table


class TestExtractCombination:
    def test_uniform_two_atom_entries(self):
        comb = extract_combination(weights_structure("1/2", "1/2"))
        assert comb.table[(F(1), F(1, 2))] == F(1, 2)
        assert comb.table[(F(1, 2), F(1))] == F(1, 2)

    @given(small_weights())
    def test_probability_tables_restrict_product(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        comb = extract_combination(BeliefStructure.from_weights(d, ws))
        assert isinstance(comb, CombinationForm)
        assert all(x * y == out for (x, y), out in comb.table.items())

    def test_forged_collision_is_a_conflict(self):
        conflict = extract_combination(load_structure(fixture_path("a2_conflict.bel")))
        assert isinstance(conflict, ExtractionConflict)
        assert conflict.args == (F(1, 4), F(2, 5))
        assert conflict.output_a != conflict.output_b

    def test_uniform_fast_path_matches_enumeration(self):
        slow = weights_structure(*(["1/7"] * 7))
        table_fast = extract_combination(slow).table
        by_masks = {}
        for b, a, u in slow.canonical_triple_masks():
            key = (slow.bel_masks(b, a), slow.bel_masks(a, u))
            by_masks[key] = slow.bel_masks(b, u)
        assert table_fast == by_masks


class TestMonotonicity:
    def test_minimum_fails_strictness_with_witness(self):
        report = check_monotonicity(catalog_combination("minimum"))
        assert report.strict_increase.status == "fail"
        assert report.strict_increase.detail
        assert report.nondecrease.status == "pass"
        # the classical witness: fixing one coordinate hides the other
        assert min(F(1, 2), F(1, 2)) == min(F(1, 2), F(3, 4))

    @pytest.mark.parametrize("name", ["product", "hamacher"])
    def test_strict_catalog_forms_pass(self, name):
        report = check_monotonicity(catalog_combination(name))
        assert report.strict_increase.passed
        assert report.nondecrease.passed
        assert report.continuity.passed

    def test_linear_complement_is_decreasing(self):
        report = check_monotonicity(catalog_negation("linear-complement"))
        assert report.decreasing.passed

    def test_tabular_negation_violation_detected(self):
        bad = NegationForm(kind="tabular", table={F(0): F(1, 2), F(1, 2): F(3, 4)})
        assert check_monotonicity(bad).decreasing.status == "fail"

    def test_tabular_combination_continuity_untestable(self):
        comb = extract_combination(weights_structure("1/2", "1/2"))
        report = check_monotonicity(comb)
        assert report.continuity.status == "untestable"

    def test_extracted_probability_table_is_monotone(self):
        comb = extract_combination(weights_structure("1/6", "1/3", "1/2"))
        report = check_monotonicity(comb)
        assert report.strict_increase.passed and report.nondecrease.passed


def oracle_f_monotone(form):
    """The tabular F monotonicity check as it ran on Fractions: (compared,
    strict verdict, nondecrease verdict) over the same axis pairs."""
    e, big_e = form.interval
    by_first, by_second = {}, {}
    for x, y in form.table:
        by_first.setdefault(x, []).append(y)
        by_second.setdefault(y, []).append(x)
    pairs = []
    for x in sorted(by_first):
        ys = sorted(by_first[x])
        pairs += [((x, y1), (x, y2)) for y1, y2 in zip(ys, ys[1:])]
    for y in sorted(by_second):
        xs = sorted(by_second[y])
        pairs += [((x1, y), (x2, y)) for x1, x2 in zip(xs, xs[1:])]
    strict_fail = nondec_fail = None
    for (a1, b1), (a2, b2) in pairs:
        f1, f2 = form.table[(a1, b1)], form.table[(a2, b2)]
        if f1 > f2 and nondec_fail is None:
            nondec_fail = f"F({a1}, {b1})={f1} > F({a2}, {b2})={f2}"
        interior = all(t > e for t in (a1, b1, a2, b2))
        if interior and f1 >= f2 and strict_fail is None:
            strict_fail = f"F({a1}, {b1})={f1} vs F({a2}, {b2})={f2} (not strict)"
    compared = len(pairs)
    if compared == 0:
        untestable = forms.Verdict("untestable", "no comparable argument pairs")
        return compared, untestable, untestable
    strict = (forms.Verdict("fail", strict_fail) if strict_fail else forms.Verdict(
        "pass", f"strict on {compared} comparable pairs in ({e},{big_e}]^2"))
    nondec = (forms.Verdict("fail", nondec_fail) if nondec_fail else forms.Verdict(
        "pass", f"nondecreasing on {compared} comparable pairs"))
    return compared, strict, nondec


def planted_tables(count, seed):
    """Tabular F on random argument sets that include e, each the product
    table with a few entries planted flat (equal to a neighbour) or
    decreasing (below one)."""
    rng = random.Random(seed)
    for _ in range(count):
        e, big_e = rng.choice([(F(0), F(1)), (F(1, 4), F(3, 4)), (F(1), F(2))])
        pool = sorted({e, big_e} | {e + (big_e - e) * F(rng.randint(1, 11), 12)
                                    for _ in range(rng.randint(0, 6))})
        keys = [(x, y) for x in pool for y in pool if rng.random() < 0.7]
        table = {(x, y): x * y for x, y in keys}
        for _ in range(rng.randint(0, 3)):
            if not keys:
                break
            key = rng.choice(keys)
            table[key] = rng.choice([
                table[rng.choice(keys)],  # flat against some entry
                table[key] - F(rng.randint(1, 4), 8),  # decreasing
            ])
        yield CombinationForm(kind="tabular", table=table, interval=(e, big_e))


def tabular_f_monotone(form):
    """`forms._ranked_f_monotone` of a tabular form."""
    return forms._ranked_f_monotone(*forms._interned(form), form.interval[0])


class TestMonotonicityOracle:
    """The rank-based tabular check agrees with the Fraction loop it
    replaced: status and detail of both verdicts, and the pairs compared."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_tables(self, seed):
        statuses = set()
        for form in planted_tables(150, seed):
            compared, strict, nondec = oracle_f_monotone(form)
            report = check_monotonicity(form)
            assert report.strict_increase == strict, form.table
            assert report.nondecrease == nondec, form.table
            assert tabular_f_monotone(form)[0] == compared
            statuses.add((strict.status, nondec.status))
        assert {("pass", "pass"), ("fail", "pass"), ("fail", "fail")} <= statuses

    def test_coin_family_merged_f_passes(self):
        form = coin_family(6).merged_combination()
        compared, strict, nondec = oracle_f_monotone(form)
        report = check_monotonicity(form)
        assert report.strict_increase == strict and strict.passed
        assert report.nondecrease == nondec and nondec.passed
        assert tabular_f_monotone(form)[0] == compared > 0


class TestFunctionalEquations:
    @pytest.mark.parametrize("name", ["product", "minimum", "hamacher"])
    def test_eq1_exact_zero_on_catalog(self, name):
        report = check_functional_equation(catalog_combination(name), "EQ1", 8)
        assert report.residual == 0
        assert not report.partial

    @pytest.mark.parametrize("eq", ["EQ3", "EQ3.5", "EQSYM"])
    def test_negation_equations_exact_zero(self, eq):
        report = check_functional_equation(catalog_negation("linear-complement"), eq, 10)
        assert report.residual == 0

    def test_zero_denominators_skipped_and_counted(self):
        report = check_functional_equation(
            catalog_negation("linear-complement"), "EQ3.5", 10
        )
        # oracle: x == 1 kills S(x); y == 0 kills x/y; the corner overlaps
        assert report.skipped == 10 + 10 - 1
        assert report.evaluated == 100 - 19

    @pytest.mark.parametrize("eq,name,fits,too_big", [
        ("EQ1", "product", 3, 4),  # 27 and 64 triples
        ("EQSYM", "linear-complement", 5, 6),  # 25 and 36 pairs
        ("EQ3", "linear-complement", 27, 28),
    ])
    def test_grid_over_the_evaluation_limit_rejected(
        self, monkeypatch, eq, name, fits, too_big
    ):
        monkeypatch.setattr(forms, "EQUATION_EVALUATION_LIMIT", 27)
        form = (catalog_combination if eq == "EQ1" else catalog_negation)(name)
        assert check_functional_equation(form, eq, fits).total <= 27
        with pytest.raises(ValueError, match="over the limit of 27"):
            check_functional_equation(form, eq, too_big)

    def test_wrong_form_kind_rejected(self):
        with pytest.raises(FormError):
            check_functional_equation(catalog_negation("linear-complement"), "EQ1", 5)
        with pytest.raises(FormError):
            check_functional_equation(catalog_combination("product"), "EQ3", 5)

    def test_tabular_check_is_partial_and_never_leaves_table(self):
        comb = extract_combination(weights_structure("1/2", "1/2"))
        report = check_functional_equation(comb, "EQ1", 3)  # grid {0, 1/2, 1}
        assert report.residual == 0
        assert report.partial or report.evaluated == report.total

    def test_sparse_tabular_form_raises_coverage_error(self):
        sparse = NegationForm(kind="tabular", table={F(1, 3): F(2, 3)})
        with pytest.raises(EquationCoverageError):
            check_functional_equation(sparse, "EQ3", 5)

    def test_residual_positive_for_non_associative_table(self):
        table = {
            (F(1, 2), F(1, 2)): F(1, 4),
            (F(1, 2), F(1, 4)): F(1, 4),
            (F(1, 4), F(1, 2)): F(1, 8),
        }
        form = CombinationForm(kind="tabular", table=table)
        report = check_functional_equation(form, "EQ1", 3)
        assert report.residual > 0
        assert report.witness is not None


class TestMultiplicativeRep:
    def test_product_has_identity_representation(self):
        rep = multiplicative_rep(catalog_combination("product"), F(1, 2), 1e-9)
        assert rep.constant == 1.0
        assert rep.residual <= 10 * 1e-9
        assert max(abs(x - f) for x, f in rep.samples) < 1e-12

    def test_minimum_rejected_at_the_precondition(self):
        with pytest.raises(FormError, match="Par4-strict"):
            multiplicative_rep(catalog_combination("minimum"), F(1, 2))

    def test_tabular_rejected(self):
        comb = extract_combination(weights_structure("1/2", "1/2"))
        with pytest.raises(FormError, match="catalog"):
            multiplicative_rep(comb, F(1, 2))

    def test_anchor_must_be_interior(self):
        with pytest.raises(FormError, match="anchor"):
            multiplicative_rep(catalog_combination("product"), F(1))

    def test_hamacher_sample_points_increase(self):
        rep = multiplicative_rep(catalog_combination("hamacher"), F(1, 2), 1e-9)
        xs = [x for x, _ in rep.samples]
        fs = [f for _, f in rep.samples]
        assert xs == sorted(xs) and fs == sorted(fs)
        assert all(f > 0 for f in fs)
        assert rep.residual < 1e-6

    def test_interpolated_f_is_monotone(self):
        rep = multiplicative_rep(catalog_combination("hamacher"), F(1, 2), 1e-9)
        probes = [i / 40 for i in range(1, 41)]
        values = [rep.f(p) for p in probes]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert math.isclose(rep.f(1.0), 1.0)


class TestGuards:
    """Each guard of the forms API, through the call a caller makes."""

    @pytest.mark.parametrize("build, message", [
        (lambda: NegationForm("sigmoid"), "unknown negation form 'sigmoid'"),
        (lambda: NegationForm("tabular"), "tabular forms need a table, catalog forms none"),
        (lambda: CombinationForm("maximum"), "unknown combination form 'maximum'"),
        (lambda: CombinationForm("product", table={}),
         "tabular forms need a table, catalog forms none"),
        (lambda: check_monotonicity("min"), "not a form: 'min'"),
    ])
    def test_form_errors(self, build, message):
        with pytest.raises(FormError, match=f"^{re.escape(message)}$"):
            build()

    def test_an_unknown_equation(self):
        with pytest.raises(ValueError, match="^unknown equation 'EQ2'$"):
            check_functional_equation(catalog_negation("linear-complement"), "EQ2", 5)

    def test_a_monotonicity_grid_of_one_point(self):
        with pytest.raises(ValueError, match="^grid needs at least 2 points$"):
            check_monotonicity(catalog_combination("product"), grid_resolution=1)

    def test_eq1_with_no_evaluable_triple(self):
        form = CombinationForm("tabular", {(F(1, 3), F(1, 3)): F(1, 9)})
        with pytest.raises(EquationCoverageError,
                           match="^EQ1: no evaluable grid triples for this form$"):
            check_functional_equation(form, "EQ1", 3)

    def test_a_discontinuous_catalog_form(self):
        # the Hamacher product on [0, 2] divides by zero at (2, 2)
        report = check_monotonicity(CombinationForm("hamacher", interval=(F(0), F(2))))
        assert report.continuity == forms.Verdict(
            "fail", "grid jump 14 exceeds modulus bound 1/2")


class TestTabularNegationEquations:
    def test_a_residual_off_the_complement(self):
        # S(S(3/4)) = S(1/4) = 2/3; S(2/3) is not in the table
        form = NegationForm("tabular", {F(0): F(1), F(1, 4): F(2, 3), F(1, 2): F(1, 2),
                                        F(3, 4): F(1, 4), F(1): F(0)})
        report = check_functional_equation(form, "EQ3", 5)
        assert (report.residual, report.witness) == (F(1, 12), (F(3, 4),))
        assert (report.evaluated, report.total, report.partial) == (4, 5, True)

    @pytest.mark.parametrize("equation, evaluated, skipped", [
        ("EQ3", 3, 0), ("EQ3.5", 6, 8), ("EQSYM", 4, 9)])
    def test_points_off_the_table_are_left_out(self, equation, evaluated, skipped):
        """1 − x without 1/4: every instance that reads S(1/4), or S at a
        quotient off the grid, is left out, and the rest hold exactly."""
        form = NegationForm("tabular", {F(0): F(1), F(1, 2): F(1, 2), F(3, 4): F(1, 4),
                                        F(1): F(0)})
        report = check_functional_equation(form, equation, 5)
        assert (report.residual, report.evaluated, report.skipped) == (0, evaluated, skipped)
        assert report.partial


class TestMultiplicativeRepErrors:
    @pytest.mark.parametrize("interval, anchor, tolerance, message", [
        ((F(0), F(1)), F(1, 2), -1.0, "precondition EQ1 fails: residual 0"),
        ((F(0), F(2)), F(1), 1e-9, "precondition unit fails: F(1/10, E) != 1/10"),
        ((F(1, 2), F(1)), F(3, 4), 1e-9, "precondition annihilator fails: F(1/2, e) != 1/2"),
        # the anchor rounds to 1 at 50 digits, so every F-power is 1
        ((F(0), F(1)), 1 - F(1, 10 ** 60), 1e-9, "sample ladder is not strictly decreasing"),
    ], ids=["tolerance-below-zero", "unit", "annihilator", "ladder"])
    def test_precondition_and_ladder_errors(self, interval, anchor, tolerance, message):
        form = CombinationForm("product", interval=interval)
        with pytest.raises(FormError, match=f"^{re.escape(message)}$"):
            multiplicative_rep(form, anchor, tolerance)
