import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxcheck import core, isomorphism
from coxcheck.conditions import ChainCertificate
from coxcheck.core import BeliefStructure, Domain
from coxcheck.files import load_structure
from coxcheck.forms import (
    CombinationConflict,
    CombinationForm,
    NegationConflict,
    NegationForm,
    extract_combination,
    extract_negation,
)
from coxcheck.generators import affine_rescale, gen_distorted, gen_probability
from coxcheck.isomorphism import (
    DecisionParams,
    OrderConflictData,
    RefutationCertificate,
    _RatioEngine,
    decide,
    refutation_search,
    rescaling_from_witness,
    verify_witness,
)

from conftest import (
    FIXTURES,
    custom_monotone_distortion,
    engine_rules,
    fixture_path,
    golden_ratio_structure,
    relabelled_probability,
)


def random_weights(rng, n):
    ints = [rng.randint(1, 12) for _ in range(n)]
    total = sum(ints)
    return [F(i, total) for i in ints]


@st.composite
def weight_vectors(draw):
    n = draw(st.integers(2, 4))
    ints = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(ints)
    return [F(i, total) for i in ints]


class TestVerifyWitness:
    def test_uniform_weights_on_uniform_structure(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 2), F(1, 2)])
        assert verify_witness(b, [F(1, 2), F(1, 2)]).passed

    def test_wrong_weights_break_strict_increase(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        check = verify_witness(b, [F(1, 2), F(1, 2)])
        assert not check.passed
        assert "strict increase" in check.failing

    def test_distorted_structure_verifies_with_square_root_map(self):
        b = gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2)
        check = verify_witness(b, [F(1, 3), F(2, 3)])
        assert check.passed
        assert check.ratio_map[F(1, 9)] == F(1, 3)
        assert check.ratio_map[F(4, 9)] == F(2, 3)

    def test_invalid_weights_raise(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 2), F(1, 2)])
        with pytest.raises(ValueError):
            verify_witness(b, [F(0), F(1)])
        with pytest.raises(ValueError):
            verify_witness(b, [F(1, 2), F(1, 3)])

    @given(weight_vectors())
    def test_soundness_by_brute_force_reevaluation(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_probability(d, ws)
        check = verify_witness(b, ws)
        assert check.passed
        g = check.ratio_map
        # independent re-evaluation: additivity, normalization, product rule
        def mu(mask):
            return sum(w for i, w in enumerate(ws) if mask >> i & 1)
        assert mu(d.full_mask) == 1
        for v, u, x in b.items():
            assert g[x] == mu(v) / mu(u)
        for m1 in range(d.full_mask + 1):
            for m2 in range(d.full_mask + 1):
                if m1 & m2 == 0:
                    assert mu(m1 | m2) == mu(m1) + mu(m2)


class TestRescaling:
    def test_identity_graph_for_probability_structures(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        g = rescaling_from_witness(b, [F(1, 3), F(2, 3)])
        assert g.graph == {F(0): F(0), F(1, 3): F(1, 3), F(2, 3): F(2, 3), F(1): F(1)}

    def test_square_root_graph_for_distorted_structure(self):
        b = gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2)
        g = rescaling_from_witness(b, [F(1, 3), F(2, 3)])
        assert g.graph[F(1, 9)] == F(1, 3)

    def test_single_atom_graph(self):
        b = gen_probability(Domain(("a",)), [F(1)])
        g = rescaling_from_witness(b, [F(1)])
        assert g.graph == {F(0): F(0), F(1): F(1)}

    def test_piecewise_linear_interpolation(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        g = rescaling_from_witness(b, [F(1, 3), F(2, 3)])
        assert g(F(1, 2)) == F(1, 2)
        with pytest.raises(ValueError):
            g(F(3, 2))

    def test_requires_a_passing_witness(self):
        b = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
        with pytest.raises(ValueError, match="not a witness"):
            rescaling_from_witness(b, [F(1, 2), F(1, 2)])


CERT_FIXTURES = [
    ("a1_conflict.bel", "A1-conflict"),
    ("a2_conflict.bel", "A2-conflict"),
    ("chain_conflict.bel", "chain-associativity"),
    ("order_conflict.bel", "order-conflict"),
    ("min_counterexample.bel", "order-conflict"),
    ("par1_violation.bel", "order-conflict"),
]


class TestRefutationSearch:
    @given(weight_vectors())
    def test_no_refutation_for_probability_structures(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        assert refutation_search(gen_probability(d, ws)) is None

    @pytest.mark.parametrize("name,kind", CERT_FIXTURES)
    def test_fixture_certificates(self, name, kind):
        b = load_structure(fixture_path(name))
        cert = refutation_search(b)
        assert cert is not None
        assert cert.kind == kind
        assert cert.recheck(b)
        verdict = decide(b)
        assert verdict.certificate.kind == kind
        assert verdict.budget["phase"] == "refutation"

    def test_recheck_fails_against_an_unrelated_structure(self):
        b = load_structure(fixture_path("a1_conflict.bel"))
        cert = refutation_search(b)
        other = gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        assert not cert.recheck(other)

    def test_recheck_rejects_non_canonical_instances(self):
        b = load_structure(fixture_path("order_conflict.bel"))
        cert = refutation_search(b)
        full = b.domain.full_mask
        for bad in [
            ("product", (0b011, 0b001, full)),  # B not inside A
            ("product", (0, 0, full)),  # A empty
            ("sum", (0b10, 0b01)),  # V not inside U
            ("sum", (0, full + 1)),  # outside the domain
            ("ratio", (0, full)),  # unknown kind
        ]:
            data = OrderConflictData(cert.data.instances + (bad,), cert.description)
            forged = RefutationCertificate("order-conflict", data, cert.description)
            assert not forged.recheck(b), bad

    def test_recheck_rejects_forged_non_chain_triples(self):
        """Triples outside B ⊆ A ⊆ U alias values a structure never ties
        together; on a structure `decide` proves a witness for, certificates
        built from them must not recheck."""
        b = gen_probability(Domain(("a", "b", "c")), [F(1, 6), F(1, 3), F(1, 2)])
        assert decide(b).kind == "witness"
        forged_a2 = CombinationConflict(
            args=(0, 0), triple_a=(1, 2, 1), output_a=1, triple_b=(0, 1, 2), output_b=0
        )
        zero, one = ((0, 0), 0, (0, 1, 2)), ((0, 0), 1, (1, 2, 1))
        forged_chain = ChainCertificate((0, 0, 0), zero, zero, zero, one)
        for kind, data in [("A2-conflict", forged_a2),
                           ("chain-associativity", forged_chain)]:
            assert not RefutationCertificate(kind, data, "forged").recheck(b), kind

    @pytest.mark.parametrize("pair", [(0, 0), (0, 0b1000)])
    def test_recheck_rejects_non_canonical_pairs_without_raising(self, pair):
        b = load_structure(fixture_path("a1_conflict.bel"))
        c = refutation_search(b)
        for field in ("pair_a", "pair_b"):
            forged = dataclasses.replace(c.data, **{field: pair})
            assert not RefutationCertificate(c.kind, forged, "forged").recheck(b)

    def test_order_conflict_instances_rederive(self):
        b = load_structure(fixture_path("order_conflict.bel"))
        cert = refutation_search(b)
        assert cert.kind == "order-conflict"
        assert cert.data.instances  # nonempty, serializable witnesses
        for kind, masks in cert.data.instances:
            assert kind in ("sum", "product")


def reference_instances(structure):
    """A1 and A2 instances as values, read off the structure directly.

    Every canonical pair and triple; for uniform structures above 6 atoms,
    whose extraction goes by event sizes, one prefix-event witness per size.
    """
    bel = structure.bel_masks
    if structure.is_uniform and structure.domain.size > 6:
        n = structure.domain.size
        prefix = [(1 << s) - 1 for s in range(n + 1)]
        pairs = [(prefix[j], prefix[m]) for m in range(1, n + 1) for j in range(m + 1)]
        a1 = [(bel(v, u), bel(u ^ v, u), (v, u)) for v, u in pairs]
        triples = [
            (prefix[j], prefix[a], prefix[m])
            for m in range(1, n + 1) for a in range(1, m + 1) for j in range(a + 1)
        ]
    else:
        a1 = [(x, bel(u ^ v, u), (v, u)) for v, u, x in structure.items()]
        triples = structure.canonical_triple_masks()
    a2 = [((bel(b, a), bel(a, u)), bel(b, u), (b, a, u)) for b, a, u in triples]
    return a1, a2


def reference_engine_inputs(structure):
    """The engine's sums, products and flags, read off every A1/A2 instance.

    Keeps the first instance in canonical order per complement pair {x, S(x)}
    and per (out, l, r); independent of the extracted S and F tables.
    """
    e, big_e = structure.bounds
    positive, below_one = set(), set()
    sums, products = {}, {}
    a1, a2 = reference_instances(structure)
    for x, s_x, (v, u) in a1:
        for value, vm in ((x, v), (s_x, u ^ v)):
            if vm != 0 or value > e:
                positive.add(value)
            if vm != u or value < big_e:
                below_one.add(value)
        sums.setdefault((min(x, s_x), max(x, s_x)), (x, s_x, (v, u)))
    for (l, r), out, triple in a2:
        products.setdefault((out, l, r), (out, l, r, triple))
    return sorted(sums.values()), sorted(products.values()), positive, below_one


def assert_engine_matches_reference(structure):
    negation = extract_negation(structure)
    combination = extract_combination(structure)
    if isinstance(negation, NegationConflict) or isinstance(
        combination, CombinationConflict
    ):
        return False  # refutation_search stops before building the engine
    engine = _RatioEngine.from_extraction(structure)
    sums, products, positive, below_one = reference_engine_inputs(structure)
    # the engine keys facts by value rank; engine.values maps ranks back
    value = engine.values
    got_sums, got_products = engine_rules(structure, engine)
    assert [(value[x], value[y], w) for x, y, w in got_sums] == sums
    assert [
        (value[out], value[l], value[r], w) for out, l, r, w in got_products
    ] == products
    assert {value[x] for x in engine.positive.nonzero()[0]} == positive
    assert {value[x] for x in engine.below_one.nonzero()[0]} == below_one
    return True


class TestRatioEngineInputs:
    def test_fixtures(self):
        compared = 0
        for path in sorted(FIXTURES.glob("*.bel")):
            if not path.name.startswith("bad_parse"):
                compared += assert_engine_matches_reference(load_structure(path))
        assert compared >= 10

    @pytest.mark.parametrize("n,k", [(7, 1), (8, 2)])
    def test_uniform_structures_beyond_six_atoms(self, n, k):
        d = Domain(tuple(f"x{i}" for i in range(n)))
        assert assert_engine_matches_reference(
            BeliefStructure.from_weights(d, [F(1, n)] * n, exponent=k)
        )

    @given(weight_vectors(), st.integers(1, 3), st.booleans(), st.randoms())
    def test_generated_structures(self, ws, k, rescale, rng):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_distorted(d, ws, k) if k > 1 else gen_probability(d, ws)
        if rescale:
            b = affine_rescale(b, F(1, 2), F(1, 4))
        # an injective relabelling keeps S and F functions but may break order
        values = b.attained()
        shuffled = values[:]
        rng.shuffle(shuffled)
        relabel = dict(zip(values, shuffled))
        b = b.map_values(relabel.__getitem__, bounds=b.bounds)
        assert assert_engine_matches_reference(b)


# strictly increasing on [0, 1] with g(0) = 0 and g(1) = 1, and neither
# affine nor a power law
NON_POWER_MAPS = {
    "mix2": lambda v: (v + v * v) / 2,
    "mobius": lambda v: v / (2 - v),
    "cubic-mix": lambda v: (2 * v + v ** 3) / 3,
}


def non_power_structure(ints, name):
    return relabelled_probability(ints, NON_POWER_MAPS[name])


# (seed, atoms) -> the phase that settles the seeded table under either map
SETTLING_PHASE = {
    **{(seed, 4): "numeric" for seed in range(1, 7)},
    (1, 5): "propagation",
    (2, 5): "propagation",
    (3, 5): "numeric",
    (4, 5): "propagation",
    (5, 5): "numeric",
    (6, 5): "propagation",
}


def pinned_rows(structure, known):
    """The rows q·1_V − p·1_U of every pair whose ratio p/q is pinned in
    (0, 1), straight from the pairs."""
    n = structure.domain.size
    rows = []
    for v, u, x in structure.value_index().pairs():
        if x in known and 0 < known[x] < 1:
            p, q = known[x].numerator, known[x].denominator
            rows.append([q - p if v >> i & 1 else -p if u >> i & 1 else 0 for i in range(n)])
    return rows


class TestNumericPhase:
    @pytest.mark.parametrize("name", ["mobius", "cubic-mix"])
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_seeded_non_power_tables_get_exact_witnesses(self, seed, n, name):
        """Integer weights 1-9 pushed through a map under which no exact
        candidate fits, so only the elimination over the engine's pinned
        ratios or the least-squares search can settle them."""
        rng = random.Random(seed)
        b = non_power_structure([rng.randint(1, 9) for _ in range(n)], name)
        verdict = decide(b)
        assert verdict.kind == "witness"
        assert verdict.budget["phase"] == SETTLING_PHASE[seed, n]
        assert verify_witness(b, verdict.witness.as_fractions(b.domain)).passed

    def test_irrational_witness_is_an_honest_unknown(self):
        """The search gets below the tolerance, but no rational weighting is
        a witness, so nothing is claimed."""
        verdict = decide(golden_ratio_structure())
        assert verdict.kind == "unknown"
        assert verdict.witness is None
        assert verdict.budget["best_penalty"] < DecisionParams().tolerance


@pytest.mark.filterwarnings("error")
class TestWeightSolver:
    """The numeric phase's Levenberg–Marquardt loop, with every warning an
    error: an overflow or 0/0 at a trial point must be rejected silently."""

    def test_extreme_start_weights_return_without_raising(self):
        b = non_power_structure([3, 2, 5, 2], "mix2")
        report = {"iterations": 0}
        solve = isomorphism._weight_solver(b, 50, report)
        free = np.arange(4) > 0
        for start in ([1.0, 1e300, 1e-300, 1e300], [1.0, 1e-300, 1e-300, 1e300]):
            for pull in (True, False):
                before = report["iterations"]
                w, residual = solve(np.array(start), free, pull)
                assert 1 <= report["iterations"] - before <= 50
                assert w[0] == 1.0 and np.all(np.isfinite(w) & (w > 0))
                assert np.isfinite(residual)

    def test_a_budget_of_one_evaluates_each_solve_once(self, monkeypatch):
        per_solve = []
        original = isomorphism._weight_solver

        def counting(structure, budget, report):
            solve = original(structure, budget, report)

            def counted(w, free, pull):
                before = report["iterations"]
                out = solve(w, free, pull)
                per_solve.append(report["iterations"] - before)
                return out
            return counted

        monkeypatch.setattr(isomorphism, "_weight_solver", counting)
        b = custom_monotone_distortion()
        verdict = decide(b, DecisionParams(budget=1))
        assert per_solve and max(per_solve) <= 1
        assert verdict.budget["iterations"] == sum(per_solve)
        assert verdict.kind in ("unknown", "witness")
        if verdict.kind == "witness":
            assert verify_witness(b, verdict.witness.as_fractions(b.domain)).passed


class TestPropagationPhase:
    def test_pinned_ratios_give_the_generating_weights(self):
        """Weights (1, 1, 2, 3) through (v + v²)/2: the pinned classes have
        rank n − 1, and their null vector is the witness."""
        b = non_power_structure([1, 1, 2, 3], "mix2")
        verdict = decide(b, DecisionParams(restarts=0))
        assert verdict.kind == "witness"
        assert verdict.budget == {"restarts": 0, "iterations": 0, "phase": "propagation"}
        assert verdict.witness.as_fractions(b.domain) == [F(1, 7), F(1, 7), F(2, 7), F(3, 7)]

    def test_pins_of_rank_below_n_minus_one_fall_through_to_numeric(self):
        """Weights (3, 2, 5, 2) through (v + v²)/2: the engine pins ratios
        in (0, 1) on a few pairs only, whose rows have rank 2 < n − 1, so
        no weighting is read off and the numeric phase settles it."""
        b = non_power_structure([3, 2, 5, 2], "mix2")
        assert refutation_search(b) is None
        known = isomorphism._fixpoint(b).known
        rows = pinned_rows(b, known)
        assert rows and np.linalg.matrix_rank(np.array(rows, dtype=float)) == 2
        assert isomorphism._pinned_weights(b, known) is None
        verdict = decide(b)
        assert verdict.kind == "witness"
        assert verdict.budget["phase"] == "numeric"

    def test_decide_reads_the_run_of_refutation_search(self, monkeypatch):
        """The engine runs once per structure: `decide` reads the fixpoint
        that refutation search memoized."""
        runs = []
        original = _RatioEngine.run

        def counting(self):
            runs.append(1)
            return original(self)

        monkeypatch.setattr(_RatioEngine, "run", counting)
        assert decide(non_power_structure([1, 1, 2, 3], "mix2")).kind == "witness"
        assert runs == [1]


class TestDecide:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_recovery_of_generating_weights(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            ws = random_weights(rng, n)
            d = Domain(tuple(f"x{i}" for i in range(n)))
            verdict = decide(gen_probability(d, ws))
            assert verdict.kind == "witness"
            assert verdict.to_dict()["exact"]
            assert verdict.witness.as_fractions(d) == ws

    def test_single_atom_domain(self):
        verdict = decide(gen_probability(Domain(("a",)), [F(1)]))
        assert verdict.kind == "witness"
        assert verdict.witness.weights == {"a": F(1)}
        assert verdict.rescaling.graph == {F(0): F(0), F(1): F(1)}

    def test_distorted_structure_recovers_weights_and_root_map(self):
        verdict = decide(gen_distorted(Domain(("a", "b")), [F(1, 3), F(2, 3)], 2))
        assert verdict.kind == "witness"
        assert verdict.witness.weights == {"a": F(1, 3), "b": F(2, 3)}
        assert verdict.rescaling.graph[F(1, 9)] == F(1, 3)

    def test_min_fixture_is_refuted(self):
        b = load_structure(fixture_path("min_counterexample.bel"))
        verdict = decide(b, DecisionParams(seed=7))
        assert verdict.kind == "refutation"
        assert verdict.certificate.recheck(b)

    def test_numeric_fallback_finds_a_witness(self):
        verdict = decide(custom_monotone_distortion())
        assert verdict.kind == "witness"
        assert verdict.budget["phase"] == "numeric"
        check = verify_witness(
            custom_monotone_distortion(),
            [verdict.witness.weights["a"], verdict.witness.weights["b"]],
        )
        assert check.passed

    def test_budget_exhaustion_is_an_honest_unknown(self):
        verdict = decide(custom_monotone_distortion(), DecisionParams(restarts=0))
        assert verdict.kind == "unknown"
        assert verdict.witness is None and verdict.certificate is None

    def test_determinism(self):
        b = custom_monotone_distortion()
        params = DecisionParams(seed=11)
        assert decide(b, params).to_dict() == decide(b, params).to_dict()

    def test_decide_reads_extraction_ranks_only(self, monkeypatch):
        """Without an A1 or A2 conflict, `decide` builds no Fraction form and
        interns no value list: a parsed table arrives as its value index, and
        a table given as a dict is interned once, when it is built."""
        forms_built, interned = [], []
        for form in (NegationForm, CombinationForm):
            def counting(self, original=form.__post_init__):
                forms_built.append(self.kind)
                original(self)

            monkeypatch.setattr(form, "__post_init__", counting)
        original_intern = core.intern_values

        def counting_intern(xs):
            interned.append(1)
            return original_intern(xs)

        monkeypatch.setattr(core, "intern_values", counting_intern)
        parsed = load_structure(fixture_path("three_atoms.bel"))
        assert decide(parsed).kind == "witness"
        assert forms_built == []
        assert interned == []
        built = BeliefStructure.from_table(parsed.domain, parsed.as_table())
        assert decide(built).kind == "witness"
        assert forms_built == []
        assert len(interned) == 1

    @given(
        st.lists(st.integers(1, 9), min_size=2, max_size=6),
        st.integers(1, 3),
        st.sampled_from([None, (F(1, 2), F(1, 4)), (F(3), F(-2))]),
    )
    def test_mutual_exclusion(self, ints, k, relabel):
        """A witnessed structure has no refutation.  `decide` tries the
        structured candidates first, so it no longer checks this itself."""
        d = Domain(tuple(f"x{i}" for i in range(len(ints))))
        b = gen_distorted(d, [F(i, sum(ints)) for i in ints], k)
        if relabel is not None:
            b = affine_rescale(b, *relabel)
        verdict = decide(b)
        assert verdict.kind == "witness"
        assert refutation_search(b) is None

    @pytest.mark.parametrize(
        "name", ["three_atoms.bel", "distorted_k2.bel", "weights_1_3.bel"]
    )
    def test_structured_candidates_settle_without_refutation_search(
        self, name, monkeypatch
    ):
        def refuse(structure):
            raise AssertionError("refutation search ran")

        monkeypatch.setattr(isomorphism, "refutation_search", refuse)
        verdict = decide(load_structure(fixture_path(name)))
        assert verdict.kind == "witness"
        assert verdict.budget["phase"] == "structured-candidates"


class TestGaugeInvariance:
    @pytest.mark.parametrize("name", [
        "three_atoms.bel", "distorted_k2.bel", "min_counterexample.bel",
        "order_conflict.bel", "chain_conflict.bel",
    ])
    def test_affine_relabeling_preserves_verdict_kind(self, name):
        b = load_structure(fixture_path(name))
        rescaled = affine_rescale(b, F(1, 2), F(1, 4))
        before = decide(b)
        after = decide(rescaled)
        assert before.kind == after.kind
        if before.kind == "witness":
            assert before.witness.weights == after.witness.weights
