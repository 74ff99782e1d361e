import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from coxcheck.core import BeliefStructure, Domain
from coxcheck.files import load_structure
from coxcheck.forms import (
    CombinationConflict,
    NegationConflict,
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

from conftest import FIXTURES, fixture_path


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
    engine = _RatioEngine.from_forms(structure, negation, combination)
    sums, products, positive, below_one = reference_engine_inputs(structure)
    # the engine keys facts by value rank; engine.values maps ranks back
    value = engine.values
    assert [(value[x], value[y], w) for x, y, w in engine.sums] == sums
    assert [
        (value[out], value[l], value[r], w) for out, l, r, w in engine.products
    ] == products
    assert {value[x] for x in engine.positive} == positive
    assert {value[x] for x in engine.below_one} == below_one
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


def custom_monotone_distortion():
    """A probability structure pushed through v ↦ v/(2−v): neither affine
    nor a power law, so the structured candidates all miss."""
    base = gen_probability(Domain(("a", "b")), [F(1, 3), F(2, 3)])
    return base.map_values(lambda v: v / (2 - v), bounds=(F(0), F(1)))


class TestDecide:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_recovery_of_generating_weights(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            ws = random_weights(rng, n)
            d = Domain(tuple(f"x{i}" for i in range(n)))
            verdict = decide(gen_probability(d, ws))
            assert verdict.kind == "witness"
            assert verdict.witness.exact
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

    @given(weight_vectors())
    def test_mutual_exclusion(self, ws):
        d = Domain(tuple(f"x{i}" for i in range(len(ws))))
        b = gen_probability(d, ws)
        verdict = decide(b)
        assert verdict.kind == "witness"
        assert refutation_search(b) is None


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
