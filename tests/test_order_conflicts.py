"""Every contradiction of the ratio engine that `decide` can reach, reached
by a fixture, and its certificate forged two ways.

`MESSAGES` holds the fixtures of README's table of order-conflict messages.
`scripts/make_fixtures.py` writes them, and `tests/golden_verdicts.json`
pins their verdicts too.
"""

import pytest

from coxcheck.cli import main
from coxcheck.files import load_structure
from coxcheck.forms import combination_ranks, instance, negation_ranks
from coxcheck.isomorphism import (
    RefutationCertificate,
    _Contradiction,
    _fixpoint,
    _RatioEngine,
    refutation_search,
    rescaling_from_witness,
    verify_witness,
)

from conftest import FIXTURES, complement_table, merged_probability, merges

#: fixture -> the start of its order-conflict message
MESSAGES = {
    "order_conflict.bel": "cancelling the positive shared factor r(2/3)",
    "order_forced_both.bel": "r(1/3) forced to both 1/3 and 50/147 (product)",
    "order_value_order.bel": "value order broken: 7/13 < 5/9",
    "order_sum_not_one.bel": "r(3/7) + r(9/16) = 111/112 ≠ 1",
    "order_product_exceeds.bel": "product exceeds a factor: r(1/3) = r(1/4)·r(3/4)",
    "order_outside_bounds.bel": "attained value 0 lies outside the bounds [1/4,3/4]",
    "order_forced_zero.bel": "r(0) forced to 0 but 0 is attained at a nonempty intersection",
    "order_forced_one.bel": "r(3/4) forced to 1 but 3/4 is attained at a proper subevent",
    "order_complement_order.bel": "complement order broken: 1/2 < 4/7 but complements 1/2 ≤ 4/7",
}

#: the fixtures whose conflict is a seed, which recheck reads off the structure
SEEDED = {"order_outside_bounds.bel", "order_forced_zero.bel", "order_forced_one.bel"}

NEW_FIXTURES = sorted(set(MESSAGES) - {"order_conflict.bel"})


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_decide_refutes_each_fixture_with_its_message(name, capsys):
    assert main(["decide", str(FIXTURES / name)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["verdict: refutation", "certificate: order-conflict"]
    assert lines[2].strip().startswith(MESSAGES[name])
    structure = load_structure(FIXTURES / name)
    assert refutation_search(structure).recheck(structure)


@pytest.mark.parametrize("name, build", [
    ("order_forced_both.bel", lambda: merged_probability(5, 1, "2/7", "3/10")),
    ("order_value_order.bel", lambda: merged_probability(5, 1, "5/13", "2/5")),
    ("order_sum_not_one.bel", lambda: merged_probability(4, 90, "3/7", "7/16")),
    ("order_product_exceeds.bel",
     lambda: complement_table(("1/3", "1/4", "1/4"), ("1/4", "1/4", "1/2"))),
])
def test_fixtures_are_the_recipes(name, build):
    assert load_structure(FIXTURES / name) == build()


def forged(certificate, instances) -> RefutationCertificate:
    return RefutationCertificate("order-conflict", tuple(instances), certificate.description)


class TestForgedCertificates:
    @pytest.mark.parametrize("name", NEW_FIXTURES)
    def test_an_instance_moved_to_a_non_canonical_mask(self, name):
        structure = load_structure(FIXTURES / name)
        certificate = refutation_search(structure)
        for at, masks in enumerate(certificate.instances):
            moved = list(certificate.instances)
            moved[at] = (masks[0], 0, *masks[2:])  # an empty second event
            assert not forged(certificate, moved).recheck(structure)

    @pytest.mark.parametrize("name", NEW_FIXTURES)
    def test_the_instance_of_the_raising_rule_dropped(self, name):
        """The raising rule is the contradiction's own, or for a broken
        value order the rule that pinned the later value.  The seeds (a
        value outside the bounds, a nonempty event of belief e, an event
        U whose belief in itself is below E) are read off the structure
        itself, so their certificates stay valid without their one
        instance."""
        structure = load_structure(FIXTURES / name)
        certificate = refutation_search(structure)
        engine = _fixpoint(structure)
        clash = engine.contradiction
        rules = clash.rules or (engine._basis[clash.premises[-1]][0],)
        ranked = {"sum": negation_ranks(structure), "product": combination_ranks(structure)}
        raising = {ranked[kind].masks(w)[0] for kind, w in rules}
        assert raising <= set(certificate.instances)
        kept = [i for i in certificate.instances if i not in raising]
        assert forged(certificate, kept).recheck(structure) is (name in SEEDED)

    def test_an_a1_certificate_whose_second_pair_holds_another_value(self):
        structure = load_structure(FIXTURES / "a1_conflict.bel")
        certificate = refutation_search(structure)
        assert certificate.kind == "A1-conflict" and certificate.recheck(structure)
        # ({b}|{a b}) holds 3/5, not the shared value 1/2
        other = RefutationCertificate("A1-conflict", (certificate.instances[0], (0b010, 0b011)),
                                      certificate.description)
        args = instance(structure, certificate.instances[0])[0]
        assert (structure.bel_masks(0b010, 0b011),) != args
        assert not other.recheck(structure)

    def test_an_unknown_kind(self):
        structure = load_structure(FIXTURES / "order_conflict.bel")
        certificate = refutation_search(structure)
        other = RefutationCertificate("sum-conflict", certificate.instances, certificate.description)
        assert not other.recheck(structure)


def test_a_product_equal_to_a_positive_factor_is_refuted_before_the_static_pass():
    """Over the 3- and 4-atom merges, wherever the engine reaches its static
    pass, no product F(l, r) = l has a positive factor l and r below one:
    the unit product F(l, E) = l shares its (out, l), and the cancelling
    rule refutes the pair first.  So the static pass has no rule for it."""
    reached = 0
    for n, seeds in ((3, 40), (4, 12)):
        for seed in range(seeds):
            for _, _, structure in merges(n, seed):
                if (negation_ranks(structure).clash is not None
                        or combination_ranks(structure).clash is not None):
                    continue
                engine = _RatioEngine.from_extraction(structure)
                try:
                    engine._seed()
                    engine._check_sum_order()
                    engine._check_product_groups()
                except _Contradiction:
                    continue
                reached += 1
                out, left, right, _ = engine.products.T
                for factor, other in ((left, right), (right, left)):
                    assert not ((out == factor) & engine.positive[factor]
                                & engine.below_one[other]).any()
    assert reached > 300  # 362 of the 799 merges


class TestValuesOutsideTheBounds:
    """A probability whose attained values 0 and 1 lie outside its bounds
    is refuted, however many atoms it has: the weights are no witness,
    since condition (iii) reads the unattained e and E too."""

    @pytest.mark.parametrize("weights", ["a=1", "a=1/3 b=2/3", "a=1/6 b=1/3 c=1/2"])
    def test_decide_and_audit_refute_it(self, weights, tmp_path, capsys):
        atoms = " ".join(w.split("=")[0] for w in weights.split())
        path = tmp_path / "outside.bel"
        path.write_text(f"domain: {atoms}\nbounds: 1/4 3/4\ngenerate probability {weights}\n")
        assert main(["decide", str(path)]) == 1
        out = capsys.readouterr().out
        assert "certificate: order-conflict" in out
        assert "attained value 0 lies outside the bounds [1/4,3/4]" in out
        assert main(["audit", str(path), "--theorem", "2"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "PASS       verdict-refutation  refuted: order-conflict" in out
        # 1/4 is attained on three atoms, and g(1/4) ≠ 0 fails first there
        structure = load_structure(path)
        check = verify_witness(structure, structure.weights)
        assert not check.passed and check.failing.startswith("endpoint: ")
        with pytest.raises(ValueError, match="are not a witness: endpoint: "):
            rescaling_from_witness(structure, structure.weights)
