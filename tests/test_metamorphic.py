"""Metamorphic checks: a report must not depend on how an input is written.

A family member written as its `generate` directive and the same member
written as the table `serialize_structure` gives it are one structure, so a
theorem-4 audit of the family prints and reports the same either way.  So
does a weight file against its table under every single-structure command.
Relabelling every value by an increasing affine map, bounds included, keeps
every hypothesis status.  A refutation certificate, which holds masks only,
rechecks on a strictly increasing relabelling of its structure, and with
its masks moved on the structure with its atoms reversed.
"""

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from coxcheck.cli import main
from coxcheck.conditions import audit, bel_level_negation, chain_consistency, check_bounds
from coxcheck.core import BeliefStructure, Domain
from coxcheck.files import load_structure, parse_structure, serialize_structure
from coxcheck.generators import affine_rescale, gen_distorted, gen_probability
from coxcheck.isomorphism import refutation_search

from conftest import FIXTURES, merges, refuted_fixtures


def audit_family(family, options, report, capsys):
    """(exit code, stdout, JSON report without `command` and `timings`)."""
    code = main(["audit", "--theorem", "4", "--family", str(family), *options,
                 "--json", str(report)])
    payload = json.loads(report.read_text(encoding="utf-8"))
    for name in ("command", "timings"):
        payload.pop(name)
    return code, capsys.readouterr().out, payload


@pytest.mark.parametrize("options", [["--grid", "3", "--epsilon", "1/4"],
                                     ["--grid", "5", "--epsilon", "1/20"]])
def test_a_member_as_its_table_reports_as_its_directive(tmp_path, capsys, options):
    directive, table = tmp_path / "directive", tmp_path / "table"
    assert main(["generate", "family", "--max-coins", "3", "--out-dir", str(directive)]) == 0
    table.mkdir()
    for path in directive.glob("*.bel"):
        (table / path.name).write_bytes(path.read_bytes())
    member = table / "coins_02.bel"
    member.write_text(serialize_structure(load_structure(member)), encoding="utf-8")
    assert "generate" not in member.read_text(encoding="utf-8")
    capsys.readouterr()
    runs = [audit_family(family, options, tmp_path / f"{family.name}.json", capsys)
            for family in (directive, table)]
    assert runs[0] == runs[1]


def weight_file(atoms, bounds):
    """A seeded `generate probability` file of `atoms` atoms on `bounds`,
    or with no bounds line where `bounds` is None."""
    rng = random.Random(f"{atoms} {bounds}")
    raw = [rng.randint(1, 9) for _ in range(atoms)]
    names = [f"x{i}" for i in range(atoms)]
    return (f"domain: {' '.join(names)}\n" + (f"bounds: {bounds}\n" if bounds else "")
            + "generate probability "
            + " ".join(f"{a}={F(r, sum(raw))}" for a, r in zip(names, raw)) + "\n")


@pytest.mark.parametrize("bounds", [None, "0 1", "0 2", "-1 1", "1/4 3/4"])
@pytest.mark.parametrize("atoms", range(1, 7))
def test_a_weight_file_reports_as_its_table(tmp_path, capsys, atoms, bounds):
    text = weight_file(atoms, bounds)
    weights, table = tmp_path / "weights.bel", tmp_path / "table.bel"
    weights.write_text(text, encoding="utf-8")
    table.write_text(serialize_structure(parse_structure(text)), encoding="utf-8")
    for command in (["check"], ["audit", "--theorem", "1"], ["audit", "--theorem", "2"],
                    ["decide"]):
        runs = []
        for path in (weights, table):
            report = tmp_path / f"{path.stem}.json"
            code = main([command[0], str(path), *command[1:], "--json", str(report)])
            payload = json.loads(report.read_text(encoding="utf-8"))
            for name in ("command", "timings", "file"):
                payload.pop(name)
            runs.append((code, capsys.readouterr().out, payload))
        assert runs[0] == runs[1], command


def statuses(structure):
    """Every status of `check_bounds`, `chain_consistency`,
    `bel_level_negation` and a theorem-1 audit."""
    bounds = check_bounds(structure)
    return (bounds.par1.status, bounds.par2.status, chain_consistency(structure).status,
            bel_level_negation(structure).status,
            tuple((h.name, h.status) for h in audit(structure, "1").hypotheses))


def rescale_inputs():
    """The fixtures, and seeded probabilities and k = 2 distortions of 2-4
    atoms."""
    structures = [load_structure(path) for path in sorted(FIXTURES.glob("*.bel"))
                  if not path.name.startswith("bad_parse")]
    rng = random.Random(2)
    for atoms in (2, 3, 4):
        domain = Domain(tuple(f"x{i}" for i in range(atoms)))
        raw = [rng.randint(1, 9) for _ in range(atoms)]
        weights = [F(r, sum(raw)) for r in raw]
        structures += [gen_probability(domain, weights), gen_distorted(domain, weights, 2)]
    return structures


@pytest.mark.parametrize("scale, offset", [(2, 0), (F(1, 2), F(1, 4)), (3, -1)])
def test_an_affine_relabelling_keeps_every_status(scale, offset):
    for structure in rescale_inputs():
        assert statuses(affine_rescale(structure, scale, offset)) == statuses(structure)


def squared(structure):
    """v ↦ e + (v − e)²/(E − e): strictly increasing on [e, E], which it keeps."""
    e, big_e = structure.bounds
    return structure.map_values(lambda v: e + (v - e) ** 2 / (big_e - e),
                                bounds=structure.bounds)


def atoms_reversed(structure):
    """The copy with atom i moved to place n − 1 − i, and its map of masks."""
    n = structure.domain.size

    def moved(mask):
        return int(f"{mask:0{n}b}"[::-1], 2)

    table = {(moved(v), moved(u)): x for v, u, x in structure.items()}
    return BeliefStructure.from_table(structure.domain, table, structure.bounds), moved


def merge_certificates():
    """The certificates of the 3- and 4-atom merges that `refutation_search`
    refutes, with their structures."""
    for n, seeds in ((3, 40), (4, 12)):
        for seed in range(seeds):
            for _, _, structure in merges(n, seed):
                certificate = refutation_search(structure)
                if certificate is not None:
                    yield structure, certificate


def assert_maps_through_the_transforms(structure, certificate):
    assert certificate.recheck(structure)
    for copy in (squared(structure), affine_rescale(structure, 2, 1)):
        assert certificate.recheck(copy), certificate.kind
    copy, moved = atoms_reversed(structure)
    instances = tuple(tuple(moved(m) for m in masks) for masks in certificate.instances)
    assert replace(certificate, instances=instances).recheck(copy), certificate.kind


@pytest.mark.parametrize("name", [name for name, _, _ in refuted_fixtures()])
def test_a_fixture_certificate_maps_through_the_transforms(name):
    """A certificate holds masks only, so it rechecks on every strictly
    increasing relabelling of its structure, and with its masks permuted on
    every atom permutation of it."""
    _, structure, certificate = next(r for r in refuted_fixtures() if r[0] == name)
    assert_maps_through_the_transforms(structure, certificate)


def test_a_merge_certificate_maps_through_the_transforms():
    kinds = Counter()
    for structure, certificate in merge_certificates():
        assert_maps_through_the_transforms(structure, certificate)
        kinds[certificate.kind] += 1
    # 356 order conflicts, 54 A1, 25 A2 and 2 chain conflicts
    assert set(kinds) == {"A1-conflict", "A2-conflict", "chain-associativity",
                          "order-conflict"}
