from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from coxcheck.core import BeliefStructure, Domain
from coxcheck.files import (
    ParseError,
    parse_structure,
    parse_value,
    serialize_structure,
)

from conftest import FIXTURES


class TestValues:
    def test_decimal_literals_are_exact(self):
        assert parse_value("0.25") == F(1, 4)
        assert parse_value("2/3") == F(2, 3)
        assert parse_value("1") == F(1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_value("one half")

    @pytest.mark.parametrize("text", ["1e9999999", "1E-1001", "7" * 1001])
    def test_huge_literals_rejected_before_building_them(self, text):
        with pytest.raises(ValueError, match="over 1000 digits"):
            parse_value(text)

    def test_literals_at_the_limit_are_exact(self):
        assert parse_value("1e1000") == 10 ** 1000
        assert parse_value("1/" + "3" * 998) == F(1, int("3" * 998))


class TestParse:
    def test_generator_directive(self):
        s = parse_structure("domain: a b\ngenerate probability a=1/2 b=1/2\n")
        assert s.bel_masks(0b01, 0b11) == F(1, 2)

    def test_directive_only_files_stay_weight_backed(self):
        s = parse_structure("domain: a b c\ngenerate probability a=1/6 b=1/3 c=1/2\n")
        assert s.is_weight_backed
        assert s.weights == (F(1, 6), F(1, 3), F(1, 2))

    def test_explicit_lines_override_generator(self):
        text = (
            "domain: a b\n"
            "generate probability a=1/2 b=1/2\n"
            "bel {a} | * = 1/3\n"
        )
        s = parse_structure(text)
        assert s.bel_masks(0b01, 0b11) == F(1, 3)
        assert s.bel_masks(0b10, 0b11) == F(1, 2)  # untouched generator entry

    def test_conflicting_duplicate_is_an_error(self):
        text = "domain: a b\nbel {a} | * = 1/3\nbel {a} | * = 1/2\n"
        with pytest.raises(ParseError, match="conflicting duplicate"):
            parse_structure(text)

    def test_consistent_duplicate_is_fine(self):
        text = (
            "domain: a b\n"
            "generate probability a=1/2 b=1/2\n"
            "bel {a} | * = 1/2\nbel {a} | * = 1/2\n"
        )
        assert parse_structure(text).bel_masks(0b01, 0b11) == F(1, 2)

    def test_incomplete_table_reports_missing_pair(self):
        with pytest.raises(ParseError, match="incomplete table"):
            parse_structure("domain: a b\nbel {a} | * = 1/3\n")

    def test_unknown_atom(self):
        with pytest.raises(ParseError, match="unknown atom"):
            parse_structure("domain: a b\nbel {z} | * = 1\n")

    def test_unknown_atom_in_generator(self):
        with pytest.raises(ParseError, match="line 2: unknown atom 'z'"):
            parse_structure("domain: a b\ngenerate probability a=1/2 z=1/2\n")

    def test_atom_listed_twice_in_an_event(self):
        with pytest.raises(ParseError, match="line 3: event lists an atom twice"):
            parse_structure(
                "domain: a b\ngenerate probability a=1/2 b=1/2\nbel {a a} | * = 1/2\n"
            )

    def test_explicit_table_above_the_atom_cap(self):
        atoms = " ".join(f"x{i}" for i in range(13))
        with pytest.raises(ParseError, match="explicit tables capped at 12 atoms"):
            parse_structure(f"domain: {atoms}\nbel {{x0}} | * = 1/2\n")

    def test_huge_literal_in_a_complete_file(self):
        text = serialize_structure(
            BeliefStructure.from_weights(Domain(("a", "b")), [F(1, 2), F(1, 2)])
        ) + "bel {a} | * = 1e9999999\n"
        with pytest.raises(ParseError, match="line 11: rational literal"):
            parse_structure(text)

    def test_empty_conditioning_event(self):
        with pytest.raises(ParseError, match="nonempty"):
            parse_structure("domain: a b\nbel {a} | {} = 1\n")

    def test_star_means_whole_domain_and_comments_ignored(self):
        text = (
            "# a comment\n"
            "domain: a b  # trailing comment\n"
            "generate probability a=1/4 b=3/4\n"
            "bel {a b} | * = 1  # harmless duplicate of the forced entry\n"
        )
        s = parse_structure(text)
        assert s.bel_masks(0b11, 0b11) == 1

    def test_bounds_line(self):
        text = FIXTURES.joinpath("interval_bounds.bel").read_text()
        s = parse_structure(text)
        assert s.bounds == (F(1), F(2))

    def test_domain_must_come_first(self):
        with pytest.raises(ParseError, match="domain line"):
            parse_structure("bel {a} | * = 1\ndomain: a\n")

    def test_generator_weights_must_normalize(self):
        with pytest.raises(ParseError, match="sum to 1"):
            parse_structure("domain: a b\ngenerate probability a=1/2 b=1/3\n")

    def test_non_canonical_entries_canonicalize(self):
        text = (
            "domain: a b\n"
            "generate probability a=1/2 b=1/2\n"
            "bel {a b} | {a} = 1\n"  # stored as ({a}|{a})
        )
        assert parse_structure(text).bel_masks(0b01, 0b01) == 1


class TestRoundTrip:
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
        st.integers(1, 2),
    )
    def test_parse_serialize_parse_identity(self, ints, exponent):
        total = sum(ints)
        d = Domain(tuple(f"x{i}" for i in range(len(ints))))
        b = BeliefStructure.from_weights(
            d, [F(i, total) for i in ints], exponent=exponent
        )
        text = serialize_structure(b)
        again = parse_structure(text)
        assert again == b
        assert serialize_structure(again) == text

    def test_corpus_files_round_trip(self):
        for path in sorted(FIXTURES.glob("*.bel")):
            if path.name.startswith("bad_parse"):
                continue
            text = path.read_text(encoding="utf-8")
            s = parse_structure(text)
            assert parse_structure(serialize_structure(s)) == s

    def test_large_weight_backed_serializes_as_directive(self):
        n = 64
        d = Domain(tuple(f"x{i:02d}" for i in range(n)))
        b = BeliefStructure.from_weights(d, [F(1, n)] * n)
        text = serialize_structure(b)
        assert "generate probability" in text
        assert parse_structure(text) == b
