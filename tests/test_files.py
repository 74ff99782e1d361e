import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coxcheck import core, files
from coxcheck.core import BeliefDomainError, BeliefStructure, Domain, Event
from coxcheck.files import (
    ParseError,
    parse_structure,
    parse_value,
    serialize_structure,
)
from coxcheck.generators import affine_rescale, gen_distorted, gen_probability

from conftest import FIXTURES

TABLE_ATOM_LIMIT = core.LIMITS["table"].atoms
EXPANSION_ATOM_LIMIT = core.LIMITS["expansion"].atoms
TABLE_CAP = f"explicit tables capped at {TABLE_ATOM_LIMIT} atoms"
EXPANSION_CAP = ("generator expansion with explicit overrides is capped at "
                 f"{EXPANSION_ATOM_LIMIT} atoms")


# -- oracle: the per-line parse loop the bulk pass replaced ----------------------


def oracle_value(text):
    """`parse_value` without its shortcut for digit literals."""
    too_long = len(text) > files.LITERAL_DIGIT_LIMIT and (
        sum(ch.isdigit() for ch in text) > files.LITERAL_DIGIT_LIMIT
    )
    exponent = files._EXPONENT.search(text)
    if too_long or (exponent and int(exponent.group(1)) > files.LITERAL_DIGIT_LIMIT):
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ValueError(
            f"rational literal has over {files.LITERAL_DIGIT_LIMIT} digits or an "
            f"exponent over {files.LITERAL_DIGIT_LIMIT}: {shown!r}"
        )
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}") from None


def oracle_event(token, bits, line_no):
    """`_parse_event` with a step per atom name."""
    token = token.strip()
    if token == "*":
        return (1 << len(bits)) - 1
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"event must be '*' or brace-enclosed: {token!r}", line_no)
    names = token[1:-1].split()
    if len(set(names)) != len(names):
        raise ParseError(f"event lists an atom twice: {token!r}", line_no)
    mask = 0
    for name in names:
        if name not in bits:
            raise ParseError(f"unknown atom {name!r}", line_no)
        mask |= bits[name]
    return mask


def oracle_parse_structure(text):
    """One step per line, in order: the first bad line raises.  The first
    `bel` line is bad in a domain over the limit of its table: an expanded
    one if a generator directive came before it, else an explicit one."""
    domain = bounds = generator = None
    literals, code_of, events = {}, {}, {}  # code_of: value -> code, in code order
    code_at, line_at = {}, {}  # u << n | v -> value code, and the line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("bel ") and domain is not None:
            if not code_at:  # the first `bel` line
                if generator is not None and n > EXPANSION_ATOM_LIMIT:
                    raise ParseError(EXPANSION_CAP)
                if n > TABLE_ATOM_LIMIT:
                    raise ParseError(TABLE_CAP)
            events_part, eq, value_part = line[len("bel "):].rpartition("=")
            v_part, bar, u_part = events_part.partition("|")
            if not (eq and bar):
                raise ParseError("bel line must look like 'bel V | U = value'", line_no)
            for part in (v_part, u_part):
                if part not in events:
                    events[part] = oracle_event(part, bits, line_no)
            v, u = events[v_part], events[u_part]
            if u == 0:
                raise ParseError("conditioning event U must be nonempty", line_no)
            code = literals.get(value_part)
            if code is None:
                try:
                    value = oracle_value(value_part.strip())
                except ValueError as exc:
                    raise ParseError(str(exc), line_no) from None
                code = literals[value_part] = code_of.setdefault(value, len(code_of))
            key = u << n | v & u
            old = code_at.get(key, code)
            if old != code:
                values = list(code_of)
                raise ParseError(
                    f"conflicting duplicate for Bel({Event(domain, v)!r} | "
                    f"{Event(domain, u)!r}): "
                    f"{values[old]} (line {line_at[key]}) vs {values[code]}",
                    line_no,
                )
            code_at[key] = code
            line_at[key] = line_no
            continue
        if line.startswith("domain:"):
            if domain is not None:
                raise ParseError("duplicate domain line", line_no)
            atoms = line[len("domain:"):].split()
            if not atoms:
                raise ParseError("domain line lists no atoms", line_no)
            try:
                domain = Domain(tuple(atoms))
            except BeliefDomainError as exc:
                raise ParseError(str(exc), line_no) from None
            for atom in atoms:  # split() leaves no whitespace in a name
                if set(atom) & set("|=#"):
                    raise ParseError(f"atom name {atom!r} holds whitespace or one of | = #, "
                                     "which structure files reserve", line_no)
            bits = {a: 1 << i for i, a in enumerate(domain.atoms)}
            n = domain.size
            continue
        if domain is None:
            raise ParseError("domain line must come first", line_no)
        if line.startswith("bounds:"):
            if bounds is not None:
                raise ParseError("duplicate bounds line", line_no)
            parts = line[len("bounds:"):].split()
            if len(parts) != 2:
                raise ParseError("bounds line needs two values", line_no)
            try:
                e, big_e = oracle_value(parts[0]), oracle_value(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
            if e >= big_e:
                raise ParseError("bounds must satisfy e < E", line_no)
            bounds = (e, big_e)
            continue
        if line.startswith("generate "):
            parts = line.split()
            if len(parts) < 3 or parts[1] != "probability":
                raise ParseError(
                    "only 'generate probability atom=weight ...' is supported", line_no
                )
            if generator is not None:
                raise ParseError("duplicate generator directive", line_no)
            weights = {}
            for spec in parts[2:]:
                if "=" not in spec:
                    raise ParseError(f"bad weight token {spec!r}", line_no)
                name, w_text = spec.split("=", 1)
                if name in weights:
                    raise ParseError(f"duplicate weight for atom {name!r}", line_no)
                try:
                    domain.index(name)
                    weights[name] = oracle_value(w_text)
                except ValueError as exc:
                    raise ParseError(str(exc), line_no) from None
            generator = (weights, line_no)
            continue
        raise ParseError(f"unrecognized line: {raw.strip()!r}", line_no)

    if domain is None:
        raise ParseError("file contains no domain line")
    bounds = bounds or (F(0), F(1))
    weight_list = None
    if generator is not None:
        weights, gen_line = generator
        missing = [a for a in domain.atoms if a not in weights]
        if missing:
            raise ParseError(f"generator missing weights for {missing}", gen_line)
        weight_list = [weights[a] for a in domain.atoms]
        if any(w <= 0 for w in weight_list):
            raise ParseError("generator weights must be strictly positive", gen_line)
        if sum(weight_list) != 1:
            raise ParseError("generator weights must sum to 1", gen_line)
    if weight_list is not None and not code_at:
        return BeliefStructure.from_weights(domain, weight_list, bounds=bounds)
    if weight_list is not None and n > EXPANSION_ATOM_LIMIT:
        raise ParseError(EXPANSION_CAP)
    values = list(code_of)
    table = {(k & domain.full_mask, k >> n): values[c] for k, c in code_at.items()}
    if weight_list is not None:
        table = BeliefStructure.from_weights(domain, weight_list).as_table() | table
    elif n > TABLE_ATOM_LIMIT:
        raise ParseError(TABLE_CAP)
    else:
        missing = [vu for vu in canonical_pairs(n) if vu not in table]
        if missing:
            v, u = missing[0]
            raise ParseError(
                f"incomplete table: {len(missing)} missing pairs, "
                f"first Bel({Event(domain, v)!r} | {Event(domain, u)!r})"
            )
    return BeliefStructure.from_table(domain, table, bounds=bounds)


def outcome(parse, text):
    """What `parse(text)` gives: the structure's domain, bounds, backing and
    table, or the message of its `ParseError`."""
    try:
        b = parse(text)
    except ParseError as exc:
        return str(exc)
    if b.is_weight_backed:
        return b.domain, b.bounds, b.weights
    return b.domain, b.bounds, b.as_table()


def assert_parsed_as_by_the_loop(text):
    assert outcome(parse_structure, text) == outcome(oracle_parse_structure, text)


TWO_MISSING_FIRST_B_GIVEN_B = (
    r"^incomplete table: 2 missing pairs, first Bel\(\{b\} \| \{b\}\)$"
)


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

    @given(st.lists(st.sampled_from("0123456789/٣ ."), max_size=8).map("".join))
    def test_digit_literals_read_as_fraction_reads_them(self, text):
        def read(parse):
            try:
                return parse(text)
            except ValueError as exc:
                return str(exc)

        assert read(parse_value) == read(oracle_value)

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

    @pytest.mark.parametrize("n", [13, 70])
    def test_explicit_table_above_the_atom_cap(self, n):
        atoms = " ".join(f"x{i}" for i in range(n))
        with pytest.raises(ParseError, match="explicit tables capped at 12 atoms"):
            parse_structure(f"domain: {atoms}\nbel {{x{n - 1}}} | * = 1/2\n")

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

    def test_duplicate_bounds_line_is_an_error(self):
        text = "domain: a\nbounds: 0 1\nbounds: 0 2\nbel {} | * = 0\nbel {a} | * = 2\n"
        with pytest.raises(ParseError, match="^line 3: duplicate bounds line"):
            parse_structure(text)

    def test_domain_must_come_first(self):
        with pytest.raises(ParseError, match="domain line"):
            parse_structure("bel {a} | * = 1\ndomain: a\n")

    def test_generator_weights_must_normalize(self):
        with pytest.raises(ParseError, match="sum to 1"):
            parse_structure("domain: a b\ngenerate probability a=1/2 b=1/3\n")

    def test_bar_after_the_value_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 2: bel line must look like"):
            parse_structure("domain: a\nbel {a} = 1 | {a}\n")

    def test_parsing_builds_no_event_per_line(self, monkeypatch):
        built = []
        original = core.Event.__post_init__

        def counting(self):
            built.append(self.mask)
            original(self)

        monkeypatch.setattr(core.Event, "__post_init__", counting)
        parse_structure(FIXTURES.joinpath("three_atoms.bel").read_text())
        assert built == []

    def test_parsing_a_table_hashes_no_fraction(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Fraction was hashed")

        text = FIXTURES.joinpath("three_atoms.bel").read_text() + "bel {a} | {a b} = 2/6\n"
        monkeypatch.setattr(F, "__hash__", refuse)
        assert parse_structure(text).bel_masks(0b001, 0b011) == F(1, 3)

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        literals, events = [], []
        original_value, original_event = files.parse_value, files._parse_event

        def counting_value(text):
            literals.append(text)
            return original_value(text)

        def counting_event(token, bits, line_no):
            events.append(token)
            return original_event(token, bits, line_no)

        monkeypatch.setattr(files, "parse_value", counting_value)
        monkeypatch.setattr(files, "_parse_event", counting_event)
        lines = FIXTURES.joinpath("three_atoms.bel").read_text().splitlines()
        bel_lines = [line for line in lines if line.startswith("bel ")]
        parse_structure("\n".join(["domain: a b c"] + bel_lines))
        assert len(literals) == len(set(literals)) < len(bel_lines)
        assert len(events) == len(set(events)) < 2 * len(bel_lines)

    def test_non_canonical_entries_canonicalize(self):
        text = (
            "domain: a b\n"
            "generate probability a=1/2 b=1/2\n"
            "bel {a b} | {a} = 1\n"  # stored as ({a}|{a})
        )
        assert parse_structure(text).bel_masks(0b01, 0b01) == 1


class TestRepeatedTokens:
    """Each distinct value literal and event token is parsed once; errors
    and duplicate checks still see every line."""

    def test_bad_literal_repeated_reports_its_first_line(self):
        text = "domain: a b\nbel {a} | * = x/2\nbel {b} | * = x/2\n"
        with pytest.raises(ParseError, match="^line 2: not a rational literal"):
            parse_structure(text)

    def test_unknown_atom_repeated_reports_its_first_line(self):
        text = "domain: a b\nbel {a} | * = 1/2\nbel {z} | * = 1\nbel {z} | * = 1\n"
        with pytest.raises(ParseError, match="^line 3: unknown atom 'z'"):
            parse_structure(text)

    def test_one_value_in_three_spellings_is_no_conflict(self):
        text = (
            "domain: a b\n"
            "generate probability a=1/2 b=1/2\n"
            "bel {a} | * = 1/2\nbel {a} | * = 2/4\nbel {a} | * = 0.5\n"
        )
        assert parse_structure(text).bel_masks(0b01, 0b11) == F(1, 2)

    def test_conflicting_duplicate_names_both_lines(self):
        text = (
            "domain: a b\n"
            "bel {a} | * = 1/3\nbel {b} | * = 1/3\nbel {a} | * = 1/2\n"
        )
        with pytest.raises(
            ParseError, match=r"^line 4: conflicting duplicate .*1/3 \(line 2\) vs 1/2"
        ):
            parse_structure(text)

    def test_conflict_after_a_same_valued_duplicate_names_the_latest_line(self):
        text = (
            "domain: a b\n"
            "bel {a} | * = 1/3\nbel {a} | * = 2/6\nbel {a} | * = 1/2\n"
        )
        with pytest.raises(
            ParseError, match=r"^line 4: conflicting duplicate .*1/3 \(line 3\) vs 1/2"
        ):
            parse_structure(text)

    def test_a_conflict_beats_a_later_bad_literal(self):
        text = (
            "domain: a b\n"
            "bel {a} | * = 1/3\nbel {b} | * = 2/3\nbel {} | * = 0\n"
            "bel {a} | * = 1/2\n"  # line 5
            "bel {} | {a} = 0\nbel {a} | {a} = 1\nbel {} | {b} = 0\n"
            "bel {b} | {b} = x/2\n"  # line 9
        )
        with pytest.raises(ParseError, match="^line 5: conflicting duplicate"):
            parse_structure(text)

    def test_incomplete_table_names_the_first_missing_canonical_pair(self):
        text = (
            "domain: a b\n"
            "bel {a b} | * = 1\nbel {} | * = 0\nbel {b} | * = 1/2\n"
            "bel {} | {a} = 0\nbel {a} | {a} = 1\nbel {} | {b} = 0\n"
        )
        # missing: ({b} | {b}), then ({a} | {a b}) in canonical order
        with pytest.raises(ParseError, match=TWO_MISSING_FIRST_B_GIVEN_B):
            parse_structure(text)


# -- the value index a parse builds, against the dict walk it replaced ----------


def canonical_pairs(n):
    for u in range(1, 1 << n):
        for v in range(u + 1):
            if v & ~u == 0:
                yield v, u


def oracle_intern(xs):
    """`sorted()` of the distinct values, and the position of each x there."""
    values = sorted(set(xs))
    rank = {x: r for r, x in enumerate(values)}
    return values, [rank[x] for x in xs]


def oracle_value_index(n, table, bounds):
    """The sorted values, e, E and canonical-order ranks of a dict table,
    interned in one walk over the canonical pairs."""
    entries = [table[v, u] for v, u in canonical_pairs(n)]
    values, ranks = oracle_intern(entries + list(bounds))
    return tuple(values), ranks[-2], ranks[-1], ranks[:-2]


QUARTERS = [F(k, 4) for k in range(-2, 11)]


def spellings(x):
    """Three spellings of x: lowest terms, doubled terms, a decimal."""
    return [str(x), f"{2 * x.numerator}/{2 * x.denominator}", str(float(x))]


@st.composite
def spelled_tables(draw):
    """A table on 1-6 atoms with values in quarters, and a file for it whose
    `bel` lines are shuffled, some repeated, in one of three spellings."""
    n = draw(st.integers(1, 6))
    bounds = draw(st.sampled_from([(F(0), F(1)), (F(-1, 2), F(5, 2)), (F(1), F(2))]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    table = {vu: rng.choice(QUARTERS) for vu in canonical_pairs(n)}
    atoms = [f"x{i}" for i in range(n)]

    def event(mask):
        return "{%s}" % " ".join(a for i, a in enumerate(atoms) if mask >> i & 1)

    lines = [
        f"bel {event(v)} | {event(u)} = {rng.choice(spellings(x))}"
        for (v, u), x in table.items()
        for _ in range(1 + (rng.random() < 0.2))
    ]
    rng.shuffle(lines)
    head = [f"domain: {' '.join(atoms)}", f"bounds: {bounds[0]} {bounds[1]}"]
    return n, table, bounds, "\n".join(head + lines) + "\n"


class TestParsedIndex:
    @settings(max_examples=40, deadline=None)
    @given(spelled_tables())
    def test_parsed_index_matches_the_dict_walk(self, case):
        n, table, bounds, text = case
        values, e, big_e, ranks = oracle_value_index(n, table, bounds)
        for b in (parse_structure(text),
                  BeliefStructure.from_table(Domain(tuple(f"x{i}" for i in range(n))),
                                             table, bounds=bounds)):
            index = b.value_index()
            assert (index.values, index.e, index.E) == (values, e, big_e)
            assert index.pair_rank.tolist() == ranks
            assert b.as_table() == table
            assert all(b.bel_masks(v, u) == x for (v, u), x in table.items())


class TestFromTableChecks:
    """`from_table` checks the atom cap, then completeness, then the first
    key in the dict's order that is not canonical or has a non-Fraction
    value."""

    def full(self, n=2):
        return {vu: F(1, 2) for vu in canonical_pairs(n)}

    def test_incomplete_names_the_first_missing_pair(self):
        table = self.full()
        del table[0b10, 0b10], table[0b01, 0b11]
        with pytest.raises(BeliefDomainError, match=TWO_MISSING_FIRST_B_GIVEN_B):
            BeliefStructure.from_table(Domain(("a", "b")), table)

    def test_incompleteness_is_reported_before_a_bad_key(self):
        table = {(0b10, 0b01): F(0)} | self.full()
        del table[0, 1]
        with pytest.raises(BeliefDomainError, match="^incomplete table: 1 missing"):
            BeliefStructure.from_table(Domain(("a", "b")), table)

    @pytest.mark.parametrize("key, value, message", [
        ((0b10, 0b01), F(0), r"^non-canonical table key \(\{b\} \| \{a\}\)$"),
        ((0, 0), F(0), "^table conditions on the empty event$"),
        ((0b01, 0b11), 0.5, "^table values must be Fractions$"),
    ])
    def test_first_bad_key_in_dict_order(self, key, value, message):
        table = {key: value} | self.full()
        table[key] = value
        table[0b10, 0b01 | 0b10] = 0.25  # a later bad value is not reported
        with pytest.raises(ValueError, match=message):
            BeliefStructure.from_table(Domain(("a", "b")), table)

    @pytest.mark.parametrize("key", [(0b100, 0b100), (0b001, 0b101), (0b100, 0b001),
                                     (-1, 0b11), (0b01, -1)])
    def test_a_key_outside_the_domain_is_refused(self, key):
        table = self.full() | {key: F(7)}
        with pytest.raises(BeliefDomainError, match=r"^table key \(v=-?\d+, u=-?\d+\) "
                                                    r"outside the domain$"):
            BeliefStructure.from_table(Domain(("a", "b")), table)

    def test_a_key_outside_the_domain_is_reported_after_completeness(self):
        table = self.full() | {(0b100, 0b100): F(7)}
        del table[0, 1]
        with pytest.raises(BeliefDomainError, match="^incomplete table: 1 missing"):
            BeliefStructure.from_table(Domain(("a", "b")), table)

    @pytest.mark.parametrize("n", [13, 70])
    def test_above_the_atom_cap(self, n):
        top = 1 << (n - 1)
        with pytest.raises(BeliefDomainError, match="explicit tables capped at 12 atoms"):
            BeliefStructure.from_table(Domain(tuple(f"x{i}" for i in range(n))),
                                       {(top, top): F(1)})


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
        assert_parsed_as_by_the_loop(text)

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


# Tokens a structure file is made of, and some it should never contain.
SOUP = st.sampled_from([
    "domain:", "bounds:", "bel", "generate", "probability", "{", "}", "{a}",
    "{a b}", "{}", "{z}", "{a a}", "*", "|", "=", "a", "b", "c", "z", "0", "1",
    "1/2", "-1", "2/0", "0.25", "1e5", "1e99999", "a=1/2", "b=1/2", "a=", "#",
])


@st.composite
def soup_lines(draw):
    head = draw(st.sampled_from(["bel", "bel", "domain:", "bounds:", "generate", ""]))
    tokens = draw(st.lists(st.one_of(SOUP, SOUP, SOUP, st.text(max_size=4)), max_size=6))
    return " ".join([head, *tokens])


@st.composite
def soup_texts(draw):
    """Soup lines, mostly after a valid domain line."""
    lines = draw(st.lists(soup_lines(), max_size=6))
    return draw(st.sampled_from(["domain: a b c\n"] * 3 + [""])) + "\n".join(lines)


@st.composite
def fixture_with_inserted_line(draw):
    path = draw(st.sampled_from(sorted(FIXTURES.glob("*.bel"))))
    lines = path.read_text(encoding="utf-8").splitlines()
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, draw(soup_lines()))
    return "\n".join(lines) + "\n"


THREE_ATOMS = FIXTURES.joinpath("three_atoms.bel").read_text(encoding="utf-8")


def with_line(line, at=5, text=THREE_ATOMS):
    """`text` with `line` inserted before its line `at` + 1.  In
    `fixtures/three_atoms.bel`, the default, line 8 sets Bel({a} | {a b})
    to 1/3."""
    lines = text.splitlines()
    lines.insert(at, line)
    return "\n".join(lines) + "\n"


def spelled_out(atoms, table, bounds=(0, 1), sep=" "):
    """A table file over `atoms` with the given separator around tokens."""
    def event(mask):
        return "{%s}" % " ".join(a for i, a in enumerate(atoms) if mask >> i & 1)

    lines = [f"domain: {' '.join(atoms)}", f"bounds: {bounds[0]} {bounds[1]}"]
    lines += [f"bel {event(v)}{sep}|{sep}{event(u)}{sep}={sep}{x}"
              for (v, u), x in table.items()]
    return "\n".join(lines) + "\n"


def half_table(n):
    return {vu: F(1, 2) for vu in canonical_pairs(n)}


def indented(text):
    """`text` with each line indented, in turn, by a space, a tab, U+00A0,
    U+3000 and a run of all four."""
    marks = itertools.cycle([" ", "\t", "\u00a0", "\u3000", " \t\u00a0\u3000"])
    return "".join(f"{mark}{line}\n" for mark, line in zip(marks, text.splitlines()))


#: A complete 4-atom table, every line indented; its line 4 sets
#: Bel({a} | {a}) to 1.
FOUR_ATOMS = indented(spelled_out("abcd", gen_probability(
    Domain(tuple("abcd")), [F(1, 10), F(2, 10), F(3, 10), F(4, 10)]).as_table()))


EDGE_TEXTS = {
    "two-bars": with_line("bel {a} | {b} | {a b} = 1/2"),
    "equals-in-value": with_line("bel {a} | {a b} = 1=3"),
    "mid-line-comment": with_line("bel {a} | {a b} = 1/3  # the same value"),
    "comment-hides-value": with_line("bel {a} | {a b} # = 1/3"),
    "comment-only-lines": with_line("# bel {a} | {a b} = 1/2"),
    "crlf": THREE_ATOMS.replace("\n", "\r\n"),
    "cr": THREE_ATOMS.replace("\n", "\r"),
    "vertical-tab-break": with_line("bel {a} | {a b} = 1/3\vbel {a} | {a b} = 1/2"),
    "form-feed-break": with_line("bel {b} | {a b} = 2/3\fbel {b} | {a b} = 1/2"),
    "unicode-breaks": with_line("bel {a} | {a b} = 1/3\x85bel {a} | {a b} = 1/2\u2028"),
    "bel-before-domain": "bel {a} | * = 1\n" + THREE_ATOMS,
    "blank-then-bel-before-domain": "\n \nbel {a} | * = 1\ndomain: a\n",
    "only-blank-lines": "\n  \n\t\n",
    "empty": "",
    "only-comments": "# nothing\n  # here\n",
    "tab-after-bel": with_line("bel\t{a} | {a b} = 1/3"),
    "tabs-around-tokens": with_line("bel {a}\t|\t{a b}\t=\t1/3"),
    "tab-indented": with_line("\tbel {a} | {a b} = 2/6"),
    "tab-indented-conflict": with_line("\tbel {a} | {a b} = 1/2"),
    "wide-space-indented": with_line("\u3000bel {a} | {a b} = 1/2"),
    "no-break-space-after-value": with_line("bel {a} | {a b} = 2/6\u00a0"),
    "unit-separator-after-value": with_line("bel {a} | {a b} = 2/6\x1f"),
    "lone-surrogate": with_line("bel {a} | {a b} = 1/3\ud800"),
    "bel-alone": with_line("bel "),
    "bel-bar-equals": with_line("bel |="),
    "bel-no-bar": with_line("bel {a} = 1/3"),
    "bar-after-value": with_line("bel {a} = 1 | {a}"),
    "empty-condition-and-bad-value": with_line("bel {a} | {} = x"),
    "bounds-after-a-bad-line": with_line("bel {z} | * = 1") + "bounds: 1 0\n",
    "bad-bounds-before-a-bad-line": with_line("bounds: 1 0", 1) + "bel {z} | * = 1\n",
    "generator-after-table": THREE_ATOMS + "generate probability a=1/3 b=1/3 c=1/3\n",
    "conflict-after-same-value-spellings": with_line("bel {a} | {a b} = 2/6", 9)
    + "bel {a} | {a b} = 0.5\n",
    "unicode-digits": with_line("bel {a} | {a b} = \u0661/\u0663"),
    "equals-in-atom-names": spelled_out(("p=q", "r"), half_table(2)),
    "bar-in-atom-name-of-v": spelled_out(("x|y", "r"), half_table(2)),
    "tab-separated": spelled_out(("a", "b"), half_table(2), sep="\t"),
    "no-spaces": spelled_out(("a", "b"), half_table(2), sep=""),
    "every-line-indented": "".join(f"  {line}\n" for line in THREE_ATOMS.splitlines()),
    "four-atoms-mixed-indentation": FOUR_ATOMS,
    "indented-bad-separators-after-indented-good-line":
        with_line("\u3000bel {a} | {b} | * = 1/2", 4, FOUR_ATOMS),
    "indented-bad-literal-after-indented-good-line":
        with_line("\u00a0bel {a} | * = x/2", 4, FOUR_ATOMS),
    "indented-conflicting-duplicate": with_line("\t bel {a} | {a} = 1/2", 9, FOUR_ATOMS),
    "indented-consistent-duplicate": with_line("\u3000bel {a} | {a} = 2/2", 9, FOUR_ATOMS),
    "indented-bel-before-domain": "\t\u00a0bel {a} | * = 1\n" + FOUR_ATOMS,
    "blank-and-comment-lines-between": THREE_ATOMS.replace("\n", "\n\n# c\n", 9),
    "13-atom-conflict": "domain: " + " ".join(f"x{i}" for i in range(13))
    + "\nbel {x12} | * = 1/2\nbel {x12} | * = 1/3\n",
    "40-atom-conflict": "domain: " + " ".join(f"x{i}" for i in range(40))
    + "\nbel {x39} | * = 1/2\nbel {x0} | * = 1\nbel {x39} | * = 1/3\n",
    "40-atom-bad-value": "domain: " + " ".join(f"x{i}" for i in range(40))
    + "\nbel {x39} | * = 1/2\nbel {x39} | * = 1/0\n",
    "70-atom-table": "domain: " + " ".join(f"x{i}" for i in range(70))
    + "\nbel {x69} | * = 1/2\nbel {x69} | * = 2/4\n",
    "13-atom-bad-bounds-above-the-table": "domain: " + " ".join(f"x{i}" for i in range(13))
    + "\nbounds: 1 0\nbel {x12} | * = 1/2\n",
    "13-atom-bad-line-below-the-table": "domain: " + " ".join(f"x{i}" for i in range(13))
    + "\nbel {x12} | * = 1/2\nbounds: 1 0\n",
    "13-atom-header-only": "domain: " + " ".join(f"x{i}" for i in range(13)) + "\nbounds: 0 1\n",
    "11-atom-directive-then-conflict": "domain: " + " ".join(f"x{i}" for i in range(11))
    + "\ngenerate probability " + " ".join(f"x{i}=1/11" for i in range(11))
    + "\nbel {x0} | * = 1/2\nbel {x0} | * = 1/3\n",
    "11-atom-conflict-then-directive": "domain: " + " ".join(f"x{i}" for i in range(11))
    + "\nbel {x0} | * = 1/2\nbel {x0} | * = 1/3\ngenerate probability "
    + " ".join(f"x{i}=1/11" for i in range(11)) + "\n",
    "11-atom-table-then-directive": "domain: " + " ".join(f"x{i}" for i in range(11))
    + "\nbel {x0} | * = 1/11\ngenerate probability "
    + " ".join(f"x{i}=1/11" for i in range(11)) + "\n",
}


class TestHostileText:
    """The bulk pass against the per-line loop: equal structures, or the
    same `ParseError` message (line number included)."""

    @pytest.mark.parametrize("name", EDGE_TEXTS)
    def test_tokenization_edge_cases(self, name):
        assert_parsed_as_by_the_loop(EDGE_TEXTS[name])

    @settings(max_examples=300, deadline=None)
    @given(soup_texts())
    def test_token_soup_raises_only_parse_errors(self, text):
        assert_parsed_as_by_the_loop(text)

    @settings(max_examples=300, deadline=None)
    @given(fixture_with_inserted_line())
    def test_fixture_with_an_inserted_line_raises_only_parse_errors(self, text):
        assert_parsed_as_by_the_loop(text)


class TestIndentation:
    def test_an_indented_table_parses_as_its_plain_copy_in_like_time(self):
        """Indented `bel` lines take the bulk pass, as plain ones do."""
        weights = [F(i, 36) for i in range(1, 9)]
        plain = serialize_structure(gen_probability(Domain(tuple("abcdefgh")), weights))

        def parsed(text):  # the structure, and the best of three parse times
            times = []
            for _ in range(3):
                started = time.perf_counter()
                structure = parse_structure(text)
                times.append(time.perf_counter() - started)
            return structure, min(times)

        structure, plain_time = parsed(plain)
        assert plain.count("\nbel ") == 3 ** 8 - 1
        indented_structure, indented_time = parsed(indented(plain))
        assert indented_structure == structure
        assert indented_time < 3 * plain_time


@st.composite
def generator_texts(draw):
    """A domain line over 1-6 atoms and a `generate probability` line whose
    weights may be zero, negative or off the unit sum, which may name an
    unknown atom, name an atom twice or leave one out, and may come after
    a `bel` line."""
    n = draw(st.integers(1, 6))
    atoms = [f"x{i}" for i in range(n)]
    ints = draw(st.lists(st.integers(-2, 6), min_size=n, max_size=n))
    total = max(1, sum(ints) + draw(st.sampled_from([0, 0, 1, -1])))
    specs = [f"{a}={i}/{total}" for a, i in zip(atoms, ints)]
    if draw(st.booleans()):
        specs.insert(draw(st.integers(0, n)), draw(st.sampled_from(["z=1/2", "z=0"])))
    if draw(st.booleans()):
        specs.insert(draw(st.integers(0, len(specs))), draw(st.sampled_from(specs)))
    if draw(st.booleans()):
        del specs[draw(st.integers(0, len(specs) - 1))]
    lines = [f"domain: {' '.join(atoms)}", "generate probability " + " ".join(specs)]
    if draw(st.booleans()):
        lines.insert(1, "bel {x0} | {x0} = 1")
    return "\n".join(lines) + "\n"


def coin_text(broken):
    """The 256-atom uniform coin member's file, its generator line changed by
    `broken` (a list of "atom=weight" specs in, a list out)."""
    atoms = [format(i, "08b") for i in range(256)]
    specs = broken([f"{a}=1/256" for a in atoms])
    return f"domain: {' '.join(atoms)}\ngenerate probability {' '.join(specs)}\n"


class TestGeneratorChecks:
    """The generator line's checks on integer units against the per-line
    loop's on Fractions: the same `ParseError`, message and line."""

    @settings(max_examples=400, deadline=None)
    @given(generator_texts())
    def test_generator_lines_as_the_loop_reads_them(self, text):
        assert_parsed_as_by_the_loop(text)

    @pytest.mark.parametrize("broken", [
        lambda s: s,
        lambda s: ["00000000=0", *s[1:]],
        lambda s: ["00000000=-1/256", "00000001=3/256", *s[2:]],
        lambda s: ["00000000=1/128", *s[1:]],
        lambda s: s[:5] + ["2=1/256"] + s[6:],
        lambda s: s[:200] + [s[7]] + s[201:],
        lambda s: s[:-1],
    ], ids=["valid", "zero", "negative", "sum", "unknown", "duplicate", "missing"])
    def test_a_256_atom_generator_line(self, broken):
        assert_parsed_as_by_the_loop(coin_text(broken))


@st.composite
def small_structures(draw):
    """Probability, power-distorted or affinely rescaled, on 1-5 atoms."""
    ints = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    d = Domain(tuple(f"x{i}" for i in range(len(ints))))
    ws = [F(i, sum(ints)) for i in ints]
    k = draw(st.integers(1, 3))
    b = gen_distorted(d, ws, k) if k > 1 else gen_probability(d, ws)
    if draw(st.booleans()):
        scale = draw(st.fractions(F(1, 4), 4, max_denominator=12))
        b = affine_rescale(b, scale, draw(st.fractions(-2, 2, max_denominator=12)))
    return b


class TestGeneratedRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(small_structures())
    def test_parse_of_serialize_is_identity(self, b):
        text = serialize_structure(b)
        assert parse_structure(text) == b
        assert_parsed_as_by_the_loop(text)


class TestAtomNames:
    """parse(serialize(B)) == B holds for every atom name that serializing
    accepts; a name it refuses is refused again where a file is read."""

    @staticmethod
    def written(structure, name) -> str:
        """The text a structure with atom `name` would be written as: its
        serialization under a placeholder name, with the name put back."""
        placeholder = Domain(tuple("Q" if a == name else a for a in structure.domain.atoms))
        if structure.is_weight_backed:
            copy = BeliefStructure.from_weights(placeholder, structure.weights)
        else:
            copy = BeliefStructure.from_table(placeholder, structure.as_table())
        return serialize_structure(copy).replace("Q", name)

    @pytest.mark.parametrize("ch", [chr(c) for c in range(0x20, 0x7f)])
    def test_a_name_round_trips_or_is_refused_at_both_ends(self, ch):
        for name in (ch, f"a{ch}b"):
            for n in (2, EXPANSION_ATOM_LIMIT + 1):  # a table, and a directive
                others = [f"x{i}" for i in range(n - 1)]
                if name in others:
                    continue
                structure = gen_probability(Domain((name, *others)), [F(1, n)] * n)
                text = self.written(structure, name)
                refused = ch.isspace() or ch in "|=#"
                if refused:
                    with pytest.raises(BeliefDomainError, match="which structure files reserve"):
                        serialize_structure(structure)
                    with pytest.raises(ParseError):
                        parse_structure(text)
                else:
                    assert serialize_structure(structure) == text
                    assert parse_structure(text) == structure
