"""Structure file format: line-based, UTF-8, '#' comments.

    domain: a b c
    bounds: 0 1
    bel {a b} | {a b c} = 2/3
    bel {a} | * = 1/3
    generate probability a=1/3 b=2/3

Events are brace-enclosed atom lists; `*` means the whole domain.  Values
are exact rationals; decimal literals are converted exactly (0.25 -> 1/4).
Explicit `bel` lines override generator directives.  After expansion the
table must be total on canonical pairs.

A table of `bel` lines only is read straight into its `ValueIndex`: each
distinct literal becomes a value code, the lines' codes are placed at their
canonical positions in one numpy pass, and only the distinct values and the
bounds are sorted into ranks.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .core import (
    ZERO,
    ONE,
    BeliefDomainError,
    BeliefStructure,
    Domain,
    Event,
    ValueIndex,
    pair_positions,
    rank_codes,
)

#: Generator directives expand into explicit tables up to this many atoms;
#: a directive-only file above the limit stays weight-backed instead.
EXPANSION_ATOM_LIMIT = 10


class ParseError(ValueError):
    """Malformed structure file."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


#: Most digits, and largest decimal exponent, a value literal may carry;
#: checked before any integer is built, so `1e9999999` fails at once.
LITERAL_DIGIT_LIMIT = 1000

_EXPONENT = re.compile(r"[eE][-+]?(\d+)")


def parse_value(text: str) -> Fraction:
    too_long = len(text) > LITERAL_DIGIT_LIMIT and (
        sum(ch.isdigit() for ch in text) > LITERAL_DIGIT_LIMIT
    )
    exponent = _EXPONENT.search(text)
    if too_long or (exponent and int(exponent.group(1)) > LITERAL_DIGIT_LIMIT):
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ValueError(
            f"rational literal has over {LITERAL_DIGIT_LIMIT} digits or an "
            f"exponent over {LITERAL_DIGIT_LIMIT}: {shown!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}") from None


def _parse_event(token: str, bits: dict[str, int], line_no: int) -> int:
    """The event mask of `*` or a brace-enclosed atom list; `bits` maps each
    atom name to its bit."""
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


def parse_structure(text: str) -> BeliefStructure:
    domain: Domain | None = None
    bounds: tuple[Fraction, Fraction] | None = None
    generator: tuple[dict[str, Fraction], int] | None = None  # weights, line
    # a table repeats few distinct value literals and event tokens over many
    # `bel` lines: each is parsed and checked once, on the first line it is
    # on, which is also the line an error in it reports.  A literal maps to
    # the code of its value, so spellings of one value share a code and each
    # distinct Fraction is hashed once.
    literals: dict[str, int] = {}
    code_of: dict[Fraction, int] = {}  # in code order
    events: dict[str, int] = {}
    # the canonical pair (v, u) as the key u << n | v -> its value code and
    # the line that last set it
    code_at: dict[int, int] = {}
    line_at: dict[int, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("bel ") and domain is not None:  # most lines
            events_part, eq, value_part = line[len("bel "):].rpartition("=")
            v_part, bar, u_part = events_part.partition("|")
            if not (eq and bar):
                raise ParseError("bel line must look like 'bel V | U = value'", line_no)
            for part in (v_part, u_part):
                if part not in events:
                    events[part] = _parse_event(part, bits, line_no)
            v, u = events[v_part], events[u_part]
            if u == 0:
                raise ParseError("conditioning event U must be nonempty", line_no)
            code = literals.get(value_part)
            if code is None:
                try:
                    value = parse_value(value_part.strip())
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
                e, big_e = parse_value(parts[0]), parse_value(parts[1])
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
                    "only 'generate probability atom=weight ...' is supported",
                    line_no,
                )
            if generator is not None:
                raise ParseError("duplicate generator directive", line_no)
            weights: dict[str, Fraction] = {}
            for spec in parts[2:]:
                if "=" not in spec:
                    raise ParseError(f"bad weight token {spec!r}", line_no)
                name, w_text = spec.split("=", 1)
                if name in weights:
                    raise ParseError(f"duplicate weight for atom {name!r}", line_no)
                try:
                    domain.index(name)  # validates the atom name
                    weights[name] = parse_value(w_text)
                except ValueError as exc:
                    raise ParseError(str(exc), line_no) from None
            generator = (weights, line_no)
            continue
        raise ParseError(f"unrecognized line: {raw.strip()!r}", line_no)

    if domain is None:
        raise ParseError("file contains no domain line")
    final_bounds = bounds if bounds is not None else (ZERO, ONE)

    weight_list: list[Fraction] | None = None
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
        # Directive-only file: keep the lazy weight backing.
        return BeliefStructure.from_weights(domain, weight_list, bounds=final_bounds)

    if weight_list is not None and domain.size > EXPANSION_ATOM_LIMIT:
        raise ParseError(
            "generator expansion with explicit overrides is capped at "
            f"{EXPANSION_ATOM_LIMIT} atoms"
        )

    try:
        if weight_list is not None:
            table = BeliefStructure.from_weights(domain, weight_list).as_table()
            values = list(code_of)
            full = domain.full_mask
            table.update({(k & full, k >> n): values[c] for k, c in code_at.items()})
            return BeliefStructure.from_table(domain, table, bounds=final_bounds)
        pos = pair_positions(domain, code_at)
    except BeliefDomainError as exc:  # the table is incomplete or too large
        raise ParseError(str(exc)) from None
    for x in final_bounds:
        code_of.setdefault(x, len(code_of))
    ranked, rank_of_code = rank_codes(code_of)
    pair_rank = np.empty(len(pos), dtype=np.int32)
    pair_rank[pos] = np.array(rank_of_code, dtype=np.int32)[
        np.fromiter(code_at.values(), dtype=np.int32, count=len(code_at))
    ]
    e, big_e = (rank_of_code[code_of[x]] for x in final_bounds)
    index = ValueIndex(tuple(ranked), e, big_e, n, pair_rank)
    return BeliefStructure.from_table(domain, index, bounds=final_bounds)


def serialize_structure(structure: BeliefStructure) -> str:
    """Deterministic text form; parse(serialize(B)) == B.

    Explicit structures emit one `bel` line per canonical pair.  Weight-backed
    structures beyond the expansion limit emit their generator directive
    instead (an explicit expansion would be infeasible).
    """
    domain = structure.domain
    lines = ["domain: " + " ".join(domain.atoms)]
    e, big_e = structure.bounds
    lines.append(f"bounds: {e} {big_e}")
    if (
        structure.is_weight_backed
        and structure.exponent == 1
        and domain.size > EXPANSION_ATOM_LIMIT
    ):
        pairs = " ".join(
            f"{a}={w}" for a, w in zip(domain.atoms, structure.weights)
        )
        lines.append("generate probability " + pairs)
        return "\n".join(lines) + "\n"
    if structure.is_weight_backed and domain.size > EXPANSION_ATOM_LIMIT:
        raise BeliefDomainError(
            "cannot serialize a distorted structure of this size explicitly"
        )
    for v, u, x in structure.items():
        v_ev, u_ev = Event(domain, v), Event(domain, u)
        u_text = "*" if u == domain.full_mask else "{%s}" % " ".join(u_ev.members)
        lines.append(
            "bel {%s} | %s = %s" % (" ".join(v_ev.members), u_text, x)
        )
    return "\n".join(lines) + "\n"


def load_structure(path) -> BeliefStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def save_structure(structure: BeliefStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_structure(structure))
