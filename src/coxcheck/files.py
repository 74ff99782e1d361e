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

The header, the lines above the first `bel` line, is read first: a domain
over its table's limit is refused there, at that line.  The rest of the
file is read in one bulk pass.  The plain `bel` lines ("bel " after
any indentation, then one "|" and after it one "=") are found with numpy
and cut into their parts at once; other lines are read one by one.
Each distinct event token and value literal is parsed once, and every
`bel` line becomes a row of ints (V's mask, U's mask, the rank of its
value), on which the duplicate, conflict and completeness checks run and
from which a table's `ValueIndex` is built.  Values are ranked float-first
by `core.rank_values`.  Errors are those of a line-by-line reading: the
first bad line wins, with the same message and line number.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
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
    canonical_order,
    preflight,
    rank_values,
    weight_units,
    within,
)

#: Characters no atom name in a file may hold, besides whitespace: the `bel`
#: line's separators, the directive's `=` and the comment mark.
RESERVED_ATOM_CHARACTERS = "|=#"

_RESERVED = re.compile(r"[\s" + re.escape(RESERVED_ATOM_CHARACTERS) + "]")


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
    num, slash, den = text.partition("/")
    digits = num.isdecimal() and (den.isdecimal() or not slash)  # "p" or "p/q"
    too_long = len(text) > LITERAL_DIGIT_LIMIT and (
        sum(ch.isdigit() for ch in text) > LITERAL_DIGIT_LIMIT
    )
    exponent = None if digits else _EXPONENT.search(text)
    if too_long or (exponent and int(exponent.group(1)) > LITERAL_DIGIT_LIMIT):
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ValueError(
            f"rational literal has over {LITERAL_DIGIT_LIMIT} digits or an "
            f"exponent over {LITERAL_DIGIT_LIMIT}: {shown!r}"
        )
    try:
        if digits:  # what Fraction(text) reads, without its regular expression
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}") from None


def _parse_event(token: str, bits: dict[str, int], line_no: int | None) -> int:
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
    try:
        return sum(map(bits.__getitem__, names))  # distinct bits: their sum is their union
    except KeyError as exc:  # the first unknown name
        raise ParseError(f"unknown atom {exc.args[0]!r}", line_no) from None


_COMMENT = re.compile(r"#[^\n]*")

_BEL_WORD = int.from_bytes(b"bel ", "little")


def _plain_bel_lines(data: bytes, lines: list[str]) -> np.ndarray:
    """Which `lines`, joined by "\n" into the UTF-8 `data`, are plain `bel`
    lines: "bel " after any indentation (whitespace as `str.strip` reads
    it), then one "|" and after it one "=".  In UTF-8 those characters are
    single bytes that occur in no other character."""
    # a line break before the first line, three after the last (each line
    # then has two separators to read after its break) and room to read 4
    # bytes from the start of any line
    buf = np.frombuffer(b"".join((b"\n", data, b"\n\n\n\0")), dtype=np.uint8)
    is_mark = buf == ord("\n")
    is_mark |= buf == ord("|")
    is_mark |= buf == ord("=")
    marks = np.flatnonzero(is_mark)
    seps = buf[marks]  # every line's separators, each line after its break
    breaks = np.flatnonzero(seps == ord("\n"))[:len(lines) + 1]
    before = breaks[:-1]
    cut = ((np.diff(breaks) == 3) & (seps[before + 1] == ord("|"))
           & (seps[before + 2] == ord("=")))
    words = np.ndarray((len(buf) - 3,), dtype="<u4", buffer=buf, strides=(1,))
    plain = cut & (words[marks[before] + 1] == _BEL_WORD)
    # a line cut so but not starting with "bel " is an indented `bel` line or
    # no `bel` line; an unindented file has next to none
    rows = np.flatnonzero(cut & ~plain)
    if rows.size:
        stripped = map(str.lstrip, map(lines.__getitem__, rows.tolist()))
        plain[rows] = list(map(str.startswith, stripped, itertools.repeat("bel ")))
    return plain


def _read_lines(rows, domain=None, bounds=None, generator=None) -> tuple:
    """(domain, bounds, generator, the first `bel` line's row or None) of the
    lines `rows`, (row, line as written), read in order up to that line.  A
    file's header (no `domain` given) is refused over its table's limit:
    explicit, expanded if a directive came first, or empty with neither."""
    header, bel = domain is None, None
    for row, raw in rows:
        line, line_no = raw.split("#", 1)[0].strip(), row + 1
        if not line:
            continue
        if domain is None:
            if not line.startswith("domain:"):
                raise ParseError("domain line must come first", line_no)
            atoms = line[len("domain:"):].split()
            if not atoms:
                raise ParseError("domain line lists no atoms", line_no)
            try:
                domain = Domain(tuple(atoms))
                _check_atom_names(domain)
            except BeliefDomainError as exc:
                raise ParseError(str(exc), line_no) from None
        elif line.startswith("bel "):
            bel = row
            break
        elif line.startswith("domain:"):
            raise ParseError("duplicate domain line", line_no)
        elif line.startswith("bounds:"):
            if bounds is not None:
                raise ParseError("duplicate bounds line", line_no)
            parts = line[len("bounds:"):].split()
            if len(parts) != 2:
                raise ParseError("bounds line needs two values", line_no)
            try:
                bounds = parse_value(parts[0]), parse_value(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
            if bounds[0] >= bounds[1]:
                raise ParseError("bounds must satisfy e < E", line_no)
        elif line.startswith("generate "):
            parts = line.split()
            if len(parts) < 3 or parts[1] != "probability":
                raise ParseError("only 'generate probability atom=weight ...' is supported",
                                 line_no)
            if generator is not None:
                raise ParseError("duplicate generator directive", line_no)
            weights: dict[str, Fraction] = {}
            literals: dict[str, Fraction] = {}  # each distinct weight literal, parsed once
            for spec in parts[2:]:
                if "=" not in spec:
                    raise ParseError(f"bad weight token {spec!r}", line_no)
                name, w_text = spec.split("=", 1)
                if name in weights:
                    raise ParseError(f"duplicate weight for atom {name!r}", line_no)
                try:
                    domain.index(name)  # validates the atom name
                    weight = literals.get(w_text)
                    if weight is None:
                        weight = literals[w_text] = parse_value(w_text)
                    weights[name] = weight
                except ValueError as exc:
                    raise ParseError(str(exc), line_no) from None
            generator = weights, line_no
        else:
            raise ParseError(f"unrecognized line: {raw.strip()!r}", line_no)
    if header and domain is None:
        raise ParseError("file contains no domain line")
    if header and (bel is not None or generator is None):
        preflight("expansion" if generator else "table", domain.size, error=ParseError)
    return domain, bounds, generator, bel


def parse_structure(text: str) -> BeliefStructure:
    """The structure a file's text describes, or a `ParseError` naming the
    first bad line (lines as `str.splitlines` splits them)."""
    # the header's lines are split lazily, each piece up to a "\n" on its own
    domain, bounds, generator, first_bel = _read_lines(enumerate(itertools.chain.from_iterable(
        piece.group().splitlines() for piece in re.finditer(r"[^\n]*\n?", text))))
    n = domain.size
    # each large intermediate is dropped once it is read: a 9-atom table is
    # about a megabyte of text
    lines = written = text.splitlines()
    body = "\n".join(lines)
    if "#" in body:
        body = _COMMENT.sub("", body)
        lines = body.split("\n")
    data = body.encode("utf-8", "surrogatepass")
    del body
    # a text with no "bel " has no `bel` line to find
    plain = _plain_bel_lines(data, lines) if b"bel " in data else np.zeros(len(lines), dtype=bool)
    del data
    others = [] if first_bel is None else [
        (row, written[row]) for row in (np.flatnonzero(~plain[first_bel:]) + first_bel).tolist()]
    del written
    # the parts of every plain `bel` line, cut at once: "bel V", "U", "value"
    block = "\n".join(itertools.compress(lines, plain.tolist()))
    del lines
    block = block.replace("|", "\n").replace("=", "\n")
    parts = block.split("\n") if block else []
    del block
    v_col, u_col, x_col = parts[0::3], parts[1::3], parts[2::3]
    del parts
    bel_rows = np.flatnonzero(plain)

    # the other lines after the header, up to the first bad one: a `bel` line
    # among them is cut otherwise
    error: ParseError | None = None
    try:
        domain, bounds, generator, bad = _read_lines(others, domain, bounds, generator)
        if bad is not None:
            raise _bel_line_error(text, bad + 1, domain)
    except ParseError as exc:
        error = exc
    final_bounds = bounds if bounds is not None else (ZERO, ONE)

    if not bel_rows.size:  # the table is the generator's, or incomplete
        if error is not None:
            raise error
        keys = np.zeros(0, dtype=np.int64)
    else:
        # each distinct event token and value literal is parsed once, then
        # every `bel` line is a row of ints: its masks v and u (-1 for a bad
        # token) and its value's rank (-1 for a bad literal)
        bits = {a: 1 << i for i, a in enumerate(domain.atoms)}
        masks: dict[str, int] = {}  # event token -> mask, -1 if bad

        def mask(token: str) -> int:
            if token not in masks:
                try:
                    masks[token] = _parse_event(token, bits, None)
                except ParseError:
                    masks[token] = -1
            return masks[token]

        # a column is dropped once it is read: a bad line's text is split out
        # again from `text`
        parts, which = _distinct(v_col)
        del v_col
        v = np.array([mask(part.lstrip()[len("bel "):].strip()) for part in parts])[which]
        parts, which = _distinct(u_col)
        del u_col
        u = np.array([mask(part.strip()) for part in parts])[which]
        parts, which = _distinct(x_col)
        del x_col
        at: list[int] = []  # each part's index in `parsed`, -1 if bad
        parsed: list[Fraction] = []
        for part in parts:
            try:
                parsed.append(parse_value(part.strip()))
                at.append(len(parsed) - 1)
            except ValueError:
                at.append(-1)
        values, ranks = rank_values(parsed + list(final_bounds))
        # a bad literal's index -1 reads the -1 appended to the ranks
        x = np.append(ranks, -1)[at][which]

        # the lines sorted by pair, then by line: a repeated pair must repeat
        # its value
        keys = u << n | v & u
        by_pair = np.argsort(keys, kind="stable")
        keys, codes = keys[by_pair], x[by_pair]
        repeat = keys[1:] == keys[:-1]
        repeats = repeat.any()
        if (error is not None or min(v.min(), u.min() - 1, x.min()) < 0
                or repeats and (codes[1:] != codes[:-1])[repeat].any()):
            first = _bel_error(domain, bel_rows, text, v, u, x, values)
            if first is not None and (error is None or first.line_no < error.line_no):
                error = first
            raise error
        if repeats:
            keep = np.concatenate(([True], ~repeat))
            keys, codes = keys[keep], codes[keep]

    backing: BeliefStructure | None = None
    if generator is not None:
        weights, gen_line = generator
        missing = [a for a in domain.atoms if a not in weights]
        if missing:
            raise ParseError(f"generator missing weights for {missing}", gen_line)
        weight_list = [weights[a] for a in domain.atoms]
        try:
            try:  # the structure checks the weights, once
                backing = BeliefStructure.from_weights(domain, weight_list, bounds=final_bounds)
            except BeliefDomainError:  # the same check, naming them as the file does
                weight_units(weight_list, "generator weights")
                raise
        except BeliefDomainError as exc:
            raise ParseError(str(exc), gen_line) from None

    if backing is not None and not keys.size:
        # Directive-only file: keep the lazy weight backing.
        return backing

    try:
        if backing is not None:
            # a directive after the first `bel` line is read only now
            preflight("expansion", n, error=ParseError)
            table = backing.as_table()
            full = domain.full_mask
            table.update({(k & full, k >> n): values[c]
                          for k, c in zip(keys.tolist(), codes.tolist())})
            return BeliefStructure.from_table(domain, table, bounds=final_bounds)
        order = canonical_order(domain, keys)
    except BeliefDomainError as exc:  # the table is incomplete
        raise ParseError(str(exc)) from None
    pair_rank = codes[order].astype(np.int32)
    e, big_e = ranks[-2:].tolist()
    index = ValueIndex(tuple(values), e, big_e, n, pair_rank)
    return BeliefStructure.from_table(domain, index, bounds=final_bounds)


def _distinct(column: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct parts of `column`, in the order they first appear, and
    the index of every line's part among them."""
    index: dict[str, int] = collections.defaultdict(itertools.count().__next__)
    which = np.fromiter(map(index.__getitem__, column), dtype=np.intp, count=len(column))
    return list(index), which


def _check_atom_names(domain: Domain) -> None:
    """Refuse (`BeliefDomainError`) the first atom name that a file cannot
    carry."""
    if _RESERVED.search("".join(domain.atoms)):  # one search; the loop names the atom
        atom = next(a for a in domain.atoms if _RESERVED.search(a))
        raise BeliefDomainError(
            f"atom name {atom!r} holds whitespace or one of "
            f"{' '.join(RESERVED_ATOM_CHARACTERS)}, which structure files reserve")


def _bel_error(domain, rows, text, v, u, x, values) -> ParseError | None:
    """The error of the first bad plain `bel` line of `text`, if any.  The
    i-th one is on row `rows[i]` and has masks v[i] and u[i] (-1 for a bad
    event) and value rank x[i] (-1 for a bad literal).  A line is bad for a
    bad token or an empty condition, or for a value other than the one of
    its pair's earlier lines."""
    n = domain.size
    bad = (v < 0) | (u <= 0) | (x < 0)
    stop = int(np.argmax(bad)) if bad.any() else len(bad)  # the lines before are good
    keys = (u << n | v & u)[:stop]
    by_pair = np.argsort(keys, kind="stable")
    keys, codes = keys[by_pair], x[by_pair]
    # where the value changes within a pair, the line clashes with the one
    # before it in the pair, which holds the pair's first value
    clash = np.flatnonzero((keys[1:] == keys[:-1]) & (codes[1:] != codes[:-1])) + 1
    if clash.size:
        at = int(clash[np.argmin(by_pair[clash])])
        i, before = int(by_pair[at]), int(by_pair[at - 1])
        return ParseError(
            f"conflicting duplicate for Bel({Event(domain, int(v[i]))!r} | "
            f"{Event(domain, int(u[i]))!r}): {values[x[before]]} "
            f"(line {rows[before] + 1}) vs {values[x[i]]}",
            int(rows[i]) + 1,
        )
    return _bel_line_error(text, int(rows[stop]) + 1, domain) if stop < len(bad) else None


def _bel_line_error(text: str, line_no: int, domain: Domain) -> ParseError:
    """The error of the bad `bel` line `line_no` of `text`: its separators,
    then its parts in the order they are written.  A line cut otherwise
    than at one "|" and then one "=" is always bad, since no atom name or
    value literal holds either."""
    line = text.splitlines()[line_no - 1].split("#", 1)[0].strip()
    events_part, eq, value_part = line[len("bel "):].rpartition("=")
    v_part, bar, u_part = events_part.partition("|")
    if not (eq and bar):
        return ParseError("bel line must look like 'bel V | U = value'", line_no)
    bits = {a: 1 << i for i, a in enumerate(domain.atoms)}
    try:
        _parse_event(v_part, bits, line_no)
        if _parse_event(u_part, bits, line_no) == 0:
            return ParseError("conditioning event U must be nonempty", line_no)
        parse_value(value_part.strip())
    except ParseError as exc:
        return exc
    except ValueError as exc:
        return ParseError(str(exc), line_no)
    raise AssertionError(f"line {line_no} has no error")


def serialize_structure(structure: BeliefStructure) -> str:
    """Deterministic text form; parse(serialize(B)) == B.

    Explicit structures emit one `bel` line per canonical pair.  Weight-backed
    structures beyond the "expansion" limit emit their generator directive
    instead (an explicit expansion would be infeasible).  An atom name that
    holds whitespace or a `RESERVED_ATOM_CHARACTERS` character is refused.
    """
    domain = structure.domain
    _check_atom_names(domain)
    lines = ["domain: " + " ".join(domain.atoms)]
    e, big_e = structure.bounds
    lines.append(f"bounds: {e} {big_e}")
    if structure.is_weight_backed and not within("expansion", domain.size):
        if structure.exponent != 1:
            raise BeliefDomainError(
                "cannot serialize a distorted structure of this size explicitly")
        pairs = " ".join(f"{a}={w}" for a, w in zip(domain.atoms, structure.weights))
        return "\n".join([*lines, "generate probability " + pairs]) + "\n"
    for v, u, x in structure.items():
        v_ev, u_ev = Event(domain, v), Event(domain, u)
        u_text = "*" if u == domain.full_mask else "{%s}" % " ".join(u_ev.members)
        lines.append(
            "bel {%s} | %s = %s" % (" ".join(v_ev.members), u_text, x)
        )
    return "\n".join(lines) + "\n"


def load_structure(path) -> BeliefStructure:
    """The structure of the UTF-8 file at `path`; a size refusal reads its header alone."""
    with open(path, "rb") as fh:
        read = []  # the lines read, as bytes
        with contextlib.suppress(UnicodeDecodeError):  # raised below, at its place in the file
            lines = itertools.chain.from_iterable(
                (read.append(piece) or piece).decode("utf-8").splitlines() for piece in fh)
            if any(line.split("#", 1)[0].strip().startswith("bel ") for line in lines):
                _read_lines(enumerate(b"".join(read).decode("utf-8").splitlines()))  # the header
        read.append(fh.read())
    try:
        text = b"".join(read).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None
    return parse_structure(text)


def save_structure(structure: BeliefStructure, path) -> None:
    text = serialize_structure(structure)  # a refused structure writes nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
