"""coxcheck command line: check | decide | audit | generate | search-min | equations.

Exit codes: 0 pass/Witness, 1 fail/Refutation, 2 Unknown/partial,
64 usage error, 65 parse error.  `--json PATH` writes a self-contained run
report; the text output and the JSON always agree on verdicts.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
import time
from pathlib import Path

from .conditions import audit, check_density_options, hypothesis
from .core import BeliefDomainError, Domain
from .files import ParseError, load_structure, parse_value, save_structure
from .forms import (
    COMBINATION_CATALOG,
    EQUATIONS,
    NEGATION_CATALOG,
    catalog_combination,
    catalog_negation,
    check_functional_equation,
)
from .generators import (
    ExtendedStructure,
    build_family,
    coin_extend,
    coin_family,
    gen_distorted,
    gen_probability,
    search_min_counterexample,
)
from .isomorphism import DecisionParams, check_tolerance, decide

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, and an option takes a value that starts with '-'
    and a digit or '.' (`--epsilon -1/2`, `--tol -1e-9`), so the option's
    own check refuses it.  argparse by default takes only plain negative
    numbers such as -1 or -.5 for values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call fills a fresh namespace."""
    parser = _Parser(prog="coxcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="bounds, extraction, chain and negation laws, density gap")
    p_check.add_argument("file")
    p_check.add_argument("--json", dest="json_path")

    p_decide = sub.add_parser("decide", help="probability-isomorphism verdict")
    p_decide.add_argument("file")
    p_decide.add_argument("--restarts", type=int, default=8)
    p_decide.add_argument("--budget", type=int, default=400)
    p_decide.add_argument("--tol", type=float, default=1e-9)
    p_decide.add_argument("--seed", type=int, default=0)
    p_decide.add_argument("--json", dest="json_path")

    p_audit = sub.add_parser("audit", help="hypothesis audit for theorems 1-4")
    p_audit.add_argument("file", nargs="?")
    p_audit.add_argument("--theorem", required=True, choices=["1", "2", "3", "4"])
    p_audit.add_argument("--family", help="directory of member structure files (theorem 4)")
    p_audit.add_argument("--extension", help="extension structure file (theorem 3)")
    p_audit.add_argument("--epsilon", default="1/20")
    p_audit.add_argument("--grid", type=int, default=5)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--json", dest="json_path")

    p_eq = sub.add_parser("equations", help="functional-equation residuals on catalog forms")
    p_eq.add_argument("--form", required=True,
                      choices=list(NEGATION_CATALOG) + list(COMBINATION_CATALOG))
    p_eq.add_argument("--eq", required=True, choices=list(EQUATIONS))
    p_eq.add_argument("--grid", type=int, default=20)
    p_eq.add_argument("--tol", type=float, default=0.0)
    p_eq.add_argument("--json", dest="json_path")

    p_gen = sub.add_parser("generate", help="write generated structure files")
    p_gen.add_argument("kind", choices=["probability", "distorted", "coins", "family"])
    p_gen.add_argument("--atoms", help="comma-separated atom names")
    p_gen.add_argument("--weights", help="comma-separated rational weights")
    p_gen.add_argument("--k", type=int, default=2, help="distortion exponent")
    p_gen.add_argument("--coins", type=int, default=1)
    p_gen.add_argument("--max-coins", type=int, default=4)
    p_gen.add_argument("--out")
    p_gen.add_argument("--out-dir")
    p_gen.add_argument("--json", dest="json_path")

    p_min = sub.add_parser("search-min", help="exhaustive min/1-x counterexample search")
    p_min.add_argument("--atoms", type=int, default=3)
    p_min.add_argument("--grid", default="0,1/4,1/2,3/4,1")
    p_min.add_argument("--out")
    p_min.add_argument("--json", dest="json_path")
    return parser


def _emit(report: dict, json_path: str | None, started: float, argv) -> None:
    report["command"] = ["coxcheck", *argv]
    report["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
    if json_path:
        try:
            Path(json_path).write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise UsageError(f"cannot write report {json_path}: {exc}") from None


def _print_verdict_line(name: str, status: str, detail: str = "") -> None:
    tag = {"pass": "PASS", "fail": "FAIL"}.get(status, status.upper())
    line = f"{tag:<10} {name}"
    if detail:
        line += f"  {detail}"
    print(line)


#: (printed name, `conditions.HYPOTHESES` entry) of each `check` line, in
#: order.  Chain consistency is printed only where A2 admits a function F.
_CHECK_LINES = (("bounds-par1", "par1"), ("bounds-par2", "par2"),
               ("negation-extraction", "A1"), ("combination-extraction", "A2"),
               ("chain-consistency", "chain"), ("negation-involution", "involution"))


def _cmd_check(args, argv) -> int:
    started = time.perf_counter()
    structure = load_structure(args.file)
    checks = [(name, hypothesis(structure, entry)) for name, entry in _CHECK_LINES
              if entry != "chain" or hypothesis(structure, "A2").passed]
    gap = hypothesis(structure, "par5-gap")
    for name, verdict in checks:
        _print_verdict_line(name, verdict.status, verdict.detail)
    print(f"INFO       par5-gap  {gap} (positive on every finite structure)")

    failed = any(verdict.status == "fail" for _, verdict in checks)
    exit_code = EXIT_FAIL if failed else EXIT_PASS
    report = {
        "subcommand": "check",
        "file": args.file,
        "checks": [
            {"name": n, "verdict": v.status, "detail": v.detail} for n, v in checks
        ],
        "par5_gap": str(gap),
        "exit_code": exit_code,
    }
    _emit(report, args.json_path, started, argv)
    return exit_code


def _cmd_decide(args, argv) -> int:
    started = time.perf_counter()
    # invalid search options are refused before the file is read
    params = DecisionParams(
        restarts=args.restarts, budget=args.budget,
        tolerance=args.tol, seed=args.seed,
    )
    structure = load_structure(args.file)
    verdict = decide(structure, params)
    payload = verdict.to_dict()
    print(f"verdict: {verdict.kind}")
    if verdict.kind == "witness":
        weights = ", ".join(f"{a}={w}" for a, w in verdict.witness.weights.items())
        print(f"weights: {weights}")
        exit_code = EXIT_PASS
    elif verdict.kind == "refutation":
        print(f"certificate: {verdict.certificate.kind}")
        print(f"  {verdict.certificate.description}")
        exit_code = EXIT_FAIL
    else:
        print(f"budget: {payload['budget']}")
        exit_code = EXIT_UNKNOWN
    report = {
        "subcommand": "decide",
        "file": args.file,
        "seed": args.seed,
        "verdict": payload,
        "exit_code": exit_code,
    }
    _emit(report, args.json_path, started, argv)
    return exit_code


def _load_family_dir(path: str):
    files = sorted(Path(path).glob("*.bel"))
    if not files:
        raise UsageError(f"no .bel files in family directory {path}")
    try:
        members = [load_structure(f) for f in files]
    except OSError as exc:  # a member that cannot be read is an input error
        raise ParseError(str(exc)) from None
    return build_family(members)


def _extension_from_file(base, path: str) -> ExtendedStructure:
    extended = load_structure(path)
    blocks = []
    for atom in base.domain.atoms:
        mask = 0
        for i, ext_atom in enumerate(extended.domain.atoms):
            if ext_atom == atom or ext_atom.split(":", 1)[0] == atom:
                mask |= 1 << i
        if mask == 0:
            raise UsageError(f"extension file carries no atoms for base atom {atom!r}")
        blocks.append(mask)
    return ExtendedStructure(base=base, extended=extended,
                             atom_blocks=tuple(blocks), coin_count=None)


def _cmd_audit(args, argv) -> int:
    started = time.perf_counter()
    # what argv alone decides, density options included, is refused before
    # any file is read; then each theorem reads its own inputs only: FILE
    # for theorems 1-3, --extension for theorem 3, --family for theorem 4
    epsilon = parse_value(args.epsilon)
    check_density_options(args.grid, epsilon)
    if args.theorem == "4" and not args.family:
        raise UsageError("theorem 4 audit needs --family DIR")
    if args.theorem == "3" and not args.extension:
        raise UsageError("theorem 3 audit requires an extension")
    if args.theorem != "4" and not args.file:
        raise UsageError("theorem 3 audit needs the base structure file" if args.theorem == "3"
                         else "this audit needs a structure file")
    structure = load_structure(args.file) if args.theorem != "4" else None
    family = _load_family_dir(args.family) if args.theorem == "4" else None
    extension = _extension_from_file(structure, args.extension) if args.theorem == "3" else None
    report_obj = audit(
        structure,
        args.theorem,
        extension=extension,
        family=family,
        grid_resolution=args.grid,
        epsilon=epsilon,
        seed=args.seed,
    )
    for h in report_obj.hypotheses:
        _print_verdict_line(h.name, h.status, h.witness)
    for note in report_obj.notes:
        print(f"NOTE       {note}")
    # no audit passes outright: each has a hypothesis that a table leaves
    # untestable (Par4 continuity, or theorem 2's smoothness)
    exit_code = EXIT_FAIL if report_obj.failed else EXIT_UNKNOWN
    report = {
        "subcommand": "audit",
        "file": args.file,
        "seed": args.seed,
        **report_obj.to_dict(),
        "exit_code": exit_code,
    }
    _emit(report, args.json_path, started, argv)
    return exit_code


def _cmd_equations(args, argv) -> int:
    started = time.perf_counter()
    check_tolerance(args.tol)  # refused before any evaluation
    if args.form in NEGATION_CATALOG:
        form = catalog_negation(args.form)
    else:
        form = catalog_combination(args.form)
    result = check_functional_equation(form, args.eq, args.grid)
    residual = result.residual
    print(f"equation: {args.eq} on {args.form}, grid {args.grid}")
    print(f"residual: {residual} (evaluated {result.evaluated}, "
          f"skipped {result.skipped})")
    exit_code = EXIT_PASS if float(residual) <= args.tol else EXIT_FAIL
    report = {
        "subcommand": "equations",
        "form": args.form,
        **result.to_dict(),
        "exit_code": exit_code,
    }
    _emit(report, args.json_path, started, argv)
    return exit_code


def _parse_atoms_weights(args):
    if not args.atoms or not args.weights:
        raise UsageError("--atoms and --weights are required")
    atoms = tuple(a.strip() for a in args.atoms.split(",") if a.strip())
    weights = [parse_value(w.strip()) for w in args.weights.split(",") if w.strip()]
    if len(atoms) != len(weights):
        raise UsageError("one weight per atom required")
    return Domain(atoms), weights


def _cmd_generate(args, argv) -> int:
    started = time.perf_counter()
    written = []
    if args.kind == "family":
        if not args.out_dir:
            raise UsageError("--out-dir DIR is required")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        family = coin_family(args.max_coins)
        for i, member in enumerate(family.members, start=1):
            path = out_dir / f"coins_{i:02d}.bel"
            save_structure(member, path)
            written.append(str(path))
    else:
        if not args.out:
            raise UsageError("--out FILE is required")
        domain, weights = _parse_atoms_weights(args)
        if args.kind == "probability":
            structure = gen_probability(domain, weights)
        elif args.kind == "distorted":
            structure = gen_distorted(domain, weights, args.k)
        else:  # coins
            structure = coin_extend(domain, weights, args.coins).extended
        save_structure(structure, args.out)
        written.append(args.out)
    for path in written:
        print(f"wrote {path}")
    report = {"subcommand": "generate", "kind": args.kind,
              "written": written, "exit_code": EXIT_PASS}
    _emit(report, args.json_path, started, argv)
    return EXIT_PASS


def _cmd_search_min(args, argv) -> int:
    started = time.perf_counter()
    grid = [parse_value(g.strip()) for g in args.grid.split(",") if g.strip()]
    outcome = search_min_counterexample(args.atoms, grid)
    if outcome.hit:
        print(f"counterexample found after {outcome.consistent_candidates} "
              f"consistent candidates")
        if args.out:
            save_structure(outcome.found, args.out)
            print(f"wrote {args.out}")
        exit_code = EXIT_PASS
    else:
        print(f"exhausted: {outcome.consistent_candidates} consistent candidates, "
              f"{outcome.isomorphic_count} isomorphic, "
              f"{outcome.undecided_count} undecided")
        exit_code = EXIT_UNKNOWN
    report = {
        "subcommand": "search-min",
        "atoms": args.atoms,
        "grid": [str(g) for g in outcome.grid],
        "hit": outcome.hit,
        "consistent_candidates": outcome.consistent_candidates,
        "isomorphic": outcome.isomorphic_count,
        "undecided": outcome.undecided_count,
        "out": args.out,
        "exit_code": exit_code,
    }
    _emit(report, args.json_path, started, argv)
    return exit_code


_COMMANDS = {
    "check": _cmd_check,
    "decide": _cmd_decide,
    "audit": _cmd_audit,
    "equations": _cmd_equations,
    "generate": _cmd_generate,
    "search-min": _cmd_search_min,
}


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command builds acyclic tables (parsed lines, value ranks, engine
    instances) that reference counting frees when it returns.  Collections
    in between only rescan them, and a full one also rescans every loaded
    module, numpy above all: tens of milliseconds, landing on whichever
    command happens to cross the allocation threshold.
    The collector is paused before the command allocates anything, so it
    cannot fire inside it.  The argument parser, the one cyclic object
    graph a command used to leave behind, is built once per process
    (`_build_parser`).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    inputs: set[str | None] = set()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (check, decide, audit, "
                             "equations, generate, search-min)")
        inputs = {getattr(args, "file", None), getattr(args, "extension", None)}
        json_path = getattr(args, "json_path", None)
        if json_path and not Path(json_path).parent.is_dir():
            raise UsageError(
                f"cannot write report {json_path}: no directory "
                f"{Path(json_path).parent}"
            )
        return _COMMANDS[args.command](args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # an input file that cannot be read is a parse error; any other
        # file (an output path) is the caller's to fix
        if exc.filename is not None and exc.filename in inputs:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BeliefDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
