"""Which lines of `src/coxcheck` a pytest run never reaches.

    python scripts/linecov.py [--show] [pytest arguments ...]

Runs pytest in this interpreter under a `sys.settrace` line recorder and
prints, per module, the executable lines it did not run, then the total.
Executable lines are those the compiler gives a line number, so a
docstring or a blank line is never counted.  Lines run in child processes
are not seen.  The trace slows the suite down about three times.  With
`--show`, each module's unreached lines are listed as ranges.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxcheck"


def executable(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    show = "--show" in argv
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    import pytest

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main([a for a in argv if a != "--show"] + ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        lines = executable(path)
        unreached = sorted(lines - seen[name])
        total, missed = total + len(lines), missed + len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(lines)} lines unreached")
        if show and unreached:
            runs, start = [], unreached[0]
            for a, b in zip(unreached, unreached[1:] + [None]):
                if b != a + 1:
                    runs.append(f"{start}" if start == a else f"{start}-{a}")
                    start = b
            print("    " + ", ".join(runs))
    print(f"total: {missed} of {total} executable lines unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
