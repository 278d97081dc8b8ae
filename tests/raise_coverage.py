"""List every ``raise`` statement in ``src/`` that the Tier-1 suite never executes.

Run from anywhere, with extra pytest arguments if wanted::

    python tests/raise_coverage.py [pytest args]

It finds the ``raise`` statements with :mod:`ast`, runs the Tier-1 suite
in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) that watches only the files under ``src/``, and
prints each statement none of whose lines ran.  It exits 1 if there is
any, with pytest's exit code if the suite itself fails, else 0.

After that report it prints every executable line of ``src/`` that never
ran: each line that some compiled code object of the file starts an
instruction on.  Those lines do not change the exit code.

Tracing makes the suite about 1.5 times slower.  Pytest does not collect
this file (its name is not ``test_*.py``).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def raise_statements() -> dict[str, list[tuple[int, int]]]:
    """Per source file (real path): the (first, last) line of each ``raise``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        spans = sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                       if isinstance(node, ast.Raise))
        if spans:
            found[os.path.realpath(path)] = spans
    return found


def executable_lines(path: str) -> set[int]:
    """The lines of ``path`` on which its compiled code, nested code included, runs."""
    codes, lines = [compile(Path(path).read_text(), path, "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's RESUME
        codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return lines


def run_traced(pytest_args: list[str], watched: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Runs pytest in process; returns its exit code and the lines run per watched file."""
    import pytest

    ran: dict[str, set[int]] = {}
    real = {}  # co_filename -> the watched real path, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path in watched else None
        if real[name] is None:
            return None
        lines = ran.setdefault(real[name], set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    statements = raise_statements()
    sources = {os.path.realpath(path) for path in SRC.rglob("*.py")}
    code, ran = run_traced(argv, sources)
    if code:
        print(f"the suite failed (pytest exit {code}); raise coverage not reported")
        return code
    unrun = []
    for path, spans in statements.items():
        lines = ran.get(path, set())
        source = Path(path).read_text().splitlines()
        for first, last in spans:
            if not lines.intersection(range(first, last + 1)):
                unrun.append(f"{os.path.relpath(path, ROOT)}:{first}: {source[first - 1].strip()}")
    total = sum(map(len, statements.values()))
    print(f"{len(unrun)} of {total} raise statements in src/ never ran")
    for line in unrun:
        print(line)
    report_lines(sources, ran)
    return 1 if unrun else 0


def report_lines(sources: set[str], ran: dict[str, set[int]]) -> None:
    """Prints each executable line of ``sources`` that is not in ``ran``."""
    unrun, total = [], 0
    for path in sorted(sources):
        lines = executable_lines(path)
        total += len(lines)
        source = Path(path).read_text().splitlines()
        unrun += [f"{os.path.relpath(path, ROOT)}:{n}: {source[n - 1].strip()}"
                  for n in sorted(lines - ran.get(path, set()))]
    print(f"{len(unrun)} of {total} executable lines in src/ never ran")
    for line in unrun:
        print(line)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
