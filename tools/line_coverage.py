"""Line-coverage floor for ``src/moqgate``, with nothing beyond pytest.

Runs the tier-1 suite in this process under :func:`sys.settrace`, records
every line of ``src/moqgate`` that runs, and fails when a statement line
never ran, unless ``ALLOWED`` names its file and gives the reason.  A
named file with no unrun line fails too, so the list stays exact.

A statement counts by the line it starts on, and an ``if``, ``elif`` or
``while`` by the line its test starts on.  Statements that compile to no
code (``nonlocal``, a function's docstring) do not count.

Two tests bound a wall-clock time.  ``TestRunCheckCost`` compares two
parsers' best times and is deselected, since tracing slows the code it
times several-fold.  ``test_criterion_1`` must simulate
``paper_replication`` in under 5 s; traced, under ``-X dev``, it takes
about 0.5 s on a 2-vCPU VM, so it stays.  Hypothesis runs at a fixed seed, so
a line that only a lucky random example reaches cannot pass one run and
fail the next.

Usage, from the repository root (the CLI tests start ``python -m moqgate``
in subprocesses, which find the package through ``PYTHONPATH``)::

    PYTHONPATH=src python -X dev tools/line_coverage.py
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moqgate"

#: file whose lines may stay unrun -> reason
ALLOWED = {
    "__main__.py": "runs only as `python -m moqgate`, in a process of its own",
}


def statement_lines(source: str, filename: str) -> set[int]:
    """The lines a statement starts on that carry code."""
    code_lines: set[int] = set()
    stack = [compile(source, filename, "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.If, ast.While)):
            lines.add(node.test.lineno)
        elif isinstance(node, ast.stmt):
            lines.add(node.lineno)
    return lines & code_lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest under a line tracer; return its exit status and the
    (file, line) pairs of ``src/moqgate`` that ran."""
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, hits = run_traced(
        [
            "-q",
            "-p",
            "no:cacheprovider",
            "--hypothesis-seed=0",
            "--deselect",
            "tests/test_framing.py::TestRunCheckCost",
        ]
    )
    imported = Path(sys.modules["moqgate"].__file__).resolve().parent
    if imported != PACKAGE:
        print(f"line coverage: the suite imported moqgate from {imported}, not {PACKAGE}")
        return 1

    failures = [] if status == 0 else [f"the traced suite failed (pytest exit status {status})"]
    for name in ALLOWED.keys() - {path.name for path in PACKAGE.glob("*.py")}:
        failures.append(f"{name}: allow-list entry for a file that does not exist")
    total = run = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        statements = statement_lines(source, str(path))
        unrun = {line for line in statements if (str(path), line) not in hits}
        total += len(statements)
        run += len(statements) - len(unrun)
        if path.name in ALLOWED:
            if not unrun:
                failures.append(f"{path.name}: the allow-list entry covers no unrun line")
            print(f"allowed: {path.name}: {len(unrun)} unrun lines: {ALLOWED[path.name]}")
            unrun = set()
        for line in sorted(unrun):
            failures.append(f"src/moqgate/{path.name}:{line}: never ran: {lines[line - 1].strip()}")
    print(f"line coverage: {run} of {total} statement lines ran ({100 * run / total:.1f}%)")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
