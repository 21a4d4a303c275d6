"""Line-coverage floor for ``src/moqgate``, with nothing beyond pytest.

Runs the tier-1 suite in this process under :func:`sys.settrace`, records
every line of ``src/moqgate`` that runs, and fails when a statement line
never ran, unless an entry of ``ALLOWED`` covers it and gives its reason.
An entry that covers no unrun line fails too, so the list stays exact.

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

_UNREACHABLE_DISCONNECT = (
    "error handling that cannot run: _forget detaches a session before close() "
    "and on every peer close, so no attached session is closed"
)

#: (file, qualified name of the enclosing function or None for the whole
#: file, first line of the statement or ``except`` clause whose lines may
#: stay unrun, reason)
ALLOWED = [
    ("__main__.py", None, None, "runs only as `python -m moqgate`, in a process of its own"),
    ("relay.py", "RelayServer._join", "except DisconnectedError:", _UNREACHABLE_DISCONNECT),
    ("relay.py", "RelayServer._execute", "except DisconnectedError:", _UNREACHABLE_DISCONNECT),
]


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


def allowed_spans(tree: ast.Module, lines: list[str], qualname: str, anchor: str) -> list[range]:
    """Line spans of the statements and ``except`` clauses directly inside
    function ``qualname`` whose first line reads ``anchor``."""
    spans = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                scope == qualname
                and isinstance(child, (ast.stmt, ast.ExceptHandler))
                and lines[child.lineno - 1].strip() == anchor
            ):
                spans.append(range(child.lineno, child.end_lineno + 1))
            visit(child, scope)

    visit(tree, "")
    return spans


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
    for name in {entry[0] for entry in ALLOWED} - {path.name for path in PACKAGE.glob("*.py")}:
        failures.append(f"{name}: allow-list entry for a file that does not exist")
    total = run = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        statements = statement_lines(source, str(path))
        unrun = {line for line in statements if (str(path), line) not in hits}
        total += len(statements)
        run += len(statements) - len(unrun)
        for name, qualname, anchor, reason in ALLOWED:
            if name != path.name:
                continue
            where = f"{name}: {qualname or 'the whole file'}"
            if qualname is None:
                covered = statements
            else:
                spans = allowed_spans(tree, lines, qualname, anchor)
                if len(spans) != 1:
                    failures.append(f"{where}: {anchor!r} starts {len(spans)} statements, not 1")
                    continue
                covered = set(spans[0])
            allowed = unrun & covered
            if not allowed:
                failures.append(f"{where}: the allow-list entry covers no unrun line")
            print(f"allowed: {where}: {len(allowed)} unrun lines: {reason}")
            unrun -= covered
        for line in sorted(unrun):
            failures.append(f"src/moqgate/{path.name}:{line}: never ran: {lines[line - 1].strip()}")
    print(f"line coverage: {run} of {total} statement lines ran ({100 * run / total:.1f}%)")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
