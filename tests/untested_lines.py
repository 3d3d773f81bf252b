"""List the statements of the library that no test executes.

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src python tests/untested_lines.py

It runs pytest from the repository root, on its `testpaths` (tests/)
unless arguments name other targets, under a `sys.settrace` and
`threading.settrace` line tracer that follows only the frames of files
under src/qmap_synth.  Then, with `ast`, it prints `file:line: source`
for each statement inside a function, docstrings excluded, whose first
line no test reached.  Tracing makes the suite about three times
slower, so CI does not run it.  The tracer marks each line it sees in a
bytearray made per file before the run, so it allocates nothing that
the suite's tracemalloc checks could count.  It exits with pytest's
status.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmap_synth"


def statements(body: list[ast.stmt]) -> list[ast.stmt]:
    """The statements of a block and of every block nested in it, but
    not the bodies of functions and classes defined in it."""
    out = []
    for stmt in body:
        if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
            out.append(stmt)  # those two run no code
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        blocks = [getattr(stmt, field, [])
                  for field in ("body", "orelse", "finalbody")]
        blocks += [part.body for part in (*getattr(stmt, "handlers", ()),
                                          *getattr(stmt, "cases", ()))]
        for block in blocks:
            out.extend(statements(block))
    return out


def function_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement inside a function, but its docstring."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            out.extend(statements(body))
    return out


def main(argv: list[str]) -> int:
    texts = {str(p): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}
    # path -> one byte per line, set when the line ran
    hits = {path: bytearray(text.count("\n") + 2)
            for path, text in texts.items()}

    def line_tracer(seen: bytearray):
        def trace(frame, event, arg):
            if event == "line":
                seen[frame.f_lineno] = 1
            return trace
        return trace

    tracers = {path: line_tracer(seen) for path, seen in hits.items()}
    by_name: dict[str, object] = {}  # co_filename -> its tracer or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = tracers.get(os.path.realpath(name))
        return by_name[name]

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    for path, text in texts.items():
        lines = text.splitlines()
        for stmt in sorted(function_statements(ast.parse(text)),
                           key=lambda s: s.lineno):
            if not hits[path][stmt.lineno]:
                print(f"{Path(path).relative_to(ROOT)}:{stmt.lineno}: "
                      f"{lines[stmt.lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
