"""List the statements of the library that no test executes, or that
the benchmark's traffic never reaches.

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src python tests/untested_lines.py
    PYTHONPATH=src python tests/untested_lines.py --traffic

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

With --traffic it runs no test.  In their place, each seed-1 batch of
the benchmark's workloads goes through `compile_table` and
`staged_compile` (imported from bench/pipeline.py), and then the
command set of CI's command-line smoke test through `cli.main`, in
process and on the same small tables.  The seeded width-14 and
width-16 tables are left out, since the tracer makes them take
minutes.  The statements printed then are those that real use of the
library never runs: refusal paths, and code that only tests call.  It
exits 1 if a command's exit code is not the one CI expects.
"""
from __future__ import annotations

import ast
import os
import random
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
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


def traffic() -> int:
    """Run the benchmark's seed-1 batches and CI's smoke commands; 1 if
    a command exits with a code CI does not expect."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    from conftest import bit_swap_function
    from pipeline import Tracer, compile_table, staged_compile
    from workloads import WORKLOADS, make_batch

    from qmap_synth import (
        ReversibleFunction,
        gray_to_binary_function,
        identity_function,
        render_truth_table,
    )
    from qmap_synth.cli import main as cli

    for w in WORKLOADS.values():
        tr = Tracer()
        for item in make_batch(w, 1):
            compile_table(item.text, w.mode, w.order)
            staged_compile(item.text, w.mode, w.order, tr)

    status = 0
    with tempfile.TemporaryDirectory() as tmp, \
            open(os.devnull, "w", encoding="utf-8") as null:
        def path(name: str) -> str:
            return os.path.join(tmp, name)

        tables = {f"gray{n}": gray_to_binary_function(n)
                  for n in (4, 5, 6, 10)}
        tables["id4"] = identity_function(4)
        tables["swap2"] = ReversibleFunction(2, (0, 2, 1, 3))
        tables["not1"] = ReversibleFunction(1, (1, 0))
        tables["swap16"] = bit_swap_function(16, 15, 14)
        for name, f in tables.items():
            with open(path(f"{name}.tt"), "w", encoding="utf-8") as out:
                out.write(render_truth_table(f))
        # gray4 with a comment line and its rows shuffled: read by lines
        head, *rows = render_truth_table(tables["gray4"]).splitlines()
        random.Random(4).shuffle(rows)
        with open(path("gray4-lines.tt"), "w", encoding="utf-8") as out:
            out.write("\n".join(["# gray4, rows shuffled", head, *rows]))
        with open(path("wide.qasm"), "w", encoding="utf-8") as out:
            out.write('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                      "qreg q[999999999];\n")
        gray4, gray4_qasm = path("gray4.tt"), path("gray4.qasm")
        runs = [
            (["synth", "--input", gray4, "--out", gray4_qasm], 0),
            (["verify", "--input", gray4, "--circuit", gray4_qasm], 0),
            (["synth", "--input", path("gray4-lines.tt")], 0),
            (["synth", "--input", gray4, "--diagram"], 0),
            (["show", "--input", gray4, "--stage", "1", "--overlay"], 0),
            (["show", "--input", gray4, "--stage", "1", "--overlay",
              "--mode", "disjoint"], 0),
            (["show", "--input", gray4, "--stage", "1", "--order", "search",
              "--overlay"], 0),
            (["show", "--input", path("gray5.tt"), "--stage", "1"], 0),
            (["show", "--input", path("not1.tt"), "--stage", "0",
              "--overlay"], 0),
            (["export", "--circuit", gray4_qasm, "--out",
              path("gray4-export.qasm")], 0),
            (["cost", "--circuit", gray4_qasm, "--cost", "weighted"], 0),
            (["verify", "--input", gray4, "--circuit", path("wide.qasm")], 2),
            (["verify", "--input", path("id4.tt"), "--circuit", gray4_qasm],
             5),
            (["synth", "--input", path("swap2.tt")], 3),
            (["synth", "--input", path("swap2.tt"), "--order", "search"], 3),
            (["synth", "--input", path("swap16.tt"), "--order", "search"], 3),
        ]
        for order in ("natural", "search"):
            runs.append((["show", "--input", path("swap2.tt"), "--stage", "7",
                          "--order", order], 2))
        for mode in ("disjoint", "esop"):
            runs.append((["show", "--input", path("gray6.tt"), "--stage", "2",
                          "--overlay", "--mode", mode], 0))
            for n in (6, 10):
                qasm = path(f"gray{n}-{mode}.qasm")
                runs.append((["synth", "--input", path(f"gray{n}.tt"),
                              "--mode", mode, "--out", qasm], 0))
                runs.append((["verify", "--input", path(f"gray{n}.tt"),
                              "--circuit", qasm], 0))
        for argv, expected in runs:
            with redirect_stdout(null), redirect_stderr(null):
                code = cli(argv)
            if code != expected:
                print(f"{' '.join(argv)}: exit {code}, expected {expected}",
                      file=sys.stderr)
                status = 1
    return status


def main(argv: list[str]) -> int:
    traffic_only = argv[:1] == ["--traffic"]
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
        status = traffic() if traffic_only else pytest.main(
            ["-q", "--continue-on-collection-errors", *argv])
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
