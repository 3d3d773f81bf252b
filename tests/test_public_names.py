"""The public names: every name a `qmap_synth` module lists in `__all__`
resolves, so an export left behind by a deleted name fails here rather
than in a user's `from qmap_synth import *`; the package's own list is
pinned, so adding or removing a public name is a reviewed diff; and
every name the benchmark under `bench/` imports from the package
resolves, so a deletion that would break it fails here too.  Importing
the package and its command line loads neither `dataclasses`, `inspect`
nor numpy, each of which would add to every CLI call's start-up."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qmap_synth

MODULES = ["qmap_synth"] + [
    f"qmap_synth.{info.name}"
    for info in pkgutil.iter_modules(qmap_synth.__path__)
    if info.name != "__main__"]

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC = [
    "errors",
    "ReversibleFunction",
    "gray_to_binary_function",
    "identity_function",
    "is_bijective",
    "parse_truth_table",
    "render_truth_table",
    "StageOrder",
    "ToggleTable",
    "decompose",
    "find_feasible_order",
    "Circuit",
    "Control",
    "CostModel",
    "Gate",
    "GateKind",
    "cost",
    "lower_mct",
    "lower_polarity",
    "realize_stage",
    "synthesize",
    "export_qasm",
    "parse_qasm",
    "split_ancillas",
    "Cover",
    "CoverMode",
    "Cube",
    "build_qmap",
    "minimize_disjoint",
    "minimize_esop",
    "Counterexample",
    "verify",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_are_pinned():
    assert qmap_synth.__all__ == PUBLIC


def bench_imports():
    """(file, module, name) for every `from qmap_synth[.module] import
    name` in bench/*.py, function-local imports included."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "qmap_synth":
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


def test_bench_imports_resolve():
    imports = bench_imports()
    # check_outcomes in bench/run.py imports inside the function
    assert ("run.py", "qmap_synth", "GateKind") in imports
    missing = [(file, module, name) for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_import_loads_no_heavy_modules():
    # -S: no site hooks, so only what the package imports is loaded
    code = ("import sys, qmap_synth, qmap_synth.cli; print(*sorted("
            "{'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(qmap_synth.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
