"""The public names: every name a `qmap_synth` module lists in `__all__`
resolves, so an export left behind by a deleted name fails here rather
than in a user's `from qmap_synth import *`; the package's own list is
pinned, so adding or removing a public name is a reviewed diff; and
every name the benchmark under `bench/` imports from the package
resolves, so a deletion that would break it fails here too."""
import ast
import importlib
import pkgutil
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
