"""Reversible-logic synthesis via Gray-labelled toggle maps.

Compiles a bijective truth table into a NOT/CNOT/Toffoli circuit: the
function is decomposed into single-target stages, each stage's toggle
is covered as a disjoint SOP or an ESOP (exact for n <= 4 bits), and
one loop emits the cubes as gates of the two-control basis; `show`
draws the Gray-labelled map.  A simulator verifies every result.
"""
from . import errors
from .boolfn import (
    ReversibleFunction,
    gray_to_binary_function,
    identity_function,
    is_bijective,
    parse_truth_table,
    render_truth_table,
)
from .cascade import StageOrder, ToggleTable, decompose, find_feasible_order
from .circuit import (
    Circuit,
    Control,
    CostModel,
    Gate,
    GateKind,
    cost,
    lower_mct,
    lower_polarity,
    realize_stage,
    synthesize,
)
from .qasm import export_qasm, parse_qasm, split_ancillas
from .qmap import (
    Cover,
    CoverMode,
    Cube,
    build_qmap,
    minimize_disjoint,
    minimize_esop,
)
from .sim import Counterexample, verify

__version__ = "0.1.0"

__all__ = [
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
