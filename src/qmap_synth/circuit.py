"""Gate-level realization of covers and the synthesis pipeline.

Gates live over n data lines plus optional ancilla lines (highest
indices, always 0 at the boundaries).  The internal form allows negative
controls and any control count, so minimized covers map one-to-one onto
gates; two lowering passes bring a circuit into the NOT/CNOT/Toffoli
basis: `lower_polarity` rewrites negative controls as X-conjugation and
`lower_mct` expands wide gates through a compute/uncompute ancilla
sandwich.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Literal, Mapping, NamedTuple, Sequence

from .boolfn import ReversibleFunction
from .cascade import StageOrder, ToggleTable, decompose, find_feasible_order
from .errors import TargetReadWrite, UnloweredMct
from .qmap import (
    Cover,
    CoverMode,
    build_qmap,
    can_avoid_variable,
    minimize_disjoint,
    minimize_esop,
)

__all__ = [
    "GateKind",
    "Control",
    "Gate",
    "Circuit",
    "CostModel",
    "realize_stage",
    "lower_polarity",
    "lower_mct",
    "synthesize",
    "invert",
    "cost",
]


class GateKind(Enum):
    NOT = "x"
    CNOT = "cx"
    TOFFOLI = "ccx"
    MCT = "mct"


class Control(NamedTuple):
    line: int
    positive: bool = True


@dataclass(frozen=True)
class Gate:
    """Controlled bit flip.  The kind is derived: 0/1/2 all-positive
    controls are X/CX/CCX; anything with a negative control or three or
    more controls is the internal MCT form awaiting lowering."""

    target: int
    controls: tuple[Control, ...] = ()

    def __post_init__(self) -> None:
        lines = [c.line for c in self.controls]
        if self.target in lines:
            raise ValueError(f"target line {self.target} is also a control")
        if len(set(lines)) != len(lines):
            raise ValueError(f"duplicate control lines in {lines}")
        if self.target < 0 or any(l < 0 for l in lines):
            raise ValueError("negative line index")

    @property
    def kind(self) -> GateKind:
        if len(self.controls) >= 3 or any(not c.positive for c in self.controls):
            return GateKind.MCT
        return (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)[len(self.controls)]

    @property
    def lines(self) -> tuple[int, ...]:
        return tuple(c.line for c in self.controls) + (self.target,)

    @classmethod
    def x(cls, target: int) -> "Gate":
        return cls(target)

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls(target, (Control(control),))

    @classmethod
    def ccx(cls, c1: int, c2: int, target: int) -> "Gate":
        return cls(target, (Control(c1), Control(c2)))

    @classmethod
    def mct(cls, controls: Iterable[int | tuple[int, bool]],
            target: int) -> "Gate":
        ctl = tuple(Control(*c) if isinstance(c, tuple) else Control(c)
                    for c in controls)
        return cls(target, ctl)


@dataclass(frozen=True)
class Circuit:
    """Ordered gates over data_width lines plus trailing ancilla lines."""

    data_width: int
    ancilla_count: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        width = self.total_width
        for g in self.gates:
            if any(l >= width for l in g.lines):
                raise ValueError(
                    f"gate {g} uses a line >= total width {width}")

    @property
    def total_width(self) -> int:
        return self.data_width + self.ancilla_count

    def __len__(self) -> int:
        return len(self.gates)

    def census(self) -> dict[str, int]:
        counts = {k.value: 0 for k in GateKind}
        for g in self.gates:
            counts[g.kind.value] += 1
        return counts

    def has_mct(self) -> bool:
        return any(g.kind is GateKind.MCT for g in self.gates)


def realize_stage(cover: Cover, target: int, n: int) -> list[Gate]:
    """One gate per cube: the cube's literals become controls with their
    polarities, all writing the stage target."""
    gates = []
    for cube in cover.cubes:
        if cube.width != n:
            raise ValueError(f"cube width {cube.width} != stage width {n}")
        if cube.mask >> target & 1:
            raise TargetReadWrite(target, target)
        controls = tuple(Control(var, pos) for var, pos in cube.literals())
        gates.append(Gate(target, controls))
    return gates


def lower_polarity(gates: Sequence[Gate]) -> list[Gate]:
    """Rewrite negative controls as X-conjugation, then drop X pairs on a
    line with no gate touching that line in between."""
    expanded: list[Gate] = []
    for g in gates:
        neg = sorted(c.line for c in g.controls if not c.positive)
        expanded += [Gate.x(l) for l in neg]
        expanded.append(Gate(g.target, tuple(Control(c.line) for c in g.controls)))
        expanded += [Gate.x(l) for l in reversed(neg)]

    out: list[Gate | None] = []
    pending: dict[int, int] = {}  # line -> index of an unmatched X
    for g in expanded:
        if g.kind is GateKind.NOT:
            l = g.target
            prev = pending.pop(l, None)
            if prev is not None:
                out[prev] = None
                continue
            pending[l] = len(out)
            out.append(g)
        else:
            for l in g.lines:
                pending.pop(l, None)
            out.append(g)
    return [g for g in out if g is not None]


def lower_mct(circuit: Circuit) -> Circuit:
    """Expand every gate with more than two controls into Toffolis via an
    ancilla compute/uncompute sandwich: the two highest-order controls
    are ANDed into an ancilla, and the gate recurses with the ancilla as
    a control.  Ancilla lines are pooled, so a circuit of 3-control gates
    costs one ancilla total; every sandwich restores its ancilla to 0.
    """
    base = circuit.total_width
    free: list[int] = []
    allocated = 0
    out: list[Gate] = []
    for g in circuit.gates:
        if any(not c.positive for c in g.controls):
            raise ValueError("lower_polarity must run before lower_mct")
        if len(g.controls) <= 2:
            out.append(g)
            continue
        # a loop, not a recursive closure: a closure that calls itself is a
        # reference cycle, which keeps `out` alive until the cyclic GC runs
        controls = tuple(c.line for c in g.controls)
        compute: list[Gate] = []
        while len(controls) > 2:
            if not free:
                free.append(base + allocated)
                allocated += 1
            a = free.pop()
            compute.append(Gate.ccx(controls[-2], controls[-1], a))
            controls = controls[:-2] + (a,)
        out += compute + [Gate.mct(controls, g.target)] + compute[::-1]
        free += [c.target for c in compute[::-1]]

    return Circuit(circuit.data_width, circuit.ancilla_count + allocated,
                   tuple(out))


def synthesize(f: ReversibleFunction, *,
               mode: CoverMode | str = CoverMode.ESOP,
               order: StageOrder | str | None = None,
               lower: Literal["none", "toffoli2"] = "toffoli2") -> Circuit:
    """Compile a reversible function to a circuit: decompose into stages,
    minimize each stage's toggle function on its grid, realize the covers
    as gates, and lower to the NOT/CNOT/Toffoli basis.

    The returned circuit's permutation equals f (the test suite checks
    this exhaustively).  Raises CascadeInfeasible/NoFeasibleOrder when no
    stage cascade exists and TargetReadWrite when a stage's toggle
    function cannot avoid reading its own target bit.
    """
    mode = CoverMode(mode) if not isinstance(mode, CoverMode) else mode
    if lower not in ("none", "toffoli2"):
        raise ValueError(f"unknown lowering: {lower!r}")
    if order is None or order == "natural":
        stage_order = StageOrder.natural(f.width)
    elif order == "search":
        stage_order = find_feasible_order(f)
    elif isinstance(order, StageOrder):
        stage_order = order
    else:
        raise ValueError(f"unknown order: {order!r}")

    tables = decompose(f, stage_order)
    gates: list[Gate] = []
    for table in tables:
        gates += _stage_gates(table, mode)
    gates = lower_polarity(gates)
    circuit = Circuit(f.width, 0, tuple(gates))
    if lower == "toffoli2":
        circuit = lower_mct(circuit)
    return circuit


def _stage_gates(table: ToggleTable, mode: CoverMode) -> list[Gate]:
    if table.is_zero():
        return []
    if not can_avoid_variable(table.entries, table.width, table.target):
        raise TargetReadWrite(table.stage, table.target)
    grid = build_qmap(table)
    forbidden = frozenset((table.target,))
    if mode is CoverMode.DISJOINT:
        cover = minimize_disjoint(grid, forbidden=forbidden)
    else:
        cover = minimize_esop(grid, forbidden=forbidden)
    return realize_stage(cover, table.target, table.width)


def invert(c: Circuit) -> Circuit:
    """Reverse the gate order; every basis gate is self-inverse, so this
    is the functional inverse."""
    return Circuit(c.data_width, c.ancilla_count, tuple(reversed(c.gates)))


def _default_weights() -> dict[GateKind, float]:
    return {GateKind.NOT: 1.0, GateKind.CNOT: 1.0, GateKind.TOFFOLI: 5.0}


@dataclass(frozen=True)
class CostModel:
    mode: Literal["count", "weighted"] = "count"
    weights: Mapping[GateKind, float] = field(default_factory=_default_weights)


def cost(c: Circuit, m: CostModel | None = None) -> float:
    """Additive gate cost; plain count, or per-kind weights (which
    requires MCT gates to have been lowered first)."""
    m = m or CostModel()
    if m.mode == "count":
        return float(len(c.gates))
    if c.has_mct():
        raise UnloweredMct("weighted costing needs a lowered circuit")
    return float(sum(m.weights[g.kind] for g in c.gates))
