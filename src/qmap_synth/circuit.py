"""Gate-level realization of covers and the synthesis pipeline.

Gates live over n data lines plus optional ancilla lines (highest
indices, always 0 at the boundaries).  `synthesize` emits the
NOT/CNOT/Toffoli circuit of the stage covers in one loop: each cube is
an X per negative literal around a CX, a CCX or, for three or more
literals, a compute/uncompute ancilla sandwich whose i-th Toffoli always
computes into ancilla line i (a constant-1 cube is an X on the target),
and an X pair on a line with no gate touching it in between is dropped.
The public passes build the same circuit step by step, through an
internal gate form that allows negative controls and any control count:
`realize_stage` maps each cube to one such gate, `lower_polarity`
rewrites negative controls as X conjugation and drops the X pairs, and
`lower_mct` expands the wide gates into sandwiches.  Outside the passes,
`verify`, `export_qasm` and weighted `cost` refuse that form
(UnloweredMct).  Every gate is its own inverse, so a circuit's gates in
reverse order are its inverse.

`synthesize` draws its gates from one pool that lasts for the process,
so each distinct X, CX and CCX gate, each run of X gates on a cube's
negative lines (the gates themselves, each read for its line as its
target) and each compute chain is built once per process, not once per
call, and equal gates from two calls are one object.  Only
`_emit` uses the pool, because its lines are below n + depth <= 29
(n <= 16).  Its keys are finite: a gate by its lines, each below 29; a
chain by the width n and the mask of control lines above a cube's
lowest, at most 2^(n-1) - 1 masks per width; and an X run by its mask
of lines, at most 2^16 - 1.  Filling every key (tracemalloc) holds
10.5 MB of chains at n = 16 and 20.6 MB over all widths, plus 11.5 MB
of X runs: 32 MB in all, the worst case.  One seeded n = 16 synth comes
near it: 30.5k chains in ESOP mode, 42.5k X runs in disjoint mode, and
about 1.2k CCX gates in either.  The passes and `parse_qasm` build
their gates per call, because their line numbers come from the caller
(`parse_qasm` allows 64 lines, a hand-built `Circuit` any), and a
process-wide pool keyed by them could grow without bound.
"""
from __future__ import annotations

from enum import Enum
from functools import cache
from operator import attrgetter
from types import MappingProxyType
from typing import (Callable, ClassVar, Iterable, Literal, Mapping,
                    NamedTuple, Sequence)

from ._value import Value
from .boolfn import ReversibleFunction
from .cascade import StageOrder, _cascade
from .errors import UnloweredMct
from .qmap import Cover, CoverMode, _stage_terms

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


class Gate(Value):
    """Controlled bit flip.  The kind is derived: 0/1/2 all-positive
    controls are X/CX/CCX; anything with a negative control or three or
    more controls is the internal MCT form awaiting lowering, which only
    the step-by-step passes build.  `kind`, `lines` (controls, then
    target) and `_qasm` (the OpenQASM line, None for an MCT gate) are
    computed at construction; none of them takes part in ==, hash or
    repr."""

    _fields = ("target", "controls")
    __slots__ = _fields + ("kind", "lines", "_qasm")
    kind: GateKind
    lines: tuple[int, ...]
    _qasm: str | None

    def __init__(self, target: int,
                 controls: tuple[Control, ...] = ()) -> None:
        # each Control is a (line, positive) pair
        ctl, pos = zip(*controls) if controls else ((), ())
        lines = ctl + (target,)
        if len(set(lines)) != len(lines):
            if target in ctl:
                raise ValueError(f"target line {target} is also a control")
            raise ValueError(f"duplicate control lines in {list(ctl)}")
        if min(lines) < 0:
            raise ValueError("negative line index")
        if len(ctl) < 3 and all(pos):
            kind = (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)[len(ctl)]
            qasm = (f"{kind.value} "
                    + ",".join(f"q[{a}]" for a in lines) + ";")
        else:
            kind, qasm = GateKind.MCT, None
        self._init(target, controls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "_qasm", qasm)

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
    def mct(cls, controls: Iterable[int], target: int) -> "Gate":
        return cls(target, tuple(map(Control, controls)))


class Circuit(Value):
    """Ordered gates over data_width >= 1 lines plus ancilla_count >= 0
    trailing ancilla lines."""

    __slots__ = _fields = ("data_width", "ancilla_count", "gates")

    def __init__(self, data_width: int, ancilla_count: int,
                 gates: tuple[Gate, ...]) -> None:
        if data_width < 1:
            raise ValueError(f"data width {data_width} < 1")
        if ancilla_count < 0:
            raise ValueError(f"ancilla count {ancilla_count} < 0")
        self._init(data_width, ancilla_count, gates)
        width = self.total_width
        for g in gates:
            if max(g.lines) >= width:
                raise ValueError(
                    f"gate {g} uses a line >= total width {width}")

    @classmethod
    def _unchecked(cls, data_width: int, ancilla_count: int,
                   gates: tuple[Gate, ...]) -> "Circuit":
        """The circuit without the public constructor's checks, for
        callers whose counts are possible and whose lines are known to
        fit: `_emit`'s are below n + depth by construction, `parse_qasm`
        refuses a qreg below 1 line and an operand past it, and
        `split_ancillas` keeps a circuit's total width and refuses a
        data width outside [1, total width]."""
        c = object.__new__(cls)
        c._init(data_width, ancilla_count, gates)
        return c

    @property
    def total_width(self) -> int:
        return self.data_width + self.ancilla_count

    def __len__(self) -> int:
        return len(self.gates)

    def census(self) -> dict[str, int]:
        return {k.value: n for k, n in _kind_counts(self.gates).items()}


def realize_stage(cover: Cover, target: int, n: int) -> list[Gate]:
    """One gate per cube: the cube's literals become controls with their
    polarities, lowest variable first, all writing the stage target.
    Raises ValueError at the first cube that is not n wide or reads the
    target."""
    gates = []
    for cube in cover.cubes:
        if cube.width != n:
            raise ValueError(f"cube width {cube.width} != stage width {n}")
        if cube.mask >> target & 1:
            raise ValueError(f"the cover reads its target line {target}")
        gates.append(Gate(target, tuple(
            Control(var, cube.value >> var & 1 == 1)
            for var in _bits(cube.mask))))
    return gates


def lower_polarity(gates: Sequence[Gate]) -> list[Gate]:
    """Rewrite negative controls as X-conjugation, then drop X pairs on a
    line with no gate touching that line in between."""
    flip = cache(Gate.x)
    out: list[Gate | None] = []
    pending: dict[int, int] = {}  # line -> index of an unmatched X

    def x(line: int) -> None:  # cancel an unmatched X on line, or pend
        prev = pending.pop(line, None)
        if prev is None:
            pending[line] = len(out)
            out.append(flip(line))
        else:
            out[prev] = None

    for g in gates:
        if g.kind is GateKind.NOT:
            x(g.target)
            continue
        neg = sorted(c.line for c in g.controls if not c.positive)
        if neg:
            g = Gate.mct(g.lines[:-1], g.target)
        for line in neg:
            x(line)
        for line in g.lines:  # the gate reads its X-conjugated lines too
            pending.pop(line, None)
        out.append(g)
        for line in reversed(neg):
            x(line)
    return [g for g in out if g is not None]


def lower_mct(circuit: Circuit) -> Circuit:
    """Expand every gate with more than two controls into Toffolis via an
    ancilla compute/uncompute sandwich: the two highest-order controls
    are ANDed into an ancilla, and the gate recurses with the ancilla as
    a control.  Every sandwich restores its ancillas to 0, so the i-th
    compute Toffoli of every sandwich uses ancilla line total_width + i:
    a circuit of 3-control gates costs one ancilla total, and a gate of
    k controls needs k - 2.
    """
    base = circuit.total_width
    ccx = cache(Gate.ccx)
    out: list[Gate] = []
    depth = 0  # the longest compute chain, so the ancillas it needs
    for g in circuit.gates:
        if g.kind is not GateKind.MCT:
            out.append(g)
            continue
        if not all(c.positive for c in g.controls):
            raise ValueError("lower_polarity must run before lower_mct")
        compute, acc, uncompute = _chain(g.lines[1:-1], base, ccx)
        depth = max(depth, len(compute))
        out += compute
        out.append(ccx(g.lines[0], acc, g.target))
        out += uncompute
    return Circuit(circuit.data_width, circuit.ancilla_count + depth,
                   tuple(out))


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def synthesize(f: ReversibleFunction, *,
               mode: CoverMode | str = CoverMode.ESOP,
               order: StageOrder | str | None = None) -> Circuit:
    """Compile a reversible function to a NOT/CNOT/Toffoli circuit:
    decompose into stages, minimize each stage's toggle function over the
    n - 1 bits other than its target, and emit each cover's cubes
    straight as lowered gates.

    Each stage is one truth-vector int from the decomposition to the
    gate loop, covered by `qmap._stage_terms`, which picks the core and
    the exact path as `minimize_*` do.  The gates are
    those of `decompose`, `minimize_*` with the target forbidden,
    `realize_stage` over the nonzero stages, then `lower_polarity`,
    then `lower_mct`, byte for byte (the test suite
    holds the two forms to each other), and the returned circuit's
    permutation equals f (checked exhaustively).  `order` takes
    `decompose`'s values, and its stages come from one walk, so a
    searched synthesis walks once.  Raises
    CascadeInfeasible/NoFeasibleOrder when no stage cascade exists.
    """
    mode = CoverMode(mode)
    n = f.width
    return _emit(n, ((target, _stage_terms(mode, toggle, n, target))
                     for target, toggle in _cascade(f, order) if toggle))


def _emit(n: int,
          stages: Iterable[tuple[int, Sequence[tuple[int, int]]]]) -> Circuit:
    """The lowered circuit of (target, cover) stages over n data lines,
    each cover a list of (mask, value) cubes over the n - 1 lines other
    than its target (variable j is line j + (j >= target)), in one pass
    over the cubes: each cube is its X conjugation around its CX, CCX or
    ancilla sandwich (a constant-1 cube is an X on the target), and an X
    cancels an unmatched X on its line with no gate touching that line
    in between, as in `lower_polarity`.  A sandwich's compute chain
    depends only on the controls above its lowest one.

    The gates, the X runs (keyed by line mask, each its X gates lowest
    line first, so a gate's line is its `target`) and the chains (keyed
    by n and line mask) come from the process-wide pool, so each is built
    once per process; its lines stay below n + depth <= 29, and every
    key filled holds 32 MB, 20.6 MB of it chains (see the module
    docstring).  The output list, the unmatched X's and the ancilla
    count belong to the call: the count is the longest chain this call
    used, whether or not the pool already held it.  Its lines are in
    range by construction, so the circuit is built without the public
    constructor's walk over the gates."""
    chains = _CHAINS.setdefault(n, {})
    out: list[Gate | None] = []
    at = [0] * n  # line -> index of its unmatched X, when it has one
    pending = 0  # the lines with an unmatched X
    depth = 0  # the longest compute chain, so the ancillas it needs
    for target, cubes in stages:
        tbit = 1 << target
        high = -tbit  # variables at or above the target move up a line
        for mask, value in cubes:
            if not mask:
                if pending & tbit:
                    out[at[target]] = None
                else:
                    at[target] = len(out)
                    out.append(_x(target))
                pending ^= tbit
                continue
            lines = mask + (mask & high)
            neg = mask & ~value
            if neg:
                neg += neg & high
                xs = _FLIPS.get(neg)
                if xs is None:
                    xs = _FLIPS[neg] = tuple(map(_x, _bits(neg)))
                # an X before the body cancels an unmatched X on its line;
                # one that does not is consumed by the body at once
                for x in xs:
                    if pending >> x.target & 1:
                        out[at[x.target]] = None
                    else:
                        out.append(x)
            pending &= ~(lines | tbit)
            low = lines & -lines
            rest = lines ^ low
            if rest:
                chain = chains.get(rest)
                if chain is None:
                    chain = chains[rest] = _chain(_bits(rest), n, _ccx)
                compute, acc, uncompute = chain
                if len(compute) > depth:
                    depth = len(compute)
                out += compute
                out.append(_ccx(low.bit_length() - 1, acc, target))
                out += uncompute
            else:
                out.append(_cx(low.bit_length() - 1, target))
            if neg:
                for x in reversed(xs):
                    at[x.target] = len(out)
                    out.append(x)
                pending |= neg
    # gates are truthy
    return Circuit._unchecked(n, depth, tuple(filter(None, out)))


# The process-wide pool of `_emit` (see the module docstring): the X, CX
# and CCX gates; each negative-line mask's X gates, lowest line first;
# and, per width n, each mask of control lines above a cube's lowest ->
# (compute Toffolis, the line that holds their AND, the uncompute
# Toffolis).
_x, _cx, _ccx = cache(Gate.x), cache(Gate.cx), cache(Gate.ccx)
_FLIPS: dict[int, tuple[Gate, ...]] = {}
_CHAINS: dict[int, dict[int, tuple[tuple[Gate, ...], int,
                                   tuple[Gate, ...]]]] = {}


def _chain(controls: Sequence[int], base: int,
           ccx: Callable[[int, int, int], Gate]
           ) -> tuple[tuple[Gate, ...], int, tuple[Gate, ...]]:
    """The compute Toffolis of the ancilla sandwich of a gate whose
    controls are `controls` and one below them (the i-th ANDs the next
    control down into ancilla line base + i), the line holding the AND
    of `controls` after them, and the uncompute Toffolis."""
    acc = controls[-1]
    compute: list[Gate] = []
    for i, c in enumerate(reversed(controls[:-1])):
        compute.append(ccx(c, acc, base + i))
        acc = base + i
    return tuple(compute), acc, tuple(reversed(compute))


def _kind_counts(gates: Sequence[Gate]) -> dict[GateKind, int]:
    """Gates per kind.  `list.count` matches members by identity, so no
    Python-level `Enum.__hash__` or `.value` runs per gate."""
    kinds = list(map(attrgetter("kind"), gates))
    return {k: kinds.count(k) for k in GateKind}


class CostModel(Value):
    __slots__ = _fields = ("mode",)
    # the per-kind cost of the weighted mode
    weights: ClassVar[Mapping[GateKind, float]] = MappingProxyType(
        {GateKind.NOT: 1.0, GateKind.CNOT: 1.0, GateKind.TOFFOLI: 5.0})

    def __init__(self, mode: Literal["count", "weighted"] = "count") -> None:
        if mode not in ("count", "weighted"):
            raise ValueError(f"unknown cost mode: {mode!r}")
        self._init(mode)


def cost(c: Circuit, m: CostModel | None = None) -> float:
    """Additive gate cost; plain count, or per-kind weights (which
    requires MCT gates to have been lowered first)."""
    m = m or CostModel()
    if m.mode == "count":
        return float(len(c.gates))
    counts = _kind_counts(c.gates)
    if counts[GateKind.MCT]:
        raise UnloweredMct("weighted costing needs a lowered circuit")
    return float(sum(m.weights[k] * n for k, n in counts.items() if n))
