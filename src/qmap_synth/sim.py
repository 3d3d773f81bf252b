"""Basis-state simulation and equivalence checking of lowered circuits.

States are plain bit words (no amplitudes); a gate flips its target iff
every control is 1.  Simulation is bit-sliced: line i is one int whose
bit x is its value for input x, and an X, CX or CCX gate XORs all ones,
its control line or the AND of its two control lines into its target
line.  A gate of the internal MCT form (a negative control, or three or
more controls) is refused with UnloweredMct, as `export_qasm` and
weighted `cost` refuse it.  `verify` runs every input at once: the data lines start as the
identity's slices, masks that need no transpose, and end compared with
the function's output slices (`ReversibleFunction.slices`), so no table
is walked input by input.
"""
from __future__ import annotations

from typing import Sequence

from ._value import Value
from .boolfn import ReversibleFunction, _clear
from .circuit import Circuit, GateKind
from .errors import AncillaNotRestored, UnloweredMct

__all__ = [
    "Counterexample",
    "verify",
]


def _word(lines: Sequence[int], x: int) -> int:
    """The word that bit-sliced lines hold for input x."""
    return sum((line >> x & 1) << j for j, line in enumerate(lines))


def _simulate(c: Circuit, expected: Sequence[int]
              ) -> tuple[list[int], int | None]:
    """Run c with ancillas at 0 on every input at once, bit y of data
    line j starting as bit j of y.  Returns the data lines and the first
    input whose output differs from the slices `expected` (or None); a
    dirty ancilla at or before it raises AncillaNotRestored, and an MCT
    gate raises UnloweredMct."""
    n = c.data_width
    full = (1 << (1 << n)) - 1
    lines = [full ^ _clear(n, 1 << j) for j in range(n)]
    lines += [0] * c.ancilla_count
    # every line stays within `full`, so a control needs no mask;
    # enum members as locals: a member lookup costs ten times as much
    not_, cnot, toffoli = GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI
    for g in c.gates:
        kind = g.kind
        if kind is toffoli:
            a, b, t = g.lines
            lines[t] ^= lines[a] & lines[b]
        elif kind is not_:
            lines[g.target] ^= full
        elif kind is cnot:
            a, t = g.lines
            lines[t] ^= lines[a]
        else:
            raise UnloweredMct(
                f"gate {g} must be lowered before simulation")
    faults = lines[n:] + [a ^ b for a, b in zip(lines, expected)]
    bad = 0
    for line in faults:
        bad |= line
    i = (bad & -bad).bit_length() - 1
    if bad and _word(lines[n:], i):
        raise AncillaNotRestored(i, _word(lines[n:], i))
    return lines[:n], i if bad else None


class Counterexample(Value):
    """A mismatching input; its words print as `width` bits, MSB first."""

    __slots__ = _fields = ("width", "input", "got", "expected")

    def __init__(self, width: int, input: int, got: int,
                 expected: int) -> None:
        self._init(width, input, got, expected)

    def __str__(self) -> str:
        fmt = f"0{self.width}b"
        return (f"input {self.input:{fmt}} -> {self.got:{fmt}}, "
                f"expected {self.expected:{fmt}}")


def verify(c: Circuit, f: ReversibleFunction) -> Counterexample | None:
    """None when the lowered circuit's permutation equals f; otherwise
    the first mismatching input in ascending order.  Raises UnloweredMct,
    naming the first MCT gate, on a circuit that holds one."""
    if c.data_width != f.width:
        raise ValueError(
            f"circuit width {c.data_width} != function width {f.width}")
    n = c.data_width
    data, x = _simulate(c, f.slices)
    if x is None:
        return None
    return Counterexample(n, x, _word(data, x), f.table[x])
