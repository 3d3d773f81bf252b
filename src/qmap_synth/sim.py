"""Basis-state simulation, permutation extraction, equivalence checking.

States are plain bit words (no amplitudes); a gate flips its target iff
every control matches its polarity.  Simulation is bit-sliced: line i is
one int whose bit x is its value for input x, and a gate is one AND over
its control lines (negatives complemented) XORed into its target line.
The data lines start as the identity's slices, masks that need no
transpose, and `verify` compares them with the function's output slices
(`ReversibleFunction.slices`), so no table is walked input by input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .boolfn import ReversibleFunction, _clear
from .circuit import Circuit, GateKind
from .errors import AncillaNotRestored

__all__ = [
    "Counterexample",
    "run",
    "permutation_of",
    "verify",
]


def _word(lines: Sequence[int], x: int) -> int:
    """The word that bit-sliced lines hold for input x."""
    return sum((line >> x & 1) << j for j, line in enumerate(lines))


def _simulate(c: Circuit, x: int | None = None,
              expected: Sequence[int] | None = None
              ) -> tuple[list[int], int | None]:
    """Run c with ancillas at 0 on input x, or on every input at once
    when x is None, bit y of data line j then starting as bit j of y.
    Returns the data lines and the first input whose output differs
    from the slices `expected` (or None); a dirty ancilla at or before
    it raises AncillaNotRestored."""
    n = c.data_width
    if x is None:
        full = (1 << (1 << n)) - 1
        lines = [full ^ _clear(n, 1 << j) for j in range(n)]
    else:
        full = 1
        lines = [x >> j & 1 for j in range(n)]
    lines += [0] * c.ancilla_count
    # every line stays within `full`, so positive controls need no mask;
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
            hit = full
            for ctl in g.controls:
                hit &= lines[ctl.line] if ctl.positive else full ^ lines[ctl.line]
            lines[g.target] ^= hit
    faults = lines[n:]
    if expected is not None:
        faults += [a ^ b for a, b in zip(lines, expected)]
    bad = 0
    for line in faults:
        bad |= line
    i = (bad & -bad).bit_length() - 1
    if bad and _word(lines[n:], i):
        raise AncillaNotRestored(i if x is None else x, _word(lines[n:], i))
    return lines[:n], i if bad else None


def run(c: Circuit, x: int) -> int:
    """Apply the circuit to one basis input with ancillas at 0; the data
    lines come back, and a nonzero final ancilla is a hard error."""
    if not 0 <= x < (1 << c.data_width):
        raise ValueError(f"input {x} does not fit in {c.data_width} bits")
    data, _ = _simulate(c, x)
    return _word(data, 0)


def permutation_of(c: Circuit) -> list[int]:
    """The circuit's action on every data input, in ascending order."""
    n = c.data_width
    data, _ = _simulate(c)
    return [_word(data, x) for x in range(1 << n)]


@dataclass(frozen=True)
class Counterexample:
    """A mismatching input; its words print as `width` bits, MSB first."""

    width: int
    input: int
    got: int
    expected: int

    def __str__(self) -> str:
        fmt = f"0{self.width}b"
        return (f"input {self.input:{fmt}} -> {self.got:{fmt}}, "
                f"expected {self.expected:{fmt}}")


def verify(c: Circuit, f: ReversibleFunction) -> Counterexample | None:
    """None when the circuit's permutation equals f; otherwise the first
    mismatching input in ascending order."""
    if c.data_width != f.width:
        raise ValueError(
            f"circuit width {c.data_width} != function width {f.width}")
    n = c.data_width
    data, x = _simulate(c, expected=f.slices)
    if x is None:
        return None
    return Counterexample(n, x, _word(data, x), f.table[x])
