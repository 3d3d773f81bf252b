"""Basis-state simulation, permutation extraction, equivalence checking.

States are plain bit words (no amplitudes); a gate flips its target iff
every control matches its polarity.  Simulation is bit-sliced: line i is
one int whose bit x is its value for input x, and a gate is one AND over
its control lines (negatives complemented) XORed into its target line.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boolfn import BitWord, ReversibleFunction
from .circuit import Circuit, Gate
from .errors import AncillaNotRestored, LineOutOfRange

__all__ = [
    "Counterexample",
    "apply_gate",
    "run",
    "permutation_of",
    "verify",
]


def _slice(words: Sequence[int], width: int) -> list[int]:
    """Bit-slice words: bit x of line j is bit j of words[x]."""
    bits = np.asarray(words, dtype=np.int64)
    return [int.from_bytes(np.packbits(bits >> j & 1, bitorder="little"),
                           "little") for j in range(width)]


def _word(lines: Sequence[int], x: int) -> int:
    """The word that bit-sliced lines hold for input x."""
    return sum((line >> x & 1) << j for j, line in enumerate(lines))


def _simulate(c: Circuit, inputs: Sequence[int],
              expected: Sequence[int] | None = None
              ) -> tuple[list[int], int | None]:
    """Run c on all inputs at once, ancillas at 0.  Returns the data
    lines and the first input index whose output differs from `expected`
    (or None); a dirty ancilla at or before it raises AncillaNotRestored."""
    n, full = c.data_width, (1 << len(inputs)) - 1
    lines = _slice(inputs, n) + [0] * c.ancilla_count
    for g in c.gates:
        hit = full
        for ctl in g.controls:
            hit &= lines[ctl.line] if ctl.positive else full ^ lines[ctl.line]
        lines[g.target] ^= hit
    faults = lines[n:]
    if expected is not None:
        faults += [a ^ b for a, b in zip(lines, _slice(expected, n))]
    bad = 0
    for line in faults:
        bad |= line
    x = (bad & -bad).bit_length() - 1
    if bad and _word(lines[n:], x):
        raise AncillaNotRestored(inputs[x], _word(lines[n:], x))
    return lines[:n], x if bad else None


def apply_gate(s: BitWord, g: Gate) -> BitWord:
    """Flip the target bit iff every control matches its polarity."""
    if any(l >= s.width for l in g.lines):
        raise LineOutOfRange(f"gate {g} does not fit in {s.width} lines")
    return run(Circuit(s.width, 0, (g,)), s)


def run(c: Circuit, input: BitWord | int) -> BitWord:
    """Apply the circuit to one basis input with ancillas at 0; the data
    lines come back, and a nonzero final ancilla is a hard error."""
    x = input.value if isinstance(input, BitWord) else input
    if isinstance(input, BitWord) and input.width != c.data_width:
        raise ValueError(
            f"input width {input.width} != data width {c.data_width}")
    if not 0 <= x < (1 << c.data_width):
        raise ValueError(f"input {x} does not fit in {c.data_width} bits")
    data, _ = _simulate(c, [x])
    return BitWord(c.data_width, _word(data, 0))


def permutation_of(c: Circuit) -> list[BitWord]:
    """The circuit's action on every data input, in ascending order."""
    n = c.data_width
    data, _ = _simulate(c, range(1 << n))
    return [BitWord(n, _word(data, x)) for x in range(1 << n)]


@dataclass(frozen=True)
class Counterexample:
    input: BitWord
    got: BitWord
    expected: BitWord

    def __str__(self) -> str:
        return (f"input {self.input} -> {self.got}, expected {self.expected}")


def verify(c: Circuit, f: ReversibleFunction) -> Counterexample | None:
    """None when the circuit's permutation equals f; otherwise the first
    mismatching input in ascending order."""
    if c.data_width != f.width:
        raise ValueError(
            f"circuit width {c.data_width} != function width {f.width}")
    n = c.data_width
    data, x = _simulate(c, range(1 << n), f.table)
    if x is None:
        return None
    return Counterexample(BitWord(n, x), BitWord(n, _word(data, x)),
                          BitWord(n, f.table[x]))
