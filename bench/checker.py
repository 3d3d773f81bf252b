"""Independent check of exported circuits.

The benchmark never trusts the compiler's own `sim.verify`: it reads the
QASM text with its own parser and simulates all 2^n data inputs at once
with numpy, ancillas starting at 0.  A circuit passes when every data
output equals the source table and every ancilla is back at 0.
"""
from __future__ import annotations

import re

import numpy as np

_HEADER = ("OPENQASM 2.0;", 'include "qelib1.inc";')
_QREG = re.compile(r"qreg q\[(\d+)\];")
_GATE = re.compile(r"(x|cx|ccx) (q\[\d+\](?:,q\[\d+\])*);")
_ARITY = {"x": 1, "cx": 2, "ccx": 3}


class CheckError(ValueError):
    """The circuit text is malformed or computes the wrong function."""


def parse(text: str) -> tuple[int, list[tuple[str, tuple[int, ...]]]]:
    """(register width, [(mnemonic, operands)]); the last operand of a
    gate is its target."""
    lines = text.splitlines()
    if tuple(lines[:2]) != _HEADER or len(lines) < 3:
        raise CheckError("missing OPENQASM header")
    m = _QREG.fullmatch(lines[2])
    if m is None:
        raise CheckError(f"bad register declaration {lines[2]!r}")
    width = int(m.group(1))
    gates = []
    for lineno, line in enumerate(lines[3:], start=4):
        g = _GATE.fullmatch(line)
        if g is None:
            raise CheckError(f"line {lineno}: unparseable {line!r}")
        name = g.group(1)
        args = tuple(int(a) for a in re.findall(r"\d+", g.group(2)))
        if len(args) != _ARITY[name] or len(set(args)) != len(args):
            raise CheckError(f"line {lineno}: bad operands {line!r}")
        if max(args) >= width:
            raise CheckError(f"line {lineno}: operand outside q[{width}]")
        gates.append((name, args))
    return width, gates


def simulate(gates: list[tuple[str, tuple[int, ...]]], n: int) -> np.ndarray:
    """Final register value for each data input 0..2^n-1."""
    states = np.arange(1 << n, dtype=np.int64)
    for _, args in gates:
        *controls, target = args
        mask = sum(1 << c for c in controls)
        fire = (states & mask) == mask
        states ^= fire.astype(np.int64) << target
    return states


def check(text: str, table: tuple[int, ...], n: int) -> dict[str, int]:
    """Census and ancilla count of a correct circuit; CheckError when the
    circuit does not compute `table` with clean ancillas."""
    width, gates = parse(text)
    if width < n:
        raise CheckError(f"register q[{width}] is narrower than {n} data bits")
    out = simulate(gates, n)
    dirty = np.flatnonzero(out >> n)
    if dirty.size:
        raise CheckError(f"input {int(dirty[0])} leaves an ancilla at 1")
    wrong = np.flatnonzero(out != np.asarray(table, dtype=np.int64))
    if wrong.size:
        x = int(wrong[0])
        raise CheckError(f"input {x} gives {int(out[x])}, expected {table[x]}")
    found = dict.fromkeys(_ARITY, 0)
    for name, _ in gates:
        found[name] += 1
    found["ancillas"] = width - n
    return found
