"""Slow scalar references for the library's bitset kernels.

These are the simulator and the greedy disjoint cover as they were
before both became bitset code: one input word at a time through every
gate, and one cell at a time through every candidate cube.  The property
tests require the library to agree with them exactly.
"""
from __future__ import annotations

from typing import Sequence

from qmap_synth import BitWord, Circuit, Counterexample, Cube, Gate, ReversibleFunction
from qmap_synth.errors import AncillaNotRestored, LineOutOfRange


def compile_gate(g: Gate, width: int) -> tuple[int, int, int]:
    """(positive control mask, negative control mask, target bit)."""
    if any(l >= width for l in g.lines):
        raise LineOutOfRange(f"gate {g} does not fit in {width} lines")
    pos = neg = 0
    for c in g.controls:
        if c.positive:
            pos |= 1 << c.line
        else:
            neg |= 1 << c.line
    return pos, neg, 1 << g.target


def run_int(compiled: Sequence[tuple[int, int, int]], value: int) -> int:
    for pos, neg, tbit in compiled:
        if (value & pos) == pos and (value & neg) == 0:
            value ^= tbit
    return value


def apply_gate(s: BitWord, g: Gate) -> BitWord:
    return BitWord(s.width, run_int([compile_gate(g, s.width)], s.value))


def run(c: Circuit, x: int) -> BitWord:
    out = run_int([compile_gate(g, c.total_width) for g in c.gates], x)
    if out >> c.data_width:
        raise AncillaNotRestored(x, out >> c.data_width)
    return BitWord(c.data_width, out)


def permutation_of(c: Circuit) -> list[BitWord]:
    return [run(c, x) for x in range(1 << c.data_width)]


def verify(c: Circuit, f: ReversibleFunction) -> Counterexample | None:
    n = c.data_width
    for x in range(1 << n):
        got = run(c, x)
        if got.value != f.table[x]:
            return Counterexample(BitWord(n, x), got, BitWord(n, f.table[x]))
    return None


def greedy_disjoint(values: Sequence[int | None],
                    m: int) -> list[tuple[int, int]]:
    """Largest-block-first cover, enumerating the cells of every
    candidate cube."""
    size = 1 << m
    need = {s for s in range(size) if values[s] == 1}
    blocked = {s for s in range(size) if values[s] == 0}
    covered: set[int] = set()
    out: list[tuple[int, int]] = []
    masks = sorted(range(size), key=lambda mk: (mk.bit_count(), mk))
    while need:
        seed = min(need)
        choice = None
        for mk in masks:
            cs = list(Cube(m, mk, seed & mk).cells())
            if any(s in blocked or s in covered for s in cs):
                continue
            choice = (mk, seed & mk, cs)
            break
        assert choice is not None, "the seed's own minterm is always free"
        mk, val, cs = choice
        out.append((mk, val))
        covered.update(cs)
        need.difference_update(cs)
    return out
