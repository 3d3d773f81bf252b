"""Shared fixtures: the 4-bit Gray-to-binary worked example and the two
hand-built reference circuits for it, plus small oracle helpers and
hypothesis strategies."""
from __future__ import annotations

import os
import random
import re

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qmap_synth import (
    Circuit,
    Control,
    Gate,
    ReversibleFunction,
    StageOrder,
    find_feasible_order,
)

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and machine,
# so a CI failure reproduces anywhere; unset, hypothesis draws afresh.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# 4-bit Gray code -> binary, input q3q2q1q0 -> output, one row per line.
GRAY4_ROWS = [
    ("0000", "0000"),
    ("0001", "0001"),
    ("0011", "0010"),
    ("0010", "0011"),
    ("0110", "0100"),
    ("0111", "0101"),
    ("0101", "0110"),
    ("0100", "0111"),
    ("1100", "1000"),
    ("1101", "1001"),
    ("1111", "1010"),
    ("1110", "1011"),
    ("1010", "1100"),
    ("1011", "1101"),
    ("1001", "1110"),
    ("1000", "1111"),
]

# Toggle columns for the same rows: present state -> (T3, T2, T1, T0).
GRAY4_TOGGLES = {
    "0000": (0, 0, 0, 0),
    "0001": (0, 0, 0, 0),
    "0011": (0, 0, 0, 1),
    "0010": (0, 0, 0, 1),
    "0110": (0, 0, 1, 0),
    "0111": (0, 0, 1, 0),
    "0101": (0, 0, 1, 1),
    "0100": (0, 0, 1, 1),
    "1100": (0, 1, 0, 0),
    "1101": (0, 1, 0, 0),
    "1111": (0, 1, 0, 1),
    "1110": (0, 1, 0, 1),
    "1010": (0, 1, 1, 0),
    "1011": (0, 1, 1, 0),
    "1001": (0, 1, 1, 1),
    "1000": (0, 1, 1, 1),
}


def gray4_function() -> ReversibleFunction:
    table = [0] * 16
    for inp, out in GRAY4_ROWS:
        table[int(inp, 2)] = int(out, 2)
    return ReversibleFunction(4, tuple(table))


def gray4_text() -> str:
    lines = ["# 4-bit Gray code to binary", ".width 4"]
    lines += [f"{inp} -> {out}" for inp, out in GRAY4_ROWS]
    return "\n".join(lines) + "\n"


def optimized_reference_circuit() -> Circuit:
    """The hand-optimized 10-gate realization: 4 X + 4 CX + 2 CCX on
    four lines, no ancilla."""
    return Circuit(4, 0, (
        Gate.cx(2, 0),
        Gate.x(3),
        Gate.ccx(1, 3, 0),
        Gate.x(3),
        Gate.x(1),
        Gate.ccx(1, 3, 0),
        Gate.x(1),
        Gate.cx(2, 1),
        Gate.cx(3, 1),
        Gate.cx(3, 2),
    ))


def unoptimized_reference_circuit() -> Circuit:
    """The 27-gate realization over 2-control Toffolis with one ancilla
    (line 4): 12 X + 14 CCX + 1 CX."""
    return Circuit(4, 1, (
        Gate.x(2),
        Gate.x(3),
        Gate.ccx(2, 3, 4),
        Gate.ccx(1, 4, 0),
        Gate.ccx(2, 3, 4),
        Gate.x(2),
        Gate.ccx(2, 3, 4),
        Gate.x(1),
        Gate.ccx(1, 4, 0),
        Gate.ccx(2, 3, 4),
        Gate.x(3),
        Gate.x(2),
        Gate.ccx(2, 3, 4),
        Gate.ccx(1, 4, 0),
        Gate.x(1),
        Gate.ccx(2, 3, 4),
        Gate.x(2),
        Gate.ccx(2, 3, 4),
        Gate.ccx(1, 4, 0),
        Gate.ccx(2, 3, 4),
        Gate.x(2),
        Gate.ccx(2, 3, 1),
        Gate.x(2),
        Gate.x(3),
        Gate.ccx(2, 3, 1),
        Gate.x(3),
        Gate.cx(3, 2),
    ))


def random_bijection(n: int, rng: random.Random) -> ReversibleFunction:
    table = list(range(1 << n))
    rng.shuffle(table)
    return ReversibleFunction(n, tuple(table))


def random_feasible_function(n: int, rng: random.Random) -> ReversibleFunction:
    """Build a bijection by composing random single-target stages; each
    stage's toggle ignores its own target bit, so the natural-order
    cascade always succeeds on the result."""
    table = list(range(1 << n))
    for target in range(n):
        tbit = 1 << target
        toggle = [rng.randint(0, 1) for _ in range(1 << n)]
        for v in range(1 << n):
            if v & tbit:
                toggle[v] = toggle[v ^ tbit]
        table = [v ^ (toggle[v] << target) for v in table]
    return ReversibleFunction(n, tuple(table))


def bit_swap_function(n: int, i: int, j: int) -> ReversibleFunction:
    """Exchange bits i and j, keep the rest: infeasible for every stage
    order, since whichever of the two an order rewrites first takes the
    other's value and its own input value is lost."""
    table = []
    for x in range(1 << n):
        d = ((x >> i) ^ (x >> j)) & 1
        table.append(x ^ (d << i | d << j))
    return ReversibleFunction(n, tuple(table))


@st.composite
def cascade_inputs(draw):
    """(f, order): a random bijection (mostly infeasible past width 3) or
    a random cascade-feasible function of width 1-8, with the order
    "natural" or "search"."""
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    make = draw(st.sampled_from([random_bijection, random_feasible_function]))
    return make(n, rng), draw(st.sampled_from(["natural", "search"]))


def stage_order(f: ReversibleFunction, order: str) -> StageOrder:
    """The StageOrder an order name drawn by `cascade_inputs` stands for
    on f: find_feasible_order(f) for "search" (which raises
    NoFeasibleOrder when f has none), 0..n-1 for "natural"."""
    if order == "search":
        return find_feasible_order(f)
    return StageOrder.natural(f.width)


@st.composite
def gates_on(draw, lines, targets=None, max_controls=4, lowered=False):
    """A gate with a target from `targets` (default: any of `lines`) and
    up to max_controls distinct controls from the rest, either polarity;
    or, when `lowered`, an X, CX or CCX gate."""
    target = draw(st.sampled_from(targets or lines))
    others = [l for l in lines if l != target]
    if lowered:
        max_controls = min(max_controls, 2)
    ctl = draw(st.lists(st.sampled_from(others), unique=True,
                        max_size=min(max_controls, len(others)))
               if others else st.just([]))
    return Gate(target, tuple(Control(l, lowered or draw(st.booleans()))
                              for l in ctl))


@st.composite
def edited_text(draw, lines, line, number):
    """`lines` with up to four of them replaced by or preceded by a drawn
    `line`, deleted, or renumbered (the first run of digits replaced by
    a drawn `number`), joined into one text."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "insert", "delete",
                                     "renumber"]))
        if edit == "renumber" and at < len(lines):
            lines[at] = re.sub("[0-9]+", draw(number), lines[at], count=1)
            continue
        if edit != "insert" and at < len(lines):
            del lines[at]
        if edit in ("replace", "insert"):
            lines.insert(at, draw(line))
    return "\n".join(lines)


def swap2_function() -> ReversibleFunction:
    """f(q1, q0) = (q0, q1): infeasible for every stage order."""
    return ReversibleFunction(2, (0b00, 0b10, 0b01, 0b11))


@pytest.fixture
def gray4() -> ReversibleFunction:
    return gray4_function()


@pytest.fixture
def gray4_file(tmp_path):
    path = tmp_path / "gray4.tt"
    path.write_text(gray4_text())
    return path
