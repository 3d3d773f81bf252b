"""Single-target stage decomposition of a reversible function.

The circuit is split into one stage per bit: stage s rewrites target bit
order[s] as a function of the intermediate state, which holds final
values on already-processed bits and original values elsewhere.  Each
stage's required flip is captured by a toggle table over intermediate
states.

The decomposition exists only when, at every stage, all inputs reaching
the same intermediate state agree on the toggle value.  Bijections like
the 2-bit swap fail this for every ordering, which `decompose` reports
with a concrete witness pair instead of producing a wrong circuit.  A
successful decomposition keeps every stage's state map a permutation, so
its toggles are total (defined on every state) and never read their
own target: two states that differ only in the target would otherwise
meet, and a later stage would fail.  The stages are computed by a numpy
kernel that checks exactly that; when the check fails, a scalar loop
over the inputs finds the witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NoReturn

import numpy as np

from .boolfn import ReversibleFunction
from .errors import (
    CascadeInfeasible,
    NoFeasibleOrder,
    WidthOutOfRange,
)

MAX_SEARCH_WIDTH = 15

__all__ = [
    "MAX_SEARCH_WIDTH",
    "StageOrder",
    "ToggleTable",
    "decompose",
    "find_feasible_order",
    "resolve_order",
]


@dataclass(frozen=True)
class StageOrder:
    """The sequence in which target bits are rewritten."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}: "
                             f"{self.order}")

    @classmethod
    def natural(cls, n: int) -> "StageOrder":
        return cls(tuple(range(n)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class ToggleTable:
    """A stage's flip function over intermediate states, as one truth
    vector: bit v of `on` is 1 if the target bit must flip when the stage
    sees intermediate state v and 0 if it must hold.  Every state of a
    reversible function's stage is reached, so the function is total.
    primed[j] marks bit j as already rewritten by an earlier stage.
    """

    stage: int
    target: int
    width: int
    on: int
    primed: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.on < 0 or self.on >> (1 << self.width):
            raise ValueError("on must be a truth vector of 2^width bits")
        if len(self.primed) != self.width:
            raise ValueError("primed flags must cover every bit")

    @property
    def entries(self) -> tuple[int, ...]:
        """The toggle at each state, bit v of `on` as entry v."""
        return tuple(self.on >> v & 1 for v in range(1 << self.width))

    def is_zero(self) -> bool:
        return not self.on


def decompose(f: ReversibleFunction,
              order: StageOrder | None = None) -> list[ToggleTable]:
    """Split f into one toggle table per stage of the given order.

    Raises CascadeInfeasible with a witness input pair when some stage's
    toggle value is not well defined on an intermediate state.
    """
    n = f.width
    if order is None:
        order = StageOrder.natural(n)
    targets = order.order
    return [ToggleTable(stage, target, n, _pack(toggle),
                        tuple(j in targets[:stage] for j in range(n)))
            for stage, (target, toggle) in enumerate(
                zip(targets, _toggles(f, order)))]


def _pack(bits: np.ndarray) -> int:
    """The truth vector of a 0/1 array: bit s is bits[s]."""
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def _toggles(f: ReversibleFunction, order: StageOrder) -> list[np.ndarray]:
    """Each stage's toggle over the intermediate states as a 0/1 array.

    The states start as the identity, and a target-free toggle moves
    them by an involution, so they stay a permutation: each state is
    reached by exactly one input, so the scatter defines every entry
    and no two inputs can disagree.  A toggle that reads its target
    makes two states meet, and a later stage then fails, so this one
    check per stage stands for comparing the inputs that share a state;
    when it fails, `_witness` finds such a pair and raises
    CascadeInfeasible."""
    n = f.width
    if len(order) != n:
        raise ValueError(f"order length {len(order)} != width {n}")
    inputs = np.arange(1 << n)
    diff = inputs ^ np.asarray(f.table)
    states = inputs
    out: list[np.ndarray] = []
    for stage, target in enumerate(order):
        tbit = 1 << target
        toggle = np.empty(1 << n, dtype=np.uint8)
        toggle[states] = diff >> target & 1
        out.append(toggle)
        halves = toggle.reshape(-1, 2, tbit)  # [.., target bit, ..]
        if (halves[:, 0] != halves[:, 1]).any():
            _witness(f, order)
        states = states ^ (diff & tbit)
    return out


def _stage_vectors(f: ReversibleFunction,
                  order: StageOrder) -> list[tuple[int, int]]:
    """(target, on) per stage of `decompose(f, order)`: bit s of the
    truth vector `on` is the stage's toggle at the state whose bits other
    than the target read s, variable j of s being bit j + (j >= target).
    Raises what `decompose` raises."""
    return [(target, _pack(toggle.reshape(-1, 2, 1 << target)[:, 0].ravel()))
            for target, toggle in zip(order, _toggles(f, order))]


def _witness(f: ReversibleFunction, order: StageOrder) -> NoReturn:
    """Raise CascadeInfeasible for an order under which some stage's
    toggle reads its target: run the inputs one at a time, stage by
    stage, to the first input that needs the opposite toggle of an
    earlier one on a shared state.  Such a stage makes two states meet,
    and two inputs that then agreed on every later toggle would end on
    the same output, so a bijection always has that pair."""
    n = f.width
    # states[x] is the intermediate state input x has reached so far
    states = list(range(1 << n))
    for stage, target in enumerate(order):
        first: dict[int, tuple[int, int]] = {}  # state -> (input, toggle)
        for x, v in enumerate(states):
            t = (x ^ f.table[x]) >> target & 1
            y, known = first.setdefault(v, (x, t))
            if known != t:
                raise CascadeInfeasible(stage, target, v, (y, x), n)
            states[x] = v ^ (t << target)
    raise AssertionError("a bijection's target-reading stage has a witness")


def _prefix_injective(inputs: np.ndarray, diff: np.ndarray,
                      prefix: int) -> bool:
    """Whether no two inputs meet once the bits in prefix are rewritten:
    input x is then at state x ^ (diff[x] & prefix), diff[x] = x ^ f(x)."""
    seen = np.zeros(len(inputs), dtype=bool)
    seen[inputs ^ (diff & prefix)] = True
    return bool(seen.all())


def find_feasible_order(f: ReversibleFunction) -> StageOrder:
    """First stage order (lexicographic) for which decompose succeeds.

    An order is feasible iff every proper prefix set P of rewritten bits
    keeps the intermediate-state map x -> (x & ~P) | (f(x) & P)
    injective: two inputs that meet on a state cannot be told apart
    again, and while all states are distinct every toggle is defined.
    So the search is a depth-first walk over prefix sets from P = 0,
    smallest target first, and a set from which no order can be
    completed is marked dead and never entered again.  Hence each of the
    2^n - 2 proper non-empty sets is tested at most once, by one numpy
    pass over the 2^n inputs.  Some functions need every test; that
    worst case takes 3.3 s at MAX_SEARCH_WIDTH = 15 on one Xeon core,
    and would take 16 s at width 16.  Raises NoFeasibleOrder when no
    order works.
    """
    n = f.width
    if n > MAX_SEARCH_WIDTH:
        raise WidthOutOfRange(
            f"order search tests up to 2^n prefix sets; width {n} exceeds "
            f"{MAX_SEARCH_WIDTH}")
    inputs = np.arange(1 << n)
    diff = inputs ^ np.asarray(f.table)
    dead: set[int] = set()
    path: list[int] = []  # targets rewritten so far, in order
    prefix = 0
    t = 0  # next target to try on top of prefix
    # the full set is never tested: its map is f itself
    while len(path) < n - 1:
        while t < n:
            child = prefix | 1 << t
            if child != prefix and child not in dead:
                if _prefix_injective(inputs, diff, child):
                    break
                dead.add(child)
            t += 1
        if t < n:
            path.append(t)
            prefix, t = child, 0
        elif path:
            dead.add(prefix)
            t = path.pop()
            prefix ^= 1 << t
            t += 1
        else:
            raise NoFeasibleOrder(
                "no stage order works for this function: every order "
                "rewrites a set of bits on which two inputs meet")
    last = ((1 << n) - 1) ^ prefix
    return StageOrder(tuple(path) + (last.bit_length() - 1,))


def resolve_order(f: ReversibleFunction,
                  order: StageOrder | str | None) -> StageOrder:
    """The stage order to decompose f with: None or "natural" is
    0..n-1, "search" is find_feasible_order(f), a StageOrder is kept."""
    if order is None or order == "natural":
        return StageOrder.natural(f.width)
    if order == "search":
        return find_feasible_order(f)
    if isinstance(order, StageOrder):
        return order
    raise ValueError(f"unknown order: {order!r}")
