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
meet, and a later stage would fail.  One depth-first walk over the
sets of rewritten bits (`_cascade`) computes the stages for a fixed
order, one candidate target per stage, and for the order search, every
target, so a searched decomposition walks once.  It works on
truth-vector ints: slice j of the walk holds bit j of x ^ f(x) for the
input x at each state, starting from the function's output slices.  A
stage's toggle is the target's slice, checked for not reading the
target with one shift and mask, and the stage moves the inputs by one
delta swap per remaining slice.  When the check fails under a fixed
order, a scalar loop over the inputs finds the witness.
"""
from __future__ import annotations

from typing import Iterator, NoReturn, Sequence

from ._value import Value
from .boolfn import ReversibleFunction, _clear
from .errors import CascadeInfeasible, NoFeasibleOrder

__all__ = [
    "StageOrder",
    "ToggleTable",
    "decompose",
    "find_feasible_order",
]


class StageOrder(Value):
    """The sequence in which target bits are rewritten."""

    __slots__ = _fields = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"not a permutation of 0..{len(order) - 1}: "
                             f"{order}")
        self._init(order)

    @classmethod
    def natural(cls, n: int) -> "StageOrder":
        return cls(tuple(range(n)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


class ToggleTable(Value):
    """A stage's flip function over intermediate states, as one truth
    vector: bit v of `on` is 1 if the target bit must flip when the stage
    sees intermediate state v and 0 if it must hold.  Every state of a
    reversible function's stage is reached, so the function is total.
    primed[j] marks bit j as already rewritten by an earlier stage.
    """

    __slots__ = _fields = ("stage", "target", "width", "on", "primed")

    def __init__(self, stage: int, target: int, width: int, on: int,
                 primed: tuple[bool, ...]) -> None:
        if on < 0 or on >> (1 << width):
            raise ValueError("on must be a truth vector of 2^width bits")
        if len(primed) != width:
            raise ValueError("primed flags must cover every bit")
        self._init(stage, target, width, on, primed)

    @property
    def entries(self) -> tuple[int, ...]:
        """The toggle at each state, bit v of `on` as entry v."""
        return tuple(self.on >> v & 1 for v in range(1 << self.width))

    def is_zero(self) -> bool:
        return not self.on


def decompose(f: ReversibleFunction,
              order: StageOrder | str | None = None) -> list[ToggleTable]:
    """Split f into one toggle table per stage of the given order: a
    StageOrder, None or "natural" (0..n-1), or "search" (the order
    `find_feasible_order` returns, from the same walk).

    Raises CascadeInfeasible with a witness input pair when some stage's
    toggle value is not well defined on an intermediate state under a
    given order, and NoFeasibleOrder when the search finds none.
    """
    n = f.width
    stages = _cascade(f, order)
    targets = [target for target, _ in stages]
    return [ToggleTable(stage, target, n, toggle,
                        tuple(j in targets[:stage] for j in range(n)))
            for stage, (target, toggle) in enumerate(stages)]


def _cascade(f: ReversibleFunction,
             order: StageOrder | str | None) -> list[tuple[int, int]]:
    """(target, toggle) per stage, each toggle a truth vector over the
    intermediate states, from one depth-first walk over the sets of
    bits rewritten so far.  At each stage the candidate targets are
    every bit for "search", smallest first, and the order's own target
    for a StageOrder, None or "natural" (0..n-1).

    An order is feasible iff every proper prefix set P of rewritten bits
    keeps the intermediate-state map x -> (x & ~P) | (f(x) & P)
    injective: two inputs that meet on a state cannot be told apart
    again, and while all states are distinct every toggle is defined.
    A set from which no stage can be completed is marked dead and never
    entered again, and the full set is never tested: its map is f
    itself.  Hence each of the 2^n - 2 proper non-empty sets is tested
    at most once, by a shift and a mask of one slice of the walk at its
    parent set (`_advance`), and the search returns the first feasible
    order in lexicographic order.  Some functions need every test, such
    as a swap of the top two bits; that worst case takes 0.10-0.14 s at
    width 15 and 0.22-0.36 s at width 16, the widest the parser accepts,
    on one Xeon core.

    When the walk fails, a given order raises CascadeInfeasible through
    `_witness`, and the search raises NoFeasibleOrder.
    """
    n = f.width
    if order is None or order == "natural":
        order = StageOrder.natural(n)
    if order == "search":
        choices: list[Sequence[int]] = [range(n)] * n
    elif not isinstance(order, StageOrder):
        raise ValueError(f"unknown order: {order!r}")
    elif len(order) != n:
        raise ValueError(f"order length {len(order)} != width {n}")
    else:
        choices = [(target,) for target in order]
    stages = _finish(_start(f), 0, n, choices, set())
    if stages is None:
        if order == "search":
            raise NoFeasibleOrder(
                "no stage order works for this function: every order "
                "rewrites a set of bits on which two inputs meet")
        _witness(f, order)
    return stages


def _finish(walk: list[int], done: int, n: int,
            choices: list[Sequence[int]],
            dead: set[int]) -> list[tuple[int, int]] | None:
    """The stages of `_cascade`'s walk after the set `done` of rewritten
    bits, whose walk is `walk`, or None when none completes from it; a
    set from which none completes joins `dead`.  A module function, not
    a closure over `_cascade`'s locals: a recursive closure refers to
    itself, and that cycle waits for the cyclic collector."""
    for target in choices[done.bit_count()]:
        child = done | 1 << target
        if child == done or child in dead:
            continue
        if child == (1 << n) - 1:
            return [(target, walk[target])]
        after = _advance(walk, n, child, target)
        rest = None if after is None else _finish(after, child, n,
                                                  choices, dead)
        if rest is not None:
            return [(target, walk[target]), *rest]
        dead.add(child)
    return None


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


def _start(f: ReversibleFunction) -> list[int]:
    """The walk before any stage: slice j is bit j of x ^ f(x) at state
    x, every input still at its own state."""
    n = f.width
    full = (1 << (1 << n)) - 1
    return [s ^ full ^ _clear(n, 1 << j) for j, s in enumerate(f.slices)]


def _advance(walk: list[int], n: int, done: int,
             target: int) -> list[int] | None:
    """The walk once `target` is rewritten, `done` being the set of bits
    rewritten by then (target included); None when two inputs meet.

    Slice j of a walk is bit j of x ^ f(x) for the input x now at each
    state, so slice `target` is the stage's toggle.  While the states
    are a permutation, the stage keeps them one iff the toggle does not
    read its target; it then swaps the inputs of each pair of states
    s, s ^ 2^target it flips, one delta swap per slice of a bit not yet
    rewritten.  Slices of rewritten bits are left as they were."""
    tbit = 1 << target
    low = _clear(n, tbit)
    toggle = walk[target]
    if (toggle ^ toggle >> tbit) & low:
        return None
    flip = toggle & low
    walk = walk.copy()
    for j in range(n):
        if not done >> j & 1:
            w = walk[j]
            d = (w ^ w >> tbit) & flip
            walk[j] = w ^ d ^ d << tbit
    return walk


def find_feasible_order(f: ReversibleFunction) -> StageOrder:
    """First stage order (lexicographic) for which decompose succeeds:
    the targets of the searched walk (`_cascade`).  Raises
    NoFeasibleOrder when no order works.
    """
    return StageOrder(tuple(target for target, _ in _cascade(f, "search")))
