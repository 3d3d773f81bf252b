"""Cover minimization for toggle functions.

A toggle function over m variables is held as one truth-vector int,
`on`, with bit s set when f(s) = 1; a toggle of a reversible function's
stage is defined on every state, so there are no don't-cares.  The
public minimizers take a stage's `ToggleTable` and read its `on` and
`width`.  A cube's cells are the states s with s & mask == value, and
the minimizers find them with shifts and masks over these ints.
The Gray-labelled 2-D grid of the paper (row and column labels in
reflected Gray order, so neighbouring cells differ in one variable) is
only drawn, by the `show` command.  Covers come in two flavours:

- disjoint sum-of-products: product terms that never share a cell, each
  1-cell covered exactly once (OR and XOR of the terms coincide);
- ESOP: terms may overlap as long as each 1-cell is covered an odd
  number of times and each 0-cell an even number of times.

This module alone decides how a table becomes a cover: `_CORES` maps
each (mode, path) pair to its int core, and `_terms` picks the path
from the table's width.  On tables of up to 4 variables
(EXACT_WIDTH_CAP) the exact path applies, optimal in (cube count, then
total literal count), in both modes.  The table width counts every
variable, forbidden ones included, so a width-5 table with one
forbidden variable is not exact even though its cover has 4 free
variables.  The exact engine is one recurrence over the cofactor
decomposition  f = P xor x'Q xor xR  of every subfunction, on
truth-vector ints.  It memoizes the optimal key and cover of every
function on up to 3 variables, so a warm 4-variable call is one pass
over its splits (4-75 µs) and a smaller one is a lookup.  A forbidden
variable must be one of the table's and one the function ignores;
`_cover` projects it out before covering and reopens its slot after,
and `_stage_terms` projects a stage's target out for `synthesize`.  On
wider tables a documented greedy heuristic applies: largest-block-first
for disjoint covers, and for ESOP a positive-polarity Reed-Muller seed
reduced by one sweep over the variables.  The disjoint heuristic seeds
each block at the lowest uncovered 1-cell, so a block frees only
variables where its seed has a 0, and the free sets that fit are one
truth vector: bit S is set iff seed + s is an uncovered 1-cell for
every subset s of S, one AND per variable.  The ESOP heuristic groups
its terms by their complemented variables, each group one truth vector
of the terms' positive variables, and at each variable, lowest first,
one AND per group merges every pair C, Cx into Cx'.  No two terms of
its cover share their positive variables, so it holds at most one
complemented single literal, and only exact ESOP covers flip theirs
positive in pairs.  The cores take the truth vector and return sorted
(mask, value) pairs; `_cover`, behind the public minimizers and
`show --overlay`, builds `Cube`s from them, and `synthesize` emits
them as they are.
"""
from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Iterator, Sequence

from ._value import Value
from .boolfn import _clear, _remove_var
from .cascade import ToggleTable

EXACT_WIDTH_CAP = 4

__all__ = [
    "EXACT_WIDTH_CAP",
    "CoverMode",
    "Cube",
    "Cover",
    "build_qmap",
    "minimize_disjoint",
    "minimize_esop",
    "can_avoid_variable",
]


class CoverMode(Enum):
    DISJOINT = "disjoint"
    ESOP = "esop"


class Cube(Value):
    """A product term: bit i of `mask` marks variable i as present, and
    the matching bit of `value` gives its required polarity."""

    __slots__ = _fields = ("width", "mask", "value")

    def __init__(self, width: int, mask: int, value: int) -> None:
        if mask & ~((1 << width) - 1):
            raise ValueError("mask wider than cube width")
        if value & ~mask:
            raise ValueError("value bits outside mask")
        self._init(width, mask, value)

    @property
    def literal_count(self) -> int:
        return self.mask.bit_count()

    def cells(self) -> Iterator[int]:
        free = ~self.mask & ((1 << self.width) - 1)
        s = 0
        while True:
            yield self.value | s
            if s == free:
                return
            s = (s - free) & free

    def render(self, names: Sequence[str] | None = None) -> str:
        if self.mask == 0:
            return "1"
        names = names or [f"q{i}" for i in range(self.width)]
        parts = []
        for i in reversed(range(self.width)):
            if self.mask >> i & 1:
                neg = "" if self.value >> i & 1 else "!"
                parts.append(f"{neg}{names[i]}")
        return " ".join(parts)


class Cover(Value):
    __slots__ = _fields = ("mode", "cubes")

    def __init__(self, mode: CoverMode, cubes: tuple[Cube, ...]) -> None:
        self._init(mode, cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    @property
    def literal_count(self) -> int:
        return sum(c.literal_count for c in self.cubes)


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # an entry's byte to its digit


def _truth_vector(entries: Sequence[int]) -> int:
    """The truth vector of a toggle table's 0/1 entries."""
    return int(bytes(entries[::-1]).translate(_DIGITS), 2)


def build_qmap(t: ToggleTable) -> ToggleTable:
    """The table itself: the minimizers take a `ToggleTable` as it is.
    Kept in the step-by-step API only because the benchmark's traced
    rebuild (bench/pipeline.py) calls it between `decompose` and
    `minimize_*`."""
    return t


# --- exact minimization ----------------------------------------------------
#
# Key encoding: cost = cubes * 128 + literals, so a single integer min is
# the lexicographic (cube count, literal count) min.  The optimal key of
# a function on m <= 4 variables (truth vector f, bit x = f(x)) comes
# from splitting on the top variable:
#   f = P xor x'Q xor xR  with  Q = P xor f0,  R = P xor f1
# minimized over all subfunctions P on m - 1 variables.  Terms in Q and R
# pay one extra literal per cube for the added polarity literal.  The
# disjoint mode keeps only P <= f0 AND f1 (cells of P are covered on both
# sides, so they must be 1 in both cofactors), which makes Q and R the
# exact set differences and keeps all terms disjoint.  Of the P that
# reach the minimum, the first in ascending order is taken (the min of
# (key, P) pairs).  `_exact` memoizes the key and cover of every
# function on fewer than EXACT_WIDTH_CAP variables, 2 + 4 + 16 + 256 = 278
# per mode at most (about 230 kB for both modes by tracemalloc), whatever
# a caller minimizes, and `_level` memoizes each level's keys and wrapped
# keys; both memos are `functools.cache`, which is thread-safe.  A
# 4-variable function's cover is computed on each call, from at most 256
# splits over the level-3 keys (4-15 µs warm disjoint, 45-75 µs ESOP): a
# memo of all 65,536 in both modes would hold about 29 MB (tracemalloc,
# extrapolated from 4,096), and `synthesize` never asks for one, since
# its stages forbid the target.


@cache
def _level(disjoint: bool, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The optimal keys of every function on m variables, by truth
    vector, and the same keys with one literal added per cube."""
    keys = tuple(_exact(disjoint, g, m)[0] for g in range(1 << (1 << m)))
    return keys, tuple(k + (k >> 7) for k in keys)


def _split(disjoint: bool, f: int,
           m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The optimal key of f over m <= 4 variables and one cover reaching
    it, as (mask, value) pairs: the cubes of P, then of Q and R with the
    top variable added negative and positive."""
    if m == 0:
        return f << 7, ((0, 0),) if f else ()  # one cube with no literal
    bit = 1 << (m - 1)  # the top variable; also each cofactor's cells
    keys, wrapped = _level(disjoint, m - 1)
    f0, f1 = f & ((1 << bit) - 1), f >> bit
    allowed = f0 & f1 if disjoint else (1 << bit) - 1
    key, p = min((keys[p] + wrapped[p ^ f0] + wrapped[p ^ f1], p)
                 for p in range(allowed + 1) if p & allowed == p)
    cubes, q, r = (_exact(disjoint, g, m - 1)[1]
                   for g in (p, p ^ f0, p ^ f1))
    return key, (cubes + tuple((mk | bit, v) for mk, v in q)
                 + tuple((mk | bit, v | bit) for mk, v in r))


_memo = cache(_split)


def _exact(disjoint: bool, f: int,
           m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """`_split`, memoized on fewer than EXACT_WIDTH_CAP variables."""
    return (_memo if m < EXACT_WIDTH_CAP else _split)(disjoint, f, m)


def _esop_exact(on: int, m: int) -> list[tuple[int, int]]:
    """The exact ESOP cover of `on` over m <= 4 variables as sorted
    (mask, value) pairs.  Its complemented single literals are flipped
    positive in pairs, lowest first, as the two constant-1 corrections
    cancel under XOR (a swept cover never holds two: `_merge_terms`).
    A flip never meets an equal cube: an exact cover has the fewest
    cubes, and if it held both x and x', the constant 1 could replace
    them (or cancel a 1 already there) with fewer."""
    cubes = _exact(False, on, m)[1]
    singles = sorted(mk for mk, v in cubes if not v and mk.bit_count() == 1)
    flip = set(singles[:len(singles) & ~1])
    return sorted((mk, mk if mk in flip else v) for mk, v in cubes)


# --- heuristic minimization ------------------------------------------------

def _pprm(on: int, m: int) -> int:
    """The positive-polarity Reed-Muller vector of a truth vector: bit s
    is the coefficient of the monomial of the variables in s."""
    for i in range(m):
        bit = 1 << i
        on ^= (on & _clear(m, bit)) << bit
    return on


def _merge_terms(on: int, m: int) -> list[tuple[int, int]]:
    """The positive-polarity Reed-Muller seed of `on` reduced by one
    sweep over the variable slots, lowest first, as sorted (mask, value)
    pairs.

    Write a term as (P, N), P its positive variables and N its
    complemented ones: its mask is P | N and its value P.  The terms are
    grouped by N, each class one truth vector `ps` with bit P set when
    (P, N) is a term; the seed is the one class (0, `_pprm(on, m)`).  At
    slot i, for each class made before it, one AND finds every P without
    x_i for which (P, N) and (P + i, N) are both terms, and each such
    C xor Cx_i is replaced by Cx_i' = (P, N + i), in the new class
    N + i.  So the XOR of the terms never changes.  A term pairs at slot
    i only with the term that differs from it in holding x_i positive,
    so the pairs of one slot are disjoint and one AND decides them all.

    Three things hold of the result: (a) no two terms share P, nor (b)
    a mask, (c) no pairs (P, N) and (P + i, N) are left, and it has no
    more terms than the seed.  By induction on m: on 0 variables there
    is at most one term.  The slots below the top variable t never pair
    a term holding x_t with one that does not, so they reduce the two
    Davio halves of the seed on their own, the Reed-Muller forms of f0
    and f0 xor f1, to A and to x_t B.  Slot t then turns each term T of
    both A and B into T x_t', which leaves A - B, x_t (B - A) and
    x_t' (A & B), at most |A| + |B| terms.  Distinct P: the first and
    third parts both lie in A, the second holds x_t.  Distinct masks:
    the first lacks t, the second and third both come from B.  No pair
    at a slot below t, as its two terms would lie in one part, so in A
    or in B; none at t, as a term of A - B with its extension by x_t in
    x_t (B - A) would be one T of A & B.  (a) and (b) also rule out
    the other pairs at distance 1, C with Cx' and Cx with Cx', so no two
    terms of the cover merge into one.  By (a), at most one term has P
    empty, so the cover never holds two complemented single literals."""
    classes = [(0, _pprm(on, m))]  # (N, the truth vector of the Ps)
    for i in range(m):
        bit = 1 << i
        low = _clear(m, bit)
        for k in range(len(classes)):
            n, ps = classes[k]
            pairs = ps & ps >> bit & low
            if pairs:
                classes[k] = n, ps ^ pairs ^ pairs << bit
                classes.append((n | bit, pairs))
    terms = []
    for n, ps in classes:
        while ps:
            p = ps.bit_length() - 1
            terms.append((p | n, p))
            ps ^= 1 << p
    terms.sort()
    return terms


@cache
def _sizes(m: int) -> tuple[int, ...]:
    """Per k <= m, the truth vector of the states s < 2^m with k bits set;
    kept per width, like `_clear`: 63 kB at m = 15 by tracemalloc."""
    sizes = (1,)
    for j in range(m):
        sizes = tuple(a | b << (1 << j)
                      for a, b in zip(sizes + (0,), (0,) + sizes))
    return sizes


def _greedy_disjoint(on: int, m: int) -> list[tuple[int, int]]:
    """Largest-block-first cover: repeatedly seed at the lowest uncovered
    1-cell and take the biggest cube that fits in uncovered 1-cells, so
    the result is disjoint by construction.

    The uncovered 1-cells are `need`; every cell outside it is a 0-cell
    or covered.  No cell below the seed is in `need`, so a cube can
    free only variables where the seed has a 0, and its cells are then
    seed + s for every subset s of its free set: a cube fits iff bit s
    of near = need >> seed is set for each such s.  So `fits`, the
    subsets of the seed's needed neighbours that are in `near`, ANDed
    per neighbour w with itself shifted by w, has bit S set iff every
    subset of S is in `near`.  Its greatest set of the most variables
    (`_sizes`) leaves the first mask in (literal count, mask) order."""
    full = (1 << m) - 1
    sizes = _sizes(m)
    need = on
    out: list[tuple[int, int]] = []
    while need:
        seed = (need & -need).bit_length() - 1
        near = need >> seed
        singles = []  # the seed's 0-bits whose neighbour is needed
        fits = 1  # and every subset of them
        zeros = full ^ seed
        while zeros:
            w = zeros & -zeros
            zeros ^= w
            if near >> w & 1:
                singles.append(w)
                fits |= fits << w
        fits &= near
        for w in singles:
            fits &= fits << w | _clear(m, w)
        k = len(singles)
        while not (top := fits & sizes[k]):
            k -= 1
        free = top.bit_length() - 1
        cells, rest = 1, free
        while rest:
            low = rest & -rest
            cells |= cells << low
            rest ^= low
        out.append((full ^ free, seed))
        need ^= cells << seed
    return out


# --- variable elimination ---------------------------------------------------

def _check_var(var: int, m: int) -> None:
    if not 0 <= var < m:
        raise ValueError(
            f"variable q{var} is outside the table's {m} variables")


def can_avoid_variable(entries: Sequence[int], width: int, var: int) -> bool:
    """True iff the function ignores the variable; ValueError names a
    variable outside [0, width)."""
    _check_var(var, width)
    return _remove_var(_truth_vector(entries), width, var) is not None


# --- public minimizers ------------------------------------------------------

# (mode, exact path) -> its core; `_terms` alone picks the path
_CORES = {
    (CoverMode.DISJOINT, True): lambda on, m: sorted(_exact(True, on, m)[1]),
    (CoverMode.DISJOINT, False): lambda on, m: sorted(_greedy_disjoint(on, m)),
    (CoverMode.ESOP, True): _esop_exact,
    (CoverMode.ESOP, False): _merge_terms,
}


def _terms(mode: CoverMode, on: int, m: int,
           width: int) -> list[tuple[int, int]]:
    """The mode's cover of `on` over the m variables left of a table
    `width` wide, as sorted (mask, value) pairs: the exact core when
    the table, its projected variables included, is at most
    EXACT_WIDTH_CAP wide, else the mode's heuristic."""
    return _CORES[mode, width <= EXACT_WIDTH_CAP](on, m)


def _stage_terms(mode: CoverMode, toggle: int, n: int,
                 target: int) -> list[tuple[int, int]]:
    """The cover `synthesize` emits for a stage's toggle over n bits,
    which a decomposed stage never reads at its target: the target is
    projected out, so variable j of a pair is bit j + (j >= target)."""
    return _terms(mode, _remove_var(toggle, n, target), n - 1, n)


def _cover(t: ToggleTable, forbidden: frozenset[int],
           mode: CoverMode) -> Cover:
    """The mode's cover of the table, no cube reading a forbidden
    variable.  All are range-checked before any is projected out,
    highest first, and their slots reopen lowest first, which keeps the
    sorted pairs in order; ValueError names the first that fails."""
    on, m = t.on, t.width
    removed = sorted(forbidden)
    for var in removed:
        _check_var(var, m)
    for var in reversed(removed):
        on = _remove_var(on, m, var)
        if on is None:
            raise ValueError(f"no cover of this table can avoid q{var}")
        m -= 1
    terms = _terms(mode, on, m, t.width)
    for var in removed:
        high = -(1 << var)
        terms = [(mk + (mk & high), v + (v & high)) for mk, v in terms]
    return Cover(mode, tuple(Cube(t.width, mk, v) for mk, v in terms))


def minimize_disjoint(t: ToggleTable,
                      forbidden: frozenset[int] = frozenset()) -> Cover:
    """Disjoint SOP cover of the table's `on`; exact in (cubes, literals)
    for tables of width up to 4, forbidden variables included,
    largest-block-first greedy beyond."""
    return _cover(t, forbidden, CoverMode.DISJOINT)


def minimize_esop(t: ToggleTable,
                  forbidden: frozenset[int] = frozenset()) -> Cover:
    """ESOP cover of the table's `on`; exact in (cubes, literals) for
    tables of width up to 4, forbidden variables included, a Reed-Muller
    seed reduced by one C xor Cx -> Cx' sweep over the variables
    beyond."""
    return _cover(t, forbidden, CoverMode.ESOP)
