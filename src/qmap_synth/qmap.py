"""Karnaugh-style grids for toggle functions and cover minimization.

A toggle function over n bits is laid out on a 2-D grid whose row and
column labels follow reflected Gray order, so neighbouring cells differ
in one variable.  Covers of the grid come in two flavours:

- disjoint sum-of-products: product terms that never share a cell, each
  1-cell covered exactly once (OR and XOR of the terms coincide);
- ESOP: terms may overlap as long as each 1-cell is covered an odd
  number of times and each covered 0-cell an even number of times.

For up to 4 variables both minimizers are exact in (cube count, then
total literal count).  The exact engine is a dynamic program over the
cofactor decomposition  f = P xor x'Q xor xR  of every subfunction,
tabulated once per mode and reused; don't-cares are handled by taking
the best completion.  Above 4 variables a documented greedy heuristic
applies: largest-block-first for disjoint covers, and a positive-polarity
Reed-Muller seed with pairwise term merging for ESOP.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from .cascade import ToggleTable

EXACT_WIDTH_CAP = 4

__all__ = [
    "EXACT_WIDTH_CAP",
    "CoverMode",
    "Cube",
    "Cover",
    "QMapGrid",
    "build_qmap",
    "cube_cells",
    "gray_sequence",
    "minimize_disjoint",
    "minimize_esop",
    "pprm_cover",
    "verify_cover",
    "can_avoid_variable",
]


def gray_sequence(bits: int) -> tuple[int, ...]:
    """Reflected Gray order of all `bits`-bit values."""
    return tuple(i ^ (i >> 1) for i in range(1 << bits))


class CoverMode(Enum):
    DISJOINT = "disjoint"
    ESOP = "esop"


@dataclass(frozen=True, order=True)
class Cube:
    """A product term: bit i of `mask` marks variable i as present, and
    the matching bit of `value` gives its required polarity."""

    width: int
    mask: int
    value: int

    def __post_init__(self) -> None:
        full = (1 << self.width) - 1
        if self.mask & ~full:
            raise ValueError("mask wider than cube width")
        if self.value & ~self.mask:
            raise ValueError("value bits outside mask")

    @property
    def literal_count(self) -> int:
        return bin(self.mask).count("1")

    def covers(self, state: int) -> bool:
        return (state & self.mask) == self.value

    def cells(self) -> Iterator[int]:
        free = ~self.mask & ((1 << self.width) - 1)
        s = 0
        while True:
            yield self.value | s
            if s == free:
                return
            s = (s - free) & free

    def literals(self) -> list[tuple[int, bool]]:
        """(variable, is_positive) pairs, lowest variable first."""
        return [(i, bool(self.value >> i & 1))
                for i in range(self.width) if self.mask >> i & 1]

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


def cube_cells(c: Cube, n: int) -> set[int]:
    """All states agreeing with every literal of the cube."""
    if c.width != n:
        raise ValueError(f"cube width {c.width} != {n}")
    return set(c.cells())


@dataclass(frozen=True)
class Cover:
    mode: CoverMode
    cubes: tuple[Cube, ...]

    def __len__(self) -> int:
        return len(self.cubes)

    @property
    def literal_count(self) -> int:
        return sum(c.literal_count for c in self.cubes)

    def eval_xor(self, state: int) -> int:
        return sum(c.covers(state) for c in self.cubes) & 1

    def eval_or(self, state: int) -> int:
        return int(any(c.covers(state) for c in self.cubes))


@dataclass(frozen=True)
class QMapGrid:
    """Gray-labelled 2-D layout of a toggle function.

    Row labels assign the high variables q_{n-1}..q_k, column labels the
    low variables q_{k-1}..q_0; the cell at (r, c) holds the function
    value at state (rowlabel << k) | collabel, or None for don't-care.
    """

    width: int
    split: int
    rowvars: tuple[int, ...]
    colvars: tuple[int, ...]
    rowlabels: tuple[int, ...]
    collabels: tuple[int, ...]
    cells: tuple[tuple[int | None, ...], ...]
    primed: tuple[bool, ...]
    stage: int
    target: int

    def state_at(self, r: int, c: int) -> int:
        return (self.rowlabels[r] << self.split) | self.collabels[c]

    def value_at_state(self, state: int) -> int | None:
        return self.values_by_state()[state]

    def values_by_state(self) -> list[int | None]:
        vals: list[int | None] = [None] * (1 << self.width)
        for r, rl in enumerate(self.rowlabels):
            for c, cl in enumerate(self.collabels):
                vals[(rl << self.split) | cl] = self.cells[r][c]
        return vals


def build_qmap(t: ToggleTable) -> QMapGrid:
    """Lay a toggle table out on its Gray-labelled grid; the column
    block takes the low ceil(n/2) variables."""
    n = t.width
    k = (n + 1) // 2
    rowlabels = gray_sequence(n - k)
    collabels = gray_sequence(k)
    cells = tuple(
        tuple(t.entries[(rl << k) | cl] for cl in collabels)
        for rl in rowlabels)
    return QMapGrid(
        width=n,
        split=k,
        rowvars=tuple(range(n - 1, k - 1, -1)),
        colvars=tuple(range(k - 1, -1, -1)),
        rowlabels=rowlabels,
        collabels=collabels,
        cells=cells,
        primed=t.primed,
        stage=t.stage,
        target=t.target,
    )


def verify_cover(cover: Cover, g: QMapGrid) -> bool:
    """Check the mode's covering invariant cell by cell.

    Disjoint: no two cubes share any cell, every 1 covered exactly once,
    no 0 covered.  ESOP: every 1 covered an odd number of times, every 0
    an even number.  Don't-cares are unconstrained (ESOP) or covered at
    most once (disjoint, which forbids sharing outright).
    """
    if any(c.width != g.width for c in cover.cubes):
        return False
    values = g.values_by_state()
    for state, v in enumerate(values):
        count = sum(c.covers(state) for c in cover.cubes)
        if cover.mode is CoverMode.DISJOINT:
            if count > 1:
                return False
            if v is not None and count != v:
                return False
        else:
            if v is not None and count % 2 != v:
                return False
    return True


# --- exact minimization ----------------------------------------------------
#
# Key encoding: cost = cubes * 128 + literals, so a single integer min is
# the lexicographic (cube count, literal count) min.  For every function
# on m <= 4 variables (truth vector packed into an int, bit x = f(x)) the
# table holds the optimal key; the recurrence splits on the top variable:
#   f = P xor x'Q xor xR  with  Q = P xor f0,  R = P xor f1
# minimized over all subfunction choices P.  Terms in Q and R pay one
# extra literal per cube for the added polarity literal.  The disjoint
# table uses the same split restricted to P <= f0 AND f1 (cells of P are
# covered on both sides, so they must be 1 in both cofactors), which
# makes Q and R the exact set differences and keeps all terms disjoint.

_KEY_LITS = 128
_INF = 0xFFFF


def _key(cubes: int, lits: int) -> int:
    return cubes * _KEY_LITS + lits


# lazily built; concurrent rebuilds are idempotent, so no lock is needed
_tables_cache: dict[tuple[str, int], np.ndarray] = {}


def _tables(kind: str, m: int) -> list[np.ndarray]:
    """Optimal-key tables for 0..m variables (kind 'esop' or 'disjoint')."""
    out = []
    for level in range(m + 1):
        cached = _tables_cache.get((kind, level))
        if cached is None:
            if level == 0:
                cached = np.array([_key(0, 0), _key(1, 0)], dtype=np.uint16)
            else:
                cached = _build_level(out[level - 1], kind == "disjoint")
            _tables_cache[(kind, level)] = cached
        out.append(cached)
    return out


def _build_level(prev: np.ndarray, disjoint: bool) -> np.ndarray:
    half = prev.size
    prev32 = prev.astype(np.uint32)
    wrapped = prev32 + (prev32 >> 7)  # one extra literal per cube
    best = np.full((half, half), _INF, dtype=np.uint32)  # [f1, f0]
    idx = np.arange(half, dtype=np.int64)
    if disjoint:
        subset = np.empty(half, dtype=bool)
    for p in range(half):
        xp = wrapped[idx ^ p]
        cand = int(prev32[p]) + xp[:, None] + xp[None, :]
        if disjoint:
            np.equal(idx | p, idx, out=subset)
            cand = np.where(subset[:, None] & subset[None, :], cand, _INF)
        np.minimum(best, cand, out=best)
    return best.ravel().astype(np.uint16)


def _wrapped_key(table: np.ndarray, f: int) -> int:
    k = int(table[f])
    return k + (k >> 7)


def _reconstruct(kind: str, tabs: list[np.ndarray], f: int,
                 m: int) -> list[tuple[int, int]]:
    """One optimal cover of the fully-specified function f, as
    (mask, value) pairs over m variables."""
    if m == 0:
        return [] if f == 0 else [(0, 0)]
    half_states = 1 << (m - 1)
    f0 = f & ((1 << half_states) - 1)
    f1 = f >> half_states
    target = int(tabs[m][f])
    prev = tabs[m - 1]
    chosen = None
    for p in range(1 << half_states):
        if kind == "disjoint" and (p | (f0 & f1)) != (f0 & f1):
            continue
        q, r = p ^ f0, p ^ f1
        key = int(prev[p]) + _wrapped_key(prev, q) + _wrapped_key(prev, r)
        if key == target:
            chosen = (p, q, r)
            break
    assert chosen is not None, "table value must be realizable"
    p, q, r = chosen
    bit = 1 << (m - 1)
    cubes = _reconstruct(kind, tabs, p, m - 1)
    cubes += [(mask | bit, value) for mask, value in
              _reconstruct(kind, tabs, q, m - 1)]
    cubes += [(mask | bit, value | bit) for mask, value in
              _reconstruct(kind, tabs, r, m - 1)]
    return cubes


def _exact_cubes(kind: str, values: Sequence[int | None],
                 m: int) -> list[tuple[int, int]]:
    """Exact minimum cover of a possibly-incomplete function on m <= 4
    variables, taking the best completion of the don't-cares."""
    tabs = _tables(kind, m)
    base = 0
    dc: list[int] = []
    for state, v in enumerate(values):
        if v is None:
            dc.append(state)
        elif v:
            base |= 1 << state
    table = tabs[m]
    best_f = base
    best_key = int(table[base])
    for assign in range(1, 1 << len(dc)):
        f = base
        for j, state in enumerate(dc):
            if assign >> j & 1:
                f |= 1 << state
        key = int(table[f])
        if key < best_key:
            best_key, best_f = key, f
    return _reconstruct(kind, tabs, best_f, m)


# --- heuristic minimization ------------------------------------------------

def _pprm_terms(values: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Positive-polarity Reed-Muller monomials of a 0/1 vector."""
    coeff = list(values)
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                coeff[x] ^= coeff[x ^ bit]
    return [(s, s) for s in range(1 << n) if coeff[s]]


def _merge_partners(term: tuple[int, int],
                    m: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """(partner, merged) pairs: two terms differing in one variable slot
    XOR-combine into one (x xor x' drops the variable, C xor Cx gives
    Cx', Cx xor Cx' gives C)."""
    mask, value = term
    for i in range(m):
        bit = 1 << i
        if mask & bit:
            yield (mask, value ^ bit), (mask ^ bit, value & ~bit)
            yield (mask ^ bit, value & ~bit), (mask, value ^ bit)
        else:
            yield (mask | bit, value | bit), (mask | bit, value)
            yield (mask | bit, value), (mask | bit, value | bit)


def _merge_terms(terms: list[tuple[int, int]],
                 m: int) -> list[tuple[int, int]]:
    """Greedy pairwise reduction to a fixpoint; every step removes at
    least one term, and equal terms cancel outright (XOR semantics)."""
    pool: set[tuple[int, int]] = set()
    for t in terms:
        pool.symmetric_difference_update((t,))
    changed = True
    while changed:
        changed = False
        for t in sorted(pool):
            for partner, merged in _merge_partners(t, m):
                if partner in pool:
                    pool.remove(t)
                    pool.remove(partner)
                    pool.symmetric_difference_update((merged,))
                    changed = True
                    break
            if changed:
                break
    return sorted(pool)


@cache
def _blocks(m: int) -> tuple[tuple[int, int], ...]:
    """(mask, base) for every mask over m variables, fewest literals
    first; base has bit s set for each cell s with s & mask == 0, so the
    cells of cube (mask, value) are the bits of base << value."""
    base = [(1 << (1 << m)) - 1]
    for mask in range(1, 1 << m):
        low = mask & -mask  # cells with this bit clear: runs of `low`
        base.append(base[mask ^ low]
                    & base[0] // ((1 << 2 * low) - 1) * ((1 << low) - 1))
    return tuple(sorted(enumerate(base),
                        key=lambda mb: (mb[0].bit_count(), mb[0])))


def _greedy_disjoint(values: Sequence[int | None], m: int) -> list[tuple[int, int]]:
    """Largest-block-first cover: repeatedly seed at the lowest uncovered
    1-cell and take the biggest cube that fits in uncovered 1/don't-care
    cells, so the result is disjoint by construction.  Cell sets are
    ints, bit s for cell s."""
    need = sum(1 << s for s, v in enumerate(values) if v == 1)
    # cells no new cube may touch: the 0-cells, then every covered cell
    taken = sum(1 << s for s, v in enumerate(values) if v == 0)
    out: list[tuple[int, int]] = []
    while need:
        seed = (need & -need).bit_length() - 1
        # the full mask, the seed's own minterm, always fits
        for mk, base in _blocks(m):
            cells = base << (seed & mk)
            if not cells & taken:
                break
        out.append((mk, seed & mk))
        taken |= cells
        need &= ~cells
    return out


# --- variable elimination and lifting --------------------------------------

def _remove_var(values: Sequence[int | None], m: int,
                var: int) -> list[int | None] | None:
    """Project out one variable; None when the two cofactors conflict on
    a defined cell (no completion is independent of the variable)."""
    bit = 1 << var
    out: list[int | None] = []
    for x in range(1 << (m - 1)):
        low = x & (bit - 1)
        s0 = ((x >> var) << (var + 1)) | low
        a, b = values[s0], values[s0 | bit]
        if a is None:
            out.append(b)
        elif b is None or a == b:
            out.append(a)
        else:
            return None
    return out


def can_avoid_variable(entries: Sequence[int | None], width: int,
                       var: int) -> bool:
    """True iff some completion of the function ignores the variable."""
    return _remove_var(entries, width, var) is not None


def _insert_var(term: tuple[int, int], var: int) -> tuple[int, int]:
    mask, value = term
    low = (1 << var) - 1
    return (((mask & ~low) << 1) | (mask & low),
            ((value & ~low) << 1) | (value & low))


def _normalize_single_negatives(terms: list[tuple[int, int]],
                                m: int) -> list[tuple[int, int]]:
    """Flip pairs of complemented single-literal terms positive; the two
    constant-1 corrections cancel under XOR."""
    while True:
        singles = sorted(t for t in terms if t[0].bit_count() == 1 and t[1] == 0)
        if len(singles) < 2:
            break
        for t in singles[:2]:
            terms.remove(t)
            terms.append((t[0], t[0]))
    # a flip may duplicate an existing term; equal pairs cancel
    return _merge_terms(terms, m) if len(set(terms)) != len(terms) else terms


# --- public minimizers ------------------------------------------------------

def _prepare(g: QMapGrid, forbidden: frozenset[int]):
    values: Sequence[int | None] = g.values_by_state()
    m = g.width
    removed: list[int] = []
    for var in sorted(forbidden, reverse=True):
        reduced = _remove_var(values, m, var)
        if reduced is None:
            raise ValueError(f"no cover of this grid can avoid q{var}")
        values, m = reduced, m - 1
        removed.append(var)
    return values, m, sorted(removed)


def _finish(terms: list[tuple[int, int]], removed: list[int], width: int,
            mode: CoverMode) -> Cover:
    for var in removed:
        terms = [_insert_var(t, var) for t in terms]
    cubes = tuple(Cube(width, mk, v) for mk, v in sorted(terms))
    return Cover(mode, cubes)


def minimize_disjoint(g: QMapGrid,
                      forbidden: frozenset[int] = frozenset()) -> Cover:
    """Disjoint SOP cover; exact in (cubes, literals) up to 4 variables,
    largest-block-first greedy beyond."""
    values, m, removed = _prepare(g, forbidden)
    if g.width <= EXACT_WIDTH_CAP:
        terms = _exact_cubes("disjoint", values, m)
    else:
        terms = _greedy_disjoint(values, m)
    return _finish(terms, removed, g.width, CoverMode.DISJOINT)


def minimize_esop(g: QMapGrid,
                  forbidden: frozenset[int] = frozenset()) -> Cover:
    """ESOP cover; exact in (cubes, literals) for grids of up to 4
    variables, a Reed-Muller seed reduced by greedy term merging beyond."""
    values, m, removed = _prepare(g, forbidden)
    if g.width <= EXACT_WIDTH_CAP:
        terms = _exact_cubes("esop", values, m)
    else:
        terms = _merge_terms(_pprm_terms([v or 0 for v in values], m), m)
    terms = _normalize_single_negatives(terms, m)
    return _finish(terms, removed, g.width, CoverMode.ESOP)


def pprm_cover(t: ToggleTable) -> Cover:
    """Positive-polarity Reed-Muller expansion as an ESOP cover;
    don't-care entries are taken as 0."""
    values = [v or 0 for v in t.entries]
    terms = _pprm_terms(values, t.width)
    cubes = tuple(Cube(t.width, mk, v) for mk, v in sorted(terms))
    return Cover(CoverMode.ESOP, cubes)
