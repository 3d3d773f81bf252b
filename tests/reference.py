"""Slow references for the library's fast kernels.

These are the simulator, the greedy disjoint cover, the stage
decomposition and the stage-order search as they were before they became
bitset, numpy or prefix-set code: one input word at a time through every
gate, one cell at a time through every candidate cube, one input at a
time through every stage, and a full decomposition for every one of the
n! stage orders.  The library's simulator is `verify` alone, so the
tests read a circuit's output words and an unlowered circuit's
permutation from `run` and `permutation_of` here.  Beside them are the
heuristic ESOP minimizer on (mask, value) tuples, whose sweep scans
a set for every term's partner at each variable slot, both modes' public
minimizers as projection, cover and reopening of the forbidden
variables, one cell and one bit at a time, a gate's kind, lines and
checks derived on demand, a circuit's bounds check run on every gate, a
QASM renderer that formats every gate afresh, and the realize and
lowering passes that build every gate anew, per cube and per literal.
The cover code that now works on truth-vector ints keeps its list form
here too: variable projection and the Reed-Muller transform, one cell
at a time over `list[int]`.  `verify_cover`, the covering invariant
counted cell by cell, is the tests' only cover check.  The exact
minimizer is kept as it was before it became one memoized recurrence:
numpy tables of every function's optimal key, built level by level, and
a cover read back by rescanning the splits for the first one that
reaches the table's key.  `replay` runs a decomposition's toggle tables
on one input.  The property tests require the library to agree with
them exactly.
"""
from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from qmap_synth import (
    Circuit,
    Control,
    Counterexample,
    Cover,
    CoverMode,
    Cube,
    Gate,
    GateKind,
    ReversibleFunction,
    StageOrder,
    ToggleTable,
    cascade,
)
from qmap_synth.errors import (
    AncillaNotRestored,
    CascadeInfeasible,
    NoFeasibleOrder,
    UnloweredMct,
)


def compile_gate(g: Gate) -> tuple[int, int, int]:
    """(positive control mask, negative control mask, target bit)."""
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


def run(c: Circuit, x: int) -> int:
    out = run_int([compile_gate(g) for g in c.gates], x)
    if out >> c.data_width:
        raise AncillaNotRestored(x, out >> c.data_width)
    return out


def permutation_of(c: Circuit) -> list[int]:
    return [run(c, x) for x in range(1 << c.data_width)]


def verify(c: Circuit, f: ReversibleFunction) -> Counterexample | None:
    n = c.data_width
    for x in range(1 << n):
        got = run(c, x)
        if got != f.table[x]:
            return Counterexample(n, x, got, f.table[x])
    return None


def greedy_disjoint(values: Sequence[int], m: int) -> list[tuple[int, int]]:
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


def remove_var(values: Sequence[int], m: int, var: int) -> list[int] | None:
    """Project out one variable; None when the two cofactors differ on
    some cell."""
    bit = 1 << var
    out: list[int] = []
    for x in range(1 << (m - 1)):
        low = x & (bit - 1)
        s0 = ((x >> var) << (var + 1)) | low
        if values[s0] != values[s0 | bit]:
            return None
        out.append(values[s0])
    return out


def pprm_terms(values: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Positive-polarity Reed-Muller monomials of a 0/1 vector, by the
    in-place butterfly one cell at a time."""
    coeff = list(values)
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                coeff[x] ^= coeff[x ^ bit]
    return [(s, s) for s in range(1 << n) if coeff[s]]


def verify_cover(cover: Cover, values: Sequence[int], width: int) -> bool:
    """The mode's covering invariant, counted cell by cell: every cube
    is `width` wide; disjoint covers no cell twice, every 1 once and no
    0; ESOP covers every 1 an odd number of times and every 0 an even
    number."""
    if any(c.width != width for c in cover.cubes):
        return False
    for state, v in enumerate(values):
        count = sum((state & c.mask) == c.value for c in cover.cubes)
        if count % 2 != v or cover.mode is CoverMode.DISJOINT and count > 1:
            return False
    return True


def exact_cubes(kind: str, values: Sequence[int],
                m: int) -> list[tuple[int, int]]:
    """Exact cover of the function whose truth vector is summed one cell
    at a time."""
    f = sum(v << state for state, v in enumerate(values))
    return reconstruct(kind, exact_tables(kind, m), f, m)


# The exact engine as optimal-key tables.  Key: cubes * 128 + literals.
# Level m holds the key of every function f on m variables, the minimum
# over the splits  f = P xor x'Q xor xR,  Q = P xor f0,  R = P xor f1,
# of key(P) + key(Q) + key(R) plus one literal per cube of Q and R;
# disjoint mode keeps only P <= f0 AND f1.

_INF = 0xFFFF


def exact_tables(kind: str, m: int) -> list[np.ndarray]:
    """Optimal-key tables for 0..m variables (kind 'esop' or 'disjoint')."""
    tabs = [np.array([0, 128], dtype=np.uint16)]
    for _ in range(m):
        prev32 = tabs[-1].astype(np.uint32)
        half = prev32.size
        wrapped = prev32 + (prev32 >> 7)  # one extra literal per cube
        best = np.full((half, half), _INF, dtype=np.uint32)  # [f1, f0]
        idx = np.arange(half, dtype=np.int64)
        for p in range(half):
            xp = wrapped[idx ^ p]
            cand = int(prev32[p]) + xp[:, None] + xp[None, :]
            if kind == "disjoint":
                subset = (idx | p) == idx
                cand = np.where(subset[:, None] & subset[None, :], cand, _INF)
            np.minimum(best, cand, out=best)
        tabs.append(best.ravel().astype(np.uint16))
    return tabs


def reconstruct(kind: str, tabs: list[np.ndarray], f: int,
                m: int) -> list[tuple[int, int]]:
    """One optimal cover of f as (mask, value) pairs over m variables:
    the cubes of the first P, in ascending order, whose split reaches
    the table's key, then those of Q and R with the top variable added
    negative and positive."""
    if m == 0:
        return [] if f == 0 else [(0, 0)]
    half_states = 1 << (m - 1)
    f0 = f & ((1 << half_states) - 1)
    f1 = f >> half_states
    prev = tabs[m - 1]

    def wrapped(g: int) -> int:
        k = int(prev[g])
        return k + (k >> 7)

    chosen = None
    for p in range(1 << half_states):
        if kind == "disjoint" and (p | (f0 & f1)) != (f0 & f1):
            continue
        q, r = p ^ f0, p ^ f1
        if int(prev[p]) + wrapped(q) + wrapped(r) == int(tabs[m][f]):
            chosen = (p, q, r)
            break
    assert chosen is not None, "table value must be realizable"
    p, q, r = chosen
    bit = 1 << (m - 1)
    cubes = reconstruct(kind, tabs, p, m - 1)
    cubes += [(mask | bit, value) for mask, value in
              reconstruct(kind, tabs, q, m - 1)]
    cubes += [(mask | bit, value | bit) for mask, value in
              reconstruct(kind, tabs, r, m - 1)]
    return cubes


def find_feasible_order(f: ReversibleFunction) -> StageOrder:
    """First of the n! stage orders, in lexicographic order, for which
    decompose succeeds."""
    for perm in permutations(range(f.width)):
        order = StageOrder(perm)
        try:
            cascade.decompose(f, order)
        except CascadeInfeasible:
            continue
        return order
    raise NoFeasibleOrder(f"all {f.width}! stage orders fail")


def decompose(f: ReversibleFunction, order: StageOrder) -> list[ToggleTable]:
    """`cascade.decompose` one input at a time: each stage's entry at a
    state is the toggle of the first input to reach it, and the first
    input that needs the opposite toggle there gives the witness pair of
    CascadeInfeasible.  The tables are built once every stage has
    passed: two inputs that meet leave a state unreached (None) until
    they disagree at a later stage."""
    n = f.width
    size = 1 << n
    # states[x] is the intermediate state input x has reached so far
    states = list(range(size))
    stages: list[list[int | None]] = []
    for stage, target in enumerate(order):
        tbit = 1 << target
        entries: list[int | None] = [None] * size
        reached_by = [0] * size
        for x in range(size):
            v = states[x]
            t = ((x ^ f.table[x]) >> target) & 1
            if entries[v] is None:
                entries[v] = t
                reached_by[v] = x
            elif entries[v] != t:
                raise CascadeInfeasible(stage, target, v,
                                        (reached_by[v], x), n)
        for x in range(size):
            if (states[x] ^ f.table[x]) & tbit:
                states[x] ^= tbit
        stages.append(entries)
    return [ToggleTable(stage, target, n,
                        sum(t << v for v, t in enumerate(entries)),
                        tuple(j in order.order[:stage] for j in range(n)))
            for stage, (target, entries) in enumerate(zip(order, stages))]


def merge_partners(term: tuple[int, int],
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


def merge_terms(terms: list[tuple[int, int]],
                m: int) -> list[tuple[int, int]]:
    """Greedy pairwise ESOP reduction that restarts from the sorted pool
    after every merge: the smallest term with a partner merges with its
    first partner.  Only `normalize_single_negatives` uses it, on a
    cover whose flips made two terms equal."""
    pool: set[tuple[int, int]] = set()
    for t in terms:
        pool.symmetric_difference_update((t,))
    changed = True
    while changed:
        changed = False
        for t in sorted(pool):
            for partner, merged in merge_partners(t, m):
                if partner in pool:
                    pool.remove(t)
                    pool.remove(partner)
                    pool.symmetric_difference_update((merged,))
                    changed = True
                    break
            if changed:
                break
    return sorted(pool)


def sweep_terms(terms: list[tuple[int, int]],
                m: int) -> list[tuple[int, int]]:
    """The heuristic ESOP reduction of a Reed-Muller seed: for each
    variable slot i, lowest first, every term (P, N) without the
    variable whose partner (P + i, N) is in the pool merges with it into
    (P, N + i), C xor Cx giving Cx'; the pool is scanned as a set."""
    pool: set[tuple[int, int]] = set()
    for t in terms:
        pool.symmetric_difference_update((t,))
    for i in range(m):
        bit = 1 << i
        for mask, value in sorted(pool):
            partner = (mask | bit, value | bit)
            if not mask & bit and partner in pool:
                pool.remove((mask, value))
                pool.remove(partner)
                pool.symmetric_difference_update(((mask | bit, value),))
    return sorted(pool)


def normalize_single_negatives(terms: list[tuple[int, int]],
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
    return merge_terms(terms, m) if len(set(terms)) != len(terms) else terms


def insert_var(term: tuple[int, int], var: int) -> tuple[int, int]:
    """Reopen variable slot `var`: the slots at and above it move up one."""
    def spread(x: int) -> int:
        return sum(1 << (i + (i >= var)) for i in range(x.bit_length())
                   if x >> i & 1)
    return spread(term[0]), spread(term[1])


def _cover(mode: CoverMode, values: Sequence[int], m: int,
           forbidden: frozenset[int], cubes_of) -> Cover:
    """Project out the forbidden variables, highest first, cover what
    remains with `cubes_of(values, m)`, and reopen the forbidden slots,
    lowest first."""
    width = m
    for var in sorted(forbidden, reverse=True):
        reduced = remove_var(values, m, var)
        assert reduced is not None, f"no cover can avoid q{var}"
        values, m = reduced, m - 1
    terms = cubes_of(values, m)
    for var in sorted(forbidden):
        terms = [insert_var(t, var) for t in terms]
    return Cover(mode, tuple(Cube(width, mk, v) for mk, v in sorted(terms)))


def minimize_esop_heuristic(values: Sequence[int], m: int,
                            forbidden: frozenset[int] = frozenset()) -> Cover:
    """`minimize_esop` on a grid wider than the exact cap: the Reed-Muller
    terms of the function, swept."""
    return _cover(CoverMode.ESOP, values, m, forbidden,
                  lambda vs, k: normalize_single_negatives(
                      sweep_terms(pprm_terms(vs, k), k), k))


def minimize_esop_exact(values: Sequence[int], m: int,
                        forbidden: frozenset[int] = frozenset()) -> Cover:
    """`minimize_esop` on a grid within the exact cap: the exact cover,
    its complemented single literals flipped positive in pairs."""
    return _cover(CoverMode.ESOP, values, m, forbidden,
                  lambda vs, k: normalize_single_negatives(
                      exact_cubes("esop", vs, k), k))


def minimize_disjoint_heuristic(values: Sequence[int], m: int,
                                forbidden: frozenset[int] = frozenset()
                                ) -> Cover:
    """`minimize_disjoint` on a grid wider than the exact cap: the
    largest-block-first cover."""
    return _cover(CoverMode.DISJOINT, values, m, forbidden, greedy_disjoint)


def minimize_disjoint_exact(values: Sequence[int], m: int,
                            forbidden: frozenset[int] = frozenset()
                            ) -> Cover:
    """`minimize_disjoint` on a grid within the exact cap: the exact
    cover."""
    return _cover(CoverMode.DISJOINT, values, m, forbidden,
                  lambda vs, k: exact_cubes("disjoint", vs, k))


def gate_kind(g: Gate) -> GateKind:
    if len(g.controls) >= 3 or any(not c.positive for c in g.controls):
        return GateKind.MCT
    return (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)[len(g.controls)]


def gate_lines(g: Gate) -> tuple[int, ...]:
    return tuple(c.line for c in g.controls) + (g.target,)


def gate_error(target: int, controls: tuple[Control, ...]) -> str | None:
    """The ValueError message a gate with these lines must raise, or
    None when it is valid."""
    lines = [c.line for c in controls]
    if target in lines:
        return f"target line {target} is also a control"
    if len(set(lines)) != len(lines):
        return f"duplicate control lines in {lines}"
    if target < 0 or any(l < 0 for l in lines):
        return "negative line index"
    return None


def circuit_error(data_width: int, ancilla_count: int,
                  gates: Sequence[Gate]) -> str | None:
    """The ValueError message `Circuit` must raise: for a data width
    below 1 or a negative ancilla count, else for the first gate past
    the total width; None when the counts are possible and all fit."""
    if data_width < 1:
        return f"data width {data_width} < 1"
    if ancilla_count < 0:
        return f"ancilla count {ancilla_count} < 0"
    width = data_width + ancilla_count
    for g in gates:
        if any(l >= width for l in gate_lines(g)):
            return f"gate {g} uses a line >= total width {width}"
    return None


def export_qasm(c: Circuit) -> str:
    """Render every gate on its own, refusing unlowered ones."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.total_width}];",
    ]
    for g in c.gates:
        kind = gate_kind(g)
        if kind is GateKind.MCT:
            raise UnloweredMct(
                f"gate {g} must be lowered before QASM export")
        args = [c2.line for c2 in g.controls] + [g.target]
        lines.append(f"{kind.value} " + ",".join(f"q[{a}]" for a in args) + ";")
    return "\n".join(lines) + "\n"


def replay(tables: Sequence[ToggleTable], x: int) -> int:
    """Apply the stage toggles to input x; the defining contract is
    replay(decompose(f)) == f on every input."""
    v = x
    for table in tables:
        v ^= (table.on >> v & 1) << table.target
    return v


def realize_stage(cover: Cover, target: int, n: int) -> list[Gate]:
    """One gate per cube, its controls read off the cube one variable at
    a time, each cube checked on its own."""
    gates = []
    for cube in cover.cubes:
        if cube.width != n:
            raise ValueError(f"cube width {cube.width} != stage width {n}")
        if cube.mask >> target & 1:
            raise ValueError(f"the cover reads its target line {target}")
        controls = tuple(Control(i, bool(cube.value >> i & 1))
                         for i in range(cube.width) if cube.mask >> i & 1)
        gates.append(Gate(target, controls))
    return gates


def lower_polarity(gates: Sequence[Gate]) -> list[Gate]:
    """X-conjugate every negative control with freshly built gates, then
    drop X pairs with nothing on their line in between."""
    expanded: list[Gate] = []
    for g in gates:
        neg = sorted(c.line for c in g.controls if not c.positive)
        expanded += [Gate.x(l) for l in neg]
        expanded.append(Gate(g.target, tuple(Control(c.line) for c in g.controls))
                        if neg else g)
        expanded += [Gate.x(l) for l in reversed(neg)]

    out: list[Gate | None] = []
    pending: dict[int, int] = {}  # line -> index of an unmatched X
    for g in expanded:
        if gate_kind(g) is GateKind.NOT:
            l = g.target
            prev = pending.pop(l, None)
            if prev is not None:
                out[prev] = None
                continue
            pending[l] = len(out)
            out.append(g)
        else:
            for l in gate_lines(g):
                pending.pop(l, None)
            out.append(g)
    return [g for g in out if g is not None]


def lower_mct(circuit: Circuit) -> Circuit:
    """Compute/uncompute sandwich per wide gate over a pooled ancilla
    stack, every Toffoli built anew."""
    base = circuit.total_width
    free: list[int] = []
    allocated = 0
    out: list[Gate] = []
    for g in circuit.gates:
        if any(not c.positive for c in g.controls):
            raise ValueError("lower_polarity must run before lower_mct")
        if len(g.controls) <= 2:
            out.append(g)
            continue
        controls = tuple(c.line for c in g.controls)
        compute: list[Gate] = []
        while len(controls) > 2:
            if not free:
                free.append(base + allocated)
                allocated += 1
            a = free.pop()
            compute.append(Gate.ccx(controls[-2], controls[-1], a))
            controls = controls[:-2] + (a,)
        out += compute + [Gate.mct(controls, g.target)] + compute[::-1]
        free += [c.target for c in compute[::-1]]
    return Circuit(circuit.data_width, circuit.ancilla_count + allocated,
                   tuple(out))
