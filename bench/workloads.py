"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own: the generators, the expected
verdicts and the truth-table text the library is fed.  Nothing imports
qmap_synth, so the inputs and the answers they should get do not depend
on the code under test.

Tables are permutation tuples indexed by input value (bit i of a word is
q_i).  The width mix of each workload is fixed and only the contents are
seeded, so different seeds give batches of the same shape and cost.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

# A stage order is feasible iff every prefix map x -> (x & ~P) | (f(x) & P)
# is injective, P being the set of bits rewritten so far: two inputs that
# meet on an intermediate state can never be told apart again.


def _prefix_injective(table: tuple[int, ...], prefix: int) -> bool:
    keep = ~prefix
    return len({(x & keep) | (y & prefix)
                for x, y in enumerate(table)}) == len(table)


def order_is_feasible(table: tuple[int, ...], order: tuple[int, ...]) -> bool:
    prefix = 0
    for target in order[:-1]:
        prefix |= 1 << target
        if not _prefix_injective(table, prefix):
            return False
    return True


def has_feasible_order(table: tuple[int, ...], n: int) -> bool:
    """Whether any of the n! stage orders is feasible, by a DP over the
    2^n prefix sets instead of exhausting the orders."""
    reachable = [False] * (1 << n)
    reachable[0] = True
    for prefix in range(1, 1 << n):
        if not _prefix_injective(table, prefix):
            continue
        reachable[prefix] = any(reachable[prefix & ~(1 << t)]
                                for t in range(n) if prefix >> t & 1)
    return reachable[-1]


def order_rank(order: tuple[int, ...]) -> int:
    """Position of a permutation in lexicographic order (Lehmer code)."""
    rest = sorted(order)
    rank = 0
    for i, v in enumerate(order):
        k = rest.index(v)
        rank += k * factorial(len(order) - 1 - i)
        rest.pop(k)
    return rank


def random_feasible(n: int, rng: random.Random) -> tuple[int, ...]:
    """Compose n random single-target stages in natural order; each
    stage's toggle ignores its own target bit, so the natural cascade
    always exists."""
    table = list(range(1 << n))
    for target in range(n):
        tbit = 1 << target
        toggle = [rng.randint(0, 1) for _ in range(1 << n)]
        for v in range(1 << n):
            if v & tbit:
                toggle[v] = toggle[v ^ tbit]
        table = [v ^ (toggle[v] << target) for v in table]
    return tuple(table)


def relabel(table: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Conjugate by a bit permutation: bit i of a word moves to perm[i].
    A cascade in order o becomes one in order perm[o]."""
    n = len(perm)

    def move(x: int) -> int:
        return sum(((x >> i) & 1) << perm[i] for i in range(n))

    out = [0] * len(table)
    for x, y in enumerate(table):
        out[move(x)] = move(y)
    return tuple(out)


def relabelled_feasible(n: int, rng: random.Random) -> tuple[int, ...]:
    """A random feasible function whose natural order fails but some
    order succeeds."""
    natural = tuple(range(n))
    for _ in range(1000):
        perm = list(range(n))
        rng.shuffle(perm)
        table = relabel(random_feasible(n, rng), perm)
        if not order_is_feasible(table, natural):
            return table
    raise RuntimeError(f"no relabelled width-{n} function broke natural order")


def top_two_swap(n: int) -> tuple[int, ...]:
    """Exchange bits q_{n-1} and q_{n-2}; no stage order realizes it."""
    hi, lo = 1 << (n - 1), 1 << (n - 2)
    return tuple(x ^ (hi | lo) if bool(x & hi) != bool(x & lo) else x
                 for x in range(1 << n))


def render(table: tuple[int, ...], n: int) -> str:
    """Truth-table text in the library's input format."""
    rows = [f".width {n}"]
    rows += [f"{x:0{n}b} -> {y:0{n}b}" for x, y in enumerate(table)]
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class Item:
    """One input: its table, the text the library parses, and whether a
    circuit (True) or a NoFeasibleOrder verdict (False) is the right
    answer under the workload's order."""

    kind: str          # "feasible" or "swap"
    width: int
    table: tuple[int, ...]
    text: str
    expect_circuit: bool


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    order: str
    feasible: dict[int, int]     # width -> how many random functions
    swaps: dict[int, int]        # width -> how many top-two-bit swaps
    why: str


# The rand-* mix puts the 50th percentile in the middle of the 20
# width-8 functions and the 90th in the middle of the six width-9 ones,
# away from the jumps between widths.  Twenty functions at the median
# keep the seed's choice of contents from moving it much, and 34 tables
# give the 100 samples the 90th percentile needs in three passes.
# search-small puts its 50th percentile in the middle of the 48 width-5
# functions, whose search cost varies most from function to function, and
# its 90th in the middle of the 16 width-6 swaps, which take longer than
# any width-6 function and cost the same whatever the seed.
_RAND_MIX = {7: 8, 8: 20, 9: 6}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "rand-esop", "esop", "natural", _RAND_MIX, {},
            "34 seeded cascade-feasible fns (8x w7, 20x w8, 6x w9), esop, "
            "natural order, toffoli2: sim.verify and the ESOP merge loop"),
        Workload(
            "rand-disjoint", "disjoint", "natural", _RAND_MIX, {},
            "the rand-esop fns in disjoint mode, natural order, toffoli2: "
            "greedy disjoint minimizer; circuits 1.7x longer, 2x the X gates"),
        Workload(
            "search-small", "esop", "search",
            {3: 8, 4: 8, 5: 48, 6: 10}, {5: 1, 6: 16, 7: 1},
            "order=search, esop: 74 relabelled feasible fns (w3-6) and 18 "
            "top-two-bit swaps (w5-7) that must get NoFeasibleOrder"),
    )
}


def make_batch(workload: Workload, seed: int) -> list[Item]:
    """The workload's inputs for one seed, in a seeded order.  Under order
    search the random functions are relabelled so that the search has
    work to do."""
    search = workload.order == "search"
    generate = relabelled_feasible if search else random_feasible
    rng = random.Random(seed)
    tables = []
    for n, count in sorted(workload.feasible.items()):
        tables += [("feasible", n, generate(n, rng)) for _ in range(count)]
    for n, count in sorted(workload.swaps.items()):
        tables += [("swap", n, top_two_swap(n))] * count
    items = []
    for kind, n, table in tables:
        expect = (has_feasible_order(table, n) if search
                  else order_is_feasible(table, tuple(range(n))))
        items.append(Item(kind, n, table, render(table, n), expect))
    rng.shuffle(items)
    return items
