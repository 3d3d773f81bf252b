"""Order statistics for the benchmark report."""
from __future__ import annotations

from typing import NamedTuple, Sequence

MIN_ABOVE = 10


class Percentile(NamedTuple):
    q: int
    value: float
    samples: int
    above: int


def _rank(n: int, q: int) -> int:
    return max(1, (q * n + 99) // 100)  # ceil(q% of n), in integers


def percentile(samples: Sequence[float], q: int) -> Percentile:
    """Nearest-rank q-th percentile with its sample count.

    Refuses (ValueError) a percentile with fewer than MIN_ABOVE samples
    above it, where a single outlier would decide the value.
    """
    n = len(samples)
    rank = _rank(n, q)
    above = n - rank
    if above < MIN_ABOVE:
        raise ValueError(f"p{q} of {n} samples has {above} above it; "
                         f"needs at least {MIN_ABOVE}")
    return Percentile(q, sorted(samples)[rank - 1], n, above)


def min_samples(q: int) -> int:
    """Fewest samples for which `percentile(_, q)` is allowed."""
    n = 1
    while n - _rank(n, q) < MIN_ABOVE:
        n += 1
    return n

