"""The compile path the benchmark drives, untraced and traced.

`compile_table` is what `qmap-synth synth` runs per table, without file
I/O: parse, synthesize, verify, export.  `staged_compile` rebuilds the
same path stage by stage from public calls for the traced run.

Each call into a library module is wrapped in a span (name, start, end,
parent); the spans of one table share its id and hang off one root span
per table.  Spans stay in memory until the run writes them out.  Counts
are taken at the same call boundaries, from the values the calls return.

The rebuild must produce the same QASM as `synthesize`, byte for byte;
the run checks that, so the trace is known to time the same program.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from math import factorial
from typing import Any, Callable, NamedTuple

from qmap_synth import (
    Circuit,
    StageOrder,
    build_qmap,
    decompose,
    export_qasm,
    find_feasible_order,
    lower_mct,
    lower_polarity,
    minimize_disjoint,
    minimize_esop,
    parse_truth_table,
    realize_stage,
    synthesize,
    verify,
)
from qmap_synth.errors import NoFeasibleOrder, TargetReadWrite
from qmap_synth.qmap import EXACT_WIDTH_CAP, can_avoid_variable

from workloads import order_rank

ROOT_SPAN = "bench.table"
INFEASIBLE = "NoFeasibleOrder"
MISMATCH = "verify-mismatch"


class Span(NamedTuple):
    table: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """In-memory span log and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._table = -1
        self._root = -1

    def begin_table(self) -> None:
        self._table += 1
        self._root = len(self.spans)
        now = time.perf_counter()
        self.spans.append(
            Span(self._table, self._root, None, ROOT_SPAN, now, now))

    def end_table(self) -> None:
        self.spans[self._root] = self.spans[self._root]._replace(
            end=time.perf_counter())

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(self._table, len(self.spans), self._root,
                                   name, start, time.perf_counter()))


def compile_table(text: str, mode: str, order: str) -> str:
    """QASM text, INFEASIBLE or MISMATCH (the library's own verdict)."""
    f = parse_truth_table(text)
    try:
        circuit = synthesize(f, mode=mode, order=order)
    except NoFeasibleOrder:
        return INFEASIBLE
    if verify(circuit, f) is not None:
        return MISMATCH
    return export_qasm(circuit)


def staged_compile(text: str, mode: str, order: str, tr: Tracer) -> str:
    """`compile_table` with `synthesize` unrolled into its stages, traced
    as one table."""
    tr.begin_table()
    try:
        return _stages(text, mode, order, tr)
    finally:
        tr.end_table()


def _stages(text: str, mode: str, order: str, tr: Tracer) -> str:
    c = tr.counts
    f = tr.call("boolfn.parse_truth_table", parse_truth_table, text)
    n = f.width
    if order == "search":
        try:
            stage_order = tr.call("cascade.find_feasible_order",
                                  find_feasible_order, f)
        except NoFeasibleOrder:
            c["cascade.orders_tried"] += factorial(n)
            return INFEASIBLE
        c["cascade.orders_tried"] += order_rank(stage_order.order) + 1
        c["cascade.order_hits"] += 1
    else:
        stage_order = StageOrder.natural(n)
    tables = tr.call("cascade.decompose", decompose, f, stage_order)
    c["cascade.decompose.calls"] += 1
    minimize = minimize_disjoint if mode == "disjoint" else minimize_esop
    gates = []
    for t in tables:
        if t.is_zero():
            continue
        if not tr.call("qmap.can_avoid_variable", can_avoid_variable,
                       t.entries, t.width, t.target):
            raise TargetReadWrite(t.stage, t.target)
        grid = tr.call("qmap.build_qmap", build_qmap, t)
        # the rule both minimize_* apply to pick the exact engine
        path = "exact" if grid.width <= EXACT_WIDTH_CAP else "heuristic"
        cover = tr.call(f"qmap.minimize_{path}", minimize, grid,
                        forbidden=frozenset((t.target,)))
        c[f"qmap.stages_{path}"] += 1
        c["qmap.cubes"] += len(cover)
        c["qmap.literals"] += cover.literal_count
        gates += tr.call("circuit.realize_stage", realize_stage, cover,
                         t.target, t.width)
    lowered = tr.call("circuit.lower_polarity", lower_polarity, gates)
    negatives = sum(not ctl.positive for g in gates for ctl in g.controls)
    c["circuit.x_elided"] += len(gates) + 2 * negatives - len(lowered)
    circuit = tr.call("circuit.Circuit", Circuit, n, 0, tuple(lowered))
    circuit = tr.call("circuit.lower_mct", lower_mct, circuit)
    c["circuit.ancillas"] += circuit.ancilla_count
    mismatch = tr.call("sim.verify", verify, circuit, f)
    c["sim.gate_evals"] += (1 << n) * len(circuit)
    if mismatch is not None:
        return MISMATCH
    qasm = tr.call("qasm.export_qasm", export_qasm, circuit)
    c["qasm.bytes"] += len(qasm)
    return qasm


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, minus the time covered by child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start - child_time[s.id]
    return dict(out)
