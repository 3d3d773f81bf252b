"""Time each layer of the compile path on its own, one row per width and
mode, and print one JSON line per row.

    PYTHONPATH=src python tests/layers.py --widths 12 14 16 --modes esop disjoint

Each row is the seeded `random_feasible_function(n, Random(n))` from
conftest.py, rendered as text.  The layers run in this order, each
timed by `perf_counter` as the best of --repeat calls on the previous
layer's output: parse (`parse_truth_table`), construct (the
`ReversibleFunction` constructor alone, on the parsed table; parse
includes it), decompose (`cascade._cascade`), minimize
(`qmap._stage_terms` per nonzero stage), emit (`circuit._emit`), verify
(`sim.verify`), export (`export_qasm`) and parse_qasm (the exported text
read back, as the command line's `verify` and `export` do).
`parse_to_export` is the sum of the layers from parse to export, but
for construct.  `gates` is the circuit's length, and `x`, `cx` and
`ccx` its census (`Circuit.census`): emit, verify and export all
scale with the gate count.  `peak_rss_mb` is the process's peak resident
set so far, read after parse_qasm, so rows run in one process share
it: run one process per mode to compare modes.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from conftest import random_feasible_function
from qmap_synth import (
    ReversibleFunction,
    export_qasm,
    parse_qasm,
    parse_truth_table,
    render_truth_table,
    verify,
)
from qmap_synth.cascade import _cascade
from qmap_synth.circuit import _emit
from qmap_synth.qmap import CoverMode, _stage_terms


def best(repeat, fn, *args):
    """fn(*args) and the shortest of `repeat` timed calls, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return out, min(times)


def row(n: int, mode: CoverMode, repeat: int) -> dict:
    text = render_truth_table(random_feasible_function(n, random.Random(n)))
    s = {}
    f, s["parse"] = best(repeat, parse_truth_table, text)
    _, s["construct"] = best(repeat, ReversibleFunction, n, f.table)
    stages, s["decompose"] = best(repeat, _cascade, f, None)
    covers, s["minimize"] = best(repeat, lambda: [
        (target, _stage_terms(mode, toggle, n, target))
        for target, toggle in stages if toggle])
    circuit, s["emit"] = best(repeat, _emit, n, covers)
    mismatch, s["verify"] = best(repeat, verify, circuit, f)
    if mismatch is not None:
        raise SystemExit(f"n={n} {mode.value}: {mismatch}")
    qasm, s["export"] = best(repeat, export_qasm, circuit)
    _, s["parse_qasm"] = best(repeat, parse_qasm, qasm)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    census = circuit.census()
    return {"n": n, "mode": mode.value,
            "parse_to_export": sum(v for k, v in s.items()
                                   if k not in ("construct", "parse_qasm")),
            **s, "gates": len(circuit.gates),
            **{kind: census[kind] for kind in ("x", "cx", "ccx")},
            "distinct": len(set(circuit.gates)),
            "peak_rss_mb": round(peak_kb / 1024, 1)}


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--widths", type=int, nargs="+", required=True)
    p.add_argument("--modes", nargs="+", default=["esop"],
                   choices=[m.value for m in CoverMode])
    p.add_argument("--repeat", type=int, default=3, help="k in best of k")
    args = p.parse_args(argv)
    for mode in args.modes:
        for n in args.widths:
            print(json.dumps(row(n, CoverMode(mode), args.repeat)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
