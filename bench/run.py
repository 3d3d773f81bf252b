"""Layered benchmark for qmap-synth.

    python3 bench/run.py --workload rand-esop --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.
One caller compiles one truth table after another (a closed loop) for
--seconds, in whole passes over a seeded batch, on the path the CLI's
synth command runs per table: parse, synthesize, verify, export.  Every
output is then checked by the benchmark's own simulator (checker.py).
The timings behind the end-to-end metrics are scaled to a fixed host
speed by a reference loop timed between compiles (hostspeed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced passes of the same batch (pipeline.staged_compile) and
reports per-layer self times and counts plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A fuller report, with output fingerprints and, for traced
runs, every span, goes to bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from statistics import median

from hostspeed import HostSpeed
from stats import min_samples, percentile
from workloads import (
    WORKLOADS,
    Item,
    Workload,
    make_batch,
    random_feasible,
    render,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
# One caller, one thread: numpy's BLAS would otherwise start a thread per
# core at import, and how long that takes depends on the host's scheduler
# (0.07 s of a 0.2 s set-up, varying by half from minute to minute).
SINGLE_THREAD_ENV = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_RUNS = 7
SETUP_REF_SAMPLES = 15
# Import plus the first synth call in each mode, which builds the exact
# minimizer's tables: the fixed cost every CLI invocation pays.  After
# the timing, the same process times the host-speed reference.
SETUP_CODE = f"""
import time
t0 = time.perf_counter()
import qmap_synth
f = qmap_synth.gray_to_binary_function(4)
for mode in ("disjoint", "esop"):
    qmap_synth.synthesize(f, mode=mode)
t = time.perf_counter() - t0
from hostspeed import HostSpeed
speed = HostSpeed()
for _ in range({SETUP_REF_SAMPLES}):
    speed.sample()
print(t, speed.scale(speed.at[0], speed.at[-1]))
"""

MODULES = ("boolfn", "cascade", "qmap", "circuit", "sim", "qasm")
END_TO_END = {
    "setup_s": "s",
    "fn_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "gates": "count",
    "cost_weighted": "cost",
    "ancillas": "count",
    "peak_mem_mb": "MB",
    "ok_ratio": "ratio",
}
# Self times of the calls every workload makes, per module and per call;
# find_feasible_order and the exact minimizer run on search-small only, so
# their times are in the report file but not in this always-nonzero set.
PER_LAYER = {
    **{f"{m}.s": "s" for m in MODULES},
    **{f"{name}.s": "s" for name in (
        "boolfn.parse_truth_table", "cascade.decompose", "qmap.build_qmap",
        "qmap.minimize_heuristic", "circuit.realize_stage",
        "circuit.lower_polarity", "circuit.lower_mct", "sim.verify",
        "qasm.export_qasm")},
    "sim.gate_evals": "count",
    "qmap.stages_heuristic": "count",
    "qmap.stages_exact": "count",
    "qmap.cubes": "count",
    "qmap.literals": "count",
    "cascade.orders_tried": "count",
    "cascade.order_hit_ratio": "ratio",
    "cascade.decompose.calls": "count",
    "circuit.ancillas": "count",
    "circuit.x_elided": "count",
    "qasm.bytes": "bytes",
    "trace.overhead_s": "s",
}


def measure_setup() -> tuple[float, list[float], list[float]]:
    """Median over fresh interpreters, each time host-speed scaled by the
    reference samples its own process takes right after it; one more run
    before them fills the bytecode cache, as an installed package would
    have it.  Also the raw times and the scales."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times, scales = [], []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        t, scale = map(float, proc.stdout.split())
        times.append(t)
        scales.append(scale)
    scaled = [t * k for t, k in zip(times[1:], scales[1:])]
    return median(scaled), times, scales


def run_item(compile_fn, item: Item, workload: Workload) -> str:
    """The outcome of one table; an exception is recorded, not raised,
    so that one bad input counts as a failure and the run goes on."""
    try:
        return compile_fn(item.text, workload.mode, workload.order)
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        return f"error: {type(exc).__name__}: {exc}"


def run_pass(compile_fn, workload: Workload, batch: list[Item],
             rng: random.Random, speed: HostSpeed | None = None,
             ) -> tuple[list[str], list[tuple[float, float]]]:
    """One pass over the batch in a fresh seeded order, so that no item
    always follows the same one; outcomes and (start, end) times by batch
    index.  Reference samples, if any, are taken between items."""
    order = list(range(len(batch)))
    rng.shuffle(order)
    outs = [""] * len(batch)
    spans = [(0.0, 0.0)] * len(batch)
    for i in order:
        t0 = time.perf_counter()
        outs[i] = run_item(compile_fn, batch[i], workload)
        spans[i] = (t0, time.perf_counter())
        if speed is not None:
            speed.maybe_sample()
    return outs, spans


def pass_order_rng(seed: int) -> random.Random:
    return random.Random(f"pass-order:{seed}")


def warm_up(compile_fn) -> None:
    text = render(random_feasible(4, random.Random(0)), 4)
    for mode in ("disjoint", "esop"):
        compile_fn(text, mode, "natural")


def check_outcomes(batch: list[Item], outcomes: list[str]):
    """Per-item error (None when right) and the output fingerprint."""
    from checker import CheckError, check
    from pipeline import INFEASIBLE
    from qmap_synth import CostModel, GateKind

    totals = {"x": 0, "cx": 0, "ccx": 0, "ancillas": 0}
    errors: list[str | None] = []
    digest = hashlib.sha256()
    for item, out in zip(batch, outcomes):
        digest.update(out.encode() + b"\0")
        if not item.expect_circuit:
            errors.append(None if out == INFEASIBLE
                          else f"expected {INFEASIBLE}, got {out[:60]!r}")
            continue
        try:
            found = check(out, item.table, item.width)
        except CheckError as exc:
            errors.append(f"{exc} in output {out[:60]!r}")
            continue
        errors.append(None)
        for k in totals:
            totals[k] += found[k]
    weights = CostModel("weighted").weights
    fingerprint = {
        **totals,
        "gates": totals["x"] + totals["cx"] + totals["ccx"],
        "cost_weighted": sum(weights[GateKind(k)] * totals[k]
                             for k in ("x", "cx", "ccx")),
        "sha256": digest.hexdigest(),
    }
    return errors, fingerprint


def count_failures(errors: list[str | None], attempts: int,
                   diverged: list[int]) -> int:
    """Every attempt of a wrong item fails; of a right item, those whose
    output differs from the checked first one."""
    return sum(attempts if err else d for err, d in zip(errors, diverged))


def timed_run(workload: Workload, batch: list[Item], seconds: float,
              seed: int) -> dict:
    from pipeline import compile_table

    warm_up(compile_table)
    speed = HostSpeed()
    speed.sample()
    rng = pass_order_rng(seed)
    spans: list[list[tuple[float, float]]] = [[] for _ in batch]
    first: list[str] = []
    diverged = [0] * len(batch)
    need = min_samples(90)
    start = time.perf_counter()
    passes = 0
    while True:
        outs, times = run_pass(compile_table, workload, batch, rng, speed)
        for i, (out, t) in enumerate(zip(outs, times)):
            spans[i].append(t)
            if passes:
                diverged[i] += out != first[i]
        first = first or outs
        passes += 1
        if (time.perf_counter() - start >= seconds and passes >= MIN_PASSES
                and passes * len(batch) >= need):
            break
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors, fingerprint = check_outcomes(batch, first)
    attempted = passes * len(batch)
    failed = count_failures(errors, passes, diverged)
    raw = [[end - start for start, end in ts] for ts in spans]
    latencies = [[speed.scaled(*t) for t in ts] for ts in spans]
    samples = [t * 1000 for ts in latencies for t in ts]
    p50, p90 = percentile(samples, 50), percentile(samples, 90)
    raw_samples = [t * 1000 for ts in raw for t in ts]
    setup, setup_runs, setup_scales = measure_setup()
    metrics = {
        "setup_s": setup,
        # per-table medians over the passes, so one stall does not count
        "fn_per_s": len(batch) / sum(median(ts) for ts in latencies),
        "latency_ms.p50": p50.value,
        "latency_ms.p90": p90.value,
        "gates": fingerprint["gates"],
        "cost_weighted": fingerprint["cost_weighted"],
        "ancillas": fingerprint["ancillas"],
        "peak_mem_mb": peak_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    report = {
        "passes": passes,
        "wall_s": wall,
        "latency_samples": p90.samples,
        "p90_samples_above": p90.above,
        "fail_ratio": failed / attempted,
        "fingerprint": fingerprint,
        "setup_runs_s": setup_runs,
        "setup_scales": setup_scales,
        "raw": {
            "fn_per_s": len(batch) / sum(median(ts) for ts in raw),
            "latency_ms.p50": percentile(raw_samples, 50).value,
            "latency_ms.p90": percentile(raw_samples, 90).value,
        },
        "reference_ms": {"samples": len(speed.secs),
                         "min": min(speed.secs) * 1e3,
                         "median": median(speed.secs) * 1e3,
                         "max": max(speed.secs) * 1e3},
        "item_median_ms": [f"{item.kind}{item.width}:{median(ts) * 1e3:.3f}"
                           for item, ts in zip(batch, latencies)],
        "errors": [e for e in errors if e is not None],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "report": report}


def traced_run(workload: Workload, batch: list[Item], seconds: float,
               seed: int) -> dict:
    from pipeline import Tracer, compile_table, self_times, staged_compile

    warm_up(compile_table)
    rng = pass_order_rng(seed)
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracers: list[Tracer] = []
    first: list[str] = []
    diverged = [0] * len(batch)
    start = time.perf_counter()
    # Another untraced-plus-traced round only if it should end inside the
    # budget, so that a workload with long passes does not overrun by one.
    while not tracers or (time.perf_counter() - start
                          + untraced_walls[-1] + traced_walls[-1] <= seconds):
        t0 = time.perf_counter()
        plain, _ = run_pass(compile_table, workload, batch, rng)
        untraced_walls.append(time.perf_counter() - t0)
        tr = Tracer()
        traced = partial(staged_compile, tr=tr)
        t0 = time.perf_counter()
        staged, _ = run_pass(traced, workload, batch, rng)
        traced_walls.append(time.perf_counter() - t0)
        tracers.append(tr)
        first = first or plain
        for i, (a, b) in enumerate(zip(plain, staged)):
            diverged[i] += (a != first[i]) + (b != first[i])

    errors, fingerprint = check_outcomes(batch, first)
    passes = len(tracers)
    attempted = 2 * passes * len(batch)
    failed = count_failures(errors, 2 * passes, diverged)

    per_pass = [self_times(t.spans) for t in tracers]
    names = sorted({name for st in per_pass for name in st})
    layer_s = {f"{name}.s": median(st.get(name, 0.0) for st in per_pass)
               for name in names}
    for mod in MODULES:
        layer_s[f"{mod}.s"] = median(
            sum(t for name, t in st.items() if name.startswith(mod + "."))
            for st in per_pass)
    counts = tracers[0].counts
    tried = counts["cascade.orders_tried"]
    metrics = {
        **{name: layer_s.get(name, 0.0) for name in PER_LAYER
           if name.endswith(".s")},
        **{name: counts[name] for name, unit in PER_LAYER.items()
           if unit in ("count", "bytes")},
        "cascade.order_hit_ratio": (counts["cascade.order_hits"] / tried
                                    if tried else 0.0),
        "trace.overhead_s": median(traced_walls) - median(untraced_walls),
    }
    busy = sum(layer_s[f"{m}.s"] for m in MODULES)
    report = {
        "passes": passes,
        "untraced_pass_s": untraced_walls,
        "traced_pass_s": traced_walls,
        "module_share": {m: layer_s[f"{m}.s"] / busy for m in MODULES},
        "self_s": layer_s,
        "fail_ratio": failed / attempted,
        "fingerprint": fingerprint,
        "errors": [e for e in errors if e is not None],
    }
    spans = [{"pass": p, **s._asdict()}
             for p, t in enumerate(tracers) for s in t.spans]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "report": report, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qmap_synth" / "__init__.py").is_file():
        print(f"bench: no qmap_synth package under {SRC}; run from the "
              "root of a qmap-synth checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(SINGLE_THREAD_ENV)

    workload = WORKLOADS[args.workload]
    batch = make_batch(workload, args.seed)
    run = traced_run if args.trace else timed_run
    result = run(workload, batch, args.seconds, args.seed)
    units = PER_LAYER if args.trace else END_TO_END

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    report = {"workload": workload.name, "seed": args.seed,
              "mode": workload.mode, "order": workload.order,
              "batch": len(batch), **result}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{name:28s} {result['metrics'][name]:14.6g} {unit}")
    rep = result["report"]
    for key in ("passes", "latency_samples", "p90_samples_above",
                "fail_ratio", "raw", "reference_ms", "fingerprint",
                "module_share"):
        if key in rep:
            print(f"{key}: {rep[key]}")
    for err in rep["errors"][:5]:
        print(f"FAILED: {err}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
