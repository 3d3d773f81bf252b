"""Command-line driver: synth | verify | show | export | cost.

Exit codes: 0 success, 2 parse/usage failure, 3 infeasible cascade,
4 target-read-write, 5 verification mismatch.  Diagnostics go to stderr;
generated QASM goes to --out or stdout.
"""
from __future__ import annotations

import argparse
import string
import sys
from dataclasses import dataclass
from pathlib import Path

from .boolfn import ReversibleFunction, parse_truth_table
from .cascade import StageOrder, decompose, find_feasible_order
from .circuit import Circuit, CostModel, GateKind, cost, synthesize
from .errors import (
    AncillaNotRestored,
    CascadeInfeasible,
    NoFeasibleOrder,
    QasmSyntaxError,
    StageOutOfRange,
    TargetReadWrite,
    TruthTableError,
    UnloweredMct,
    WidthOutOfRange,
)
from .qasm import export_qasm, parse_qasm, split_ancillas
from .qmap import QMapGrid, build_qmap, minimize_disjoint, minimize_esop
from .sim import verify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_TARGET_READ_WRITE = 4
EXIT_MISMATCH = 5

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    subcommand: str
    input: Path | None = None
    circuit: Path | None = None
    mode: str = "esop"
    order: str = "natural"
    lower: str = "toffoli2"
    cost_mode: str = "count"
    out: Path | None = None
    stage: int = 0
    overlay: bool = False
    diagram: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmap-synth",
        description="Reversible-logic synthesis over the NOT/CNOT/Toffoli "
                    "basis via Gray-labelled toggle maps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *, needs_input=False,
                   needs_circuit=False, pipeline=False) -> None:
        if needs_input:
            p.add_argument("--input", required=True, type=Path,
                           help="truth table file")
        if needs_circuit:
            p.add_argument("--circuit", required=True, type=Path,
                           help="OpenQASM 2.0 file (x/cx/ccx subset)")
        if pipeline:
            p.add_argument("--mode", choices=["disjoint", "esop"],
                           default="esop", help="cover style per stage")
            p.add_argument("--order", choices=["natural", "search"],
                           default="natural",
                           help="stage order: fixed 0..n-1 or exhaustive search")

    p_synth = sub.add_parser("synth", help="compile a truth table to QASM")
    add_common(p_synth, needs_input=True, pipeline=True)
    p_synth.add_argument("--lower", choices=["none", "toffoli2"],
                         default="toffoli2",
                         help="expand wide gates into 2-control Toffolis")
    p_synth.add_argument("--cost", choices=["count", "weighted"],
                         default="count", dest="cost_mode")
    p_synth.add_argument("--out", type=Path, help="QASM output path "
                         "(default: stdout, with the summary on stderr)")
    p_synth.add_argument("--diagram", action="store_true",
                         help="also print an ASCII circuit diagram")

    p_verify = sub.add_parser("verify",
                              help="check a QASM circuit against a truth table")
    add_common(p_verify, needs_input=True, needs_circuit=True)

    p_show = sub.add_parser("show", help="print one stage's toggle map")
    add_common(p_show, needs_input=True, pipeline=True)
    p_show.add_argument("--stage", type=int, default=0,
                        help="stage index in the cascade order")
    p_show.add_argument("--overlay", action="store_true",
                        help="overlay the minimized cover as group letters")

    p_export = sub.add_parser("export",
                              help="re-emit a QASM file in canonical form")
    add_common(p_export, needs_circuit=True)
    p_export.add_argument("--out", type=Path)

    p_cost = sub.add_parser("cost", help="gate census and cost of a QASM file")
    add_common(p_cost, needs_circuit=True)
    p_cost.add_argument("--cost", choices=["count", "weighted"],
                        default="count", dest="cost_mode")

    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in ("input", "circuit", "mode", "order", "lower", "cost_mode",
                 "out", "stage", "overlay", "diagram"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    for path in (cfg.input, cfg.circuit):
        if path is not None and not path.is_file():
            raise FileNotFoundError(f"no such file: {path}")
    return cfg


def _read_function(cfg: RunConfig) -> ReversibleFunction:
    assert cfg.input is not None
    return parse_truth_table(cfg.input.read_text())


def _read_circuit(cfg: RunConfig) -> Circuit:
    assert cfg.circuit is not None
    return parse_qasm(cfg.circuit.read_text())


def _census_lines(c: Circuit, cost_mode: str) -> list[str]:
    counts = c.census()
    census = " ".join(f"{k.value}={counts[k.value]}" for k in GateKind)
    value = cost(c, CostModel(mode=cost_mode))  # type: ignore[arg-type]
    return [
        f"lines: {c.data_width} data + {c.ancilla_count} ancilla",
        f"gates: {len(c)} ({census})",
        f"cost({cost_mode}): {value:g}",
    ]


def _diagram(c: Circuit) -> str:
    names = [f"q{i}" for i in range(c.data_width)]
    names += [f"a{i}" for i in range(c.ancilla_count)]
    pad = max(len(s) for s in names)
    rows = [[f"{name:>{pad}}:"] for name in names]
    for g in c.gates:
        lo, hi = min(g.lines), max(g.lines)
        for line in range(c.total_width):
            if line == g.target:
                ch = "X"
            elif any(ctl.line == line for ctl in g.controls):
                ch = "*" if next(ctl.positive for ctl in g.controls
                                 if ctl.line == line) else "o"
            elif lo < line < hi:
                ch = "|"
            else:
                ch = "-"
            rows[line].append(f"-{ch}-")
    return "\n".join("".join(r) for r in rows)


def cmd_synth(cfg: RunConfig) -> int:
    f = _read_function(cfg)
    circuit = synthesize(f, mode=cfg.mode, order=cfg.order, lower=cfg.lower)
    mismatch = verify(circuit, f)
    if mismatch is not None:  # internal invariant, never expected
        print(f"synthesis self-check failed: {mismatch}", file=sys.stderr)
        return EXIT_MISMATCH
    try:
        qasm = export_qasm(circuit)
    except UnloweredMct as exc:
        print(f"error: {exc}; rerun with --lower toffoli2", file=sys.stderr)
        return EXIT_PARSE
    summary = _census_lines(circuit, cfg.cost_mode)
    if cfg.out is not None:
        cfg.out.write_text(qasm)
        print("\n".join(summary))
    else:
        sys.stdout.write(qasm)
        print("\n".join(summary), file=sys.stderr)
    if cfg.diagram:
        print(_diagram(circuit), file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    f = _read_function(cfg)
    raw = _read_circuit(cfg)
    if raw.total_width < f.width:
        print(f"error: circuit has {raw.total_width} lines but the table "
              f"needs {f.width}", file=sys.stderr)
        return EXIT_PARSE
    circuit = split_ancillas(raw, f.width)
    try:
        mismatch = verify(circuit, f)
    except AncillaNotRestored as exc:
        print(f"mismatch: lines above q{f.width - 1} are not clean "
              f"ancillas ({exc})", file=sys.stderr)
        return EXIT_MISMATCH
    if mismatch is None:
        print("equal")
        return EXIT_OK
    print(f"mismatch: {mismatch}", file=sys.stderr)
    return EXIT_MISMATCH


_GROUP_SYMBOLS = string.ascii_uppercase + string.ascii_lowercase + string.digits


def _group_symbol(i: int) -> str:
    return _GROUP_SYMBOLS[i] if i < len(_GROUP_SYMBOLS) else "?"


def _grid_text(grid: QMapGrid, overlay_cubes=None) -> str:
    def varname(i: int) -> str:
        return f"q{i}'" if grid.primed[i] else f"q{i}"

    rowhdr = " ".join(varname(i) for i in grid.rowvars) or "-"
    colhdr = " ".join(varname(i) for i in grid.colvars)
    rbits = len(grid.rowvars)
    left = max(len(rowhdr), rbits) + 2
    lines = [f"rows: {rowhdr} | cols: {colhdr}"]
    header = " " * left + "".join(
        f"{cl:0{len(grid.colvars)}b}".rjust(4) for cl in grid.collabels)
    lines.append(header)
    for r, rl in enumerate(grid.rowlabels):
        label = format(rl, f"0{rbits}b") if rbits else ""
        cells = []
        for c in range(len(grid.collabels)):
            v = grid.cells[r][c]
            if overlay_cubes is None:
                text = "-" if v is None else str(v)
            else:
                state = grid.state_at(r, c)
                letters = "".join(
                    _group_symbol(i) for i, cube in enumerate(overlay_cubes)
                    if cube.covers(state))
                text = letters or ("-" if v is None else ".")
            cells.append(text.rjust(4))
        lines.append(label.rjust(left) + "".join(cells))
    return "\n".join(lines)


def cmd_show(cfg: RunConfig) -> int:
    f = _read_function(cfg)
    if cfg.order == "search":
        order = find_feasible_order(f)
    else:
        order = StageOrder.natural(f.width)
    if not 0 <= cfg.stage < f.width:
        raise StageOutOfRange(
            f"stage {cfg.stage} not in [0, {f.width})")
    tables = decompose(f, order)
    table = tables[cfg.stage]
    grid = build_qmap(table)
    print(f"stage {table.stage}, target q{table.target}, toggle map:")
    print(_grid_text(grid))
    if cfg.overlay:
        forbidden = frozenset((table.target,))
        if cfg.mode == "disjoint":
            cover = minimize_disjoint(grid, forbidden=forbidden)
        else:
            cover = minimize_esop(grid, forbidden=forbidden)
        names = [f"q{i}'" if grid.primed[i] else f"q{i}"
                 for i in range(grid.width)]
        print(f"\n{cfg.mode} cover groups:")
        print(_grid_text(grid, overlay_cubes=cover.cubes))
        for i, cube in enumerate(cover.cubes):
            print(f"  {_group_symbol(i)}: {cube.render(names)}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    circuit = _read_circuit(cfg)
    qasm = export_qasm(circuit)
    if cfg.out is not None:
        cfg.out.write_text(qasm)
    else:
        sys.stdout.write(qasm)
    return EXIT_OK


def cmd_cost(cfg: RunConfig) -> int:
    circuit = _read_circuit(cfg)
    print("\n".join(_census_lines(circuit, cfg.cost_mode)))
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "verify": cmd_verify,
    "show": cmd_show,
    "export": cmd_export,
    "cost": cmd_cost,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except (TruthTableError, QasmSyntaxError, WidthOutOfRange,
            StageOutOfRange, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CascadeInfeasible, NoFeasibleOrder) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TargetReadWrite as exc:
        print(f"unrealizable: {exc}", file=sys.stderr)
        return EXIT_TARGET_READ_WRITE


if __name__ == "__main__":
    sys.exit(main())
