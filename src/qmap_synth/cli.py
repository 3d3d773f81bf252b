"""Command-line driver: synth | verify | show | export | cost.

Exit codes: 0 success, 2 parse/usage failure, 3 infeasible cascade,
5 verification mismatch.  Diagnostics go to stderr; generated QASM goes
to --out or stdout.  `show` prints a toggle map's cells as 0/1, or with
--overlay the letters of the cubes covering each cell ("." for none).
`synth --diagram` writes its rows one at a time, each built as one
string, and an argument that several subcommands take is declared
once, on a parent parser.
"""
from __future__ import annotations

import argparse
import string
import sys
from pathlib import Path
from typing import Iterator

from .boolfn import parse_truth_table
from .cascade import ToggleTable, decompose
from .circuit import Circuit, CostModel, cost, synthesize
from .errors import (
    AncillaNotRestored,
    CascadeInfeasible,
    NoFeasibleOrder,
    StageOutOfRange,
)
from .qasm import export_qasm, parse_qasm, split_ancillas
from .qmap import CoverMode, _cover
from .sim import verify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 5

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmap-synth",
        description="Reversible-logic synthesis over the NOT/CNOT/Toffoli "
                    "basis via Gray-labelled toggle maps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # the arguments that several subcommands share, each declared once
    table, circuit, pipeline, cost_mode = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    table.add_argument("--input", required=True, type=Path,
                       help="truth table file")
    circuit.add_argument("--circuit", required=True, type=Path,
                         help="OpenQASM 2.0 file (x/cx/ccx subset)")
    pipeline.add_argument("--mode", choices=["disjoint", "esop"],
                          default="esop", help="cover style per stage")
    pipeline.add_argument("--order", choices=["natural", "search"],
                          default="natural",
                          help="stage order: fixed 0..n-1, or the first "
                               "feasible one, found by a walk over the "
                               "sets of bits rewritten so far")
    cost_mode.add_argument("--cost", choices=["count", "weighted"],
                           default="count", dest="cost_mode")

    p_synth = sub.add_parser("synth", help="compile a truth table to QASM",
                             parents=[table, pipeline, cost_mode])
    p_synth.set_defaults(run=cmd_synth)
    p_synth.add_argument("--out", type=Path, help="QASM output path "
                         "(default: stdout, with the summary on stderr)")
    p_synth.add_argument("--diagram", action="store_true",
                         help="also print an ASCII circuit diagram")

    sub.add_parser(
        "verify", help="check a QASM circuit against a truth table",
        parents=[table, circuit]).set_defaults(run=cmd_verify)

    p_show = sub.add_parser("show", help="print one stage's toggle map",
                            parents=[table, pipeline])
    p_show.set_defaults(run=cmd_show)
    p_show.add_argument("--stage", type=int, default=0,
                        help="stage index in the cascade order")
    p_show.add_argument("--overlay", action="store_true",
                        help="overlay the minimized cover as group letters")

    p_export = sub.add_parser("export", parents=[circuit],
                              help="re-emit a QASM file in canonical form")
    p_export.set_defaults(run=cmd_export)
    p_export.add_argument("--out", type=Path)

    sub.add_parser("cost", help="gate census and cost of a QASM file",
                   parents=[circuit, cost_mode]).set_defaults(run=cmd_cost)

    return parser


def _census_lines(c: Circuit, cost_mode: str) -> list[str]:
    census = " ".join(f"{k}={n}" for k, n in c.census().items())
    value = cost(c, CostModel(mode=cost_mode))  # type: ignore[arg-type]
    return [
        f"lines: {c.data_width} data + {c.ancilla_count} ancilla",
        f"gates: {len(c)} ({census})",
        f"cost({cost_mode}): {value:.15g}",
    ]


def _diagram(c: Circuit) -> Iterator[str]:
    """One row per line, yielded as soon as it is built: a gate draws X
    on its target, * on its controls (`synthesize` emits no negative
    control) and | between them.  A row maps each gate, by its id, to
    the cell of that gate on that line, decided once per distinct gate
    (`synthesize` draws its gates from a pool), and joins the cells."""
    names = [f"q{i}" for i in range(c.data_width)]
    names += [f"a{i}" for i in range(c.ancilla_count)]
    pad = max(len(s) for s in names)
    gates = {id(g): g for g in c.gates}
    for line, name in enumerate(names):
        cells = {key: "-X-" if line == g.target
                 else "-*-" if line in g.lines
                 else "-|-" if min(g.lines) < line < max(g.lines)
                 else "---" for key, g in gates.items()}
        yield f"{name:>{pad}}:" + "".join(
            map(cells.__getitem__, map(id, c.gates)))


def cmd_synth(args: argparse.Namespace) -> int:
    f = parse_truth_table(args.input.read_text(encoding="utf-8-sig"))
    circuit = synthesize(f, mode=args.mode, order=args.order)
    mismatch = verify(circuit, f)
    if mismatch is not None:  # internal invariant, never expected
        print(f"synthesis self-check failed: {mismatch}", file=sys.stderr)
        return EXIT_MISMATCH
    qasm = export_qasm(circuit)
    summary = _census_lines(circuit, args.cost_mode)
    if args.out is not None:
        args.out.write_text(qasm, encoding="utf-8")
        print("\n".join(summary))
    else:
        sys.stdout.write(qasm)
        print("\n".join(summary), file=sys.stderr)
    if args.diagram:
        for row in _diagram(circuit):  # one row in memory at a time
            print(row, file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    f = parse_truth_table(args.input.read_text(encoding="utf-8-sig"))
    raw = parse_qasm(args.circuit.read_text(encoding="utf-8-sig"))
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


def _var_names(t: ToggleTable) -> list[str]:
    return [f"q{i}'" if t.primed[i] else f"q{i}" for i in range(t.width)]


def _gray_sequence(bits: int) -> tuple[int, ...]:
    """Reflected Gray order of all `bits`-bit values."""
    return tuple(i ^ (i >> 1) for i in range(1 << bits))


def _grid_text(t: ToggleTable, overlay_cubes=None) -> str:
    """The table's Gray-labelled grid: rows read q_{n-1}..q_k and columns
    q_{k-1}..q_0, k = ceil(n/2), each block labelled in reflected Gray
    order; the cell at labels (rl, cl) shows state rl << k | cl."""
    k = (t.width + 1) // 2
    rbits = t.width - k
    names = _var_names(t)
    rowhdr = " ".join(reversed(names[k:])) or "-"
    colhdr = " ".join(reversed(names[:k]))
    left = max(len(rowhdr), rbits) + 2
    lines = [f"rows: {rowhdr} | cols: {colhdr}"]
    collabels = _gray_sequence(k)
    lines.append(" " * left + "".join(f"{cl:0{k}b}".rjust(4)
                                      for cl in collabels))
    if overlay_cubes is None:
        texts = bin(t.on)[:1:-1].ljust(1 << t.width, "0")
    else:  # each cell's symbols, in cover order
        texts = [""] * (1 << t.width)
        for i, cube in enumerate(overlay_cubes):
            for state in cube.cells():
                texts[state] += _group_symbol(i)
    for rl in _gray_sequence(rbits):
        label = format(rl, f"0{rbits}b") if rbits else ""
        cells = [(texts[rl << k | cl] or ".").rjust(4) for cl in collabels]
        lines.append(label.rjust(left) + "".join(cells))
    return "\n".join(lines)


def cmd_show(args: argparse.Namespace) -> int:
    f = parse_truth_table(args.input.read_text(encoding="utf-8-sig"))
    if not 0 <= args.stage < f.width:
        raise StageOutOfRange(
            f"stage {args.stage} not in [0, {f.width})")
    tables = decompose(f, args.order)
    table = tables[args.stage]
    print(f"stage {table.stage}, target q{table.target}, toggle map:")
    print(_grid_text(table))
    if args.overlay:
        cover = _cover(table, frozenset((table.target,)),
                       CoverMode(args.mode))
        names = _var_names(table)
        print(f"\n{args.mode} cover groups:")
        print(_grid_text(table, overlay_cubes=cover.cubes))
        for i, cube in enumerate(cover.cubes):
            print(f"  {_group_symbol(i)}: {cube.render(names)}")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    circuit = parse_qasm(args.circuit.read_text(encoding="utf-8-sig"))
    qasm = export_qasm(circuit)
    if args.out is not None:
        args.out.write_text(qasm, encoding="utf-8")
    else:
        sys.stdout.write(qasm)
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    circuit = parse_qasm(args.circuit.read_text(encoding="utf-8-sig"))
    print("\n".join(_census_lines(circuit, args.cost_mode)))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, StageOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CascadeInfeasible, NoFeasibleOrder) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
