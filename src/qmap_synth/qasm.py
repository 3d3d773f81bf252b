"""OpenQASM 2.0 interchange, restricted to the x/cx/ccx subset.

Export is deterministic byte-for-byte; the parser accepts exactly what
export produces plus blank lines and // comments, and reports the line
number of anything else.  A synthesized circuit of width 16 repeats a
few hundred distinct lines over millions, so the parser parses each
distinct line once per call, to its gate or to None, and reads the text
as a lazy stream, one chunk of lines at a time, so that it keeps
nothing per line but that gate or None.  QASM has a single flat
register, so a parsed circuit comes back with every line as a data
line; `split_ancillas` reinterprets the top lines as ancillas when the
caller knows the data width.
"""
from __future__ import annotations

import re
from typing import Iterator

from .circuit import Circuit, Gate
from .errors import QasmSyntaxError, UnloweredMct

__all__ = ["export_qasm", "parse_qasm", "split_ancillas"]

_GATES = {"x": (1, Gate.x), "cx": (2, Gate.cx), "ccx": (3, Gate.ccx)}
MAX_QREG_WIDTH = 64  # `synthesize` emits at most 16 data + 13 ancilla lines


def export_qasm(c: Circuit) -> str:
    """Render a lowered circuit; gates with three or more controls (or
    negative polarities) have no encoding in the subset and are refused,
    the first one met by name (UnloweredMct)."""
    # each gate holds its line from construction (`Gate._qasm`), and an
    # MCT gate holds None, which makes the join raise TypeError; only
    # then is the first such gate looked for, so a lowered circuit pays
    # for no scan
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.total_width}];",
        *[g._qasm for g in c.gates],
    ]
    try:
        return "\n".join(lines) + "\n"  # type: ignore[arg-type]
    except TypeError:
        g = next(g for g in c.gates if g._qasm is None)
        raise UnloweredMct(
            f"gate {g} must be lowered before QASM export") from None


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]{1,9})\s*\]\s*;$")
_GATE_RE = re.compile(r"^([a-z]+)\s+(.*);$")
_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]{1,9})\s*\]$")


def parse_qasm(text: str) -> Circuit:
    """Parse the exported subset back into a circuit (all lines data)."""
    lines = enumerate(_lines(text), start=1)
    header = ((n, stmt) for n, raw in lines if (stmt := _statement(raw)))
    lineno = 1  # where a missing statement is reported: the last one read
    for want in ("OPENQASM 2.0;", 'include "qelib1.inc";'):
        lineno, stmt = next(header, (lineno, None))
        if stmt != want:
            raise QasmSyntaxError(f'expected "{want}"', lineno)
    lineno, decl = next(header, (lineno, None))
    if decl is None:
        raise QasmSyntaxError("missing qreg declaration", lineno)
    m = _QREG_RE.match(decl)
    if m is None:
        raise QasmSyntaxError(f"expected qreg declaration, got {decl!r}", lineno)
    reg, width = m.group(1), int(m.group(2))
    if not 0 < width <= MAX_QREG_WIDTH:
        raise QasmSyntaxError(
            f"qreg width {width} not in [1, {MAX_QREG_WIDTH}]", lineno)

    gates: list[Gate | None] = []
    # raw line -> its gate, or None for a line with no statement: each
    # distinct line is stripped and parsed once, and a repeated line is
    # one dict lookup
    parsed: dict[str, Gate | None] = {}
    for lineno, raw in lines:  # the header's stream, after the qreg line
        try:
            g = parsed[raw]
        except KeyError:
            stmt = _statement(raw)
            g = parsed[raw] = (_parse_gate(stmt, reg, width, lineno)
                               if stmt else None)
        gates.append(g)

    # see `_parse_gate`; gates are truthy, so only the Nones go
    return Circuit._unchecked(width, 0, tuple(filter(None, gates)))


def _statement(raw: str) -> str:
    """A line's text before any // comment, stripped."""
    return raw.split("//", 1)[0].strip()


def _lines(text: str, chunk: int = 1 << 16) -> Iterator[str]:
    """The lines of `text.splitlines()`, one chunk of about `chunk`
    characters at a time, so that no list of every line is built.  Each
    chunk ends just after a newline or at the end of the text, and
    splitlines always breaks a line there, so the chunks' lines are the
    text's."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _parse_gate(stmt: str, reg: str, width: int, lineno: int) -> Gate:
    """The gate of one statement over register `reg` of `width` lines;
    anything else raises QasmSyntaxError at lineno."""
    gm = _GATE_RE.match(stmt)
    if gm is None:
        raise QasmSyntaxError(f"unparseable statement {stmt!r}", lineno)
    mnemonic, argtext = gm.group(1), gm.group(2)
    if mnemonic not in _GATES:
        raise QasmSyntaxError(
            f"unsupported gate {mnemonic!r} (subset is x/cx/ccx)", lineno)
    arity, make = _GATES[mnemonic]
    args = []
    for piece in argtext.split(","):
        am = _ARG_RE.match(piece.strip())
        if am is None:
            raise QasmSyntaxError(f"bad operand {piece.strip()!r}", lineno)
        if am.group(1) != reg:
            raise QasmSyntaxError(f"unknown register {am.group(1)!r}", lineno)
        index = int(am.group(2))
        if index >= width:
            raise QasmSyntaxError(
                f"index {index} out of range for q[{width}]", lineno)
        args.append(index)
    if len(args) != arity:
        raise QasmSyntaxError(
            f"{mnemonic} takes {arity} operands, got {len(args)}", lineno)
    try:
        return make(*args)  # controls, then target
    except ValueError as exc:
        raise QasmSyntaxError(str(exc), lineno) from None


def split_ancillas(c: Circuit, data_width: int) -> Circuit:
    """Reinterpret the lines above data_width as ancillas."""
    if not 0 < data_width <= c.total_width:
        raise ValueError(
            f"data width {data_width} not in [1, {c.total_width}]")
    return Circuit._unchecked(data_width, c.total_width - data_width, c.gates)
