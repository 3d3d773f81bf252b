"""Exception types shared across the synthesis pipeline.

Every error that a CLI user can hit carries enough context to print a
one-line diagnostic (line numbers for parse errors, witness values for
semantic failures).
"""
from __future__ import annotations


class TruthTableError(ValueError):
    """Base class for truth-table parsing and validation failures."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TruthTableSyntaxError(TruthTableError):
    """Malformed line in a truth-table file."""


class DuplicateInputRow(TruthTableError):
    """The same input pattern appears on more than one data line."""


class MissingInputRow(TruthTableError):
    """Fewer than 2^width distinct input rows were supplied."""


class WidthMismatch(TruthTableError):
    """A row's bit count disagrees with the declared width."""


class NotBijective(TruthTableError):
    """Two inputs map to the same output; reports the colliding pair."""

    def __init__(self, output: int, first_input: int, second_input: int,
                 width: int, line: int | None = None):
        self.output = output
        self.inputs = (first_input, second_input)
        fmt = f"0{width}b"
        super().__init__(
            f"inputs {first_input:{fmt}} and {second_input:{fmt}} both map "
            f"to {output:{fmt}}", line)


class WidthOutOfRange(ValueError):
    """Requested bit width falls outside the supported range."""


class CascadeInfeasible(Exception):
    """A stage's toggle value is not a function of the intermediate state.

    Two inputs reach the same intermediate state at some stage but need
    different toggle values there; the witness pair is retained.
    """

    def __init__(self, stage: int, target: int, state: int,
                 inputs: tuple[int, int], width: int):
        self.stage = stage
        self.target = target
        self.state = state
        self.inputs = inputs
        self.width = width
        fmt = f"0{width}b"
        super().__init__(
            f"stage {stage} (target q{target}): inputs "
            f"{inputs[0]:{fmt}} and {inputs[1]:{fmt}} both reach "
            f"intermediate state {state:{fmt}} but need opposite toggles")


class NoFeasibleOrder(Exception):
    """No stage ordering admits a single-pass cascade for this function."""


class TargetReadWrite(Exception):
    """A stage's cover cannot avoid reading the bit it rewrites.  No
    library path raises it: a feasible cascade's toggles never read their
    target (see `cascade`)."""

    def __init__(self, stage: int, target: int):
        self.stage = stage
        self.target = target
        super().__init__(
            f"stage {stage}: every cover of the toggle function reads its "
            f"own target q{target}, which the gate model cannot express")


class UnloweredMct(Exception):
    """Operation requires NOT/CNOT/Toffoli only, but an MCT gate remains."""


class AncillaNotRestored(Exception):
    """An ancilla line ended a run holding a nonzero value."""

    def __init__(self, input_value: int, ancilla_bits: int):
        self.input = input_value
        self.ancilla_bits = ancilla_bits
        super().__init__(
            f"input {input_value:#b}: ancilla lines finished in state "
            f"{ancilla_bits:#b} instead of 0")


class StageOutOfRange(IndexError):
    """Requested stage index is not in [0, width)."""


class QasmSyntaxError(ValueError):
    """Unparseable or unsupported construct in an OpenQASM file."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")
