import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    edited_text,
    gates_on,
    optimized_reference_circuit,
    random_feasible_function,
    unoptimized_reference_circuit,
)
from qmap_synth import (
    Circuit,
    Control,
    Gate,
    export_qasm,
    lower_mct,
    lower_polarity,
    parse_qasm,
    split_ancillas,
    synthesize,
)
from qmap_synth.errors import QasmSyntaxError, UnloweredMct
from qmap_synth.qasm import MAX_QREG_WIDTH, _lines


@st.composite
def raw_circuits(draw):
    """1-6 data lines and up to 20 gates of 0-4 controls, either
    polarity: mostly not in the exported subset."""
    n = draw(st.integers(1, 6))
    gates = draw(st.lists(gates_on(list(range(n))), max_size=20))
    return Circuit(n, 0, tuple(gates))


lowered_circuits = raw_circuits().map(
    lambda c: lower_mct(Circuit(c.data_width, 0,
                                tuple(lower_polarity(c.gates)))))


def rendered(export, c):
    """The QASM text, or the refusal with its message (which names the
    first MCT gate in circuit order)."""
    try:
        return export(c)
    except UnloweredMct as exc:
        return UnloweredMct, str(exc)


class TestExport:
    def test_golden_bytes(self):
        c = Circuit(4, 0, (Gate.cx(3, 2), Gate.x(0), Gate.ccx(1, 3, 0)))
        assert export_qasm(c) == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[4];\n"
            "cx q[3],q[2];\n"
            "x q[0];\n"
            "ccx q[1],q[3],q[0];\n"
        )

    def test_empty_circuit_header_only(self):
        assert export_qasm(Circuit(4, 0, ())) == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[4];\n"
        )

    def test_ancillas_extend_register(self):
        c = Circuit(4, 1, (Gate.ccx(2, 3, 4),))
        assert "qreg q[5];" in export_qasm(c)

    def test_rejects_mct(self):
        c = Circuit(4, 0, (Gate.mct([1, 2, 3], 0),))
        with pytest.raises(UnloweredMct):
            export_qasm(c)

    def test_deterministic(self):
        c = unoptimized_reference_circuit()
        assert export_qasm(c) == export_qasm(c)

    def test_names_the_first_unlowered_gate(self):
        lowered = (Gate.x(0), Gate.cx(0, 1), Gate.ccx(0, 1, 2)) * 1000
        first = Gate(1, (Control(0, False),))
        c = Circuit(4, 0, lowered + (first, Gate.mct([0, 1, 2], 3)))
        with pytest.raises(UnloweredMct) as exc:
            export_qasm(c)
        assert str(exc.value) == f"gate {first} must be lowered before QASM export"

    def test_rejects_mct_on_lines_already_rendered(self):
        c = Circuit(3, 0, (Gate.ccx(1, 2, 0),
                           Gate(0, (Control(1), Control(2, False)))))
        with pytest.raises(UnloweredMct):
            export_qasm(c)


class TestAgainstPerGateRenderer:
    @settings(max_examples=200, deadline=None)
    @given(lowered_circuits)
    def test_same_bytes_on_lowered_circuits(self, c):
        assert export_qasm(c) == reference.export_qasm(c)

    @settings(max_examples=200, deadline=None)
    @given(raw_circuits())
    def test_same_bytes_or_same_refusal(self, c):
        assert rendered(export_qasm, c) == rendered(reference.export_qasm, c)


class TestParse:
    def test_roundtrip_reference_circuits(self):
        for c in (optimized_reference_circuit(), unoptimized_reference_circuit()):
            parsed = parse_qasm(export_qasm(c))
            assert split_ancillas(parsed, c.data_width) == c

    def test_roundtrip_no_ancillas_is_equality(self):
        c = optimized_reference_circuit()
        assert parse_qasm(export_qasm(c)) == c

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_random_circuits(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 6)
        gates = []
        for _ in range(rng.randint(0, 20)):
            lines = rng.sample(range(width), rng.randint(1, min(3, width)))
            gates.append(Gate.mct(lines[1:], lines[0]))
        c = Circuit(width, 0, tuple(gates))
        assert parse_qasm(export_qasm(c)) == c

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    def test_roundtrip_synthesized_circuits(self, mode):
        # parsing skips the constructor's bounds walk, so its circuit
        # must equal the checked one on the same gates
        rng = random.Random(23)
        for n in range(1, 10):
            c = synthesize(random_feasible_function(n, rng), mode=mode)
            parsed = parse_qasm(export_qasm(c))
            assert parsed == Circuit(c.total_width, 0, c.gates)
            assert split_ancillas(parsed, c.data_width) == c

    @settings(max_examples=200, deadline=None)
    @given(lowered_circuits)
    def test_roundtrip_property(self, c):
        assert parse_qasm(export_qasm(c)).gates == c.gates

    def test_comments_and_blanks_ignored(self):
        text = (
            "// generated\n"
            "OPENQASM 2.0;\n\n"
            'include "qelib1.inc";\n'
            "qreg q[2];\n"
            "x q[0]; // flip\n"
        )
        assert parse_qasm(text) == Circuit(2, 0, (Gate.x(0),))

    def test_blanks_and_comments_between_header_statements(self):
        text = ("\n// version\nOPENQASM 2.0;\n\n// gates\n\n"
                'include "qelib1.inc";\n   \n// one register\n'
                "qreg q[2];\n\ncx q[0],q[1];\n")
        assert parse_qasm(text) == Circuit(2, 0, (Gate.cx(0, 1),))

    def test_header_statements_with_trailing_comments(self):
        text = ("OPENQASM 2.0; // version\n"
                'include "qelib1.inc";// gates\n'
                "qreg q[2]; // q[1] is spare\nx q[0];\n")
        assert parse_qasm(text) == Circuit(2, 0, (Gate.x(0),))

    def test_other_register_names(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg r[2];\ncx r[0],r[1];\n'
        assert parse_qasm(text) == Circuit(2, 0, (Gate.cx(0, 1),))

    def test_repeated_statement_is_one_gate(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
                + "ccx q[0],q[1],q[2];\n" * 10_000)
        gates = parse_qasm(text).gates
        assert len(gates) == 10_000
        assert gates[0] == Gate.ccx(0, 1, 2)
        assert all(g is gates[0] for g in gates)


class TestParseErrors:
    def test_missing_version(self):
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm('include "qelib1.inc";\nqreg q[2];\n')
        assert exc.value.line == 1

    def test_missing_include(self):
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\n")
        assert exc.value.line == 2

    def test_unsupported_gate(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\n'
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert exc.value.line == 4
        assert "h" in str(exc.value)

    def test_index_out_of_range(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[2];\n'
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert exc.value.line == 4

    def test_wrong_register(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx r[0];\n'
        with pytest.raises(QasmSyntaxError):
            parse_qasm(text)

    def test_wrong_arity(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0];\n'
        with pytest.raises(QasmSyntaxError):
            parse_qasm(text)

    def test_repeated_operand(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0],q[0];\n'
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert exc.value.line == 4

    @pytest.mark.parametrize("stmt, message", [
        ("h q[0];", "unsupported gate 'h' (subset is x/cx/ccx)"),
        ("cx q[1],q[1];", "target line 1 is also a control"),
    ])
    def test_repeated_bad_statement_reported_at_first_line(self, stmt, message):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
                f"x q[0];\n{stmt}\nx q[0];\n{stmt}\n")
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert exc.value.line == 5
        assert str(exc.value) == f"line 5: {message}"

    def test_junk_statement(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbarrier;\n'
        with pytest.raises(QasmSyntaxError):
            parse_qasm(text)

    def test_missing_qreg(self):
        with pytest.raises(QasmSyntaxError):
            parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\n')

    @pytest.mark.parametrize("text", ["", "\n\n", "// nothing\n\n"])
    def test_no_statement_reported_at_line_1(self, text):
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert str(exc.value) == 'line 1: expected "OPENQASM 2.0;"'

    def test_missing_include_after_blanks_reported_at_version(self):
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm("\nOPENQASM 2.0;\n\n\n  \n")
        assert str(exc.value) == 'line 2: expected "include "qelib1.inc";"'

    def test_missing_qreg_after_comments_reported_at_include(self):
        text = 'OPENQASM 2.0;\n\ninclude "qelib1.inc";\n// no\n\n// qreg\n'
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert str(exc.value) == "line 3: missing qreg declaration"

    @pytest.mark.parametrize("width", [0, MAX_QREG_WIDTH + 1, 999999999])
    def test_register_width_out_of_range(self, width):
        # refused at the qreg line, before any per-line state is built
        text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\n\nqreg q[{width}];\n'
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert exc.value.line == 4
        assert str(exc.value) == (
            f"line 4: qreg width {width} not in [1, {MAX_QREG_WIDTH}]")

    def test_widest_register_accepted(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                f"qreg q[{MAX_QREG_WIDTH}];\nx q[{MAX_QREG_WIDTH - 1}];\n")
        assert parse_qasm(text) == Circuit(
            MAX_QREG_WIDTH, 0, (Gate.x(MAX_QREG_WIDTH - 1),))


class TestParseStreams:
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("ab \n\r\x0b\x0c\x1c\x85\u2028"),
                   max_size=40),
           st.integers(1, 8))
    def test_chunked_lines_are_splitlines(self, text, chunk):
        # every line break of str.splitlines, with \r\n pairs and chunk
        # ends that fall on, before and after them
        assert list(_lines(text, chunk)) == text.splitlines()

    def test_error_line_past_the_first_chunks(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                + "x q[0];\r\n" * 20_000 + "x q[1];\x0cx q[2];\n")
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(text)
        assert str(exc.value) == "line 20005: index 2 out of range for q[2]"

    def test_repeated_lines_without_a_gate_between_gates(self):
        # each distinct raw line is parsed once, a blank or comment-only
        # line to no gate, and a statement with and without a trailing
        # comment to two equal gates; the text spans several chunks, so
        # every repeated line falls on both sides of a chunk boundary
        block = ("cx q[0],q[1];\n\n// a comment\n"
                 "cx q[0],q[1]; // the same gate\n   \n// a comment\n"
                 "x q[2];\n\n")
        repeats = 3 * (1 << 16) // len(block)
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
                + block * repeats)
        assert len(text) > 2 * (1 << 16)
        gates = parse_qasm(text).gates
        assert gates == (Gate.cx(0, 1), Gate.cx(0, 1), Gate.x(2)) * repeats

    def test_peak_memory_is_a_small_multiple_of_the_text(self):
        # about 60k lines and 1 MB of text; a list with an entry per line
        # would take several times the text
        c = synthesize(random_feasible_function(8, random.Random(8)),
                       mode="disjoint")
        decl = f"qreg q[{c.total_width}];\n"
        head, _, body = export_qasm(c).partition(decl)
        text = head + decl + body * 20
        tracemalloc.start()
        try:
            parsed = parse_qasm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.gates == c.gates * 20
        assert peak < 2 * len(text)


class TestSplitAncillas:
    def test_rebase(self):
        c = parse_qasm(export_qasm(Circuit(3, 2, (Gate.ccx(0, 1, 3),))))
        assert c.data_width == 5
        rebased = split_ancillas(c, 3)
        assert rebased.data_width == 3
        assert rebased.ancilla_count == 2

    def test_bounds(self):
        c = Circuit(3, 0, ())
        with pytest.raises(ValueError):
            split_ancillas(c, 4)
        with pytest.raises(ValueError):
            split_ancillas(c, 0)


# pieces of the QASM grammar, with indices that are valid, out of range,
# negative, non-ASCII digits or longer than int() will parse
QASM_NUMBERS = ["0", "1", "2", "3", "00", "-1", "٣", "²", "9" * 5000]
QASM_TOKENS = QASM_NUMBERS + [
    "OPENQASM", "2.0", "include", '"qelib1.inc"', "qreg", "q", "r", "x",
    "cx", "ccx", "h", "[", "]", ";", ",", "//", " ", "\t", "\r", "\x0b"]


def qasm_texts():
    """The export of a lowered circuit with a few lines edited.  A new
    line is a header, a register or gate statement over drawn names and
    numbers, a comment, a blank or a run of grammar tokens."""
    number = st.sampled_from(QASM_NUMBERS)
    reg = st.sampled_from(["q", "r", "q ", "1q"])
    operand = st.tuples(reg, number).map(lambda p: f"{p[0]}[{p[1]}]")
    line = st.one_of(
        st.sampled_from(["OPENQASM 2.0;", 'include "qelib1.inc";', "",
                         "// comment", "x q[0]; // flip"]),
        st.tuples(reg, number).map(lambda p: f"qreg {p[0]}[{p[1]}];"),
        st.tuples(st.sampled_from(["x", "cx", "ccx", "h"]),
                  st.lists(operand, max_size=4)).map(
            lambda p: f"{p[0]} {','.join(p[1])};"),
        st.lists(st.sampled_from(QASM_TOKENS), max_size=8).map("".join),
    )
    return lowered_circuits.flatmap(lambda c: edited_text(
        export_qasm(c).splitlines(), line, number))


class TestParseFuzz:
    @settings(max_examples=500, deadline=None)
    @given(qasm_texts())
    def test_only_typed_errors_escape(self, text):
        try:
            c = parse_qasm(text)
        except QasmSyntaxError:
            return
        assert parse_qasm(export_qasm(c)) == c
