import argparse
import codecs
import errno
import os
import random
import tracemalloc

import pytest

from conftest import bit_swap_function, random_feasible_function, swap2_function
from qmap_synth import (
    Circuit,
    Counterexample,
    Gate,
    ReversibleFunction,
    gray_to_binary_function,
    identity_function,
    parse_qasm,
    render_truth_table,
    synthesize,
)
from qmap_synth import cli
from qmap_synth.cli import _build_parser, _census_lines, _diagram, main


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "id4.tt"
    path.write_text(render_truth_table(identity_function(4)))
    return path


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.tt"
    path.write_text(render_truth_table(swap2_function()))
    return path


class TestSynth:
    def test_esop_to_file(self, gray4_file, tmp_path, capsys):
        out = tmp_path / "gray.qasm"
        code = main(["synth", "--input", str(gray4_file), "--mode", "esop",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "gates: 6" in captured.out
        assert "cost(count): 6" in captured.out
        qasm = out.read_text()
        assert qasm.startswith("OPENQASM 2.0;\n")
        assert len(parse_qasm(qasm)) <= 10

    def test_esop_to_stdout(self, gray4_file, capsys):
        code = main(["synth", "--input", str(gray4_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("OPENQASM 2.0;\n")
        assert "gates:" in captured.err

    def test_disjoint_lowered(self, gray4_file, tmp_path, capsys):
        out = tmp_path / "gray-disjoint.qasm"
        code = main(["synth", "--input", str(gray4_file), "--mode", "disjoint",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 ancilla" in captured.out
        circuit = parse_qasm(out.read_text())
        assert circuit.data_width == 5  # 4 data + 1 ancilla in one register
        assert len(circuit) <= 27

    def test_identity_empty_body(self, identity_file, capsys):
        code = main(["synth", "--input", str(identity_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[4];\n"
        )

    def test_deterministic_bytes(self, gray4_file, tmp_path, capsys):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        assert main(["synth", "--input", str(gray4_file), "--out", str(a)]) == 0
        assert main(["synth", "--input", str(gray4_file), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_weighted_cost_flag(self, gray4_file, capsys):
        code = main(["synth", "--input", str(gray4_file), "--cost", "weighted"])
        assert code == 0
        assert "cost(weighted): 6" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["synth", "--input", str(tmp_path / "nope.tt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_pipe_input(self, gray4_file, tmp_path):
        # a pipe is no regular file, as with `--input <(cat gray4.tt)`
        expected, piped = tmp_path / "file.qasm", tmp_path / "pipe.qasm"
        assert main(["synth", "--input", str(gray4_file),
                     "--out", str(expected)]) == 0
        r, w = os.pipe()
        try:
            os.write(w, gray4_file.read_bytes())
            os.close(w)
            code = main(["synth", "--input", f"/dev/fd/{r}",
                         "--out", str(piped)])
        finally:
            os.close(r)
        assert code == 0
        assert piped.read_bytes() == expected.read_bytes()

    def test_byte_order_mark(self, tmp_path, capsys):
        # a UTF-8 byte-order mark, which some editors write first, is not
        # part of the table
        text = render_truth_table(gray_to_binary_function(4)).encode()
        plain, marked = tmp_path / "plain.tt", tmp_path / "marked.tt"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        for path in plain, marked:
            assert main(["synth", "--input", str(path),
                         "--out", str(path.with_suffix(".qasm"))]) == 0
        capsys.readouterr()
        assert (marked.with_suffix(".qasm").read_bytes()
                == plain.with_suffix(".qasm").read_bytes())

    def test_self_check_failure_exit5(self, gray4_file, monkeypatch,
                                      capsys):
        # synth checks its circuit before it writes it
        mismatch = Counterexample(4, 2, 3, 2)
        monkeypatch.setattr(cli, "verify", lambda circuit, f: mismatch)
        assert main(["synth", "--input", str(gray4_file)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"synthesis self-check failed: {mismatch}\n")

    def test_directory_input(self, tmp_path, capsys):
        code = main(["synth", "--input", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert os.strerror(errno.EISDIR) in err
        assert str(tmp_path) in err

    def test_malformed_table(self, tmp_path, capsys):
        path = tmp_path / "bad.tt"
        path.write_text(".width 1\n0 -> 0\n1 => 1\n")
        code = main(["synth", "--input", str(path)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_swap_infeasible_exit3(self, swap_file, capsys):
        code = main(["synth", "--input", str(swap_file)])
        assert code == 3
        err = capsys.readouterr().err
        assert "00" in err and "01" in err  # the witness pair

    def test_swap_search_exit3(self, swap_file, capsys):
        code = main(["synth", "--input", str(swap_file), "--order", "search"])
        assert code == 3
        assert "order" in capsys.readouterr().err

    def test_wide_swap_search_exit3(self, tmp_path, capsys):
        path = tmp_path / "swap8.tt"
        path.write_text(render_truth_table(bit_swap_function(8, 7, 6)))
        code = main(["synth", "--input", str(path), "--order", "search"])
        assert code == 3
        assert "order" in capsys.readouterr().err

    def test_widest_swap_search_exit3(self, tmp_path, capsys):
        # width 16, the parser's widest: the search runs and finds no
        # order, rather than refusing the width (exit 2)
        path = tmp_path / "swap16.tt"
        path.write_text(render_truth_table(bit_swap_function(16, 15, 14)))
        code = main(["synth", "--input", str(path), "--order", "search"])
        assert code == 3
        assert "order" in capsys.readouterr().err

    def test_diagram(self, gray4_file, capsys):
        code = main(["synth", "--input", str(gray4_file), "--diagram"])
        assert code == 0
        err = capsys.readouterr().err
        assert "q0:" in err and "q3:" in err

    @pytest.mark.parametrize("mode, diagram", [
        ("esop", "q0:-X--X--X----------\n"
                 "q1:-*--|--|--X--X----\n"
                 "q2:----*--|--*--|--X-\n"
                 "q3:-------*-----*--*-\n"),
        # the ancilla row, and the Toffolis whose span crosses q1 and q2
        ("disjoint",
         "q0:----------X--------------X--------------X--------------X"
         "-------------------------\n"
         "q1:----------*--------X-----*--------------*--------X-----*"
         "--------X--------X-------\n"
         "q2:-X-----*--|--*--X-----*--|--*-----X--*--|--*--X-----*--|"
         "--*-----*-----X--*--X--X-\n"
         "q3:----X--*--|--*--------*--|--*--X-----*--|--*--------*--|"
         "--*--X--*--X-----*-----*-\n"
         "a0:-------X--*--X--------X--*--X--------X--*--X--------X--*"
         "--X----------------------\n"),
    ])
    def test_diagram_bytes(self, gray4_file, tmp_path, capsys, mode, diagram):
        out = tmp_path / "gray.qasm"
        code = main(["synth", "--input", str(gray4_file), "--mode", mode,
                     "--out", str(out), "--diagram"])
        assert code == 0
        assert capsys.readouterr().err == diagram

    def test_diagram_of_no_gates(self, identity_file, tmp_path, capsys):
        code = main(["synth", "--input", str(identity_file),
                     "--out", str(tmp_path / "id.qasm"), "--diagram"])
        assert code == 0
        assert capsys.readouterr().err == "q0:\nq1:\nq2:\nq3:\n"

    def test_diagram_peak_memory_is_a_small_multiple_of_the_text(self):
        # 17,122 gates on 17 lines, 0.9 MB of text, consumed one row at a
        # time: the peak is a few rows, where building the whole text
        # at once took 22 times the text
        c = synthesize(random_feasible_function(10, random.Random(10)),
                       mode="disjoint")
        tracemalloc.start()
        try:
            total = sum(len(row) + 1 for row in _diagram(c)) - 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == c.total_width * (4 + 3 * len(c)) - 1
        assert peak <= 8 * (4 + 3 * len(c))


class TestVerify:
    def test_equal(self, gray4_file, tmp_path, capsys):
        out = tmp_path / "gray.qasm"
        main(["synth", "--input", str(gray4_file), "--out", str(out)])
        capsys.readouterr()
        code = main(["verify", "--input", str(gray4_file),
                     "--circuit", str(out)])
        assert code == 0
        assert "equal" in capsys.readouterr().out

    def test_lowered_circuit_with_ancilla(self, gray4_file, tmp_path, capsys):
        out = tmp_path / "gray-disjoint.qasm"
        main(["synth", "--input", str(gray4_file), "--mode", "disjoint",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--input", str(gray4_file),
                     "--circuit", str(out)]) == 0

    def test_mismatch_exit5(self, gray4_file, identity_file, tmp_path, capsys):
        out = tmp_path / "gray.qasm"
        main(["synth", "--input", str(gray4_file), "--out", str(out)])
        capsys.readouterr()
        code = main(["verify", "--input", str(identity_file),
                     "--circuit", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err == "mismatch: input 0010 -> 0011, expected 0010\n"

    def test_malformed_qasm_exit2(self, gray4_file, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[4];\n")
        code = main(["verify", "--input", str(gray4_file),
                     "--circuit", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_register_too_wide_exit2(self, gray4_file, tmp_path, capsys):
        wide = tmp_path / "wide.qasm"
        wide.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                        "qreg q[999999999];\n")
        code = main(["verify", "--input", str(gray4_file),
                     "--circuit", str(wide)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: line 3: qreg width 999999999 not in [1, 64]\n"

    def test_circuit_too_narrow(self, gray4_file, tmp_path, capsys):
        small = tmp_path / "small.qasm"
        small.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n')
        code = main(["verify", "--input", str(gray4_file),
                     "--circuit", str(small)])
        assert code == 2

    def test_dirty_extra_line_is_a_mismatch(self, gray4_file, tmp_path, capsys):
        # a wider circuit whose top line is written and never restored
        dirty = tmp_path / "dirty.qasm"
        dirty.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                         "qreg q[5];\nx q[4];\n")
        code = main(["verify", "--input", str(gray4_file),
                     "--circuit", str(dirty)])
        assert code == 5
        assert "ancilla" in capsys.readouterr().err


class TestShow:
    def test_stage2_is_q3_half(self, gray4_file, capsys):
        code = main(["show", "--input", str(gray4_file), "--stage", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "target q2" in out
        assert "q1' q0'" in out  # updated variables carry prime marks
        rows = [l for l in out.splitlines()
                if l.strip() and l.split()[0] in ("00", "01", "11", "10")]
        cells = {r.split()[0]: r.split()[1:] for r in rows}
        assert cells["11"] == ["1", "1", "1", "1"]
        assert cells["10"] == ["1", "1", "1", "1"]
        assert cells["00"] == ["0", "0", "0", "0"]
        assert cells["01"] == ["0", "0", "0", "0"]

    def test_stage0_odd_parity_pattern(self, gray4_file, capsys):
        main(["show", "--input", str(gray4_file), "--stage", "0"])
        out = capsys.readouterr().out
        grid_cells = [c for line in out.splitlines()[3:]
                      for c in line.split()[1:]]
        assert grid_cells.count("1") == 8

    def test_identity_all_zero(self, identity_file, capsys):
        for stage in range(4):
            assert main(["show", "--input", str(identity_file),
                         "--stage", str(stage)]) == 0
            out = capsys.readouterr().out
            grid_cells = [c for line in out.splitlines()[3:]
                          for c in line.split()[1:]]
            assert set(grid_cells) == {"0"}

    def test_overlay_legend(self, gray4_file, capsys):
        code = main(["show", "--input", str(gray4_file), "--stage", "1",
                     "--overlay", "--mode", "disjoint"])
        assert code == 0
        out = capsys.readouterr().out
        assert "A: !q3 q2" in out
        assert "B: q3 !q2" in out

    def test_overlay_of_the_one_bit_not(self, tmp_path, capsys):
        # its one stage toggles at every state: one cube, no literal
        path = tmp_path / "not1.tt"
        path.write_text(render_truth_table(ReversibleFunction(1, (1, 0))))
        assert main(["show", "--input", str(path), "--stage", "0",
                     "--overlay"]) == 0
        assert capsys.readouterr().out.endswith("\n  A: 1\n")

    @pytest.mark.parametrize("mode, legend", [
        ("esop", ["A: q5", "B: q4", "C: q3"]),
        ("disjoint", ["A: !q5 !q4 q3", "B: !q5 q4 !q3", "C: q5 !q4 !q3",
                      "D: q5 q4 q3"]),
    ])
    def test_overlay_on_heuristic_width(self, tmp_path, capsys, mode, legend):
        # width 6 takes the heuristic minimizers, which get the toggle with
        # the target q2 projected out and must leave it out of every cube
        path = tmp_path / "gray6.tt"
        path.write_text(render_truth_table(gray_to_binary_function(6)))
        code = main(["show", "--input", str(path), "--stage", "2",
                     "--overlay", "--mode", mode])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{mode} cover groups:" in out
        assert out.splitlines()[-len(legend):] == \
            [f"  {line}" for line in legend]

    def test_stage_out_of_range(self, gray4_file, capsys):
        code = main(["show", "--input", str(gray4_file), "--stage", "4"])
        assert code == 2
        assert "stage" in capsys.readouterr().err

    def test_infeasible_exit3(self, swap_file, capsys):
        assert main(["show", "--input", str(swap_file), "--stage", "1"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("order", ["natural", "search"])
    def test_stage_checked_before_the_order(self, swap_file, order, capsys):
        # swap2 has no feasible order, so resolving one first would exit 3
        code = main(["show", "--input", str(swap_file), "--stage", "7",
                     "--order", order])
        assert code == 2
        assert capsys.readouterr().err == "error: stage 7 not in [0, 2)\n"


class TestExportAndCost:
    def test_export_roundtrip(self, gray4_file, tmp_path, capsys):
        out = tmp_path / "gray.qasm"
        main(["synth", "--input", str(gray4_file), "--out", str(out)])
        capsys.readouterr()
        code = main(["export", "--circuit", str(out)])
        assert code == 0
        assert capsys.readouterr().out == out.read_text()
        again = tmp_path / "again.qasm"
        code = main(["export", "--circuit", str(out), "--out", str(again)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert again.read_bytes() == out.read_bytes()

    def test_cost_counts(self, gray4_file, tmp_path, capsys):
        out = tmp_path / "gray.qasm"
        main(["synth", "--input", str(gray4_file), "--mode", "disjoint",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["cost", "--circuit", str(out), "--cost", "weighted"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "gates: 27" in stdout
        assert "cost(weighted): 83" in stdout  # 12*1 + 1*1 + 14*5

    @pytest.mark.parametrize("cost_mode", ["count", "weighted"])
    def test_large_cost_is_printed_in_full(self, cost_mode):
        c = Circuit(1, 0, (Gate.x(0),) * 1_000_001)
        assert _census_lines(c, cost_mode) == [
            "lines: 1 data + 0 ancilla",
            "gates: 1000001 (x=1000001 cx=0 ccx=0 mct=0)",
            f"cost({cost_mode}): 1000001",
        ]

    def test_cost_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("hello\n")
        assert main(["cost", "--circuit", str(bad)]) == 2
        capsys.readouterr()


_ORDER_HELP = ("stage order: fixed 0..n-1, or the first feasible one, found "
               "by a walk over the sets of bits rewritten so far")
_INPUT = (("--input",), "input", None, None, True, "truth table file", "Path")
_CIRCUIT = (("--circuit",), "circuit", None, None, True,
            "OpenQASM 2.0 file (x/cx/ccx subset)", "Path")
_MODE = (("--mode",), "mode", "esop", ["disjoint", "esop"], False,
         "cover style per stage", None)
_ORDER = (("--order",), "order", "natural", ["natural", "search"], False,
          _ORDER_HELP, None)
_COST = (("--cost",), "cost_mode", "count", ["count", "weighted"], False,
         None, None)

# each subcommand's help and its arguments (option strings, dest,
# default, choices, required, help, type), help flags aside
SUBCOMMANDS = {
    "synth": ("compile a truth table to QASM", [
        _INPUT, _MODE, _ORDER, _COST,
        (("--out",), "out", None, None, False, "QASM output path "
         "(default: stdout, with the summary on stderr)", "Path"),
        (("--diagram",), "diagram", False, None, False,
         "also print an ASCII circuit diagram", None),
    ]),
    "verify": ("check a QASM circuit against a truth table",
               [_INPUT, _CIRCUIT]),
    "show": ("print one stage's toggle map", [
        _INPUT, _MODE, _ORDER,
        (("--stage",), "stage", 0, None, False,
         "stage index in the cascade order", "int"),
        (("--overlay",), "overlay", False, None, False,
         "overlay the minimized cover as group letters", None),
    ]),
    "export": ("re-emit a QASM file in canonical form", [
        _CIRCUIT, (("--out",), "out", None, None, False, None, "Path"),
    ]),
    "cost": ("gate census and cost of a QASM file", [_CIRCUIT, _COST]),
}


def test_subcommand_arguments_are_pinned():
    """The arguments themselves, not the --help text, whose headings
    differ across Python versions."""
    parser = _build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("subcommand", True)
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: text for name, (text, _) in SUBCOMMANDS.items()}
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, p in sub.choices.items():
        got = [(tuple(a.option_strings), a.dest, a.default, a.choices,
                a.required, a.help, getattr(a.type, "__name__", None))
               for a in p._actions
               if not isinstance(a, argparse._HelpAction)]
        assert got == SUBCOMMANDS[name][1], name
