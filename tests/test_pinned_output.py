"""Exact output pins: the text of `qmap-synth show`, the summary and
diagram `synth --diagram` prints, and the sha256 of the QASM
`synthesize` emits.  A refactor of the minimizers or of the grid
layout must leave both byte-identical; a change that alters them on
purpose must record the new values and say why."""
import hashlib
import random

import pytest

from conftest import random_feasible_function
from qmap_synth import (
    export_qasm,
    gray_to_binary_function,
    render_truth_table,
    synthesize,
)
from qmap_synth.cascade import ToggleTable
from qmap_synth.cli import _grid_text, main
from test_cascade import relabel

GRAY4_MAPS = {
    0: """\
stage 0, target q0, toggle map:
rows: q3 q2 | cols: q1 q0
         00  01  11  10
     00   0   0   1   1
     01   1   1   0   0
     11   0   0   1   1
     10   1   1   0   0
""",
    1: """\
stage 1, target q1, toggle map:
rows: q3 q2 | cols: q1 q0'
         00  01  11  10
     00   0   0   0   0
     01   1   1   1   1
     11   0   0   0   0
     10   1   1   1   1
""",
}

GRAY4_OVERLAYS = {
    (0, "esop"): """
esop cover groups:
rows: q3 q2 | cols: q1 q0
         00  01  11  10
     00   .   .   A   A
     01   B   B  AB  AB
     11  BC  BC ABC ABC
     10   C   C  AC  AC
  A: q1
  B: q2
  C: q3
""",
    (0, "disjoint"): """
disjoint cover groups:
rows: q3 q2 | cols: q1 q0
         00  01  11  10
     00   .   .   A   A
     01   B   B   .   .
     11   .   .   D   D
     10   C   C   .   .
  A: !q3 !q2 q1
  B: !q3 q2 !q1
  C: q3 !q2 !q1
  D: q3 q2 q1
""",
    (1, "esop"): """
esop cover groups:
rows: q3 q2 | cols: q1 q0'
         00  01  11  10
     00   .   .   .   .
     01   A   A   A   A
     11  AB  AB  AB  AB
     10   B   B   B   B
  A: q2
  B: q3
""",
    (1, "disjoint"): """
disjoint cover groups:
rows: q3 q2 | cols: q1 q0'
         00  01  11  10
     00   .   .   .   .
     01   A   A   A   A
     11   .   .   .   .
     10   B   B   B   B
  A: !q3 q2
  B: q3 !q2
""",
}

GRAY5_STAGE1 = """\
stage 1, target q1, toggle map:
rows: q4 q3 | cols: q2 q1 q0'
        000 001 011 010 110 111 101 100
     00   0   0   0   0   1   1   1   1
     01   1   1   1   1   0   0   0   0
     11   0   0   0   0   1   1   1   1
     10   1   1   1   1   0   0   0   0
"""

GRAY5_OVERLAYS = {
    "esop": """
esop cover groups:
rows: q4 q3 | cols: q2 q1 q0'
        000 001 011 010 110 111 101 100
     00   .   .   .   .   C   C   C   C
     01   B   B   B   B  BC  BC  BC  BC
     11  AB  AB  AB  AB ABC ABC ABC ABC
     10   A   A   A   A  AC  AC  AC  AC
  A: q4
  B: q3
  C: q2
""",
    "disjoint": """
disjoint cover groups:
rows: q4 q3 | cols: q2 q1 q0'
        000 001 011 010 110 111 101 100
     00   .   .   .   .   A   A   A   A
     01   B   B   B   B   .   .   .   .
     11   .   .   .   .   D   D   D   D
     10   C   C   C   C   .   .   .   .
  A: !q4 !q3 q2
  B: !q4 q3 !q2
  C: q4 !q3 !q2
  D: q4 q3 q2
""",
}


def show(capsys, path, *args):
    assert main(["show", "--input", str(path), *args]) == 0
    return capsys.readouterr().out


class TestShowText:
    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    @pytest.mark.parametrize("stage", [0, 1])
    def test_gray4(self, gray4_file, capsys, stage, mode):
        args = ["--stage", str(stage), "--mode", mode]
        assert show(capsys, gray4_file, *args) == GRAY4_MAPS[stage]
        assert show(capsys, gray4_file, *args, "--overlay") == \
            GRAY4_MAPS[stage] + GRAY4_OVERLAYS[stage, mode]

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    def test_width5_grid_is_not_square(self, tmp_path, capsys, mode):
        path = tmp_path / "gray5.tt"
        path.write_text(render_truth_table(gray_to_binary_function(5)))
        assert show(capsys, path, "--stage", "1", "--mode", mode,
                    "--overlay") == GRAY5_STAGE1 + GRAY5_OVERLAYS[mode]

    def test_width1_has_no_row_variables(self):
        table = ToggleTable(stage=0, target=0, width=1, on=0b10,
                            primed=(False,))
        assert _grid_text(table) == """\
rows: - | cols: q0
      0   1
      0   1"""


# sha256 of export_qasm(synthesize(random_feasible_function(n,
# random.Random(n)), mode)); widths 2-4 take the exact minimizers, 5-12
# the heuristics
QASM_SHA256 = {
    ("esop", 2): "53acdf2573ff69c7561545518ad4fbe6d5cd3b0310dcd2623158e217b36d1006",
    ("esop", 3): "f1a184d591dee988e123c59266d943897a70af495b8c0773de474893c9c8a8ba",
    ("esop", 4): "ae33b72b6c96cc1832407c5fc2c196cbaaeb9eb6910c84185d4739b1e65a447c",
    ("esop", 5): "9ca328ae665abbdcc95272e22971916a6220b51d07252261e2af49e1f74dcb84",
    ("esop", 6): "ec4ad9e02453c7aaeb5fedf693032f7cc0c6887effc18f27d2e2b315f5a97e83",
    ("esop", 7): "8a0dcf2fc0e06fff996810b4d391dded3a24f14db8a6c5b0259a338b3da89738",
    ("esop", 8): "2aeb299b0ffc2f63c4741704e6579a0b8568d0bda0022f0479a76557dc32695f",
    ("esop", 9): "fce2ba7d47afdb7965ea22400cebf4add9b3109200246243360b7505c13c55ae",
    ("esop", 10): "c37709e551ccc05da5f602680b49ae5265cadf6140afd56cd366dbc86581fc67",
    ("esop", 11): "ef004fface4483c247427bf7260b081338b3c4dc5fab945a987b9f29797fe3ee",
    ("esop", 12): "07354edf326a2a8a143096a80be904c0e27055b1d0789a2bbf1136711bce8a1d",
    ("disjoint", 2): "53acdf2573ff69c7561545518ad4fbe6d5cd3b0310dcd2623158e217b36d1006",
    ("disjoint", 3): "f1a184d591dee988e123c59266d943897a70af495b8c0773de474893c9c8a8ba",
    ("disjoint", 4): "91c303fb19c66d2e720d65ec4123efb42ac8b15c59895d50e0d0ec2248a5f958",
    ("disjoint", 5): "da308067db1e44b9487ee8fa6cf5e8c5629c3958b4ebadf061993813503483ae",
    ("disjoint", 6): "93b69333ececb6307ac3a0c20304b5a1f8ee07762c6fc86af0346376da5c91dc",
    ("disjoint", 7): "6a0726b08a577bcb923400ae3ac0ca9fec3b9634337401b1bbc0a87553f11ec0",
    ("disjoint", 8): "2901e6a6c4764adf25119e85c040d6b06a784f4e133d5893a4bba2ff14ab7aa8",
    ("disjoint", 9): "a676b9c9ea6d79996ec11cf5cae33c19c41baa05018b093de3ad21c735fe8c51",
    ("disjoint", 10): "b87b5df02c12d69ce24ff503ad2c0f8459f21658355e5a81683998339c8dd2a6",
    ("disjoint", 11): "684dea8c1e6c19c480eaeb6d426ad63d6ccd323bb7fbb4fbd3a3967eb2cdd399",
    ("disjoint", 12): "4748541c0312b0043decd207500eed6b962c60c7204359447125e664bf9c35f1",
}


def qasm_sha256(f, **kw) -> str:
    return hashlib.sha256(export_qasm(synthesize(f, **kw)).encode()).hexdigest()


class TestSynthDigest:
    @pytest.mark.parametrize("mode, n", sorted(QASM_SHA256))
    def test_natural_order(self, mode, n):
        f = random_feasible_function(n, random.Random(n))
        assert qasm_sha256(f, mode=mode) == QASM_SHA256[mode, n]

    def test_order_search(self):
        # the relabelled cascade is found in order (3, 0, 4, 1, 2)
        f = relabel(random_feasible_function(5, random.Random(5)),
                    [3, 0, 4, 1, 2])
        assert qasm_sha256(f, mode="esop", order="search") == \
            "cf08e3d08a91e39d4b8496a683dba379562622d941c266502f9a6c7ec03391a4"


# `synth --diagram`'s stderr on the Gray table: the summary, then one row
# per line; the disjoint circuit's ancilla row is a0
GRAY4_DIAGRAMS = {
    "esop": """\
lines: 4 data + 0 ancilla
gates: 6 (x=0 cx=6 ccx=0 mct=0)
cost(count): 6
q0:-X--X--X----------
q1:-*--|--|--X--X----
q2:----*--|--*--|--X-
q3:-------*-----*--*-
""",
    "disjoint": """\
lines: 4 data + 1 ancilla
gates: 27 (x=12 cx=1 ccx=14 mct=0)
cost(count): 27
q0:----------X--------------X--------------X--------------X-------------------------
q1:----------*--------X-----*--------------*--------X-----*--------X--------X-------
q2:-X-----*--|--*--X-----*--|--*-----X--*--|--*--X-----*--|--*-----*-----X--*--X--X-
q3:----X--*--|--*--------*--|--*--X-----*--|--*--------*--|--*--X--*--X-----*-----*-
a0:-------X--*--X--------X--*--X--------X--*--X--------X--*--X----------------------
""",
}


class TestDiagramText:
    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    def test_gray4(self, gray4_file, capsys, mode):
        assert main(["synth", "--input", str(gray4_file), "--mode", mode,
                     "--diagram"]) == 0
        assert capsys.readouterr().err == GRAY4_DIAGRAMS[mode]
