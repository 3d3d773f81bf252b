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
     00   .   .   .   .   A   A   A   A
     01   B   B   B   B  AB  AB  AB  AB
     11  BC  BC  BC  BC ABC ABC ABC ABC
     10   C   C   C   C  AC  AC  AC  AC
  A: q2
  B: q3
  C: q4
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
    ("esop", 4): "c2801c6cde511328e3a9b20f4d69d6e5df93d281956007ef385c60f4718c6dbe",
    ("esop", 5): "c843ef67054a2ffd5446f3362420952bf7fa2da6e924d9af2bbfe361a420e79e",
    ("esop", 6): "d83031074b36c9d0343c2af8a5170d4634ac5ae99cf6a777eb7f37016e23e4c1",
    ("esop", 7): "a271367f4f4f63724974c1565fc03d0bf9150cb4087deccc93c73f5aeb6749fc",
    ("esop", 8): "45537ac980c7cbdba1ca274f51a9f0e33c62d30cd8c84ad3be3c871bc93edac8",
    ("esop", 9): "8959205551ef861b486a43537ac5585174e420ea254db497304bec78e75dae19",
    ("esop", 10): "a4bebdc0b8fda781e64b1722f6008773695465c8fd66db57652ceb003b6b819c",
    ("esop", 11): "6b89260fbb1598acdd6818c7715928d6739ceed2d1f96a544efadeeb923f5778",
    ("esop", 12): "f6a90ad3e4d9fc46e76e91f0445ff5db96a1fd45657e09e72bb8160e0ba7b664",
    ("disjoint", 2): "53acdf2573ff69c7561545518ad4fbe6d5cd3b0310dcd2623158e217b36d1006",
    ("disjoint", 3): "f1a184d591dee988e123c59266d943897a70af495b8c0773de474893c9c8a8ba",
    ("disjoint", 4): "45f1adc356e4324657f451986ce2ec0d5f992e908e8c08c8326009c36064bb84",
    ("disjoint", 5): "7de47d7a465059c67e12c54bb231a94a9460db3b3d92ee96b2d0c12627501c4d",
    ("disjoint", 6): "0008e455a17c8a8f9efed1b05bf018ccdddfaa7c2293914b993b1ca34af277aa",
    ("disjoint", 7): "011096edde54432d3ddf5a357f5f152848621f3c327f040ac18f31055992745e",
    ("disjoint", 8): "508e432b71e1375e03f0f9eddc01a846f9ba2b3050712b06d91e505fec0e309a",
    ("disjoint", 9): "eb5c038256905434f8c98c56c480bc97cd3571ff624e2bbc40c8674dafd8efc1",
    ("disjoint", 10): "29998e53e9478d779fb3d3be9761c117dc68d079c4addbe616fb8ed947cda0e8",
    ("disjoint", 11): "49644d8f4140924895d602bee89b88b1f329c31d3107931de6202928f18db189",
    ("disjoint", 12): "0db96280ca1d8efce97e0d5204d1fb1f73cf979b16d5723bf15598486fa71670",
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
            "c0fcfaf460b0c0465c044df52618fd264b8fb10e6afedbf898fad1364bf18f71"


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
