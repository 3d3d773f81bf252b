"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them) and
enforcing its stated bound and runtime budget."""
import random
import time
from itertools import permutations, product

import pytest

import reference
from conftest import (
    GRAY4_TOGGLES,
    gray4_function,
    gray4_text,
    random_feasible_function,
    swap2_function,
)
from qmap_synth import (
    Circuit,
    Cover,
    CoverMode,
    Cube,
    Gate,
    ReversibleFunction,
    StageOrder,
    cost,
    decompose,
    export_qasm,
    find_feasible_order,
    identity_function,
    minimize_disjoint,
    minimize_esop,
    parse_qasm,
    split_ancillas,
    synthesize,
    verify,
)
from qmap_synth.cascade import ToggleTable
from qmap_synth.cli import main
from qmap_synth.errors import CascadeInfeasible, NoFeasibleOrder
from qmap_synth.qmap import _pprm

# circuits produced while checking criterion 4/3, reused by 6 and 8
_CIRCUIT_POOL: list[Circuit] = []


def _cube(spec):
    mask = value = 0
    for var, pos in spec.items():
        mask |= 1 << var
        if pos:
            value |= 1 << var
    return Cube(4, mask, value)


def test_criterion_1_disjoint_covers_match_hand_derivation():
    t0 = time.perf_counter()
    expected = {
        0: {_cube({3: False, 2: False, 1: True}),
            _cube({3: False, 2: True, 1: False}),
            _cube({3: True, 2: False, 1: False}),
            _cube({3: True, 2: True, 1: True})},
        1: {_cube({3: True, 2: False}), _cube({3: False, 2: True})},
        2: {_cube({3: True})},
        3: set(),
    }
    tables = decompose(gray4_function())
    sizes = []
    for stage in range(4):
        cover = minimize_disjoint(tables[stage],
                                  forbidden=frozenset((stage,)))
        assert set(cover.cubes) == expected[stage], f"stage {stage}"
        sizes.append(len(cover))
    assert sizes == [4, 2, 1, 0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: disjoint covers 4/2/1/0 match the derived "
          f"expressions ({elapsed:.3f}s)")


def test_criterion_2_esop_minimization():
    t0 = time.perf_counter()
    f = gray4_function()
    tables = decompose(f)
    counts = []
    for stage in range(4):
        cover = minimize_esop(tables[stage], forbidden=frozenset((stage,)))
        counts.append(len(cover))
        for state in range(16):
            count = sum((state & c.mask) == c.value for c in cover.cubes)
            assert count % 2 == tables[stage].on >> state & 1
    assert counts == [3, 2, 1, 0]
    # toggle tables are the transcribed toggle columns, row for row
    for row, (t3, t2, t1, t0r) in GRAY4_TOGGLES.items():
        x = int(row, 2)
        v = x
        for stage, want in ((0, t0r), (1, t1), (2, t2), (3, t3)):
            assert tables[stage].on >> v & 1 == want
            v ^= want << stage
    # the complemented two-cube alternative for stage 1 is also valid
    alt = Cover(CoverMode.ESOP, (Cube(4, 0b0100, 0), Cube(4, 0b1000, 0)))
    values = [tables[1].on >> state & 1 for state in range(16)]
    assert reference.verify_cover(alt, values, 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: exact ESOP returns 3/2/1/0 cubes matching the "
          f"toggle columns; complemented alternative verifies ({elapsed:.3f}s)")


def test_criterion_3_gate_count_bounds():
    t0 = time.perf_counter()
    f = gray4_function()
    esop = synthesize(f, mode="esop")
    assert verify(esop, f) is None
    assert cost(esop) <= 10
    assert esop.ancilla_count == 0
    census = esop.census()
    assert census["cx"] == 6 and census["x"] == 0 and census["ccx"] == 0

    disjoint = synthesize(f, mode="disjoint")
    assert verify(disjoint, f) is None
    assert cost(disjoint) <= 27
    assert disjoint.ancilla_count == 1
    _CIRCUIT_POOL.extend([esop, disjoint])
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 3: esop {int(cost(esop))} gates/0 ancillas, "
          f"disjoint {int(cost(disjoint))} gates/1 ancilla "
          f"({elapsed:.3f}s)")


def test_criterion_4_end_to_end_correctness():
    t0 = time.perf_counter()
    synthesized = skipped = 0
    # every 3-bit bijection the cascade can reach, natural order
    for perm in permutations(range(8)):
        f = ReversibleFunction(3, perm)
        try:
            c = synthesize(f, mode="esop")
        except CascadeInfeasible:
            skipped += 1
            continue
        assert verify(c, f) is None
        synthesized += 1
        if synthesized % 64 == 0:
            _CIRCUIT_POOL.append(c)
    assert synthesized + skipped == 40320
    assert synthesized == 4096

    # 200 random bijections on n = 4..6 under order search
    rng = random.Random(20260809)
    searched_ok = searched_skipped = 0
    for i in range(200):
        n = 4 + i % 3
        f = ReversibleFunction(
            n, tuple(rng.sample(range(1 << n), 1 << n)))
        try:
            c = synthesize(f, order="search")
        except NoFeasibleOrder:
            searched_skipped += 1
            continue
        assert verify(c, f) is None
        searched_ok += 1
    assert searched_ok + searched_skipped == 200

    # cascade-reachable random functions give positive coverage at n=4..6
    reachable_ok = 0
    for i in range(120):
        n = 4 + i % 3
        f = random_feasible_function(n, rng)
        mode = "disjoint" if i % 2 else "esop"
        c = synthesize(f, mode=mode, order="search")
        assert verify(c, f) is None
        reachable_ok += 1
        if i % 10 == 0:
            _CIRCUIT_POOL.append(c)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 4: n=3 sweep {synthesized} synthesized / "
          f"{skipped} detected-infeasible; search {searched_ok} ok / "
          f"{searched_skipped} detected; {reachable_ok} reachable randoms "
          f"all verified ({elapsed:.2f}s)")


def test_criterion_5_infeasibility_detection():
    t0 = time.perf_counter()
    swap = swap2_function()
    witnesses = []
    for order in ((0, 1), (1, 0)):
        with pytest.raises(CascadeInfeasible) as exc:
            decompose(swap, StageOrder(order))
        witnesses.append((order, exc.value.inputs, exc.value.state))
        assert exc.value.inputs[0] != exc.value.inputs[1]
    with pytest.raises(NoFeasibleOrder):
        find_feasible_order(swap)
    assert witnesses[0] == ((0, 1), (0b00, 0b01), 0b00)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 5: swap infeasible under both orders, witnesses "
          f"{witnesses}, order search exhausted ({elapsed:.3f}s)")


def test_criterion_6_reversibility():
    t0 = time.perf_counter()
    # every basis gate twice is the identity, on widths <= 6, each
    # pair checked on every input at once
    checked = 0
    for width in range(1, 7):
        gates = [Gate.x(t) for t in range(width)]
        gates += [Gate.cx(c, t) for c in range(width) for t in range(width)
                  if c != t]
        gates += [Gate.ccx(c1, c2, t)
                  for c1 in range(width) for c2 in range(width)
                  for t in range(width)
                  if len({c1, c2, t}) == 3 and c1 < c2]
        for g in gates:
            twice = Circuit(width, 0, (g, g))
            assert verify(twice, identity_function(width)) is None
            checked += 1

    # a circuit followed by its gates reversed is the identity for
    # synthesized circuits
    assert _CIRCUIT_POOL, "criteria 3/4 populate the pool"
    for c in _CIRCUIT_POOL:
        composed = Circuit(c.data_width, c.ancilla_count,
                           c.gates + tuple(reversed(c.gates)))
        assert verify(composed, identity_function(c.data_width)) is None

    # Toffoli with preset target computes NAND of the controls
    toffoli = Circuit(3, 0, (Gate.ccx(1, 2, 0),))
    for a, b in product((0, 1), repeat=2):
        out = reference.run(toffoli, 1 | (a << 1) | (b << 2))
        assert out & 1 == 1 - (a & b)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 6: {checked} involution checks, "
          f"{len(_CIRCUIT_POOL)} circuits invert to identity, NAND table "
          f"reproduced ({elapsed:.2f}s)")


def test_criterion_7_cover_validity_oracle():
    t0 = time.perf_counter()

    def check(values, width):
        table = ToggleTable(stage=0, target=0, width=width,
                            on=sum(v << s for s, v in enumerate(values)),
                            primed=(False,) * width)
        dis = minimize_disjoint(table)
        es = minimize_esop(table)
        assert reference.verify_cover(dis, values, width)
        assert reference.verify_cover(es, values, width)
        for state in range(1 << width):
            assert sum((state & c.mask) == c.value for c in dis.cubes) <= 1
        assert len(es) <= _pprm(table.on, width).bit_count()

    for bits in range(256):
        check([(bits >> s) & 1 for s in range(8)], 3)
    rng = random.Random(7)
    for _ in range(500):
        check([rng.randint(0, 1) for _ in range(16)], 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 7: 256 width-3 functions + 500 width-4 grids "
          f"minimized, verified, OR=XOR, esop<=pprm ({elapsed:.2f}s)")


def test_criterion_8_format_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    table_file = tmp_path / "gray4.tt"
    table_file.write_text(gray4_text())
    outputs = []
    for name in ("a.qasm", "b.qasm"):
        out = tmp_path / name
        assert main(["synth", "--input", str(table_file), "--mode", "esop",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]

    assert _CIRCUIT_POOL, "criteria 3/4 populate the pool"
    for c in _CIRCUIT_POOL:
        parsed = parse_qasm(export_qasm(c))
        assert split_ancillas(parsed, c.data_width) == c
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 8: byte-identical QASM across runs; "
          f"{len(_CIRCUIT_POOL)} circuits round-trip ({elapsed:.2f}s)")
