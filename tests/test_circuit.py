import random

import pytest

from conftest import optimized_reference_circuit, unoptimized_reference_circuit
from qmap_synth import (
    Circuit,
    Control,
    CostModel,
    Cover,
    CoverMode,
    Cube,
    Gate,
    GateKind,
    ReversibleFunction,
    cost,
    decompose,
    identity_function,
    invert,
    lower_mct,
    lower_polarity,
    permutation_of,
    realize_stage,
    synthesize,
    verify,
)
from qmap_synth.errors import TargetReadWrite, UnloweredMct


def random_feasible_function(n: int, rng: random.Random) -> ReversibleFunction:
    """Build a bijection by composing random single-target stages; each
    stage's toggle ignores its own target bit, so the natural-order
    cascade always succeeds on the result."""
    table = list(range(1 << n))
    for target in range(n):
        tbit = 1 << target
        toggle = [rng.randint(0, 1) for _ in range(1 << n)]
        for v in range(1 << n):
            if v & tbit:
                toggle[v] = toggle[v ^ tbit]
        table = [v ^ (toggle[v] << target) for v in table]
    return ReversibleFunction(n, tuple(table))


class TestGate:
    def test_kind_classification(self):
        assert Gate.x(0).kind is GateKind.NOT
        assert Gate.cx(1, 0).kind is GateKind.CNOT
        assert Gate.ccx(1, 2, 0).kind is GateKind.TOFFOLI
        assert Gate.mct([1, 2, 3], 0).kind is GateKind.MCT
        # a negative control forces the internal MCT form at any arity
        assert Gate(0, (Control(1, False),)).kind is GateKind.MCT
        assert Gate(0, (Control(1), Control(2, False))).kind is GateKind.MCT

    def test_target_cannot_be_control(self):
        with pytest.raises(ValueError):
            Gate(0, (Control(0),))

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ValueError):
            Gate(0, (Control(1), Control(1, False)))

    def test_circuit_width_check(self):
        with pytest.raises(ValueError):
            Circuit(2, 0, (Gate.ccx(1, 2, 0),))


class TestRealizeStage:
    def test_single_cnot_stage(self, gray4):
        cover = Cover(CoverMode.ESOP, (Cube(4, 0b1000, 0b1000),))
        gates = realize_stage(cover, 2, 4)
        assert gates == [Gate.cx(3, 2)]

    def test_two_cnot_stage_order(self):
        cover = Cover(CoverMode.ESOP,
                      (Cube(4, 0b0100, 0b0100), Cube(4, 0b1000, 0b1000)))
        gates = realize_stage(cover, 1, 4)
        assert gates == [Gate.cx(2, 1), Gate.cx(3, 1)]

    def test_empty_cover(self):
        assert realize_stage(Cover(CoverMode.ESOP, ()), 0, 4) == []

    def test_polarities_become_control_signs(self):
        cover = Cover(CoverMode.ESOP, (Cube(4, 0b1010, 0b0010),))
        [gate] = realize_stage(cover, 0, 4)
        assert gate == Gate(0, (Control(1, True), Control(3, False)))

    def test_constant_cube_is_not_gate(self):
        cover = Cover(CoverMode.ESOP, (Cube(3, 0, 0),))
        assert realize_stage(cover, 2, 3) == [Gate.x(2)]

    def test_target_read_rejected(self):
        cover = Cover(CoverMode.ESOP, (Cube(4, 0b0001, 0b0001),))
        with pytest.raises(TargetReadWrite):
            realize_stage(cover, 0, 4)


class TestLowerPolarity:
    def test_single_negative_control_wrapped(self):
        g = Gate(0, (Control(1), Control(3, False)))
        assert lower_polarity([g]) == [
            Gate.x(3), Gate.ccx(1, 3, 0), Gate.x(3)]

    def test_shared_negative_line_elides_inner_pair(self):
        # cubes q1.!q3 then !q1.!q3 keep q3 negated across both gates
        g1 = Gate(0, (Control(1), Control(3, False)))
        g2 = Gate(0, (Control(1, False), Control(3, False)))
        lowered = lower_polarity([g1, g2])
        assert lowered.count(Gate.x(3)) == 2
        assert lowered == [
            Gate.x(3), Gate.ccx(1, 3, 0), Gate.x(1), Gate.ccx(1, 3, 0),
            Gate.x(3), Gate.x(1)]

    def test_all_positive_unchanged(self):
        gates = [Gate.ccx(1, 2, 0), Gate.cx(2, 1), Gate.x(3)]
        assert lower_polarity(gates) == gates

    def test_does_not_cancel_across_a_user(self):
        gates = [Gate.x(1), Gate.cx(1, 0), Gate.x(1)]
        assert lower_polarity(gates) == gates

    @pytest.mark.parametrize("seed", range(15))
    def test_lowering_preserves_semantics(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        gates = []
        for _ in range(rng.randint(1, 12)):
            lines = rng.sample(range(n), rng.randint(1, min(3, n)))
            target, controls = lines[0], lines[1:]
            gates.append(Gate(target, tuple(
                Control(l, rng.random() < 0.5) for l in controls)))
        lowered = lower_polarity(gates)
        assert all(g.kind is not GateKind.MCT or
                   all(c.positive for c in g.controls) for g in lowered)
        before = permutation_of(Circuit(n, 0, tuple(gates)))
        after = permutation_of(Circuit(n, 0, tuple(lowered)))
        assert before == after


class TestLowerMct:
    def test_three_control_sandwich(self):
        c = Circuit(4, 0, (Gate.mct([1, 2, 3], 0),))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == 1
        assert lowered.gates == (
            Gate.ccx(2, 3, 4), Gate.ccx(1, 4, 0), Gate.ccx(2, 3, 4))

    def test_narrow_gates_untouched(self):
        c = Circuit(3, 0, (Gate.ccx(1, 2, 0), Gate.cx(2, 1), Gate.x(0)))
        lowered = lower_mct(c)
        assert lowered == c
        assert lowered.ancilla_count == 0

    def test_four_control_expansion(self):
        c = Circuit(5, 0, (Gate.mct([0, 1, 2, 3], 4),))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == 2
        assert len(lowered) == 5
        # oracle: simulate against the direct MCT semantics on all inputs
        assert permutation_of(lowered) == permutation_of(c)

    @pytest.mark.parametrize("controls", [3, 4, 5])
    def test_expansion_equivalent_and_ancillas_restored(self, controls):
        n = controls + 1
        c = Circuit(n, 0, (Gate.mct(list(range(1, n)), 0),))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == controls - 2
        assert len(lowered) == 2 * controls - 3
        assert permutation_of(lowered) == permutation_of(c)

    def test_ancilla_pool_reused_across_gates(self):
        c = Circuit(4, 0, (Gate.mct([1, 2, 3], 0), Gate.mct([0, 2, 3], 1)))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == 1
        assert permutation_of(lowered) == permutation_of(c)

    def test_pool_hands_back_outermost_ancilla_first(self):
        c = Circuit(6, 0, (Gate.mct([1, 2, 3, 4, 5], 0), Gate.mct([0, 2, 3], 1)))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == 3
        assert lowered.gates[7:] == (
            Gate.ccx(2, 3, 6), Gate.ccx(0, 6, 1), Gate.ccx(2, 3, 6))
        assert permutation_of(lowered) == permutation_of(c)

    def test_requires_positive_polarity(self):
        c = Circuit(4, 0, (Gate(0, (Control(1), Control(2), Control(3, False))),))
        with pytest.raises(ValueError):
            lower_mct(c)


class TestSynthesize:
    def test_gray_esop_census(self, gray4):
        c = synthesize(gray4, mode="esop")
        assert verify(c, gray4) is None
        assert c.ancilla_count == 0
        assert len(c) <= 10
        assert c.census() == {"x": 0, "cx": 6, "ccx": 0, "mct": 0}

    def test_gray_disjoint_lowered_census(self, gray4):
        c = synthesize(gray4, mode="disjoint", lower="toffoli2")
        assert verify(c, gray4) is None
        assert c.ancilla_count == 1
        assert len(c) <= 27

    def test_gray_disjoint_unlowered_has_mct(self, gray4):
        c = synthesize(gray4, mode="disjoint", lower="none")
        assert c.ancilla_count == 0
        assert c.has_mct()
        assert verify(c, gray4) is None

    def test_identity_is_empty(self):
        c = synthesize(identity_function(4))
        assert c.gates == ()

    def test_search_order(self):
        # needs stage 1 before stage 0 (see cascade tests)
        f = ReversibleFunction(2, (0b00, 0b10, 0b11, 0b01))
        c = synthesize(f, order="search")
        assert verify(c, f) is None

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_feasible_functions(self, mode, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        f = random_feasible_function(n, rng)
        c = synthesize(f, mode=mode)
        assert verify(c, f) is None

    def test_stage_targets_are_write_only(self, gray4):
        from qmap_synth import build_qmap, minimize_esop
        tables = decompose(gray4)
        for t in tables:
            if t.is_zero():
                continue
            cover = minimize_esop(build_qmap(t), forbidden=frozenset((t.target,)))
            for g in realize_stage(cover, t.target, 4):
                assert g.target == t.target

    def test_bad_options(self, gray4):
        with pytest.raises(ValueError):
            synthesize(gray4, lower="magic")
        with pytest.raises(ValueError):
            synthesize(gray4, order="sideways")


class TestInvert:
    def test_single_toffoli_self_inverse(self):
        c = Circuit(3, 0, (Gate.ccx(1, 2, 0),))
        assert invert(c) == c
        double = Circuit(3, 0, c.gates + invert(c).gates)
        assert permutation_of(double) == permutation_of(Circuit(3, 0, ()))

    def test_empty(self):
        c = Circuit(2, 0, ())
        assert invert(c) == c

    def test_gray_composed_with_reverse_is_identity(self, gray4):
        c = synthesize(gray4)
        composed = Circuit(4, c.ancilla_count, c.gates + invert(c).gates)
        assert [w.value for w in permutation_of(composed)] == list(range(16))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuit_inverse(self, seed):
        rng = random.Random(100 + seed)
        f = random_feasible_function(rng.randint(2, 6), rng)
        c = synthesize(f, mode=rng.choice(["esop", "disjoint"]))
        composed = Circuit(f.width, c.ancilla_count, c.gates + invert(c).gates)
        assert [w.value for w in permutation_of(composed)] == \
            list(range(1 << f.width))


class TestCost:
    def test_reference_circuit_gate_count(self):
        c = optimized_reference_circuit()
        assert cost(c, CostModel(mode="count")) == 10

    def test_reference_circuit_weighted(self):
        c = optimized_reference_circuit()
        assert cost(c, CostModel(mode="weighted")) == 18  # 4*1 + 4*1 + 2*5

    def test_unoptimized_reference_census(self):
        c = unoptimized_reference_circuit()
        assert c.census() == {"x": 12, "cx": 1, "ccx": 14, "mct": 0}
        assert cost(c) == 27

    def test_empty_circuit(self):
        assert cost(Circuit(3, 0, ())) == 0

    def test_weighted_rejects_mct(self):
        c = Circuit(4, 0, (Gate.mct([1, 2, 3], 0),))
        assert cost(c, CostModel(mode="count")) == 1
        with pytest.raises(UnloweredMct):
            cost(c, CostModel(mode="weighted"))

    def test_custom_weights(self):
        c = Circuit(3, 0, (Gate.ccx(1, 2, 0), Gate.x(0)))
        m = CostModel(mode="weighted",
                      weights={GateKind.NOT: 2.0, GateKind.CNOT: 1.0,
                               GateKind.TOFFOLI: 7.0})
        assert cost(c, m) == 9


class TestReferenceCircuits:
    def test_optimized_reference_is_gray(self, gray4):
        assert verify(optimized_reference_circuit(), gray4) is None

    def test_unoptimized_reference_is_gray(self, gray4):
        assert verify(unoptimized_reference_circuit(), gray4) is None

    def test_both_references_agree(self):
        a = permutation_of(optimized_reference_circuit())
        b = permutation_of(unoptimized_reference_circuit())
        assert a == b

    def test_synthesized_beats_hand_counts(self, gray4):
        esop = synthesize(gray4, mode="esop")
        assert len(esop) <= len(optimized_reference_circuit())
        disjoint = synthesize(gray4, mode="disjoint")
        assert len(lower_mct(disjoint)) <= len(unoptimized_reference_circuit())
