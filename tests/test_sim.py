import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    gates_on,
    optimized_reference_circuit,
    unoptimized_reference_circuit,
)
from qmap_synth import (
    Circuit,
    Control,
    Gate,
    GateKind,
    ReversibleFunction,
    gray_to_binary_function,
    identity_function,
    verify,
)
from qmap_synth.errors import AncillaNotRestored, UnloweredMct


def random_gate(width: int, rng: random.Random) -> Gate:
    lines = rng.sample(range(width), rng.randint(1, min(4, width)))
    return Gate(lines[0], tuple(
        Control(l, rng.random() < 0.7) for l in lines[1:]))


def apply(width: int, g: Gate, x: int) -> int:
    """One gate applied to one input word by the scalar reference."""
    return reference.run(Circuit(width, 0, (g,)), x)


class TestApplyGate:
    def test_toffoli_defining_action(self):
        g = Gate.ccx(1, 2, 0)
        # both controls set: target flips
        assert apply(3, g, 0b110) == 0b111
        assert apply(3, g, 0b111) == 0b110
        # a cleared control: no change
        assert apply(3, g, 0b100) == 0b100

    def test_cnot_control_clear(self):
        g = Gate.cx(1, 0)
        assert apply(2, g, 0b00) == 0b00
        assert apply(2, g, 0b10) == 0b11

    def test_negative_control(self):
        g = Gate(0, (Control(1, False),))
        assert apply(2, g, 0b00) == 0b01
        assert apply(2, g, 0b10) == 0b10

    def test_nand_reconstruction(self):
        # Toffoli with target preset to 1 leaves NAND(c1, c2) on the target
        g = Gate.ccx(1, 2, 0)
        for a, b in product((0, 1), repeat=2):
            out = apply(3, g, (a << 1) | (b << 2) | 1)
            assert out & 1 == 1 - (a & b)

    def test_line_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2, 0, (Gate.ccx(1, 2, 0),))

    @pytest.mark.parametrize("width", range(1, 7))
    def test_every_gate_is_an_involution(self, width):
        rng = random.Random(width)
        gates = [random_gate(width, rng) for _ in range(20)]
        for g in gates:
            twice = Circuit(width, 0, (g, g))
            assert reference.permutation_of(twice) == list(range(1 << width))


class TestRun:
    def test_reference_circuit_on_1000(self):
        assert reference.run(optimized_reference_circuit(), 0b1000) == 0b1111

    def test_empty_circuit_identity(self):
        c = Circuit(3, 0, ())
        for x in range(8):
            assert reference.run(c, x) == x

    def test_accepts_plain_ints(self):
        # a counterexample's words are plain ints
        ce = verify(optimized_reference_circuit(), identity_function(4))
        assert ce is not None
        assert all(type(w) is int for w in (ce.input, ce.got, ce.expected))

    def test_width_mismatch(self):
        # a 4-bit function on 3 data lines, and a 2-bit one
        for width in (4, 2):
            with pytest.raises(ValueError):
                verify(Circuit(3, 0, ()), identity_function(width))

    def test_truncated_uncompute_detected(self):
        # drop the final uncompute of a lowered sandwich: the ancilla is
        # left holding a partial product for some input
        full = (Gate.ccx(2, 3, 4), Gate.ccx(1, 4, 0), Gate.ccx(2, 3, 4))
        broken = Circuit(4, 1, full[:-1])
        with pytest.raises(AncillaNotRestored) as exc:
            verify(broken, identity_function(4))
        assert exc.value.input == 0b1100
        assert exc.value.ancilla_bits == 1

    def test_ancilla_error_reports_input(self):
        broken = Circuit(2, 1, (Gate.ccx(0, 1, 2),))
        with pytest.raises(AncillaNotRestored) as exc:
            verify(broken, identity_function(2))
        assert exc.value.input == 0b11


class TestPermutationOf:
    def test_reference_circuit_matches_table(self, gray4):
        assert reference.permutation_of(optimized_reference_circuit()) == \
            list(gray4.table)

    def test_single_not_on_one_line(self):
        assert reference.permutation_of(Circuit(1, 0, (Gate.x(0),))) == [1, 0]

    def test_lowered_and_direct_circuits_agree(self):
        a = reference.permutation_of(unoptimized_reference_circuit())
        b = reference.permutation_of(optimized_reference_circuit())
        assert a == b

    def test_output_is_bijection(self):
        rng = random.Random(5)
        for _ in range(10):
            width = rng.randint(1, 5)
            gates = tuple(random_gate(width, rng) for _ in range(15))
            table = reference.permutation_of(Circuit(width, 0, gates))
            assert sorted(table) == list(range(1 << width))


class TestVerify:
    def test_reference_equals_gray(self, gray4):
        assert verify(optimized_reference_circuit(), gray4) is None

    def test_first_ascending_counterexample(self):
        ce = verify(optimized_reference_circuit(), identity_function(4))
        assert ce is not None
        assert (ce.input, ce.got, ce.expected) == (0b0010, 0b0011, 0b0010)
        assert str(ce) == "input 0010 -> 0011, expected 0010"

    def test_empty_vs_identity(self):
        assert verify(Circuit(3, 0, ()), identity_function(3)) is None

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            verify(Circuit(3, 0, ()), identity_function(2))

    @pytest.mark.parametrize("first", [
        Gate(2, (Control(0, False),)),  # a negative-control CX
        Gate.mct([0, 1, 3], 2),         # three controls
    ])
    def test_refuses_the_first_unlowered_gate(self, first):
        lowered = (Gate.x(0), Gate.cx(0, 1), Gate.ccx(1, 3, 2))
        later = (Gate(3, (Control(1), Control(2, False))),
                 Gate.mct([0, 1, 2], 3))
        c = Circuit(4, 0, lowered + (first,) + later)
        with pytest.raises(UnloweredMct) as exc:
            verify(c, identity_function(4))
        assert str(exc.value) == f"gate {first} must be lowered before simulation"


class TestThroughput:
    def test_width8_sweep_is_fast(self):
        import time
        f = gray_to_binary_function(8)
        from qmap_synth import synthesize
        c = synthesize(f)
        t0 = time.perf_counter()
        mismatch = verify(c, f)
        elapsed = time.perf_counter() - t0
        assert mismatch is None
        assert elapsed < 1.0


# --- differential properties against the scalar reference -------------------

@st.composite
def circuits(draw, lowered=True):
    """Data width 1-6 plus 0-3 ancillas.  Either gates on any lines (an
    ancilla is then usually left dirty), or a clean circuit: data gates,
    then ancilla compute, gates on one data target, ancilla uncompute,
    where the compute part never reads that target.  Either kind may
    then get one gate replaced by a random one.  The gates are X, CX
    and CCX, or with `lowered` false of any polarity and up to four
    controls."""
    on = partial(gates_on, lowered=lowered)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    everything = list(range(n + k))
    if draw(st.booleans()):
        gates = draw(st.lists(on(everything), max_size=16))
    else:
        data = list(range(n))
        t = draw(st.sampled_from(data))
        gates = draw(st.lists(on(data), max_size=6))
        compute = []
        for a in range(n, n + k):
            readable = [l for l in range(a) if l != t]
            compute.append(draw(on(readable + [a], targets=[a])))
        gates += compute
        gates += draw(st.lists(on(everything, targets=[t]),
                               max_size=6))
        gates += reversed(compute)
    if gates and draw(st.booleans()):
        i = draw(st.integers(0, len(gates) - 1))
        gates[i] = draw(on(everything))
    return Circuit(n, k, tuple(gates))


def outcome(fn, *args):
    """The result, or the exception with what it reports."""
    try:
        return "ok", fn(*args)
    except AncillaNotRestored as exc:
        return "ancilla", exc.input, exc.ancilla_bits


def near_function(c: Circuit, rng: random.Random) -> ReversibleFunction:
    """The circuit's own data permutation when it has one, with two
    entries swapped half the time; otherwise a random bijection."""
    try:
        table = reference.permutation_of(c)
    except AncillaNotRestored:
        table = list(range(1 << c.data_width))
        rng.shuffle(table)
    if len(table) > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(len(table)), 2)
        table[i], table[j] = table[j], table[i]
    return ReversibleFunction(c.data_width, tuple(table))


class TestAgainstScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(circuits(), st.randoms(use_true_random=False))
    def test_verify(self, c, rng):
        f = near_function(c, rng)
        assert outcome(verify, c, f) == outcome(reference.verify, c, f)

    @settings(max_examples=200, deadline=None)
    @given(circuits(lowered=False), st.randoms(use_true_random=False))
    def test_verify_or_refuse(self, c, rng):
        """The reference's outcome on a lowered circuit; otherwise the
        refusal of its first MCT gate."""
        f = near_function(c, rng)
        mct = [g for g in c.gates if reference.gate_kind(g) is GateKind.MCT]
        if not mct:
            assert outcome(verify, c, f) == outcome(reference.verify, c, f)
            return
        with pytest.raises(UnloweredMct) as exc:
            verify(c, f)
        assert str(exc.value) == f"gate {mct[0]} must be lowered before simulation"
