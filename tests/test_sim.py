import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import optimized_reference_circuit, unoptimized_reference_circuit
from qmap_synth import (
    BitWord,
    Circuit,
    Control,
    Gate,
    ReversibleFunction,
    apply_gate,
    gray_to_binary_function,
    identity_function,
    permutation_of,
    run,
    verify,
)
from qmap_synth.errors import AncillaNotRestored, LineOutOfRange


def random_gate(width: int, rng: random.Random) -> Gate:
    lines = rng.sample(range(width), rng.randint(1, min(4, width)))
    return Gate(lines[0], tuple(
        Control(l, rng.random() < 0.7) for l in lines[1:]))


class TestApplyGate:
    def test_toffoli_defining_action(self):
        g = Gate.ccx(1, 2, 0)
        # both controls set: target flips
        assert apply_gate(BitWord(3, 0b110), g) == BitWord(3, 0b111)
        assert apply_gate(BitWord(3, 0b111), g) == BitWord(3, 0b110)
        # a cleared control: no change
        assert apply_gate(BitWord(3, 0b100), g) == BitWord(3, 0b100)

    def test_cnot_control_clear(self):
        g = Gate.cx(1, 0)
        assert apply_gate(BitWord(2, 0b00), g) == BitWord(2, 0b00)
        assert apply_gate(BitWord(2, 0b10), g) == BitWord(2, 0b11)

    def test_negative_control(self):
        g = Gate(0, (Control(1, False),))
        assert apply_gate(BitWord(2, 0b00), g) == BitWord(2, 0b01)
        assert apply_gate(BitWord(2, 0b10), g) == BitWord(2, 0b10)

    def test_nand_reconstruction(self):
        # Toffoli with target preset to 1 leaves NAND(c1, c2) on the target
        g = Gate.ccx(1, 2, 0)
        for a, b in product((0, 1), repeat=2):
            state = BitWord(3, (a << 1) | (b << 2) | 1)
            out = apply_gate(state, g)
            assert out.bit(0) == 1 - (a & b)

    def test_line_out_of_range(self):
        with pytest.raises(LineOutOfRange):
            apply_gate(BitWord(2, 0), Gate.ccx(1, 2, 0))

    @pytest.mark.parametrize("width", range(1, 7))
    def test_every_gate_is_an_involution(self, width):
        rng = random.Random(width)
        gates = [random_gate(width, rng) for _ in range(20)]
        for g in gates:
            for value in range(1 << width):
                s = BitWord(width, value)
                assert apply_gate(apply_gate(s, g), g) == s


class TestRun:
    def test_reference_circuit_on_1000(self):
        out = run(optimized_reference_circuit(), BitWord(4, 0b1000))
        assert out == BitWord(4, 0b1111)

    def test_empty_circuit_identity(self):
        c = Circuit(3, 0, ())
        for x in range(8):
            assert run(c, x).value == x

    def test_accepts_plain_ints(self):
        assert run(optimized_reference_circuit(), 0b1000).value == 0b1111

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            run(Circuit(3, 0, ()), BitWord(2, 0))

    def test_truncated_uncompute_detected(self):
        # drop the final uncompute of a lowered sandwich: the ancilla is
        # left holding a partial product for some input
        full = (Gate.ccx(2, 3, 4), Gate.ccx(1, 4, 0), Gate.ccx(2, 3, 4))
        broken = Circuit(4, 1, full[:-1])
        with pytest.raises(AncillaNotRestored) as exc:
            permutation_of(broken)
        assert exc.value.input == 0b1100
        assert exc.value.ancilla_bits == 1

    def test_ancilla_error_reports_input(self):
        broken = Circuit(2, 1, (Gate.ccx(0, 1, 2),))
        with pytest.raises(AncillaNotRestored) as exc:
            run(broken, 0b11)
        assert exc.value.input == 0b11


class TestPermutationOf:
    def test_reference_circuit_matches_table(self, gray4):
        table = permutation_of(optimized_reference_circuit())
        assert [w.value for w in table] == list(gray4.table)

    def test_single_not_on_one_line(self):
        table = permutation_of(Circuit(1, 0, (Gate.x(0),)))
        assert [w.value for w in table] == [1, 0]

    def test_lowered_and_direct_circuits_agree(self):
        a = permutation_of(unoptimized_reference_circuit())
        b = permutation_of(optimized_reference_circuit())
        assert a == b

    def test_output_is_bijection(self):
        rng = random.Random(5)
        for _ in range(10):
            width = rng.randint(1, 5)
            gates = tuple(random_gate(width, rng) for _ in range(15))
            table = permutation_of(Circuit(width, 0, gates))
            assert sorted(w.value for w in table) == list(range(1 << width))


class TestVerify:
    def test_reference_equals_gray(self, gray4):
        assert verify(optimized_reference_circuit(), gray4) is None

    def test_first_ascending_counterexample(self):
        ce = verify(optimized_reference_circuit(), identity_function(4))
        assert ce is not None
        assert ce.input == BitWord(4, 0b0010)
        assert ce.got == BitWord(4, 0b0011)
        assert ce.expected == BitWord(4, 0b0010)

    def test_empty_vs_identity(self):
        assert verify(Circuit(3, 0, ()), identity_function(3)) is None

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            verify(Circuit(3, 0, ()), identity_function(2))


class TestThroughput:
    def test_width8_sweep_is_fast(self):
        import time
        f = gray_to_binary_function(8)
        from qmap_synth import synthesize
        c = synthesize(f)
        t0 = time.perf_counter()
        table = permutation_of(c)
        elapsed = time.perf_counter() - t0
        assert [w.value for w in table] == list(f.table)
        assert elapsed < 1.0


# --- differential properties against the scalar reference -------------------

@st.composite
def gates_on(draw, lines, targets=None, max_controls=4):
    """A gate with a target from `targets` (default: any of `lines`) and
    up to max_controls distinct controls from the rest, either polarity."""
    target = draw(st.sampled_from(targets or lines))
    others = [l for l in lines if l != target]
    ctl = draw(st.lists(st.sampled_from(others), unique=True,
                        max_size=min(max_controls, len(others)))
               if others else st.just([]))
    return Gate(target, tuple(Control(l, draw(st.booleans())) for l in ctl))


@st.composite
def circuits(draw):
    """Data width 1-6 plus 0-3 ancillas.  Either gates on any lines (an
    ancilla is then usually left dirty), or a clean circuit: data gates,
    then ancilla compute, gates on one data target, ancilla uncompute,
    where the compute part never reads that target.  Either kind may
    then get one gate replaced by a random one."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    everything = list(range(n + k))
    if draw(st.booleans()):
        gates = draw(st.lists(gates_on(everything), max_size=16))
    else:
        data = list(range(n))
        t = draw(st.sampled_from(data))
        gates = draw(st.lists(gates_on(data), max_size=6))
        compute = []
        for a in range(n, n + k):
            readable = [l for l in range(a) if l != t]
            compute.append(draw(gates_on(readable + [a], targets=[a])))
        gates += compute
        gates += draw(st.lists(gates_on(everything, targets=[t]),
                               max_size=6))
        gates += reversed(compute)
    if gates and draw(st.booleans()):
        i = draw(st.integers(0, len(gates) - 1))
        gates[i] = draw(gates_on(everything))
    return Circuit(n, k, tuple(gates))


def outcome(fn, *args):
    """The result, or the exception with what it reports."""
    try:
        return "ok", fn(*args)
    except AncillaNotRestored as exc:
        return "ancilla", exc.input, exc.ancilla_bits
    except LineOutOfRange:
        return "out of range"


def near_function(c: Circuit, rng: random.Random) -> ReversibleFunction:
    """The circuit's own data permutation when it has one, with two
    entries swapped half the time; otherwise a random bijection."""
    try:
        table = [w.value for w in reference.permutation_of(c)]
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

    @settings(max_examples=300, deadline=None)
    @given(circuits())
    def test_permutation_of(self, c):
        assert outcome(permutation_of, c) == \
            outcome(reference.permutation_of, c)

    @settings(max_examples=100, deadline=None)
    @given(circuits())
    def test_run_on_every_input(self, c):
        for x in range(1 << c.data_width):
            assert outcome(run, c, x) == outcome(reference.run, c, x)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda w: st.tuples(
        st.builds(BitWord, st.just(w), st.integers(0, (1 << w) - 1)),
        gates_on(list(range(w + 2))))))
    def test_apply_gate(self, case):
        s, g = case  # lines w and w + 1 are out of range
        assert outcome(apply_gate, s, g) == \
            outcome(reference.apply_gate, s, g)
