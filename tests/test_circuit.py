import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    bit_swap_function,
    cascade_inputs,
    gates_on,
    optimized_reference_circuit,
    random_feasible_function,
    stage_order,
    swap2_function,
    unoptimized_reference_circuit,
)
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
    export_qasm,
    identity_function,
    lower_mct,
    lower_polarity,
    minimize_disjoint,
    minimize_esop,
    realize_stage,
    synthesize,
    verify,
)
from qmap_synth import circuit
from qmap_synth.circuit import _emit
from qmap_synth.errors import CascadeInfeasible, NoFeasibleOrder, UnloweredMct


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


# lines -1..7 with up to four controls: valid gates and each kind of
# invalid one (target among the controls, a repeated control, a negative
# line) all occur
gate_specs = st.tuples(
    st.integers(-1, 7),
    st.lists(st.builds(Control, st.integers(-1, 7), st.booleans()),
             max_size=4).map(tuple))

valid_gates = st.integers(1, 8).flatmap(lambda n: gates_on(list(range(n))))


class TestGateAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(gate_specs)
    def test_kind_lines_and_errors(self, spec):
        target, controls = spec
        error = reference.gate_error(target, controls)
        if error is not None:
            with pytest.raises(ValueError) as exc:
                Gate(target, controls)
            assert str(exc.value) == error
            return
        g = Gate(target, controls)
        assert g.kind is reference.gate_kind(g)
        assert g.lines == reference.gate_lines(g)

    @settings(max_examples=200, deadline=None)
    @given(valid_gates)
    def test_identity_is_target_and_controls(self, g):
        twin = Gate(g.target, tuple(Control(*c) for c in g.controls))
        assert twin == g
        assert hash(twin) == hash(g) == hash((g.target, g.controls))
        assert repr(g) == f"Gate(target={g.target!r}, controls={g.controls!r})"
        assert Gate(8, g.controls) != g

    @settings(max_examples=200, deadline=None)
    @given(valid_gates, st.data())
    def test_replace_recomputes_derived_fields(self, g, data):
        changes = data.draw(st.sampled_from([
            {"target": max(g.lines) + 1},
            {"controls": ()},
            {"controls": tuple(Control(c.line, not c.positive)
                               for c in g.controls)},
            {"controls": g.controls[:2]},
        ]))
        fields = {"target": g.target, "controls": g.controls}
        r = Gate(**{**fields, **changes})
        assert r.kind is reference.gate_kind(r)
        assert r.lines == reference.gate_lines(r)


@st.composite
def circuit_specs(draw):
    """(data width, ancillas, gates): data width -1 to 6, -1 to 2
    ancillas (so now and then an impossible count), and gates on lines
    0-7 drawn from a small pool that also holds each gate with its
    polarities flipped, so that equal lines recur with other controls
    and often lie past the total width."""
    pool = draw(st.lists(gates_on(list(range(8)), max_controls=3),
                         min_size=1, max_size=5))
    pool += [Gate(g.target, tuple(Control(c.line, not c.positive)
                                  for c in g.controls)) for g in pool]
    gates = draw(st.lists(st.sampled_from(pool), max_size=12))
    return draw(st.integers(-1, 6)), draw(st.integers(-1, 2)), tuple(gates)


class TestCircuitAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(circuit_specs())
    def test_bounds_check_names_the_first_offending_gate(self, spec):
        error = reference.circuit_error(*spec)
        if error is None:
            assert Circuit(*spec).gates == spec[2]
            return
        with pytest.raises(ValueError) as exc:
            Circuit(*spec)
        assert str(exc.value) == error

    @pytest.mark.parametrize("data_width, ancilla_count, message", [
        (0, 0, "data width 0 < 1"),
        (-1, 3, "data width -1 < 1"),
        (2, -1, "ancilla count -1 < 0"),
        (2, -2, "ancilla count -2 < 0"),
    ])
    def test_impossible_line_counts_refused(self, data_width,
                                            ancilla_count, message):
        # with a negative count, export would declare a register
        # narrower than the data lines
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(data_width, ancilla_count, ())


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
        with pytest.raises(ValueError, match="reads its target line 0"):
            realize_stage(cover, 0, 4)


@st.composite
def stage_covers(draw):
    """(cover, target, n): n <= 8, cubes of 0-6 literals drawn from a
    small pool so that repeats occur; in about a quarter of the covers a
    cube may read the target, and about one cube in ten is one variable
    too wide or too narrow."""
    n = draw(st.integers(1, 8))
    target = draw(st.integers(0, n - 1))
    may_read = draw(st.integers(0, 3)) == 0

    @st.composite
    def cubes(draw):
        width = draw(st.sampled_from([n] * 8 + [max(n - 1, 0), n + 1]))
        allowed = [v for v in range(width) if may_read or v != target]
        vars_ = draw(st.lists(st.sampled_from(allowed), unique=True,
                              max_size=min(6, len(allowed)))
                     if allowed else st.just([]))
        mask = sum(1 << v for v in vars_)
        return Cube(width, mask, mask & draw(st.integers(0, 255)))

    pool = draw(st.lists(cubes(), min_size=1, max_size=6))
    chosen = draw(st.lists(st.sampled_from(pool), max_size=10))
    mode = draw(st.sampled_from(CoverMode))
    return Cover(mode, tuple(chosen)), target, n


@st.composite
def gate_lists(draw):
    """(n, gates): up to 8 lines, gates of 0-6 controls of either
    polarity, drawn from a small pool so that repeats occur.  The pool
    also holds the first gate's controls on every other target, so that
    a memo keyed by the controls alone shows."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(gates_on(list(range(n)), max_controls=6),
                         min_size=1, max_size=8))
    pool += [Gate(t, pool[0].controls) for t in range(n)
             if t not in pool[0].lines]
    return n, draw(st.lists(st.sampled_from(pool), max_size=24))


@st.composite
def stage_streams(draw):
    """(n, stages): up to 8 lines and up to 6 (target, cubes) stages whose
    (mask, value) cubes over the n - 1 lines other than the target come
    from one small pool of 0-6 literals, mixed polarity and about one
    constant-1 cube in four, so that masks and negative runs recur
    across stages and targets."""
    n = draw(st.integers(1, 8))

    @st.composite
    def cubes(draw):
        if n == 1 or draw(st.integers(0, 3)) == 0:
            return 0, 0
        vars_ = draw(st.lists(st.integers(0, n - 2), unique=True,
                              min_size=1, max_size=min(6, n - 1)))
        mask = sum(1 << v for v in vars_)
        return mask, mask & draw(st.integers(0, 255))

    pool = draw(st.lists(cubes(), min_size=1, max_size=8))
    stages = [(draw(st.integers(0, n - 1)),
               draw(st.lists(st.sampled_from(pool), max_size=8)))
              for _ in range(draw(st.integers(0, 6)))]
    return n, stages


def lift(x, target):
    """x over the lines other than target, as a mask over all lines."""
    return x + (x >> target << target)


def as_covers(n, stages):
    """(cover, target) stages of n-wide cubes for (target, cubes) ones."""
    return [(Cover(CoverMode.ESOP, tuple(Cube(n, lift(mask, t), lift(value, t))
                                         for mask, value in cubes)), t)
            for t, cubes in stages]


def step_by_step(n, stages):
    """The reference passes over (cover, target) stages: realize every
    stage, lower the polarities, then the wide gates."""
    gates = []
    for cover, target in stages:
        gates += reference.realize_stage(cover, target, n)
    return reference.lower_mct(
        Circuit(n, 0, tuple(reference.lower_polarity(gates))))


def stage_covers_of(f, mode, order):
    """(cover, target) for each nonzero stage of f on the scalar path:
    the scalar decomposition loop and the public minimizers with the
    target forbidden (which raise ValueError on a target they cannot
    avoid)."""
    minimize = minimize_disjoint if mode == "disjoint" else minimize_esop
    return [(minimize(t, forbidden=frozenset((t.target,))), t.target)
            for t in reference.decompose(f, stage_order(f, order))
            if not t.is_zero()]


def result(fn, *args, **kwargs):
    """fn's return value, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


class TestEmitAgainstReference:
    """`synthesize` emits the lowered gates of each stage's cover in one
    loop; the reference realizes, lowers the polarities and lowers the
    wide gates pass by pass, building every gate anew."""

    @settings(max_examples=300, deadline=None)
    @given(stage_streams())
    def test_stage_streams(self, case):
        n, stages = case
        c = _emit(n, stages)
        # same gates, same ancilla count
        assert c == step_by_step(n, as_covers(n, stages))
        # `_emit` skips the public constructor's bounds check
        assert Circuit(c.data_width, c.ancilla_count, c.gates) == c

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_emitted_circuit_passes_the_bounds_check(self, n, mode):
        c = synthesize(random_feasible_function(n, random.Random(n)),
                       mode=mode)
        assert Circuit(c.data_width, c.ancilla_count, c.gates) == c

    def test_constant_cube_cancels_previous_trailing_x(self):
        # stage 1 leaves !q1's closing X pending (variable 0 of target 0
        # is line 1); stage 2's constant-1 cube flips q1, its target, and
        # the two X gates cancel
        stages = [(0, [(0b01, 0)]), (1, [(0, 0)])]
        c = _emit(3, stages)
        assert c == step_by_step(3, as_covers(3, stages))
        assert c.gates == (Gate.x(1), Gate.cx(1, 0))

    def test_variables_skip_the_target_line(self):
        # target 1 of 4 lines: variables 0, 1, 2 are lines 0, 2, 3
        c = _emit(4, [(1, [(0b111, 0b111), (0b110, 0b110)])])
        assert c.gates == (Gate.ccx(2, 3, 4), Gate.ccx(0, 4, 1),
                           Gate.ccx(2, 3, 4), Gate.ccx(2, 3, 1))


def empty_pool():
    """Drop every gate, X run and chain of `_emit`'s process-wide pool."""
    for memo in (circuit._x, circuit._cx, circuit._ccx):
        memo.cache_clear()
    circuit._FLIPS.clear()
    circuit._CHAINS.clear()


def pool_sizes():
    return ([m.cache_info().currsize for m in (
                circuit._x, circuit._cx, circuit._ccx)],
            len(circuit._FLIPS),
            {n: len(chains) for n, chains in circuit._CHAINS.items()})


modes = st.sampled_from(["esop", "disjoint"])
orders = st.sampled_from(["natural", "search"])


class TestEmitPool:
    """`_emit` draws its gates, X runs and chains from one pool that lasts
    for the process; a circuit must not depend on what earlier calls
    left in it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), modes, orders,
           st.integers(1, 9), st.integers(0, 2**32 - 1), modes, orders)
    # a narrow function after a wide one, whose chains need more ancillas
    @example(3, 0, "disjoint", "natural", 9, 1, "disjoint", "natural")
    @example(4, 2, "esop", "search", 9, 3, "esop", "natural")
    def test_output_does_not_depend_on_earlier_calls(
            self, gw, gseed, gmode, gorder, fw, fseed, fmode, forder):
        g = random_feasible_function(gw, random.Random(gseed))
        f = random_feasible_function(fw, random.Random(fseed))
        empty_pool()
        before = synthesize(g, mode=gmode, order=gorder)
        synthesize(f, mode=fmode, order=forder)
        after = synthesize(g, mode=gmode, order=gorder)
        assert export_qasm(after) == export_qasm(before)
        # the ancillas this call's chains use, although the pool held them
        assert after.ancilla_count == before.ancilla_count

    def test_ancillas_counted_on_a_pool_hit(self):
        # width 6 ESOP needs ancillas; a second call finds every chain in
        # the pool and must still declare them
        f = random_feasible_function(6, random.Random(7))
        first = synthesize(f)
        assert first.ancilla_count > 0
        assert synthesize(f).ancilla_count == first.ancilla_count

    def test_equal_gates_from_two_calls_are_one_object(self):
        a = synthesize(random_feasible_function(6, random.Random(5)))
        b = synthesize(random_feasible_function(6, random.Random(6)))
        first = {g: g for g in a.gates}
        shared = [g for g in b.gates if g in first]
        assert {g.kind for g in shared} == {
            GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI}
        assert all(first[g] is g for g in shared)

    def test_second_pass_over_a_batch_grows_no_memo(self):
        rng = random.Random(11)
        batch = [random_feasible_function(rng.randint(1, 8), rng)
                 for _ in range(12)]

        def compile_all():
            for f in batch:
                for mode in ("esop", "disjoint"):
                    for order in ("natural", "search"):
                        synthesize(f, mode=mode, order=order)

        compile_all()
        filled = pool_sizes()
        compile_all()
        assert pool_sizes() == filled


class TestPassesAgainstReference:
    """The realize and lowering passes give the reference passes' gates,
    which build every gate anew; within a call, `lower_polarity` shares
    each X gate it adds and `lower_mct` each Toffoli."""

    @settings(max_examples=300, deadline=None)
    @given(stage_covers())
    def test_realize_stage(self, case):
        cover, target, n = case
        try:
            want = reference.realize_stage(cover, target, n)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                realize_stage(cover, target, n)
            wrong_width = any(c.width != n for c in cover.cubes)
            reads = any(c.mask >> target & 1 for c in cover.cubes)
            if not (wrong_width and reads):  # one kind of fault: one message
                assert str(got.value) == str(exc)
            return
        assert realize_stage(cover, target, n) == want

    @settings(max_examples=300, deadline=None)
    @given(gate_lists())
    def test_lower_polarity(self, case):
        _, gates = case
        assert lower_polarity(gates) == reference.lower_polarity(gates)

    @settings(max_examples=300, deadline=None)
    @given(gate_lists(), st.integers(0, 2), st.booleans())
    def test_lower_mct(self, case, ancillas, polarity_first):
        n, gates = case
        if polarity_first:
            gates = reference.lower_polarity(gates)
        c = Circuit(n, ancillas, tuple(gates))
        try:
            want = reference.lower_mct(c)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                lower_mct(c)
            assert str(got.value) == str(exc)
            return
        assert lower_mct(c) == want  # same gates, same ancilla count

    def test_polarity_check_is_keyed_by_polarity(self):
        # the second gate has the first one's lines, so a check of the
        # lines alone would pass it
        gates = (Gate.mct([1, 2, 3], 0),
                 Gate(0, (Control(1), Control(2, False), Control(3))))
        with pytest.raises(ValueError) as exc:
            lower_mct(Circuit(4, 0, gates))
        assert str(exc.value) == "lower_polarity must run before lower_mct"

    def test_rebuild_is_shared_by_polarities_on_the_same_lines(self):
        g1 = Gate(0, (Control(1, False), Control(2), Control(3)))
        g2 = Gate(0, (Control(1), Control(2), Control(3, False)))
        lowered = lower_polarity([g1, g2])
        assert lowered == reference.lower_polarity([g1, g2])
        rebuilt = [g for g in lowered if g.kind is GateKind.MCT]
        assert rebuilt == [Gate.mct([1, 2, 3], 0)] * 2

    def test_equal_gates_are_one_object(self):
        g = Gate(0, (Control(1, False), Control(2), Control(3)))
        lowered = lower_mct(Circuit(4, 0, tuple(lower_polarity([g, g]))))
        assert len(lowered) == 8
        assert len({id(x) for x in lowered.gates}) == len(set(lowered.gates)) == 3


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
        before = reference.permutation_of(Circuit(n, 0, tuple(gates)))
        after = reference.permutation_of(Circuit(n, 0, tuple(lowered)))
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
        assert reference.permutation_of(lowered) == \
            reference.permutation_of(c)

    @pytest.mark.parametrize("controls", [3, 4, 5])
    def test_expansion_equivalent_and_ancillas_restored(self, controls):
        n = controls + 1
        c = Circuit(n, 0, (Gate.mct(list(range(1, n)), 0),))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == controls - 2
        assert len(lowered) == 2 * controls - 3
        assert reference.permutation_of(lowered) == \
            reference.permutation_of(c)

    def test_ancilla_pool_reused_across_gates(self):
        c = Circuit(4, 0, (Gate.mct([1, 2, 3], 0), Gate.mct([0, 2, 3], 1)))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == 1
        assert reference.permutation_of(lowered) == \
            reference.permutation_of(c)

    def test_pool_hands_back_outermost_ancilla_first(self):
        c = Circuit(6, 0, (Gate.mct([1, 2, 3, 4, 5], 0), Gate.mct([0, 2, 3], 1)))
        lowered = lower_mct(c)
        assert lowered.ancilla_count == 3
        assert lowered.gates[7:] == (
            Gate.ccx(2, 3, 6), Gate.ccx(0, 6, 1), Gate.ccx(2, 3, 6))
        assert reference.permutation_of(lowered) == \
            reference.permutation_of(c)

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
        c = synthesize(gray4, mode="disjoint")
        assert verify(c, gray4) is None
        assert c.ancilla_count == 1
        assert len(c) <= 27

    def test_gray_disjoint_unlowered_has_mct(self, gray4):
        gates = []
        for cover, target in stage_covers_of(gray4, "disjoint", "natural"):
            gates += realize_stage(cover, target, 4)
        c = Circuit(4, 0, tuple(lower_polarity(gates)))
        assert c.census()["mct"]
        assert reference.permutation_of(c) == list(gray4.table)
        with pytest.raises(UnloweredMct):
            verify(c, gray4)
        assert lower_mct(c) == synthesize(gray4, mode="disjoint")

    def test_identity_is_empty(self):
        c = synthesize(identity_function(4))
        assert c.gates == ()

    def test_search_order(self):
        # needs stage 1 before stage 0 (see cascade tests)
        f = ReversibleFunction(2, (0b00, 0b10, 0b11, 0b01))
        c = synthesize(f, order="search")
        assert verify(c, f) is None

    def test_search_refuses_wide_swap(self):
        with pytest.raises(NoFeasibleOrder):
            synthesize(bit_swap_function(8, 7, 6), order="search")

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_feasible_functions(self, mode, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        f = random_feasible_function(n, rng)
        c = synthesize(f, mode=mode)
        assert verify(c, f) is None

    def test_stage_targets_are_write_only(self, gray4):
        tables = decompose(gray4)
        for t in tables:
            if t.is_zero():
                continue
            cover = minimize_esop(t, forbidden=frozenset((t.target,)))
            for g in realize_stage(cover, t.target, 4):
                assert g.target == t.target

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.sampled_from(["esop", "disjoint"]),
           st.sampled_from(["natural", "search"]))
    def test_synthesize_then_verify(self, n, seed, mode, order):
        f = random_feasible_function(n, random.Random(seed))
        c = synthesize(f, mode=mode, order=order)
        # verify raises AncillaNotRestored on a dirty ancilla
        assert verify(c, f) is None
        assert c.census()["mct"] == 0
        # the emission loop gives the reference passes' circuit, and the
        # public passes' one, which the traced benchmark rebuilds
        covers = stage_covers_of(f, mode, order)
        assert c == step_by_step(n, covers)
        gates = [g for cover, target in covers
                 for g in realize_stage(cover, target, n)]
        assert c == lower_mct(Circuit(n, 0, tuple(lower_polarity(gates))))

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    @pytest.mark.parametrize("n", range(9, 13))
    def test_public_passes_rebuild_wide_functions(self, n, mode):
        # the rebuild the traced benchmark checks, at widths past the
        # property above: decompose, minimize with the target forbidden,
        # realize, then both lowering passes
        f = random_feasible_function(n, random.Random(n))
        minimize = minimize_disjoint if mode == "disjoint" else minimize_esop
        gates = [g for t in decompose(f) if not t.is_zero()
                 for g in realize_stage(
                     minimize(t, forbidden=frozenset((t.target,))),
                     t.target, n)]
        assert synthesize(f, mode=mode) == \
            lower_mct(Circuit(n, 0, tuple(lower_polarity(gates))))

    @settings(max_examples=100, deadline=None)
    @given(cascade_inputs(), st.sampled_from(["esop", "disjoint"]))
    def test_same_circuit_or_same_error_as_scalar_path(self, case, mode):
        f, order = case
        want = result(lambda: step_by_step(
            f.width, stage_covers_of(f, mode, order)))
        assert result(synthesize, f, mode=mode, order=order) == want

    def test_swap_is_infeasible_not_target_read(self):
        # stage 0's toggle reads q0, so the witness search runs and its
        # pair at stage 1 comes out (CLI exit 3)
        with pytest.raises(CascadeInfeasible) as exc:
            synthesize(swap2_function())
        assert (exc.value.stage, exc.value.inputs) == (1, (0b00, 0b01))

    def test_bad_options(self, gray4):
        with pytest.raises(ValueError):
            synthesize(gray4, mode="sideways")
        with pytest.raises(ValueError):
            synthesize(gray4, order="sideways")


class TestInvert:
    """Every basis gate is its own inverse, so a circuit's gates in
    reverse order are its inverse."""

    def test_single_toffoli_self_inverse(self):
        c = Circuit(3, 0, (Gate.ccx(1, 2, 0),))
        double = Circuit(3, 0, c.gates + c.gates)
        assert verify(double, identity_function(3)) is None

    def test_gray_composed_with_reverse_is_identity(self, gray4):
        c = synthesize(gray4)
        composed = Circuit(4, c.ancilla_count,
                           c.gates + tuple(reversed(c.gates)))
        assert verify(composed, identity_function(4)) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuit_inverse(self, seed):
        rng = random.Random(100 + seed)
        f = random_feasible_function(rng.randint(2, 6), rng)
        c = synthesize(f, mode=rng.choice(["esop", "disjoint"]))
        composed = Circuit(f.width, c.ancilla_count,
                           c.gates + tuple(reversed(c.gates)))
        assert verify(composed, identity_function(f.width)) is None


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

    @pytest.mark.parametrize("mode", ["Count", "bogus", ""])
    def test_unknown_mode_refused(self, mode):
        with pytest.raises(ValueError,
                           match=f"^unknown cost mode: {mode!r}$"):
            CostModel(mode)

    def test_weighted_rejects_mct(self):
        c = Circuit(4, 0, (Gate.mct([1, 2, 3], 0),))
        assert cost(c, CostModel(mode="count")) == 1
        with pytest.raises(UnloweredMct):
            cost(c, CostModel(mode="weighted"))


class TestReferenceCircuits:
    def test_optimized_reference_is_gray(self, gray4):
        assert verify(optimized_reference_circuit(), gray4) is None

    def test_unoptimized_reference_is_gray(self, gray4):
        assert verify(unoptimized_reference_circuit(), gray4) is None

    def test_both_references_agree(self):
        a = reference.permutation_of(optimized_reference_circuit())
        b = reference.permutation_of(unoptimized_reference_circuit())
        assert a == b

    def test_synthesized_beats_hand_counts(self, gray4):
        esop = synthesize(gray4, mode="esop")
        assert len(esop) <= len(optimized_reference_circuit())
        disjoint = synthesize(gray4, mode="disjoint")
        assert len(lower_mct(disjoint)) <= len(unoptimized_reference_circuit())
