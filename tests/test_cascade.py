import gc
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    GRAY4_TOGGLES,
    bit_swap_function,
    cascade_inputs,
    random_bijection,
    random_feasible_function,
    stage_order,
    swap2_function,
)
from qmap_synth import (
    ReversibleFunction,
    StageOrder,
    ToggleTable,
    decompose,
    find_feasible_order,
    identity_function,
    synthesize,
)
from qmap_synth import cascade
from qmap_synth.errors import CascadeInfeasible, NoFeasibleOrder
from qmap_synth.qmap import _truth_vector


def intermediate_state(f: ReversibleFunction, x: int, done: list[int]) -> int:
    """Oracle: the state before a stage is the input with every
    already-processed bit replaced by its final value."""
    v = x
    for j in done:
        bit = 1 << j
        v = (v & ~bit) | (f.table[x] & bit)
    return v


class TestDecomposeGray:
    def test_matches_toggle_columns(self, gray4):
        tables = decompose(gray4)
        for row, toggles in GRAY4_TOGGLES.items():
            x = int(row, 2)
            done: list[int] = []
            for stage, target in enumerate(range(4)):
                v = intermediate_state(gray4, x, done)
                assert tables[stage].on >> v & 1 == toggles[3 - target], (
                    f"row {row} stage {stage}")
                done.append(target)

    def test_example_row_1000(self, gray4):
        # present state 1000 toggles (T3,T2,T1,T0) = (0,1,1,1)
        tables = decompose(gray4)
        assert tables[0].on >> 0b1000 & 1
        assert tables[1].on >> 0b1001 & 1  # q0 already flipped to 1
        assert tables[2].on >> 0b1011 & 1
        assert not tables[3].on >> 0b1111 & 1

    def test_last_stage_identically_zero(self, gray4):
        tables = decompose(gray4)
        assert tables[3].is_zero()

    def test_no_dontcares_on_success(self, gray4):
        for table in decompose(gray4):
            assert 0 <= table.on < 1 << 16
            assert len(table.entries) == 16

    def test_primed_flags_follow_order(self, gray4):
        tables = decompose(gray4)
        assert tables[0].primed == (False, False, False, False)
        assert tables[2].primed == (True, True, False, False)


class TestDecomposeBasics:
    def test_identity_all_zero(self):
        for table in decompose(identity_function(3)):
            assert table.is_zero()

    def test_swap_infeasible_with_witness(self):
        with pytest.raises(CascadeInfeasible) as exc:
            decompose(swap2_function())
        err = exc.value
        assert (err.stage, err.target) == (1, 1)
        assert err.state == 0b00
        assert err.inputs == (0b00, 0b01)

    def test_swap_fails_both_orders(self):
        for order in [(0, 1), (1, 0)]:
            with pytest.raises(CascadeInfeasible):
                decompose(swap2_function(), StageOrder(order))

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            StageOrder((0, 0, 1))

    @pytest.mark.parametrize("on, primed, message", [
        (-1, (False, False), "truth vector"),
        (1 << 4, (False, False), "truth vector"),
        (0b1010, (False,), "primed"),
    ], ids=["negative-on", "on-too-wide", "short-primed"])
    def test_table_refuses_bad_fields(self, on, primed, message):
        with pytest.raises(ValueError, match=message):
            ToggleTable(stage=0, target=0, width=2, on=on, primed=primed)

    def test_widest_on_accepted(self):
        t = ToggleTable(stage=0, target=0, width=2, on=0b1111,
                        primed=(False, False))
        assert t.entries == (1, 1, 1, 1)
        assert not t.is_zero()


class TestReplayProperty:
    @pytest.mark.parametrize("seed", range(30))
    def test_replay_reproduces_function(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        f = random_bijection(n, rng)
        order = StageOrder(tuple(rng.sample(range(n), n)))
        try:
            tables = decompose(f, order)
        except CascadeInfeasible as err:
            # the witness must be a genuine conflict at that stage
            x, y = err.inputs
            done = list(order)[:err.stage]
            assert intermediate_state(f, x, done) == err.state
            assert intermediate_state(f, y, done) == err.state
            tx = (x ^ f.table[x]) >> err.target & 1
            ty = (y ^ f.table[y]) >> err.target & 1
            assert tx != ty
            return
        for x in range(1 << n):
            assert reference.replay(tables, x) == f.table[x]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gray_replay_exhaustive(self, n):
        from qmap_synth import gray_to_binary_function
        f = gray_to_binary_function(n)
        tables = decompose(f)
        for x in range(1 << n):
            assert reference.replay(tables, x) == f.table[x]


class TestFeasibleOrder:
    def test_gray_natural_order(self, gray4):
        assert find_feasible_order(gray4).order == (0, 1, 2, 3)

    def test_identity(self):
        assert find_feasible_order(identity_function(2)).order == (0, 1)

    def test_swap_has_none(self):
        with pytest.raises(NoFeasibleOrder):
            find_feasible_order(swap2_function())

    def test_widest_tables(self):
        # the search runs at every width the parser accepts; the swap of
        # the top two bits tests every prefix set before it gives up
        assert find_feasible_order(identity_function(16)).order == \
            tuple(range(16))
        with pytest.raises(NoFeasibleOrder):
            find_feasible_order(bit_swap_function(16, 14, 15))

    def test_returns_first_lexicographic(self):
        # q0' = q1 and q1' = q0^q1: stage order (0,1) collapses inputs 00
        # and 01 at stage 1, but (1,0) keeps every state distinct
        f = ReversibleFunction(2, (0b00, 0b10, 0b11, 0b01))
        with pytest.raises(CascadeInfeasible):
            decompose(f, StageOrder((0, 1)))
        order = find_feasible_order(f)
        assert order.order == (1, 0)
        assert len(decompose(f, order)) == 2


class TestNoReferenceCycles:
    @pytest.mark.parametrize("call", [
        decompose,
        lambda f: decompose(f, "search"),
        find_feasible_order,
        synthesize,
        lambda f: synthesize(f, order="search"),
    ], ids=["decompose", "decompose-search", "find_feasible_order",
            "synthesize", "synthesize-search"])
    @pytest.mark.parametrize("f", [
        random_feasible_function(5, random.Random(5)), swap2_function(),
    ], ids=["feasible", "swap2"])
    def test_refcounting_frees_everything(self, call, f):
        # with the cyclic collector off, whatever a call leaves behind
        # in a reference cycle is found by the next collection
        gc.disable()
        try:
            gc.collect()
            try:
                call(f)
            except (CascadeInfeasible, NoFeasibleOrder):
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()


def relabel(f: ReversibleFunction, perm: list[int]) -> ReversibleFunction:
    """f with bit i renamed perm[i]: a cascade in order o becomes one in
    order (perm[t] for t in o)."""
    def move(x: int) -> int:
        return sum(((x >> i) & 1) << perm[i] for i in range(f.width))
    table = [0] * (1 << f.width)
    for x, y in enumerate(f.table):
        table[move(x)] = move(y)
    return ReversibleFunction(f.width, tuple(table))


@st.composite
def search_inputs(draw) -> ReversibleFunction:
    kind = draw(st.sampled_from(["bijection", "relabelled", "swap"]))
    n = draw(st.integers(2 if kind == "swap" else 1, 6))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "bijection":
        return random_bijection(n, rng)
    if kind == "relabelled":
        return relabel(random_feasible_function(n, rng),
                       rng.sample(range(n), n))
    i, j = rng.sample(range(n), 2)
    return bit_swap_function(n, i, j)


def outcome(search, f):
    try:
        return search(f)
    except NoFeasibleOrder:
        return NoFeasibleOrder


def searched(search, f):
    """search(f)'s outcome and the prefix sets it tested with
    `_advance`, in call order."""
    with mock.patch.object(cascade, "_advance",
                           wraps=cascade._advance) as spy:
        got = outcome(search, f)
    return got, [call.args[2] for call in spy.call_args_list]


def assert_each_set_tested_once(f, tested):
    # each proper non-empty prefix set at most once, the full set never
    assert len(tested) == len(set(tested))
    assert all(0 < p < (1 << f.width) - 1 for p in tested)


class TestAgainstExhaustiveReference:
    @settings(max_examples=200, deadline=None)
    @given(search_inputs())
    # set 011 fails and is a child of both 001 and 010, which pass
    @example(ReversibleFunction(3, (6, 5, 1, 2, 4, 3, 7, 0)))
    def test_same_order_or_same_refusal(self, f):
        got, tested = searched(find_feasible_order, f)
        assert got == outcome(reference.find_feasible_order, f)
        if got is not NoFeasibleOrder:
            assert len(decompose(f, got)) == f.width
        assert_each_set_tested_once(f, tested)

    @settings(max_examples=100, deadline=None)
    @given(search_inputs(), st.sampled_from(["decompose", "synthesize"]))
    @example(ReversibleFunction(3, (6, 5, 1, 2, 4, 3, 7, 0)), "synthesize")
    def test_searched_stages_walk_once(self, f, call):
        # a searched decomposition or synthesis takes its stages from the
        # search's own walk, not from a second walk of the order found
        search = {"decompose": lambda f: decompose(f, "search"),
                  "synthesize": lambda f: synthesize(f, order="search")}
        _, tested = searched(search[call], f)
        assert_each_set_tested_once(f, tested)
        assert tested == searched(find_feasible_order, f)[1]


def result(fn, *args):
    """fn's return value, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestKernelAgainstScalarLoop:
    """`decompose` and `synthesize` take their tables from `_cascade`, a
    walk over the function's output slices, one delta swap per slice
    and stage, which, when a stage reads its target, runs the inputs one
    at a time to find the witness of CascadeInfeasible;
    `reference.decompose` is the scalar loop that builds every table
    that way."""

    @settings(max_examples=200, deadline=None)
    @given(cascade_inputs())
    @example((swap2_function(), "natural"))
    def test_same_tables_or_same_error(self, case):
        self.check_against_scalar_loop(decompose, reference.decompose, *case)

    @settings(max_examples=200, deadline=None)
    @given(cascade_inputs())
    @example((swap2_function(), "natural"))
    def test_cascade_toggles_are_the_scalar_tables(self, case):
        def toggles(f, order):
            return [(t.target, t.on) for t in reference.decompose(f, order)]

        self.check_against_scalar_loop(cascade._cascade, toggles, *case)

    @staticmethod
    def check_against_scalar_loop(fn, scalar, f, order):
        """fn(f, order) for an order name equals fn at the order it
        stands for ("search" at find_feasible_order(f), "natural" at
        None), and the scalar loop's result at that order."""
        got = result(fn, f, order)
        if order == "natural":
            assert got == result(fn, f, None)
        try:
            fixed = stage_order(f, order)
        except NoFeasibleOrder as err:
            assert got == (NoFeasibleOrder, str(err))
            return
        assert got == result(fn, f, fixed)
        assert got == result(scalar, f, fixed)

    @pytest.mark.parametrize("fn", [
        decompose, cascade._cascade,
        lambda f, order: synthesize(f, order=order),
    ], ids=["decompose", "cascade", "synthesize"])
    def test_order_values_refused(self, fn, gray4):
        with pytest.raises(ValueError, match="^unknown order: 'bogus'$"):
            fn(gray4, "bogus")
        with pytest.raises(ValueError,
                           match=r"^order length 3 != width 4$"):
            fn(gray4, StageOrder((0, 1, 2)))

    def test_swap_witness_comes_from_the_later_stage(self):
        # the walk stops at stage 0, whose toggle reads q0; the witness
        # search then finds the two inputs that meet at stage 1
        with pytest.raises(CascadeInfeasible) as exc:
            decompose(swap2_function())
        assert str(exc.value) == (
            "stage 1 (target q1): inputs 00 and 01 both reach "
            "intermediate state 00 but need opposite toggles")

    @settings(max_examples=200, deadline=None)
    @given(cascade_inputs())
    def test_tables_are_total_and_target_free(self, case):
        # a random feasible function in natural order, or any drawn
        # function in the order the search accepts
        f, order = case
        try:
            tables = decompose(f, order)
        except (CascadeInfeasible, NoFeasibleOrder):
            return
        for t in tables:
            tbit = 1 << t.target
            # the entries view reads as `on`, so a caller of
            # can_avoid_variable(t.entries, ...) sees the same function
            assert _truth_vector(t.entries) == t.on
            assert all(t.on >> v & 1 == t.on >> (v ^ tbit) & 1
                       for v in range(1 << f.width))
