import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qmap_synth import (
    Cover,
    CoverMode,
    Cube,
    build_qmap,
    cube_cells,
    decompose,
    minimize_disjoint,
    minimize_esop,
    pprm_cover,
    verify_cover,
)
from qmap_synth.cascade import ToggleTable
from qmap_synth.qmap import _greedy_disjoint, can_avoid_variable, gray_sequence


def make_table(entries, width, target=None):
    """Wrap raw toggle values for tests that bypass the cascade."""
    if target is None:
        target = width  # outside the variable range: no bit is the target
        # ToggleTable requires target info only for bookkeeping; reuse 0
        target = 0
    return ToggleTable(stage=0, target=target, width=width,
                       entries=tuple(entries), primed=(False,) * width)


def cube(width, spec):
    """Build a cube from {var: polarity} pairs."""
    mask = value = 0
    for var, pos in spec.items():
        mask |= 1 << var
        if pos:
            value |= 1 << var
    return Cube(width, mask, value)


def cover_of(mode, *cubes):
    return Cover(mode, tuple(cubes))


# --- independent oracles -----------------------------------------------------

def mobius_pprm(values, n):
    """Reed-Muller coefficients by direct subset sums (independent of the
    in-place butterfly used by the implementation)."""
    terms = []
    for s in range(1 << n):
        acc = 0
        # iterate subsets of s
        sub = s
        while True:
            acc ^= values[sub]
            if sub == 0:
                break
            sub = (sub - 1) & s
        if acc:
            terms.append((s, s))
    return sorted(terms)


def all_cubes(n):
    return [Cube(n, mask, value)
            for mask in range(1 << n)
            for value in range(1 << n) if value & ~mask == 0]


def brute_min_esop(values, n):
    """Smallest (cube count, literal count) over subsets of all cubes,
    by exhaustive level-by-level search."""
    cubes = all_cubes(n)
    vectors = [sum(1 << s for s in c.cells()) for c in cubes]
    defined = sum(1 << s for s, v in enumerate(values) if v is not None)
    target = sum(1 << s for s, v in enumerate(values) if v == 1)
    for size in range(len(cubes) + 1):
        best = None
        for combo in combinations(range(len(cubes)), size):
            acc = 0
            for i in combo:
                acc ^= vectors[i]
            if (acc ^ target) & defined == 0:
                lits = sum(cubes[i].literal_count for i in combo)
                if best is None or lits < best:
                    best = lits
        if best is not None:
            return size, best
    raise AssertionError("unreachable: minterms always cover")


def brute_min_disjoint(values, n):
    """Exact disjoint-cover optimum by branch and bound over the lowest
    uncovered 1-cell."""
    size = 1 << n
    ones = {s for s in range(size) if values[s] == 1}
    zeros = {s for s in range(size) if values[s] == 0}
    candidates = [c for c in all_cubes(n)
                  if not (set(c.cells()) & zeros)]
    best = [len(ones), 4 * len(ones)]

    def dfs(need, covered, count, lits):
        if (count, lits) >= tuple(best):
            return
        if not need:
            best[0], best[1] = count, lits
            return
        seed = min(need)
        for c in candidates:
            if not c.covers(seed):
                continue
            cells = set(c.cells())
            if cells & covered:
                continue
            dfs(need - cells, covered | cells, count + 1,
                lits + c.literal_count)

    dfs(frozenset(ones), frozenset(), 0, 0)
    return tuple(best)


def random_values(n, rng, dc_chance=0.0):
    return [None if rng.random() < dc_chance else rng.randint(0, 1)
            for _ in range(1 << n)]


# --- grid construction -------------------------------------------------------

class TestBuildQmap:
    def test_gray_stage0_is_odd_parity_pattern(self, gray4):
        grid = build_qmap(decompose(gray4)[0])
        ones = {s for s, v in enumerate(grid.values_by_state()) if v == 1}
        expected = {s for s in range(16)
                    if (bin(s >> 1).count("1")) % 2 == 1}
        assert ones == expected
        assert len(ones) == 8

    def test_cells_match_toggle_columns(self, gray4):
        tables = decompose(gray4)
        for stage in range(4):
            grid = build_qmap(tables[stage])
            assert grid.values_by_state() == list(tables[stage].entries)

    def test_all_zero(self):
        grid = build_qmap(make_table([0] * 8, 3))
        assert all(v == 0 for row in grid.cells for v in row)

    def test_width1_degenerate(self):
        grid = build_qmap(make_table([0, 1], 1))
        assert grid.split == 1
        assert grid.rowvars == ()
        assert len(grid.rowlabels) == 1
        assert len(grid.collabels) == 2

    def test_split_is_ceil_half(self):
        for n, k in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)]:
            grid = build_qmap(make_table([0] * (1 << n), n))
            assert grid.split == k
            assert len(grid.rowlabels) == 1 << (n - k)
            assert len(grid.collabels) == 1 << k

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_gray_labels_cyclically_adjacent(self, bits):
        seq = gray_sequence(bits)
        assert sorted(seq) == list(range(1 << bits))
        for i, label in enumerate(seq):
            nxt = seq[(i + 1) % len(seq)]
            assert bin(label ^ nxt).count("1") == 1

    def test_flipping_one_row_var_moves_one_row(self, gray4):
        grid = build_qmap(decompose(gray4)[0])
        rows = list(grid.rowlabels)
        for r, label in enumerate(rows):
            for var_bit in (1, 2):
                r2 = rows.index(label ^ var_bit)
                assert abs(r2 - r) == 1 or abs(r2 - r) == len(rows) - 1


class TestCubeCells:
    def test_two_free_vars_example(self):
        c = cube(4, {3: False, 2: False, 1: True})
        assert cube_cells(c, 4) == {0b0010, 0b0011}

    def test_all_absent(self):
        c = Cube(2, 0, 0)
        assert cube_cells(c, 2) == {0, 1, 2, 3}

    def test_full_minterm(self):
        c = Cube(3, 0b111, 0b101)
        assert cube_cells(c, 3) == {0b101}

    def test_cell_count_is_power_of_two(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            mask = rng.randrange(1 << n)
            value = rng.randrange(1 << n) & mask
            c = Cube(n, mask, value)
            assert len(cube_cells(c, n)) == 1 << (n - c.literal_count)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            cube_cells(Cube(3, 0, 0), 4)

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(3, 0b001, 0b010)


# --- the worked example ------------------------------------------------------

EQ7_COVERS = {
    0: [{3: False, 2: False, 1: True}, {3: False, 2: True, 1: False},
        {3: True, 2: False, 1: False}, {3: True, 2: True, 1: True}],
    1: [{3: True, 2: False}, {3: False, 2: True}],
    2: [{3: True}],
    3: [],
}

EQ8_STAGE0 = [{3: False, 1: True}, {3: True, 1: False}, {2: True}]


class TestGrayCovers:
    def test_disjoint_matches_hand_derivation(self, gray4):
        tables = decompose(gray4)
        for stage, spec in EQ7_COVERS.items():
            grid = build_qmap(tables[stage])
            cover = minimize_disjoint(grid, forbidden=frozenset((stage,)))
            expected = {cube(4, s) for s in spec}
            assert set(cover.cubes) == expected, f"stage {stage}"

    def test_esop_cube_counts(self, gray4):
        tables = decompose(gray4)
        for stage, count in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            grid = build_qmap(tables[stage])
            cover = minimize_esop(grid, forbidden=frozenset((stage,)))
            assert len(cover) == count

    def test_esop_stage0_literal_tiebreak(self, gray4):
        grid = build_qmap(decompose(gray4)[0])
        cover = minimize_esop(grid, forbidden=frozenset((0,)))
        assert set(cover.cubes) == {cube(4, {1: True}), cube(4, {2: True}),
                                    cube(4, {3: True})}
        assert cover.literal_count == 3

    def test_esop_stage1_single_literals(self, gray4):
        grid = build_qmap(decompose(gray4)[1])
        cover = minimize_esop(grid, forbidden=frozenset((1,)))
        assert set(cover.cubes) == {cube(4, {2: True}), cube(4, {3: True})}

    def test_esop_covers_match_toggles_on_all_states(self, gray4):
        tables = decompose(gray4)
        for stage in range(4):
            grid = build_qmap(tables[stage])
            cover = minimize_esop(grid, forbidden=frozenset((stage,)))
            for state in range(16):
                assert cover.eval_xor(state) == tables[stage].entries[state]

    def test_stage1_complemented_alternative_verifies(self, gray4):
        grid = build_qmap(decompose(gray4)[1])
        alt = cover_of(CoverMode.ESOP, cube(4, {2: False}), cube(4, {3: False}))
        assert verify_cover(alt, grid)

    def test_hand_esop_stage0_verifies_as_esop_not_disjoint(self, gray4):
        grid = build_qmap(decompose(gray4)[0])
        cubes = [cube(4, s) for s in EQ8_STAGE0]
        assert verify_cover(cover_of(CoverMode.ESOP, *cubes), grid)
        assert not verify_cover(cover_of(CoverMode.DISJOINT, *cubes), grid)
        # the overlap is concrete: q3=0, q2=1, q1=1 states are double-covered
        state = 0b0110
        assert sum(c.covers(state) for c in cubes) == 2

    def test_all_zero_grid_empty_covers(self):
        grid = build_qmap(make_table([0] * 16, 4))
        assert minimize_disjoint(grid).cubes == ()
        assert minimize_esop(grid).cubes == ()
        assert verify_cover(cover_of(CoverMode.DISJOINT), grid)
        assert verify_cover(cover_of(CoverMode.ESOP), grid)


# --- PPRM --------------------------------------------------------------------

class TestPprm:
    def test_parity_of_three(self):
        values = [bin(s >> 1).count("1") % 2 for s in range(16)]
        cover = pprm_cover(make_table(values, 4))
        assert set(cover.cubes) == {cube(4, {1: True}), cube(4, {2: True}),
                                    cube(4, {3: True})}

    def test_constant_zero(self):
        assert pprm_cover(make_table([0] * 4, 2)).cubes == ()

    def test_and_is_own_pprm(self):
        cover = pprm_cover(make_table([0, 0, 0, 1], 2))
        assert set(cover.cubes) == {cube(2, {0: True, 1: True})}

    def test_dontcares_become_zero(self):
        cover = pprm_cover(make_table([None, 1, None, 1], 2))
        direct = pprm_cover(make_table([0, 1, 0, 1], 2))
        assert cover == direct

    @pytest.mark.parametrize("seed", range(20))
    def test_against_mobius_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        values = random_values(n, rng)
        cover = pprm_cover(make_table(values, n))
        expected = mobius_pprm(values, n)
        assert sorted((c.mask, c.value) for c in cover.cubes) == expected

    def test_pprm_all_positive_literals(self):
        rng = random.Random(99)
        values = random_values(4, rng)
        for c in pprm_cover(make_table(values, 4)).cubes:
            assert c.value == c.mask


# --- minimizer correctness and optimality ------------------------------------

class TestExactOptimality:
    def test_all_two_var_functions_vs_brute_force(self):
        for bits in range(16):
            values = [(bits >> s) & 1 for s in range(4)]
            grid = build_qmap(make_table(values, 2))
            es = minimize_esop(grid)
            assert verify_cover(es, grid)
            assert (len(es), es.literal_count) == brute_min_esop(values, 2)
            dis = minimize_disjoint(grid)
            assert verify_cover(dis, grid)
            assert (len(dis), dis.literal_count) == brute_min_disjoint(values, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_three_var_functions_vs_brute_force(self, seed):
        rng = random.Random(seed)
        values = random_values(3, rng)
        grid = build_qmap(make_table(values, 3))
        es = minimize_esop(grid)
        assert (len(es), es.literal_count) == brute_min_esop(values, 3)
        dis = minimize_disjoint(grid)
        assert (len(dis), dis.literal_count) == brute_min_disjoint(values, 3)

    def test_all_three_var_functions_disjoint_vs_brute_force(self):
        for bits in range(256):
            values = [(bits >> s) & 1 for s in range(8)]
            dis = minimize_disjoint(build_qmap(make_table(values, 3)))
            assert (len(dis), dis.literal_count) == \
                brute_min_disjoint(values, 3), f"function {bits:#04x}"

    @pytest.mark.parametrize("seed", range(10))
    def test_dontcare_grids_vs_brute_force(self, seed):
        rng = random.Random(400 + seed)
        n = rng.randint(2, 3)
        values = random_values(n, rng, dc_chance=0.3)
        grid = build_qmap(make_table(values, n))
        es = minimize_esop(grid)
        assert verify_cover(es, grid)
        assert (len(es), es.literal_count) == brute_min_esop(values, n)
        dis = minimize_disjoint(grid)
        assert verify_cover(dis, grid)
        assert (len(dis), dis.literal_count) == brute_min_disjoint(values, n)

    def test_exact_esop_never_beaten_by_pprm(self):
        for bits in range(256):
            values = [(bits >> s) & 1 for s in range(8)]
            table = make_table(values, 3)
            grid = build_qmap(table)
            es = minimize_esop(grid)
            assert verify_cover(es, grid)
            assert len(es) <= len(pprm_cover(table))

    def test_dontcares_reduce_cost(self):
        # 1 at state 0, don't-care elsewhere: a single constant-1 cube
        grid = build_qmap(make_table([1, None, None, None], 2))
        assert minimize_esop(grid).cubes == (Cube(2, 0, 0),)
        assert minimize_disjoint(grid).cubes == (Cube(2, 0, 0),)


class TestMinimizerProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_grids_small(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 4)
        values = random_values(n, rng, dc_chance=0.2)
        grid = build_qmap(make_table(values, n))
        es = minimize_esop(grid)
        dis = minimize_disjoint(grid)
        assert verify_cover(es, grid)
        assert verify_cover(dis, grid)
        for state in range(1 << n):
            assert dis.eval_or(state) == dis.eval_xor(state)
            if values[state] is not None:
                assert es.eval_xor(state) == values[state]
                assert dis.eval_or(state) == values[state]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_grids_heuristic_widths(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.choice([5, 6])
        values = random_values(n, rng, dc_chance=0.1)
        grid = build_qmap(make_table(values, n))
        es = minimize_esop(grid)
        dis = minimize_disjoint(grid)
        assert verify_cover(es, grid)
        assert verify_cover(dis, grid)
        for state in range(1 << n):
            assert dis.eval_or(state) == dis.eval_xor(state)

    def test_esop_heuristic_parity_stays_linear(self):
        # parity of five variables: the Reed-Muller seed is already the
        # five single-literal terms and merging must not lose that
        values = [bin(s).count("1") % 2 for s in range(32)]
        grid = build_qmap(make_table(values, 5))
        es = minimize_esop(grid)
        assert verify_cover(es, grid)
        assert len(es) == 5

    def test_determinism(self):
        rng = random.Random(3)
        values = random_values(4, rng, dc_chance=0.3)
        grid = build_qmap(make_table(values, 4))
        assert minimize_esop(grid) == minimize_esop(grid)
        assert minimize_disjoint(grid) == minimize_disjoint(grid)


class TestForbiddenVariable:
    def test_avoidable_variable_is_avoided(self, gray4):
        tables = decompose(gray4)
        for stage in range(4):
            grid = build_qmap(tables[stage])
            for cover in (minimize_esop(grid, forbidden=frozenset((stage,))),
                          minimize_disjoint(grid, forbidden=frozenset((stage,)))):
                for c in cover.cubes:
                    assert not c.mask >> stage & 1

    def test_unavoidable_variable_raises(self):
        values = [0, 1, 0, 1]  # T = q0: cannot avoid q0
        grid = build_qmap(make_table(values, 2))
        assert not can_avoid_variable(values, 2, 0)
        with pytest.raises(ValueError):
            minimize_esop(grid, forbidden=frozenset((0,)))
        with pytest.raises(ValueError):
            minimize_disjoint(grid, forbidden=frozenset((0,)))

    def test_dontcare_makes_variable_avoidable(self):
        values = [0, None, 1, 1]  # completing the DC as 0 removes q0
        assert can_avoid_variable(values, 2, 0)
        grid = build_qmap(make_table(values, 2))
        cover = minimize_esop(grid, forbidden=frozenset((0,)))
        assert verify_cover(cover, grid)
        for c in cover.cubes:
            assert not c.mask & 1

    def test_forbidden_on_heuristic_path(self):
        # width 5, function independent of q0
        values = [bin(s >> 1).count("1") % 2 for s in range(32)]
        grid = build_qmap(make_table(values, 5))
        cover = minimize_esop(grid, forbidden=frozenset((0,)))
        assert verify_cover(cover, grid)
        assert all(not c.mask & 1 for c in cover.cubes)


@st.composite
def incomplete_functions(draw):
    """(values, m) for 1 <= m <= 8, with a drawn mix of 1s, 0s and
    don't-cares so that both scattered and large blocks occur."""
    m = draw(st.integers(1, 8))
    mix = draw(st.sampled_from([(0, 1, None), (0, 1), (1, 1, 1, 0),
                                (1, 1, 1, None), (1, None, None, 0)]))
    values = draw(st.lists(st.sampled_from(mix), min_size=1 << m,
                           max_size=1 << m))
    return values, m


class TestGreedyDisjointReference:
    @settings(max_examples=300, deadline=None)
    @given(incomplete_functions())
    def test_same_cubes_in_same_order(self, case):
        values, m = case
        assert _greedy_disjoint(values, m) == \
            reference.greedy_disjoint(values, m)
