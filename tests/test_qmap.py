import gc
import hashlib
import random
import tracemalloc
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import random_feasible_function
from qmap_synth import (
    Cover,
    CoverMode,
    Cube,
    build_qmap,
    decompose,
    gray_to_binary_function,
    minimize_disjoint,
    minimize_esop,
    synthesize,
)
from qmap_synth import qmap
from qmap_synth.cascade import ToggleTable
from qmap_synth.cli import _grid_text, _gray_sequence
from qmap_synth.errors import TargetReadWrite
from qmap_synth.qmap import (
    EXACT_WIDTH_CAP,
    _CORES,
    _exact,
    _greedy_disjoint,
    _level,
    _memo,
    _merge_terms,
    _pprm,
    _remove_var,
    _sizes,
    _stage_terms,
    _truth_vector,
    can_avoid_variable,
)


def make_table(values, width):
    """Wrap raw toggle values for tests that bypass the cascade."""
    return ToggleTable(stage=0, target=0, width=width,
                       on=sum(v << s for s, v in enumerate(values)),
                       primed=(False,) * width)


@st.composite
def toggle_tables(draw):
    """A table of width 1-6 with a random truth vector and primed flags."""
    m = draw(st.integers(1, 6))
    return ToggleTable(stage=0, target=0, width=m,
                       on=draw(st.integers(0, (1 << (1 << m)) - 1)),
                       primed=tuple(draw(st.lists(st.booleans(), min_size=m,
                                                  max_size=m))))


class Grid(NamedTuple):
    rownames: list[str]
    colnames: list[str]
    rowlabels: list[int]
    collabels: list[int]
    cells: dict[tuple[int, int], str]  # (row label, column label) -> text


def parse_grid(text):
    """The headers, binary labels and cells of a `_grid_text` printout."""
    head, cols, *rows = text.splitlines()
    rowpart, colpart = head.removeprefix("rows: ").split(" | cols: ")
    rownames = [] if rowpart == "-" else rowpart.split()
    collabels = [int(c, 2) for c in cols.split()]
    rowlabels, cells = [], {}
    for line in rows:
        fields = line.split()
        rl = int(fields.pop(0), 2) if rownames else 0
        rowlabels.append(rl)
        for cl, cell in zip(collabels, fields, strict=True):
            cells[rl, cl] = cell
    return Grid(rownames, colpart.split(), rowlabels, collabels, cells)


def values_of(on, m):
    """The list form of a truth vector."""
    return [on >> s & 1 for s in range(1 << m)]


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


def valid_cover(cover, table):
    """The mode's covering invariant on the table, cell by cell."""
    return reference.verify_cover(cover, values_of(table.on, table.width),
                                  table.width)


def pprm_cubes(values, m):
    """The library's Reed-Muller terms of a 0/1 vector as cubes."""
    coeffs = _pprm(_truth_vector(values), m)
    return [Cube(m, s, s) for s in range(1 << m) if coeffs >> s & 1]


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
    target = sum(1 << s for s, v in enumerate(values) if v == 1)
    for size in range(len(cubes) + 1):
        best = None
        for combo in combinations(range(len(cubes)), size):
            acc = 0
            for i in combo:
                acc ^= vectors[i]
            if acc == target:
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
            if (seed & c.mask) != c.value:
                continue
            cells = set(c.cells())
            if cells & covered:
                continue
            dfs(need - cells, covered | cells, count + 1,
                lits + c.literal_count)

    dfs(frozenset(ones), frozenset(), 0, 0)
    return tuple(best)


def random_values(n, rng):
    return [rng.randint(0, 1) for _ in range(1 << n)]


# --- grid construction -------------------------------------------------------

class TestBuildQmap:
    """The Gray-labelled grid as `show` prints it."""

    def test_gray_stage0_is_odd_parity_pattern(self, gray4):
        table = decompose(gray4)[0]
        ones = {s for s in range(16) if table.on >> s & 1}
        expected = {s for s in range(16)
                    if (bin(s >> 1).count("1")) % 2 == 1}
        assert ones == expected
        assert len(ones) == 8

    def test_build_qmap_returns_the_table(self, gray4):
        table = decompose(gray4)[0]
        assert build_qmap(table) is table

    def test_cells_match_toggle_columns(self, gray4):
        for table in decompose(gray4):
            grid = parse_grid(_grid_text(table))
            assert len(grid.cells) == 16
            for (rl, cl), cell in grid.cells.items():
                assert cell == str(table.on >> (rl << 2 | cl) & 1)

    def test_all_zero(self):
        grid = parse_grid(_grid_text(make_table([0] * 8, 3)))
        assert len(grid.cells) == 8
        assert set(grid.cells.values()) == {"0"}

    def test_width1_degenerate(self):
        grid = parse_grid(_grid_text(make_table([0, 1], 1)))
        assert grid.colnames == ["q0"]
        assert grid.rownames == []
        assert grid.rowlabels == [0]
        assert grid.collabels == [0, 1]

    def test_split_is_ceil_half(self):
        for n, k in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)]:
            grid = parse_grid(_grid_text(make_table([0] * (1 << n), n)))
            assert len(grid.colnames) == k
            assert len(grid.rownames) == n - k
            assert len(grid.rowlabels) == 1 << (n - k)
            assert len(grid.collabels) == 1 << k

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_gray_labels_cyclically_adjacent(self, bits):
        seq = _gray_sequence(bits)
        assert sorted(seq) == list(range(1 << bits))
        for i, label in enumerate(seq):
            nxt = seq[(i + 1) % len(seq)]
            assert bin(label ^ nxt).count("1") == 1

    def test_flipping_one_row_var_moves_one_row(self, gray4):
        rows = parse_grid(_grid_text(decompose(gray4)[0])).rowlabels
        for r, label in enumerate(rows):
            for var_bit in (1, 2):
                r2 = rows.index(label ^ var_bit)
                assert abs(r2 - r) == 1 or abs(r2 - r) == len(rows) - 1

    @settings(max_examples=200, deadline=None)
    @given(toggle_tables())
    def test_printed_cells_are_the_truth_vector(self, t):
        grid = parse_grid(_grid_text(t))
        k = (t.width + 1) // 2
        names = grid.rownames + grid.colnames
        assert len(grid.colnames) == k
        # q_{n-1} first, down to q0, each primed iff rewritten already
        assert [int(name[1:].rstrip("'")) for name in names] == \
            list(range(t.width - 1, -1, -1))
        assert all(name.endswith("'") == t.primed[int(name[1:].rstrip("'"))]
                   for name in names)
        assert grid.rowlabels == list(_gray_sequence(t.width - k))
        assert grid.collabels == list(_gray_sequence(k))
        assert len(grid.cells) == 1 << t.width
        for (rl, cl), cell in grid.cells.items():
            assert cell == str(t.on >> (rl << k | cl) & 1)


class TestCubeCells:
    def test_two_free_vars_example(self):
        c = cube(4, {3: False, 2: False, 1: True})
        assert set(c.cells()) == {0b0010, 0b0011}

    def test_all_absent(self):
        c = Cube(2, 0, 0)
        assert set(c.cells()) == {0, 1, 2, 3}

    def test_full_minterm(self):
        c = Cube(3, 0b111, 0b101)
        assert set(c.cells()) == {0b101}

    def test_cell_count_is_power_of_two(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            mask = rng.randrange(1 << n)
            value = rng.randrange(1 << n) & mask
            c = Cube(n, mask, value)
            assert len(set(c.cells())) == 1 << (n - c.literal_count)

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(3, 0b001, 0b010)

    def test_mask_wider_than_width_rejected(self):
        with pytest.raises(ValueError, match="^mask wider than cube width$"):
            Cube(2, 0b100, 0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_cube_without_literals_renders_as_one(self, n):
        assert Cube(n, 0, 0).render() == "1"


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
            table = tables[stage]
            cover = minimize_disjoint(table, forbidden=frozenset((stage,)))
            expected = {cube(4, s) for s in spec}
            assert set(cover.cubes) == expected, f"stage {stage}"

    def test_esop_cube_counts(self, gray4):
        tables = decompose(gray4)
        for stage, count in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            table = tables[stage]
            cover = minimize_esop(table, forbidden=frozenset((stage,)))
            assert len(cover) == count

    def test_esop_stage0_literal_tiebreak(self, gray4):
        table = decompose(gray4)[0]
        cover = minimize_esop(table, forbidden=frozenset((0,)))
        assert set(cover.cubes) == {cube(4, {1: True}), cube(4, {2: True}),
                                    cube(4, {3: True})}
        assert cover.literal_count == 3

    def test_esop_stage1_single_literals(self, gray4):
        table = decompose(gray4)[1]
        cover = minimize_esop(table, forbidden=frozenset((1,)))
        assert set(cover.cubes) == {cube(4, {2: True}), cube(4, {3: True})}

    def test_esop_covers_match_toggles_on_all_states(self, gray4):
        tables = decompose(gray4)
        for stage in range(4):
            table = tables[stage]
            cover = minimize_esop(table, forbidden=frozenset((stage,)))
            for state in range(16):
                count = sum((state & c.mask) == c.value for c in cover.cubes)
                assert count % 2 == tables[stage].on >> state & 1

    def test_stage1_complemented_alternative_verifies(self, gray4):
        table = decompose(gray4)[1]
        alt = cover_of(CoverMode.ESOP, cube(4, {2: False}), cube(4, {3: False}))
        assert valid_cover(alt, table)

    def test_hand_esop_stage0_verifies_as_esop_not_disjoint(self, gray4):
        table = decompose(gray4)[0]
        cubes = [cube(4, s) for s in EQ8_STAGE0]
        assert valid_cover(cover_of(CoverMode.ESOP, *cubes), table)
        assert not valid_cover(cover_of(CoverMode.DISJOINT, *cubes), table)
        # the overlap is concrete: q3=0, q2=1, q1=1 states are double-covered
        state = 0b0110
        assert sum((state & c.mask) == c.value for c in cubes) == 2

    def test_all_zero_grid_empty_covers(self):
        table = make_table([0] * 16, 4)
        assert minimize_disjoint(table).cubes == ()
        assert minimize_esop(table).cubes == ()
        assert valid_cover(cover_of(CoverMode.DISJOINT), table)
        assert valid_cover(cover_of(CoverMode.ESOP), table)


# --- PPRM --------------------------------------------------------------------

class TestPprm:
    def test_parity_of_three(self):
        values = [bin(s >> 1).count("1") % 2 for s in range(16)]
        assert set(pprm_cubes(values, 4)) == {
            cube(4, {1: True}), cube(4, {2: True}), cube(4, {3: True})}

    def test_constant_zero(self):
        assert pprm_cubes([0] * 4, 2) == []

    def test_and_is_own_pprm(self):
        assert pprm_cubes([0, 0, 0, 1], 2) == [cube(2, {0: True, 1: True})]

    @pytest.mark.parametrize("seed", range(20))
    def test_against_mobius_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        values = random_values(n, rng)
        expected = mobius_pprm(values, n)
        assert sorted((c.mask, c.value) for c in pprm_cubes(values, n)) == \
            expected

    def test_pprm_all_positive_literals(self):
        rng = random.Random(99)
        values = random_values(4, rng)
        for c in pprm_cubes(values, 4):
            assert c.value == c.mask


# --- minimizer correctness and optimality ------------------------------------

class TestExactOptimality:
    def test_all_two_var_functions_vs_brute_force(self):
        for bits in range(16):
            values = [(bits >> s) & 1 for s in range(4)]
            table = make_table(values, 2)
            es = minimize_esop(table)
            assert valid_cover(es, table)
            assert (len(es), es.literal_count) == brute_min_esop(values, 2)
            dis = minimize_disjoint(table)
            assert valid_cover(dis, table)
            assert (len(dis), dis.literal_count) == brute_min_disjoint(values, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_three_var_functions_vs_brute_force(self, seed):
        rng = random.Random(seed)
        values = random_values(3, rng)
        table = make_table(values, 3)
        es = minimize_esop(table)
        assert (len(es), es.literal_count) == brute_min_esop(values, 3)
        dis = minimize_disjoint(table)
        assert (len(dis), dis.literal_count) == brute_min_disjoint(values, 3)

    def test_all_three_var_functions_disjoint_vs_brute_force(self):
        for bits in range(256):
            values = [(bits >> s) & 1 for s in range(8)]
            dis = minimize_disjoint(make_table(values, 3))
            assert (len(dis), dis.literal_count) == \
                brute_min_disjoint(values, 3), f"function {bits:#04x}"

    @pytest.mark.parametrize("seed", range(10))
    def test_dontcare_grids_vs_brute_force(self, seed):
        # the function does not care about one drawn variable, as a
        # stage's toggle does not care about its target; restricting any
        # cover to var = 0 drops that variable at no cost, so the cover
        # with it forbidden is still optimal over the whole table
        rng = random.Random(400 + seed)
        n = rng.randint(2, 3)
        var = rng.randrange(n)
        low = random_values(n - 1, rng)
        values = [low[(s >> 1 & -1 << var) | (s & (1 << var) - 1)]
                  for s in range(1 << n)]
        table = make_table(values, n)
        forbidden = frozenset((var,))
        es = minimize_esop(table, forbidden=forbidden)
        assert valid_cover(es, table)
        assert (len(es), es.literal_count) == brute_min_esop(values, n)
        dis = minimize_disjoint(table, forbidden=forbidden)
        assert valid_cover(dis, table)
        assert (len(dis), dis.literal_count) == brute_min_disjoint(values, n)
        assert not any(c.mask >> var & 1 for c in es.cubes + dis.cubes)

    def test_exact_esop_never_beaten_by_pprm(self):
        for bits in range(256):
            values = [(bits >> s) & 1 for s in range(8)]
            table = make_table(values, 3)
            es = minimize_esop(table)
            assert valid_cover(es, table)
            assert len(es) <= len(pprm_cubes(values, 3))


class TestMinimizerProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_grids_small(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 4)
        values = random_values(n, rng)
        table = make_table(values, n)
        es = minimize_esop(table)
        dis = minimize_disjoint(table)
        assert valid_cover(es, table)
        assert valid_cover(dis, table)
        for state in range(1 << n):
            dis_count = sum((state & c.mask) == c.value for c in dis.cubes)
            assert dis_count <= 1
            assert sum((state & c.mask) == c.value for c in es.cubes) % 2 == \
                values[state]
            assert dis_count == values[state]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_grids_heuristic_widths(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.choice([5, 6])
        values = random_values(n, rng)
        table = make_table(values, n)
        es = minimize_esop(table)
        dis = minimize_disjoint(table)
        assert valid_cover(es, table)
        assert valid_cover(dis, table)
        for state in range(1 << n):
            assert sum((state & c.mask) == c.value for c in dis.cubes) <= 1

    def test_esop_heuristic_parity_stays_linear(self):
        # parity of five variables: the Reed-Muller seed is already the
        # five single-literal terms and merging must not lose that
        values = [bin(s).count("1") % 2 for s in range(32)]
        table = make_table(values, 5)
        es = minimize_esop(table)
        assert valid_cover(es, table)
        assert len(es) == 5

    def test_determinism(self):
        rng = random.Random(3)
        values = random_values(4, rng)
        table = make_table(values, 4)
        assert minimize_esop(table) == minimize_esop(table)
        assert minimize_disjoint(table) == minimize_disjoint(table)


class TestForbiddenVariable:
    def test_avoidable_variable_is_avoided(self, gray4):
        tables = decompose(gray4)
        for stage in range(4):
            forbidden = frozenset((stage,))
            for cover in (minimize_esop(tables[stage], forbidden=forbidden),
                          minimize_disjoint(tables[stage],
                                            forbidden=forbidden)):
                for c in cover.cubes:
                    assert not c.mask >> stage & 1

    def test_unavoidable_variable_raises(self):
        values = [0, 1, 0, 1]  # T = q0: cannot avoid q0
        table = make_table(values, 2)
        assert not can_avoid_variable(values, 2, 0)
        with pytest.raises(ValueError):
            minimize_esop(table, forbidden=frozenset((0,)))
        with pytest.raises(ValueError):
            minimize_disjoint(table, forbidden=frozenset((0,)))

    def test_dontcare_makes_variable_avoidable(self):
        values = [0, 0, 1, 1]  # T = q1 does not care about q0
        assert can_avoid_variable(values, 2, 0)
        table = make_table(values, 2)
        cover = minimize_esop(table, forbidden=frozenset((0,)))
        assert valid_cover(cover, table)
        for c in cover.cubes:
            assert not c.mask & 1

    def test_forbidden_on_heuristic_path(self):
        # width 5, function independent of q0
        values = [bin(s >> 1).count("1") % 2 for s in range(32)]
        table = make_table(values, 5)
        cover = minimize_esop(table, forbidden=frozenset((0,)))
        assert valid_cover(cover, table)
        assert all(not c.mask & 1 for c in cover.cubes)

    @pytest.mark.parametrize("minimize", [minimize_esop, minimize_disjoint])
    @pytest.mark.parametrize("var", [-1, 3, 5])  # -1, width, width + 2
    def test_variable_outside_the_table_raises(self, minimize, var):
        table = make_table(values_of(0b01101001, 3), 3)
        with pytest.raises(ValueError, match=rf"\bq{var}\b"):
            minimize(table, forbidden=frozenset((var,)))

    @pytest.mark.parametrize("var", [-1, 3, 5])  # -1, width, width + 2
    def test_avoiding_a_variable_outside_the_table_raises(self, var):
        with pytest.raises(ValueError, match=rf"\bq{var}\b"):
            can_avoid_variable(values_of(0b01101001, 3), 3, var)

    @pytest.mark.parametrize("minimize", [minimize_esop, minimize_disjoint])
    def test_highest_read_variable_is_named(self, minimize):
        # q0 xor q1 reads q0 and q1 but ignores q2: q2 is projected out,
        # then q1 is the first that fails
        table = make_table([(s ^ s >> 1) & 1 for s in range(8)], 3)
        with pytest.raises(ValueError,
                           match="^no cover of this table can avoid q1$"):
            minimize(table, forbidden=frozenset((0, 1, 2)))

    @pytest.mark.parametrize("minimize", [minimize_esop, minimize_disjoint])
    @pytest.mark.parametrize("forbidden, var", [
        ((0, 5), 5), ((-1, 0, 5), -1)])
    def test_range_is_checked_before_any_projection(self, minimize,
                                                    forbidden, var):
        # the table reads q0, so a projection would fail first
        table = make_table(values_of(0b01101001, 3), 3)
        with pytest.raises(ValueError, match=(
                rf"^variable q{var} is outside the table's 3 variables$")):
            minimize(table, forbidden=frozenset(forbidden))

    def test_target_read_write_names_stage_and_target(self):
        # raised only by the benchmark's rebuild of `synthesize`, when a
        # stage's cover cannot avoid its target
        err = TargetReadWrite(stage=2, target=1)
        assert (err.stage, err.target) == (2, 1)
        assert str(err) == (
            "stage 2: every cover of the toggle function reads its own "
            "target q1, which the gate model cannot express")

    def test_every_variable_forbidden(self):
        # a constant function cares about no variable: with all of them
        # projected out, the cover is the constant-1 cube over m = 0
        table = make_table([1, 1, 1, 1], 2)
        for minimize in (minimize_esop, minimize_disjoint):
            assert minimize(table, forbidden=frozenset((0, 1))).cubes == \
                (Cube(2, 0, 0),)


@st.composite
def total_functions(draw, min_m=1, max_m=8):
    """(values, m) for min_m <= m <= max_m, with a drawn mix of 1s and 0s
    so that both scattered and large blocks occur; the 7-in-8 mix gives
    cubes with 3 or more free variables."""
    m = draw(st.integers(min_m, max_m))
    mix = draw(st.sampled_from([(0, 1), (1, 1, 1, 0), (1,) * 7 + (0,)]))
    values = draw(st.lists(st.sampled_from(mix), min_size=1 << m,
                           max_size=1 << m))
    return values, m


class TestGreedyDisjointReference:
    @settings(max_examples=300, deadline=None)
    @given(total_functions())
    # m = 0 is reached when every variable of a table is forbidden
    @example(([1], 0))
    # dense tables grow cubes of 3 or more free variables, each kept only
    # when every subset of it fits: all ones, all ones but one cell (the
    # first, a middle one, the last), and a fixed 7-in-8 mix
    @example(([1] * 32, 5))
    @example(([1] * 64, 6))
    @example(([1] * 128, 7))
    @example(([1] * 256, 8))
    @example(([0] + [1] * 31, 5))
    @example(([1] * 77 + [0] + [1] * 50, 7))
    @example(([1] * 255 + [0], 8))
    @example(([0 if s % 8 == 5 or s == 70 else 1 for s in range(256)], 8))
    # seed 2 has one needed neighbour, 3, and the cell of its own 1-bit,
    # 4, is needed too: a free set outside the neighbours' subsets would
    # take it
    @example(([0, 0, 1, 1, 1, 0, 0, 0], 3))
    # after the cube of cells 1 and 5, seed 2's needed neighbours are 3
    # and 6: a level step that shifts {q0} by q0 again carries onto the
    # seed's own bit, q1
    @example(([0, 1, 1, 1, 1, 1, 1, 0], 3))
    def test_same_cubes_in_same_order(self, case):
        values, m = case
        assert _greedy_disjoint(_truth_vector(values), m) == \
            reference.greedy_disjoint(values, m)

    def test_holds_no_memory_after_return(self):
        # no table of the cover outlives the call; a first call on
        # another width-12 vector fills the `_sizes` and `_clear` caches
        rng = random.Random(12)
        _greedy_disjoint(rng.getrandbits(1 << 12), 12)
        on = rng.getrandbits(1 << 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _greedy_disjoint(on, 12)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1024

    def test_sizes_are_the_states_of_each_bit_count(self):
        for m in range(11):
            sizes = _sizes(m)
            assert len(sizes) == m + 1
            for k, size in enumerate(sizes):
                assert size == sum(1 << s for s in range(1 << m)
                                   if s.bit_count() == k)


@st.composite
def seed_vectors(draw):
    """(on, m): a random truth vector over m variables, whose Reed-Muller
    monomials seed the sweep, for m up to 8, the widest stage of the
    benchmark's rand-esop tables."""
    m = draw(st.integers(1, 8))
    return draw(st.integers(0, (1 << (1 << m)) - 1)), m


def swept(on, m):
    """The reference sweep of the truth vector's Reed-Muller seed."""
    return reference.sweep_terms(reference.pprm_terms(values_of(on, m), m), m)


def xor_of(terms, m):
    """The truth vector of the XOR of (mask, value) terms, cell by cell."""
    return sum(1 << s for s in range(1 << m)
               if sum(s & mk == v for mk, v in terms) & 1)


def unmerged_pairs(terms, m):
    """The terms (P, N) whose partner (P + i, N) is also a term, for a
    slot i outside the mask: the pairs the sweep leaves, if any."""
    pool = set(terms)
    return [(mk, v) for mk, v in terms for i in range(m)
            if not mk >> i & 1 and (mk | 1 << i, v | 1 << i) in pool]


class TestMergeTermsReference:
    # the reference sweeps a set pool and returns it sorted, so the
    # terms are compared as sorted lists; TestCoreOrder pins the order
    @settings(max_examples=200, deadline=None)
    @given(seed_vectors())
    # x0'x1' has the seed 1, x0, x1, x0x1: slot 0 merges 1 xor x0 into
    # x0' and x1 xor x0x1 into x0'x1, and slot 1 merges those two
    @example((0b0001, 2))
    def test_same_terms_on_reed_muller_seeds(self, case):
        on, m = case
        assert sorted(_merge_terms(on, m)) == swept(on, m)

    def test_same_terms_on_every_function_up_to_four_variables(self):
        for m in range(5):
            for on in range(1 << (1 << m)):
                assert sorted(_merge_terms(on, m)) == swept(on, m)

    @settings(max_examples=200, deadline=None)
    @given(seed_vectors())
    def test_terms_xor_to_the_function_and_leave_no_pair(self, case):
        on, m = case
        terms = _merge_terms(on, m)
        assert xor_of(terms, m) == on
        assert unmerged_pairs(terms, m) == []
        assert len(terms) <= _pprm(on, m).bit_count()

    def test_holds_no_memory_after_return(self):
        # no class list of the sweep outlives the call; a first call on
        # another width-12 vector fills the `_clear` masks it reads
        rng = random.Random(12)
        _merge_terms(rng.getrandbits(1 << 12), 12)
        on = rng.getrandbits(1 << 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _merge_terms(on, 12)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1024


def same_cubes(cover, expected):
    """True iff the covers hold the same cubes in the same mode, in any
    order: the references return their set pools sorted, and the
    minimizers keep the core's order (TestCoreOrder)."""
    def key(c):
        return c.width, c.mask, c.value
    return cover.mode is expected.mode and \
        sorted(map(key, cover.cubes)) == sorted(map(key, expected.cubes))


@st.composite
def grids_with_forbidden(draw, min_m, max_m):
    """(values, m, forbidden) for min_m <= m <= max_m: up to three
    forbidden variables, each one the function ignores; one draw in
    three copies a cofactor onto the other for every drawn variable so
    that the function ignores them all."""
    values, m = draw(total_functions(min_m, max_m))
    drawn = draw(st.sets(st.integers(0, m - 1), max_size=3))
    how = draw(st.sampled_from(["none", "drawn", "copied"]))
    if how == "copied":
        for var in drawn:
            bit = 1 << var
            values = [values[s & ~bit] for s in range(1 << m)]
    forbidden = frozenset()
    if how != "none":
        forbidden = frozenset(var for var in drawn
                              if can_avoid_variable(values, m, var))
    return values, m, forbidden


class TestMinimizeEsopReference:
    @settings(max_examples=200, deadline=None)
    @given(grids_with_forbidden(5, 8))
    # ignored variables between read ones: the slots reopen lowest first
    @example(([s >> 1 & s >> 3 & s >> 5 & 1 for s in range(64)], 6,
              frozenset((0, 2, 4))))
    def test_same_cover_on_heuristic_grids(self, case):
        values, m, forbidden = case
        table = make_table(values, m)
        expected = reference.minimize_esop_heuristic(values, m, forbidden)
        assert same_cubes(minimize_esop(table, forbidden=forbidden),
                          expected)

    # a swept Reed-Muller seed provably holds at most one single
    # negative (see `_merge_terms` and TestSingleNegatives), so only
    # exact covers exercise the reference's normalization
    @settings(max_examples=200, deadline=None)
    @given(grids_with_forbidden(1, 4))
    @example(([s >> 1 & s >> 3 & 1 for s in range(16)], 4, frozenset((0, 2))))
    def test_same_cover_on_exact_grids(self, case):
        values, m, forbidden = case
        table = make_table(values, m)
        expected = reference.minimize_esop_exact(values, m, forbidden)
        assert same_cubes(minimize_esop(table, forbidden=forbidden),
                          expected)


class TestMinimizeDisjointReference:
    @settings(max_examples=200, deadline=None)
    @given(grids_with_forbidden(5, 8))
    # ignored variables between read ones: the slots reopen lowest first
    @example(([s >> 1 & s >> 3 & s >> 5 & 1 for s in range(64)], 6,
              frozenset((0, 2, 4))))
    def test_same_cover_on_heuristic_grids(self, case):
        values, m, forbidden = case
        table = make_table(values, m)
        expected = reference.minimize_disjoint_heuristic(values, m, forbidden)
        assert same_cubes(minimize_disjoint(table, forbidden=forbidden),
                          expected)

    @settings(max_examples=200, deadline=None)
    @given(grids_with_forbidden(1, 4))
    @example(([s >> 1 & s >> 3 & 1 for s in range(16)], 4, frozenset((0, 2))))
    def test_same_cover_on_exact_grids(self, case):
        values, m, forbidden = case
        table = make_table(values, m)
        expected = reference.minimize_disjoint_exact(values, m, forbidden)
        assert same_cubes(minimize_disjoint(table, forbidden=forbidden),
                          expected)


def all_negative(terms):
    """How many terms have value 0: the constant and the terms whose
    every literal is complemented."""
    return sum(1 for _, v in terms if not v)


def distinct_parts(terms):
    """True iff no two terms share their positive variables (value bits),
    and no two share their mask: the invariants of `_merge_terms`'s
    proof."""
    return len({v for _, v in terms}) == len({mk for mk, _ in terms}) == \
        len(terms)


class TestSingleNegatives:
    """Why only exact ESOP covers flip complemented single literals: a
    swept seed holds at most one, and an exact cover's flips never meet
    an equal cube (the proofs are in `_merge_terms` and `_esop_exact`)."""

    def test_merged_seed_of_every_function_up_to_four_variables(self):
        for m in range(5):
            for on in range(1 << (1 << m)):
                merged = _merge_terms(on, m)
                assert all_negative(merged) <= 1
                assert distinct_parts(merged)

    @settings(max_examples=100, deadline=None)
    @given(total_functions(5, 10))
    def test_merged_seed_up_to_ten_variables(self, case):
        values, m = case
        merged = _merge_terms(_truth_vector(values), m)
        assert all_negative(merged) <= 1
        assert distinct_parts(merged)

    def test_exact_covers_up_to_four_variables(self):
        # in both modes, distinct cubes (after the ESOP flips), and no
        # variable both as x and as x': each single-literal mask appears
        # once.  The digest pins the exact engine's whole output.
        digest = hashlib.sha256()
        for m in range(5):
            for on in range(1 << (1 << m)):
                covers = (_CORES[CoverMode.DISJOINT, True](on, m),
                          _CORES[CoverMode.ESOP, True](on, m))
                for cubes in covers:
                    singles = [mk for mk, _ in cubes if mk.bit_count() == 1]
                    assert len(set(cubes)) == len(cubes)
                    assert len(set(singles)) == len(singles)
                digest.update(repr(covers).encode())
        assert digest.hexdigest() == (
            "16302a97d3b892ca8d6df9ad9e3355c086523804f8faa894cfa7a7d6ac7b396e")


class TestCores:
    def test_one_core_per_mode_and_path(self):
        assert set(_CORES) == {(mode, exact) for mode in CoverMode
                               for exact in (True, False)}

    def test_synthesize_asks_the_exact_engine_for_at_most_three_variables(
            self, monkeypatch):
        # a stage of an n-bit function is covered over n - 1 variables,
        # and only tables up to EXACT_WIDTH_CAP wide take the exact path,
        # so `synthesize` never covers a 4-variable function exactly;
        # with the memo emptied, every call the recursion makes is seen
        _memo.cache_clear()
        _level.cache_clear()
        exact, widths = qmap._exact, []

        def spy(disjoint, f, m):
            widths.append(m)
            return exact(disjoint, f, m)

        monkeypatch.setattr(qmap, "_exact", spy)
        for n in range(1, 9):
            for f in (random_feasible_function(n, random.Random(n)),
                      gray_to_binary_function(n)):
                for mode in CoverMode:
                    for order in ("natural", "search"):
                        synthesize(f, mode=mode, order=order)
        assert widths and max(widths) <= 3


def seeded_vectors(m, count, seed):
    """`count` seeded truth vectors over m variables, one to three
    random vectors ORed, so that denser ones grow bigger cubes."""
    rng = random.Random(seed)
    size = 1 << m
    out = []
    for k in range(count):
        on = 0
        for _ in range(1 + k % 3):
            on |= rng.getrandbits(size)
        out.append(on)
    return out


def in_sweep_order(terms):
    """True iff the swept terms come class by class, each class of
    complemented variables N one run, the classes in ascending N, and
    each class's positive parts P from the highest.  The sweep makes
    the classes in ascending N: at slot i it appends each N + i after
    every class made before it, and every one of those lies below i."""
    keys = [(mk & ~v, -v) for mk, v in terms]
    return keys == sorted(keys)


def squeeze(x, var):
    """Close variable slot `var`: the slots above it move down one."""
    return x & ((1 << var) - 1) | x >> 1 & -(1 << var)


class TestCoreOrder:
    """Each stage's cover reaches `_emit` in the order its core builds
    it, not sorted by (mask, value): the sweep keeps each class of
    complemented variables together, and the exact recursion each
    cofactor's cubes, so neighbouring cubes share negative literals and
    `_emit` cancels their X pairs (tests/test_circuit.py counts them)."""

    def test_merged_classes_up_to_four_variables(self):
        for m in range(5):
            for on in range(1 << (1 << m)):
                assert in_sweep_order(_merge_terms(on, m))

    @pytest.mark.parametrize("m", range(5, 11))
    def test_merged_classes_up_to_ten_variables(self, m):
        for on in seeded_vectors(m, 12, m):
            terms = _merge_terms(on, m)
            assert in_sweep_order(terms)
            assert len({mk & ~v for mk, v in terms}) > 1  # not vacuous

    def test_exact_masks_follow_the_recursion(self):
        # every function on up to 3 variables, and a seeded sample of
        # those on 4; the ESOP flips change values, never masks
        rng = random.Random(4)
        cases = [(on, m) for m in range(4) for on in range(1 << (1 << m))]
        cases += [(on, 4) for on in rng.sample(range(1 << 16), 4096)]
        for on, m in cases:
            assert list(_CORES[CoverMode.DISJOINT, True](on, m)) == \
                list(_exact(True, on, m)[1])
            assert [mk for mk, _ in _CORES[CoverMode.ESOP, True](on, m)] == \
                [mk for mk, _ in _exact(False, on, m)[1]]

    def test_greedy_seeds_ascend(self):
        # each cube is seeded at the lowest uncovered 1-cell, which its
        # value is, and it covers every 1-cell below the next seed
        greedy = _CORES[CoverMode.DISJOINT, False]
        for m in range(11):
            for on in seeded_vectors(m, 6, 100 + m):
                seeds = [v for _, v in greedy(on, m)]
                assert all(a < b for a, b in zip(seeds, seeds[1:]))
        assert greedy is _greedy_disjoint

    def test_stage_covers_are_the_cores_lists(self):
        # `synthesize` and `minimize_*` with the target forbidden (then
        # its slot closed) hand on the core's list as it is
        for n in range(2, 9):
            for f in (random_feasible_function(n, random.Random(n)),
                      gray_to_binary_function(n)):
                for t in decompose(f):
                    toggle = _remove_var(t.on, n, t.target)
                    for mode, minimize in ((CoverMode.ESOP, minimize_esop),
                                           (CoverMode.DISJOINT,
                                            minimize_disjoint)):
                        core = list(_CORES[mode, n <= EXACT_WIDTH_CAP](
                            toggle, n - 1))
                        assert list(_stage_terms(mode, t.on, n,
                                                 t.target)) == core
                        cover = minimize(t, forbidden=frozenset((t.target,)))
                        assert [(squeeze(c.mask, t.target),
                                 squeeze(c.value, t.target))
                                for c in cover.cubes] == core


class TestRemoveVarReference:
    @settings(max_examples=300, deadline=None)
    @given(total_functions(), st.data())
    def test_same_function_or_same_refusal(self, case, data):
        values, m = case
        var = data.draw(st.integers(0, m - 1))
        if data.draw(st.booleans()):  # copy a cofactor so that it ignores var
            values = [values[s & ~(1 << var)] for s in range(1 << m)]
        reduced = _remove_var(_truth_vector(values), m, var)
        expected = reference.remove_var(values, m, var)
        if expected is None:
            assert reduced is None
        else:
            assert reduced is not None
            assert values_of(reduced, m - 1) == expected
        assert can_avoid_variable(values, m, var) == (expected is not None)


class TestExactCubesReference:
    @pytest.mark.parametrize("kind", ["esop", "disjoint"])
    def test_every_function_up_to_three_variables(self, kind):
        for m in range(4):
            tabs = reference.exact_tables(kind, m)
            for on in range(1 << (1 << m)):
                key, cubes = _exact(kind == "disjoint", on, m)
                assert key == tabs[m][on]
                assert list(cubes) == reference.reconstruct(kind, tabs, on, m)

    def test_memo_is_bounded_by_width_4_tables(self):
        # one width-4 minimize per mode fills the memo with the key and
        # cover of every function on at most 3 variables, 2 + 4 + 16 + 256
        # per mode, and later width-4 calls add nothing
        _memo.cache_clear()
        _level.cache_clear()
        table = make_table(values_of(0x6996, 4), 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for minimize in (minimize_esop, minimize_disjoint):
                minimize(table)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _memo.cache_info().currsize == 2 * (2 + 4 + 16 + 256)
        assert held < 300_000
        rng = random.Random(4)
        for on in rng.sample(range(1 << 16), 300):
            table = make_table(values_of(on, 4), 4)
            for minimize in (minimize_esop, minimize_disjoint):
                assert valid_cover(minimize(table), table)
        assert _memo.cache_info().currsize == 2 * (2 + 4 + 16 + 256)

    @settings(max_examples=300, deadline=None)
    @given(total_functions(max_m=4), st.sampled_from(["esop", "disjoint"]))
    def test_same_completion_and_cubes(self, case, kind):
        values, m = case
        cubes = _exact(kind == "disjoint", _truth_vector(values), m)[1]
        assert list(cubes) == reference.exact_cubes(kind, values, m)
        cover = Cover(CoverMode(kind),
                      tuple(Cube(m, mk, v) for mk, v in cubes))
        assert reference.verify_cover(cover, values, m)


class TestPprmReference:
    @settings(max_examples=200, deadline=None)
    @given(total_functions())
    def test_same_terms(self, case):
        values, m = case
        assert [(c.mask, c.value) for c in pprm_cubes(values, m)] == \
            reference.pprm_terms(values, m)
