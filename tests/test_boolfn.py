import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRAY4_ROWS, edited_text, gray4_text, random_bijection
from qmap_synth import (
    ReversibleFunction,
    boolfn,
    gray_to_binary_function,
    identity_function,
    is_bijective,
    parse_truth_table,
    render_truth_table,
)
from qmap_synth.errors import (
    DuplicateInputRow,
    MissingInputRow,
    NotBijective,
    TruthTableError,
    TruthTableSyntaxError,
    WidthMismatch,
    WidthOutOfRange,
)


class TestIsBijective:
    def test_gray_table_is_bijective(self):
        table = [int(out, 2) for _, out in sorted(GRAY4_ROWS)]
        assert is_bijective(table)

    def test_constant_zero_is_not(self):
        assert not is_bijective([0, 0, 0, 0])

    def test_xor_one_involution(self):
        assert is_bijective([x ^ 1 for x in range(8)])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda size: st.tuples(
        st.permutations(range(size))
        | st.lists(st.integers(-2, size + 1), min_size=size, max_size=size),
        st.lists(st.booleans(), min_size=size, max_size=size))))
    @example(([], []))
    @example(([0, 0], [False, False]))
    @example(([1, 0, 1, 3], [False, False, True, False]))
    @example(([1, 0, 3, 2], [True, False, True, False]))
    def test_same_verdict_as_the_sorted_table(self, drawn):
        # some entries as floats equal to them, which a set holds as one
        values, as_float = drawn
        table = [float(v) if f else v for v, f in zip(values, as_float)]
        permutation = sorted(table) == list(range(len(table)))
        assert is_bijective(table) == permutation
        if not permutation and len(table) in (2, 4, 8):
            with pytest.raises(ValueError) as exc:
                ReversibleFunction(len(table).bit_length() - 1, tuple(table))
            assert str(exc.value) == "table is not a permutation"


class TestParse:
    def test_gray_table(self):
        f = parse_truth_table(gray4_text())
        assert f.width == 4
        assert f.table[0b0011] == 0b0010
        for inp, out in GRAY4_ROWS:
            assert f.table[int(inp, 2)] == int(out, 2)

    def test_one_bit_identity(self):
        f = parse_truth_table(".width 1\n0 -> 0\n1 -> 1\n")
        assert f == identity_function(1)

    def test_not_bijective_reports_pair(self):
        text = ".width 2\n00 -> 00\n01 -> 11\n10 -> 11\n11 -> 01\n"
        with pytest.raises(NotBijective) as exc:
            parse_truth_table(text)
        assert exc.value.output == 0b11
        assert exc.value.inputs == (0b01, 0b10)

    def test_rows_any_order_and_comments(self):
        text = "# comment\n.width 1\n\n1 -> 0\n# more\n0 -> 1\n"
        f = parse_truth_table(text)
        assert f.table == (1, 0)

    def test_comment_after_a_row_is_refused(self):
        # a comment is a whole line whose first non-blank character is
        # '#'; '#' after a row's bits is not one
        with pytest.raises(TruthTableSyntaxError) as exc:
            parse_truth_table(".width 1\n0 -> 1 # c\n1 -> 0\n")
        assert exc.value.line == 2
        assert str(exc.value) == (
            "line 2: expected '<bits> -> <bits>': '0 -> 1 # c'")

    def test_duplicate_row(self):
        with pytest.raises(DuplicateInputRow) as exc:
            parse_truth_table(".width 1\n0 -> 0\n0 -> 1\n")
        assert exc.value.line == 3

    def test_missing_row(self):
        with pytest.raises(MissingInputRow):
            parse_truth_table(".width 2\n00 -> 00\n01 -> 01\n10 -> 10\n")

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch) as exc:
            parse_truth_table(".width 2\n000 -> 00\n")
        assert exc.value.line == 2

    def test_syntax_error_has_line_number(self):
        with pytest.raises(TruthTableSyntaxError) as exc:
            parse_truth_table(".width 1\n0 => 0\n")
        assert exc.value.line == 2

    def test_missing_header(self):
        with pytest.raises(TruthTableSyntaxError):
            parse_truth_table("0 -> 0\n1 -> 1\n")

    @pytest.mark.parametrize("text, line", [
        ("", 1), ("\n# only comments\n\n", 3)])
    def test_no_header_in_a_text_without_rows(self, text, line):
        with pytest.raises(TruthTableSyntaxError) as exc:
            parse_truth_table(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: missing .width header"

    def test_unknown_directive(self):
        with pytest.raises(TruthTableSyntaxError):
            parse_truth_table(".depth 2\n")

    def test_directive_that_extends_width_is_unknown(self):
        with pytest.raises(TruthTableSyntaxError) as exc:
            parse_truth_table(".widthfoo 1\n0 -> 0\n1 -> 1\n")
        assert "unknown directive" in str(exc.value)
        assert exc.value.line == 1


class TestGenerators:
    def test_gray_matches_table_rows(self):
        f = gray_to_binary_function(4)
        for inp, out in GRAY4_ROWS:
            assert f.table[int(inp, 2)] == int(out, 2)

    def test_gray_fixed_points(self):
        f = gray_to_binary_function(4)
        assert f.table[0b0000] == 0b0000
        assert f.table[0b1000] == 0b1111
        assert f.table[0b1111] == 0b1010

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gray_inverse_composes_to_identity(self, n):
        # the inverse of Gray decoding is Gray encoding, x ^ (x >> 1)
        f = gray_to_binary_function(n)
        for x in range(1 << n):
            assert f(x ^ (x >> 1)) == x
            assert f(x) ^ (f(x) >> 1) == x

    def test_identity(self):
        assert identity_function(1).table == (0, 1)
        assert identity_function(2).table == (0, 1, 2, 3)

    @pytest.mark.parametrize("n", [0, 17])
    def test_width_out_of_range(self, n):
        with pytest.raises(WidthOutOfRange):
            gray_to_binary_function(n)
        with pytest.raises(WidthOutOfRange):
            identity_function(n)


class TestSlices:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    def test_slice_bit_is_output_bit(self, n, rng):
        f = random_bijection(n, rng)
        assert len(f.slices) == n
        for j, line in enumerate(f.slices):
            assert line >> (1 << n) == 0
            assert all(line >> x & 1 == f.table[x] >> j & 1
                       for x in range(1 << n))

    def test_widest_table(self):
        # outputs above 255 take their bits from the high byte
        f = gray_to_binary_function(16)
        for j in (7, 8, 15):
            assert all(f.slices[j] >> x & 1 == f.table[x] >> j & 1
                       for x in range(0, 1 << 16, 97))

    # 1: one byte per word is used; 8: all of the low byte; 9 and 16:
    # the high byte too
    @pytest.mark.parametrize("n", [1, 8, 9, 16])
    def test_same_words_on_a_big_endian_host(self, n, monkeypatch):
        f = random_bijection(n, random.Random(n))
        text = render_truth_table(f)
        monkeypatch.setattr(sys, "byteorder", "big")
        # bit x of slice j is bit j of f(x)
        scalar = tuple(
            int("".join(str(y >> j & 1) for y in reversed(f.table)), 2)
            for j in range(n))
        for g in ReversibleFunction(n, f.table), boolfn._read_columns(text):
            assert g.table == f.table
            assert [j for j in range(n) if g.slices[j] != scalar[j]] == []


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_parse_render_roundtrip(self, seed):
        rng = random.Random(seed)
        f = random_bijection(rng.randint(1, 6), rng)
        assert parse_truth_table(render_truth_table(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.permutations(range(1 << n))))
    def test_parse_render_property(self, table):
        f = ReversibleFunction(len(table).bit_length() - 1, tuple(table))
        assert parse_truth_table(render_truth_table(f)) == f

    def test_output_column_is_full_range(self):
        f = parse_truth_table(gray4_text())
        assert sorted(f.table) == list(range(16))

    def test_rejects_non_permutation_table(self):
        with pytest.raises(ValueError):
            ReversibleFunction(2, (0, 1, 2, 2))

    def test_rejects_table_of_wrong_length(self):
        with pytest.raises(ValueError,
                           match="^table has 3 entries, expected 4$"):
            ReversibleFunction(2, (0, 1, 2))

    def test_rejects_permutation_of_floats(self):
        # {1.0, 0.0} == {0, 1}, so only packing the words refuses it
        with pytest.raises(ValueError,
                           match="^table entries are not all ints$"):
            ReversibleFunction(1, (1.0, 0.0))

    def test_int_like_entries_build_the_int_value(self):
        f = ReversibleFunction(2, (1, 0, 3, 2))
        for table in ((True, False, 3, 2),
                      tuple(np.array(f.table, dtype=np.int64)),
                      tuple(np.array(f.table, dtype=np.uint8))):
            g = ReversibleFunction(2, table)
            assert g == f and hash(g) == hash(f) and g.slices == f.slices


# pieces of the truth-table grammar, with widths and words that are
# valid, out of range, non-ASCII digits or longer than int() will parse
TT_WIDTHS = ["0", "1", "2", "3", "16", "17", "01", "-1", "²", "٣", "9" * 5000]
TT_TOKENS = TT_WIDTHS + [".width", ".widthfoo", ".depth", ".", "#", "->",
                         "=>", "-", ">", "00", "01", "10", "11", "0 -> 1",
                         " ", "\t", "\n", "\r", "\x0c"]


@st.composite
def truth_table_texts(draw):
    """A valid table of 1-3 bits, rows in any order, with a few lines
    edited.  A new line is a header, a row of the drawn width or not, a
    comment, a blank or a run of grammar tokens."""
    width = draw(st.integers(1, 3))
    word = st.integers(0, (1 << width) - 1).map(
        lambda v: format(v, f"0{width}b"))
    table = draw(st.permutations(range(1 << width)))
    rows = [f"{x:0{width}b} -> {y:0{width}b}" for x, y in enumerate(table)]
    # rows in ascending order, ending in a newline, are the layout that
    # `render_truth_table` writes and the column reader reads
    lines = [f".width {width}"] + draw(st.permutations(rows) | st.just(rows))
    line = st.one_of(
        st.sampled_from(TT_WIDTHS).map(lambda w: f".width {w}"),
        st.tuples(word | st.sampled_from(["", "0", "0101"]), word).map(
            lambda p: f"{p[0]} -> {p[1]}"),
        st.sampled_from(["", "# comment", "  # indented", ".width",
                         ".widthfoo 1"]),
        st.lists(st.sampled_from(TT_TOKENS), max_size=8).map("".join),
    )
    text = draw(edited_text(lines, line, st.sampled_from(TT_WIDTHS)))
    return text + draw(st.sampled_from(["", "\n"]))


def outcome(parse, text):
    """The function `parse` returns for `text`, or the type, message and
    line of the error it raises."""
    try:
        return parse(text)
    except TruthTableError as exc:
        return type(exc), str(exc), exc.line


# a rendered 3-bit table, and texts that each differ from it in one
# way; `_`, `+` and a non-ASCII digit are digits to int(), not to the
# format
RENDERED = render_truth_table(random_bijection(3, random.Random(3)))
HEAD, *ROWS = RENDERED.splitlines(keepends=True)
WIDE = render_truth_table(random_bijection(9, random.Random(9)))


def with_row(i, row):
    return HEAD + "".join(ROWS[:i] + [row] + ROWS[i + 1:])


MUTATIONS = {
    "two rows swapped": HEAD + "".join([ROWS[1], ROWS[0], *ROWS[2:]]),
    "comment line": HEAD + "# c\n" + "".join(ROWS),
    "blank line": HEAD + "".join(ROWS[:4]) + "\n" + "".join(ROWS[4:]),
    "CRLF": RENDERED.replace("\n", "\r\n"),
    "no final newline": RENDERED[:-1],
    "trailing blank line": RENDERED + "\n",
    ".width 03": RENDERED.replace(".width 3", ".width 03"),
    ".width 07": RENDERED.replace(".width 3", ".width 07"),
    "header space": RENDERED.replace(".width 3", ".width 3 "),
    "extra space": with_row(2, ROWS[2].replace(" -> ", " ->  ")),
    "tab": with_row(2, ROWS[2].replace(" -> ", "\t-> ")),
    "_ in output": with_row(5, ROWS[5][:8] + "_" + ROWS[5][9:]),
    "+ in output": with_row(5, ROWS[5][:7] + "+" + ROWS[5][8:]),
    "٠ in output": with_row(5, ROWS[5][:9] + "٠" + ROWS[5][10:]),
    "_ in input": with_row(5, "1_1" + ROWS[5][3:]),
    "٠ in input": with_row(4, "1٠٠" + ROWS[4][3:]),
    "duplicated output": with_row(1, ROWS[1][:7] + ROWS[0][7:]),
    "missing row": HEAD + "".join(ROWS[:-1]),
    "duplicated row": RENDERED + ROWS[-1],
    "width 4 header": RENDERED.replace(".width 3", ".width 4"),
}


class TestParseFuzz:
    @settings(max_examples=500, deadline=None)
    @given(truth_table_texts())
    def test_only_typed_errors_escape(self, text):
        try:
            f = parse_truth_table(text)
        except TruthTableError:
            return
        # what the column reader accepts, the loop reads the same
        columns = boolfn._read_columns(text)
        assert columns is None or columns == boolfn._read_lines(text)
        assert parse_truth_table(render_truth_table(f)) == f
        # an accepted file has one directive, and it is the header
        directives = [line.split()[0] for line in text.splitlines()
                      if line.strip().startswith(".")]
        assert directives == [".width"]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.permutations(
               range(1 << n))), st.data())
    def test_one_character_edits_of_rendered_text(self, table, data):
        f = ReversibleFunction(len(table).bit_length() - 1, tuple(table))
        text = render_truth_table(f)
        at = data.draw(st.integers(0, len(text)))
        new = data.draw(st.sampled_from(
            ["", "0", "1", " ", "-", ">", "\n", "\r", "\t", "_", "+", "٠",
             "#", "2"]))
        cut = data.draw(st.integers(0, 1))
        text = text[:at] + new + text[at + cut:]
        columns = boolfn._read_columns(text)
        assert columns is None or columns == boolfn._read_lines(text)
        assert outcome(parse_truth_table, text) == outcome(
            boolfn._read_lines, text)

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_mutated_rendered_text_takes_the_loop(self, name):
        text = MUTATIONS[name]
        assert boolfn._read_columns(text) is None
        assert outcome(parse_truth_table, text) == outcome(
            boolfn._read_lines, text)

    @pytest.mark.parametrize("name, error, line", [
        ("_ in output", TruthTableSyntaxError, 7),
        ("+ in output", TruthTableSyntaxError, 7),
        ("٠ in output", TruthTableSyntaxError, 7),
        ("duplicated output", NotBijective, 3),
        ("missing row", MissingInputRow, None),
        (".width 07", WidthMismatch, 2),
        (".width 03", None, None),
    ])
    def test_mutation_errors(self, name, error, line):
        # the loop's verdicts on the mutations that look most like a
        # rendered table
        if error is None:
            assert parse_truth_table(MUTATIONS[name]) == parse_truth_table(
                RENDERED)
            return
        with pytest.raises(error) as exc:
            parse_truth_table(MUTATIONS[name])
        assert exc.value.line == line


class TestColumnReader:
    # widths 9-16 take the outputs' high byte too
    @pytest.mark.parametrize("n", range(1, 17))
    def test_rendered_text_takes_the_column_path(self, n, monkeypatch):
        # a change to the row format that the reader did not follow
        # would send rendered text to the loop, and fail here
        def loop(text):
            raise AssertionError("rendered text went to the line loop")

        f = random_bijection(n, random.Random(n))
        monkeypatch.setattr(boolfn, "_read_lines", loop)
        assert parse_truth_table(render_truth_table(f)) == f

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    def test_same_table_and_slices_as_the_constructor(self, n, rng):
        f = random_bijection(n, rng)
        g = boolfn._read_columns(render_truth_table(f))
        assert g == f
        assert g.slices == ReversibleFunction(n, f.table).slices

    @pytest.mark.parametrize("row", [0, 77, 300, 511])
    @pytest.mark.parametrize("digit, error", [
        ("flip", NotBijective),
        ("٠", TruthTableSyntaxError),
        ("2", TruthTableSyntaxError),
    ])
    def test_high_byte_mutations_of_width_9(self, row, digit, error):
        # the first output digit is bit 8, in the high byte; a flipped
        # one makes the row's output another row's
        head, *rows = WIDE.splitlines(keepends=True)
        at = rows[row].index(">") + 2
        new = "10"[int(rows[row][at])] if digit == "flip" else digit
        rows[row] = rows[row][:at] + new + rows[row][at + 1:]
        text = head + "".join(rows)
        assert boolfn._read_columns(text) is None
        got = outcome(parse_truth_table, text)
        assert got == outcome(boolfn._read_lines, text)
        assert got[0] is error

    def test_loop_spy_sees_other_layouts(self, monkeypatch):
        seen = []
        monkeypatch.setattr(boolfn, "_read_lines", seen.append)
        parse_truth_table(MUTATIONS["CRLF"])
        assert seen == [MUTATIONS["CRLF"]]
