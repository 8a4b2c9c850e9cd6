from __future__ import annotations

import hashlib
import re
from itertools import product

import pytest

from shifted_crystals import (
    BrokenSemistandard,
    NotContained,
    NotStrict,
    Polynomial,
    ShiftedTableau,
    enumerate_tableaux,
    make_skew_shape,
    parse_tableau,
    reading_word,
    schur_P,
    schur_Q,
)
from shifted_crystals.words import canonical_codes, is_primed, letter_token, value_of

from helpers import rows_from_strings, strict_partitions
from oracles import is_special


class TestSkewShape:
    def test_straight_cells(self):
        shape = make_skew_shape((2, 1))
        assert shape.reading_cells() == [(2, 2), (1, 1), (1, 2)]

    def test_not_strict(self):
        with pytest.raises(NotStrict):
            make_skew_shape((5, 3, 3))

    def test_skew_cells(self):
        shape = make_skew_shape((3, 1), (2,))
        assert shape.reading_cells() == [(2, 2), (1, 3)]
        assert shape.size == 2

    @pytest.mark.parametrize("outer", [(2.7, 1), "31", (True,), (3, 1.0), ("2",)])
    def test_parts_must_be_integers(self, outer):
        with pytest.raises(NotStrict, match="^parts must be integers: "):
            make_skew_shape(outer)

    def test_parts_from_any_iterable_of_ints(self):
        assert make_skew_shape([3, 1], (p for p in [1])) == make_skew_shape((3, 1), (1,))

    def test_not_contained(self):
        with pytest.raises(NotContained):
            make_skew_shape((2,), (3,))
        with pytest.raises(NotContained):
            make_skew_shape((2,), (2, 1))

    def test_empty(self):
        shape = make_skew_shape(())
        assert shape.reading_cells() == []
        assert shape.size == 0

    def test_reading_order_is_bottom_up(self):
        shape = make_skew_shape((3, 1))
        assert shape.reading_cells() == [(2, 2), (1, 1), (1, 2), (1, 3)]


class TestEnumerate:
    def test_single_cell(self):
        tableaux = enumerate_tableaux(make_skew_shape((1,)), 1)
        assert [str(reading_word(t)) for t in tableaux] == ["1"]

    def test_two_one(self):
        tableaux = enumerate_tableaux(make_skew_shape((2, 1)), 2)
        assert [str(reading_word(t)) for t in tableaux] == ["211", "212'"]

    def test_too_small_alphabet(self):
        assert enumerate_tableaux(make_skew_shape((2, 1)), 1) == []

    def test_empty_shape_has_one_filling(self):
        tableaux = enumerate_tableaux(make_skew_shape(()), 2)
        assert len(tableaux) == 1
        assert str(reading_word(tableaux[0])) == ""

    def test_sorted_by_reading_word(self):
        cases = [(make_skew_shape(lam), n) for size in range(7) for lam in strict_partitions(size) for n in range(1, 5)]
        cases += [
            (make_skew_shape((5, 3, 1), (2,)), 3),
            (make_skew_shape((13, 11, 9, 7, 5, 3, 1), (12, 10, 8, 6, 4, 2)), 2),
        ]
        for shape, n in cases:
            words = [t.codes for t in enumerate_tableaux(shape, n)]
            assert all(a < b for a, b in zip(words, words[1:])), (shape, n)

    def test_reading_word_injective_per_shape(self):
        for lam in strict_partitions(5):
            tableaux = enumerate_tableaux(make_skew_shape(lam), 3)
            words = [reading_word(t).codes for t in tableaux]
            assert len(set(words)) == len(words)


def _valid_by_independent_predicate(shape, rows, n, canonical=True, diagonal_unprimed=False) -> bool:
    """Invariant clauses spelled out directly, independent of the
    enumerator's incremental pruning.  ``canonical=False`` drops the
    first-family-letter-unprimed clause; ``diagonal_unprimed`` forbids
    primes on the main diagonal."""
    grid = {}
    for r in range(1, shape.nrows + 1):
        lo, hi = shape.row_span(r)
        for j, col in enumerate(range(lo, hi)):
            grid[(r, col)] = rows[r - 1][j]
    if any(not 1 <= value_of(c) <= n for c in grid.values()):
        return False
    for (r, c), code in grid.items():
        right = grid.get((r, c + 1))
        below = grid.get((r + 1, c))
        if right is not None and right < code:
            return False
        if below is not None and below < code:
            return False
    # unprimed once per column, primed once per row
    for (r, c), code in grid.items():
        for (r2, c2), other in grid.items():
            if (r2, c2) <= (r, c) or other != code:
                continue
            if not is_primed(code) and c2 == c and r2 != r:
                return False
            if is_primed(code) and r2 == r and c2 != c:
                return False
    if diagonal_unprimed and any(is_primed(code) for (r, c), code in grid.items() if r == c):
        return False
    word = []
    for r in range(shape.nrows, 0, -1):
        word.extend(rows[r - 1])
    return not canonical or tuple(word) == canonical_codes(tuple(word))


def _filtered(shape, n, **clauses) -> list[tuple[tuple[int, ...], ...]]:
    """Every filling of ``shape`` over the 2n codes, as rows top row first,
    that the independent predicate accepts."""
    row_widths = [shape.row_span(r)[1] - shape.row_span(r)[0] for r in range(1, shape.nrows + 1)]
    valid = []
    for assignment in product(range(1, 2 * n + 1), repeat=shape.size):
        rows = []
        pos = 0
        for width in row_widths:
            rows.append(tuple(assignment[pos : pos + width]))
            pos += width
        if _valid_by_independent_predicate(shape, rows, n, **clauses):
            valid.append(tuple(rows))
    return valid


BRUTE_FORCE_CASES = [
    ((2, 1), (), 2),
    ((3,), (), 2),
    ((2, 1), (1,), 3),
    ((3, 1), (), 2),
    ((4,), (), 1),
    ((3, 1), (2,), 3),
    ((2,), (), 4),
    ((2, 1), (), 4),
]


class TestBruteForceAgreement:
    @pytest.mark.parametrize("outer,inner,n", BRUTE_FORCE_CASES)
    def test_matches_exhaustive_filter(self, outer, inner, n):
        shape = make_skew_shape(outer, inner)
        enumerated = {t.rows for t in enumerate_tableaux(shape, n)}
        assert enumerated == set(_filtered(shape, n))


SCHUR_CASES = [(outer, n) for outer, inner, n in BRUTE_FORCE_CASES if not inner]
SCHUR_CASES += [((1,), 3), ((2,), 3), ((2, 1), 3), ((3, 1), 3), ((3, 2), 3), ((4, 1), 3)]


@pytest.mark.parametrize("sigma,n", SCHUR_CASES)
def test_schur_p_and_q_match_exhaustive_filter(sigma, n):
    """The classical P and Q, computed without the enumerator, against the
    weights of every decorated filling the independent predicate accepts:
    unprimed main diagonal for P, any diagonal for Q."""
    shape = make_skew_shape(sigma)

    def weight_polynomial(diagonal_unprimed):
        poly = Polynomial.zero(n)
        for rows in _filtered(shape, n, canonical=False, diagonal_unprimed=diagonal_unprimed):
            wt = tuple(sum(value_of(c) == v for row in rows for c in row) for v in range(1, n + 1))
            poly = poly + Polynomial({wt: 1}, n)
        return poly

    assert schur_P(sigma, n) == weight_polynomial(True)
    assert schur_Q(sigma, n) == weight_polynomial(False)


class TestReadingWord:
    def test_reads_rows_bottom_up(self):
        t = rows_from_strings(["1 1", "2"], 2)
        assert str(reading_word(t)) == "211"

    def test_skew_four_row_word(self):
        t = rows_from_strings([". . . 1' 1 2'", ". . 1' 2", "1 1", "3"], 3)
        assert str(reading_word(t)) == "3111'21'12'"

    def test_empty(self):
        t = rows_from_strings([], 2)
        assert str(reading_word(t)) == ""


class TestValidation:
    def test_unprimed_column_repeat_rejected(self):
        with pytest.raises(BrokenSemistandard):
            rows_from_strings(["1 2", "2"], 2)

    def test_primed_row_repeat_rejected(self):
        with pytest.raises(BrokenSemistandard):
            rows_from_strings(["1 2' 2'", "2"], 3)

    def test_decreasing_row_rejected(self):
        with pytest.raises(BrokenSemistandard):
            rows_from_strings(["2 1"], 2)

    def test_primed_first_occurrence_rejected(self):
        with pytest.raises(BrokenSemistandard):
            rows_from_strings(["1 1", "2'"], 2)

    @pytest.mark.parametrize(
        "rows,n,message",
        [
            (["1 4"], 3, "letter 4 exceeds bound 3"),
            (["2 1"], 2, "row 1 is not weakly increasing"),
            (["1 2' 2'", "2"], 3, "primed letter repeats in row 1"),
            (["1 3", "2"], 3, "column 2 is not weakly increasing"),
            (["1 2", "2"], 2, "unprimed letter repeats in column 2"),
            (["1 2'"], 2, "first family letter in reading order is primed"),
            # the top row is checked before the bottom row's descent
            (["1 1 4", "3 2"], 3, "letter 4 exceeds bound 3"),
            # every row is checked before any column
            (["2 1", "1"], 2, "row 1 is not weakly increasing"),
        ],
    )
    def test_first_defect_message(self, rows, n, message):
        with pytest.raises(BrokenSemistandard, match=f"^{re.escape(message)}$"):
            rows_from_strings(rows, n)

    def test_outcomes_are_pinned(self):
        # one digest over the outcome of every code tuple over 0..2n+1, so
        # that each bound, row, column and canonical-form defect and the
        # order they are met in show: the brute-force cases, a skew shape
        # with overlapping rows, and one whose rows share no column
        cases = BRUTE_FORCE_CASES + [((4, 2), (1,), 2), ((5, 3, 1), (4, 2), 2)]
        digest = hashlib.sha256()
        for outer, inner, n in cases:
            shape = make_skew_shape(outer, inner)
            for codes in product(range(2 * n + 2), repeat=shape.size):
                try:
                    ShiftedTableau(shape, codes, n)
                    outcome = "accepted"
                except Exception as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                digest.update(f"{shape} {n} {codes} {outcome}\n".encode())
        assert digest.hexdigest() == "2be31ca20c38f495bf7614ef2ab483c763e59e53f6a6b3a286a7b42f5c8aacf2"

    @pytest.mark.parametrize("codes", [[2], (2.0,), (True,)], ids=["list", "float", "bool"])
    def test_codes_must_be_a_tuple_of_ints(self, codes):
        with pytest.raises(BrokenSemistandard, match="^codes must be a tuple of ints: "):
            ShiftedTableau(make_skew_shape((1,)), codes, 1)

    @pytest.mark.parametrize("code,letter", [(0, "0"), (-1, "0'")])
    def test_letter_below_one_is_spelled_out(self, code, letter):
        with pytest.raises(BrokenSemistandard, match=f"^letter {letter} exceeds bound 1$"):
            ShiftedTableau(make_skew_shape((1,)), (code,), 1)


class TestTableauText:
    def test_round_trip_skew(self):
        text = ". . 1 2'\n. 2 3\n3"
        t = parse_tableau(text, 3)
        assert str(t) == text
        assert t.shape.outer == (4, 3, 1) and t.shape.inner == (2, 1)

    def test_entries_are_ascii_digits(self):
        with pytest.raises(ValueError, match="^bad letter token '\u0662'$"):
            parse_tableau("1 \u0662", 2)

    def test_round_trip_every_small_tableau(self):
        count = 0
        for size in range(7):
            for lam in strict_partitions(size):
                inside = [
                    mu
                    for k in range(size + 1)
                    for mu in strict_partitions(k)
                    if len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))
                ]
                for mu in inside:
                    for n in range(1, 4):
                        for t in enumerate_tableaux(make_skew_shape(lam, mu), n):
                            assert parse_tableau(str(t), n) == t, (lam, mu, n, str(t))
                            count += 1
        assert count == 1340

    def test_entries_map(self):
        t = rows_from_strings(["1 2'", "2"], 2)
        entries = {(cell, letter_token(c)) for cell, c in zip(t.shape.reading_cells(), t.codes)}
        assert entries == {((1, 1), "1"), ((1, 2), "2'"), ((2, 2), "2")}


class TestIsSpecial:
    def test_single_two_in_top_row(self):
        t = rows_from_strings(["1 1 1 1 2 3 3", "3 3"], 3)
        assert is_special(t)

    def test_two_in_second_row(self):
        assert not is_special(rows_from_strings(["1 1", "2"], 3))

    def test_needs_second_row(self):
        assert not is_special(rows_from_strings(["1 2"], 3))

    def test_three_prime_in_top_row_blocks(self):
        t = rows_from_strings(["1 1 1 2 3' 3", "3 3"], 3)
        assert not is_special(t)
