from __future__ import annotations

import re
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from shifted_crystals import (
    RawWord,
    Word,
    eta,
    standardize,
)
from shifted_crystals.words import (
    _accepted,
    canonical_codes,
    code_of,
    codes_to_str,
    is_primed,
    letter_token,
    parse_codes,
    value_of,
)
from helpers import BAD_BOUNDS, canonicalize, representatives, weight


def w(text: str, n: int = 3) -> Word:
    return Word.parse(text, n)


def raw(text: str, n: int = 3) -> RawWord:
    return RawWord.parse(text, n)


# Random canonical words over values <= 3, length <= 8.
canonical_words = st.lists(
    st.tuples(st.integers(1, 3), st.booleans()), max_size=8
).map(
    lambda pairs: canonicalize(RawWord(tuple(code_of(v, p) for v, p in pairs), 3))
)


class TestParsing:
    def test_compact_and_spaced(self):
        assert w("3111'21'12'").codes == raw("3 1 1 1' 2 1' 1 2'").codes

    def test_multidigit_needs_spaces(self):
        word = Word.parse("10 2 10'", 10)
        assert [letter_token(c) for c in word.codes] == ["10", "2", "10'"]
        assert str(word) == "10 2 10'"

    def test_round_trip(self):
        for text in ("", "211", "33'122'132", "212'"):
            assert str(w(text)) == text

    def test_every_short_word_round_trips_at_n_19(self):
        # a one-letter word above 9 ends in a space: "11 " is the letter 11
        # and "11" the word 1 1
        codes = range(1, 39)
        words = [()] + [(a,) for a in codes] + [(a, b) for a in codes for b in codes]
        words += [(a, b, c) for a in codes for b in codes for c in codes]
        for word in words:
            assert parse_codes(codes_to_str(word)) == word, word
        assert (codes_to_str((22,)), codes_to_str((2, 2))) == ("11 ", "11")

    @pytest.mark.parametrize("text, codes", [("11 ", (22,)), (" 10", (20,)), ("11", (2, 2)), ("1 1", (2, 2))])
    def test_whitespace_anywhere_means_one_letter_per_token(self, text, codes):
        assert parse_codes(text) == codes

    def test_alphabet_bound_enforced(self):
        with pytest.raises(ValueError):
            Word.parse("14", 3)

    @pytest.mark.parametrize("text", ["\u0661", "1\u0662", "\u00b2", "\u00b2'", "1 \u00b2'", "\u0967\u0966 2"])
    def test_digits_are_ascii(self, text):
        with pytest.raises(ValueError, match="^bad letter token"):
            raw(text)

    def test_word_must_be_canonical(self):
        with pytest.raises(ValueError):
            Word.parse("2'11", 3)


class TestCanonicalize:
    def test_unprimes_leading_letter(self):
        assert str(canonicalize(raw("2'11"))) == "211"

    def test_idempotent_on_canonical(self):
        assert str(canonicalize(raw("211"))) == "211"

    def test_first_family_occurrence_only(self):
        assert str(canonicalize(raw("12'2'"))) == "122'"

    @given(canonical_words)
    def test_representatives_round_trip(self, word):
        reps = representatives(word)
        values = {value_of(c) for c in word.codes}
        assert len(reps) == 2 ** len(values)
        for rep in reps:
            assert canonicalize(rep) == word


class TestRepresentatives:
    def test_single_value(self):
        assert {str(r) for r in representatives(w("11"))} == {"11", "1'1"}

    def test_empty(self):
        assert [str(r) for r in representatives(w(""))] == [""]

    def test_two_values(self):
        assert {str(r) for r in representatives(w("211"))} == {
            "211",
            "2'11",
            "21'1",
            "2'1'1",
        }


class TestStandardize:
    def test_reading_word_fixture(self):
        assert standardize(w("3111'21'12'")) == (8, 3, 4, 2, 7, 1, 5, 6)

    def test_tiny(self):
        assert standardize(w("11")) == (1, 2)
        assert standardize(raw("1'1")) == (1, 2)

    @given(canonical_words)
    def test_constant_across_representatives(self, word):
        ranks = standardize(word)
        for rep in representatives(word):
            assert standardize(rep) == ranks

    @given(canonical_words)
    def test_agrees_with_grouping_oracle(self, word):
        # Oracle: walk letters smallest to largest; unprimed groups are
        # ranked left to right, primed groups right to left.
        codes = word.codes
        order = []
        for code in sorted(set(codes)):
            positions = [p for p, c in enumerate(codes) if c == code]
            order.extend(reversed(positions) if is_primed(code) else positions)
        ranks = [0] * len(codes)
        for rank, pos in enumerate(order, start=1):
            ranks[pos] = rank
        assert standardize(word) == tuple(ranks)


class TestWeight:
    def test_counts_families_together(self):
        assert weight(w("3111'21'12'")) == (5, 2, 1)

    def test_empty(self):
        assert weight(w("")) == (0, 0, 0)

    def test_two_values(self):
        assert weight(Word.parse("211", 2)) == (2, 1)


class TestEta:
    def test_fixture(self):
        assert str(eta(w("33'122'132"))) == "113223'1'2'"
        assert str(eta(w("113223'1'2'"))) == "33'122'132"

    def test_empty(self):
        assert str(eta(w(""))) == ""

    @given(canonical_words)
    def test_involution_and_weight_reversal(self, word):
        back = eta(eta(word))
        assert back == word
        assert weight(eta(word)) == tuple(reversed(weight(word)))


@st.composite
def bounded_codes(draw) -> tuple[tuple[int, ...], int]:
    """n in 0..4 and codes that are, half the time, all inside 1..2n (so a
    primed first occurrence is the only possible defect) and otherwise may
    hold letters <= 0 or > 2n."""
    n = draw(st.integers(0, 4))
    low, high = (1, 2 * n) if n and draw(st.booleans()) else (-2, 2 * n + 2)
    return tuple(draw(st.lists(st.integers(low, high), max_size=8))), n


def expected_word_error(codes: tuple[int, ...], n: int) -> str | None:
    """The message Word(codes, n) raises with, or None when it is a word:
    the first letter outside 1..n, else a primed first occurrence."""
    for c in codes:
        value = (c + 1) // 2
        if not 1 <= value <= n:
            prime = "'" if c % 2 else ""
            return f"letter {value}{prime} outside alphabet bound {n}"
    if codes != canonical_codes(codes):
        return f"word {codes_to_str(codes)} is not in canonical form"
    return None


class TestWordValidation:
    @settings(max_examples=400, derandomize=True)
    @given(bounded_codes())
    def test_raises_exactly_on_a_defect_with_its_message(self, case):
        codes, n = case
        message = expected_word_error(codes, n)
        if message is None:
            assert Word(codes, n).codes == codes
        else:
            with pytest.raises(ValueError) as caught:
                Word(codes, n)
            assert str(caught.value) == message

    def test_negative_bound(self):
        with pytest.raises(ValueError, match="alphabet bound must be nonnegative"):
            Word((), -1)

    @pytest.mark.parametrize("cls", [RawWord, Word])
    @pytest.mark.parametrize("codes", [(), (2, 1)], ids=["empty", "word"])
    @pytest.mark.parametrize("n,message", BAD_BOUNDS)
    def test_bound_must_be_an_exact_nonnegative_int(self, cls, codes, n, message):
        # (2, 1) lies inside 1..2n for n = True and n = 1.5 alike
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(codes, n)

    @pytest.mark.parametrize("cls", [RawWord, Word])
    @pytest.mark.parametrize("code,letter", [(0, "0"), (-1, "0'")])
    def test_letter_below_one_is_spelled_out(self, cls, code, letter):
        with pytest.raises(ValueError, match=f"^letter {letter} outside alphabet bound 1$"):
            cls((code,), 1)

    @pytest.mark.parametrize("cls", [RawWord, Word])
    @pytest.mark.parametrize("codes", [[2], (2.0,), (True,)], ids=["list", "float", "bool"])
    def test_codes_must_be_a_tuple_of_ints(self, cls, codes):
        with pytest.raises(ValueError, match="^codes must be a tuple of ints: "):
            cls(codes, 1)


# One case per message RawWord and Word raise; Word adds the canonical form.
WORD_ERRORS = [
    pytest.param(RawWord, [2], 1, "codes must be a tuple of ints: [2]", id="raw-codes"),
    pytest.param(RawWord, (2,), -1, "alphabet bound must be nonnegative", id="raw-negative-bound"),
    pytest.param(RawWord, (2,), 1.0, "alphabet bound must be an int, got 1.0", id="raw-float-bound"),
    pytest.param(RawWord, (5,), 2, "letter 3' outside alphabet bound 2", id="raw-alphabet"),
    pytest.param(Word, (True,), 1, "codes must be a tuple of ints: (True,)", id="codes"),
    pytest.param(Word, (2,), True, "alphabet bound must be an int, got True", id="bool-bound"),
    pytest.param(Word, (0,), 1, "letter 0 outside alphabet bound 1", id="alphabet"),
    pytest.param(Word, (1, 2), 1, "word 1'1 is not in canonical form", id="canonical"),
]


class TestSlottedWords:
    @pytest.mark.parametrize(
        "word", [RawWord((1, 2), 2), Word((2, 1), 2), _accepted((2, 1), 2)], ids=["raw", "word", "accepted"]
    )
    def test_no_dict_and_no_assignment(self, word):
        assert not hasattr(word, "__dict__")
        for name in ("codes", "n"):
            with pytest.raises(FrozenInstanceError):
                setattr(word, name, ())
        with pytest.raises(FrozenInstanceError):
            del word.codes
        # a name that is no field has no slot; which error says so varies
        # with the Python version
        with pytest.raises((AttributeError, TypeError)):
            word.extra = ()
        assert (word.codes, word.n) in (((1, 2), 2), ((2, 1), 2))

    def test_equal_and_hashed_by_value(self):
        built, accepted = Word((2, 4, 3), 2), _accepted((2, 4, 3), 2)
        assert built == accepted and hash(built) == hash(accepted) and len({built, accepted}) == 1
        assert built != Word((2, 4, 4), 2) and built != Word((2, 4, 3), 3)
        assert RawWord((2, 4, 3), 2) == RawWord((2, 4, 3), 2)
        assert built != RawWord((2, 4, 3), 2)  # the class is part of the value
        assert str(accepted) == "122'" and len(accepted) == 3

    def test_word_adds_no_slot_of_its_own(self):
        # Word reads and writes RawWord's two slots, so an accepted word's
        # fields are the ones its methods see, and it is no larger
        assert Word.__slots__ == () and not {"codes", "n"} & set(vars(Word))
        accepted = _accepted((2, 1), 2)
        assert sys.getsizeof(accepted) == sys.getsizeof(RawWord((2, 1), 2))
        assert accepted.codes == (2, 1) and accepted.n == 2 and str(accepted) == "11'"

    @pytest.mark.parametrize("cls, codes, n, message", WORD_ERRORS)
    def test_every_error_message_is_kept(self, cls, codes, n, message):
        with pytest.raises(ValueError) as caught:
            cls(codes, n)
        assert str(caught.value) == message
