from __future__ import annotations

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shifted_crystals import (
    InternalInconsistency,
    InvalidIndex,
    OpKind,
    RawWord,
    Word,
    apply,
    apply_to_tableau,
    build_graph,
    enumerate_tableaux,
    eta,
    final_critical_substring,
    lattice_walk,
    make_skew_shape,
    reading_word,
    standardize,
)
from shifted_crystals import ops
from shifted_crystals.ops import FAMILIES
from shifted_crystals.words import canonical_codes, code_of
from helpers import rows_from_strings, strict_partitions, strict_subpartitions, weight
from oracles import alternate_E2prime, primed_by_standardization

F1, F2 = OpKind("F", 1), OpKind("F", 2)
E1, E2 = OpKind("E", 1), OpKind("E", 2)
F1p, F2p = OpKind("F'", 1), OpKind("F'", 2)
E1p, E2p = OpKind("E'", 1), OpKind("E'", 2)


def w(text: str, n: int = 3) -> Word:
    return Word.parse(text, n)


def T(*rows, n: int = 3):
    return rows_from_strings(list(rows), n)


def straight_words(max_size: int, n: int):
    for size in range(1, max_size + 1):
        for lam in strict_partitions(size):
            for t in enumerate_tableaux(make_skew_shape(lam), n):
                yield reading_word(t)


class TestLatticeWalk:
    def test_two_row_figure_endpoint(self):
        walk = lattice_walk(Word.parse("211'12'22'1'1'", 2), 1)
        assert walk.endpoint == (3, 2)
        assert walk.steps == ("N", "E", "E", "S", "N", "N", "W", "E", "E")

    def test_empty_word(self):
        assert lattice_walk(Word.parse("", 2), 1).endpoint == (0, 0)

    def test_second_index_endpoint(self):
        t = T("1 1 1 1 1 1 3 3", "2 2 2 3", "3 3")
        assert lattice_walk(reading_word(t), 2).endpoint == (1, 3)

    def test_skips_other_letters(self):
        walk = lattice_walk(w("3131"), 1)
        assert walk.positions == (1, 3)


class TestFinalCriticalSubstring:
    def test_split_2f(self):
        t = T("1 1 1 1 1 2' 3 3", "2 2 2 3", "3 3")
        match = final_critical_substring(reading_word(t), 2)
        assert match.kind == "2F"
        assert match.positions == (4, 5, 11)
        assert match.location == (1, 1)

    def test_type_5f_blocks(self):
        t = T("1 1 1 1 1 1 3 3", "2 2 2 3", "3 3")
        match = final_critical_substring(reading_word(t), 2)
        assert match.kind == "5F"
        assert apply(F2, reading_word(t)) is None

    def test_last_east_step(self):
        match = final_critical_substring(Word.parse("11", 2), 1)
        assert match.kind == "3F" and match.positions == (1,)

    def test_no_critical_substring(self):
        assert final_critical_substring(Word.parse("2", 2), 1, lower=True) is None
        assert final_critical_substring(Word.parse("1", 2), 1, lower=False) is None

    def test_raising_side(self):
        match = final_critical_substring(Word.parse("2", 2), 1, lower=False)
        assert match.kind == "4E" and match.positions == (0,)

    @pytest.mark.parametrize(
        "text, kind, positions, location",
        [
            ("22'1", "1E", (1, 2), (0, 1)),
            ("122", "2E", (1, 2), (1, 0)),
            ("22'", "3E", (1,), (0, 1)),
            ("11'21", "5E", (3,), (2, 1)),
        ],
    )
    def test_raising_matches_off_the_diagonal(self, text, kind, positions, location):
        # each location has x != y, so reading the walk with its axes
        # swapped would move it
        match = final_critical_substring(Word.parse(text, 2), 1, lower=False)
        assert (match.kind, match.positions, match.location) == (kind, positions, location)

    def test_raising_match_reports_its_representative(self):
        match = final_critical_substring(Word.parse("122", 2), 1, lower=False)
        assert str(match.representative) == "12'2"

    def test_tied_matches_agree(self):
        # "1" matches 3F in its canonical representative and 4F in the
        # primed one at the same start; both transforms canonicalize to "2"
        assert str(apply(F1, Word.parse("1", 2))) == "2"

    def test_tied_disagreement_raises(self, monkeypatch):
        # without re-canonicalisation the tied results "2" and "2'" differ
        from shifted_crystals import ops

        monkeypatch.setattr(ops, "_canonical_sub", tuple)
        with pytest.raises(InternalInconsistency, match="representatives disagree"):
            apply(F1, Word.parse("1", 2))

    def test_tied_disagreement_at_a_first_occurrence_raises(self, monkeypatch):
        # in "21" the 1 is the first of its family and the 2 precedes it:
        # the tied 4F matches at that 1 in the representatives 21' and
        # 2'1' give "22'" and "2'2'" before re-canonicalisation
        monkeypatch.setattr(ops, "_canonical_sub", tuple)
        with pytest.raises(InternalInconsistency, match="representatives disagree"):
            apply(F1, Word.parse("21", 2))
        match = final_critical_substring(Word.parse("21", 2), 1)
        assert (match.kind, match.positions, str(match.representative)) == ("4F", (1,), "21'")


class TestApply:
    def test_primed_lowering(self):
        assert str(apply(F1p, Word.parse("211", 2))) == "212'"

    def test_square_figure_edge(self):
        t = T("1 1 1 1 1 2 3", "2 2 2 3 3", "3 3")
        out = apply_to_tableau(F1, t)
        assert out == T("1 1 1 1 2 2 3", "2 2 2 3 3", "3 3")

    def test_half_solid_square_edge(self):
        t = T("1 1 1 1 1 2' 3 3", "2 2 2 3", "3 3")
        out = apply_to_tableau(F2, t)
        assert out == T("1 1 1 1 1 2 3 3", "2 2 3' 3", "3 3")

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex):
            apply(OpKind("F", 2), Word.parse("11", 2))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown operator family 'G'$"):
            OpKind("G", 1)

    @pytest.mark.parametrize("index", [True, 1.0])
    def test_index_must_be_an_int(self, index):
        # True would act as index 1, and 1.0 would fail later inside Word
        with pytest.raises(InvalidIndex, match="index must be an int >= 1"):
            OpKind("F", index)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_non_canonical_raw_word_is_rejected(self, family):
        # 33332' primes the first 2; as canonical 33332 its F_2' is 33333'
        with pytest.raises(ValueError, match="^word 33332' is not in canonical form$"):
            apply(OpKind(family, 2), RawWord.parse("33332'", 3))

    @pytest.mark.parametrize("lower", [True, False])
    def test_non_canonical_raw_word_has_no_final_critical_substring(self, lower):
        with pytest.raises(ValueError, match="^word 33332' is not in canonical form$"):
            final_critical_substring(RawWord.parse("33332'", 3), 2, lower)

    def test_canonical_raw_word_acts_as_its_word(self):
        raw, word = RawWord.parse("33332", 3), Word.parse("33332", 3)
        assert str(apply(F2p, raw)) == "33333'"
        for kind in (F2, E2, F2p, E2p):
            assert apply(kind, raw) == apply(kind, word)
        for lower in (True, False):
            assert final_critical_substring(raw, 2, lower) == final_critical_substring(word, 2, lower)

    def test_partial_inverses_on_sweep(self):
        for word in straight_words(5, 3):
            for i in (1, 2):
                for down, up in ((OpKind("F", i), OpKind("E", i)), (OpKind("F'", i), OpKind("E'", i))):
                    lowered = apply(down, word)
                    if lowered is not None:
                        assert apply(up, lowered) == word
                    raised = apply(up, word)
                    if raised is not None:
                        assert apply(down, raised) == word

    @given(
        st.lists(st.tuples(st.integers(1, 3), st.booleans()), max_size=8),
        st.integers(1, 2),
        st.sampled_from([("F", "E"), ("F'", "E'")]),
    )
    def test_partial_inverses_on_arbitrary_words(self, pairs, i, families):
        # holds for every canonical word, not only reading words of tableaux
        from helpers import canonicalize
        from shifted_crystals import RawWord

        word = canonicalize(RawWord(tuple(code_of(v, p) for v, p in pairs), 3))
        down, up = (OpKind(f, i) for f in families)
        lowered = apply(down, word)
        if lowered is not None:
            assert apply(up, lowered) == word
        raised = apply(up, word)
        if raised is not None:
            assert apply(down, raised) == word

    def test_weight_and_length_contract(self):
        for word in straight_words(5, 3):
            for i in (1, 2):
                for family in ("F", "F'"):
                    out = apply(OpKind(family, i), word)
                    if out is None:
                        continue
                    assert len(out) == len(word)
                    expected = list(weight(word))
                    expected[i - 1] -= 1
                    expected[i] += 1
                    assert weight(out) == tuple(expected)

    def test_primed_preserves_standardization(self):
        for word in straight_words(5, 3):
            for i in (1, 2):
                out = apply(OpKind("F'", i), word)
                if out is not None:
                    assert standardize(out) == standardize(word)


def canonical_subwords(max_length: int):
    """Every canonical relabeled subword of length <= max_length: codes 1',
    1, 2', 2 = 1..4, the first letter of each family unprimed.  Such a
    subword is a canonical word at n = 2, so it is found without the
    kernel."""
    for length in range(max_length + 1):
        for sub in product((1, 2, 3, 4), repeat=length):
            if canonical_codes(sub) == sub:
                yield sub


def _kernel_outcome(sub, lower: bool, primed: bool):
    """The kernel's result on a canonical subword, or the type of the error
    it raises."""
    try:
        return ops._on_subword(sub, lower, primed)
    except Exception as exc:
        return type(exc)


def _raising_is_lowering_through_eta(sub) -> None:
    """E_1 and E_1' of sub are eta of F_1 and F_1' of eta(sub), or both
    sides raise the same error."""
    flipped = ops.eta_subword(sub)
    for primed in (False, True):
        raised = _kernel_outcome(sub, False, primed)
        lowered = _kernel_outcome(flipped, True, primed)
        if isinstance(lowered, tuple):
            lowered = ops.eta_subword(lowered)
        assert raised == lowered, (sub, primed)


class TestSubwordKernel:
    def test_raising_is_lowering_read_through_eta(self):
        # the identity build_graph reads E through: every canonical subword
        # of length <= 8 (22,101 subwords), both families
        for sub in canonical_subwords(8):
            _raising_is_lowering_through_eta(sub)

    def test_kernel_eta_is_the_word_eta(self):
        # build_graph reads E through the kernel's eta; on every canonical
        # subword of length <= 8 it is the public eta at n = 2
        for sub in canonical_subwords(8):
            assert ops.eta_subword(sub) == eta(Word(sub, 2)).codes, sub

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from((1, 2, 3, 4)), min_size=9, max_size=16))
    def test_raising_is_lowering_read_through_eta_on_longer_subwords(self, codes):
        _raising_is_lowering_through_eta(canonical_codes(tuple(codes)))

    def test_partial_inverse_on_every_subword(self):
        # a lowering and a raising result undo each other in subword space,
        # for the unprimed and the primed pair alike
        for sub in canonical_subwords(7):
            for lower, primed in product((True, False), repeat=2):
                out = ops._on_subword(sub, lower, primed)
                if out is not None:
                    back = ops._on_subword(out, not lower, primed)
                    assert back == sub, (sub, lower, primed, out)

    def test_outputs_are_pinned(self):
        # one digest over every canonical subword of length <= 8 (22,101
        # subwords, 88,404 kernel calls): each family's result or the name
        # of the error it raises, and the final critical substring on both
        # sides with its kind, positions, representative and location
        digest = hashlib.sha256()
        for sub in canonical_subwords(8):
            record = []
            for lower, primed in product((True, False), repeat=2):
                try:
                    record.append(ops._on_subword(sub, lower, primed))
                except Exception as exc:
                    record.append(type(exc).__name__)
            for lower in (True, False):
                match = final_critical_substring(Word(sub, 2), 1, lower)
                if match is not None:
                    match = (match.kind, match.positions, match.representative.codes, match.location)
                record.append(match)
            digest.update(f"{sub} {record}\n".encode())
        assert digest.hexdigest() == "f99227fd9387134773653c6653f5b92ff9782bd7fbdad45b028090eede23ec47"

    def test_word_outputs_are_pinned(self):
        # one digest over the 4,386 reading words of strict |lam| <= 8 at
        # n = 4 and i = 1..3, where the subword sits among other letters
        # and i >= 2 shifts it: each family's result or the name of the
        # error it raises, and the final critical substring on both sides
        digest = hashlib.sha256()
        for word in straight_words(8, 4):
            for i in (1, 2, 3):
                record = []
                for family in FAMILIES:
                    try:
                        out = apply(OpKind(family, i), word)
                        record.append(None if out is None else out.codes)
                    except Exception as exc:
                        record.append(type(exc).__name__)
                for lower in (True, False):
                    match = final_critical_substring(word, i, lower)
                    if match is not None:
                        match = (match.kind, match.positions, match.representative.codes, match.location)
                    record.append(match)
                digest.update(f"{word.codes} {i} {record}\n".encode())
        assert digest.hexdigest() == "84ee14b8b14d88a81368a6fe5928fc461f316127593272f162c75c6aa3fe3d7c"


def _filtered_subword(codes, i):
    """The {i,i+1}-subword by the general rule: filter the positions of the
    letters i', i, (i+1)', i+1 and relabel them 1', 1, 2', 2."""
    pos = [p for p, c in enumerate(codes) if 2 * i - 1 <= c <= 2 * i + 2]
    return tuple(codes[p] - 2 * (i - 1) for p in pos), pos


def _copied_write_back(codes, pos, sub, i):
    """A copy of codes with the relabeled subword sub put back at pos."""
    out = list(codes)
    for p, c in zip(pos, sub):
        out[p] = c + 2 * (i - 1)
    return tuple(out)


class TestWholeWordSubword:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_general_filter_and_copy(self, n):
        # every canonical word of length <= 6 over n letters, at every
        # index: at i = 1 a word of letters 1', 1, 2', 2 is its own
        # subword, and a subword covering it is written back uncopied
        for length in range(7):
            for codes in product(range(1, 2 * n + 1), repeat=length):
                if canonical_codes(codes) != codes:
                    continue
                for i in range(1, n):
                    sub, pos = ops.subword(codes, i)
                    expected, expected_pos = _filtered_subword(codes, i)
                    assert (sub, list(pos)) == (expected, expected_pos), (codes, i)
                    whole = i == 1 and len(pos) == len(codes)
                    assert (sub is codes) == whole or not codes, (codes, i)  # () is one object
                    for new in {sub, ops.eta_subword(sub)}:
                        out = ops.write_back(codes, pos, new, i)
                        assert out == ops.write_back(codes, pos, list(new), i) == _copied_write_back(codes, expected_pos, new, i)
                        assert (out is new) == whole or not codes, (codes, i, new)


class TestOperatorMemo:
    def test_build_agrees_with_direct_apply(self):
        # every edge and every missing edge of a build, whose F and E
        # results come from the site memo and the vertex lookup, against a
        # direct apply: straight |lam| <= 6 at n <= 4 and the criterion-2
        # skew shapes at n = 3
        shapes = [(make_skew_shape(lam), n) for size in range(1, 7) for lam in strict_partitions(size) for n in (1, 2, 3, 4)]
        shapes += [
            (make_skew_shape(lam, mu), 3)
            for size in range(1, 8)
            for lam in strict_partitions(size)
            for mu in strict_subpartitions(lam)
            if sum(mu) < size
        ]
        for shape, n in shapes:
            g = build_graph(shape, n)
            for v in g.vertices:
                for i in range(1, n):
                    for family in FAMILIES:
                        kind = OpKind(family, i)
                        target = (g.f_map if kind.lowering else g.e_map)[i, kind.primed].get(v.id)
                        assert (None if target is None else g.by_id[target].word) == apply(kind, v.word)


class TestApplyToTableau:
    def test_primed_example(self):
        assert apply_to_tableau(F1p, T("1 1", "2", n=2)) == T("1 2'", "2", n=2)

    def test_undefined_unprimed(self):
        assert apply_to_tableau(F1, T("1 1", "2", n=2)) is None

    def test_empty_tableau(self):
        empty = rows_from_strings([], 2)
        assert apply_to_tableau(F1, empty) is None
        assert apply_to_tableau(F1p, empty) is None


class TestPrimedOracle:
    def test_examples(self):
        assert str(primed_by_standardization(Word.parse("211", 2), 1)) == "212'"
        assert str(primed_by_standardization(Word.parse("11", 2), 1)) == "12"
        assert primed_by_standardization(Word.parse("22", 2), 1) is None

    def test_agrees_on_small_sweep(self):
        for word in straight_words(4, 3):
            for i in (1, 2):
                assert apply(OpKind("F'", i), word) == primed_by_standardization(word, i, lower=True)
                assert apply(OpKind("E'", i), word) == primed_by_standardization(word, i, lower=False)

    def test_agrees_at_alphabet_bound_four(self):
        for t in enumerate_tableaux(make_skew_shape((3, 1)), 4):
            word = reading_word(t)
            for i in (1, 2, 3):
                assert apply(OpKind("F'", i), word) == primed_by_standardization(word, i, lower=True)
                assert apply(OpKind("E'", i), word) == primed_by_standardization(word, i, lower=False)


class TestAlternateE2prime:
    def test_no_threes(self):
        assert alternate_E2prime(w("1122'")) is None

    def test_eta_fixture_word(self):
        word = w("33'122'132")
        assert alternate_E2prime(word) == apply(E2p, word)

    def test_agrees_on_small_sweep(self):
        for word in straight_words(4, 3):
            assert alternate_E2prime(word) == apply(E2p, word)


class TestEtaConjugation:
    def test_small_sweep(self):
        for word in straight_words(4, 3):
            flipped = eta(word)
            for i in (1, 2):
                for fam, dual in (("F", "E"), ("F'", "E'")):
                    lhs = apply(OpKind(fam, i), flipped)
                    lhs = None if lhs is None else eta(lhs)
                    assert lhs == apply(OpKind(dual, 3 - i), word)


class TestLengthLaw:
    def test_b3_at_word_level(self):
        # following F_{i+1} or F'_{i+1}, the i-walk endpoint moves by (+1,0)
        # with eps fixed or phi fixed with eps down one, via graph stats
        from shifted_crystals import build_graph, string_stats

        g = build_graph(make_skew_shape((3, 1)), 3)
        for e in g.edges:
            for i in (e.index - 1, e.index + 1):
                if not 1 <= i <= 2:
                    continue
                a = string_stats(g, e.src, i)
                b = string_stats(g, e.dst, i)
                assert (b.eps - a.eps, b.phi - a.phi) in ((0, 1), (-1, 0))
