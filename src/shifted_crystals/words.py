"""Letters and words over the primed alphabet 1' < 1 < 2' < 2 < ... < n' < n.

A letter is internally a single integer code ``2*value - primed`` so that the
alphabet order is plain integer order.  A word is a tuple of codes together
with its alphabet bound ``n``.  Canonical form means the leftmost occurrence
of each value (primed or not) is unprimed; a representative is any re-priming
of those first occurrences, and words are really equivalence classes of their
representatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

PRIME = "'"

Codes = tuple[int, ...]
WeightVector = tuple[int, ...]
StandardWord = tuple[int, ...]
_INT = {int}  # for exact-type tests: a bool, float or int subclass is not in it


def code_of(value: int, primed: bool) -> int:
    return 2 * value - (1 if primed else 0)


def value_of(code: int) -> int:
    return (code + 1) // 2


def is_primed(code: int) -> bool:
    return code % 2 == 1


def letter_token(code: int) -> str:
    """The value, then a prime when the code is odd; spells any int code,
    including those below 1 that an error message may quote."""
    return f"{value_of(code)}{PRIME if is_primed(code) else ''}"


# Every one-digit letter token and its code, "1'" -> 1, "1" -> 2, ..., "9" -> 18.
_CODE = {f"{v}{p}": code_of(v, p == PRIME) for v in range(1, 10) for p in ("", PRIME)}
_TOKEN = {code: token for token, code in _CODE.items()}
_UNSPACED_TOKEN = re.compile(r".'?", re.DOTALL)  # a character and the prime after it, if any
_SPACED_TOKEN = re.compile(r"([0-9]+)('?)")
_SPACE = re.compile(r"\s")


def _parse_token(token: str) -> int:
    """The code of a space-separated token: ASCII digits and an optional prime."""
    match = _SPACED_TOKEN.fullmatch(token)
    if match is None or int(match[1]) < 1:
        raise ValueError(f"bad letter token {token!r}")
    return code_of(int(match[1]), bool(match[2]))


def parse_codes(text: str) -> Codes:
    """Parse the apostrophe syntax, e.g. ``3111'21'12'`` or ``10 2 10'``.

    Digits are ASCII.  A text without whitespace holds one digit per
    letter.  A text with whitespace anywhere, its ends included, holds one
    letter per whitespace-separated token, so ``11`` is the word 1 1 and
    ``11 `` the one letter 11.
    """
    try:
        return tuple(map(_CODE.__getitem__, _UNSPACED_TOKEN.findall(text)))
    except KeyError as exc:
        token = exc.args[0]  # whitespace, a lone prime, or a character that is no letter
    if _SPACE.search(text):
        return tuple(map(_parse_token, text.split()))
    if token[0].isdigit():  # 0, or a digit that is not ASCII
        raise ValueError(f"bad letter token {token!r}")
    raise ValueError(f"bad word text {text!r}")


def codes_to_str(codes: Codes) -> str:
    """The apostrophe syntax that ``parse_codes`` reads back: unspaced while
    every value is at most 9, otherwise one token per letter, separated by
    spaces, and ended by a space when there is only one."""
    if not codes or 1 <= min(codes) and max(codes) <= 18:
        return "".join(map(_TOKEN.__getitem__, codes))
    tokens = list(map(letter_token, codes))
    if max(codes) <= 18:  # a letter below 1, in an error message
        return "".join(tokens)
    return " ".join(tokens) + (" " if len(tokens) == 1 else "")


@dataclass(frozen=True, slots=True)
class RawWord:
    """A concrete representative: any priming of the letters, bounded by n."""

    codes: Codes
    n: int

    def __post_init__(self) -> None:
        codes = self.codes
        if type(codes) is not tuple or not _INT.issuperset(map(type, codes)):
            raise ValueError(f"codes must be a tuple of ints: {codes!r}")
        _check_bound(self.n)
        if codes and (min(codes) < 1 or max(codes) > 2 * self.n):
            c = next(c for c in codes if not 1 <= c <= 2 * self.n)
            raise ValueError(f"letter {letter_token(c)} outside alphabet bound {self.n}")

    @classmethod
    def parse(cls, text: str, n: int) -> "RawWord":
        return cls(parse_codes(text), n)

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return codes_to_str(self.codes)


@dataclass(frozen=True)
class Word(RawWord):
    """A word in canonical form: the first occurrence of each value is unprimed."""

    # RawWord's two slots serve; slots=True would add two more of the same
    # names on Python 3.10, which does not skip the slots a base already has
    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_canonical(self.codes):
            raise ValueError(f"word {codes_to_str(self.codes)} is not in canonical form")


def _accepted(codes: Codes, n: int) -> Word:
    """The Word of codes that a caller has already validated as a canonical
    word within the exact int bound n (``ShiftedTableau`` does), built
    without checking them again: its two slots are set directly."""
    word = object.__new__(Word)
    object.__setattr__(word, "codes", codes)
    object.__setattr__(word, "n", n)
    return word


def _check_bound(n: int) -> None:
    """Raise ValueError unless n is an exact int >= 0: a bool, a float or
    an int subclass is no alphabet bound."""
    if type(n) is not int:
        raise ValueError(f"alphabet bound must be an int, got {n!r}")
    if n < 0:
        raise ValueError("alphabet bound must be nonnegative")


def is_canonical(codes: Codes) -> bool:
    """Whether the first letter of each value is unprimed, in one left to
    right pass: a primed letter c needs its unprimed twin c + 1 earlier."""
    unprimed: set[int] = set()
    for c in codes:
        if c % 2:
            if c + 1 not in unprimed:
                return False
        else:
            unprimed.add(c)
    return True


def canonical_codes(codes: Codes) -> Codes:
    out = list(codes)
    seen: set[int] = set()
    for i, c in enumerate(out):
        v = value_of(c)
        if v not in seen:
            seen.add(v)
            if is_primed(c):
                out[i] = c + 1
    return tuple(out)


def weight_of_codes(codes: Codes, n: int) -> WeightVector:
    counts = [0] * n
    for c in codes:
        counts[(c - 1) // 2] += 1  # value_of(c) - 1
    return tuple(counts)


def standardize_codes(codes: Codes) -> StandardWord:
    order = sorted(
        range(len(codes)),
        key=lambda p: (codes[p], p if not is_primed(codes[p]) else -p),
    )
    ranks = [0] * len(codes)
    for rank, pos in enumerate(order, start=1):
        ranks[pos] = rank
    return tuple(ranks)


def standardize(w: RawWord) -> StandardWord:
    """Rank letters smallest to largest; ties go forward for unprimed letters
    and backward for primed ones.  Constant across representatives of a word.
    """
    return standardize_codes(w.codes)


def eta_codes(codes: Codes, n: int) -> Codes:
    """Value v goes to n+1-v and the prime toggles, which on codes is
    c -> 2n+1-c; then the first letter of each value is unprimed."""
    return canonical_codes(tuple(2 * n + 1 - c for c in codes))


def eta(w: Word) -> Word:
    """The weight-reversing involution: i -> (n+1-i)' and vice versa, recanonicalized."""
    return Word(eta_codes(w.codes, w.n), w.n)
