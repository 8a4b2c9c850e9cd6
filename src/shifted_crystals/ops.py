"""Lattice walks, critical substrings, and the operators F_i, E_i, F_i', E_i'.

All four families act on the {i, i', i+1, (i+1)'}-subword of a word, with
those letters relabeled 1', 1, 2', 2.  The i-th lattice walk turns each
subword letter into a unit step: on the axes primed and unprimed letters
behave alike (1-family east, 2-family north); in the open quadrant 1 goes
south, 1' east, 2 north, 2' west.

One kernel computes every operator in subword space.  It scans the word
once for the subword and its first i and first i+1; the representatives
that matter are the <= 4 subwords with those two letters primed or not.
The unprimed operators take the final critical substring over them
(highest start, longest on a tie) and transform it per the type tables;
the primed operators re-prime the last i / last (i+1)' when it sits right
of its counterpart.  Each result re-canonicalises only the two moved value
families, every qualifying representative must agree (InternalInconsistency
otherwise), and the word is rewritten once.

The subword-space result depends on the relabeled subword and the family
alone, not on i or on the letters outside the subword.  ``subword`` (the
scan) and ``write_back`` are public so that a caller applying many
operators can reuse one result: build_graph for n > 2 keeps its own memo
from the relabeled subword to the results of all four families.  There is
no process-wide cache: every ``apply`` call computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import InternalInconsistency, InvalidIndex
from .tableaux import ShiftedTableau, from_reading_codes, reading_word
from .words import (
    Codes,
    RawWord,
    Word,
    canonical_codes,
    codes_to_str,
    standardize_codes,
    value_of,
    weight_of_codes,
)

FAMILIES = ("F", "E", "F'", "E'")

# Relabeled letter codes inside a subword.
_1P, _1, _2P, _2 = 1, 2, 3, 4


@dataclass(frozen=True)
class OpKind:
    family: str  # one of F, E, F', E'
    index: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.index < 1:
            raise InvalidIndex(f"index must be >= 1, got {self.index}")

    @property
    def primed(self) -> bool:
        return self.family.endswith("'")

    @property
    def lowering(self) -> bool:
        return self.family.startswith("F")

    def __str__(self) -> str:
        return f"{self.family}_{self.index}"


@dataclass(frozen=True)
class Walk:
    """The i-th lattice walk: one point per step boundary, one step per
    subword letter.  ``positions`` are the full-word indices (0-based) of
    the subword letters."""

    index: int
    positions: tuple[int, ...]
    points: tuple[tuple[int, int], ...]
    steps: tuple[str, ...]

    @property
    def endpoint(self) -> tuple[int, int]:
        return self.points[-1]


@dataclass(frozen=True)
class CriticalMatch:
    """A located critical substring inside one representative."""

    kind: str  # 1F..5F or 1E..5E
    representative: RawWord
    positions: tuple[int, ...]  # full-word indices of the substring letters
    location: tuple[int, int]  # walk point just before the substring

    @property
    def start_index(self) -> int:
        return self.positions[0]

    @property
    def defined(self) -> bool:
        return self.kind not in ("5F", "5E")


def subword(codes: Codes, i: int) -> tuple[tuple[int, ...], list[int], tuple[int, ...]]:
    """Relabeled {i,i+1}-subword, the full-word positions of its letters, and
    the subword indices of the first i-family and first (i+1)-family letter
    (those present, in that order)."""
    shift = 2 * (i - 1)
    lo, hi = 2 * i - 1, 2 * (i + 1)
    sub: list[int] = []
    pos: list[int] = []
    first1 = first2 = None
    for p, c in enumerate(codes):
        if lo <= c <= hi:
            c -= shift
            if c <= _1:
                if first1 is None:
                    first1 = len(sub)
            elif first2 is None:
                first2 = len(sub)
            sub.append(c)
            pos.append(p)
    firsts = tuple(k for k in (first1, first2) if k is not None)
    return tuple(sub), pos, firsts


def _walk_points(sub: list[int]) -> tuple[tuple[int, int], ...]:
    x = y = 0
    points = [(0, 0)]
    for c in sub:
        if c == _1:
            if x == 0 or y == 0:
                x += 1
            else:
                y -= 1
        elif c == _1P:
            x += 1
        elif c == _2:
            y += 1
        else:  # _2P
            if x == 0 or y == 0:
                y += 1
            else:
                x -= 1
        points.append((x, y))
    return tuple(points)


_STEP_NAME = {(1, 0): "E", (-1, 0): "W", (0, 1): "N", (0, -1): "S"}


def lattice_walk(w: RawWord, i: int) -> Walk:
    """Walk of the given representative (a canonical Word walks its canonical
    representative)."""
    _check_index(i, w.n)
    sub, pos, _ = subword(w.codes, i)
    points = _walk_points(sub)
    steps = tuple(
        _STEP_NAME[(b[0] - a[0], b[1] - a[1])] for a, b in zip(points, points[1:])
    )
    return Walk(i, tuple(pos), points, steps)


def _matches_at(sub, points, j: int, lower: bool) -> list[tuple[int, str]]:
    """Critical substrings of one representative that start at subword
    index j, as (length, kind) pairs in type-table order."""
    c = sub[j]
    x, y = points[j]
    m = len(sub)
    out = []
    if lower:
        if c == _1 and y == 0:
            out.append((1, "3F"))
        if c == _1P and x == 0:
            out.append((1, "4F"))
        if (c == _1 or c == _2P) and x == 1 and y >= 1:
            out.append((1, "5F"))
        if c == _1 and (y == 0 or (y == 1 and x >= 1)):
            k = j + 1
            while k < m and sub[k] == _1P:
                k += 1
            if k < m and sub[k] == _2P:
                out.append((k - j + 1, "1F"))
        if c == _1 and (x == 0 or (x == 1 and y >= 1)):
            k = j + 1
            while k < m and sub[k] == _2:
                k += 1
            if k < m and sub[k] == _1P:
                out.append((k - j + 1, "2F"))
    else:
        if c == _2P and x == 0:
            out.append((1, "3E"))
        if c == _2 and y == 0:
            out.append((1, "4E"))
        if (c == _1 or c == _2P) and y == 1 and x >= 1:
            out.append((1, "5E"))
        if c == _2P and (x == 0 or (x == 1 and y >= 1)):
            k = j + 1
            while k < m and sub[k] == _2:
                k += 1
            if k < m and sub[k] == _1:
                out.append((k - j + 1, "1E"))
        if c == _2P and (y == 0 or (y == 1 and x >= 1)):
            k = j + 1
            while k < m and sub[k] == _1P:
                k += 1
            if k < m and sub[k] == _2:
                out.append((k - j + 1, "2E"))
    return out


def _transform(kind: str, piece: tuple[int, ...]) -> tuple[int, ...]:
    if kind == "1F":  # 1 (1')* 2'  ->  2' (1')* 2
        return (_2P,) + piece[1:-1] + (_2,)
    if kind == "2F":  # 1 (2)* 1'  ->  2' (2)* 1
        return (_2P,) + piece[1:-1] + (_1,)
    if kind == "3F":
        return (_2,)
    if kind == "4F":
        return (_2P,)
    if kind == "1E":  # 2' (2)* 1  ->  1 (2)* 1'
        return (_1,) + piece[1:-1] + (_1P,)
    if kind == "2E":  # 2' (1')* 2  ->  1 (1')* 2'
        return (_1,) + piece[1:-1] + (_2P,)
    if kind == "3E":
        return (_1P,)
    if kind == "4E":
        return (_1,)
    raise ValueError(f"type {kind} has no transformation")


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= max(n - 1, 0):
        raise InvalidIndex(f"index {i} outside 1..{n - 1}")


def _variants(sub: tuple[int, ...], firsts: tuple[int, ...]) -> list[list[int]]:
    """The representative subwords: each first-occurrence letter, unprimed
    in the canonical word, either kept or primed.  Re-priming any other
    value never touches the subword, so these cover every representative."""
    out = []
    for mask in product((0, 1), repeat=len(firsts)):
        variant = list(sub)
        for k, bit in zip(firsts, mask):
            variant[k] -= bit
        out.append(variant)
    return out


def _final_matches(variants: list[list[int]], lower: bool):
    """Final critical substrings over all representatives: every match tied
    at the highest (start, length), as (variant, walk points, start, length,
    kind) in representative order.

    All representatives share one walk: each first-occurrence letter is
    stepped on an axis, where primed and unprimed letters move alike.
    """
    points = _walk_points(variants[0])
    best_key = None
    best = []
    for variant in variants:
        for j in range(len(variant) - 1, -1, -1):
            if best_key is not None and j < best_key[0]:
                break
            found = _matches_at(variant, points, j, lower)
            if not found:
                continue
            length = max(size for size, _ in found)
            key = (j, length)
            if best_key is None or key > best_key:
                best_key = key
                best = []
            if key == best_key:
                best.extend((variant, points, j, size, kind) for size, kind in found if size == length)
            break
    return best


def _reprime(variant: list[int], lower: bool) -> list[int] | None:
    """F': the last i becomes (i+1)' when right of the last (i+1)'.
    E': the last (i+1)' becomes i when right of the last i."""
    last_1 = last_2p = -1
    for k, c in enumerate(variant):
        if c == _1:
            last_1 = k
        elif c == _2P:
            last_2p = k
    out = list(variant)
    if lower:
        if last_1 < 0 or last_1 < last_2p:
            return None
        out[last_1] = _2P
    else:
        if last_2p < 0 or last_2p < last_1:
            return None
        out[last_2p] = _1
    return out


def _canonical_sub(sub: list[int]) -> tuple[int, ...]:
    """Unprime the first i-family and first (i+1)-family letter: the only
    first occurrences an operator can move."""
    out = list(sub)
    seen_1 = seen_2 = False
    for k, c in enumerate(out):
        if c <= _1:
            if not seen_1:
                seen_1 = True
                out[k] = _1
        elif not seen_2:
            seen_2 = True
            out[k] = _2
        if seen_1 and seen_2:
            break
    return tuple(out)


def write_back(codes: Codes, pos: list[int], sub, i: int) -> Codes:
    """The codes with the relabeled subword ``sub`` put back at ``pos``."""
    shift = 2 * (i - 1)
    out = list(codes)
    for p, c in zip(pos, sub):
        out[p] = c + shift
    return tuple(out)


def _on_subword(
    sub: tuple[int, ...], firsts: tuple[int, ...], lower: bool, primed: bool
) -> tuple[int, ...] | None:
    """One operator in subword space: the canonical result subword, or None
    when undefined.  Every qualifying representative must give the same
    canonical subword."""
    if not sub:
        return None
    variants = _variants(sub, firsts)
    results: set[tuple[int, ...] | None] = set()
    if primed:
        for variant in variants:
            out = _reprime(variant, lower)
            if out is not None:
                results.add(_canonical_sub(out))
        if not results:
            return None
    else:
        best = _final_matches(variants, lower)
        if not best:
            return None
        for variant, _, j, length, kind in best:
            if kind in ("5F", "5E"):
                results.add(None)
                continue
            out = list(variant)
            out[j : j + length] = _transform(kind, tuple(variant[j : j + length]))
            results.add(_canonical_sub(out))
    if len(results) != 1:
        raise InternalInconsistency(
            f"representatives disagree on relabeled subword {codes_to_str(sub)}"
            f" lower={lower} primed={primed}: {len(results)} results"
        )
    return results.pop()


def final_critical_substring(w: Word, i: int, lower: bool = True) -> CriticalMatch | None:
    """The final F_i- (or E_i-) critical substring over all representatives:
    highest start index, longest on a tie.  Type 5 matches are returned as
    values; ``None`` means no representative has any critical substring."""
    _check_index(i, w.n)
    sub, pos, firsts = subword(w.codes, i)
    best = _final_matches(_variants(sub, firsts), lower)
    if not best:
        return None
    variant, points, j, length, kind = best[0]
    return CriticalMatch(
        kind=kind,
        representative=RawWord(write_back(w.codes, pos, variant, i), w.n),
        positions=tuple(pos[j : j + length]),
        location=points[j],
    )


def apply(kind: OpKind, w: Word) -> Word | None:
    """Apply one operator to a canonical word; ``None`` when undefined.

    Length is always preserved; the weight moves by -alpha_i for the F side
    and +alpha_i for the E side.  Every call scans the word, runs the
    kernel, and writes the result back into a validated ``Word``.
    """
    i = kind.index
    _check_index(i, w.n)
    sub, pos, firsts = subword(w.codes, i)
    out = _on_subword(sub, firsts, kind.lowering, kind.primed)
    return None if out is None else Word(write_back(w.codes, pos, out, i), w.n)


def apply_to_tableau(kind: OpKind, t: ShiftedTableau) -> ShiftedTableau | None:
    """Act through the reading word; the result is refilled into the same
    shape and revalidated (BrokenSemistandard would mean a bug, as the
    operators are closed on each ShST(shape, n))."""
    out = apply(kind, reading_word(t))
    if out is None:
        return None
    return from_reading_codes(t.shape, out.codes, t.n)


def _canonical_words_with_weight(wt: tuple[int, ...]):
    values = []
    for v, count in enumerate(wt, start=1):
        values.extend([v] * count)
    seen_arrangements = set()
    for arrangement in permutations(values):
        if arrangement in seen_arrangements:
            continue
        seen_arrangements.add(arrangement)
        positions: dict[int, list[int]] = {}
        for p, v in enumerate(arrangement):
            positions.setdefault(v, []).append(p)
        later = [p for v, ps in positions.items() for p in ps[1:]]
        for mask in product((0, 1), repeat=len(later)):
            codes = [2 * v for v in arrangement]
            for p, bit in zip(later, mask):
                if bit:
                    codes[p] -= 1
            yield tuple(codes)


def primed_by_standardization(w: Word, i: int, lower: bool = True) -> Word | None:
    """Brute-force oracle for the primed operators: the unique word of the
    same standardization whose weight moved by -alpha_i (lower) or +alpha_i
    (raise); ``None`` when no such word exists."""
    _check_index(i, w.n)
    wt = list(weight_of_codes(w.codes, w.n))
    delta = -1 if lower else 1
    wt[i - 1] += delta
    wt[i] -= delta
    if wt[i - 1] < 0 or wt[i] < 0:
        return None
    target_std = standardize_codes(w.codes)
    hits = []
    for codes in _canonical_words_with_weight(tuple(wt)):
        if standardize_codes(codes) == target_std:
            hits.append(codes)
    if len(hits) > 1:
        raise InternalInconsistency(f"standardization oracle found several words for {w}")
    return Word(hits[0], w.n) if hits else None


def alternate_E2prime(w: Word) -> Word | None:
    """The alternate E_2' rule: change the last 3' (counting the first 3,
    which may be primed in a representative) to a 2, with a prime swap when
    the word holds a single 2-family letter left of that 3'."""
    if w.n < 3:
        raise InvalidIndex("alternate rule needs alphabet bound 3")
    three_prime, three = 5, 6
    codes = w.codes
    primes3 = [p for p, c in enumerate(codes) if c == three_prime]
    if primes3:
        x = primes3[-1]
        base = list(codes)
    else:
        first3 = next((p for p, c in enumerate(codes) if c == three), None)
        if first3 is None:
            return None
        x = first3
        base = list(codes)
        base[x] = three_prime
    two_family = [p for p, c in enumerate(codes) if value_of(c) == 2]
    if len(two_family) == 1 and x < two_family[0]:
        y = two_family[0]
        base[x] = 4
        base[y] = 3
        return Word(canonical_codes(tuple(base)), w.n)
    cand = list(base)
    cand[x] = 4
    if standardize_codes(tuple(cand)) == standardize_codes(codes):
        return Word(canonical_codes(tuple(cand)), w.n)
    return None
