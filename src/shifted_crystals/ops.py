"""Lattice walks, critical substrings, and the operators F_i, E_i, F_i', E_i'.

All four families act on the {i, i', i+1, (i+1)'}-subword of a word, with
those letters relabeled 1', 1, 2', 2.  The i-th lattice walk turns each
subword letter into a unit step: on the axes primed and unprimed letters
behave alike (1-family east, 2-family north); in the open quadrant 1 goes
south, 1' east, 2 north, 2' west.

One kernel computes every operator from the relabeled subword alone.
Its first 1 and first 2 are the word's first i and first i+1, and the
representatives that matter are the <= 4 subwords with those two letters
primed or not.
There is one rule set, the lowering one, on the letters 1', 1, 2', 2:
F_i takes the final critical substring over them (highest start, longest
on a tie) and transforms it per the type table, and F_i' re-primes the
last i when it sits right of the last (i+1)'.  E_i is eta F_i eta, read
at the subword boundary: eta (``eta_subword``) turns each code c into
5 - c, which swaps 1 with 2' and 1' with 2 and the axes of the walk, and
unprimes the first letter of each family, so E_i meets type kE where F_i
meets kF on eta of the subword.  Each result re-canonicalises only the
two moved value families, every qualifying representative must agree
(InternalInconsistency otherwise), and the word is rewritten once.

The representatives differ only at the <= 2 first occurrences, so the
backward search for the final critical substring runs once over the
letters right of the last of them, and per representative only at or
left of it.

The subword-space result is a function of the relabeled subword and the
family alone, not of i or of the letters outside the subword.  ``subword``
(the scan), ``write_back`` and ``eta_subword`` are public so that a caller
applying many operators can reuse one result: build_graph, for every n,
keeps its own memo from the relabeled subword to the results of F and F',
reads E and E' through eta and runs only F and F'.  At i = 1 a word of
the letters 1', 1, 2', 2 is its own subword: ``subword`` returns its codes
and ``write_back`` a result covering them, with no filter and no copy, so
every call at n = 2 skips both.  There is no process-wide cache: every
``apply`` call computes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InternalInconsistency, InvalidIndex
from .tableaux import ShiftedTableau, reading_word
from .words import Codes, RawWord, Word, codes_to_str

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
        if type(self.index) is not int or self.index < 1:
            raise InvalidIndex(f"index must be an int >= 1, got {self.index!r}")

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


def subword(codes: Codes, i: int) -> tuple[tuple[int, ...], Sequence[int]]:
    """Relabeled {i,i+1}-subword of a word's codes and the full-word
    positions of its letters.  At i = 1 a word whose every letter is 1', 1,
    2' or 2 is its own subword: the codes themselves come back, with
    positions ``range(len(codes))``, and no filter runs."""
    if i == 1 and (not codes or max(codes) <= _2):
        return codes, range(len(codes))
    lo, hi = 2 * i - 1, 2 * (i + 1)
    pos = [p for p, c in enumerate(codes) if lo <= c <= hi]
    shift = 2 * (i - 1)
    return tuple([codes[p] - shift for p in pos]), pos


def _firsts(sub: tuple[int, ...]) -> list[int]:
    """Indices of the first 1 and the first 2, those present, in a canonical
    subword: the first letter of each family."""
    firsts = []
    if _1 in sub:
        firsts.append(sub.index(_1))
    if _2 in sub:
        firsts.append(sub.index(_2))
    return firsts


def _walk_points(sub) -> tuple[tuple[int, int], ...]:
    """The points of the lattice walk of the relabeled subword ``sub``."""
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
        else:  # 2'
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
    sub, pos = subword(w.codes, i)
    points = _walk_points(sub)
    steps = tuple(
        _STEP_NAME[(b[0] - a[0], b[1] - a[1])] for a, b in zip(points, points[1:])
    )
    return Walk(i, tuple(pos), points, steps)


def _matches_at(sub, points, j: int) -> list[tuple[int, int]]:
    """Critical substrings of one representative that start at subword
    index j, as (length, type) pairs in the order of the F type table."""
    c = sub[j]
    x, y = points[j]
    if c != _1:  # only types 4 and 5 start elsewhere
        if c == _1P and x == 0:
            return [(1, 4)]
        if c == _2P and x == 1 and y >= 1:
            return [(1, 5)]
        return []
    m = len(sub)
    out = []
    if y == 0:
        out.append((1, 3))
    if x == 1 and y >= 1:
        out.append((1, 5))
    if y == 0 or (y == 1 and x >= 1):
        k = j + 1
        while k < m and sub[k] == _1P:
            k += 1
        if k < m and sub[k] == _2P:
            out.append((k - j + 1, 1))
    if x == 0 or (x == 1 and y >= 1):
        k = j + 1
        while k < m and sub[k] == _2:
            k += 1
        if k < m and sub[k] == _1P:
            out.append((k - j + 1, 2))
    return out


def _transform(kind: int, piece: list[int]) -> list[int]:
    if kind == 1:  # 1 (1')* 2'  ->  2' (1')* 2
        return [_2P, *piece[1:-1], _2]
    if kind == 2:  # 1 (2)* 1'  ->  2' (2)* 1
        return [_2P, *piece[1:-1], _1]
    if kind == 3:
        return [_2]
    if kind == 4:
        return [_2P]
    raise ValueError(f"type {kind} has no transformation")


def _check_index(i: int, n: int) -> None:
    if type(i) is not int:
        raise InvalidIndex(f"index must be an int, got {i!r}")
    if not 1 <= i < n:
        raise InvalidIndex(f"index {i} outside 1..{n - 1}")


def _variants(sub: tuple[int, ...], firsts: list[int]) -> list[list[int]]:
    """The representative subwords, the first of ``firsts`` changing
    slowest: each first occurrence, unprimed in the canonical word, kept
    or primed.  The first letters of other values lie outside the subword."""
    kept = list(sub)
    if not firsts:
        return [kept]
    first = kept.copy()
    first[firsts[0]] -= 1
    if len(firsts) == 1:
        return [kept, first]
    second, both = kept.copy(), first.copy()
    second[firsts[1]] -= 1
    both[firsts[1]] -= 1
    return [kept, second, first, both]


def _final_matches(variants: list[list[int]], firsts: list[int]):
    """Final critical substrings over all representatives: every match tied
    at the highest (start, length), as (variant, walk points, start, length,
    type) in representative order.

    All representatives share one walk: each first-occurrence letter is
    stepped on an axis, where primed and unprimed letters move alike.  A
    match starting at j reads the letters from j on, which right of the
    last first occurrence are the same in every representative: there the
    search runs once, and a match it finds is every representative's
    final one.
    """
    points = _walk_points(variants[0])
    split = max(firsts, default=-1)
    shared = variants[0]
    for j in range(len(shared) - 1, split, -1):
        found = _matches_at(shared, points, j)
        if found:
            length = max(found)[0]
            return [(v, points, j, size, kind) for v in variants for size, kind in found if size == length]
    best_key = None
    best = []
    for variant in variants:
        for j in range(split, -1, -1):
            if best_key is not None and j < best_key[0]:
                break
            found = _matches_at(variant, points, j)
            if not found:
                continue
            length = max(found)[0]
            key = (j, length)
            if best_key is None or key > best_key:
                best_key = key
                best = []
            if key == best_key:
                best.extend((variant, points, j, size, kind) for size, kind in found if size == length)
            break
    return best


def _reprimes(variants: list[list[int]]) -> list[list[int]]:
    """Each representative whose last 1 lies right of its last 2', with
    that 1 made 2': the last i becomes (i+1)'.  Read from the right, the
    first 1 or 2' met decides."""
    out = []
    for variant in variants:
        for k in range(len(variant) - 1, -1, -1):
            c = variant[k]
            if c == _1:
                variant = variant.copy()
                variant[k] = _2P
                out.append(variant)
                break
            if c == _2P:
                break
    return out


def _canonical_sub(sub: list[int]) -> tuple[int, ...]:
    """Unprime the first i-family and first (i+1)-family letter, the only
    first occurrences an operator can move, in the list sub itself."""
    seen_1 = seen_2 = False
    for k, c in enumerate(sub):
        if c <= _1:
            if not seen_1:
                seen_1 = True
                sub[k] = _1
        elif not seen_2:
            seen_2 = True
            sub[k] = _2
        if seen_1 and seen_2:
            break
    return tuple(sub)


def eta_subword(sub) -> tuple[int, ...]:
    """A canonical relabeled subword read through eta: code c becomes 5 - c,
    so 1' and 2 swap and so do 1 and 2', and the first letter of each family
    is unprimed.  E_i of a subword is eta of F_i of its eta; so is E_i'."""
    return _canonical_sub([5 - c for c in sub])


def write_back(codes: Codes, pos: Sequence[int], sub, i: int) -> Codes:
    """The codes with the relabeled subword ``sub`` put back at ``pos``.  At
    i = 1 a subword that covers every position is the result itself, and a
    tuple comes back uncopied."""
    if i == 1 and len(pos) == len(codes):
        return tuple(sub)
    shift = 2 * (i - 1)
    out = list(codes)
    for p, c in zip(pos, sub):
        out[p] = c + shift
    return tuple(out)


def _on_subword(sub: tuple[int, ...], lower: bool, primed: bool) -> tuple[int, ...] | None:
    """One operator in subword space: the canonical result subword, or None
    when undefined.  Every qualifying representative must give the same
    canonical subword.  A raising operator is eta of the lowering one on
    eta of the subword."""
    if not lower:
        out = _on_subword(eta_subword(sub), True, primed)
        return None if out is None else eta_subword(out)
    if not sub:
        return None
    firsts = _firsts(sub)
    variants = _variants(sub, firsts)
    if primed:
        results = set(map(_canonical_sub, _reprimes(variants)))
        if not results:
            return None
    else:
        best = _final_matches(variants, firsts)
        if not best:
            return None
        results = set()
        for variant, _, j, length, kind in best:
            if kind == 5:
                results.add(None)
                continue
            out = variant.copy()
            out[j : j + length] = _transform(kind, variant[j : j + length])
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
    values; ``None`` means no representative has any critical substring.
    An E_i match is found by the F_i rules on eta of the subword, whose
    representatives come in the reverse order, and is reported in the
    word's own letters and walk."""
    if not isinstance(w, Word):  # Word raises for a RawWord that is not canonical
        w = Word(w.codes, w.n)
    _check_index(i, w.n)
    sub, pos = subword(w.codes, i)
    sub = sub if lower else eta_subword(sub)
    firsts = _firsts(sub)
    best = _final_matches(_variants(sub, firsts), firsts)
    if not best:
        return None
    variant, points, j, length, kind = best[0 if lower else -1]
    x, y = points[j]
    return CriticalMatch(
        kind=f"{kind}{'F' if lower else 'E'}",
        representative=RawWord(write_back(w.codes, pos, variant if lower else [5 - c for c in variant], i), w.n),
        positions=tuple(pos[j : j + length]),
        location=(x, y) if lower else (y, x),
    )


def apply(kind: OpKind, w: Word) -> Word | None:
    """Apply one operator to a canonical word; ``None`` when undefined.

    Length is always preserved; the weight moves by -alpha_i for the F side
    and +alpha_i for the E side.  Every call scans the word, runs the
    kernel, and writes the result back into a validated ``Word``; the scan
    and the write-back are free when the word is its own subword.
    """
    i = kind.index
    if not isinstance(w, Word):  # Word raises for a RawWord that is not canonical
        w = Word(w.codes, w.n)
    _check_index(i, w.n)
    sub, pos = subword(w.codes, i)
    out = _on_subword(sub, kind.lowering, kind.primed)
    return None if out is None else Word(write_back(w.codes, pos, out, i), w.n)


def apply_to_tableau(kind: OpKind, t: ShiftedTableau) -> ShiftedTableau | None:
    """Act through the reading word; the result word is the reading word of
    a tableau of the same shape, which is revalidated (BrokenSemistandard
    would mean a bug, as the operators are closed on each ShST(shape, n))."""
    out = apply(kind, reading_word(t))
    if out is None:
        return None
    return ShiftedTableau(t.shape, out.codes, t.n)
