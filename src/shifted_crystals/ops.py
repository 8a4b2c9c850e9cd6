"""Lattice walks, critical substrings, and the operators F_i, E_i, F_i', E_i'.

All four families act on the {i, i', i+1, (i+1)'}-subword of a word, with
those letters relabeled 1', 1, 2', 2.  The i-th lattice walk turns each
subword letter into a unit step: on the axes primed and unprimed letters
behave alike (1-family east, 2-family north); in the open quadrant 1 goes
south, 1' east, 2 north, 2' west.

One kernel computes every operator in subword space.  It scans the word
once for the subword and its first i and first i+1; the representatives
that matter are the <= 4 subwords with those two letters primed or not.
There is one rule set, the lowering one: F_i takes the final critical
substring over them (highest start, longest on a tie) and transforms it
per the type table, and F_i' re-primes the last i when it sits right of
the last (i+1)'.  A raising operator reads the subword through eta, which
on the {i, i+1}-letters swaps 1 with 2' and 1' with 2 and swaps the axes
of the walk, so E_i meets type kE where the flipped subword meets kF.
Each result re-canonicalises only the two moved value families, every
qualifying representative must agree (InternalInconsistency otherwise),
and the word is rewritten once.

The representatives differ only at the <= 2 first occurrences, so the
backward search for the final critical substring runs once over the
letters right of the last of them, and per representative only at or
left of it; F_i' reads every representative's last i and last (i+1)' off
one scan of the canonical subword.

The subword-space result depends on the relabeled subword and the family
alone, not on i or on the letters outside the subword.  ``subword`` (the
scan), ``write_back`` and ``eta_subword`` are public so that a caller
applying many operators can reuse one result: build_graph, for every n,
keeps its own memo from the relabeled subword to the results of F and F'
and reads E and E' through eta.  There is no process-wide cache: every
``apply`` call computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency, InvalidIndex
from .tableaux import ShiftedTableau, reading_word
from .words import Codes, RawWord, Word, codes_to_str

FAMILIES = ("F", "E", "F'", "E'")

# Relabeled letter codes inside a subword.
_1P, _1, _2P, _2 = 1, 2, 3, 4

# The codes that play 1', 1, 2', 2 in the rules; eta flips code c to 5 - c.
_LOWER_ROLES = (_1P, _1, _2P, _2)
_RAISE_ROLES = tuple(5 - c for c in _LOWER_ROLES)


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


def _walk_points(sub, roles=_LOWER_ROLES) -> tuple[tuple[int, int], ...]:
    """The walk of ``sub`` with its letters read in ``roles``; in the raising
    roles each point is the lattice walk's point with its axes swapped."""
    one_p, one, _, two = roles
    x = y = 0
    points = [(0, 0)]
    for c in sub:
        if c == one:
            if x == 0 or y == 0:
                x += 1
            else:
                y -= 1
        elif c == one_p:
            x += 1
        elif c == two:
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
    sub, pos, _ = subword(w.codes, i)
    points = _walk_points(sub)
    steps = tuple(
        _STEP_NAME[(b[0] - a[0], b[1] - a[1])] for a, b in zip(points, points[1:])
    )
    return Walk(i, tuple(pos), points, steps)


def _matches_at(sub, points, j: int, roles) -> list[tuple[int, int]]:
    """Critical substrings of one representative that start at subword
    index j, as (length, type) pairs in type-table order.  The table is the
    lowering one, types 1-5, on the letters in ``roles`` and the walk read
    in the same roles."""
    one_p, one, two_p, two = roles
    c = sub[j]
    x, y = points[j]
    if c != one:  # only types 4 and 5 start elsewhere
        if c == one_p and x == 0:
            return [(1, 4)]
        if c == two_p and x == 1 and y >= 1:
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
        while k < m and sub[k] == one_p:
            k += 1
        if k < m and sub[k] == two_p:
            out.append((k - j + 1, 1))
    if x == 0 or (x == 1 and y >= 1):
        k = j + 1
        while k < m and sub[k] == two:
            k += 1
        if k < m and sub[k] == one_p:
            out.append((k - j + 1, 2))
    return out


def _transform(kind: int, piece: tuple[int, ...], roles) -> tuple[int, ...]:
    _, one, two_p, two = roles
    if kind == 1:  # 1 (1')* 2'  ->  2' (1')* 2
        return (two_p,) + piece[1:-1] + (two,)
    if kind == 2:  # 1 (2)* 1'  ->  2' (2)* 1
        return (two_p,) + piece[1:-1] + (one,)
    if kind == 3:
        return (two,)
    if kind == 4:
        return (two_p,)
    raise ValueError(f"type {kind} has no transformation")


def _check_index(i: int, n: int) -> None:
    if not 1 <= i < n:
        raise InvalidIndex(f"index {i} outside 1..{n - 1}")


def _variants(sub: tuple[int, ...], firsts: tuple[int, ...]) -> list[list[int]]:
    """The representative subwords: each first-occurrence letter, unprimed
    in the canonical word, either kept or primed, the first of ``firsts``
    changing slowest.  Re-priming any other value never touches the
    subword, so these cover every representative."""
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


def _final_matches(variants: list[list[int]], firsts: tuple[int, ...], roles):
    """Final critical substrings over all representatives, read in
    ``roles``: every match tied at the highest (start, length), as (variant,
    walk points, start, length, type) in representative order.

    All representatives share one walk: each first-occurrence letter is
    stepped on an axis, where primed and unprimed letters move alike.  A
    match starting at j reads the letters from j on, which right of the
    last first occurrence are the same in every representative: there the
    search runs once, and a match it finds is every representative's
    final one.
    """
    points = _walk_points(variants[0], roles)
    split = max(firsts, default=-1)
    shared = variants[0]
    for j in range(len(shared) - 1, split, -1):
        found = _matches_at(shared, points, j, roles)
        if found:
            length = max(found)[0]
            return [(v, points, j, size, kind) for v in variants for size, kind in found if size == length]
    best_key = None
    best = []
    for variant in variants:
        for j in range(split, -1, -1):
            if best_key is not None and j < best_key[0]:
                break
            found = _matches_at(variant, points, j, roles)
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


def _last(sub, c) -> int:
    """Index of the last ``c`` in ``sub``, -1 when there is none."""
    return len(sub) - 1 - sub[::-1].index(c) if c in sub else -1


def _reprimes(sub: tuple[int, ...], firsts: tuple[int, ...], variants: list[list[int]], roles) -> list[list[int]]:
    """Each representative whose last 1 lies right of its last 2', with
    that 1 made 2', in ``roles``: for F' the last i becomes (i+1)', for E'
    the last (i+1)' becomes i.  Both positions are read off the canonical
    subword once; priming a first occurrence only removes the letter there
    (it has no like letter to its left) or adds one."""
    _, one, two_p, _ = roles
    last_1, last_2p = _last(sub, one), _last(sub, two_p)
    out = []
    for variant in variants:
        l1, l2p = last_1, last_2p
        for k in firsts:
            was, now = sub[k], variant[k]
            if was != now:
                if was == one and l1 == k:
                    l1 = -1
                if now == one:
                    l1 = max(l1, k)
                if was == two_p and l2p == k:
                    l2p = -1
                if now == two_p:
                    l2p = max(l2p, k)
        if l1 >= 0 and l1 > l2p:
            variant = variant.copy()
            variant[l1] = two_p
            out.append(variant)
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


def eta_subword(sub) -> tuple[int, ...]:
    """A canonical relabeled subword read through eta: code c becomes 5 - c,
    so 1' and 2 swap and so do 1 and 2', and the first letter of each family
    is unprimed.  E_i of a subword is eta of F_i of its eta; so is E_i'."""
    return _canonical_sub([5 - c for c in sub])


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
    roles = _LOWER_ROLES if lower else _RAISE_ROLES
    variants = _variants(sub, firsts)
    results: set[tuple[int, ...] | None] = set()
    if primed:
        for out in _reprimes(sub, firsts, variants, roles):
            results.add(_canonical_sub(out))
        if not results:
            return None
    else:
        best = _final_matches(variants, firsts, roles)
        if not best:
            return None
        for variant, _, j, length, kind in best:
            if kind == 5:
                results.add(None)
                continue
            out = list(variant)
            out[j : j + length] = _transform(kind, tuple(variant[j : j + length]), roles)
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
    An E_i match is found in the raising roles and reported in the word's
    own letters and walk."""
    _check_index(i, w.n)
    sub, pos, firsts = subword(w.codes, i)
    best = _final_matches(_variants(sub, firsts), firsts, _LOWER_ROLES if lower else _RAISE_ROLES)
    if not best:
        return None
    variant, points, j, length, kind = best[0]
    x, y = points[j]
    return CriticalMatch(
        kind=f"{kind}{'F' if lower else 'E'}",
        representative=RawWord(write_back(w.codes, pos, variant, i), w.n),
        positions=tuple(pos[j : j + length]),
        location=(x, y) if lower else (y, x),
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
    """Act through the reading word; the result word is the reading word of
    a tableau of the same shape, which is revalidated (BrokenSemistandard
    would mean a bug, as the operators are closed on each ShST(shape, n))."""
    out = apply(kind, reading_word(t))
    if out is None:
        return None
    return ShiftedTableau(t.shape, out.codes, t.n)
