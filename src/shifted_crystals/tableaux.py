"""Shifted skew shapes and semistandard shifted tableaux.

Row r of a shifted diagram (1-indexed, top row first) occupies columns
r .. r+outer_r-1; a skew shape removes the first inner_r of those columns.
Semistandardness: rows and columns weakly increase in the letter order,
an unprimed value appears at most once per column, a primed value at most
once per row, and the first letter of each value in reading order (rows
bottom to top, left to right) is unprimed.

A tableau is stored as its reading word, the layout the operators, the
graph build and the weights read; its rows are derived from the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BrokenSemistandard, NotContained, NotStrict
from .words import (
    _INT,
    Codes,
    WeightVector,
    Word,
    _accepted,
    _check_bound,
    is_canonical,
    is_primed,
    letter_token,
    value_of,
    weight_of_codes,
)

StrictPartition = tuple[int, ...]


def check_strict(parts) -> StrictPartition:
    parts = tuple(parts)
    if any(type(p) is not int for p in parts):
        raise NotStrict(f"parts must be integers: {parts}")
    if any(p <= 0 for p in parts):
        raise NotStrict(f"parts must be positive: {parts}")
    for a, b in zip(parts, parts[1:]):
        if a <= b:
            raise NotStrict(f"parts must strictly decrease: {parts}")
    return parts


@dataclass(frozen=True)
class SkewShape:
    outer: StrictPartition
    inner: StrictPartition = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", check_strict(self.outer))
        object.__setattr__(self, "inner", check_strict(self.inner))
        if len(self.inner) > len(self.outer):
            raise NotContained(f"inner {self.inner} has more rows than outer {self.outer}")
        for r, mu in enumerate(self.inner):
            if mu > self.outer[r]:
                raise NotContained(f"inner {self.inner} exceeds outer {self.outer} in row {r + 1}")

    @property
    def nrows(self) -> int:
        return len(self.outer)

    def inner_part(self, row: int) -> int:
        return self.inner[row - 1] if row <= len(self.inner) else 0

    def row_span(self, row: int) -> tuple[int, int]:
        """Columns (first, last+1) occupied by 1-indexed ``row``."""
        return row + self.inner_part(row), row + self.outer[row - 1]

    def reading_cells(self) -> list[tuple[int, int]]:
        """Cells in reading order: rows bottom to top, left to right."""
        out = []
        for r in range(self.nrows, 0, -1):
            lo, hi = self.row_span(r)
            out.extend((r, c) for c in range(lo, hi))
        return out

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @cached_property
    def reading_slices(self) -> tuple[tuple[int, int], ...]:
        """Each row's (start, end) in the reading word, top row first: the
        top row is the end of the word.  Computed once per shape."""
        out = []
        end = self.size
        for r in range(1, self.nrows + 1):
            lo, hi = self.row_span(r)
            out.append((end - (hi - lo), end))
            end -= hi - lo
        return tuple(out)

    @cached_property
    def column_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(column, upper, lower) for each cell with a cell below it, as
        reading-word positions, by row and then column.  Computed once per
        shape."""
        out = []
        for r, (start, _) in enumerate(self.reading_slices[:-1], start=1):
            lo, hi = self.row_span(r)
            lo2, hi2 = self.row_span(r + 1)
            start2 = self.reading_slices[r][0]
            out.extend((col, start + col - lo, start2 + col - lo2) for col in range(max(lo, lo2), min(hi, hi2)))
        return tuple(out)

    def __str__(self) -> str:
        inner = ",".join(map(str, self.inner))
        outer = ",".join(map(str, self.outer)) or "()"
        return f"{outer}/{inner}" if inner else outer


def make_skew_shape(outer, inner=()) -> SkewShape:
    """Validated shifted skew shape; raises NotStrict / NotContained."""
    return SkewShape(tuple(outer), tuple(inner))


@dataclass(frozen=True)
class ShiftedTableau:
    """A semistandard shifted filling stored as its reading word: ``codes``
    holds the rows from bottom to top, each left to right.  ``rows`` (top
    row first) is derived from it."""

    shape: SkewShape
    codes: Codes
    n: int

    def __post_init__(self) -> None:
        _validate(self.shape, self.codes, self.n)

    @property
    def rows(self) -> tuple[Codes, ...]:
        return tuple(self.codes[start:end] for start, end in self.shape.reading_slices)

    def weight(self) -> WeightVector:
        return weight_of_codes(self.codes, self.n)

    def __str__(self) -> str:
        lines = []
        for r, row in enumerate(self.rows, start=1):
            tokens = ["."] * self.shape.inner_part(r)
            tokens.extend(map(letter_token, row))
            lines.append(" ".join(tokens))
        return "\n".join(lines)


def _validate(shape: SkewShape, codes: Codes, n: int) -> None:
    _check_bound(n)
    if type(codes) is not tuple or not _INT.issuperset(map(type, codes)):
        raise BrokenSemistandard(f"codes must be a tuple of ints: {codes!r}")
    if len(codes) != shape.size:
        raise BrokenSemistandard("word length does not match shape size")
    in_bounds = not codes or 1 <= min(codes) and max(codes) <= 2 * n
    for r, (start, end) in enumerate(shape.reading_slices, start=1):
        row = codes[start:end]
        if not in_bounds:
            for c in row:
                if not 1 <= value_of(c) <= n:
                    raise BrokenSemistandard(f"letter {letter_token(c)} exceeds bound {n}")
        for a, b in zip(row, row[1:]):
            if a > b:
                raise BrokenSemistandard(f"row {r} is not weakly increasing")
            if a == b and a % 2:
                raise BrokenSemistandard(f"primed letter repeats in row {r}")
    for col, upper, lower in shape.column_pairs:
        a, b = codes[upper], codes[lower]
        if a > b:
            raise BrokenSemistandard(f"column {col} is not weakly increasing")
        if a == b and not a % 2:
            raise BrokenSemistandard(f"unprimed letter repeats in column {col}")
    if not is_canonical(codes):
        raise BrokenSemistandard("first family letter in reading order is primed")


def reading_word(t: ShiftedTableau) -> Word:
    """The stored reading word (rows bottom to top) as a ``Word``, built
    without a second validation: ``ShiftedTableau`` has already checked
    every clause ``Word`` checks."""
    return _accepted(t.codes, t.n)


def _fillings(shape: SkewShape, n: int) -> list[Codes]:
    """Reading words of the canonical-form semistandard fillings, by
    backtracking over the cells in reading order on one stack of codes; a
    primed code waits until its value has appeared.  Each cell's left and
    lower neighbours are positions in that order, found once per call.
    Codes are tried in ascending order, so the words come out sorted."""
    cells = shape.reading_cells()
    position = {cell: k for k, cell in enumerate(cells)}
    left = [position.get((r, c - 1)) for r, c in cells]
    below = [position.get((r + 1, c)) for r, c in cells]
    stack: list[int] = []
    results: list[Codes] = []
    family_seen = [False] * (n + 1)

    def place(k: int) -> None:
        if k == len(cells):
            results.append(tuple(stack))
            return
        l, b = left[k], below[k]
        lo = 1 if l is None else stack[l]
        hi = 2 * n if b is None else stack[b]
        for code in range(lo, hi + 1):
            primed = is_primed(code)
            if l is not None and code == lo and primed:
                continue  # primed repeat in row
            if b is not None and code == hi and not primed:
                continue  # unprimed repeat in column
            v = value_of(code)
            if primed and not family_seen[v]:
                continue
            newly_seen = not family_seen[v]
            family_seen[v] = True
            stack.append(code)
            place(k + 1)
            stack.pop()
            if newly_seen:
                family_seen[v] = False

    place(0)
    return results


def enumerate_tableaux(shape: SkewShape, n: int) -> list[ShiftedTableau]:
    """All canonical-form semistandard fillings, sorted by reading word
    (``_fillings`` already yields them in that order), each validated.
    ValueError unless n is an exact int >= 0."""
    _check_bound(n)
    return [ShiftedTableau(shape, codes, n) for codes in _fillings(shape, n)]


def parse_tableau(text: str, n: int) -> ShiftedTableau:
    """Parse the row format: one line per row, top row first, entries
    space-separated, ``.`` for inner cells."""
    from .words import _parse_token

    lines = [line for line in text.splitlines() if line.strip()]
    outer = []
    inner = []
    rows = []
    for line in lines:
        tokens = line.split()
        dots = 0
        while dots < len(tokens) and tokens[dots] == ".":
            dots += 1
        entries = tokens[dots:]
        if any(tok == "." for tok in entries):
            raise BrokenSemistandard("inner cells must precede all entries in a row")
        inner.append(dots)
        outer.append(dots + len(entries))
        rows.append(tuple(_parse_token(tok) for tok in entries))
    shape = SkewShape(tuple(outer), tuple(p for p in inner if p > 0))
    if list(shape.inner) + [0] * (len(outer) - len(shape.inner)) != inner:
        raise NotContained(f"inner dots {inner} do not form a strict partition prefix")
    return ShiftedTableau(shape, tuple(c for row in reversed(rows) for c in row), n)

