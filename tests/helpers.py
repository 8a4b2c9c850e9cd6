"""Small helpers the tests share and the package itself does not read."""

from __future__ import annotations

from itertools import product

import pytest

from shifted_crystals import (
    ALL_AXIOMS,
    CrystalGraph,
    RawWord,
    ShiftedTableau,
    SkewShape,
    Violation,
    Word,
    check,
    make_skew_shape,
    parse_tableau,
)
from shifted_crystals.tableaux import StrictPartition
from shifted_crystals.words import Codes, WeightVector, canonical_codes, value_of, weight_of_codes


# Alphabet bounds that are no exact int >= 0, each with the ValueError
# message that Word, ShiftedTableau, enumerate_tableaux and build_graph raise.
BAD_BOUNDS = [
    pytest.param(-1, "alphabet bound must be nonnegative", id="negative"),
    pytest.param(True, "alphabet bound must be an int, got True", id="bool"),
    pytest.param(1.0, "alphabet bound must be an int, got 1.0", id="float"),
    pytest.param(1.5, "alphabet bound must be an int, got 1.5", id="fraction"),
]


def rows_from_strings(rows: list[str], n: int) -> ShiftedTableau:
    """A straight or skew tableau from its rows, top row first, such as
    ``["1 1 2'", "2"]``; ``.`` marks an inner cell."""
    return parse_tableau("\n".join(rows), n)


def first_violation(g: CrystalGraph, axioms: tuple[str, ...] = ("K", "B1", "B3") + ALL_AXIOMS) -> Violation | None:
    """The first violation of the first axiom that has one, cheapest axioms
    first, or None when the graph passes them all."""
    for axiom in dict.fromkeys(axioms):
        found = check(g, axiom)
        if found:
            return found[0]
    return None


def strict_partitions(total: int) -> list[StrictPartition]:
    """All strict partitions of ``total`` (descending parts)."""

    def gen(remaining: int, maximum: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in gen(remaining - first, first - 1):
                yield (first,) + rest

    return list(gen(total, total))


def strict_subpartitions(lam: StrictPartition) -> list[StrictPartition]:
    """Every strict partition mu with mu_r <= lam_r in each row, () included."""

    def gen(row, bound):
        if row == len(lam):
            yield ()
            return
        for part in range(0, min(lam[row], bound - 1) + 1):
            if part == 0:
                yield ()
            else:
                for rest in gen(row + 1, part):
                    yield (part,) + rest

    return sorted(set(gen(0, 10**9)))


def skew_sweep_shapes() -> list[tuple[SkewShape, int]]:
    """The skew sweep of acceptance criteria 2 and 3: every nonempty shape
    lam/mu with |lam| <= 7, each with n = 1, 2 and 3."""
    out = []
    for size in range(1, 8):
        for lam in strict_partitions(size):
            for mu in strict_subpartitions(lam):
                shape = make_skew_shape(lam, mu)
                if shape.size:
                    out.extend((shape, n) for n in (1, 2, 3))
    return out


def canonicalize(w: RawWord) -> Word:
    """Unprime the first occurrence of each value; all other letters untouched."""
    return Word(canonical_codes(w.codes), w.n)


def first_occurrences(codes: Codes) -> dict[int, int]:
    """Position of the first letter of each value, in value order."""
    firsts: dict[int, int] = {}
    for i, c in enumerate(codes):
        v = value_of(c)
        if v not in firsts:
            firsts[v] = i
    return dict(sorted(firsts.items()))


def representatives(w: Word) -> list[RawWord]:
    """All 2^k re-primings of the first occurrence of each of the k values."""
    firsts = list(first_occurrences(w.codes).values())
    reps = []
    for mask in product((False, True), repeat=len(firsts)):
        codes = list(w.codes)
        for pos, toggle in zip(firsts, mask):
            if toggle:
                codes[pos] -= 1
        reps.append(RawWord(tuple(codes), w.n))
    return reps


def weight(w: RawWord) -> WeightVector:
    """Counts of i and i' together, per value 1..n."""
    return weight_of_codes(w.codes, w.n)
