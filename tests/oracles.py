"""Brute-force oracles that check the operators from outside their kernel.

Each oracle is written from a definition the kernel does not use, so this
module imports nothing from ``shifted_crystals.ops``.
"""

from __future__ import annotations

from itertools import permutations, product

from shifted_crystals import InternalInconsistency, InvalidIndex, ShiftedTableau, Word
from shifted_crystals.words import canonical_codes, standardize_codes, value_of, weight_of_codes


def canonical_words_with_weight(wt: tuple[int, ...]):
    """Every canonical word of weight ``wt``: each arrangement of the
    values with every non-first letter primed or not."""
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
    if not 1 <= i <= w.n - 1:
        raise InvalidIndex(f"index {i} outside 1..{w.n - 1}")
    wt = list(weight_of_codes(w.codes, w.n))
    delta = -1 if lower else 1
    wt[i - 1] += delta
    wt[i] -= delta
    if wt[i - 1] < 0 or wt[i] < 0:
        return None
    target_std = standardize_codes(w.codes)
    hits = []
    for codes in canonical_words_with_weight(tuple(wt)):
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


def is_special(t: ShiftedTableau) -> bool:
    """Exactly one 2-family letter sitting in the top row, a nonempty second
    row, and no 3' in the top row (alphabet bound 3)."""
    rows = t.rows
    if t.shape.nrows < 2 or not rows[1]:
        return False
    two_family = [
        (r, j) for r, row in enumerate(rows, start=1) for j, c in enumerate(row) if value_of(c) == 2
    ]
    if len(two_family) != 1 or two_family[0][0] != 1:
        return False
    three_prime = 2 * 3 - 1
    return three_prime not in rows[0]
