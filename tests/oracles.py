"""Brute-force oracles that check the operators from outside their kernel,
and the string shapes from outside the graph's label maps.

Each oracle is written from a definition the kernel does not use, so this
module imports nothing from ``shifted_crystals.ops``; the string oracle
reads only edge tuples.
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


def _path(pairs: list[tuple[int, int]], members: set[int]) -> list[int] | None:
    """members in the order of the path whose edges are exactly the (src,
    dst) pairs, a pair listed twice counting twice; None when they form no
    such path."""
    after = dict(pairs)
    order = [v for v in members if v not in after.values()][:1]
    while order and order[-1] in after and len(order) <= len(members):
        order.append(after[order[-1]])
    if sorted(order) != sorted(members) or sorted(zip(order, order[1:])) != sorted(pairs):
        return None
    return order


def string_by_definition(edges, comp: frozenset[int], i: int) -> tuple[bool, list[int]] | None:
    """Whether comp is a collapsed {i,i'}-string, and its members in chain
    order, the upper chain first, read off the (src, dst, index, primed)
    tuples edges alone; None when it is neither shape.

    Collapsed: the primed edges are the solid ones, and those form one path
    over comp.  Separated: the primed edges match the upper members one to
    one onto the lower members, disjoint sets that cover comp; every solid
    edge stays on one side, each side's solid edges form one path, and the
    k-th upper member is primed onto the k-th lower one."""
    solid = sorted((src, dst) for src, dst, index, primed in edges if index == i and src in comp and not primed)
    primed = sorted((src, dst) for src, dst, index, p in edges if index == i and src in comp and p)
    if primed == solid:
        chain = _path(solid, set(comp))
        return None if chain is None else (True, chain)
    uppers, lowers = {src for src, _ in primed}, {dst for _, dst in primed}
    if len(uppers) != len(primed) or len(lowers) != len(primed) or uppers & lowers or uppers | lowers != comp:
        return None
    if any((src in uppers) != (dst in uppers) for src, dst in solid):
        return None
    upper = _path([e for e in solid if e[0] in uppers], uppers)
    lower = _path([e for e in solid if e[0] in lowers], lowers)
    if upper is None or lower is None or sorted(zip(upper, lower)) != primed:
        return None
    return False, upper + lower


def stats_by_definition(collapsed: bool, members: list[int]) -> dict[int, tuple[int, ...]]:
    """Each member of a legal string to (eps, phi, eps', phi', eps_hat,
    phi_hat): its distances to the top and the bottom, counted over all
    edges, primed ones and solid ones, on the way that takes the fewest
    edges; on a collapsed string every edge carries both labels."""
    if collapsed:
        m = len(members) - 1
        return {v: (k, m - k, k, m - k, k, m - k) for k, v in enumerate(members)}
    size = len(members) // 2
    out = {}
    for k, (u, l) in enumerate(zip(members[:size], members[size:])):
        below = size - 1 - k  # solid edges from the k-th member of a chain to its last
        out[u] = (k, below + 1, 0, 1, k, below)
        out[l] = (k + 1, below, 1, 0, k, below)
    return out
