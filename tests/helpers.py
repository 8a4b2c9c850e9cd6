"""Small helpers the tests share and the package itself does not read."""

from __future__ import annotations

from shifted_crystals import ALL_AXIOMS, CrystalGraph, ShiftedTableau, Violation, check, parse_tableau


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
