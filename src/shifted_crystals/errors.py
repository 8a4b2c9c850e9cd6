"""Exception types shared across the package."""


class NotStrict(ValueError):
    """A parts sequence is not a strict partition."""


class NotContained(ValueError):
    """The inner shape does not fit inside the outer shape."""


class InvalidIndex(ValueError):
    """An operator index lies outside 1..n-1."""


class BrokenSemistandard(ValueError):
    """A filling violates the shifted semistandard or canonical-form rules.

    Raised for every malformed tableau input (a ShiftedTableau built from
    codes, parse_tableau), and by apply_to_tableau and build_graph when an
    operator result leaves ShST(shape, n); on actual tableaux that last case
    is an implementation bug, since the operators are closed on each
    ShST(shape, n).
    """


class NotAString(ValueError):
    """An {i, i'}-component matches neither legal string shape."""


class NotUnique(ValueError):
    """A connected component has more than one source vertex."""


class NotStrictWeight(ValueError):
    """A highest weight is not a strict partition padded with zeros."""


class MalformedGraph(ValueError):
    """An imported graph does not conform to the JSON schema."""


class InternalInconsistency(ValueError):
    """A load-bearing invariant of the implementation failed: tied operator
    representatives disagree, E disagrees with the reversed F edges, or the
    branching-rule Schur P polynomial comes out asymmetric.  Always a bug,
    never bad input; raised explicitly so ``python -O`` keeps it."""
