"""Coplactic crystal operators on shifted semistandard tableaux.

Words and tableaux over the alphabet 1' < 1 < 2' < 2 < ... < n' < n, the
operator families F_i, E_i, F_i', E_i' defined through lattice walks and
critical substrings, the resulting edge-labeled weighted crystal graphs,
a mechanical checker for the local axioms, and Schur-Q-positive expansion
of skew crystals via highest-weight enumeration.
"""

from .axioms import (
    ALL_AXIOMS,
    CheckReport,
    Violation,
    check,
    check_all,
)
from .errors import (
    BrokenSemistandard,
    InternalInconsistency,
    InvalidIndex,
    MalformedGraph,
    NotAString,
    NotContained,
    NotStrict,
    NotStrictWeight,
    NotUnique,
)
from .expansion import (
    Expansion,
    ExpansionReport,
    Polynomial,
    expand,
    genfun,
    genfun_weighted,
    schur_P,
    schur_Q,
    verify_expansion,
)
from .graph import (
    CrystalGraph,
    GraphEdge,
    GraphVertex,
    StringStats,
    build_graph,
    component_isomorphic,
    components,
    export_dot,
    export_json,
    highest_weight,
    import_json,
    string_stats,
)
from .ops import (
    CriticalMatch,
    OpKind,
    Walk,
    apply,
    apply_to_tableau,
    final_critical_substring,
    lattice_walk,
)
from .tableaux import (
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    enumerate_tableaux,
    make_skew_shape,
    parse_tableau,
    reading_word,
)
from .words import (
    RawWord,
    StandardWord,
    WeightVector,
    Word,
    eta,
    standardize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
