"""Acceptance suite: one test per criterion, all exact (no tolerances).

Run with ``pytest tests/test_acceptance.py -v`` for a line per criterion
(add ``-s`` to see the explicit ACCEPTANCE summary prints).
"""

from __future__ import annotations

import pytest

from shifted_crystals import (
    ALL_AXIOMS,
    CrystalGraph,
    OpKind,
    Word,
    apply,
    apply_to_tableau,
    build_graph,
    check_all,
    component_isomorphic,
    components,
    enumerate_tableaux,
    eta,
    final_critical_substring,
    genfun_weighted,
    highest_weight,
    lattice_walk,
    make_skew_shape,
    reading_word,
    schur_Q,
    string_stats,
    verify_expansion,
)
from shifted_crystals.graph import GraphEdge

from helpers import first_violation, rows_from_strings, skew_sweep_shapes, strict_partitions
from oracles import alternate_E2prime, primed_by_standardization


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def straight_graphs():
    """Every ShST(lam, n) for strict |lam| <= 8, n <= 4."""
    graphs = {}
    for size in range(1, 9):
        for lam in strict_partitions(size):
            for n in (1, 2, 3, 4):
                graphs[(lam, n)] = build_graph(make_skew_shape(lam), n)
    return graphs


@pytest.fixture(scope="module")
def oracle_words():
    """All reading words of ShST(lam, n) for |lam| <= 6, n <= 3."""
    words = []
    for size in range(1, 7):
        for lam in strict_partitions(size):
            for n in (2, 3):
                for t in enumerate_tableaux(make_skew_shape(lam), n):
                    words.append(reading_word(t))
    return words


def test_criterion_1_axiom_certification(straight_graphs):
    """Every strict |lam| <= 8, n <= 4: zero violations across all axiom ids."""
    checked = 0
    for (lam, n), g in straight_graphs.items():
        report = check_all(g, ALL_AXIOMS)
        assert report.passed, (
            f"ShST({lam},{n}) violates "
            f"{[a for a, v in report.violations.items() if v]}"
        )
        checked += 1
    assert checked == 24 * 4
    _report(1, f"all {checked} crystals certified on all {len(ALL_AXIOMS)} checkable ids")


@pytest.fixture(scope="module")
def skew_sweep():
    """All skew shapes |lam| <= 7 with n <= 3, graphs built once."""
    return [(shape, n, build_graph(shape, n)) for shape, n in skew_sweep_shapes()]


def test_criterion_2_unique_max_and_isomorphism(skew_sweep, straight_graphs):
    """Each component: one source, strict-partition weight, canonically
    isomorphic to the straight crystal of that weight with all six
    statistics preserved."""
    straight_cache = {}

    def straight(sig, n):
        if (sig, n) not in straight_cache:
            straight_cache[(sig, n)] = straight_graphs.get(
                (sig, n), build_graph(make_skew_shape(sig), n)
            )
        return straight_cache[(sig, n)]

    comps = 0
    for shape, n, g in skew_sweep:
        for comp in components(g):
            top = highest_weight(comp)  # NotUnique / NotStrictWeight on failure
            sigma = tuple(p for p in top.weight if p > 0)
            mapping = component_isomorphic(comp, straight(sigma, n))
            assert mapping is not None, (str(shape), n, top.weight)
            comps += 1
    _report(2, f"{comps} components decomposed and matched with statistics")


def test_criterion_3_generating_function_identity(skew_sweep):
    """genfun(ShST(shape, n)) equals the expansion sum, exactly."""
    for shape, n, g in skew_sweep:
        report = verify_expansion(shape, n)
        assert report.identity_ok, (str(shape), n)
    _report(3, f"integer polynomial identity on {len(skew_sweep)} skew crystals")


def _tableaux(*rows):
    return rows_from_strings(list(rows), 3)


F1, F2 = OpKind("F", 1), OpKind("F", 2)
F1p, F2p = OpKind("F'", 1), OpKind("F'", 2)


def _assert_diagram(vertices, edges):
    for src, kind, dst in edges:
        assert apply_to_tableau(kind, vertices[src]) == vertices[dst], (src, str(kind), dst)


def test_criterion_4_square_and_octagon_diagrams():
    """The two square diagrams and the three octagon diagrams are reproduced
    tableau-for-tableau and edge-for-edge."""
    half_solid = {
        "top": _tableaux("1 1 1 1 1 1 3 3", "2 2 2 3", "3 3"),
        "left": _tableaux("1 1 1 1 1 2' 3 3", "2 2 2 3", "3 3"),
        "right": _tableaux("1 1 1 1 1 1 3 3", "2 2 3' 3", "3 3"),
        "bot": _tableaux("1 1 1 1 1 2 3 3", "2 2 3' 3", "3 3"),
    }
    _assert_diagram(
        half_solid,
        [("top", F1p, "left"), ("top", F2p, "right"), ("right", F1, "bot"), ("left", F2, "bot")],
    )
    # not simultaneously a primed square, and F2 undefined at the top
    assert apply_to_tableau(F1p, half_solid["right"]) != half_solid["bot"]
    assert apply_to_tableau(F2, half_solid["top"]) is None

    square = {
        "top": _tableaux("1 1 1 1 1 2 3", "2 2 2 3 3", "3 3"),
        "left": _tableaux("1 1 1 1 2 2 3", "2 2 2 3 3", "3 3"),
        "right": _tableaux("1 1 1 1 1 3' 3", "2 2 2 3 3", "3 3"),
        "bot": _tableaux("1 1 1 1 2 3' 3", "2 2 2 3 3", "3 3"),
    }
    _assert_diagram(
        square,
        [("top", F1, "left"), ("top", F2p, "right"), ("right", F1, "bot"), ("left", F2p, "bot")],
    )

    half_primed_octagon = {
        "top": _tableaux("1 1 1 1 2' 2 2 3", "2 2 2 3 3", "3 3"),
        "left": _tableaux("1 1 1 2' 2 2 2 3", "2 2 2 3 3", "3 3"),
        "right": _tableaux("1 1 1 1 2 2 2 3", "2 2 3' 3 3", "3 3"),
        "mid1": _tableaux("1 1 1 2 2 2 2 3", "2 2 3' 3 3", "3 3"),
        "mid2": _tableaux("1 1 1 2' 2 2 3 3", "2 2 2 3 3", "3 3"),
        "left2": _tableaux("1 1 2' 2 2 2 2 3", "2 2 3' 3 3", "3 3"),
        "right2": _tableaux("1 1 1 2 2 2 3 3", "2 2 3' 3 3", "3 3"),
        "bot": _tableaux("1 1 2' 2 2 2 3 3", "2 2 3' 3 3", "3 3"),
    }
    _assert_diagram(
        half_primed_octagon,
        [
            ("top", F1, "left"),
            ("top", F2, "right"),
            ("right", F1, "mid1"),
            ("left", F2, "mid2"),
            ("mid1", F1p, "left2"),
            ("mid2", F2, "right2"),
            ("right2", F1p, "bot"),
            ("left2", F2, "bot"),
        ],
    )

    octagon_split = {
        "top": _tableaux("1 1 1 1 1 2' 3' 3", "2 2 2", "3"),
        "left": _tableaux("1 1 1 1 2' 2 3' 3", "2 2 2", "3"),
        "right": _tableaux("1 1 1 1 1 2' 3 3", "2 2 3'", "3"),
        "mid1": _tableaux("1 1 1 1 2' 2 3 3", "2 2 3'", "3"),
        "mid2": _tableaux("1 1 1 1 2' 3' 3 3", "2 2 2", "3"),
        "left2": _tableaux("1 1 1 2' 2 2 3 3", "2 2 3'", "3"),
        "right2": _tableaux("1 1 1 1 2' 3 3 3", "2 2 3'", "3"),
        "bot": _tableaux("1 1 1 2' 2 3 3 3", "2 2 3'", "3"),
    }
    octagon_whole = {
        "top": _tableaux("1 1 1 1 2' 2 3' 3", "2 2 2 3' 3", "3"),
        "left": _tableaux("1 1 1 2' 2 2 3' 3", "2 2 2 3' 3", "3"),
        "right": _tableaux("1 1 1 1 2' 2 3' 3", "2 2 3' 3 3", "3"),
        "mid1": _tableaux("1 1 1 2' 2 2 3' 3", "2 2 3' 3 3", "3"),
        "mid2": _tableaux("1 1 1 2' 2 3' 3 3", "2 2 2 3' 3", "3"),
        "left2": _tableaux("1 1 2' 2 2 2 3' 3", "2 2 3' 3 3", "3"),
        "right2": _tableaux("1 1 1 2' 2 3' 3 3", "2 2 3' 3 3", "3"),
        "bot": _tableaux("1 1 2' 2 2 3' 3 3", "2 2 3' 3 3", "3"),
    }
    octagon_edges = [
        ("top", F1, "left"),
        ("top", F2, "right"),
        ("right", F1, "mid1"),
        ("left", F2, "mid2"),
        ("mid1", F1, "left2"),
        ("mid2", F2, "right2"),
        ("right2", F1, "bot"),
        ("left2", F2, "bot"),
    ]
    _assert_diagram(octagon_split, octagon_edges)
    _assert_diagram(octagon_whole, octagon_edges)
    _report(4, "5 worked diagrams reproduced (28 operator edges)")


def test_criterion_5_primed_operator_cross_validation(oracle_words):
    """apply(F'/E') vs the standardization oracle, and the alternate E_2'
    rule vs apply(E', 2), on every reading word of the sweep."""
    checks = 0
    for word in oracle_words:
        for i in range(1, word.n):
            for family, lower in (("F'", True), ("E'", False)):
                assert apply(OpKind(family, i), word) == primed_by_standardization(
                    word, i, lower=lower
                ), (str(word), family, i)
                checks += 1
        if word.n == 3:
            assert alternate_E2prime(word) == apply(OpKind("E'", 2), word), str(word)
            checks += 1
    _report(5, f"{checks} operator applications cross-validated")


def test_criterion_6_walk_anchors(straight_graphs):
    """Endpoint anchors and phi_i = endpoint x across the criterion-1 sweep."""
    walk = lattice_walk(Word.parse("211'12'22'1'1'", 2), 1)
    assert walk.endpoint == (3, 2)

    anchor = _tableaux("1 1 1 1 1 1 3 3", "2 2 2 3", "3 3")
    word = reading_word(anchor)
    assert lattice_walk(word, 2).endpoint[0] == 1
    match = final_critical_substring(word, 2)
    assert match.kind == "5F"

    checked = 0
    for (lam, n), g in straight_graphs.items():
        for v in g.vertices:
            for i in range(1, n):
                assert string_stats(g, v.id, i).phi == lattice_walk(v.word, i).endpoint[0]
                checked += 1
    _report(6, f"anchors hold; phi = walk x at {checked} (vertex, index) pairs")


def test_criterion_6_empirical_eps_equals_walk_y(straight_graphs):
    """Empirical resolution of the open question: the walk endpoint's
    y-coordinate agrees with the graph-side eps everywhere in the sweep.
    The graph-side statistic stays authoritative in the implementation."""
    for (lam, n), g in straight_graphs.items():
        for v in g.vertices:
            for i in range(1, n):
                assert string_stats(g, v.id, i).eps == lattice_walk(v.word, i).endpoint[1]
    _report(6, "empirical: eps = walk y across the whole sweep")


def test_criterion_7_eta_duality(oracle_words):
    """eta . F_i . eta = E_{n-i} and eta . F_i' . eta = E'_{n-i}."""
    checks = 0
    for word in oracle_words:
        n = word.n
        flipped = eta(word)
        assert eta(flipped) == word
        for i in range(1, n):
            for family, dual in (("F", "E"), ("F'", "E'")):
                lhs = apply(OpKind(family, i), flipped)
                lhs = None if lhs is None else eta(lhs)
                assert lhs == apply(OpKind(dual, n - i), word), (str(word), family, i)
                checks += 1
    _report(7, f"{checks} conjugation identities verified")


def test_criterion_8_mutation_sensitivity():
    """Deleting any single edge record, or retargeting any single edge
    record to any other vertex, in ShST((3,1),3) is caught by >= 1
    reported violation."""
    g = build_graph(make_skew_shape((3, 1)), 3)
    mutants = 0
    edges = g.edges
    for k in range(len(edges)):
        mutated = CrystalGraph(g.n, g.vertices, edges[:k] + edges[k + 1 :])
        assert first_violation(mutated) is not None, f"deletion of {edges[k]} undetected"
        mutants += 1
    for k, e in enumerate(edges):
        for v in g.vertices:
            if v.id == e.dst:
                continue
            retargeted = edges[:k] + (GraphEdge(e.src, v.id, e.index, e.primed),) + edges[k + 1 :]
            mutated = CrystalGraph(g.n, g.vertices, retargeted)
            assert first_violation(mutated) is not None, f"retarget {e} -> {v.id} undetected"
            mutants += 1
    _report(8, f"{mutants} single-edge mutations all detected")


def test_criterion_9_pq_convention_report():
    """The recorded classical identity is consistent across all tested
    shapes: the class-size-weighted genfun equals Q_sigma everywhere
    (the plain genfun matches P only in degenerate cases; both are
    recorded, nothing hard-coded)."""
    weighted_kinds = set()
    records = []
    for lam in ((1,), (2,), (2, 1), (3, 1)):
        for n in (1, 2, 3):
            report = verify_expansion(make_skew_shape(lam), n)
            assert report.identity_ok
            for sigma, kind in report.weighted_matches:
                weighted_kinds.add(kind)
                tableaux = enumerate_tableaux(make_skew_shape(sigma), n)
                assert genfun_weighted(tableaux, n) == schur_Q(sigma, n)
            records.extend(report.straight_matches)
    assert weighted_kinds == {"Q"}
    _report(9, f"weighted genfun = Q on every tested shape; plain-genfun records: {records}")
