from __future__ import annotations

import pytest

from shifted_crystals import (
    InternalInconsistency,
    Polynomial,
    enumerate_tableaux,
    expand,
    genfun,
    genfun_weighted,
    make_skew_shape,
    schur_P,
    schur_Q,
    verify_expansion,
)
from shifted_crystals import expansion, graph, tableaux
from shifted_crystals.tableaux import SkewShape
from helpers import strict_partitions


def mono(*exps, c=1):
    return Polynomial({exps: c}, len(exps))


class TestPolynomial:
    def test_add_cancels(self):
        assert mono(1, 0) + mono(1, 0, c=-1) == Polynomial.zero(2)

    def test_str_deterministic(self):
        p = mono(2, 1) + mono(1, 2)
        assert str(p) == "x1^2*x2 + x1*x2^2"

    def test_symmetry_detection(self):
        assert (mono(1, 0) + mono(0, 1)).is_symmetric()
        assert not mono(1, 0).is_symmetric()


class TestGenfun:
    def test_two_one(self):
        poly = genfun(enumerate_tableaux(make_skew_shape((2, 1)), 2), 2)
        assert poly == mono(2, 1) + mono(1, 2)

    def test_empty_set(self):
        assert genfun([], 2) == Polynomial.zero(2)

    def test_single_cell(self):
        poly = genfun(enumerate_tableaux(make_skew_shape((1,)), 3), 3)
        assert poly == mono(1, 0, 0) + mono(0, 1, 0) + mono(0, 0, 1)

    def test_straight_shapes_symmetric(self):
        for lam in ((2,), (2, 1), (3, 1), (3, 2)):
            poly = genfun(enumerate_tableaux(make_skew_shape(lam), 3), 3)
            assert poly.is_symmetric(), lam


class TestSchurPQ:
    def test_single_box(self):
        assert schur_P((1,), 2) == mono(1, 0) + mono(0, 1)
        assert schur_Q((1,), 2) == mono(1, 0, c=2) + mono(0, 1, c=2)

    def test_two_one(self):
        assert schur_P((2, 1), 2) == mono(2, 1) + mono(1, 2)

    def test_symmetric(self):
        for lam in ((2,), (3, 1), (2, 1)):
            assert schur_P(lam, 3).is_symmetric()

    def test_asymmetric_p_raises(self, monkeypatch):
        # every letter may only jump straight to sigma: P_(1)(x1, x2) = x1
        monkeypatch.setattr(expansion, "_letter_steps", lambda mu, sigma: [(sigma, 1)])
        with pytest.raises(InternalInconsistency, match="asymmetric"):
            schur_P((1,), 2)

    def test_empty_partition_and_no_letters(self):
        assert schur_P((), 3) == mono(0, 0, 0)
        assert schur_P((), 0) == mono()
        assert schur_Q((2, 1), 0) == Polynomial.zero(0)

    def test_independent_of_the_enumerator(self, monkeypatch):
        cases = [((1,), 2), ((3, 1), 3), ((4, 2, 1), 4), ((), 2)]
        expected = [(schur_P(sigma, n), schur_Q(sigma, n)) for sigma, n in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the classical P/Q must not enumerate tableaux")

        monkeypatch.setattr(tableaux, "_fillings", refuse)
        monkeypatch.setattr(expansion, "enumerate_tableaux", refuse)
        assert [(schur_P(sigma, n), schur_Q(sigma, n)) for sigma, n in cases] == expected


class TestExpand:
    def test_straight_is_itself(self):
        assert expand(make_skew_shape((2, 1)), 2).terms == (((2, 1), 1),)
        assert expand(make_skew_shape((3, 1)), 3).terms == (((3, 1), 1),)

    def test_empty_shape(self):
        assert expand(make_skew_shape(()), 2).terms == (((), 1),)

    def test_skew_with_multiplicities(self):
        result = dict(expand(make_skew_shape((3, 1), (2,)), 2).terms)
        assert sum(result.values()) >= 2  # disconnected diagram, several components

    def test_multiplicity_counts_components(self):
        from shifted_crystals import build_graph, components, highest_weight

        shape = make_skew_shape((4, 2), (1,))
        expansion = dict(expand(shape, 3).terms)
        tops = [highest_weight(c) for c in components(build_graph(shape, 3))]
        for sigma, mult in expansion.items():
            with_weight = [t for t in tops if tuple(p for p in t.weight if p) == sigma]
            assert len(with_weight) == mult
        assert sum(expansion.values()) == len(tops)


    def test_tops_come_from_one_labelling(self, monkeypatch):
        # no CrystalGraph per component: highest_weights reads the sources
        # off component_labels and agrees with highest_weight per component
        g = graph.build_graph(make_skew_shape((4, 2), (1,)), 3)
        tops = [graph.highest_weight(c) for c in graph.components(g)]
        monkeypatch.setattr(graph, "CrystalGraph", None)
        assert graph.highest_weights(g) == tops
        assert graph.component_labels(g)[1] == len(tops)

    @pytest.mark.parametrize(
        "weights, edges, error, message",
        [
            ([(2, 0), (1, 1), (2, 0)], [(0, 1, 1, False), (2, 1, 1, True)], graph.NotUnique, "component has 2 source vertices"),
            ([(1, 0), (0, 1)], [(0, 1, 1, False), (1, 0, 1, False)], graph.NotUnique, "component has 0 source vertices"),
            ([(1, 0), (1, 1)], [], graph.NotStrictWeight, "highest weight (1, 1) is not strictly decreasing"),
        ],
    )
    def test_bad_component_raises_as_highest_weight_does(self, weights, edges, error, message):
        vertices = tuple(graph.GraphVertex(k, None, wt) for k, wt in enumerate(weights))
        g = graph.CrystalGraph(2, vertices, tuple(graph.GraphEdge(*e) for e in edges))
        with pytest.raises(error) as exc:
            expansion.expansion_of_graph(g)
        assert str(exc.value) == message


class TestVerifyExpansion:
    def test_identity_small(self):
        report = verify_expansion(make_skew_shape((2, 1)), 2)
        assert report.identity_ok
        assert str(report) == "[(2,1)] x1 ; identity OK"

    def test_skew_identity(self):
        report = verify_expansion(make_skew_shape((4, 2), (1,)), 3)
        assert report.identity_ok

    def test_weighted_genfun_is_Q_consistently(self):
        # the plain genfun matches P only in degenerate small cases, but
        # counting each tableau with its representative-class size 2^(#values)
        # recovers the classical Q-polynomial on every tested shape
        weighted_kinds = set()
        for lam in ((1,), (2,), (2, 1), (3, 1)):
            for n in (1, 2, 3):
                report = verify_expansion(make_skew_shape(lam), n)
                assert report.identity_ok
                weighted_kinds |= {k for _, k in report.weighted_matches}
        assert weighted_kinds == {"Q"}

    def test_weighted_genfun_is_Q_on_a_wider_sweep(self):
        cases = [(lam, n) for size in range(1, 10) for lam in strict_partitions(size) for n in range(1, 5)]
        cases.append(((4, 3, 2, 1), 5))
        assert len(cases) == 129
        for lam, n in cases:
            assert genfun_weighted(enumerate_tableaux(make_skew_shape(lam), n), n) == schur_Q(lam, n), (lam, n)

    def test_plain_genfun_is_not_P_in_general(self):
        report = verify_expansion(make_skew_shape((2,)), 2)
        assert report.straight_matches == (((2,), "neither"),)

    def test_builds_once_and_computes_each_p_once(self, monkeypatch):
        def counting(module, name, log):
            real = getattr(module, name)

            def wrapped(*args):
                log.append(args[0])
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)

        builds, graph_enums, sigma_enums, ps, qs = [], [], [], [], []
        counting(expansion, "build_graph", builds)
        counting(graph, "enumerate_tableaux", graph_enums)
        counting(expansion, "enumerate_tableaux", sigma_enums)
        counting(expansion, "schur_P", ps)
        counting(expansion, "schur_Q", qs)
        shape = make_skew_shape((5, 3, 1), (2,))
        report = verify_expansion(shape, 3)
        sigmas = [sigma for sigma, _ in report.expansion.terms]
        assert report.identity_ok and len(sigmas) > 1
        assert builds == [shape] and graph_enums == [shape]
        assert sigma_enums == [SkewShape(sigma) for sigma in sigmas]
        assert ps == sigmas and qs == []

    def test_straight_input_enumerated_once(self, monkeypatch):
        enums = []
        for module in (graph, expansion):
            real = module.enumerate_tableaux

            def wrapped(shape, n, real=real):
                enums.append(shape)
                return real(shape, n)

            monkeypatch.setattr(module, "enumerate_tableaux", wrapped)
        shape = make_skew_shape((4, 2, 1))
        report = verify_expansion(shape, 4)
        assert report.identity_ok and report.expansion.terms == (((4, 2, 1), 1),)
        assert enums == [shape]
