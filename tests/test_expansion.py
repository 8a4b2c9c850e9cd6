from __future__ import annotations

import pytest

from shifted_crystals import (
    InternalInconsistency,
    Polynomial,
    enumerate_tableaux,
    expand,
    genfun,
    make_skew_shape,
    schur_P,
    schur_Q,
    verify_expansion,
)
from shifted_crystals import expansion, graph
from shifted_crystals.tableaux import SkewShape, decorated_filling_weights


def mono(*exps, c=1):
    return Polynomial.monomial(tuple(exps), c)


class TestPolynomial:
    def test_add_cancels(self):
        assert (mono(1, 0) + mono(1, 0, c=-1)).is_zero()

    def test_mul(self):
        square = (mono(1, 0) + mono(0, 1)) * (mono(1, 0) + mono(0, 1))
        assert square == mono(2, 0) + mono(1, 1, c=2) + mono(0, 2)

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
        assert genfun([], 2).is_zero()

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
        monkeypatch.setattr(expansion, "decorated_filling_weights", lambda *a, **k: [(1, 0)])
        with pytest.raises(InternalInconsistency, match="asymmetric"):
            schur_P((1,), 2)

    def test_q_matches_direct_enumeration(self):
        # enumerating with primed diagonals allowed gives exactly 2^len * P
        for lam in ((1,), (2,), (2, 1), (3, 1)):
            shape = make_skew_shape(lam)
            direct = Polynomial.zero(3)
            for wt in decorated_filling_weights(shape, 3, diagonal_unprimed=False):
                direct = direct + Polynomial.monomial(wt)
            assert direct == schur_Q(lam, 3), lam


class TestExpand:
    def test_straight_is_itself(self):
        assert expand(make_skew_shape((2, 1)), 2).as_dict() == {(2, 1): 1}
        assert expand(make_skew_shape((3, 1)), 3).as_dict() == {(3, 1): 1}

    def test_empty_shape(self):
        assert expand(make_skew_shape(()), 2).as_dict() == {(): 1}

    def test_skew_with_multiplicities(self):
        result = expand(make_skew_shape((3, 1), (2,)), 2).as_dict()
        assert sum(result.values()) >= 2  # disconnected diagram, several components

    def test_multiplicity_counts_components(self):
        from shifted_crystals import build_graph, components, highest_weight

        shape = make_skew_shape((4, 2), (1,))
        expansion = expand(shape, 3).as_dict()
        tops = [highest_weight(c) for c in components(build_graph(shape, 3))]
        for sigma, mult in expansion.items():
            with_weight = [t for t in tops if tuple(p for p in t.weight if p) == sigma]
            assert len(with_weight) == mult
        assert sum(expansion.values()) == len(tops)


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
