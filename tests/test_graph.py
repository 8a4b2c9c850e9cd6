from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import shifted_crystals
from shifted_crystals import (
    CrystalGraph,
    InternalInconsistency,
    NotAString,
    NotStrictWeight,
    NotUnique,
    build_graph,
    classify_string,
    component_isomorphic,
    components,
    export_dot,
    export_json,
    highest_weight,
    import_json,
    make_skew_shape,
    string_stats,
    strict_partitions,
)
from shifted_crystals import graph as graph_module
from shifted_crystals.graph import GraphEdge, GraphVertex

EXPORT_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "export_json.sha256"


def abstract_graph(n, weights, edges):
    vertices = tuple(GraphVertex(k, None, tuple(wt)) for k, wt in enumerate(weights))
    return CrystalGraph(n, vertices, tuple(GraphEdge(*e) for e in edges))


class TestBuildGraph:
    def test_two_one(self, graph_cache):
        g = graph_cache((2, 1), (), 2)
        assert len(g) == 2
        assert [(e.src, e.dst, e.index, e.primed) for e in g.edges] == [(0, 1, 1, True)]

    def test_single_cell(self, graph_cache):
        g = graph_cache((1,), (), 1)
        assert len(g) == 1 and not g.edges

    def test_one_row_collapses(self, graph_cache):
        for a in (2, 3, 4):
            g = graph_cache((a,), (), 2)
            shape = classify_string(g, 0, 1)
            assert shape.kind == "collapsed"
            assert len(shape.chains[0]) == a + 1


class TestComponents:
    def test_connected(self, graph_cache):
        assert len(components(graph_cache((2, 1), (), 2))) == 1

    def test_empty_graph(self):
        assert components(CrystalGraph(2, (), ())) == []

    def test_disjoint_union(self):
        g = abstract_graph(2, [(1, 0), (0, 1), (1, 0), (0, 1)], [(0, 1, 1, False), (2, 3, 1, False)])
        assert len(components(g)) == 2

    def test_skew_shape_splits(self, graph_cache):
        g = graph_cache((3, 1), (2,), 2)  # two disconnected cells
        assert len(components(g)) > 1

    def test_order_and_contents(self, graph_cache):
        # ordered by smallest vertex id; each holds exactly the vertices
        # reachable from it and every edge between them, in graph order
        g = graph_cache((4, 2), (2,), 3)
        comps = components(g)
        assert [c.vertices[0].id for c in comps] == sorted(c.vertices[0].id for c in comps)
        assert sorted(v.id for c in comps for v in c.vertices) == [v.id for v in g.vertices]
        assert sum(len(c.edges) for c in comps) == len(g.edges)
        for c in comps:
            ids = {v.id for v in c.vertices}
            assert c.vertices == tuple(v for v in g.vertices if v.id in ids)
            assert c.edges == tuple(e for e in g.edges if e.src in ids)
            assert all(e.dst in ids for e in c.edges)


def _break_first_E(apply):
    """An apply that answers None for the first defined E_i result."""
    broken = []

    def patched(kind, word):
        out = apply(kind, word)
        if kind.family == "E" and out is not None and not broken:
            broken.append(word)
            return None
        return out

    return patched


class TestInternalConsistency:
    def test_e_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(graph_module, "apply", _break_first_E(graph_module.apply))
        with pytest.raises(InternalInconsistency, match="inconsistent with stored edges"):
            build_graph(make_skew_shape((3, 1)), 3)

    def test_e_disagreement_raises_under_optimize(self):
        # the check must survive python -O, which strips assert statements
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
            from test_graph import _break_first_E
            from shifted_crystals import InternalInconsistency, graph, make_skew_shape
            graph.apply = _break_first_E(graph.apply)
            assert False, "asserts must be stripped"
            try:
                graph.build_graph(make_skew_shape((3, 1)), 3)
            except InternalInconsistency:
                sys.exit(0)
            sys.exit(3)
            """
        )
        src = str(Path(shifted_crystals.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestExportDigests:
    def test_criterion_1_graphs_match_golden_digests(self):
        # export_json of every straight crystal with |lam| <= 6, n <= 4 is
        # byte-identical to the recorded digest
        recorded = {}
        for line in EXPORT_DIGESTS.read_text(encoding="utf-8").splitlines():
            digest, key = line.split("  ", 1)
            recorded[key] = digest
        checked = 0
        for size in range(1, 7):
            for lam in strict_partitions(size):
                for n in (1, 2, 3, 4):
                    text = export_json(build_graph(make_skew_shape(lam), n))
                    key = f"({','.join(map(str, lam))})/() n={n}"
                    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == recorded[key], key
                    checked += 1
        assert checked == 4 * sum(len(strict_partitions(s)) for s in range(1, 7))


class TestStringStats:
    def test_top_vertex(self, graph_cache):
        g = graph_cache((2, 1), (), 2)
        assert string_stats(g, 0, 1).eps == 0

    def test_separated_two_vertex(self, graph_cache):
        g = graph_cache((2, 1), (), 2)
        assert string_stats(g, 0, 1).as_tuple() == (0, 1, 0, 1, 0, 0)
        assert string_stats(g, 1, 1).as_tuple() == (1, 0, 1, 0, 0, 0)

    def test_collapsed_counts(self, graph_cache):
        g = graph_cache((3,), (), 2)
        chain = classify_string(g, 0, 1).chains[0]
        for j, vid in enumerate(chain):
            s = string_stats(g, vid, 1)
            assert s.as_tuple() == (j, 3 - j, j, 3 - j, j, 3 - j)

    def test_k2_identity(self, graph_cache):
        g = graph_cache((4, 2, 1), (), 3)
        for v in g.vertices:
            for i in (1, 2):
                s = string_stats(g, v.id, i)
                assert s.phi - s.eps == v.weight[i - 1] - v.weight[i]

    def test_separated_splits_hold(self, graph_cache):
        g = graph_cache((4, 2, 1), (), 3)
        for v in g.vertices:
            for i in (1, 2):
                shape = classify_string(g, v.id, i)
                s = shape.stats_of(v.id)
                if shape.kind == "separated":
                    assert s.eps == s.eps_prime + s.eps_hat
                    assert s.phi == s.phi_prime + s.phi_hat
                    assert s.eps_prime in (0, 1) and s.phi_prime in (0, 1)
                else:
                    assert s.eps == s.eps_prime == s.eps_hat
                    assert s.phi == s.phi_prime == s.phi_hat


class TestClassifyString:
    def test_singleton_is_collapsed(self, graph_cache):
        g = graph_cache((1,), (), 3)
        one = next(v.id for v in g.vertices if str(v.word) == "1")
        shape = classify_string(g, one, 2)
        assert shape.kind == "collapsed"
        assert shape.chains == ((one,),)

    def test_four_vertex_separated(self, graph_cache):
        g = graph_cache((3, 1), (), 2)
        shape = classify_string(g, 0, 1)
        assert shape.kind == "separated"
        upper, lower = shape.chains
        assert len(upper) == len(lower) == 2

    def test_bare_solid_chain_rejected(self):
        g = abstract_graph(2, [(1, 0), (0, 1)], [(0, 1, 1, False)])
        with pytest.raises(NotAString):
            classify_string(g, 0, 1)

    def test_half_broken_collapsed_rejected(self):
        g = abstract_graph(
            2,
            [(2, 0), (1, 1), (0, 2)],
            [(0, 1, 1, True), (1, 2, 1, False), (1, 2, 1, True)],
        )
        with pytest.raises(NotAString):
            classify_string(g, 0, 1)


class TestHighestWeight:
    def test_two_one(self, graph_cache):
        g = graph_cache((2, 1), (), 2)
        top = highest_weight(components(g)[0])
        assert str(top.word) == "211" and top.weight == (2, 1)

    def test_single_vertex(self, graph_cache):
        g = graph_cache((1,), (), 1)
        assert highest_weight(g).weight == (1,)

    def test_collapsed_chain_top(self, graph_cache):
        g = graph_cache((3,), (), 2)
        top = highest_weight(components(g)[0])
        assert str(top.word) == "111" and top.weight == (3, 0)

    def test_not_unique(self):
        g = abstract_graph(2, [(1, 0), (1, 0)], [])
        with pytest.raises(NotUnique):
            highest_weight(g)

    def test_not_strict_weight(self):
        g = abstract_graph(2, [(1, 1)], [])
        with pytest.raises(NotStrictWeight):
            highest_weight(g)


class TestIsomorphism:
    def test_identity(self, graph_cache):
        g = graph_cache((2, 1), (), 2)
        comp = components(g)[0]
        mapping = component_isomorphic(comp, comp)
        assert mapping == {0: 0, 1: 1}

    def test_different_maxima(self, graph_cache):
        c1 = components(graph_cache((2, 1), (), 2))[0]
        c2 = components(graph_cache((3,), (), 2))[0]
        assert component_isomorphic(c1, c2) is None

    def test_skew_component_matches_straight(self, graph_cache):
        g = graph_cache((3, 1), (1,), 2)
        for comp in components(g):
            sigma = tuple(p for p in highest_weight(comp).weight if p > 0)
            ref = graph_cache(sigma, (), 2)
            assert component_isomorphic(comp, ref) is not None


class TestSerialization:
    def test_json_round_trip(self, graph_cache):
        g = graph_cache((3, 1), (), 3)
        g2 = import_json(export_json(g))
        assert g2.n == g.n
        assert [(v.id, str(v.word), v.weight) for v in g2.vertices] == [
            (v.id, str(v.word), v.weight) for v in g.vertices
        ]
        assert g2.edges == g.edges
        assert export_json(g2) == export_json(g)

    def test_dot_output(self, graph_cache):
        g = graph_cache((2, 1), (), 2)
        dot = export_dot(g)
        assert 'v0 -> v1 [label="1\'", style=dashed];' in dot
        assert dot.startswith("digraph crystal {")

    def test_single_vertex_dot(self, graph_cache):
        g = graph_cache((1,), (), 1)
        dot = export_dot(g)
        assert "->" not in dot

    def test_words_optional(self):
        g = abstract_graph(2, [(1, 0)], [])
        text = export_json(g)
        assert import_json(text).vertices[0].word is None

    def test_malformed_rejected(self):
        from shifted_crystals import MalformedGraph

        with pytest.raises(MalformedGraph):
            import_json("{not json")
        with pytest.raises(MalformedGraph):
            import_json('{"vertices": []}')
        with pytest.raises(MalformedGraph):
            import_json('{"vertices": [{"id": 0, "weight": [1, 0]}], "edges": [{"src": 0, "dst": 0, "index": 5, "primed": false}]}')
