from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import shifted_crystals
from shifted_crystals import (
    BrokenSemistandard,
    CrystalGraph,
    InternalInconsistency,
    InvalidIndex,
    NotAString,
    NotStrictWeight,
    NotUnique,
    Word,
    build_graph,
    check_all,
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
from shifted_crystals import ops
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

    def patched(kind, word, **kwargs):
        out = apply(kind, word, **kwargs)
        if kind.family == "E" and out is not None and not broken:
            broken.append(word)
            return None
        return out

    return patched


def _drop_last_tableau(enumerate_tableaux):
    """An enumerate_tableaux that loses its last tableau, so that some F
    edge of the build leaves the vertex set."""
    return lambda shape, n: enumerate_tableaux(shape, n)[:-1]


def _run_under_optimize(body: str) -> subprocess.CompletedProcess:
    """Run a script under python -O, which strips assert statements, with
    this directory and the package importable."""
    script = f"import sys\nsys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n" + textwrap.dedent(body)
    src = str(Path(shifted_crystals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)


class TestInternalConsistency:
    def test_e_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(graph_module, "apply", _break_first_E(graph_module.apply))
        with pytest.raises(InternalInconsistency, match="inconsistent with stored edges"):
            build_graph(make_skew_shape((3, 1)), 3)

    def test_e_disagreement_raises_under_optimize(self):
        # the check must survive python -O, which strips assert statements
        proc = _run_under_optimize(
            """
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
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n", [2, 5])
    def test_edge_leaving_the_vertex_set_raises(self, monkeypatch, n):
        # at n = 5 the offending F result comes from a memo hit: the kernel
        # evaluated its key once, while applying the operator to another word
        evaluated, current = [], []
        apply, on_subword = graph_module.apply, ops._on_subword

        def traced_apply(kind, word):
            current[:] = [word]
            return apply(kind, word)

        def traced_on_subword(sub, firsts, lower, primed):
            evaluated.append((current[0], (sub, lower, primed)))
            return on_subword(sub, firsts, lower, primed)

        monkeypatch.setattr(graph_module, "apply", traced_apply)
        monkeypatch.setattr(ops, "_on_subword", traced_on_subword)
        monkeypatch.setattr(graph_module, "enumerate_tableaux", _drop_last_tableau(graph_module.enumerate_tableaux))
        with pytest.raises(BrokenSemistandard) as exc:
            build_graph(make_skew_shape((2, 1)), n)
        message = {2: "F'_1(211) = 212' left ShST(2,1, 2)", 5: "F_3(535') = 545' left ShST(2,1, 5)"}[n]
        assert str(exc.value) == message
        family, i, text = re.match(r"(F'?)_(\d+)\((\S+)\)", message).groups()
        word = Word.parse(text, n)
        key = (ops.subword(word.codes, int(i))[0], True, family == "F'")
        sources = [w for w, k in evaluated if k == key]
        if n == 2:
            assert sources == [word]
        else:
            assert len(sources) == 1 and sources[0] != word

    @pytest.mark.parametrize("n", [2, 5])
    def test_e_result_leaving_the_vertex_set_raises(self, monkeypatch, n):
        # without the highest weight vertex, E of its F targets is defined
        # but lies outside the vertex set, where no edge was stored
        enumerate_tableaux = graph_module.enumerate_tableaux
        monkeypatch.setattr(graph_module, "enumerate_tableaux", lambda shape, n: enumerate_tableaux(shape, n)[1:])
        with pytest.raises(InternalInconsistency, match="inconsistent with stored edges"):
            build_graph(make_skew_shape((2, 1)), n)

    def test_edge_leaving_the_vertex_set_raises_under_optimize(self):
        proc = _run_under_optimize(
            """
            from test_graph import _drop_last_tableau
            from shifted_crystals import BrokenSemistandard, graph, make_skew_shape
            graph.enumerate_tableaux = _drop_last_tableau(graph.enumerate_tableaux)
            assert False, "asserts must be stripped"
            for n in (2, 5):
                try:
                    graph.build_graph(make_skew_shape((2, 1)), n)
                except BrokenSemistandard:
                    continue
                sys.exit(3)
            """
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n", [2, 3])
    def test_tied_disagreement_raises_in_a_build(self, monkeypatch, n):
        # the tie-agreement check runs on every kernel evaluation of a
        # build, without a memo (n = 2) and through it (n = 3)
        monkeypatch.setattr(ops, "_canonical_sub", tuple)
        with pytest.raises(InternalInconsistency, match="representatives disagree"):
            build_graph(make_skew_shape((1,)), n)


class TestOperatorMemo:
    def test_kernel_runs_once_per_distinct_key(self, monkeypatch):
        applies, kernel_keys, seen_keys = [], [], set()
        apply, on_subword = graph_module.apply, ops._on_subword

        def counted_apply(kind, word, **kwargs):
            applies.append(kind)
            seen_keys.add((ops.subword(word.codes, kind.index)[0], kind.lowering, kind.primed))
            return apply(kind, word, **kwargs)

        def counted_on_subword(sub, firsts, lower, primed):
            kernel_keys.append((sub, lower, primed))
            return on_subword(sub, firsts, lower, primed)

        monkeypatch.setattr(graph_module, "apply", counted_apply)
        monkeypatch.setattr(ops, "_on_subword", counted_on_subword)
        build_graph(make_skew_shape((4, 3, 2, 1)), 5)
        assert sorted(kernel_keys) == sorted(seen_keys)
        assert len(applies) == len(seen_keys) == len(kernel_keys) == 808

    def test_two_letter_alphabet_applies_every_family_at_every_vertex(self, monkeypatch):
        applies = []
        apply = graph_module.apply

        def counted_apply(kind, word):
            applies.append((kind, word))
            return apply(kind, word)

        monkeypatch.setattr(graph_module, "apply", counted_apply)
        g = build_graph(make_skew_shape((5, 3, 1)), 2)
        expected = {(ops.OpKind(family, 1), v.word) for v in g.vertices for family in ops.FAMILIES}
        assert len(applies) == len(expected) == 4 * len(g) and set(applies) == expected


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


def index_component_count(g, i):
    """Number of {i,i'}-components, by union-find over the edges of index i."""
    parent = {v.id: v.id for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in g.edges:
        if e.index == i:
            parent[find(e.src)] = find(e.dst)
    return len({find(v.id) for v in g.vertices})


class TestStringTable:
    def test_each_string_walked_and_classified_once(self, graph_cache, monkeypatch):
        g = graph_cache((4, 3, 2, 1), (), 5)
        k = len(g.edges) // 2
        mutant = CrystalGraph(g.n, g.vertices, g.edges[:k] + g.edges[k + 1 :], g.shape)
        calls = {"reach": 0, "classify": 0}
        reach, classify = CrystalGraph.reach, graph_module._classify

        def counted_reach(self, vid, i=None):
            calls["reach"] += 1
            return reach(self, vid, i)

        def counted_classify(graph, comp, i):
            calls["classify"] += 1
            return classify(graph, comp, i)

        monkeypatch.setattr(CrystalGraph, "reach", counted_reach)
        monkeypatch.setattr(graph_module, "_classify", counted_classify)
        assert not check_all(mutant).passed
        expected = sum(index_component_count(mutant, i) for i in range(1, mutant.n))
        assert calls == {"reach": expected, "classify": expected}

    def test_interrupted_build_is_rebuilt_whole(self, graph_cache, monkeypatch):
        g = graph_cache((4, 2, 1), (), 3)
        want = [(g.string_of(v.id, 1), g.stats(v.id, 1)) for v in g.vertices]
        fresh = CrystalGraph(g.n, g.vertices, g.edges, g.shape)
        classify = graph_module._classify
        calls = []

        def interrupted(graph, comp, i):
            calls.append(i)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return classify(graph, comp, i)

        monkeypatch.setattr(graph_module, "_classify", interrupted)
        with pytest.raises(RuntimeError):
            fresh.stats(g.vertices[0].id, 1)
        assert index_component_count(g, 1) > 3
        assert [(fresh.string_of(v.id, 1), fresh.stats(v.id, 1)) for v in g.vertices] == want
        assert len(calls) == 3 + index_component_count(g, 1)

    def test_concurrent_readers_never_see_a_partial_table(self, graph_cache):
        g = graph_cache((4, 2, 1), (), 3)
        want = {(v.id, i): g.stats(v.id, i) for v in g.vertices for i in (1, 2)}
        keys = list(want)
        wrong = []

        def read(graph, order):
            try:
                wrong.extend(key for key in order if graph.stats(*key) != want[key])
            except Exception as exc:  # a failed read is recorded, then asserted on below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fresh = CrystalGraph(g.n, g.vertices, g.edges, g.shape)
                threads = [threading.Thread(target=read, args=(fresh, keys[k::8] + keys)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestIndexRange:
    def test_out_of_range_index_raises(self, graph_cache):
        g = graph_cache((3, 1), (), 3)
        fresh = CrystalGraph(g.n, g.vertices, g.edges, g.shape)
        for i in (0, g.n):
            with pytest.raises(InvalidIndex):
                fresh.stats(0, i)
            with pytest.raises(InvalidIndex):
                fresh.string_of(0, i)
            with pytest.raises(InvalidIndex):
                fresh.strings(i)
        assert fresh.stats(0, 1) == g.stats(0, 1)


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

    @pytest.mark.parametrize("index", [0, 2])
    def test_edge_index_out_of_range_rejected(self, index):
        from shifted_crystals import MalformedGraph

        with pytest.raises(MalformedGraph, match=f"edge index {index} outside"):
            abstract_graph(2, [(1, 0), (0, 1)], [(0, 1, index, False)])
