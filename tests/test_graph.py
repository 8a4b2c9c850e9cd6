from __future__ import annotations

import hashlib
import json
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
    MalformedGraph,
    NotAString,
    NotStrictWeight,
    NotUnique,
    Word,
    build_graph,
    check_all,
    component_isomorphic,
    components,
    export_dot,
    export_json,
    highest_weight,
    import_json,
    make_skew_shape,
    string_stats,
)
from shifted_crystals import graph as graph_module
from shifted_crystals import ops
from shifted_crystals.graph import GraphEdge, GraphVertex, StringStats
from helpers import strict_partitions

EXPORT_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "export_json.sha256"


def abstract_graph(n, weights, edges):
    vertices = tuple(GraphVertex(k, None, tuple(wt)) for k, wt in enumerate(weights))
    return CrystalGraph(n, vertices, tuple(GraphEdge(*e) for e in edges))


def string_shape(g, vid, i):
    """The shape of vid's {i,i'}-string as table(i) records it; None when
    the string matches neither legal shape."""
    return g.table(i)[0][vid][1]


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
            shape = string_shape(g, 0, 1)
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

    def test_f_edges_sharing_a_target_raise(self, monkeypatch):
        # every F_1 result made equal to the first: the edges and the sites
        # where E is defined still number alike, and only E(F(k)) = k fails
        apply, results = graph_module.apply, []

        def patched(kind, word):
            out = apply(kind, word)
            if kind.family == "F" and out is not None:
                results.append(out)
                return results[0]
            return out

        monkeypatch.setattr(graph_module, "apply", patched)
        with pytest.raises(InternalInconsistency, match="inconsistent with stored edges"):
            build_graph(make_skew_shape((3, 1)), 2)
        assert len(results) > 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_tied_disagreement_raises_in_a_build(self, monkeypatch, n):
        # the tie-agreement check runs on every kernel evaluation of a
        # build, without a memo (n = 2) and through it (n = 3)
        monkeypatch.setattr(ops, "_canonical_sub", tuple)
        with pytest.raises(InternalInconsistency, match="representatives disagree"):
            build_graph(make_skew_shape((1,)), n)


def _site_keys(g) -> set:
    """K: the relabeled {i,i+1}-subword of every site (vertex, i)."""
    return {ops.subword(v.word.codes, i)[0] for v in g.vertices for i in range(1, g.n)}


def _count_kernel_keys(monkeypatch) -> tuple[list, list]:
    """Record every apply of the build and every kernel evaluation, the
    latter as its key in lowering space: sub, or eta(sub) for a raising one."""
    applies, lowered_keys = [], []
    apply, on_subword = graph_module.apply, ops._on_subword

    def counted_apply(kind, word):
        applies.append(kind)
        return apply(kind, word)

    def counted_on_subword(sub, firsts, lower, primed):
        lowered_keys.append((sub if lower else ops.eta_subword(sub), primed))
        return on_subword(sub, firsts, lower, primed)

    monkeypatch.setattr(graph_module, "apply", counted_apply)
    monkeypatch.setattr(ops, "_on_subword", counted_on_subword)
    return applies, lowered_keys


class TestOperatorMemo:
    def test_kernel_runs_once_per_distinct_key(self, monkeypatch):
        # each key of K and eta(K) is evaluated once per family pair, by F
        # or, where no F evaluation covered it, by E read through eta
        applies, lowered_keys = _count_kernel_keys(monkeypatch)
        g = build_graph(make_skew_shape((4, 3, 2, 1)), 5)
        keys = _site_keys(g)
        keys |= set(map(ops.eta_subword, keys))
        assert sorted(lowered_keys) == sorted((k, primed) for k in keys for primed in (False, True))
        assert len(applies) == len(lowered_keys) == 2 * len(keys) == 608
        assert {kind.index for kind in applies} == {1}

    @pytest.mark.parametrize(
        "outer, inner, eta_closed", [((5, 2), (), False), ((5, 3, 1), (4, 2), True)], ids=["straight", "eta-closed"]
    )
    def test_two_letter_alphabet_evaluates_each_key_of_k_and_eta_k_once(self, monkeypatch, outer, inner, eta_closed):
        # at n = 2 the subword is the whole word; on an eta-closed vertex set
        # every F key is some other vertex's E key, so only F runs
        applies, lowered_keys = _count_kernel_keys(monkeypatch)
        g = build_graph(make_skew_shape(outer, inner), 2)
        keys = _site_keys(g)
        assert (set(map(ops.eta_subword, keys)) == keys) == eta_closed
        keys |= set(map(ops.eta_subword, keys))
        assert len(applies) == len(lowered_keys) == len(set(lowered_keys)) == 2 * len(keys)
        assert all(kind.lowering for kind in applies) == eta_closed


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
        assert string_stats(g, 0, 1) == StringStats(0, 1, 0, 1, 0, 0)
        assert string_stats(g, 1, 1) == StringStats(1, 0, 1, 0, 0, 0)

    def test_collapsed_counts(self, graph_cache):
        g = graph_cache((3,), (), 2)
        chain = string_shape(g, 0, 1).chains[0]
        for j, vid in enumerate(chain):
            s = string_stats(g, vid, 1)
            assert s == StringStats(j, 3 - j, j, 3 - j, j, 3 - j)

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
                shape = string_shape(g, v.id, i)
                s = dict(shape.member_stats())[v.id]
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


def edge_list_component(g, vid, i):
    """The {i,i'}-component of vid, walked along every out- and in-edge of
    each vertex and filtered on the index, as reach walked before it read
    the label maps."""
    seen = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        for e in g.out_edges[v]:
            if e.index == i and e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
        for e in g.in_edges[v]:
            if e.index == i and e.src not in seen:
                seen.add(e.src)
                stack.append(e.src)
    return frozenset(seen)


class TestStringTable:
    def test_components_match_the_edge_list_walk(self, graph_cache):
        # mutants delete, reprime, retarget and duplicate edges, so vertices
        # with several edges of one label occur.  table(i) walks each
        # component once, from its first vertex; walked from there, the
        # members come in the same iteration order, the order B1 reports in
        from test_axioms import edge_mutants

        graphs = edge_mutants(graph_cache((3, 1), (), 3)) + edge_mutants(graph_cache((2, 1), (), 4))
        assert any(g.label_degree_violations() for g in graphs)
        for g in graphs:
            for i in range(1, g.n):
                entries, order = g.table(i)[0], {}
                for v in g.vertices:
                    comp = entries[v.id][0]
                    assert comp == edge_list_component(g, v.id, i)
                    if comp not in order:
                        order[comp] = list(edge_list_component(g, v.id, i))
                    assert list(comp) == order[comp]

    def test_crowded_vertex_joins_the_strings_it_leads_into(self):
        # vertex 0 has two out-edges labeled 1, into the strings 1 -1'-> 3
        # and 2 -1'-> 4; only its edge lists join them
        g = abstract_graph(
            2,
            [(1, 1)] * 5,
            [(0, 1, 1, False), (0, 2, 1, False), (1, 3, 1, True), (2, 4, 1, True)],
        )
        assert g.f(0, 1) is None and g.e(1, 1) == 0 and g.e(2, 1) == 0
        for v in range(5):
            assert g.table(1)[0][v][0] == edge_list_component(g, v, 1) == frozenset(range(5))

    def test_in_edges_are_met_by_source(self):
        # 0, 8 and 16 share a hash slot of a small set, so the order they are
        # met in, 8' before 16 as in_edges lists them, sets the iteration order
        g = abstract_graph(2, [(1, 1)] * 17, [(16, 0, 1, False), (8, 0, 1, True)])
        assert list(g.table(1)[0][0][0]) == list(edge_list_component(g, 0, 1)) == [0, 8, 16]

    def test_each_string_walked_and_classified_once(self, graph_cache, monkeypatch):
        g = graph_cache((4, 3, 2, 1), (), 5)
        k = len(g.edges) // 2
        mutant = CrystalGraph(g.n, g.vertices, g.edges[:k] + g.edges[k + 1 :])
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
        want = [(string_shape(g, v.id, 1), g.stats(v.id, 1)) for v in g.vertices]
        fresh = CrystalGraph(g.n, g.vertices, g.edges)
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
        assert [(string_shape(fresh, v.id, 1), fresh.stats(v.id, 1)) for v in g.vertices] == want
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
                fresh = CrystalGraph(g.n, g.vertices, g.edges)
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
        fresh = CrystalGraph(g.n, g.vertices, g.edges)
        for i in (0, g.n):
            for read in (fresh.stats, fresh.f, fresh.e):
                with pytest.raises(InvalidIndex, match=f"^index {i} outside 1..2$"):
                    read(0, i)
            with pytest.raises(InvalidIndex):
                fresh.table(i)
        assert fresh.stats(0, 1) == g.stats(0, 1)


class TestClassifyString:
    def test_singleton_is_collapsed(self, graph_cache):
        g = graph_cache((1,), (), 3)
        one = next(v.id for v in g.vertices if str(v.word) == "1")
        shape = string_shape(g, one, 2)
        assert shape.kind == "collapsed"
        assert shape.chains == ((one,),)

    def test_four_vertex_separated(self, graph_cache):
        g = graph_cache((3, 1), (), 2)
        shape = string_shape(g, 0, 1)
        assert shape.kind == "separated"
        upper, lower = shape.chains
        assert len(upper) == len(lower) == 2

    def test_bare_solid_chain_rejected(self):
        g = abstract_graph(2, [(1, 0), (0, 1)], [(0, 1, 1, False)])
        assert string_shape(g, 0, 1) is None
        with pytest.raises(NotAString, match="^\\{1,1'\\}-component of vertex 0 is not a legal string$"):
            string_stats(g, 0, 1)

    def test_half_broken_collapsed_rejected(self):
        g = abstract_graph(
            2,
            [(2, 0), (1, 1), (0, 2)],
            [(0, 1, 1, True), (1, 2, 1, False), (1, 2, 1, True)],
        )
        assert string_shape(g, 0, 1) is None
        with pytest.raises(NotAString, match="^\\{1,1'\\}-component of vertex 0 is not a legal string$"):
            string_stats(g, 0, 1)


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


_DROP = object()


def _edited(*edits) -> str:
    """A valid two-vertex, one-edge graph document with each (path, value)
    edit applied in turn; the value _DROP deletes the key."""
    data = {
        "n": 2,
        "vertices": [{"id": 0, "word": "1", "weight": [1, 0]}, {"id": 1, "word": "2", "weight": [0, 1]}],
        "edges": [{"src": 0, "dst": 1, "index": 1, "primed": False}],
    }
    for path, value in edits:
        *keys, last = path
        holder = data
        for key in keys:
            holder = holder[key]
        if value is _DROP:
            del holder[last]
        else:
            holder[last] = value
    return json.dumps(data)


_V0, _V1, _E0 = ("vertices", 0), ("vertices", 1), ("edges", 0)

# (document, the exact MalformedGraph message); where a document has several
# defects, the message names the one import_json reports first.
MALFORMED = {
    "not-an-object": ("[]", "graph JSON needs 'vertices' and 'edges'"),
    "no-edges": (_edited((("edges",), _DROP)), "graph JSON needs 'vertices' and 'edges'"),
    "vertices-not-a-list": (_edited((("vertices",), {})), "'vertices' must be a list of objects"),
    "edge-not-an-object": (_edited((("edges",), [1])), "'edges' must be a list of objects"),
    "n-str": (_edited((("n",), "2")), "bad graph JSON: n must be int, got '2'"),
    "n-bool": (_edited((("n",), True)), "bad graph JSON: n must be int, got True"),
    "n-float": (_edited((("n",), 2.0)), "bad graph JSON: n must be int, got 2.0"),
    "n-negative": (_edited((("n",), -1)), "bad graph JSON: alphabet bound must be nonnegative"),
    "n-negative-empty": ('{"n": -3, "vertices": [], "edges": []}', "bad graph JSON: alphabet bound must be nonnegative"),
    "n-negative-null-words": (
        _edited((("n",), -3), ((*_V0, "word"), None), ((*_V1, "word"), None)),
        "bad graph JSON: alphabet bound must be nonnegative",
    ),
    "weight-entry-str": (_edited(((*_V0, "weight", 1), "0")), "bad graph JSON: weight entry must be int, got '0'"),
    "weight-entry-bool": (_edited(((*_V1, "weight", 0), False)), "bad graph JSON: weight entry must be int, got False"),
    "weight-not-iterable": (_edited(((*_V0, "weight"), 5)), "bad graph JSON: 'int' object is not iterable"),
    "weight-length": (_edited(((*_V1, "weight"), [0, 1, 0])), "weight vectors must all have length n"),
    "n-from-first-weight": (
        _edited((("n",), _DROP), ((*_V0, "weight"), [1, 0, 0])),
        "weight vectors must all have length n",
    ),
    "word-int": (_edited(((*_V0, "word"), 1)), "bad graph JSON: word must be str, got 1"),
    "word-text": (_edited(((*_V0, "word"), "1x")), "bad graph JSON: bad word text '1x'"),
    "word-zero": (_edited(((*_V0, "word"), "0")), "bad graph JSON: bad letter token '0'"),
    "word-spaced-token": (_edited(((*_V0, "word"), "1 x")), "bad graph JSON: bad letter token 'x'"),
    "word-alphabet": (_edited(((*_V0, "word"), "3")), "bad graph JSON: letter 3 outside alphabet bound 2"),
    "word-canonical": (_edited(((*_V0, "word"), "1'")), "bad graph JSON: word 1' is not in canonical form"),
    "id-str": (_edited(((*_V0, "id"), "0")), "bad graph JSON: vertex id must be int, got '0'"),
    "id-missing": (_edited(((*_V1, "id"), _DROP)), "bad graph JSON: 'id'"),
    "src-str": (_edited(((*_E0, "src"), "0")), "bad graph JSON: edge src must be int, got '0'"),
    "dst-float": (_edited(((*_E0, "dst"), 1.0)), "bad graph JSON: edge dst must be int, got 1.0"),
    "index-bool": (_edited(((*_E0, "index"), True)), "bad graph JSON: edge index must be int, got True"),
    "primed-int": (_edited(((*_E0, "primed"), 0)), "bad graph JSON: edge primed must be bool, got 0"),
    "primed-missing": (_edited(((*_E0, "primed"), _DROP)), "bad graph JSON: 'primed'"),
    "src-before-missing-dst": (_edited(((*_E0,), {"src": "x"})), "bad graph JSON: edge src must be int, got 'x'"),
    "missing-vertex": (
        _edited(((*_E0, "src"), 5)),
        "edge GraphEdge(src=5, dst=1, index=1, primed=False) references a missing vertex",
    ),
    "duplicate-id": (_edited(((*_V1, "id"), 0)), "duplicate vertex ids"),
    "index-range": (_edited(((*_E0, "index"), 2)), "edge index 2 outside 1..1"),
    "weights-before-earlier-word": (
        _edited(((*_V0, "word"), 1), ((*_V1, "weight", 0), "x")),
        "bad graph JSON: weight entry must be int, got 'x'",
    ),
    "n-before-word": (_edited((("n",), "2"), ((*_V0, "word"), 1)), "bad graph JSON: n must be int, got '2'"),
    "word-before-id": (_edited(((*_V0, "word"), 1), ((*_V0, "id"), "0")), "bad graph JSON: word must be str, got 1"),
    "vertex-before-edge": (
        _edited(((*_V1, "id"), "1"), ((*_E0, "src"), "0")),
        "bad graph JSON: vertex id must be int, got '1'",
    ),
    "edge-before-weight-length": (
        _edited(((*_E0, "primed"), 0), ((*_V1, "weight"), [0])),
        "bad graph JSON: edge primed must be bool, got 0",
    ),
    "weight-length-before-duplicate-id": (
        _edited(((*_V1, "id"), 0), ((*_V1, "weight"), [0])),
        "weight vectors must all have length n",
    ),
    "weight-negative": (
        _edited(((*_V0, "word"), None), ((*_V0, "weight"), [-1, 2])),
        "vertex 0 has a negative weight entry: [-1, 2]",
    ),
    "weight-not-the-words": (
        _edited(((*_V1, "word"), "22"), ((*_V1, "weight"), [2, 0])),
        "vertex 1 has weight [2, 0] but its word 22 has weight [0, 2]",
    ),
    "negative-before-word-weight": (
        _edited(((*_V1, "weight"), [-1, 2])),
        "vertex 1 has a negative weight entry: [-1, 2]",
    ),
    "earlier-vertex-first": (
        _edited(((*_V0, "weight"), [0, 1]), ((*_V1, "weight"), [-1, 2])),
        "vertex 0 has weight [0, 1] but its word 1 has weight [1, 0]",
    ),
    "missing-vertex-before-word-weight": (
        _edited(((*_E0, "src"), 5), ((*_V0, "weight"), [0, 1])),
        "edge GraphEdge(src=5, dst=1, index=1, primed=False) references a missing vertex",
    ),
}


class TestImportErrors:
    @pytest.mark.parametrize("document, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_first_defect_and_its_message(self, document, message):
        with pytest.raises(MalformedGraph) as caught:
            import_json(document)
        assert str(caught.value) == message


def _reference_document(g: CrystalGraph) -> dict:
    """The export schema built field by field, words spelled from their codes."""

    def spelled(codes):
        # a word above 9 is spaced, and a lone letter ends in a space
        tokens = [str((c + 1) // 2) + ("'" if c % 2 else "") for c in codes]
        if not any(c > 18 for c in codes):
            return "".join(tokens)
        return " ".join(tokens) + (" " if len(tokens) == 1 else "")

    return {
        "n": g.n,
        "vertices": [
            {"id": v.id, "word": None if v.word is None else spelled(v.word.codes), "weight": list(v.weight)}
            for v in g.vertices
        ],
        "edges": [{"src": e.src, "dst": e.dst, "index": e.index, "primed": e.primed} for e in g.edges],
    }

EXPORTED = {
    "n0-empty-lists": lambda: CrystalGraph(0, (), ()),
    "n0-empty-word": lambda: build_graph(make_skew_shape(()), 0),
    "imported-without-words": lambda: import_json(_edited(((*_V0, "word"), None), ((*_V1, "word"), None))),
    "one-vertex": lambda: build_graph(make_skew_shape((1,)), 1),
    "values-above-nine": lambda: build_graph(make_skew_shape((1,)), 10),
    "spaced-words": lambda: build_graph(make_skew_shape((2,)), 10),
    "straight-3-1": lambda: build_graph(make_skew_shape((3, 1)), 3),
}


class TestExportOracle:
    @pytest.mark.parametrize("make", EXPORTED.values(), ids=EXPORTED.keys())
    def test_matches_json_dumps_with_indent_two(self, make):
        g = make()
        assert export_json(g) == json.dumps(_reference_document(g), indent=2) + "\n"

    def test_spaced_words_are_exported(self):
        words = [v["word"] for v in json.loads(export_json(build_graph(make_skew_shape((2,)), 10)))["vertices"]]
        assert {"1 10", "9 10", "10 10"} <= set(words)
