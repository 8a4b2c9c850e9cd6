from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from dataclasses import astuple
from itertools import combinations_with_replacement, product
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
    check,
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
from helpers import BAD_BOUNDS, strict_partitions
from oracles import stats_by_definition, string_by_definition

EXPORT_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "export_json.sha256"


def abstract_graph(n, weights, edges):
    vertices = tuple(GraphVertex(k, None, tuple(wt)) for k, wt in enumerate(weights))
    return CrystalGraph(n, vertices, tuple(GraphEdge(*e) for e in edges))


def string_of(g, vid, i):
    """vid's {i,i'}-component, read off the component list of table(i)."""
    return next(comp for comp in g.table(i)[0] if vid in comp)


def collapsed_by_edges(edges, comps, i):
    """For each of comps, whether every edge of index i in it, read from the
    (src, dst, index, primed) tuples edges, has a twin with the same ends
    and the other primedness."""
    ends = {(src, dst, primed) for src, dst, index, primed in edges if index == i}
    lone = {src for src, dst, primed in ends if (src, dst, not primed) not in ends}
    return [comp.isdisjoint(lone) for comp in comps]


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
            comp = string_of(g, 0, 1)
            assert all(g.stats(v, 1).collapsed for v in comp)
            assert len(comp) == a + 1

    @pytest.mark.parametrize("outer", [(), (1,), (2, 1)])
    @pytest.mark.parametrize("n,message", BAD_BOUNDS)
    def test_bound_must_be_an_exact_nonnegative_int(self, outer, n, message):
        # n is checked before any filling is tried, so a shape with one
        # filling, with none at n = -1, or with several raises alike
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_graph(make_skew_shape(outer), n)


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
        edges = g.edges
        assert [c.vertices[0].id for c in comps] == sorted(c.vertices[0].id for c in comps)
        assert sorted(v.id for c in comps for v in c.vertices) == [v.id for v in g.vertices]
        assert sum(len(c.edges) for c in comps) == len(edges)
        for c in comps:
            ids = {v.id for v in c.vertices}
            assert c.vertices == tuple(v for v in g.vertices if v.id in ids)
            assert c.edges == tuple(e for e in edges if e.src in ids)
            assert all(e.dst in ids for e in c.edges)


def _break_first_E(apply):
    """An apply that answers None for the first defined F result on a
    subword that no site of ShST((3,1), 3) has: the build evaluates such a
    subword only to read E through eta, so the first E it reads breaks."""
    sites = _site_keys(build_graph(make_skew_shape((3, 1)), 3))
    broken = []

    def patched(kind, word, **kwargs):
        out = apply(kind, word, **kwargs)
        if out is not None and word.codes not in sites and not broken:
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

        def traced_on_subword(sub, lower, primed):
            evaluated.append((current[0], (sub, lower, primed)))
            return on_subword(sub, lower, primed)

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

    def counted_on_subword(sub, lower, primed):
        lowered_keys.append((sub if lower else ops.eta_subword(sub), primed))
        return on_subword(sub, lower, primed)

    monkeypatch.setattr(graph_module, "apply", counted_apply)
    monkeypatch.setattr(ops, "_on_subword", counted_on_subword)
    return applies, lowered_keys


class TestOperatorMemo:
    def test_kernel_runs_once_per_distinct_key(self, monkeypatch):
        # each key of K and eta(K) is evaluated once by F and once by F';
        # E is read through eta, so no E runs
        applies, lowered_keys = _count_kernel_keys(monkeypatch)
        g = build_graph(make_skew_shape((4, 3, 2, 1)), 5)
        keys = _site_keys(g)
        keys |= set(map(ops.eta_subword, keys))
        assert sorted(lowered_keys) == sorted((k, primed) for k in keys for primed in (False, True))
        assert len(applies) == len(lowered_keys) == 2 * len(keys) == 608
        assert {kind.index for kind in applies} == {1}

    @pytest.mark.parametrize(
        "outer, inner, evaluations",
        [((5, 2), (), 24), ((13, 11, 9, 7, 5, 3, 1), (12, 10, 8, 6, 4, 2), 8320)],
        ids=["straight", "skew-wide"],
    )
    def test_two_letter_alphabet_applies_to_the_vertex_words(self, monkeypatch, outer, inner, evaluations):
        # at n = 2 each vertex's codes are its subword, so F and F' read the
        # vertex's own Word, once each; only a key eta(k) that is no vertex
        # (none on skew-wide's eta-closed vertex set) gets a Word of its own
        applies, lowered_keys = _count_kernel_keys(monkeypatch)
        inputs, apply = [], graph_module.apply

        def recorded(kind, word):
            inputs.append(word)
            return apply(kind, word)

        monkeypatch.setattr(graph_module, "apply", recorded)
        g = build_graph(make_skew_shape(outer, inner), 2)
        own = {v.word.codes: v.word for v in g.vertices}
        assert len(applies) == len(lowered_keys) == len(inputs) == evaluations
        assert Counter(id(word) for word in inputs if word.codes in own) == {id(word): 2 for word in own.values()}
        assert all(own.get(word.codes, word) is word for word in inputs)

    @pytest.mark.parametrize(
        "outer, inner, eta_closed", [((5, 2), (), False), ((5, 3, 1), (4, 2), True)], ids=["straight", "eta-closed"]
    )
    def test_two_letter_alphabet_evaluates_each_key_of_k_and_eta_k_once(self, monkeypatch, outer, inner, eta_closed):
        # at n = 2 the subword is the whole word; on an eta-closed vertex set
        # every F key is some other vertex's E key, and on any vertex set
        # only F runs
        applies, lowered_keys = _count_kernel_keys(monkeypatch)
        g = build_graph(make_skew_shape(outer, inner), 2)
        keys = _site_keys(g)
        assert (set(map(ops.eta_subword, keys)) == keys) == eta_closed
        keys |= set(map(ops.eta_subword, keys))
        assert len(applies) == len(lowered_keys) == len(set(lowered_keys)) == 2 * len(keys)
        assert all(kind.lowering for kind in applies)


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
        chain = sorted(string_of(g, 0, 1), key=lambda v: g.stats(v, 1).eps)
        assert [g.f(v, 1) for v in chain] == [g.f(v, 1, True) for v in chain] == [*chain[1:], None]
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
        # the kind of each string is read off its edges, not its statistics;
        # every string of ShST((4,2,1), 3) is separated, so ShST((3,1), 3)
        # brings collapsed ones
        kinds = set()
        for g in (graph_cache((4, 2, 1), (), 3), graph_cache((3, 1), (), 3)):
            for i in (1, 2):
                comps = g.table(i)[0]
                for comp, collapsed in zip(comps, collapsed_by_edges(g.edges, comps, i)):
                    kinds.add(collapsed)
                    for v in comp:
                        s = g.stats(v, i)
                        if not collapsed:
                            assert s.eps == s.eps_prime + s.eps_hat
                            assert s.phi == s.phi_prime + s.phi_hat
                            assert s.eps_prime in (0, 1) and s.phi_prime in (0, 1)
                        else:
                            assert s.eps == s.eps_prime == s.eps_hat
                            assert s.phi == s.phi_prime == s.phi_hat
        assert kinds == {False, True}

    def test_an_id_that_is_not_a_vertex_raises_key_error(self, graph_cache):
        # on a graph of legal strings, and on one whose only string is not legal
        legal = graph_cache((2, 1), (), 2)
        illegal = abstract_graph(2, [(1, 0), (0, 1)], [(0, 1, 1, False)])
        for g in (legal, illegal):
            for vid in (2, -1):
                with pytest.raises(KeyError):
                    g.stats(vid, 1)
                with pytest.raises(KeyError):
                    string_stats(g, vid, 1)
        assert illegal.stats(0, 1) is None

    def test_collapsed_exactly_when_every_edge_has_its_twin(self):
        # on the criterion-1 graphs and on mutants, where strings of every
        # kind and illegal components occur
        from test_axioms import mutant_edges

        shapes = [(lam, n) for size in range(1, 9) for lam in strict_partitions(size) for n in (1, 2, 3, 4)]
        graphs = [(g, g.edges) for g in (build_graph(make_skew_shape(lam), n) for lam, n in shapes)]
        bases = (build_graph(make_skew_shape((3, 1)), 3), build_graph(make_skew_shape((2, 1)), 4))
        graphs += [(CrystalGraph(g.n, g.vertices, edges), edges) for g in bases for edges in mutant_edges(g)]
        seen = set()
        for g, edges in graphs:
            for i in range(1, g.n):
                comps, stats, duals = g.table(i)
                for comp, collapsed in zip(comps, collapsed_by_edges(edges, comps, i)):
                    for v in comp & stats.keys():
                        assert stats[v].collapsed == duals[v].collapsed == collapsed
                        seen.add(collapsed)
        assert seen == {False, True}


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


def edge_list_component(edges, vid, i):
    """The {i,i'}-component of vid, walked along the (src, dst, index,
    primed) tuples edges that built the graph, not along anything the graph
    stores: at each vertex its out-edges of index i by (primed, dst), then
    its in-edges by (src, primed)."""
    seen = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        outs = sorted((primed, dst) for src, dst, index, primed in edges if index == i and src == v)
        ins = sorted((src, primed) for src, dst, index, primed in edges if index == i and dst == v)
        for u in [dst for _, dst in outs] + [src for src, _ in ins]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


class TestStringTable:
    def test_components_match_the_edge_list_walk(self, graph_cache):
        # mutants delete, reprime, retarget and duplicate edges, so vertices
        # with several edges of one label occur.  table(i) walks each
        # component once, from its first vertex; walked from there, the
        # members come in the same iteration order, the order B1 reports in
        from test_axioms import mutant_edges

        bases = (graph_cache((3, 1), (), 3), graph_cache((2, 1), (), 4))
        graphs = [(CrystalGraph(g.n, g.vertices, edges), edges) for g in bases for edges in mutant_edges(g)]
        assert any(g.label_degree_violations() for g, _ in graphs)
        for g, edges in graphs:
            position = {v.id: k for k, v in enumerate(g.vertices)}
            for i in range(1, g.n):
                comps = g.table(i)[0]
                assert sum(map(len, comps)) == len(g) and frozenset().union(*comps) == g.by_id.keys()
                firsts = [min(comp, key=position.get) for comp in comps]
                assert firsts == sorted(firsts, key=position.get)
                for first, comp in zip(firsts, comps):
                    assert comp == edge_list_component(edges, first, i)
                    assert list(comp) == list(edge_list_component(edges, first, i))

    def test_crowded_vertex_joins_the_strings_it_leads_into(self):
        # vertex 0 has two out-edges labeled 1, into the strings 1 -1'-> 3
        # and 2 -1'-> 4; only its edge lists join them
        edges = [(0, 1, 1, False), (0, 2, 1, False), (1, 3, 1, True), (2, 4, 1, True)]
        g = abstract_graph(2, [(1, 1)] * 5, edges)
        assert g.f(0, 1) is None and g.e(1, 1) == 0 and g.e(2, 1) == 0
        assert g.table(1)[0] == (frozenset(range(5)),)
        for v in range(5):
            assert edge_list_component(edges, v, 1) == frozenset(range(5))

    def test_in_edges_are_met_by_source(self):
        # 0, 8 and 16 share a hash slot of a small set, so the order they are
        # met in, 8' before 16 as the in-edges of 0 come by source, sets the
        # iteration order
        edges = [(16, 0, 1, False), (8, 0, 1, True)]
        g = abstract_graph(2, [(1, 1)] * 17, edges)
        comps = g.table(1)[0]
        assert len(comps) == 15
        assert list(comps[0]) == list(edge_list_component(edges, 0, 1)) == [0, 8, 16]

    def test_each_string_walked_and_classified_once(self, graph_cache, monkeypatch):
        g = graph_cache((4, 3, 2, 1), (), 5)
        edges = g.edges
        k = len(edges) // 2
        mutant = CrystalGraph(g.n, g.vertices, edges[:k] + edges[k + 1 :])
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
        want = g.table(1)[0], [g.stats(v.id, 1) for v in g.vertices]
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
        assert (fresh.table(1)[0], [fresh.stats(v.id, 1) for v in g.vertices]) == want
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

    @pytest.mark.parametrize("index", [True, 1.0])
    @pytest.mark.parametrize("read", ["f", "e", "table", "stats", "reach", "lattice_walk"])
    def test_index_must_be_exactly_an_int(self, graph_cache, read, index):
        g = graph_cache((3, 1), (), 3)
        g.table(1)  # a memoised table answers to neither True nor 1.0
        reads = {
            "f": lambda: g.f(0, index),
            "e": lambda: g.e(0, index),
            "table": lambda: g.table(index),
            "stats": lambda: g.stats(0, index),
            "reach": lambda: g.reach(0, index),
            "lattice_walk": lambda: ops.lattice_walk(g.by_id[0].word, index),
        }
        with pytest.raises(InvalidIndex, match=f"^index must be an int, got {index!r}$"):
            reads[read]()

    @pytest.mark.parametrize("read", ["f", "e", "reach", "reach_i", "stats", "weight"])
    def test_id_that_is_no_vertex_raises_key_error(self, graph_cache, read):
        # a valid index is checked first; then an id that names no vertex
        # is a KeyError, not an undefined arrow or a one-vertex component
        g = graph_cache((3, 1), (), 3)
        reads = {
            "f": lambda vid: g.f(vid, 1),
            "e": lambda vid: g.e(vid, 2, True),
            "reach": lambda vid: g.reach(vid),
            "reach_i": lambda vid: g.reach(vid, 1),
            "stats": lambda vid: g.stats(vid, 1),
            "weight": g.weight,
        }
        with pytest.raises(KeyError) as caught:
            reads[read](99)
        assert caught.value.args == (99,)
        with pytest.raises(InvalidIndex):
            g.f(99, 0)
        reads[read](len(g) - 1)


class TestClassifyString:
    def test_singleton_is_collapsed(self, graph_cache):
        g = graph_cache((1,), (), 3)
        one = next(v.id for v in g.vertices if str(v.word) == "1")
        assert string_of(g, one, 2) == frozenset({one})
        assert g.stats(one, 2) == StringStats(0, 0, 0, 0, 0, 0)
        assert g.stats(one, 2).collapsed

    def test_four_vertex_separated(self, graph_cache):
        g = graph_cache((3, 1), (), 2)
        stats = {v: g.stats(v, 1) for v in string_of(g, 0, 1)}
        assert not any(s.collapsed for s in stats.values())
        upper = sorted((v for v in stats if stats[v].phi_prime), key=lambda v: stats[v].eps)
        lower = sorted((v for v in stats if stats[v].eps_prime), key=lambda v: stats[v].eps)
        assert len(upper) == len(lower) == 2 and {*upper, *lower} == stats.keys()
        assert [g.f(v, 1, True) for v in upper] == lower

    def test_bare_solid_chain_rejected(self):
        g = abstract_graph(2, [(1, 0), (0, 1)], [(0, 1, 1, False)])
        assert g.table(1) == ((frozenset({0, 1}),), {}, {})
        with pytest.raises(NotAString, match="^\\{1,1'\\}-component of vertex 0 is not a legal string$"):
            string_stats(g, 0, 1)

    def test_half_broken_collapsed_rejected(self):
        g = abstract_graph(
            2,
            [(2, 0), (1, 1), (0, 2)],
            [(0, 1, 1, True), (1, 2, 1, False), (1, 2, 1, True)],
        )
        assert g.table(1) == ((frozenset({0, 1, 2}),), {}, {})
        with pytest.raises(NotAString, match="^\\{1,1'\\}-component of vertex 0 is not a legal string$"):
            string_stats(g, 0, 1)


def _index_1_graphs(size):
    """Every graph on the vertices 0..size-1 whose edges, all of index 1,
    join two distinct vertices, each ordered pair by no edge, a solid one,
    a primed one or both."""
    pairs = [(a, b) for a in range(size) for b in range(size) if a != b]
    for labels in product(((), (False,), (True,), (False, True)), repeat=len(pairs)):
        yield size, [(a, b, 1, p) for (a, b), ps in zip(pairs, labels) for p in ps]


def _edge_multisets(size, most):
    """Every multiset of at most ``most`` index-1 edges on the vertices
    0..size-1, loops included: repeated edges and crowded sites occur."""
    kinds = [(a, b, 1, p) for a in range(size) for b in range(size) for p in (False, True)]
    for count in range(most + 1):
        for edges in combinations_with_replacement(kinds, count):
            yield size, list(edges)


def _perturbed_strings(seed, count):
    """Legal collapsed and separated strings of 1..9 vertices, numbered in
    a random order, each with up to two random edits: an edge deleted,
    reprimed or retargeted, or a random edge added."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 9)
        separated = size > 1 and rng.random() < 0.5
        size -= separated and size % 2
        ids = rng.sample(range(size), size)
        if separated:
            upper, lower = ids[: size // 2], ids[size // 2 :]
            edges = [(a, b, 1, False) for side in (upper, lower) for a, b in zip(side, side[1:])]
            edges += [(a, b, 1, True) for a, b in zip(upper, lower)]
        else:
            edges = [(a, b, 1, p) for a, b in zip(ids, ids[1:]) for p in (False, True)]
        for _ in range(rng.randint(0, 2)):
            edit, k = rng.randrange(4), rng.randrange(len(edges) or 1)
            if edit == 3 or not edges:
                edges.append((rng.randrange(size), rng.randrange(size), 1, rng.random() < 0.5))
            elif edit == 0:
                del edges[k]
            else:
                src, dst, _, primed = edges[k]
                edges[k] = (src, dst, 1, not primed) if edit == 1 else (src, rng.randrange(size), 1, primed)
        yield size, edges


def _strings_match_the_definition(g, edges):
    """Compare every string table of g with the edge-list oracle; return
    the kinds of the legal strings of two or more members met."""
    kinds = set()
    for i in range(1, g.n):
        comps, stats, _ = g.table(i)
        place = {v: k for k, comp in enumerate(comps) for v in comp}
        edges_of = [[] for _ in comps]
        for edge in edges:
            if edge[2] == i:
                edges_of[place[edge[0]]].append(edge)
        for comp, near in zip(comps, edges_of):
            found = string_by_definition(near, comp, i)
            want = {} if found is None else stats_by_definition(*found)
            assert {v: astuple(stats[v]) for v in comp if v in stats} == want, (edges, i, comp)
            if found is not None and len(comp) > 1:
                kinds.add(found[0])
    return kinds


class TestStringShapesByDefinition:
    # the string tables against an oracle that reads only the edge tuples
    # and decides each shape, and the member order, from the definition

    def test_small_graphs_and_edge_multisets(self):
        # every index-1 graph on at most 3 vertices (4,113), and every
        # multiset of at most 3 index-1 edges on 3 vertices (1,330)
        cases = [c for size in (1, 2, 3) for c in _index_1_graphs(size)] + list(_edge_multisets(3, 3))
        assert len(cases) == 4113 + 1330
        kinds = set()
        for size, edges in cases:
            kinds |= _strings_match_the_definition(abstract_graph(2, [(0, 0)] * size, edges), edges)
        assert kinds == {False, True}

    def test_perturbed_legal_strings(self):
        kinds = set()
        for size, edges in _perturbed_strings(seed=25, count=3000):
            kinds |= _strings_match_the_definition(abstract_graph(2, [(0, 0)] * size, edges), edges)
        assert kinds == {False, True}

    def test_single_edge_mutants(self, graph_cache):
        # criterion-1 crystals and their deletions, reprimings, retargets
        # and reversed duplicates
        from test_axioms import mutant_edges

        kinds = set()
        for lam, n in (((3, 1), 3), ((4, 2, 1), 3), ((2, 1), 4)):
            g = graph_cache(lam, (), n)
            kinds |= _strings_match_the_definition(g, g.edges)
            for edges in mutant_edges(g):
                _strings_match_the_definition(CrystalGraph(g.n, g.vertices, edges), edges)
        assert kinds == {False, True}

    @pytest.mark.parametrize(
        "solid, primed",
        [
            # u0..u3 = 0..3 over a..d = 4..7: the chains from the tops u0
            # and a stop after two members, above the cycles u2-u3 and c-d
            ([(0, 1), (2, 3), (3, 2), (4, 5), (6, 7), (7, 6)], [(0, 4), (1, 6), (2, 5), (3, 7)]),
            # two chains of two, primed across: 0 -> 3 and 1 -> 2
            ([(0, 1), (2, 3)], [(0, 3), (1, 2)]),
            # a chain of three over a chain of one; the cycle 4-5 makes
            # the count of members twice the longer chain's
            ([(0, 1), (1, 2), (4, 5), (5, 4)], [(0, 3), (4, 1)]),
        ],
        ids=["cycle-backed", "crossed-pairing", "uneven-chains"],
    )
    def test_separated_rejections(self, solid, primed):
        edges = [(a, b, 1, False) for a, b in solid] + [(a, b, 1, True) for a, b in primed]
        size = 1 + max(max(a, b) for a, b, _, _ in edges)
        g = abstract_graph(2, [(0, 0)] * size, edges)
        comp = frozenset(range(size))
        assert g.table(1) == ((comp,), {}, {})
        assert graph_module._classify(g, comp, 1) is None
        assert string_by_definition(edges, comp, 1) is None
        violations = check(g, "B1")
        assert [(v.vertices, v.message) for v in violations] == [
            (tuple(range(size)), "component matches neither string shape")
        ]


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

    def test_relabelled_copy_returns_its_mapping(self, graph_cache):
        g = graph_cache((2, 1), (), 3)
        new_id = {v.id: len(g) - 1 - v.id for v in g.vertices}
        copy = CrystalGraph(
            g.n,
            tuple(GraphVertex(new_id[v.id], None, v.weight) for v in reversed(g.vertices)),
            tuple(GraphEdge(new_id[e.src], new_id[e.dst], e.index, e.primed) for e in g.edges),
        )
        assert component_isomorphic(g, copy) == new_id

    def test_different_size_or_n(self, graph_cache):
        point = abstract_graph(2, [(1, 0)], [])
        assert component_isomorphic(point, graph_cache((1,), (), 2)) is None
        assert component_isomorphic(point, abstract_graph(3, [(1, 0, 0)], [])) is None

    def test_two_sources(self):
        g = abstract_graph(2, [(1, 0), (1, 0)], [])
        assert component_isomorphic(g, g) is None

    def test_different_highest_weight(self):
        assert component_isomorphic(abstract_graph(2, [(1, 0)], []), abstract_graph(2, [(2, 0)], [])) is None

    def test_equal_weights_different_statistics(self, graph_cache):
        # ShST((1), 2) is a collapsed {1,1'}-string; the same two weights
        # joined by a primed edge alone form a separated one
        collapsed = graph_cache((1,), (), 2)
        separated = abstract_graph(2, [(1, 0), (0, 1)], [(0, 1, 1, True)])
        assert collapsed.table(1)[:2] == ((frozenset({0, 1}),), {0: StringStats(0, 1, 0, 1, 0, 1), 1: StringStats(1, 0, 1, 0, 1, 0)})
        assert separated.table(1)[:2] == ((frozenset({0, 1}),), {0: StringStats(0, 1, 0, 1, 0, 0), 1: StringStats(1, 0, 1, 0, 0, 0)})
        assert component_isomorphic(collapsed, separated) is None

    def test_out_labels_differ_below_the_top(self, graph_cache):
        # vertex 4 of ShST((2,1), 3) loses its primed 1-edge; the descent
        # reaches it only after mapping the top and its neighbours
        g = graph_cache((2, 1), (), 3)
        mutant = CrystalGraph(g.n, g.vertices, tuple(e for e in g.edges if e != (4, 6, 1, True)))
        assert len(mutant.edges) == len(g.edges) - 1
        assert {label for label, arrow in mutant.f_map.items() if 4 in arrow} != {
            label for label, arrow in g.f_map.items() if 4 in arrow
        }
        assert component_isomorphic(g, mutant) is None
        assert component_isomorphic(mutant, g) is None

    def test_weight_differs_below_the_top(self, graph_cache):
        g = graph_cache((2, 1), (), 3)
        vertices = tuple(v._replace(weight=(9, 9, 9)) if v.id == 6 else v for v in g.vertices)
        assert component_isomorphic(g, CrystalGraph(g.n, vertices, g.edges)) is None

    def test_paths_that_converge_on_one_side_only(self):
        # every string is a collapsed pair.  In c1, 0 -1-> 1 -2-> 3 and
        # 0 -2-> 2 -1-> 3 meet at 3; in c2, 2 -1-> 4 instead, and 3 gets its
        # 1-edge from 5.  3 agrees on both sides, so the descent maps it and
        # then finds f_1(2) sent to 3 in c1 but to 4 in c2.  4 and 5 of c1
        # are a 1-cycle, so c1 has one source and the sizes match
        weights = [(2, 1, 0)] + [(1, 1, 1)] * 5

        def pairs(*edges):
            return [(src, dst, i, primed) for src, dst, i in edges for primed in (False, True)]

        both = pairs((0, 1, 1), (0, 2, 2), (1, 3, 2))
        c1 = abstract_graph(3, weights, both + pairs((2, 3, 1)) + [(4, 5, 1, False), (5, 4, 1, False)])
        c2 = abstract_graph(3, weights, both + pairs((2, 4, 1), (5, 3, 1), (4, 5, 2)))
        assert [c1.stats(3, i) for i in (1, 2)] == [c2.stats(3, i) for i in (1, 2)]
        assert component_isomorphic(c1, c2) is None

    def test_descent_misses_a_vertex(self):
        # the top is a lone vertex and the rest a 1-cycle no edge leads into
        g = abstract_graph(2, [(1, 0), (1, 1), (1, 1)], [(1, 2, 1, False), (2, 1, 1, False)])
        assert highest_weight(g).id == 0
        assert component_isomorphic(g, g) is None


CROWDED_GRAPHS = {
    # (src, dst, index, primed) in no particular order, on four vertices at n = 3
    "duplicated edge": [(1, 2, 2, False), (0, 1, 1, True), (0, 1, 1, True), (0, 1, 1, False)],
    "out-crowded site": [(0, 3, 1, False), (2, 3, 2, True), (0, 1, 1, False), (0, 2, 1, False)],
    "in-crowded site": [(3, 2, 1, True), (1, 2, 2, False), (0, 2, 1, True), (1, 2, 1, True)],
    # 0 -1-> 3 leaves the crowded out-site (0, 1) and enters the crowded in-site (3, 1)
    "edge at two crowded sites": [(1, 3, 1, False), (0, 3, 1, False), (0, 2, 1, False), (2, 3, 1, True)],
}


class TestEdgeStore:
    @pytest.mark.parametrize("name", list(CROWDED_GRAPHS))
    def test_every_reader_sees_the_input_edges(self, name):
        edges = CROWDED_GRAPHS[name]
        g = abstract_graph(3, [(1, 1, 1)] * 4, edges)
        assert g.label_degree_violations()
        assert g.edges == tuple(GraphEdge(*e) for e in sorted(edges, key=lambda e: (e[0], e[2], e[3], e[1])))
        for v in range(4):
            # out-edges by (index, primed, dst), in-edges by (src, index, primed)
            assert list(g._edges((v,))) == sorted((s, i, p, d) for s, d, i, p in edges if s == v)
            assert list(g._edges((v,), into=True)) == sorted((s, i, p, d) for s, d, i, p in edges if d == v)
        doc = export_json(g)
        assert export_json(import_json(doc)) == doc
        parts = [e for c in components(g) for e in c.edges]
        assert sorted(parts) == sorted(GraphEdge(*e) for e in edges)

    def test_edges_at_two_crowded_sites_are_kept(self):
        g = abstract_graph(3, [(1, 1, 1)] * 4, CROWDED_GRAPHS["edge at two crowded sites"])
        assert (0, 1, False, "out") in g.label_degree_violations()
        assert (3, 1, False, "in") in g.label_degree_violations()
        assert 0 not in g.f_map[1, False] and 3 not in g.e_map[1, False]
        assert GraphEdge(0, 3, 1, False) in g.edges

    def test_build_and_import_make_no_edge_objects(self, monkeypatch):
        made = []

        class Counted(GraphEdge):
            def __new__(cls, *fields):
                made.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(graph_module, "GraphEdge", Counted)
        g = build_graph(make_skew_shape((3, 1)), 3)
        imported = import_json(export_json(g))
        assert made == []
        for graph in (g, imported):
            # every container the graph holds: nothing is a GraphEdge, and
            # the only lists are the per-label ones of ``_labels``
            held, stack, lists = set(), [vars(graph)], []
            while stack:
                obj = stack.pop()
                if id(obj) in held or not isinstance(obj, (dict, list, tuple, set, frozenset)):
                    continue
                held.add(id(obj))
                assert not isinstance(obj, GraphEdge)
                if type(obj) is list:
                    lists.append(obj)
                stack.extend(gc.get_referents(obj))
            assert sorted(map(id, lists)) == sorted(map(id, [graph._labels, *graph._labels]))
        assert len(g.edges) == len(made) > 0


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
    "weight-not-iterable": (_edited(((*_V0, "weight"), 5)), "bad graph JSON: weight must be list, got 5"),
    "weight-null": (_edited(((*_V1, "weight"), None)), "bad graph JSON: weight must be list, got None"),
    "weight-str": (_edited(((*_V0, "weight"), "12")), "bad graph JSON: weight must be list, got '12'"),
    "weight-missing": (_edited(((*_V1, "weight"), _DROP)), "weight vectors must all have length n"),
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
    "id-missing": (_edited(((*_V1, "id"), _DROP)), "bad graph JSON: vertex id is missing"),
    "src-str": (_edited(((*_E0, "src"), "0")), "bad graph JSON: edge src must be int, got '0'"),
    "dst-float": (_edited(((*_E0, "dst"), 1.0)), "bad graph JSON: edge dst must be int, got 1.0"),
    "index-bool": (_edited(((*_E0, "index"), True)), "bad graph JSON: edge index must be int, got True"),
    "primed-int": (_edited(((*_E0, "primed"), 0)), "bad graph JSON: edge primed must be bool, got 0"),
    "primed-missing": (_edited(((*_E0, "primed"), _DROP)), "bad graph JSON: edge primed is missing"),
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
