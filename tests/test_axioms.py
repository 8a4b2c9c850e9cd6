from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from shifted_crystals import (
    ALL_AXIOMS,
    CrystalGraph,
    check,
    check_all,
    export_json,
    import_json,
    reading_word,
)
from shifted_crystals import axioms as axioms_module
from shifted_crystals import words as words_module
from shifted_crystals.axioms import _View
from shifted_crystals.graph import GraphEdge, GraphVertex

from helpers import first_violation, rows_from_strings


def abstract_graph(n, weights, edges):
    vertices = tuple(GraphVertex(k, None, tuple(wt)) for k, wt in enumerate(weights))
    return CrystalGraph(n, vertices, tuple(GraphEdge(*e) for e in edges))


class TestCheckAll:
    def test_flagship_crystal_passes(self, graph_cache):
        report = check_all(graph_cache((4, 2, 1), (), 3))
        assert report.passed
        assert set(report.violations) == set(ALL_AXIOMS)
        assert set(report.delta_histogram) <= {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_single_vertex_vacuous(self, graph_cache):
        assert check_all(graph_cache((1,), (), 3)).passed

    def test_n4_crystal_passes(self, graph_cache):
        assert check_all(graph_cache((3, 2, 1), (), 4)).passed

    def test_imported_graph_same_report(self, graph_cache):
        g = graph_cache((3, 1), (), 3)
        g2 = import_json(export_json(g))
        r1, r2 = check_all(g), check_all(g2)
        assert r1.passed and r2.passed
        assert r1.delta_histogram == r2.delta_histogram

    def test_repeated_axioms_run_once_in_first_seen_order(self, graph_cache, monkeypatch):
        ran = []
        check = axioms_module.check
        monkeypatch.setattr(axioms_module, "check", lambda g, axiom, **kw: ran.append(axiom) or check(g, axiom, **kw))
        g = graph_cache((3, 1), (), 3)
        report = check_all(CrystalGraph(g.n, g.vertices, g.edges[:3] + g.edges[4:]), ("B1", "K", "B1"))
        assert ran == ["B1", "K"] and report.axioms == ("B1", "K")
        assert report.total_violations == len(report.violations["B1"]) == 1
        assert report.render().count("B1") == 1

    def test_render_mentions_every_axiom(self, graph_cache):
        text = check_all(graph_cache((2, 1), (), 2)).render()
        for axiom in ALL_AXIOMS:
            assert axiom in text


class TestDelta:
    def test_values_constrained(self, graph_cache):
        g = graph_cache((4, 2, 1), (), 3)
        view = _View(g)
        seen = set()
        for v in g.vertices:
            x, y = g.f(v.id, 1), g.f(v.id, 2)
            if x is not None and y is not None:
                seen.add(view.delta_at(v.id, 1, x, y))
        assert seen and seen <= {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_half_solid_square_config(self, graph_cache):
        # the top vertex of the worked half-solid-square diagram
        g = graph_cache((8, 4, 2), (), 3)
        top = rows_from_strings(["1 1 1 1 1 1 3 3", "2 2 2 3", "3 3"], 3)
        vid = next(v.id for v in g.vertices if v.word.codes == reading_word(top).codes)
        x, y = g.f(vid, 1, True), g.f(vid, 2, True)
        assert x is not None and y is not None
        assert _View(g).delta_at(vid, 1, x, y) == (0, 0)

    def test_dual_of_half_primed_square(self, graph_cache):
        g = graph_cache((4, 2, 1), (), 3)
        view = _View(g)
        found = 0
        for v in g.vertices:
            x, y = g.f(v.id, 1), g.f(v.id, 2)
            if x is None or y is None or g.f(v.id, 1, True) is not None:
                continue
            fp_y, fp_x = g.f(y, 1, True), g.f(x, 2, True)
            if fp_y is not None and fp_y == fp_x:
                found += 1
                assert view.delta_at(v.id, 1, x, y) == (1, 1)
        assert found > 0


def dual_graph(g: CrystalGraph) -> CrystalGraph:
    """Reverse all arrows and the index labels (i -> n-i), reverse weights.
    For straight shapes this graph is canonically isomorphic to the
    original, realizing the arrow-reversing involution graph-side."""
    vertices = tuple(GraphVertex(v.id, None, tuple(reversed(v.weight))) for v in g.vertices)
    edges = tuple(GraphEdge(e.dst, e.src, g.n - e.index, e.primed) for e in g.edges)
    return CrystalGraph(g.n, vertices, edges)


class TestDualSymmetry:
    @pytest.mark.parametrize("lam,n", [((2, 1), 2), ((4, 2, 1), 3), ((3, 1), 3), ((3, 2, 1), 3)])
    def test_crystal_is_self_dual(self, graph_cache, lam, n):
        from shifted_crystals import component_isomorphic

        g = graph_cache(lam, (), n)
        mapping = component_isomorphic(g, dual_graph(g))
        assert mapping is not None

    def test_self_duality_sweep(self, graph_cache):
        from helpers import strict_partitions
        from shifted_crystals import component_isomorphic, components

        checked = 0
        for size in range(1, 6):
            for lam in strict_partitions(size):
                for n in (2, 3, 4):
                    g = graph_cache(lam, (), n)
                    if len(g) == 0:
                        continue
                    assert len(components(g)) == 1
                    assert component_isomorphic(g, dual_graph(g)) is not None, (lam, n)
                    checked += 1
        assert checked > 20

    def test_configs_transport_with_delta(self, graph_cache):
        # a solid (f_i, f_{i+1}) pair at w maps to a dual (e_.., e_..) pair
        # at the involution image, and Delta transports to Delta'.
        from shifted_crystals import component_isomorphic

        # at n = 4 the index reflection i -> n-1-i is not the identity
        for lam, n in (((4, 2, 1), 3), ((4, 1), 4)):
            g = graph_cache(lam, (), n)
            mapping = component_isomorphic(g, dual_graph(g))
            view, reversed_view = _View(g), _View(g, reverse=True)
            checked = 0
            for v in g.vertices:
                for i in range(1, n - 1):
                    if g.f(v.id, i) is None or g.f(v.id, i + 1) is None:
                        continue
                    if g.f(v.id, i, True) is not None:
                        continue
                    image = mapping[v.id]
                    j = g.n - i - 1
                    assert g.e(image, j) is not None and g.e(image, j + 1) is not None
                    assert g.e(image, j + 1, True) is None
                    # Delta' at image and j is Delta on the reversed view at n-1-j = i,
                    # across the e_{j+1}-side source and the e_j-side source
                    dual = reversed_view.delta_at(image, i, g.e(image, j + 1), g.e(image, j))
                    assert view.delta_at(v.id, i, g.f(v.id, i), g.f(v.id, i + 1)) == dual
                    checked += 1
            assert checked > 0

    @pytest.mark.parametrize("lam,n", [((4, 2, 1), 3), ((3, 1), 4)])
    def test_dual_axioms_mirror_the_reversed_graph(self, graph_cache, lam, n):
        # AkD on g flags exactly the sites that Ak flags on the physically
        # reversed graph, with i <-> n-1-i, for every single-edge deletion
        # and prime flip.
        g = graph_cache(lam, (), n)
        mutants = []
        edges = g.edges
        for k, e in enumerate(edges):
            rest = edges[:k] + edges[k + 1 :]
            mutants.append(rest)
            mutants.append(rest + (GraphEdge(e.src, e.dst, e.index, not e.primed),))
        fired = 0
        for edges in mutants:
            mutant = CrystalGraph(g.n, g.vertices, edges)
            reversed_mutant = dual_graph(mutant)
            for k in range(1, 9):
                got = sorted((v.vertices, v.index) for v in check(mutant, f"A{k}D"))
                want = sorted((v.vertices, n - 1 - v.index) for v in check(reversed_mutant, f"A{k}"))
                assert got == want, (k, edges)
                fired += len(got)
        assert fired > 0


class TestStructuralCoverage:
    def test_merge_patterns_all_realized(self, graph_cache):
        """Each merge axiom's structural side occurs somewhere in the suite;
        the certifications are not vacuous."""
        graphs = [
            graph_cache((8, 4, 2), (), 3),
            graph_cache((8, 5, 2), (), 3),
            graph_cache((8, 3, 1), (), 3),
            graph_cache((8, 5, 1), (), 3),
            graph_cache((4, 2, 1), (), 3),
        ]
        seen = {k: 0 for k in ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")}
        for g in graphs:
            for v in g.vertices:
                w = v.id
                fp1, fp2 = g.f(w, 1, True), g.f(w, 2, True)
                f1, f2 = g.f(w, 1), g.f(w, 2)
                if fp1 is not None and fp2 is not None:
                    seen["A1"] += 1
                    bottom = g.f(fp2, 1)
                    if bottom is not None and bottom == g.f(fp1, 2) and g.f(fp2, 1, True) != bottom:
                        seen["A2"] += 1
                if fp1 is not None and f2 is not None and not (fp2 == f2 and f1 == fp1):
                    if g.f(f2, 1, True) is not None and g.f(f2, 1, True) == g.f(fp1, 2):
                        seen["A3"] += 1
                if f1 is not None and fp2 is not None:
                    if g.f(fp2, 1) is not None and g.f(fp2, 1) == g.f(f1, 2, True):
                        seen["A4"] += 1
                if f1 is not None and f2 is not None and fp1 is None:
                    if g.f(f2, 1, True) is not None and g.f(f2, 1, True) == g.f(f1, 2, True):
                        seen["A5"] += 1
                    if g.f(f2, 1) is not None and g.f(f2, 1) == g.f(f1, 2):
                        seen["A6"] += 1
                    a = g.f(f2, 1)
                    b = None if a is None else g.f(a, 1, True)
                    c = None if b is None else g.f(b, 2)
                    if c is not None:
                        seen["A7"] += 1
                    a2 = g.f(f2, 1)
                    b2 = None if a2 is None else g.f(a2, 1)
                    c2 = None if b2 is None else g.f(b2, 2)
                    if c2 is not None and g.f(f2, 1) != g.f(f1, 2):
                        seen["A8"] += 1
        assert all(count > 0 for count in seen.values()), seen

    def test_commuting_pairs_realized_at_n4(self, graph_cache):
        """Vertices with both a 1-ish and a 3-ish downward edge exist, so
        the far-apart commuting check is not vacuous."""
        g = graph_cache((4, 2, 1), (), 4)
        pairs = 0
        for v in g.vertices:
            down_indices = {i for (i, _), arrow in g.f_map.items() if v.id in arrow}
            if 1 in down_indices and 3 in down_indices:
                pairs += 1
        assert pairs > 0


class TestMutationsByHand:
    def test_deleting_an_edge_is_caught(self, graph_cache):
        g = graph_cache((3, 1), (), 3)
        mutated = CrystalGraph(g.n, g.vertices, g.edges[1:])
        assert first_violation(mutated) is not None

    def test_retargeting_is_caught(self, graph_cache):
        g = graph_cache((3, 1), (), 3)
        e = g.edges[0]
        other = next(v.id for v in g.vertices if v.id not in (e.src, e.dst))
        edges = (GraphEdge(e.src, other, e.index, e.primed),) + g.edges[1:]
        mutated = CrystalGraph(g.n, g.vertices, edges)
        assert first_violation(mutated) is not None

    def test_weight_preserving_swaps_need_merge_axioms(self, graph_cache):
        """Swapping the targets of two same-label edges between same-weight
        endpoints defeats the K weight law; the string shapes and merge
        axioms must (and do) catch every such corruption."""
        g = graph_cache((4, 2, 1), (), 3)
        edges = list(g.edges)
        merge_only = 0
        swaps = 0
        for a in range(len(edges)):
            for b in range(a + 1, len(edges)):
                ea, eb = edges[a], edges[b]
                if (ea.index, ea.primed) != (eb.index, eb.primed):
                    continue
                if ea.src == eb.src or ea.dst == eb.dst:
                    continue
                if g.weight(ea.src) != g.weight(eb.src) or g.weight(ea.dst) != g.weight(eb.dst):
                    continue
                swaps += 1
                mut = list(edges)
                mut[a] = GraphEdge(ea.src, eb.dst, ea.index, ea.primed)
                mut[b] = GraphEdge(eb.src, ea.dst, eb.index, eb.primed)
                report = check_all(CrystalGraph(g.n, g.vertices, tuple(mut)))
                fired = {ax for ax, v in report.violations.items() if v}
                assert fired, (ea, eb)
                assert not any(v for ax, v in report.violations.items() if ax == "K")
                if "B1" not in fired:
                    merge_only += 1
        assert swaps > 0 and merge_only > 0


class TestAbstractGraphs:
    def test_excluded_lengths_fixture(self):
        # a -1'-> w -2'-> b realizes the forbidden zero pattern at w, with
        # weights chosen to keep the K laws intact (the full axiom set is
        # unsatisfiable around this pattern: the lemma follows from it)
        g = abstract_graph(
            3,
            [(2, 1, 1), (1, 2, 1), (1, 1, 2)],
            [(0, 1, 1, True), (1, 2, 2, True)],
        )
        found = check(g, "XL")
        assert len(found) == 1 and found[0].vertices == (1,)
        assert check(g, "K") == []

    def test_weight_law_violation_caught(self):
        g = abstract_graph(2, [(1, 0), (1, 0)], [(0, 1, 1, True)])
        assert any(v.axiom == "K" for v in check(g, "K"))

    def test_unknown_axiom_rejected(self, graph_cache):
        with pytest.raises(ValueError):
            check(graph_cache((1,), (), 2), "A9")

    def test_violation_context_replayable(self):
        g = abstract_graph(2, [(1, 0), (1, 0)], [(0, 1, 1, True)])
        violation = check(g, "K")[0]
        assert "0" in violation.context and "1" in violation.context
        assert str(violation).startswith("[K]")

    def test_cycles_and_self_loops_do_not_crash(self):
        cyclic = abstract_graph(
            2,
            [(1, 1), (1, 1), (1, 1)],
            [(0, 1, 1, False), (1, 2, 1, False), (2, 0, 1, False)],
        )
        assert not check_all(cyclic).passed
        loop = abstract_graph(2, [(1, 1)], [(0, 0, 1, True)])
        assert not check_all(loop).passed


def mutant_edges(g: CrystalGraph) -> list[tuple[GraphEdge, ...]]:
    """The edge tuples of every single-edge deletion, prime flip, retarget
    to (dst + 1) % V and reversed duplicate of g."""
    size = len(g)
    edges = g.edges
    out = []
    for k, e in enumerate(edges):
        rest = edges[:k] + edges[k + 1 :]
        out.append(rest)
        out.append(rest + (GraphEdge(e.src, e.dst, e.index, not e.primed),))
        out.append(rest + (GraphEdge(e.src, (e.dst + 1) % size, e.index, e.primed),))
        out.append(edges + (GraphEdge(e.dst, e.src, e.index, e.primed),))
    return out


def edge_mutants(g: CrystalGraph) -> list[CrystalGraph]:
    """The graphs of mutant_edges(g)."""
    return [CrystalGraph(g.n, g.vertices, edges) for edges in mutant_edges(g)]


def cross_wires(g: CrystalGraph) -> list[CrystalGraph]:
    """For each index i and each two vertices with equal weight, equal
    i-statistics and the same i/i' out-labels, g with their f_i and f_i'
    targets swapped: every string keeps its shape, so the merge axioms
    A5-A8 must catch what the string axioms cannot."""
    out = []
    for i in range(1, g.n):
        labels = [(i, p) for p in (False, True)]
        groups: dict = {}
        for v in g.vertices:
            out_labels = tuple(p for _, p in labels if v.id in g.f_map[i, p])
            if out_labels:
                groups.setdefault((v.weight, g.stats(v.id, i), out_labels), []).append(v.id)
        for group in groups.values():
            for k, a in enumerate(group):
                for b in group[k + 1 :]:
                    swap = {a: b, b: a}
                    edges = tuple(
                        GraphEdge(e.src, g.f_map[e.index, e.primed][swap[e.src]], e.index, e.primed)
                        if e.index == i and e.src in swap
                        else e
                        for e in g.edges
                    )
                    out.append(CrystalGraph(g.n, g.vertices, edges))
    return out


def crowded(g: CrystalGraph, rng: random.Random) -> list[CrystalGraph]:
    """For each label with an edge, g with one of its edges doubled, with a
    second out-edge at its source and with a second in-edge at its target,
    and g with all of these at once: several edges of one label on both
    sides, at every index."""
    ids = [v.id for v in g.vertices]
    added = []
    for i in range(1, g.n):
        for primed in (False, True):
            edges = [e for e in g.edges if (e.index, e.primed) == (i, primed)]
            if edges:
                e = rng.choice(edges)
                added.append(
                    (e, GraphEdge(e.src, rng.choice(ids), i, primed), GraphEdge(rng.choice(ids), e.dst, i, primed))
                )
    graphs = [CrystalGraph(g.n, g.vertices, g.edges + (extra,)) for found in added for extra in found]
    return graphs + [CrystalGraph(g.n, g.vertices, g.edges + sum(added, ()))]


def shuffled(g: CrystalGraph, rng: random.Random) -> CrystalGraph:
    """g read back from a graph file whose vertex list is out of id order."""
    vertices = tuple(rng.sample(g.vertices, len(g)))
    return import_json(export_json(CrystalGraph(g.n, vertices, g.edges)))


def random_graphs(count: int, seed: int) -> list[CrystalGraph]:
    """Small abstract graphs with ids 3k+1; self-loops and several edges of
    one label at a vertex occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        ids = [3 * k + 1 for k in range(rng.randint(1, 8))]
        vertices = tuple(GraphVertex(v, None, tuple(rng.randint(0, 2) for _ in range(n))) for v in ids)
        edges = tuple(
            GraphEdge(rng.choice(ids), rng.choice(ids), rng.randint(1, n - 1), rng.random() < 0.5)
            for _ in range(rng.randint(0, 12))
        )
        out.append(CrystalGraph(n, vertices, edges))
    return out


def report_digest(graphs: list[CrystalGraph]) -> tuple[int, int, str]:
    """Graph count, violation count and the sha256 of every check_all report
    (runtime line dropped) and of every violation's str and context."""
    digest = hashlib.sha256()
    violations = 0
    for g in graphs:
        report = check_all(g)
        text = "\n".join(line for line in report.render().splitlines() if not line.startswith("runtime:"))
        digest.update(text.encode())
        for axiom in report.axioms:
            for v in report.violations[axiom]:
                digest.update(f"{v}\n{v.context}\n".encode())
                violations += 1
    return len(graphs), violations, digest.hexdigest()


class TestGoldenDigest:
    # any change to what the checker reports on these graphs changes the digest

    def test_reports_are_unchanged(self, graph_cache):
        graphs = edge_mutants(graph_cache((4, 2, 1), (), 3)) + edge_mutants(graph_cache((3, 1), (1,), 3))
        graphs += random_graphs(300, seed=0)
        assert report_digest(graphs) == (
            628,
            8520,
            "51fbcab9fb8fd83a3bd378636618a7decdce8d73658b9772da33040b01d1744c",
        )

    def test_reports_are_unchanged_where_index_order_shows(self, graph_cache):
        # n >= 4 gives several A-site indices per vertex, so the order in
        # which each view visits them is pinned too
        graphs = edge_mutants(graph_cache((2, 1), (), 4)) + edge_mutants(graph_cache((2, 1), (), 5))
        graphs += [g for g in random_graphs(600, seed=1) if g.n == 4]
        assert report_digest(graphs) == (
            775,
            11973,
            "a0458f8111de04c43b8d77e7aba2770903f795841ff997b2f2631083f6a740fa",
        )

    def test_reports_are_unchanged_where_vertex_and_edge_order_show(self, graph_cache):
        # vertex lists out of id order, duplicated edges and crowded sites at
        # every index, and mutants at n = 5 and 6 on which B2, A1-A8 and
        # their duals fire, so the order of every kind of violation is pinned
        rng = random.Random(2)
        straight5, straight6 = graph_cache((3, 1), (), 5), graph_cache((2, 1), (), 6)
        graphs = [CrystalGraph(5, straight5.vertices, edges) for edges in mutant_edges(straight5)[::16]]
        graphs += [CrystalGraph(6, straight6.vertices, edges) for edges in mutant_edges(straight6)[3::7]]
        graphs += cross_wires(straight5)
        graphs += crowded(straight5, rng) + crowded(straight6, rng) + crowded(graph_cache((3, 1), (1,), 5), rng)
        graphs = [shuffled(g, rng) for g in graphs]
        assert report_digest(graphs) == (
            370,
            5820,
            "b1a3b14899dd93bdc4b5e0f3518a8aac69630fb3a9a5bfb59e5ed618992ba4e6",
        )


class TestContextLines:
    def test_each_vertex_line_is_rendered_once_per_report(self, graph_cache, monkeypatch):
        # the contexts of one edge's violations, and of their duals, share
        # most of their vertices: rendered per context, a word was spelled
        # 166 times here, one vertex's 5 times
        g = graph_cache((3, 1), (), 5)
        edges = g.edges
        k = len(edges) // 2
        mutant = CrystalGraph(g.n, g.vertices, edges[:k] + edges[k + 1 :])
        spelled = Counter()
        spell = words_module.codes_to_str
        monkeypatch.setattr(words_module, "codes_to_str", lambda codes: spelled.update([codes]) or spell(codes))
        report = check_all(mutant)
        assert report.total_violations == 5 and len(spelled) == 47
        assert set(spelled.values()) == {1}
        spelled.clear()
        check_all(mutant)  # a new report renders its own lines
        assert len(spelled) == 47


class TestSeveralEdgesOfOneLabel:
    def test_sites_are_recorded_once_and_read_as_no_arrow(self):
        # vertex 0 has two out-edges labeled 1, vertex 4 two in-edges labeled 1'
        g = abstract_graph(
            2,
            [(1, 1)] * 5,
            [(0, 1, 1, False), (0, 2, 1, False), (2, 4, 1, True), (3, 4, 1, True)],
        )
        assert g.f(0, 1) is None and g.e(4, 1, True) is None
        assert g.e(1, 1) == 0 and g.f(3, 1, True) == 4
        assert g.label_degree_violations() == [(0, 1, False, "out"), (4, 1, True, "in")]
        assert [(v.vertices, v.message) for v in check(g, "B1")] == [
            ((0,), "several out edges labeled 1"),
            ((4,), "several in edges labeled 1'"),
            ((0, 1, 2, 3, 4), "component matches neither string shape"),
        ]
        assert g.table(1) == ((frozenset(range(5)),), {}, {})
        assert all(g.stats(v, 1) is None for v in range(5))


class TestReadsBindMaps:
    def test_no_graph_accessor_runs_per_read(self, graph_cache, monkeypatch):
        g = graph_cache((4, 3, 2, 1), (), 5)
        edges = g.edges
        k = len(edges) // 2
        mutant = CrystalGraph(g.n, g.vertices, edges[:k] + edges[k + 1 :])
        calls = []
        running = [None]
        check = axioms_module.check

        def checking(graph, axiom, **kw):
            running[0] = axiom
            return check(graph, axiom, **kw)

        def counting(name):
            original = getattr(CrystalGraph, name)

            def counted(self, *args, **kwargs):
                calls.append((name, running[0]))
                return original(self, *args, **kwargs)

            return counted

        for name in ("stats", "f", "e"):
            monkeypatch.setattr(CrystalGraph, name, counting(name))
        monkeypatch.setattr(axioms_module, "check", checking)
        assert not check_all(mutant).passed
        assert calls == []

    def test_views_premise_lists_and_edge_passes_are_shared(self, graph_cache, monkeypatch):
        # one check_all builds a forward and a reversed view, computes Delta
        # once per pair site of each, and the edge axioms and the edge count
        # read the label maps, not the per-vertex edge lists
        g = graph_cache((4, 3, 2, 1), (), 5)
        edges = g.edges
        k = len(edges) // 2
        mutant = CrystalGraph(g.n, g.vertices, edges[:k] + edges[k + 1 :])
        running = ["check_all"]
        views, deltas, edge_reads = [], [], []
        check, context = axioms_module.check, axioms_module._context
        init, delta_at, read_edges = _View.__init__, _View.delta_at, CrystalGraph._edges

        def within(name, fn, *args, **kwargs):
            outer, running[0] = running[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                running[0] = outer

        def counted_init(self, *args, **kwargs):
            views.append(self)
            init(self, *args, **kwargs)

        def counted_delta(self, w, i, x, y):
            deltas.append((self, running[0], w, i, x, y))
            return delta_at(self, w, i, x, y)

        def counted_edges(self, *args, **kwargs):
            edge_reads.append(running[0])
            return read_edges(self, *args, **kwargs)

        monkeypatch.setattr(axioms_module, "check", lambda graph, axiom, **kw: within(axiom, check, graph, axiom, **kw))
        monkeypatch.setattr(axioms_module, "_context", lambda graph, ids: within("context", context, graph, ids))
        monkeypatch.setattr(_View, "__init__", counted_init)
        monkeypatch.setattr(_View, "delta_at", counted_delta)
        monkeypatch.setattr(CrystalGraph, "_edges", counted_edges)
        report = check_all(mutant)
        assert report.violations["B2"] and "context" in edge_reads
        assert not {"B2", "B3", "K", "L_CAS", "L_CF1", "check_all"} & set(edge_reads)
        assert len(views) == 2 and views[0].indices != views[1].indices
        for view in views:
            # A2 and A2D read Delta at the f_i' and f_{i+1}' targets, off the lists
            sites = [(w, i, x, y) for v, axiom, w, i, x, y in deltas if v is view and axiom not in ("A2", "A2D")]
            assert sites and len({site[:2] for site in sites}) == len(sites)
            assert all((view.f[i].get(w), view.f[i + 1].get(w)) == (x, y) for w, i, x, y in sites)
