"""Edge-labeled weighted crystal graphs over ShST(shape, n).

Vertices are reading words (ids dense in enumeration order); each vertex
carries its weight vector.  Only F-edges are stored: E operators follow
the reversed edges, and build_graph checks that E, read through eta,
agrees with the stored reversals, raising InternalInconsistency when it
does not.  The edges live only in one map per label (i, primed) from a
vertex to its f target and one to its e source.  The first use of index
i builds its string table: the {i,i'}-components, each walked once, and
the six length statistics of every member of a legal string, read off its
place in the chain, with their duals.  A string's kind, top and bottom
are read off these statistics, so nothing else about it is kept.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import (
    BrokenSemistandard,
    InternalInconsistency,
    MalformedGraph,
    NotAString,
    NotStrictWeight,
    NotUnique,
)
from .ops import OpKind, _check_index, apply, eta_subword, subword, write_back
from .tableaux import SkewShape, enumerate_tableaux, reading_word
from .words import _INT, Word, _check_bound, codes_to_str, parse_codes, weight_of_codes

StringTable = tuple[tuple[frozenset[int], ...], dict[int, "StringStats"], dict[int, "StringStats"]]  # see table()


GraphVertex = namedtuple("GraphVertex", "id word weight")  # int, Word or None (a graph file may omit it), tuple of ints
GraphEdge = namedtuple("GraphEdge", "src dst index primed")  # an f-edge src -> dst: ids, int index, bool primed


def edge_label(index: int, primed: bool) -> str:
    """The label of an edge: i, or i' when primed."""
    return f"{index}'" if primed else str(index)


@dataclass(frozen=True)
class StringStats:
    """Distances to the top (eps side) and bottom (phi side) of the
    {i,i'}-string: total, primed-edge, and unprimed-edge counts.

    On a collapsed string every edge carries both labels, so the primed-only
    and unprimed-only counts each equal the total; on a separated string the
    total splits as eps = eps_prime + eps_hat with eps_prime, phi_prime in
    {0, 1}.
    """

    eps: int
    phi: int
    eps_prime: int
    phi_prime: int
    eps_hat: int
    phi_hat: int

    @property
    def dual(self) -> StringStats:
        """The same string read with every arrow reversed: eps and phi swap,
        and so do their primed and hat parts."""
        return StringStats(self.phi, self.eps, self.phi_prime, self.eps_prime, self.phi_hat, self.eps_hat)

    @property
    def collapsed(self) -> bool:
        """Whether every edge of the string carries both labels: eps = eps_hat and phi = phi_hat."""
        return self.eps == self.eps_hat and self.phi == self.phi_hat


def _member_stats(collapsed: bool, size: int) -> list[StringStats]:
    """The statistics of the members of a legal string of this kind and
    size, in chain order, the upper chain first on a separated string."""
    if collapsed:
        m = size - 1
        return [StringStats(j, m - j, j, m - j, j, m - j) for j in range(size)]
    m = size // 2 - 1
    upper = [StringStats(j, m - j + 1, 0, 1, j, m - j) for j in range(m + 1)]
    return upper + [StringStats(j + 1, m - j, 1, 0, j, m - j) for j in range(m + 1)]


class CrystalGraph:
    """Immutable but for the memoised per-index string tables.

    The label maps, filled in one pass over the (src, dst, index, primed)
    tuples given, are the one store of edges: ``f_map[i, primed]`` sends a
    vertex to its only f target along that label, ``e_map[i, primed]`` to
    its only e source.  A site with several edges of one label on one side
    is left out of that map; the side record ``_side`` holds it with the
    sorted other ends of its edges, and ``label_degree_violations()`` lists
    it.  ``edges`` and the edges at a vertex are read off both on demand.
    """

    def __init__(self, n: int, vertices: tuple[GraphVertex, ...], edges: Iterable[tuple[int, int, int, bool]]):
        self.n = n
        self.vertices = tuple(vertices)
        self.by_id = by_id = {v.id: v for v in self.vertices}
        if len(by_id) != len(self.vertices):
            raise MalformedGraph("duplicate vertex ids")
        self.f_map = f_map = {(i, p): {} for i in range(1, n) for p in (False, True)}
        self.e_map = e_map = {label: {} for label in f_map}
        side, bad = {}, []  # side: (vertex, i, primed, "out" or "in") -> other ends
        for edge in edges:
            src, dst, index, primed = edge
            down = f_map.get((index, primed))
            if down is None or src not in by_id or dst not in by_id:
                bad.append(edge)
                continue
            up = e_map[index, primed]
            if src in down or side and (src, index, primed, "out") in side:  # a crowded site moves to the side record
                side.setdefault((src, index, primed, "out"), [down.pop(src)] if src in down else []).append(dst)
            else:
                down[src] = dst
            if dst in up or side and (dst, index, primed, "in") in side:
                side.setdefault((dst, index, primed, "in"), [up.pop(dst)] if dst in up else []).append(src)
            else:
                up[dst] = src
        if bad:  # name the first in the order of ``edges``
            src, dst, index, primed = min(bad, key=lambda e: (e[0], e[2], e[3], e[1]))
            if src not in by_id or dst not in by_id:
                raise MalformedGraph(f"edge {GraphEdge(src, dst, index, primed)} references a missing vertex")
            raise MalformedGraph(f"edge index {index} outside 1..{n - 1}")
        for ends in side.values():
            ends.sort()
        self._side = side
        self._crowded_at = {i: {v for v, j, _, _ in side if j == i} for i in range(1, n)}
        self._crowded = {v for v, *_ in side}
        self._labels = [[(*label, arrows[label]) for label in arrows] for arrows in (f_map, e_map)]
        self._tables: dict[int, StringTable] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple[GraphEdge, ...]:
        """Every edge by (src, index, primed, dst), duplicates kept; built on each read."""
        return tuple(GraphEdge(src, dst, i, p) for src, i, p, dst in self._edges())

    def _edges(self, vids: Iterable[int] | None = None, into: bool = False) -> Iterator[tuple[int, int, bool, int]]:
        """Edges as (src, index, primed, dst) off the label maps and the side
        record, out of (into: into) each of vids in turn, or every vertex by id;
        each vertex's edges sorted, duplicates kept, so all out-edges are ``edges``."""
        labels, side, end, crowded = self._labels[into], self._side, "in" if into else "out", self._crowded
        for v in sorted(self.by_id) if vids is None else vids:
            if v in crowded:
                ends = [(i, p, side.get((v, i, p, end), [arrow[v]] if v in arrow else ())) for i, p, arrow in labels]
                yield from sorted((u, i, p, v) if into else (v, i, p, u) for i, p, us in ends for u in us)
            elif into:  # at most one edge per label: in-edges sort by source
                yield from sorted([(arrow[v], i, p, v) for i, p, arrow in labels if v in arrow])
            else:  # at most one edge per label, met in order
                for i, p, arrow in labels:
                    if v in arrow:
                        yield v, i, p, arrow[v]

    def edge_count(self) -> int:
        """The number of edges, duplicates counted: the label maps' and the side record's."""
        crowded = sum(len(ends) for (*_, end), ends in self._side.items() if end == "out")
        return sum(map(len, self.f_map.values())) + crowded

    def weight(self, vid: int) -> tuple[int, ...]:
        return self.by_id[vid].weight

    def f(self, vid: int, i: int, primed: bool = False) -> int | None:
        """f_i (primed: f_i') of vid, or None when undefined; InvalidIndex
        unless i is an int in 1..n-1, then KeyError unless vid is a vertex."""
        _check_index(i, self.n)
        if (found := self.f_map[i, primed].get(vid)) is None and vid not in self.by_id:
            raise KeyError(vid)
        return found

    def e(self, vid: int, i: int, primed: bool = False) -> int | None:
        """e_i (primed: e_i') of vid, or None when undefined; InvalidIndex
        unless i is an int in 1..n-1, then KeyError unless vid is a vertex."""
        _check_index(i, self.n)
        if (found := self.e_map[i, primed].get(vid)) is None and vid not in self.by_id:
            raise KeyError(vid)
        return found

    def label_degree_violations(self) -> list[tuple[int, int, bool, str]]:
        return sorted(self._side)

    def reach(self, vid: int, i: int | None = None) -> frozenset[int]:
        """Vertices weakly connected to vid (KeyError unless a vertex), along
        every edge or, given i (InvalidIndex unless an int in 1..n-1), along
        the edges of index i only.  A vertex's neighbours are met in the
        order of its out-edges, then of its in-edges."""
        if i is not None:
            _check_index(i, self.n)
        if vid not in self.by_id:
            raise KeyError(vid)
        indices, labels = (range(1, self.n), self.f_map) if i is None else ((i,), ((i, False), (i, True)))
        downs, ups = [self.f_map[label] for label in labels], [self.e_map[label] for label in labels]
        crowded = self._crowded if i is None else self._crowded_at[i]
        seen = {vid}
        stack = [vid]
        while stack:
            v = stack.pop()
            if v in crowded:
                ends = [dst for _, j, _, dst in self._edges((v,)) if j in indices]
                ends += [src for src, j, _, _ in self._edges((v,), True) if j in indices]
            else:  # one edge at most per label and side; in-edges are met by source
                ends = [arrow[v] for arrow in downs if v in arrow] + sorted([arrow[v] for arrow in ups if v in arrow])
            for u in ends:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return frozenset(seen)

    def table(self, i: int) -> StringTable:
        """The string table of index i: its {i,i'}-components, in order of
        their first vertex; every vertex on a legal {i,i'}-string to its
        statistics, and those to their duals (StringStats.dual).  A component
        that matches neither legal shape has no statistics.  Built on the
        first use of i, one ``reach`` per component, and published whole;
        strings of one kind and size share one list of statistics and one of
        duals.  InvalidIndex unless i is an int in 1..n-1."""
        _check_index(i, self.n)
        table = self._tables.get(i)
        if table is None:
            comps, stats, duals, shared = [], {}, {}, {}  # shared: (collapsed, size) -> statistics, duals
            for comp in _walk(self, i):
                comps.append(comp)
                shape = _classify(self, comp, i)
                if shape is None:
                    continue
                collapsed, members = shape
                key = collapsed, len(members)
                if key not in shared:
                    found = _member_stats(*key)
                    shared[key] = found, [s.dual for s in found]
                found, dual = shared[key]
                stats.update(zip(members, found))
                duals.update(zip(members, dual))
            table = self._tables[i] = (tuple(comps), stats, duals)
        return table

    def stats(self, vid: int, i: int) -> StringStats | None:
        """Statistics of vid on its {i,i'}-string, or None when that string
        matches neither legal shape; KeyError when vid is not a vertex."""
        found = self.table(i)[1].get(vid)
        if found is None and vid not in self.by_id:
            raise KeyError(vid)
        return found


def _walk(g: CrystalGraph, i: int | None = None) -> Iterator[frozenset[int]]:
    """The weakly connected components of g or, given i, its
    {i,i'}-components, in order of their first vertex: one ``reach`` each."""
    seen: set[int] = set()
    for v in g.vertices:
        if v.id not in seen:
            comp = g.reach(v.id, i)
            seen |= comp
            yield comp


def _classify(g: CrystalGraph, comp: frozenset[int], i: int) -> tuple[bool, tuple[int, ...]] | None:
    """Whether comp is a collapsed {i,i'}-string, and its members in chain
    order, the upper chain first; None when it is not a legal string.  Its
    solid chains run down from its tops, the members no solid edge enters;
    off a crowded site they meet no member twice, so a walk that stops early
    leaves a member out.  Collapsed: one top, each primed edge beside a
    solid one.  Separated: two tops, the upper primed onto the lower and so
    on down in lockstep, no lower member primed out."""
    if not g._crowded_at[i].isdisjoint(comp):
        return None
    solid, primed = g.f_map[i, False], g.f_map[i, True]
    tops = [v for v in comp if v not in g.e_map[i, False]]
    if len(tops) == 1:
        chain, v = [], tops[0]
        while v is not None and primed.get(v) == solid.get(v):
            chain.append(v)
            v = solid.get(v)
        return (True, tuple(chain)) if len(chain) == len(comp) else None
    if len(tops) != 2:
        return None
    upper, lower = tops if primed.get(tops[0]) == tops[1] else tops[::-1]
    uppers, lowers = [], []
    while upper is not None and lower is not None and primed.get(upper) == lower and lower not in primed:
        uppers.append(upper)
        lowers.append(lower)
        upper, lower = solid.get(upper), solid.get(lower)
    return (False, tuple(uppers + lowers)) if 2 * len(uppers) == len(comp) else None


def string_stats(g: CrystalGraph, vid: int, i: int) -> StringStats:
    """Statistics of vid on its {i,i'}-string; raises NotAString when that
    string matches neither legal shape."""
    stats = g.stats(vid, i)
    if stats is None:
        raise NotAString(f"{{{i},{i}'}}-component of vertex {vid} is not a legal string")
    return stats


def build_graph(shape: SkewShape, n: int) -> CrystalGraph:
    """Crystal over enumerate_tableaux(shape, n) with all F_i / F_i' edges.

    The vertex words are the tableaux's reading words, which
    ``ShiftedTableau`` validated once.  Each site (vertex, i) is scanned
    once for its relabeled {i,i+1}-subword.  A memo local to the build maps
    each such subword k, and eta(k) as ``eta_subword`` reads it, to
    (F(k), F'(k)): ``apply`` of F_1 and F_1', which validates the results,
    to ``Word(k, 2)``, or to the vertex's own word when k is its codes (at
    i = 1, whenever every letter is 1', 1, 2' or 2, so at every site of an
    n = 2 build).  E is F read through eta, so the build applies no E.
    A result written back into the vertex's codes must be a vertex, or
    BrokenSemistandard is raised.  E agrees with the reversed edges when
    every site subword k with F(k) = t has E(t) = k and E is defined at as
    many sites as there are edges, for then F is injective; otherwise the
    first site where they disagree raises InternalInconsistency.
    """
    tableaux = enumerate_tableaux(shape, n)
    weights: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per distinct weight
    vertices = tuple(
        GraphVertex(k, reading_word(t), weights.setdefault(wt := t.weight(), wt)) for k, t in enumerate(tableaux)
    )
    del tableaux, weights  # the vertices hold their words; the tableaux go before the edges are found
    ids = {v.word.codes: v.id for v in vertices}
    memo: dict[tuple[int, ...], list] = {}  # subword k -> [F(k), F'(k), number of sites with subword k]
    lowering = (OpKind("F", 1), OpKind("F'", 1))

    def evaluate(word: Word) -> list:
        outs = [apply(kind, word) for kind in lowering]
        return [None if out is None else out.codes for out in outs] + [0]

    def lowered():
        for v in vertices:
            codes = v.word.codes
            for i in range(1, n):
                sub, pos = subword(codes, i)
                outs = memo.get(sub) or memo.setdefault(sub, evaluate(v.word if sub is codes else Word(sub, 2)))
                outs[2] += 1
                for primed in (False, True):
                    if outs[primed] is not None:
                        out = write_back(codes, pos, outs[primed], i)
                        if out not in ids:
                            kind = OpKind("F'" if primed else "F", i)
                            raise BrokenSemistandard(f"{kind}({v.word}) = {codes_to_str(out)} left ShST({shape}, {n})")
                        yield v.id, ids[out], i, primed

    g = CrystalGraph(n, vertices, lowered())
    flip = {k: eta_subword(k) for k in memo}  # E(t) = k exactly where F(eta(t)) = eta(k)
    for flipped in flip.values():
        if flipped not in memo:
            memo[flipped] = evaluate(Word(flipped, 2))
    edges = sum(memo[k][2] * (2 - memo[k][:2].count(None)) for k in flip)
    raised_sites = sum(memo[k][2] * (2 - memo[f][:2].count(None)) for k, f in flip.items())
    agree = raised_sites == edges and all(
        t is None or memo[flip[t]][primed] == f for k, f in flip.items() for primed, t in enumerate(memo[k][:2])
    )
    if not agree:
        word, i, primed = _disagreement(g, ids, memo)
        family = "E'" if primed else "E"
        raise InternalInconsistency(f"{family}_{i}({word}) inconsistent with stored edges")
    return g


def _disagreement(g: CrystalGraph, ids: dict, memo: dict) -> tuple[Word, int, bool]:
    """The first site (word, i, primed) where E, read off the memo, disagrees
    with the reversed edges, or else a vertex two edges of one label enter."""
    for v in g.vertices:
        codes = v.word.codes
        for i in range(1, g.n):
            sub, pos = subword(codes, i)
            for primed, up in enumerate(memo[eta_subword(sub)][:2]):
                source = None if up is None else ids.get(write_back(codes, pos, eta_subword(up), i), -1)
                if g.e_map[i, primed].get(v.id) != source:
                    return v.word, i, bool(primed)
    vid, i, primed, _ = g.label_degree_violations()[0]
    return g.by_id[vid].word, i, primed


def component_labels(g: CrystalGraph) -> tuple[dict[int, int], int]:
    """Each vertex id mapped to the number of its weakly connected
    component, numbered in order of smallest vertex id, and the count."""
    comp_of: dict[int, int] = {}
    count = 0
    for comp in _walk(g):
        comp_of.update(dict.fromkeys(comp, count))
        count += 1
    return comp_of, count


def components(g: CrystalGraph) -> list[CrystalGraph]:
    """Partition by weak connectivity, in order of smallest vertex id."""
    comp_of, count = component_labels(g)
    vertices: list[list[GraphVertex]] = [[] for _ in range(count)]
    edges: list[list[tuple[int, int, int, bool]]] = [[] for _ in range(count)]
    for v in g.vertices:
        vertices[comp_of[v.id]].append(v)
    for src, i, primed, dst in g._edges():
        edges[comp_of[src]].append((src, dst, i, primed))
    return [CrystalGraph(g.n, tuple(vs), tuple(es)) for vs, es in zip(vertices, edges)]


def is_strict_padded(weight: tuple[int, ...]) -> bool:
    for a, b in zip(weight, weight[1:]):
        if a < b or (a > 0 and a == b):
            return False
    return True


def _sources(g: CrystalGraph) -> list[GraphVertex]:
    """The vertices no edge enters, in vertex order."""
    entered = {dst for *_, dst in g._edges()}
    return [v for v in g.vertices if v.id not in entered]


def _highest(sources: list[GraphVertex]) -> GraphVertex:
    if len(sources) != 1:
        raise NotUnique(f"component has {len(sources)} source vertices")
    if not is_strict_padded(sources[0].weight):
        raise NotStrictWeight(f"highest weight {sources[0].weight} is not strictly decreasing")
    return sources[0]


def highest_weight(component: CrystalGraph) -> GraphVertex:
    """The unique source vertex; its weight must be a strict partition
    padded with zeros."""
    return _highest(_sources(component))


def highest_weights(g: CrystalGraph) -> list[GraphVertex]:
    """highest_weight of every component, in components() order, read off
    one component_labels() without building the components."""
    comp_of, count = component_labels(g)
    sources: list[list[GraphVertex]] = [[] for _ in range(count)]
    for v in _sources(g):
        sources[comp_of[v.id]].append(v)
    return [_highest(found) for found in sources]


def component_isomorphic(c1: CrystalGraph, c2: CrystalGraph) -> dict[int, int] | None:
    """Canonical isomorphism by synchronized descent from the two maxima,
    checking weights and all six statistics pointwise; None on any mismatch."""
    if len(c1) != len(c2) or c1.n != c2.n:
        return None
    try:
        g1, g2 = highest_weight(c1), highest_weight(c2)
    except (NotUnique, NotStrictWeight):
        return None
    if g1.weight != g2.weight:
        return None
    n = c1.n

    def agrees(v1: int, v2: int) -> bool:
        if c1.weight(v1) != c2.weight(v2):
            return False
        for i in range(1, n):
            s1 = c1.stats(v1, i)
            if s1 is None or s1 != c2.stats(v2, i):
                return False
        return True

    if not agrees(g1.id, g2.id):
        return None
    mapping = {g1.id: g2.id}
    queue = deque([g1.id])
    while queue:
        v1 = queue.popleft()
        v2 = mapping[v1]
        for label, down in c1.f_map.items():  # v1 and v2 agree, so they have the same out-labels
            t1 = down.get(v1)
            if t1 is None:
                continue
            t2 = c2.f_map[label][v2]
            if t1 in mapping:
                if mapping[t1] != t2:
                    return None
                continue
            if not agrees(t1, t2):
                return None
            mapping[t1] = t2
            queue.append(t1)
    if len(mapping) != len(c1) or len(set(mapping.values())) != len(c2):
        return None
    return mapping


_VERTEX = '{\n      "id": %d,\n      "word": %s,\n      "weight": %s\n    }'
_EDGE = '{\n      "src": %d,\n      "dst": %d,\n      "index": %d,\n      "primed": %s\n    }'
_EDGE_KEYS = ("src", "dst", "index", "primed")
_EDGE_TYPES = (int, int, int, bool)


def _json_chunks(g: CrystalGraph) -> Iterator[str]:
    """export_json's text in pieces, one per vertex and per edge, so that a
    writer never holds the whole document.  Each vertex and each edge fills
    one template; only the word strings go through ``json.dumps``."""
    vertices = (
        _VERTEX % (v.id, "null" if v.word is None else json.dumps(str(v.word)), _weight_json(v.weight))
        for v in g.vertices
    )
    edges = (_EDGE % (src, dst, i, "true" if primed else "false") for src, i, primed, dst in g._edges())
    yield '{\n  "n": %d' % g.n
    for key, items in (("vertices", vertices), ("edges", edges)):
        head = f',\n  "{key}": ['
        sep = head + "\n    "
        for item in items:
            yield sep + item
            sep = ",\n    "
        yield "\n  ]" if sep == ",\n    " else head + "]"
    yield "\n}\n"


def _weight_json(weight: tuple[int, ...]) -> str:
    """A weight vector as ``json.dumps(indent=2)`` writes it inside a vertex."""
    return "[\n        " + ",\n        ".join(map(str, weight)) + "\n      ]" if weight else "[]"


def export_json(g: CrystalGraph) -> str:
    """The graph as ``json.dumps(data, indent=2) + "\\n"`` writes it, byte for
    byte, where data is ``{"n", "vertices": [{"id", "word", "weight"}, ...],
    "edges": [{"src", "dst", "index", "primed"}, ...]}`` with the ints and
    bools GraphVertex and GraphEdge declare, and null for a missing word."""
    return "".join(_json_chunks(g))


def _exact(value, kind: type, what: str) -> None:
    """Raise unless the type of value is exactly kind, so that neither True
    passes as an int nor 0.7 or "false" is coerced."""
    if type(value) is not kind:
        raise MalformedGraph(f"{what} must be {kind.__name__}, got {value!r}")


def _required(item: dict, key: str, kind: type, what: str) -> None:
    """Raise unless item has key and its value is exactly of type kind."""
    if key not in item:
        raise MalformedGraph(f"{what} is missing")
    _exact(item[key], kind, what)


def import_json(text: str) -> CrystalGraph:
    """The graph of an export_json document.  The first defect met raises
    MalformedGraph: the top level, every weight entry, ``n`` (the length of
    the first weight when absent) and its sign, each vertex's word and id,
    each edge's fields in key order, the weight lengths, CrystalGraph's
    checks, then, vertex by vertex, that no weight entry is negative and
    that a vertex with a word has that word's weight.  Each input is let go
    once read: the text after parsing, the vertex list before the edges are
    read, the edge list before the graph is built, and equal weights share
    one tuple.  The text is freed only if the caller holds no other
    reference to it; on Python 3.10 the caller's stack keeps an argument
    such as ``import_json(handle.read())`` until the call returns."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedGraph(f"invalid JSON: {exc}") from exc
    del text
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise MalformedGraph("graph JSON needs 'vertices' and 'edges'")
    raw_vertices, raw_edges, n = data["vertices"], data["edges"], data.get("n")
    del data
    for key, items in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(items, list) or not {dict}.issuperset(map(type, items)):  # json.loads makes no dict subclass
            raise MalformedGraph(f"'{key}' must be a list of objects")
    del items  # the loop's last binding would keep the edge objects
    try:
        weights, shared = [], {}  # shared: each distinct weight to its one tuple
        for v in raw_vertices:
            _exact(wt := v.get("weight", []), list, "weight")
            wt = tuple(wt)
            if not _INT.issuperset(map(type, wt)):
                for x in wt:
                    _exact(x, int, "weight entry")
            weights.append(shared.setdefault(wt, wt))
        if n is None:
            n = len(weights[0]) if weights else 0
        if type(n) is not int:
            _exact(n, int, "n")
        _check_bound(n)
        vertices = []
        for v, wt in zip(raw_vertices, weights):
            word = v.get("word")
            if word is not None:
                if type(word) is not str:
                    _exact(word, str, "word")
                word = Word(parse_codes(word), n)
            vid = v.get("id")
            if type(vid) is not int:
                _required(v, "id", int, "vertex id")
            vertices.append(GraphVertex(vid, word, wt))
        del raw_vertices
        edges = []
        for e in raw_edges:
            fields = tuple(map(e.get, _EDGE_KEYS))
            if tuple(map(type, fields)) != _EDGE_TYPES:
                for key, kind in zip(_EDGE_KEYS, _EDGE_TYPES):
                    _required(e, key, kind, f"edge {key}")
            edges.append(fields)
        del raw_edges
    except (TypeError, ValueError) as exc:
        raise MalformedGraph(f"bad graph JSON: {exc}") from exc
    if not {n}.issuperset(map(len, weights)):
        raise MalformedGraph("weight vectors must all have length n")
    del weights
    g = CrystalGraph(n, tuple(vertices), edges)
    for v in g.vertices:
        if v.weight and min(v.weight) < 0:
            raise MalformedGraph(f"vertex {v.id} has a negative weight entry: {list(v.weight)}")
        if v.word is not None and (wt := weight_of_codes(v.word.codes, n)) != v.weight:
            raise MalformedGraph(f"vertex {v.id} has weight {list(v.weight)} but its word {v.word} has weight {list(wt)}")
    return g


def _dot_chunks(g: CrystalGraph) -> Iterator[str]:
    """export_dot's text, one line per chunk."""
    yield "digraph crystal {\n"
    for v in g.vertices:
        word = "" if v.word is None else str(v.word)
        wt = ",".join(map(str, v.weight))
        label = f"{word}\\n({wt})" if word else f"({wt})"
        yield f'  v{v.id} [label="{label}"];\n'
    for src, i, primed, dst in g._edges():
        style = "dashed" if primed else "solid"
        yield f'  v{src} -> v{dst} [label="{edge_label(i, primed)}", style={style}];\n'
    yield "}\n"


def export_dot(g: CrystalGraph) -> str:
    """DOT text: solid edges unprimed, dashed primed, labels i or i'."""
    return "".join(_dot_chunks(g))
