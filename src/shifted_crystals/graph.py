"""Edge-labeled weighted crystal graphs over ShST(shape, n).

Vertices are reading words (ids dense in enumeration order); each vertex
carries its weight vector.  Only F-edges are stored: E operators follow
the reversed edges, and build_graph checks that E, read through eta,
agrees with the stored reversals, raising InternalInconsistency when it
does not.  Per label (i, primed) the graph keeps one map from a vertex to
its f target and one to its e source.  {i,i'}-components are classified
into the two legal string shapes once per index: the first use of index i
walks each component once, classifies it, and reads all six length
statistics of every member off its shape, into one table that is
published whole together with the vertex->statistics map and its dual.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from dataclasses import dataclass
from operator import attrgetter

from .errors import (
    BrokenSemistandard,
    InternalInconsistency,
    MalformedGraph,
    NotAString,
    NotStrictWeight,
    NotUnique,
)
from .ops import OpKind, _check_index, apply, eta_subword, subword, write_back
from .tableaux import SkewShape, enumerate_tableaux
from .words import _INT, Word, codes_to_str, parse_codes, weight_of_codes

StringEntry = tuple[frozenset[int], "StringShape | None", "StringStats | None"]  # see table()
StringTable = tuple[dict[int, StringEntry], dict[int, "StringStats"], dict[int, "StringStats"]]  # see table()


GraphVertex = namedtuple("GraphVertex", "id word weight")  # int, Word or None (a graph file may omit it), tuple of ints


class GraphEdge(namedtuple("GraphEdge", "src dst index primed")):
    """An f-edge src -> dst (vertex ids) labeled by the int index and the bool primed."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"{self.index}'" if self.primed else str(self.index)


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


@dataclass(frozen=True)
class StringShape:
    """A legal {i,i'}-component: a collapsed chain, or two solid chains of
    equal length joined by a primed rung at every position."""

    kind: str  # "collapsed" or "separated"
    chains: tuple[tuple[int, ...], ...]

    def member_stats(self) -> list[tuple[int, StringStats]]:
        """Every member with its statistics, read off the chain positions."""
        if self.kind == "collapsed":
            chain = self.chains[0]
            m = len(chain) - 1
            return [(v, StringStats(j, m - j, j, m - j, j, m - j)) for j, v in enumerate(chain)]
        upper, lower = self.chains
        m = len(upper) - 1
        return [(v, StringStats(j, m - j + 1, 0, 1, j, m - j)) for j, v in enumerate(upper)] + [
            (v, StringStats(j + 1, m - j, 1, 0, j, m - j)) for j, v in enumerate(lower)
        ]


class CrystalGraph:
    """Immutable but for the memoised per-index string tables; adjacency is precomputed.

    ``f_map[i, primed]`` and ``e_map[i, primed]`` send a vertex to its only
    f target and e source along that label.  A vertex with several edges
    of one label on one side is left out of that map; its site is recorded
    once, in ``label_degree_violations()``, and ``out_edges``, ``in_edges``
    and ``edges`` still hold every edge.
    """

    def __init__(
        self,
        n: int,
        vertices: tuple[GraphVertex, ...],
        edges: tuple[GraphEdge, ...],
    ):
        self.n = n
        self.vertices = tuple(vertices)
        self.edges = tuple(sorted(edges, key=attrgetter("src", "index", "primed", "dst")))
        self.by_id = {v.id: v for v in self.vertices}
        if len(self.by_id) != len(self.vertices):
            raise MalformedGraph("duplicate vertex ids")
        out_edges: dict[int, list[GraphEdge]] = {v.id: [] for v in self.vertices}
        in_edges: dict[int, list[GraphEdge]] = {v.id: [] for v in self.vertices}
        f_map: dict[tuple[int, bool], dict[int, int]] = {(i, p): {} for i in range(1, n) for p in (False, True)}
        e_map: dict[tuple[int, bool], dict[int, int]] = {(i, p): {} for i in range(1, n) for p in (False, True)}
        by_id, crowded = self.by_id, set()
        for e in self.edges:
            src, dst, index, primed = e
            label = index, primed
            if src not in by_id or dst not in by_id:
                raise MalformedGraph(f"edge {e} references a missing vertex")
            if label not in f_map:
                raise MalformedGraph(f"edge index {index} outside 1..{n - 1}")
            down, up = f_map[label], e_map[label]
            if src in down:
                crowded.add((src, *label, "out"))
            if dst in up:
                crowded.add((dst, *label, "in"))
            down[src] = dst
            up[dst] = src
            out_edges[src].append(e)
            in_edges[dst].append(e)
        for v, i, p, side in crowded:
            del (f_map if side == "out" else e_map)[i, p][v]
        self.out_edges, self.in_edges, self.f_map, self.e_map = out_edges, in_edges, f_map, e_map
        self._crowded = sorted(crowded)
        self._crowded_at = {i: {v for v, j, _, _ in crowded if j == i} for i in range(1, n)}
        self._tables: dict[int, StringTable] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    def weight(self, vid: int) -> tuple[int, ...]:
        return self.by_id[vid].weight

    def f(self, vid: int, i: int, primed: bool = False) -> int | None:
        """f_i (primed: f_i') of vid, or None when undefined; raises
        InvalidIndex unless 1 <= i <= n-1."""
        _check_index(i, self.n)
        return self.f_map[i, primed].get(vid)

    def e(self, vid: int, i: int, primed: bool = False) -> int | None:
        """e_i (primed: e_i') of vid, or None when undefined; raises
        InvalidIndex unless 1 <= i <= n-1."""
        _check_index(i, self.n)
        return self.e_map[i, primed].get(vid)

    def label_degree_violations(self) -> list[tuple[int, int, bool, str]]:
        return list(self._crowded)

    def reach(self, vid: int, i: int | None = None) -> frozenset[int]:
        """Vertices weakly connected to vid, along every edge or, given i
        (InvalidIndex unless 1 <= i <= n-1), along the edges of index i only,
        read off the four label maps of i except at a vertex with several
        edges of one label of i.  Neighbours are met in edge order."""
        seen = {vid}
        stack = [vid]
        if i is not None:
            _check_index(i, self.n)
            down, down_p, up, up_p = self.f_map[i, False], self.f_map[i, True], self.e_map[i, False], self.e_map[i, True]
            crowded = self._crowded_at[i]
        while stack:
            v = stack.pop()
            if i is not None and v not in crowded:
                a, b = up.get(v), up_p.get(v)
                if a is not None and b is not None and b < a:  # in-edges are met by source
                    a, b = b, a
                for u in (down.get(v), down_p.get(v), a, b):
                    if u is not None and u not in seen:
                        seen.add(u)
                        stack.append(u)
                continue
            for e in self.out_edges[v]:
                if (i is None or e.index == i) and e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
            for e in self.in_edges[v]:
                if (i is None or e.index == i) and e.src not in seen:
                    seen.add(e.src)
                    stack.append(e.src)
        return frozenset(seen)

    def table(self, i: int) -> StringTable:
        """Three maps of index i: every vertex to its {i,i'}-component, the
        component's shape and the vertex's statistics, the last two None
        when the component matches neither legal shape; every vertex on a
        legal {i,i'}-string to its statistics; and those to their duals
        (StringStats.dual).  Built on the first use of i, one ``reach`` per
        component in vertex order, and published whole; strings of one
        kind and chain length share one list of statistics and one of
        duals.  Raises InvalidIndex unless 1 <= i <= n-1."""
        table = self._tables.get(i)
        if table is None:
            _check_index(i, self.n)
            entries, stats, duals, shared = {}, {}, {}, {}  # shared: (kind, chain length) -> statistics, duals
            for vert in self.vertices:
                if vert.id in entries:
                    continue
                comp = self.reach(vert.id, i)
                shape = _classify(self, comp, i)
                if shape is None:
                    entries.update(dict.fromkeys(comp, (comp, None, None)))
                    continue
                key = shape.kind, len(shape.chains[0])
                if key not in shared:
                    found = [s for _, s in shape.member_stats()]
                    shared[key] = found, [s.dual for s in found]
                found, dual = shared[key]
                members = sum(shape.chains, ())
                entries.update(zip(members, [(comp, shape, s) for s in found]))
                stats.update(zip(members, found))
                duals.update(zip(members, dual))
            table = self._tables[i] = (entries, stats, duals)
        return table

    def stats(self, vid: int, i: int) -> StringStats | None:
        """Statistics of vid on its {i,i'}-string, or None when that string
        matches neither legal shape."""
        return self.table(i)[0][vid][2]


def _classify(g: CrystalGraph, comp: frozenset[int], i: int) -> StringShape | None:
    if not g._crowded_at[i].isdisjoint(comp):
        return None
    solid_out, primed_out = g.f_map[i, False], g.f_map[i, True]
    solid_in, primed_in = g.e_map[i, False], g.e_map[i, True]

    def chain_from(start: int, allowed: frozenset[int] | set[int]) -> tuple[int, ...] | None:
        chain = [start]
        seen = {start}
        while True:
            nxt = solid_out.get(chain[-1])
            if nxt is None:
                return tuple(chain)
            if nxt in seen or nxt not in allowed:
                return None
            chain.append(nxt)
            seen.add(nxt)

    if all(solid_out.get(v) == primed_out.get(v) for v in comp):
        tops = [v for v in comp if v not in solid_in]
        if len(tops) != 1:
            return None
        chain = chain_from(tops[0], comp)
        if chain is None or len(chain) != len(comp):
            return None
        return StringShape("collapsed", (chain,))

    uppers = {v for v in comp if v in primed_out}
    lowers = {primed_out[v] for v in uppers}
    if uppers & lowers or uppers | lowers != comp:
        return None
    upper_top = [v for v in uppers if v not in solid_in]
    lower_top = [v for v in lowers if v not in solid_in]
    if len(upper_top) != 1 or len(lower_top) != 1:
        return None
    upper = chain_from(upper_top[0], uppers)
    lower = chain_from(lower_top[0], lowers)
    if upper is None or lower is None or len(upper) != len(lower):
        return None
    if len(upper) + len(lower) != len(comp):
        return None
    for uj, lj in zip(upper, lower):
        if primed_out.get(uj) != lj or primed_in.get(lj) != uj:
            return None
    return StringShape("separated", (upper, lower))


def string_stats(g: CrystalGraph, vid: int, i: int) -> StringStats:
    """Statistics of vid on its {i,i'}-string; raises NotAString when that
    string matches neither legal shape."""
    stats = g.stats(vid, i)
    if stats is None:
        raise NotAString(f"{{{i},{i}'}}-component of vertex {vid} is not a legal string")
    return stats


def build_graph(shape: SkewShape, n: int) -> CrystalGraph:
    """Crystal over enumerate_tableaux(shape, n) with all F_i / F_i' edges.

    Each site (vertex, i) is scanned once for its relabeled {i,i+1}-subword.
    A memo local to the build maps each such subword k, and eta(k) as
    ``eta_subword`` reads it, to (F(k), F'(k)): ``apply`` of F_1 and F_1' to
    ``Word(k, 2)``, which validates the results.  E is F read through eta,
    so the build applies no E.
    A result written back into the vertex's codes must be a vertex, or
    BrokenSemistandard is raised.  E agrees with the reversed edges when
    every site subword k with F(k) = t has E(t) = k and E is defined at as
    many sites as there are edges, for then F is injective; otherwise the
    first site where they disagree raises InternalInconsistency.
    """
    tableaux = enumerate_tableaux(shape, n)
    vertices = tuple(
        GraphVertex(k, Word(t.codes, n), t.weight()) for k, t in enumerate(tableaux)
    )
    ids = {v.word.codes: v.id for v in vertices}
    memo: dict[tuple[int, ...], list] = {}  # subword k -> [F(k), F'(k), number of sites with subword k]
    lowering = (OpKind("F", 1), OpKind("F'", 1))

    def evaluate(k: tuple[int, ...]) -> list:
        word = Word(k, 2)
        outs = [apply(kind, word) for kind in lowering]
        return [None if out is None else out.codes for out in outs] + [0]

    edges = []
    for v in vertices:
        codes = v.word.codes
        for i in range(1, n):
            sub, pos = subword(codes, i)
            outs = memo.get(sub) or memo.setdefault(sub, evaluate(sub))
            outs[2] += 1
            for primed in (False, True):
                if outs[primed] is not None:
                    out = write_back(codes, pos, outs[primed], i)
                    if out not in ids:
                        kind = OpKind("F'" if primed else "F", i)
                        raise BrokenSemistandard(f"{kind}({v.word}) = {codes_to_str(out)} left ShST({shape}, {n})")
                    edges.append(GraphEdge(v.id, ids[out], i, primed))
    flip = {k: eta_subword(k) for k in memo}  # E(t) = k exactly where F(eta(t)) = eta(k)
    for flipped in flip.values():
        if flipped not in memo:
            memo[flipped] = evaluate(flipped)
    raised_sites = sum(memo[k][2] * (2 - memo[f][:2].count(None)) for k, f in flip.items())
    agree = raised_sites == len(edges) and all(
        t is None or memo[flip[t]][primed] == f for k, f in flip.items() for primed, t in enumerate(memo[k][:2])
    )
    if agree:
        memo.clear()
    g = CrystalGraph(n, vertices, tuple(edges))
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
    for v in g.vertices:
        if v.id not in comp_of:
            comp_of.update(dict.fromkeys(g.reach(v.id), count))
            count += 1
    return comp_of, count


def components(g: CrystalGraph) -> list[CrystalGraph]:
    """Partition by weak connectivity, in order of smallest vertex id."""
    comp_of, count = component_labels(g)
    vertices: list[list[GraphVertex]] = [[] for _ in range(count)]
    edges: list[list[GraphEdge]] = [[] for _ in range(count)]
    for v in g.vertices:
        vertices[comp_of[v.id]].append(v)
    for e in g.edges:
        edges[comp_of[e.src]].append(e)
    return [CrystalGraph(g.n, tuple(vs), tuple(es)) for vs, es in zip(vertices, edges)]


def is_strict_padded(weight: tuple[int, ...]) -> bool:
    for a, b in zip(weight, weight[1:]):
        if a < b or (a > 0 and a == b):
            return False
    return True


def _highest(sources: list[GraphVertex]) -> GraphVertex:
    if len(sources) != 1:
        raise NotUnique(f"component has {len(sources)} source vertices")
    if not is_strict_padded(sources[0].weight):
        raise NotStrictWeight(f"highest weight {sources[0].weight} is not strictly decreasing")
    return sources[0]


def highest_weight(component: CrystalGraph) -> GraphVertex:
    """The unique source vertex; its weight must be a strict partition
    padded with zeros."""
    return _highest([v for v in component.vertices if not component.in_edges[v.id]])


def highest_weights(g: CrystalGraph) -> list[GraphVertex]:
    """highest_weight of every component, in components() order, read off
    one component_labels() without building the components."""
    comp_of, count = component_labels(g)
    sources: list[list[GraphVertex]] = [[] for _ in range(count)]
    for v in g.vertices:
        if not g.in_edges[v.id]:
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
        labels1 = {(e.index, e.primed) for e in c1.out_edges[v1]}
        labels2 = {(e.index, e.primed) for e in c2.out_edges[v2]}
        if labels1 != labels2:
            return None
        for i, primed in sorted(labels1):
            t1 = c1.f(v1, i, primed)
            t2 = c2.f(v2, i, primed)
            if t1 is None or t2 is None:
                return None
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


_DOCUMENT = '{\n  "n": %d,\n  "vertices": %s,\n  "edges": %s\n}\n'
_VERTEX = '{\n      "id": %d,\n      "word": %s,\n      "weight": %s\n    }'
_EDGE = '{\n      "src": %d,\n      "dst": %d,\n      "index": %d,\n      "primed": %s\n    }'
_EDGE_KEYS = ("src", "dst", "index", "primed")
_EDGE_TYPES = (int, int, int, bool)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of these item texts as ``json.dumps(indent=2)`` writes it
    where its closing bracket is indented by indent."""
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]" if items else "[]"


def export_json(g: CrystalGraph) -> str:
    """The graph as ``json.dumps(data, indent=2) + "\\n"`` writes it, byte for
    byte, where data is ``{"n", "vertices": [{"id", "word", "weight"}, ...],
    "edges": [{"src", "dst", "index", "primed"}, ...]}`` with the ints and
    bools GraphVertex and GraphEdge declare, and null for a missing word.
    Each vertex and each edge fills one template; only the word strings go
    through ``json.dumps``."""
    vertices = []
    for v in g.vertices:
        word = "null" if v.word is None else json.dumps(str(v.word))
        vertices.append(_VERTEX % (v.id, word, _array(list(map(str, v.weight)), "      ")))
    edges = [_EDGE % (e.src, e.dst, e.index, "true" if e.primed else "false") for e in g.edges]
    return _DOCUMENT % (g.n, _array(vertices, "  "), _array(edges, "  "))


def _exact(value, kind: type, what: str) -> None:
    """Raise unless the type of value is exactly kind, so that neither True
    passes as an int nor 0.7 or "false" is coerced."""
    if type(value) is not kind:
        raise MalformedGraph(f"{what} must be {kind.__name__}, got {value!r}")


def import_json(text: str) -> CrystalGraph:
    """The graph of an export_json document.  The first defect met raises
    MalformedGraph: the top level, every weight entry, ``n`` (the length of
    the first weight when absent) and its sign, each vertex's word and id,
    each edge's fields in key order, the weight lengths, CrystalGraph's
    checks, then, vertex by vertex, that no weight entry is negative and
    that a vertex with a word has that word's weight."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedGraph(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise MalformedGraph("graph JSON needs 'vertices' and 'edges'")
    raw_vertices, raw_edges = data["vertices"], data["edges"]
    for key, items in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(items, list) or not {dict}.issuperset(map(type, items)):  # json.loads makes no dict subclass
            raise MalformedGraph(f"'{key}' must be a list of objects")
    n = data.get("n")
    try:
        weights = []
        for v in raw_vertices:
            wt = tuple(v.get("weight", ()))
            if not _INT.issuperset(map(type, wt)):
                for x in wt:
                    _exact(x, int, "weight entry")
            weights.append(wt)
        if n is None:
            n = len(weights[0]) if weights else 0
        if type(n) is not int:
            _exact(n, int, "n")
        if n < 0:
            raise ValueError("alphabet bound must be nonnegative")
        vertices = []
        for v, wt in zip(raw_vertices, weights):
            word = v.get("word")
            if word is not None:
                if type(word) is not str:
                    _exact(word, str, "word")
                word = Word(parse_codes(word), n)
            vid = v["id"]
            if type(vid) is not int:
                _exact(vid, int, "vertex id")
            vertices.append(GraphVertex(vid, word, wt))
        edges = []
        for e in raw_edges:
            fields = tuple(map(e.get, _EDGE_KEYS))
            if tuple(map(type, fields)) != _EDGE_TYPES:
                for key, kind in zip(_EDGE_KEYS, _EDGE_TYPES):
                    _exact(e[key], kind, f"edge {key}")
            edges.append(GraphEdge(*fields))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGraph(f"bad graph JSON: {exc}") from exc
    if not {n}.issuperset(map(len, weights)):
        raise MalformedGraph("weight vectors must all have length n")
    g = CrystalGraph(n, tuple(vertices), tuple(edges))
    for v in g.vertices:
        if v.weight and min(v.weight) < 0:
            raise MalformedGraph(f"vertex {v.id} has a negative weight entry: {list(v.weight)}")
        if v.word is not None and (wt := weight_of_codes(v.word.codes, n)) != v.weight:
            raise MalformedGraph(f"vertex {v.id} has weight {list(v.weight)} but its word {v.word} has weight {list(wt)}")
    return g


def export_dot(g: CrystalGraph) -> str:
    """DOT text: solid edges unprimed, dashed primed, labels i or i'."""
    lines = ["digraph crystal {"]
    for v in g.vertices:
        word = "" if v.word is None else str(v.word)
        wt = ",".join(map(str, v.weight))
        label = f"{word}\\n({wt})" if word else f"({wt})"
        lines.append(f'  v{v.id} [label="{label}"];')
    for e in g.edges:
        style = "dashed" if e.primed else "solid"
        lines.append(f'  v{e.src} -> v{e.dst} [label="{e.label}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
