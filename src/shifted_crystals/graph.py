"""Edge-labeled weighted crystal graphs over ShST(shape, n).

Vertices are reading words (ids dense in enumeration order); each vertex
carries its weight vector.  Only F-edges are stored: E operators follow
the reversed edges, and build_graph checks that applying E directly
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
from collections import deque
from dataclasses import dataclass

from .errors import (
    BrokenSemistandard,
    InternalInconsistency,
    InvalidIndex,
    MalformedGraph,
    NotAString,
    NotStrictWeight,
    NotUnique,
)
from .ops import OpKind, apply, subword, write_back
from .tableaux import SkewShape, enumerate_tableaux
from .words import Word, codes_to_str, parse_codes

StringEntry = tuple[frozenset[int], "StringShape | None", "StringStats | None"]  # see strings()
StringTable = tuple[dict[int, StringEntry], dict[int, "StringStats"], dict[int, "StringStats"]]  # see table()


@dataclass(frozen=True)
class GraphVertex:
    id: int
    word: Word | None
    weight: tuple[int, ...]


@dataclass(frozen=True)
class GraphEdge:
    src: int
    dst: int
    index: int
    primed: bool

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

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.eps, self.phi, self.eps_prime, self.phi_prime, self.eps_hat, self.phi_hat)

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

    def stats_of(self, vid: int) -> StringStats:
        for member, stats in self.member_stats():
            if member == vid:
                return stats
        raise ValueError(f"vertex {vid} is not on this string")


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
        shape: SkewShape | None = None,
    ):
        self.n = n
        self.vertices = tuple(vertices)
        self.edges = tuple(sorted(edges, key=lambda e: (e.src, e.index, e.primed, e.dst)))
        self.shape = shape
        self.by_id = {v.id: v for v in self.vertices}
        if len(self.by_id) != len(self.vertices):
            raise MalformedGraph("duplicate vertex ids")
        out_edges: dict[int, list[GraphEdge]] = {v.id: [] for v in self.vertices}
        in_edges: dict[int, list[GraphEdge]] = {v.id: [] for v in self.vertices}
        f_map: dict[tuple[int, bool], dict[int, int]] = {(i, p): {} for i in range(1, n) for p in (False, True)}
        e_map: dict[tuple[int, bool], dict[int, int]] = {(i, p): {} for i in range(1, n) for p in (False, True)}
        by_id, crowded = self.by_id, set()
        for e in self.edges:
            src, dst, label = e.src, e.dst, (e.index, e.primed)
            if src not in by_id or dst not in by_id:
                raise MalformedGraph(f"edge {e} references a missing vertex")
            if label not in f_map:
                raise MalformedGraph(f"edge index {e.index} outside 1..{n - 1}")
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
        self._crowded_at = {(v, i) for v, i, _, _ in crowded}
        self._tables: dict[int, StringTable] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    def weight(self, vid: int) -> tuple[int, ...]:
        return self.by_id[vid].weight

    def f(self, vid: int, i: int, primed: bool = False) -> int | None:
        return self.f_map.get((i, primed), {}).get(vid)

    def e(self, vid: int, i: int, primed: bool = False) -> int | None:
        return self.e_map.get((i, primed), {}).get(vid)

    def label_degree_violations(self) -> list[tuple[int, int, bool, str]]:
        return list(self._crowded)

    def reach(self, vid: int, i: int | None = None) -> frozenset[int]:
        """Vertices weakly connected to vid, along every edge or, given i,
        along the edges of index i only."""
        seen = {vid}
        stack = [vid]
        while stack:
            v = stack.pop()
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
        """The strings() table of index i, with the statistics of every
        vertex on a legal {i,i'}-string and their duals (StringStats.dual).
        Built on the first use of i, one walk per component in vertex
        order, and published whole; raises InvalidIndex unless 1 <= i <= n-1."""
        table = self._tables.get(i)
        if table is None:
            if not 1 <= i <= self.n - 1:
                raise InvalidIndex(f"index {i} outside 1..{self.n - 1}")
            entries, stats = {}, {}
            for vert in self.vertices:
                if vert.id in entries:
                    continue
                comp = self.reach(vert.id, i)
                shape = _classify(self, comp, i)
                found = dict.fromkeys(comp) if shape is None else dict(shape.member_stats())
                for v in comp:
                    entries[v] = (comp, shape, found[v])
                if shape is not None:
                    stats.update(found)
            table = self._tables[i] = (entries, stats, {v: s.dual for v, s in stats.items()})
        return table

    def strings(self, i: int) -> dict[int, StringEntry]:
        """Every vertex mapped to its {i,i'}-component, the component's
        shape and the vertex's statistics, the last two None when the
        component matches neither legal shape."""
        return self.table(i)[0]

    def string_of(self, vid: int, i: int) -> StringShape | None:
        """Classified {i,i'}-string through vid, or None when it matches
        neither legal shape."""
        return self.strings(i)[vid][1]

    def stats(self, vid: int, i: int) -> StringStats | None:
        """Statistics of vid on its {i,i'}-string, or None when that string
        matches neither legal shape."""
        return self.strings(i)[vid][2]


def _classify(g: CrystalGraph, comp: frozenset[int], i: int) -> StringShape | None:
    if any((v, i) in g._crowded_at for v in comp):
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


def classify_string(g: CrystalGraph, vid: int, i: int) -> StringShape:
    """Pattern-match the {i,i'}-component of vid against the two legal
    shapes; raises NotAString when neither fits."""
    shape = g.string_of(vid, i)
    if shape is None:
        raise NotAString(f"{{{i},{i}'}}-component of vertex {vid} is not a legal string")
    return shape


def string_stats(g: CrystalGraph, vid: int, i: int) -> StringStats:
    classify_string(g, vid, i)
    return g.stats(vid, i)


def build_graph(shape: SkewShape, n: int) -> CrystalGraph:
    """Crystal over enumerate_tableaux(shape, n) with all F_i / F_i' edges.

    Raises BrokenSemistandard when an F result is not a vertex, and
    InternalInconsistency unless E_i / E_i' applied directly agree with the
    reversed edges.  For n > 2 the build scans each site (vertex, i) once
    for its relabeled {i,i+1}-subword.  A memo local to the build maps that
    subword to the result subwords of all four families, filled on a miss
    by one ``apply`` per family, which validates the results.  Each stored
    result is written back into the vertex's codes and looked up among the
    vertices: a match equals a word that ``Word`` already validated, and it
    also lies in ShST(shape, n).  For n = 2 the subword is the whole word,
    so no key can repeat: every site calls ``apply`` once per family.
    """
    tableaux = enumerate_tableaux(shape, n)
    vertices = tuple(
        GraphVertex(k, Word(t.reading_codes(), n), t.weight()) for k, t in enumerate(tableaux)
    )
    ids = {v.word.codes: v.id for v in vertices}
    # kinds[primed] lowers and kinds[2 + primed] raises at index i
    sites = {i: (OpKind("F", i), OpKind("F'", i), OpKind("E", i), OpKind("E'", i)) for i in range(1, n)}
    memo: dict[tuple[int, ...], list[tuple[int, ...] | None]] = {}
    edges = []
    ups = []  # E results in loop order: a vertex id, None when undefined, -1 outside the vertex set
    for v in vertices:
        word = v.word
        for i, kinds in sites.items():
            if n > 2:
                sub, pos, _ = subword(word.codes, i)
                if sub not in memo:
                    outs = [apply(kind, word) for kind in kinds]
                    memo[sub] = [None if out is None else subword(out.codes, i)[0] for out in outs]
                f, fp, e, ep = [None if out is None else write_back(word.codes, pos, out, i) for out in memo[sub]]
            else:
                f, fp, e, ep = [None if out is None else out.codes for out in map(apply, kinds, (word,) * 4)]
            for primed, out in ((False, f), (True, fp)):
                if out is not None:
                    if out not in ids:
                        raise BrokenSemistandard(f"{kinds[primed]}({word}) = {codes_to_str(out)} left ShST({shape}, {n})")
                    edges.append(GraphEdge(v.id, ids[out], i, primed))
            ups += (None if e is None else ids.get(e, -1), None if ep is None else ids.get(ep, -1))
    g = CrystalGraph(n, vertices, tuple(edges), shape)
    want = iter(ups)
    for v in vertices:
        for i, kinds in sites.items():
            for primed in (False, True):
                if g.e_map[i, primed].get(v.id) != next(want):
                    raise InternalInconsistency(f"{kinds[2 + primed]}({v.word}) inconsistent with stored edges")
    return g


def components(g: CrystalGraph) -> list[CrystalGraph]:
    """Partition by weak connectivity, in order of smallest vertex id."""
    comp_of: dict[int, int] = {}
    count = 0
    for v in g.vertices:
        if v.id not in comp_of:
            comp_of.update(dict.fromkeys(g.reach(v.id), count))
            count += 1
    vertices: list[list[GraphVertex]] = [[] for _ in range(count)]
    edges: list[list[GraphEdge]] = [[] for _ in range(count)]
    for v in g.vertices:
        vertices[comp_of[v.id]].append(v)
    for e in g.edges:
        edges[comp_of[e.src]].append(e)
    return [CrystalGraph(g.n, tuple(vs), tuple(es), g.shape) for vs, es in zip(vertices, edges)]


def is_strict_padded(weight: tuple[int, ...]) -> bool:
    for a, b in zip(weight, weight[1:]):
        if a < b or (a > 0 and a == b):
            return False
    return True


def highest_weight(component: CrystalGraph) -> GraphVertex:
    """The unique source vertex; its weight must be a strict partition
    padded with zeros."""
    sources = [v for v in component.vertices if not component.in_edges[v.id]]
    if len(sources) != 1:
        raise NotUnique(f"component has {len(sources)} source vertices")
    g = sources[0]
    if not is_strict_padded(g.weight):
        raise NotStrictWeight(f"highest weight {g.weight} is not strictly decreasing")
    return g


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


def export_json(g: CrystalGraph) -> str:
    data = {
        "n": g.n,
        "vertices": [
            {
                "id": v.id,
                "word": None if v.word is None else str(v.word),
                "weight": list(v.weight),
            }
            for v in g.vertices
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "index": e.index, "primed": e.primed}
            for e in g.edges
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def _exact(value, kind: type, what: str):
    """value unchanged when its type is exactly kind, so that neither True
    passes as an int nor 0.7 or "false" is coerced."""
    if type(value) is not kind:
        raise MalformedGraph(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def import_json(text: str) -> CrystalGraph:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedGraph(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise MalformedGraph("graph JSON needs 'vertices' and 'edges'")
    raw_vertices, raw_edges = data["vertices"], data["edges"]
    for key, items in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise MalformedGraph(f"'{key}' must be a list of objects")
    n = data.get("n")
    vertices = []
    try:
        weights = [tuple(_exact(x, int, "weight entry") for x in v.get("weight", ())) for v in raw_vertices]
        if n is None:
            n = len(weights[0]) if weights else 0
        _exact(n, int, "n")
        for v, wt in zip(raw_vertices, weights):
            word = v.get("word")
            word = None if word is None else Word(parse_codes(_exact(word, str, "word")), n)
            vertices.append(GraphVertex(_exact(v["id"], int, "vertex id"), word, wt))
        edges = tuple(
            GraphEdge(
                _exact(e["src"], int, "edge src"),
                _exact(e["dst"], int, "edge dst"),
                _exact(e["index"], int, "edge index"),
                _exact(e["primed"], bool, "edge primed"),
            )
            for e in raw_edges
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGraph(f"bad graph JSON: {exc}") from exc
    for wt in weights:
        if len(wt) != n:
            raise MalformedGraph("weight vectors must all have length n")
    return CrystalGraph(n, tuple(vertices), edges)


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
