"""Edge-labeled weighted crystal graphs over ShST(shape, n).

Vertices are reading words (ids dense in enumeration order); each vertex
carries its weight vector.  Only F-edges are stored: E operators follow
the reversed edges, and build_graph checks that applying E directly
agrees with the stored reversals, raising InternalInconsistency when it
does not.  {i,i'}-components are classified into the two legal string
shapes, from which all six length statistics are read off.
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
from .ops import OpKind, apply
from .tableaux import SkewShape, enumerate_tableaux
from .words import Word, parse_codes

MULTI = object()  # sentinel: several edges with one label at a vertex


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


@dataclass(frozen=True)
class StringShape:
    """A legal {i,i'}-component: a collapsed chain, or two solid chains of
    equal length joined by a primed rung at every position."""

    kind: str  # "collapsed" or "separated"
    chains: tuple[tuple[int, ...], ...]

    @property
    def members(self) -> tuple[int, ...]:
        out: list[int] = []
        for chain in self.chains:
            out.extend(chain)
        return tuple(out)

    def stats_of(self, vid: int) -> StringStats:
        if self.kind == "collapsed":
            chain = self.chains[0]
            j = chain.index(vid)
            m = len(chain) - 1
            return StringStats(j, m - j, j, m - j, j, m - j)
        upper, lower = self.chains
        m = len(upper) - 1
        if vid in upper:
            j = upper.index(vid)
            return StringStats(j, m - j + 1, 0, 1, j, m - j)
        j = lower.index(vid)
        return StringStats(j + 1, m - j, 1, 0, j, m - j)


class CrystalGraph:
    """Immutable after construction; adjacency maps are precomputed."""

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
        self._out: dict[tuple[int, int, bool], int] = {}
        self._in: dict[tuple[int, int, bool], int] = {}
        self.out_edges: dict[int, list[GraphEdge]] = {v.id: [] for v in self.vertices}
        self.in_edges: dict[int, list[GraphEdge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.src not in self.by_id or e.dst not in self.by_id:
                raise MalformedGraph(f"edge {e} references a missing vertex")
            key = (e.src, e.index, e.primed)
            self._out[key] = MULTI if key in self._out else e.dst
            key = (e.dst, e.index, e.primed)
            self._in[key] = MULTI if key in self._in else e.src
            self.out_edges[e.src].append(e)
            self.in_edges[e.dst].append(e)
        self._strings: dict[tuple[int, int], StringShape | None] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    def weight(self, vid: int) -> tuple[int, ...]:
        return self.by_id[vid].weight

    def f(self, vid: int, i: int, primed: bool = False) -> int | None:
        dst = self._out.get((vid, i, primed))
        return None if dst is MULTI else dst

    def e(self, vid: int, i: int, primed: bool = False) -> int | None:
        src = self._in.get((vid, i, primed))
        return None if src is MULTI else src

    def label_degree_violations(self) -> list[tuple[int, int, bool, str]]:
        out = [(v, i, p, "out") for (v, i, p), d in self._out.items() if d is MULTI]
        out += [(v, i, p, "in") for (v, i, p), d in self._in.items() if d is MULTI]
        return sorted(out)

    def i_component(self, vid: int, i: int) -> frozenset[int]:
        seen = {vid}
        stack = [vid]
        while stack:
            v = stack.pop()
            for e in self.out_edges[v]:
                if e.index == i and e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
            for e in self.in_edges[v]:
                if e.index == i and e.src not in seen:
                    seen.add(e.src)
                    stack.append(e.src)
        return frozenset(seen)

    def string_of(self, vid: int, i: int) -> StringShape | None:
        """Classified {i,i'}-string through vid, or None when it matches
        neither legal shape."""
        key = (vid, i)
        if key in self._strings:
            return self._strings[key]
        shape = _classify(self, vid, i)
        comp = self.i_component(vid, i) if shape is None else shape.members
        for member in comp:
            self._strings[(member, i)] = shape
        return shape


def _classify(g: CrystalGraph, vid: int, i: int) -> StringShape | None:
    comp = sorted(g.i_component(vid, i))
    solid_out, primed_out, solid_in, primed_in = {}, {}, {}, {}
    for v in comp:
        for mapping, primed in ((solid_out, False), (primed_out, True)):
            t = g._out.get((v, i, primed))
            if t is MULTI:
                return None
            if t is not None:
                mapping[v] = t
        for mapping, primed in ((solid_in, False), (primed_in, True)):
            t = g._in.get((v, i, primed))
            if t is MULTI:
                return None
            if t is not None:
                mapping[v] = t
    solid = {(u, t) for u, t in solid_out.items()}
    primed = {(u, t) for u, t in primed_out.items()}
    if not solid and not primed:
        return StringShape("collapsed", ((comp[0],),)) if len(comp) == 1 else None

    def chain_from(start: int, allowed: set[int]) -> tuple[int, ...] | None:
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

    if solid == primed:
        tops = [v for v in comp if v not in solid_in]
        if len(tops) != 1:
            return None
        chain = chain_from(tops[0], set(comp))
        if chain is None or len(chain) != len(comp):
            return None
        return StringShape("collapsed", (chain,))

    uppers = {u for u, _ in primed}
    lowers = {t for _, t in primed}
    if uppers & lowers or uppers | lowers != set(comp):
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
    if any(v in primed_out for v in lowers) or any(v in primed_in for v in uppers):
        return None
    return StringShape("separated", (upper, lower))


def classify_string(g: CrystalGraph, vid: int, i: int) -> StringShape:
    """Pattern-match the {i,i'}-component of vid against the two legal
    shapes; raises NotAString when neither fits."""
    if not 1 <= i <= g.n - 1:
        raise InvalidIndex(f"index {i} outside 1..{g.n - 1}")
    shape = g.string_of(vid, i)
    if shape is None:
        raise NotAString(f"{{{i},{i}'}}-component of vertex {vid} is not a legal string")
    return shape


def string_stats(g: CrystalGraph, vid: int, i: int) -> StringStats:
    return classify_string(g, vid, i).stats_of(vid)


def build_graph(shape: SkewShape, n: int) -> CrystalGraph:
    """Crystal over enumerate_tableaux(shape, n) with all F_i / F_i' edges.

    Raises InternalInconsistency unless E_i / E_i' applied directly agree
    with the reversed edges.
    """
    tableaux = enumerate_tableaux(shape, n)
    vertices = tuple(
        GraphVertex(k, Word(t.reading_codes(), n), t.weight()) for k, t in enumerate(tableaux)
    )
    ids = {v.word.codes: v.id for v in vertices}
    labels = [(i, primed) for i in range(1, n) for primed in (False, True)]
    lowering = {(i, p): OpKind("F'" if p else "F", i) for i, p in labels}
    raising = {(i, p): OpKind("E'" if p else "E", i) for i, p in labels}
    edges = []
    for v in vertices:
        for label in labels:
            out = apply(lowering[label], v.word)
            if out is None:
                continue
            if out.codes not in ids:
                raise BrokenSemistandard(
                    f"{lowering[label]}({v.word}) = {out} left ShST({shape}, {n})"
                )
            edges.append(GraphEdge(v.id, ids[out.codes], *label))
    g = CrystalGraph(n, vertices, tuple(edges), shape)
    for v in vertices:
        for label in labels:
            up = apply(raising[label], v.word)
            src = g.e(v.id, *label)
            got = None if src is None else g.by_id[src].word.codes
            want = None if up is None else up.codes
            if got != want:
                raise InternalInconsistency(
                    f"{raising[label]}({v.word}) inconsistent with stored edges"
                )
    return g


def components(g: CrystalGraph) -> list[CrystalGraph]:
    """Partition by weak connectivity, in order of smallest vertex id."""
    comp_of: dict[int, int] = {}
    count = 0
    for v in g.vertices:
        if v.id in comp_of:
            continue
        comp_of[v.id] = count
        stack = [v.id]
        while stack:
            u = stack.pop()
            for e in g.out_edges[u]:
                if e.dst not in comp_of:
                    comp_of[e.dst] = count
                    stack.append(e.dst)
            for e in g.in_edges[u]:
                if e.src not in comp_of:
                    comp_of[e.src] = count
                    stack.append(e.src)
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
            s1 = c1.string_of(v1, i)
            s2 = c2.string_of(v2, i)
            if s1 is None or s2 is None:
                return False
            if s1.stats_of(v1).as_tuple() != s2.stats_of(v2).as_tuple():
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


def import_json(text: str) -> CrystalGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedGraph(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise MalformedGraph("graph JSON needs 'vertices' and 'edges'")
    raw_vertices = data["vertices"]
    weights = [tuple(v.get("weight", ())) for v in raw_vertices]
    n = data.get("n")
    if n is None:
        n = len(weights[0]) if weights else 0
    vertices = []
    try:
        for v, wt in zip(raw_vertices, weights):
            word = v.get("word")
            word = None if word is None else Word(parse_codes(word), n)
            vertices.append(GraphVertex(int(v["id"]), word, tuple(int(x) for x in wt)))
        edges = tuple(
            GraphEdge(int(e["src"]), int(e["dst"]), int(e["index"]), bool(e["primed"]))
            for e in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGraph(f"bad graph JSON: {exc}") from exc
    for wt in weights:
        if len(wt) != n:
            raise MalformedGraph("weight vectors must all have length n")
    for e in edges:
        if not 1 <= e.index <= max(n - 1, 0):
            raise MalformedGraph(f"edge index {e.index} outside 1..{n - 1}")
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
        label = f"{e.index}'" if e.primed else str(e.index)
        lines.append(f'  v{e.src} -> v{e.dst} [label="{label}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
