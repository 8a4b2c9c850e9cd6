"""Mechanical verification of the local axioms on a crystal graph.

Every axiom, its dual, and the structural lemmas are checked at every
vertex and every valid index pair; each "if and only if" is evaluated in
both directions, and a violation records which side failed together with
a radius-3 neighborhood for replay.  Vertices whose relevant strings match
neither legal shape are skipped by the stats-dependent checks (B1 reports
them), so the checker stays total on arbitrary imported graphs.

Checkers read the graph through a view that binds, once per index j, the
graph's maps for f_j, f_j' and the statistics at j, so every read is one
dict.get and a missing arrow (None) passes through a chain of reads.  The
edge axioms B2, B3, K, L_CAS and L_CF1 make one pass per label over its
map's items (B2 one key intersection per pair of labels), plus the side
record's edges at sites with several edges of one label.  A per-site axiom
visits only the sites that meet its premise: A1-A4 a key intersection of
two maps per index, XL the vertices with statistics at i, A5-A8, SA and
L_TD the pair sites (f_i and f_{i+1} both defined), which each view lists
once with their Delta, split by whether f_i' is defined; the Delta
histogram reads the same lists.  check_all shares one forward view, and
its reversed view, across all its axioms.  Violations are found in no
particular order, so each checker sorts what it found, and only then,
into the order of a walk over the vertex list (the edges of each vertex
for B2, the site indices in ``indices`` order for the per-site axioms),
or, for the other edge axioms, over the edges by (src, index, primed,
dst), a duplicated edge counted by its occurrence.

The dual axioms A1D-A8D are not written out: each is its axiom A1-A8 read
on the crystal with every arrow reversed.  That view is a different
binding, not a different class: f_j and f_j' read the e maps at n-j, and
the statistics at j are the duals of those at n-j (eps and phi swap
together with their primed and hat parts), so the index pair (i, i+1)
becomes (n-1-i, n-i).  Each dual reruns its axiom's own runner there and
reports every violation at the original index.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, sub

from .graph import CrystalGraph, edge_label


@dataclass(frozen=True)
class Violation:
    axiom: str
    vertices: tuple[int, ...]
    index: int
    message: str
    context: str = ""

    def __str__(self) -> str:
        ids = ",".join(map(str, self.vertices))
        return f"[{self.axiom}] i={self.index} at vertices {ids}: {self.message}"


def _context(view: _View, ids: tuple[int, ...]) -> str:
    """The ball of radius 3 about ids: a line per vertex, then per edge in
    it, cut at 60 lines.  The vertex lines are its smallest ids, so the
    whole ball is walked, ring by ring off the label maps.  Each vertex's
    line is rendered once per view and its dual (``_View.lines``)."""
    g, rendered = view.g, view.lines
    seen = set(ids)
    frontier = set(ids)
    arrows = [*g.f_map.values(), *g.e_map.values()]
    for _ in range(3):
        nxt = set()
        for arrow in arrows:
            nxt.update(map(arrow.__getitem__, frontier & arrow.keys()))
        for v in frontier & g._crowded:  # several edges of one label: the side record holds them
            nxt.update(edge[3] for edge in g._edges((v,)))
            nxt.update(edge[0] for edge in g._edges((v,), True))
        frontier = nxt - seen
        seen |= nxt
    ordered = sorted(seen)
    lines = []
    for v in ordered[:61]:  # past 60 lines the text is cut
        line = rendered.get(v)
        if line is None:
            vert = g.by_id[v]
            word = "" if vert.word is None else f" {vert.word}"
            line = rendered[v] = f"  {v}{word} wt={vert.weight}"
        lines.append(line)
    for src, i, primed, dst in g._edges(ordered):
        if len(lines) > 60:  # cut below, so no more edges need reading
            break
        if dst in seen:
            lines.append(f"  {src} -{edge_label(i, primed)}-> {dst}")
    if len(lines) > 60:
        lines = lines[:60] + ["  ..."]
    return "\n".join(lines)


def _edges_by_label(g: CrystalGraph):
    """Each label (i, primed) with an iterator over its edges as (src, dst,
    k): the f map's with k = 0, then the side record's, k counting the edges
    at one crowded out-site, so (src, i, primed, dst, k) orders the edges
    as ``g._edges()`` lists them, duplicates too."""
    crowded: dict = {}
    for (v, i, primed, end), ends in g._side.items():
        if end == "out":
            crowded.setdefault((i, primed), []).extend((v, u, k) for k, u in enumerate(ends))
    for (i, primed), arrow in g.f_map.items():
        yield i, primed, chain(zip(arrow, arrow.values(), repeat(0)), crowded.get((i, primed), ()))


def _in_order(found: list) -> list[Violation]:
    """The violations of (sort key, violation) pairs, in key order."""
    return [v for _, v in sorted(found, key=itemgetter(0))]


class _View:
    """The graph's maps bound once per index 1 <= j <= n-1: f[j] and fp[j]
    send a vertex to its f_j and f_j' target, stats[j] a vertex on a legal
    {j,j'}-string to its statistics.  The reversed view binds at j the e
    maps and the dual statistics of index n-j, so a dual axiom at i is its
    axiom at n-1-i on it.  ``indices`` lists the site indices i <= n-2 in
    the original order: ascending here, n-2 down to 1 on the reversed view."""

    def __init__(self, g: CrystalGraph, reverse: bool = False):
        self.g, self.n = g, g.n
        arrows = g.e_map if reverse else g.f_map
        self.f, self.fp, self.stats = {}, {}, {}
        for j in range(1, g.n):
            k = g.n - j if reverse else j
            self.f[j], self.fp[j] = arrows[k, False], arrows[k, True]
            self.stats[j] = g.table(k)[2 if reverse else 1]
        self.indices = range(g.n - 2, 0, -1) if reverse else range(1, g.n - 1)
        self._sites: dict[bool, dict] = {}
        self.lines: dict[int, str] = {}  # vertex id -> its line in a violation's context

    @cached_property
    def dual(self) -> _View:
        """The reversed view of this forward view; the two share ``lines``."""
        dual = _View(self.g, reverse=True)
        dual.lines = self.lines
        return dual

    @cached_property
    def position(self) -> dict[int, int]:
        """Each vertex id to its place in the vertex list."""
        return {v.id: k for k, v in enumerate(self.g.vertices)}

    def pair_sites(self, primed: bool) -> dict[int, dict[int, tuple[int, int] | None]]:
        """Per site index i, every w where f_i(w) and f_{i+1}(w) are both
        defined and f_i'(w) is (primed) or is not (the hypothesis of A5-A8
        and SA), mapped to its Delta; built once per view, each Delta value
        held once."""
        found = self._sites.get(primed)
        if found is None:
            found, shared = {}, {}
            for i in self.indices:
                first, second, fp = self.f[i], self.f[i + 1], self.fp[i].keys()
                keys = first.keys() & second.keys()
                at = found[i] = {}
                for w in keys & fp if primed else keys - fp:
                    d = self.delta_at(w, i, first[w], second[w])
                    at[w] = shared.setdefault(d, d)
            self._sites[primed] = found
        return found

    def delta_at(self, w: int, i: int, x: int, y: int) -> tuple[int, int] | None:
        """(eps_i(w)-eps_i(y), eps_{i+1}(w)-eps_{i+1}(x)) for an i-side
        target x and an (i+1)-side target y."""
        s, t = self.stats[i], self.stats[i + 1]
        sw, sy, tw, tx = s.get(w), s.get(y), t.get(w), t.get(x)
        if sw is None or sy is None or tw is None or tx is None:
            return None
        return sw.eps - sy.eps, tw.eps - tx.eps


def _in_site_order(view: _View, out: list[Violation]) -> list[Violation]:
    """Violations found at sites (w, i), at most one per site, in vertex
    list order of w, then ``indices`` order of i."""
    if out:
        position, indices = view.position, view.indices
        out.sort(key=lambda v: (position[v.vertices[0]], indices.index(v.index)))
    return out


def _check_B1(view: _View) -> list[Violation]:
    g = view.g
    out = [
        Violation("B1", (v,), i, f"several {side} edges labeled {edge_label(i, primed)}", _context(view, (v,)))
        for v, i, primed, side in g.label_degree_violations()
    ]
    for i in range(1, view.n):
        comps, stats, _ = g.table(i)
        for comp in comps:
            first = next(iter(comp))
            if first not in stats:  # an illegal component: its members have no statistics
                ids = tuple(sorted(comp))
                out.append(Violation("B1", ids, i, "component matches neither string shape", _context(view, ids[:2])))
                continue
            collapsed = stats[first].collapsed
            for v in comp:
                wt, s = g.weight(v), stats[v]
                for k, end, side in ((i, s.eps == 0, "top"), (i - 1, s.phi == 0, "bottom")):
                    if (wt[k] == 0) != (collapsed and end):
                        message = f"wt_{k + 1}=0 iff {side} of collapsed string fails (wt={wt})"
                        out.append(Violation("B1", (v,), i, message, _context(view, (v,))))
    return out


def _check_B2(view: _View) -> list[Violation]:
    g = view.g
    found = []  # (w's place, side, the places of the two edges in the edge list at w), violation

    def fail(side, w, i, p, x, j, q, y, places):
        message = f"{side} {edge_label(i, p)} and {edge_label(j, q)} edges do not close a square"
        found.append(((view.position[w], side, *places), Violation("B2", (w, x, y), i, message, _context(view, (w,)))))

    for side, arrows in (("downward", g.f_map), ("upward", g.e_map)) if g.n > 3 else ():  # no indices 2 apart below
        for (i, p), first in arrows.items():
            for (j, q), second in arrows.items():
                for w in first.keys() & second.keys() if j - i > 1 else ():
                    x, y = first[w], second[w]
                    z = second.get(x)
                    if (z is None or z != first.get(y)) and w not in g._crowded:
                        # out-edges are listed by label, in-edges by source
                        places = ((i, p), (j, q)) if side == "downward" else ((x, i, p), (y, j, q))
                        fail(side, w, i, p, x, j, q, y, places)
        for w in g._crowded:  # several edges of one label: read the edge list
            into = side == "upward"
            ends = [(e[1], e[2], e[0] if into else e[3]) for e in g._edges((w,), into)]
            for a, (i, p, x) in enumerate(ends):
                for b, (j, q, y) in enumerate(ends):
                    z = arrows[j, q].get(x)
                    if j - i > 1 and (z is None or z != arrows[i, p].get(y)):
                        fail(side, w, i, p, x, j, q, y, (a, b))
    return _in_order(found)


def _check_B3(view: _View) -> list[Violation]:
    g = view.g
    found = []  # (src, index, primed, dst, k, which neighbour index), violation
    for index, primed, edges in _edges_by_label(g):
        near = [(k, i, view.stats[i]) for k, i in enumerate((index - 1, index + 1)) if 1 <= i <= view.n - 1]
        for src, dst, k in edges:
            for nearby, i, stats in near:
                sz, sw = stats.get(src), stats.get(dst)
                if sz is None or sw is None:
                    continue
                change = (sw.eps - sz.eps, sw.phi - sz.phi)
                if change not in ((0, 1), (-1, 0)):
                    message = f"(eps_{i}, phi_{i}) changed by {change} along a {edge_label(index, primed)} edge"
                    violation = Violation("B3", (src, dst), i, message, _context(view, (src, dst)))
                    found.append(((src, index, primed, dst, k, nearby), violation))
    return _in_order(found)


def _check_K(view: _View) -> list[Violation]:
    g = view.g
    found = []  # (0, src, i, primed, dst, k, clause) or (1, v's place, i), violation
    weight = {v.id: v.weight for v in g.vertices}
    distinct = set(weight.values())

    def fail(key, i, message, ids):
        found.append((key, Violation("K", ids, i, message, _context(view, ids))))

    for i, primed, edges in _edges_by_label(g):
        alpha = (0,) * (i - 1) + (1, -1) + (0,) * (view.n - 1 - i)
        lowered = {wt: tuple(map(sub, wt, alpha)) for wt in distinct}
        stats = view.stats[i]
        for src, dst, k in edges:
            if weight[dst] != lowered[weight[src]]:
                fail((0, src, i, primed, dst, k, 0), i, f"weight {weight[dst]} != {weight[src]} - alpha_{i}", (src, dst))
            su, sv = stats.get(src), stats.get(dst)
            if su is not None and sv is not None and (sv.eps, sv.phi) != (su.eps + 1, su.phi - 1):
                step = f"({sv.eps - su.eps}, {sv.phi - su.phi})"
                message = f"(eps, phi) step along {edge_label(i, primed)} edge is {step}, want (1, -1)"
                fail((0, src, i, primed, dst, k, 1), i, message, (src, dst))
    for i in range(1, view.n):
        for v, s in view.stats[i].items():
            wt = weight[v]
            if s.phi - s.eps != wt[i - 1] - wt[i]:
                message = f"phi_{i} - eps_{i} = {s.phi - s.eps} != wt_{i} - wt_{i + 1} = {wt[i - 1] - wt[i]}"
                fail((1, view.position[v], i), i, message, (v,))
    return _in_order(found)


def _iff(axiom: str, view: _View, w: int, i: int, structural: bool, numeric, out: list) -> None:
    """Record a violation when the two sides of an iff disagree.

    ``numeric`` is None when the needed statistics are unavailable (broken
    strings elsewhere); such vertices are skipped, B1 reports the cause.
    """
    if numeric is not None and structural != numeric:
        side = "structural holds, numeric fails" if structural else "numeric holds, structural fails"
        out.append(Violation(axiom, (w,), i, side, _context(view, (w,))))


def _check_A1(view: _View, w: int, i: int, x: int, y: int, out: list) -> None:
    lhs = view.fp[i].get(y)
    if lhs is None or lhs != view.fp[i + 1].get(x):
        out.append(Violation("A1", (w, x, y), i, "primed square does not close", _context(view, (w,))))


def _check_A2(view: _View, w: int, i: int, x: int, y: int, out: list) -> None:
    bottom = view.f[i].get(y)
    structural = bottom is not None and bottom == view.f[i + 1].get(x) and view.fp[i].get(y) != bottom
    d = view.delta_at(w, i, x, y)
    s1 = view.stats[i + 1].get(w)
    numeric = None
    if d is not None and s1 is not None:
        numeric = d == (0, 0) and s1.phi == 1 and s1.phi_hat == 0
    _iff("A2", view, w, i, structural, numeric, out)


def _check_A3(view: _View, w: int, i: int, x: int, y: int, out: list) -> None:
    if view.fp[i + 1].get(w) == y and view.f[i].get(w) == x:
        return
    lhs = view.fp[i].get(y)
    if lhs is None or lhs != view.f[i + 1].get(x):
        out.append(Violation("A3", (w, x, y), i, "{f_i', f_{i+1}} square does not close", _context(view, (w,))))


def _check_A4(view: _View, w: int, i: int, x: int, y: int, out: list) -> None:
    lhs = view.f[i].get(y)
    structural = lhs is not None and lhs == view.fp[i + 1].get(x)
    s = view.stats[i].get(w)
    numeric = None if s is None else s.eps_hat > 0
    _iff("A4", view, w, i, structural, numeric, out)


def _check_A5(view: _View, w: int, i: int, x: int, y: int, d, out: list) -> None:
    lhs = view.fp[i].get(y)
    structural = lhs is not None and lhs == view.fp[i + 1].get(x)
    numeric = None if d is None else d == (1, 1)
    _iff("A5", view, w, i, structural, numeric, out)


def _check_A6(view: _View, w: int, i: int, x: int, y: int, d, out: list) -> None:
    lhs = view.f[i].get(y)
    structural = lhs is not None and lhs == view.f[i + 1].get(x)
    numeric = None if d is None else d in ((1, 0), (0, 1))
    _iff("A6", view, w, i, structural, numeric, out)


def _check_A7(view: _View, w: int, i: int, x: int, y: int, d, out: list) -> None:
    f, fp = view.f, view.fp
    lhs = f[i + 1].get(fp[i].get(f[i].get(y)))
    rhs = fp[i].get(f[i + 1].get(f[i + 1].get(x)))
    no_square = f[i].get(y) != f[i + 1].get(x)
    structural = lhs is not None and lhs == rhs and no_square
    sy, sw = view.stats[i].get(y), view.stats[i].get(w)
    numeric = None
    if d is not None and sy is not None and sw is not None:
        numeric = d == (0, 0) and sw.eps_hat - sy.eps_hat == -1
    _iff("A7", view, w, i, structural, numeric, out)


def _check_A8(view: _View, w: int, i: int, x: int, y: int, d, out: list) -> None:
    f = view.f
    lhs = f[i + 1].get(f[i].get(f[i].get(y)))
    rhs = f[i].get(f[i + 1].get(f[i + 1].get(x)))
    no_square = f[i].get(y) != f[i + 1].get(x)
    structural = lhs is not None and lhs == rhs and no_square
    sy = view.stats[i].get(y)
    numeric = None
    if d is not None and sy is not None:
        numeric = d == (0, 0) and sy.phi_hat >= 2
    _iff("A8", view, w, i, structural, numeric, out)


def _check_XL(view: _View) -> list[Violation]:
    g = view.g
    out = []
    for i in view.indices:
        later = view.stats[i + 1]
        for w, s_i in view.stats[i].items():
            s_i1 = later.get(w)
            if s_i1 is None or s_i.eps_hat or s_i.phi_prime or s_i1.phi_hat or s_i1.eps_prime:
                continue
            incident = [e for e in (*g._edges((w,)), *g._edges((w,), True)) if e[1] in (i, i + 1)]
            if incident:
                message = f"excluded lengths hold yet {len(incident)} {i}/{i + 1}-edges touch the vertex"
                out.append(Violation("XL", (w,), i, message, _context(view, (w,))))
    return _in_site_order(view, out)


def _check_SA(view: _View, w: int, i: int, x: int, y: int, d, out: list) -> None:
    if d != (0, 0):
        return
    sw, sy = view.stats[i].get(w), view.stats[i].get(y)
    if sw is None or sy is None:
        return
    a7 = sw.eps_hat - sy.eps_hat == -1
    a8 = sy.phi_hat >= 2
    if not (a7 or a8):
        message = "neither octagon side-condition applies at Delta=(0,0)"
        out.append(Violation("SA", (w,), i, message, _context(view, (w,))))


def _check_L_CAS(view: _View) -> list[Violation]:
    g = view.g
    found = []  # (src, index, primed, dst, k, which neighbour index), violation
    for index, primed, edges in _edges_by_label(g):
        near = [(k, j, view.stats[j]) for k, j in enumerate((index + 1, index - 1)) if 0 < j < view.n]
        for src, dst, k in edges:
            for nearby, j, stats in near:
                sw, sz = stats.get(src), stats.get(dst)
                if sw is None or sz is None:
                    continue
                cw, cz = sw.collapsed, sz.collapsed
                if j > index and sz.phi == sw.phi + 1 and cw != cz:
                    message = "collapsedness not preserved along an edge incrementing phi"
                elif j > index and sz.phi == sw.phi and cz:
                    message = "target string collapsed although phi was copied"
                elif j < index and cw != (cz and sz.phi == sw.phi):
                    message = "collapsedness/phi not copied along an adjacent-string edge"
                else:
                    continue
                violation = Violation("L_CAS", (src, dst), j, message, _context(view, (src, dst)))
                found.append(((src, index, primed, dst, k, nearby), violation))
    return _in_order(found)


def _check_L_CF1(view: _View) -> list[Violation]:
    g = view.g
    found = []  # (src, i, dst, k), violation
    for i, primed, edges in _edges_by_label(g):
        if not primed or i > view.n - 2:
            continue
        stats = view.stats[i + 1]
        for src, dst, k in edges:
            sw, sz = stats.get(src), stats.get(dst)
            if sw is not None and sz is not None and sw.phi == sz.phi and sz.phi_hat != 0:
                message = f"phi_{i + 1} copied along {i}' edge but phi_hat_{i + 1}(target) = {sz.phi_hat}"
                found.append(((src, i, dst, k), Violation("L_CF1", (src, dst), i, message, _context(view, (src, dst)))))
    return _in_order(found)


def _check_L_TD(view: _View) -> list[Violation]:
    out = []
    solid = view.pair_sites(False)
    for i, at in view.pair_sites(True).items():
        for z, dz in at.items():
            t = view.fp[i][z]
            if t == view.f[i][z]:
                continue
            sites = at if t in at else solid[i]
            if t not in sites:
                message = "f_i or f_{i+1} undefined at the primed target"
                out.append(Violation("L_TD", (z, t), i, message, _context(view, (z, t))))
            elif dz is not None and sites[t] is not None and dz != sites[t]:
                message = f"Delta changes along the primed edge: {dz} vs {sites[t]}"
                out.append(Violation("L_TD", (z, t), i, message, _context(view, (z, t))))
    return _in_site_order(view, out)


def _premise_sites(fn, primes: tuple[bool, bool]):
    """Run a check at the sites (w, i) where x = f_i(w) and y = f_{i+1}(w),
    each primed when its flag in primes is set, are both defined, passing
    x and y: one key intersection of two maps per index."""

    def run(view: _View) -> list[Violation]:
        out: list[Violation] = []
        for i in view.indices:
            first, second = (view.fp if primes[0] else view.f)[i], (view.fp if primes[1] else view.f)[i + 1]
            for w in first.keys() & second.keys():
                fn(view, w, i, first[w], second[w], out)
        return _in_site_order(view, out)

    return run


def _solid_sites(fn):
    """Run a check at the sites where f_i and f_{i+1} are defined and f_i'
    is not (the hypothesis of A5-A8 and SA), passing x, y and Delta."""

    def run(view: _View) -> list[Violation]:
        out: list[Violation] = []
        for i, at in view.pair_sites(False).items():
            first, second = view.f[i], view.f[i + 1]
            for w, d in at.items():
                fn(view, w, i, first[w], second[w], d, out)
        return _in_site_order(view, out)

    return run


_DUAL_MESSAGES = {
    "A1": "dual primed square does not close",
    "A3": "dual {e_{i+1}', e_i} square does not close",
}


def _dual(axiom: str, run):
    """Run merge axiom ``axiom``'s own runner on the reversed view; report
    each violation at the original index, restating the messages that name
    arrows."""

    def dual_run(view: _View) -> list[Violation]:
        top = view.n - 1
        message = _DUAL_MESSAGES.get(axiom)
        return [
            replace(v, axiom=f"{axiom}D", index=top - v.index, message=message or v.message)
            for v in run(view.dual)
        ]

    return dual_run


_MERGE = {
    "A1": _premise_sites(_check_A1, (True, True)),
    "A2": _premise_sites(_check_A2, (True, True)),
    "A3": _premise_sites(_check_A3, (True, False)),
    "A4": _premise_sites(_check_A4, (False, True)),
    "A5": _solid_sites(_check_A5),
    "A6": _solid_sites(_check_A6),
    "A7": _solid_sites(_check_A7),
    "A8": _solid_sites(_check_A8),
}

_CHECKS = {
    "B1": _check_B1,
    "B2": _check_B2,
    "B3": _check_B3,
    "K": _check_K,
    **_MERGE,
    **{f"{axiom}D": _dual(axiom, run) for axiom, run in _MERGE.items()},
    "XL": _check_XL,
    "SA": _solid_sites(_check_SA),
    "L_CAS": _check_L_CAS,
    "L_CF1": _check_L_CF1,
    "L_TD": _check_L_TD,
}
ALL_AXIOMS = tuple(_CHECKS)


def check(g: CrystalGraph, axiom: str, *, _view: _View | None = None) -> list[Violation]:
    """All counterexamples to one axiom; empty list = certified.  check_all
    passes its view of g as ``_view``, so that its calls share one."""
    if axiom not in _CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {ALL_AXIOMS}")
    return _CHECKS[axiom](_View(g) if _view is None else _view)


@dataclass
class CheckReport:
    axioms: tuple[str, ...]
    violations: dict[str, list[Violation]]
    delta_histogram: Counter
    runtime_seconds: float
    vertex_count: int = 0
    edge_count: int = 0

    @property
    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def render(self) -> str:
        lines = [f"checked {self.vertex_count} vertices, {self.edge_count} edges"]
        for axiom in self.axioms:
            count = len(self.violations[axiom])
            status = "pass" if count == 0 else f"FAIL ({count})"
            lines.append(f"  {axiom:6s} {status}")
        hist = " ".join(
            f"{k}:{self.delta_histogram[k]}" for k in sorted(self.delta_histogram)
        )
        lines.append(f"Delta histogram: {hist or '(none)'}")
        lines.append(f"total violations: {self.total_violations}")
        lines.append(f"runtime: {self.runtime_seconds:.3f}s")
        return "\n".join(lines)


def check_all(g: CrystalGraph, axioms: tuple[str, ...] = ALL_AXIOMS) -> CheckReport:
    """Run every requested axiom once, in first-seen order, and aggregate
    counts, runtime, and the Delta histogram over all vertices carrying both
    f_i and f_{i+1}."""
    start = time.perf_counter()
    axioms = tuple(dict.fromkeys(axioms))
    view = _View(g)
    violations = {axiom: check(g, axiom, _view=view) for axiom in axioms}
    sites = (at.values() for primed in (False, True) for at in view.pair_sites(primed).values())
    return CheckReport(
        axioms=axioms,
        violations=violations,
        delta_histogram=Counter(d for found in sites for d in found if d is not None),
        runtime_seconds=time.perf_counter() - start,
        vertex_count=len(g),
        edge_count=g.edge_count(),
    )
