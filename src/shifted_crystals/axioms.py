"""Mechanical verification of the local axioms on a crystal graph.

Every axiom, its dual, and the structural lemmas are checked at every
vertex and every valid index pair; each "if and only if" is evaluated in
both directions, and a violation records which side failed together with
a radius-3 neighborhood for replay.  Vertices whose relevant strings match
neither legal shape are skipped by the stats-dependent checks (B1 reports
them), so the checker stays total on arbitrary imported graphs.

Checkers read the graph through a view that binds, once per index j, the
graph's maps for f_j, f_j' and the statistics at j, so every read is one
dict.get and a missing arrow (None) passes through a chain of reads.

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
from operator import sub

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


def _context(g: CrystalGraph, ids: tuple[int, ...]) -> str:
    seen = set(ids)
    frontier = set(ids)
    for _ in range(3):  # the radius of the neighbourhood
        nxt = {edge[3] for edge in g._edges(frontier)} | {edge[0] for edge in g._edges(frontier, into=True)}
        frontier = nxt - seen
        seen |= nxt
    ordered = sorted(seen)
    lines = []
    for v in ordered:
        vert = g.by_id[v]
        word = "" if vert.word is None else f" {vert.word}"
        lines.append(f"  {v}{word} wt={vert.weight}")
    for src, i, primed, dst in g._edges(ordered):
        if len(lines) > 60:  # cut below, so no more edges need reading
            break
        if dst in seen:
            lines.append(f"  {src} -{edge_label(i, primed)}-> {dst}")
    if len(lines) > 60:
        lines = lines[:60] + ["  ..."]
    return "\n".join(lines)


class _View:
    """The graph's maps bound once per index 1 <= j <= n-1: f[j] and fp[j]
    send a vertex to its f_j and f_j' target, stats[j] a vertex on a legal
    {j,j'}-string to its statistics, and strings[j] is the string table of
    j.  The reversed view binds at j the e maps, the dual statistics and the
    string table of index n-j, so a dual axiom at i is its axiom at n-1-i
    on it.  ``indices`` lists the site indices i <= n-2 in the original
    order: ascending here, and n-2 down to 1 on the reversed view, and
    ``site_vertices`` the vertices, or none when there is no site index."""

    def __init__(self, g: CrystalGraph, reverse: bool = False):
        self.g, self.n = g, g.n
        arrows = g.e_map if reverse else g.f_map
        self.f, self.fp, self.stats, self.strings = {}, {}, {}, {}
        for j in range(1, g.n):
            k = g.n - j if reverse else j
            self.strings[j], stats, dual = g.table(k)
            self.f[j], self.fp[j] = arrows[k, False], arrows[k, True]
            self.stats[j] = dual if reverse else stats
        self.indices = range(g.n - 2, 0, -1) if reverse else range(1, g.n - 1)
        self.site_vertices = g.vertices if self.indices else ()

    def pair_sites(self):
        """Every site (w, i, x, y) with x = f_i(w) and y = f_{i+1}(w) both
        defined, in vertex order, then in ``indices`` order."""
        f = self.f
        for vert in self.site_vertices:
            w = vert.id
            for i in self.indices:
                x, y = f[i].get(w), f[i + 1].get(w)
                if x is not None and y is not None:
                    yield w, i, x, y

    def delta_at(self, w: int, i: int, x: int, y: int) -> tuple[int, int] | None:
        """(eps_i(w)-eps_i(y), eps_{i+1}(w)-eps_{i+1}(x)) for an i-side
        target x and an (i+1)-side target y."""
        s, t = self.stats[i], self.stats[i + 1]
        parts = (s.get(w), s.get(y), t.get(w), t.get(x))
        if None in parts:
            return None
        return parts[0].eps - parts[1].eps, parts[2].eps - parts[3].eps


def _check_B1(view: _View) -> list[Violation]:
    g = view.g
    out = []
    for v, i, primed, side in g.label_degree_violations():
        out.append(
            Violation("B1", (v,), i, f"several {side} edges labeled {edge_label(i, primed)}", _context(g, (v,)))
        )
    for i in range(1, view.n):
        table = view.strings[i]
        seen: set[int] = set()
        for vert in g.vertices:
            if vert.id in seen:
                continue
            comp, shape = table[vert.id]
            seen |= comp
            if shape is None:
                ids = tuple(sorted(comp))
                out.append(
                    Violation("B1", ids, i, "component matches neither string shape", _context(g, ids[:2]))
                )
                continue
            collapsed = shape.kind == "collapsed"
            chain = shape.chains[0]
            for v in comp:
                wt = g.weight(v)
                for k, end, side in ((i, chain[0], "top"), (i - 1, chain[-1], "bottom")):
                    if (wt[k] == 0) != (collapsed and v == end):
                        out.append(
                            Violation(
                                "B1",
                                (v,),
                                i,
                                f"wt_{k + 1}=0 iff {side} of collapsed string fails (wt={wt})",
                                _context(g, (v,)),
                            )
                        )
    return out


def _check_B2(view: _View) -> list[Violation]:
    g = view.g
    out = []
    for vert in g.vertices if g.n > 3 else ():  # below n = 4 no two indices differ by 2 or more
        w = vert.id
        directions = (
            ("downward", [(i, p, dst) for _, i, p, dst in g._edges((w,))], g.f_map),
            ("upward", [(i, p, src) for src, i, p, _ in g._edges((w,), into=True)], g.e_map),
        )
        for side, edges, arrows in directions:
            for i, p, x in edges:
                for j, q, y in edges:
                    if j - i <= 1:
                        continue
                    z1 = arrows[j, q].get(x)
                    z2 = arrows[i, p].get(y)
                    if z1 is None or z1 != z2:
                        out.append(
                            Violation(
                                "B2",
                                (w, x, y),
                                i,
                                f"{side} {edge_label(i, p)} and {edge_label(j, q)} edges do not close a square",
                                _context(g, (w,)),
                            )
                        )
    return out


def _check_B3(view: _View) -> list[Violation]:
    g = view.g
    out = []
    for src, index, primed, dst in g._edges():
        for i in (index - 1, index + 1):
            if not 1 <= i <= view.n - 1:
                continue
            sz, sw = view.stats[i].get(src), view.stats[i].get(dst)
            if sz is None or sw is None:
                continue
            change = (sw.eps - sz.eps, sw.phi - sz.phi)
            if change not in ((0, 1), (-1, 0)):
                out.append(
                    Violation(
                        "B3",
                        (src, dst),
                        i,
                        f"(eps_{i}, phi_{i}) changed by {change} along a {edge_label(index, primed)} edge",
                        _context(g, (src, dst)),
                    )
                )
    return out


def _check_K(view: _View) -> list[Violation]:
    g = view.g
    out = []
    alphas = {i: (0,) * (i - 1) + (1, -1) + (0,) * (view.n - 1 - i) for i in range(1, view.n)}
    for src, i, primed, dst in g._edges():
        if g.weight(dst) != tuple(map(sub, g.weight(src), alphas[i])):
            out.append(
                Violation(
                    "K",
                    (src, dst),
                    i,
                    f"weight {g.weight(dst)} != {g.weight(src)} - alpha_{i}",
                    _context(g, (src, dst)),
                )
            )
        su, sv = view.stats[i].get(src), view.stats[i].get(dst)
        if su is not None and sv is not None and (sv.eps, sv.phi) != (su.eps + 1, su.phi - 1):
            out.append(
                Violation(
                    "K",
                    (src, dst),
                    i,
                    f"(eps, phi) step along {edge_label(i, primed)} edge is "
                    f"({sv.eps - su.eps}, {sv.phi - su.phi}), want (1, -1)",
                    _context(g, (src, dst)),
                )
            )
    for vert in g.vertices:
        wt = vert.weight
        for i in range(1, view.n):
            s = view.stats[i].get(vert.id)
            if s is not None and s.phi - s.eps != wt[i - 1] - wt[i]:
                out.append(
                    Violation(
                        "K",
                        (vert.id,),
                        i,
                        f"phi_{i} - eps_{i} = {s.phi - s.eps} != wt_{i} - wt_{i + 1} = {wt[i - 1] - wt[i]}",
                        _context(g, (vert.id,)),
                    )
                )
    return out


def _iff(axiom: str, view: _View, w: int, i: int, structural: bool, numeric, out: list) -> None:
    """Record a violation when the two sides of an iff disagree.

    ``numeric`` is None when the needed statistics are unavailable (broken
    strings elsewhere); such vertices are skipped, B1 reports the cause.
    """
    if numeric is None:
        return
    if structural != numeric:
        side = "structural holds, numeric fails" if structural else "numeric holds, structural fails"
        out.append(
            Violation(axiom, (w,), i, side, _context(view.g, (w,)))
        )


def _check_A1(view: _View, w: int, i: int, out: list) -> None:
    x, y = view.fp[i].get(w), view.fp[i + 1].get(w)
    if x is None or y is None:
        return
    lhs = view.fp[i].get(y)
    rhs = view.fp[i + 1].get(x)
    if lhs is None or lhs != rhs:
        out.append(Violation("A1", (w, x, y), i, "primed square does not close", _context(view.g, (w,))))


def _check_A2(view: _View, w: int, i: int, out: list) -> None:
    x, y = view.fp[i].get(w), view.fp[i + 1].get(w)
    if x is None or y is None:
        return
    bottom = view.f[i].get(y)
    structural = bottom is not None and bottom == view.f[i + 1].get(x) and view.fp[i].get(y) != bottom
    d = view.delta_at(w, i, x, y)
    s1 = view.stats[i + 1].get(w)
    numeric = None
    if d is not None and s1 is not None:
        numeric = d == (0, 0) and s1.phi == 1 and s1.phi_hat == 0
    _iff("A2", view, w, i, structural, numeric, out)


def _check_A3(view: _View, w: int, i: int, out: list) -> None:
    x, y = view.fp[i].get(w), view.f[i + 1].get(w)
    if x is None or y is None:
        return
    if view.fp[i + 1].get(w) == y and view.f[i].get(w) == x:
        return
    lhs = view.fp[i].get(y)
    rhs = view.f[i + 1].get(x)
    if lhs is None or lhs != rhs:
        out.append(
            Violation("A3", (w, x, y), i, "{f_i', f_{i+1}} square does not close", _context(view.g, (w,)))
        )


def _check_A4(view: _View, w: int, i: int, out: list) -> None:
    x, y = view.f[i].get(w), view.fp[i + 1].get(w)
    if x is None or y is None:
        return
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


def _check_XL(view: _View, w: int, i: int, out: list) -> None:
    s_i, s_i1 = view.stats[i].get(w), view.stats[i + 1].get(w)
    if s_i is None or s_i1 is None:
        return
    if s_i.eps_hat == 0 and s_i.phi_prime == 0 and s_i1.phi_hat == 0 and s_i1.eps_prime == 0:
        incident = [e for e in (*view.g._edges((w,)), *view.g._edges((w,), True)) if e[1] in (i, i + 1)]
        if incident:
            out.append(
                Violation(
                    "XL",
                    (w,),
                    i,
                    f"excluded lengths hold yet {len(incident)} {i}/{i + 1}-edges touch the vertex",
                    _context(view.g, (w,)),
                )
            )


def _check_SA(view: _View, w: int, i: int, x: int, y: int, d, out: list) -> None:
    if d != (0, 0):
        return
    sw, sy = view.stats[i].get(w), view.stats[i].get(y)
    if sw is None or sy is None:
        return
    a7 = sw.eps_hat - sy.eps_hat == -1
    a8 = sy.phi_hat >= 2
    if not (a7 or a8):
        out.append(
            Violation("SA", (w,), i, "neither octagon side-condition applies at Delta=(0,0)", _context(view.g, (w,)))
        )


def _check_L_CAS(view: _View) -> list[Violation]:
    g = view.g
    out = []
    for src, index, _, dst in g._edges():
        for j in (index + 1, index - 1):
            if not 1 <= j <= view.n - 1:
                continue
            sw, sz = view.stats[j].get(src), view.stats[j].get(dst)
            if sw is None or sz is None:
                continue
            cw, cz = view.strings[j][src][1].kind == "collapsed", view.strings[j][dst][1].kind == "collapsed"
            if j > index:
                found = (
                    (sz.phi == sw.phi + 1 and cw != cz, "collapsedness not preserved along an edge incrementing phi"),
                    (sz.phi == sw.phi and cz, "target string collapsed although phi was copied"),
                )
            else:
                found = ((cw != (cz and sz.phi == sw.phi), "collapsedness/phi not copied along an adjacent-string edge"),)
            for bad, message in found:
                if bad:
                    out.append(Violation("L_CAS", (src, dst), j, message, _context(g, (src, dst))))
    return out


def _check_L_CF1(view: _View) -> list[Violation]:
    g = view.g
    out = []
    for src, i, primed, dst in g._edges():
        if not primed or i > view.n - 2:
            continue
        sw, sz = view.stats[i + 1].get(src), view.stats[i + 1].get(dst)
        if sw is None or sz is None:
            continue
        if sw.phi == sz.phi and sz.phi_hat != 0:
            out.append(
                Violation(
                    "L_CF1",
                    (src, dst),
                    i,
                    f"phi_{i + 1} copied along {i}' edge but phi_hat_{i + 1}(target) = {sz.phi_hat}",
                    _context(g, (src, dst)),
                )
            )
    return out


def _check_L_TD(view: _View) -> list[Violation]:
    g = view.g
    out = []
    f = view.f
    for z, i, x, y in view.pair_sites():
        t = view.fp[i].get(z)
        if t is None or t == x:
            continue
        if t not in f[i] or t not in f[i + 1]:
            out.append(
                Violation("L_TD", (z, t), i, "f_i or f_{i+1} undefined at the primed target", _context(g, (z, t)))
            )
            continue
        dz = view.delta_at(z, i, x, y)
        dt = view.delta_at(t, i, f[i][t], f[i + 1][t])
        if dz is None or dt is None:
            continue
        if dz != dt:
            out.append(
                Violation(
                    "L_TD",
                    (z, t),
                    i,
                    f"Delta changes along the primed edge: {dz} vs {dt}",
                    _context(g, (z, t)),
                )
            )
    return out


def _every_site(fn):
    """Run a per-(vertex, i) check at every vertex and every site index."""

    def run(view: _View) -> list[Violation]:
        out: list[Violation] = []
        for vert in view.site_vertices:
            for i in view.indices:
                fn(view, vert.id, i, out)
        return out

    return run


def _solid_sites(fn):
    """Run a check at the sites where f_i and f_{i+1} are defined and f_i'
    is not (the hypothesis of A5-A8 and SA), passing x, y and Delta."""

    def run(view: _View) -> list[Violation]:
        out: list[Violation] = []
        for w, i, x, y in view.pair_sites():
            if w not in view.fp[i]:
                fn(view, w, i, x, y, view.delta_at(w, i, x, y), out)
        return out

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
            for v in run(_View(view.g, reverse=True))
        ]

    return dual_run


_MERGE = {
    "A1": _every_site(_check_A1),
    "A2": _every_site(_check_A2),
    "A3": _every_site(_check_A3),
    "A4": _every_site(_check_A4),
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
    "XL": _every_site(_check_XL),
    "SA": _solid_sites(_check_SA),
    "L_CAS": _check_L_CAS,
    "L_CF1": _check_L_CF1,
    "L_TD": _check_L_TD,
}
ALL_AXIOMS = tuple(_CHECKS)


def check(g: CrystalGraph, axiom: str) -> list[Violation]:
    """All counterexamples to one axiom; empty list = certified."""
    if axiom not in _CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {ALL_AXIOMS}")
    return _CHECKS[axiom](_View(g))


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
    violations = {}
    for axiom in axioms:
        violations[axiom] = check(g, axiom)
    view = _View(g)
    hist: Counter = Counter()
    for w, i, x, y in view.pair_sites():
        d = view.delta_at(w, i, x, y)
        if d is not None:
            hist[d] += 1
    return CheckReport(
        axioms=axioms,
        violations=violations,
        delta_histogram=hist,
        runtime_seconds=time.perf_counter() - start,
        vertex_count=len(g),
        edge_count=sum(1 for _ in g._edges()),
    )

