"""Weight generating functions, the classical Schur P/Q polynomials (by the
branching rule, sharing no code with the tableau enumerator), and
Schur-Q-positive expansions extracted from highest-weight enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InternalInconsistency
from .graph import CrystalGraph, build_graph, highest_weights
from .tableaux import SkewShape, StrictPartition, check_strict, enumerate_tableaux


class Polynomial:
    """Multivariate polynomial with exact integer coefficients, stored as a
    map from fixed-length exponent vectors to nonzero coefficients."""

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None, nvars: int = 0):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        for e in self.terms:
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has wrong length for {nvars} variables")

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls({}, nvars)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial(terms, max(self.nvars, other.nvars))

    def scale(self, k: int) -> "Polynomial":
        return Polynomial({e: k * c for e, c in self.terms.items()}, self.nvars)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def swap_variables(self, a: int, b: int) -> "Polynomial":
        terms = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[a], e2[b] = e2[b], e2[a]
            terms[tuple(e2)] = c
        return Polynomial(terms, self.nvars)

    def is_symmetric(self) -> bool:
        return all(self.swap_variables(j, j + 1) == self for j in range(self.nvars - 1))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{j + 1}^{p}" if p > 1 else f"x{j + 1}" for j, p in enumerate(e) if p
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class Expansion:
    """Multiset of strict partitions with positive multiplicities."""

    terms: tuple[tuple[StrictPartition, int], ...]

    def __post_init__(self) -> None:
        for sigma, mult in self.terms:
            check_strict(sigma)
            if mult < 1:
                raise ValueError("multiplicities must be positive")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"[({','.join(map(str, s))})] x{m}" for s, m in self.terms
        )


def _weight_polynomial(weights, n: int, class_size: bool = False) -> Polynomial:
    """Sum of x^wt over the given weight vectors, each counted once or, with
    ``class_size``, 2^(number of distinct values) times."""
    terms: dict[tuple[int, ...], int] = {}
    for wt in weights:
        coeff = 2 ** sum(1 for count in wt if count) if class_size else 1
        terms[wt] = terms.get(wt, 0) + coeff
    return Polynomial(terms, n)


def genfun(tableaux, n: int) -> Polynomial:
    """Sum of x^wt over the given tableaux."""
    return _weight_polynomial((t.weight() for t in tableaux), n)


def genfun_weighted(tableaux, n: int) -> Polynomial:
    """Sum of 2^(number of distinct values) * x^wt: each canonical tableau
    counted with its representative-class size.  On straight shapes this
    recovers the classical Schur Q-polynomial."""
    return _weight_polynomial((t.weight() for t in tableaux), n, class_size=True)


def _letter_steps(mu: StrictPartition, sigma: StrictPartition) -> list[tuple[StrictPartition, int]]:
    """Each strict lam, mu <= lam <= sigma, that one letter k can add to mu
    (lam_{r+1} <= mu_r in every row r), with its number of fillings: k or k'
    in the south-west cell of each edge-connected piece of lam/mu, only k on
    the main diagonal, the other cells forced (Macdonald, III.8)."""
    rows = min(len(mu) + 1, len(sigma))
    m = mu + (0,) * (rows + 1 - len(mu))
    ranges = [range(m[r], min(sigma[r], m[r - 1] if r else sigma[r]) + 1) for r in range(rows)]
    steps = []
    for parts in product(*ranges):
        lam = parts + (0,)
        if any(0 < lam[r + 1] == lam[r] for r in range(rows)):
            continue  # not strict
        # row r starts a free piece unless lam_{r+1} = mu_r (continued below, or on the diagonal)
        free = sum(1 for r in range(rows) if m[r] < lam[r] and lam[r + 1] != m[r])
        steps.append((tuple(p for p in parts if p), 2**free))
    return steps


def schur_P(sigma: StrictPartition, n: int) -> Polynomial:
    """Classical Schur P-polynomial by the branching rule: after k letters,
    ``polys[lam]`` is P_lam(x_1..x_k) for each lam inside sigma they reach,
    and letter k+1 extends it along the ``_letter_steps`` of lam, computed
    once per call.  Raises InternalInconsistency unless it is symmetric."""
    sigma = check_strict(sigma)
    steps: dict[StrictPartition, list[tuple[StrictPartition, int, int]]] = {}
    polys: dict[StrictPartition, dict[tuple[int, ...], int]] = {(): {(): 1}}
    for _ in range(n):
        grown: dict[StrictPartition, dict[tuple[int, ...], int]] = {}
        for mu, terms in polys.items():
            if mu not in steps:
                steps[mu] = [(lam, sum(lam) - sum(mu), ways) for lam, ways in _letter_steps(mu, sigma)]
            for lam, added, ways in steps[mu]:
                acc = grown.setdefault(lam, {})
                for e, c in terms.items():
                    e += (added,)
                    acc[e] = acc.get(e, 0) + ways * c
        polys = grown
    poly = Polynomial(polys.get(sigma), n)
    if not poly.is_symmetric():
        raise InternalInconsistency(f"P_{sigma} came out asymmetric")
    return poly


def schur_Q(sigma: StrictPartition, n: int) -> Polynomial:
    """Q = 2^len(sigma) * P."""
    sigma = check_strict(sigma)
    return schur_P(sigma, n).scale(2 ** len(sigma))


def expand(shape: SkewShape, n: int) -> Expansion:
    """One strict partition per connected component: the weight of its
    unique highest-weight vertex, trailing zeros stripped."""
    graph = build_graph(shape, n)
    return expansion_of_graph(graph)


def expansion_of_graph(graph: CrystalGraph) -> Expansion:
    counts: dict[StrictPartition, int] = {}
    for g in highest_weights(graph):
        sigma = tuple(p for p in g.weight if p > 0)
        counts[sigma] = counts.get(sigma, 0) + 1
    terms = tuple(sorted(counts.items(), key=lambda kv: (-sum(kv[0]), kv[0])))
    return Expansion(terms)


@dataclass(frozen=True)
class ExpansionReport:
    shape: SkewShape
    n: int
    expansion: Expansion
    identity_ok: bool
    straight_matches: tuple[tuple[StrictPartition, str], ...]
    weighted_matches: tuple[tuple[StrictPartition, str], ...]

    def __str__(self) -> str:
        status = "identity OK" if self.identity_ok else "identity FAILS"
        return f"{self.expansion} ; {status}"


def _classify(poly: Polynomial, p: Polynomial, q: Polynomial) -> str:
    against_p = poly == p
    against_q = poly == q
    if against_p and against_q:
        return "P=Q"
    if against_p:
        return "P"
    if against_q:
        return "Q"
    return "neither"


def verify_expansion(shape: SkewShape, n: int) -> ExpansionReport:
    """Check genfun(ShST(shape, n)) = sum of m_sigma * genfun(ShST(sigma, n)).

    The graph is built once: the expansion comes from its components and
    the left-hand side from its vertex weights, which also serve as the
    weights of a sigma equal to the input shape.  Also records, per straight
    sigma encountered, whether (a) the plain genfun and (b) the
    class-size-weighted genfun coincide with the classical P, Q, both, or
    neither.  Empirically (a) matches P only in degenerate cases while (b)
    is Q on every tested shape.
    """
    graph = build_graph(shape, n)
    expansion = expansion_of_graph(graph)
    lhs = _weight_polynomial((v.weight for v in graph.vertices), n)
    rhs = Polynomial.zero(n)
    matches = []
    weighted = []
    for sigma, mult in expansion.terms:
        if SkewShape(sigma) == shape:
            straight = lhs
            weighted_genfun = _weight_polynomial((v.weight for v in graph.vertices), n, class_size=True)
        else:
            tableaux = enumerate_tableaux(SkewShape(sigma), n)
            straight = genfun(tableaux, n)
            weighted_genfun = genfun_weighted(tableaux, n)
        p = schur_P(sigma, n)
        q = p.scale(2 ** len(sigma))
        rhs = rhs + straight.scale(mult)
        matches.append((sigma, _classify(straight, p, q)))
        weighted.append((sigma, _classify(weighted_genfun, p, q)))
    return ExpansionReport(shape, n, expansion, lhs == rhs, tuple(matches), tuple(weighted))
