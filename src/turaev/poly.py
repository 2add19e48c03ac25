"""Exact Laurent polynomials, Kauffman bracket, Jones polynomial.

The bracket is the state sum

    <D> = sum over states  A^(a - b) * (-A^2 - A^-2)^(loops - 1)

computed by contracting the diagram one crossing at a time (Bar-Natan's
local contraction, in its bracket form).  A partial state is an arc
table over the ends 4c + s: each live end maps to the other end of its
arc, and -1 marks an end already smoothed.  Smoothing a crossing either
closes a circle or splices two arcs.  Partial states with equal arc
tables are merged, their counts kept by (number of A smoothings, circles
closed), so the cost follows the number of distinct tables alive at
once rather than 2^n.

That number depends on the order of the crossings, and the bracket does
not.  The crossings are taken in min-frontier order: crossing 0 first,
then always the crossing with the most ends already joined to the
contracted part, ties to the lowest index.  This keeps the boundary of
the contracted part short, which is what bounds the table count; Burton
(arXiv 1712.05776) bounds the cost by the width of a tree
decomposition, and a path order is its simplest form.  Storage order,
the DT traversal, sweeps every strand of a closed braid in turn, so its
table count grows exponentially with the length of the braid: Jones of
an alternating 4-braid closure took seconds at n = 41 and did not finish
in minutes at n = 61.  This order peaks at 18 tables on the census
diagrams and at a few hundred on 4-braid closures up to n = 61.

The polynomial is assembled from the final counts in arbitrary-precision
integers.  Jones is the usual writhe normalization V = (-A)^(-3w) <D>
rewritten in t = A^-4; the exponent division by 4 is asserted, so a
convention bug anywhere upstream fails loudly instead of producing a
quietly wrong polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .diagram import DisconnectedDiagram, is_connected, smoothing, writhe
from .realize import PlanarDiagram, end_mates

__all__ = [
    "LaurentPoly",
    "ZeroPolynomial",
    "NormalizationFailure",
    "BracketTooWide",
    "bracket",
    "jones",
    "span_t",
    "equal_up_to_mirror",
]


class ZeroPolynomial(ValueError):
    """Span of the zero polynomial is undefined."""


class NormalizationFailure(AssertionError):
    """Bracket exponents not divisible by 4 after writhe correction."""


class BracketTooWide(ValueError):
    """A contraction layer holds more than ``_MAX_TABLES`` arc tables.

    The cap turns a diagram whose width explodes into a clear error
    instead of a run of hours.  Measured peaks are at most 18 tables on
    the census diagrams and at most 538 on 60 seeded alternating
    4-braid closures up to n = 61, so the cap is far above any diagram
    the census needs.
    """


_MAX_TABLES = 1 << 16


@dataclass(frozen=True)
class LaurentPoly:
    """Finite exponent -> coefficient map with a variable tag.

    Terms are stored sorted by exponent with zero coefficients dropped,
    so structural equality is exact polynomial equality.
    """

    var: str
    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(var: str, coeffs: dict[int, int]) -> LaurentPoly:
        terms = tuple(sorted((e, c) for e, c in coeffs.items() if c != 0))
        return LaurentPoly(var, terms)

    @staticmethod
    def zero(var: str) -> LaurentPoly:
        return LaurentPoly(var, ())

    @staticmethod
    def one(var: str) -> LaurentPoly:
        return LaurentPoly(var, ((0, 1),))

    @staticmethod
    def monomial(var: str, exp: int, coeff: int = 1) -> LaurentPoly:
        if coeff == 0:
            return LaurentPoly(var, ())
        return LaurentPoly(var, ((exp, coeff),))

    def _need_same_var(self, other: LaurentPoly) -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        self._need_same_var(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.from_dict(self.var, acc)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.var, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        self._need_same_var(other)
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(self.var, acc)

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPoly.one(self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def mirrored(self) -> LaurentPoly:
        """All exponents negated (t <-> 1/t, A <-> 1/A)."""
        return LaurentPoly(self.var, tuple(sorted((-e, c) for e, c in self.terms)))

    def span(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no span")
        return self.terms[-1][0] - self.terms[0][0]

    def render(self) -> str:
        """Ascending exponents, ``c*v^e`` terms joined by `` + ``."""
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{self.var}^{e}" for e, c in self.terms)

    def __str__(self) -> str:
        return self.render()


def _frontier_order(mate: list[int], n: int) -> list[int]:
    """Crossing 0, then repeatedly the uncontracted crossing with the
    most ends mated to contracted ones, ties to the lowest index."""
    joined = [0] * n  # ends mated to a contracted crossing
    left = set(range(1, n))
    order = [0]
    while left:
        for e in range(4 * order[-1], 4 * order[-1] + 4):
            joined[mate[e] // 4] += 1
        c = max(left, key=lambda i: (joined[i], -i))
        left.remove(c)
        order.append(c)
    return order


def bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket by contracting one crossing at a time, variable A.

    Crossings are contracted in ``_frontier_order``.  Raises
    DisconnectedDiagram on a split diagram and BracketTooWide when a
    layer exceeds ``_MAX_TABLES`` arc tables.
    """
    n = pd.n
    if n == 0:
        return LaurentPoly.one("A")
    if not is_connected(pd):
        raise DisconnectedDiagram("bracket needs a connected diagram")
    mate = end_mates(pd)
    # arc table -> {(A smoothings, closed circles): states}
    layer = {tuple(mate): {(0, 0): 1}}
    for step, c in enumerate(_frontier_order(mate, n)):
        merged: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for arcs, counts in layer.items():
            for kind, da in (("A", 1), ("B", 0)):
                arc = list(arcs)
                closed = 0
                for x, y in enumerate(smoothing(c, kind), start=4 * c):
                    if x > y:
                        continue
                    if arc[x] == y:
                        closed += 1
                    else:
                        u, v = arc[x], arc[y]
                        arc[u], arc[v] = v, u
                    arc[x] = arc[y] = -1
                out = merged.setdefault(tuple(arc), {})
                for (a, loops), states in counts.items():
                    key = (a + da, loops + closed)
                    out[key] = out.get(key, 0) + states
        if len(merged) > _MAX_TABLES:
            raise BracketTooWide(
                f"bracket of a {n}-crossing diagram: {len(merged)} arc tables "
                f"at step {step + 1} of {n}, over the cap of {_MAX_TABLES}"
            )
        layer = merged
    (counts,) = layer.values()
    # delta^k = (-1)^k sum_j C(k, j) A^(2k - 4j)
    coeffs: dict[int, int] = {}
    for (a, loops), states in counts.items():
        k = loops - 1
        for j in range(k + 1):
            e = 2 * a - n + 2 * k - 4 * j
            coeffs[e] = coeffs.get(e, 0) + (-1) ** k * comb(k, j) * states
    return LaurentPoly.from_dict("A", coeffs)


def _to_t(p: LaurentPoly) -> LaurentPoly:
    """Rewrite an A-polynomial in t = A^-4, asserting divisibility."""
    out: dict[int, int] = {}
    for e, c in p.terms:
        if e % 4:
            raise NormalizationFailure(
                f"exponent {e} not divisible by 4 in {p.render()}"
            )
        out[-e // 4] = c
    return LaurentPoly.from_dict("t", out)


def jones(pd: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial V = (-A)^(-3w) <D> in the variable t."""
    br = bracket(pd)
    w = writhe(pd)
    sign = -1 if w % 2 else 1
    normalized = br * LaurentPoly.monomial("A", -3 * w, sign)
    return _to_t(normalized)


def span_t(p: LaurentPoly) -> int:
    """Exponent spread of a nonzero t-polynomial."""
    if p.var != "t":
        raise ValueError(f"span_t expects variable t, got {p.var}")
    return p.span()


def equal_up_to_mirror(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True iff p = q or p = q with all exponents negated."""
    if p.var != q.var:
        raise ValueError(f"variable mismatch: {p.var} vs {q.var}")
    return p == q or p == q.mirrored()
