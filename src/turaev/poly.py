"""Exact Laurent polynomials, Kauffman bracket, Jones polynomial.

The bracket is the full state sum

    <D> = sum over states  A^(a - b) * (-A^2 - A^-2)^(loops - 1)

evaluated exactly: the enumeration reduces the 2^n states to a small
integer matrix counting states by (number of A smoothings, loop count),
and the polynomial is assembled from that matrix in arbitrary-precision
integers.  Jones is the usual writhe normalization V = (-A)^(-3w) <D>
rewritten in t = A^-4; the exponent division by 4 is asserted, so a
convention bug anywhere upstream fails loudly instead of producing a
quietly wrong polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import is_connected, smoothing, writhe
from .realize import PlanarDiagram, end_mates, orbit_count

__all__ = [
    "LaurentPoly",
    "ZeroPolynomial",
    "NormalizationFailure",
    "bracket",
    "jones",
    "span_t",
    "equal_up_to_mirror",
]


class ZeroPolynomial(ValueError):
    """Span of the zero polynomial is undefined."""


class NormalizationFailure(AssertionError):
    """Bracket exponents not divisible by 4 after writhe correction."""


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

    def coeffs(self) -> dict[int, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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


def _delta_powers(upto: int) -> list[LaurentPoly]:
    delta = LaurentPoly.from_dict("A", {2: -1, -2: -1})
    powers = [LaurentPoly.one("A")]
    for _ in range(upto):
        powers.append(powers[-1] * delta)
    return powers


def _state_counts(n: int, mate: list[int]) -> list[list[int]]:
    """Count states by (number of A smoothings, circle count).

    Returns an (n+1) x (n+2) matrix M with M[a][c] the number of states
    having a A-smoothings and c circles.  State bit i set means crossing
    i takes the B smoothing.
    """
    smoothings = [(smoothing(i, "A"), smoothing(i, "B")) for i in range(n)]
    rho = [0] * (4 * n)
    counts = [[0] * (n + 2) for _ in range(n + 1)]
    for state in range(1 << n):
        acount = n
        for i, (a, b) in enumerate(smoothings):
            if (state >> i) & 1:
                acount -= 1
                rho[4 * i:4 * i + 4] = b
            else:
                rho[4 * i:4 * i + 4] = a
        orbits = orbit_count(mate, rho)
        if orbits & 1 or orbits // 2 > n + 1:
            raise RuntimeError(
                f"state enumeration failed on a connected diagram: "
                f"{orbits} orbits at {n} crossings")
        counts[acount][orbits // 2] += 1
    return counts


def bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket by exact state sum, variable A."""
    n = pd.n
    if n == 0:
        return LaurentPoly.one("A")
    if not is_connected(pd):
        raise ValueError("bracket needs a connected diagram")
    counts = _state_counts(n, end_mates(pd))
    dpow = _delta_powers(n + 1)
    acc = LaurentPoly.zero("A")
    for loops in range(1, n + 2):
        col: dict[int, int] = {}
        for a in range(n + 1):
            c = counts[a][loops]
            if c:
                col[2 * a - n] = c
        if col:
            acc = acc + LaurentPoly.from_dict("A", col) * dpow[loops - 1]
    return acc


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
