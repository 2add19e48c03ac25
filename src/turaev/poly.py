"""Exact Laurent polynomials and the state invariants of a diagram:
Kauffman bracket, Jones polynomial, Turaev genus.

A state assigns each crossing one of two smoothings.  Relative to the
slot convention (slot 0 = incoming under-strand, counterclockwise
order), the A smoothing joins slots (0,1) and (2,3), the B smoothing
joins (0,3) and (1,2): on the ends 4c + s, A pairs s with s ^ 1 and B
pairs s with s ^ 3.  Equivalently, the A smoothing opens the two
sectors swept when the over-strand line is turned counterclockwise
onto the under-strand line.  Because slot 0 always carries the under
strand, these pairings are the same at every crossing, and switching a
crossing (over becomes under) swaps its two smoothings.

The bracket is the state sum

    <D> = sum over states  A^(a - b) * (-A^2 - A^-2)^(loops - 1)

computed by contracting the diagram one crossing at a time (Bar-Natan's
local contraction, in its bracket form).  A partial state is an arc
table over the ends 4c + s, an ``array("I")`` of 4n machine integers:
each live end maps to the other end of its arc, and an end already
smoothed maps to itself, which no live end does.  Smoothing a crossing
either closes a circle or splices two arcs.  Partial states with equal
arc tables are merged, keyed by the table's bytes, so the cost follows
the number of distinct tables alive at once rather than 2^n.  Each
table keeps one integer: the sum of A^(a - b) delta^(circles closed)
over its partial states, times A^(3n + 2), evaluated at A = 2^(2n + 4)
(Kronecker substitution).  An A smoothing is a left shift, a B
smoothing a right shift, a closed circle v -> -(v * A^2 + v / A^2), and
merging two tables one addition.  The bounds that make every right
shift exact and every coefficient one base-2^(2n + 4) digit are argued
in ``bracket``.

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

The polynomial is read off the final integer as signed digits.  On a
plane diagram every exponent of the bracket is congruent to the lowest
one mod 4: for a knot, <D> = (-A^3)^w V(A^-4) puts them all at 3w.  So
the readout skips the zero digits below the lowest term with one
shift, then takes one digit in four and checks that the three between
are zero, raising NormalizationFailure otherwise.  Jones is the usual
writhe normalization V = (-A)^(-3w) <D> in t = A^-4; one check, on the
lowest exponent, that all are 3w mod 4, means a convention bug upstream
that breaks that congruence fails loudly instead of producing a quietly
wrong polynomial.

The Turaev genus of a connected diagram is g_T = (n + 2 - s_A - s_B) / 2,
with s_A and s_B the circle counts of its all-A and all-B states (Dasbach,
Futer, Kalfagianni, Lin and Stoltzfus, arXiv math/0605571).  It is 0
exactly on diagrams built from alternating pieces.

Both invariants read the end pairing ``pd.mates``.  A diagram from
``realize`` carries it from assembly, one closed strand by construction.
On any other diagram it comes from the one structural check,
``realize.end_mates``: a diagram that is not one closed strand through
every crossing, and so a split one, raises ValueError there.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .realize import PlanarDiagram, orbit_count

__all__ = [
    "LaurentPoly",
    "NormalizationFailure",
    "BracketTooWide",
    "bracket",
    "jones",
    "writhe",
    "turaev_genus",
    "span_t",
    "equal_up_to_mirror",
]


class NormalizationFailure(ValueError):
    """Bracket exponents that differ mod 4, or that are not 3w mod 4."""


class BracketTooWide(ValueError):
    """A contraction layer holds more than ``_MAX_TABLES`` arc tables.

    The cap turns a diagram whose width explodes into a clear error
    instead of a run of hours.  Measured peaks are at most 18 tables on
    the census diagrams and at most 538 on 60 seeded alternating
    4-braid closures up to n = 61, so the cap is far above any diagram
    the census needs.
    """


_MAX_TABLES = 1 << 16

_A_FLIP, _B_FLIP = 1, 3  # a smoothing joins end 4c + s to 4c + (s ^ flip)


@dataclass(frozen=True)
class LaurentPoly:
    """Finite exponent -> coefficient map with a variable tag.

    A value, not a ring: it has no arithmetic.  ``bracket`` does its
    arithmetic on packed integers and builds one of these only to read
    the result out.  Terms are stored sorted by exponent with zero
    coefficients dropped, so structural equality is exact polynomial
    equality.
    """

    var: str
    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(var: str, coeffs: dict[int, int]) -> LaurentPoly:
        terms = tuple(sorted((e, c) for e, c in coeffs.items() if c != 0))
        return LaurentPoly(var, terms)

    @staticmethod
    def one(var: str) -> LaurentPoly:
        return LaurentPoly(var, ((0, 1),))

    def mirrored(self) -> LaurentPoly:
        """All exponents negated (t <-> 1/t, A <-> 1/A)."""
        return LaurentPoly(self.var, tuple(sorted((-e, c) for e, c in self.terms)))

    def span(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no span")
        return self.terms[-1][0] - self.terms[0][0]

    def render(self) -> str:
        """Ascending exponents, ``c*v^e`` terms joined by `` + ``."""
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{self.var}^{e}" for e, c in self.terms)

    def __str__(self) -> str:
        return self.render()


def _frontier_order(mate: tuple[int, ...], n: int) -> list[int]:
    """Crossing 0, then repeatedly the uncontracted crossing with the
    most ends mated to contracted ones, ties to the lowest index."""
    score: dict[int, int] = {}  # frontier crossing -> 4n * joined ends - index
    placed = [False] * n
    order = [0]
    while len(order) < n:
        placed[order[-1]] = True
        for e in range(4 * order[-1], 4 * order[-1] + 4):
            nb = mate[e] // 4
            if not placed[nb]:
                score[nb] = score.get(nb, -nb) + 4 * n
        c = max(score, key=score.__getitem__)
        del score[c]
        order.append(c)
    return order


def bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket by contracting one crossing at a time, variable A.

    Crossings are contracted in ``_frontier_order``.  Raises
    ValueError from ``end_mates`` unless the diagram is one closed
    strand, BracketTooWide when a layer exceeds ``_MAX_TABLES`` arc
    tables, and NormalizationFailure when two exponents differ mod 4,
    which no plane diagram gives.
    """
    n = pd.n
    if n == 0:
        return LaurentPoly.one("A")
    mate = pd.mates
    # A table's weight is A^off * sum A^(a - b) delta^(closed) over its
    # partial states, evaluated at A = 2^w.  The diagram is one closed
    # strand (``end_mates`` checked it, or ``realize`` built it so), so
    # the state graph, one vertex per circle and one edge per crossing,
    # is connected: a state has at most n + 1 circles, and the last is
    # never weighted.  So exponents stay within n + 2n: the right shifts
    # (A^-1, A^-2) drop only zero digits, and a bracket coefficient, at
    # most 2^n states times 2^n, is below 2^(w - 1), one signed base-2^w
    # digit.
    w, w2, off = 2 * n + 4, 4 * n + 8, 3 * n + 2
    layer = {array("I", mate).tobytes(): 1 << (w * off)}
    for step, c in enumerate(_frontier_order(mate, n)):
        e0, e1, e2, e3 = range(4 * c, 4 * c + 4)
        merged: dict[bytes, int] = {}
        for arcs, weight in layer.items():
            # A joins (e0, e1) and (e2, e3), B joins (e0, e3) and (e1, e2)
            for v, x0, y0, x1, y1 in ((weight << w, e0, e1, e2, e3),
                                      (weight >> w, e0, e3, e1, e2)):
                arc = array("I", arcs)
                if arc[x0] == y0:  # a circle closes: times delta
                    v = -((v << w2) + (v >> w2))
                else:
                    u, t = arc[x0], arc[y0]
                    arc[u], arc[t] = t, u
                arc[x0], arc[y0] = x0, y0  # smoothed ends point at themselves
                if arc[x1] != y1:
                    u, t = arc[x1], arc[y1]
                    arc[u], arc[t] = t, u
                elif step < n - 1:  # last step: the unweighted circle
                    v = -((v << w2) + (v >> w2))
                arc[x1], arc[y1] = x1, y1
                key = arc.tobytes()
                merged[key] = merged.get(key, 0) + v
        if len(merged) > _MAX_TABLES:
            raise BracketTooWide(
                f"bracket of a {n}-crossing diagram: {len(merged)} arc tables "
                f"at step {step + 1} of {n}, over the cap of {_MAX_TABLES}"
            )
        layer = merged
    (total,) = layer.values()
    # On a plane diagram, switching one smoothing changes a - b by 2 and
    # the circle count by 1, so every exponent is congruent to the lowest
    # one mod 4: past the zero digits below the lowest term, each term is
    # followed by three zero digits.  The lowest term is below 2^(w - 1),
    # so its trailing zero bits end inside its own digit.
    zeros = (total & -total).bit_length() // w
    total >>= w * zeros
    half, full, low4 = 1 << (w - 1), (1 << w) - 1, (1 << 4 * w) - 1
    coeffs: dict[int, int] = {}
    e = zeros - off
    while total:  # signed base-2^w digits, lowest first, four at a time
        digit = ((total + half) & full) - half
        coeffs[e] = digit
        total -= digit
        if total & low4:
            skew = ((total & -total).bit_length() - 1) // w
            raise NormalizationFailure(
                f"bracket of a {n}-crossing diagram has exponents {e} and "
                f"{e + skew}, which differ mod 4"
            )
        total >>= 4 * w
        e += 4
    return LaurentPoly.from_dict("A", coeffs)


def writhe(pd: PlanarDiagram) -> int:
    """Sum of crossing signs under the traversal orientation."""
    return sum(cr.sign() for cr in pd.crossings)


def turaev_genus(pd: PlanarDiagram) -> int:
    """Genus of the surface spanned between the all-A and all-B states.

    Raises ValueError from ``end_mates`` unless the diagram is one
    closed strand, and when the all-A and all-B circle counts give a
    negative or odd 2 g_T, which no plane diagram does; ``verify_row``
    catches both.
    """
    n = pd.n
    if n == 0:
        return 0
    mate = pd.mates
    # every circle is traced twice, once per direction (see orbit_count)
    s_a, s_b = (orbit_count(mate, [e ^ flip for e in range(4 * n)]) // 2
                for flip in (_A_FLIP, _B_FLIP))
    twice = n + 2 - s_a - s_b
    if twice < 0 or twice % 2:
        raise ValueError(f"impossible loop counts all-A {s_a}, all-B {s_b} for n={n}")
    return twice // 2


def jones(pd: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial V = (-A)^(-3w) <D> in the variable t; raises
    NormalizationFailure unless the bracket's exponents are 3w mod 4."""
    br = bracket(pd)
    w = writhe(pd)
    if br.terms and (br.terms[0][0] - 3 * w) % 4:
        raise NormalizationFailure(
            f"bracket of a {pd.n}-crossing diagram: exponent "
            f"{br.terms[0][0]} is not 3w mod 4, w = {w}")
    sign = -1 if w % 2 else 1
    return LaurentPoly("t", tuple(((3 * w - e) // 4, sign * c)
                                  for e, c in reversed(br.terms)))


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
