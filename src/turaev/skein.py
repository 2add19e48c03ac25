"""Reference bracket by recursive skein resolution.

The unmerged form of the contraction in ``poly.bracket``: crossings
are resolved one at a time, splicing arcs as we go, but every branch
is followed on its own down to a full state, so no two partial states
are ever merged.  An arc table maps each loose end to the opposite end
of its arc; smoothing a crossing either splices two arcs or closes a
circle, and every circle of a fully smoothed state closes exactly once
along the way, so the bracket contribution of a resolution path is
A^(a-b) * delta^(circles - 1).  The independent oracle, which shares
nothing with the arc splicing, is the full state enumeration in the
tests.

Exponential in the crossing number; intended for diagrams with twelve
or so crossings.
"""

from __future__ import annotations

from .poly import LaurentPoly
from .realize import PlanarDiagram

__all__ = ["skein_bracket"]


def _initial_arcs(pd: PlanarDiagram) -> dict[tuple[int, int], tuple[int, int]]:
    position: dict[tuple[int, str], tuple[int, int]] = {}
    for c, cr in enumerate(pd.crossings):
        for s, e in enumerate(cr.slots):
            side = "in" if s in (0, cr.over_in_slot) else "out"
            position[(e, side)] = (c, s)
    arcs: dict[tuple[int, int], tuple[int, int]] = {}
    for e in range(1, pd.n_edges + 1):
        a = position[(e, "in")]
        b = position[(e, "out")]
        arcs[a] = b
        arcs[b] = a
    return arcs


def skein_bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket via recursive resolution, variable A."""
    n = pd.n
    if n == 0:
        return LaurentPoly.one("A")

    delta = LaurentPoly.from_dict("A", {2: -1, -2: -1})
    acc: dict[tuple[int, int], int] = {}  # (A exponent, circles) -> count

    def join(arcs: dict, a: tuple[int, int], b: tuple[int, int]) -> int:
        if arcs[a] == b:
            del arcs[a]
            del arcs[b]
            return 1
        x, y = arcs.pop(a), arcs.pop(b)
        del arcs[x], arcs[y]
        arcs[x] = y
        arcs[y] = x
        return 0

    def resolve(c: int, arcs: dict, apow: int, circles: int) -> None:
        if c == n:
            key = (apow, circles)
            acc[key] = acc.get(key, 0) + 1
            return
        for kind in ("A", "B"):
            branch = dict(arcs)
            pairs = ((0, 1), (2, 3)) if kind == "A" else ((0, 3), (1, 2))
            closed = 0
            for sa, sb in pairs:
                closed += join(branch, (c, sa), (c, sb))
            resolve(
                c + 1,
                branch,
                apow + (1 if kind == "A" else -1),
                circles + closed,
            )

    resolve(0, _initial_arcs(pd), 0, 0)

    out = LaurentPoly.zero("A")
    for (apow, circles), count in sorted(acc.items()):
        term = LaurentPoly.monomial("A", apow, count) * delta ** (circles - 1)
        out = out + term
    return out
