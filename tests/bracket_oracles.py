"""Slow reference brackets that ``poly.bracket`` is checked against.

Both oracles are exponential in the crossing number and meant for
diagrams with twelve or so crossings.  Both build the polynomial with
the ``LaurentPoly`` ring operations and a delta power, not with the
binomial expansion of delta^k that ``poly.bracket`` uses.

``skein_bracket`` is the unmerged form of the contraction.  It shares
the end pairing ``realize.end_mates`` and the arc splicing with
``poly.bracket``, and nothing else: it resolves crossings in storage
order rather than min-frontier order, writes its own smoothing pairs,
and follows every branch on its own to a full state, so no two partial
states are ever merged.

``enumeration_bracket`` shares no arc splicing at all.  It sums over
all 2^n state strings and counts each state's circles with
``diagram.state_loops``, an orbit count over ``end_mates`` with the
smoothing pairs of ``diagram.smoothing``, which ``poly.bracket`` also
reads.
"""

from __future__ import annotations

import itertools
from collections import Counter

from turaev.diagram import state_loops
from turaev.poly import LaurentPoly
from turaev.realize import PlanarDiagram, end_mates


def skein_bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket via recursive resolution, variable A.

    An arc table maps each loose end 4c + s to the opposite end of its
    arc; smoothing a crossing either splices two arcs or closes a
    circle, and every circle of a fully smoothed state closes exactly
    once along the way, so the bracket contribution of a resolution
    path is A^(a-b) * delta^(circles - 1).
    """
    n = pd.n
    if n == 0:
        return LaurentPoly.one("A")

    delta = LaurentPoly.from_dict("A", {2: -1, -2: -1})
    acc: dict[tuple[int, int], int] = {}  # (A exponent, circles) -> count

    def join(arcs: dict, a: int, b: int) -> int:
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
                closed += join(branch, 4 * c + sa, 4 * c + sb)
            resolve(
                c + 1,
                branch,
                apow + (1 if kind == "A" else -1),
                circles + closed,
            )

    resolve(0, dict(enumerate(end_mates(pd))), 0, 0)

    out = LaurentPoly.zero("A")
    for (apow, circles), count in sorted(acc.items()):
        term = LaurentPoly.monomial("A", apow, count) * delta ** (circles - 1)
        out = out + term
    return out


def enumeration_bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Full state sum over all 2^n state strings."""
    states = Counter()
    for state in map("".join, itertools.product("AB", repeat=pd.n)):
        states[2 * state.count("A") - pd.n, state_loops(pd, state)] += 1
    delta = LaurentPoly.from_dict("A", {2: -1, -2: -1})
    out = LaurentPoly.zero("A")
    for (e, loops), k in states.items():
        out = out + LaurentPoly.monomial("A", e, k) * delta ** (loops - 1)
    return out
