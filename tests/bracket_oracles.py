"""Slow reference models that ``poly`` is checked against.

Both bracket oracles are exponential in the crossing number and meant
for diagrams with twelve or so crossings.  Both collect a count per
(A exponent, circles) pair and pass it to ``_state_sum``, which expands
each power of delta binomially into exponent -> coefficient terms.
``poly.bracket`` never expands a power of delta: it packs every partial
state's weight into one integer (Kronecker substitution) and reads the
coefficients off its digits.

``skein_bracket`` is the unmerged form of the contraction.  It shares
the arc splicing with ``poly.bracket`` and nothing else: it takes its
end pairing from ``end_mates_oracle``, which builds its own arrival and
departure maps, resolves crossings in storage order rather than
min-frontier order, writes its own smoothing pairs, and follows every
branch on its own to a full state, so no two partial states are ever
merged.

``enumeration_bracket`` sums over all 2^n state strings and counts each
state's circles with ``loops_oracle``, a circle tracer over (crossing,
slot) tuples with its own edge maps and smoothing pairs.  It shares
only ``PlanarDiagram`` and the ``LaurentPoly`` value type with
``poly``.

``frontier_order_oracle`` is the min-frontier rule of
``poly._frontier_order`` written as a plain scan: every step counts the
joined ends of every uncontracted crossing and takes the largest count,
ties to the lowest index.

``goeritz_determinant`` is the knot determinant from a second model of
the diagram, the Goeritz matrix of its checkerboard colouring, and
``goeritz_signature`` is the knot signature from the same matrix
(Gordon and Litherland).  They walk the faces on their own and use
neither ``end_mates`` nor ``orbit_count``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from diagram_fixtures import end_mates_oracle
from turaev.poly import LaurentPoly
from turaev.realize import PlanarDiagram


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

    resolve(0, dict(enumerate(end_mates_oracle(pd))), 0, 0)
    return _state_sum(acc)


def _state_sum(counts: dict[tuple[int, int], int]) -> LaurentPoly:
    """Sum of count * A^e * delta^(circles - 1) over ``counts``, keyed
    (e, circles), with delta^k = (-1)^k sum_j C(k, j) A^(2k - 4j)."""
    coeffs: dict[int, int] = {}
    for (e, circles), count in counts.items():
        k = circles - 1
        for j in range(k + 1):
            x = e + 2 * k - 4 * j
            coeffs[x] = coeffs.get(x, 0) + (-1) ** k * math.comb(k, j) * count
    return LaurentPoly.from_dict("A", coeffs)


def loops_oracle(pd: PlanarDiagram, state: str) -> int:
    """Circles of the state, a string of A and B indexed by crossing.

    The A smoothing joins slots (0,1) and (2,3), the B smoothing joins
    (0,3) and (1,2).
    """
    arrive: dict[int, tuple[int, int]] = {}
    depart: dict[int, tuple[int, int]] = {}
    for c, cr in enumerate(pd.crossings):
        for s, e in enumerate(cr.slots):
            if s in (0, cr.over_in_slot):
                arrive[e] = (c, s)
            else:
                depart[e] = (c, s)
    pair: dict[tuple[int, int], tuple[int, int]] = {}
    for c, kind in enumerate(state):
        joins = [(0, 1), (2, 3)] if kind == "A" else [(0, 3), (1, 2)]
        for sa, sb in joins:
            pair[(c, sa)] = (c, sb)
            pair[(c, sb)] = (c, sa)
    loops = 0
    todo = set(pair)
    while todo:
        loops += 1
        start = min(todo)
        cur = start
        while True:
            todo.discard(cur)
            c, s = pair[cur]
            todo.discard((c, s))
            e = pd.crossings[c].slots[s]
            cur = arrive[e] if depart[e] == (c, s) else depart[e]
            todo.discard(cur)
            if cur == start:
                break
    return loops


def enumeration_bracket(pd: PlanarDiagram) -> LaurentPoly:
    """Full state sum over all 2^n state strings."""
    states = Counter()
    for state in map("".join, itertools.product("AB", repeat=pd.n)):
        states[2 * state.count("A") - pd.n, loops_oracle(pd, state)] += 1
    return _state_sum(states)


def frontier_order_oracle(mate: list[int], n: int) -> list[int]:
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


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [row[:] for row in m]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def _signature(m: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix, by exact congruence.

    Each step takes a nonzero diagonal pivot, first making one by a
    symmetric row and column swap, or by adding row and column j to row
    and column k when every remaining diagonal entry is zero, and then
    passes to the Schur complement.  Sylvester's law of inertia makes
    the signature the number of positive pivots minus the negative ones.
    """
    m = [[Fraction(x) for x in row] for row in m]
    size, sig = len(m), 0
    for k in range(size):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, size) if m[j][j]), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, size) if m[k][j]), None)
                if j is None:  # row k is zero: a null direction
                    continue
                for i in range(k, size):  # m[k][k] becomes 2 m[k][j]
                    m[k][i] += m[j][i]
                for i in range(k, size):
                    m[i][k] += m[i][j]
        p = m[k][k]
        sig += 1 if p > 0 else -1
        for i in range(k + 1, size):
            f = m[i][k] / p
            if f:
                for j in range(k, size):
                    m[i][j] -= f * m[k][j]
    return sig


def _goeritz(pd: PlanarDiagram, shade: int) -> tuple[list[list[int]], list[int]]:
    """The reduced Goeritz matrix G' over the faces of colour ``shade``,
    and eta of every crossing.

    Corner k of crossing c lies between slots k and k + 1.  The faces
    whose colour class holds corner (0, 0) have colour 0, the others 1,
    and the faces of colour ``shade`` are shaded.  A crossing has
    eta = +1 when its shaded corners are 1 and 3, the ones the A
    smoothing joins, and -1 otherwise.  G_ij = -sum eta over the
    crossings between distinct shaded faces i and j, G_ii = -sum_{j != i} G_ij,
    and G' deletes the row and column of the first shaded face.
    """
    ends: dict[int, list[tuple[int, int]]] = {}
    for c, cr in enumerate(pd.crossings):
        for s, e in enumerate(cr.slots):
            ends.setdefault(e, []).append((c, s))
    across: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in ends.values():
        across[a], across[b] = b, a
    # walking a face, the corner after (c, k) is the far end of the
    # edge in slot k + 1
    face: dict[tuple[int, int], int] = {}
    corners: list[list[tuple[int, int]]] = []
    for start in itertools.product(range(pd.n), range(4)):
        if start not in face:
            corners.append([])
            corner = start
            while corner not in face:
                face[corner] = len(corners) - 1
                corners[-1].append(corner)
                c, k = corner
                corner = across[c, (k + 1) % 4]
    # corners k and k + 1 of a crossing lie in faces of opposite colours
    colour = {face[0, 0]: 0}
    todo = [face[0, 0]]
    while todo:
        f = todo.pop()
        for c, k in corners[f]:
            g = face[c, (k + 1) % 4]
            if g not in colour:
                colour[g] = 1 - colour[f]
                todo.append(g)
            elif colour[g] == colour[f]:
                raise ValueError("the faces admit no checkerboard colouring")
    shaded = sorted(f for f, col in colour.items() if col == shade)
    index = {f: i for i, f in enumerate(shaded)}
    matrix = [[0] * len(shaded) for _ in shaded]
    etas = []
    for c in range(pd.n):
        eta, k = (1, 1) if colour[face[c, 1]] == shade else (-1, 0)
        etas.append(eta)
        i, j = index[face[c, k]], index[face[c, k + 2]]
        if i != j:
            matrix[i][j] -= eta
            matrix[j][i] -= eta
    for i, row in enumerate(matrix):
        row[i] = -sum(row)
    return [row[1:] for row in matrix[1:]], etas


def goeritz_determinant(pd: PlanarDiagram) -> int:
    """|det G'| for the Goeritz matrix of the checkerboard colouring.

    For a knot diagram this is the determinant |V(-1)|.
    """
    return abs(_bareiss_det(_goeritz(pd, 0)[0]))


def goeritz_signature(pd: PlanarDiagram, shade: int = 0) -> int:
    """The knot signature from the Goeritz matrix (Gordon and Litherland).

    The surface is spanned by the faces that are not shaded, and G' is
    its Gordon-Litherland form on the loops around the shaded faces.  A
    crossing is of type II when its oriented smoothing joins the
    surface's corners, which is when eta = -sign, and mu sums eta over
    the type II crossings.  Gordon and Litherland's sign(G') - mu, with
    this eta, is minus the signature in the convention where the
    positive trefoil has sigma = -2, so this returns mu - sign(G').
    Either colouring gives the same value, and V(-1) = (-1)^(sigma / 2) det
    for a knot.
    """
    matrix, etas = _goeritz(pd, shade)
    mu = sum(eta for eta, cr in zip(etas, pd.crossings) if eta == -cr.sign())
    return mu - _signature(matrix)
