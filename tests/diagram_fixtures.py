"""Shared diagram constructions for tests.

The pretzel tracer builds a DT code for a three-region pretzel by
walking the closed strand explicitly: three vertical twist stacks side
by side, top arcs joining TR_k to TL_{k+1} cyclically, bottom arcs
joining BR_k to BL_{k+1}.  Inside a stack the strand zig-zags between
the two diagonals.  Region sign picks which diagonal runs over: the
UL-DR diagonal in a positive region, the UR-DL diagonal in a negative
one, so regions of equal sign alternate and a sign change breaks
alternation.

The braid tracer builds a plane diagram directly, without a DT code,
for closures too long for the realization search.

``switch_crossing`` and ``mirror`` exchange over and under strands at
one crossing or at all of them.
"""

from __future__ import annotations

from turaev.dt import DtCode
from turaev.realize import Crossing, PlanarDiagram

_TOP_EXIT = {"TL", "TR"}


def _transit(t: int, port: str) -> tuple[str, list[tuple[int, str]]]:
    """Walk a stack of |t| crossings entered at the given port.

    Returns the exit port and the sequence of (crossing index, diagonal)
    passes, indices counted from the top of the stack.
    """
    m = abs(t)
    passes: list[tuple[int, str]] = []
    if port in ("TL", "TR"):
        diag = "UL-DR" if port == "TL" else "UR-DL"
        for j in range(m):
            passes.append((j, diag))
            diag = "UR-DL" if diag == "UL-DR" else "UL-DR"
        last = passes[-1][1]
        exit_port = "BR" if last == "UL-DR" else "BL"
    else:
        diag = "UR-DL" if port == "BL" else "UL-DR"
        for j in range(m - 1, -1, -1):
            passes.append((j, diag))
            diag = "UR-DL" if diag == "UL-DR" else "UL-DR"
        last = passes[-1][1]
        exit_port = "TR" if last == "UR-DL" else "TL"
    return exit_port, passes


def pretzel_dt(t1: int, t2: int, t3: int) -> DtCode:
    """DT code of the (t1, t2, t3) pretzel, which must close to a knot."""
    twists = (t1, t2, t3)
    total = sum(abs(t) for t in twists)
    passes: list[tuple[int, int, str]] = []
    region, port = 0, "TL"
    start = (region, port)
    while True:
        exit_port, local = _transit(twists[region], port)
        passes.extend((region, j, diag) for j, diag in local)
        if exit_port == "TR":
            region, port = (region + 1) % 3, "TL"
        elif exit_port == "TL":
            region, port = (region - 1) % 3, "TR"
        elif exit_port == "BR":
            region, port = (region + 1) % 3, "BL"
        else:
            region, port = (region - 1) % 3, "BR"
        if (region, port) == start:
            break
        if len(passes) > 2 * total:
            raise ValueError(f"pretzel {twists} is not a knot")
    if len(passes) != 2 * total:
        raise ValueError(f"pretzel {twists} is not a knot")

    times: dict[tuple[int, int], list[int]] = {}
    for t, (reg, j, _diag) in enumerate(passes, start=1):
        times.setdefault((reg, j), []).append(t)
    labels = []
    for i in range(total):
        odd = 2 * i + 1
        reg, j, diag = passes[odd - 1]
        t_pair = times[(reg, j)]
        even = t_pair[0] if t_pair[1] == odd else t_pair[1]
        over_diag = "UL-DR" if twists[reg] > 0 else "UR-DL"
        even_diag = passes[even - 1][2]
        labels.append(even if even_diag != over_diag else -even)
    return DtCode(total, tuple(labels))


def braid_closure_diagram(word: list[int]) -> PlanarDiagram:
    """Plane diagram of the closure of a braid word that closes to a knot.

    Entry k > 0 is sigma_k: the strands at positions k - 1 and k cross,
    and the one arriving from the bottom left runs over; -k is its
    inverse.  Strands
    run upward and the closure leads each top position back to the same
    bottom position.  The trace starts at the bottom of position 0, and
    edge t leaves the crossing of pass t, as ``realize`` numbers it.  The
    slots of a crossing run counterclockwise BL, BR, TR, TL, rotated so
    that slot 0 is the under-strand arrival, and crossing i is the one
    met at odd pass 2i + 1, as ``realize`` stores a DT code.
    """
    visits: list[list[tuple[int, str]]] = [[] for _ in word]
    pos, t = 0, 0
    while True:
        for j, g in enumerate(word):
            if pos in (abs(g) - 1, abs(g)):
                t += 1
                visits[j].append((t, "BL" if pos == abs(g) - 1 else "BR"))
                pos = 2 * abs(g) - 1 - pos
        if pos == 0:
            break
    if t != 2 * len(word):
        raise ValueError(f"braid word {word} does not close to a knot")
    crossings: list[Crossing | None] = [None] * len(word)
    for g, passes in zip(word, visits):
        edge = {}
        for p, port in passes:
            edge[port] = p - 1 or t  # arrives along edge p - 1
            edge["TR" if port == "BL" else "TL"] = p
        # slot 0 is where the under strand arrives: BR when sigma_k is positive
        ports = ("BR", "TR", "TL", "BL") if g > 0 else ("BL", "BR", "TR", "TL")
        odd = next(p for p, _ in passes if p % 2)
        crossings[odd // 2] = Crossing(tuple(edge[q] for q in ports), 3 if g > 0 else 1)
    return PlanarDiagram(tuple(crossings))


def _switched(cr: Crossing) -> Crossing:
    # Exchange over and under strands, re-anchoring slot 0 onto the new
    # incoming under-strand.  A cyclic shift keeps the rotation intact.
    s0, s1, s2, s3 = cr.slots
    if cr.over_in_slot == 1:
        return Crossing((s1, s2, s3, s0), 3)
    return Crossing((s3, s0, s1, s2), 1)


def switch_crossing(pd: PlanarDiagram, i: int) -> PlanarDiagram:
    """Exchange over and under strands at crossing i."""
    if not 0 <= i < pd.n:
        raise IndexError(f"crossing index {i} outside 0..{pd.n - 1}")
    crossings = list(pd.crossings)
    crossings[i] = _switched(crossings[i])
    return PlanarDiagram(tuple(crossings))


def mirror(pd: PlanarDiagram) -> PlanarDiagram:
    """The mirror diagram: every crossing switched."""
    return PlanarDiagram(tuple(_switched(cr) for cr in pd.crossings))
