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
and ``dt_of`` reads the DT code back off any diagram, so realization
can be checked against a diagram it did not build.

``random_code`` and ``random_diagram`` are the one source of seeded
random codes.  ``random_code`` shuffles the evens 2..2n and then draws
one sign per shuffled label, in order (``rng.random() < 0.5`` keeps it
positive).  ``random_diagram`` draws n with ``rng.randint(low, high)``
and then ``random_code(rng, n)``, and repeats until the code realizes;
it returns the diagram.

``switch_crossing`` and ``mirror`` exchange over and under strands at
one crossing or at all of them.  ``shuffled`` stores the same diagram
with its crossings in another order, and ``reflected`` embeds it with
the opposite reflection.

``end_mates_oracle`` is the end pairing of ``realize.end_mates`` built
from explicit arrival and departure maps over all four slots of every
crossing, with its own structural checks.

``interlacement_bits_oracle`` is the orientation-bit rule of
``realize._orientation_bits`` written over sets: ``interlacement_graph``
compares every pair of chords once, and a depth-first walk takes one
neighbour at a time and counts common neighbours by set intersection.
"""

from __future__ import annotations

import random

from turaev.dt import DtCode
from turaev.realize import Crossing, PlanarDiagram, try_realize

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


def random_code(rng: random.Random, n: int) -> DtCode:
    """The evens 2..2n shuffled, each negated with probability 1/2."""
    evens = list(range(2, 2 * n + 1, 2))
    rng.shuffle(evens)
    return DtCode(n, tuple(a if rng.random() < 0.5 else -a for a in evens))


def random_diagram(rng: random.Random, low: int, high: int) -> PlanarDiagram:
    """The diagram of the first ``random_code`` with n = randint(low,
    high) that realizes."""
    while True:
        diagram = try_realize(random_code(rng, rng.randint(low, high))).diagram
        if diagram is not None:
            return diagram


def dt_of(pd: PlanarDiagram) -> DtCode:
    """The DT code of a diagram numbered as ``realize`` numbers it."""
    two_n, labels = pd.n_edges, [0] * pd.n
    for cr in pd.crossings:  # edge k arrives at pass k + 1
        under, over = cr.slots[0] % two_n + 1, cr.slots[cr.over_in_slot] % two_n + 1
        odd, even = (under, over) if under % 2 else (over, under)
        labels[odd // 2] = -even if even == over else even
    return DtCode(pd.n, tuple(labels))


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


def shuffled(pd: PlanarDiagram, rng: random.Random) -> PlanarDiagram:
    """The same diagram with its crossings stored in a random order."""
    crossings = list(pd.crossings)
    rng.shuffle(crossings)
    return PlanarDiagram(tuple(crossings))


def reflected(pd: PlanarDiagram) -> PlanarDiagram:
    """The same diagram embedded with the opposite reflection.

    Reversing every cyclic slot order keeps slot 0 as the under-strand
    arrival and moves the over-strand arrival from slot 1 to slot 3 or
    back.
    """
    out = []
    for cr in pd.crossings:
        s0, s1, s2, s3 = cr.slots
        out.append(Crossing((s0, s3, s2, s1), 4 - cr.over_in_slot))
    return PlanarDiagram(tuple(out))


def end_mates_oracle(pd: PlanarDiagram) -> list[int]:
    """The end pairing from an arrival map and a departure map.

    Raises ValueError unless every ``over_in_slot`` is 1 or 3, each edge
    1..2n arrives once and departs once, and edge k's head sits at the
    crossing that edge k + 1 leaves, on the same strand (both under, or
    both over).
    """
    two_n = pd.n_edges
    arrive: dict[int, tuple[int, int]] = {}
    depart: dict[int, tuple[int, int]] = {}
    for c, cr in enumerate(pd.crossings):
        if cr.over_in_slot not in (1, 3):
            raise ValueError(f"crossing {c}: over_in_slot must be 1 or 3")
        for s, e in enumerate(cr.slots):
            if not 1 <= e <= two_n:
                raise ValueError(f"crossing {c}: edge {e} outside 1..{two_n}")
            side = arrive if s in (0, cr.over_in_slot) else depart
            if e in side:
                raise ValueError(f"edge {e} appears twice on the same side")
            side[e] = (c, s)
    if len(arrive) != two_n or len(depart) != two_n:
        raise ValueError("each edge must arrive once and depart once")
    for e in range(1, two_n + 1):
        nxt = e % two_n + 1
        (ca, sa), (cd, sd) = arrive[e], depart[nxt]
        if ca != cd:
            raise ValueError(f"edge {e} arrives at crossing {ca} but edge {nxt} departs crossing {cd}")
        if {sa, sd} not in ({0, 2}, {1, 3}):
            raise ValueError(f"edges {e},{nxt} do not pass straight through crossing {ca}")
    mate = [0] * (4 * pd.n)
    for e in range(1, two_n + 1):
        (ca, sa), (cd, sd) = arrive[e], depart[e]
        mate[4 * ca + sa], mate[4 * cd + sd] = 4 * cd + sd, 4 * ca + sa
    return mate


def interlacement_graph(code: DtCode) -> list[set[int]]:
    """The crossings each crossing interlaces with, every pair compared once.

    Chords (2i + 1, |a_i|) interlace when exactly one end of one lies
    strictly inside the other.
    """
    n = code.n
    chords = [sorted((2 * i + 1, abs(a))) for i, a in enumerate(code.labels)]
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, (a0, a1) in enumerate(chords):
        for j in range(i + 1, n):
            b0, b1 = chords[j]
            if (a0 < b0 < a1) != (a0 < b1 < a1):
                nbrs[i].add(j)
                nbrs[j].add(i)
    return nbrs


def interlacement_bits_oracle(code: DtCode) -> list[int]:
    """Orientation bits by Rosenstiehl's rule on ``interlacement_graph``.

    Each component's lowest crossing gets bit 0, and along each tree
    edge u -> v the bit flips when u and v share an even number of
    neighbours and once per negative label.
    """
    n = code.n
    nbrs = interlacement_graph(code)
    neg = [a < 0 for a in code.labels]
    bits: list[int | None] = [None] * n
    for root in range(n):
        if bits[root] is not None:
            continue
        bits[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if bits[v] is None:
                    even = len(nbrs[u] & nbrs[v]) % 2 == 0
                    bits[v] = bits[u] ^ neg[u] ^ neg[v] ^ even
                    stack.append(v)
    return bits
