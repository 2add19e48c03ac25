"""Planar realization of signed DT codes.

A realized diagram is a 4-valent plane graph with one vertex per
crossing.  Each crossing stores its four edge slots in counterclockwise
cyclic order, anchored so that

    slot 0 = incoming under-strand edge
    slot 2 = outgoing under-strand edge
    slots 1 and 3 = the over-strand, entering at ``over_in_slot``

Edges are numbered 1..2n along the strand traversal: edge k leaves the
crossing of pass k and arrives at the crossing of pass k+1 (pass 2n
wraps to pass 1).  Because slot 0 and ``over_in_slot`` are the two
arrival slots, every edge number appears exactly twice in the diagram,
once as an arrival and once as a departure, and a kink's self-loop edge
simply occupies two slots of the same crossing.

Realization searches the 2^(n-1) per-crossing orientation choices in
lexicographic order (crossing 0 pinned, which fixes one reflection of
the sphere) and keeps the first whose rotation system has n + 2 faces,
the Euler count of a sphere embedding.  The search is exhaustive, so a
code is rejected only when no planar assignment exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dt import DtCode

__all__ = [
    "Crossing",
    "PlanarDiagram",
    "RealizationResult",
    "NotRealizable",
    "realize",
    "try_realize",
    "face_count",
    "format_diagram",
    "validate_diagram",
]


class NotRealizable(ValueError):
    """No orientation assignment embeds the code in the sphere."""


@dataclass(frozen=True)
class Crossing:
    """Four edge numbers in counterclockwise order, slot 0 = under in."""

    slots: tuple[int, int, int, int]
    over_in_slot: int  # 1 or 3

    def sign(self) -> int:
        """+1 when the over direction is the under direction turned a
        quarter clockwise (the standard positive crossing, which makes
        a positive kink contribute -A^3 to the bracket), else -1."""
        return 1 if self.over_in_slot == 3 else -1


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def n_edges(self) -> int:
        return 2 * len(self.crossings)


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of a realization attempt, exactly one field set."""

    diagram: PlanarDiagram | None = None
    obstruction: str | None = None


def _pass_times(code: DtCode) -> tuple[list[int], list[int]]:
    """0-based (under, over) pass times per crossing."""
    under = []
    over = []
    for i, a in enumerate(code.labels):
        odd = 2 * i  # 0-based odd pass time
        even = abs(a) - 1
        if a > 0:
            under.append(even)
            over.append(odd)
        else:
            under.append(odd)
            over.append(even)
    return under, over


def _assemble(code: DtCode, mask: int) -> PlanarDiagram:
    n = code.n
    two_n = 2 * n
    under, over = _pass_times(code)

    def edge_in(t: int) -> int:  # edge arriving at pass t, 1-based
        return (t - 1) % two_n + 1

    def edge_out(t: int) -> int:  # edge leaving pass t, 1-based
        return t + 1

    crossings = []
    for i in range(n):
        b = 0 if i == 0 else (mask >> (n - 1 - i)) & 1
        u, o = under[i], over[i]
        if b == 0:
            slots = (edge_in(u), edge_in(o), edge_out(u), edge_out(o))
            over_in = 1
        else:
            slots = (edge_in(u), edge_out(o), edge_out(u), edge_in(o))
            over_in = 3
        crossings.append(Crossing(slots, over_in))
    return PlanarDiagram(tuple(crossings))


def _scan_orientations(n: int, under: list[int], over: list[int]) -> int:
    """Return the first orientation mask embedding the code, or -1.

    Bit 0 of the lexicographic word (crossing 0) is pinned to 0, which
    selects one diagram out of each mirror pair.  The mask packs bits
    for crossings 1..n-1 with crossing 1 most significant.  Ends are
    numbered by pass time, as ``orbit_count`` describes.
    """
    two_n = 2 * n
    mate = [0] * (4 * n)
    for t in range(two_n):
        nxt = (t + 1) % two_n
        mate[2 * t] = 2 * nxt + 1
        mate[2 * nxt + 1] = 2 * t
    sigma = [0] * (4 * n)
    for mask in range(1 << (n - 1)):
        for i in range(n):
            b = 0 if i == 0 else (mask >> (n - 1 - i)) & 1
            s0 = 2 * under[i] + 1
            s2 = 2 * under[i]
            if b == 0:
                s1, s3 = 2 * over[i] + 1, 2 * over[i]
            else:
                s1, s3 = 2 * over[i], 2 * over[i] + 1
            sigma[s0] = s1
            sigma[s1] = s2
            sigma[s2] = s3
            sigma[s3] = s0
        if orbit_count(mate, sigma) == n + 2:
            return mask
    return -1


def realize(code: DtCode) -> PlanarDiagram:
    """Realize a code as a plane diagram, or raise NotRealizable.

    Deterministic: the lexicographically first orientation word that
    embeds in the sphere is returned, with crossing 0 pinned so that a
    code and its reflection do not race.
    """
    if code.n == 0:
        return PlanarDiagram(())
    mask = _scan_orientations(code.n, *_pass_times(code))
    if mask < 0:
        raise NotRealizable(
            f"no planar orientation assignment for {code}: every "
            f"{1 << (code.n - 1)} candidate rotation system has fewer than "
            f"{code.n + 2} faces"
        )
    return _assemble(code, mask)


def try_realize(code: DtCode) -> RealizationResult:
    """Non-raising wrapper around realize()."""
    try:
        return RealizationResult(diagram=realize(code))
    except NotRealizable as exc:
        return RealizationResult(obstruction=str(exc))


def end_mates(pd: PlanarDiagram) -> list[int]:
    """Involution pairing the two ends of each edge.

    Ends are numbered 4 * crossing + slot.  mate[arrival end] is the
    matching departure end and vice versa.
    """
    # edge number -> its arrival (departure) end; an edge missing from a
    # malformed diagram stays None and fails below instead of pairing end 0
    arrive: list[int | None] = [None] * (pd.n_edges + 1)
    depart: list[int | None] = [None] * (pd.n_edges + 1)
    for c, cr in enumerate(pd.crossings):
        for s, e in enumerate(cr.slots):
            side = arrive if s in (0, cr.over_in_slot) else depart
            side[e] = 4 * c + s
    mate = [0] * (4 * pd.n)
    for a, d in zip(arrive[1:], depart[1:]):
        mate[a] = d
        mate[d] = a
    return mate


def orbit_count(mate: list[int], turn: list[int]) -> int:
    """Number of orbits of ``e -> turn[mate[e]]`` on the ends 0..len(mate)-1.

    ``mate`` pairs the two ends of each edge and ``turn`` says where a
    walk goes next at the crossing it arrives at.  Two end numberings
    use this:

    - A realized diagram numbers its ends 4 * crossing + slot
      (``end_mates``).  With ``turn`` the next slot counterclockwise the
      orbits are the faces of the rotation system.  With ``turn`` a
      smoothing, an involution pairing the four ends of each crossing,
      they are the circles of the smoothed diagram.  Since ``turn`` and
      ``mate`` are then both involutions, every circle is traced twice,
      once per direction, so the orbit count is exactly twice the
      number of circles.
    - The realization search numbers ends by 0-based pass time t in
      [0, 2n): the strand leaves the crossing of pass t through the
      out-end 2t and arrives at the crossing of pass t+1 through the
      in-end 2(t+1) + 1.  The edge pairing is then fixed once per code,
      while ``turn``, the cyclic order at each crossing, depends on the
      orientation bit being searched.  A candidate embeds the diagram
      in the sphere exactly when the face count hits n + 2.
    """
    seen = [False] * len(mate)
    orbits = 0
    for e0 in range(len(mate)):
        if not seen[e0]:
            orbits += 1
            e = e0
            while not seen[e]:
                seen[e] = True
                e = turn[mate[e]]
    return orbits


def face_count(pd: PlanarDiagram) -> int:
    """Number of faces of the rotation system (n + 2 exactly on a sphere)."""
    if pd.n == 0:
        return 2
    # the next slot counterclockwise at the same crossing
    turn = [(e & ~3) | ((e + 1) & 3) for e in range(4 * pd.n)]
    return orbit_count(end_mates(pd), turn)


def validate_diagram(pd: PlanarDiagram) -> None:
    """Check structural soundness, raising ValueError on violation.

    Each edge 1..2n must appear once as arrival and once as departure,
    and edge k's head must sit at the crossing that edge k+1 leaves,
    on the same strand (both under, or both over).
    """
    two_n = pd.n_edges
    arrive: dict[int, tuple[int, int]] = {}
    depart: dict[int, tuple[int, int]] = {}
    for c, cr in enumerate(pd.crossings):
        if cr.over_in_slot not in (1, 3):
            raise ValueError(f"crossing {c}: over_in_slot must be 1 or 3")
        in_slots = (0, cr.over_in_slot)
        for s, e in enumerate(cr.slots):
            if not 1 <= e <= two_n:
                raise ValueError(f"crossing {c}: edge {e} outside 1..{two_n}")
            side = arrive if s in in_slots else depart
            if e in side:
                raise ValueError(f"edge {e} appears twice on the same side")
            side[e] = (c, s)
    if len(arrive) != two_n or len(depart) != two_n:
        raise ValueError("each edge must arrive once and depart once")
    for e in range(1, two_n + 1):
        nxt = e % two_n + 1
        ca, sa = arrive[e]
        cd, sd = depart[nxt]
        if ca != cd:
            raise ValueError(f"edge {e} arrives at crossing {ca} but edge {nxt} departs crossing {cd}")
        under_slots = {0, 2}
        if ({sa, sd} != under_slots) and ({sa, sd} != {1, 3}):
            raise ValueError(f"edges {e},{nxt} do not pass straight through crossing {ca}")


def format_diagram(pd: PlanarDiagram) -> str:
    """Dump one line per crossing: ``Xi: (a, b, c, d) sign=+1``."""
    lines = []
    for c, cr in enumerate(pd.crossings, start=1):
        a, b, cc, d = cr.slots
        sign = "+1" if cr.sign() > 0 else "-1"
        lines.append(f"X{c}: ({a}, {b}, {cc}, {d}) sign={sign}")
    return "\n".join(lines)
