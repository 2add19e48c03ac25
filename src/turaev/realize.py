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

Realization reads both the verdict and the orientation word off the
interlacement graph of the chords (2i+1, |a_i|), instead of searching
the 2^(n-1) candidates.  Crossing i's bit says whether the over strand
enters at slot 1 (bit 0) or slot 3 (bit 1); XORed with [a_i < 0] it
says from which side the even pass of crossing i crosses its odd pass.
Rosenstiehl's characterization of Gauss words (proved by de Fraysseix
and Ossona de Mendez, 1999) says the code has a plane curve exactly
when, with the interlacement matrix squared over GF(2) so that entry
(u, v) is the parity of the common neighbours of u and v,

    (a) every crossing has an even number of neighbours,
    (b) two crossings that do not interlace share an even number, and
    (c) the sides 2-colour the graph so that two interlaced crossings
        lie on one side exactly when they share an odd number.

(a) and (b) say that each row of the square lies inside the row of the
graph.  (c) fixes the sides up to one reflection per component, and
giving each component's lowest crossing bit 0 picks the
lexicographically first embedding word.  A code that fails any of the
three has no sphere embedding under any bits, so no rotation system of
its 2^(n-1) candidates reaches the n + 2 faces of the Euler count, and
it is rejected before any crossing is built.  No face count decides:
``face_count`` and ``validate_diagram`` remain as independent checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import xor

from .dt import DtCode, _shown

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
    """No orientation assignment embeds the code in the sphere.

    Raised when the GF(2) square of the interlacement graph breaks one
    of the three conditions of the module docstring: a row of the square
    outside its row of the graph ((a), (b)), or a row that is not the
    graph row masked to its crossing's side ((c)).  By the theorem every
    one of the 2^(n-1) candidate rotation systems then has fewer than
    n + 2 faces, which the message states; no face count is taken.
    """


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

    @cached_property
    def mates(self) -> tuple[int, ...]:
        """``end_mates(self)``, built once per diagram and stored on the
        instance, not as a field, so ``==`` and ``hash`` still see only
        ``crossings``."""
        return tuple(end_mates(self))

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


def _orientation_bits(code: DtCode) -> list[int] | None:
    """One orientation bit per crossing, or None when no plane curve exists.

    The interlacement graph and its square over GF(2) are held as
    bitmasks, one row per crossing.  Chord u's passes are lo < hi, and
    the chords crossing it are those met an odd number of times strictly
    between them: ``nbrs[u]`` is the XOR of the passes lo + 1 .. hi - 1.
    Row u of the square is the XOR of ``nbrs[w]`` over those same
    passes, since a chord with both ends inside chord u cancels, so it
    is one more prefix XOR; bit v of ``sq[u]`` is the parity of the
    common neighbours of u and v.  The three conditions of the module
    docstring read off it:

    - (a) and (b), before any walk: ``sq[u] & ~nbrs[u]`` is 0 for every u.
      (c) implies them; checked first, they reject most codes without
      the walk.
    - The walk: each component, taken in ascending order of its lowest
      crossing, gets bit 0 at that crossing.  Along each edge u -> v of
      a spanning tree the bit of v follows by Rosenstiehl's rule,
      flipped when bit v of ``sq[u]`` is 0 (an even number of common
      neighbours) and once more for each negative label of the two.  It
      claims every unvisited neighbour of a crossing at once.
    - (c), after the walk: ``sq[u]`` is ``nbrs[u]`` masked to the
      crossings on u's side, the side being bit XOR [label < 0].

    None means a condition failed; the face count does not decide.
    """
    n = code.n
    of = [0] * (2 * n + 1)  # pass -> its crossing, passes 1..2n
    chords = []
    for i, a in enumerate(code.labels):
        p, q = 2 * i + 1, abs(a)
        of[p] = of[q] = i
        chords.append((p, q) if p < q else (q, p))
    # seen[t]: XOR of the bits of passes 1..t; inner[t]: of their nbrs
    seen = list(accumulate([1 << c for c in of[1:]], xor, initial=0))
    nbrs = [seen[hi - 1] ^ seen[lo] for lo, hi in chords]
    inner = list(accumulate([nbrs[c] for c in of[1:]], xor, initial=0))
    sq = [inner[hi - 1] ^ inner[lo] for lo, hi in chords]
    if any(s & ~m for s, m in zip(sq, nbrs)):
        return None
    neg = [a < 0 for a in code.labels]
    bits = [0] * n
    todo = (1 << n) - 1
    while todo:
        root = (todo & -todo).bit_length() - 1
        todo ^= 1 << root
        stack = [root]
        while stack:
            u = stack.pop()
            new = nbrs[u] & todo
            todo ^= new
            while new:
                v = (new & -new).bit_length() - 1
                new ^= 1 << v
                even = not sq[u] >> v & 1
                bits[v] = bits[u] ^ neg[u] ^ neg[v] ^ even
                stack.append(v)
    side = [b ^ g for b, g in zip(bits, neg)]
    ones = sum(1 << i for i, s in enumerate(side) if s)
    if any(sq[u] != nbrs[u] & (ones if side[u] else ~ones) for u in range(n)):
        return None
    return bits


def _assemble(code: DtCode, bits: list[int]) -> PlanarDiagram:
    """The diagram of ``code`` under ``bits``."""
    two_n = 2 * code.n
    crossings = []
    for i, (a, b) in enumerate(zip(code.labels, bits)):
        odd, even = 2 * i, abs(a) - 1  # 0-based pass times
        u, o = (even, odd) if a > 0 else (odd, even)
        # pass t arrives along edge t (edge 2n at pass 0), leaves along t + 1
        u_in, o_in = (u - 1) % two_n + 1, (o - 1) % two_n + 1
        if b == 0:
            slots = (u_in, o_in, u + 1, o + 1)
        else:
            slots = (u_in, o + 1, u + 1, o_in)
        crossings.append(Crossing(slots, 3 if b else 1))
    return PlanarDiagram(tuple(crossings))


def realize(code: DtCode) -> PlanarDiagram:
    """Realize a code as a plane diagram, or raise NotRealizable.

    Deterministic: each interlacement component's lowest crossing has
    bit 0, which is the lexicographically first orientation word that
    embeds in the sphere, so a code and its reflection do not race.
    """
    bits = _orientation_bits(code)
    if bits is None:
        raise NotRealizable(
            f"no planar orientation assignment for {code}: every "
            f"{_shown(1 << (code.n - 1))} candidate rotation system has "
            f"fewer than {code.n + 2} faces"
        )
    return _assemble(code, bits)


def try_realize(code: DtCode) -> RealizationResult:
    """Non-raising wrapper around realize()."""
    try:
        return RealizationResult(diagram=realize(code))
    except NotRealizable as exc:
        return RealizationResult(obstruction=str(exc))


def end_mates(pd: PlanarDiagram) -> list[int]:
    """Involution pairing the two ends of each edge.

    Ends are numbered 4 * crossing + slot.  mate[arrival end] is the
    matching departure end and vice versa.  ``PlanarDiagram.mates`` keeps
    one per diagram.

    This is the one structural check of a diagram, and it reads only the
    2n arrival slots, 0 and ``over_in_slot``.  It raises ValueError
    unless ``over_in_slot`` is 1 or 3, every edge 1..2n arrives exactly
    once, and slot s ^ 2 opposite each arrival slot s carries the next
    edge, e % 2n + 1.  Then edge k departs from the end opposite edge
    k - 1's arrival, and the edges run 1..2n along one closed strand
    through every crossing, so the diagram is connected.
    """
    two_n = pd.n_edges
    arrive = [-1] * two_n  # arrive[k - 1]: the arrival end of edge k
    for c, cr in enumerate(pd.crossings):
        slots, over = cr.slots, cr.over_in_slot
        if over not in (1, 3):
            raise ValueError(f"crossing {c}: over_in_slot must be 1 or 3")
        for s in (0, over):
            e = slots[s]
            if not 1 <= e <= two_n:
                raise ValueError(f"crossing {c}: edge {e} outside 1..{two_n}")
            if arrive[e - 1] >= 0:
                raise ValueError(f"edge {e} arrives twice")
            if slots[s ^ 2] != e % two_n + 1:
                raise ValueError(
                    f"crossing {c}: edge {e} arrives at slot {s}, but slot "
                    f"{s ^ 2} carries {slots[s ^ 2]}, not {e % two_n + 1}"
                )
            arrive[e - 1] = 4 * c + s
    mate = [0] * (2 * two_n)
    for k, a in enumerate(arrive):
        d = arrive[k - 1] ^ 2
        mate[a] = d
        mate[d] = a
    return mate


def orbit_count(mate: Sequence[int], turn: list[int]) -> int:
    """Number of orbits of ``e -> turn[mate[e]]`` on the ends 0..len(mate)-1.

    ``mate`` pairs the two ends of each edge and ``turn`` says where a
    walk goes next at the crossing it arrives at.  Ends are numbered
    4 * crossing + slot (``end_mates``).  With ``turn`` the next slot
    counterclockwise the orbits are the faces of the rotation system.
    With ``turn`` a smoothing, an involution pairing the four ends of
    each crossing, they are the circles of the smoothed diagram;
    ``poly.turaev_genus`` counts the all-A and all-B states this way.
    Since ``turn`` and ``mate`` are then both involutions, every circle
    is traced twice, once per direction, so the orbit count is exactly
    twice the number of circles.
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
    """Number of faces of the rotation system (n + 2 exactly on a sphere).

    Reads ``pd.mates``, so ``end_mates`` rejects a malformed diagram first.
    """
    if pd.n == 0:
        return 2
    # the next slot counterclockwise at the same crossing
    turn = [(e & ~3) | ((e + 1) & 3) for e in range(4 * pd.n)]
    return orbit_count(pd.mates, turn)


def validate_diagram(pd: PlanarDiagram) -> None:
    """Raise ValueError unless ``pd`` is a plane knot diagram.

    ``end_mates`` checks that the edges run along one closed strand;
    the rotation system must then have n + 2 faces, the Euler count of
    the sphere.
    """
    faces = face_count(pd)
    if faces != pd.n + 2:
        raise ValueError(f"{faces} faces, not {pd.n + 2}: the diagram is not plane")


def format_diagram(pd: PlanarDiagram) -> str:
    """Dump one line per crossing: ``Xi: (a, b, c, d) sign=+1``."""
    lines = []
    for c, cr in enumerate(pd.crossings, start=1):
        a, b, cc, d = cr.slots
        sign = "+1" if cr.sign() > 0 else "-1"
        lines.append(f"X{c}: ({a}, {b}, {cc}, {d}) sign={sign}")
    return "\n".join(lines)
