"""State smoothings and diagram-level invariants.

A state assigns each crossing one of two smoothings, written as a
string of ``A`` and ``B`` characters indexed by crossing.  Relative to
the slot convention (slot 0 = incoming under-strand, counterclockwise
order), the A smoothing joins slots (0,1) and (2,3), the B smoothing
joins (0,3) and (1,2).  Equivalently, the A smoothing opens the two
sectors swept when the over-strand line is turned counterclockwise
onto the under-strand line.  Because slot 0 always carries the under
strand, these pairings are the same at every crossing, and switching a
crossing (over becomes under) swaps its two smoothings.

The Turaev genus of a connected diagram is computed from the loop
counts of the two extreme states:

    g = (n + 2 - loops(all-A) - loops(all-B)) / 2

which is 0 exactly on diagrams built from alternating pieces and grows
with the distance from alternation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .realize import Crossing, PlanarDiagram, end_mates, orbit_count

__all__ = [
    "StateLoopCounts",
    "DisconnectedDiagram",
    "state_loops",
    "extreme_loop_counts",
    "turaev_genus",
    "writhe",
    "mirror",
    "switch_crossing",
    "is_connected",
]


class DisconnectedDiagram(ValueError):
    """Operation requires a connected diagram."""


@dataclass(frozen=True)
class StateLoopCounts:
    """Loop counts of the all-A and all-B states."""

    s_a: int
    s_b: int


def _check_state(pd: PlanarDiagram, state: str) -> None:
    if len(state) != pd.n:
        raise ValueError(f"state length {len(state)} != {pd.n} crossings")
    bad = set(state) - {"A", "B"}
    if bad:
        raise ValueError(f"state may contain only A and B, got {sorted(bad)}")


def smoothing(i: int, kind: str) -> list[int]:
    """Partners of the ends 4i..4i+3 of crossing i under smoothing kind.

    A joins slots (0,1) and (2,3), B joins (0,3) and (1,2).
    """
    flip = 1 if kind == "A" else 3
    return [4 * i + (slot ^ flip) for slot in range(4)]


def state_loops(pd: PlanarDiagram, state: str) -> int:
    """Number of circles after smoothing every crossing per the state."""
    _check_state(pd, state)
    if pd.n == 0:
        return 1
    rho = [e for i, kind in enumerate(state) for e in smoothing(i, kind)]
    # every circle is traced twice, once per direction (see orbit_count)
    return orbit_count(end_mates(pd), rho) // 2


def extreme_loop_counts(pd: PlanarDiagram) -> StateLoopCounts:
    return StateLoopCounts(
        s_a=state_loops(pd, "A" * pd.n), s_b=state_loops(pd, "B" * pd.n)
    )


def is_connected(pd: PlanarDiagram) -> bool:
    """True when the underlying 4-valent graph has one component."""
    if pd.n <= 1:
        return True
    mate = end_mates(pd)
    seen = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for e in range(4 * c, 4 * c + 4):
            nb = mate[e] // 4
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == pd.n


def turaev_genus(pd: PlanarDiagram) -> int:
    """Genus of the surface spanned between the extreme states."""
    if not is_connected(pd):
        raise DisconnectedDiagram("Turaev genus needs a connected diagram")
    counts = extreme_loop_counts(pd)
    twice = pd.n + 2 - counts.s_a - counts.s_b
    if twice < 0 or twice % 2:
        raise ValueError(f"impossible loop counts {counts} for n={pd.n}")
    return twice // 2


def writhe(pd: PlanarDiagram) -> int:
    """Sum of crossing signs under the traversal orientation."""
    return sum(cr.sign() for cr in pd.crossings)


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
