from __future__ import annotations

import dataclasses
import random
from itertools import permutations, product

import pytest

from turaev.dt import DtCode, parse_dt
from turaev.poly import bracket, turaev_genus
from turaev.realize import (
    Crossing,
    NotRealizable,
    PlanarDiagram,
    _assemble,
    end_mates,
    face_count,
    format_diagram,
    realize,
    try_realize,
    validate_diagram,
)

from diagram_fixtures import (
    braid_closure_diagram,
    dt_of,
    end_mates_oracle,
    interlacement_bits_oracle,
    interlacement_graph,
    mirror,
    random_code,
    random_diagram,
    reflected,
    shuffled,
    switch_crossing,
)

TREFOIL = parse_dt("{{3},{4,6,2}}")
KINK = parse_dt("{{1},{2}}")
K11N183_REP = parse_dt("{{12},{-6,10,22,18,2,16,24,20,8,12,4,14}}")
TWELVE_MIN = parse_dt("{{12},{4,8,14,2,-18,16,6,20,22,-24,12,-10}}")
TWELVE_REP = parse_dt("{{17},{4,8,14,2,24,32,6,30,26,28,-16,12,34,18,20,22,10}}")


def _first_embedding_bits(code: DtCode) -> tuple[int, ...] | None:
    # Oracle for realization, written against the same conventions but
    # with its own tracer: crossing 0 pinned to bit 0, the bits of
    # crossings 1..n-1 walked in lexicographic order, and the first word
    # whose rotation system has n + 2 faces returned (None if none does).
    n = code.n
    two = 2 * n
    mate: dict[tuple[int, str], tuple[int, str]] = {}
    for t in range(two):
        mate[(t, "out")] = ((t + 1) % two, "in")
        mate[((t + 1) % two, "in")] = (t, "out")
    for rest in product((0, 1), repeat=n - 1):
        bits = (0, *rest)
        rot: dict[tuple[int, str], tuple[int, str]] = {}
        for i, b in enumerate(bits):
            p, q = 2 * i, abs(code.labels[i]) - 1
            u, o = (q, p) if code.labels[i] > 0 else (p, q)
            if b == 0:
                cyc = [(u, "in"), (o, "in"), (u, "out"), (o, "out")]
            else:
                cyc = [(u, "in"), (o, "out"), (u, "out"), (o, "in")]
            for a, c in zip(cyc, cyc[1:] + cyc[:1]):
                rot[a] = c
        seen: set[tuple[int, str]] = set()
        faces = 0
        for e0 in rot:
            if e0 not in seen:
                faces += 1
                e = e0
                while e not in seen:
                    seen.add(e)
                    e = rot[mate[e]]
        if faces == n + 2:
            return bits
    return None


def _braid_diagrams(seed: int, count: int, low: int, high: int) -> list[PlanarDiagram]:
    """Seeded braid closures with n = low..high, every second one
    renumbered with the traversal started an even number of passes later."""
    rng = random.Random(seed)
    diagrams: list[PlanarDiagram] = []
    while len(diagrams) < count:
        n = rng.randint(low, high)
        gens = (1, 2, 3) if n % 2 else (1, 2)
        try:
            pd = braid_closure_diagram([rng.choice(gens) * rng.choice((1, -1)) for _ in range(n)])
        except ValueError:  # closes to a link
            continue
        shift = 2 * rng.randrange(n) if len(diagrams) % 2 else 0
        two_n = 2 * n
        diagrams.append(PlanarDiagram(tuple(
            Crossing(tuple((e - 1 - shift) % two_n + 1 for e in cr.slots), cr.over_in_slot)
            for cr in pd.crossings)))
    return diagrams


def _small_codes(seed: int) -> list[DtCode]:
    """Every arrangement of the evens with n = 1..6, under seeded signs."""
    rng = random.Random(seed)
    return [
        DtCode(n, tuple(a if rng.random() < 0.5 else -a for a in perm))
        for n in range(1, 7)
        for perm in permutations(range(2, 2 * n + 1, 2))
    ]


def _braid_codes(seed: int, count: int, low: int, high: int) -> list[DtCode]:
    """The DT codes of ``_braid_diagrams``."""
    return [dt_of(pd) for pd in _braid_diagrams(seed, count, low, high)]


def _replaced(pd: PlanarDiagram, i: int, cr: Crossing) -> PlanarDiagram:
    return PlanarDiagram(pd.crossings[:i] + (cr,) + pd.crossings[i + 1:])


def test_trefoil_realization() -> None:
    pd = realize(TREFOIL)
    assert pd.n == 3
    assert pd.n_edges == 6
    assert face_count(pd) == 5
    validate_diagram(pd)


def test_kink_realization() -> None:
    pd = realize(KINK)
    assert face_count(pd) == 3
    validate_diagram(pd)
    # the self-loop edge occupies two slots of the single crossing
    assert sorted(pd.crossings[0].slots) == [1, 1, 2, 2]


def test_twelve_crossing_pair_realizes() -> None:
    for code in (TWELVE_MIN, TWELVE_REP):
        pd = realize(code)
        assert face_count(pd) == code.n + 2
        validate_diagram(pd)


def test_eleven_crossing_representation_face_count() -> None:
    assert face_count(realize(K11N183_REP)) == 14


def test_empty_code_gives_crossingless_diagram() -> None:
    pd = realize(parse_dt("{{0},{}}"))
    assert pd == PlanarDiagram(())
    assert face_count(pd) == 2


def test_realization_is_deterministic() -> None:
    assert realize(TWELVE_REP) == realize(TWELVE_REP)
    assert try_realize(TREFOIL).diagram == realize(TREFOIL)


def test_format_diagram_shape() -> None:
    lines = format_diagram(realize(TREFOIL)).splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"X{k}: (")
        assert line.endswith("sign=+1") or line.endswith("sign=-1")


def test_exhaustive_small_codes_against_full_enumeration() -> None:
    # Every arrangement with n <= 6 under seeded signs, plus seeded braid
    # codes up to n = 12, checked against an independent tracer over the
    # pinned orientation space: realize rejects exactly when no word
    # embeds, and otherwise picks the first word that does.
    witnesses = []
    for code in _small_codes(33) + _braid_codes(34, 20, 7, 12):
        result = try_realize(code)
        bits = _first_embedding_bits(code)
        if result.diagram is None:
            assert bits is None, code
            witnesses.append(code)
        else:
            assert tuple(int(cr.over_in_slot == 3) for cr in result.diagram.crossings) == bits, code
            assert face_count(result.diagram) == code.n + 2
            validate_diagram(result.diagram)
    assert witnesses, "expected some non-realizable code with n <= 6"
    with pytest.raises(NotRealizable):
        realize(witnesses[0])


def test_bits_match_the_interlacement_oracle() -> None:
    # Seeded codes with n = 13..41, beyond the reach of the enumeration
    # oracle: braid codes, every second one rebased, and random signed
    # permutations, nearly all of which have no plane curve.  A code is
    # accepted exactly when the oracle's bits embed it, and then with
    # exactly those bits.
    rng = random.Random(35)
    randoms = [random_code(rng, rng.randint(13, 41)) for _ in range(150)]
    accepted = 0
    for code in _braid_codes(36, 150, 13, 41) + randoms:
        oracle = _assemble(code, interlacement_bits_oracle(code))
        result = try_realize(code)
        assert (result.diagram is not None) == (face_count(oracle) == code.n + 2), code
        if result.diagram is not None:
            assert result.diagram == oracle, code
            accepted += 1
    assert 150 <= accepted < 300


@pytest.mark.parametrize("text, subset_holds", [
    ("{{6},{-8,6,-12,4,-10,2}}", False),
    ("{{6},{-8,10,-12,-2,4,6}}", True),
], ids=["common-neighbours-of-non-neighbours", "sides"])
def test_both_reject_branches(text: str, subset_holds: bool) -> None:
    # The 2nd and 444th draws of random_code(random.Random(40), 6).  In
    # the first, two crossings that do not interlace share an odd number
    # of neighbours, so a row of the GF(2) square leaves its row of the
    # interlacement graph.  The second passes that test and fails only
    # the side condition after the walk.  (Every crossing of a DT code
    # has an even number of neighbours: an odd and an even pass enclose
    # an even number of passes.)  The enumeration oracle finds no
    # embedding word for either, and both get the fixed rejection text.
    code = parse_dt(text)
    nbrs = interlacement_graph(code)
    assert all(len(vs) % 2 == 0 for vs in nbrs)
    assert subset_holds == all(len(nbrs[u] & nbrs[v]) % 2 == 0
                               for u in range(code.n) for v in range(u + 1, code.n)
                               if v not in nbrs[u])
    assert _first_embedding_bits(code) is None
    with pytest.raises(NotRealizable) as exc:
        realize(code)
    assert str(exc.value) == (f"no planar orientation assignment for {text}: every 32 "
                              f"candidate rotation system has fewer than 8 faces")


def test_rejection_of_a_huge_code_names_the_count_by_its_bits() -> None:
    # 2^14999 has more digits than str() converts, so the message gives
    # its bit length; up to n = 100 it stays in decimal, as above
    result = try_realize(random_code(random.Random(0), 15000))
    assert result.diagram is None
    assert "every <15000-bit number> candidate rotation system" in result.obstruction


def test_realized_diagrams_are_plane() -> None:
    # Every code with n <= 6 that realizes and seeded braid closures up
    # to n = 81: end_mates accepts the crossings realize assembles, and
    # their rotation system has the n + 2 faces of the sphere.
    codes = _small_codes(33) + _braid_codes(40, 12, 13, 81)
    realized = [pd for code in codes if (pd := try_realize(code).diagram)]
    assert len(realized) > 12
    for pd in realized:
        validate_diagram(pd)


def test_mates_is_the_end_pairing_built_once(monkeypatch) -> None:
    calls = []

    def counting_end_mates(pd: PlanarDiagram) -> list[int]:
        calls.append(pd)
        return end_mates(pd)

    monkeypatch.setattr("turaev.realize.end_mates", counting_end_mates)
    pd = realize(TWELVE_REP)
    assert pd.mates == tuple(end_mates(pd))
    assert calls == [pd]
    assert pd.mates is pd.mates
    assert calls == [pd]
    fresh = realize(TWELVE_REP)
    assert pd == fresh and hash(pd) == hash(fresh)
    assert [f.name for f in dataclasses.fields(PlanarDiagram)] == ["crossings"]


def test_end_mates_match_the_oracle() -> None:
    # Seeded realizable codes, braid closures with n = 13..61 (every
    # second one renumbered) and the realizations of their codes, each
    # also mirrored, with one crossing switched, shuffled and reflected.
    rng = random.Random(37)
    bases = [random_diagram(rng, 1, 12) for _ in range(30)]
    for pd in _braid_diagrams(38, 12, 13, 61):
        bases += [pd, realize(dt_of(pd))]
    for pd in bases:
        forms = (pd, mirror(pd), switch_crossing(pd, rng.randrange(pd.n)),
                 shuffled(pd, rng), reflected(pd))
        for form in forms:
            assert end_mates(form) == end_mates_oracle(form), form


_TREFOIL_PD = realize(TREFOIL)  # X1: (3, 6, 4, 1), over in at slot 1
_X1 = _TREFOIL_PD.crossings[0]


@pytest.mark.parametrize("pd, message", [
    (_replaced(_TREFOIL_PD, 0, Crossing(_X1.slots, 2)), "over_in_slot must be 1 or 3"),
    (_replaced(_TREFOIL_PD, 0, Crossing((0, 6, 4, 1), 1)), "edge 0 outside 1..6"),
    (_replaced(_TREFOIL_PD, 0, Crossing((7, 6, 4, 1), 1)), "edge 7 outside 1..6"),
    (_replaced(_TREFOIL_PD, 1, _X1), "edge 3 arrives twice"),
    (_replaced(_TREFOIL_PD, 0, Crossing((3, 6, 1, 4), 1)), "slot 2 carries 1, not 4"),
    (PlanarDiagram((Crossing((1, 2, 2, 1), 1), Crossing((3, 4, 4, 3), 1))),
     "slot 3 carries 1, not 3"),
], ids=["over-in-slot-2", "edge-0", "edge-2n+1", "arrives-twice", "bent-strand",
        "two-disjoint-kinks"])
def test_malformed_diagram_rejected(pd: PlanarDiagram, message: str) -> None:
    with pytest.raises(ValueError):
        end_mates_oracle(pd)
    for check in (end_mates, face_count, validate_diagram, bracket, turaev_genus):
        with pytest.raises(ValueError, match=message):
            check(pd)


def test_end_mates_rejects_what_the_oracle_rejects() -> None:
    # Every realizable code with n <= 3, with one to three slots or
    # over-in slots overwritten by values just inside and just outside
    # their ranges: end_mates raises exactly when the oracle does, and
    # otherwise returns the same pairing.
    bases = [result.diagram for n in range(1, 4)
             for perm in permutations(range(2, 2 * n + 1, 2))
             for signs in product((1, -1), repeat=n)
             if (result := try_realize(DtCode(n, tuple(s * a for s, a in zip(signs, perm))))).diagram]
    rng = random.Random(39)
    accepted = 0
    for _ in range(3000):
        pd = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(pd.n)
            slots, over = list(pd.crossings[i].slots), pd.crossings[i].over_in_slot
            if rng.random() < 0.2:
                over = rng.randint(0, 3)
            else:
                slots[rng.randrange(4)] = rng.randint(0, pd.n_edges + 1)
            pd = _replaced(pd, i, Crossing(tuple(slots), over))
        try:
            want = end_mates_oracle(pd)
        except ValueError:
            with pytest.raises(ValueError):
                end_mates(pd)
        else:
            assert end_mates(pd) == want, pd
            accepted += 1
    assert 0 < accepted < 3000


def test_signs_do_not_affect_realizability() -> None:
    # Flipping over/under at a crossing relabels its slots but keeps the
    # same rotation systems available, so realizability is unaffected.
    rng = random.Random(20)
    for _ in range(60):
        signed = random_code(rng, rng.randint(3, 7))
        unsigned = DtCode(signed.n, tuple(map(abs, signed.labels)))
        assert (try_realize(unsigned).diagram is None) == (
            try_realize(signed).diagram is None
        )
        d = try_realize(signed).diagram
        if d is not None:
            validate_diagram(d)
            assert face_count(d) == signed.n + 2

