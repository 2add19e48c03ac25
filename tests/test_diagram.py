from __future__ import annotations

import random

import pytest

from diagram_fixtures import mirror, pretzel_dt, switch_crossing
from turaev.dt import DtCode, SignKind, classify_signs, parse_dt
from turaev.diagram import (
    DisconnectedDiagram,
    is_connected,
    state_loops,
    turaev_genus,
    writhe,
)
from turaev.poly import bracket
from turaev.realize import Crossing, PlanarDiagram, realize, try_realize, validate_diagram

TREFOIL = realize(parse_dt("{{3},{4,6,2}}"))
KINK = realize(parse_dt("{{1},{2}}"))


def _loops_oracle(pd: PlanarDiagram, state: str) -> int:
    # Independent circle tracer over (crossing, slot) tuples.
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


def _random_realizable(rng: random.Random, n_lo: int = 3, n_hi: int = 7) -> PlanarDiagram:
    while True:
        n = rng.randint(n_lo, n_hi)
        evens = list(range(2, 2 * n + 1, 2))
        rng.shuffle(evens)
        code = DtCode(n, tuple(a if rng.random() < 0.5 else -a for a in evens))
        got = try_realize(code)
        if got.diagram is not None:
            return got.diagram


def test_trefoil_extreme_loops() -> None:
    assert (state_loops(TREFOIL, "AAA"), state_loops(TREFOIL, "BBB")) == (3, 2)


def test_kink_loops() -> None:
    assert sorted((state_loops(KINK, "A"), state_loops(KINK, "B"))) == [1, 2]


def test_empty_diagram_loops_and_genus() -> None:
    empty = PlanarDiagram(())
    assert state_loops(empty, "") == 1
    assert turaev_genus(empty) == 0


def test_state_validation() -> None:
    with pytest.raises(ValueError):
        state_loops(TREFOIL, "AB")
    with pytest.raises(ValueError):
        state_loops(TREFOIL, "ABX")


def test_loops_match_oracle_on_random_states() -> None:
    rng = random.Random(91)
    for _ in range(40):
        pd = _random_realizable(rng)
        for _ in range(6):
            state = "".join(rng.choice("AB") for _ in range(pd.n))
            assert state_loops(pd, state) == _loops_oracle(pd, state)


def test_trefoil_genus_zero() -> None:
    assert turaev_genus(TREFOIL) == 0


def test_alternating_codes_have_genus_zero() -> None:
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 7)
        evens = list(range(2, 2 * n + 1, 2))
        rng.shuffle(evens)
        got = try_realize(DtCode(n, tuple(evens)))
        if got.diagram is not None:
            assert turaev_genus(got.diagram) == 0


def test_pretzel_fixture_genus_one() -> None:
    code = pretzel_dt(3, 3, -2)
    assert classify_signs(code).kind is SignKind.OTHER
    pd = realize(code)
    assert turaev_genus(pd) == 1
    # same shape with all twists parallel is alternating
    alt = realize(pretzel_dt(3, 3, 2))
    assert turaev_genus(alt) == 0


def test_writhe_and_mirror() -> None:
    assert abs(writhe(TREFOIL)) == 3
    assert writhe(mirror(TREFOIL)) == -writhe(TREFOIL)
    assert mirror(mirror(TREFOIL)) == TREFOIL
    validate_diagram(mirror(TREFOIL))


def test_mirror_swaps_smoothings() -> None:
    rng = random.Random(14)
    flip = str.maketrans("AB", "BA")
    for _ in range(25):
        pd = _random_realizable(rng)
        m = mirror(pd)
        validate_diagram(m)
        assert turaev_genus(m) == turaev_genus(pd)
        for _ in range(4):
            state = "".join(rng.choice("AB") for _ in range(pd.n))
            assert state_loops(m, state) == state_loops(pd, state.translate(flip))


def test_switch_crossing_moves_genus_by_at_most_one() -> None:
    rng = random.Random(33)
    for _ in range(40):
        pd = _random_realizable(rng)
        i = rng.randrange(pd.n)
        g0 = turaev_genus(pd)
        switched = switch_crossing(pd, i)
        validate_diagram(switched)
        assert abs(turaev_genus(switched) - g0) <= 1
        assert switch_crossing(switched, i) == pd


def test_connect_sum_of_opposite_kinks_has_genus_zero() -> None:
    # A mixed-sign code need not have positive genus when the diagram is
    # a connected sum: two opposite kinks cancel in both extreme states.
    code = parse_dt("{{2},{4,-2}}")
    assert classify_signs(code).kind is SignKind.ALMOST_ALTERNATING
    assert turaev_genus(realize(code)) == 0


def test_disconnected_diagram_rejected() -> None:
    two_kinks = PlanarDiagram(
        (Crossing((1, 2, 2, 1), 1), Crossing((3, 4, 4, 3), 1))
    )
    assert not is_connected(two_kinks)
    with pytest.raises(DisconnectedDiagram):
        turaev_genus(two_kinks)
    with pytest.raises(DisconnectedDiagram):
        bracket(two_kinks)
