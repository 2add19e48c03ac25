from __future__ import annotations

import random

import pytest

from bracket_oracles import loops_oracle
from diagram_fixtures import mirror, pretzel_dt, switch_crossing
from turaev.dt import DtCode, SignKind, classify_signs, parse_dt
from turaev.poly import bracket, turaev_genus, writhe
from turaev.realize import Crossing, PlanarDiagram, realize, try_realize, validate_diagram

TREFOIL = realize(parse_dt("{{3},{4,6,2}}"))
KINK = realize(parse_dt("{{1},{2}}"))


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
    assert (loops_oracle(TREFOIL, "AAA"), loops_oracle(TREFOIL, "BBB")) == (3, 2)


def test_kink_loops() -> None:
    assert sorted((loops_oracle(KINK, "A"), loops_oracle(KINK, "B"))) == [1, 2]


def test_empty_diagram_loops_and_genus() -> None:
    assert turaev_genus(PlanarDiagram(())) == 0


def test_loops_match_oracle_on_random_states() -> None:
    rng = random.Random(91)
    for _ in range(40):
        pd = _random_realizable(rng)
        s_a, s_b = loops_oracle(pd, "A" * pd.n), loops_oracle(pd, "B" * pd.n)
        assert 2 * turaev_genus(pd) == pd.n + 2 - s_a - s_b


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
    for _ in range(25):
        pd = _random_realizable(rng)
        m = mirror(pd)
        validate_diagram(m)
        assert turaev_genus(m) == turaev_genus(pd)
        assert bracket(m) == bracket(pd).mirrored()


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
    # two disjoint kinks are not one closed strand: end_mates rejects them
    two_kinks = PlanarDiagram(
        (Crossing((1, 2, 2, 1), 1), Crossing((3, 4, 4, 3), 1))
    )
    with pytest.raises(ValueError, match="slot 3 carries 1, not 3"):
        turaev_genus(two_kinks)
    with pytest.raises(ValueError, match="slot 3 carries 1, not 3"):
        bracket(two_kinks)
