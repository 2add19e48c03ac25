from __future__ import annotations

import random

import pytest

from bracket_oracles import loops_oracle
from diagram_fixtures import dt_of, mirror, pretzel_dt, random_diagram, switch_crossing
from turaev.dt import DtCode, SignKind, classify_signs, parse_dt
from turaev.poly import bracket, turaev_genus, writhe
from turaev.realize import Crossing, PlanarDiagram, realize, validate_diagram

TREFOIL = realize(parse_dt("{{3},{4,6,2}}"))
KINK = realize(parse_dt("{{1},{2}}"))


def test_trefoil_extreme_loops() -> None:
    assert (loops_oracle(TREFOIL, "AAA"), loops_oracle(TREFOIL, "BBB")) == (3, 2)


def test_kink_loops() -> None:
    assert sorted((loops_oracle(KINK, "A"), loops_oracle(KINK, "B"))) == [1, 2]


def test_empty_diagram_loops_and_genus() -> None:
    assert turaev_genus(PlanarDiagram(())) == 0


def test_loops_match_oracle_on_random_states() -> None:
    rng = random.Random(91)
    for _ in range(40):
        pd = random_diagram(rng, 3, 7)
        s_a, s_b = loops_oracle(pd, "A" * pd.n), loops_oracle(pd, "B" * pd.n)
        assert 2 * turaev_genus(pd) == pd.n + 2 - s_a - s_b


def test_trefoil_genus_zero() -> None:
    assert turaev_genus(TREFOIL) == 0


def test_alternating_codes_have_genus_zero() -> None:
    # signs do not affect realizability, so the unsigned code realizes
    rng = random.Random(5)
    for _ in range(50):
        code = dt_of(random_diagram(rng, 2, 7))
        assert turaev_genus(realize(DtCode(code.n, tuple(map(abs, code.labels))))) == 0


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
        pd = random_diagram(rng, 3, 7)
        m = mirror(pd)
        validate_diagram(m)
        assert turaev_genus(m) == turaev_genus(pd)
        assert bracket(m) == bracket(pd).mirrored()


def test_switch_crossing_moves_genus_by_at_most_one() -> None:
    rng = random.Random(33)
    for _ in range(40):
        pd = random_diagram(rng, 3, 7)
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
