"""Bracket and Jones polynomial tests.

The contracted bracket is cross-checked against two oracles on random
realizable codes and the mixed-sign fixtures, both kept in
``bracket_oracles.py`` next to these tests: the recursive skein
bracket, which splices arcs like the contraction but never merges
branches, and the full state enumeration, which shares nothing with
the arc splicing and counts each state's circles with
``state_loops``.  Frozen hand-derived values pin the conventions: the
canonical kink realization brackets to -A^-3 (so its Jones is 1), and
the trefoil's Jones is -t^-4 + t^-3 + t^-1 up to mirror with span 3.
On diagrams up to 17 crossings every Jones polynomial satisfies
V(1) = 1, V(e^(2 pi i/3)) = 1, |V(-1)| odd and span V <= n - g_T(D).  Shuffling the crossing storage
sends the contraction through a different order and must not change
the bracket.  Closed alternating 4-braids at n = 41 and 61, stored in
DT order, check Kauffman-Murasugi-Thistlethwaite (span V = n on a
reduced alternating diagram) at a size where storage order blows up.
"""

from __future__ import annotations

import itertools
import random

import pytest

import turaev.poly
from turaev.diagram import turaev_genus, writhe
from turaev.dt import DtCode, parse_dt
from turaev.poly import (
    BracketTooWide,
    LaurentPoly,
    NormalizationFailure,
    ZeroPolynomial,
    _to_t,
    bracket,
    equal_up_to_mirror,
    jones,
    span_t,
)
from turaev.realize import (
    Crossing,
    PlanarDiagram,
    face_count,
    realize,
    try_realize,
    validate_diagram,
)

from bracket_oracles import enumeration_bracket, skein_bracket
from diagram_fixtures import braid_closure_diagram, mirror, pretzel_dt, switch_crossing

KINK = "{{1},{2}}"
TREFOIL = "{{3},{4,6,2}}"
K12_MIN = "{{12},{4,8,14,2,-18,16,6,20,22,-24,12,-10}}"
K12_REP = "{{17},{4,8,14,2,24,32,6,30,26,28,-16,12,34,18,20,22,10}}"
OTHER_MIN = "{{12},{4,8,14,2,-18,-22,6,20,-10,24,-12,-16}}"


def _poly(coeffs: dict[int, int], var: str = "t") -> LaurentPoly:
    return LaurentPoly.from_dict(var, coeffs)


def _random_poly(rng: random.Random, var: str = "A") -> LaurentPoly:
    coeffs = {
        rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))
    }
    return LaurentPoly.from_dict(var, coeffs)


def _random_realizable(rng: random.Random, n: int) -> PlanarDiagram | None:
    mags = list(range(2, 2 * n + 1, 2))
    rng.shuffle(mags)
    labels = tuple(m if rng.random() < 0.5 else -m for m in mags)
    res = try_realize(DtCode(n, labels))
    return res.diagram


def _random_diagrams(seed: int, count: int, max_n: int) -> list[PlanarDiagram]:
    """The first ``count`` realizable random codes, n = 3..max_n."""
    rng = random.Random(seed)
    tries = (_random_realizable(rng, rng.randint(3, max_n)) for _ in range(8 * count))
    out = list(itertools.islice(filter(None, tries), count))
    assert len(out) == count
    return out


def _assert_knot_values(v: LaurentPoly) -> None:
    """V(1) = 1, V(omega) = 1 for omega = e^(2 pi i/3), and |V(-1)| odd.

    Exact in Z[omega]: with a_r the sum of the coefficients whose
    exponent is r mod 3, omega^2 = -1 - omega gives
    V(omega) = (a_0 - a_2) + (a_1 - a_2) omega.
    """
    assert sum(c for _, c in v.terms) == 1
    a = [0, 0, 0]
    for e, c in v.terms:
        a[e % 3] += c
    assert a[1] == a[2] and a[0] - a[2] == 1
    assert sum(-c if e % 2 else c for e, c in v.terms) % 2 == 1


def _alternating_braid(seed: int, n: int) -> PlanarDiagram:
    """Closure of a seeded n-letter word in sigma_1, sigma_2^-1, sigma_3
    that closes to a knot and uses each generator at least twice, so
    the diagram is reduced, alternating and prime."""
    rng = random.Random(seed)
    while True:
        word = [rng.choice((1, -2, 3)) for _ in range(n)]
        if min(map(word.count, (1, -2, 3))) >= 2:
            try:
                return braid_closure_diagram(word)
            except ValueError:  # closes to a link
                continue


def _shuffled(pd: PlanarDiagram, rng: random.Random) -> PlanarDiagram:
    """The same diagram with its crossings stored in a random order."""
    crossings = list(pd.crossings)
    rng.shuffle(crossings)
    return PlanarDiagram(tuple(crossings))


def _reflected(pd: PlanarDiagram) -> PlanarDiagram:
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


class TestLaurentPoly:
    def test_from_dict_drops_zeros(self) -> None:
        p = _poly({3: 0, 1: 2, -2: 0, 0: -1})
        assert p.terms == ((0, -1), (1, 2))
        assert _poly({}) == LaurentPoly.zero("t")

    def test_additive_and_multiplicative_identities(self) -> None:
        rng = random.Random(11)
        for _ in range(20):
            p = _random_poly(rng)
            assert p + LaurentPoly.zero("A") == p
            assert p * LaurentPoly.one("A") == p
            assert p * LaurentPoly.zero("A") == LaurentPoly.zero("A")
            assert p - p == LaurentPoly.zero("A")

    def test_ring_laws_on_random_polys(self) -> None:
        rng = random.Random(12)
        for _ in range(30):
            p, q, r = (_random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_pow(self) -> None:
        rng = random.Random(13)
        p = _random_poly(rng)
        assert p**0 == LaurentPoly.one("A")
        assert p**3 == p * p * p
        with pytest.raises(ValueError):
            p ** (-1)

    def test_mirrored_is_an_involution(self) -> None:
        rng = random.Random(14)
        for _ in range(20):
            p = _random_poly(rng)
            assert p.mirrored().mirrored() == p

    def test_render(self) -> None:
        assert LaurentPoly.zero("t").render() == "0"
        assert LaurentPoly.one("t").render() == "1*t^0"
        assert LaurentPoly.monomial("A", -3, -1).render() == "-1*A^-3"
        p = _poly({-4: -1, -3: 1, -1: 1})
        assert p.render() == "-1*t^-4 + 1*t^-3 + 1*t^-1"
        assert str(p) == p.render()

    def test_variable_mismatch_raises(self) -> None:
        with pytest.raises(ValueError):
            LaurentPoly.one("t") + LaurentPoly.one("A")
        with pytest.raises(ValueError):
            LaurentPoly.one("t") * LaurentPoly.one("A")

    def test_span(self) -> None:
        assert LaurentPoly.one("t").span() == 0
        assert _poly({-4: -1, -1: 1}).span() == 3
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero("t").span()


class TestBracket:
    def test_empty_diagram(self) -> None:
        assert bracket(PlanarDiagram(())).render() == "1*A^0"

    def test_kink_frozen(self) -> None:
        br = bracket(realize(parse_dt(KINK)))
        assert br.render() == "-1*A^-3"

    def test_trefoil_frozen(self) -> None:
        pd = realize(parse_dt(TREFOIL))
        br = bracket(pd)
        assert br.render() == "-1*A^-5 + -1*A^3 + 1*A^7"
        assert br == skein_bracket(pd)

    def test_mirror_negates_exponents(self) -> None:
        for text in (KINK, TREFOIL, K12_MIN):
            pd = realize(parse_dt(text))
            assert bracket(mirror(pd)) == bracket(pd).mirrored()

    def test_matches_skein_oracle_on_random_codes(self) -> None:
        for pd in _random_diagrams(15, 25, 8):
            assert bracket(pd) == skein_bracket(pd) == enumeration_bracket(pd)

    def test_matches_skein_oracle_on_mixed_sign_fixture(self) -> None:
        for code in (pretzel_dt(3, 3, -2), parse_dt(K12_MIN)):
            pd = realize(code)
            assert bracket(pd) == skein_bracket(pd) == enumeration_bracket(pd)

    def test_independent_of_crossing_order(self) -> None:
        rng = random.Random(17)
        for pd in _random_diagrams(15, 25, 8) + [_alternating_braid(41, 41)]:
            assert bracket(_shuffled(pd, rng)) == bracket(pd)

    def test_cap_on_live_tables(self, monkeypatch: pytest.MonkeyPatch) -> None:
        pd = realize(parse_dt(K12_MIN))
        monkeypatch.setattr(turaev.poly, "_MAX_TABLES", 4)
        with pytest.raises(BracketTooWide, match="12-crossing.*step [0-9]+.*cap of 4"):
            bracket(pd)

    def test_disconnected_rejected(self) -> None:
        kink = realize(parse_dt(KINK)).crossings[0]
        far = Crossing(tuple(e + 2 for e in kink.slots), kink.over_in_slot)
        with pytest.raises(ValueError):
            bracket(PlanarDiagram((kink, far)))


class TestJones:
    def test_unknot_and_kink_are_one(self) -> None:
        assert jones(PlanarDiagram(())).render() == "1*t^0"
        assert jones(realize(parse_dt(KINK))) == LaurentPoly.one("t")

    def test_trefoil_frozen(self) -> None:
        pd = realize(parse_dt(TREFOIL))
        v = jones(pd)
        assert v.render() == "-1*t^-4 + 1*t^-3 + 1*t^-1"
        assert span_t(v) == 3
        assert jones(mirror(pd)) == v.mirrored()

    def test_kink_writhe_is_negative(self) -> None:
        pd = realize(parse_dt(KINK))
        assert writhe(pd) == -1
        assert bracket(pd).render() == "-1*A^-3"

    def test_minimal_and_representative_codes_agree(self) -> None:
        jmin = jones(realize(parse_dt(K12_MIN)))
        jrep = jones(realize(parse_dt(K12_REP)))
        assert equal_up_to_mirror(jmin, jrep)
        assert span_t(jmin) < 12

    def test_distinct_knots_differ(self) -> None:
        jmin = jones(realize(parse_dt(K12_MIN)))
        jother = jones(realize(parse_dt(OTHER_MIN)))
        assert not equal_up_to_mirror(jmin, jother)

    def test_opposite_reflection_mirrors_jones(self) -> None:
        for text in (TREFOIL, K12_MIN):
            pd = realize(parse_dt(text))
            flipped = _reflected(pd)
            assert face_count(flipped) == pd.n + 2
            assert writhe(flipped) == -writhe(pd)
            assert jones(flipped) == jones(pd).mirrored()

    def test_reflection_invariance_on_random_codes(self) -> None:
        for pd in _random_diagrams(16, 15, 7):
            assert equal_up_to_mirror(jones(pd), jones(_reflected(pd)))

    def test_value_at_one_and_turaev_span_bound(self) -> None:
        # Dasbach-Futer-Kalfagianni-Lin-Stoltzfus: span V <= n - g_T(D)
        fixtures = [realize(parse_dt(t)) for t in (K12_MIN, OTHER_MIN, K12_REP)]
        for pd in _random_diagrams(15, 25, 8) + fixtures:
            v = jones(pd)
            _assert_knot_values(v)
            assert span_t(v) <= pd.n - turaev_genus(pd)

    @pytest.mark.parametrize("n", [41, 61])
    def test_long_alternating_braid_closure(self, n: int) -> None:
        pd = _alternating_braid(n, n)
        validate_diagram(pd)
        assert face_count(pd) == n + 2
        v = jones(pd)
        _assert_knot_values(v)
        assert span_t(v) == n
        assert turaev_genus(pd) == 0
        switched = switch_crossing(pd, n // 2)
        v = jones(switched)
        _assert_knot_values(v)
        assert turaev_genus(switched) == 1
        assert span_t(v) <= n - 1

    def test_coefficients_stay_below_bound(self) -> None:
        pd = realize(parse_dt(K12_REP))
        v = jones(pd)
        bound = 1 << (2 * pd.n)
        assert all(abs(c) < bound for _, c in v.terms)

    def test_normalization_failure_on_odd_exponent(self) -> None:
        with pytest.raises(NormalizationFailure):
            _to_t(LaurentPoly.monomial("A", -6))


class TestSpanAndMirrorComparison:
    def test_span_t_wants_variable_t(self) -> None:
        assert span_t(LaurentPoly.one("t")) == 0
        with pytest.raises(ValueError):
            span_t(LaurentPoly.one("A"))
        with pytest.raises(ZeroPolynomial):
            span_t(LaurentPoly.zero("t"))

    def test_equal_up_to_mirror(self) -> None:
        p = _poly({-4: -1, -3: 1, -1: 1})
        assert equal_up_to_mirror(p, p)
        assert equal_up_to_mirror(p, p.mirrored())
        assert not equal_up_to_mirror(p, -p)
        with pytest.raises(ValueError):
            equal_up_to_mirror(p, LaurentPoly.one("A"))
