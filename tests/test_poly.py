"""Bracket and Jones polynomial tests.

The contracted bracket is cross-checked against two oracles on random
realizable codes and the mixed-sign fixtures, both kept in
``bracket_oracles.py`` next to these tests: the recursive skein
bracket, which splices arcs like the contraction but never merges
branches, and the full state enumeration, which shares nothing with
the arc splicing and counts each state's circles with its own circle
tracer.  The min-frontier order is checked against
``frontier_order_oracle``, a plain scan over every uncontracted
crossing, on the same diagrams and the long closures, so the table
counts behind ``BracketTooWide`` do not drift.  Frozen hand-derived
values pin the conventions: the canonical kink realization brackets to
-A^-3 (so its Jones is 1), and the trefoil's Jones is
-t^-4 + t^-3 + t^-1 up to mirror with span 3.
On diagrams up to 17 crossings and on the long braid closures below,
every Jones polynomial satisfies V(1) = 1, V'(1) = 0,
V(e^(2 pi i/3)) = 1 and span V <= n - g_T(D), V(-1) =
(-1)^(sigma / 2) det with det and sigma the determinant and the
Gordon-Litherland signature of the Goeritz matrix, and V(i) is -1
exactly when that determinant is 3 or 5 mod 8 (the Arf invariant).
That matrix comes from a face walk and checkerboard colouring that
share no code with the state sums, so the check ties the polynomial
layer to a second model of the same diagram; both colourings give the
same signature, and a mirror negates it.  Shuffling the crossing
storage sends the contraction through a different order and must not
change the bracket.  Closed alternating 4-braids at n = 41, 61 and
81, stored in DT order, check
Kauffman-Murasugi-Thistlethwaite (span V = n on a reduced alternating
diagram) at a size where storage order blows up, and ``realize``
rebuilds each of them, and its one-crossing switch, from the DT code
alone with the same bracket up to mirror.  At n = 81 the 324 ends no
longer fit in one byte each, so the bracket has no crossing cap of
that kind.
"""

from __future__ import annotations

import random

import pytest

import turaev.poly
from turaev.dt import parse_dt
from turaev.poly import (
    BracketTooWide,
    LaurentPoly,
    NormalizationFailure,
    _frontier_order,
    bracket,
    equal_up_to_mirror,
    jones,
    span_t,
    turaev_genus,
    writhe,
)
from turaev.realize import (
    Crossing,
    PlanarDiagram,
    end_mates,
    face_count,
    realize,
    validate_diagram,
)

from bracket_oracles import (
    enumeration_bracket,
    frontier_order_oracle,
    goeritz_determinant,
    goeritz_signature,
    skein_bracket,
)
from diagram_fixtures import (
    braid_closure_diagram,
    dt_of,
    mirror,
    pretzel_dt,
    random_diagram,
    reflected,
    shuffled,
    switch_crossing,
)

KINK = "{{1},{2}}"
TREFOIL = "{{3},{4,6,2}}"
FIGURE_EIGHT = "{{4},{4,6,8,2}}"
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


def _random_diagrams(seed: int, count: int, max_n: int) -> list[PlanarDiagram]:
    """The first ``count`` realizable random codes, n = 3..max_n."""
    rng = random.Random(seed)
    return [random_diagram(rng, 3, max_n) for _ in range(count)]


def _derivative_at_one(v: LaurentPoly) -> int:
    """V'(1), which is 0 for every knot: a writhe that is off by a
    multiple of 4 keeps V(1) = 1 but shifts V and breaks this."""
    return sum(e * c for e, c in v.terms)


def _assert_knot_values(pd: PlanarDiagram, v: LaurentPoly) -> None:
    """V(1) = 1, V'(1) = 0, V(omega) = 1 for omega = e^(2 pi i/3),
    V(-1) = (-1)^(sigma / 2) det with det and sigma the Goeritz
    determinant and signature of ``pd``, and V(i) = (-1)^Arf.

    Exact in Z[omega]: with a_r the sum of the coefficients whose
    exponent is r mod 3, omega^2 = -1 - omega gives
    V(omega) = (a_0 - a_2) + (a_1 - a_2) omega.  Exact in Z[i]: with b_r
    the sums by exponent mod 4, V(i) = (b_0 - b_2) + (b_1 - b_3) i.  The
    Arf invariant is 0 exactly when the determinant is +-1 mod 8
    (H. Murakami; Levine), which ties V(i) to the Goeritz matrix too.
    Both checkerboard colourings must give the same signature.
    """
    assert sum(c for _, c in v.terms) == 1
    assert _derivative_at_one(v) == 0
    a = [0, 0, 0]
    for e, c in v.terms:
        a[e % 3] += c
    assert a[1] == a[2] and a[0] - a[2] == 1
    det = goeritz_determinant(pd)
    sigma = goeritz_signature(pd)
    assert goeritz_signature(pd, shade=1) == sigma
    sign = 1 if sigma % 4 == 0 else -1
    assert sum(-c if e % 2 else c for e, c in v.terms) == sign * det
    b = [0, 0, 0, 0]
    for e, c in v.terms:
        b[e % 4] += c
    assert b[1] == b[3] and b[0] - b[2] == (1 if det % 8 in (1, 7) else -1)


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


class TestLaurentPoly:
    def test_from_dict_drops_zeros(self) -> None:
        p = _poly({3: 0, 1: 2, -2: 0, 0: -1})
        assert p.terms == ((0, -1), (1, 2))
        assert _poly({}) == LaurentPoly("t", ())

    def test_mirrored_is_an_involution(self) -> None:
        rng = random.Random(14)
        for _ in range(20):
            p = _random_poly(rng)
            assert p.mirrored().mirrored() == p

    def test_render(self) -> None:
        assert LaurentPoly("t", ()).render() == "0"
        assert LaurentPoly.one("t").render() == "1*t^0"
        assert LaurentPoly("A", ((-3, -1),)).render() == "-1*A^-3"
        p = _poly({-4: -1, -3: 1, -1: 1})
        assert p.render() == "-1*t^-4 + 1*t^-3 + 1*t^-1"
        assert str(p) == p.render()

    def test_span(self) -> None:
        assert LaurentPoly.one("t").span() == 0
        assert _poly({-4: -1, -1: 1}).span() == 3
        with pytest.raises(ValueError, match="zero polynomial has no span"):
            LaurentPoly("t", ()).span()


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
            assert bracket(shuffled(pd, rng)) == bracket(pd)

    def test_frontier_order_matches_oracle(self) -> None:
        fixtures = [realize(parse_dt(t)) for t in (K12_MIN, OTHER_MIN, K12_REP)]
        closures = [_alternating_braid(n, n) for n in (41, 61)]
        for pd in _random_diagrams(15, 25, 8) + fixtures + closures:
            mate = end_mates(pd)
            assert (_frontier_order(mate, pd.n)
                    == frontier_order_oracle(mate, pd.n))

    def test_cap_on_live_tables(self, monkeypatch: pytest.MonkeyPatch) -> None:
        pd = realize(parse_dt(K12_MIN))
        monkeypatch.setattr(turaev.poly, "_MAX_TABLES", 4)
        with pytest.raises(BracketTooWide, match="12-crossing.*step [0-9]+.*cap of 4"):
            bracket(pd)

    def test_readout_rejects_mixed_residues(self) -> None:
        # The Gauss word O1 O2 U1 U2 (the virtual trefoil) embeds only in
        # the torus.  Its state sum -A^4 + 1 + A^-2 has exponents of two
        # residues mod 4, which no plane diagram has; jones rejected it
        # before the readout checked residues, and still does.
        # It is one closed strand, so it passes end_mates, and fails only
        # the face count of validate_diagram.
        pd = PlanarDiagram((Crossing((2, 4, 3, 1), 1), Crossing((3, 1, 4, 2), 1)))
        assert face_count(pd) == pd.n
        with pytest.raises(ValueError, match="2 faces, not 4"):
            validate_diagram(pd)
        with pytest.raises(NormalizationFailure, match="exponents -2 and 0"):
            bracket(pd)
        with pytest.raises(NormalizationFailure):
            jones(pd)

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
            flipped = reflected(pd)
            assert face_count(flipped) == pd.n + 2
            assert writhe(flipped) == -writhe(pd)
            assert jones(flipped) == jones(pd).mirrored()

    def test_reflection_invariance_on_random_codes(self) -> None:
        for pd in _random_diagrams(16, 15, 7):
            assert equal_up_to_mirror(jones(pd), jones(reflected(pd)))

    def test_value_at_one_and_turaev_span_bound(self) -> None:
        # Dasbach-Futer-Kalfagianni-Lin-Stoltzfus: span V <= n - g_T(D)
        fixtures = [realize(parse_dt(t)) for t in (K12_MIN, OTHER_MIN, K12_REP)]
        for pd in _random_diagrams(15, 25, 8) + fixtures:
            v = jones(pd)
            _assert_knot_values(pd, v)
            assert span_t(v) <= pd.n - turaev_genus(pd)

    @pytest.mark.parametrize("n", [41, 61, 81])
    def test_long_alternating_braid_closure(self, n: int) -> None:
        pd = _alternating_braid(n, n)
        validate_diagram(pd)
        assert face_count(pd) == n + 2
        v = jones(pd)
        _assert_knot_values(pd, v)
        assert span_t(v) == n
        assert turaev_genus(pd) == 0
        switched = switch_crossing(pd, n // 2)
        v = jones(switched)
        _assert_knot_values(switched, v)
        assert turaev_genus(switched) == 1
        assert span_t(v) <= n - 1
        # realization rebuilds both diagrams from their DT codes alone
        for fixture in (pd, switched):
            realized = realize(dt_of(fixture))
            validate_diagram(realized)
            assert face_count(realized) == n + 2
            b = bracket(fixture)
            assert bracket(realized) in (b, b.mirrored())

    def test_goeritz_signature(self) -> None:
        # all three crossings of this trefoil are negative: sigma = +2 in
        # the convention where the positive trefoil has sigma = -2
        trefoil = realize(parse_dt(TREFOIL))
        assert writhe(trefoil) == -3 and goeritz_signature(trefoil) == 2
        assert goeritz_signature(realize(parse_dt(FIGURE_EIGHT))) == 0
        fixtures = [realize(parse_dt(t)) for t in (KINK, TREFOIL, FIGURE_EIGHT, K12_MIN)]
        for pd in _random_diagrams(18, 25, 8) + fixtures:
            sigma = goeritz_signature(pd)
            assert goeritz_signature(pd, shade=1) == sigma
            assert goeritz_signature(mirror(pd)) == -sigma

    def test_coefficients_stay_below_bound(self) -> None:
        pd = realize(parse_dt(K12_REP))
        v = jones(pd)
        bound = 1 << (2 * pd.n)
        assert all(abs(c) < bound for _, c in v.terms)

    def test_normalization_failure_on_odd_exponent(self, monkeypatch) -> None:
        # the trefoil's bracket exponents are 3w = -9 mod 4, so with a
        # writhe of 0 jones must reject them, not divide through
        pd = realize(parse_dt(TREFOIL))
        monkeypatch.setattr(turaev.poly, "writhe", lambda pd: 0)
        with pytest.raises(NormalizationFailure,
                           match="exponent -5 is not 3w mod 4, w = 0"):
            jones(pd)

    def test_writhe_off_by_four_breaks_only_the_derivative(self, monkeypatch) -> None:
        # w + 4 keeps every exponent 3w mod 4, so jones raises nothing
        # and returns t^3 V; V(1) is still 1, V'(1) is 3 instead of 0
        pd = realize(parse_dt(TREFOIL))
        true_v = jones(pd)
        monkeypatch.setattr(turaev.poly, "writhe", lambda d: writhe(d) + 4)
        v = jones(pd)
        assert v.render() == "-1*t^-1 + 1*t^0 + 1*t^2"
        assert sum(c for _, c in v.terms) == 1
        assert _derivative_at_one(true_v) == 0
        assert _derivative_at_one(v) == 3

    def test_empty_bracket_gives_zero_jones(self, monkeypatch) -> None:
        monkeypatch.setattr(turaev.poly, "bracket",
                            lambda pd: LaurentPoly("A", ()))
        assert jones(realize(parse_dt(TREFOIL))) == LaurentPoly("t", ())


class TestSpanAndMirrorComparison:
    def test_span_t_wants_variable_t(self) -> None:
        assert span_t(LaurentPoly.one("t")) == 0
        with pytest.raises(ValueError):
            span_t(LaurentPoly.one("A"))
        with pytest.raises(ValueError, match="zero polynomial has no span"):
            span_t(LaurentPoly("t", ()))

    def test_equal_up_to_mirror(self) -> None:
        p = _poly({-4: -1, -3: 1, -1: 1})
        assert equal_up_to_mirror(p, p)
        assert equal_up_to_mirror(p, p.mirrored())
        assert not equal_up_to_mirror(p, _poly({-4: 1, -3: -1, -1: -1}))
        with pytest.raises(ValueError):
            equal_up_to_mirror(p, LaurentPoly.one("A"))
