"""Tangle word parsing, fractions, synthesis, and substitution checks.

Synthesis has two oracles that share no code with the search: an
exhaustive enumeration of every word of length <= 5, whose first word
in (length, lexicographic) order for each negative fraction must come
back exactly, and the table of all coprime -p/q with p, q <= 40 in
``perfbench/golden.json``, recorded from an independent
meet-in-the-middle search (found words and NotFounds alike).  A
sha256 over the outputs for all coprime -p/q with p, q <= 250 pins
every answer of the search as it stood before its cuts were tightened.
The number of search nodes visited over the golden table, the Euclid
runs there and the prefixes spelled for hopeless roots are pinned, so
a search that prunes less or recomputes more fails as well.  Random
targets drawn as fractions of random valid words check the fraction
round trip up to the full length of 12.  ``fraction`` is checked against a plain ``fractions.Fraction``
evaluation, and nonnegative synthesis against the continued-fraction
spellings computed the same way.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from turaev import tangle
from turaev.tangle import (
    ExtendedRational,
    MalformedWord,
    NotFound,
    TangleWord,
    extract_substitutions,
    fraction,
    parse_word,
    render_word,
    synthesize_one_minus_one,
    verify_substitution,
)


def _er(text: str) -> ExtendedRational:
    return ExtendedRational.parse(text)


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _first_words(max_len: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """First word in (length, lex) order for each negative fraction p/q
    reached by a word with one -1 entry, entries in [-1, 9] and zeros
    final only: plain enumeration over integer pairs, no pruning."""
    first: dict[tuple[int, int], tuple[int, ...]] = {}
    level = [((e,), e, 1) for e in range(-1, 10)]  # (word, p, q)
    for length in range(1, max_len + 1):
        for word, p, q in level:
            if q and p < 0 and -1 in word:
                first.setdefault((p, q), word)
        if length < max_len:
            level = [
                ((*word, e), *_append(p, q, e))
                for word, p, q in level
                if word[-1] != 0
                for e in range(-1, 10)
                if not (e == -1 and -1 in word)
            ]
    return first


def _append(p: int, q: int, e: int) -> tuple[int, int]:
    """p/q -> e + q/p in lowest terms with q >= 0; (1, 0) is infinity."""
    p, q = e * p + q, p
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return p // g, q // g


def _fraction_oracle(entries: tuple[int, ...]) -> Fraction | None:
    """a_k + 1/(... + 1/a_1) over Fraction; None stands for 1/0."""
    acc: Fraction | None = Fraction(entries[0])
    for e in entries[1:]:
        acc = Fraction(e) if acc is None else None if acc == 0 else e + 1 / acc
    return acc


def _visits(target: ExtendedRational) -> int:
    """Search nodes visited while synthesizing target: calls of the
    nested ``visit`` (nodes in (-1, 0)) and ``branch`` (nodes below -1)."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        code = frame.f_code
        calls += (event == "call" and code.co_name in ("visit", "branch")
                  and code.co_filename
                  == synthesize_one_minus_one.__code__.co_filename)

    sys.setprofile(count)
    try:
        synthesize_one_minus_one(target)
    except NotFound:
        pass
    finally:
        sys.setprofile(None)
    return calls


def _counted(monkeypatch: pytest.MonkeyPatch, name: str) -> list[tuple]:
    """Wrap the tangle module's function ``name``; the returned list
    gets the arguments of each call."""
    calls: list[tuple] = []
    real = getattr(tangle, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tangle, name, counted)
    return calls


def _digit_spellings(x: Fraction) -> list[tuple[int, ...]]:
    """Words [c_m .. c_0] and [1, c_m - 1 .. c_0] of the continued
    fraction c_0 + 1/(c_1 + ...) of x >= 0 whose entries are all at
    most 9."""
    cf = []
    while True:
        cf.append(math.floor(x))
        x -= cf[-1]
        if not x:
            break
        x = 1 / x
    spellings = [cf]
    if cf[-1] >= 2:
        spellings.append([*cf[:-1], cf[-1] - 1, 1])
    return [tuple(reversed(s)) for s in spellings if max(s) <= 9]


class TestParseRender:
    def test_paper_style_tokens(self) -> None:
        assert parse_word("4 - 111").entries == (4, -1, 1, 1)
        assert parse_word("21 - 10").entries == (2, 1, -1, 0)
        assert parse_word("22 - 110").entries == (2, 2, -1, 1, 0)
        assert parse_word("3").entries == (3,)
        assert parse_word("2110").entries == (2, 1, 1, 0)

    def test_machine_style_tokens(self) -> None:
        assert parse_word("4 -1 1 1").entries == (4, -1, 1, 1)
        assert parse_word("2 1 -1 0").entries == (2, 1, -1, 0)

    def test_malformed(self) -> None:
        for bad in ("", "   ", "4 -", "-", "- -2", "2a", "20 2", "4 . 1",
                    "2\u00b2", "\u0663 1"):
            with pytest.raises(MalformedWord):
                parse_word(bad)

    def test_fuzzed_text_raises_only_documented_errors(self) -> None:
        # digits of other scripts and superscripts are not entries
        rng = random.Random(57)
        digits, foreign = "0123456789", "\u00b2\u0663"
        alphabet = digits + "-/ " + foreign
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            try:
                w = parse_word(text)
            except MalformedWord:
                pass
            else:
                assert not set(text) & set(foreign + "/")
                assert len(w.entries) == sum(ch in digits for ch in text)
            try:
                ExtendedRational.parse(text)
            except ValueError:
                pass
            else:
                assert not set(text) & set(foreign)

    def test_word_invariants(self) -> None:
        with pytest.raises(MalformedWord):
            TangleWord(())
        with pytest.raises(MalformedWord):
            TangleWord((2, 0, 2))
        with pytest.raises(MalformedWord):
            TangleWord((10,))
        with pytest.raises(MalformedWord):
            TangleWord((2, -10))
        TangleWord((9, -9, 0))  # at the one-digit bound, zero final

    def test_render_and_round_trip(self) -> None:
        assert render_word(parse_word("4 - 111")) == "4 -1 1 1"
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(1, 8)
            entries = [rng.randint(1, 9) for _ in range(n)]
            if rng.random() < 0.5:
                entries[rng.randrange(n)] *= -1
            if rng.random() < 0.3:
                entries.append(0)
            w = TangleWord(tuple(entries))
            assert parse_word(render_word(w)) == w


class TestExtendedRational:
    def test_normalization(self) -> None:
        assert ExtendedRational.make(4, 6) == ExtendedRational(2, 3)
        assert ExtendedRational.make(-4, -6) == ExtendedRational(2, 3)
        assert ExtendedRational.make(4, -6) == ExtendedRational(-2, 3)
        assert ExtendedRational.make(7, 0) == ExtendedRational(1, 0)
        assert ExtendedRational.make(-7, 0) == ExtendedRational(1, 0)
        with pytest.raises(ValueError):
            ExtendedRational.make(0, 0)

    def test_constructor_rejects_non_canonical(self) -> None:
        with pytest.raises(ValueError):
            ExtendedRational(2, 4)
        with pytest.raises(ValueError):
            ExtendedRational(1, -2)
        with pytest.raises(ValueError):
            ExtendedRational(3, 0)

    def test_parse_and_str(self) -> None:
        assert _er("-3/2") == ExtendedRational(-3, 2)
        assert _er("7") == ExtendedRational(7, 1)
        assert _er(" 4 / 6 ") == ExtendedRational(2, 3)
        for bad in ("three", "\u0663", "2/\u0663", "2\u00b2"):
            with pytest.raises(ValueError):
                _er(bad)
        assert str(_er("-3/2")) == "-3/2"
        assert str(_er("7")) == "7"
        assert str(ExtendedRational(1, 0)) == "inf"


class TestFraction:
    def test_examples(self) -> None:
        assert fraction(parse_word("3")) == _er("3")
        assert fraction(parse_word("4 - 111")) == _er("-2")
        assert fraction(parse_word("21 - 10")) == _er("-3")
        assert fraction(parse_word("4 - 1")) == _er("-3/4")
        assert fraction(parse_word("22 - 110")) == _er("-3/2")

    def test_infinity_propagates(self) -> None:
        # F([2,-1,2]) = 0, then 1/0 = inf, then 3 + 1/inf = 3
        assert fraction(TangleWord((2, -1, 2))) == _er("0")
        assert fraction(TangleWord((2, -1, 2, 5))) == ExtendedRational(1, 0)
        assert fraction(TangleWord((2, -1, 2, 5, 3))) == _er("3")

    def test_matches_fraction_oracle(self) -> None:
        rng = random.Random(61)
        infinities = zeros = 0
        for _ in range(5000):
            top = rng.choice((2, 9))  # small entries reach 0 and 1/0 often
            entries = [rng.choice((-1, 1)) * rng.randint(1, top)
                       for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.2:
                entries.append(0)
            want = _fraction_oracle(tuple(entries))
            got = fraction(TangleWord(tuple(entries)))
            if want is None:
                infinities += 1
                assert got == ExtendedRational(1, 0), entries
            else:
                zeros += want == 0
                assert got == ExtendedRational(want.numerator,
                                               want.denominator), entries
        assert infinities >= 20 and zeros >= 20


class TestSynthesize:
    FROZEN = {
        "-1": "-1",
        "-2": "2 -1 0",
        "-3": "2 1 -1 0",
        "-1/2": "2 -1",
        "-3/2": "3 -1 0",
        "-5/3": "2 2 -1 0",
        "-3/4": "4 -1",
        "-5/2": "2 1 1 -1 0",
        "-7": "6 1 -1 0",
        "-1/7": "6 1 -1",
    }

    def test_frozen_words(self) -> None:
        for q, want in self.FROZEN.items():
            w = synthesize_one_minus_one(_er(q))
            assert render_word(w) == want
            assert fraction(w) == _er(q)

    def test_matches_plain_enumeration(self) -> None:
        first = _first_words(5)
        assert len(first) == 7399
        for (p, q), want in first.items():
            assert synthesize_one_minus_one(ExtendedRational(p, q)).entries == want

    def test_matches_golden_table(self) -> None:
        targets = json.loads(GOLDEN.read_text())["synth-search"]["targets"]
        assert len(targets) == 979
        for text, want in targets.items():
            try:
                got = render_word(synthesize_one_minus_one(_er(text)))
            except NotFound:
                got = None
            assert got == want, text

    def test_search_visits_few_nodes(self) -> None:
        # the visits per golden target: a search that cuts less than the
        # pruning lemma allows visits more nodes somewhere
        targets = json.loads(GOLDEN.read_text())["synth-search"]["targets"]
        visits = [_visits(_er(text)) for text in targets]
        assert max(visits) == 20
        assert sum(visits) == 5843

    def test_euclid_runs_once_per_target(self, monkeypatch) -> None:
        # every node below the root takes its quotients from its parent
        calls = _counted(monkeypatch, "_continued_fraction")
        targets = json.loads(GOLDEN.read_text())["synth-search"]["targets"]
        for text in targets:
            try:
                synthesize_one_minus_one(_er(text))
            except NotFound:
                pass
        assert len(calls) == len(targets) == 979

    def test_hopeless_prefixes_are_not_spelled(self, monkeypatch) -> None:
        # each root (or its child e = 0) has 11 or more prefix quotients,
        # so its own words are longer than 12 and none is spelled
        calls = _counted(monkeypatch, "_spelling")
        for q in ("-144/377", "-377/233", "-610/377", "-377/610"):
            with pytest.raises(NotFound):
                synthesize_one_minus_one(_er(q))
        assert not calls

    def test_outputs_match_the_recorded_digest(self) -> None:
        # one sha256 over the rendered word or NotFound of every coprime
        # -p/q with p, q <= 250, recorded from a search that ran Euclid
        # at every level-one node and visited every sibling
        digest = hashlib.sha256()
        count = 0
        for p in range(1, 251):
            for q in range(1, 251):
                if math.gcd(p, q) != 1:
                    continue
                try:
                    out = render_word(synthesize_one_minus_one(ExtendedRational(-p, q)))
                except NotFound:
                    out = "NotFound"
                digest.update(f"-{p}/{q} {out}\n".encode())
                count += 1
        assert count == 38047
        assert digest.hexdigest() == (
            "278a4e07e08f1ebfea38f289dad94e96662a1a1b1a576e17c8112651e2a6002a")

    def test_length_cap(self) -> None:
        # Fibonacci ratios need one more 1 per step, up to 12 entries
        for q, want in [("-34/89", "2 1 1 1 1 1 1 1 1 -1"),
                        ("-55/144", "2 1 1 1 1 1 1 1 1 1 -1"),
                        ("-89/233", "2 1 1 1 1 1 1 1 1 1 1 -1")]:
            assert render_word(synthesize_one_minus_one(_er(q))) == want
        # -361/945 has -v = [0; 2, 1, .., 1, 10], whose prefix
        # [1; 1, .., 1, 10] is spelled 1 9 1 .. 1: 13 entries with the -1
        for q in ("-144/377", "-361/945"):
            with pytest.raises(NotFound):
                synthesize_one_minus_one(_er(q))

    def test_only_word_at_the_node_bound(self) -> None:
        # -v = [0; 1, 9, 2, .., 2] at the root has no word of its own;
        # the only one is the e = 1 child's, of length k + 2 = 12, so
        # the cut must spare a subtree whose bound equals the cap
        w = synthesize_one_minus_one(_er("-9273/10258"))
        assert render_word(w) == "2 2 2 2 2 2 2 2 9 2 -1 1"

    def test_nonnegative_passthrough(self) -> None:
        for q, want in [("7/3", "3 2"), ("0", "0"), ("5", "5"), ("1/2", "2 0"),
                        ("10", "1 9"), ("1/10", "1 9 0")]:
            w = synthesize_one_minus_one(_er(q))
            assert render_word(w) == want
            assert -1 not in w.entries
            assert fraction(w) == _er(q)

    def test_random_representable_targets_round_trip(self) -> None:
        rng = random.Random(42)
        negatives = 0
        done = 0
        while done < 100:
            n = rng.randint(1, 8)
            entries = [rng.randint(1, 9) for _ in range(n)]
            entries[rng.randrange(n)] = -1
            if rng.random() < 0.3:
                entries.append(0)
            target = fraction(TangleWord(tuple(entries)))
            if target.is_infinite:
                continue
            try:
                w = synthesize_one_minus_one(target)
            except NotFound:
                # a nonnegative target needs a one-digit spelling
                assert target.p >= 0, entries
                assert not _digit_spellings(Fraction(target.p, target.q))
                done += 1
                continue
            assert fraction(w) == target
            ones = sum(1 for e in w.entries if e == -1)
            assert ones == (1 if target.p < 0 else 0)
            negatives += target.p < 0
            done += 1
        assert negatives >= 30

    def test_random_nonnegative_rationals_round_trip(self) -> None:
        rng = random.Random(43)
        for _ in range(100):
            target = ExtendedRational.make(rng.randint(0, 20), rng.randint(1, 20))
            spellings = _digit_spellings(Fraction(target.p, target.q))
            try:
                w = synthesize_one_minus_one(target)
            except NotFound:
                assert not spellings, target
                continue
            assert w.entries == spellings[0]
            assert fraction(w) == target

    def test_unrepresentable_targets(self) -> None:
        # digits stop at 9, so these need a partial quotient above 9 in
        # every equivalent form and no word of length <= 12 exists
        for q in ("-12", "-19/20", "-1/12", "-20"):
            with pytest.raises(NotFound):
                synthesize_one_minus_one(_er(q))

    def test_infinity_rejected(self) -> None:
        with pytest.raises(ValueError):
            synthesize_one_minus_one(ExtendedRational(1, 0))

    def test_deterministic_across_calls(self) -> None:
        first = synthesize_one_minus_one(_er("-5/2"))
        synthesize_one_minus_one(_er("-9/7"))
        assert synthesize_one_minus_one(_er("-5/2")) == first


class TestVerifySubstitution:
    def test_examples(self) -> None:
        assert verify_substitution(parse_word("- 2"), parse_word("4 - 111"))
        assert verify_substitution(parse_word("- 2 - 1"), parse_word("22 - 110"))
        assert not verify_substitution(parse_word("- 2"), parse_word("4 - 11"))

    def test_right_shape_requirements(self) -> None:
        # no -1 entry at all
        assert not verify_substitution(parse_word("- 2"), parse_word("- 2"))
        # a second negative entry that is not -1
        assert not verify_substitution(
            TangleWord((-2, -1)), TangleWord((-2, -1))
        )
        # two -1 entries
        assert not verify_substitution(
            TangleWord((-1, 2, -1)), TangleWord((-1, 2, -1))
        )
        # exactly one -1, fractions equal
        assert verify_substitution(TangleWord((-1,)), TangleWord((-1,)))


class TestExtractSubstitutions:
    def test_single_slot_difference(self) -> None:
        got = extract_substitutions(".(21, 2). - 2.20", ".(21, 2).4 - 111.20")
        assert got == [(TangleWord((-2,)), TangleWord((4, -1, 1, 1)))]

    def test_different_polyhedral_basis(self) -> None:
        got = extract_substitutions(
            "-2. - 20. - 2.2110", "8^*2.2.1.20.2.220.1. - 1"
        )
        assert got is None

    def test_identical_strings(self) -> None:
        assert extract_substitutions("2.2", "2.2") == []

    def test_caret_tag_normalization(self) -> None:
        assert extract_substitutions("8*2.2", "8^*2.2") == []

    def test_too_many_differences(self) -> None:
        assert extract_substitutions("1.2.3.4.5", "2.3.4.5.6") is None

    def test_separator_skeleton_mismatch(self) -> None:
        assert extract_substitutions("2.2", "2:2") is None
        assert extract_substitutions("2.2", "2.2.2") is None

    def test_unparseable_differing_slot(self) -> None:
        assert extract_substitutions("2.x", "2.3") is None

    def test_polyhedron_tag_takes_only_ascii_digits(self) -> None:
        # an Arabic-Indic 3 is no tag, so the slots "٣*3" do not parse
        assert extract_substitutions("٣*3", "٣*1 -1 2") is None
        assert extract_substitutions("3*3", "3*1 -1 2") is not None
