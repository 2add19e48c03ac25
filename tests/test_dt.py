from __future__ import annotations

import random

import pytest

from diagram_fixtures import random_code
from turaev.dt import (
    DtCode,
    DtCodeError,
    SignKind,
    classify_signs,
    format_dt,
    parse_dt,
)

TREFOIL = "{{3},{4,6,2}}"
TWELVE_MIN = "{{12},{4,8,14,2,-18,16,6,20,22,-24,12,-10}}"
TWELVE_REP = "{{17},{4,8,14,2,24,32,6,30,26,28,-16,12,34,18,20,22,10}}"


def test_parse_trefoil() -> None:
    code = parse_dt(TREFOIL)
    assert code.n == 3
    assert code.labels == (4, 6, 2)


def test_parse_tolerates_whitespace() -> None:
    assert parse_dt(" {{3} , { 4 ,6 , 2 }} ") == parse_dt(TREFOIL)
    assert parse_dt("{{1},{2}}").labels == (2,)
    assert parse_dt("{{0},{}}").labels == ()


def test_format_is_canonical() -> None:
    assert format_dt(parse_dt(" {{3}, {4, 6, 2}} ")) == TREFOIL
    assert format_dt(parse_dt("{{0},{ }}")) == "{{0},{}}"
    assert str(parse_dt(TWELVE_REP)) == TWELVE_REP


@pytest.mark.parametrize(
    "text",
    [
        "",
        "{{3},{4,6,2}",
        "{3},{4,6,2}}",
        "{{3};{4,6,2}}",
        "{{a},{4,6,2}}",
        "{{3},{4,6,x}}",
        "{{3},{4 6 2}}",
        "{{3},{4,6,2}} trailing",
    ],
)
def test_parse_rejects_malformed(text: str) -> None:
    with pytest.raises(DtCodeError, match="not of the form"):
        parse_dt(text)


def test_fuzzed_text_raises_only_documented_errors() -> None:
    # digits of other scripts and superscripts are not numbers
    rng = random.Random(58)
    alphabet = "{},- \t0123456789\u00b2\u0663"
    for _ in range(3000):
        text = format_dt(random_code(rng, rng.randint(0, 17)))
        text = "".join(rng.choice("3\u0663") if ch == "3" else ch for ch in text)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(alphabet) * rng.randint(0, 1) + text[i + rng.randint(0, 1):]
        try:
            code = parse_dt(text)
        except DtCodeError:
            continue
        assert text.isascii()
        assert parse_dt(format_dt(code)) == code


def test_parse_rejects_length_mismatch() -> None:
    with pytest.raises(DtCodeError, match="declared 3 crossings but got 2 labels"):
        parse_dt("{{3},{4,6}}")
    with pytest.raises(DtCodeError, match="declared 2 crossings but got 3 labels"):
        parse_dt("{{2},{4,6,2}}")


def test_negative_crossing_count() -> None:
    with pytest.raises(DtCodeError, match="negative crossing count -1"):
        DtCode(-1, ())


@pytest.mark.parametrize("text", ["{{1},{%s}}" % ("2" * 5000),
                                  "{{%s},{2}}" % ("1" * 5000)],
                         ids=["label", "count"])
def test_parse_rejects_numbers_past_the_int_digit_limit(text: str) -> None:
    # int() refuses more than 4300 digits; the message names the rule
    # and does not echo the number
    with pytest.raises(DtCodeError) as exc:
        parse_dt(text)
    assert str(exc.value) == "a number has more digits than int() converts"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        pytest.param(text, message, id=text)
        for text, message in [
            ("{{3},{4,6,8}}", "label 8 exceeds 2n = 6"),
            ("{{3},{4,6,3}}", "label 3 is not a nonzero even number"),
            ("{{3},{4,6,0}}", "label 0 is not a nonzero even number"),
            ("{{3},{4,6,-4}}", "label magnitude 4 repeats"),
        ]
    ],
)
def test_parse_rejects_bad_permutations(text: str, message: str) -> None:
    with pytest.raises(DtCodeError, match=message):
        parse_dt(text)


@pytest.mark.parametrize(("text", "message"), [
    ("{{1},{%s}}" % ("2" * 4201), "label <13954-bit number> exceeds 2n = 2"),
    ("{{1},{-%s}}" % ("3" * 4201), "label -<13954-bit number> is not a nonzero even number"),
    ("{{%s},{2}}" % ("1" * 4201), "declared <13953-bit number> crossings but got 1 labels"),
    ("{{1},{%s}}" % ("8" * 30), "label %s exceeds 2n = 2" % ("8" * 30)),
    ("x" * 10000, "not of the form {{n},{a1,...,an}}: '%s'... (10000 characters)" % ("x" * 40)),
    ("x" * 40, "not of the form {{n},{a1,...,an}}: '%s'" % ("x" * 40)),
    ("x" * 41, "not of the form {{n},{a1,...,an}}: '%s'... (41 characters)" % ("x" * 40)),
], ids=["label", "odd-label", "count", "30-digit-label", "long-text", "40-character-text",
        "41-character-text"])
def test_long_numbers_are_elided_from_messages(text: str, message: str) -> None:
    # a number of 31 digits or more shows as its sign and bit length, and
    # text of more than 40 characters as its first 40 and its length
    with pytest.raises(DtCodeError) as exc:
        parse_dt(text)
    assert str(exc.value) == message
    assert len(message) < 200


def test_labels_past_the_str_digit_limit_are_elided() -> None:
    with pytest.raises(DtCodeError) as exc:
        DtCode(1, (10**5000,))
    assert str(exc.value) == "label <16610-bit number> exceeds 2n = 2"


def test_classify_uniform_is_alternating() -> None:
    assert classify_signs(parse_dt(TREFOIL)).kind is SignKind.ALTERNATING
    assert classify_signs(parse_dt("{{3},{-4,-6,-2}}")).kind is SignKind.ALTERNATING
    assert classify_signs(parse_dt("{{0},{}}")).kind is SignKind.ALTERNATING
    assert classify_signs(parse_dt("{{1},{-2}}")).kind is SignKind.ALTERNATING
    assert classify_signs(parse_dt("{{1},{2}}")).kind is SignKind.ALTERNATING


def test_classify_single_minority() -> None:
    got = classify_signs(parse_dt("{{3},{4,-6,2}}"))
    assert got.kind is SignKind.ALMOST_ALTERNATING
    assert got.minority_index == 1

    got = classify_signs(parse_dt("{{3},{-4,6,-2}}"))
    assert got.kind is SignKind.ALMOST_ALTERNATING
    assert got.minority_index == 1

    got = classify_signs(parse_dt(TWELVE_REP))
    assert got.kind is SignKind.ALMOST_ALTERNATING
    assert got.minority_index == 10


def test_classify_two_crossing_tie_picks_negative() -> None:
    got = classify_signs(parse_dt("{{2},{4,-2}}"))
    assert got.kind is SignKind.ALMOST_ALTERNATING
    assert got.minority_index == 1


def test_classify_other() -> None:
    got = classify_signs(parse_dt(TWELVE_MIN))
    assert got.kind is SignKind.OTHER
    assert got.minority_index is None


def test_flip_minority_restores_alternation() -> None:
    code = parse_dt(TWELVE_REP)
    sc = classify_signs(code)
    labels = list(code.labels)
    labels[sc.minority_index] = -labels[sc.minority_index]
    assert classify_signs(DtCode(code.n, tuple(labels))).kind is SignKind.ALTERNATING


def test_random_codes_round_trip_and_mirror_classification() -> None:
    # Negating every label mirrors the diagram; the classification kind
    # and the minority position must not move.
    rng = random.Random(1759)
    for _ in range(200):
        n = rng.randint(2, 14)
        code = random_code(rng, n)
        assert parse_dt(format_dt(code)) == code
        mirrored = DtCode(n, tuple(-a for a in code.labels))
        assert classify_signs(mirrored).kind is classify_signs(code).kind
        if classify_signs(code).kind is SignKind.ALMOST_ALTERNATING and n > 2:
            assert classify_signs(mirrored).minority_index == classify_signs(code).minority_index
