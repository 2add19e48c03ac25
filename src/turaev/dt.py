"""Signed Dowker-Thistlethwaite codes for knot diagrams.

Conventions used throughout this package:

Walk the single strand of an n-crossing knot diagram and number the
passes 1, 2, ..., 2n in order.  Every crossing is traversed exactly
twice, once at an odd time and once at an even time.  Crossing i
(1-based) is the one met at odd time 2i - 1; the code stores, as its
i-th entry, the even time at which that crossing is met again, with a
sign:

    a_i > 0  <=>  the even-time pass runs UNDER the crossing
    a_i < 0  <=>  the even-time pass runs OVER the crossing

With this choice an all-positive (or all-negative) code describes an
alternating diagram, matching the tradition of writing alternating
knots with unsigned even labels.  A code whose entries all share one
sign except for a single minority entry describes an almost
alternating diagram: flipping that one crossing restores alternation.

Text form: ``{{n},{a_1,a_2,...,a_n}}``, numbers in the ASCII digits
0-9 only.  Whitespace may appear between tokens on input and is never
emitted on output.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

__all__ = [
    "DtCode",
    "SignClass",
    "SignKind",
    "DtCodeError",
    "parse_dt",
    "format_dt",
    "classify_signs",
]


class DtCodeError(ValueError):
    """Text that is not a DT code, or labels that are not a signed
    arrangement of the evens 2..2n; the message names the rule."""


def _shown(k: int) -> str:
    """``k`` in decimal, or for 31 digits and more only its sign and bit
    length, so that a message stays short and never runs into the digit
    limit of ``str``."""
    if abs(k) < 10**30:
        return str(k)
    return f"{'-' if k < 0 else ''}<{abs(k).bit_length()}-bit number>"


def _quoted(text: str) -> str:
    """``repr(text)``, or for more than 40 characters the repr of the
    first 40 and the length, so that a message stays short."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


@dataclass(frozen=True)
class DtCode:
    """A validated signed DT code.

    ``labels[i]`` is the signed even time at which crossing i (met first
    at odd time 2i + 1 for 0-based i) is revisited.
    """

    n: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DtCodeError(f"negative crossing count {_shown(self.n)}")
        if len(self.labels) != self.n:
            raise DtCodeError(
                f"declared {_shown(self.n)} crossings but got {len(self.labels)} labels"
            )
        seen: set[int] = set()
        for a in self.labels:
            m = abs(a)
            if m == 0 or m % 2 != 0:
                raise DtCodeError(f"label {_shown(a)} is not a nonzero even number")
            if m > 2 * self.n:
                raise DtCodeError(f"label {_shown(a)} exceeds 2n = {2 * self.n}")
            if m in seen:
                raise DtCodeError(f"label magnitude {m} repeats")
            seen.add(m)

    def __str__(self) -> str:
        return format_dt(self)


class SignKind(str, enum.Enum):
    ALTERNATING = "Alternating"
    ALMOST_ALTERNATING = "AlmostAlternating"
    OTHER = "Other"


@dataclass(frozen=True)
class SignClass:
    """Sign classification of a code, with the odd-one-out when it exists."""

    kind: SignKind
    minority_index: int | None = field(default=None)


_DT_RE = re.compile(
    r"""^\s*\{\s*\{\s*([0-9]+)\s*\}\s*,\s*\{\s*((?:-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*)?)\}\s*\}\s*$""",
    re.VERBOSE,
)


def parse_dt(text: str) -> DtCode:
    """Parse ``{{n},{a_1,...,a_n}}`` text into a validated DtCode.

    Raises DtCodeError when the text is not of that shape, when a
    number has more digits than ``int`` converts, when the declared n
    disagrees with the label count, or when the labels are not signed
    evens 2..2n with distinct magnitudes.
    """
    m = _DT_RE.match(text)
    if m is None:
        raise DtCodeError(f"not of the form {{{{n}},{{a1,...,an}}}}: {_quoted(text)}")
    body = m.group(2).strip()
    try:
        n = int(m.group(1))
        labels = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:  # the digits match, so only int()'s length limit
        raise DtCodeError("a number has more digits than int() converts") from None
    return DtCode(n, labels)


def format_dt(code: DtCode) -> str:
    """Render a code in canonical text form, without any whitespace."""
    return "{{%d},{%s}}" % (code.n, ",".join(str(a) for a in code.labels))


def classify_signs(code: DtCode) -> SignClass:
    """Classify a code by its sign pattern.

    Uniform sign (or n <= 1) is Alternating.  Exactly one entry of the
    minority sign is AlmostAlternating, reported with that entry's
    0-based index.  For n = 2 with one sign each, the negative entry is
    taken as the minority, so flipping it yields an all-positive code.
    Everything else is Other.
    """
    if code.n <= 1:
        return SignClass(SignKind.ALTERNATING)
    neg = [i for i, a in enumerate(code.labels) if a < 0]
    k = len(neg)
    if k == 0 or k == code.n:
        return SignClass(SignKind.ALTERNATING)
    if k == 1:
        return SignClass(SignKind.ALMOST_ALTERNATING, neg[0])
    if k == code.n - 1:
        pos = next(i for i, a in enumerate(code.labels) if a > 0)
        return SignClass(SignKind.ALMOST_ALTERNATING, pos)
    return SignClass(SignKind.OTHER)
