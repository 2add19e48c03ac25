"""Rational tangle words, Conway fractions, one-minus-one synthesis.

A tangle word is a nonempty integer sequence a_1 .. a_k evaluated
right to left by the continued-fraction rule

    F([a_1 .. a_k]) = a_k + 1 / F([a_1 .. a_{k-1}]),   F([a_1]) = a_1

over the extended rationals: 1/0 = inf, x + inf = inf, 1/inf = 0, so
evaluation never divides by zero unguarded.  Two rational tangles are
equivalent exactly when their fractions agree, which is what
``verify_substitution`` checks.

Text notation follows the digit-per-entry convention of the LinKnot
package: every digit is its own entry ("2110" is [2, 1, 1, 0]) and a
``-`` sign, with or without surrounding spaces, attaches to the single
digit after it ("4 - 111" is [4, -1, 1, 1]).  Machine output is
space-separated ("4 -1 1 1").  Entries are therefore bounded by
``MAX_ENTRY`` = 9, the largest that one digit writes, so every word
renders to text that reads back as the same word and both spellings
parse identically for every word.

``synthesize_one_minus_one`` finds, for a negative fraction, an
equivalent word whose only negative entry is a single -1, among words
of length at most 12 with entries in [-1, 9], and returns the first
one in (length, lexicographic) order, so the result is deterministic.
It searches by structure rather than by tabulation: every such word is
P, -1, T with P over 1..9, so P spells the continued fraction of its
own value y >= 1 and is read off, not searched, once T is fixed.  T is
walked backward from the target.  At a backward node v (the value
right after the -1), write -v = [0; a_1 .. a_k]; a further backward
step only prepends entries to this continued fraction, so every
descendant's P repeats a_2 .. a_{k-1} and nearly a_1 and a_k.  The
pruning lemma in the function's docstring turns this into cuts of
every subtree that would need an entry above 9 or a longer word than
the best one found.  No state is kept between calls.  This follows the
continued-fraction normal forms of rational tangles (Kauffman and
Lambropoulou, "On the classification of rational tangles", 2004).
Nonnegative fractions are returned as their plain continued-fraction
word with no -1 at all, in the first of its two spellings whose
entries stay within 0..9 (10 is "1 9"); the caller can tell the two
cases apart by whether -1 occurs.

Not every rational is representable under those bounds: digits stop at
9, so fractions whose continued fractions need a partial quotient
above 9 in every disguise (for example -12, -19/20 or 12) are
genuinely out of reach and raise NotFound.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "ExtendedRational",
    "TangleWord",
    "MalformedWord",
    "NotFound",
    "parse_word",
    "render_word",
    "fraction",
    "synthesize_one_minus_one",
    "verify_substitution",
    "extract_substitutions",
]

MAX_ENTRY = 9  # one digit per entry: the largest entry text can write
MAX_SYNTH_LENGTH = 12


class MalformedWord(ValueError):
    """Text or entries violating the tangle word shape."""


class NotFound(LookupError):
    """Bounded synthesis search exhausted without a match."""


@dataclass(frozen=True)
class ExtendedRational:
    """Rational p/q in lowest terms with q >= 0; (1, 0) is infinity."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("denominator must be nonnegative")
        if self.q == 0 and self.p != 1:
            raise ValueError("infinity is encoded as (1, 0) only")
        if self.q and math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")

    @staticmethod
    def make(p: int, q: int) -> ExtendedRational:
        """Canonicalize an arbitrary integer pair."""
        if q == 0:
            if p == 0:
                raise ValueError("0/0 is not an extended rational")
            return ExtendedRational(1, 0)
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        return ExtendedRational(p // g, q // g)

    @staticmethod
    def parse(text: str) -> ExtendedRational:
        """Parse "p/q" or a bare integer, in ASCII digits."""
        body = text.strip()
        m = re.fullmatch(r"(-?[0-9]+)\s*(?:/\s*(-?[0-9]+))?", body)
        if not m:
            raise ValueError(f"not a rational: {text!r}")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) else 1
        return ExtendedRational.make(p, q)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        if self.q == 0:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class TangleWord:
    """Conway rational tangle word; 0 may appear only as the last entry."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise MalformedWord("empty tangle word")
        if any(e == 0 for e in self.entries[:-1]):
            raise MalformedWord(f"interior zero in {list(self.entries)}")
        if any(abs(e) > MAX_ENTRY for e in self.entries):
            raise MalformedWord(f"entry beyond +-{MAX_ENTRY} in {list(self.entries)}")


def parse_word(text: str) -> TangleWord:
    """Read digit-per-entry notation, signs attaching to the next digit.

    Only the ASCII digits 0-9 are entries; any other character that is
    not a space or a sign, other scripts' digits included, is
    malformed.
    """
    entries: list[int] = []
    negate = False
    for ch in text:
        if ch.isspace():
            continue
        if ch == "-":
            if negate:
                raise MalformedWord(f"doubled sign in {text!r}")
            negate = True
        elif "0" <= ch <= "9":
            value = int(ch)
            entries.append(-value if negate else value)
            negate = False
        else:
            raise MalformedWord(f"unexpected character {ch!r} in {text!r}")
    if negate:
        raise MalformedWord(f"dangling sign in {text!r}")
    if not entries:
        raise MalformedWord(f"no entries in {text!r}")
    return TangleWord(tuple(entries))


def render_word(w: TangleWord) -> str:
    """Space-separated entries, e.g. [4, -1, 1, 1] -> "4 -1 1 1"."""
    return " ".join(str(e) for e in w.entries)


def fraction(w: TangleWord) -> ExtendedRational:
    """Conway fraction of a rational tangle word.

    p/q runs through the continuants of the word: each step maps p/q to
    e + q/p.  Consecutive continuants are coprime, so the pair is never
    0/0, and 1/0 = inf, 1/inf = 0 fall out of the recurrence.
    """
    p, q = w.entries[0], 1
    for e in w.entries[1:]:
        p, q = e * p + q, p
    return ExtendedRational.make(p, q)


def _continued_fraction(p: int, d: int) -> list[int]:
    """Partial quotients [c_0; c_1, .., c_m] of p/d for p >= 0, d > 0."""
    quotients: list[int] = []
    while d:
        quotients.append(p // d)
        p, d = d, p % d
    return quotients


def _prefixes(p: int, d: int) -> list[tuple[int, ...]]:
    """The continued-fraction words of p/d >= 0 with entries at most 9,
    in both spellings, ending in c_m or in c_m - 1, 1.  For p/d >= 1
    these are all the words over 1..9 whose fraction is p/d."""
    quotients = _continued_fraction(p, d)
    spellings = [quotients]
    if quotients[-1] >= 2:
        spellings.append([*quotients[:-1], quotients[-1] - 1, 1])
    return [tuple(reversed(s)) for s in spellings if max(s) <= 9]


def synthesize_one_minus_one(q: ExtendedRational) -> TangleWord:
    """Shortest word for q whose only negative entry is a single -1.

    Nonnegative q comes back as its ordinary continued-fraction word
    with no -1 entry at all, in the first spelling whose entries fit
    in 0..9 (NotFound when neither does).  Negative q is resolved to
    the first word in (length, lexicographic) order among words of
    length <= 12 with entries in [-1, 9] and zeros only in final
    position.

    Such a word is P, -1, T.  The search walks T backward from q, one
    node per suffix, with v <- 1/(v - e); at a node v < 0 (the value
    right after the -1) the prefix has fraction y = 1/(1 + v), so P is
    empty at v = -1 and otherwise, for -1 < v < 0, one of the two
    spellings of the continued fraction of y (see ``_prefixes``).

    Pruning lemma.  Write -v = [0; a_1 .. a_k] for -1 < v < 0.  A
    backward step only prepends entries to this continued fraction
    (after a final zero step from the root, a_1 grows instead), so the
    continued fraction of y at every descendant holds a_2 .. a_{k-1}
    verbatim, a_1 or a_1 + 1 (at least a_1), and a_k or a_k - 1 in
    last place.  The subtree is dead when some a_i > 9 for i < k or
    a_k > 10, and each of its words has length >= len(T) + k + 2.
    """
    if q.is_infinite:
        raise ValueError("cannot synthesize a word for infinity")
    if q.p >= 0:
        words = _prefixes(q.p, q.q)
        if not words:
            raise NotFound(f"no continued-fraction word of {q} has entries "
                           "in 0..9")
        return TangleWord(words[0])

    best: tuple[int, tuple[int, ...]] | None = None  # (length, word)

    def visit(p: int, d: int, tail: tuple[int, ...]) -> None:
        """Node v = p/d < 0, the value right after the -1 when T = tail."""
        nonlocal best
        heads = [()] if p == -d else _prefixes(d, d + p) if -p < d else []
        for head in heads:
            key = (len(tail) + len(head) + 1, (*head, -1, *tail))
            if key[0] <= MAX_SYNTH_LENGTH and (best is None or key < best):
                best = key
        a = _continued_fraction(-p, d)[1:] if -p < d else []
        if a and (any(x > 9 for x in a[:-1]) or a[-1] > 10):
            return
        if len(tail) + len(a) + 2 > (best[0] if best else MAX_SYNTH_LENGTH):
            return
        for e in range(1 if tail else 0, 10):  # a zero only in final position
            visit(-d, e * d - p, (e, *tail))

    visit(q.p, q.q, ())
    if best is None:
        raise NotFound(
            f"no word of length <= {MAX_SYNTH_LENGTH} with entries in [-1, 9] "
            f"and one -1 entry has fraction {q}"
        )
    return TangleWord(best[1])


def verify_substitution(left: TangleWord, right: TangleWord) -> bool:
    """True iff the words have equal fractions and the right word's
    only negative entry is a single -1."""
    ones = sum(1 for e in right.entries if e == -1)
    if ones != 1 or any(e < 0 and e != -1 for e in right.entries):
        return False
    return fraction(left) == fraction(right)


_POLYHEDRON_TAG = re.compile(r"^\s*([0-9]+\^?\*+)")
_SEPARATORS = re.compile(r"([.:,()])")


def _tokenize_conway(text: str) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Split a Conway string into a polyhedron tag, separator skeleton,
    and whitespace-normalized slot texts."""
    m = _POLYHEDRON_TAG.match(text)
    tag = m.group(1).replace("^", "") if m else ""
    rest = text[m.end() :] if m else text
    parts = _SEPARATORS.split(rest)
    slots = tuple(" ".join(t.split()) for t in parts[0::2])
    seps = tuple(parts[1::2])
    return tag, seps, slots


def extract_substitutions(
    conway_min: str, conway_rep: str
) -> list[tuple[TangleWord, TangleWord]] | None:
    """Pair up the tangle slot where two Conway strings differ.

    Both strings are split on the shared separators; when they carry
    the same polyhedron tag and separator skeleton and differ in
    exactly one slot, that slot is parsed and returned as a word pair
    (identical strings yield an empty list).  None means the strings
    are not slotwise alignable: a different skeleton, or a rewrite
    touching several slots at once (those are whole-form restatements,
    typically of the mirror diagram, not single-tangle substitutions).
    """
    tag_a, seps_a, slots_a = _tokenize_conway(conway_min)
    tag_b, seps_b, slots_b = _tokenize_conway(conway_rep)
    if tag_a != tag_b or seps_a != seps_b:
        return None
    pairs = [(a, b) for a, b in zip(slots_a, slots_b) if a != b]
    if len(pairs) > 1:
        return None
    try:
        return [(parse_word(a), parse_word(b)) for a, b in pairs]
    except MalformedWord:
        return None
