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
step only prepends entries to this continued fraction, or adds to its
first quotient below -1, so Euclid runs once, at the root, and every
node takes its quotients from its parent.  Every descendant's P
repeats a_2 .. a_{k-1} and nearly a_1 and a_k.  The pruning lemma in
the function's docstring turns this into cuts of every subtree that
would need an entry above 9 or a longer word than the best one found,
shows that only the first two levels branch, and stops a branching
loop at the first child whose words would all be too long.  No state
is kept between calls.  This
follows the continued-fraction normal forms of rational tangles
(Kauffman and Lambropoulou, "On the classification of rational
tangles", 2004).
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


def _spelling(quotients: list[int]) -> tuple[int, ...] | None:
    """The shortest word with entries at most 9 whose fraction is the
    value >= 0 with canonical continued fraction [c_0; c_1, .., c_m]:
    [c_m .. c_0], or [1, 9, c_{m-1} .. c_0] when c_m = 10, None when
    neither fits.  For a value >= 1 the words over 1..9 with that
    fraction are [c_m .. c_0] and [1, c_m - 1 .. c_0], so the first
    is the shorter one whenever both fit."""
    head, last = quotients[-2::-1], quotients[-1]
    if max(head, default=0) > 9 or last > 10:
        return None
    return (last, *head) if last <= 9 else (1, 9, *head)


def _live(a: list[int]) -> bool:
    """Lemma (1) of ``synthesize_one_minus_one`` at -v = [0; a_1 ..
    a_k]: False, and every word below needs an entry above 9, when
    a_i > 9 for some i < k or a_k > 10."""
    return max(a[:-1], default=0) <= 9 and a[-1] <= 10


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
    spellings of the continued fraction of y, of which ``_spelling``
    keeps the shorter that fits.  A node v < -1 ends no word.

    A step only prepends to continued fractions: when -v = [c_0; c_1
    .. c_j], its child e >= 1 has -v' = [0; e + c_0, c_1 .. c_j], and
    the zero step, taken only at the root, inverts -v.  So Euclid runs
    once, at the root, and every node takes its quotients from its
    parent.  Only the root and its child e = 0 can lie below -1.

    Pruning lemma.  Write -v = [0; a_1 .. a_k] for -1 < v < 0 and let
    m = len(T); y is [1; a_1 - 1, a_2 .. a_k] ([1; 1] is [2]), or
    [a_2 + 1; a_3 .. a_k] when a_1 = 1, and the node's own words have
    length >= m + len(y) + 1, so P is spelled only when that is at most
    the best length found (or the cap before any).
    (1) Every y below repeats a_2 .. a_{k-1} and at least a_1 and ends
    in a_k or a_k - 1, so the subtree is dead when some a_i > 9 for
    i < k or a_k > 10; a prepended e <= 9 keeps a live node live.
    (2) Every word below the node has length >= m + k + 2, and at or
    below its child e >= 2, whose y is [1; e - 1, a_1 .. a_k],
    >= m + k + 4.  (3) A live node, or else (when a_1 = 1 and
    a_2 >= 9) its child e = 1, whose y is [a_1 + 1; a_2 .. a_k], has
    a word of length <= m + k + 3.  So a node in (-1, 0) visits only
    its child e = 1, and is cut when (2) exceeds the best length found
    (or the cap before any) but not at a tie: that child can still
    hold the first word of that length.  (4) Below a node v < -1 with
    len(T) = m, a child with a_1 = e + c_0 >= 2 and a != [2] has
    len(y) = k + 1, so by (2) every word at or below it has length
    >= m + k + 3.  Every larger e keeps k and a_1 >= 2, so the loop
    over e stops at the first such child whose bound exceeds the best
    length.
    """
    if q.is_infinite:
        raise ValueError("cannot synthesize a word for infinity")
    if q.p >= 0:
        word = _spelling(_continued_fraction(q.p, q.q))
        if word is None:
            raise NotFound(f"no continued-fraction word of {q} has entries "
                           "in 0..9")
        return TangleWord(word)

    best: tuple[int, tuple[int, ...]] | None = None  # (length, word)
    limit = MAX_SYNTH_LENGTH  # best[0] once a word is found

    def visit(tail: tuple[int, ...], a: list[int], live: bool) -> None:
        """Node -1 < v < 0, the value right after the -1 when T = tail,
        with -v = [0; a_1 .. a_k]; live is False when (1) cuts below."""
        nonlocal best, limit
        m = len(tail)
        y = ([a[1] + 1, *a[2:]] if a[0] == 1 else [2] if a == [2]
             else [1, a[0] - 1, *a[1:]])
        head = _spelling(y) if m + len(y) + 1 <= limit else None
        if head is not None:
            key = (m + len(head) + 1, (*head, -1, *tail))
            if key[0] <= limit and (best is None or key < best):
                best, limit = key, key[0]
        if not live or m + len(a) + 2 > limit:
            return
        if not tail:
            branch((0,), a)
        visit((1, *tail), [1, *a], True)

    def branch(tail: tuple[int, ...], c: list[int]) -> None:
        """Node v < -1 with -v = [c_0; c_1 .. c_j]: its children e."""
        m = len(tail)
        # (1) on a = [e + c_0, c_1 .. c_j]: only a_1 differs among them
        rest = c[1:]
        top = 10 if not rest else 9 if _live(rest) else 0
        for e in range(1 if tail else 0, 10):  # zeros final only
            a = [e + c[0], *rest]
            if a[0] >= 2 and a != [2] and m + len(a) + 3 > limit:
                break  # (4)
            visit((e, *tail), a, a[0] <= top)

    c = _continued_fraction(-q.p, q.q)
    if c == [1]:
        return TangleWord((-1,))
    if c[0]:
        branch((), c)
    else:
        visit((), c[1:], _live(c[1:]))
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
