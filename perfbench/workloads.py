"""Seeded inputs, operations and output checks for the benchmark workloads.

Inputs are made here from the seed, with the benchmark's own braid
tracing and ``fractions.Fraction`` arithmetic.  The program sees only
the generated inputs, built with its public constructors ``DtCode``,
``CorpusRow`` and ``ExtendedRational``.

A run is a sequence of blocks.  Every block of a workload has the same
composition (crossing numbers, row kinds, expected outcomes) and only
the concrete inputs vary with the seed, so every seed loads the program
with the same mix.  Block ``b`` of seed ``s`` depends on nothing but
``(workload, s, b)``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
WORKLOADS = ("census", "realize-scan", "synth-search")

# Block compositions.  The tail metric is the 11th-largest latency and
# a 30 s run holds only 30 to 90 ops, so each block is built so that the
# median and the tail rank both fall well inside one input class, not on
# the edge between two, for any run of two or more blocks.

# Census rows as (crossings, status).  The n = 13 rows, the costliest,
# are 70% of the ops and hold both the median and the tail rank.
CENSUS_BLOCK = ((11, "resolved"), (12, "open"), (12, "resolved")) + (
    (13, "resolved"),) * 7

# Realization inputs as (kind, crossings).  Braid codes embed and stop
# the scan early; random codes have no plane curve and cost the full
# 2^(n-1) scan, which doubles per crossing.  The median falls among the
# n = 13 rejections and the tail rank among the n = 15 ones.
REALIZE_BLOCK = ((("braid", 12), ("braid", 13), ("random", 12))
                 + (("random", 13),) * 3 + (("random", 14),)
                 + (("random", 15),) * 3)

# Synthesis targets as (outcome, word length, lengths 1..4 pooled).  A
# NotFound target grows every table to full depth and opens each block,
# so the first op of a run pays the lazy prefix table the same way for
# every seed.  Words of length 7 or more cost as much as a NotFound and
# are not drawn, which keeps one full-depth search per block.  The
# median falls among the length-5 words and the tail rank among the
# length-6 words.
SYNTH_BLOCK = ((("notfound", 0),) + (("found", 6),) * 7
               + (("found", 5),) * 24 + (("found", 4),) * 4)
SYNTH_MAX = 40  # targets are -p/q with 1 <= p, q <= SYNTH_MAX


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


# ------------------------------------------------------------------ braids

def braid_dt_labels(word: tuple[int, ...]) -> list[int] | None:
    """Signed DT labels of a closed braid, or None unless it is a knot.

    ``word`` holds generators +-i (i >= 1) acting on strand positions
    i - 1 and i; for +i the strand moving from position i - 1 to i
    passes over.  The traversal starts at position 0 above the first
    generator.  Labels follow the package convention: the even-time
    pass of a crossing is positive when it runs under.
    """
    n = len(word)
    passes: list[tuple[int, bool]] = []  # (generator index, passes over)
    pos = 0
    while True:
        for k, g in enumerate(word):
            i = abs(g)
            if pos in (i - 1, i):
                rightward = pos == i - 1
                passes.append((k, rightward == (g > 0)))
                pos = i if rightward else i - 1
        if pos == 0:
            break
    if len(passes) != 2 * n:
        return None
    visits: dict[int, list[tuple[int, bool]]] = {}
    for t, (k, over) in enumerate(passes, start=1):
        visits.setdefault(k, []).append((t, over))
    labels = [0] * n
    for pair in visits.values():
        (t_odd, _), (t_even, even_over) = sorted(pair, key=lambda v: v[0] % 2 == 0)
        labels[(t_odd - 1) // 2] = -t_even if even_over else t_even
    return labels


def prime_diagram(labels: list[int]) -> bool:
    """False when some proper arc of the traversal meets every crossing
    on it twice: the arc is then a connected summand, or the loop of a
    nugatory crossing, and the code no longer pins the diagram down."""
    n = len(labels)
    at = [0] * (2 * n)
    for i, a in enumerate(labels):
        at[2 * i] = at[abs(a) - 1] = i
    for start in range(2 * n):
        open_once: set[int] = set()
        for length in range(1, 2 * n - 1):
            open_once ^= {at[(start + length - 1) % (2 * n)]}
            if not open_once:
                return False
    return True


def random_braid(rng: random.Random, n: int, alternating: bool) -> list[int]:
    """DT labels of a random n-crossing closed braid with a prime diagram.

    Odd n uses four strands and even n three, since a 4-braid closes to
    a knot only at odd length.  Alternating braids give odd generators
    positive and even generators negative exponents.
    """
    gens = (1, 2, 3) if n % 2 else (1, 2)
    while True:
        word = [rng.choice(gens) for _ in range(n)]
        if alternating:
            word = [g if g % 2 else -g for g in word]
        else:
            word = [g * rng.choice((1, -1)) for g in word]
        labels = braid_dt_labels(tuple(word))
        if labels is not None and prime_diagram(labels):
            return labels


def rebase(labels: list[int], shift: int) -> list[int]:
    """Labels of the same diagram with the traversal started ``shift``
    passes later; an even shift keeps every crossing's odd/even split."""
    n = len(labels)
    out = [0] * n
    for i, a in enumerate(labels):
        odd = (2 * i - shift) % (2 * n) + 1
        even = (abs(a) - 1 - shift) % (2 * n) + 1
        out[(odd - 1) // 2] = even if a > 0 else -even
    return out


def dt_text(labels: list[int]) -> str:
    return "{{%d},{%s}}" % (len(labels), ",".join(map(str, labels)))


def gauss_planar(labels: list[int]) -> bool:
    """Whether some plane curve has this code's Gauss word.

    Rosenstiehl's characterization (proved by de Fraysseix and Ossona
    de Mendez, 1999) on the interlacement graph: every vertex has even
    degree, non-adjacent vertices share an even number of neighbours,
    and the edges whose ends share an even number of neighbours form a
    cocycle.  It shares nothing with the package's rotation search.
    """
    n = len(labels)
    chords = [sorted((2 * i + 1, abs(a))) for i, a in enumerate(labels)]
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, (a0, a1) in enumerate(chords):
        for j in range(i + 1, n):
            b0, b1 = chords[j]
            if (a0 < b0 < a1) != (a0 < b1 < a1):
                nbrs[i].add(j)
                nbrs[j].add(i)
    if any(len(s) % 2 for s in nbrs):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if j not in nbrs[i] and len(nbrs[i] & nbrs[j]) % 2:
                return False
    side: list[int | None] = [None] * n
    for root in range(n):
        if side[root] is not None:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                want = side[u] ^ (len(nbrs[u] & nbrs[v]) % 2 == 0)
                if side[v] is None:
                    side[v] = want
                    stack.append(v)
                elif side[v] != want:
                    return False
    return True


def random_nonplanar(rng: random.Random, n: int) -> list[int]:
    """Uniformly random signed DT permutation with no plane curve."""
    while True:
        mags = list(range(2, 2 * n + 1, 2))
        rng.shuffle(mags)
        labels = [m * rng.choice((1, -1)) for m in mags]
        if not gauss_planar(labels):
            return labels


# -------------------------------------------------------- tangle fractions

def word_fraction(entries: list[int]) -> Fraction | None:
    """Conway fraction a_k + 1/(... + 1/a_1); None stands for 1/0."""
    acc: Fraction | None = Fraction(entries[0])
    for e in entries[1:]:
        if acc is None:
            acc = Fraction(e)
        elif acc == 0:
            acc = None
        else:
            acc = e + 1 / acc
    return acc


def positive_word(x: Fraction) -> list[int]:
    """Continued-fraction word of x >= 0, last entry the integer part."""
    digits = []
    p, q = x.numerator, x.denominator
    while q:
        digits.append(p // q)
        p, q = q, p % q
    return digits[::-1]


def substitution_pair(rng: random.Random) -> tuple[str, str]:
    """A plain word and a word with a single -1 of equal fraction, in
    digit-per-entry notation."""
    while True:
        right = [rng.randint(1, 9) for _ in range(rng.randint(3, 5))]
        right[rng.randrange(1, len(right))] = -1
        x = word_fraction(right)
        if x is not None and x > 0:
            left = positive_word(x)
            if max(left) <= 9:
                return "".join(map(str, left)), " ".join(map(str, right))


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Item:
    """One op input and what the benchmark knows about it beforehand."""

    kind: str      # census: row status; realize: braid/random; synth: found/notfound
    n: int         # crossings; for synthesis the word-length class, 0 for NotFound
    payload: object
    expect: object = None


def census_block(seed: int, block: int) -> list[Item]:
    from turaev.corpus import CorpusRow
    from turaev.dt import DtCode

    rng = block_rng("census", seed, block)
    specs = list(CENSUS_BLOCK)
    rng.shuffle(specs)
    items = []
    for i, (n, status) in enumerate(specs):
        rep = random_braid(rng, n, alternating=True)
        flip = rng.randrange(n)
        rep[flip] = -rep[flip]
        dt_min = DtCode(n, tuple(rebase(rep, 2 * rng.randrange(1, n))))
        left, right = substitution_pair(rng)
        tail = f"{rng.randint(2, 9)},{rng.randint(2, 9)}"
        resolved = status == "resolved"
        row = CorpusRow(
            name=f"K{n}n{block * len(specs) + i + 1}",
            status=status,
            conway_min=f"{left},{tail}",
            conway_rep=f"{right},{tail}" if resolved else None,
            dt_min=dt_min,
            dt_rep=DtCode(n, tuple(rep)) if resolved else None,
            conway_check="applicable" if resolved else "not-alignable",
            source="table1+2",
        )
        items.append(Item(status, n, row))
    return items


def realize_block(seed: int, block: int) -> list[Item]:
    rng = block_rng("realize-scan", seed, block)
    specs = list(REALIZE_BLOCK)
    rng.shuffle(specs)
    items = []
    for kind, n in specs:
        labels = (random_braid(rng, n, alternating=False) if kind == "braid"
                  else random_nonplanar(rng, n))
        items.append(Item(kind, n, dt_text(labels), expect=gauss_planar(labels)))
    return items


def synth_classes(targets: dict) -> dict[tuple[str, int], list[tuple[int, int]]]:
    """Recorded targets grouped into the classes SYNTH_BLOCK draws from."""
    classes: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for key in sorted(targets):
        word = targets[key]
        cls = ("notfound", 0) if word is None else ("found", max(len(word), 4))
        classes.setdefault(cls, []).append(key)
    return classes


def synth_block(seed: int, block: int, classes: dict) -> list[Item]:
    from turaev.tangle import ExtendedRational

    rng = block_rng("synth-search", seed, block)
    picks = []
    for cls in dict.fromkeys(SYNTH_BLOCK):
        picks += [(cls, key) for key in rng.sample(classes[cls], SYNTH_BLOCK.count(cls))]
    head, rest = picks[0], picks[1:]
    rng.shuffle(rest)
    return [Item(kind, length, ExtendedRational(-p, q), expect=(p, q))
            for (kind, length), (p, q) in [head] + rest]


# ------------------------------------------------------------ ops, checks

def run_census(api, item: Item):
    return api.verify_row(item.payload)


def run_realize(api, item: Item):
    result = api.try_realize(api.parse_dt(item.payload))
    if result.diagram is None:
        return result.obstruction, None
    return api.format_diagram(result.diagram), result.diagram


def run_synth(api, item: Item):
    from turaev.tangle import NotFound

    try:
        return api.synthesize_one_minus_one(item.payload)
    except NotFound:
        return None


def census_report_digest(outputs) -> str:
    """Digest of ``render_json`` over the rows' results, sorted by name."""
    from turaev import __version__
    from turaev.verify import FAILED, OPEN, VERIFIED, VerificationReport, render_json

    results = sorted(outputs, key=lambda r: r.name)
    report = VerificationReport(
        results=tuple(results),
        verified=sum(r.verdict == VERIFIED for r in results),
        failed=sum(r.verdict == FAILED for r in results),
        open_rows=sum(r.verdict == OPEN for r in results),
        duration_s=0.0, version=__version__, corpus_digest="synthetic")
    return digest(render_json(report))


def census_text(out) -> str:
    return json.dumps({
        "name": out.name, "verdict": out.verdict, "checks": out.checks,
        "jones_min": out.jones_min, "span": out.span,
        "genus_min": out.genus_min, "genus_rep": out.genus_rep,
        "warnings": list(out.warnings)}, sort_keys=True)


def realize_text(out) -> str:
    return out[0]


def synth_text(out) -> str:
    return "NotFound" if out is None else " ".join(map(str, out.entries))


def jones_terms(text: str) -> dict[int, int]:
    """Exponent -> coefficient from a rendered ``c*t^e + ...`` polynomial."""
    terms = {}
    for term in text.split(" + "):
        coeff, exp = term.split("*t^")
        terms[int(exp)] = int(coeff)
    return terms


def check_census(item: Item, out) -> str | None:
    want = "VERIFIED" if item.kind == "resolved" else "OPEN"
    if out.verdict != want:
        return f"verdict {out.verdict}, expected {want}"
    if "fail" in out.checks.values():
        return f"failed checks {out.checks}"
    terms = jones_terms(out.jones_min)
    if sum(terms.values()) != 1:
        return "V(1) != 1"
    span = max(terms) - min(terms)
    if span != out.span or span > item.n - out.genus_min:
        return f"span {out.span} breaks span <= n - genus = {item.n} - {out.genus_min}"
    return None


def check_realize(item: Item, out) -> str | None:
    from turaev.realize import face_count, validate_diagram

    diagram = out[1]
    if (diagram is not None) != item.expect:
        return f"realized={diagram is not None}, Gauss-code criterion says {item.expect}"
    if diagram is not None:
        try:
            validate_diagram(diagram)
        except ValueError as exc:
            return f"invalid diagram: {exc}"
        if face_count(diagram) != item.n + 2:
            return f"{face_count(diagram)} faces, expected {item.n + 2}"
    return None


def check_synth(item: Item, out, targets: dict) -> str | None:
    p, q = item.expect
    recorded = targets[(p, q)]
    if out is None:
        return None if recorded is None else f"NotFound for -{p}/{q}, recorded {recorded}"
    entries = list(out.entries)
    if entries.count(-1) != 1 or not all(-1 <= e <= 9 for e in entries):
        return f"word {entries} is not one-minus-one with entries in [-1, 9]"
    if word_fraction(entries) != Fraction(-p, q):
        return f"word {entries} has fraction {word_fraction(entries)}, not -{p}/{q}"
    if entries != recorded:
        return f"word {entries} differs from recorded {recorded}"
    return None


@dataclass(frozen=True)
class Spec:
    """How one workload makes its blocks, runs an op and checks it.

    ``block_seconds`` is a nominal block time, set from the 2-CPU host
    the benchmark was built on.  A run of S seconds does round(S /
    block_seconds) blocks, so every run of a workload does the same work
    and a one-time cost, such as synthesis's cold prefix table, weighs
    the same in every run.  On that host, runs of 25 s timed 25 to 43 s,
    as its speed drifts.
    """

    make_block: Callable[[int, int], list[Item]]
    run: Callable
    text: Callable[[object], str]
    check: Callable[[Item, object], str | None]
    block_seconds: float


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def synth_targets(golden: dict) -> dict[tuple[int, int], list[int] | None]:
    """Recorded word, or None for NotFound, of every target -p/q."""
    out = {}
    for key, word in golden["synth-search"]["targets"].items():
        p, q = map(int, key.lstrip("-").split("/"))
        out[(p, q)] = None if word is None else [int(e) for e in word.split()]
    return out


def workload_spec(name: str, golden: dict) -> Spec:
    if name == "census":
        return Spec(census_block, run_census, census_text, check_census, 9.0)
    if name == "realize-scan":
        return Spec(realize_block, run_realize, realize_text, check_realize, 5.0)
    if name == "synth-search":
        targets = synth_targets(golden)
        classes = synth_classes(targets)
        return Spec(lambda seed, block: synth_block(seed, block, classes),
                    run_synth, synth_text,
                    lambda item, out: check_synth(item, out, targets), 9.0)
    raise ValueError(f"unknown workload {name!r}")



def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
