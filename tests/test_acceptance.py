"""End-to-end acceptance gate over the embedded corpus.

Each test covers one acceptance property and prints a single
machine-greppable PASS/FAIL/SKIP line.  ``conftest.py`` repeats the
captured lines in the terminal summary, so a full run shows the whole
scorecard:

    acceptance 01 corpus-counts                PASS
    ...

Properties (01)-(06) and (08) read the embedded census
``src/turaev/data/corpus.tsv``.  While that file is not in the checkout
they skip (see ``embedded_corpus``) and print their line as
``SKIP  (no data/corpus.tsv)``; they run as soon as it is committed.

The numbered properties: (01) corpus loads and validates with the
published row counts; (02) every representative code classifies
AlmostAlternating and every minimal code Other; (03) every DT code
realizes to a planar diagram with n + 2 faces; (04) all 155 resolved
pairs have mirror-equal Jones polynomials within a 60 s budget; (05)
Turaev genus is 1 on every representative diagram, at least 1 on every
minimal diagram, and never 0 on a mixed-sign corpus diagram; (06) the
Jones span is below the crossing number on every minimal code; (07) the
contracted bracket equals the recursive skein bracket of
``bracket_oracles.py`` in the tests on 50 seeded random realizable
codes with 3 to 8 crossings (every corpus code has 11 or more
crossings, past the skein oracle's reach, and is not used);
(08) every alignable substitution pair verifies, the K12n748 anomaly
warns, and synthesis round-trips fractions; (09) the trefoil and
(3, 3, -2) pretzel fixtures give their known genus and span values.
"""

from __future__ import annotations

import functools
import random
import time
from collections import Counter

import pytest

from bracket_oracles import skein_bracket
from diagram_fixtures import pretzel_dt, random_diagram
from embedded_corpus import CORPUS_ABSENT, SKIP_REASON
from turaev.corpus import load_corpus
from turaev.dt import DtCode, SignKind, classify_signs, parse_dt
from turaev.poly import bracket, equal_up_to_mirror, jones, span_t, turaev_genus
from turaev.realize import face_count, realize, try_realize
from turaev.tangle import (
    ExtendedRational,
    extract_substitutions,
    fraction,
    parse_word,
    synthesize_one_minus_one,
    verify_substitution,
)
from turaev.verify import verify_row

def _line(num: int, name: str, ok: bool | None, detail: str = "") -> None:
    state = "SKIP" if ok is None else "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    # start a fresh line: with capture off (-s) the progress mark of the
    # previous test is still on the current one
    print(f"\nacceptance {num:02d} {name:<26} {state}{extra}")


def _needs_corpus(num: int, name: str):
    """Skip the property while data/corpus.tsv is absent, printing its
    SKIP scorecard line first."""
    def wrap(test):
        @functools.wraps(test)
        def run():
            if CORPUS_ABSENT:
                _line(num, name, None, "no data/corpus.tsv")
                pytest.skip(SKIP_REASON)
            test()
        return run
    return wrap


@functools.cache
def _rows():
    return load_corpus()  # validates the rows as it loads them


@functools.cache
def _diagram(code: DtCode):
    return realize(code)


@functools.cache
def _jones(code: DtCode):
    return jones(_diagram(code))


@_needs_corpus(1, "corpus-counts")
def test_01_corpus_counts():
    counts = Counter((r.status, r.crossing_number) for r in load_corpus())
    got = tuple(counts[status, n] for n in (12, 11)
                for status in ("resolved", "open"))
    ok = got == (154, 35, 1, 2)
    _line(1, "corpus-counts", ok, f"{got}")
    assert ok


@_needs_corpus(2, "sign-classification")
def test_02_sign_classification():
    rows = _rows()
    bad = [r.name for r in rows
           if classify_signs(r.dt_min).kind is not SignKind.OTHER]
    bad += [r.name for r in rows if r.dt_rep is not None
            and classify_signs(r.dt_rep).kind
            is not SignKind.ALMOST_ALTERNATING]
    ok = not bad
    _line(2, "sign-classification", ok, f"bad={bad[:3]}" if bad else "")
    assert ok, bad


@_needs_corpus(3, "realizability")
def test_03_realizability():
    rows = _rows()
    codes = [c for r in rows for c in (r.dt_min, r.dt_rep)
             if c is not None]
    bad = []
    for code in codes:
        res = try_realize(code)
        if res.diagram is None or face_count(res.diagram) != code.n + 2:
            bad.append(code)
    ok = not bad and len(codes) == 347
    _line(3, "realizability", ok, f"{len(codes)} codes")
    assert ok, (len(codes), bad[:3])


@_needs_corpus(4, "jones-pairs")
def test_04_jones_pairs_under_60s():
    rows = [r for r in _rows() if r.status == "resolved"]
    t0 = time.perf_counter()
    bad = [r.name for r in rows
           if not equal_up_to_mirror(_jones(r.dt_min), _jones(r.dt_rep))]
    dt = time.perf_counter() - t0
    ok = not bad and len(rows) == 155 and dt < 60.0
    _line(4, "jones-pairs", ok, f"{len(rows)} pairs in {dt:.1f}s")
    assert ok, (bad[:3], dt)


@_needs_corpus(5, "turaev-genus")
def test_05_turaev_genus():
    rows = _rows()
    bad_rep = [r.name for r in rows if r.dt_rep is not None
               and turaev_genus(_diagram(r.dt_rep)) != 1]
    bad_min = [r.name for r in rows
               if turaev_genus(_diagram(r.dt_min)) < 1]
    # no mixed-sign corpus diagram may reach genus 0
    mixed_zero = []
    for r in rows:
        for code in (r.dt_min, r.dt_rep):
            if code is None:
                continue
            kind = classify_signs(code).kind
            if kind is not SignKind.ALTERNATING \
                    and turaev_genus(_diagram(code)) == 0:
                mixed_zero.append(r.name)
    ok = not bad_rep and not bad_min and not mixed_zero
    _line(5, "turaev-genus", ok)
    assert ok, (bad_rep[:3], bad_min[:3], mixed_zero[:3])


@_needs_corpus(6, "jones-span-bound")
def test_06_jones_span_bound():
    rows = _rows()
    bad = [r.name for r in rows
           if span_t(_jones(r.dt_min)) >= r.crossing_number]
    n11 = sum(1 for r in rows if r.crossing_number == 11)
    ok = not bad and n11 == 3
    _line(6, "jones-span-bound", ok, f"{n11} eleven-crossing codes")
    assert ok, bad[:3]


def test_07_bracket_oracle():
    rng = random.Random(20260816)
    diagrams = [random_diagram(rng, 3, 8) for _ in range(50)]
    bad = [pd for pd in diagrams if bracket(pd) != skein_bracket(pd)]
    ok = not bad
    _line(7, "bracket-oracle", ok, f"{len(diagrams)} random codes")
    assert ok, bad[:3]


@_needs_corpus(8, "substitutions-synthesis")
def test_08_substitutions_and_synthesis():
    rows = _rows()
    bad = []
    warned = False
    for r in rows:
        if r.conway_rep is None:
            continue
        pairs = extract_substitutions(r.conway_min, r.conway_rep)
        if pairs is None:
            continue
        all_ok = all(verify_substitution(a, b) for a, b in pairs)
        if r.name == "K12n748":
            res = verify_row(r)
            warned = (not all_ok and len(res.warnings) == 1
                      and res.checks["conway_substitutions_ok"]
                      == "not-applicable")
        elif not all_ok:
            bad.append(r.name)

    listed = ("-1", "-2", "-3", "-1/2", "-3/2", "-5/3", "-3/4", "-5/2")
    targets = [ExtendedRational(*map(int, (t + "/1").split("/")[:2]))
               for t in listed]
    rng = random.Random(20260816)
    while len(targets) < 8 + 100:
        # draw targets as fractions of random valid words so every
        # sampled rational is representable within the search bounds
        entries = [rng.randrange(0, 5) for _ in range(rng.randrange(1, 7))]
        entries[rng.randrange(len(entries))] = -1
        entries = [e for e in entries[:-1] if e != 0] + entries[-1:]
        if entries.count(-1) != 1:
            continue
        try:
            q = fraction(parse_word(" ".join(map(str, entries))))
        except Exception:
            continue
        if q.is_infinite or q.p >= 0 or abs(q.p) > 20 or q.q > 20:
            continue
        targets.append(q)
    synth_bad = [q for q in targets
                 if fraction(synthesize_one_minus_one(q)) != q]
    ok = not bad and warned and not synth_bad
    _line(8, "substitutions-synthesis", ok,
          f"{len(targets)} synthesis targets")
    assert ok, (bad[:3], warned, synth_bad[:3])


def test_09_known_fixtures():
    trefoil = realize(parse_dt("{{3},{4,6,2}}"))
    pretzel = realize(pretzel_dt(3, 3, -2))
    ok = (turaev_genus(trefoil) == 0
          and span_t(jones(trefoil)) == 3
          and turaev_genus(pretzel) == 1)
    _line(9, "known-fixtures", ok)
    assert ok
