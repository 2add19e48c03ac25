"""Row verification pipeline on synthetic corpus rows.

The rows here are hand-built CorpusRow objects, small enough to
realize instantly: a trefoil with a sign-flipped twin exercises the
resolved-row path (the flip changes the knot, so the Jones match
fails), and a rep-less row exercises the open path.  A bracket cap of
4 arc tables, or a genus stage that raises, fails only the checks that
stage feeds, with a warning, and the report still comes back.
Corpus-scale behavior lives in the acceptance tests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

import turaev.poly
import turaev.verify
from turaev.corpus import CorpusRow
from turaev.dt import parse_dt
from turaev.verify import (
    CHECK_NAMES,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    RowResult,
    render_csv,
    render_json,
    render_text,
    verify_all,
    verify_row,
)

TREFOIL = "{{3},{4,6,2}}"
TREFOIL_FLIP = "{{3},{-4,6,2}}"
K12_MIN = "{{12},{4,8,14,2,-18,16,6,20,22,-24,12,-10}}"
K12_REP = "{{17},{4,8,14,2,24,32,6,30,26,28,-16,12,34,18,20,22,10}}"


def _row(name="K3n1", status="resolved", conway_min="2 1",
         conway_rep="2 1", dt_min=TREFOIL, dt_rep=TREFOIL_FLIP,
         conway_check="applicable"):
    if status == "open":
        conway_rep = None
        dt_rep = None
        conway_check = "not-alignable"
    return CorpusRow(
        name=name, status=status, conway_min=conway_min,
        conway_rep=conway_rep, dt_min=parse_dt(dt_min),
        dt_rep=parse_dt(dt_rep) if dt_rep else None,
        conway_check=conway_check, source="table1+2")


class TestVerifyRow:
    def test_resolved_row_runs_every_check(self):
        res = verify_row(_row())
        assert set(res.checks) == set(CHECK_NAMES)
        assert res.checks["realizable_min"] == PASS
        assert res.checks["realizable_rep"] == PASS
        assert res.checks["rep_almost_alternating"] == PASS
        assert res.checks["conway_substitutions_ok"] == PASS

    def test_sign_flip_changes_knot_and_fails_jones(self):
        # flipping one trefoil crossing yields an unknot diagram
        res = verify_row(_row())
        assert res.checks["jones_match_up_to_mirror"] == FAIL
        assert res.verdict == "FAILED"

    def test_computed_values_present(self):
        res = verify_row(_row())
        assert res.jones_min != ""
        assert res.span == 3
        assert res.genus_min == 0
        assert res.genus_rep is not None

    def test_open_row_skips_rep_checks(self):
        res = verify_row(_row(status="open"))
        assert res.verdict == "OPEN"
        for check in ("realizable_rep", "rep_almost_alternating",
                      "jones_match_up_to_mirror", "genus_rep_equals_1",
                      "conway_substitutions_ok"):
            assert res.checks[check] == NOT_APPLICABLE
        assert res.checks["realizable_min"] == PASS
        assert res.genus_rep is None

    def test_open_row_never_fails(self):
        # genus_min 0 < 1 fails the check but the verdict stays OPEN
        res = verify_row(_row(status="open"))
        assert res.checks["genus_min_at_least_1"] == FAIL
        assert res.verdict == "OPEN"

    def test_identical_codes_verify(self):
        # same knot both sides: every check except the sign pattern
        # and genus ones passes; use it to pin the verdict logic
        res = verify_row(_row(dt_rep=TREFOIL))
        assert res.checks["jones_match_up_to_mirror"] == PASS
        assert res.checks["rep_almost_alternating"] == FAIL
        assert res.verdict == "FAILED"

    def test_substitution_fail_on_plain_row(self):
        res = verify_row(_row(conway_rep="2 -1"))
        assert res.checks["conway_substitutions_ok"] == FAIL
        assert res.warnings == ()

    def test_substitution_fail_on_anomalous_row_downgrades(self):
        res = verify_row(_row(name="K12n748", conway_rep="2 -1",
                              conway_check="anomalous"))
        assert res.checks["conway_substitutions_ok"] == NOT_APPLICABLE
        assert len(res.warnings) == 1
        assert "K12n748" in res.warnings[0]

    def test_not_alignable_is_not_applicable(self):
        res = verify_row(_row(conway_rep="2, 2",
                              conway_check="not-alignable"))
        assert res.checks["conway_substitutions_ok"] == NOT_APPLICABLE
        assert res.warnings == ()


class TestVerifyAll:
    def _rows(self):
        return [
            _row(name="K3n2"),
            _row(name="K3n1", status="open"),
            _row(name="K3n3", dt_rep=TREFOIL),
        ]

    def test_totals_sum_to_row_count(self):
        report = verify_all(self._rows())
        assert report.verified + report.failed + report.open_rows \
            == report.total == 3
        assert report.open_rows == 1
        assert report.failed == 2

    def test_rows_sorted_by_name(self):
        report = verify_all(self._rows())
        names = [r.name for r in report.results]
        assert names == sorted(names)

    def test_two_runs_render_identically(self):
        a = verify_all(self._rows())
        b = verify_all(self._rows())
        for render in (render_text, render_json, render_csv):
            assert render(a) == render(b)


class TestFaultContainment:
    def test_wide_bracket_fails_its_row_only(self, monkeypatch):
        monkeypatch.setattr(turaev.poly, "_MAX_TABLES", 4)
        report = verify_all([
            _row(name="K12n1", dt_min=K12_MIN, dt_rep=K12_REP),
            _row(name="K3n1", status="open"),
        ])
        wide, narrow = report.results
        assert wide.verdict == "FAILED"
        assert wide.checks["jones_match_up_to_mirror"] == FAIL
        assert wide.checks["span_lt_crossing_number"] == FAIL
        assert wide.checks["genus_min_at_least_1"] == PASS
        assert wide.jones_min == "" and wide.span is None
        assert [w.split(" raised ")[0] for w in wide.warnings] == \
            ["K12n1: jones_min", "K12n1: jones_rep"]
        assert wide.warnings[0].startswith(
            "K12n1: jones_min raised BracketTooWide: bracket of a "
            "12-crossing diagram: ")
        assert wide.warnings[0].endswith("over the cap of 4")
        assert narrow.verdict == "OPEN" and narrow.warnings == ()
        assert narrow.jones_min == "-1*t^-4 + 1*t^-3 + 1*t^-1"
        assert f"warning: {wide.warnings[0]}\n" in render_text(report)

    def test_normalization_failure_fails_the_jones_checks(self, monkeypatch):
        # the trefoil has writhe -3, so its bracket is 3, not 0, mod 4
        monkeypatch.setattr(turaev.poly, "writhe", lambda pd: 0)
        res = verify_row(_row(dt_rep=TREFOIL))
        assert res.verdict == "FAILED"
        assert res.checks["jones_match_up_to_mirror"] == FAIL
        assert res.checks["span_lt_crossing_number"] == FAIL
        assert res.checks["genus_min_at_least_1"] == FAIL  # the trefoil has g_T = 0
        assert res.jones_min == "" and res.span is None
        assert [w.split(": bracket")[0] for w in res.warnings] == [
            "K3n1: jones_min raised NormalizationFailure",
            "K3n1: jones_rep raised NormalizationFailure"]

    def test_impossible_genus_count_fails_its_checks(self, monkeypatch):
        def impossible(pd):
            raise ValueError(f"impossible loop counts for n={pd.n}")
        monkeypatch.setattr(turaev.verify, "turaev_genus", impossible)
        res = verify_row(_row(dt_rep=TREFOIL))
        assert res.checks["genus_min_at_least_1"] == FAIL
        assert res.checks["genus_rep_equals_1"] == FAIL
        assert res.checks["jones_match_up_to_mirror"] == PASS
        assert res.warnings == (
            "K3n1: genus_min raised ValueError: impossible loop counts for n=3",
            "K3n1: genus_rep raised ValueError: impossible loop counts for n=3")


class TestRenderers:
    def _report(self):
        return verify_all([
            _row(name="K3n2"),
            _row(name="K3n1", status="open"),
            _row(name="K12n748", conway_rep="2 -1",
                 conway_check="anomalous"),
        ], corpus_digest="cafe")

    def test_json_shape(self):
        doc = json.loads(render_json(self._report()))
        assert doc["summary"]["rows"] == 3
        assert doc["summary"]["open"] == 1
        assert [r["name"] for r in doc["rows"]] == \
            ["K12n748", "K3n1", "K3n2"]
        row = doc["rows"][1]
        assert set(row) == {"name", "verdict", "checks", "jones_min",
                            "span", "genus_min", "genus_rep"}
        assert row["genus_rep"] is None
        assert doc["summary"]["warnings"]
        assert doc["corpus_digest"] == "cafe"

    def test_csv_shape(self):
        rows = list(csv.reader(io.StringIO(render_csv(self._report()))))
        assert rows[0] == list(("name", "verdict") + CHECK_NAMES
                               + ("jones_min", "span", "genus_min",
                                  "genus_rep"))
        assert len(rows) == 4
        assert rows[1][0] == "K12n748"

    def test_text_mentions_warning_and_verdicts(self):
        text = render_text(self._report())
        assert "warning: K12n748" in text
        assert "K3n1" in text and "OPEN" in text

    def test_bodies_match_recorded_digests(self):
        # sha256 of each body; the report carries the K12n748 warning
        digests = {
            render_text: "486501eb6c689f94a59a3d96d60ec10c34b5b0675a115bdbb807a0eabbe58f52",
            render_json: "fd970e4620a1d93579e6d47207de46f761e43cb2a0ea9d7d7f173667567b3600",
            render_csv: "93db76c83f13be5ebeb5b512ffbfaac1863f050bf10c878158ed01539fe4f1d1",
        }
        report = self._report()
        assert report.warnings
        for render, digest in digests.items():
            body = render(report).encode("utf-8")
            assert hashlib.sha256(body).hexdigest() == digest, render.__name__

    def test_duration_not_rendered(self):
        report = self._report()
        for render in (render_text, render_json, render_csv):
            assert str(report.duration_s) not in render(report)
