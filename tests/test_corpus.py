"""Corpus schema, row invariant, count, and validation behavior.

Synthetic corpora exercise every failure message through temporary
files; the embedded corpus is checked for its published shape (row
counts per status and crossing number, required columns, derived
conway_check values).  The embedded-corpus tests skip while
``src/turaev/data/corpus.tsv`` is not in the checkout (see
``embedded_corpus``) and run again as soon as the file is committed.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from embedded_corpus import needs_corpus
from synthetic_census import write_census
from turaev.corpus import (
    ANOMALOUS_ROWS,
    CorpusError,
    CorpusRow,
    _conway_check,
    _parse_line,
    corpus_bytes,
    load_corpus,
    validate_corpus,
)
from turaev.dt import parse_dt

# published rows by (status, crossing number), counted apart from the loader
PUBLISHED_COUNTS = {("resolved", 12): 154, ("open", 12): 35,
                    ("resolved", 11): 1, ("open", 11): 2}

GOOD = ("K12n1\tresolved\t2 1\t2 1\t{{12},{4,6,8,10,-12,14,16,18,-20,22,24,2}}"
        "\t{{13},{-4,6,8,10,12,14,16,18,20,22,24,26,2}}\ttable1+2")


def _load_lines(tmp_path, *lines):
    f = tmp_path / "corpus.tsv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_corpus(f)


class TestParseLine:
    def test_good_line_parses(self):
        row = _parse_line(1, GOOD)
        assert row.name == "K12n1"
        assert row.crossing_number == 12
        assert row.dt_rep.n == 13
        assert row.source == "table1+2"

    def test_field_count(self):
        with pytest.raises(CorpusError, match="line 3: expected 7 tab-separated fields, got 3"):
            _parse_line(3, "K12n1\tresolved\tonly")

    def test_bad_name(self):
        with pytest.raises(CorpusError, match="line 1: bad name 'L12a1'"):
            _parse_line(1, GOOD.replace("K12n1", "L12a1"))

    def test_name_with_trailing_newline(self):
        with pytest.raises(CorpusError, match=r"line 1: bad name 'K12n1\\n'"):
            _parse_line(1, GOOD.replace("K12n1", "K12n1\n"))

    def test_bad_status(self):
        with pytest.raises(CorpusError, match="line 1: bad status 'maybe'"):
            _parse_line(1, GOOD.replace("resolved", "maybe"))

    def test_bad_source(self):
        with pytest.raises(CorpusError, match="line 1: bad source 'table9'"):
            _parse_line(1, GOOD.replace("table1+2", "table9"))

    @pytest.mark.parametrize("index, field", [(0, "name"), (1, "status"), (6, "source")],
                             ids=["name", "status", "source"])
    def test_long_field_is_elided(self, index, field):
        fields = GOOD.split("\t")
        fields[index] = "x" * 10000
        with pytest.raises(CorpusError) as exc:
            _parse_line(1, "\t".join(fields))
        assert str(exc.value) == f"line 1: bad {field} '{'x' * 40}'... (10000 characters)"

    def test_bad_dt_syntax(self):
        with pytest.raises(CorpusError, match="line 1: not of the form"):
            _parse_line(1, GOOD.replace("{{13},", "{{13,", 1))

    def test_empty_conway_min(self):
        fields = GOOD.split("\t")
        fields[2] = ""
        with pytest.raises(CorpusError,
                           match="line 1: conway_min and dt_min are required"):
            _parse_line(1, "\t".join(fields))

    def test_half_present_pair(self, tmp_path):
        fields = GOOD.split("\t")
        fields[3] = ""
        with pytest.raises(CorpusError, match="K12n1: notation pair half-present"):
            _load_lines(tmp_path, "\t".join(fields))

    def test_fuzzed_line_raises_only_corpus_errors(self):
        # digits of other scripts and superscripts are not numbers; the
        # Conway columns are free text, checked only by alignment
        rng = random.Random(59)
        alphabet = "{},- \t0123456789Kn\u00b2\u0663"
        for _ in range(3000):
            line = GOOD.replace("K12n1", f"K1{rng.choice('23')}n{rng.randint(1, 400)}")
            line = "".join(rng.choice("3\u0663") if ch == "3" else ch for ch in line)
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(line) + 1)
                line = line[:i] + rng.choice(alphabet) * rng.randint(0, 1) + line[i + rng.randint(0, 1):]
            try:
                row = _parse_line(1, line)
            except CorpusError:
                continue
            name, _, _, _, dt_min, dt_rep, _ = line.split("\t")
            assert (name + dt_min + dt_rep).isascii()
            assert row.crossing_number == int(name[1:name.index("n")])


class TestLoadCorpus:
    def test_comments_and_blanks_skipped(self, tmp_path):
        # the single data row parses fine, so the complaint is about
        # global counts, not about the comment lines
        with pytest.raises(CorpusError, match="row counts"):
            _load_lines(tmp_path, "# header", "", "  ", GOOD)

    def test_synthetic_census_loads(self, tmp_path):
        rows = load_corpus(write_census(tmp_path))
        assert len(rows) == 192
        assert Counter((r.status, r.crossing_number)
                       for r in rows) == PUBLISHED_COUNTS

    def test_non_utf8_file(self, tmp_path):
        f = tmp_path / "corpus.tsv"
        f.write_bytes(GOOD.encode("utf-8").replace(b"2 1", b"2\xff1", 1))
        with pytest.raises(CorpusError, match="not UTF-8 text"):
            load_corpus(f)

    def test_duplicate_names(self, tmp_path):
        with pytest.raises(CorpusError, match="K12n1: duplicate row"):
            _load_lines(tmp_path, GOOD, GOOD)

    def test_unexpected_crossing_number(self, tmp_path):
        bad = GOOD.replace("K12n1", "K9n1").replace(
            "{{12},{4,6,8,10,-12,14,16,18,-20,22,24,2}}",
            "{{9},{4,6,8,-10,12,14,16,-18,2}}")
        with pytest.raises(CorpusError, match="K9n1: unexpected crossing number 9"):
            _load_lines(tmp_path, bad)

    def test_file_named_embedded_is_read(self, tmp_path, monkeypatch):
        # a path is a path: no source name stands for the packaged census
        (tmp_path / "embedded").write_text(GOOD + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(CorpusError, match="row counts"):
            load_corpus("embedded")


def _almost_alternating(n):
    """{{n},{-4,6,8,...,2n,2}}: one negative label among n."""
    labels = [-4, *range(6, 2 * n + 1, 2), 2]
    return parse_dt("{{%d},{%s}}" % (n, ",".join(map(str, labels))))


def _mkrow(**kw):
    base = dict(
        name="K12n1", status="resolved", conway_min="2 1",
        conway_rep="2 1",
        dt_min=parse_dt("{{12},{4,6,8,10,-12,14,16,18,-20,22,24,2}}"),
        dt_rep=parse_dt("{{13},{-4,6,8,10,12,14,16,18,20,22,24,26,2}}"),
        conway_check="applicable", source="table1+2")
    base.update(kw)
    return CorpusRow(**base)


class TestValidateCorpus:
    def test_duplicate_rows(self):
        with pytest.raises(CorpusError, match="K12n1: duplicate row"):
            validate_corpus([_mkrow(), _mkrow()])

    def test_status_rep_mismatch(self):
        with pytest.raises(CorpusError, match="K12n1: status open inconsistent with dt_rep presence"):
            validate_corpus([_mkrow(status="open")])

    def test_crossing_number_mismatch(self):
        with pytest.raises(CorpusError, match="K11n1: dt_min has 12 crossings, name implies 11"):
            validate_corpus([_mkrow(name="K11n1")])

    def test_min_code_must_classify_other(self):
        alternating = parse_dt(
            "{{12},{4,6,8,10,12,14,16,18,20,22,24,2}}")
        with pytest.raises(CorpusError, match="K12n1: dt_min does not classify Other"):
            validate_corpus([_mkrow(dt_min=alternating)])

    def test_rep_code_crossing_range(self):
        for n in (12, 18):
            with pytest.raises(CorpusError, match=rf"K12n1: dt_rep has {n} crossings, outside \[13, 17\]"):
                validate_corpus([_mkrow(dt_rep=_almost_alternating(n))])

    @pytest.mark.parametrize("n", [13, 17])
    def test_rep_code_crossing_range_ends_pass(self, n):
        # the row passes every row check, so only the totals are wrong
        with pytest.raises(CorpusError, match="row counts"):
            validate_corpus([_mkrow(dt_rep=_almost_alternating(n))])

    def test_rep_code_must_classify_almost_alternating(self):
        alternating = parse_dt(
            "{{13},{4,6,8,10,12,14,16,18,20,22,24,26,2}}")
        with pytest.raises(CorpusError, match="K12n1: dt_rep does not classify AlmostAlternating"):
            validate_corpus([_mkrow(dt_rep=alternating)])


class TestConwayCheck:
    def test_anomalous_rows_flagged(self):
        assert "K12n748" in ANOMALOUS_ROWS
        assert _conway_check("K12n748", "2 1", "2 1") == "anomalous"

    def test_open_row_not_alignable(self):
        assert _conway_check("K12n1", "2 1", None) == "not-alignable"

    def test_aligned_pair_applicable(self):
        assert _conway_check("K12n1", "21", "3 -1") == "applicable"

    def test_skeleton_change_not_alignable(self):
        assert _conway_check("K12n1", "2, 2, 2", "2 2 2") == "not-alignable"


@needs_corpus
class TestEmbeddedCorpus:
    def test_loads_and_validates(self):
        rows = load_corpus()
        assert Counter((r.status, r.crossing_number)
                       for r in rows) == PUBLISHED_COUNTS

    def test_digest_is_stable_string(self):
        d = hashlib.sha256(corpus_bytes()).hexdigest()
        assert len(d) == 64 and set(d) <= set("0123456789abcdef")

    def test_known_rows(self):
        rows = {r.name: r for r in load_corpus()}
        assert rows["K11n183"].status == "resolved"
        assert rows["K11n95"].status == "open"
        assert rows["K11n118"].status == "open"
        assert rows["K12n748"].conway_check == "anomalous"
        assert rows["K12n644"].conway_check == "not-alignable"
        # whole-form mirror restatement, not a single-slot rewrite
        assert rows["K12n353"].conway_check == "not-alignable"

    def test_total_dt_code_count(self):
        rows = load_corpus()
        n_codes = sum(1 for r in rows for c in (r.dt_min, r.dt_rep)
                      if c is not None)
        assert n_codes == 347
