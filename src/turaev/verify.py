"""Row verification pipeline and report rendering.

Per-row checks, in evaluation order: both DT codes realize to planar
diagrams; the representative code has exactly one minority crossing
sign; the Jones polynomials of the two diagrams agree up to mirror;
the representative diagram has Turaev genus exactly 1; the minimal
diagram has Turaev genus at least 1; the Jones span in t is strictly
below the crossing number; every aligned Conway substitution pair
swaps one tangle for a fraction-preserving word whose only negative
entry is a single -1.

Check values are the strings "pass", "fail", "not-applicable".  Rows
with status "open" yield verdict OPEN and run only the checks that
need no representative diagram.  A resolved row is VERIFIED when every
check passes or is not applicable, FAILED when any check fails.
Substitution failures on rows whose conway_check is "anomalous"
downgrade to warnings: the row stays visible without masking the
DT-level result.

A stage that raises a ValueError (``jones``: BracketTooWide,
NormalizationFailure; ``turaev_genus``: an impossible circle count)
fails the checks it feeds, and the row gets a warning "<row>: <stage>
raised <Type>: <message>"; the other rows still run.  Every diagram
comes from ``realize`` and its end pairing from ``end_mates``, the one
structural check of a diagram.

A report row is the name, the verdict, one column per CHECK_NAMES
entry and one per VALUE_COLUMNS entry, in that order in JSON and CSV;
the text line keeps its own order and shows only what is set.
Rendered report bodies (text, JSON, CSV) exclude the wall-clock
duration, so two runs over the same corpus are byte identical.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass

from . import __version__
from .corpus import CorpusRow
from .dt import SignKind, classify_signs
from .poly import equal_up_to_mirror, jones, span_t, turaev_genus
from .realize import try_realize
from .tangle import extract_substitutions, verify_substitution

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

CHECK_NAMES = (
    "realizable_min",
    "realizable_rep",
    "rep_almost_alternating",
    "jones_match_up_to_mirror",
    "genus_rep_equals_1",
    "genus_min_at_least_1",
    "span_lt_crossing_number",
    "conway_substitutions_ok",
)

# RowResult fields after the checks; None renders as null, or "" in CSV
VALUE_COLUMNS = ("jones_min", "span", "genus_min", "genus_rep")

VERIFIED = "VERIFIED"
FAILED = "FAILED"
OPEN = "OPEN"


@dataclass(frozen=True)
class RowResult:
    """Outcome of every check for one corpus row."""

    name: str
    verdict: str
    checks: dict[str, str]
    jones_min: str
    span: int | None
    genus_min: int | None
    genus_rep: int | None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    """All row results plus totals; duration is excluded from renders."""

    results: tuple[RowResult, ...]
    verified: int
    failed: int
    open_rows: int
    duration_s: float
    version: str
    corpus_digest: str

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def warnings(self) -> tuple[str, ...]:
        out: list[str] = []
        for r in self.results:
            out.extend(r.warnings)
        return tuple(sorted(out))


def _check_substitutions(row: CorpusRow, warnings: list[str]) -> str:
    """Tri-state of the Conway substitution check; a failure on an
    anomalous row is a warning instead."""
    if row.conway_check == "not-alignable" or row.conway_rep is None:
        return NOT_APPLICABLE
    pairs = extract_substitutions(row.conway_min, row.conway_rep)
    ok = pairs is not None and all(
        verify_substitution(left, right) for left, right in pairs)
    if ok:
        return PASS
    if row.conway_check == "anomalous":
        warnings.append(f"{row.name}: substitution check failed on a row "
                        f"recorded as anomalous")
        return NOT_APPLICABLE
    return FAIL


def _stage(row: CorpusRow, stage: str, fn, pd, warnings: list[str]):
    """``fn(pd)``, or None with a warning when it raises ValueError."""
    try:
        return fn(pd)
    except ValueError as exc:
        warnings.append(
            f"{row.name}: {stage} raised {type(exc).__name__}: {exc}")
        return None


def verify_row(row: CorpusRow) -> RowResult:
    """Run every applicable check; failures are recorded, not raised."""
    checks = {name: NOT_APPLICABLE for name in CHECK_NAMES}
    warnings: list[str] = []
    j_min = None
    span: int | None = None
    genus_min: int | None = None
    genus_rep: int | None = None

    d_min = try_realize(row.dt_min).diagram
    checks["realizable_min"] = PASS if d_min is not None else FAIL
    if d_min is not None:
        j_min = _stage(row, "jones_min", jones, d_min, warnings)
        if j_min is not None:
            span = span_t(j_min)
        genus_min = _stage(row, "genus_min", turaev_genus, d_min, warnings)
        checks["genus_min_at_least_1"] = (
            PASS if genus_min is not None and genus_min >= 1 else FAIL)
        checks["span_lt_crossing_number"] = (
            PASS if span is not None and span < row.crossing_number
            else FAIL)

    if row.status == "resolved" and row.dt_rep is not None:
        d_rep = try_realize(row.dt_rep).diagram
        checks["realizable_rep"] = PASS if d_rep is not None else FAIL
        kind = classify_signs(row.dt_rep).kind
        checks["rep_almost_alternating"] = (
            PASS if kind is SignKind.ALMOST_ALTERNATING else FAIL)
        if d_rep is not None:
            if d_min is not None:
                j_rep = _stage(row, "jones_rep", jones, d_rep, warnings)
                match = (j_min is not None and j_rep is not None
                         and equal_up_to_mirror(j_min, j_rep))
                checks["jones_match_up_to_mirror"] = PASS if match else FAIL
            genus_rep = _stage(row, "genus_rep", turaev_genus, d_rep,
                               warnings)
            checks["genus_rep_equals_1"] = (
                PASS if genus_rep == 1 else FAIL)
        checks["conway_substitutions_ok"] = _check_substitutions(
            row, warnings)

    if row.status == "open":
        verdict = OPEN
    else:
        verdict = FAILED if FAIL in checks.values() else VERIFIED
    return RowResult(
        name=row.name, verdict=verdict, checks=checks,
        jones_min="" if j_min is None else j_min.render(), span=span,
        genus_min=genus_min, genus_rep=genus_rep, warnings=tuple(warnings))


def verify_all(rows: list[CorpusRow],
               corpus_digest: str = "") -> VerificationReport:
    """Evaluate all rows; results are sorted by name before reporting."""
    t0 = time.perf_counter()
    results = sorted((verify_row(r) for r in rows), key=lambda r: r.name)
    verdicts = Counter(r.verdict for r in results)
    return VerificationReport(
        results=tuple(results), verified=verdicts[VERIFIED],
        failed=verdicts[FAILED], open_rows=verdicts[OPEN],
        duration_s=time.perf_counter() - t0,
        version=__version__, corpus_digest=corpus_digest)


def render_json(report: VerificationReport) -> str:
    doc = {
        "version": report.version,
        "corpus_digest": report.corpus_digest,
        "summary": {
            "rows": report.total,
            "verified": report.verified,
            "failed": report.failed,
            "open": report.open_rows,
            "warnings": list(report.warnings),
        },
        "rows": [{"name": r.name, "verdict": r.verdict, "checks": r.checks,
                  **{c: getattr(r, c) for c in VALUE_COLUMNS}}
                 for r in report.results],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("name", "verdict") + CHECK_NAMES + VALUE_COLUMNS)
    for r in report.results:
        values = (getattr(r, c) for c in VALUE_COLUMNS)
        writer.writerow([r.name, r.verdict]
                        + [r.checks[c] for c in CHECK_NAMES]
                        + ["" if v is None else v for v in values])
    return buf.getvalue()


def render_text(report: VerificationReport) -> str:
    lines = [
        f"turaev {report.version}  corpus {report.corpus_digest}",
        f"rows {report.total}  verified {report.verified}  "
        f"failed {report.failed}  open {report.open_rows}",
    ]
    for msg in report.warnings:
        lines.append(f"warning: {msg}")
    lines.append("")
    for r in report.results:
        bits = [f"{r.name:<9} {r.verdict:<8}"]
        if r.genus_min is not None:
            bits.append(f"genus_min={r.genus_min}")
        if r.genus_rep is not None:
            bits.append(f"genus_rep={r.genus_rep}")
        if r.span is not None:
            bits.append(f"span={r.span}")
        fails = [c for c in CHECK_NAMES if r.checks[c] == FAIL]
        if fails:
            bits.append("fail:" + ",".join(fails))
        lines.append(" ".join(bits))
    return "\n".join(lines) + "\n"


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "csv": render_csv,
}
