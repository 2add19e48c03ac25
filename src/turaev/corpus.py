"""The census data table: names, Conway notations, and DT codes.

The table ships inside the package as a tab-separated UTF-8 text file
(``data/corpus.tsv``) with one record per knot and seven fields:

    name  status  conway_min  conway_rep  dt_min  dt_rep  source

``status`` is ``resolved`` (an almost alternating representation is on
record) or ``open``; ``conway_rep``/``dt_rep`` are empty exactly when
the row is open.  ``source`` records which part of the data set the row
came from (``table1+2``, ``table3`` or ``prose``).  Lines starting with
``#`` are comments.  DT fields use the bit-exact text form of module
``dt``.

Loading parses each line against the schema and then runs
:func:`validate_corpus` once over the rows: it is the one checker of a
census, and covers duplicates, the notation pair, status against
``dt_rep``, crossing numbers, the sign class and crossing range of
every code, and the counts by status and crossing number, which must
equal the published totals (``_EXPECTED``), so it returns nothing.  A
row that loads is checked; no caller validates again.  ``parse_corpus``
takes bytes already read, so a digest can hash what was verified.  Only
notations and codes are stored; derived quantities (Jones polynomials,
genus, spans) are always recomputed downstream.

Each row also carries ``conway_check``, computed at load time:

    applicable      the two Conway strings share their separator
                    skeleton, so slotwise substitutions can be checked
    not-alignable   no rewrite on record, or the rewrite is not a
                    single-slot substitution (different skeleton, or
                    several slots restated at once)
    anomalous       rows whose printed rewrite is internally
                    inconsistent; substitution failures on these are
                    reported as warnings, not errors
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .dt import DtCode, DtCodeError, SignKind, _quoted, classify_signs, parse_dt
from .tangle import extract_substitutions

__all__ = [
    "ANOMALOUS_ROWS",
    "CorpusRow",
    "CorpusError",
    "EMBEDDED_CORPUS",
    "corpus_bytes",
    "load_corpus",
    "parse_corpus",
    "validate_corpus",
]


class CorpusError(ValueError):
    """A line that does not parse as a corpus record, a row that breaks
    one of its invariants, or counts other than the published totals;
    the message names the line or row and the rule."""


# Rows whose printed Conway rewrite is internally inconsistent (the
# rewrite does not preserve the tangle fraction it replaces).  Their
# substitution check is reported as a warning so the discrepancy stays
# visible without masking the DT-level verification result.
ANOMALOUS_ROWS = frozenset({"K12n748"})

_STATUSES = ("resolved", "open")
_SOURCES = ("table1+2", "table3", "prose")
_NAME_RE = re.compile(r"K([0-9]+)n([0-9]+)")

_EXPECTED = {"resolved_12": 154, "open_12": 35, "resolved_11": 1, "open_11": 2}

# The census file shipped with the package; read when no source is given.
EMBEDDED_CORPUS = resources.files("turaev").joinpath("data/corpus.tsv")


@dataclass(frozen=True)
class CorpusRow:
    """One census knot with its notations and codes."""

    name: str
    status: str
    conway_min: str
    conway_rep: str | None
    dt_min: DtCode
    dt_rep: DtCode | None
    conway_check: str
    source: str

    @property
    def crossing_number(self) -> int:
        return int(_NAME_RE.fullmatch(self.name).group(1))


def corpus_bytes(source: str | Path | None = None) -> bytes:
    """Raw bytes of the corpus file (embedded one when source is None).

    Raises FileNotFoundError naming EMBEDDED_CORPUS when the embedded
    census is not in this checkout.
    """
    if source is None:
        try:
            return EMBEDDED_CORPUS.read_bytes()
        except FileNotFoundError:
            raise FileNotFoundError(f"census file {EMBEDDED_CORPUS} is not "
                                    f"in this checkout") from None
    return Path(source).read_bytes()


def _conway_check(name: str, conway_min: str, conway_rep: str | None) -> str:
    if name in ANOMALOUS_ROWS:
        return "anomalous"
    if not conway_rep:
        return "not-alignable"
    subs = extract_substitutions(conway_min, conway_rep)
    return "applicable" if subs is not None else "not-alignable"


def _parse_line(lineno: int, line: str) -> CorpusRow:
    fields = line.split("\t")
    if len(fields) != 7:
        raise CorpusError(f"line {lineno}: expected 7 tab-separated fields, "
                          f"got {len(fields)}")
    name, status, conway_min, conway_rep, dt_min, dt_rep, source = fields
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise CorpusError(f"line {lineno}: bad name {_quoted(name)}")
    try:
        int(m.group(1))  # what CorpusRow.crossing_number reads
    except ValueError:  # the digits match, so only int()'s length limit
        raise CorpusError(f"line {lineno}: the crossing number in the name has "
                          f"more digits than int() converts") from None
    if status not in _STATUSES:
        raise CorpusError(f"line {lineno}: bad status {_quoted(status)}")
    if source not in _SOURCES:
        raise CorpusError(f"line {lineno}: bad source {_quoted(source)}")
    if not conway_min or not dt_min:
        raise CorpusError(f"line {lineno}: conway_min and dt_min are required")
    try:
        code_min = parse_dt(dt_min)
        code_rep = parse_dt(dt_rep) if dt_rep else None
    except DtCodeError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from exc
    return CorpusRow(
        name=name,
        status=status,
        conway_min=conway_min,
        conway_rep=conway_rep or None,
        dt_min=code_min,
        dt_rep=code_rep,
        conway_check=_conway_check(name, conway_min, conway_rep or None),
        source=source,
    )


def load_corpus(source: str | Path | None = None) -> list[CorpusRow]:
    """:func:`parse_corpus` of the corpus file (embedded by default);
    raises OSError when the file cannot be read."""
    return parse_corpus(corpus_bytes(source))


def parse_corpus(raw: bytes) -> list[CorpusRow]:
    """Parse and validate the bytes of a corpus file, in file order.

    Raises CorpusError when they are not UTF-8 text, when a line does
    not parse, or when :func:`validate_corpus` refuses the rows.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"not UTF-8 text: {exc}") from exc
    rows = [_parse_line(lineno, line)
            for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")]
    validate_corpus(rows)
    return rows


def validate_corpus(rows: list[CorpusRow]) -> None:
    """Check every row invariant in file order; None when all hold.

    The first offending row raises CorpusError for a duplicate name, a
    half-present notation pair, a status that disagrees with
    ``dt_rep``, a code's crossing number, range or sign class, a bad
    ``conway_check`` or a crossing number other than 11 or 12.  When
    every row passes, CorpusError reports totals that differ from the
    published ones.
    """
    seen: set[str] = set()
    got = dict.fromkeys(_EXPECTED, 0)
    for r in rows:
        if r.name in seen:
            raise CorpusError(f"{r.name}: duplicate row")
        seen.add(r.name)
        if (r.status == "resolved") != (r.dt_rep is not None):
            raise CorpusError(f"{r.name}: status {r.status} inconsistent "
                              f"with dt_rep presence")
        # the two notation columns were merged into one record per name;
        # a half-present pair means the merge lost a row
        if (r.dt_rep is None) != (r.conway_rep is None):
            raise CorpusError(f"{r.name}: notation pair half-present")
        if r.dt_min.n != r.crossing_number:
            raise CorpusError(f"{r.name}: dt_min has {r.dt_min.n} "
                              f"crossings, name implies "
                              f"{r.crossing_number}")
        if classify_signs(r.dt_min).kind != SignKind.OTHER:
            raise CorpusError(f"{r.name}: dt_min does not classify Other")
        if r.dt_rep is not None:
            if not 13 <= r.dt_rep.n <= 17:
                raise CorpusError(f"{r.name}: dt_rep has {r.dt_rep.n} "
                                  f"crossings, outside [13, 17]")
            if classify_signs(r.dt_rep).kind != SignKind.ALMOST_ALTERNATING:
                raise CorpusError(f"{r.name}: dt_rep does not classify "
                                  f"AlmostAlternating")
        if r.conway_check not in ("applicable", "not-alignable", "anomalous"):
            raise CorpusError(f"{r.name}: bad conway_check "
                              f"{r.conway_check!r}")
        key = f"{r.status}_{r.crossing_number}"
        if key not in got:
            raise CorpusError(f"{r.name}: unexpected crossing number "
                              f"{r.crossing_number}")
        got[key] += 1
    if got != _EXPECTED:
        raise CorpusError(f"row counts {got} != expected {_EXPECTED}")
