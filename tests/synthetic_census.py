"""A synthetic census file in the corpus schema, for loader and CLI tests.

``census_lines`` builds 192 rows of the published shape: 154 resolved
and 35 open 12-crossing rows, one resolved and two open 11-crossing
rows.  Every row passes ``validate_corpus``: its minimal code has at
least two crossings of each sign, and a resolved row's representative
has 13 to 17 crossings with exactly one of the minority sign.  Codes
are pretzel projections with seeded random signs, so each one
realizes; but the rows are test inputs, not knots, and the two codes
of a row are unrelated.  ``write_census`` writes them under a test's
temporary directory; generated rows never go into the package's
census file.
"""

from __future__ import annotations

import random
from pathlib import Path

from diagram_fixtures import pretzel_dt

SHAPE = ((12, "resolved", 154), (12, "open", 35), (11, "resolved", 1),
         (11, "open", 2))

# pretzel twist triples that close to knots, by crossing number
_PRETZELS = {
    11: ((3, 3, 5), (1, 3, 7)),
    12: ((3, 3, 6), (3, 5, 4), (5, 5, 2)),
    13: ((3, 5, 5), (3, 3, 7)),
    14: ((3, 5, 6), (5, 5, 4)),
    15: ((5, 5, 5), (3, 5, 7)),
    16: ((5, 5, 6), (3, 7, 6)),
    17: ((5, 5, 7), (3, 7, 7)),
}

# a substitution pair of equal fraction, -2 = [4, -1, 1, 1]
_CONWAY_MIN = ".(21, 2). - 2.20"
_CONWAY_REP = ".(21, 2).4 - 111.20"


def _code(rng: random.Random, n: int, minority: int) -> str:
    """A pretzel projection with ``minority`` crossings of one sign."""
    labels = [abs(a) for a in pretzel_dt(*rng.choice(_PRETZELS[n])).labels]
    sign = rng.choice((1, -1))
    flipped = set(rng.sample(range(n), minority))
    signed = [-sign * a if i in flipped else sign * a
              for i, a in enumerate(labels)]
    return "{{%d},{%s}}" % (n, ",".join(map(str, signed)))


def census_lines(seed: int = 0) -> list[str]:
    """The 192 tab-separated rows, their signs drawn from ``seed``."""
    rng = random.Random(seed)
    lines = []
    for n, status, count in SHAPE:
        for _ in range(count):
            name = f"K{n}n{len(lines) + 1}"
            dt_min = _code(rng, n, rng.randint(2, n // 2))
            if status == "resolved":
                rep = _code(rng, rng.randint(13, 17), 1)
                fields = (name, status, _CONWAY_MIN, _CONWAY_REP, dt_min,
                          rep, "table1+2")
            else:
                fields = (name, status, _CONWAY_MIN, "", dt_min, "",
                          "table3")
            lines.append("\t".join(fields))
    return lines


def write_census(directory: Path, lines: list[str] | None = None) -> Path:
    """Write the rows (``census_lines()`` by default) as census.tsv."""
    path = directory / "census.tsv"
    rows = census_lines() if lines is None else lines
    path.write_text("# synthetic census\n" + "".join(f"{r}\n" for r in rows),
                    encoding="utf-8")
    return path
