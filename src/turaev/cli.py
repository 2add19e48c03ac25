"""Command-line front end.

Subcommands: `verify` runs the full corpus pipeline and renders a
report; `jones`, `genus`, `realize`, and `classify` evaluate a single
DT code given as a string such as "{{4},{4,6,8,2}}"; `tangle-fraction`
and `tangle-synthesize` convert between tangle words and extended
rationals.  Those six single-shot commands live in one table,
``_COMMANDS``, which builds their subparsers and says what each prints.
The tool never touches the network: the corpus ships inside the
package and is overridable only by the --corpus flag.

Exit codes: 0 on success (for `verify`: zero FAILED rows), 1 when
verification fails or the corpus does not validate, 2 on bad input or
a stage fault on the diagram (under `verify`, that fails only its row).
A `--report` path that cannot be opened is bad input, found before any
row runs.  A word or fraction may start with a minus ("-2-1", "-3/5"):
``main`` puts "--" before such an argument so it does not read as an
option flag.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import re
import sys

from .corpus import CorpusError, corpus_bytes, parse_corpus
from .dt import classify_signs, parse_dt
from .poly import jones, turaev_genus
from .realize import format_diagram, realize
from .tangle import (
    ExtendedRational,
    NotFound,
    fraction,
    parse_word,
    render_word,
    synthesize_one_minus_one,
)
from .verify import RENDERERS, verify_all

_DT_EXAMPLE = 'e.g. "{{4},{4,6,8,2}}"'

# the single-shot commands: name -> (help, argument metavar, argument
# help, the text the command prints for its argument)
_COMMANDS = {
    "jones": ("Jones polynomial of a DT code", "dtcode", _DT_EXAMPLE,
              lambda text: jones(realize(parse_dt(text))).render()),
    "genus": ("Turaev genus of the realized diagram", "dtcode", _DT_EXAMPLE,
              lambda text: turaev_genus(realize(parse_dt(text)))),
    "realize": ("planar diagram of a DT code", "dtcode", _DT_EXAMPLE,
                lambda text: format_diagram(realize(parse_dt(text)))),
    "classify": ("crossing sign pattern of a DT code", "dtcode", _DT_EXAMPLE,
                 lambda text: classify_signs(parse_dt(text)).kind.value),
    "tangle-fraction": ("fraction of a rational tangle word", "word",
                        'e.g. "2 1 1" or "-2 0"',
                        lambda text: fraction(parse_word(text))),
    "tangle-synthesize": (
        "tangle word with fraction P/Q and entries of one digit: for P/Q < 0 "
        "the shortest word whose only negative entry is a single -1, for "
        "P/Q >= 0 the plain continued-fraction word",
        "P/Q", 'a finite rational, e.g. "-3/5" or "7/3"',
        lambda text: render_word(synthesize_one_minus_one(
            ExtendedRational.parse(text)))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turaev",
        description="Planar DT-code realization, Jones polynomials, "
                    "Turaev genus, and corpus verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="check every corpus row and render a report")
    p_verify.add_argument("--corpus", metavar="PATH", default=None,
                          help="TSV corpus path (default: embedded)")
    p_verify.add_argument("--report", metavar="PATH", default=None,
                          help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=RENDERERS, default="text")

    for name, (help_text, metavar, arg_help, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text).add_argument(
            "arg", metavar=metavar, help=arg_help)
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        raw = corpus_bytes(args.corpus)
        rows = parse_corpus(raw)
    except (CorpusError, OSError) as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 1
    try:
        out = (contextlib.nullcontext(sys.stdout) if args.report is None
               else open(args.report, "w", encoding="utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        report = verify_all(rows,
                            corpus_digest=hashlib.sha256(raw).hexdigest())
        fh.write(RENDERERS[args.format](report))
    print(f"{report.total} rows in {report.duration_s:.1f}s", file=sys.stderr)
    return 0 if report.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) > 1 and argv[0] in _COMMANDS and re.match(r"-\d", argv[1]):
        argv.insert(1, "--")
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    try:
        print(_COMMANDS[args.command][-1](args.arg))
        return 0
    except (ValueError, NotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
