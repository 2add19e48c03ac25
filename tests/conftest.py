"""Repeat the acceptance scorecard in the terminal summary.

Each acceptance test prints one ``acceptance NN ...`` line to its
captured stdout.  Captured output is shown only for failing tests, so
this hook writes the lines of every test after the run.  With capture
off (``-s``) the lines were already printed live and nothing repeats.
"""

from __future__ import annotations

PREFIX = "acceptance "


def pytest_terminal_summary(terminalreporter):
    lines = sorted({
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for line in report.capstdout.splitlines()
        if line.startswith(PREFIX)
    })
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)
