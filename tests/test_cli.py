"""Command-line entry points, exercised in process via main(argv).

The verify subcommand is covered here only for failure plumbing (bad
corpus path, invalid corpus file, embedded census absent); full-corpus verification runs in
the acceptance tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turaev.corpus
from turaev.cli import main


class TestSingleShotCommands:
    def test_classify(self, capsys):
        assert main(["classify", "{{4},{4,6,8,2}}"]) == 0
        assert capsys.readouterr().out.strip() == "Alternating"

    def test_classify_almost(self, capsys):
        assert main(["classify", "{{4},{-4,6,8,2}}"]) == 0
        assert capsys.readouterr().out.strip() == "AlmostAlternating"

    def test_jones_trefoil(self, capsys):
        assert main(["jones", "{{3},{4,6,2}}"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "-1*t^-4 + 1*t^-3 + 1*t^-1"

    def test_genus_trefoil(self, capsys):
        assert main(["genus", "{{3},{4,6,2}}"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_realize_lists_crossings(self, capsys):
        assert main(["realize", "{{3},{4,6,2}}"]) == 0
        out = capsys.readouterr().out
        assert out.count("X") == 3 and "sign" in out

    def test_tangle_fraction(self, capsys):
        assert main(["tangle-fraction", "2 1"]) == 0
        assert capsys.readouterr().out.strip() == "3/2"

    def test_tangle_synthesize_negative(self, capsys):
        assert main(["tangle-synthesize", "-3/5"]) == 0
        word = capsys.readouterr().out.strip()
        assert word.count("-1") == 1
        # fractions not in lowest terms, or with a negative denominator,
        # name the same rational as their reduced form
        for text, reduced in (("-6/4", "-3/2"), ("-3/-5", "3/5")):
            assert main(["tangle-synthesize", text]) == 0
            assert main(["tangle-synthesize", reduced]) == 0
            got, want = capsys.readouterr().out.splitlines()
            assert got == want

    def test_bad_dt_code_exits_2(self, capsys):
        assert main(["jones", "{{3},{4,6"]) == 2
        assert "error" in capsys.readouterr().err

    def test_tangle_synthesize_nonnegative(self, capsys):
        # no -1 entry: the plain continued-fraction word
        assert main(["tangle-synthesize", "3/5"]) == 0
        assert capsys.readouterr().out.strip() == "2 1 1 0"

    def test_bad_fraction_exits_2(self, capsys):
        assert main(["tangle-synthesize", "x/y"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["tangle-synthesize", "1/0"]) == 2
        assert "infinity" in capsys.readouterr().err


def test_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import turaev, turaev.cli\n"
        "raise SystemExit(turaev.cli.main(['jones', '{{3},{4,6,2}}']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-1*t^-4 + 1*t^-3 + 1*t^-1"


class TestVerifyPlumbing:
    def test_missing_corpus_path_exits_1(self, capsys, tmp_path):
        rc = main(["verify", "--corpus", str(tmp_path / "nope.tsv")])
        assert rc == 1
        assert "corpus error" in capsys.readouterr().err

    def test_missing_embedded_corpus_exits_1(self, capsys, monkeypatch,
                                             tmp_path):
        missing = tmp_path / "data" / "corpus.tsv"
        monkeypatch.setattr(turaev.corpus, "EMBEDDED_CORPUS", missing)
        rc = main(["verify"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "corpus error" in err and str(missing) in err
        assert "not in this checkout" in err

    def test_invalid_corpus_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("K3n1\tresolved\tonly-two-fields\n")
        rc = main(["verify", "--corpus", str(bad)])
        assert rc == 1
        assert "corpus error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
