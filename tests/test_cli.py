"""Command-line entry points, exercised in process via main(argv).

The verify subcommand is covered here on a synthetic census (report
bytes and their recorded digests, row totals) and for failure plumbing
(bad corpus path, invalid corpus file, embedded census absent, report
path that cannot be opened); verification of the embedded census runs
in the acceptance tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turaev.corpus
import turaev.poly
import turaev.verify
from synthetic_census import census_lines, write_census
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

    def test_tangle_fraction_word_with_leading_minus(self, capsys):
        # no space, so argparse would read it as an option flag
        assert main(["tangle-fraction", "-2-1"]) == 0
        assert capsys.readouterr().out.strip() == "-3/2"
        for argv, code in ((["tangle-fraction", "--bogus"], 2),
                           (["tangle-fraction", "-h"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        assert capsys.readouterr().out.startswith(
            "usage: turaev tangle-fraction")

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

    def test_missing_argument_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jones"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: turaev jones [-h] dtcode")
        assert "required: dtcode" in err

    def test_bad_dt_code_exits_2(self, capsys):
        assert main(["jones", "{{3},{4,6"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, code, message", [
        # the trefoil has writhe -3: 0 puts its bracket off 3w mod 4
        ("writhe", lambda pd: 0, "{{3},{4,6,2}}", "not 3w mod 4"),
        ("_MAX_TABLES", 4, "{{12},{4,8,14,2,-18,16,6,20,22,-24,12,-10}}",
         "over the cap of 4"),
    ], ids=["normalization", "wide-bracket"])
    def test_stage_fault_exits_2(self, capsys, monkeypatch, name, value,
                                 code, message):
        monkeypatch.setattr(turaev.poly, name, value)
        assert main(["jones", code]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_tangle_synthesize_nonnegative(self, capsys):
        # no -1 entry: the plain continued-fraction word
        assert main(["tangle-synthesize", "3/5"]) == 0
        assert capsys.readouterr().out.strip() == "2 1 1 0"

    def test_tangle_synthesize_one_digit_entries(self, capsys):
        # 12 has no continued-fraction word with one-digit entries
        assert main(["tangle-synthesize", "12"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["tangle-synthesize", "10"]) == 0
        assert capsys.readouterr().out.strip() == "1 9"

    def test_tangle_synthesize_reads_back(self, capsys):
        # whatever synthesis prints, tangle-fraction reads as the target
        words = 0
        for p in range(31):
            for q in range(1, 31):
                if math.gcd(p, q) != 1:
                    continue
                if main(["tangle-synthesize", f"{p}/{q}"]) == 2:
                    assert "no continued-fraction word" in capsys.readouterr().err
                    continue
                word = capsys.readouterr().out.strip()
                assert main(["tangle-fraction", word]) == 0
                assert capsys.readouterr().out.strip() == (
                    f"{p}/{q}" if q > 1 else str(p))
                words += 1
        assert words >= 300

    # each single-shot command's usage line, pinned so that building the
    # subparsers from one table changes none of them
    USAGE = {
        "jones": "usage: turaev jones [-h] dtcode",
        "genus": "usage: turaev genus [-h] dtcode",
        "realize": "usage: turaev realize [-h] dtcode",
        "classify": "usage: turaev classify [-h] dtcode",
        "tangle-fraction": "usage: turaev tangle-fraction [-h] word",
        "tangle-synthesize": "usage: turaev tangle-synthesize [-h] P/Q",
    }

    def test_usage_lines(self, capsys):
        for command, usage in self.USAGE.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "-h"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.splitlines()[0] == usage

    def test_bad_fraction_exits_2(self, capsys):
        assert main(["tangle-synthesize", "x/y"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["tangle-synthesize", "1/0"]) == 2
        assert "infinity" in capsys.readouterr().err


def test_runs_without_numpy():
    # -S leaves site-packages, and so numpy, off the path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "turaev", "jones", "{{3},{4,6,2}}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-1*t^-4 + 1*t^-3 + 1*t^-1"


def test_imports_only_the_standard_library():
    # -S leaves site-packages, and so numpy, off the path; runpy runs
    # turaev/__main__.py, and the script then prints every module the
    # run brought in that is neither turaev nor stdlib
    script = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        "sys.argv = ['turaev', 'jones', '{{3},{4,6,2}}']\n"
        "try:\n"
        "    runpy.run_module('turaev', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - {'turaev'} - sys.stdlib_module_names))\n"
        "raise SystemExit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["-1*t^-4 + 1*t^-3 + 1*t^-1", "[]"]


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

    # sha256 of each report body over the seed-0 synthetic census
    # (155 FAILED rows with fail: lists, 37 OPEN rows)
    SEED0_DIGESTS = {
        "text": "d22b0a96e099f497f6daeccb223da3dd34da586fab3aa7ff7313aaf13f7d73bb",
        "json": "b53dae6be82974142f801355cdd86c6c7e1dafebbc12736c798597e1d78c7258",
        "csv": "f82081e23f8e770c5b8bfc585e530c04a43c0898ecc98bfb46ee0608aa90c2b4",
    }

    def test_synthetic_census_reports_are_stable(self, capsys, tmp_path):
        census = write_census(tmp_path)
        codes = set()
        for fmt, digest in self.SEED0_DIGESTS.items():
            bodies = []
            for run in (1, 2):
                report = tmp_path / f"{fmt}{run}"
                codes.add(main(["verify", "--corpus", str(census), "--report",
                                str(report), "--format", fmt]))
                bodies.append(report.read_bytes())
            assert bodies[0] == bodies[1], fmt
            assert hashlib.sha256(bodies[0]).hexdigest() == digest, fmt
        doc = json.loads((tmp_path / "json1").read_text(encoding="utf-8"))
        assert doc["corpus_digest"] == hashlib.sha256(census.read_bytes()).hexdigest()
        summary = doc["summary"]
        assert summary["verified"] + summary["failed"] + summary["open"] == 192
        assert codes == {1 if summary["failed"] else 0}
        assert "192 rows" in capsys.readouterr().err

    def test_unwritable_report_exits_2_before_any_row(
            self, capsys, monkeypatch, tmp_path):
        census = write_census(tmp_path)
        calls = []
        monkeypatch.setattr(turaev.verify, "verify_row", calls.append)
        target = tmp_path / "no" / "x.txt"
        assert main(["verify", "--corpus", str(census),
                     "--report", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert calls == [] and not target.parent.exists()

    def test_census_read_once_and_digest_of_parsed_bytes(
            self, capsys, monkeypatch, tmp_path):
        census = write_census(tmp_path)
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            if path == census:
                reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        report = tmp_path / "report.json"
        main(["verify", "--corpus", str(census), "--report", str(report),
              "--format", "json"])
        assert len(reads) == 1
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["corpus_digest"] == hashlib.sha256(
            read_bytes(census)).hexdigest()
        assert "192 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["duplicate", "half-present", "191 rows",
                                      "5000-digit label", "5000-digit name"])
    def test_bad_synthetic_census_exits_1(self, capsys, tmp_path, edit):
        lines = census_lines()
        if edit == "duplicate":
            lines.append(lines[0])
        elif edit == "191 rows":
            lines.pop()
        else:
            fields = lines[0].split("\t")
            if edit == "half-present":
                fields[3] = ""
            elif edit == "5000-digit name":  # past the digit limit of int()
                fields[0] = "K%sn1" % ("1" * 5000)
            else:  # past the digit limit of int()
                fields[4] = "{{1},{%s}}" % ("2" * 5000)
            lines[0] = "\t".join(fields)
        census = write_census(tmp_path, lines)
        assert main(["verify", "--corpus", str(census)]) == 1
        assert "corpus error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
