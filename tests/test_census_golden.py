"""Census rows and realization outputs against the benchmark's golden
digests.

``perfbench/workloads.py`` makes seeded synthetic census rows and
realize-scan codes, and ``perfbench/golden.json`` holds the digest of
every op output of the first twelve seed-0 blocks of each, plus the
digest of the JSON report over the first census block.  Any change to a
rendered Jones polynomial, genus, check value or warning of these rows,
or to the ``NotRealizable`` text or ``format_diagram`` output of these
codes, fails here, in tier-1, without a benchmark run.  The benchmark
files are only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from turaev.dt import parse_dt
from turaev.realize import format_diagram, try_realize
from turaev.verify import verify_row

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_seed0_census_outputs_match_golden_digests():
    wl = _workloads()
    golden = wl.load_golden()["census"]
    per_block = len(wl.CENSUS_BLOCK)
    blocks = len(golden["ops"]) // per_block
    assert blocks == 12
    outputs = [verify_row(item.payload)
               for b in range(blocks)
               for item in wl.census_block(wl.DEFAULT_SEED, b)]
    assert [wl.digest(wl.census_text(o)) for o in outputs] == golden["ops"]
    assert (wl.census_report_digest(outputs[:per_block])
            == golden["report_first_block"])


def test_seed0_realize_outputs_match_golden_digests():
    wl = _workloads()
    golden = wl.load_golden()["realize-scan"]["ops"]
    api = SimpleNamespace(parse_dt=parse_dt, try_realize=try_realize,
                          format_diagram=format_diagram)
    outputs = [wl.run_realize(api, item)
               for b in range(12) for item in wl.realize_block(wl.DEFAULT_SEED, b)]
    assert len(golden) == 120
    assert [wl.digest(wl.realize_text(o)) for o in outputs] == golden
