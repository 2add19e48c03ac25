"""Census rows against the benchmark's golden digests.

``perfbench/workloads.py`` makes seeded synthetic census rows, and
``perfbench/golden.json`` holds the digest of every ``verify_row``
output of the first twelve seed-0 blocks plus the digest of the JSON
report over the first block.  Any change to a rendered Jones
polynomial, genus, check value or warning of these rows fails here, in
tier-1, without a benchmark run.  The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
