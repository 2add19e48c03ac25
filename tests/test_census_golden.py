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

The traced run counts its per-layer metrics by patching the names the
package calls its stages by (``perfbench/tracing.py``); a stage bound
at import time would escape the patch and read zero with no error, so
one resolved and one open census row are traced here and every stage
must show its calls.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import turaev.poly
import turaev.realize
import turaev.verify
from turaev.dt import parse_dt
from turaev.realize import format_diagram, try_realize
from turaev.verify import verify_row

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_seed0_census_outputs_match_golden_digests():
    wl = _load("workloads")
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
    wl = _load("workloads")
    golden = wl.load_golden()["realize-scan"]["ops"]
    api = SimpleNamespace(parse_dt=parse_dt, try_realize=try_realize,
                          format_diagram=format_diagram)
    outputs = [wl.run_realize(api, item)
               for b in range(12) for item in wl.realize_block(wl.DEFAULT_SEED, b)]
    assert len(golden) == 120
    assert [wl.digest(wl.realize_text(o)) for o in outputs] == golden


# the module globals ``tracing.program_api`` replaces with traced wrappers
_TRACED_GLOBALS = (
    (turaev.verify, ("jones", "try_realize", "turaev_genus",
                     "extract_substitutions", "verify_substitution")),
    (turaev.poly, ("bracket",)),
    (turaev.realize, ("realize",)),
)


def test_tracing_sees_every_stage_of_verify_row(monkeypatch):
    for module, names in _TRACED_GLOBALS:
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    tracing = _load("tracing")
    wl = _load("workloads")
    rows = [item.payload for item in wl.census_block(wl.DEFAULT_SEED, 0)]
    resolved = next(r for r in rows if r.status == "resolved")
    open_row = next(r for r in rows if r.status == "open")
    stages = ("realize.realize", "realize.try_realize", "poly.bracket",
              "poly.jones", "diagram.turaev_genus")
    tangle = ("tangle.extract_substitutions", "tangle.verify_substitution")
    for row, per_stage, per_tangle in ((resolved, 2, 1), (open_row, 1, 0)):
        tracer = tracing.Tracer()
        tracing.program_api(tracer).verify_row(row)
        calls = {name: tracer.counts[name + ".calls"]
                 for name in stages + tangle}
        assert calls == {**dict.fromkeys(stages, per_stage),
                         **dict.fromkeys(tangle, per_tangle)}, row.status
