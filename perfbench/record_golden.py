"""Write the golden record the benchmark checks outputs against.

Usage, from the root of a checkout:

    python3 perfbench/record_golden.py ops       # about three minutes
    python3 perfbench/record_golden.py targets   # about forty minutes

``ops`` runs the first GOLDEN_BLOCKS blocks of the census and
realize-scan workloads on the default seed and stores a digest of every
op's output, plus the ``render_json`` digest of the first census block.
``targets`` runs ``synthesize_one_minus_one`` on every coprime -p/q
with p, q <= 40 and stores the word, or null for NotFound; the
synth-search workload draws its targets from this table and checks
every output against it, on every seed.

Each part refuses to record an output that fails the benchmark's own
checks.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import math
import sys

import worker
import workloads

GOLDEN_BLOCKS = 12


def record_ops(golden: dict) -> None:
    from tracing import program_api

    api = program_api()
    for name in ("census", "realize-scan"):
        spec = workloads.workload_spec(name, golden)
        digests, first_block = [], None
        for block in range(GOLDEN_BLOCKS):
            outputs = []
            for item in spec.make_block(workloads.DEFAULT_SEED, block):
                out = spec.run(api, item)
                reason = spec.check(item, out)
                if reason is not None:
                    raise SystemExit(f"{name} block {block}: {reason}")
                outputs.append(out)
                digests.append(workloads.digest(spec.text(out)))
            if first_block is None:
                first_block = outputs
        golden[name] = {"ops": digests}
        if name == "census":
            golden[name]["report_first_block"] = workloads.census_report_digest(first_block)


def record_targets(golden: dict) -> None:
    from turaev.tangle import ExtendedRational, NotFound, synthesize_one_minus_one

    targets: dict[str, str | None] = {}
    for p in range(1, workloads.SYNTH_MAX + 1):
        for q in range(1, workloads.SYNTH_MAX + 1):
            if math.gcd(p, q) != 1:
                continue
            try:
                word = synthesize_one_minus_one(ExtendedRational(-p, q))
            except NotFound:
                targets[f"-{p}/{q}"] = None
                continue
            entries = list(word.entries)
            item = workloads.Item("found", q, None, expect=(p, q))
            reason = workloads.check_synth(item, word, {(p, q): entries})
            if reason is not None:
                raise SystemExit(f"-{p}/{q}: {reason}")
            targets[f"-{p}/{q}"] = " ".join(map(str, entries))
    golden["synth-search"] = {"targets": targets}


def main(argv: list[str]) -> int:
    if argv not in (["ops"], ["targets"]):
        print(__doc__, file=sys.stderr)
        return 2
    worker.import_program()
    path = workloads.GOLDEN_PATH
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    (record_ops if argv == ["ops"] else record_targets)(golden)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
