"""One workload in one fresh process: import, generate, time, check.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [BLOCKS]

Runs the workload's blocks one op at a time with no warm-up:
round(SECONDS / block_seconds) whole blocks (see ``workloads.Spec``), or
exactly BLOCKS blocks when given, and never past TIME_CAP times
SECONDS.  Outputs are checked after the timed loop.
Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program() -> float:
    """Import the package from this checkout; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import turaev  # noqa: F401
    import turaev.cli  # noqa: F401
    took = time.perf_counter() - start
    if not Path(turaev.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"turaev imported from {turaev.__file__}, not {SRC}")
    return took


TIME_CAP = 2.5  # a run stops after this many times SECONDS, whole blocks done
REF_ITERATIONS = 4000


def reference_seconds(array, table: dict[int, int]) -> float:
    """Time one pass of a fixed kernel in the instruction mix of the
    package's hot loops: interpreted integer arithmetic, NumPy scalar
    indexing and dict stores.  Timed next to every op, it tracks how
    fast this host runs right now.  It allocates nothing the garbage
    collector tracks, so the program's heap does not slow it."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
        array[i & 255] = array[(i * 7) & 255] + 1
        table[i & 1023] = i
    return time.perf_counter() - start


def golden_ops(name: str, seed: int, golden: dict) -> list[str]:
    return golden.get(name, {}).get("ops", []) if seed == workloads.DEFAULT_SEED else []


def check_outputs(name: str, seed: int, spec, golden: dict, items: list,
                  outputs: list, errors: dict[int, str]) -> dict[int, str]:
    """Failure reason per op index: unexpected errors, failed checks and,
    on the default seed, outputs that differ from the golden record."""
    reasons = dict(errors)
    recorded = golden_ops(name, seed, golden)
    for i, (item, out) in enumerate(zip(items, outputs)):
        if i in reasons:
            continue
        reason = spec.check(item, out)
        if reason is None and i < len(recorded) and workloads.digest(spec.text(out)) != recorded[i]:
            reason = "output differs from the golden record"
        if reason is not None:
            reasons[i] = reason
    return reasons


def report_matches(name: str, seed: int, golden: dict, outputs: list) -> bool:
    """On the default census seed, the rendered report of the first
    block must match the golden record."""
    first_block = outputs[:len(workloads.CENSUS_BLOCK)]
    if name != "census" or seed != workloads.DEFAULT_SEED or None in first_block:
        return True
    return (workloads.census_report_digest(first_block)
            == golden["census"]["report_first_block"])


def properties(name: str, items, outputs) -> dict:
    """What the inputs were like: crossings, rejections, verdicts."""
    props: dict = {"sizes": dict(sorted(Counter(i.n for i in items).items()))}
    if name == "census":
        props["verdicts"] = dict(Counter(o.verdict for o in outputs if hasattr(o, "verdict")))
    elif name == "realize-scan":
        props["rejected_share"] = sum(
            isinstance(o, tuple) and o[1] is None for o in outputs) / len(outputs)
    else:
        props["notfound_share"] = sum(o is None for o in outputs) / len(outputs)
    return props


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    max_blocks = int(argv[4]) if len(argv) > 4 else None
    setup_s = import_program()

    import numpy
    import tracing

    golden = workloads.load_golden()
    spec = workloads.workload_spec(name, golden)
    tracer = tracing.Tracer() if trace else None
    api = tracing.program_api(tracer)

    items: list = []
    outputs: list = []
    latencies: list[float] = []
    ref_state = (numpy.zeros(256, numpy.int64), {})
    refs = [reference_seconds(*ref_state)]  # refs[i], refs[i + 1] flank op i
    errors: dict[int, str] = {}
    blocks = 0
    if max_blocks is None:
        max_blocks = max(1, round(seconds / spec.block_seconds))
    clock = time.perf_counter
    start = clock()
    while True:
        for item in spec.make_block(seed, blocks):
            t0 = clock()
            try:
                out = spec.run(api, item)
            except Exception as exc:  # an unexpected error is a failed op
                out = None
                errors[len(items)] = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            refs.append(reference_seconds(*ref_state))
            items.append(item)
            outputs.append(out)
        blocks += 1
        # a host much slower than the reference one stops early
        if blocks == max_blocks or clock() - start >= TIME_CAP * seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reasons = check_outputs(name, seed, spec, golden, items, outputs, errors)
    recorded = golden_ops(name, seed, golden)
    result = {
        "setup_s": setup_s,
        "blocks": blocks,
        "latencies": latencies,
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failed": len(reasons),
        "correct": not reasons and report_matches(name, seed, golden, outputs),
        # synthesis outputs are all checked against the recorded targets
        "golden_checked": (len(items) if name == "synth-search"
                           else min(len(recorded), len(items))),
        "reasons": [f"op {i}: {r}" for i, r in sorted(reasons.items())[:5]],
        "properties": properties(name, items, outputs),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(items))
        result["self_ms"] = {name: 1000 * t / len(items)
                             for name, t in tracer.self_times().items()}
        result["span_overhead_s"] = len(tracer.spans) * tracer.span_cost_s()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
