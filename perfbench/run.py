"""Benchmark runner for the turaev package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 0 --seconds 25 --trace 0

Each workload runs in a fresh worker process (``worker.py``) that
imports the package from ``src/``, makes its inputs from the seed, runs
one op at a time in a closed loop with no warm-up, and checks every
output after the timed loop.  Set-up time is the median of several
fresh-process imports.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the runner repeats
the same inputs in a second, traced worker and reports per-layer
metrics instead, plus the tracing overhead against the untraced worker.
Lines before the last are a readable summary.  The exit code is nonzero,
with no result printed, when the package cannot be imported or a
worker fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # plus the import in the worker itself
RUN_LIMIT_S = 170  # every child process must end within this of the start

PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import turaev, turaev.cli
print(time.perf_counter() - start)
"""

# Op times are reported in "ref" units: the op's wall time divided by the
# time of the worker's fixed reference kernel, measured right before and
# after the op.  The host this was built on drifts by +-15% in speed
# between runs and by 2x within seconds; the ratio cancels most of that.
END_TO_END_UNITS = {
    "throughput_ops_ref": "1/ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def _python(args: list[str], deadline: float) -> str:
    """Last stdout line of a child interpreter, killed at the deadline."""
    timeout = max(deadline - time.monotonic(), 0)
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not end within {RUN_LIMIT_S} s of the start") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(deadline: float) -> list[float]:
    src = str(ROOT / "src")
    return [float(_python(["-c", PROBE, src], deadline)) for _ in range(SETUP_PROBES)]


def run_worker(workload: str, seed: int, seconds: int, trace: bool, deadline: float,
               blocks: int | None = None) -> dict:
    args = [str(HERE / "worker.py"), workload, str(seed), str(seconds), "1" if trace else "0"]
    if blocks is not None:
        args.append(str(blocks))
    return json.loads(_python(args, deadline))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def costs(run: dict) -> list[float]:
    """Each op's wall time in units of the reference kernels flanking it."""
    refs = run["refs"]
    return [t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(run["latencies"])]


def end_to_end(run: dict, setup: list[float]) -> dict[str, float]:
    cost = costs(run)
    return {
        "throughput_ops_ref": len(cost) / sum(cost),
        "op_p50_ref": statistics.median(cost),
        "op_tail_ref": tail(cost)[0],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup + [run["setup_s"]]),
    }


def environment() -> str:
    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return f"python {platform.python_version()}, numba {numba}, nproc {os.cpu_count()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "turaev" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup = setup_seconds(deadline)
        run = run_worker(args.workload, args.seed, args.seconds, False, deadline)
        traced = (run_worker(args.workload, args.seed, args.seconds, True, deadline,
                             run["blocks"]) if args.trace else None)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    lat = run["latencies"]
    pct = tail(lat)[1]
    e2e = end_to_end(run, setup)
    print(f"# {args.workload} seed {args.seed}: {len(lat)} ops in {run['blocks']} blocks, "
          f"{sum(lat):.1f} s timed; {environment()}")
    print(f"# properties {json.dumps(run['properties'], sort_keys=True)}")
    print(f"# wall clock: throughput_ops_s = {len(lat) / sum(lat):.6g} 1/s, "
          f"op_p50_ms = {1000 * statistics.median(lat):.6g} ms, "
          f"op_tail_ms = {1000 * tail(lat)[0]:.6g} ms (p{pct:.1f}, n={len(lat)}); "
          f"1 ref = {1000 * statistics.median(run['refs']):.4g} ms (median)")
    for name, unit in END_TO_END_UNITS.items():
        note = {"op_p50_ref": f" (n={len(lat)})", "op_tail_ref": f" (p{pct:.1f}, n={len(lat)})",
                "setup_s": f" (median of {len(setup) + 1} imports)"}.get(name, "")
        print(f"# {name} = {e2e[name]:.6g} {unit}{note}")
    print(f"# fail_ratio = {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']}; {run['golden_checked']} golden-checked)")
    for reason in run["reasons"]:
        print(f"# failure: {reason}")

    if traced is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        attempted, failed, correct = run["attempted"], run["failed"], run["correct"]
    else:
        import tracing
        metrics = {k: {"value": v, "unit": tracing.UNITS[tracing.PER_LAYER[k][0]]}
                   for k, v in traced["layers"].items()}
        # the same ops ran in both workers; the median paired ratio
        # shrugs off host bursts that hit one side only
        ratios = [t / u for t, u in zip(costs(traced), costs(run))]
        overhead = 100 * (statistics.median(ratios) - 1)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for k, m in metrics.items():
            print(f"# {k} = {m['value']:.6g} {m['unit']}")
        print(f"# span cost estimate: {len(traced['latencies'])} ops carried "
              f"{1000 * traced['span_overhead_s']:.3g} ms of span bookkeeping, "
              f"{100 * traced['span_overhead_s'] / sum(traced['latencies']):.3g}% of their time")
        op_ms = 1000 * sum(traced["latencies"]) / len(traced["latencies"])
        ranked = sorted(traced["self_ms"].items(), key=lambda kv: -kv[1])[:3]
        print("# largest self times: " + ", ".join(
            f"{name} {ms:.4g} ms/op ({100 * ms / op_ms:.1f}%)" for name, ms in ranked))
        attempted = run["attempted"] + traced["attempted"]
        failed = run["failed"] + traced["failed"]
        correct = run["correct"] and traced["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
