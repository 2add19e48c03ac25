"""Spans around calls into the program's layers, kept in memory.

The benchmark wraps public functions where they are called: its own
call sites, and the names other modules of the package call them by
(``turaev.verify`` imports ``jones``, ``try_realize`` and friends by
name; ``jones`` and ``try_realize`` call ``bracket`` and ``realize`` as
module globals).  Nothing inside the package changes.

A span records its name, start, end and the span that was open when it
started.  A span's self time is its duration minus the durations of its
children; the run is one thread, so children never overlap.
"""

from __future__ import annotations

import time
from collections import Counter
from types import SimpleNamespace


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as a span; ``count(counts, args, result, exc)``
        may add counters after each call."""
        def traced(*args, **kwargs):
            span = [name, self.clock(), None, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = self.clock()
                self._open.pop()
                self.counts[name + ".calls"] += 1
                if count is not None:
                    count(self.counts, args, result, exc)
        return traced

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, timed on a no-op, so the
        tracing overhead can be bounded from the span count alone."""
        probe = Tracer(self.clock)
        traced = probe.wrap("probe", _noop)
        start = time.perf_counter()
        for _ in range(calls):
            _noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        return (time.perf_counter() - start - plain) / calls

    def busy(self) -> Counter:
        """Total duration per span name."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Counter:
        """Duration minus child durations, summed per span name."""
        out = self.busy()
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out


def _noop() -> None:
    return None


def _count_bracket(counts, args, result, exc) -> None:
    counts["poly.bracket.states"] += 1 << args[0].n


def _count_realize(counts, args, result, exc) -> None:
    n = args[0].n
    if exc is not None:
        counts["realize.realize.rejected"] += 1
        counts["realize.scan_candidates"] += 1 << max(n - 1, 0)
    elif n:
        # the search pins crossing 0; the orientation bit of crossing i
        # is bit n-1-i of the accepted mask, stored as over_in_slot 3
        mask = sum(1 << (n - 1 - i) for i, c in enumerate(result.crossings)
                   if c.over_in_slot == 3)
        counts["realize.scan_candidates"] += mask + 1


def _count_synth(counts, args, result, exc) -> None:
    if exc is not None:
        counts["tangle.synthesize_one_minus_one.notfound"] += 1


def program_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The public functions the workloads call, traced when a tracer is
    given.  Tracing also patches the package's internal call sites."""
    import turaev.dt
    import turaev.poly
    import turaev.realize
    import turaev.tangle
    import turaev.verify

    def wrap(name, fn, count=None):
        return fn if tracer is None else tracer.wrap(name, fn, count)

    if tracer is not None:
        v = turaev.verify
        v.jones = wrap("poly.jones", v.jones)
        v.try_realize = wrap("realize.try_realize", v.try_realize)
        v.turaev_genus = wrap("diagram.turaev_genus", v.turaev_genus)
        v.extract_substitutions = wrap("tangle.extract_substitutions",
                                       v.extract_substitutions)
        v.verify_substitution = wrap("tangle.verify_substitution",
                                     v.verify_substitution)
        turaev.poly.bracket = wrap("poly.bracket", turaev.poly.bracket, _count_bracket)
        turaev.realize.realize = wrap("realize.realize", turaev.realize.realize,
                                      _count_realize)
    return SimpleNamespace(
        verify_row=wrap("verify.verify_row", turaev.verify.verify_row),
        parse_dt=wrap("dt.parse_dt", turaev.dt.parse_dt),
        try_realize=wrap("realize.try_realize", turaev.realize.try_realize),
        format_diagram=wrap("realize.format_diagram", turaev.realize.format_diagram),
        synthesize_one_minus_one=wrap("tangle.synthesize_one_minus_one",
                                      turaev.tangle.synthesize_one_minus_one,
                                      _count_synth),
    )


# name -> (aggregate, span or counter); every value is reported per op
PER_LAYER = {
    "poly.bracket.busy_ms": ("busy", "poly.bracket"),
    "poly.bracket.calls": ("count", "poly.bracket.calls"),
    "poly.bracket.states": ("count", "poly.bracket.states"),
    "poly.jones.self_ms": ("self", "poly.jones"),
    "realize.realize.busy_ms": ("busy", "realize.realize"),
    "realize.realize.calls": ("count", "realize.realize.calls"),
    "realize.realize.rejected": ("count", "realize.realize.rejected"),
    "realize.scan_candidates": ("count", "realize.scan_candidates"),
    "tangle.synthesize_one_minus_one.busy_ms": ("busy", "tangle.synthesize_one_minus_one"),
    "tangle.synthesize_one_minus_one.calls": ("count", "tangle.synthesize_one_minus_one.calls"),
    "tangle.synthesize_one_minus_one.notfound": ("count", "tangle.synthesize_one_minus_one.notfound"),
    "tangle.extract_substitutions.busy_ms": ("busy", "tangle.extract_substitutions"),
    "tangle.verify_substitution.busy_ms": ("busy", "tangle.verify_substitution"),
    "diagram.turaev_genus.busy_ms": ("busy", "diagram.turaev_genus"),
    "dt.parse_dt.busy_ms": ("busy", "dt.parse_dt"),
    "verify.verify_row.self_ms": ("self", "verify.verify_row"),
}
UNITS = {"busy": "ms/op", "self": "ms/op", "count": "1/op"}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op value of every PER_LAYER metric."""
    tables = {"busy": tracer.busy(), "self": tracer.self_times(), "count": tracer.counts}
    scale = {"busy": 1000.0, "self": 1000.0, "count": 1.0}
    return {name: tables[agg][key] * scale[agg] / ops
            for name, (agg, key) in PER_LAYER.items()}
