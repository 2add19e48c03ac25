"""Tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

import worker

worker.import_program()

import record_golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from turaev.dt import DtCode, SignKind, classify_signs  # noqa: E402
from turaev.poly import equal_up_to_mirror, jones  # noqa: E402
from turaev.realize import realize, try_realize  # noqa: E402
from turaev.tangle import TangleWord  # noqa: E402

GOLDEN = workloads.load_golden()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_blocks_are_deterministic_per_seed(name):
    spec = workloads.workload_spec(name, GOLDEN)
    assert spec.make_block(3, 1) == spec.make_block(3, 1)
    assert spec.make_block(3, 1) != spec.make_block(4, 1)
    assert spec.make_block(3, 1) != spec.make_block(3, 2)


def test_block_composition_does_not_depend_on_seed():
    for name in workloads.WORKLOADS:
        spec = workloads.workload_spec(name, GOLDEN)
        mixes = {tuple(sorted((i.kind, i.n if name != "synth-search" else 0)
                              for i in spec.make_block(seed, 0)))
                 for seed in range(5)}
        assert len(mixes) == 1, name


@pytest.mark.parametrize("alternating", [True, False])
def test_braid_codes_realize(alternating):
    rng = random.Random(7)
    for n in range(5, 11):
        labels = workloads.random_braid(rng, n, alternating)
        code = DtCode(n, tuple(labels))
        assert realize(code).n == n
        assert workloads.gauss_planar(labels)
        if alternating:
            assert classify_signs(code).kind is SignKind.ALTERNATING


def test_census_and_realize_braid_codes_realize():
    for item in workloads.census_block(5, 0):
        row = item.payload
        for code in (row.dt_min, row.dt_rep):
            if code is not None:
                assert workloads.gauss_planar(list(code.labels))
    braids = [i for i in workloads.realize_block(5, 0) if i.kind == "braid"]
    assert braids and all(i.expect for i in braids)


def test_rebase_keeps_the_diagram():
    rng = random.Random(11)
    for n in (5, 6, 7, 8):
        rep = workloads.random_braid(rng, n, alternating=True)
        rep[0] = -rep[0]
        moved = workloads.rebase(rep, 2 * rng.randrange(1, n))
        assert sorted(map(abs, moved)) == list(range(2, 2 * n + 1, 2))
        assert equal_up_to_mirror(jones(realize(DtCode(n, tuple(rep)))),
                                  jones(realize(DtCode(n, tuple(moved)))))


def test_gauss_criterion_agrees_with_realization():
    rng = random.Random(2)
    for _ in range(400):
        n = rng.randint(1, 8)
        mags = list(range(2, 2 * n + 1, 2))
        rng.shuffle(mags)
        labels = [m * rng.choice((1, -1)) for m in mags]
        realized = try_realize(DtCode(n, tuple(labels))).diagram is not None
        assert workloads.gauss_planar(labels) == realized, labels


def test_prime_diagram_rejects_connected_sums_and_kinks():
    # trefoil # trefoil as the closed 3-braid s1^3 s2^3
    assert not workloads.prime_diagram(workloads.braid_dt_labels((1, 1, 1, 2, 2, 2)))
    assert not workloads.prime_diagram([2, 6, 8, 4])  # trefoil with a kink
    assert workloads.prime_diagram([4, 6, 2])  # trefoil


def test_substitution_pair_has_equal_fractions():
    rng = random.Random(4)
    for _ in range(50):
        left, right = workloads.substitution_pair(rng)
        left_entries = [int(c) for c in left]
        right_entries = [int(e) for e in right.split()]
        assert right_entries.count(-1) == 1
        assert workloads.word_fraction(left_entries) == workloads.word_fraction(right_entries)


def test_word_fraction_handles_infinity():
    assert workloads.word_fraction([0, 5]) is None  # 5 + 1/0
    assert workloads.word_fraction([0, 5, 7]) == 7  # 7 + 1/inf
    assert workloads.word_fraction([2, 1, 1]) == workloads.Fraction(5, 3)
    assert workloads.word_fraction([3, -1]) == workloads.Fraction(-2, 3)


def test_self_time_on_a_fake_clock():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    mid = tracer.wrap("mid", middle)
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    assert [s[0] for s in tracer.spans] == ["top", "mid", "leaf", "leaf", "leaf"]
    assert [(s[1], s[2]) for s in tracer.spans] == [(0, 9), (1, 6), (2, 3), (4, 5), (7, 8)]
    assert tracer.busy() == {"top": 9, "mid": 5, "leaf": 3}
    assert tracer.self_times() == {"top": 9 - 5 - 1, "mid": 5 - 2, "leaf": 3}
    assert tracer.counts["leaf.calls"] == 3


def test_tracer_counts_exceptions_and_reraises():
    tracer = tracing.Tracer()
    seen = []

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("boom", boom, count=lambda c, a, r, e: seen.append(type(e)))
    with pytest.raises(KeyError):
        traced()
    assert seen == [KeyError] and tracer.spans[0][2] is not None


def _first_outputs(name: str, count: int):
    spec = workloads.workload_spec(name, GOLDEN)
    items = spec.make_block(workloads.DEFAULT_SEED, 0)[:count]
    api = tracing.program_api()
    return spec, items, [spec.run(api, item) for item in items]


def test_golden_check_catches_a_corrupted_output():
    spec, items, outputs = _first_outputs("realize-scan", 3)
    seed = workloads.DEFAULT_SEED
    assert worker.check_outputs("realize-scan", seed, spec, GOLDEN, items, outputs, {}) == {}
    text, diagram = outputs[1]
    corrupted = outputs[:1] + [(text + " ", diagram)] + outputs[2:]
    reasons = worker.check_outputs("realize-scan", seed, spec, GOLDEN, items, corrupted, {})
    assert list(reasons) == [1] and "golden" in reasons[1]
    # on another seed there is no golden record, only the structural checks
    assert worker.check_outputs("realize-scan", seed + 1, spec, GOLDEN, items, corrupted, {}) == {}


def test_recorded_targets_reproduce(monkeypatch):
    monkeypatch.setattr(workloads, "SYNTH_MAX", 6)
    fresh: dict = {}
    record_golden.record_targets(fresh)
    small = fresh["synth-search"]["targets"]
    assert len(small) == 23  # coprime pairs with 1 <= p, q <= 6
    recorded = GOLDEN["synth-search"]["targets"]
    assert small == {key: recorded[key] for key in small}


def test_structural_checks_catch_wrong_outputs():
    targets = workloads.synth_targets(GOLDEN)
    (p, q), word = next((k, w) for k, w in sorted(targets.items()) if w and len(w) > 2)
    item = workloads.Item("found", q, None, expect=(p, q))
    assert workloads.check_synth(item, TangleWord(tuple(word)), targets) is None
    swapped = [word[1], word[0]] + word[2:]
    if swapped != word:
        assert workloads.check_synth(item, TangleWord(tuple(swapped)), targets) is not None
    assert workloads.check_synth(item, None, targets) is not None

    trefoil = realize(DtCode(3, (4, 6, 2)))
    claimed_nonplanar = workloads.Item("random", 3, "{{3},{4,6,2}}", expect=False)
    assert workloads.check_realize(claimed_nonplanar, ("X1", trefoil)) is not None
    planar = workloads.Item("braid", 3, "{{3},{4,6,2}}", expect=True)
    assert workloads.check_realize(planar, ("X1", trefoil)) is None
    assert workloads.check_realize(planar, ("rejected", None)) is not None


def test_tail_is_the_eleventh_largest():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90.0, 90.0)
    assert run.tail([1.0, 5.0, 3.0]) == (5.0, 100.0)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {k: tracing.UNITS[agg] for k, (agg, _) in tracing.PER_LAYER.items()}
    expected["trace.overhead_pct"] = "%"
    assert layers == expected
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
