"""Tests of the benchmark itself: span tree, clean untraced runs, and the gate.

Run from the repository root with: python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import run
import spans

SMALL = {"data.num_samples": 640}  # 10 batches of 64 per stream


@pytest.fixture(scope="module")
def small_stream():
    return run.set_up("stream", 1, SMALL)


def originals():
    return {(m, p): spans._resolve(m, p)[2] for m, p in spans.TARGETS}


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_span_tree_is_consistent():
    record = run.run("stream", 1, 0, trace=1, overrides=SMALL)
    a = record["tracer"].arrays()
    assert len(a["start_ns"]) > 0
    assert np.all(a["end_ns"] >= a["start_ns"])
    nested = np.nonzero(a["parent"] >= 0)[0]
    parents = a["parent"][nested]
    assert np.all(a["start_ns"][nested] >= a["start_ns"][parents])
    assert np.all(a["end_ns"][nested] <= a["end_ns"][parents])
    assert np.all(a["run"][nested] == a["run"][parents])
    assert np.all(a["self_ns"] >= 0)
    # siblings never overlap, so self time is duration minus child durations
    for p in np.unique(parents):
        kids = nested[parents == p]
        order = np.argsort(a["start_ns"][kids])
        assert np.all(a["start_ns"][kids][order][1:] >= a["end_ns"][kids][order][:-1])
    layer = record["per_layer"]
    assert record["failed"] == 0
    assert layer["engine.step.calls"] == 10
    assert layer["datagen.augment_views.calls"] == 640
    assert layer["datagen.augment_views.rows"] == 640 * 16
    assert layer["membank.filter_masks.calls"] == 640
    assert layer["optim.grad_evals_per_update"] == 2
    assert layer["engine.pretrain_source.self_s"] > 0
    assert all(v >= 0 for k, v in layer.items() if k.endswith(".self_s"))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_runs_leave_every_module_attribute_original(workload, trace):
    before = originals()
    record = run.run(workload, 2, 0, trace=trace, overrides=SMALL)
    assert record["failed"] == 0
    after = originals()
    assert all(after[k] is before[k] for k in before)
    assert ("tracer" in record) == bool(trace)


def _corrupting_step(monkeypatch, corrupt):
    step = run.engine.step
    calls = {"n": 0}

    def bad_step(state, inputs):
        preds, scores = step(state, inputs)
        calls["n"] += 1
        return corrupt(calls["n"], preds, scores)

    monkeypatch.setattr(run.engine, "step", bad_step)


CORRUPTIONS = {
    "nan_score": lambda n, p, s: (p, np.where(np.arange(len(s)) == 3, np.nan, s)),
    "missing_row": lambda n, p, s: (p[:-1], s[:-1]),
    "pred_out_of_range": lambda n, p, s: (p + 4, s),
    "score_above_ln_c": lambda n, p, s: (p, s + np.log(4.0)),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_stream_output_counts_as_failed(small_stream, monkeypatch, kind):
    _corrupting_step(monkeypatch, CORRUPTIONS[kind])
    tally = run.measure_streams(small_stream, 0)
    assert tally.attempted == run.STREAMS_PER_PASS
    assert tally.failed == tally.attempted
    assert tally.delivered == 0 and tally.latencies_ns == []
    assert tally.unit_ns > 0 and tally.samples_per_s == 0


def test_corrupted_protocol_output_counts_as_failed(monkeypatch):
    setup = run.set_up("protocol", 1, SMALL)
    _corrupting_step(monkeypatch, CORRUPTIONS["nan_score"])
    tally = run.measure_protocol(setup, 1, 0)
    assert tally.failed > 0 and tally.latencies_ns == []
    assert tally.delivered == (tally.attempted - tally.failed) * 640


def test_samples_per_s_counts_every_unit_and_its_time():
    tally = run.Tally()
    for seconds, delivered in [(2, 100), (1, 100), (1, 0)]:  # the last one failed
        tally.add_unit(seconds * 10**9, delivered)
    assert tally.samples_per_s == 200 / 4


def test_protocol_steps_the_gate_cannot_see_fail_the_pass(monkeypatch):
    setup = run.set_up("protocol", 1, SMALL)
    step, protocol = run.engine.step, run.benchmark.run_protocol

    def unobserved(*args, **kwargs):
        # as if the runs went to worker processes: the step clock sees none of them
        clock, run.engine.step = run.engine.step, step
        try:
            return protocol(*args, **kwargs)
        finally:
            run.engine.step = clock

    monkeypatch.setattr(run.benchmark, "run_protocol", unobserved)
    tally = run.measure_protocol(setup, 1, 0)
    assert tally.attempted == tally.failed == run.PROTOCOL_ARMS
    assert "saw 0 runs" in tally.reasons[0]


def test_protocol_pass_that_raises_fails_every_arm(monkeypatch):
    setup = run.set_up("protocol", 1, SMALL)

    def broken(*args, **kwargs):
        raise RuntimeError("broken protocol")

    monkeypatch.setattr(run.benchmark, "run_protocol", broken)
    tally = run.measure_protocol(setup, 1, 0)
    assert tally.attempted == tally.failed == run.PROTOCOL_ARMS == 13
    assert tally.delivered == 0


def test_set_up_repeats_are_spread_over_the_run(monkeypatch):
    monkeypatch.setattr(run, "set_up", lambda *args: run.time.sleep(0.01))
    timer = run.SetupTimer("stream", 1)
    timer.once()
    begin = run.time.perf_counter()
    run.time.sleep(0.3)
    timer.catch_up(begin)
    assert len(timer.times) >= 3
    assert sum(timer.times) >= run.SETUP_SHARE * (run.time.perf_counter() - begin) - 0.01
    assert timer.median > 0


def test_output_that_changes_between_repeats_counts_as_failed(small_stream, monkeypatch):
    setup = run.Setup(small_stream.cfg, small_stream.model, small_stream.streams[:1] * 2, None)
    _corrupting_step(monkeypatch, lambda n, p, s: (p, s * (1 - 1e-9) if n > 10 else s))
    tally = run.measure_streams(setup, 0)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs" in tally.reasons[0]


def test_absent_target_is_reported_and_reads_zero(small_stream):
    targets = spans.TARGETS + (("engine", "no_such_function"), ("no_such_module", "f"))
    with spans.Tracer(spans.SETUP_TARGETS) as setup_tracer:
        pass
    with spans.Tracer(targets) as tracer:
        tally = run.measure_streams(small_stream, 0, tracer)
    assert tracer.absent == ["engine.no_such_function", "no_such_module.f"]
    layer = spans.layer_metrics(tracer, tally.units, setup_tracer, 0.0)
    assert layer["engine.pretrain_source.self_s"] == 0.0
    assert layer["engine.step.calls"] == 10


def test_golden_gate_on_seeds_0_to_4():
    setup = run.set_up("stream", 0)
    assert setup.golden is not None
    outs = [run.run_stream(setup.model, s)[0] for s in setup.streams]
    assert run.golden_reason(setup, outs) is None
    setup.golden["methods"]["stamp"]["auc"] += 2 * setup.golden["tolerance"]
    assert "auc" in run.golden_reason(setup, outs)
