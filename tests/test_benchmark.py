"""The protocol arm table and the per-call run memo behind run_protocol."""

import dataclasses
import json

import pytest

from stamp_tta import benchmark, engine
from stamp_tta.config import config_from_dict

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def tiny():
    cfg = config_from_dict(
        {
            "data": {"num_samples": 96, "batch_size": 32, "source_size": 600},
            "model": {"hidden_sizes": [16, 16], "epochs": 25},
            "method": {"horizon": 3},
        }
    )
    model, _ = engine.pretrain_source(cfg)
    return cfg, model


def labels(cfg):
    return [(section, key) for section, key, _ in benchmark.protocol_arms(cfg)]


def test_arm_table_order():
    assert labels(benchmark.load_benchmark_config()) == [
        ("methods", "source"),
        ("methods", "bn_stats"),
        ("methods", "tent"),
        ("methods", "stamp"),
        ("removals", "mem_off"),
        ("removals", "static"),
        ("removals", "sgd"),
        ("removals", "no_decay"),
        ("ratios", "0.05"),
        ("ratios", "0.10"),
        ("ratios", "0.20"),
        ("ratios", "0.33"),
        ("ratios", "0.50"),
    ]


def test_ratio_020_is_the_configured_method():
    cfg = benchmark.load_benchmark_config()
    arms = {(s, k): arm for s, k, arm in benchmark.protocol_arms(cfg)}
    assert arms["ratios", "0.20"].echo() == arms["methods", "stamp"].echo()
    echoes = {json.dumps(arm.echo(), sort_keys=True) for arm in arms.values()}
    assert len(echoes) == 12


def test_ratio_arms_are_the_protocol_ratio_section():
    cfg = benchmark.load_benchmark_config()
    ratios = [("%.2f" % ratio, arm) for ratio, arm in benchmark.ratio_arms(cfg)]
    assert ratios == [(k, arm) for s, k, arm in benchmark.protocol_arms(cfg) if s == "ratios"]
    assert [ratio for ratio, _ in benchmark.ratio_arms(cfg)] == list(benchmark.RATIO_GRID)


def test_arm_labels_are_the_result_keys(tiny):
    cfg, model = tiny
    result = benchmark.run_protocol(cfg, model=model, seeds=SEEDS[:1])
    assert labels(cfg) == [(s, k) for s in ("methods", "removals", "ratios") for k in result[s]]


def test_each_distinct_run_happens_once(tiny, run_calls):
    cfg, model = tiny
    benchmark.run_protocol(cfg, model=model, seeds=SEEDS)
    assert len(run_calls) == 12 * len(SEEDS)
    echoes = {json.dumps(c.echo(), sort_keys=True) for c in run_calls}
    assert len(echoes) == len(run_calls)


def test_result_equals_an_unmemoized_reference(tiny, run_calls, monkeypatch):
    cfg, model = tiny
    result = benchmark.run_protocol(cfg, model=model, seeds=SEEDS)
    memoized_runs = len(run_calls)
    monkeypatch.setattr(
        benchmark, "run_once", lambda memo, c, m: engine.run_experiment(c, model=m)[1]
    )
    reference = benchmark.run_protocol(cfg, model=model, seeds=SEEDS)
    assert len(run_calls) - memoized_runs == 13 * len(SEEDS)
    assert result == reference


def test_run_once_keys_on_the_config_echo(tiny, run_calls):
    cfg, model = tiny
    memo = {}
    first = benchmark.run_once(memo, cfg, model)
    output = dataclasses.replace(cfg.output, directory="elsewhere")
    rerouted = dataclasses.replace(cfg, output=output)
    assert benchmark.run_once(memo, rerouted, model) is first
    other = benchmark.run_once(memo, dataclasses.replace(cfg, seed=1), model)
    assert len(run_calls) == 2
    assert other["seed"] == 1
    assert [json.loads(key) for key in memo] == [first["config"], other["config"]]


def float_leaves(tree, trail=()):
    for key, sub in tree.items():
        if isinstance(sub, dict):
            yield from float_leaves(sub, trail + (key,))
        elif isinstance(sub, float) and key != "tolerance":
            yield ".".join(trail + (key,))


def test_compare_to_golden_reports_missing_values():
    golden = benchmark.load_golden()
    assert benchmark.compare_to_golden(golden, golden) == []
    drift = benchmark.compare_to_golden({"methods": {}}, golden)
    assert [path for path, _, _ in drift] == list(float_leaves(golden))
    assert all(got is None for _, got, _ in drift)
    assert ("methods.stamp.h_score", None, golden["methods"]["stamp"]["h_score"]) in drift
