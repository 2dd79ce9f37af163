"""Committed benchmark protocol: method comparison, ablations, ratio sweep.

This module is the one registry of experiment arms: the protocol, the
`stamp-tta ablate` and `sweep-ratio` commands, the scripts and the tests
all read the tables below. An ablation arm is a name mapped to MethodConfig
overrides applied on top of the configured method section.

One pretrained checkpoint is shared by every arm. Baselines run at library
defaults (only the method name differs); the tuned method section of the
benchmark config applies to the stamp arm and its ablation variants. Every
run is deterministic, so repeated invocations reproduce the frozen numbers
exactly on the same platform.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import engine
from .config import MethodConfig, config_from_dict

METHOD_ARMS = ("source", "bn_stats", "tent", "stamp")
STREAM_SEEDS = (0, 1, 2, 3, 4)
RATIO_GRID = (0.05, 0.10, 0.20, 0.33, 0.50)

# single-component removals mirrored by the ablation table
REMOVAL_ARMS = {
    "mem_off": {"use_memory": False},
    "static": {"weight_strategy": "static"},
    "sgd": {"use_sam": False},
    "no_decay": {"use_decay": False},
}

# Toggle grid rows (use_sam, use_decay, use_memory, self-weighting); memory
# off also disables the admission filters so the loss falls back to the raw
# batch, and self-weighting off means plain entropy. The last row is the
# full method.
_TOGGLE_GRID = (
    (0, 0, 0, 0),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
    (1, 1, 1, 0),
    (1, 1, 1, 1),
)

# the arms of `stamp-tta ablate`, in table order
ABLATION_ARMS = {
    **{
        f"grid_sa{sa}_ds{ds}_rbm{rbm}_sw{sw}": {
            "use_sam": bool(sa),
            "use_decay": bool(ds),
            "use_memory": bool(rbm),
            "use_filtering": bool(rbm),
            "weight_strategy": "self" if sw else "plain",
        }
        for sa, ds, rbm, sw in _TOGGLE_GRID
    },
    **{f"weight_{ws}": {"weight_strategy": ws} for ws in ("self", "static", "eata")},
    "aug_on": {"use_augmentation": True},
    "aug_off": {"use_augmentation": False},
}

_HERE = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_CONFIG_PATH = os.path.join(_HERE, "configs", "benchmark.json")
DEFAULT_GOLDEN_PATH = os.path.join(_HERE, "tests", "golden", "benchmark_golden.json")


def load_benchmark_config(path=None):
    with open(path or DEFAULT_CONFIG_PATH) as fh:
        return config_from_dict(json.load(fh))


def _mean_metrics(cfg, model, seeds):
    rows = []
    for seed in seeds:
        run_cfg = dataclasses.replace(cfg, seed=seed)
        _, summary = engine.run_experiment(run_cfg, model=model)
        m = summary["metrics"]
        rows.append((m["acc"], m["auc"], m["h_score"]))
    acc, auc, h = np.mean(rows, axis=0)
    return {"acc": float(acc), "auc": float(auc), "h_score": float(h)}


def run_protocol(cfg, model=None, seeds=STREAM_SEEDS):
    """Run the full comparison and return the nested result dict.

    Baselines intentionally use MethodConfig() defaults so the tuned
    stamp hyperparameters never leak into them.
    """
    if model is None:
        model, _ = engine.pretrain_source(cfg)

    methods = {}
    for name in METHOD_ARMS:
        if name == "stamp":
            arm_cfg = cfg
        else:
            arm_cfg = dataclasses.replace(cfg, method=MethodConfig(name=name))
        methods[name] = _mean_metrics(arm_cfg, model, seeds)

    removals = {}
    for name, overrides in REMOVAL_ARMS.items():
        method = dataclasses.replace(cfg.method, **overrides)
        removals[name] = _mean_metrics(
            dataclasses.replace(cfg, method=method), model, seeds
        )

    ratios = {}
    for ratio in RATIO_GRID:
        data = dataclasses.replace(cfg.data, outlier_ratio=ratio)
        ratios["%.2f" % ratio] = _mean_metrics(
            dataclasses.replace(cfg, data=data), model, seeds
        )

    ratio_h = [ratios[k]["h_score"] for k in sorted(ratios)]
    ratio_auc = [ratios[k]["auc"] for k in sorted(ratios)]
    margins = {
        "acc_gain_over_source": methods["stamp"]["acc"] - methods["source"]["acc"],
        "tent_auc_minus_source_auc": methods["tent"]["auc"] - methods["source"]["auc"],
        "stamp_auc_minus_tent_auc": methods["stamp"]["auc"] - methods["tent"]["auc"],
        "stamp_h_margin": methods["stamp"]["h_score"]
        - max(methods[m]["h_score"] for m in ("source", "bn_stats", "tent")),
        "worst_removal_excess": max(r["h_score"] for r in removals.values())
        - methods["stamp"]["h_score"],
        "ratio_h_range": max(ratio_h) - min(ratio_h),
        "ratio_min_auc": min(ratio_auc),
    }
    return {
        "methods": methods,
        "removals": removals,
        "ratios": ratios,
        "margins": {k: float(v) for k, v in margins.items()},
        "seeds": list(seeds),
    }


def write_golden(results, path=None, tolerance=0.01):
    path = path or DEFAULT_GOLDEN_PATH
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {"tolerance": tolerance, **results}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_golden(path=None):
    with open(path or DEFAULT_GOLDEN_PATH) as fh:
        return json.load(fh)


def compare_to_golden(results, golden):
    """Yield (path, got, want) triples exceeding the golden tolerance."""
    tol = golden["tolerance"]

    def walk(got, want, trail):
        if isinstance(want, dict):
            for key, sub in want.items():
                if key in ("tolerance", "seeds"):
                    continue
                walk(got.get(key, {}), sub, trail + (key,))
        elif isinstance(want, float):
            if got is None or abs(got - want) > tol:
                yield_list.append((".".join(trail), got, want))

    yield_list = []
    walk(results, golden, ())
    return yield_list
