"""Committed benchmark protocol: method comparison, ablations, ratio sweep.

This module is the one registry of experiment arms: the protocol, the
`stamp-tta ablate` and `sweep-ratio` commands, the scripts and the tests
all read the tables below. An ablation arm is a name mapped to MethodConfig
overrides applied on top of the configured method section.

One source model, which the caller supplies, is shared by every arm.
Baselines run at library defaults (only the method name differs); the tuned
method section of the benchmark config applies to the stamp arm and its
ablation variants. Every run is deterministic, so repeated invocations
reproduce the frozen numbers exactly on the same platform.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import engine
from .config import MethodConfig, load_config

METHOD_ARMS = ("source", "bn_stats", "tent", "stamp")
STREAM_SEEDS = (0, 1, 2, 3, 4)
RATIO_GRID = (0.05, 0.10, 0.20, 0.33, 0.50)

# single-component removals mirrored by the ablation table
REMOVAL_ARMS = {
    "mem_off": {"use_memory": False},
    "static": {"weight_strategy": "static"},
    "sgd": {"rho": 0.0},
    "no_decay": {"use_decay": False},
}

# Toggle grid rows (sharpness-aware step, use_decay, use_memory,
# self-weighting). The sharpness-aware step off is rho 0, its plain gradient
# step; on keeps the configured rho. Memory off also disables the admission
# filters so the loss falls back to the raw batch, and self-weighting off
# means plain entropy. The last row is the full method.
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
            **({} if sa else {"rho": 0.0}),
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
    return load_config(path or DEFAULT_CONFIG_PATH)


def ablation_arms(cfg):
    """Yield (name, arm_cfg) for every ABLATION_ARMS entry, in table order.

    Each arm applies its MethodConfig overrides on top of cfg's method
    section; `stamp-tta ablate` and scripts/output_digests.py both run these.
    """
    for name, overrides in ABLATION_ARMS.items():
        method = dataclasses.replace(cfg.method, **overrides)
        yield name, dataclasses.replace(cfg, method=method)


def protocol_arms(cfg):
    """Yield (section, key, arm_cfg) for every protocol arm, in run order.

    Sections are methods (METHOD_ARMS), removals (REMOVAL_ARMS) and ratios
    (RATIO_GRID, keyed "%.2f"). Baselines intentionally use MethodConfig()
    defaults so the tuned stamp hyperparameters never leak into them.
    """
    for name in METHOD_ARMS:
        method = cfg.method if name == "stamp" else MethodConfig(name=name)
        yield "methods", name, dataclasses.replace(cfg, method=method)
    for name, overrides in REMOVAL_ARMS.items():
        method = dataclasses.replace(cfg.method, **overrides)
        yield "removals", name, dataclasses.replace(cfg, method=method)
    for ratio, arm_cfg in ratio_arms(cfg):
        yield "ratios", "%.2f" % ratio, arm_cfg


def ratio_arms(cfg):
    """Yield (ratio, cfg with data.outlier_ratio = ratio) over RATIO_GRID, in order;
    the protocol's ratios section and `stamp-tta sweep-ratio` both run these."""
    for ratio in RATIO_GRID:
        data = dataclasses.replace(cfg.data, outlier_ratio=ratio)
        yield ratio, dataclasses.replace(cfg, data=data)


def run_once(memo, cfg, model):
    """The summary of the run cfg describes, reused when an identical config ran.

    memo maps the canonical config echo (ExperimentConfig.echo as sorted
    JSON, what run_experiment writes into summary["config"]) to a summary.
    It lives for one protocol call or one grid command, and such a call uses
    one model, so the echo alone identifies the run. A miss calls
    engine.run_experiment.
    """
    key = json.dumps(cfg.echo(), sort_keys=True)
    if key not in memo:
        _, memo[key] = engine.run_experiment(cfg, model=model)
    return memo[key]


def seed_means(memo, cfg, model, seeds):
    """Mean acc, auc and h_score of cfg's runs over seeds, each run through run_once."""
    rows = []
    for seed in seeds:
        m = run_once(memo, dataclasses.replace(cfg, seed=seed), model)["metrics"]
        rows.append((m["acc"], m["auc"], m["h_score"]))
    acc, auc, h = np.mean(rows, axis=0)
    return {"acc": float(acc), "auc": float(auc), "h_score": float(h)}


def run_protocol(cfg, model, seeds=STREAM_SEEDS):
    """Run every protocol_arms entry on every seed; return the nested result dict.

    Every arm adapts from model. Identical runs happen once per call:
    ratios/0.20 is the configured method, the same config as methods/stamp,
    so with the default config each seed takes 12 runs for 13 arms.
    """
    memo = {}
    result = {"methods": {}, "removals": {}, "ratios": {}}
    for section, key, arm_cfg in protocol_arms(cfg):
        result[section][key] = seed_means(memo, arm_cfg, model, seeds)
    methods, removals, ratios = result["methods"], result["removals"], result["ratios"]

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
    result["margins"] = {k: float(v) for k, v in margins.items()}
    result["seeds"] = list(seeds)
    return result


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
    """Return a list of (path, got, want) for every golden value that results
    miss by more than the golden tolerance or lack (got None)."""
    tol = golden["tolerance"]
    drift = []

    def walk(got, want, trail):
        if isinstance(want, dict):
            for key, sub in want.items():
                if key in ("tolerance", "seeds"):
                    continue
                walk((got or {}).get(key), sub, trail + (key,))
        elif isinstance(want, float):
            if got is None or abs(got - want) > tol:
                drift.append((".".join(trail), got, want))

    walk(results, golden, ())
    return drift
