#!/usr/bin/env python3
"""Print one sha256 of the predictions and scores of every benchmark run.

Runs every `stamp-tta ablate` arm (benchmark.ablation_arms) and every
protocol arm (benchmark.protocol_arms) on the benchmark stream seeds, against
one shared pretrained checkpoint, and prints one line per run:

    <arm> seed=<s> <sha256 of the int64 predictions, then the float64 scores>

followed by one `all` line that hashes every line above it. Two versions of
the code whose outputs are byte-identical print identical text, so a `diff`
of their outputs is the check. With `--expect HEX` (the 64 hex digits of a
known `all` line) the script itself is the check: when the digest differs
it prints the expected and the actual `all` line to stderr and exits 1.

Usage:
    python3 scripts/output_digests.py [--config configs/benchmark.json] [--expect HEX]
"""

import argparse
import dataclasses
import hashlib
import os
import re
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from stamp_tta import benchmark, engine


def digest(outputs):
    preds, scores = outputs
    preds = np.asarray(preds, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    return hashlib.sha256(preds.tobytes() + scores.tobytes()).hexdigest()


def ablation_digests(cfg, model, seeds):
    for name, arm_cfg in benchmark.ablation_arms(cfg):
        for seed in seeds:
            run_cfg = dataclasses.replace(arm_cfg, seed=seed)
            outputs, _ = engine.run_experiment(run_cfg, model=model)
            yield f"ablate/{name}", seed, digest(outputs)


def protocol_digests(cfg, model, seeds):
    """Run every benchmark.protocol_arms entry on every seed, arms then seeds.

    run_protocol runs an arm identical to an earlier one only once; this
    runs each arm itself, so the duplicate's line checks its own bytes.
    """
    for section, key, arm_cfg in benchmark.protocol_arms(cfg):
        for seed in seeds:
            run_cfg = dataclasses.replace(arm_cfg, seed=seed)
            outputs, _ = engine.run_experiment(run_cfg, model=model)
            yield f"protocol/{section}/{key}", seed, digest(outputs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=benchmark.DEFAULT_CONFIG_PATH)
    parser.add_argument("--expect", metavar="HEX", help="the expected `all` sha256")
    args = parser.parse_args(argv)
    if args.expect is not None and not re.fullmatch("[0-9a-f]{64}", args.expect):
        parser.error("--expect takes the 64 lowercase hex digits of an `all` line")

    cfg = benchmark.load_benchmark_config(args.config)
    model, _ = engine.pretrain_source(cfg)
    seeds = benchmark.STREAM_SEEDS
    whole = hashlib.sha256()
    for gen in (ablation_digests, protocol_digests):
        for name, seed, sha in gen(cfg, model, seeds):
            line = f"{name} seed={seed} {sha}"
            print(line, flush=True)
            whole.update((line + "\n").encode())
    actual = whole.hexdigest()
    print(f"all {actual}")
    if args.expect is not None and args.expect != actual:
        print(f"expected all {args.expect}", file=sys.stderr)
        print(f"actual   all {actual}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
