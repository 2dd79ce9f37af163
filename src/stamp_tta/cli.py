"""Command-line entry points: pretrain, run, ablate, sweep-ratio.

Configuration comes from an optional JSON file plus dotted overrides such as
--method.rho=0.1 (overrides win). Outputs are written under the --out
directory: summary.json (sorted keys), records.csv (features, label and
outlier flag per stream sample, extended with pred and ood_score columns),
roc.csv, and for the grid commands one summary per arm plus a combined
comparison table. The grid commands run the arms that benchmark.py
registers: ablation_arms for ablate and ratio_arms for sweep-ratio. Repeat
invocations with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys


from . import config as config_mod
from . import diffnet, engine, metrics
from .benchmark import ablation_arms, ratio_arms, run_once
from .errors import ConfigError, NumericalError, ParseError

_OVERRIDE_RE = re.compile(r"^--([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)?=.*)$")


def _build_config(args, extras):
    overrides = []
    for item in extras:
        m = _OVERRIDE_RE.match(item)
        if not m:
            raise ConfigError(
                f"unrecognized argument {item!r}; overrides look like --section.key=value"
            )
        overrides.append(m.group(1))
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    cfg = config_mod.load_config(args.config, overrides)
    if args.out is not None:
        cfg.output.directory = args.out
    return cfg


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_records(path, stream, preds, scores):
    """One row per stream sample: features, truth, prediction and OOD score."""
    d = stream.features.shape[1]
    cols = [f"x{i}" for i in range(d)] + ["label", "outlier", "pred", "ood_score"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for x, label, outlier, pred, score in zip(
            stream.features, stream.labels, stream.outlier, preds, scores
        ):
            vals = ["%.17g" % v for v in x]
            vals += [str(label), str(int(outlier)), str(pred), "%.17g" % score]
            fh.write(",".join(vals) + "\n")


def write_roc(path, scores, outlier):
    fpr, tpr = metrics.roc_curve(scores, outlier)
    with open(path, "w") as fh:
        fh.write("fpr,tpr\n")
        for f, t in zip(fpr, tpr):
            fh.write("%.17g,%.17g\n" % (f, t))


def _fmt(value):
    return "" if value is None else "%.6f" % value


def write_comparison(path, rows, extra=None):
    """rows: list of (name, summary dict).

    extra maps an arm name to a list of additional leading (column, value)
    pairs, letting sweep tables carry their swept quantity numerically.
    """
    extra = extra or {}
    lead_cols = [col for col, _ in next(iter(extra.values()), [])]
    with open(path, "w") as fh:
        fh.write(",".join(["arm"] + lead_cols + ["acc", "auc", "h_score"]) + "\n")
        for name, summary in rows:
            m = summary["metrics"]
            lead = [str(value) for _, value in extra.get(name, [])]
            cells = [name] + lead + [_fmt(m["acc"]), _fmt(m["auc"]), _fmt(m["h_score"])]
            fh.write(",".join(cells) + "\n")


def _shared_model(cfg):
    """Pretrain once for this invocation, or load the configured checkpoint:
    the one checkpoint resolver, which rejects one that mismatches the config."""
    path = cfg.model.checkpoint
    if not path:
        model, _ = engine.pretrain_source(cfg)
        return model
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    model = diffnet.load_model(path)
    for key, have, want in (
        ("data.input_dim", model.input_dim, cfg.data.input_dim),
        ("data.num_classes", model.num_classes, cfg.data.num_classes),
        ("model.hidden_sizes", model.hidden_sizes, cfg.model.hidden_sizes),
    ):
        if have != want:
            raise ConfigError(f"checkpoint {path} has {key} {have}, the config has {want}")
    return model


def _write_run_outputs(out_dir, cfg, outputs, summary):
    os.makedirs(out_dir, exist_ok=True)
    formats = cfg.output.formats
    preds, scores = outputs
    stream = engine.make_stream(cfg)
    if "summary" in formats:
        write_summary(os.path.join(out_dir, "summary.json"), summary)
    if "records" in formats:
        write_records(os.path.join(out_dir, "records.csv"), stream, preds, scores)
    if "roc" in formats and summary["metrics"]["auc"] is not None:
        write_roc(os.path.join(out_dir, "roc.csv"), scores, stream.outlier)


def _print_metrics(name, summary):
    m = summary["metrics"]
    acc = "n/a" if m["acc"] is None else "%.4f" % m["acc"]
    auc = "n/a" if m["auc"] is None else "%.4f" % m["auc"]
    h = "n/a" if m["h_score"] is None else "%.4f" % m["h_score"]
    print(f"{name}: acc={acc} auc={auc} h={h}")


def cmd_pretrain(cfg):
    model, acc = engine.pretrain_source(cfg)
    path = cfg.model.checkpoint
    if not path:
        os.makedirs(cfg.output.directory, exist_ok=True)
        path = os.path.join(cfg.output.directory, "model.npz")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    diffnet.save_model(model, path)
    print(f"pretrained checkpoint written to {path} (held-out accuracy {acc:.4f})")
    return 0


def cmd_run(cfg):
    model = _shared_model(cfg)
    outputs, summary = engine.run_experiment(cfg, model=model)
    _write_run_outputs(cfg.output.directory, cfg, outputs, summary)
    _print_metrics(cfg.method.name, summary)
    return 0


def _run_grid(cfg, variants, table_name, extra=None):
    """Run config variants off a shared model; write per-arm summaries and a table.

    Variants with identical configs run once and share one summary, so their
    summary.json files are byte-identical (see benchmark.run_once): ablate's
    three full-method arms make one run.
    """
    model = _shared_model(cfg)
    os.makedirs(cfg.output.directory, exist_ok=True)
    rows, failures, memo = [], [], {}
    for name, variant_cfg in variants:
        try:
            summary = run_once(memo, variant_cfg, model)
        except (ConfigError, ParseError, NumericalError, ValueError) as exc:
            failures.append((name, str(exc)))
            continue
        arm_dir = os.path.join(cfg.output.directory, name)
        os.makedirs(arm_dir, exist_ok=True)
        write_summary(os.path.join(arm_dir, "summary.json"), summary)
        rows.append((name, summary))
        _print_metrics(name, summary)
    write_comparison(os.path.join(cfg.output.directory, table_name), rows, extra)
    if failures:
        for name, msg in failures:
            print(f"arm {name} failed: {msg}", file=sys.stderr)
        return 1
    return 0


def cmd_ablate(cfg):
    if cfg.method.name != "stamp":
        raise ConfigError("ablate requires method.name == 'stamp'")
    return _run_grid(cfg, ablation_arms(cfg), "comparison.csv")


def cmd_sweep_ratio(cfg):
    variants, extra = [], {}
    for ratio, arm_cfg in ratio_arms(cfg):
        name = "ratio_%02d" % int(round(100 * ratio))
        variants.append((name, arm_cfg))
        extra[name] = [("outlier_ratio", "%.2f" % ratio)]
    return _run_grid(cfg, variants, "ratio_sweep.csv", extra)


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "run": cmd_run,
    "ablate": cmd_ablate,
    "sweep-ratio": cmd_sweep_ratio,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stamp-tta",
        description="Outlier-aware test-time adaptation on synthetic streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("pretrain", "train and save the source classifier"),
        ("run", "adapt over one stream and write records and metrics"),
        ("ablate", "run the component ablation grid"),
        ("sweep-ratio", "run the outlier ratio sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the top-level seed")
        p.add_argument("--out", help="override output.directory")

    args, extras = parser.parse_known_args(argv)
    try:
        cfg = _build_config(args, extras)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ParseError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
