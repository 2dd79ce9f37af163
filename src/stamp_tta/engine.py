"""The online adaptation loop and the baselines around it.

For each incoming batch the adapted model first emits per-sample predictions
and entropy OOD scores (before any update, so every sample is scored by the
model state that greeted it), then the method updates itself. The full
method averages predictions over randomized views, admits samples into a
class-balanced replay memory through the consistency and confidence filters,
and takes one sharpness-aware step of the self-weighted entropy loss over
the memory contents under a cosine-decayed step size. Every component can be
switched off (the sharpness-aware step by rho 0); with everything off the
update degenerates to plain entropy minimization on the raw batch.

Step functions receive feature matrices only. Truth columns never enter the
adaptation path; run_experiment joins them back in afterwards for scoring.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import datagen, diffnet, losses, membank, metrics, optim
from .config import ExperimentConfig, MethodConfig
from .diffnet import ForwardMode
from .errors import ConfigError, NumericalError


@dataclass
class AdaptState:
    """Everything one adaptation run mutates, plus the validated method knobs.

    objective is the entropy loss every update of the run minimizes: the
    configured weight_strategy for stamp, plain mean entropy for tent.
    updates counts the steps taken, the cosine schedule's t. scratch holds
    the hidden-layer arrays the averaged prediction's forward reuses from
    batch to batch (see diffnet.forward).
    """

    model: diffnet.Model
    source: diffnet.Model
    cfg: MethodConfig
    objective: Callable
    bank: membank.MemoryBank | None
    h_thr: float
    seed: int = 0
    samples_seen: int = 0
    updates: int = 0
    scratch: list = field(default_factory=list)


def build_state(model, cfg: ExperimentConfig):
    """Fresh AdaptState for one run; the given model is never mutated."""
    cfg.validate()
    m = dataclasses.replace(cfg.method)
    bank = None
    if m.name == "stamp" and m.use_memory:
        bank = membank.MemoryBank(m.capacity, cfg.data.num_classes, cfg.data.input_dim)
    h_thr = cfg.h_thr()
    weighting = m.weight_strategy if m.name == "stamp" else "plain"
    return AdaptState(
        model=diffnet.snapshot_source(model),
        source=diffnet.snapshot_source(model),
        cfg=m,
        objective=losses.make_entropy_objective(weighting, h_thr=h_thr),
        bank=bank,
        h_thr=h_thr,
        seed=cfg.seed,
    )


def averaged_prediction(
    model, inputs, views, strength, seed, first_sample_id, enabled=True, scratch=None
):
    """Augmentation-averaged probabilities and argmax labels for a batch.

    Runs one source-statistics forward over all views; rows are independent
    in this mode, so the batched call matches per-sample calls to float
    accuracy and is deterministic for a fixed batch layout. With augmentation
    disabled or strength 0 this is a single plain forward. scratch is passed
    to diffnet.forward for its hidden-layer arrays.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if not enabled or strength == 0:
        probs = diffnet.forward(model, x, ForwardMode.SOURCE_STATS, scratch=scratch)
    else:
        stack = datagen.augment_views(x, views, strength, seed, first_sample_id)
        flat = diffnet.forward(model, stack, ForwardMode.SOURCE_STATS, scratch=scratch)
        probs = flat.reshape(x.shape[0], views, -1).mean(axis=1)
    preds = np.argmax(probs, axis=1)  # ties break to the lowest index
    return probs, preds


def detect(scores, delta_thr):
    """Binary rejection decisions: 1 flags a suspected outlier (score >= thr)."""
    if delta_thr <= 0:
        raise ConfigError("delta_thr must be positive")
    return (np.asarray(scores, dtype=np.float64) >= delta_thr).astype(np.int64)


def _apply_update(state, batch):
    """One sharpness-aware step (plain with rho 0) on the adaptable parameters over `batch`.

    The step also folds the batch into the running statistics, once.
    """
    m = state.cfg
    lr = optim.cosine_lr(m.base_lr, m.horizon, state.updates) if m.use_decay else m.base_lr
    optim.sam_update(
        state.model, batch, ForwardMode.BATCH_STATS, state.objective, m.rho, lr, update_stats=True
    )
    state.updates += 1


def stamp_step(state, inputs):
    """Process one batch with the full (or ablated) method.

    Order per batch: emit predictions and scores from the current model,
    admit samples into the memory, take one step of the entropy objective
    over the memory contents (or the raw batch when memory and filtering are
    both off), then refresh the smoothed class frequencies. Returns
    (preds, scores) for the batch.
    """
    m = state.cfg
    x = np.asarray(inputs, dtype=np.float64)
    probs, preds = averaged_prediction(
        state.model,
        x,
        m.views,
        m.aug_strength,
        state.seed,
        state.samples_seen,
        enabled=m.use_augmentation,
        scratch=state.scratch,
    )
    scores = losses.entropy(probs)
    state.samples_seen += x.shape[0]

    if m.use_memory and state.bank is not None:
        if m.use_filtering:
            source_probs = diffnet.forward(state.source, x, ForwardMode.SOURCE_STATS)
            verdict = membank.filter_masks(probs, source_probs, state.h_thr, scores)
            state.bank.insert(x[verdict.admitted], preds[verdict.admitted])
        else:
            state.bank.insert(x, preds)
        replay, _ = state.bank.contents()
        if replay.shape[0] >= 2:
            _apply_update(state, replay)
        state.bank.update_class_frequency(m.beta)
    elif not m.use_filtering:
        if x.shape[0] >= 2:
            _apply_update(state, x)

    return preds, scores


def baseline_step(state, inputs):
    """One batch under a baseline: source, bn_stats, or tent.

    source scores with the frozen model and running statistics. bn_stats
    re-estimates normalization from the batch but never updates parameters.
    tent additionally takes one constant-rate gradient step of mean entropy
    on the BN scale/shift parameters; its emission comes from the same
    batch-statistics view of the batch that the update differentiates.
    A singleton trailing batch (batch statistics undefined) falls back to a
    source-statistics emission and triggers no update.
    """
    x = np.asarray(inputs, dtype=np.float64)
    state.samples_seen += x.shape[0]
    if state.cfg.name == "source" or x.shape[0] < 2:
        probs = diffnet.forward(state.model, x, ForwardMode.SOURCE_STATS)
    else:
        probs = diffnet.forward(state.model, x, ForwardMode.BATCH_STATS)
        if state.cfg.name == "tent":
            optim.sgd_update(
                state.model, x, ForwardMode.BATCH_STATS, state.objective, state.cfg.base_lr
            )
    preds = np.argmax(probs, axis=1)
    scores = losses.entropy(probs)
    return preds, scores


def step(state, inputs):
    name = state.cfg.name
    if name == "stamp":
        return stamp_step(state, inputs)
    if name in ("source", "bn_stats", "tent"):
        return baseline_step(state, inputs)
    raise ConfigError(f"unknown method {name!r}")


def pretrain_source(cfg: ExperimentConfig):
    """Generate source data, train the classifier, and enforce the accuracy floor.

    The split between training and held-out rows is seeded by the model seed,
    so the same config always yields the same checkpoint.
    """
    d, mc = cfg.data, cfg.model
    features, labels = datagen.gen_source(
        d.num_classes, d.input_dim, d.source_size, d.source_seed
    )
    rng = np.random.default_rng(np.random.SeedSequence((mc.seed, 21)))
    perm = rng.permutation(d.source_size)
    n_val = max(1, int(round(d.val_fraction * d.source_size)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    model = diffnet.init_model(d.input_dim, mc.hidden_sizes, d.num_classes, mc.seed)
    diffnet.pretrain(
        model,
        features[train_idx],
        labels[train_idx],
        epochs=mc.epochs,
        lr=mc.lr,
        seed=mc.seed,
        batch_size=mc.batch_size,
    )
    acc = diffnet.evaluate_accuracy(model, features[val_idx], labels[val_idx])
    if acc < mc.accuracy_floor:
        raise ConfigError(
            f"pretraining reached held-out accuracy {acc:.3f}, "
            f"below the configured floor {mc.accuracy_floor:.3f}"
        )
    return model, acc


def make_stream(cfg: ExperimentConfig):
    """The test stream that cfg.data and cfg.seed describe."""
    return datagen.gen_stream(cfg.data.stream_config(cfg.seed))


def _adapt(state, stream):
    """Step state through the stream; per-sample (preds, scores) in stream order.

    A ConfigError or NumericalError raised inside a step is raised again as
    the same type, its message prefixed with the batch index and its sample
    range.
    """
    preds = np.empty(len(stream), dtype=np.int64)
    scores = np.empty(len(stream))
    for k, (start, batch) in enumerate(stream.batches()):
        try:
            p, s = step(state, batch)
        except (ConfigError, NumericalError) as exc:
            where = f"batch {k} (samples {start}-{start + len(batch) - 1})"
            raise type(exc)(f"{where}: {exc}") from exc
        preds[start : start + len(p)] = p
        scores[start : start + len(p)] = s
    return preds, scores


def run_experiment(cfg: ExperimentConfig, model=None):
    """Run one method over one stream; returns ((preds, scores), summary dict).

    preds and scores are per-sample arrays in stream order. The model comes
    from, in order: the argument, the configured checkpoint, or a fresh
    pretraining run. Identical configs produce identical outputs and
    summaries; the model is copied, never mutated in place. Errors inside a
    step name their batch (see _adapt).
    """
    cfg.validate()
    if model is None:
        if cfg.model.checkpoint:
            model = diffnet.load_model(cfg.model.checkpoint)
        else:
            model, _ = pretrain_source(cfg)
    stream = make_stream(cfg)
    # the run's state (model copies, memory, forward buffers) is freed here,
    # before scoring allocates its own arrays
    preds, scores = _adapt(build_state(model, cfg), stream)
    h_thr = cfg.h_thr()

    ms = metrics.summarize(preds, scores, stream.labels, stream.outlier)
    rejected = detect(scores, h_thr)
    summary = {
        "method": cfg.method.name,
        "seed": cfg.seed,
        "num_samples": len(stream),
        "num_normal": ms.num_normal,
        "num_outlier": ms.num_outlier,
        "h_thr": h_thr,
        "rejected_fraction": float(rejected.mean()),
        "metrics": {"acc": ms.acc, "auc": ms.auc, "h_score": ms.h},
        "config": cfg.echo(),
    }
    return (preds, scores), summary
