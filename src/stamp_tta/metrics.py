"""Evaluation metrics: accuracy over normals, rank-based AUROC, and the H-score.

Outliers are the positive class throughout. The AUROC uses midranks, so tied
scores contribute half credit; the ROC curve sweeps one threshold per
distinct score and its trapezoidal area equals the rank statistic exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def accuracy(preds, labels, outlier):
    """Fraction of non-outlier samples whose prediction matches the label."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    mask = ~np.asarray(outlier, dtype=bool)
    if not mask.any():
        raise ValueError("accuracy needs at least one non-outlier sample")
    return float(np.mean(preds[mask] == labels[mask]))


def _midranks(values):
    """Ranks 1..n with ties sharing the average rank of their run."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    sv = v[order]
    # run i..j of equal sorted values; != rather than np.diff keeps inf == inf
    starts = np.concatenate(([0], np.flatnonzero(sv[1:] != sv[:-1]) + 1))
    ends = np.append(starts[1:], sv.shape[0]) - 1
    ranks = np.empty(v.shape[0])
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, outlier):
    """Probability a random outlier outscores a random normal, ties half.

    Computed from midranks (the Mann-Whitney statistic), needs both classes
    present and finite scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outlier, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and outlier flags must be equal-length vectors")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(y.sum())
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both outlier and normal samples")
    ranks = _midranks(s)
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_curve(scores, outlier):
    """ROC points swept over the distinct score thresholds, descending.

    Returns (fpr, tpr) arrays starting at (0, 0) and ending at (1, 1), one
    interior point per distinct score value (samples at or above the
    threshold are flagged). Trapezoidal area under this curve equals auroc.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outlier, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and outlier flags must be equal-length vectors")
    n_pos = int(y.sum())
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both outlier and normal samples")
    order = np.argsort(-s, kind="mergesort")
    sorted_scores = s[order]
    sorted_pos = y[order].astype(np.float64)
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(1.0 - sorted_pos)
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    last = np.concatenate([distinct, [s.shape[0] - 1]])
    fpr = np.concatenate([[0.0], fp[last] / n_neg])
    tpr = np.concatenate([[0.0], tp[last] / n_pos])
    return fpr, tpr


def h_score(acc, auc):
    """Harmonic mean of accuracy and AUROC; 0 when both vanish."""
    if acc < 0 or auc < 0:
        raise ValueError("h_score arguments must be non-negative")
    if acc + auc == 0:
        return 0.0
    return 2.0 * acc * auc / (acc + auc)


@dataclass
class MetricsSummary:
    acc: float | None
    auc: float | None
    h: float | None
    num_normal: int
    num_outlier: int


def summarize(preds, scores, labels, outlier):
    """Bundle the three metrics for one run.

    A single-class stream (no outliers, or no normals with labels) yields
    None for the metrics that are undefined rather than failing the run.
    """
    y = np.asarray(outlier, dtype=bool)
    n_out = int(y.sum())
    n_norm = int((~y).sum())
    acc = accuracy(preds, labels, y) if n_norm else None
    auc = auroc(scores, y) if (n_out and n_norm) else None
    h = h_score(acc, auc) if (acc is not None and auc is not None) else None
    return MetricsSummary(acc=acc, auc=auc, h=h, num_normal=n_norm, num_outlier=n_out)
