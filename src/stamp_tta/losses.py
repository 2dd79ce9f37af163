"""Entropy-based objectives over logits, with closed-form logit gradients.

Every loss here maps a logit matrix (batch, classes) to a scalar together
with the exact gradient w.r.t. the logits, so the network backward pass can
be seeded without any autodiff machinery. The entropy losses are one table,
WEIGHTINGS, of ways to weight the per-row entropies; make_entropy_objective
turns an entry into a logit loss. Entropies use the natural log.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Probabilities below this are clamped before the log; keeps 0*log(0) at 0
# without poisoning gradients.
_P_FLOOR = 1e-300


def softmax(logits):
    """Row-wise softmax of a logit vector or matrix, max-shifted for stability."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericalError("softmax input contains non-finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(probs):
    """Shannon entropy in nats of a distribution vector, or of each row.

    Entries are clamped to >= 1e-300 inside the log so degenerate
    distributions score 0 instead of NaN.
    """
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    return -(p * np.log(np.maximum(p, _P_FLOOR))).sum(axis=-1)


def _rows_p_h(logits):
    """Softmax rows, their log, and per-row entropy for a 2-d logit array."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("expected a (batch, classes) logit matrix")
    if z.shape[0] < 1:
        raise ValueError("empty batch")
    p = softmax(z)
    logp = np.log(np.maximum(p, _P_FLOOR))
    h = -(p * logp).sum(axis=1)
    return p, logp, h


def _chain_to_logits(dl_dh, p, logp, h):
    # dH/dz_k = -p_k (log p_k + H), row-wise; scale by the scalar dL/dH_i.
    return dl_dh[:, None] * (-p * (logp + h[:, None]))


def _plain(h, h_thr):
    """Unweighted mean entropy."""
    n = h.shape[0]
    return float(h.mean()), np.full(n, 1.0 / n)


def _self_weighted(h, h_thr):
    """L = sum_i s_i H_i with s = softmax(-H), the weights inside the gradient.

    Low-entropy rows dominate both the value and the update direction; the
    weight's dependence on H is kept in the differentiation path, which
    yields dL/dH_k = s_k (1 - H_k + L).
    """
    s = softmax(-h)
    value = float(np.dot(s, h))
    return value, s * (1.0 - h + value)


def _static_weighted(h, h_thr):
    """The self-weighted value with the weights treated as constants: dL/dH_k = s_k."""
    s = softmax(-h)
    return float(np.dot(s, h)), s


def _eata_weighted(h, h_thr):
    """Mean of exp(h_thr - H_i) * H_i, the weight treated as a constant."""
    w = np.exp(float(h_thr) - h)
    return float(np.mean(w * h)), w / h.shape[0]


# method.weight_strategy name -> weighting of the per-row entropies H, as a
# function (H, h_thr) -> (loss value, dL/dH); only "eata" reads h_thr
WEIGHTINGS = {
    "plain": _plain,
    "self": _self_weighted,
    "static": _static_weighted,
    "eata": _eata_weighted,
}


def make_entropy_objective(name, h_thr=None):
    """The logits -> (value, gradient w.r.t. logits) loss of one WEIGHTINGS entry.

    The weighting turns the per-row entropies of the logits' softmax into a
    scalar and its dL/dH, which is chained back to the logits in closed
    form. "eata" needs the entropy threshold h_thr.
    """
    if name not in WEIGHTINGS:
        raise ValueError(f"unknown entropy weighting {name!r}")
    if name == "eata" and h_thr is None:
        raise ValueError("EATA weighting requires h_thr")
    weighting = WEIGHTINGS[name]

    def objective(logits):
        p, logp, h = _rows_p_h(logits)
        value, dl_dh = weighting(h, h_thr)
        return value, _chain_to_logits(dl_dh, p, logp, h)

    return objective


def cross_entropy_loss(logits, labels):
    """Mean negative log-likelihood of integer labels; returns (value, dlogits)."""
    p, logp, _ = _rows_p_h(logits)
    y = np.asarray(labels)
    n, c = p.shape
    if y.shape != (n,):
        raise ValueError("labels must be a vector matching the batch")
    if np.any(y < 0) or np.any(y >= c):
        raise ValueError("label out of range")
    value = float(-logp[np.arange(n), y].mean())
    grad = p.copy()
    grad[np.arange(n), y] -= 1.0
    return value, grad / n
