"""Shared test oracles: finite differences, pairwise AUC, reference replay bank.

These are deliberately independent code paths from the library: the FD
helpers only ever call forward passes, the AUC oracle counts pairs, the
reference views draw and rotate one sample at a time, and the reference bank
replays the eviction policy with plain list scans.
"""

import math

import numpy as np
import pytest

from stamp_tta import datagen, diffnet, engine
from stamp_tta.diffnet import ForwardMode


def make_random_model(seed, input_dim=3, hidden=(6, 5), num_classes=4, spread=True):
    """Model with BN parameters and running stats pushed away from identity."""
    model = diffnet.init_model(input_dim, hidden, num_classes, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    if spread:
        for layer in model.layers[:-1]:
            bn = layer.bn
            bn.gamma = rng.normal(1.0, 0.3, bn.gamma.shape)
            bn.beta = rng.normal(0.0, 0.3, bn.beta.shape)
            bn.running_mean = rng.normal(0.0, 0.5, bn.running_mean.shape)
            bn.running_var = rng.uniform(0.5, 2.0, bn.running_var.shape)
    return model


def min_abs_preactivation(model, inputs, mode):
    """Smallest |pre-ReLU| value; FD needs a margin around the kinks."""
    _, cache = diffnet.forward_cached(model, inputs, mode)
    worst = np.inf
    for layer, lc in zip(model.layers[:-1], cache.layers):
        pre_relu = layer.bn.gamma * lc.x_hat + layer.bn.beta
        worst = min(worst, float(np.abs(pre_relu).min()))
    return worst


def param_slots(model, wrt):
    """(owner, attribute) of each parameter, from a walk over model.layers
    that does not go through diffnet.params: layer ascending, then weight,
    bias, gamma, beta ("adaptable" keeps only gamma and beta)."""
    slots = []
    for layer in model.layers:
        if wrt == "all":
            slots += [(layer, "weight"), (layer, "bias")]
        if layer.bn is not None:
            slots += [(layer.bn, "gamma"), (layer.bn, "beta")]
    return slots


def fd_param_gradient(model, wrt, inputs, mode, loss_fn, step=1e-5):
    """Central finite differences of the loss w.r.t. each parameter, as a list.

    Each perturbed value is a fresh array set on the layer (or its batch
    norm) by attribute, and the original array object is put back after.
    """
    out = []
    for owner, attr in param_slots(model, wrt):
        base = getattr(owner, attr)
        fd = np.zeros_like(base)
        work = base.copy()
        flat = work.ravel()
        for j in range(flat.size):
            orig = flat[j]
            for sign in (1.0, -1.0):
                flat[j] = orig + sign * step
                setattr(owner, attr, work.copy())
                _, cache = diffnet.forward_cached(model, inputs, mode)
                value, _ = loss_fn(cache.logits)
                fd.ravel()[j] += sign * value / (2.0 * step)
            flat[j] = orig
        setattr(owner, attr, base)
        out.append(fd)
    return out


def fd_logit_gradient(value_fn, logits, step=1e-6):
    """Central finite differences of a scalar function of a logit matrix."""
    z = np.asarray(logits, dtype=np.float64)
    fd = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += step
            zm[i, j] -= step
            fd[i, j] = (value_fn(zp) - value_fn(zm)) / (2.0 * step)
    return fd


def joint_rel_err(analytic, reference):
    """Relative error of concatenated gradient vectors; lists join in order."""
    if isinstance(analytic, list):
        a = np.concatenate([np.ravel(g) for g in analytic])
        b = np.concatenate([np.ravel(g) for g in reference])
    else:
        a, b = np.ravel(analytic), np.ravel(reference)
    return float(np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-300))


def reference_augment_views(v, num_views, strength, seed, sample_id):
    """Views of one sample, drawn and rotated one sample at a time."""
    if strength == 0:
        return np.tile(v, (num_views, 1))
    seq = np.random.SeedSequence((seed, datagen._TAG_AUG, sample_id))
    rng = np.random.default_rng(seq)
    half = math.radians(strength * datagen.AUG_DEG_PER_STRENGTH)
    angles = rng.uniform(-half, half, size=num_views)
    sigma = strength * datagen.AUG_SIGMA_PER_STRENGTH
    noise = rng.normal(0.0, sigma, size=(num_views, v.shape[0]))
    out = np.tile(v, (num_views, 1))
    c, s = np.cos(angles), np.sin(angles)
    out[:, 0] = c * v[0] - s * v[1]
    out[:, 1] = s * v[0] + c * v[1]
    return out + noise


def brute_force_auc(scores, outlier):
    """Pairwise Mann-Whitney count: wins plus half-credit ties over all pairs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outlier, dtype=bool)
    pos = s[y][:, None]
    neg = s[~y][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.shape[0] * neg.shape[1]))


class ReferenceBank:
    """Replay of the memory policy with independent bookkeeping.

    Stores (features, label) pairs in arrival order, one row per insert, and
    scans the list for each victim: when full, drop the earliest stored pair
    of the present class whose smoothed frequency is highest, lowest class
    index on ties.
    """

    def __init__(self, capacity, num_classes):
        self.capacity = capacity
        self.num_classes = num_classes
        self.items = []
        self.freq = [0.0] * num_classes

    def insert(self, features, label):
        if len(self.items) >= self.capacity:
            present = {y for _, y in self.items}
            best = None
            for c in sorted(present):
                if best is None or self.freq[c] > self.freq[best]:
                    best = c
            for i, (_, y) in enumerate(self.items):
                if y == best:
                    del self.items[i]
                    break
        self.items.append((np.array(features, dtype=float), int(label)))

    def update_freq(self, beta):
        counts = [0] * self.num_classes
        for _, y in self.items:
            counts[y] += 1
        self.freq = [(1.0 - beta) * f + beta * c for f, c in zip(self.freq, counts)]

    def labels(self):
        return [y for _, y in self.items]

    def features(self):
        return np.array([x for x, _ in self.items]) if self.items else np.empty((0, 0))


@pytest.fixture
def run_calls(monkeypatch):
    """The configs engine.run_experiment is called with, in call order."""
    calls = []
    run_experiment = engine.run_experiment

    def counting(cfg, model):
        calls.append(cfg)
        return run_experiment(cfg, model=model)

    monkeypatch.setattr(engine, "run_experiment", counting)
    return calls
