"""Small dense classifier with batch norm and hand-written reverse-mode gradients.

Architecture is input -> (Linear -> BatchNorm -> ReLU) per hidden layer ->
Linear head. Everything runs in float64. Two forward modes exist: SOURCE_STATS
normalizes with the stored running statistics (a pure, row-independent
function), BATCH_STATS normalizes with the statistics of the current batch and
optionally folds them into the running buffers. Gradients are computed by an
explicit backward pass seeded with a logit-space gradient, so the adaptation
losses can stay autodiff-free.

forward_cached keeps every intermediate array for backward. Inference with
SOURCE_STATS goes through forward, which computes each hidden layer in place
in one array per layer (taken from a caller-kept scratch list when one is
given), with the same operations in the same order, so its probabilities are
byte-identical to forward_cached's.

Parameters are addressed by position: params(model, wrt) lists the model's
own arrays in one fixed order, and backward and grad return gradient lists
in that same order. Updates write into those arrays in place (set_params).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import losses
from .errors import ConfigError, NumericalError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class ForwardMode(Enum):
    SOURCE_STATS = "source_stats"
    BATCH_STATS = "batch_stats"


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = BN_EPS
    momentum: float = BN_MOMENTUM


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    bn: BatchNorm | None = None  # present on hidden layers, absent on the head


@dataclass
class Model:
    input_dim: int
    num_classes: int
    layers: list[Layer] = field(default_factory=list)

    @property
    def hidden_sizes(self):
        return tuple(layer.weight.shape[1] for layer in self.layers[:-1])


def init_model(input_dim, hidden_sizes, num_classes, seed):
    """He-initialized MLP; BN starts at identity with zeroed running mean, unit var."""
    if input_dim < 1:
        raise ConfigError("input_dim must be >= 1")
    if num_classes < 2:
        raise ConfigError("num_classes must be >= 2")
    hidden_sizes = tuple(int(h) for h in hidden_sizes)
    if len(hidden_sizes) == 0:
        raise ConfigError("at least one hidden layer is required")
    if any(h < 1 for h in hidden_sizes):
        raise ConfigError("zero-width layer in hidden_sizes")
    rng = np.random.default_rng(seed)
    sizes = (input_dim,) + hidden_sizes + (num_classes,)
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        bias = np.zeros(fan_out)
        bn = None
        if i < len(sizes) - 2:  # no normalization on the classification head
            bn = BatchNorm(
                gamma=np.ones(fan_out),
                beta=np.zeros(fan_out),
                running_mean=np.zeros(fan_out),
                running_var=np.ones(fan_out),
            )
        layers.append(Layer(weight=weight, bias=bias, bn=bn))
    return Model(input_dim=input_dim, num_classes=num_classes, layers=layers)


@dataclass
class _LayerCache:
    inputs: np.ndarray
    pre_bn: np.ndarray | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None  # sqrt(var + eps) actually used to normalize
    x_hat: np.ndarray | None = None
    relu_mask: np.ndarray | None = None


@dataclass
class ForwardCache:
    mode: ForwardMode
    layers: list[_LayerCache]
    logits: np.ndarray


def _checked_inputs(model, inputs, mode, update_stats):
    """The inputs as a float64 matrix, after the checks both forwards share."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("inputs must be a (batch, features) matrix")
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} features, model expects {model.input_dim}"
        )
    if mode is ForwardMode.BATCH_STATS and x.shape[0] < 2:
        raise ValueError("BATCH_STATS mode needs a batch of size >= 2")
    if mode is ForwardMode.SOURCE_STATS and update_stats:
        raise ValueError("running statistics can only be updated in BATCH_STATS mode")
    return x


def forward_cached(model, inputs, mode, update_stats=False):
    """Run the network; returns (probability matrix, cache for backward).

    BATCH_STATS requires at least two rows (the batch variance must be
    defined) and touches the running buffers only when update_stats is set,
    using the unbiased variance for the running update and the biased one for
    normalization. SOURCE_STATS never mutates the model.
    """
    a = _checked_inputs(model, inputs, mode, update_stats)
    caches = []
    for layer in model.layers[:-1]:
        cache = _LayerCache(inputs=a)
        z = a @ layer.weight + layer.bias
        bn = layer.bn
        cache.pre_bn = z
        if mode is ForwardMode.BATCH_STATS:
            mean = z.mean(axis=0)
            var = z.var(axis=0)  # biased, used for normalization
            if update_stats:
                m = z.shape[0]
                unbiased = var * m / (m - 1)
                bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
                bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * unbiased
        else:
            mean = bn.running_mean
            var = bn.running_var
        std = np.sqrt(var + bn.eps)
        x_hat = (z - mean) / std
        y = bn.gamma * x_hat + bn.beta
        cache.mean, cache.std, cache.x_hat = mean, std, x_hat
        cache.relu_mask = y > 0
        a = np.where(cache.relu_mask, y, 0.0)
        caches.append(cache)

    head = model.layers[-1]
    caches.append(_LayerCache(inputs=a))
    logits = a @ head.weight + head.bias
    probs = losses.softmax(logits)
    return probs, ForwardCache(mode=mode, layers=caches, logits=logits)


def _layer_rows(scratch, i, n, width):
    """Rows [:n] of scratch[i], which is first made (n, width) if it is missing,
    too short or of another width."""
    if len(scratch) == i:
        scratch.append(np.empty((n, width)))
    elif scratch[i].shape[0] < n or scratch[i].shape[1] != width:
        scratch[i] = np.empty((n, width))
    return scratch[i][:n]


def forward(model, inputs, mode, update_stats=False, scratch=None):
    """Probability matrix only; same arguments and checks as forward_cached.

    BATCH_STATS goes through forward_cached. SOURCE_STATS computes hidden
    layer i in place in scratch[i][:n] (the caller's inputs are never
    written), applying forward_cached's operations in its order, so the
    result is byte-identical. scratch is a list the caller keeps between
    calls; an entry is allocated, or replaced by a larger one, only when a
    batch has more rows than it holds. With scratch=None each call fills a
    fresh list. The returned probabilities never share memory with it. Rows
    are deliberately not split into blocks: the matmul kernel may then round
    differently.
    """
    if mode is ForwardMode.BATCH_STATS:
        probs, _ = forward_cached(model, inputs, mode, update_stats=update_stats)
        return probs
    a = _checked_inputs(model, inputs, mode, update_stats)
    if scratch is None:
        scratch = []
    for i, layer in enumerate(model.layers[:-1]):
        bn = layer.bn
        z = _layer_rows(scratch, i, a.shape[0], layer.weight.shape[1])
        np.matmul(a, layer.weight, out=z)
        z += layer.bias
        z -= bn.running_mean
        z /= np.sqrt(bn.running_var + bn.eps)
        z *= bn.gamma
        z += bn.beta
        # equals np.where(z > 0, z, 0.0) bit for bit: NaN, -inf and -0.0
        # become +0.0 (fmax drops the NaN, the add turns -0.0 into +0.0)
        np.fmax(z, 0.0, out=z)
        z += 0.0
        a = z
    head = model.layers[-1]
    logits = a @ head.weight
    logits += head.bias
    return losses.softmax(logits)


def _param_names(model, wrt):
    """Dotted names of params(model, wrt), in the same order; for error messages."""
    names = []
    for i, layer in enumerate(model.layers):
        if wrt == "all":
            names += [f"layers.{i}.weight", f"layers.{i}.bias"]
        if layer.bn is not None:
            names += [f"layers.{i}.bn.gamma", f"layers.{i}.bn.beta"]
    return names


def params(model, wrt="adaptable"):
    """The model's own parameter arrays (not copies), in one fixed order.

    Layer index ascending, and within a layer weight, bias, gamma, beta.
    "all" lists every trained array; "adaptable" keeps only the BN scale and
    shift, the only ones adaptation may touch (the head stays frozen).
    Writing into a returned array (p[...] = value) updates the model.
    """
    if wrt not in ("adaptable", "all"):
        raise ValueError("wrt must be 'adaptable' or 'all'")
    out = []
    for layer in model.layers:
        if wrt == "all":
            out += [layer.weight, layer.bias]
        if layer.bn is not None:
            out += [layer.bn.gamma, layer.bn.beta]
    if wrt == "adaptable" and not out:
        raise ConfigError("model has no batch norm layers to adapt")
    return out


def set_params(model, values):
    """Write values into params(model, "adaptable") in place, position by position.

    Shapes must match exactly; the model keeps its own array objects.
    """
    live = params(model, "adaptable")
    if len(values) != len(live):
        raise ValueError(f"expected {len(live)} arrays, got {len(values)}")
    for k, (p, v) in enumerate(zip(live, values)):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != p.shape:
            raise ValueError(f"shape mismatch for parameter {k}: {v.shape} vs {p.shape}")
        p[...] = v


def backward(model, cache, dlogits, wrt="adaptable"):
    """Backprop a logit-space gradient to the requested parameter set.

    In BATCH_STATS mode the gradient flows through the batch mean and
    variance; in SOURCE_STATS mode the running statistics are constants.
    Returns a list of gradient arrays in the order of params(model, wrt).
    """
    if wrt not in ("adaptable", "all"):
        raise ValueError("wrt must be 'adaptable' or 'all'")
    every = wrt == "all"
    per_layer = [[] for _ in model.layers]

    head = model.layers[-1]
    head_cache = cache.layers[-1]
    d = np.asarray(dlogits, dtype=np.float64)
    if d.shape != cache.logits.shape:
        raise ValueError("dlogits shape does not match logits")
    if every:
        per_layer[-1] = [head_cache.inputs.T @ d, d.sum(axis=0)]
    da = d @ head.weight.T

    for i in range(len(model.layers) - 2, -1, -1):
        layer = model.layers[i]
        lc = cache.layers[i]
        bn = layer.bn
        dy = np.where(lc.relu_mask, da, 0.0)
        bn_grads = [(dy * lc.x_hat).sum(axis=0), dy.sum(axis=0)]
        dxhat = dy * bn.gamma
        if cache.mode is ForwardMode.BATCH_STATS:
            m = dy.shape[0]
            z_centered = lc.pre_bn - lc.mean
            dvar = (dxhat * z_centered).sum(axis=0) * (-0.5) / lc.std**3
            dmean = -dxhat.sum(axis=0) / lc.std
            dz = dxhat / lc.std + dvar * 2.0 * z_centered / m + dmean / m
        else:
            dz = dxhat / lc.std
        per_layer[i] = ([lc.inputs.T @ dz, dz.sum(axis=0)] if every else []) + bn_grads
        if i > 0:  # nothing consumes the gradient of the network's input
            da = dz @ layer.weight.T

    return [g for grads in per_layer for g in grads]


def grad(model, inputs, mode, logit_loss, wrt="adaptable", update_stats=False):
    """Forward, evaluate a (value, dlogits) logit loss, and backprop.

    Returns (loss value, gradient list in params(model, wrt) order). Raises
    NumericalError naming the offending quantity if the loss or any gradient
    array is non-finite.
    """
    _, cache = forward_cached(model, inputs, mode, update_stats=update_stats)
    value, dlogits = logit_loss(cache.logits)
    if not np.isfinite(value):
        raise NumericalError("loss value is not finite")
    grads = backward(model, cache, dlogits, wrt=wrt)
    for k, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            name = _param_names(model, wrt)[k]
            raise NumericalError(f"non-finite gradient for {name}")
    return value, grads


def snapshot_source(model):
    """Frozen deep copy of the model, used as the pre-adaptation reference."""
    return copy.deepcopy(model)


def evaluate_accuracy(model, inputs, labels):
    preds = np.argmax(forward(model, inputs, ForwardMode.SOURCE_STATS), axis=1)
    return float(np.mean(preds == np.asarray(labels)))


def pretrain(model, inputs, labels, epochs, lr, seed, batch_size=64):
    """Source training: minibatch SGD on cross entropy, batch-stats forward.

    Mutates the model in place (epochs=0 leaves it untouched) and returns it.
    Singleton trailing batches are skipped since batch statistics need two
    rows. Raises NumericalError naming the epoch and batch on divergence.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and labels disagree on sample count")
    if np.any(y < 0) or np.any(y >= model.num_classes):
        raise ValueError("label out of range")
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        perm = rng.permutation(x.shape[0])
        for b, start in enumerate(range(0, x.shape[0], batch_size)):
            take = perm[start : start + batch_size]
            if take.shape[0] < 2:
                continue
            xb, yb = x[take], y[take]
            try:
                value, grads = grad(
                    model,
                    xb,
                    ForwardMode.BATCH_STATS,
                    lambda logits: losses.cross_entropy_loss(logits, yb),
                    wrt="all",
                    update_stats=True,
                )
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch} batch {b}: {exc}") from exc
            for p, g in zip(params(model, "all"), grads):
                p -= lr * g
    return model


def save_model(model, path):
    """Single-file npz checkpoint: architecture JSON plus every array, float64."""
    meta = {
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "hidden_sizes": list(model.hidden_sizes),
        "eps": [l.bn.eps for l in model.layers if l.bn is not None],
        "momentum": [l.bn.momentum for l in model.layers if l.bn is not None],
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, layer in enumerate(model.layers):
        arrays[f"layers.{i}.weight"] = layer.weight
        arrays[f"layers.{i}.bias"] = layer.bias
        if layer.bn is not None:
            arrays[f"layers.{i}.bn.gamma"] = layer.bn.gamma
            arrays[f"layers.{i}.bn.beta"] = layer.bn.beta
            arrays[f"layers.{i}.bn.running_mean"] = layer.bn.running_mean
            arrays[f"layers.{i}.bn.running_var"] = layer.bn.running_var
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path):
    """Rebuild a model from save_model output, bit-exact."""
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"checkpoint {path} is missing architecture metadata") from exc
        model = init_model(
            meta["input_dim"], meta["hidden_sizes"], meta["num_classes"], seed=0
        )
        for i, layer in enumerate(model.layers):
            layer.weight = data[f"layers.{i}.weight"].copy()
            layer.bias = data[f"layers.{i}.bias"].copy()
            if layer.bn is not None:
                layer.bn.gamma = data[f"layers.{i}.bn.gamma"].copy()
                layer.bn.beta = data[f"layers.{i}.bn.beta"].copy()
                layer.bn.running_mean = data[f"layers.{i}.bn.running_mean"].copy()
                layer.bn.running_var = data[f"layers.{i}.bn.running_var"].copy()
                layer.bn.eps = meta["eps"][i]
                layer.bn.momentum = meta["momentum"][i]
    return model
