"""Synthetic source data, corrupted mixed streams, and augmentation views.

Source classes are isotropic Gaussian clusters spaced evenly on a circle of
radius 4 in the first two coordinates (sigma 0.5). A test stream corrupts
that geometry at a given severity and mixes in label-free outliers, either
fresh clusters at the unused angles (held-out-class) or uniform background
noise over the source bounding box. Everything is driven by explicit seeds
through numpy SeedSequence, so regeneration is exact. Augmentation views
draw from the PCG64 state SeedSequence((seed, 13, sample_id)) gives each
sample; augment_views computes numpy's SeedSequence hash for a whole batch
at once instead of building one SeedSequence per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SOURCE_RADIUS = 4.0
SOURCE_SIGMA = 0.5
ROTATION_DEG_PER_SEVERITY = 9.0
NOISE_SIGMA_PER_SEVERITY = 0.08
SCALE_PER_SEVERITY = 0.04
AUG_DEG_PER_STRENGTH = 10.0
AUG_SIGMA_PER_STRENGTH = 0.05

OUTLIER_LABEL = -1
OUTLIER_MODES = ("held-out-class", "background-uniform")

# Tags keep the seed streams of unrelated draws disjoint.
_TAG_STREAM = 11
_TAG_CORRUPT = 12
_TAG_AUG = 13

# Seeds are one uint32 word of SeedSequence entropy, which is what lets
# augment_views hash a whole batch with a fixed word layout.
MAX_SEED = 2**32 - 1

# numpy's SeedSequence pool hash (hashmix, mix and generate_state in
# numpy/random/bit_generator.pyx, pool size 4) and PCG64's LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1


def class_centroids(num_classes, input_dim):
    """Cluster means for the source classes: evenly spaced on the circle."""
    if num_classes < 2:
        raise ConfigError("num_classes must be >= 2")
    if input_dim < 2:
        raise ConfigError("input_dim must be >= 2 for the circle geometry")
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    out = np.zeros((num_classes, input_dim))
    out[:, 0] = SOURCE_RADIUS * np.cos(angles)
    out[:, 1] = SOURCE_RADIUS * np.sin(angles)
    return out


def outlier_centroids(num_classes, input_dim):
    """Held-out cluster means: same circle, midway between source angles."""
    centers = class_centroids(num_classes, input_dim)
    angles = 2.0 * np.pi * (np.arange(num_classes) + 0.5) / num_classes
    centers[:, 0] = SOURCE_RADIUS * np.cos(angles)
    centers[:, 1] = SOURCE_RADIUS * np.sin(angles)
    return centers


def gen_source(num_classes, input_dim, n, seed):
    """Balanced labeled source draw of n samples; shuffled deterministically.

    Class c receives n // C samples plus one extra for the first n mod C
    classes, so counts never differ by more than one.
    """
    if n < num_classes:
        raise ConfigError("need at least one sample per class")
    centers = class_centroids(num_classes, input_dim)
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    xs, ys = [], []
    for c in range(num_classes):
        offsets = rng.normal(0.0, SOURCE_SIGMA, size=(counts[c], input_dim))
        xs.append(centers[c] + offsets)
        ys.append(np.full(counts[c], c, dtype=np.int64))
    features = np.concatenate(xs)
    labels = np.concatenate(ys)
    perm = rng.permutation(n)
    return features[perm], labels[perm]


def corrupt(x, severity, seed):
    """Severity-scaled distribution shift of an (n, d) matrix, deterministic per (x, severity, seed).

    Composition: rotation by severity * 9 degrees in the circle plane, then a
    uniform per-coordinate scaling by 1 + severity * 0.04, then additive
    Gaussian noise with sigma severity * 0.08 drawn from default_rng(seed).
    """
    if severity < 0:
        raise ConfigError("severity must be >= 0")
    out = np.array(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("corrupt expects an (n, d) matrix")
    if out.shape[1] < 2:
        raise ConfigError("rotation needs input_dim >= 2")
    theta = math.radians(severity * ROTATION_DEG_PER_SEVERITY)
    c, s = math.cos(theta), math.sin(theta)
    x0, x1 = out[:, 0].copy(), out[:, 1].copy()
    out[:, 0] = c * x0 - s * x1
    out[:, 1] = s * x0 + c * x1
    out *= 1.0 + severity * SCALE_PER_SEVERITY
    sigma = severity * NOISE_SIGMA_PER_SEVERITY
    if sigma > 0:
        rng = np.random.default_rng(seed)
        out += rng.normal(0.0, sigma, size=out.shape)
    return out


def _hash_constants(init, mult, n):
    """The first n values of a hash constant, one per row: init * mult**k mod 2**32."""
    return np.array([init * pow(mult, k, 2**32) & _MASK32 for k in range(n)], np.uint32)[:, None]


# the pool hash's two constant sequences, one per row, computed once at import
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 17)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 9)


def _hashmix(value, xor_const, mult_const):
    value = (value ^ xor_const) * mult_const
    return value ^ (value >> 16)


def _pcg64_states(seed, first_id, b):
    """PCG64 states of SeedSequence((seed, 13, id)) for ids first_id .. first_id + b - 1.

    The entropy words are [seed, 13, id_lo, id_hi]; a zero word hashes like
    an absent one, so one layout serves every id below 2**64 while the seed
    fits one word. Each step of numpy's hash runs on uint32 rows across the
    batch: the src-th mixing round touches the three other pool words with
    the same hashed src word, so they are one (3, b) operation. The eight
    output words form PCG64's (initstate, initseq), and its seeding (two
    128-bit LCG steps) runs on Python ints.
    """
    ids = np.arange(first_id, first_id + b, dtype=np.uint64)
    pool = np.empty((4, b), dtype=np.uint32)
    pool[0], pool[1], pool[2], pool[3] = seed, _TAG_AUG, ids & _MASK32, ids >> 32
    pool = _hashmix(pool, _HASH_A[0:4], _HASH_A[1:5])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        k = 4 + 3 * src
        hashed = _hashmix(pool[src], _HASH_A[k : k + 3], _HASH_A[k + 1 : k + 4])
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[:8], _HASH_B[1:]).astype(np.uint64)
    states = []
    for hi, lo, inc_hi, inc_lo in zip(*(words[1::2] << 32 | words[0::2]).tolist()):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
        pcg = {"state": state, "inc": inc}
        states.append({"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0})
    return states


def augment_views(x, num_views, strength, seed, sample_id):
    """num_views randomized views of each sample for prediction averaging.

    Each view rotates by an angle uniform in +-(strength * 10 degrees) and
    adds isotropic Gaussian noise with sigma strength * 0.05. x is a (b, d)
    batch whose row i is sample sample_id + i; the result is the
    (b * num_views, d) stack with each sample's views contiguous. Every
    sample draws from its own PCG64 state, the one
    default_rng(SeedSequence((seed, 13, sample_id + i))) starts from, so a
    row's views do not depend on the batch it arrives in; the states of the
    whole batch come from one hash (_pcg64_states) and are set in turn into
    one generator. Each sample draws its standard uniforms, then its
    standard normals, into rows of two batch arrays; numpy's own maps for
    uniform(low, high) (low + (high - low) * u) and normal(0, sigma)
    (0.0 + sigma * z) then run once over the batch, so every view equals
    the per-sample uniform/normal draws bit for bit. The seed must lie in
    [0, 2**32 - 1] and the sample ids below 2**64. Strength 0 short-circuits
    to exact copies.
    """
    if num_views < 1:
        raise ConfigError("num_views must be >= 1")
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"augmentation seed must lie in [0, {MAX_SEED}], got {seed}")
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("augment_views expects a (b, d) batch")
    b, d = rows.shape
    if sample_id < 0 or sample_id + b > 2**64:
        raise ValueError("sample ids must lie in [0, 2**64)")
    if strength == 0:
        return np.repeat(rows, num_views, axis=0)
    if d < 2:
        raise ConfigError("rotation needs input_dim >= 2")
    low = -math.radians(strength * AUG_DEG_PER_STRENGTH)
    high = -low
    if not math.isfinite(high - low):  # numpy's uniform refuses such a range
        raise ConfigError(f"augmentation strength {strength} gives a non-finite angle range")
    sigma = strength * AUG_SIGMA_PER_STRENGTH
    angles = np.empty((b, num_views))
    noise = np.empty((b, num_views, d))
    bit_gen = np.random.PCG64()  # its state is replaced before every draw
    rng = np.random.Generator(bit_gen)
    for i, state in enumerate(_pcg64_states(seed, sample_id, b)):
        bit_gen.state = state
        rng.random(out=angles[i])
        rng.standard_normal(out=noise[i])
    angles *= high - low
    angles += low
    noise *= sigma
    noise += 0.0  # numpy's loc + scale * z: -0.0 becomes +0.0
    out = np.repeat(rows, num_views, axis=0)
    x0, x1 = out[:, 0].copy(), out[:, 1].copy()
    c, s = np.cos(angles.ravel()), np.sin(angles.ravel())
    out[:, 0] = c * x0 - s * x1
    out[:, 1] = s * x0 + c * x1
    out += noise.reshape(b * num_views, d)
    return out


@dataclass
class StreamConfig:
    """Geometry and mixing knobs for one test stream (see config.DataConfig.stream_config)."""

    num_classes: int
    input_dim: int = 2
    num_samples: int = 10000
    batch_size: int = 64
    severity: float = 5.0
    outlier_ratio: float = 0.2
    outlier_mode: str = "background-uniform"
    seed: int = 0

    def validate(self):
        """Range checks; the messages name the config.DataConfig key."""
        if self.num_classes < 2:
            raise ConfigError("data.num_classes must be >= 2")
        if self.input_dim < 2:
            raise ConfigError("data.input_dim must be >= 2")
        if self.num_samples < 1:
            raise ConfigError("data.num_samples must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("data.batch_size must be >= 1")
        if not 0.0 <= self.outlier_ratio <= 1.0:
            raise ConfigError("data.outlier_ratio must lie in [0, 1]")
        if self.severity < 0:
            raise ConfigError("data.severity must be >= 0")
        if self.outlier_mode not in OUTLIER_MODES:
            raise ConfigError(f"data.outlier_mode must be one of {OUTLIER_MODES}")
        return self


@dataclass
class Stream:
    """A generated test stream: features plus eval-only truth columns.

    The truth columns (labels, outlier flags) exist for scoring alone; the
    adaptation engine is handed feature batches only.
    """

    features: np.ndarray
    labels: np.ndarray
    outlier: np.ndarray
    batch_size: int

    def __len__(self):
        return self.features.shape[0]

    def batches(self):
        """Yield (start_index, feature_matrix) in stream order."""
        for start in range(0, len(self), self.batch_size):
            yield start, self.features[start : start + self.batch_size]


def _source_box(num_classes, input_dim):
    # Analytic 3-sigma bounding box of the source mixture.
    reach = SOURCE_RADIUS + 3.0 * SOURCE_SIGMA
    lo = np.full(input_dim, -3.0 * SOURCE_SIGMA)
    hi = np.full(input_dim, 3.0 * SOURCE_SIGMA)
    lo[:2], hi[:2] = -reach, reach
    return lo, hi


def gen_stream(cfg):
    """Build the corrupted mixed stream described by cfg.

    Each position is an outlier with probability outlier_ratio (independent
    Bernoulli draws). Normal samples come from the source clusters, outliers
    from the configured mode, and the corruption map is applied to every
    sample at the configured severity. Outlier rows carry label -1.
    """
    cfg.validate()
    n, d, c = cfg.num_samples, cfg.input_dim, cfg.num_classes
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _TAG_STREAM)))
    is_outlier = rng.random(n) < cfg.outlier_ratio
    n_out = int(is_outlier.sum())
    n_norm = n - n_out

    labels = np.full(n, OUTLIER_LABEL, dtype=np.int64)
    features = np.empty((n, d))

    normal_labels = rng.integers(0, c, size=n_norm)
    centers = class_centroids(c, d)
    features[~is_outlier] = centers[normal_labels] + rng.normal(
        0.0, SOURCE_SIGMA, size=(n_norm, d)
    )
    labels[~is_outlier] = normal_labels

    if n_out:
        if cfg.outlier_mode == "held-out-class":
            oc = outlier_centroids(c, d)
            pick = rng.integers(0, c, size=n_out)
            features[is_outlier] = oc[pick] + rng.normal(0.0, SOURCE_SIGMA, size=(n_out, d))
        else:
            lo, hi = _source_box(c, d)
            features[is_outlier] = rng.uniform(lo, hi, size=(n_out, d))

    features = corrupt(
        features, cfg.severity, np.random.SeedSequence((cfg.seed, _TAG_CORRUPT))
    )
    return Stream(
        features=features,
        labels=labels,
        outlier=is_outlier,
        batch_size=cfg.batch_size,
    )
