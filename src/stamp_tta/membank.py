"""Class-balanced replay memory with recency-aware eviction, plus the filters.

The bank stores (feature vector, pseudo-label) pairs under a fixed capacity
and takes each batch's admitted rows in one insert. When full, it discards
the oldest stored sample of whichever present class has the highest smoothed
frequency, so over-represented classes shrink first and the stored set
drifts toward class balance. Admission is gated by two sample filters:
agreement between the averaged prediction and the frozen source model
(consistency) and an entropy ceiling (confidence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class FilterVerdict:
    """Outcome of the two admission filters for each row of a batch.

    Every field is a per-row array; admitted is the boolean mask of rows
    that pass both filters.
    """

    consistent: np.ndarray
    confident: np.ndarray

    @property
    def admitted(self):
        return self.consistent & self.confident


def filter_masks(avg_probs, source_probs, h_thr, entropy):
    """Evaluate the admission filters for each row of an (n, C) batch.

    avg_probs is the augmentation-averaged prediction, source_probs the
    frozen source model's prediction on the raw sample, and entropy the
    per-row entropy of avg_probs, which the caller has already computed as
    the outlier score. Consistency requires equal argmax (ties broken by
    lowest index on both sides); confidence requires the entropy strictly
    below h_thr.
    """
    p = np.asarray(avg_probs, dtype=np.float64)
    q = np.asarray(source_probs, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError("avg_probs and source_probs must be equal-shape (n, C) matrices")
    h = np.asarray(entropy, dtype=np.float64)
    if h.shape != p.shape[:1]:
        raise ValueError("entropy must hold one value per row of avg_probs")
    if h_thr <= 0:
        raise ConfigError("h_thr must be positive")
    consistent = np.argmax(p, axis=1) == np.argmax(q, axis=1)
    return FilterVerdict(consistent=consistent, confident=h < h_thr)


class MemoryBank:
    """Capacity-bounded replay store; see module docstring for the policy.

    The stored rows live in two arrays kept in insertion order, so the
    oldest row of a class is its first row in the arrays and contents()
    is already in the order replay sums over.
    """

    def __init__(self, capacity, num_classes, input_dim):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        self.capacity = int(capacity)
        self.num_classes = int(num_classes)
        self.input_dim = int(input_dim)
        self._features = np.empty((0, self.input_dim))
        self._labels = np.empty(0, dtype=np.int64)
        self.class_frequency = np.zeros(self.num_classes)  # smoothed, updated per batch

    def __len__(self):
        return self._labels.shape[0]

    def class_counts(self):
        """Raw per-class counts of the stored entries."""
        return np.bincount(self._labels, minlength=self.num_classes)

    def insert(self, features, labels):
        """Store one batch's admitted rows, in order; returns the number evicted.

        The result equals inserting the rows one by one: each row that
        arrives at a full bank evicts the oldest entry of the present class
        with the highest smoothed frequency (ties to the lowest class index).
        Rows earlier in the batch count as stored, younger than every entry
        stored before the call, so they can be evicted by later rows. All
        checks run before the bank changes.
        """
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"features must be an (n, {self.input_dim}) matrix")
        if y.shape != x.shape[:1]:
            raise ValueError("labels must hold one class per row of features")
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ValueError("label out of range")
        # class_frequency is fixed within a batch, so one ranking serves every row
        ranked = np.argsort(-self.class_frequency, kind="stable").tolist()
        counts = self.class_counts().tolist()
        dropped = [0] * self.num_classes
        size = len(self)
        for label in y.tolist():
            if size < self.capacity:
                size += 1
            else:
                victim = next(c for c in ranked if counts[c])
                counts[victim] -= 1
                dropped[victim] += 1
            counts[label] += 1
        all_labels = np.concatenate([self._labels, y])
        keep = np.ones(all_labels.shape[0], dtype=bool)
        for c, n in enumerate(dropped):
            if n:
                keep[np.flatnonzero(all_labels == c)[:n]] = False
        self._features = np.concatenate([self._features, x])[keep]
        self._labels = all_labels[keep]
        return sum(dropped)

    def update_class_frequency(self, beta):
        """Exponential update toward the current counts; runs once per batch.

        frequency <- (1 - beta) * frequency + beta * counts.
        """
        if not 0 < beta <= 1:
            raise ConfigError("beta must lie in (0, 1]")
        self.class_frequency = (1.0 - beta) * self.class_frequency + beta * self.class_counts()

    def contents(self):
        """Copies of the stored features and labels, in insertion order."""
        return self._features.copy(), self._labels.copy()
