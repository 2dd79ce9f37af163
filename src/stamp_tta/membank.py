"""Class-balanced replay memory with recency-aware eviction, plus the filters.

The bank stores (feature vector, pseudo-label) pairs under a fixed capacity.
When full, it discards the oldest stored sample of whichever present class
has the highest smoothed frequency, so over-represented classes shrink first
and the stored set drifts toward class balance. Admission is gated by two
sample filters: agreement between the averaged prediction and the frozen
source model (consistency) and an entropy ceiling (confidence).
"""

from __future__ import annotations

from collections import deque
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
    entropy: np.ndarray

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
    return FilterVerdict(consistent=consistent, confident=h < h_thr, entropy=h)


@dataclass
class MemoryEntry:
    features: np.ndarray
    label: int
    tick: int  # global insertion counter; strictly increasing


class MemoryBank:
    """Capacity-bounded replay store; see module docstring for the policy.

    Rows live in fixed-capacity arrays in slot order: an evicted row's slot
    takes the next insert. Each row carries its insertion tick, and
    contents() returns the rows in tick order, the order replay sums over.
    Each class keeps a queue of its slots, oldest first, so its length is
    the class count and its head is the class's eviction victim.
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
        self._features = np.empty((self.capacity, self.input_dim))
        self._labels = np.empty(self.capacity, dtype=np.int64)
        self._ticks = np.empty(self.capacity, dtype=np.int64)
        self._slots = [deque() for _ in range(self.num_classes)]
        self._size = 0
        self.class_frequency = np.zeros(self.num_classes)  # smoothed, updated per batch
        self._tick = 0

    def __len__(self):
        return self._size

    def class_counts(self):
        """Raw per-class counts of the stored entries."""
        return np.array([len(q) for q in self._slots], dtype=np.int64)

    def insert(self, features, label):
        """Store one admitted sample; returns the evicted entry or None.

        When the bank is full, the victim class is the present class with the
        highest smoothed frequency (ties to the lowest class index) and the
        victim is its oldest entry.
        """
        label = int(label)
        if not 0 <= label < self.num_classes:
            raise ValueError("label out of range")
        row = np.asarray(features, dtype=np.float64)
        if row.shape != (self.input_dim,):
            raise ValueError(f"features must be a vector of length {self.input_dim}")
        evicted = None
        if self._size < self.capacity:
            slot = self._size
            self._size += 1
        else:
            freq = self.class_frequency.tolist()
            present = (c for c, q in enumerate(self._slots) if q)
            victim_class = max(present, key=freq.__getitem__)  # first max: lowest index
            slot = self._slots[victim_class].popleft()
            evicted = MemoryEntry(
                features=self._features[slot].copy(),
                label=victim_class,
                tick=int(self._ticks[slot]),
            )
        self._features[slot] = row
        self._labels[slot] = label
        self._ticks[slot] = self._tick
        self._slots[label].append(slot)
        self._tick += 1
        return evicted

    def update_class_frequency(self, beta):
        """Exponential update toward the current counts; runs once per batch.

        frequency <- (1 - beta) * frequency + beta * counts.
        """
        if not 0 < beta <= 1:
            raise ConfigError("beta must lie in (0, 1]")
        self.class_frequency = (1.0 - beta) * self.class_frequency + beta * self.class_counts()
        return self.class_frequency.copy()

    def contents(self):
        """Copies of the stored features and labels, in insertion order."""
        order = np.argsort(self._ticks[: self._size])
        return self._features[order], self._labels[order]
