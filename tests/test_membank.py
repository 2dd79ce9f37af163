"""Replay memory policy: admission filters, eviction order, frequency updates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ReferenceBank
from stamp_tta.errors import ConfigError
from stamp_tta.losses import entropy
from stamp_tta.membank import MemoryBank, filter_masks


def vec(*vals):
    return np.asarray(vals, dtype=np.float64)


def row(*vals):
    """One probability vector as a one-row batch."""
    return np.asarray([vals], dtype=np.float64)


def masks(p, q, h_thr):
    """filter_masks with the entropy of p, as stamp_step passes its scores."""
    return filter_masks(p, q, h_thr, entropy(p))


class TestFilterMasks:
    def test_admitted_needs_both_filters(self):
        confident = row(0.9, 0.05, 0.05)
        v = masks(confident, row(0.8, 0.1, 0.1), h_thr=0.6)
        assert v.consistent[0] and v.confident[0] and v.admitted[0]

    def test_disagreement_blocks(self):
        v = masks(row(0.9, 0.05, 0.05), row(0.1, 0.8, 0.1), h_thr=0.6)
        assert not v.consistent[0] and v.confident[0] and not v.admitted[0]

    def test_high_entropy_blocks(self):
        flat = row(0.4, 0.35, 0.25)
        v = masks(flat, flat, h_thr=0.6)
        assert v.consistent[0] and not v.confident[0] and not v.admitted[0]

    def test_threshold_is_strict(self):
        # uniform over 4 classes has entropy exactly ln 4; at h_thr = ln 4
        # the strict inequality must reject
        uniform = np.full((1, 4), 0.25)
        v = masks(uniform, uniform, h_thr=math.log(4))
        assert not v.confident[0]
        assert entropy(uniform)[0] == pytest.approx(math.log(4), abs=1e-12)

    def test_argmax_ties_break_low_index(self):
        tied = row(0.45, 0.45, 0.10)
        v = masks(tied, row(0.9, 0.05, 0.05), h_thr=2.0)
        assert v.consistent[0]  # both argmaxes resolve to index 0

    def test_validation(self):
        with pytest.raises(ValueError):
            masks(row(0.5, 0.5), row(0.3, 0.3, 0.4), h_thr=0.5)
        with pytest.raises(ValueError):  # a bare vector is not a batch
            masks(vec(0.5, 0.5), vec(0.5, 0.5), h_thr=0.5)
        with pytest.raises(ValueError):  # one entropy per row
            filter_masks(row(0.5, 0.5), row(0.5, 0.5), 0.5, vec(0.6, 0.6))
        with pytest.raises(ConfigError):
            masks(row(0.5, 0.5), row(0.5, 0.5), h_thr=0.0)

    @pytest.mark.parametrize("num_classes", [2, 4])
    def test_batch_masks_match_per_row_verdicts(self, num_classes):
        rng = np.random.default_rng(num_classes)
        p = rng.dirichlet(np.ones(num_classes), size=200)
        q = rng.dirichlet(np.ones(num_classes), size=200)
        p[:40] = np.round(p[:40], 1) + 1e-12  # coarse rows with argmax ties
        p[:40] /= p[:40].sum(axis=1, keepdims=True)
        q[40:60] = p[40:60, ::-1]
        p[60] = q[60] = np.full(num_classes, 1.0 / num_classes)
        h_thr = math.log(num_classes)
        batch = masks(p, q, h_thr)
        rows = [masks(p[i : i + 1], q[i : i + 1], h_thr) for i in range(len(p))]
        assert batch.consistent.tolist() == [v.consistent[0] for v in rows]
        assert batch.confident.tolist() == [v.confident[0] for v in rows]
        assert batch.admitted.tolist() == [v.admitted[0] for v in rows]
        assert np.array_equal(entropy(p), [entropy(p[i : i + 1])[0] for i in range(len(p))])
        assert batch.consistent[60] and not batch.confident[60]  # strict at ln C
        assert batch.consistent.any() and not batch.consistent.all()
        assert batch.confident.any()


def insert_one(bank, feats, label):
    """Insert a single row as a one-row batch; returns the eviction count."""
    return bank.insert(feats[None], [label])


class TestInsertEvict:
    def test_grows_until_capacity(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        for i in range(3):
            assert insert_one(bank, vec(i, 0), 0) == 0
        assert len(bank) == 3

    def test_never_exceeds_capacity(self):
        bank = MemoryBank(4, num_classes=3, input_dim=2)
        for i in range(20):
            insert_one(bank, vec(i, 0), i % 3)
            bank.update_class_frequency(0.1)
            assert len(bank) <= 4

    def test_evicts_oldest_of_highest_frequency_class(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        insert_one(bank, vec(0, 0), 0)
        insert_one(bank, vec(1, 0), 0)
        insert_one(bank, vec(2, 0), 1)
        bank.class_frequency = np.array([5.0, 1.0])
        assert insert_one(bank, vec(3, 0), 1) == 1
        feats, labels = bank.contents()
        assert list(labels) == [0, 1, 1]
        assert np.array_equal(feats, [[1, 0], [2, 0], [3, 0]])  # (0, 0) was oldest of class 0

    def test_eviction_restricted_to_present_classes(self):
        bank = MemoryBank(2, num_classes=3, input_dim=2)
        insert_one(bank, vec(0, 0), 1)
        insert_one(bank, vec(1, 0), 2)
        # class 0 has the max frequency but is absent; next is class 2
        bank.class_frequency = np.array([9.0, 1.0, 2.0])
        assert insert_one(bank, vec(2, 0), 1) == 1
        assert list(bank.contents()[1]) == [1, 1]

    def test_frequency_ties_break_low_class_index(self):
        bank = MemoryBank(2, num_classes=3, input_dim=2)
        insert_one(bank, vec(0, 0), 2)
        insert_one(bank, vec(1, 0), 1)
        bank.class_frequency = np.array([0.0, 3.0, 3.0])
        assert insert_one(bank, vec(2, 0), 0) == 1
        assert list(bank.contents()[1]) == [2, 0]

    def test_label_range_checked(self):
        bank = MemoryBank(2, num_classes=2, input_dim=2)
        with pytest.raises(ValueError):
            insert_one(bank, vec(0, 0), 2)
        with pytest.raises(ValueError):
            insert_one(bank, vec(0, 0), -1)

    def test_feature_width_checked(self):
        bank = MemoryBank(2, num_classes=2, input_dim=3)
        with pytest.raises(ValueError):
            insert_one(bank, vec(0, 0), 0)
        with pytest.raises(ConfigError):
            MemoryBank(2, num_classes=2, input_dim=0)

    def test_contents_are_copies_in_insertion_order(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        insert_one(bank, vec(1, 1), 0)
        insert_one(bank, vec(2, 2), 1)
        feats, labels = bank.contents()
        assert np.array_equal(feats, [[1, 1], [2, 2]])
        assert list(labels) == [0, 1]
        feats[0, 0] = 99.0
        labels[0] = 1
        assert bank.contents()[0][0, 0] == 1.0
        assert bank.contents()[1][0] == 0


class TestBatchInsert:
    def test_batch_keeps_row_order_and_counts_evictions(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        assert bank.insert(np.arange(10.0).reshape(5, 2), [0, 1, 0, 1, 1]) == 2
        feats, labels = bank.contents()
        # the first fill is [0, 1, 0]; row 3 evicts class 0's oldest, row 4
        # evicts the next class-0 row: frequencies are both 0, ties to class 0
        assert list(labels) == [1, 1, 1]
        assert np.array_equal(feats, [[2, 3], [6, 7], [8, 9]])

    def test_same_batch_row_is_the_victim_at_capacity_one(self):
        bank = MemoryBank(1, num_classes=3, input_dim=2)
        assert bank.insert(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), [2, 0, 1]) == 2
        feats, labels = bank.contents()
        assert list(labels) == [1]
        assert np.array_equal(feats, [[3, 3]])

    def test_empty_batch_is_a_no_op(self):
        bank = MemoryBank(2, num_classes=2, input_dim=2)
        insert_one(bank, vec(1, 1), 1)
        assert bank.insert(np.empty((0, 2)), np.empty(0, dtype=np.int64)) == 0
        assert bank.insert(np.empty((0, 2)), []) == 0
        assert len(bank) == 1

    @pytest.mark.parametrize(
        "features, labels",
        [
            (vec(1, 2), [0]),  # a bare vector is not a batch
            (np.ones((2, 3)), [0, 1]),  # wrong feature width
            (np.ones((2, 2)), [0]),  # one label short
            (np.ones((2, 2)), [0, 1, 1]),  # one label too many
            (np.ones((2, 2)), [0, 3]),  # label out of range
            (np.ones((2, 2)), [-1, 0]),
        ],
    )
    def test_invalid_batch_leaves_bank_unchanged(self, features, labels):
        bank = MemoryBank(2, num_classes=3, input_dim=2)
        insert_one(bank, vec(5, 5), 2)
        insert_one(bank, vec(6, 6), 1)
        bank.class_frequency = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            bank.insert(features, labels)
        feats, stored = bank.contents()
        assert np.array_equal(feats, [[5, 5], [6, 6]])
        assert list(stored) == [2, 1]
        assert bank.class_frequency.tolist() == [0.0, 1.0, 2.0]


class TestFrequencyUpdate:
    def test_exponential_update_formula(self):
        bank = MemoryBank(4, num_classes=3, input_dim=2)
        bank.insert(np.zeros((3, 2)), [0, 0, 2])
        assert bank.update_class_frequency(0.1) is None
        assert np.allclose(bank.class_frequency, [0.2, 0.0, 0.1], atol=1e-15)
        bank.update_class_frequency(0.1)
        assert np.allclose(
            bank.class_frequency, [0.9 * 0.2 + 0.2, 0.0, 0.9 * 0.1 + 0.1], atol=1e-15
        )

    def test_beta_validated(self):
        bank = MemoryBank(2, num_classes=2, input_dim=2)
        with pytest.raises(ConfigError):
            bank.update_class_frequency(0.0)
        with pytest.raises(ConfigError):
            bank.update_class_frequency(1.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(1, 8),
    num_classes=st.integers(2, 5),
    batch_sizes=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    input_dim=st.integers(2, 5),
)
@example(seed=0, capacity=1, num_classes=3, batch_sizes=[0, 5, 0, 12, 1], input_dim=2)
@example(seed=1, capacity=8, num_classes=2, batch_sizes=[3, 0, 12, 9], input_dim=3)
def test_matches_reference_policy(seed, capacity, num_classes, batch_sizes, input_dim):
    """Random batch sequences agree with the independent row-by-row replay.

    Batches of 0-12 rows are empty, fill the bank part way, or exceed its
    capacity outright; between batches the frequencies are sometimes
    updated, and sometimes one class's value is copied to another to force
    victim ties.
    """
    rng = np.random.default_rng(seed)
    bank = MemoryBank(capacity, num_classes, input_dim)
    ref = ReferenceBank(capacity, num_classes)
    for n in batch_sizes:
        x = rng.normal(size=(n, input_dim))
        y = rng.integers(0, num_classes, size=n)
        expect_evicted = max(0, len(ref.items) + n - capacity)
        assert bank.insert(x, y) == expect_evicted
        for row_x, row_y in zip(x, y.tolist()):
            ref.insert(row_x, row_y)
        if rng.random() < 0.5:
            beta = float(rng.uniform(0.05, 1.0))
            bank.update_class_frequency(beta)
            ref.update_freq(beta)
            if rng.random() < 0.5:
                a, b = rng.choice(num_classes, size=2, replace=False)
                bank.class_frequency[b] = bank.class_frequency[a]
                ref.freq[b] = ref.freq[a]
        assert len(bank) == len(ref.items) <= capacity
        feats, labels = bank.contents()
        assert list(labels) == ref.labels()
        assert np.array_equal(feats, ref.features().reshape(feats.shape))
    assert np.allclose(bank.class_frequency, ref.freq, atol=1e-12)
