"""Replay memory policy: admission filters, eviction order, frequency updates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        assert v.entropy[0] == pytest.approx(math.log(4), abs=1e-12)

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
        assert np.array_equal(batch.entropy, [v.entropy[0] for v in rows])
        assert batch.consistent[60] and not batch.confident[60]  # strict at ln C
        assert batch.consistent.any() and not batch.consistent.all()
        assert batch.confident.any()


class TestInsertEvict:
    def test_grows_until_capacity(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        for i in range(3):
            assert bank.insert(vec(i, 0), 0) is None
        assert len(bank) == 3

    def test_never_exceeds_capacity(self):
        bank = MemoryBank(4, num_classes=3, input_dim=2)
        for i in range(20):
            bank.insert(vec(i, 0), i % 3)
            bank.update_class_frequency(0.1)
            assert len(bank) <= 4

    def test_evicts_oldest_of_highest_frequency_class(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        bank.insert(vec(0, 0), 0)
        bank.insert(vec(1, 0), 0)
        bank.insert(vec(2, 0), 1)
        bank.class_frequency = np.array([5.0, 1.0])
        evicted = bank.insert(vec(3, 0), 1)
        assert evicted is not None
        assert evicted.label == 0
        assert np.array_equal(evicted.features, vec(0, 0))  # oldest of class 0
        _, labels = bank.contents()
        assert list(labels) == [0, 1, 1]

    def test_eviction_restricted_to_present_classes(self):
        bank = MemoryBank(2, num_classes=3, input_dim=2)
        bank.insert(vec(0, 0), 1)
        bank.insert(vec(1, 0), 2)
        # class 0 has the max frequency but is absent; next is class 2
        bank.class_frequency = np.array([9.0, 1.0, 2.0])
        evicted = bank.insert(vec(2, 0), 1)
        assert evicted.label == 2

    def test_frequency_ties_break_low_class_index(self):
        bank = MemoryBank(2, num_classes=3, input_dim=2)
        bank.insert(vec(0, 0), 2)
        bank.insert(vec(1, 0), 1)
        bank.class_frequency = np.array([0.0, 3.0, 3.0])
        evicted = bank.insert(vec(2, 0), 0)
        assert evicted.label == 1

    def test_label_range_checked(self):
        bank = MemoryBank(2, num_classes=2, input_dim=2)
        with pytest.raises(ValueError):
            bank.insert(vec(0, 0), 2)
        with pytest.raises(ValueError):
            bank.insert(vec(0, 0), -1)

    def test_feature_width_checked(self):
        bank = MemoryBank(2, num_classes=2, input_dim=3)
        with pytest.raises(ValueError):
            bank.insert(vec(0, 0), 0)
        with pytest.raises(ConfigError):
            MemoryBank(2, num_classes=2, input_dim=0)

    def test_contents_are_copies_in_insertion_order(self):
        bank = MemoryBank(3, num_classes=2, input_dim=2)
        bank.insert(vec(1, 1), 0)
        bank.insert(vec(2, 2), 1)
        feats, labels = bank.contents()
        assert np.array_equal(feats, [[1, 1], [2, 2]])
        assert list(labels) == [0, 1]
        feats[0, 0] = 99.0
        assert bank.contents()[0][0, 0] == 1.0


class TestFrequencyUpdate:
    def test_exponential_update_formula(self):
        bank = MemoryBank(4, num_classes=3, input_dim=2)
        bank.insert(vec(0, 0), 0)
        bank.insert(vec(1, 0), 0)
        bank.insert(vec(2, 0), 2)
        out = bank.update_class_frequency(0.1)
        assert np.allclose(out, [0.2, 0.0, 0.1], atol=1e-15)
        out = bank.update_class_frequency(0.1)
        assert np.allclose(out, [0.9 * 0.2 + 0.2, 0.0, 0.9 * 0.1 + 0.1], atol=1e-15)

    def test_beta_validated(self):
        bank = MemoryBank(2, num_classes=2, input_dim=2)
        with pytest.raises(ConfigError):
            bank.update_class_frequency(0.0)
        with pytest.raises(ConfigError):
            bank.update_class_frequency(1.5)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(1, 8),
    num_classes=st.integers(2, 5),
    n_ops=st.integers(1, 120),
    input_dim=st.integers(2, 5),
)
def test_matches_reference_policy(seed, capacity, num_classes, n_ops, input_dim):
    """Random op sequences agree with the independent reference replay."""
    rng = np.random.default_rng(seed)
    bank = MemoryBank(capacity, num_classes, input_dim)
    ref = ReferenceBank(capacity, num_classes)
    for _ in range(n_ops):
        if rng.random() < 0.8:
            x = rng.normal(size=input_dim)
            y = int(rng.integers(0, num_classes))
            bank.insert(x, y)
            ref.insert(x, y)
        else:
            beta = float(rng.uniform(0.05, 1.0))
            bank.update_class_frequency(beta)
            ref.update_freq(beta)
        assert len(bank) == len(ref.items) <= capacity
        _, labels = bank.contents()
        assert list(labels) == ref.labels()
    feats, _ = bank.contents()
    if len(bank):
        assert np.array_equal(feats, ref.features())
    assert np.allclose(bank.class_frequency, ref.freq, atol=1e-12)
