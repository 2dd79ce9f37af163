"""Metric correctness: pairwise AUC oracle, ROC consistency, harmonic score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_auc
from stamp_tta import metrics

H_57_9_97_5 = 72.6544401544  # frozen harmonic mean oracle


class TestAccuracy:
    def test_counts_only_normals(self):
        preds = np.array([0, 1, 2, 0])
        labels = np.array([0, 1, -1, 1])
        outlier = np.array([False, False, True, False])
        assert metrics.accuracy(preds, labels, outlier) == pytest.approx(2 / 3)

    def test_requires_normals(self):
        with pytest.raises(ValueError):
            metrics.accuracy(np.array([0]), np.array([-1]), np.array([True]))


def direct_midranks(values):
    """Mean 1-based position, in sorted order, of each value's equal run."""
    ordered = np.sort(values)
    return np.array([np.flatnonzero(ordered == v).mean() + 1.0 for v in values])


class TestMidranks:
    @pytest.mark.parametrize(
        "values",
        [
            np.round(np.random.default_rng(0).normal(size=200), 1),
            np.round(np.random.default_rng(1).uniform(size=50), 2),
            np.full(7, 0.25),
            np.random.default_rng(2).permutation(40).astype(np.float64),
            np.array([3.5]),
        ],
        ids=["rounded_normal", "rounded_uniform", "all_equal", "all_distinct", "single"],
    )
    def test_matches_direct_definition(self, values):
        assert np.array_equal(metrics._midranks(values), direct_midranks(values))


class TestAuroc:
    def test_perfect_and_inverted_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        flags = np.array([False, False, True, True])
        assert metrics.auroc(scores, flags) == 1.0
        assert metrics.auroc(scores, ~flags) == 0.0

    def test_constant_scores_give_half(self):
        scores = np.zeros(10)
        flags = np.arange(10) < 4
        assert metrics.auroc(scores, flags) == 0.5

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(5, 60))
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1)
            flags = rng.random(n) < 0.4
            if flags.all() or not flags.any():
                continue
            assert metrics.auroc(scores, flags) == pytest.approx(
                brute_force_auc(scores, flags), abs=1e-12
            )

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            metrics.auroc(np.array([0.1, 0.2]), np.array([True, True]))
        with pytest.raises(ValueError):
            metrics.auroc(np.array([0.1, 0.2]), np.array([False, False]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            metrics.auroc(np.array([np.nan, 0.2]), np.array([True, False]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.booleans()), min_size=2, max_size=40
        ).filter(lambda rows: len({b for _, b in rows}) == 2)
    )
    def test_property_matches_oracle(self, rows):
        scores = np.array([float(s) for s, _ in rows])
        flags = np.array([b for _, b in rows])
        assert metrics.auroc(scores, flags) == pytest.approx(
            brute_force_auc(scores, flags), abs=1e-12
        )


class TestRocCurve:
    def _trapezoid(self, fpr, tpr):
        return float(np.trapezoid(tpr, fpr))

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.normal(size=50), 1)
        flags = rng.random(50) < 0.3
        fpr, tpr = metrics.roc_curve(scores, flags)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_one_point_per_distinct_threshold(self):
        scores = np.array([0.1, 0.1, 0.5, 0.9, 0.9])
        flags = np.array([False, False, True, False, True])
        fpr, tpr = metrics.roc_curve(scores, flags)
        assert len(fpr) == 4  # origin + 3 distinct scores

    def test_trapezoid_area_equals_rank_auc(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 80))
            scores = np.round(rng.normal(size=n), 1)
            flags = rng.random(n) < 0.35
            if flags.all() or not flags.any():
                continue
            fpr, tpr = metrics.roc_curve(scores, flags)
            assert self._trapezoid(fpr, tpr) == pytest.approx(
                metrics.auroc(scores, flags), abs=1e-12
            )


class TestHScore:
    def test_frozen_oracle_percent_scale(self):
        assert metrics.h_score(57.9, 97.5) == pytest.approx(H_57_9_97_5, abs=1e-9)

    def test_fraction_scale(self):
        assert metrics.h_score(0.579, 0.975) == pytest.approx(
            H_57_9_97_5 / 100.0, abs=1e-9
        )

    def test_degenerate_zero(self):
        assert metrics.h_score(0.0, 0.0) == 0.0

    def test_dominated_by_smaller_argument(self):
        assert metrics.h_score(0.1, 0.9) < 0.2
        with pytest.raises(ValueError):
            metrics.h_score(-0.1, 0.5)

    def test_symmetric(self):
        assert metrics.h_score(0.3, 0.8) == pytest.approx(metrics.h_score(0.8, 0.3))


class TestSummarize:
    def test_full_stream(self):
        preds = np.array([0, 1, 0, 2])
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([0, 1, -1, -1])
        outlier = np.array([False, False, True, True])
        s = metrics.summarize(preds, scores, labels, outlier)
        assert s.acc == 1.0
        assert s.auc == 1.0
        assert s.h == 1.0
        assert s.num_normal == 2 and s.num_outlier == 2

    def test_no_outliers_leaves_auc_none(self):
        s = metrics.summarize(
            np.array([0, 0]), np.array([0.1, 0.2]), np.array([0, 1]),
            np.array([False, False]),
        )
        assert s.acc == 0.5
        assert s.auc is None and s.h is None
