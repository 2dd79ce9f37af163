"""Loss family: values against frozen oracles, gradients against central FD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_logit_gradient, joint_rel_err
from stamp_tta import losses
from stamp_tta.errors import NumericalError

# Frozen oracle values, computed once at 40-digit precision (mpmath) and
# pinned here. The weighted value is sum(softmax(-H) * H) at H = (0.2, 1.0).
WEIGHTED_VALUE_AT_02_10 = 0.44802041509791004589
SELF_DLDH_AT_02_10 = (0.861102238343847982, 0.138897761656152018)
EATA_VALUE_AT_02_10 = 0.462806958392841881  # h_thr = 0.4 * ln 4
ENTROPY_07_02_01 = 0.801818552543
ENTROPY_09_01 = 0.325082973391


def weighted(logits, name, h_thr=None):
    """(value, logit gradient) of one losses.WEIGHTINGS entry."""
    return losses.make_entropy_objective(name, h_thr=h_thr)(logits)


def three_class_logits_with_entropy(target_h):
    """Logits of a (a, b, b) distribution with the requested entropy."""
    lo, hi = 1.0 / 3.0, 1.0 - 1e-12
    for _ in range(200):
        a = 0.5 * (lo + hi)
        b = (1.0 - a) / 2.0
        h = -(a * math.log(a) + 2 * b * math.log(b))
        if h > target_h:
            lo = a
        else:
            hi = a
    a = 0.5 * (lo + hi)
    b = (1.0 - a) / 2.0
    return np.log(np.array([a, b, b]))


class TestSoftmaxEntropy:
    def test_softmax_rows_normalize(self):
        z = np.random.default_rng(0).normal(size=(7, 5)) * 3
        p = losses.softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p > 0)

    def test_softmax_matches_direct_formula(self):
        z = np.array([[0.3, -1.2, 2.0]])
        direct = np.exp(z) / np.exp(z).sum()
        assert np.allclose(losses.softmax(z), direct, atol=1e-15)

    def test_softmax_shift_invariance(self):
        z = np.random.default_rng(1).normal(size=(4, 3))
        assert np.allclose(losses.softmax(z), losses.softmax(z + 100.0), atol=1e-12)

    def test_softmax_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            losses.softmax(np.array([[np.nan, 0.0]]))

    def test_entropy_frozen_values(self):
        assert losses.entropy(np.array([0.7, 0.2, 0.1])) == pytest.approx(
            ENTROPY_07_02_01, abs=1e-9
        )
        assert losses.entropy(np.array([0.9, 0.1])) == pytest.approx(
            ENTROPY_09_01, abs=1e-9
        )

    def test_entropy_uniform_is_log_c(self):
        for c in (2, 4, 10):
            assert losses.entropy(np.full(c, 1.0 / c)) == pytest.approx(
                math.log(c), abs=1e-12
            )

    def test_entropy_degenerate_is_zero_not_nan(self):
        assert losses.entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_entropy_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            losses.entropy(np.array([0.5, -0.5, 1.0]))
        with pytest.raises(ValueError):
            losses.entropy(np.array([0.5, 0.4]))

    def test_entropy_rowwise(self):
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        h = losses.entropy(p)
        assert h.shape == (2,)
        assert h[0] == pytest.approx(math.log(2), abs=1e-12)
        assert h[1] == 0.0


class TestWeightedValues:
    def setup_method(self):
        self.z = np.stack(
            [three_class_logits_with_entropy(0.2), three_class_logits_with_entropy(1.0)]
        )

    def test_self_weighted_value_matches_frozen_oracle(self):
        value, _ = weighted(self.z, "self")
        assert value == pytest.approx(WEIGHTED_VALUE_AT_02_10, abs=1e-9)

    def test_static_value_equals_self_value(self):
        v_self, g_self = weighted(self.z, "self")
        v_static, g_static = weighted(self.z, "static")
        assert v_static == pytest.approx(v_self, abs=1e-15)
        # same value, different gradient: the weight path is detached
        assert joint_rel_err(g_self, g_static) > 1e-3

    def test_eata_value_matches_frozen_oracle(self):
        thr = 0.4 * math.log(4)
        value, _ = weighted(self.z, "eata", h_thr=thr)
        assert value == pytest.approx(EATA_VALUE_AT_02_10, abs=1e-9)

    def test_eata_is_not_static_in_value_or_gradient(self):
        # the unnormalized threshold weighting must stay a distinct variant
        thr = 0.4 * math.log(4)
        v_e, g_e = weighted(self.z, "eata", h_thr=thr)
        v_s, g_s = weighted(self.z, "static")
        assert abs(v_e - v_s) > 1e-3
        assert joint_rel_err(g_e, g_s) > 1e-3

    def test_plain_is_mean_entropy(self):
        value, _ = weighted(self.z, "plain")
        assert value == pytest.approx(0.6, abs=1e-9)  # mean of 0.2 and 1.0

    def test_single_row_self_weighted_is_plain_entropy(self):
        row = self.z[:1]
        v, g = weighted(row, "self")
        assert v == pytest.approx(0.2, abs=1e-9)
        v_plain, g_plain = weighted(row, "plain")
        assert v == pytest.approx(v_plain, abs=1e-12)
        assert np.allclose(g, g_plain, atol=1e-12)

    def test_eata_requires_threshold(self):
        with pytest.raises(ValueError):
            weighted(self.z, "eata")
        with pytest.raises(ValueError):
            losses.make_entropy_objective("eata")

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValueError, match="unknown entropy weighting 'entropy'"):
            losses.make_entropy_objective("entropy")


class TestGradients:
    """Logit-space gradients against central finite differences.

    For the detached-weight variants (static, eata) the differentiated
    function freezes the weights at the evaluation point, which is exactly
    the stop-gradient semantics those losses define.
    """

    def _frozen_value_fn(self, strategy, z0, h_thr=None):
        p0 = losses.softmax(z0)
        h0 = losses.entropy(p0)
        if strategy == "static":
            w = losses.softmax(-h0)
        else:
            w = np.exp(h_thr - h0) / z0.shape[0]

        def value(z):
            return float(np.dot(w, losses.entropy(losses.softmax(z))))

        return value

    def test_plain_and_self_match_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=(rng.integers(1, 6), rng.integers(2, 6)))
            for strategy in ("plain", "self"):
                _, g = weighted(z, strategy)
                fd = fd_logit_gradient(lambda q: weighted(q, strategy)[0], z)
                assert joint_rel_err(g, fd) < 1e-6

    def test_detached_variants_match_frozen_fd(self):
        rng = np.random.default_rng(8)
        thr = 0.4 * math.log(4)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=(rng.integers(2, 6), 4))
            for strategy in ("static", "eata"):
                _, g = weighted(z, strategy, h_thr=thr)
                fd = fd_logit_gradient(self._frozen_value_fn(strategy, z, h_thr=thr), z)
                assert joint_rel_err(g, fd) < 1e-6

    def test_self_gradient_at_frozen_point(self):
        z = np.stack(
            [three_class_logits_with_entropy(0.2), three_class_logits_with_entropy(1.0)]
        )
        # chain check: dL/dz = dL/dH * dH/dz with the frozen dL/dH oracle
        _, g = weighted(z, "self")
        p = losses.softmax(z)
        logp = np.log(p)
        h = losses.entropy(p)
        dh_dz = -p * (logp + h[:, None])
        expected = np.asarray(SELF_DLDH_AT_02_10)[:, None] * dh_dz
        assert np.allclose(g, expected, atol=1e-9)

    def test_cross_entropy_value_and_gradient(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        value, g = losses.cross_entropy_loss(z, y)
        p = losses.softmax(z)
        assert value == pytest.approx(
            float(-np.log(p[np.arange(6), y]).mean()), abs=1e-12
        )
        fd = fd_logit_gradient(lambda q: losses.cross_entropy_loss(q, y)[0], z)
        assert joint_rel_err(g, fd) < 1e-6

    def test_cross_entropy_rejects_bad_labels(self):
        z = np.zeros((2, 3))
        with pytest.raises(ValueError):
            losses.cross_entropy_loss(z, np.array([0, 3]))
        with pytest.raises(ValueError):
            losses.cross_entropy_loss(z, np.array([-1, 0]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-15, 15), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    )
)
def test_gradient_rows_sum_to_zero(rows):
    """Softmax is shift-invariant, so every loss gradient row sums to 0."""
    z = np.asarray(rows)
    for name in losses.WEIGHTINGS:
        _, g = weighted(z, name, h_thr=0.5)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-10)
