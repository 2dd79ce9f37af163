"""Schedule exactness, SGD/SAM step semantics, hand-traced SAM values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_model
from stamp_tta import diffnet, losses, optim
from stamp_tta.diffnet import ForwardMode
from stamp_tta.errors import ConfigError, NumericalError


class TestCosineSchedule:
    def test_exact_anchor_points(self):
        base, horizon = 0.2, 150
        expected = {
            0: base,
            horizon // 2: 0.5 * base,
            horizon: 0.0,
            2 * horizon: 0.0,
        }
        for t, want in expected.items():
            assert abs(optim.cosine_lr(base, horizon, t) - want) < 1e-15

    def test_clamped_beyond_horizon(self):
        assert optim.cosine_lr(1.0, 10, 11) == 0.0

    def test_monotone_nonincreasing(self):
        values = [optim.cosine_lr(0.3, 37, t) for t in range(80)]
        assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            optim.cosine_lr(0.0, 10, 0)
        with pytest.raises(ConfigError):
            optim.cosine_lr(0.1, 0, 0)
        with pytest.raises(ConfigError):
            optim.cosine_lr(0.1, 10, -1)

    @settings(max_examples=50, deadline=None)
    @given(
        base=st.floats(1e-6, 10.0),
        horizon=st.integers(1, 10_000),
        t=st.integers(0, 30_000),
    )
    def test_bounded_by_base(self, base, horizon, t):
        lr = optim.cosine_lr(base, horizon, t)
        assert 0.0 <= lr <= base


def quadratic_grad_fn(params):
    # f(theta) = 0.5 * theta^2 summed over entries
    (theta,) = params
    return float(0.5 * np.sum(theta**2)), [theta.copy()]


class TestScalarSteps:
    def test_sam_hand_trace_quadratic(self):
        # theta = 1, rho = 0.1, lr = 0.5: ascend to 1.1, descend with slope
        # 1.1, land exactly on 0.45
        params = [np.array([1.0])]
        out, loss = optim.sam_step(params, quadratic_grad_fn, 0.1, lr=0.5)
        assert abs(out[0][0] - 0.45) < 1e-12
        assert loss == pytest.approx(0.5)

    def test_rho_zero_is_sgd_bit_exact(self):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=5), rng.normal(size=(3, 2))]

        def grad_fn(p):
            return 0.0, [np.sin(v) + 0.3 * v for v in p]

        sgd, _ = optim.sgd_step(params, grad_fn, lr=0.07)
        sam, _ = optim.sam_step(params, grad_fn, 0.0, lr=0.07)
        for a, b in zip(sgd, sam, strict=True):
            assert np.array_equal(a, b)

    def test_norm_floor_skips_perturbation(self):
        calls = []

        def counting_grad_fn(p):
            calls.append(1)
            return 0.0, [np.zeros(3)]

        params = [np.ones(3)]
        out, _ = optim.sam_step(params, counting_grad_fn, 0.05, lr=0.5)
        assert len(calls) == 1  # no second evaluation
        assert np.array_equal(out[0], params[0])

        # rho 0 takes the same branch above the floor: one evaluation, the
        # plain step
        calls.clear()

        def counting_quadratic(p):
            calls.append(1)
            return quadratic_grad_fn(p)

        out, _ = optim.sam_step(params, counting_quadratic, 0.0, lr=0.5)
        assert len(calls) == 1
        assert np.array_equal(out[0], params[0] - 0.5 * params[0])

    def test_sam_evaluates_twice_when_gradient_nonzero(self):
        seen = []

        def recording_grad_fn(p):
            seen.append(p[0].copy())
            return quadratic_grad_fn(p)

        params = [np.array([2.0])]
        optim.sam_step(params, recording_grad_fn, 0.1, lr=0.1)
        assert len(seen) == 2
        assert seen[1][0] == pytest.approx(2.1, abs=1e-12)  # rho along unit grad

    def test_inputs_not_mutated(self):
        params = [np.array([1.0, -2.0])]
        before = params[0].copy()
        optim.sgd_step(params, quadratic_grad_fn, lr=0.3)
        optim.sam_step(params, quadratic_grad_fn, 0.1, lr=0.3)
        assert np.array_equal(params[0], before)

    def test_joint_norm_across_tensors(self):
        # gradient (3, 4) across two tensors: joint norm 5, perturbation
        # rho * (3/5, 4/5)
        def grad_fn(p):
            return 0.0, [np.array([3.0]), np.array([4.0])]

        seen = []

        def recording(p):
            seen.append((p[0].copy(), p[1].copy()))
            return grad_fn(p)

        params = [np.array([0.0]), np.array([0.0])]
        optim.sam_step(params, recording, 1.0, lr=0.0)
        a, b = seen[1]
        assert a[0] == pytest.approx(0.6, abs=1e-12)
        assert b[0] == pytest.approx(0.8, abs=1e-12)

    def test_non_finite_gradient_raises_with_name(self):
        # a parameter list names its entries by position
        def bad_grad_fn(p):
            return 0.0, [np.ones(1), np.array([np.nan])]

        with pytest.raises(NumericalError) as err:
            optim.sgd_step([np.ones(1), np.ones(1)], bad_grad_fn, lr=0.1)
        assert "gradient 1 " in str(err.value)

    def test_rho_validation(self):
        with pytest.raises(ConfigError):
            optim.sam_step([np.ones(1)], quadratic_grad_fn, -0.1, lr=0.1)


class TestModelUpdates:
    def _setup(self, seed):
        model = make_random_model(seed)
        x = np.random.default_rng(seed).normal(size=(6, 3))
        return model, x

    def test_rho_zero_matches_sgd_on_network(self):
        loss_fn = losses.make_entropy_objective("self")
        m1, x = self._setup(31)
        m2 = diffnet.snapshot_source(m1)
        optim.sgd_update(m1, x, ForwardMode.BATCH_STATS, loss_fn, lr=0.05)
        optim.sam_update(m2, x, ForwardMode.BATCH_STATS, loss_fn, 0.0, lr=0.05)
        for k, (p1, p2) in enumerate(zip(diffnet.params(m1), diffnet.params(m2))):
            assert np.array_equal(p1, p2), k

    def test_updates_touch_only_the_bn_arrays(self):
        loss_fn = losses.make_entropy_objective("plain")
        model, x = self._setup(32)
        frozen_before = [
            a.copy() for layer in model.layers for a in (layer.weight, layer.bias)
        ]
        adaptable_before = [p.copy() for p in diffnet.params(model)]
        optim.sam_update(model, x, ForwardMode.BATCH_STATS, loss_fn, 0.05, lr=0.1)
        frozen_after = [a for layer in model.layers for a in (layer.weight, layer.bias)]
        for k, (before, after) in enumerate(zip(frozen_before, frozen_after)):
            assert np.array_equal(before, after), k
        moved = any(
            not np.array_equal(before, after)
            for before, after in zip(adaptable_before, diffnet.params(model))
        )
        assert moved

    def test_update_writes_into_the_models_own_arrays(self):
        loss_fn = losses.make_entropy_objective("plain")
        model, x = self._setup(35)
        live = diffnet.params(model)
        before = [p.copy() for p in live]
        optim.sam_update(model, x, ForwardMode.BATCH_STATS, loss_fn, 0.05, lr=0.1)
        after = diffnet.params(model)
        assert all(a is b for a, b in zip(after, live))
        assert any(not np.array_equal(a, b) for a, b in zip(after, before))

    def test_descends_the_loss(self):
        loss_fn = losses.make_entropy_objective("plain")
        model, x = self._setup(33)
        before, _ = diffnet.grad(model, x, ForwardMode.BATCH_STATS, loss_fn)
        for _ in range(5):
            optim.sgd_update(model, x, ForwardMode.BATCH_STATS, loss_fn, lr=0.05)
        after, _ = diffnet.grad(model, x, ForwardMode.BATCH_STATS, loss_fn)
        assert after < before

    def test_update_stats_folds_batch_once(self):
        # the SAM second forward must not update running stats a second time:
        # one sam_update equals one explicit stats update plus the same step
        loss_fn = losses.make_entropy_objective("plain")
        m1, x = self._setup(34)
        m2 = diffnet.snapshot_source(m1)
        optim.sam_update(
            m1, x, ForwardMode.BATCH_STATS, loss_fn, 0.05, lr=0.1, update_stats=True
        )
        diffnet.forward(m2, x, ForwardMode.BATCH_STATS, update_stats=True)
        for l1, l2 in zip(m1.layers[:-1], m2.layers[:-1]):
            assert np.array_equal(l1.bn.running_mean, l2.bn.running_mean)
            assert np.array_equal(l1.bn.running_var, l2.bn.running_var)
