"""Network forward/backward semantics, checkpoint IO, pretraining."""

import copy

import numpy as np
import pytest

from conftest import (
    fd_param_gradient,
    joint_rel_err,
    make_random_model,
    min_abs_preactivation,
    param_slots,
)
from stamp_tta import datagen, diffnet, losses
from stamp_tta.diffnet import ForwardMode, Model
from stamp_tta.errors import ConfigError, NumericalError


def snapshot_arrays(model):
    out = []
    for layer in model.layers:
        out.append(layer.weight.copy())
        out.append(layer.bias.copy())
        if layer.bn is not None:
            out += [
                layer.bn.gamma.copy(),
                layer.bn.beta.copy(),
                layer.bn.running_mean.copy(),
                layer.bn.running_var.copy(),
            ]
    return out


def arrays_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestInit:
    def test_architecture(self):
        m = diffnet.init_model(2, (32, 32), 4, seed=0)
        assert [l.weight.shape for l in m.layers] == [(2, 32), (32, 32), (32, 4)]
        assert m.layers[-1].bn is None
        assert all(l.bn is not None for l in m.layers[:-1])
        assert all(l.weight.dtype == np.float64 for l in m.layers)

    def test_determinism(self):
        a = diffnet.init_model(3, (8,), 5, seed=11)
        b = diffnet.init_model(3, (8,), 5, seed=11)
        assert arrays_equal(snapshot_arrays(a), snapshot_arrays(b))

    def test_validation(self):
        with pytest.raises(ConfigError):
            diffnet.init_model(2, (), 4, seed=0)
        with pytest.raises(ConfigError):
            diffnet.init_model(2, (8, 0), 4, seed=0)
        with pytest.raises(ConfigError):
            diffnet.init_model(2, (8,), 1, seed=0)
        with pytest.raises(ConfigError):
            diffnet.init_model(0, (8,), 4, seed=0)


class TestForward:
    def test_rows_sum_to_one(self):
        m = make_random_model(0)
        x = np.random.default_rng(0).normal(size=(9, 3))
        for mode in ForwardMode:
            p = diffnet.forward(m, x, mode)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(p >= 0)

    def test_finite_on_zero_input(self):
        m = make_random_model(1)
        p = diffnet.forward(m, np.zeros((2, 3)), ForwardMode.SOURCE_STATS)
        assert np.all(np.isfinite(p))

    def test_source_stats_is_pure(self):
        m = make_random_model(2)
        x = np.random.default_rng(1).normal(size=(5, 3))
        x_before = x.copy()
        before = snapshot_arrays(m)
        p1 = diffnet.forward(m, x, ForwardMode.SOURCE_STATS)
        p2 = diffnet.forward(m, x, ForwardMode.SOURCE_STATS)
        assert np.array_equal(p1, p2)
        assert arrays_equal(before, snapshot_arrays(m))
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("input_dim", [2, 5])
    @pytest.mark.parametrize("hidden", [(6, 5), (32, 32), (300,)])
    @pytest.mark.parametrize("n", [1, 2, 63, 1024, 1500])
    def test_source_stats_in_place_equals_cached(self, n, hidden, input_dim):
        m = make_random_model(8, input_dim=input_dim, hidden=hidden)
        x = np.random.default_rng(n).normal(size=(n, input_dim))
        cached, _ = diffnet.forward_cached(m, x, ForwardMode.SOURCE_STATS)
        assert np.array_equal(diffnet.forward(m, x, ForwardMode.SOURCE_STATS), cached)

    def test_source_stats_relu_zeroes_nan_units_like_cached(self):
        # a NaN pre-activation is zeroed by the ReLU, as np.where(y > 0, y, 0.0) does
        m = make_random_model(9)
        m.layers[0].bn.running_var[0] = np.nan
        x = np.random.default_rng(4).normal(size=(4, 3))
        cached, _ = diffnet.forward_cached(m, x, ForwardMode.SOURCE_STATS)
        assert np.all(np.isfinite(cached))
        assert np.array_equal(diffnet.forward(m, x, ForwardMode.SOURCE_STATS), cached)

        # layer 0's pre-activations set unit by unit through beta (zero weight,
        # bias 1, gamma -0.0, so gamma * x_hat is -0.0): every unit's post-ReLU
        # bytes match. A +inf unit (index 8) makes all of layer 1 NaN through a
        # zero weight row, and the ReLU zeroes that layer too. fmax alone
        # keeps the sign of some -0.0 inputs, depending on their position
        # (here an all -0.0 row shows it), so the row counts vary.
        special = [-0.0, 0.0, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.5]
        for beta in (special + [1.5, -0.0], special + [np.inf, -0.0], [-0.0] * 10):
            for n in (1, 3, 4):
                m = make_random_model(10, hidden=(10, 5))
                layer0 = m.layers[0]
                layer0.weight[:] = 0.0
                layer0.bias[:] = 1.0
                layer0.bn.running_mean[:] = 0.0
                layer0.bn.running_var[:] = 1.0
                layer0.bn.gamma[:] = -0.0
                layer0.bn.beta[:] = beta
                if np.inf in beta:
                    m.layers[1].weight[8] = 0.0
                scratch = []
                with np.errstate(invalid="ignore"):  # inf * 0 in layer 1 is the point
                    probs = diffnet.forward(m, x[:n], ForwardMode.SOURCE_STATS, scratch=scratch)
                    cached, cache = diffnet.forward_cached(m, x[:n], ForwardMode.SOURCE_STATS)
                assert probs.tobytes() == cached.tobytes()
                for i, buf in enumerate(scratch):
                    assert buf.tobytes() == cache.layers[i + 1].inputs.tobytes()
                assert not np.signbit(scratch[0]).any()  # every -0.0 became +0.0
                keep = np.array(beta) > 0  # subnormals, 1.5 and +inf pass unchanged
                assert np.array_equal(scratch[0][:, keep], np.tile(np.array(beta)[keep], (n, 1)))

    def test_scratch_reused_across_row_counts(self):
        m = make_random_model(11, input_dim=2, hidden=(32, 32))
        scratch = []
        held, rows = None, 0
        for n in (1024, 16, 1500, 64):
            rows = max(rows, n)
            x = np.random.default_rng(n).normal(size=(n, 2)) * 3
            cached, _ = diffnet.forward_cached(m, x, ForwardMode.SOURCE_STATS)
            probs = diffnet.forward(m, x, ForwardMode.SOURCE_STATS, scratch=scratch)
            assert probs.tobytes() == cached.tobytes()
            assert [buf.shape for buf in scratch] == [(rows, 32)] * 2
            if n in (16, 64):  # a smaller batch keeps the arrays it found
                assert all(a is b for a, b in zip(scratch, held, strict=True))
            held = list(scratch)

    def test_results_never_alias_scratch(self):
        m = make_random_model(12, input_dim=2, hidden=(32, 32))
        scratch = []
        kept = []
        for n in (64, 64, 8, 128):
            x = np.random.default_rng(n + len(kept)).normal(size=(n, 2))
            probs = diffnet.forward(m, x, ForwardMode.SOURCE_STATS, scratch=scratch)
            assert not any(np.shares_memory(probs, buf) for buf in scratch)
            kept.append((probs, probs.copy()))
        # later calls overwrote the scratch arrays but left every result alone
        assert all(np.array_equal(probs, copy) for probs, copy in kept)

    def test_source_stats_row_independence(self):
        # equality is to float accuracy, not bitwise: the matmul kernel may
        # reassociate sums differently for different batch shapes
        m = make_random_model(3)
        x = np.random.default_rng(2).normal(size=(6, 3))
        full = diffnet.forward(m, x, ForwardMode.SOURCE_STATS)
        rows = np.concatenate(
            [diffnet.forward(m, x[i : i + 1], ForwardMode.SOURCE_STATS) for i in range(6)]
        )
        assert np.allclose(full, rows, rtol=1e-12, atol=1e-15)

    def test_batch_stats_requires_two_rows(self):
        m = make_random_model(4)
        with pytest.raises(ValueError):
            diffnet.forward(m, np.zeros((1, 3)), ForwardMode.BATCH_STATS)

    def test_input_dim_mismatch(self):
        m = make_random_model(5)
        with pytest.raises(ValueError):
            diffnet.forward(m, np.zeros((2, 4)), ForwardMode.SOURCE_STATS)

    def test_update_stats_only_in_batch_mode(self):
        m = make_random_model(6)
        with pytest.raises(ValueError):
            diffnet.forward(m, np.zeros((2, 3)), ForwardMode.SOURCE_STATS, update_stats=True)

    def test_batch_stats_pure_without_flag(self):
        m = make_random_model(7)
        x = np.random.default_rng(3).normal(size=(5, 3))
        before = snapshot_arrays(m)
        diffnet.forward(m, x, ForwardMode.BATCH_STATS)
        assert arrays_equal(before, snapshot_arrays(m))

    def test_running_update_uses_unbiased_variance(self):
        m = diffnet.init_model(2, (3,), 2, seed=0)
        bn = m.layers[0].bn
        rm0, rv0 = bn.running_mean.copy(), bn.running_var.copy()
        x = np.random.default_rng(4).normal(size=(8, 2))
        diffnet.forward(m, x, ForwardMode.BATCH_STATS, update_stats=True)
        z = x @ m.layers[0].weight + m.layers[0].bias
        expect_mean = (1 - bn.momentum) * rm0 + bn.momentum * z.mean(axis=0)
        expect_var = (1 - bn.momentum) * rv0 + bn.momentum * z.var(axis=0, ddof=1)
        assert np.allclose(bn.running_mean, expect_mean, atol=1e-12)
        assert np.allclose(bn.running_var, expect_var, atol=1e-12)

    def test_batch_normalization_uses_biased_variance(self):
        m = diffnet.init_model(2, (3,), 2, seed=1)
        # isolate the BN output by reading the cache
        x = np.random.default_rng(5).normal(size=(6, 2))
        _, cache = diffnet.forward_cached(m, x, ForwardMode.BATCH_STATS)
        lc = cache.layers[0]
        z = x @ m.layers[0].weight + m.layers[0].bias
        expect = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + m.layers[0].bn.eps)
        assert np.allclose(lc.x_hat, expect, atol=1e-12)

    def test_source_stats_normalizes_with_running_buffers(self):
        m = make_random_model(8)
        x = np.random.default_rng(6).normal(size=(4, 3))
        _, cache = diffnet.forward_cached(m, x, ForwardMode.SOURCE_STATS)
        lc = cache.layers[0]
        bn = m.layers[0].bn
        z = x @ m.layers[0].weight + m.layers[0].bias
        expect = (z - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        assert np.allclose(lc.x_hat, expect, atol=1e-12)


def own_arrays_in_layer_order(model, wrt):
    return [getattr(owner, attr) for owner, attr in param_slots(model, wrt)]


class TestParams:
    def test_adaptable_is_bn_only_and_ordered(self):
        # the model's own arrays, not copies: gamma0, beta0, gamma1, beta1
        m = diffnet.init_model(2, (4, 4), 3, seed=0)
        got = diffnet.params(m, "adaptable")
        expect = own_arrays_in_layer_order(m, "adaptable")
        assert len(got) == len(expect) == 4
        assert all(a is b for a, b in zip(got, expect))

    def test_all_is_every_array_in_layer_order(self):
        m = diffnet.init_model(2, (4, 4), 3, seed=0)
        got = diffnet.params(m, "all")
        expect = own_arrays_in_layer_order(m, "all")
        assert len(got) == len(expect) == 10
        assert all(a is b for a, b in zip(got, expect))

    def test_bn_free_model_rejected(self):
        m = diffnet.init_model(2, (4,), 3, seed=0)
        m.layers[0].bn = None
        with pytest.raises(ConfigError):
            diffnet.params(m)

    def test_get_set_round_trip(self):
        m = make_random_model(9)
        live = diffnet.params(m)
        values = [p + 1.0 for p in live]
        diffnet.set_params(m, values)
        after = diffnet.params(m)
        assert all(a is b for a, b in zip(after, live))  # written in place
        assert all(np.array_equal(a, v) for a, v in zip(after, values))

    def test_set_params_shape_check(self):
        m = make_random_model(10)
        values = [p.copy() for p in diffnet.params(m)]
        with pytest.raises(ValueError):
            diffnet.set_params(m, [np.zeros(3)] + values[1:])
        with pytest.raises(ValueError):
            diffnet.set_params(m, values[:-1])

    def test_unknown_parameter_name(self):
        # the only names left are those of the two parameter sets
        m = make_random_model(11)
        with pytest.raises(ValueError):
            diffnet.params(m, "bn")


class TestBackward:
    def _check_fd(self, seed, mode, loss_name):
        rng = np.random.default_rng(seed)
        for attempt in range(50):
            m = make_random_model(seed * 100 + attempt)
            x = rng.normal(size=(5, 3))
            if min_abs_preactivation(m, x, mode) > 1e-4:
                break
        else:  # pragma: no cover
            pytest.fail("no kink-free instance found")
        if loss_name == "xent":
            y = rng.integers(0, 4, size=5)
            loss_fn = lambda z: losses.cross_entropy_loss(z, y)
        else:
            loss_fn = losses.make_entropy_objective(loss_name)
        _, g = diffnet.grad(m, x, mode, loss_fn, wrt="all")
        fd = fd_param_gradient(m, "all", x, mode, loss_fn)
        assert [a.shape for a in g] == [b.shape for b in fd]
        assert joint_rel_err(g, fd) < 1e-6

    @pytest.mark.parametrize("mode", list(ForwardMode))
    @pytest.mark.parametrize("loss_name", ["plain", "self", "xent"])
    def test_full_parameter_fd(self, mode, loss_name):
        self._check_fd(13, mode, loss_name)

    def test_adaptable_subset_matches_full(self):
        m = make_random_model(14)
        x = np.random.default_rng(14).normal(size=(6, 3))
        loss_fn = losses.make_entropy_objective("self")
        _, g_all = diffnet.grad(m, x, ForwardMode.BATCH_STATS, loss_fn, wrt="all")
        _, g_adapt = diffnet.grad(m, x, ForwardMode.BATCH_STATS, loss_fn, wrt="adaptable")
        # all: w0 b0 gamma0 beta0 w1 b1 gamma1 beta1 w2 b2
        assert len(g_adapt) == 4 and len(g_all) == 10
        for a, k in zip(g_adapt, (2, 3, 6, 7)):
            assert np.array_equal(a, g_all[k])

    def test_uniform_output_model_has_zero_gradient(self):
        # zeroed head: logits are identically 0, entropy is flat in every
        # parameter direction, so all gradients vanish by symmetry
        m = make_random_model(15)
        m.layers[-1].weight = np.zeros_like(m.layers[-1].weight)
        m.layers[-1].bias = np.zeros_like(m.layers[-1].bias)
        x = np.random.default_rng(15).normal(size=(4, 3))
        loss_fn = losses.make_entropy_objective("plain")
        _, g = diffnet.grad(m, x, ForwardMode.BATCH_STATS, loss_fn, wrt="all")
        for k, arr in enumerate(g):
            assert np.allclose(arr, 0.0, atol=1e-12), k

    def test_hidden_bias_gradient_vanishes_under_batch_stats(self):
        # batch normalization removes the batch mean, so a bias shift before
        # it cannot move the loss
        m = make_random_model(16)
        x = np.random.default_rng(16).normal(size=(5, 3))
        loss_fn = losses.make_entropy_objective("plain")
        _, g = diffnet.grad(m, x, ForwardMode.BATCH_STATS, loss_fn, wrt="all")
        layer0_bias, layer1_bias, head_bias = g[1], g[5], g[9]
        assert np.allclose(layer0_bias, 0.0, atol=1e-12)
        assert np.allclose(layer1_bias, 0.0, atol=1e-12)
        assert not np.allclose(head_bias, 0.0, atol=1e-12)

    def test_non_finite_loss_raises(self):
        m = make_random_model(17)
        x = np.random.default_rng(17).normal(size=(3, 3))

        def bad_loss(logits):
            return float("nan"), np.zeros_like(logits)

        with pytest.raises(NumericalError):
            diffnet.grad(m, x, ForwardMode.SOURCE_STATS, bad_loss)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_gradient_names_parameter(self):
        m = make_random_model(18)
        x = np.random.default_rng(18).normal(size=(3, 3))

        def bad_loss(logits):
            return 0.0, np.full_like(logits, np.inf)

        with pytest.raises(NumericalError) as err:
            diffnet.grad(m, x, ForwardMode.SOURCE_STATS, bad_loss)
        assert "layers." in str(err.value)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "wrt,name", [("adaptable", "layers.0.bn.gamma"), ("all", "layers.0.weight")]
    )
    def test_non_finite_gradient_name_follows_params_order(self, wrt, name):
        # every gradient is non-finite, so the error names params(model, wrt)[0]
        m = make_random_model(18)
        x = np.random.default_rng(18).normal(size=(3, 3))

        def bad_loss(logits):
            return 0.0, np.full_like(logits, np.inf)

        with pytest.raises(NumericalError, match=f"non-finite gradient for {name}$"):
            diffnet.grad(m, x, ForwardMode.SOURCE_STATS, bad_loss, wrt=wrt)


class TestSnapshotAndCheckpoint:
    def test_snapshot_is_independent(self):
        m = make_random_model(19)
        snap = diffnet.snapshot_source(m)
        m.layers[0].bn.gamma += 5.0
        assert not np.array_equal(snap.layers[0].bn.gamma, m.layers[0].bn.gamma)
        snap2 = diffnet.snapshot_source(snap)
        assert arrays_equal(snapshot_arrays(snap), snapshot_arrays(snap2))

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        m = make_random_model(20)
        diffnet.forward(
            m, np.random.default_rng(1).normal(size=(8, 3)),
            ForwardMode.BATCH_STATS, update_stats=True,
        )
        path = tmp_path / "model.npz"
        diffnet.save_model(m, path)
        loaded = diffnet.load_model(path)
        assert arrays_equal(snapshot_arrays(m), snapshot_arrays(loaded))
        assert loaded.input_dim == m.input_dim
        assert loaded.num_classes == m.num_classes
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert np.array_equal(
            diffnet.forward(m, x, ForwardMode.SOURCE_STATS),
            diffnet.forward(loaded, x, ForwardMode.SOURCE_STATS),
        )

    def test_checkpoint_key_list(self, tmp_path):
        path = tmp_path / "model.npz"
        diffnet.save_model(make_random_model(21), path)
        bn = ("gamma", "beta", "running_mean", "running_var")
        with np.load(path) as data:
            assert data.files == [
                "meta",
                "layers.0.weight",
                "layers.0.bias",
                *(f"layers.0.bn.{a}" for a in bn),
                "layers.1.weight",
                "layers.1.bias",
                *(f"layers.1.bn.{a}" for a in bn),
                "layers.2.weight",
                "layers.2.bias",
            ]

    def test_load_rejects_file_without_metadata(self, tmp_path):
        path = tmp_path / "bad.npz"
        with open(path, "wb") as fh:
            np.savez(fh, junk=np.zeros(3))
        with pytest.raises(ConfigError):
            diffnet.load_model(path)


class TestPretrain:
    def _source(self, n=600, seed=0):
        return datagen.gen_source(3, 2, n, seed)

    def test_reaches_high_accuracy_on_blobs(self):
        x, y = self._source()
        m = diffnet.init_model(2, (16, 16), 3, seed=0)
        diffnet.pretrain(m, x[:450], y[:450], epochs=30, lr=0.05, seed=0)
        assert diffnet.evaluate_accuracy(m, x[450:], y[450:]) >= 0.95

    def test_deterministic(self):
        x, y = self._source()
        runs = []
        for _ in range(2):
            m = diffnet.init_model(2, (8,), 3, seed=3)
            diffnet.pretrain(m, x, y, epochs=3, lr=0.05, seed=3)
            runs.append(snapshot_arrays(m))
        assert arrays_equal(*runs)

    def test_zero_epochs_is_identity(self):
        x, y = self._source(n=60)
        m = diffnet.init_model(2, (8,), 3, seed=4)
        before = snapshot_arrays(m)
        diffnet.pretrain(m, x, y, epochs=0, lr=0.05, seed=4)
        assert arrays_equal(before, snapshot_arrays(m))

    def test_label_out_of_range(self):
        x, y = self._source(n=60)
        m = diffnet.init_model(2, (8,), 3, seed=5)
        with pytest.raises(ValueError):
            diffnet.pretrain(m, x, np.full_like(y, 7), epochs=1, lr=0.05, seed=5)
