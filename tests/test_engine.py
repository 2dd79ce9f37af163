"""Adaptation loop semantics: emission order, toggles, baseline equivalences."""

import dataclasses

import numpy as np
import pytest

from conftest import ReferenceBank
from stamp_tta import config as config_mod
from stamp_tta import datagen, diffnet, engine, losses, optim
from stamp_tta.diffnet import ForwardMode
from stamp_tta.errors import ConfigError, NumericalError


def small_cfg(**overrides):
    cfg = config_mod.ExperimentConfig()
    cfg.data.num_samples = 320
    cfg.data.source_size = 600
    cfg.model.epochs = 25
    cfg.model.hidden_sizes = (16, 16)
    cfg.method.horizon = 5
    for key, value in overrides.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


@pytest.fixture(scope="module")
def trained_model():
    cfg = small_cfg()
    model, acc = engine.pretrain_source(cfg)
    assert acc >= cfg.model.accuracy_floor
    return model


def adaptable_snapshot(model):
    return [p.copy() for p in diffnet.params(model)]


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def model_arrays(model):
    """Every array a model holds, trained parameters and running statistics."""
    out = []
    for layer in model.layers:
        out += [layer.weight, layer.bias]
        if layer.bn is not None:
            bn = layer.bn
            out += [bn.gamma, bn.beta, bn.running_mean, bn.running_var]
    return out


class TestAveragedPrediction:
    def test_disabled_equals_plain_forward(self, trained_model):
        x = np.random.default_rng(0).normal(size=(5, 2)) * 3
        probs, preds = engine.averaged_prediction(
            trained_model, x, views=16, strength=1.0, seed=0, first_sample_id=0,
            enabled=False,
        )
        direct = diffnet.forward(trained_model, x, ForwardMode.SOURCE_STATS)
        assert np.array_equal(probs, direct)
        assert np.array_equal(preds, np.argmax(direct, axis=1))

    def test_strength_zero_equals_plain_forward(self, trained_model):
        x = np.random.default_rng(1).normal(size=(4, 2)) * 3
        probs, _ = engine.averaged_prediction(
            trained_model, x, views=16, strength=0.0, seed=0, first_sample_id=0
        )
        assert np.array_equal(
            probs, diffnet.forward(trained_model, x, ForwardMode.SOURCE_STATS)
        )

    def test_matches_per_sample_view_average(self, trained_model):
        x = np.random.default_rng(2).normal(size=(3, 2)) * 3
        probs, _ = engine.averaged_prediction(
            trained_model, x, views=8, strength=1.0, seed=7, first_sample_id=40
        )
        for i in range(3):
            views = datagen.augment_views(x[i : i + 1], 8, 1.0, seed=7, sample_id=40 + i)
            expect = diffnet.forward(
                trained_model, views, ForwardMode.SOURCE_STATS
            ).mean(axis=0)
            assert np.allclose(probs[i], expect, atol=1e-12)

    def test_deterministic(self, trained_model):
        x = np.random.default_rng(3).normal(size=(4, 2))
        a = engine.averaged_prediction(
            trained_model, x, views=4, strength=1.0, seed=0, first_sample_id=0
        )[0]
        b = engine.averaged_prediction(
            trained_model, x, views=4, strength=1.0, seed=0, first_sample_id=0
        )[0]
        assert np.array_equal(a, b)


class TestDetect:
    def test_threshold_inclusive(self):
        out = engine.detect(np.array([0.29, 0.30, 0.31]), 0.30)
        assert list(out) == [0, 1, 1]

    def test_positive_threshold_required(self):
        with pytest.raises(ConfigError):
            engine.detect(np.array([0.1]), 0.0)


class TestStampStep:
    def _state(self, model, **method_overrides):
        cfg = small_cfg()
        for k, v in method_overrides.items():
            setattr(cfg.method, k, v)
        return engine.build_state(model, cfg)

    def _batch(self, seed, n=16):
        cfg = small_cfg()
        stream = datagen.gen_stream(
            datagen.StreamConfig(
                num_classes=4, num_samples=n, batch_size=n, seed=seed
            )
        )
        return stream.features

    def test_state_keeps_a_copy_of_the_method_config(self, trained_model):
        cfg = small_cfg()
        state = engine.build_state(trained_model, cfg)
        assert state.cfg == cfg.method
        cfg.method.views = 3
        assert state.cfg.views == 16

    def test_emission_before_update(self, trained_model):
        state = self._state(trained_model)
        x = self._batch(0)
        # full pre-step copy: gamma/beta AND running stats (the update also
        # folds the replay batch into the running statistics)
        ref = diffnet.snapshot_source(state.model)
        before = adaptable_snapshot(state.model)
        preds, scores = engine.stamp_step(state, x)
        after = adaptable_snapshot(state.model)
        assert not params_equal(before, after)  # an update happened
        # emitted values match a recomputation with the pre-update model
        probs, expect_preds = engine.averaged_prediction(
            ref, x, state.cfg.views, state.cfg.aug_strength, state.seed, 0
        )
        assert np.array_equal(preds, expect_preds)
        assert np.allclose(scores, losses.entropy(probs), atol=1e-12)

    def test_admission_feeds_memory(self, trained_model):
        state = self._state(trained_model)
        x = self._batch(1)
        engine.stamp_step(state, x)
        assert 0 < len(state.bank) <= state.bank.capacity
        # every stored label is a class index
        _, labels = state.bank.contents()
        assert np.all((labels >= 0) & (labels < 4))

    def test_filtering_off_admits_everything(self, trained_model):
        state = self._state(trained_model, use_filtering=False)
        x = self._batch(2)
        engine.stamp_step(state, x)
        assert len(state.bank) == min(x.shape[0], state.bank.capacity)

    def test_memory_off_with_filtering_freezes_model(self, trained_model):
        state = self._state(
            trained_model,
            use_memory=False,
            rho=0.0,
            use_decay=False,
            weight_strategy="plain",
            use_augmentation=False,
        )
        x = self._batch(3)
        before = adaptable_snapshot(state.model)
        preds, scores = engine.stamp_step(state, x)
        assert params_equal(before, adaptable_snapshot(state.model))
        # and the emission equals the source baseline's view
        direct = diffnet.forward(trained_model, x, ForwardMode.SOURCE_STATS)
        assert np.array_equal(preds, np.argmax(direct, axis=1))
        assert np.allclose(scores, losses.entropy(direct), atol=1e-12)

    def test_all_toggles_off_equals_tent(self, trained_model):
        cfg = small_cfg()
        for name in ("use_memory", "use_filtering", "use_decay", "use_augmentation"):
            setattr(cfg.method, name, False)
        cfg.method.rho = 0.0
        cfg.method.weight_strategy = "plain"
        degenerate = engine.build_state(trained_model, cfg)

        tent_cfg = small_cfg()
        tent_cfg.method.name = "tent"
        tent = engine.build_state(trained_model, tent_cfg)

        for seed in range(4):
            x = self._batch(seed + 10, n=32)
            p1, s1 = engine.stamp_step(degenerate, x)
            p2, s2 = engine.baseline_step(tent, x)
            assert params_equal(
                adaptable_snapshot(degenerate.model), adaptable_snapshot(tent.model)
            )
        # degenerate emissions use source-stats views while tent scores its
        # batch-stats view; parameters evolve identically either way

    def test_memory_with_single_entry_skips_update(self, trained_model):
        cfg = small_cfg()
        cfg.method.capacity = 1
        state = engine.build_state(trained_model, cfg)
        x = self._batch(4)
        before = adaptable_snapshot(state.model)
        engine.stamp_step(state, x)
        # capacity 1 leaves at most one stored sample: no batch statistics,
        # no update
        assert len(state.bank) <= 1
        assert params_equal(before, adaptable_snapshot(state.model))

    def test_same_size_batches_reuse_the_scratch_arrays(self, trained_model):
        state = self._state(trained_model)
        preds, _ = engine.stamp_step(state, self._batch(0))
        held = list(state.scratch)
        assert [buf.shape for buf in held] == [(16 * 16, 16)] * 2
        engine.stamp_step(state, self._batch(1))
        assert all(a is b for a, b in zip(state.scratch, held, strict=True))

    def test_frequency_updated_once_per_batch(self, trained_model):
        state = self._state(trained_model)
        x = self._batch(5)
        engine.stamp_step(state, x)
        counts = state.bank.class_counts()
        assert np.allclose(
            state.bank.class_frequency, state.cfg.beta * counts, atol=1e-12
        )

    def test_bank_matches_reference_replay_of_each_batch(self, trained_model):
        state = self._state(trained_model, use_filtering=False)
        ref = ReferenceBank(state.bank.capacity, state.bank.num_classes)
        stream = datagen.gen_stream(
            datagen.StreamConfig(num_classes=4, num_samples=192, batch_size=32, seed=9)
        )
        evicting = 0
        for _, x in stream.batches():
            full_before = len(ref.items) == ref.capacity
            preds, _ = engine.stamp_step(state, x)
            for row, label in zip(x, preds.tolist()):
                ref.insert(row, label)
            ref.update_freq(state.cfg.beta)
            evicting += full_before
            feats, labels = state.bank.contents()
            assert labels.tolist() == ref.labels()
            assert np.array_equal(feats, ref.features())
            assert state.bank.class_frequency.tolist() == ref.freq
        assert evicting >= 3  # later batches each turn the bank over

    def test_in_place_updates_reach_only_the_adapted_copy(self, trained_model):
        caller_before = [a.copy() for a in model_arrays(trained_model)]
        state = self._state(trained_model)
        assert state.cfg.rho > 0
        before = adaptable_snapshot(state.model)
        for seed in range(3):
            engine.stamp_step(state, self._batch(20 + seed))
        assert state.updates == 3
        assert not params_equal(before, adaptable_snapshot(state.model))
        for frozen in (state.source, trained_model):
            for a, b in zip(model_arrays(frozen), caller_before, strict=True):
                assert a.tobytes() == b.tobytes()
        for a in model_arrays(state.model):
            for other in model_arrays(state.source) + model_arrays(trained_model):
                assert not np.shares_memory(a, other)

    def test_schedule_advances_only_on_updates(self, trained_model):
        state = self._state(trained_model)
        assert state.updates == 0
        engine.stamp_step(state, self._batch(6))
        assert state.updates == 1

        frozen = self._state(trained_model, use_memory=False)
        engine.stamp_step(frozen, self._batch(7))
        assert frozen.updates == 0


class TestBaselines:
    def _stream_batches(self, n_batches=3, batch=32):
        cfg = small_cfg()
        stream = datagen.gen_stream(
            datagen.StreamConfig(
                num_classes=4,
                num_samples=n_batches * batch,
                batch_size=batch,
                seed=8,
            )
        )
        return [b for _, b in stream.batches()]

    def test_source_is_frozen_and_pure(self, trained_model):
        cfg = small_cfg()
        cfg.method.name = "source"
        state = engine.build_state(trained_model, cfg)
        before = adaptable_snapshot(state.model)
        for x in self._stream_batches():
            engine.baseline_step(state, x)
        assert params_equal(before, adaptable_snapshot(state.model))

    def test_bn_stats_rescores_without_updates(self, trained_model):
        cfg = small_cfg()
        cfg.method.name = "bn_stats"
        state = engine.build_state(trained_model, cfg)
        before = adaptable_snapshot(state.model)
        x = self._stream_batches()[0]
        p_bn, _ = engine.baseline_step(state, x)
        assert params_equal(before, adaptable_snapshot(state.model))
        p_src = diffnet.forward(trained_model, x, ForwardMode.SOURCE_STATS)
        assert not np.array_equal(p_bn, np.argmax(p_src, axis=1)) or True
        # probabilities must differ even if argmaxes agree
        probs_bn = diffnet.forward(trained_model, x, ForwardMode.BATCH_STATS)
        assert not np.allclose(probs_bn, p_src)

    def test_tent_zero_lr_equals_bn_stats(self, trained_model):
        cfg = small_cfg()
        cfg.method.name = "tent"
        cfg.method.base_lr = 1e-300  # positive but inert
        tent = engine.build_state(trained_model, cfg)
        cfg2 = small_cfg()
        cfg2.method.name = "bn_stats"
        bn = engine.build_state(trained_model, cfg2)
        for x in self._stream_batches():
            p1, s1 = engine.baseline_step(tent, x)
            p2, s2 = engine.baseline_step(bn, x)
            assert np.array_equal(p1, p2)
            assert np.allclose(s1, s2, atol=1e-12)

    def test_tent_updates_parameters(self, trained_model):
        cfg = small_cfg()
        cfg.method.name = "tent"
        state = engine.build_state(trained_model, cfg)
        before = adaptable_snapshot(state.model)
        for x in self._stream_batches():
            engine.baseline_step(state, x)
        assert not params_equal(before, adaptable_snapshot(state.model))

    def test_singleton_batch_falls_back_to_source_stats(self, trained_model):
        for name in ("bn_stats", "tent"):
            cfg = small_cfg()
            cfg.method.name = name
            state = engine.build_state(trained_model, cfg)
            x = np.random.default_rng(0).normal(size=(1, 2))
            preds, scores = engine.baseline_step(state, x)
            direct = diffnet.forward(trained_model, x, ForwardMode.SOURCE_STATS)
            assert np.array_equal(preds, np.argmax(direct, axis=1))


class TestRunExperiment:
    def test_deterministic_and_model_untouched(self, trained_model):
        cfg = small_cfg()
        before = adaptable_snapshot(trained_model)
        (p1, o1), s1 = engine.run_experiment(cfg, model=trained_model)
        (p2, o2), s2 = engine.run_experiment(cfg, model=trained_model)
        assert params_equal(before, adaptable_snapshot(trained_model))
        assert p1.shape == o1.shape == (cfg.data.num_samples,)
        assert np.array_equal(p1, p2) and np.array_equal(o1, o2)
        assert s1 == s2

    @pytest.mark.parametrize("method", ["source", "bn_stats", "tent", "stamp"])
    def test_all_methods_produce_finite_metrics(self, trained_model, method):
        cfg = small_cfg()
        cfg.method.name = method
        _, summary = engine.run_experiment(cfg, model=trained_model)
        m = summary["metrics"]
        assert 0.0 <= m["acc"] <= 1.0
        assert 0.0 <= m["auc"] <= 1.0
        assert 0.0 <= m["h_score"] <= 1.0

    def test_source_on_clean_stream_matches_pretraining(self, trained_model):
        cfg = small_cfg()
        cfg.method.name = "source"
        cfg.data.severity = 0.0
        cfg.data.outlier_ratio = 0.0
        _, summary = engine.run_experiment(cfg, model=trained_model)
        assert summary["metrics"]["acc"] >= cfg.model.accuracy_floor
        assert summary["metrics"]["auc"] is None
        assert summary["metrics"]["h_score"] is None

    def test_trailing_singleton_batch_is_handled(self, trained_model):
        cfg = small_cfg()
        cfg.data.num_samples = 65
        for method in ("source", "bn_stats", "tent", "stamp"):
            cfg.method.name = method
            (preds, scores), _ = engine.run_experiment(cfg, model=trained_model)
            assert len(preds) == len(scores) == 65

    @pytest.mark.parametrize("error", [NumericalError, ConfigError])
    def test_error_inside_a_step_names_its_batch(self, trained_model, monkeypatch, error):
        cfg = small_cfg()
        real_step = engine.step
        seen = []

        def step_failing_at_batch_3(state, inputs):
            seen.append(len(inputs))
            if len(seen) == 4:
                raise error("loss value is not finite")
            return real_step(state, inputs)

        monkeypatch.setattr(engine, "step", step_failing_at_batch_3)
        with pytest.raises(error) as info:
            engine.run_experiment(cfg, model=trained_model)
        assert str(info.value) == "batch 3 (samples 192-255): loss value is not finite"
        assert type(info.value.__cause__) is error

    def test_pretrain_floor_enforced(self):
        cfg = small_cfg()
        cfg.model.epochs = 0  # untrained model stays near chance
        with pytest.raises(ConfigError):
            engine.pretrain_source(cfg)
