"""End-to-end command behavior: files written, determinism, error exits."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from stamp_tta import benchmark, cli, diffnet, engine, losses
from stamp_tta.config import (
    WEIGHT_STRATEGIES,
    DataConfig,
    ExperimentConfig,
    MethodConfig,
    ModelConfig,
    OutputConfig,
    config_from_dict,
    load_config,
)
from stamp_tta.errors import ConfigError


def tiny_config(tmp_path, **extra):
    cfg = {
        "seed": 0,
        "data": {
            "num_samples": 96,
            "batch_size": 32,
            "source_size": 600,
        },
        "model": {"hidden_sizes": [16, 16], "epochs": 25},
        "method": {"horizon": 3},
    }
    for dotted, value in extra.items():
        section, key = dotted.split(".")
        cfg.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


SECTIONS = (("data", DataConfig), ("model", ModelConfig), ("method", MethodConfig))


def fields_of_type(kind):
    return [
        (section, f.name)
        for section, cls in SECTIONS
        for f in dataclasses.fields(cls)
        if f.type == kind
    ]


FLOAT_FIELDS = fields_of_type("float")
INT_FIELDS = fields_of_type("int")


def non_finite_message(section, key):
    """What config_from_dict says about NaN or +-inf in a numeric field."""
    kind = "finite" if (section, key) in FLOAT_FIELDS else "an integer"
    return f"{section}.{key} must be {kind}"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPretrain:
    def test_writes_checkpoint(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = cli.main(
            ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        assert (tmp_path / "out" / "model.npz").exists()
        printed = capsys.readouterr().out
        assert "model.npz" in printed

    def test_checkpoint_honors_config_path(self, tmp_path):
        ckpt = tmp_path / "custom.npz"
        cfg = tiny_config(tmp_path, **{"model.checkpoint": str(ckpt)})
        rc = cli.main(
            ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        assert ckpt.exists()


class TestRun:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "run"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        return out

    def test_outputs_exist(self, run_dir):
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "records.csv").exists()
        assert (run_dir / "roc.csv").exists()

    def test_summary_shape(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["method"] == "stamp"
        assert summary["num_samples"] == 96
        m = summary["metrics"]
        assert set(m) == {"acc", "auc", "h_score"}
        assert 0 <= m["acc"] <= 1

    def test_records_align_with_stream(self, run_dir):
        rows = read_rows(run_dir / "records.csv")
        assert len(rows) == 96
        summary = json.loads((run_dir / "summary.json").read_text())
        stream = engine.make_stream(config_from_dict(summary["config"]))
        # feature columns round-trip the generated stream bit for bit
        for i, row in enumerate(rows):
            assert float(row["x0"]) == stream.features[i, 0]
            assert float(row["x1"]) == stream.features[i, 1]
            assert int(row["label"]) == stream.labels[i]
            assert int(row["outlier"]) == stream.outlier[i]
            assert row["pred"] != ""
            assert np.isfinite(float(row["ood_score"]))

    def test_roc_is_monotone(self, run_dir):
        rows = read_rows(run_dir / "roc.csv")
        fpr = [float(r["fpr"]) for r in rows]
        tpr = [float(r["tpr"]) for r in rows]
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert all(b >= a for a, b in zip(fpr, fpr[1:]))
        assert all(b >= a for a, b in zip(tpr, tpr[1:]))

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("summary.json", "records.csv", "roc.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(cfg), "--out", str(out1)])
        cli.main(
            ["run", "--config", str(cfg), "--out", str(out2), "--seed", "1"]
        )
        assert (out1 / "records.csv").read_bytes() != (
            out2 / "records.csv"
        ).read_bytes()

    def test_override_echoed_in_summary(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "o"
        rc = cli.main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--method.rho=0.1",
                "--method.name=stamp",
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["method"]["rho"] == 0.1

    def test_method_override_switches_baseline(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "o"
        cli.main(
            ["run", "--config", str(cfg), "--out", str(out), "--method.name=source"]
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "source"


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(
            ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "seed": 0,\n  oops\n}\n')
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": {"num_sample": 10}}))
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "data.num_sample" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        [
            "method.use_self_weight",
            "method.delta_thr_factor",
            "method.norm_floor",
            "method.update_running_stats",
            "method.use_sam",
        ],
    )
    def test_removed_method_key_rejected(self, tmp_path, capsys, key):
        section, name = key.split(".")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {name: True}}))
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["seed", "data.source_seed", "model.seed"])
    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_seed_outside_one_word_rejected(self, tmp_path, capsys, key, value):
        cfg = tiny_config(tmp_path)
        rc = cli.main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o"), f"--{key}={value}"]
        )
        assert rc == 2
        assert f"error: {key} must lie in [0, {2**32 - 1}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("data.num_classes", 1),
            ("data.input_dim", 1),
            ("data.num_samples", 0),
            ("data.batch_size", 0),
            ("data.severity", -1.0),
            ("data.outlier_ratio", -0.1),
            ("data.outlier_ratio", 1.5),
            ("data.outlier_mode", "nope"),
        ],
    )
    def test_stream_range_rejected_before_pretraining(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        monkeypatch.setattr(engine, "pretrain_source", lambda cfg: pytest.fail("pretrained"))
        cfg = tiny_config(tmp_path)
        override = f"--{key}={json.dumps(value)}"
        rc = cli.main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "o"), override])
        assert rc == 2
        assert f"error: {key} must" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_numeric_checkpoint_rejected(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = cli.main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "o"),
                "--model.checkpoint=2",
            ]
        )
        assert rc == 2
        assert "model.checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_rejected(self, tmp_path, capsys):
        cfg = tiny_config(
            tmp_path, **{"model.checkpoint": str(tmp_path / "gone.npz")}
        )
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "gone.npz" in capsys.readouterr().err

    def _run_on_checkpoint(self, tmp_path, ckpt):
        cfg = tiny_config(tmp_path, **{"model.checkpoint": str(ckpt)})
        return cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "key,input_dim,hidden,classes,have",
        [
            ("data.input_dim", 3, (16, 16), 4, "3"),
            ("data.num_classes", 2, (16, 16), 3, "3"),
            ("model.hidden_sizes", 2, (32, 32), 4, "(32, 32)"),
        ],
        ids=["input_dim", "num_classes", "hidden_sizes"],
    )
    def test_mismatched_checkpoint_rejected(
        self, tmp_path, capsys, key, input_dim, hidden, classes, have
    ):
        # tiny_config describes 2 inputs, hidden sizes (16, 16) and 4 classes
        ckpt = tmp_path / "model.npz"
        diffnet.save_model(diffnet.init_model(input_dim, hidden, classes, seed=0), ckpt)
        assert self._run_on_checkpoint(tmp_path, ckpt) == 2
        assert f"error: checkpoint {ckpt} has {key} {have}," in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_checkpoint_missing_an_array_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        diffnet.save_model(diffnet.init_model(2, (16, 16), 4, seed=0), ckpt)
        with np.load(ckpt) as data:
            kept = {k: data[k] for k in data.files if k != "layers.1.bias"}
        np.savez(ckpt, **kept)
        assert self._run_on_checkpoint(tmp_path, ckpt) == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {ckpt} is missing array layers.1.bias" in err

    def test_checkpoint_that_does_not_load_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        ckpt.write_text("not an archive\n")
        assert self._run_on_checkpoint(tmp_path, ckpt) == 2
        assert f"error: checkpoint {ckpt} does not load" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,key",
        [
            ("--method.rho=NaN", "method.rho"),
            ("--data.severity=Infinity", "data.severity"),
            ("--model.lr=-Infinity", "model.lr"),
            ("--data.num_samples=Infinity", "data.num_samples"),
            ("--data.num_samples=1e400", "data.num_samples"),
            ("--data.num_samples=NaN", "data.num_samples"),
        ],
    )
    def test_non_finite_float_exits_2(self, tmp_path, capsys, override, key):
        cfg = tiny_config(tmp_path)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), override])
        assert rc == 2
        assert f"error: {non_finite_message(*key.split('.'))}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_override_value(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = cli.main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "o"),
                "--method.rho=-1",
            ]
        )
        assert rc == 2


class TestAblate:
    def test_arm_table(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "ablate"
        rc = cli.main(["ablate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "comparison.csv")
        names = [r["arm"] for r in rows]
        assert len(names) == 12
        assert "grid_sa1_ds1_rbm1_sw1" in names
        assert "grid_sa0_ds0_rbm0_sw0" in names
        assert {"weight_self", "weight_static", "weight_eata"} <= set(names)
        assert {"aug_on", "aug_off"} <= set(names)
        for r in rows:
            assert (out / r["arm"] / "summary.json").exists()
            assert 0 <= float(r["h_score"]) <= 1

    def test_identical_arms_run_once(self, tmp_path, run_calls):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(run_calls) == 10
        assert len(read_rows(out / "comparison.csv")) == 12
        full = ("grid_sa1_ds1_rbm1_sw1", "weight_self", "aug_on")
        assert len({(out / arm / "summary.json").read_bytes() for arm in full}) == 1

    def test_requires_stamp(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, **{"method.name": "tent"})
        rc = cli.main(
            ["ablate", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 2


class TestArmRegistry:
    def test_ablate_arm_names_in_table_order(self):
        assert list(benchmark.ABLATION_ARMS) == [
            "grid_sa0_ds0_rbm0_sw0",
            "grid_sa0_ds1_rbm0_sw0",
            "grid_sa1_ds0_rbm0_sw0",
            "grid_sa1_ds1_rbm0_sw0",
            "grid_sa1_ds1_rbm0_sw1",
            "grid_sa1_ds1_rbm1_sw0",
            "grid_sa1_ds1_rbm1_sw1",
            "weight_self",
            "weight_static",
            "weight_eata",
            "aug_on",
            "aug_off",
        ]

    @pytest.mark.parametrize("arm", ["grid_sa1_ds1_rbm1_sw1", "weight_self", "aug_on"])
    def test_full_method_arms_leave_method_unchanged(self, arm):
        method = benchmark.load_benchmark_config().method
        overrides = benchmark.ABLATION_ARMS[arm]
        assert dataclasses.replace(method, **overrides) == method

    def test_every_arm_validates(self):
        method = ExperimentConfig().method
        for arms in (benchmark.ABLATION_ARMS, benchmark.REMOVAL_ARMS):
            for overrides in arms.values():
                dataclasses.replace(method, **overrides).validate()


class TestSweepRatio:
    def test_grid_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep-ratio", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "ratio_sweep.csv")
        ratios = [float(r["outlier_ratio"]) for r in rows]
        assert ratios == [0.05, 0.10, 0.20, 0.33, 0.50]
        for r in rows:
            pct = int(round(float(r["outlier_ratio"]) * 100))
            assert (out / f"ratio_{pct:02d}" / "summary.json").exists()
            assert float(r["auc"]) > 0  # defined at every ratio

    def test_each_ratio_runs_once(self, tmp_path, run_calls):
        cfg = tiny_config(tmp_path)
        rc = cli.main(["sweep-ratio", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert rc == 0
        assert [c.data.outlier_ratio for c in run_calls] == list(benchmark.RATIO_GRID)


class TestConfigSurface:
    def test_default_config_validates(self):
        ExperimentConfig().validate()

    def test_float_fields_include_the_method_and_stream_knobs(self):
        assert {
            ("method", "aug_strength"),
            ("method", "base_lr"),
            ("method", "rho"),
            ("method", "h_thr_factor"),
            ("data", "severity"),
            ("data", "outlier_ratio"),
            ("model", "lr"),
        } <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", FLOAT_FIELDS + INT_FIELDS)
    def test_non_finite_float_rejected(self, section, key, value):
        message = non_finite_message(section, key)
        with pytest.raises(ConfigError, match=f"^{message}"):
            config_from_dict({section: {key: value}})
        if (section, key) in INT_FIELDS:
            return  # an integer field holds no float once coerced
        cfg = ExperimentConfig()
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError, match=f"^{message}"):
            cfg.validate()

    def test_every_annotation_is_a_kind_coerce_handles(self):
        # a new kind (say float | None) must get its own branch in _coerce
        kinds = {"int", "float", "bool", "str", "tuple", "str | None"}
        for cls in (DataConfig, ModelConfig, MethodConfig, OutputConfig):
            for f in dataclasses.fields(cls):
                assert f.type in kinds, f"{cls.__name__}.{f.name}: {f.type}"

    def test_load_config_without_a_file(self, tmp_path):
        cfg = load_config(overrides=["method.rho=0.1", "seed=3"])
        assert (cfg.method.rho, cfg.seed) == (0.1, 3)
        assert cfg.data == DataConfig()
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            load_config(path, overrides=["seed=1"])

    def test_weight_strategies_are_the_loss_table(self):
        assert WEIGHT_STRATEGIES == tuple(losses.WEIGHTINGS)

    def test_round_trip_through_dict(self):
        cfg = ExperimentConfig()
        cfg.method.rho = 0.07
        from stamp_tta.config import config_from_dict

        clone = config_from_dict(cfg.to_dict())
        assert clone.method.rho == 0.07
        assert clone.to_dict() == cfg.to_dict()


class TestOutputDigestsExpect:
    """scripts/output_digests.py --expect, on two stubbed runs."""

    RUNS = [("ablate/full", 0, "aa"), ("protocol/methods/stamp", 0, "bb")]
    LINES = ["ablate/full seed=0 aa", "protocol/methods/stamp seed=0 bb"]

    @pytest.fixture
    def script(self, monkeypatch):
        path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
        spec = importlib.util.spec_from_file_location("output_digests", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module.engine, "pretrain_source", lambda cfg: (None, 1.0))
        for name, run in zip(("ablation_digests", "protocol_digests"), self.RUNS):
            monkeypatch.setattr(module, name, lambda cfg, model, seeds, run=run: iter([run]))
        return module

    def whole(self):
        return hashlib.sha256("".join(line + "\n" for line in self.LINES).encode()).hexdigest()

    def test_match_exits_zero(self, script, capsys):
        assert script.main(["--expect", self.whole()]) == 0
        assert capsys.readouterr().out.splitlines() == self.LINES + [f"all {self.whole()}"]

    def test_mismatch_exits_one_and_prints_both_lines(self, script, capsys):
        assert script.main(["--expect", "0" * 64]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"expected all {'0' * 64}", f"actual   all {self.whole()}"]

    @pytest.mark.parametrize("bad", ["4015c8aa", "X" * 64])
    def test_malformed_digest_is_a_usage_error(self, script, bad):
        with pytest.raises(SystemExit) as info:
            script.main(["--expect", bad])
        assert info.value.code == 2
