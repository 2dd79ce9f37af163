"""Experiment configuration: dataclass sections, JSON loading, dotted overrides.

A config file is a JSON object with sections data, model, method, output plus
a top-level seed. Unknown keys are rejected with their full dotted path so a
typo cannot silently fall back to a default. Command-line overrides use the
same dotted paths and win over the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields

from .datagen import MAX_SEED, StreamConfig
from .errors import ConfigError, ParseError
from .losses import WEIGHTINGS

METHODS = ("source", "bn_stats", "tent", "stamp")
WEIGHT_STRATEGIES = tuple(WEIGHTINGS)
OUTPUT_FORMATS = ("summary", "records", "roc")


def _check_seed(key, value):
    if not 0 <= value <= MAX_SEED:
        raise ConfigError(f"{key} must lie in [0, {MAX_SEED}], got {value}")


def _check_finite(section, cfg):
    """Reject NaN and +-inf in every float field, which range checks let through."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{section}.{f.name} must be finite, got {value}")


@dataclass
class DataConfig:
    """Stream and source-generation knobs (see datagen)."""

    num_classes: int = 4
    input_dim: int = 2
    num_samples: int = 10000
    batch_size: int = 64
    severity: float = 5.0
    outlier_ratio: float = 0.2
    outlier_mode: str = "background-uniform"
    source_size: int = 4000
    source_seed: int = 0
    val_fraction: float = 0.25

    def stream_config(self, seed=0):
        """The datagen.StreamConfig of the test stream this section describes."""
        return StreamConfig(
            num_classes=self.num_classes,
            input_dim=self.input_dim,
            num_samples=self.num_samples,
            batch_size=self.batch_size,
            severity=self.severity,
            outlier_ratio=self.outlier_ratio,
            outlier_mode=self.outlier_mode,
            seed=seed,
        )

    def validate(self):
        _check_finite("data", self)
        self.stream_config().validate()
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("data.val_fraction must lie in (0, 1)")
        if self.source_size < self.num_classes:
            raise ConfigError("data.source_size must cover every class")
        _check_seed("data.source_seed", self.source_seed)
        return self


@dataclass
class ModelConfig:
    """Architecture and pretraining knobs."""

    hidden_sizes: tuple = (32, 32)
    checkpoint: str | None = None
    seed: int = 0
    epochs: int = 40
    lr: float = 0.05
    batch_size: int = 64
    accuracy_floor: float = 0.9

    def validate(self):
        _check_finite("model", self)
        if len(self.hidden_sizes) == 0 or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("model.hidden_sizes must be positive widths")
        if self.epochs < 0:
            raise ConfigError("model.epochs must be >= 0")
        if self.lr <= 0:
            raise ConfigError("model.lr must be positive")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ConfigError("model.accuracy_floor must lie in [0, 1]")
        _check_seed("model.seed", self.seed)
        return self


@dataclass
class MethodConfig:
    """Adaptation method and its hyperparameters; the one definition of each knob.

    engine.build_state and the update read these fields directly; optim and
    losses take them as plain values. h_thr_factor scales ln(num_classes)
    into the entropy threshold used both for admission and for the outlier
    flag. The use_* toggles, weight_strategy (a losses.WEIGHTINGS name) and
    rho are the ablation switches: the full method has every toggle on,
    "self" weighting and rho > 0, and rho 0 turns the sharpness-aware step
    into its plain gradient step. use_filtering gates the two admission
    filters: with use_memory off and use_filtering on there is nothing to
    optimize, so no updates happen; with both off the loss is taken over the
    raw incoming batch, which is classical online entropy minimization.
    """

    name: str = "stamp"
    base_lr: float = 0.05
    horizon: int = 150
    rho: float = 0.05
    views: int = 16
    aug_strength: float = 1.0
    h_thr_factor: float = 0.8
    beta: float = 0.1
    capacity: int = 64
    use_memory: bool = True
    use_filtering: bool = True
    use_decay: bool = True
    use_augmentation: bool = True
    weight_strategy: str = "self"

    def validate(self):
        _check_finite("method", self)
        if self.name not in METHODS:
            raise ConfigError(f"method.name must be one of {METHODS}")
        if self.base_lr <= 0:
            raise ConfigError("method.base_lr must be positive")
        if self.horizon < 1:
            raise ConfigError("method.horizon must be >= 1")
        if self.rho < 0:
            raise ConfigError("method.rho must be >= 0")
        if self.views < 1:
            raise ConfigError("method.views must be >= 1")
        if self.aug_strength < 0:
            raise ConfigError("method.aug_strength must be >= 0")
        if self.h_thr_factor <= 0:
            raise ConfigError("method.h_thr_factor must be positive")
        if not 0 < self.beta <= 1:
            raise ConfigError("method.beta must lie in (0, 1]")
        if self.capacity < 1:
            raise ConfigError("method.capacity must be >= 1")
        if self.weight_strategy not in WEIGHT_STRATEGIES:
            raise ConfigError(f"method.weight_strategy must be one of {WEIGHT_STRATEGIES}")
        return self


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple = OUTPUT_FORMATS

    def validate(self):
        bad = [f for f in self.formats if f not in OUTPUT_FORMATS]
        if bad:
            raise ConfigError(f"output.formats contains unknown entries {bad}")
        return self


@dataclass
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    method: MethodConfig = field(default_factory=MethodConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    def validate(self):
        _check_seed("seed", self.seed)
        self.data.validate()
        self.model.validate()
        self.method.validate()
        self.output.validate()
        return self

    def h_thr(self):
        """Entropy threshold for admission and outlier flags, h_thr_factor * ln(C)."""
        return self.method.h_thr_factor * math.log(self.data.num_classes)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["model"]["hidden_sizes"] = list(self.model.hidden_sizes)
        out["output"]["formats"] = list(self.output.formats)
        return out

    def echo(self):
        """Everything that determines a run's result: to_dict() without output.

        run_experiment writes it into summary["config"], and benchmark.run_once
        keys its per-call memo on it, so identical experiments share one
        summary wherever their outputs are routed.
        """
        out = self.to_dict()
        del out["output"]
        return out


_SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "method": MethodConfig,
    "output": OutputConfig,
}


# field annotation -> (accepted types, what the error says a value must be)
_PLAIN_KINDS = {
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "tuple": ((list, tuple), "a list"),
}


def _coerce(section, f, value):
    """value as field f's type. Under `from __future__ import annotations`
    f.type is the annotation's text: "int", "float" or a _PLAIN_KINDS key."""
    key = f"{section}.{f.name}"
    if f.type == "int":
        # NaN and +-inf are floats that are not integers, so int() never sees them
        whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not whole:
            raise ConfigError(f"{key} must be an integer")
        return int(value)
    if f.type == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number")
        return float(value)
    types, what = _PLAIN_KINDS[f.type]
    if not isinstance(value, types):
        raise ConfigError(f"{key} must be {what}")
    return tuple(value) if f.type == "tuple" else value


def config_from_dict(raw):
    """Build and validate an ExperimentConfig from a nested dict.

    Unknown sections or keys raise ConfigError naming the dotted path.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = set(_SECTIONS) | {"seed"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    sections = {}
    for section, cls in _SECTIONS.items():
        payload = raw.get(section, {})
        if not isinstance(payload, dict):
            raise ConfigError(f"section {section!r} must be an object")
        valid = {f.name: f for f in fields(cls)}
        kwargs = {}
        for name, value in payload.items():
            if name not in valid:
                raise ConfigError(f"unknown config key {section}.{name}")
            kwargs[name] = _coerce(section, valid[name], value)
        sections[section] = cls(**kwargs)
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    return ExperimentConfig(seed=seed, **sections).validate()


def load_config(path=None, overrides=()):
    """Read a JSON config file, apply dotted overrides, build and validate.

    With no path every key starts at its default. A missing file raises
    ConfigError; malformed JSON raises ParseError with the line number.
    """
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return config_from_dict(apply_overrides(raw, overrides))


def apply_overrides(raw, overrides):
    """Apply dotted-path overrides ('method.rho=0.1') onto a raw config dict.

    Values parse as JSON when possible and fall back to plain strings, so
    both --method.rho=0.1 and --data.outlier_mode=held-out-class work.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        path, text = item.split("=", 1)
        parts = path.split(".")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        if len(parts) == 1 and parts[0] == "seed":
            raw["seed"] = value
            continue
        if len(parts) != 2:
            raise ConfigError(f"override path {path!r} must be section.key")
        section, key = parts
        raw.setdefault(section, {})
        if not isinstance(raw[section], dict):
            raise ConfigError(f"section {section!r} must be an object")
        raw[section][key] = value
    return raw
