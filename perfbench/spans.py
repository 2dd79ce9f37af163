"""Span recording around calls into stamp_tta's public functions.

The recorder replaces module (and class) attributes with timing wrappers
while it is installed and puts the originals back when it is removed, so no
file under src/ changes. A target that no longer exists is reported as
absent instead of breaking the run, which keeps later refactors measurable.

Spans are kept in memory as parallel typed arrays (name id, parent span,
run id, start and end in integer nanoseconds), about 36 bytes a span, and
written out when the run ends.
Integer clock readings make self times exact: a span's self time is its
duration minus the durations of its direct children, which are nested in it
and never overlap one another in this single-threaded program.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

PACKAGE = "stamp_tta"

# (module, attribute path). engine.stamp_step and engine.baseline_step are
# left unwrapped on purpose: engine.step's self time then holds the
# per-sample Python glue of the adaptation loop.
TARGETS = (
    ("datagen", "augment_views"),
    ("datagen", "gen_stream"),
    ("engine", "step"),
    ("engine", "averaged_prediction"),
    ("engine", "run_experiment"),
    ("engine", "pretrain_source"),
    ("diffnet", "forward"),
    ("diffnet", "grad"),
    ("diffnet", "set_params"),
    ("losses", "entropy"),
    ("membank", "filter_masks"),
    ("membank", "MemoryBank.insert"),
    ("membank", "MemoryBank.contents"),
    ("membank", "MemoryBank.update_class_frequency"),
    ("optim", "sam_update"),
    ("optim", "sgd_update"),
    ("metrics", "summarize"),
    ("benchmark", "run_protocol"),
)
# The layers of set-up, traced on their own so nothing nests under them.
SETUP_TARGETS = (("engine", "pretrain_source"), ("datagen", "gen_stream"))


def _config_key(args, kwargs):
    cfg = kwargs.get("cfg", args[0] if args else None)
    echo = cfg.to_dict()
    echo.pop("output", None)
    return json.dumps(echo, sort_keys=True)


# Counts taken at a span boundary from the call's arguments or result:
# span name -> (counter name, function of (args, kwargs, result)).
COUNTERS = {
    "datagen.augment_views": ("datagen.augment_views.rows", lambda a, k, out: len(out)),
    "diffnet.forward": ("diffnet.forward.rows", lambda a, k, out: len(out)),
    "diffnet.grad": ("diffnet.grad.rows", lambda a, k, out: len(k.get("inputs", a[1]))),
    "membank.MemoryBank.insert": ("membank.evictions", lambda a, k, out: int(out is not None)),
    "membank.MemoryBank.contents": ("membank.replay_rows", lambda a, k, out: len(out[0])),
}
# engine.run_experiment also records its config, for the distinct configs per unit.
RUN_EXPERIMENT = "engine.run_experiment"

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "datagen.augment_views.calls": "count",
    "datagen.augment_views.rows": "count",
    "datagen.augment_views.self_s": "s",
    "datagen.gen_stream.self_s": "s",
    "engine.step.calls": "count",
    "engine.step.self_s": "s",
    "engine.averaged_prediction.self_s": "s",
    "engine.run_experiment.calls": "count",
    "engine.run_experiment.distinct_configs": "count",
    "engine.run_experiment.self_s": "s",
    "engine.pretrain_source.self_s": "s",
    "diffnet.forward.calls": "count",
    "diffnet.forward.rows": "count",
    "diffnet.forward.self_s": "s",
    "diffnet.grad.calls": "count",
    "diffnet.grad.rows": "count",
    "diffnet.grad.self_s": "s",
    "diffnet.set_params.calls": "count",
    "diffnet.set_params.self_s": "s",
    "losses.entropy.calls": "count",
    "losses.entropy.self_s": "s",
    "membank.filter_masks.calls": "count",
    "membank.filter_masks.self_s": "s",
    "membank.admit_ratio": "ratio",
    "membank.MemoryBank.insert.calls": "count",
    "membank.MemoryBank.insert.self_s": "s",
    "membank.evictions": "count",
    "membank.MemoryBank.contents.self_s": "s",
    "membank.replay_rows": "count",
    "membank.MemoryBank.update_class_frequency.self_s": "s",
    "optim.sam_update.calls": "count",
    "optim.sam_update.self_s": "s",
    "optim.sgd_update.calls": "count",
    "optim.sgd_update.self_s": "s",
    "optim.grad_evals_per_update": "ratio",
    "metrics.summarize.calls": "count",
    "metrics.summarize.self_s": "s",
    "benchmark.run_protocol.self_s": "s",
    "trace_overhead_samples_per_s": "1/s",
}


def _resolve(module_name, path):
    """(owner, leaf name, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return (owner, leaf, fn) if callable(fn) else None


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    `run_id` tags every span opened while it holds: the unit of work.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.run = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.configs: set[tuple[int, str]] = set()  # (run id, config key)
        self.run_id = 0
        self._stack = [-1]
        self._installed: list[tuple] = []

    def __enter__(self):
        for module_name, path in self.targets:
            name = f"{module_name}.{path}"
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, leaf, fn = found
            setattr(owner, leaf, self._wrap(name, fn))
            self._installed.append((owner, leaf, fn))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, leaf, fn = self._installed.pop()
            setattr(owner, leaf, fn)
        return False

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        keyed = name == RUN_EXPERIMENT
        stack, name_id, parent, run, start, end = (
            self._stack, self.name_id, self.parent, self.run, self.start, self.end
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, out)
            if keyed:
                self.configs.add((self.run_id, _config_key(args, kwargs)))
            return out

        return traced

    def arrays(self):
        """The spans as numpy arrays, with each span's self time in ns."""
        a = {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int64),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
        }
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        a["self_ns"] = dur - child
        return a

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def layer_metrics(timed, units, setup, overhead):
    """Per-layer metrics from the spans and counters of two tracers.

    `timed` traced the timed section, whose numbers count per unit of work
    (one stream, or one protocol pass) so they do not depend on how many
    units fit into the run. `setup` traced one set-up with SETUP_TARGETS
    only, so a set-up layer's self time there covers everything under it.
    Functions reported absent read 0.
    """
    totals = {}
    for tracer, per in ((timed, units), (setup, 1)):
        a = tracer.arrays()
        for nid, name in enumerate(tracer.names):
            mine = a["name_id"] == nid
            t = totals.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            t["calls"] += mine.sum() / per
            t["self_s"] += a["self_ns"][mine].sum() / per / 1e9

    def calls(name):
        return totals.get(name, {}).get("calls", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if span in totals and field in totals[span]:
            values[metric] = totals[span][field]
    for metric, _ in COUNTERS.values():
        values[metric] = timed.counters.get(metric, 0) / units
    values["engine.run_experiment.distinct_configs"] = len(timed.configs) / units
    values["membank.replay_rows"] = ratio(
        values["membank.replay_rows"], calls("membank.MemoryBank.contents")
    )
    values["membank.admit_ratio"] = ratio(
        calls("membank.MemoryBank.insert"), calls("membank.filter_masks")
    )
    values["optim.grad_evals_per_update"] = ratio(
        calls("diffnet.grad"), calls("optim.sam_update") + calls("optim.sgd_update")
    )
    values["trace_overhead_samples_per_s"] = overhead
    return {m: float(values.get(m, 0.0)) for m in PER_LAYER}


def time_shares(tracer):
    """Self and inclusive share of the traced wall time per span name."""
    a = tracer.arrays()
    dur = a["end_ns"] - a["start_ns"]
    whole = dur[a["parent"] < 0].sum()
    shares = {}
    for nid, name in enumerate(tracer.names):
        mine = a["name_id"] == nid
        if whole and mine.any():
            shares[name] = (a["self_ns"][mine].sum() / whole, dur[mine].sum() / whole)
    return shares
