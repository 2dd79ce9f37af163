#!/usr/bin/env python3
"""stamp-tta benchmark: one workload in one process, a closed loop with one caller.

Usage (from the repository root):
    python3 perfbench/run.py --workload stream|replay|protocol --seed N \
        --seconds S --trace 0|1

Set-up (config load, pretraining, stream generation) is done and timed
before the timed section, and repeated between its units for more samples.
The timed section runs whole passes of the workload, ending within half a
pass of S seconds, checks every output, and prints the end-to-end metrics. With --trace 1 one untraced pass is followed
by S seconds of passes with span wrappers installed, and the per-layer
metrics are printed instead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Every run is appended to perfbench/out/runs.jsonl with
the machine facts; traced runs also write their spans to
perfbench/out/spans-<workload>.npz.
"""

import os

# Pinned before numpy loads: the program is single-threaded by design and
# BLAS worker threads would only add scheduling noise on a small machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "stamp_tta")):
    # no result line without the program's sources: an installed copy elsewhere does not count
    raise ImportError(f"stamp_tta sources not found under {ROOT}/src: run from a repository checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

from stamp_tta import benchmark, config, datagen, engine, metrics  # noqa: E402

import spans  # noqa: E402

CONFIG_PATH = os.path.join(ROOT, "configs", "benchmark.json")
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "benchmark_golden.json")
OUT_DIR = os.path.join(HERE, "out")

# Config overrides per workload, on top of configs/benchmark.json. `replay`
# is left out of BENCHMARK.json for time and is run by hand (see README.md).
WORKLOADS = {
    "stream": {},
    "replay": {"method.capacity": 512, "method.use_augmentation": False},
    "protocol": {},
}
STREAMS_PER_PASS = 5  # workload seed n drives stream seeds 5n .. 5n+4
# Share of the run spent repeating set-up between units, for setup_s samples.
SETUP_SHARE = 0.1
# Runs per protocol pass, counted as failed when a pass raises.
PROTOCOL_ARMS = len(benchmark.METHOD_ARMS) + len(benchmark.REMOVAL_ARMS) + len(benchmark.RATIO_GRID)
SCORE_SLACK = 1e-12  # entropy of a uniform row may exceed ln C by rounding

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and logged with the others but left out of the JSON metrics, so
# they carry no bound. Other tenants of a shared host can switch a ~1.6x
# slowdown on and off within a second. Step latencies then fall into two
# modes, and both percentiles jump with the share of time spent slow. On a
# 2-vCPU Xeon guest their quartile spread over 10 runs reached 24-35% (p50)
# and 29% (p99), and the p99 median moved 41% between two sets of 10 runs:
# more than any bound allows. Throughput over whole units averages over
# the toggling.
UNGATED = {"batch_ms_p50": "ms", "batch_ms_p99": "ms"}

# The gate's own scoring call, bound before any tracer can wrap it.
_summarize = metrics.summarize


@dataclasses.dataclass
class Stream:
    cfg: config.ExperimentConfig
    batches: list
    labels: np.ndarray
    outlier: np.ndarray


@dataclasses.dataclass
class Setup:
    cfg: config.ExperimentConfig
    model: object
    streams: list
    golden: dict | None


@dataclasses.dataclass
class Tally:
    """Outcome of one timed section; only passing work counts towards timings."""

    attempted: int = 0
    failed: int = 0
    delivered: int = 0
    units: int = 0
    unit_ns: int = 0
    latencies_ns: list = dataclasses.field(default_factory=list)
    reasons: list = dataclasses.field(default_factory=list)

    @property
    def samples_per_s(self):
        """Delivered samples per second of unit time.

        Unit time leaves out the gate and the set-up repeats between units.
        A failed unit delivers nothing but its time still counts.
        """
        return self.delivered / (self.unit_ns / 1e9) if self.unit_ns else 0.0

    def add_unit(self, elapsed_ns, delivered):
        self.delivered += delivered
        self.unit_ns += elapsed_ns

    def fail(self, count, reason):
        self.failed += count
        self.reasons.append(reason)


def machine_facts(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload_seed": seed,
    }


def load_config(overrides):
    with open(CONFIG_PATH) as fh:
        raw = json.load(fh)
    items = [f"{key}={json.dumps(value)}" for key, value in overrides.items()]
    return config.config_from_dict(config.apply_overrides(raw, items))


def stream_seeds(seed):
    return range(STREAMS_PER_PASS * seed, STREAMS_PER_PASS * (seed + 1))


def set_up(workload, seed, overrides=None):
    """Config load, pretraining and stream generation for one workload."""
    overrides = overrides or {}
    cfg = load_config({**WORKLOADS[workload], **overrides})
    model, _ = engine.pretrain_source(cfg)
    streams = []
    if workload != "protocol":
        d = cfg.data
        for s in stream_seeds(seed):
            generated = datagen.gen_stream(
                datagen.StreamConfig(
                    num_classes=d.num_classes,
                    input_dim=d.input_dim,
                    num_samples=d.num_samples,
                    batch_size=d.batch_size,
                    severity=d.severity,
                    outlier_ratio=d.outlier_ratio,
                    outlier_mode=d.outlier_mode,
                    seed=s,
                )
            )
            f = generated.features
            batches = [f[i : i + d.batch_size] for i in range(0, len(f), d.batch_size)]
            streams.append(
                Stream(dataclasses.replace(cfg, seed=s), batches, generated.labels, generated.outlier)
            )
    # The golden file freezes 5-seed means of the full method on seeds 0-4.
    golden = None
    if workload == "stream" and not overrides and list(stream_seeds(seed)) == [0, 1, 2, 3, 4]:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
    return Setup(cfg, model, streams, golden)


def check_outputs(out, rows, num_classes):
    """None when a step's output is one valid (pred, score) pair per row, else why not."""
    try:
        preds, scores = (np.asarray(v) for v in out)
    except (TypeError, ValueError):
        return "step did not return (predictions, scores)"
    if preds.shape != (rows,) or scores.shape != (rows,):
        return f"expected {rows} rows, got {preds.shape} predictions and {scores.shape} scores"
    if not np.issubdtype(preds.dtype, np.integer):
        return f"predictions have dtype {preds.dtype}"
    if rows and (preds.min() < 0 or preds.max() >= num_classes):
        return f"prediction outside [0, {num_classes})"
    if not np.all(np.isfinite(scores)):
        return "non-finite score"
    if rows and (scores.min() < 0 or scores.max() > math.log(num_classes) + SCORE_SLACK):
        return f"score outside [0, ln {num_classes}]"
    return None


def feed(h, out):
    preds, scores = out
    h.update(np.asarray(preds, dtype=np.int64).tobytes())
    h.update(np.asarray(scores, dtype=np.float64).tobytes())


def digest(outs):
    h = hashlib.sha256()
    for out in outs:
        feed(h, out)
    return h.hexdigest()


def run_stream(model, stream):
    """Adapt over one stream batch by batch; returns (outputs, step ns, total ns, error)."""
    clock = time.perf_counter_ns
    outs, lat = [], []
    t0 = clock()
    try:
        state = engine.build_state(model, stream.cfg)
        for batch in stream.batches:
            a = clock()
            out = engine.step(state, batch)
            lat.append(clock() - a)
            outs.append(out)
    except Exception:
        return outs, lat, clock() - t0, traceback.format_exc(limit=3)
    return outs, lat, clock() - t0, None


def golden_reason(setup, outs_by_stream):
    rows = []
    for stream, outs in zip(setup.streams, outs_by_stream):
        preds = np.concatenate([o[0] for o in outs])
        scores = np.concatenate([o[1] for o in outs])
        m = _summarize(preds, scores, stream.labels, stream.outlier)
        rows.append((m.acc, m.auc, m.h))
    want = setup.golden["methods"]["stamp"]
    got = dict(zip(("acc", "auc", "h_score"), np.mean(rows, axis=0)))
    tol = setup.golden["tolerance"]
    off = {k: (got[k], want[k]) for k in got if abs(got[k] - want[k]) > tol}
    return f"seed 0-4 means differ from the golden file: {off}" if off else None


class SetupTimer:
    """Times set-up repeats spread over the whole run; setup_s is their median.

    Other tenants of a shared host slow it down for seconds at a time, so
    repeats taken in one burst would all land in the same spell. Repeats
    between units sample the host the way the units themselves do.
    """

    def __init__(self, workload, seed, overrides=None):
        self.args = (workload, seed, overrides)
        self.times = []

    def once(self):
        t0 = time.perf_counter()
        setup = set_up(*self.args)
        self.times.append(time.perf_counter() - t0)
        return setup

    def catch_up(self, begin):
        """Repeat set-up until it fills SETUP_SHARE of the time since `begin`."""
        while sum(self.times) < SETUP_SHARE * (time.perf_counter() - begin):
            self.once()

    @property
    def median(self):
        return float(np.median(self.times))


def time_left(begin, passes, seconds):
    """Whether another pass fits: runs end within half a pass of `seconds`."""
    elapsed = time.perf_counter() - begin
    return elapsed + 0.5 * elapsed / passes < seconds


def measure_streams(setup, seconds, tracer=None, setups=None):
    """Whole passes over the workload's streams until `seconds` are used up.

    `setups`, a SetupTimer, repeats set-up between units when given.
    """
    tally = Tally()
    num_classes = setup.cfg.data.num_classes
    first_digest = {}
    begin = time.perf_counter()
    pass_index = 0
    while True:
        results = []
        for stream in setup.streams:
            if tracer is not None:
                tracer.run_id = tally.units
            if setups is not None:
                setups.catch_up(begin)
            tally.units += 1
            outs, lat, total_ns, reason = run_stream(setup.model, stream)
            for batch, out in zip(stream.batches, outs):
                reason = reason or check_outputs(out, len(batch), num_classes)
            if reason is None:
                d = digest(outs)
                if first_digest.setdefault(stream.cfg.seed, d) != d:
                    reason = f"stream seed {stream.cfg.seed} output differs from its first run"
            results.append((stream, outs, lat, total_ns, reason))
        if pass_index == 0 and setup.golden and all(r[-1] is None for r in results):
            reason = golden_reason(setup, [r[1] for r in results])
            if reason:
                results = [r[:-1] + (reason,) for r in results]
        for stream, _, lat, total_ns, reason in results:
            tally.attempted += 1
            if reason:
                tally.fail(1, reason)
                tally.add_unit(total_ns, 0)
            else:
                tally.add_unit(total_ns, sum(len(b) for b in stream.batches))
                tally.latencies_ns.extend(lat)
        pass_index += 1
        if not time_left(begin, pass_index, seconds):
            return tally


class StepClock:
    """Gates and times each engine.step call made inside one protocol pass.

    The protocol drives engine.step itself, so this is the one wrapper an
    untraced run installs; it is removed when the pass ends. Each output is
    checked and digested as it returns, and a run (one AdaptState) is checked
    for its row count when the next one starts, so nothing of a finished run
    is kept. `setups`, a SetupTimer, catches up as each run starts, so its
    repeats spread over the pass. `aside_ns` is the time spent on the gate
    and on set-up, for the pass to leave out.
    """

    def __init__(self, num_samples, num_classes, setups=None, begin=None):
        self.num_samples = num_samples
        self.num_classes = num_classes
        self.setups, self.begin = setups, begin
        self.runs = 0
        self.reasons = []  # at most one per run
        self.latencies_ns = []
        self.aside_ns = 0
        self.digest = hashlib.sha256()
        self._state = None
        self._rows = 0
        self._reason = None

    def _end_run(self):
        if self._state is None:
            return
        if self._reason is None and self._rows != self.num_samples:
            self._reason = f"run emitted {self._rows} of {self.num_samples} samples"
        if self._reason:
            self.reasons.append(self._reason)
        self._state, self._rows, self._reason = None, 0, None

    def __enter__(self):
        self._step = step = engine.step
        clock = time.perf_counter_ns

        def timed_step(state, inputs):
            t0 = clock()
            out = step(state, inputs)
            t1 = clock()
            self.latencies_ns.append(t1 - t0)
            if state is not self._state:
                self._end_run()
                self._state = state
                self.runs += 1
                if self.setups is not None:
                    self.setups.catch_up(self.begin)
            self._rows += len(inputs)
            reason = check_outputs(out, len(inputs), self.num_classes)
            if reason is None:
                feed(self.digest, out)
            self._reason = self._reason or reason
            self.aside_ns += clock() - t1
            return out

        engine.step = timed_step
        return self

    def __exit__(self, *exc):
        engine.step = self._step
        self._end_run()
        return False


def protocol_reasons(result, clock):
    """Gate one protocol pass: (arm count, list of failure reasons)."""
    arms = [(sec, key, m) for sec in ("methods", "removals", "ratios") for key, m in result[sec].items()]
    reasons = list(clock.reasons)
    results = set()
    for sec, key, m in arms:
        vals = tuple(m.get(k) for k in ("acc", "auc", "h_score"))
        results.add(vals)
        if any(v is None or not (0.0 <= v <= 1.0) for v in vals):
            reasons.append(f"{sec}.{key} metrics invalid: {vals}")
    # Every distinct arm result needs a run of its own: fewer observed runs
    # means steps ran where the gate cannot see them, so the pass is unchecked.
    if clock.runs < len(results):
        reasons += [f"saw {clock.runs} runs for {len(results)} distinct arm results"] * len(arms)
    return len(arms), reasons


def measure_protocol(setup, seed, seconds, tracer=None, setups=None):
    """Whole protocol passes over one stream seed until `seconds` are used up.

    `setups`, a SetupTimer, repeats set-up between the pass's runs when given.
    """
    tally = Tally()
    d = setup.cfg.data
    first_digest = None
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = tally.units
        tally.units += 1
        clock = StepClock(d.num_samples, d.num_classes, setups, begin)
        t0 = time.perf_counter_ns()
        try:
            with clock:
                result = benchmark.run_protocol(setup.cfg, setup.model, seeds=(seed,))
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed_ns = time.perf_counter_ns() - t0 - clock.aside_ns
        if error:
            tally.attempted += PROTOCOL_ARMS
            tally.fail(PROTOCOL_ARMS, error)
            tally.add_unit(elapsed_ns, 0)
        else:
            arms, reasons = protocol_reasons(result, clock)
            h = hashlib.sha256(json.dumps(result, sort_keys=True).encode())
            h.update(clock.digest.digest())
            first_digest = first_digest or h.hexdigest()
            if not reasons and h.hexdigest() != first_digest:
                reasons = ["protocol output differs from its first pass"] * arms
            bad = min(len(reasons), arms)
            tally.attempted += arms
            if bad:
                tally.fail(bad, "; ".join(reasons[:3]))
            else:
                tally.latencies_ns.extend(clock.latencies_ns)
            tally.add_unit(elapsed_ns, (arms - bad) * d.num_samples)
        if not time_left(begin, tally.units, seconds):
            return tally


def measure(workload, setup, seed, seconds, tracer=None, setups=None):
    if workload == "protocol":
        return measure_protocol(setup, seed, seconds, tracer, setups)
    return measure_streams(setup, seconds, tracer, setups)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(tally, setup_s):
    lat_ms = np.asarray(tally.latencies_ns, dtype=np.float64) / 1e6
    p50, p99 = np.percentile(lat_ms, [50, 99]) if lat_ms.size else (0.0, 0.0)
    return {
        "samples_per_s": tally.samples_per_s,
        "batch_ms_p50": float(p50),
        "batch_ms_p99": float(p99),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def run(workload, seed, seconds, trace, overrides=None):
    """One benchmark run; returns the record that main prints and logs."""
    setups = SetupTimer(workload, seed, overrides)
    setup = setups.once()
    # A traced run measures one untraced pass only, as the reference for the
    # tracing overhead, and spends its time on the traced section.
    tally = measure(workload, setup, seed, 0 if trace else seconds, setups=setups)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "facts": machine_facts(seed),
        "end_to_end": end_to_end(tally, setups.median),
        "setup_repeats": len(setups.times),
        "setup_times_s": setups.times,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "units": tally.units,
        "samples_delivered": tally.delivered,
        "batch_samples": len(tally.latencies_ns),
        "reasons": tally.reasons[:5],
    }
    if trace:
        with spans.Tracer(spans.SETUP_TARGETS) as setup_tracer:
            set_up(workload, seed, overrides)
        with spans.Tracer() as tracer:
            traced = measure(workload, setup, seed, seconds, tracer)
        overhead = traced.samples_per_s - tally.samples_per_s
        record["per_layer"] = spans.layer_metrics(tracer, traced.units, setup_tracer, overhead)
        record["shares"] = spans.time_shares(tracer)
        record["absent"] = tracer.absent
        record["traced_units"] = traced.units
        record["attempted"] += traced.attempted
        record["failed"] += traced.failed
        record["reasons"] += traced.reasons[:5]
        record["tracer"] = tracer
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def report(record):
    """Human-readable lines, then the JSON result line; returns the exit code."""
    print(f"workload {record['workload']}, seed {record['seed']}, facts {json.dumps(record['facts'])}")
    print(
        f"attempted {record['attempted']}, failed {record['failed']}, "
        f"failed_frac {record['failed_frac']:.4f}, units {record['units']}, "
        f"batch latency samples {record['batch_samples']}, set-up repeats {record['setup_repeats']}"
    )
    for reason in record["reasons"]:
        print(f"FAILED: {reason.strip()}", file=sys.stderr)
    for name, value in record["end_to_end"].items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END.get(name) or UNGATED[name]}")
    metrics_out = {n: {"value": record["end_to_end"][n], "unit": u} for n, u in END_TO_END.items()}
    if record["trace"]:
        if record["absent"]:
            print(f"absent (not traced): {', '.join(record['absent'])}")
        print(f"traced units {record['traced_units']}; share of traced time (self / inclusive):")
        for name, (own, incl) in sorted(record["shares"].items(), key=lambda kv: -kv[1][1]):
            print(f"  {name:<46} {own:6.1%} {incl:6.1%}")
        for name, value in record["per_layer"].items():
            print(f"  {name:<50} {value:14.6f} {spans.PER_LAYER[name]}")
        metrics_out = {n: {"value": v, "unit": spans.PER_LAYER[n]} for n, v in record["per_layer"].items()}
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    record = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return report(record)


if __name__ == "__main__":
    sys.exit(main())
