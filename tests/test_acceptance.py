"""Acceptance gate: the ten commitments this library is built against.

Each numbered test checks one commitment end to end and prints exactly one
`[criterion N] PASS|FAIL — detail` line (visible with -rA/-s, and in the
failure message when red). Benchmark-level criteria (7-9) share one protocol
run over the committed config in configs/benchmark.json; its frozen 5-seed
means live in tests/golden/benchmark_golden.json and are regression-checked
here. Two benchmark criteria are currently red on this synthetic task; the
failure messages state the measured numbers and the mechanism.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import ReferenceBank, brute_force_auc, fd_param_gradient, joint_rel_err
from stamp_tta import benchmark, cli, diffnet, engine, losses, membank, metrics, optim
from stamp_tta.diffnet import ForwardMode

LOSS_VARIANTS = ("plain", "self", "static", "eata")


def report(num, ok, detail):
    line = "[criterion %s] %s — %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


# --- 1: analytic gradients vs central finite differences ---------------------


def _random_instance(seed):
    """One (model, memory batch) pair, re-drawn while any pre-ReLU value sits
    too close to its kink for central differences to be trustworthy."""
    from conftest import make_random_model, min_abs_preactivation

    rng = np.random.default_rng(seed)
    while True:
        sub = int(rng.integers(0, 2**31))
        model = make_random_model(
            sub,
            input_dim=int(rng.integers(2, 4)),
            hidden=tuple(int(rng.integers(3, 6)) for _ in range(2)),
            num_classes=int(rng.integers(3, 6)),
        )
        x = np.random.default_rng(sub + 7).normal(
            0.0, 1.5, (int(rng.integers(3, 9)), model.input_dim)
        )
        if min_abs_preactivation(model, x, ForwardMode.BATCH_STATS) > 1e-3:
            return model, x


def _fd_target(strategy, h_thr, base_logits):
    """FD objective matching each variant's differentiation semantics.

    The static and eata weightings treat their per-sample weights as
    constants inside the gradient, so the finite-difference target freezes
    those weights at the unperturbed entropies; plain and self-weighted
    differentiate the loss exactly as written.
    """
    if strategy in ("plain", "self"):
        return losses.make_entropy_objective(strategy, h_thr=h_thr)
    h0 = losses.entropy(losses.softmax(base_logits))
    if strategy == "static":
        w = losses.softmax(-h0)
        combine = lambda h: float(np.dot(w, h))  # noqa: E731
    else:
        w = np.exp(h_thr - h0)
        combine = lambda h: float(np.mean(w * h))  # noqa: E731

    def objective(logits):
        return combine(losses.entropy(losses.softmax(logits))), None

    return objective


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    instances = 100
    for i in range(instances):
        model, x = _random_instance(i)
        h_thr = 0.8 * math.log(model.num_classes)
        _, base_cache = diffnet.forward_cached(model, x, ForwardMode.BATCH_STATS)
        for strategy in LOSS_VARIANTS:
            objective = losses.make_entropy_objective(strategy, h_thr=h_thr)
            _, analytic = diffnet.grad(model, x, ForwardMode.BATCH_STATS, objective)
            fd = fd_param_gradient(
                model,
                "adaptable",
                x,
                ForwardMode.BATCH_STATS,
                _fd_target(strategy, h_thr, base_cache.logits),
                step=1e-5,
            )
            worst = max(worst, joint_rel_err(analytic, fd))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    line = report(
        1,
        ok,
        "max relative error %.2e over %d instances x %d variants in %.1fs"
        % (worst, instances, len(LOSS_VARIANTS), elapsed),
    )
    assert ok, line


# --- 2: cosine step decay is exact at the landmark steps ---------------------


def test_criterion_02_schedule_exactness():
    worst = 0.0
    for base_lr, horizon in ((0.05, 150), (2.0, 150), (1.0, 8), (0.3, 2)):
        expect = {
            0: base_lr,
            horizon // 2: base_lr / 2.0,
            horizon: 0.0,
            2 * horizon: 0.0,
        }
        for t, want in expect.items():
            got = optim.cosine_lr(base_lr, horizon, t)
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-15
    line = report(2, ok, "max deviation %.1e at t in {0, T/2, T, 2T}" % worst)
    assert ok, line


# --- 3: sharpness-aware step hand trace, and rho=0 degenerating to SGD -------


def test_criterion_03_sam_hand_trace():
    def quadratic(params):
        (theta,) = params
        return float(0.5 * np.sum(theta**2)), [theta.copy()]

    new, _ = optim.sam_step([np.array([1.0])], quadratic, 0.1, lr=0.5)
    trace_err = abs(float(new[0][0]) - 0.45)

    # rho=0 must reproduce plain SGD bit for bit, on the abstract step and on
    # a real model update alike
    params = [np.linspace(-1.0, 2.0, 7), np.array([[0.3, -0.4]])]

    def wavy(p):
        value = float(sum(np.sin(v).sum() for v in p))
        return value, [np.cos(v) for v in p]

    sam0, _ = optim.sam_step(list(params), wavy, 0.0, lr=0.7)
    sgd0, _ = optim.sgd_step(list(params), wavy, lr=0.7)
    bit_exact = len(sam0) == len(sgd0) == len(params) and all(
        a.tobytes() == b.tobytes() for a, b in zip(sam0, sgd0)
    )

    from conftest import make_random_model

    x = np.random.default_rng(3).normal(0.0, 1.0, (6, 3))
    objective = losses.make_entropy_objective("self")
    m_sam = make_random_model(11)
    m_sgd = make_random_model(11)
    optim.sam_update(m_sam, x, ForwardMode.BATCH_STATS, objective, 0.0, lr=0.2)
    optim.sgd_update(m_sgd, x, ForwardMode.BATCH_STATS, objective, lr=0.2)
    pa, pb = diffnet.params(m_sam), diffnet.params(m_sgd)
    bit_exact = bit_exact and all(a.tobytes() == b.tobytes() for a, b in zip(pa, pb))

    ok = trace_err <= 1e-12 and bit_exact
    line = report(
        3,
        ok,
        "quadratic trace error %.1e; rho=0 bit-equals SGD: %s" % (trace_err, bit_exact),
    )
    assert ok, line


# --- 4: memory invariants against the brute-force reference ------------------


def test_criterion_04_memory_invariants():
    t0 = time.time()
    violations = 0
    ops = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        capacity = int(rng.integers(2, 9))
        num_classes = int(rng.integers(2, 6))
        bank = membank.MemoryBank(capacity, num_classes, 2)
        ref = ReferenceBank(capacity, num_classes)
        for _ in range(200):
            ops += 1
            # admission filters agree with their direct definition
            p = rng.dirichlet(np.ones(num_classes))
            if rng.random() < 0.3:  # force ties and coarse values
                p = np.round(p, 1) + 1e-12
                p = p / p.sum()
            q = rng.dirichlet(np.ones(num_classes))
            if rng.random() < 0.2:
                q = p[::-1].copy()
            h_thr = float(rng.uniform(0.05, math.log(num_classes) + 0.2))
            verdict = membank.filter_masks(p[None], q[None], h_thr, losses.entropy(p[None]))
            h_direct = float(-(p * np.log(np.maximum(p, 1e-300))).sum())
            want_admit = (int(np.argmax(p)) == int(np.argmax(q))) and (
                h_direct < h_thr
            )
            if verdict.admitted[0] != want_admit:
                violations += 1
            if not verdict.admitted[0]:
                continue
            label = int(np.argmax(p))
            feats = rng.normal(0.0, 1.0, 2)
            bank.insert(feats[None], [label])
            ref.insert(feats, label)
            if len(bank) > capacity:
                violations += 1
            if bank.class_counts().tolist() != [
                ref.labels().count(c) for c in range(num_classes)
            ]:
                violations += 1
            if rng.random() < 0.2:
                beta = float(rng.uniform(0.05, 1.0))
                bank.update_class_frequency(beta)
                ref.update_freq(beta)
                if np.max(np.abs(bank.class_frequency - np.array(ref.freq))) > 1e-12:
                    violations += 1
        stored, labels = bank.contents()
        if labels.tolist() != ref.labels() or not np.array_equal(
            stored, ref.features().reshape(stored.shape)
        ):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    line = report(
        4, ok, "%d operations, %d violations, %.1fs" % (ops, violations, elapsed)
    )
    assert ok, line


# --- 5: rank AUROC equals the pairwise count; trapezoid area agrees ----------


def test_criterion_05_auc_oracle():
    exact = True
    worst_trap = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 7))
        n_neg = int(rng.integers(1, 7))
        # small integer grid guarantees heavy tying
        scores = rng.integers(0, 5, n_pos + n_neg).astype(np.float64)
        outlier = np.concatenate(
            [np.ones(n_pos, dtype=bool), np.zeros(n_neg, dtype=bool)]
        )
        perm = rng.permutation(n_pos + n_neg)
        scores, outlier = scores[perm], outlier[perm]
        auc = metrics.auroc(scores, outlier)
        if auc != brute_force_auc(scores, outlier):
            exact = False
        fpr, tpr = metrics.roc_curve(scores, outlier)
        trap = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
        worst_trap = max(worst_trap, abs(trap - auc))
    ok = exact and worst_trap <= 1e-12
    line = report(
        5,
        ok,
        "1000 tied instances: rank==pairwise %s, max |trapezoid-rank| %.1e"
        % (exact, worst_trap),
    )
    assert ok, line


# --- 6: harmonic score worked value ------------------------------------------


def test_criterion_06_h_score_value():
    got = metrics.h_score(57.9, 97.5)
    err = abs(got - 72.6)
    ok = err <= 0.1
    line = report(6, ok, "h(57.9, 97.5) = %.4f (|delta| %.4f <= 0.1)" % (got, err))
    assert ok, line


# --- benchmark protocol shared by criteria 7-9 --------------------------------


@pytest.fixture(scope="module")
def bench():
    cfg = benchmark.load_benchmark_config()
    model, val_acc = engine.pretrain_source(cfg)
    assert val_acc >= cfg.model.accuracy_floor
    return benchmark.run_protocol(cfg, model=model)


def test_criterion_07a_accuracy_gain(bench):
    m = bench["methods"]
    gain = m["stamp"]["acc"] - m["source"]["acc"]
    ok = gain >= 0.05
    line = report(
        "7a",
        ok,
        "mean ACC stamp %.4f vs source %.4f (gain %+.4f, need >= +0.05)"
        % (m["stamp"]["acc"], m["source"]["acc"], gain),
    )
    assert ok, line


def test_criterion_07b_tent_auc_degradation(bench):
    m = bench["methods"]
    ok = m["tent"]["auc"] <= m["source"]["auc"]
    line = report(
        "7b",
        ok,
        "mean AUC tent %.4f vs source %.4f (need tent <= source). On this "
        "2-d benchmark batch-stats normalization compresses far-field outlier "
        "logits, so every batch-stats method scores outliers better than the "
        "frozen source model, and tent's entropy descent sharpens "
        "mid-entropy normals first; its AUC therefore lands above source "
        "rather than below." % (m["tent"]["auc"], m["source"]["auc"]),
    )
    assert ok, line


def test_criterion_07c_stamp_tops_auc_and_h(bench):
    m = bench["methods"]
    auc_gap = m["stamp"]["auc"] - m["tent"]["auc"]
    best_other = max(m[k]["h_score"] for k in ("source", "bn_stats", "tent"))
    h_gap = m["stamp"]["h_score"] - best_other
    ok = auc_gap > 0 and h_gap > 0
    line = report(
        "7c",
        ok,
        "stamp AUC %+.4f over tent; stamp H %+.4f over best baseline"
        % (auc_gap, h_gap),
    )
    assert ok, line


def test_criterion_08_ablation_directionality(bench, tmp_path):
    full_h = bench["methods"]["stamp"]["h_score"]
    worst_arm = max(bench["removals"], key=lambda k: bench["removals"][k]["h_score"])
    excess = bench["removals"][worst_arm]["h_score"] - full_h

    # the full comparison table is emitted regardless of the directional check
    out = tmp_path / "ablation"
    code = cli.main(
        ["ablate", "--config", benchmark.DEFAULT_CONFIG_PATH, "--out", str(out)]
    )
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    arms_emitted = len(rows) - 1

    ok = excess <= 0.01 and code == 0 and arms_emitted == 12
    line = report(
        8,
        ok,
        "worst single-removal arm %r exceeds full H by %+.4f (allowance 0.01); "
        "%d-arm table emitted" % (worst_arm, excess, arms_emitted),
    )
    assert ok, line


def test_criterion_09_ratio_robustness(bench):
    h_by_ratio = {k: v["h_score"] for k, v in bench["ratios"].items()}
    auc_by_ratio = {k: v["auc"] for k, v in bench["ratios"].items()}
    h_range = max(h_by_ratio.values()) - min(h_by_ratio.values())
    min_auc = min(auc_by_ratio.values())
    ok = h_range <= 0.06 and min_auc > 0.5
    line = report(
        9,
        ok,
        "H range %.4f (need <= 0.06), min AUC %.4f (need > 0.5) across ratios "
        "%s. Confident outliers that fall inside a class's score cone pass "
        "both admission filters, so replay memory pollution grows with the "
        "outlier ratio and drags the entropy score's AUC below 0.5 at high "
        "ratios; the 45-degree cluster shift leaves normals boundary-straddling "
        "and entropic, which caps separability from the start."
        % (h_range, min_auc, sorted(h_by_ratio)),
    )
    assert ok, line


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(
            ["run", "--config", benchmark.DEFAULT_CONFIG_PATH, "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    same_summary = (outs[0] / "summary.json").read_bytes() == (
        outs[1] / "summary.json"
    ).read_bytes()
    same_records = (outs[0] / "records.csv").read_bytes() == (
        outs[1] / "records.csv"
    ).read_bytes()
    ok = same_summary and same_records
    line = report(
        10,
        ok,
        "summary.json byte-identical: %s; records.csv byte-identical: %s"
        % (same_summary, same_records),
    )
    assert ok, line


# --- frozen-number regression over the whole protocol -------------------------


def test_golden_regression(bench):
    golden = benchmark.load_golden()
    drift = benchmark.compare_to_golden(bench, golden)
    detail = "; ".join("%s got=%s want=%.4f" % d for d in drift) or (
        "all means within %.3g of tests/golden/benchmark_golden.json"
        % golden["tolerance"]
    )
    ok = not drift
    line = report("golden", ok, detail)
    assert ok, line
