"""Acceptance suite: every exit criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear;
criterion 8 trains twelve toy models and dominates the runtime.
"""

import time
from itertools import combinations

import numpy as np

from histadapter.autodiff import Tensor
from histadapter.cdc import CdcConv
from histadapter.config import load_config
from histadapter.gradcheck import run_gradient_checks
from histadapter.histogram import SoftHistogram
from histadapter.losses import batch_tsr, binary_cross_entropy_with_logits
from histadapter.metrics import ScoreSet, acer_suite, auc, eer, roc
from histadapter.optim import Adam
from histadapter.overhead import account
from histadapter.training import evaluate_run, train_run
from histadapter.vit import build_model

from oracles import (
    acer_counting,
    auc_pairwise,
    cdc_difference_loops,
    conv2d_loops,
    eer_sweep,
    soft_histogram_loops,
)
from reference_ops import conv2d


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gradient_integrity():
    start = time.time()
    reports = run_gradient_checks(instances_per_op=5, seed=0)
    elapsed = time.time() - start
    failures = [r for r in reports if not r.passed]
    ok = not failures and elapsed < 120.0
    report(1, ok, f"{len(reports)} FD checks (per-op tol 1e-5, composed 1e-4) "
                  f"in {elapsed:.1f}s < 120s; failures: {[r.op_name for r in failures]}")


def test_criterion_2_histogram_correctness():
    rng = np.random.default_rng(2)
    worst = 0.0
    in_range = True
    for _ in range(1000):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        layer = SoftHistogram(c)
        layer.mu.data = rng.standard_normal(c)
        layer.gamma.data = rng.standard_normal(c) * 2
        z = rng.standard_normal((1, c, h, w)) * 2
        got = layer.forward_tensor(Tensor(z)).data[0]
        want = soft_histogram_loops(z[0], layer.mu.data, layer.gamma.data)
        worst = max(worst, float(np.abs(got - want).max()))
        in_range = in_range and bool(np.all((got > 0.0) & (got <= 1.0)))
    spike = np.zeros((1, 1, 3, 3))
    spike[0, 0, 1, 1] = 1.0
    center = SoftHistogram(1).forward_tensor(Tensor(spike)).data[0, 0, 1, 1]
    hand_err = abs(center - (8.0 + np.exp(-1.0)) / 9.0)
    ok = worst < 1e-12 and in_range and hand_err < 1e-12
    report(2, ok, f"1000 layered-vs-direct inputs, max abs err {worst:.2e} < 1e-12; "
                  f"outputs in (0,1]: {in_range}; spike hand case err {hand_err:.2e}")


def test_criterion_3_cdc_identities():
    rng = np.random.default_rng(3)
    layer = CdcConv(2, 2, rng, theta=0.0)
    layer.bias.data = rng.standard_normal(2)
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    theta0 = np.array_equal(
        layer.forward_tensor(x).data,
        conv2d(x, layer.kernel, layer.bias).data,
    )

    diff_layer = CdcConv(2, 2, rng, theta=1.0)
    diff_layer.bias.data[:] = 0.0
    const = Tensor(np.full((1, 2, 5, 5), -1.37))
    const_zero = bool(np.all(diff_layer.forward_tensor(const).data == 0.0))

    worst = 0.0
    blend = CdcConv(2, 2, rng, theta=0.7)
    blend.bias.data = rng.standard_normal(2)
    for _ in range(20):
        xi = rng.standard_normal((1, 2, 5, 5))
        got = blend.forward_tensor(Tensor(xi)).data[0]
        want = (0.3 * conv2d_loops(xi[0], blend.kernel.data, blend.bias.data, 1, 1)
                + 0.7 * cdc_difference_loops(xi[0], blend.kernel.data))
        worst = max(worst, float(np.abs(got - want).max()))
    ok = theta0 and const_zero and worst < 1e-10
    report(3, ok, f"theta=0 bit-exact: {theta0}; constant-input difference "
                  f"exactly zero: {const_zero}; loop-oracle max err {worst:.2e} < 1e-10")


def test_criterion_4_adapter_identity_at_init():
    rng = np.random.default_rng(4)
    images = rng.uniform(size=(100, 3, 32, 32))
    frozen = build_model("toy", seed=11, variant=None)
    adapted = build_model("toy", seed=11, variant="full")
    identical = np.array_equal(frozen.forward(images).data,
                               adapted.forward(images).data)

    snapshot = {k: v.data.copy() for k, v in adapted.backbone_parameters().items()}
    opt = Adam(adapted.trainable_parameters(), lr=1e-2)
    labels = np.tile([0, 1], 8)
    for _ in range(5):
        loss = binary_cross_entropy_with_logits(
            adapted.forward(images[:16]), labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
    frozen_ok = all(np.array_equal(adapted.backbone_parameters()[k].data, v)
                    for k, v in snapshot.items())
    ok = identical and frozen_ok
    report(4, ok, f"zero-init dim_up identity on 100 images: {identical}; "
                  f"frozen parameters bit-identical after 5 steps: {frozen_ok}")


def test_criterion_5_tsr_algebra():
    def domain_tsr(grids):
        # one bona fide (C, H, W) map per domain
        return float(batch_tsr(Tensor(np.stack(grids)), np.zeros(len(grids)),
                               np.arange(len(grids))).data)

    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 4, 4))
    self_zero = domain_tsr([z, z]) == 0.0
    sign_zero = domain_tsr([z, -z]) == 0.0

    grids = [rng.standard_normal((3, 4, 4)) for _ in range(3)]
    avg = domain_tsr(grids)
    pairs = [domain_tsr([a, b]) for a, b in combinations(grids, 2)]
    three_pairs = len(pairs) == 3 and abs(avg - np.mean(pairs)) < 1e-15

    maps = Tensor(rng.standard_normal((6, 3, 2, 2)), requires_grad=True)
    labels = np.array([0, 1, 0, 1, 0, 1])
    domains = np.array([0, 0, 1, 1, 2, 2])
    out = batch_tsr(maps, labels, domains)
    out.backward()
    attack_zero = bool(np.all(maps.grad[labels == 1] == 0.0)) \
        and bool(np.any(maps.grad[labels == 0] != 0.0))
    ok = self_zero and sign_zero and three_pairs and attack_zero
    report(5, ok, f"pair(z,z)=0: {self_zero}; pair(z,-z)=0: {sign_zero}; "
                  f"3 domains -> exactly 3 pairs averaged: {three_pairs}; "
                  f"attack-example gradient identically zero: {attack_zero}")


def test_criterion_6_metric_oracle_equivalence():
    rng = np.random.default_rng(6)
    for trial in range(100):
        n = int(rng.integers(4, 201))
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 2)] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.uniform(size=n)
        if trial % 2:
            quantize = rng.uniform(size=n) < 0.4
            scores[quantize] = np.round(scores[quantize], 1)
        s = ScoreSet(scores, labels)
        slist, llist = s.scores.tolist(), s.labels.tolist()
        assert auc(roc(s)) == auc_pairwise(slist, llist), f"auc trial {trial}"
        assert eer(s) == eer_sweep(slist, llist), f"eer trial {trial}"
        assert acer_suite(s) == acer_counting(slist, llist), f"acer trial {trial}"
    report(6, True, "AUC/EER/ACER equal brute-force pairwise and threshold-sweep "
                    "oracles exactly on 100 random score sets (n <= 200)")


def test_criterion_7_overhead_ratio():
    r = account("base", adapter_dim=8)
    ok = (r.param_ratio < 0.01 and r.mac_ratio < 0.01
          and 0.0038 / 2 <= r.param_ratio <= 0.0038 * 2
          and 0.0045 / 2 <= r.mac_ratio <= 0.0045 * 2)
    report(7, ok, f"base preset: params +{100 * r.param_ratio:.3f}% "
                  f"(reference 0.38%), MACs +{100 * r.mac_ratio:.3f}% "
                  f"(reference 0.45%); both < 1% and within factor 2")


def _ablation_cell(tmp_path, variant, lam, fusion, seeds):
    hters = []
    for seed in seeds:
        out = tmp_path / f"{variant}-l{lam}-{fusion}-s{seed}"
        cfg = load_config("configs/ablation.cfg", {
            "variant": variant, "lambda": lam, "fusion": fusion,
            "seed": seed, "out": str(out),
        })
        result = train_run(cfg)
        hters.append(evaluate_run(cfg, result.checkpoint_path).hter)
    return float(np.mean(hters)), hters


def test_criterion_8_directional_ablations(tmp_path):
    start = time.time()
    seeds = (0, 1, 2)
    full_plain, d1 = _ablation_cell(tmp_path, "full", "0", "sum", seeds)
    vanilla, d2 = _ablation_cell(tmp_path, "vanilla_linear", "0", "sum", seeds)
    full_tsr, d3 = _ablation_cell(tmp_path, "full", "0.1", "sum", seeds)
    concat, d4 = _ablation_cell(tmp_path, "full", "0.1", "concat", seeds)
    elapsed = time.time() - start

    a = full_plain < vanilla
    b = full_tsr <= full_plain
    c = full_tsr <= concat
    ok = a and b and c and elapsed < 15 * 60
    report(8, ok,
           f"12 runs in {elapsed / 60:.1f} min < 15 min; mean held-out HTER: "
           f"(a) full {full_plain:.3f} < vanilla {vanilla:.3f}: {a}; "
           f"(b) lambda 0.1 {full_tsr:.3f} <= lambda 0 {full_plain:.3f}: {b}; "
           f"(c) summation {full_tsr:.3f} <= concatenation {concat:.3f}: {c} "
           f"(per-seed: full={d1}, vanilla={d2}, tsr={d3}, concat={d4})")


def test_criterion_9_determinism(tmp_path):
    overrides = {"epochs": "3", "batch_size": "12", "train_per_class": "8",
                 "test_per_class": "8", "val_per_class": "8", "seed": 7}
    runs = []
    for tag in ("a", "b"):
        cfg = load_config("configs/ablation.cfg",
                          {**overrides, "out": str(tmp_path / tag)})
        runs.append(train_run(cfg))
    same_log = runs[0].log_path.read_bytes() == runs[1].log_path.read_bytes()
    same_ckpt = runs[0].checkpoint_path.read_bytes() == runs[1].checkpoint_path.read_bytes()
    ok = same_log and same_ckpt
    report(9, ok, f"identical (seed, config) twice: training-log bytes equal: "
                  f"{same_log}; checkpoint bytes equal: {same_ckpt}")
