"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``).
Criteria 3-5 run the shipped default experiment config (configs/default.ini)
with paired seeds, so the numbers they check are fully deterministic.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltlab.baselines import cb_weights, inv_freq_weights
from ltlab.cli import main
from ltlab.config import load_experiment_config
from ltlab.data import gaussian_mixture
from ltlab.nc_metrics import class_means, nc1, nc2, nc3
from ltlab.reweighting import closed_form_weight, loss_imbalance_rho
from ltlab.scheduler import LrSpec, learning_rates, mittag_leffler, ml_tail
from ltlab.trainer import (
    TrainConfig,
    _ce_from_logits,
    backward,
    forward,
    init_params,
    run_experiment,
)

from oracles import central_difference, fixture_bank, make_nc_fixture, trainer_losses, weighted_ce_dlogits

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.ini"
SEEDS = (1, 2, 3)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    return ok


def descent_direction_bisect(fn, lo, hi, iters=100):
    """Vectorized 1-D minimizer: bisect on the sign of a central-difference
    slope of ``fn``. Uses only objective evaluations; the central difference
    of a quadratic is exact for any step, so the located minimum is limited
    only by evaluation rounding."""
    a, b = lo.copy(), hi.copy()
    for _ in range(iters):
        mid = 0.5 * (a + b)
        h = 1e-2 * (1.0 + np.abs(mid))
        rising = fn(mid + h) - fn(mid - h) > 0.0
        b = np.where(rising, mid, b)
        a = np.where(rising, a, mid)
    return 0.5 * (a + b)


def test_criterion_1_closed_form_matches_numerical_minimizer():
    start = time.time()
    rng = np.random.default_rng(20240601)
    n = 10_000
    l_c = rng.uniform(0.0, 10.0, n)
    l_bar = rng.uniform(0.0, 10.0, n)
    alpha = rng.uniform(0.0, 5.0, n)
    w0 = rng.uniform(1e-6, 3.0, n)

    closed = np.array([closed_form_weight(l_c[i], l_bar[i], alpha[i], w0[i]) for i in range(n)])

    def objective(w):
        return (w * l_c - l_bar) ** 2 + alpha * (w - w0) ** 2

    # independent bracket from the objective alone: the minimum value is at
    # most phi(0), which bounds both quadratic terms separately
    phi0 = l_bar ** 2 + alpha * w0 ** 2
    hi_loss = np.where(l_c > 0, (l_bar + np.sqrt(phi0)) / np.where(l_c > 0, l_c, 1.0), np.inf)
    hi_anchor = np.where(alpha > 0, w0 + np.sqrt(phi0 / np.where(alpha > 0, alpha, 1.0)), np.inf)
    hi = np.minimum(hi_loss, hi_anchor) + 1.0
    numeric = descent_direction_bisect(objective, np.zeros(n), hi)

    max_dev = float(np.abs(closed - numeric).max())
    elapsed = time.time() - start
    ok = max_dev <= 1e-7 and elapsed < 5.0
    assert report(1, ok, f"max |closed - numeric| = {max_dev:.2e} over {n} tuples, {elapsed:.2f}s"), max_dev


def test_criterion_2_collapsed_fixture_properties():
    start = time.time()
    rng = np.random.default_rng(77)
    worst = {"spread": 0.0, "rho": 0.0, "nc1": 0.0, "nc2": 0.0, "nc3": 0.0}
    for _ in range(10):
        c = int(rng.integers(2, 17))
        p = int(rng.integers(c, 65))
        fx = make_nc_fixture(
            c, p,
            n_per_class=int(rng.integers(1, 5)),
            scale=float(rng.uniform(0.5, 3.0)),
            radius=float(rng.uniform(0.5, 2.0)),
            global_mean=rng.standard_normal(p),
            seed=int(rng.integers(0, 2**31)),
        )
        # Per-class losses as the epoch-end report takes them: the trainer's
        # cross entropy, averaged per class by a bincount.
        bank = fixture_bank(fx)
        counts = np.diff(bank.offsets)
        labels = np.repeat(np.arange(len(counts)), counts)
        losses = np.bincount(labels, weights=_ce_from_logits(bank.features @ fx.classifier.T, labels)) / counts
        worst["spread"] = max(worst["spread"], float(losses.max() - losses.min()))
        worst["rho"] = max(worst["rho"], loss_imbalance_rho(losses))
        means, global_mean = class_means(bank)
        worst["nc1"] = max(worst["nc1"], nc1(bank, means, global_mean))
        worst["nc2"] = max(worst["nc2"], nc2(fx.classifier))
        worst["nc3"] = max(worst["nc3"], nc3(fx.classifier, means, global_mean))
    elapsed = time.time() - start
    ok = (worst["spread"] <= 1e-12 and worst["rho"] <= 1e-12
          and worst["nc1"] <= 1e-9 and worst["nc2"] <= 1e-9 and worst["nc3"] <= 1e-9
          and elapsed < 5.0)
    assert report(2, ok, "worst loss spread {spread:.1e}, rho {rho:.1e}, "
                         "nc1 {nc1:.1e}, nc2 {nc2:.1e}, nc3 {nc3:.1e}".format(**worst)
                         + f", {elapsed:.2f}s"), worst


@pytest.fixture(scope="module")
def default_experiment():
    return load_experiment_config(str(DEFAULT_CONFIG))


def run_arm(train_cfg: TrainConfig, train_set, test_set, mode: str):
    """The arm's summaries, one per seed of SEEDS, trained as one lockstep stack."""
    method = replace(train_cfg.method, name="ce" if mode == "ce" else "inverse")
    rmode = mode if mode != "ce" else "both"
    cfg = replace(train_cfg, method=method, reweight=replace(train_cfg.reweight, mode=rmode))
    return [summary for _, summary, _ in run_experiment(cfg, train_set, test_set, SEEDS)]


@pytest.fixture(scope="module")
def paired_runs(default_experiment):
    """All arms at IF=100 plus ce/inverse across the other imbalance factors."""
    out = {}
    for imb in (50.0, 100.0, 200.0):
        spec = replace(default_experiment.dataset, imbalance_factor=imb)
        train_set, test_set = gaussian_mixture(spec)
        modes = ("ce", "batch", "macro", "both") if imb == 100.0 else ("ce", "both")
        for mode in modes:
            out[(imb, mode)] = run_arm(default_experiment.train, train_set, test_set, mode)
    return out


def med(runs, key):
    return float(np.median([r[key] for r in runs]))


def mean(runs, key):
    return float(np.mean([r[key] for r in runs]))


def test_criterion_3_geometry_recovery(paired_runs):
    start = time.time()
    ce = paired_runs[(100.0, "ce")]
    inv = paired_runs[(100.0, "both")]
    rho_ce, rho_inv = med(ce, "rho_final"), med(inv, "rho_final")
    nc2_ce, nc2_inv = med(ce, "nc2"), med(inv, "nc2")
    nc3_ce, nc3_inv = med(ce, "nc3"), med(inv, "nc3")
    ok = rho_inv < rho_ce and nc2_inv < nc2_ce and nc3_inv < nc3_ce
    elapsed = time.time() - start
    assert report(3, ok,
                  f"rho {rho_ce:.3f}->{rho_inv:.3f}, nc2 {nc2_ce:.3f}->{nc2_inv:.3f}, "
                  f"nc3 {nc3_ce:.3f}->{nc3_inv:.3f} (seed-medians), {elapsed:.1f}s")


def test_criterion_4_balanced_accuracy_ordering(paired_runs):
    details = []
    ok = True
    for imb in (50.0, 100.0, 200.0):
        ce = paired_runs[(imb, "ce")]
        inv = paired_runs[(imb, "both")]
        bal_ce, bal_inv = mean(ce, "bal_acc"), mean(inv, "bal_acc")
        tail_ce, tail_inv = mean(ce, "acc_tail"), mean(inv, "acc_tail")
        ok = ok and bal_inv > bal_ce and tail_inv > tail_ce
        details.append(f"IF={imb:.0f} bal {bal_ce:.3f}->{bal_inv:.3f} tail {tail_ce:.3f}->{tail_inv:.3f}")
    assert report(4, ok, "; ".join(details))


def test_criterion_5_component_ablation(paired_runs):
    ce = med(paired_runs[(100.0, "ce")], "bal_acc")
    batch = med(paired_runs[(100.0, "batch")], "bal_acc")
    macro = med(paired_runs[(100.0, "macro")], "bal_acc")
    both = med(paired_runs[(100.0, "both")], "bal_acc")
    ok = batch > ce and macro > ce and both >= max(batch, macro)
    assert report(5, ok,
                  f"ce={ce:.4f}, batch={batch:.4f}, macro={macro:.4f}, both={both:.4f} "
                  f"(seed-median balanced accuracy)")


def test_criterion_6_decay_curve_numerics():
    start = time.time()
    grid_err = max(abs(mittag_leffler(1.0, float(z)) - math.exp(-z))
                   for z in np.arange(0.0, 1.0, 0.1))
    exact_one = all(mittag_leffler(a, 0.0) == 1.0 for a in (0.1, 0.5, 0.9, 1.0))
    tail_match = all(mittag_leffler(a, z) == ml_tail(a, z)
                     for a in (0.3, 0.5, 0.9) for z in (1.0, 2.5, 10.0))
    spec = LrSpec(schedule="mile", eta0=0.1, warmup_epochs=1, switch_epoch=15, tail_param=0.5, eps=1e-3)
    lrs = learning_rates(spec, 20, 10)  # t_warm = 10, t_switch = 15 * 10 - 10 = 140
    stage1 = lrs[10:150]
    stage2 = lrs[150:]
    monotone = (np.all(np.diff(stage1) <= 1e-15) and np.all(np.diff(stage2) <= 1e-15))
    elapsed = time.time() - start
    ok = grid_err <= 1e-6 and exact_one and tail_match and bool(monotone) and elapsed < 1.0
    assert report(6, ok, f"grid err {grid_err:.1e}, E_a(0)=1 {exact_one}, "
                         f"tail branch exact {tail_match}, stages monotone {bool(monotone)}, {elapsed:.2f}s")


def test_criterion_7_gradient_check():
    start = time.time()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for trial in range(50):
        hidden = 0 if trial % 2 == 0 else int(rng.integers(3, 8))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        m = int(rng.integers(2, 10))
        params = init_params(c, d, hidden, seed=int(rng.integers(0, 2**31)))
        x = rng.standard_normal((m, d))
        y = rng.integers(0, c, m)
        w = rng.uniform(0.1, 3.0, m)
        h, z = forward(params, x)
        grads = params.zeros_like()
        backward(params, x, h, weighted_ce_dlogits(z, y, w), grads)
        grads = grads.tensors()

        def loss():
            _, z = forward(params, x)
            return float(np.mean(w * _ce_from_logits(z, y)))

        for name, g in grads.items():
            fd = central_difference(getattr(params, name), loss, h=1e-5)
            worst = max(worst, float(np.abs(g - fd).max() / max(1.0, np.abs(fd).max())))
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    assert report(7, ok, f"max relative gradient error {worst:.2e} over 50 batches, {elapsed:.1f}s")


def test_criterion_8_baseline_sanity():
    start = time.time()
    counts = (500, 120, 37, 9, 1)
    cb0 = cb_weights(counts, 0.0)
    cb0_exact = bool(np.all(cb0 == 1.0))

    rng = np.random.default_rng(9)
    probs, targets = zip(*((rng.dirichlet(np.ones(6)), int(rng.integers(6))) for _ in range(25)))
    probs, targets = np.array(probs), np.array(targets)
    focal = trainer_losses("focal", np.log(probs), targets, focal_gamma=0.0)
    focal_ce = bool(np.all(np.abs(focal + np.log(probs[np.arange(25), targets])) <= 1e-12))

    cb_lim = cb_weights(counts, 1.0 - 1e-8)
    ratio = cb_lim / inv_freq_weights(counts)
    ratio_const = float(np.abs(ratio / ratio[0] - 1.0).max())

    ib_zero = trainer_losses("ib", [[-1e4, -1e4, 0.0]], [2], np.ones((1, 5)), ib_eps=1e-3)[0] == 0.0
    elapsed = time.time() - start
    ok = cb0_exact and focal_ce and ratio_const <= 1e-4 and ib_zero and elapsed < 1.0
    assert report(8, ok, f"cb(beta=0)==1 {cb0_exact}, focal(gamma=0)==CE {focal_ce}, "
                         f"limit-ratio dev {ratio_const:.1e}, ib perfect-pred==0 {ib_zero}, {elapsed:.2f}s")


def test_criterion_9_training_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["train", "--config", str(DEFAULT_CONFIG), "--out", str(out1)])
    code2 = main(["train", "--config", str(DEFAULT_CONFIG), "--out", str(out2)])
    same = (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    assert report(9, ok, f"byte-identical metrics.csv across reruns: {same}")
