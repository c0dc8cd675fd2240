import math

import numpy as np
import pytest

from ltlab.baselines import range_loss, range_loss_grad
from ltlab.data import LongTailSpec, gaussian_mixture
from ltlab.errors import ConfigError
from ltlab.reweighting import ReweightConfig
from ltlab.trainer import (
    LrSpec,
    MethodConfig,
    ModelParams,
    TrainConfig,
    _ce_from_logits,
    _grads_from_dz,
    backward,
    ce_loss,
    forward,
    forward_batch,
    init_params,
    prepare_run,
    run_experiment,
    sgd_step,
    train_epoch,
)


def small_linear_params(seed=0, c=3, d=4):
    return init_params(c, d, 0, seed)


def weighted_ce(params, x, y, w):
    _, z, _ = forward_batch(params, x)
    return float(np.mean(np.asarray(w) * _ce_from_logits(z, np.asarray(y))))


def finite_difference(params, name, loss, h=1e-5):
    """Central differences of loss() w.r.t. every entry of params.<name>."""
    arr = getattr(params, name)
    fd = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + h
        up = loss()
        arr[i] = orig - h
        down = loss()
        arr[i] = orig
        fd[i] = (up - down) / (2 * h)
        it.iternext()
    return fd


class TestForward:
    def test_zero_logits_uniform(self):
        params = ModelParams(weights=np.zeros((4, 3)), bias=np.zeros(4))
        _, _, probs = forward(params, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(probs, 0.25, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dominant_logit(self):
        params = ModelParams(weights=np.array([[500.0], [0.0], [0.0]]), bias=np.zeros(3))
        _, _, probs = forward(params, np.array([1.0]))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-200)

    def test_identity_model_logits(self):
        params = ModelParams(weights=np.eye(3), bias=np.array([0.1, 0.2, 0.3]))
        x = np.array([1.0, 2.0, 3.0])
        h, z, _ = forward(params, x)
        assert np.array_equal(h, x)
        assert np.allclose(z, [1.1, 2.2, 3.3])

    def test_hidden_relu_path(self):
        params = ModelParams(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            bias=np.zeros(2),
            hidden_weights=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            hidden_bias=np.zeros(2),
        )
        h, _, _ = forward(params, np.array([2.0, 9.0, 9.0]))
        assert np.array_equal(h, [2.0, 0.0])

    def test_dimension_mismatch(self):
        params = small_linear_params()
        with pytest.raises(ValueError):
            forward(params, np.ones(7))


class TestCeLoss:
    def test_uniform_two_classes(self):
        assert ce_loss([0.5, 0.5], 0) == pytest.approx(math.log(2), rel=1e-12)

    def test_correct_one_hot(self):
        assert ce_loss([0.0, 1.0], 1) == 0.0

    def test_non_target_permutation_invariance(self):
        params = ModelParams(weights=np.eye(4), bias=np.zeros(4))
        z1 = np.array([[1.0, 2.0, 3.0, 0.5]])
        z2 = np.array([[1.0, 0.5, 3.0, 2.0]])  # swap non-target logits
        l1 = _ce_from_logits(z1, np.array([2]))
        l2 = _ce_from_logits(z2, np.array([2]))
        assert l1[0] == pytest.approx(l2[0], rel=1e-15)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            ce_loss([1.0, 0.0], 1)


class TestBackward:
    def test_zero_weights_zero_gradient(self):
        params = small_linear_params()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        grads = backward(params, x, y, np.zeros(6))
        assert all(np.abs(g).max() == 0.0 for g in grads.values())

    def test_doubling_weights_doubles_gradient(self):
        params = small_linear_params(seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        w = rng.uniform(0.1, 2.0, 5)
        g1 = backward(params, x, y, w)
        g2 = backward(params, x, y, 2 * w)
        for k in g1:
            assert np.allclose(g2[k], 2 * g1[k], rtol=1e-15)

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_finite_difference_agreement(self, hidden):
        rng = np.random.default_rng(3)
        params = init_params(4, 6, hidden, seed=4)
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 4, 8)
        w = rng.uniform(0.2, 2.0, 8)
        grads = backward(params, x, y, w)
        for name, g in grads.items():
            fd = finite_difference(params, name, lambda: weighted_ce(params, x, y, w))
            rel = np.abs(g - fd).max() / max(1.0, np.abs(fd).max())
            assert rel < 1e-5, f"{name}: {rel}"

    def test_range_path_finite_difference(self):
        # Training adds the range regularizer on the hidden features and
        # reaches the hidden layer only through dh_extra, composed as here.
        method = MethodConfig(name="range")
        range_args = (method.range_k, method.range_margin, method.range_alpha, method.range_beta)
        rng = np.random.default_rng(11)
        params = init_params(3, 5, 6, seed=12)
        x = rng.standard_normal((12, 5))
        y = np.repeat(np.arange(3), 4)
        m = len(y)

        def loss():
            h, z, _ = forward_batch(params, x)
            return float(np.mean(_ce_from_logits(z, y))) + method.range_lambda * range_loss(h, y, *range_args)

        h, z, probs = forward_batch(params, x)
        dz = probs.copy()
        dz[np.arange(m), y] -= 1.0
        dz /= m
        _, range_grad = range_loss_grad(h, y, *range_args)
        grads = _grads_from_dz(params, x, h, z, dz, dh_extra=method.range_lambda * range_grad)
        ce_only = _grads_from_dz(params, x, h, z, dz)
        for name, g in grads.items():
            fd = finite_difference(params, name, loss, h=1e-6)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() / scale < 1e-6, name
            if name.startswith("hidden"):
                # The range term moves these far beyond the tolerance.
                assert np.abs(ce_only[name] - fd).max() / scale > 1e-3, name

    def test_gradient_is_weighted_sum_of_per_sample_gradients(self):
        params = small_linear_params(seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 4))
        y = rng.integers(0, 3, 7)
        w = rng.uniform(0.1, 3.0, 7)
        total = backward(params, x, y, w)
        accum = {k: np.zeros_like(v) for k, v in total.items()}
        for i in range(7):
            gi = backward(params, x[i:i + 1], y[i:i + 1], w[i:i + 1])
            for k in accum:
                accum[k] += gi[k] / 7.0
        for k in total:
            assert np.abs(total[k] - accum[k]).max() < 1e-10


class TestSgdStep:
    def test_vanilla_step(self):
        params = ModelParams(weights=np.array([[1.0]]), bias=np.zeros(1))
        vel = {"weights": np.zeros((1, 1)), "bias": np.zeros(1)}
        sgd_step(params, {"weights": np.array([[0.5]]), "bias": np.zeros(1)},
                 lr=0.1, momentum=0.0, weight_decay=0.0, velocity=vel)
        assert params.weights[0, 0] == pytest.approx(0.95)

    def test_zero_grads_no_motion(self):
        params = ModelParams(weights=np.array([[2.0]]), bias=np.array([1.0]))
        vel = {"weights": np.zeros((1, 1)), "bias": np.zeros(1)}
        sgd_step(params, {"weights": np.zeros((1, 1)), "bias": np.zeros(1)},
                 lr=0.5, momentum=0.9, weight_decay=0.0, velocity=vel)
        assert params.weights[0, 0] == 2.0
        assert params.bias[0] == 1.0

    def test_momentum_unroll(self):
        params = ModelParams(weights=np.array([[0.0]]), bias=np.zeros(1))
        vel = {"weights": np.zeros((1, 1)), "bias": np.zeros(1)}
        g = {"weights": np.array([[1.0]]), "bias": np.zeros(1)}
        sgd_step(params, g, lr=0.1, momentum=0.9, weight_decay=0.0, velocity=vel)
        sgd_step(params, g, lr=0.1, momentum=0.9, weight_decay=0.0, velocity=vel)
        assert params.weights[0, 0] == pytest.approx(-0.1 * (1.0 + 1.9))

    def test_weight_decay_enters_velocity(self):
        params = ModelParams(weights=np.array([[10.0]]), bias=np.zeros(1))
        vel = {"weights": np.zeros((1, 1)), "bias": np.zeros(1)}
        sgd_step(params, {"weights": np.zeros((1, 1)), "bias": np.zeros(1)},
                 lr=0.1, momentum=0.0, weight_decay=0.01, velocity=vel)
        assert params.weights[0, 0] == pytest.approx(10.0 - 0.1 * 0.1)

    def test_bias_frozen_when_disabled(self):
        params = ModelParams(weights=np.ones((1, 1)), bias=np.array([0.5]))
        vel = {"weights": np.zeros((1, 1)), "bias": np.zeros(1)}
        sgd_step(params, {"weights": np.ones((1, 1)), "bias": np.ones(1)},
                 lr=0.1, momentum=0.0, weight_decay=0.0, velocity=vel, update_bias=False)
        assert params.bias[0] == 0.5
        assert params.weights[0, 0] != 1.0


def balanced_spec(noise=0.0, seed=3):
    return LongTailSpec(class_count=4, n_max=40, imbalance_factor=1.0, input_dim=8,
                        class_separation=2.0, noise_sigma=noise, seed=seed, test_per_class=10)


class TestTrainEpoch:
    def test_inverse_matches_ce_on_balanced_symmetric_data(self):
        train, test = gaussian_mixture(balanced_spec())

        def trajectory(method):
            cfg = TrainConfig(epochs=3, batch_size=len(train), seed=5, hidden_dim=0,
                              method=MethodConfig(name=method),
                              reweight=ReweightConfig(alpha=0.0, gamma=1.0, switch_epoch=0),
                              lr=LrSpec(schedule="multistep", eta0=0.3, milestones=(), decay=0.1))
            state, ctx = prepare_run(cfg, train)
            state.params.weights[:] = 0.0  # symmetric start keeps class losses exactly equal
            records = [train_epoch(state, train, test, e, cfg, ctx) for e in range(3)]
            return records, state.params.weights.copy()

        rec_ce, w_ce = trajectory("ce")
        rec_inv, w_inv = trajectory("inverse")
        assert np.abs(w_ce - w_inv).max() < 1e-12
        for a, b in zip(rec_ce, rec_inv):
            assert a.train_loss == pytest.approx(b.train_loss, abs=1e-12)

    def test_separable_data_reaches_full_train_accuracy(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.0))
        cfg = TrainConfig(epochs=1, batch_size=16, seed=1, hidden_dim=0,
                          method=MethodConfig(name="ce"),
                          reweight=ReweightConfig(switch_epoch=10),
                          lr=LrSpec(schedule="multistep", eta0=1.0, milestones=(), decay=0.1))
        state, ctx = prepare_run(cfg, train)
        train_epoch(state, train, test, 0, cfg, ctx)
        _, z, _ = forward_batch(state.params, train.x)
        assert np.array_equal(z.argmax(axis=1), train.y)

    def test_deterministic_replay(self):
        spec = LongTailSpec(class_count=5, n_max=60, imbalance_factor=20.0, input_dim=6,
                            seed=11, test_per_class=8)
        train, test = gaussian_mixture(spec)
        cfg = TrainConfig(epochs=4, batch_size=32, seed=2,
                          method=MethodConfig(name="inverse"),
                          reweight=ReweightConfig(alpha=0.5, gamma=1.0, switch_epoch=1),
                          lr=LrSpec(schedule="multistep", eta0=0.2, milestones=(2,), decay=0.1))
        rec_a, sum_a, _ = run_experiment(cfg, train, test)
        rec_b, sum_b, _ = run_experiment(cfg, train, test)
        assert sum_a == sum_b
        for a, b in zip(rec_a, rec_b):
            assert a == b

    def test_macro_counters_accumulate_before_switch(self):
        train, test = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=2, batch_size=40, seed=3,
                          method=MethodConfig(name="inverse"),
                          reweight=ReweightConfig(switch_epoch=100),
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=(), decay=0.1))
        state, ctx = prepare_run(cfg, train)
        train_epoch(state, train, test, 0, cfg, ctx)
        assert state.macro.batch_counts.sum() > 0

    def test_label_symmetry(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5, seed=6))
        perm = np.array([2, 0, 3, 1])  # new label of each original class

        def run_one(permute):
            cfg = TrainConfig(epochs=1, batch_size=32, seed=7,
                              method=MethodConfig(name="inverse"),
                              reweight=ReweightConfig(alpha=0.3, gamma=1.0, switch_epoch=0),
                              lr=LrSpec(schedule="multistep", eta0=0.2, milestones=(), decay=0.1))
            state, ctx = prepare_run(cfg, train)
            base = init_params(4, 8, 0, seed=42)
            if permute:
                data = train.__class__(x=train.x, y=perm[train.y],
                                       counts=train.counts, split="train")
                state.params.weights[:] = base.weights[np.argsort(perm)]
                state.params.bias[:] = base.bias[np.argsort(perm)]
            else:
                data = train
                state.params.weights[:] = base.weights
                state.params.bias[:] = base.bias
            train_epoch(state, data, test, 0, cfg, ctx)
            return state.params

        # row pi(c) of the permuted run should match row c of the plain run
        plain = run_one(False)
        permuted = run_one(True)
        assert np.allclose(permuted.weights[perm], plain.weights, rtol=1e-9, atol=1e-10)
        assert np.allclose(permuted.bias[perm], plain.bias, rtol=1e-9, atol=1e-10)


class TestRunExperiment:
    def test_single_epoch_one_record(self):
        train, test = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=1, batch_size=64, seed=0,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        records, summary, _ = run_experiment(cfg, train, test)
        assert len(records) == 1
        assert summary["rho_final"] == records[-1].rho

    def test_summary_tracks_last_record(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.4))
        cfg = TrainConfig(epochs=3, batch_size=32, seed=1,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        records, summary, _ = run_experiment(cfg, train, test)
        last = records[-1]
        assert summary["bal_acc"] == last.bal_acc
        assert summary["nc2"] == last.nc2
        assert summary["acc_tail"] == last.acc_tail

    def test_accuracies_in_range(self):
        train, test = gaussian_mixture(balanced_spec(noise=1.0))
        cfg = TrainConfig(epochs=2, batch_size=32, seed=2,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        records, _, _ = run_experiment(cfg, train, test)
        for r in records:
            for v in (r.bal_acc, r.acc_head, r.acc_med, r.acc_tail, r.nc4):
                assert 0.0 <= v <= 1.0

    def test_mile_schedule_integration(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5))
        cfg = TrainConfig(epochs=4, batch_size=40, seed=3,
                          lr=LrSpec(schedule="mile", eta0=0.2, warmup_epochs=1,
                                    switch_epoch=3, tail_param="entropy"))
        records, _, _ = run_experiment(cfg, train, test)
        assert all(r.lr > 0 for r in records)

    def test_every_method_trains(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5))
        for name in ("ce", "inv_freq", "inv_sqrt", "cb", "focal", "ib", "range", "inverse"):
            cfg = TrainConfig(epochs=1, batch_size=40, seed=4,
                              method=MethodConfig(name=name, range_margin=2.0),
                              reweight=ReweightConfig(switch_epoch=0),
                              lr=LrSpec(schedule="multistep", eta0=0.05, milestones=()))
            records, summary, _ = run_experiment(cfg, train, test)
            assert np.isfinite(records[0].train_loss)
            assert np.isfinite(summary["bal_acc"])

    def test_hidden_model_with_range_method(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5))
        cfg = TrainConfig(epochs=2, batch_size=40, seed=5, hidden_dim=6,
                          method=MethodConfig(name="range", range_margin=2.0),
                          lr=LrSpec(schedule="multistep", eta0=0.05, milestones=()))
        records, _, _ = run_experiment(cfg, train, test)
        assert np.isfinite(records[-1].train_loss)

    def test_base_prior_composition(self):
        spec = LongTailSpec(class_count=4, n_max=40, imbalance_factor=10.0, input_dim=8,
                            seed=3, test_per_class=10)
        train, test = gaussian_mixture(spec)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=6,
                          method=MethodConfig(name="inverse", cb_beta=0.99),
                          reweight=ReweightConfig(alpha=1.0, gamma=1.0, switch_epoch=0),
                          reweight_base="cb", use_base_prior=True,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        state, ctx = prepare_run(cfg, train)
        assert ctx.reweight.prior_weights is not None
        assert ctx.reweight.prior(3) > ctx.reweight.prior(0)  # rarer class, larger prior
        records = [train_epoch(state, train, test, e, cfg, ctx) for e in range(2)]
        assert np.isfinite(records[-1].train_loss)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(reweight_mode="bogus")
        with pytest.raises(ConfigError):
            MethodConfig(name="nope")
        with pytest.raises(ConfigError):
            TrainConfig(reweight_base="inverse")
