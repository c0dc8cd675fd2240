import copy
import math
import pickle
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab import baselines
from ltlab.baselines import range_loss_grad
from ltlab.data import Dataset, LongTailSpec, batch_iter, gaussian_mixture
from ltlab.errors import ConfigError, NumericError
from ltlab.nc_metrics import FeatureBank, etf_gram_target, nc2
from ltlab.reweighting import ReweightConfig, inverse_weights, loss_imbalance_rho
from ltlab.scheduler import LrSpec, learning_rates
from ltlab.trainer import (
    VALID_METHODS,
    MethodConfig,
    ModelParams,
    TrainConfig,
    _batch_update,
    _ce_from_logits,
    _epoch_report,
    _tercile_groups,
    backward,
    forward,
    init_params,
    prepare_run,
    run_experiment,
    sgd_step,
    train_epoch,
)

from oracles import (
    assert_close,
    case,
    central_difference,
    inverse_weights_ref,
    nc1_exact,
    rejected,
    softmax,
    weighted_ce_dlogits,
)


def small_linear_params(seed=0, c=3, d=4):
    return init_params(c, d, 0, seed)


def kernel_grads(params, x, y, w):
    """The gradients of mean(w_i * ce_i) by tensor name, from the kernels."""
    h, z = forward(params, x)
    grads = params.zeros_like()
    backward(params, x, h, weighted_ce_dlogits(z, y, w), grads)
    return grads.tensors()


class TestBackward:
    def test_zero_weights_zero_gradient(self):
        params = small_linear_params()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        grads = kernel_grads(params, x, y, np.zeros(6))
        assert all(np.abs(g).max() == 0.0 for g in grads.values())

    def test_doubling_weights_doubles_gradient(self):
        params = small_linear_params(seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        w = rng.uniform(0.1, 2.0, 5)
        g1 = kernel_grads(params, x, y, w)
        g2 = kernel_grads(params, x, y, 2 * w)
        for k in g1:
            assert np.allclose(g2[k], 2 * g1[k], rtol=1e-15)

    def test_gradient_is_weighted_sum_of_per_sample_gradients(self):
        params = small_linear_params(seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 4))
        y = rng.integers(0, 3, 7)
        w = rng.uniform(0.1, 3.0, 7)
        total = kernel_grads(params, x, y, w)
        accum = {k: np.zeros_like(v) for k, v in total.items()}
        for i in range(7):
            gi = kernel_grads(params, x[i:i + 1], y[i:i + 1], w[i:i + 1])
            for k in accum:
                accum[k] += gi[k] / 7.0
        for k in total:
            assert np.abs(total[k] - accum[k]).max() < 1e-10

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_gradients_step_through_sgd_step(self, hidden):
        rng = np.random.default_rng(7)
        params = init_params(4, 6, hidden, seed=8)
        before = copy.copy(params)
        x = rng.standard_normal((8, 6))
        grads = kernel_grads(params, x, rng.integers(0, 4, 8), np.ones(8))
        sgd_step(params, ModelParams(**grads), lr=0.1, momentum=0.0, weight_decay=0.0,
                 velocity=params.zeros_like())
        for name, g in grads.items():
            assert np.array_equal(getattr(params, name), getattr(before, name) - 0.1 * g), name


def probabilities(weights, x):
    """The softmax of a zero-bias linear model's logits for the one row ``x``."""
    return softmax(forward(ModelParams(weights=weights, bias=np.zeros(len(weights))), np.array([x]))[1])[0]


def stepped(weight, bias, grad_weight, grad_bias, steps=1, lr=0.1, momentum=0.0, weight_decay=0.0,
            update_bias=True):
    """A 1x1 model's [weight, bias], then its gradient's, after ``steps`` SGD steps from zero velocity."""
    params = ModelParams(weights=[[weight]], bias=[bias])
    grads = ModelParams(weights=[[grad_weight]], bias=[grad_bias])
    velocity = params.zeros_like()
    for _ in range(steps):
        sgd_step(params, grads, lr, momentum, weight_decay, velocity, update_bias)
    return np.concatenate([params.flat, grads.flat])


IDENTITY = ModelParams(weights=np.eye(3), bias=np.array([0.1, 0.2, 0.3]))
HIDDEN = ModelParams(weights=np.eye(2), bias=np.zeros(2), hidden_weights=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                     hidden_bias=np.zeros(2))

# The forward pass, the cross entropy and the SGD step on hand inputs. The
# SGD rows' wants repeat the step's float arithmetic, so they hold bit for bit.
KERNEL_CASES = [
    case("forward-zero-weights-give-uniform-probabilities", lambda: probabilities(np.zeros((4, 3)), [1.0, -2.0, 0.5]),
         lambda: 0.25),
    # exp(-500) leaves the row sum at exactly 1.
    case("forward-dominant-logit", lambda: probabilities([[500.0], [0.0], [0.0]], [1.0]),
         lambda: [1.0, np.exp(-500.0), np.exp(-500.0)]),
    case("forward-identity-model-features", lambda: forward(IDENTITY, np.array([[1.0, 2.0, 3.0]]))[0],
         lambda: [[1.0, 2.0, 3.0]]),
    case("forward-identity-model-logits", lambda: forward(IDENTITY, np.array([[1.0, 2.0, 3.0]]))[1],
         lambda: [[1.0 + 0.1, 2.0 + 0.2, 3.0 + 0.3]]),
    case("forward-hidden-relu", lambda: forward(HIDDEN, np.array([[2.0, 9.0, 9.0]]))[0], lambda: [[2.0, 0.0]]),
    case("ce-uniform-two-classes", lambda: _ce_from_logits(np.zeros((1, 2)), np.array([0])), lambda: np.log(2.0)),
    case("ce-correct-one-hot", lambda: _ce_from_logits(np.array([[-1000.0, 0.0]]), np.array([1])), lambda: 0.0),
    case("ce-non-target-permutation", lambda: _ce_from_logits(np.array([[1.0, 0.5, 3.0, 2.0]]), np.array([2])),
         lambda: _ce_from_logits(np.array([[1.0, 2.0, 3.0, 0.5]]), np.array([2])), rel=1e-15),
    case("sgd-vanilla-step", lambda: stepped(1.0, 0.0, 0.5, 0.0), lambda: [1.0 - 0.5 * 0.1, 0.0, 0.5, 0.0]),
    case("sgd-zero-grads-no-motion", lambda: stepped(2.0, 1.0, 0.0, 0.0, lr=0.5, momentum=0.9),
         lambda: [2.0, 1.0, 0.0, 0.0]),
    # Two steps: v = 1, then 0.9 + 1. The gradient buffer is left as it is.
    case("sgd-momentum-unroll", lambda: stepped(0.0, 0.0, 1.0, 0.0, steps=2, momentum=0.9),
         lambda: [-0.1 - (0.9 + 1.0) * 0.1, 0.0, 1.0, 0.0]),
    case("sgd-weight-decay-enters-velocity", lambda: stepped(10.0, 0.0, 0.0, 0.0, weight_decay=0.01),
         lambda: [10.0 - 10.0 * 0.01 * 0.1, 0.0, 0.0, 0.0]),
    case("sgd-bias-frozen", lambda: stepped(1.0, 0.5, 1.0, 1.0, update_bias=False),
         lambda: [1.0 - 1.0 * 0.1, 0.5, 1.0, 1.0]),
]


@pytest.mark.parametrize("got, want, rel", KERNEL_CASES)
def test_kernel(got, want, rel):
    assert_close(got(), want(), rel)


REJECTED_TRAINER_ARGS = [
    rejected("forward-dimension-mismatch", lambda: forward(small_linear_params(), np.ones((1, 7))), ValueError,
             "mismatch"),
]


@pytest.mark.parametrize("call, error, match", REJECTED_TRAINER_ARGS)
def test_rejected_trainer_args(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestCeLoss:
    def test_given_argmax_and_in_place_exp_change_no_bit(self):
        # The epoch end passes the logits' argmax for the row max and lets
        # the exp overwrite the logits; ties in the max are common here.
        rng = np.random.default_rng(5)
        z = np.round(3 * rng.standard_normal((60, 6)))
        y = rng.integers(0, 6, size=60)
        want = _ce_from_logits(z.copy(), y)
        work = z.copy()
        got = _ce_from_logits(work, y, out=work, argmax=z.argmax(axis=1))
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(work, z)  # the buffer holds the exp now


class TestSgdStep:
    def test_both_biases_and_their_velocity_frozen(self):
        params = init_params(3, 4, 5, seed=0)
        params.bias[:] = [0.1, -0.2, 0.3]
        params.hidden_bias[:] = np.linspace(-1.0, 1.0, 5)
        before = copy.copy(params)
        vel = params.zeros_like()
        grads = params.zeros_like()
        grads.flat[:] = 1.0
        for _ in range(3):
            sgd_step(params, grads, lr=0.1, momentum=0.9, weight_decay=0.01, velocity=vel,
                     update_bias=False)
        for name in ("bias", "hidden_bias"):
            assert np.array_equal(getattr(params, name), getattr(before, name)), name
            assert not getattr(vel, name).any(), name
        for name in ("weights", "hidden_weights"):
            assert (getattr(params, name) != getattr(before, name)).all(), name


class TestModelParams:
    def test_tensors_are_views_of_one_buffer(self):
        params = init_params(3, 4, 5, seed=1)
        sizes = {name: arr.size for name, arr in params.tensors().items()}
        assert list(sizes) == ["weights", "hidden_weights", "bias", "hidden_bias"]
        assert params.flat.shape == (sum(sizes.values()),) and params.flat.flags.c_contiguous
        for name, arr in params.tensors().items():
            assert np.shares_memory(arr, params.flat), name
        # Weights first, biases last: a bias-frozen step is a prefix of the buffer.
        assert params.bias_start == sizes["weights"] + sizes["hidden_weights"]
        assert np.array_equal(params.flat[params.bias_start:],
                              np.concatenate([params.bias, params.hidden_bias]))
        params.flat[:] = np.arange(params.flat.size)
        assert params.weights[0, 1] == 1.0 and params.hidden_weights[0, 0] == sizes["weights"]

    def test_attributes_cannot_be_rebound(self):
        params = init_params(3, 4, 0, seed=2)
        for name in ("weights", "bias", "hidden_weights", "flat", "bias_start", "other"):
            with pytest.raises(AttributeError):
                setattr(params, name, np.zeros(3))
        with pytest.raises(AttributeError):
            del params.weights
        params.weights[:] = 7.0  # writing into a view is the way to change a tensor
        assert (params.flat[:params.weights.size] == 7.0).all()

    def test_constructor_copies_and_layouts_match(self):
        w = np.ones((2, 3))
        params = ModelParams(weights=w, bias=np.zeros(2))
        w[0, 0] = 5.0
        assert params.weights[0, 0] == 1.0
        assert params.hidden_weights is None and params.hidden_bias is None
        assert params.bias_start == 6
        for other in (copy.copy(params), params.zeros_like()):
            assert not np.shares_memory(other.flat, params.flat)
            assert other.bias_start == params.bias_start
            assert {k: v.shape for k, v in other.tensors().items()} == {"weights": (2, 3), "bias": (2,)}
        assert np.array_equal(copy.copy(params).flat, params.flat)
        assert not params.zeros_like().flat.any()
        with pytest.raises(ValueError):
            ModelParams(weights=w, bias=np.zeros(2), hidden_weights=np.ones((3, 1)))

    @pytest.mark.parametrize("hidden_dim", (0, 5))
    def test_copies_and_pickles_bind_a_fresh_buffer(self, hidden_dim):
        params = init_params(3, 4, hidden_dim, seed=3)
        for other in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert isinstance(other, ModelParams)
            assert not np.shares_memory(other.flat, params.flat)
            assert np.array_equal(other.flat, params.flat) and other.bias_start == params.bias_start
            for name, arr in other.tensors().items():
                assert np.shares_memory(arr, other.flat), name

    @pytest.mark.parametrize("hidden_dim", (0, 5))
    def test_stack_rows_are_runs(self, hidden_dim):
        runs = [init_params(3, 4, hidden_dim, seed) for seed in (1, 2)]
        stack = ModelParams.stack(runs)
        assert stack.flat.shape == (2, runs[0].flat.size) and stack.flat.flags.c_contiguous
        assert stack.bias_start == runs[0].bias_start and stack.weights.shape[-2] == 3
        for r, run in enumerate(runs):
            row = stack[r]
            assert np.shares_memory(row.flat, stack.flat[r])
            for name, arr in run.tensors().items():
                assert getattr(stack, name).shape == (2,) + arr.shape
                assert np.shares_memory(getattr(stack, name), stack.flat), name
                assert np.array_equal(getattr(stack, name)[r], arr), name
                assert np.array_equal(getattr(row, name), arr), name
        assert not np.shares_memory(stack.flat, runs[0].flat)  # the stack holds copies
        stack.weights[1] += 1.0  # a write through the stacked view reaches the row's
        assert np.array_equal(stack[1].weights, runs[1].weights + 1.0)
        copies = (copy.copy(stack), stack.zeros_like(), copy.deepcopy(stack), pickle.loads(pickle.dumps(stack)))
        for other in copies:
            assert other.flat.shape == stack.flat.shape and not np.shares_memory(other.flat, stack.flat)
            assert {k: v.shape for k, v in other.tensors().items()} == {
                k: v.shape for k, v in stack.tensors().items()}
        assert np.array_equal(copy.deepcopy(stack).flat, stack.flat)
        with pytest.raises(TypeError, match="only a stack"):
            runs[0][0]


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
            state, ctx = prepare_run(cfg, train, test)
            state.params.weights[:] = 0.0  # symmetric start keeps class losses exactly equal
            records = [train_epoch(state, ctx, e)[0] for e in range(3)]
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
        state, ctx = prepare_run(cfg, train, test)
        train_epoch(state, ctx, 0)
        _, z = forward(state.params[0], train.x)
        assert np.array_equal(z.argmax(axis=1), train.y)

    def test_epoch_past_the_schedule_is_refused(self):
        train, test = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=1, batch_size=16, seed=1, method=MethodConfig(name="ce"),
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=(), decay=0.1))
        state, ctx = prepare_run(cfg, train, test)
        train_epoch(state, ctx, 0)
        params = state.params.flat.copy()
        with pytest.raises(ValueError, match=r"covers 1 epoch\(s\)"):
            train_epoch(state, ctx, 1)
        assert state.params.flat.tobytes() == params.tobytes()  # refused before any step

    def test_epoch_without_a_test_set_is_refused(self):
        train, _ = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=1, batch_size=16, seed=1, method=MethodConfig(name="ce"),
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=(), decay=0.1))
        state, ctx = prepare_run(cfg, train)
        params = state.params.flat.copy()
        with pytest.raises(ValueError, match="no test set"):
            train_epoch(state, ctx, 0)
        assert state.iteration == 0  # refused before any step
        assert state.params.flat.tobytes() == params.tobytes()

    def test_deterministic_replay(self):
        spec = LongTailSpec(class_count=5, n_max=60, imbalance_factor=20.0, input_dim=6,
                            seed=11, test_per_class=8)
        train, test = gaussian_mixture(spec)
        cfg = TrainConfig(epochs=4, batch_size=32, seed=2,
                          method=MethodConfig(name="inverse"),
                          reweight=ReweightConfig(alpha=0.5, gamma=1.0, switch_epoch=1),
                          lr=LrSpec(schedule="multistep", eta0=0.2, milestones=(2,), decay=0.1))
        [(rec_a, sum_a, _)] = run_experiment(cfg, train, test)
        [(rec_b, sum_b, _)] = run_experiment(cfg, train, test)
        assert sum_a == sum_b
        for a, b in zip(rec_a, rec_b):
            assert a == b

    def test_macro_counters_accumulate_before_switch(self):
        train, test = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=2, batch_size=40, seed=3,
                          method=MethodConfig(name="inverse"),
                          reweight=ReweightConfig(switch_epoch=100),
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=(), decay=0.1))
        state, ctx = prepare_run(cfg, train, test)
        train_epoch(state, ctx, 0)
        assert state.batch_counts.sum() > 0

    def test_terciles_by_descending_count_ties_in_class_order(self):
        groups = _tercile_groups(np.array([5, 9, 9, 1, 5, 5, 2]))
        assert [g.tolist() for g in groups] == [[1, 2, 0], [4, 5], [6, 3]]

    @pytest.mark.parametrize("method", VALID_METHODS)
    @settings(max_examples=5, deadline=None)
    @given(perm=st.permutations(range(4)))
    def test_label_symmetry(self, method, perm):
        # Relabelling the classes of a balanced set, with the initial
        # classifier rows permuted to match, permutes the trained rows alike.
        train, test = gaussian_mixture(balanced_spec(noise=0.5, seed=6))
        perm = np.array(perm)  # new label of each original class
        cfg = TrainConfig(epochs=1, batch_size=32, seed=7,
                          method=MethodConfig(name=method),
                          reweight=ReweightConfig(alpha=0.3, gamma=1.0, switch_epoch=0),
                          lr=LrSpec(schedule="multistep", eta0=0.2, milestones=(), decay=0.1))
        base = init_params(4, 8, 0, seed=42)

        def run_one(labels, rows):
            state, ctx = prepare_run(cfg, replace(train, y=labels), test)
            state.params.weights[:] = base.weights[rows]
            state.params.bias[:] = base.bias[rows]
            train_epoch(state, ctx, 0)
            return state.params[0]

        # row pi(c) of the permuted run should match row c of the plain run
        plain = run_one(train.y, np.arange(4))
        permuted = run_one(perm[train.y], np.argsort(perm))
        assert np.allclose(permuted.weights[perm], plain.weights, rtol=1e-9, atol=1e-10)
        assert np.allclose(permuted.bias[perm], plain.bias, rtol=1e-9, atol=1e-10)


class TestRunExperiment:
    def test_single_epoch_one_record(self):
        train, test = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=1, batch_size=64, seed=0,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        [(records, summary, _)] = run_experiment(cfg, train, test)
        assert len(records) == 1
        assert summary["rho_final"] == records[-1].rho

    def test_summary_tracks_last_record(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.4))
        cfg = TrainConfig(epochs=3, batch_size=32, seed=1,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        [(records, summary, _)] = run_experiment(cfg, train, test)
        last = records[-1]
        assert summary["bal_acc"] == last.bal_acc
        assert summary["nc2"] == last.nc2
        assert summary["acc_tail"] == last.acc_tail

    def test_accuracies_in_range(self):
        train, test = gaussian_mixture(balanced_spec(noise=1.0))
        cfg = TrainConfig(epochs=2, batch_size=32, seed=2,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        [(records, _, _)] = run_experiment(cfg, train, test)
        for r in records:
            for v in (r.bal_acc, r.acc_head, r.acc_med, r.acc_tail, r.nc4):
                assert 0.0 <= v <= 1.0

    def test_mile_schedule_integration(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5))
        cfg = TrainConfig(epochs=4, batch_size=40, seed=3,
                          lr=LrSpec(schedule="mile", eta0=0.2, warmup_epochs=1,
                                    switch_epoch=3, tail_param="entropy"))
        [(records, _, _)] = run_experiment(cfg, train, test)
        assert all(r.lr > 0 for r in records)
        # Each record's lr is the rate of its epoch's last iteration.
        ipe = math.ceil(len(train) / cfg.batch_size)
        lrs = learning_rates(cfg.lr, cfg.epochs, ipe, train.counts)
        assert [r.lr for r in records] == [lrs[(e + 1) * ipe - 1] for e in range(cfg.epochs)]

    def test_every_method_trains(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5))
        for name in ("ce", "inv_freq", "inv_sqrt", "cb", "focal", "ib", "range", "inverse"):
            cfg = TrainConfig(epochs=1, batch_size=40, seed=4,
                              method=MethodConfig(name=name, range_margin=2.0),
                              reweight=ReweightConfig(switch_epoch=0),
                              lr=LrSpec(schedule="multistep", eta0=0.05, milestones=()))
            [(records, summary, _)] = run_experiment(cfg, train, test)
            assert np.isfinite(records[0].train_loss)
            assert np.isfinite(summary["bal_acc"])

    def test_hidden_model_with_range_method(self):
        train, test = gaussian_mixture(balanced_spec(noise=0.5))
        cfg = TrainConfig(epochs=2, batch_size=40, seed=5, hidden_dim=6,
                          method=MethodConfig(name="range", range_margin=2.0),
                          lr=LrSpec(schedule="multistep", eta0=0.05, milestones=()))
        [(records, _, _)] = run_experiment(cfg, train, test)
        assert np.isfinite(records[-1].train_loss)

    def test_base_prior_composition(self):
        spec = LongTailSpec(class_count=4, n_max=40, imbalance_factor=10.0, input_dim=8,
                            seed=3, test_per_class=10)
        train, test = gaussian_mixture(spec)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=6,
                          method=MethodConfig(name="inverse", cb_beta=0.99),
                          reweight=ReweightConfig(alpha=1.0, gamma=1.0, switch_epoch=0, base="cb",
                                                  use_base_prior=True),
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        state, ctx = prepare_run(cfg, train, test)
        assert np.array_equal(ctx.prior[0], ctx.class_weights)
        assert ctx.prior[0, 3] > ctx.prior[0, 0]  # rarer class, larger prior
        records = [train_epoch(state, ctx, e)[0] for e in range(2)]
        assert np.isfinite(records[-1].train_loss)

    def test_config_validation(self):
        for make, match in [(lambda: TrainConfig(epochs=0), re.escape("epochs must lie in [1, inf), got 0")),
                            (lambda: ReweightConfig(mode="bogus"), "unknown mode 'bogus'"),
                            (lambda: MethodConfig(name="nope"), "unknown method 'nope'"),
                            (lambda: ReweightConfig(base="inverse"), "base must be a base method")]:
            with pytest.raises(ConfigError, match=match):
                make()


# --- The batch step before the flat parameter buffer, kept as the oracle. ---
# Parameters and velocity are separate arrays in a namespace and a dict;
# every intermediate is recomputed as the batch step once did, and the
# weight solve is ``oracles.inverse_weights_ref``.

def _forward_batch_ref(params, x):
    if params.hidden_weights is not None:
        h = np.maximum(x @ params.hidden_weights.T + params.hidden_bias, 0.0)
    else:
        h = x
    z = h @ params.weights.T + params.bias
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return h, z, e / e.sum(axis=1, keepdims=True)


def _ce_from_logits_ref(z, y):
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return lse - z[np.arange(len(y)), y]


def _focal_from_probs_ref(probs, ce, y, gamma):
    """Focal losses (1 - p_t)^gamma ce and their dlogits rows, with the
    cross entropy ``ce`` standing for -log p_t."""
    idx = np.arange(len(y))
    p_t = probs[idx, y]
    one_m = 1.0 - p_t
    losses = one_m ** gamma * ce
    gcoef = -(one_m ** gamma)
    if gamma > 0:
        pos = one_m > 0
        gcoef[pos] -= gamma * p_t[pos] * ce[pos] * one_m[pos] ** (gamma - 1.0)
    dz = -gcoef[:, None] * probs
    dz[idx, y] += gcoef
    return losses, dz


def _class_weights_ref(ctx):
    """The base's (C,) class weights from their ``baselines`` definitions:
    count-based, IB's coefficients, focal alpha, or ones."""
    method, counts = ctx.config.method, ctx.train.counts
    return {
        "inv_freq": baselines.inv_freq_weights(counts),
        "inv_sqrt": baselines.inv_sqrt_weights(counts),
        "cb": baselines.cb_weights(counts, method.cb_beta),
        "ib": baselines.ib_class_coefficients(counts, method.ib_alpha_scale),
        "focal": np.full(len(counts), method.focal_alpha),
    }.get(ctx.base_method, np.ones(len(counts)))


def _base_losses_ref(ctx, h, z, probs, y):
    method = ctx.config.method
    weights = _class_weights_ref(ctx)[y]
    ell = _ce_from_logits_ref(z, y)
    if ctx.base_method == "focal":
        ell, dz = _focal_from_probs_ref(probs, ell, y, method.focal_gamma)
        return ell, weights, dz
    dz = probs.copy()
    dz[np.arange(len(y)), y] -= 1.0
    if ctx.base_method == "ib":
        p_t = probs[np.arange(len(y)), y]
        influence = 2.0 * (1.0 - p_t) * np.abs(h).sum(axis=1)
        weights = weights / (influence + method.ib_eps)
    return ell, weights, dz


def _grads_from_dz_ref(params, x, h, dz, dh_extra=None):
    grads = {"weights": dz.T @ h, "bias": dz.sum(axis=0)}
    if params.hidden_weights is not None:
        dh = dz @ params.weights
        if dh_extra is not None:
            dh = dh + dh_extra
        pre = x @ params.hidden_weights.T + params.hidden_bias
        dpre = dh * (pre > 0)
        grads["hidden_weights"] = dpre.T @ x
        grads["hidden_bias"] = dpre.sum(axis=0)
    return grads


def _sgd_step_ref(params, grads, lr, momentum, weight_decay, velocity, update_bias):
    for name, grad in grads.items():
        if not update_bias and name in ("bias", "hidden_bias"):
            continue
        param = getattr(params, name)
        v = velocity[name]
        v *= momentum
        v += grad + weight_decay * param
        param -= lr * v


def _batch_update_ref(ref, ctx, x, y, epoch, lr):
    config = ctx.config
    h, z, probs = _forward_batch_ref(ref.params, x)
    ell, weights, dz_rows = _base_losses_ref(ctx, h, z, probs, y)
    coef = weights
    if config.method.name == "inverse":
        ref.batch_counts += np.bincount(y, minlength=len(ref.batch_counts)) > 0
        if epoch >= config.reweight.switch_epoch:
            w_hat = inverse_weights_ref(weights * ell, y, ref.batch_counts, ctx.prior[0], config.reweight)
            coef = weights * w_hat[y]
    m = len(y)
    loss = float(np.mean(coef * ell))
    dz = dz_rows * (coef / m)[:, None]
    dh_extra = None
    if ctx.base_method == "range":
        method = config.method
        range_val, range_grad = range_loss_grad(
            h, y, method.range_k, method.range_margin, method.range_alpha, method.range_beta)
        loss += method.range_lambda * range_val
        if ref.params.hidden_weights is not None:
            dh_extra = method.range_lambda * range_grad
    grads = _grads_from_dz_ref(ref.params, x, h, dz, dh_extra)
    _sgd_step_ref(ref.params, grads, lr, config.momentum, config.weight_decay, ref.velocity,
                  config.use_bias)
    return loss


def _long_tail_data(seed=21, class_count=5):
    spec = LongTailSpec(class_count=class_count, n_max=30, imbalance_factor=10.0, input_dim=6,
                        class_separation=1.5, seed=seed, test_per_class=4)
    return gaussian_mixture(spec)


def _config(method, hidden, use_bias=True, mode="both", base="ce", prior=False, alpha=0.5,
            switch_epoch=1):
    return TrainConfig(
        epochs=3, batch_size=13, momentum=0.9, weight_decay=5e-4, seed=4, hidden_dim=hidden,
        use_bias=use_bias,
        method=MethodConfig(name=method, cb_beta=0.99, focal_alpha=0.25, range_margin=3.0),
        reweight=ReweightConfig(alpha=alpha, gamma=1.5, switch_epoch=switch_epoch, mode=mode, base=base,
                                use_base_prior=prior),
        lr=LrSpec(schedule="multistep", eta0=0.1, milestones=(2,), decay=0.1))


ORACLE_ARMS = [dict(method=m) for m in VALID_METHODS if m != "inverse"] + [
    dict(method="inverse", mode="both"),
    dict(method="inverse", mode="batch"),
    dict(method="inverse", mode="macro"),
    dict(method="inverse", alpha=0.0),
    dict(method="inverse", base="cb", prior=True),
    dict(method="inverse", mode="macro", base="inv_freq", prior=True),
    dict(method="inverse", base="focal"),
    dict(method="inverse", base="ib"),
    dict(method="inverse", base="range"),
]


def _arm_id(arm):
    return "-".join(f"{v}" for v in arm.values())


def _fd_id(arm):
    """The arm's method and base (ce when not set), then its other settings
    but the default mode: ``inverse-ce``, ``inverse-cb-True``."""
    rest = [f"{v}" for k, v in arm.items() if k not in ("method", "base") and v != "both"]
    return "-".join([arm["method"], arm.get("base", "ce"), *rest])


class TestLockstep:
    """A stack of seeds trains each one exactly as a run of that seed alone:
    the same records, summary and final parameters, bit for bit."""

    # Every method, and every stacked branch of the weight solve: the batch
    # and macro modes, alpha 0, and a non-uniform (R, C) prior.
    @pytest.mark.parametrize("use_bias", (True, False))
    @pytest.mark.parametrize("hidden", (0, 5))
    @pytest.mark.parametrize("arm", ORACLE_ARMS, ids=_arm_id)
    def test_stack_equals_single_runs(self, arm, hidden, use_bias):
        train, test = _long_tail_data()
        self._check_stack(_config(hidden=hidden, use_bias=use_bias, **arm), train, test)

    # Twelve classes: each run's L_bar and beta mean sum a row longer than
    # numpy's 8-element pairwise block, and the rows' batches hold different
    # classes, so the absent slots' zeros sit at different places in each row.
    @pytest.mark.parametrize("mode", ("both", "batch", "macro"))
    def test_stack_equals_single_runs_past_eight_classes(self, mode):
        train, test = _long_tail_data(class_count=12)
        states = self._check_stack(_config("inverse", 5, mode=mode), train, test)
        assert len({state.batch_counts.tobytes() for state in states}) == len(states)

    @staticmethod
    def _check_stack(cfg, train, test):
        """Trains ``cfg`` as a stack of three seeds and as each seed alone,
        asserts they agree bit for bit, and returns the stack's run states."""
        seeds = (9, 2, 5)  # in no particular order: each row keeps its seed
        stacked = run_experiment(cfg, train, test, seeds)
        assert [summary["seed"] for _, summary, _ in stacked] == list(seeds)
        for seed, (records, summary, state) in zip(seeds, stacked):
            [(alone_records, alone_summary, alone)] = run_experiment(replace(cfg, seed=seed), train, test)
            assert records == alone_records
            assert summary == alone_summary
            assert state.params.flat.tobytes() == alone.params.flat.tobytes()
            assert state.velocity.flat.tobytes() == alone.velocity.flat.tobytes()
            assert np.array_equal(state.batch_counts, alone.batch_counts)
        return [state for _, _, state in stacked]

    def test_one_seed_is_the_config_seed(self):
        train, test = _long_tail_data()
        cfg = _config("inverse", 0)
        [(records, summary, state)] = run_experiment(cfg, train, test, [cfg.seed])
        [(alone_records, alone_summary, alone)] = run_experiment(cfg, train, test)
        assert (records, summary) == (alone_records, alone_summary)
        assert state.params.flat.tobytes() == alone.params.flat.tobytes()
        with pytest.raises(ValueError, match="at least one seed"):
            run_experiment(cfg, train, test, [])

    def test_divergence_names_the_seed(self):
        train, test = _long_tail_data()
        cfg = _config("ce", 5)
        state, ctx = prepare_run(cfg, train, test, (3, 8))
        state.params.weights[1] = 1e308  # only the second run overflows
        with pytest.raises(NumericError, match="seed 8: non-finite loss at epoch 0, iteration 0"):
            train_epoch(state, ctx, 0)


class TestClassWeights:
    """Every base's class weights, and the inverse solve's prior from them."""

    @pytest.mark.parametrize("base", baselines.BASE_METHODS)
    def test_class_weights_and_base_prior(self, base):
        train, _ = _long_tail_data()
        c = train.class_count
        for cfg in (_config(base, 0), _config("inverse", 0, base=base, prior=True)):
            _, ctx = prepare_run(cfg, train)
            assert ctx.base_method == base
            assert np.array_equal(ctx.class_weights, _class_weights_ref(ctx))
        if base == "focal":
            assert ctx.class_weights.tolist() == [0.25] * c  # focal_alpha, set
        # With use_base_prior, w0 is the count-based weights, and ones for
        # every other base: IB's coefficients and focal alpha are no prior.
        count_based = base in ("inv_freq", "inv_sqrt", "cb")
        assert np.array_equal(ctx.prior, [ctx.class_weights if count_based else np.ones(c)])
        _, ctx = prepare_run(_config("inverse", 0, base=base, prior=False), train)
        assert np.array_equal(ctx.prior, np.ones((1, c)))


class TestBatchStepOracle:
    """The one-pass batch step equals the old composition bit for bit."""

    @pytest.mark.parametrize("use_bias", (True, False))
    @pytest.mark.parametrize("hidden", (0, 5))
    @pytest.mark.parametrize("arm", ORACLE_ARMS, ids=_arm_id)
    def test_matches_old_composition(self, arm, hidden, use_bias):
        train, _ = _long_tail_data()
        cfg = _config(hidden=hidden, use_bias=use_bias, **arm)
        state, ctx = prepare_run(cfg, train)
        run = state.run(0)  # views of the one-run stack's row
        tensors = run.params.tensors()
        ref = SimpleNamespace(
            params=SimpleNamespace(**{"hidden_weights": None, "hidden_bias": None,
                                      **{name: arr.copy() for name, arr in tensors.items()}}),
            velocity={name: np.zeros_like(arr) for name, arr in tensors.items()},
            batch_counts=run.batch_counts.copy())
        steps = 0
        for epoch in range(cfg.epochs):
            lr = 0.1 if epoch < 2 else 0.01
            for [idx] in batch_iter(train, cfg.batch_size, [100 + epoch]):
                x, y = train.x[idx], train.y[idx]
                [loss] = _batch_update(state, ctx, x[None], y[None], epoch, lr)
                assert loss == _batch_update_ref(ref, ctx, x, y, epoch, lr)
                for name, arr in run.params.tensors().items():
                    assert np.array_equal(arr, getattr(ref.params, name)), (steps, name)
                    assert np.array_equal(getattr(run.velocity, name), ref.velocity[name]), (steps, name)
                assert np.array_equal(run.batch_counts, ref.batch_counts)
                steps += 1
        assert steps == 3 * math.ceil(len(train) / cfg.batch_size)
        if cfg.method.name == "inverse":
            assert run.batch_counts.min() > 0
        if not use_bias:
            assert not run.params.bias.any()


def _differentiable_loss(params, ctx, x, y):
    """Per-sample base loss from the public forward pass: focal through the
    batch-step oracle ``_focal_from_probs_ref``, CE otherwise."""
    _, z = forward(params, x)
    ce = _ce_from_logits(z, y)
    if ctx.base_method == "focal":
        return _focal_from_probs_ref(softmax(z), ce, y, ctx.config.method.focal_gamma)[0]
    return ce


def _stop_gradient_coef(params, ctx, x, y, counts_after):
    """Per-sample factors the step holds constant, from their definitions."""
    method = ctx.config.method
    h, z = forward(params, x)
    probs = softmax(z)
    coef = _class_weights_ref(ctx)[y]
    if ctx.base_method == "ib":
        influence = np.abs(probs - np.eye(probs.shape[1])[y]).sum(axis=1) * np.abs(h).sum(axis=1)
        coef = coef / (influence + method.ib_eps)
    if method.name == "inverse":
        losses = coef * _differentiable_loss(params, ctx, x, y)
        sizes = np.bincount(y, minlength=len(counts_after))
        w_hat = inverse_weights(losses, y, sizes[None], counts_after[None], ctx.prior[:1], ctx.config.reweight)
        coef = coef * w_hat[0, y]
    return coef


class TestBatchStepFiniteDifference:
    """The gradient the batch step writes is the derivative of its loss.

    The stop-gradient factors are held at their values at the base point,
    as the step treats them: the static class weights, focal alpha, the IB
    influence attenuation 1 / (|p - onehot|_1 |h|_1 + eps) and the solved
    inverse weights w_hat. What stays differentiable is the base loss
    (CE, or focal with its (1 - p_t)^gamma factor) and the range term.
    """

    @pytest.mark.parametrize("hidden", (0, 6))
    @pytest.mark.parametrize("arm", ORACLE_ARMS, ids=_fd_id)
    def test_applied_gradient(self, arm, hidden):
        train, _ = _long_tail_data(seed=31)
        cfg = _config(hidden=hidden, switch_epoch=0, **arm)
        state, ctx = prepare_run(cfg, train)
        run = state.run(0)  # views of the one-run stack's row
        idx = np.arange(0, len(train), 3)  # every class present
        x, y = train.x[idx], train.y[idx]
        counts_after = run.batch_counts + (np.bincount(y, minlength=train.class_count) > 0)
        coef = _stop_gradient_coef(run.params, ctx, x, y, counts_after)
        range_args = (cfg.method.range_k, cfg.method.range_margin, cfg.method.range_alpha,
                      cfg.method.range_beta)

        def range_term():
            h, _ = forward(run.params, x)
            return cfg.method.range_lambda * range_loss_grad(h, y, *range_args)[0]

        def loss():
            value = float(np.mean(coef * _differentiable_loss(run.params, ctx, x, y)))
            return value + range_term() if ctx.base_method == "range" else value

        before = copy.copy(run.params)
        [applied] = _batch_update(state, ctx, x[None], y[None], 0, 0.0)  # lr 0 leaves the parameters alone
        assert np.array_equal(run.params.flat, before.flat)
        assert applied == pytest.approx(loss(), rel=1e-12)
        for name, g in run.grads.tensors().items():
            fd = central_difference(getattr(run.params, name), loss, h=1e-6)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() / scale < 1e-6, name
            assert np.abs(fd).max() > 1e-4, name  # the check is not vacuous
            if ctx.base_method == "range" and name.startswith("hidden"):
                # The range term reaches the hidden layer only through
                # dh_extra, and moves its gradient far beyond the tolerance.
                share = central_difference(getattr(run.params, name), range_term, h=1e-6)
                assert np.abs(share).max() / scale > 1e-3, name


class TestEpochEndFiniteness:
    def test_non_finite_parameter_named(self):
        train, test = gaussian_mixture(balanced_spec())
        cfg = TrainConfig(epochs=1, batch_size=40, seed=1, hidden_dim=4, use_bias=False,
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        state, ctx = prepare_run(cfg, train, test)
        # A frozen -inf hidden bias silences its unit: the losses stay finite.
        state.params.hidden_bias[0, 2] = -np.inf
        with pytest.raises(NumericError, match="seed 1: non-finite hidden_bias after epoch 0"):
            train_epoch(state, ctx, 0)


# --- The epoch end before the class-sorted buffers, kept as the oracle. ---
# Every epoch re-sorted the features into copied per-class blocks,
# recomputed the logits of the concatenated blocks for NC4, and took the
# per-class CE in the original row order. NC1 is the exact rational value.

def _epoch_report_ref(params, train, test):
    h, z, _ = _forward_batch_ref(params, train.x)
    order = np.argsort(train.y, kind="stable")
    _, starts = np.unique(train.y[order], return_index=True)
    blocks = np.split(h[order], starts[1:])
    c = len(blocks)
    means = np.stack([block.mean(axis=0) for block in blocks])
    centered_means = means - means.mean(axis=0)
    w, b = params.weights, params.bias
    gram = w @ centered_means.T
    x = np.concatenate(blocks)
    pred = np.argmax(x @ w.T + b, axis=1)
    nearest = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    ce = _ce_from_logits(z, train.y)
    per_class = np.bincount(train.y, weights=ce, minlength=c) / train.counts
    _, z_test, _ = _forward_batch_ref(params, test.x)
    hits = np.bincount(test.y, weights=z_test.argmax(axis=1) == test.y, minlength=c)
    return dict(
        nc1=float(nc1_exact(FeatureBank.from_labels(h, train.y))),
        nc2=nc2(w),
        nc3=float(np.linalg.norm(gram / np.linalg.norm(gram) - etf_gram_target(c))),
        nc4=int((pred == nearest).sum()) / len(x),
        rho=loss_imbalance_rho(per_class),
        per_class_acc=hits / test.counts,
    )


def _shuffled(dataset, seed):
    perm = np.random.default_rng(seed).permutation(len(dataset))
    return Dataset(x=dataset.x[perm], y=dataset.y[perm], split=dataset.split)


class TestEpochEndOracle:
    """The class-sorted epoch end equals the old composition bit for bit,
    and nc1 is within 1e-12 relative of its exact value."""

    @pytest.mark.parametrize("shuffle", (False, True), ids=("sorted", "shuffled"))
    @pytest.mark.parametrize("hidden", (0, 6))
    @pytest.mark.parametrize("singletons", (False, True))
    def test_matches_old_composition(self, hidden, shuffle, singletons):
        # IF 40 over n_max 40 leaves the rarest classes with one sample.
        spec = LongTailSpec(class_count=7, n_max=40, imbalance_factor=40.0 if singletons else 8.0,
                            input_dim=5, class_separation=2.0, seed=9, test_per_class=6)
        train, test = gaussian_mixture(spec)
        assert (train.counts.min() == 1) == singletons
        if shuffle:
            train, test = _shuffled(train, 1), _shuffled(test, 2)
        kept = train.x.copy(), train.y.copy(), test.x.copy()
        cfg = TrainConfig(epochs=3, batch_size=16, seed=3, hidden_dim=hidden,
                          method=MethodConfig(name="inverse"),
                          reweight=ReweightConfig(alpha=0.5, gamma=1.0, switch_epoch=1),
                          lr=LrSpec(schedule="multistep", eta0=0.2, milestones=(2,), decay=0.1))
        state, ctx = prepare_run(cfg, train, test)
        assert (ctx.sorted_x is train.x) == (not shuffle)  # a copy only for unsorted labels
        params = state.params[0]
        for epoch in range(3):
            [record] = train_epoch(state, ctx, epoch)
            ref = _epoch_report_ref(params, train, test)
            assert (record.nc2, record.nc3, record.nc4, record.rho) == (
                ref["nc2"], ref["nc3"], ref["nc4"], ref["rho"])
            assert record.nc1 == pytest.approx(ref["nc1"], rel=1e-12, abs=0.0)
            acc = ref["per_class_acc"]
            assert (record.bal_acc, record.acc_head, record.acc_med, record.acc_tail) == (
                float(acc.mean()), *(float(acc[ids].mean()) for ids in ctx.groups))
            # Run again on the same buffers: the epoch end leaves nothing behind.
            again = _epoch_report(params, ctx)
            assert (again["nc1"], again["nc4"], again["rho"]) == (record.nc1, record.nc4, record.rho)
        for before, after in zip(kept, (train.x, train.y, test.x)):
            assert np.array_equal(before, after)


class TestEpochEndAllocations:
    def test_no_row_sized_array_after_the_first_epoch(self):
        # The training shape of the benchmark's wide workload: C = 50, a
        # 64-unit hidden layer and about 4,400 training rows. Its 10,000 test
        # rows make an (n_test, C) float array larger than the training
        # half's peak, so a fresh one in the test half would show.
        spec = LongTailSpec(class_count=50, n_max=400, imbalance_factor=100.0, input_dim=64,
                            class_separation=4.0, seed=7, test_per_class=200)
        train, test = gaussian_mixture(spec)
        cfg = TrainConfig(epochs=2, batch_size=256, seed=1, hidden_dim=64,
                          method=MethodConfig(name="inverse"),
                          lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()))
        state, ctx = prepare_run(cfg, train, test)
        train_epoch(state, ctx, 0)

        def peak_bytes(fn, *args):
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                fn(*args)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        n, p, c = len(train), cfg.hidden_dim, train.class_count
        assert n > 4000
        params = state.params[0]
        peak = peak_bytes(_epoch_report, params, ctx)
        assert peak < n * p * 8
        assert peak < len(test) * c * 8
        # train_epoch's own epoch end works in the same buffers: the test
        # logits, computed last, are left in their first rows.
        features, logits = ctx.features, ctx.logits
        logits.fill(np.nan)
        train_epoch(state, ctx, 1)
        assert ctx.features is features and ctx.logits is logits
        _, z_test = forward(params, test.x)
        assert np.array_equal(ctx.logits[:len(test)], z_test)
