import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlab.cli import main
from ltlab.data import Dataset
from ltlab.reweighting import (
    ReweightConfig,
    _closed_form,
    closed_form_weight,
    inverse_weights,
    loss_imbalance_rho,
)
from ltlab.scheduler import LrSpec
from ltlab.trainer import (
    MethodConfig,
    TrainConfig,
    _batch_update,
    _ce_from_logits,
    forward,
    prepare_run,
)


def _closed_form_scalar(l_c, l_bar, alpha, w0):
    """Scalar closed form with Python branches: the reference for the vector form."""
    if l_c == 0.0:
        return w0
    if alpha == 0.0:
        return l_bar / l_c
    return (l_bar * l_c + alpha * w0) / (l_c * l_c + alpha)


def _closed_form_where(l_c, l_bar, alpha, w0):
    """The closed form as one np.where composition, every corner on every
    call: the reference for the kernel's one-expression common case."""
    l_c, l_bar, alpha, w0 = (np.asarray(v, dtype=np.float64) for v in (l_c, l_bar, alpha, w0))
    anchored = alpha > 0
    scale = np.where(np.maximum(l_c, alpha) < 2.0 ** -500, 2.0 ** 500, 1.0)
    l_s, alpha_s = l_c * scale, alpha * scale
    zero = l_c == 0
    with np.errstate(over="ignore"):
        num = np.where(anchored, l_bar * l_s + alpha_s * w0, l_bar)
        den = np.where(anchored, l_c * l_s + alpha_s, l_c)
        return np.where(zero, w0, num / np.where(zero, 1.0, den))


def _solve_loop(losses, labels, batch_counts, prior, alpha, gamma, mode):
    """Reference solve: per-class dicts of w_star and beta, composed by mode."""
    present = sorted({int(c) for c in labels})
    mean_loss = {c: float(np.mean([l for l, y in zip(losses, labels) if y == c])) for c in present}
    l_bar = float(np.mean([mean_loss[c] for c in present]))
    w_star = {c: _closed_form_scalar(mean_loss[c], l_bar, alpha, float(prior[c])) for c in present}
    raw = {c: float(batch_counts[c]) ** -gamma for c in present}
    raw_mean = float(np.mean([raw[c] for c in present]))
    beta = {c: raw[c] / raw_mean for c in present}
    if mode == "batch":
        return w_star
    if mode == "macro":
        return beta
    return {c: beta[c] * w_star[c] for c in present}


def _one_run(losses, labels, counts, prior, config):
    """``inverse_weights`` on one batch, as the stack of one run: w_hat (C,)."""
    labels = np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(labels, minlength=len(counts))
    return inverse_weights(np.asarray(losses, dtype=np.float64), labels, sizes[None],
                           np.asarray(counts)[None], np.asarray(prior)[None], config)[0]


def _solve(losses, labels, counts, prior=None, alpha=0.0, gamma=1.0, mode="both"):
    counts = np.asarray(counts, dtype=np.int64)
    prior = np.ones(len(counts)) if prior is None else np.asarray(prior, dtype=np.float64)
    return _one_run(losses, labels, counts, prior, ReweightConfig(alpha=alpha, gamma=gamma, mode=mode))


def _inverse_run(labels, class_count, **train_kwargs):
    """A prepared inverse run on a tiny dataset holding ``labels``; lr 0 keeps the params."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(size=(len(labels), 3)), y=labels, split="train")
    cfg = TrainConfig(epochs=1, batch_size=len(labels), method=MethodConfig(name="inverse"),
                      lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()), **train_kwargs)
    state, ctx = prepare_run(cfg, data)
    return data, state, ctx


def _step(state, ctx, x, y):
    """One lr-0 batch step of the one-run stack; returns its loss."""
    [loss] = _batch_update(state, ctx, x[None], y[None], 0, 0.0)
    return loss


class TestLossImbalanceRho:
    def test_equal_losses(self):
        assert loss_imbalance_rho([2.0, 2.0, 2.0]) == 0.0

    def test_hand_example(self):
        # mean 2, population std 1
        assert loss_imbalance_rho([1.0, 3.0]) == pytest.approx(0.5)

    def test_zero_mean_convention(self):
        assert loss_imbalance_rho([0.0, 0.0]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            loss_imbalance_rho([])
        with pytest.raises(ValueError):
            loss_imbalance_rho([1.0, -0.1])
        with pytest.raises(ValueError):
            loss_imbalance_rho([1.0, np.nan])

    @settings(max_examples=50, deadline=None)
    @given(
        losses=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30),
        k=st.floats(1e-6, 1e6),
    )
    def test_scale_invariance(self, losses, k):
        base = loss_imbalance_rho(losses)
        scaled = loss_imbalance_rho([k * l for l in losses])
        assert abs(base - scaled) <= 1e-12 * max(1.0, base)


class TestClosedFormWeight:
    def test_alpha_zero_reduces_to_ratio(self):
        assert closed_form_weight(2.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_fixed_point(self):
        assert closed_form_weight(1.0, 1.0, 5.0, 1.0) == pytest.approx(1.0)

    def test_hand_example(self):
        # (1.5*2 + 0.1*1) / (4 + 0.1)
        assert closed_form_weight(2.0, 1.5, 0.1, 1.0) == pytest.approx(3.1 / 4.1)

    def test_zero_loss_fallback(self):
        assert closed_form_weight(0.0, 3.0, 0.0, 0.7) == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_weight(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            closed_form_weight(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            closed_form_weight(1.0, 1.0, 0.0, w0=0.0)
        with pytest.raises(ValueError):
            closed_form_weight(np.array([1.0, -1.0]), 1.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        l_c=st.floats(0.0, 10.0),
        l_bar=st.floats(0.001, 10.0),
        alpha=st.floats(0.0, 5.0),
        w0=st.floats(0.01, 3.0),
    )
    @example(l_c=0.0, l_bar=1.0, alpha=5e-324, w0=0.5)  # alpha * w0 underflows
    @example(l_c=5e-324, l_bar=0.5, alpha=5e-324, w0=0.5)  # every product underflows
    @example(l_c=5e-324, l_bar=1.0, alpha=0.0, w0=1.0)  # l_bar / l_c overflows to inf
    def test_positive(self, l_c, l_bar, alpha, w0):
        assert closed_form_weight(l_c, l_bar, alpha, w0) > 0.0

    @settings(max_examples=200, deadline=None)
    @given(l_c=st.floats(1e-6, 10.0), l_bar=st.floats(0.0, 10.0))
    def test_target_matching_without_anchor(self, l_c, l_bar):
        w = closed_form_weight(l_c, l_bar, 0.0, 1.0)
        assert w * l_c == pytest.approx(l_bar, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                                   st.floats(0.0, 10.0),
                                   st.one_of(st.just(0.0), st.floats(1e-6, 5.0)),
                                   st.floats(0.01, 3.0)), min_size=1, max_size=12))
    def test_vector_matches_scalar_branches(self, rows):
        l_c, l_bar, alpha, w0 = (np.array(col) for col in zip(*rows))
        vec = closed_form_weight(l_c, l_bar, alpha, w0)
        assert vec.shape == l_c.shape
        for i, row in enumerate(rows):
            scalar = closed_form_weight(*row)
            assert isinstance(scalar, float)
            assert scalar == vec[i] == _closed_form_scalar(*row)


    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1e300)),
                                   st.floats(0.0, 1e300),
                                   st.one_of(st.just(0.0), st.just(2.0 ** -500), st.just(2.0 ** -501),
                                             st.floats(0.0, 1e300)),
                                   st.floats(1e-300, 1e300)), min_size=1, max_size=12),
           scalar_alpha=st.booleans())
    @example(rows=[(1.0, 1.0, 2.0 ** -500, 1.0), (2.0 ** -600, 1.0, 2.0 ** -500, 1.0)], scalar_alpha=True)
    @example(rows=[(1e200, 1e200, 0.5, 1.0), (1e-200, 1e200, 0.5, 1.0)], scalar_alpha=False)
    def test_matches_where_composition_bit_for_bit(self, rows, scalar_alpha):
        # The kernel takes the corners only for a zero loss or alpha < 2^-500;
        # with a scalar alpha (the per-batch solve) or an array, on all inputs
        # it equals the composition that takes them every time.
        l_c, l_bar, alpha, w0 = (np.array(col) for col in zip(*rows))
        if scalar_alpha:
            alpha = float(alpha[0])
        with np.errstate(invalid="ignore"):  # inf / inf reads NaN in both forms
            expected = _closed_form_where(l_c, l_bar, alpha, w0)
            for got in (_closed_form(l_c, l_bar, alpha, w0), closed_form_weight(l_c, l_bar, alpha, w0)):
                assert np.array_equal(got, expected, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(l_c=st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100)), min_size=1, max_size=12),
           l_bar=st.floats(1e-100, 1e100), w0=st.floats(0.01, 3.0),
           k=st.integers(-300, 300), s=st.floats(1e-100, 1e100))
    def test_alpha_zero_weights_are_scale_invariant(self, l_c, l_bar, w0, k, s):
        # Without an anchor the weights solve w * l_c = l_bar, so scaling every
        # loss by one factor leaves them: exactly for a power of two, and to a
        # few roundings otherwise.
        l_c = np.array(l_c)
        base = closed_form_weight(l_c, l_bar, 0.0, w0)
        exact = closed_form_weight(l_c * 2.0 ** k, l_bar * 2.0 ** k, 0.0, w0)
        assert exact.tobytes() == base.tobytes()
        near = closed_form_weight(l_c * s, l_bar * s, 0.0, w0)
        assert np.all(np.abs(near - base) <= 1e-15 * base)
        # The per-batch solve inherits it: the class means and L_bar scale with the losses.
        slots = np.arange(len(l_c))
        sizes, counts = np.ones((1, len(l_c)), dtype=np.int64), np.ones((1, len(l_c)), dtype=np.int64)
        config = ReweightConfig(alpha=0.0, mode="batch")
        solve = inverse_weights(l_c, slots, sizes, counts, np.full((1, len(l_c)), w0), config)
        scaled = inverse_weights(l_c * 2.0 ** k, slots, sizes, counts, np.full((1, len(l_c)), w0), config)
        assert scaled.tobytes() == solve.tobytes()

    def test_nan_alpha_takes_the_corner_form(self):
        # NaN > 0 is false, so the corner form reads it as unanchored: l_bar / l_c.
        assert closed_form_weight(2.0, 1.0, np.nan) == 0.5
        assert _closed_form(np.array([2.0]), 1.0, np.nan, 1.0)[0] == 0.5


class TestInverseWeights:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), class_count=st.integers(1, 8), alpha=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           gamma=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), mode=st.sampled_from(("both", "batch", "macro")),
           with_prior=st.booleans())
    def test_matches_loop_oracle(self, data, class_count, alpha, gamma, mode, with_prior):
        labels = data.draw(st.lists(st.integers(0, class_count - 1), min_size=1, max_size=40))
        losses = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
                                    min_size=len(labels), max_size=len(labels)))
        # Counters already include this batch, so present classes have B_c >= 1.
        counts = np.array(data.draw(st.lists(st.integers(0, 50), min_size=class_count,
                                             max_size=class_count)), dtype=np.int64)
        counts += np.bincount(labels, minlength=class_count) > 0
        prior = (np.array(data.draw(st.lists(st.floats(0.01, 3.0), min_size=class_count,
                                             max_size=class_count)))
                 if with_prior else np.ones(class_count))
        self._check(losses, labels, counts, prior, alpha, gamma, mode)

    @pytest.mark.parametrize("mode", ("both", "batch", "macro"))
    @pytest.mark.parametrize("losses, labels, counts", [
        ([0.3, 0.9, 0.6], [2, 2, 2], [0, 4, 7]),  # one class, two absent
        ([0.0, 0.0, 1.5, 0.5], [0, 0, 3, 3], [2, 0, 9, 1]),  # zero class loss, absent classes
        ([0.0, 0.0], [1, 4], [0, 3, 0, 0, 5]),  # every class loss zero
    ])
    @pytest.mark.parametrize("alpha", (0.0, 0.4))
    def test_edge_cases_match_loop_oracle(self, losses, labels, counts, mode, alpha):
        prior = np.linspace(0.5, 2.0, len(counts))
        self._check(losses, labels, np.array(counts, dtype=np.int64), prior, alpha, 1.7, mode)

    @pytest.mark.parametrize("mode", ("both", "batch"))
    @pytest.mark.parametrize("bad", (0.0, -1.0))
    def test_absent_class_prior_is_never_read(self, mode, bad):
        w_hat = _solve([1.0, 2.0], [0, 1], [1, 1, 1], prior=[1.0, 1.0, bad], mode=mode)
        assert w_hat.tolist() == _solve([1.0, 2.0], [0, 1], [1, 1, 1], mode=mode).tolist()

    def test_macro_reads_neither_losses_nor_prior(self):
        beta = _solve([-1.0, 2.0], [0, 1], [1, 4], prior=[0.0, -1.0], gamma=1.0, mode="macro")
        assert beta.tolist() == pytest.approx([1.6, 0.4])

    @staticmethod
    def _check(losses, labels, counts, prior, alpha, gamma, mode):
        w_hat = _one_run(losses, labels, counts, prior, ReweightConfig(alpha=alpha, gamma=gamma, mode=mode))
        expected = _solve_loop(losses, labels, counts, prior, alpha, gamma, mode)
        assert w_hat.shape == counts.shape
        for c in range(len(counts)):
            if c in expected:
                assert w_hat[c] == pytest.approx(expected[c], rel=1e-12, abs=0.0)
            else:
                assert w_hat[c] == 1.0


class TestBatchClassStats:
    # Class means enter through w_star: with alpha = 0, w_c * L_c = L_bar.
    def test_single_class(self):
        w = _solve([1.0, 3.0], [0, 0], [1], mode="batch")
        assert w.tolist() == [1.0]

    def test_two_classes(self):
        # class means 1.5 and 6.0; L_bar averages classes, not samples: 3.75
        w = _solve([1.0, 2.0, 6.0], [0, 0, 1], [1, 1], mode="batch")
        assert w[0] == pytest.approx(3.75 / 1.5)
        assert w[1] == pytest.approx(3.75 / 6.0)

    def test_single_sample(self):
        w = _solve([0.42], [3], [0, 0, 0, 1, 0], alpha=0.3)
        assert w.tolist() == [1.0] * 5


class TestMacroState:
    def test_counter_updates(self):
        data, state, ctx = _inverse_run([0, 0, 1], 2)
        _step(state, ctx, data.x[:2], data.y[:2])
        assert state.batch_counts.tolist() == [[1, 0]]
        state.batch_counts[:] = [4, 1]
        _step(state, ctx, data.x, data.y)
        assert state.batch_counts.tolist() == [[5, 2]]

    def test_double_update_increments_twice(self):
        data, state, ctx = _inverse_run([1, 2, 2, 0], 3)
        for _ in range(2):
            _step(state, ctx, data.x[:3], data.y[:3])
        assert state.batch_counts.tolist() == [[0, 2, 2]]
        assert state.batch_counts.dtype == np.int64

    def test_factors_hand_example(self):
        beta = _solve([1.0, 1.0], [0, 1], [4, 1], gamma=1.0, mode="macro")
        assert beta[0] == pytest.approx(0.4)
        assert beta[1] == pytest.approx(1.6)

    def test_factors_gamma_zero(self):
        beta = _solve([1.0, 2.0, 3.0], [0, 1, 2], [7, 2, 30], gamma=0.0, mode="macro")
        assert beta.tolist() == [1.0, 1.0, 1.0]

    def test_factors_equal_counts(self):
        beta = _solve([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3], [6, 6, 6, 6], gamma=2.7, mode="macro")
        assert all(b == pytest.approx(1.0) for b in beta)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 10_000), min_size=1, max_size=20),
        gamma=st.floats(0.0, 4.0),
        data=st.data(),
    )
    def test_unit_mean(self, counts, gamma, data):
        labels = sorted(data.draw(st.sets(st.integers(0, len(counts) - 1), min_size=1)))
        beta = _solve(np.ones(len(labels)), labels, counts, gamma=gamma, mode="macro")
        assert np.mean(beta[labels]) == pytest.approx(1.0, abs=1e-10)


class TestEffectiveWeights:
    def test_all_ones_when_balanced(self):
        w = _solve([1.0, 1.0], [0, 1], [3, 3], alpha=0.7, gamma=1.3)
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(1.0)

    def test_pure_batch_weights(self):
        w_star = _solve([1.0, 3.0], [0, 1], [1, 1], mode="batch")
        beta = _solve([1.0, 3.0], [0, 1], [1, 1], mode="macro")
        w_hat = _solve([1.0, 3.0], [0, 1], [1, 1])
        assert w_star[0] == pytest.approx(2.0)
        assert w_star[1] == pytest.approx(2.0 / 3.0)
        assert beta[0] == pytest.approx(1.0)
        assert w_hat[0] == pytest.approx(2.0)
        assert w_hat[1] == pytest.approx(2.0 / 3.0)

    def test_macro_composition(self):
        w = _solve([1.0, 3.0], [0, 1], [4, 1], gamma=1.0)
        assert w[0] == pytest.approx(0.8)
        assert w[1] == pytest.approx(16.0 / 15.0)

    def test_prior_weights_used(self):
        w = _solve([0.0, 2.0], [0, 1], [1, 1], prior=[2.5, 1.0], gamma=0.0)
        assert w[0] == pytest.approx(2.5)  # zero-loss fallback hits the prior

    def test_json_round_trip(self, capsys):
        assert main(["weights", "--losses", "1,3", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["weights"]) == {"0", "1"}
        assert set(payload["weights"]["0"]) == {"w_star", "beta", "w_hat"}
        assert payload["weights"]["1"]["w_hat"] == pytest.approx(2.0 / 3.0)


class TestReweightedBatchLoss:
    # _batch_update returns the batch's reweighted mean loss; lr 0 leaves the
    # parameters alone so the losses below can be recomputed independently.
    def _batch_ce(self, state, data):
        _, z = forward(state.params[0], data.x)
        return _ce_from_logits(z, data.y)

    def test_unit_weights_match_plain_mean(self):
        # first batch: every present class has B_c = 1, so beta is all ones
        data, state, ctx = _inverse_run([0, 1, 0, 2, 1], 3, reweight=ReweightConfig(mode="macro"))
        loss = _step(state, ctx, data.x, data.y)
        assert loss == pytest.approx(float(np.mean(self._batch_ce(state, data))), rel=1e-12)

    def test_hand_example(self):
        # alpha = gamma = 0: every class's weighted mean is L_bar, so the
        # reweighted batch loss is the class-balanced mean loss
        data, state, ctx = _inverse_run([0, 0, 0, 1, 2, 2], 3, reweight=ReweightConfig(gamma=0.0))
        ce = self._batch_ce(state, data)
        l_bar = np.mean([ce[data.y == c].mean() for c in range(3)])
        loss = _step(state, ctx, data.x, data.y)
        assert loss == pytest.approx(l_bar, rel=1e-12)

    def test_no_op_on_balanced_stream(self):
        # equal per-class losses and equal appearance counts keep the
        # reweighted loss identical to the plain mean at every step
        rng = np.random.default_rng(5)
        counts = np.zeros(3, dtype=np.int64)
        labels = np.array([0, 0, 1, 1, 2, 2])
        for _ in range(10):
            losses = np.repeat(rng.uniform(0.5, 2.0), 6)
            counts += 1
            w_hat = _solve(losses, labels, counts, alpha=0.0, gamma=1.0)
            assert np.mean(w_hat[labels] * losses) == pytest.approx(np.mean(losses), rel=1e-12)


class TestReweightConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReweightConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            ReweightConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            ReweightConfig(switch_epoch=-1)

    def test_default_prior(self):
        # ones unless use_base_prior is set and the base has class weights
        for kwargs in ({}, {"use_base_prior": True}, {"base": "cb"}):
            _, _, ctx = _inverse_run([0, 1, 1, 2, 2, 2], 3, reweight=ReweightConfig(**kwargs))
            assert ctx.prior.tolist() == [[1.0, 1.0, 1.0]]
