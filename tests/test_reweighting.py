import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlab.cli import main
from ltlab.data import Dataset
from ltlab.reweighting import (
    ReweightConfig,
    _closed_form,
    _rescued,
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

from oracles import closed_form_where


def _closed_form_scalar(l_c, l_bar, alpha, w0):
    """Scalar closed form with Python branches: the reference for the vector form."""
    if l_c == 0.0:
        return w0
    if alpha == 0.0:
        return l_bar / l_c
    return (l_bar * l_c + alpha * w0) / (l_c * l_c + alpha)


def _closed_form_exact(l_c, l_bar, alpha, w0):
    """The closed form in exact rationals, rounded once: inf beyond the float range."""
    l_c, l_bar, alpha, w0 = (Fraction(v) for v in (l_c, l_bar, alpha, w0))
    if l_c == 0:
        return float(w0)
    try:
        return float((l_bar * l_c + alpha * w0) / (l_c * l_c + alpha))
    except OverflowError:
        return math.inf


def _assert_within_2_ulp(got, exact):
    """``got`` within 2 ulp of ``exact`` wherever a normal float holds it;
    returns where it does."""
    normal = np.isfinite(exact) & (exact >= np.finfo(np.float64).tiny)
    assert np.all(np.abs(got[normal] - exact[normal]) <= 2 * np.spacing(exact[normal]))
    return normal


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
        k=st.floats(1e-300, 1e300),
    )
    @example(losses=[1.0, 3.0], k=1e-300)  # the squares underflow
    @example(losses=[1.0, 3.0], k=1e300)  # the squares overflow
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
    # l_c^2 overflows, and alpha * w0 survives only if scaled after it is rounded.
    @example(rows=[(5.4644852907705735e178, 5.263353313982096e-50, 3.054936363499605e-151,
                    9.442622931450393e264)], scalar_alpha=False)
    # alpha * w0 underflows: the kernel reads 0, the weight is w0.
    @example(rows=[(5e-324, 0.0, 1.5274681817498023e-151, 6.327621485547622e-225)], scalar_alpha=False)
    def test_matches_where_composition_bit_for_bit(self, rows, scalar_alpha):
        # The kernel takes the corners only for a zero loss or alpha = 0; with
        # a scalar alpha (the per-batch solve) or an array, on all inputs it
        # equals the composition that takes them every time. The validating
        # wrapper is within 2 ulp of the exact weight wherever a normal float
        # holds it.
        l_c, l_bar, alpha, w0 = (np.array(col) for col in zip(*rows))
        if scalar_alpha:
            alpha = float(alpha[0])
        with np.errstate(invalid="ignore"):  # inf / inf reads NaN in both forms
            expected = closed_form_where(l_c, l_bar, alpha, w0)
            assert np.array_equal(_closed_form(l_c, l_bar, alpha, w0), expected, equal_nan=True)
        got = closed_form_weight(l_c, l_bar, alpha, w0)
        exact = np.array([_closed_form_exact(*row) for row in zip(*np.broadcast_arrays(l_c, l_bar, alpha, w0))])
        _assert_within_2_ulp(got, exact)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(1e150, 1e308), st.floats(1e150, 1e308),
                                   st.one_of(st.floats(1e-3, 1e3), st.floats(1e290, 1e308)),
                                   st.floats(1e-3, 1e3)), min_size=1, max_size=8))
    @example(rows=[(1e200, 2e200, 0.5, 1.0), (3e200, 2e200, 0.5, 1.0)])
    @example(rows=[(1e308, 1e308, 1e308, 1.0)])
    def test_overflowing_products_match_exact_rationals(self, rows):
        # l_bar*l_c, l_c^2 and alpha*w0 overflow here, or nearly; every weight
        # lies between l_bar / l_c and w0, finite, and within a few roundings
        # of the exact one.
        got = closed_form_weight(*(np.array(col) for col in zip(*rows)))
        exact = np.array([_closed_form_exact(*row) for row in rows])
        assert np.isfinite(got).all()
        assert np.allclose(got, exact, rtol=1e-15, atol=0.0)

    def test_weights_near_the_float_maximum(self):
        assert closed_form_weight(1e200, 2e200, 0.5) == 2.0
        assert closed_form_weight(3e200, 2e200, 0.5) == 2.0 / 3.0
        # l_c^2 overflows alone, which would read 0.
        assert closed_form_weight(1e300, 1.0, 1e300) == pytest.approx(2e-300, rel=1e-15, abs=0.0)
        assert closed_form_weight(1e-300, 1e300, 0.0) == math.inf  # the weight itself overflows

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

    def test_underflowing_prior_term_gives_the_positive_weight(self):
        # alpha * w0 underflows and max(l_c, sqrt(alpha)) < 1/2: the plain form reads 0.
        assert closed_form_weight(1.5069039997331095e-135, 5.20332114337114e-310,
                                  7.134795094119794e-95, 1.5422903982074907e-277) == 1.5422903982074907e-277

    def test_no_zero_for_a_weight_that_a_float_holds(self):
        # Log-uniform arguments over the whole float range: a weight is 0 only
        # below the float range and inf only beyond it.
        rng = np.random.default_rng(2026)
        args = 10.0 ** rng.uniform(-320, 308, size=(4, 10_000))
        got = closed_form_weight(*args)
        exact = np.array([_closed_form_exact(*row) for row in args.T])
        assert not ((got == 0) & (exact > 0)).any()
        assert np.array_equal(np.isinf(got), np.isinf(exact))

    def test_normal_weights_are_within_2_ulp_of_exact(self):
        # Log-uniform arguments over the whole float range: the products of
        # the plain form over- and underflow here, the weights do not.
        rng = np.random.default_rng(0)
        args = 10.0 ** rng.uniform(-320, 308, size=(4, 20_000))
        got = closed_form_weight(*args)
        exact = np.array([_closed_form_exact(*row) for row in args.T])
        assert _assert_within_2_ulp(got, exact).sum() > 10_000

    def test_rescue_rounds_as_the_plain_form_in_the_normal_range(self):
        rng = np.random.default_rng(5)
        l_c, l_bar, w0 = rng.uniform(0.01, 5.0, size=(3, 20_000))
        alpha = rng.choice([1e-3, 0.1, 0.5, 2.0], size=20_000)
        assert _rescued(l_c, l_bar, alpha, w0).tobytes() == _closed_form(l_c, l_bar, alpha, w0).tobytes()

    def test_nan_alpha_takes_the_corner_form(self):
        # NaN > 0 is false, so the corner form reads it as unanchored: l_bar / l_c.
        assert closed_form_weight(2.0, 1.0, np.nan) == 0.5
        assert _closed_form(np.array([2.0]), 1.0, np.nan, 1.0)[0] == 0.5


class TestInverseWeights:
    # Up to 24 classes: a run's row of class slots outgrows numpy's 8-element pairwise-sum block.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), class_count=st.integers(1, 24), alpha=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
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

    def test_equalizes_the_weighted_class_losses(self):
        # Per batch the solve minimizes (w_c L_c - L_bar)^2 + alpha (w_c - w0_c)^2.
        # At L_c = 0.5 and 1.5 (L_bar = 1), alpha = 0.5 and w0 = 1 the weights
        # are 4/3 and 8/11: the class with the higher loss gets the lower weight.
        w = _solve([0.5, 1.5], [0, 1], [1, 1], alpha=0.5, mode="batch")
        exact = np.array([_closed_form_exact(l_c, 1.0, 0.5, 1.0) for l_c in (0.5, 1.5)])
        assert exact.tolist() == [4 / 3, 8 / 11]
        assert _assert_within_2_ulp(w, exact).all()
        assert w[1] < 1.0 < w[0]

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


class TestClassMeanLosses:
    # The class means L_c and their mean L_bar enter through w_star: with alpha = 0, w_c * L_c = L_bar.
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


class TestMacroCounters:
    # The counters B_c (one per batch that holds the class) and beta = B_c^-gamma over its mean.
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


class TestComposedWeights:
    # w_hat = beta * w_star, and the `weights` command that prints all three.
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
        # ones unless use_base_prior is set and the base's class weights are count-based
        for kwargs in ({}, {"use_base_prior": True}, {"base": "cb"}):
            _, _, ctx = _inverse_run([0, 1, 1, 2, 2, 2], 3, reweight=ReweightConfig(**kwargs))
            assert ctx.prior.tolist() == [[1.0, 1.0, 1.0]]
