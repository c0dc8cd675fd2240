import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlab.data import Dataset
from ltlab.errors import ConfigError
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

from oracles import assert_close, case, closed_form_where, inverse_weights_ref, rejected


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


def _solve(losses, labels, counts, prior=None, **reweight):
    """``inverse_weights`` on one batch, as the stack of one run: w_hat (C,)."""
    labels, counts = np.asarray(labels, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    prior = np.ones(len(counts)) if prior is None else np.asarray(prior, dtype=np.float64)
    sizes = np.bincount(labels, minlength=len(counts))
    return inverse_weights(np.asarray(losses, dtype=np.float64), labels, sizes[None], counts[None], prior[None],
                           ReweightConfig(**reweight))[0]


def _inverse_run(labels, **train_kwargs):
    """A prepared inverse run on a tiny dataset holding ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(size=(len(labels), 3)), y=labels, split="train")
    cfg = TrainConfig(epochs=1, batch_size=len(labels), method=MethodConfig(name="inverse"),
                      lr=LrSpec(schedule="multistep", eta0=0.1, milestones=()), **train_kwargs)
    state, ctx = prepare_run(cfg, data)
    return data, state, ctx


def _first_step(labels, **reweight):
    """One lr-0 batch step of that run over all of its rows: the batch's
    reweighted mean loss, and the run's state after the step."""
    data, state, ctx = _inverse_run(labels, reweight=ReweightConfig(**reweight))
    [loss] = _batch_update(state, ctx, data.x[None], data.y[None], 0, 0.0)
    return loss, state


def _plain_ce(labels):
    """The run's per-sample cross entropies at its initial parameters, which lr 0 keeps."""
    data, state, _ = _inverse_run(labels)
    _, z = forward(state.params[0], data.x)
    return _ce_from_logits(z, data.y)


def _balanced_stream():
    """Ten solves over three classes of equal loss that appear in every
    batch: each step's reweighted and plain mean loss."""
    rng = np.random.default_rng(5)
    labels = np.array([0, 0, 1, 1, 2, 2])
    means = []
    for step in range(1, 11):
        losses = np.repeat(rng.uniform(0.5, 2.0), 6)
        w_hat = _solve(losses, labels, [step] * 3)
        means.append((np.mean(w_hat[labels] * losses), np.mean(losses)))
    return np.array(means).T


class TestLossImbalanceRho:
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
            assert scalar == vec[i] == closed_form_where(*row)

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
    # alpha * w0 underflows: the plain form reads 0, the weight is w0.
    @example(rows=[(5e-324, 0.0, 1.5274681817498023e-151, 6.327621485547622e-225)], scalar_alpha=False)
    def test_matches_where_composition_bit_for_bit(self, rows, scalar_alpha):
        # With a scalar alpha (the per-batch solve) or an array, the kernel equals the
        # plain form, its corners taken by np.where, wherever that form's products (l_bar * l_c
        # may be an exact 0), sums and quotient are normal floats, and it is within 2 ulp
        # of the exact weight wherever a normal float holds it.
        l_c, l_bar, alpha, w0 = (np.array(col) for col in zip(*rows))
        if scalar_alpha:
            alpha = float(alpha[0])
        got = _closed_form(l_c, l_bar, alpha, w0)
        with np.errstate(all="ignore"):  # the plain form's corners may read 0 / 0, inf * 0 or inf / inf
            num, den = l_bar * l_c + alpha * w0, l_c * l_c + alpha
            steps = (np.where(l_bar == 0, 1.0, l_bar * l_c), alpha * w0, l_c * l_c, num, den, num / den)
            normal = np.logical_and.reduce([np.isfinite(v) & (v >= np.finfo(np.float64).tiny) for v in steps])
            normal |= np.logical_not(alpha > 0) | (l_c == 0)  # or it takes a corner
            assert np.array_equal(got[normal], closed_form_where(l_c, l_bar, alpha, w0)[normal])
        exact = np.array([_closed_form_exact(*row) for row in zip(*np.broadcast_arrays(l_c, l_bar, alpha, w0))])
        _assert_within_2_ulp(got, exact)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(1e150, 1e308), st.floats(1e150, 1e308),
                                   st.one_of(st.floats(1e-3, 1e3), st.floats(1e290, 1e308)),
                                   st.floats(1e-3, 1e3)), min_size=1, max_size=8))
    @example(rows=[(1e308, 1e308, 1e308, 1.0)])
    def test_overflowing_products_match_exact_rationals(self, rows):
        # l_bar*l_c, l_c^2 and alpha*w0 overflow here, or nearly; every weight
        # lies between l_bar / l_c and w0, finite, and within a few roundings
        # of the exact one.
        got = closed_form_weight(*(np.array(col) for col in zip(*rows)))
        exact = np.array([_closed_form_exact(*row) for row in rows])
        assert np.isfinite(got).all()
        assert np.allclose(got, exact, rtol=1e-15, atol=0.0)

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

    def test_no_zero_for_a_weight_that_a_float_holds(self):
        # Log-uniform arguments over the whole float range: a weight is 0 only below it, inf only beyond it.
        args = 10.0 ** np.random.default_rng(2026).uniform(-320, 308, size=(4, 10_000))
        got, exact = closed_form_weight(*args), np.array([_closed_form_exact(*row) for row in args.T])
        assert not ((got == 0) & (exact > 0)).any()
        assert np.array_equal(np.isinf(got), np.isinf(exact))

    def test_normal_weights_are_within_2_ulp_of_exact(self):
        args = 10.0 ** np.random.default_rng(0).uniform(-320, 308, size=(4, 20_000))
        got, exact = _closed_form(*args), np.array([_closed_form_exact(*row) for row in args.T])
        assert _assert_within_2_ulp(got, exact).sum() > 10_000

    def test_rounds_as_the_where_composition_in_the_training_range(self):
        rng = np.random.default_rng(5)
        l_c, l_bar, w0 = rng.uniform(0.01, 5.0, size=(3, 20_000))
        alpha = rng.choice([1e-3, 0.1, 0.5, 2.0], size=20_000)
        assert _closed_form(l_c, l_bar, alpha, w0).tobytes() == closed_form_where(l_c, l_bar, alpha, w0).tobytes()

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
        self._check(losses, labels, counts, prior, alpha=alpha, gamma=gamma, mode=mode)

    @pytest.mark.parametrize("mode", ("both", "batch", "macro"))
    @pytest.mark.parametrize("losses, labels, counts", [
        ([0.3, 0.9, 0.6], [2, 2, 2], [0, 4, 7]),  # one class, two absent
        ([0.0, 0.0, 1.5, 0.5], [0, 0, 3, 3], [2, 0, 9, 1]),  # zero class loss, absent classes
        ([0.0, 0.0], [1, 4], [0, 3, 0, 0, 5]),  # every class loss zero
    ])
    @pytest.mark.parametrize("alpha", (0.0, 0.4))
    def test_edge_cases_match_loop_oracle(self, losses, labels, counts, mode, alpha):
        prior = np.linspace(0.5, 2.0, len(counts))
        self._check(losses, labels, np.array(counts, dtype=np.int64), prior, alpha=alpha, gamma=1.7, mode=mode)

    @pytest.mark.parametrize("mode", ("both", "batch"))
    @pytest.mark.parametrize("bad", (0.0, -1.0))
    def test_absent_class_prior_is_never_read(self, mode, bad):
        w_hat = _solve([1.0, 2.0], [0, 1], [1, 1, 1], prior=[1.0, 1.0, bad], mode=mode)
        assert w_hat.tolist() == _solve([1.0, 2.0], [0, 1], [1, 1, 1], mode=mode).tolist()

    def test_batch_solve_is_closed_form_weight_bit_for_bit(self):
        # One sample per class, so the class means are the losses: over log-uniform arguments below 1e307
        # (a run's 4 slots sum finitely), the batch-mode solve of 5,000 runs is closed_form_weight at L_bar.
        rng = np.random.default_rng(7)
        losses, prior = 10.0 ** rng.uniform(-320, 307, size=(2, 5_000, 4))
        losses[rng.random(losses.shape) < 0.1] = 0.0
        slots, ones = np.arange(losses.size).reshape(losses.shape), np.ones(losses.shape, dtype=np.int64)
        for alpha in (0.0, *10.0 ** rng.uniform(-320, 308, size=4)):
            w = inverse_weights(losses, slots, ones, ones, prior, ReweightConfig(alpha=alpha, mode="batch"))
            assert w.tobytes() == closed_form_weight(losses, losses.mean(axis=1, keepdims=True), alpha, prior).tobytes()

    @staticmethod
    def _check(losses, labels, counts, prior, **reweight):
        w_hat = _solve(losses, labels, counts, prior, **reweight)
        want = inverse_weights_ref(losses, labels, counts, prior, ReweightConfig(**reweight))
        present = np.bincount(labels, minlength=len(counts)) > 0
        assert w_hat.shape == counts.shape
        assert_close(w_hat[present], want[present], 1e-12)
        assert np.all(w_hat[~present] == 1.0)


class TestMacroCounters:
    # beta = B_c^-gamma over its mean over the present classes.
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


# The solve's hand values. rho is the class losses' population std over their mean, 0 by
# convention at mean 0. The closed form w* = (l_bar l_c + alpha w0) / (l_c^2 + alpha)
# is l_bar / l_c at alpha = 0 and w0 at l_c = 0; beta = B_c^-gamma over its mean
# over the present classes; w_hat = beta w*.
SOLVE_CASES = [
    case("rho-equal-losses-is-0", lambda: loss_imbalance_rho([2.0, 2.0, 2.0]), lambda: 0.0),
    case("rho-hand-value", lambda: loss_imbalance_rho([1.0, 3.0]), lambda: 0.5),  # mean 2, population std 1
    case("rho-zero-mean-is-0", lambda: loss_imbalance_rho([0.0, 0.0]), lambda: 0.0),
    case("closed-form-alpha-0-is-the-ratio", lambda: closed_form_weight(2.0, 1.0, 0.0, 1.0), lambda: 0.5),
    case("closed-form-fixed-point", lambda: closed_form_weight(1.0, 1.0, 5.0, 1.0), lambda: 1.0),
    # (1.5*2 + 0.1*1) / (4 + 0.1)
    case("closed-form-hand-value", lambda: closed_form_weight(2.0, 1.5, 0.1, 1.0), lambda: 3.1 / 4.1),
    case("closed-form-zero-loss-is-w0", lambda: closed_form_weight(0.0, 3.0, 0.0, 0.7), lambda: 0.7),
    # Near the float maximum, and in the solve at L_bar = 2e200. In the third l_c^2 overflows alone.
    case("closed-form-near-max-1e200", lambda: closed_form_weight(1e200, 2e200, 0.5), lambda: 2.0),
    case("closed-form-near-max-3e200", lambda: closed_form_weight(3e200, 2e200, 0.5), lambda: 2.0 / 3.0),
    case("closed-form-near-max-l_c-squared-overflows", lambda: closed_form_weight(1e300, 1.0, 1e300),
         lambda: 2e-300, rel=1e-15),
    case("closed-form-near-max-weight-overflows", lambda: closed_form_weight(1e-300, 1e300, 0.0), lambda: math.inf),
    case("solve-near-max", lambda: _solve([1e200, 3e200], [0, 1], [1, 1], alpha=0.5, mode="batch"), lambda: [2, 2 / 3]),
    # alpha * w0 underflows and max(l_c, sqrt(alpha)) < 1/2: the plain form reads 0.
    case("closed-form-underflowing-prior-term", lambda: closed_form_weight(
        1.5069039997331095e-135, 5.20332114337114e-310, 7.134795094119794e-95, 1.5422903982074907e-277),
         lambda: 1.5422903982074907e-277),
    # The class means L_c, and L_bar, the mean of the class means (3.75 here, not the sample mean).
    case("solve-one-class", lambda: _solve([1.0, 3.0], [0, 0], [1], mode="batch"), lambda: [1.0]),
    case("solve-two-class-means", lambda: _solve([1.0, 2.0, 6.0], [0, 0, 1], [1, 1], mode="batch"),
         lambda: [3.75 / 1.5, 3.75 / 6.0]),
    case("solve-one-sample", lambda: _solve([0.42], [3], [0, 0, 0, 1, 0], alpha=0.3), lambda: [1.0] * 5),
    # Per batch the solve minimizes (w_c L_c - L_bar)^2 + alpha (w_c - w0_c)^2. At L_c = 0.5 and
    # 1.5 (L_bar = 1), alpha = 0.5 and w0 = 1 the weights are 4/3 and 8/11, each rounded once:
    # the class with the higher loss gets the lower weight.
    case("solve-equalizes-the-weighted-class-losses",
         lambda: _solve([0.5, 1.5], [0, 1], [1, 1], alpha=0.5, mode="batch"), lambda: [4 / 3, 8 / 11]),
    case("macro-hand-value", lambda: _solve([1.0, 1.0], [0, 1], [4, 1], mode="macro"), lambda: [0.4, 1.6]),
    case("macro-gamma-0-is-ones", lambda: _solve([1.0, 2.0, 3.0], [0, 1, 2], [7, 2, 30], gamma=0.0, mode="macro"),
         lambda: [1.0] * 3),
    case("macro-equal-counts-are-ones",
         lambda: _solve([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3], [6, 6, 6, 6], gamma=2.7, mode="macro"),
         lambda: [1.0] * 4),
    case("macro-reads-neither-losses-nor-prior",
         lambda: _solve([-1.0, 2.0], [0, 1], [1, 4], prior=[0.0, -1.0], mode="macro"), lambda: [1.6, 0.4]),
    case("macro-counters-stay-int64", lambda: _first_step([1, 2, 2, 0])[1].batch_counts.dtype.name,
         lambda: "int64"),
    case("composed-balanced-is-ones", lambda: _solve([1.0, 1.0], [0, 1], [3, 3], alpha=0.7, gamma=1.3),
         lambda: [1.0, 1.0]),
    *(case(f"composed-first-batch-{mode}", lambda mode=mode: _solve([1.0, 3.0], [0, 1], [1, 1], mode=mode),
           lambda want=want: want)
      for mode, want in (("batch", [2.0, 2.0 / 3.0]), ("macro", [1.0, 1.0]), ("both", [2.0, 2.0 / 3.0]))),
    case("composed-macro", lambda: _solve([1.0, 3.0], [0, 1], [4, 1]), lambda: [0.8, 16.0 / 15.0]),
    case("composed-zero-loss-takes-the-prior", lambda: _solve([0.0, 2.0], [0, 1], [1, 1], prior=[2.5, 1.0],
                                                              gamma=0.0)[0], lambda: 2.5),
    # The batch step's reweighted mean loss. On the first batch every present class has B_c = 1,
    # so beta is all ones.
    case("batch-loss-with-unit-weights-is-the-plain-mean", lambda: _first_step([0, 1, 0, 2, 1], mode="macro")[0],
         lambda: np.mean(_plain_ce([0, 1, 0, 2, 1]))),
    # alpha = gamma = 0: every class's weighted mean is L_bar, so the loss is the class-balanced mean.
    case("batch-loss-is-the-class-balanced-mean", lambda: _first_step([0, 0, 0, 1, 2, 2], gamma=0.0)[0],
         lambda: np.mean(np.bincount([0, 0, 0, 1, 2, 2], weights=_plain_ce([0, 0, 0, 1, 2, 2])) / [3, 1, 2])),
    # Equal class losses and equal appearance counts leave the plain mean at every step.
    case("batch-loss-on-a-balanced-stream-is-the-plain-mean", lambda: _balanced_stream()[0],
         lambda: _balanced_stream()[1], rel=1e-12),
]


@pytest.mark.parametrize("got, want, rel", SOLVE_CASES)
def test_solve(got, want, rel):
    assert_close(got(), want(), rel)


REJECTED_REWEIGHT_ARGS = [
    rejected("rho-empty", lambda: loss_imbalance_rho([]), ValueError, "class loss list must be non-empty"),
    rejected("rho-negative", lambda: loss_imbalance_rho([1.0, -0.1]), ValueError, "class losses must be nonnegative"),
    rejected("rho-nan", lambda: loss_imbalance_rho([1.0, np.nan]), ValueError, "class losses must be finite"),
    *(rejected(f"closed-form-{name}", lambda args=args: closed_form_weight(*args), ValueError, match)
      for name, args, match in [("negative-loss", (-1.0, 1.0, 0.0), "losses must be finite and nonnegative"),
                                ("negative-entry", (np.array([1.0, -1.0]), 1.0, 0.0),
                                 "losses must be finite and nonnegative"),
                                ("inf-loss", (np.inf, 1.0, 0.5), "losses must be finite and nonnegative"),
                                ("inf-mean-loss", (1.0, np.inf, 0.5), "losses must be finite and nonnegative"),
                                ("negative-alpha", (1.0, 1.0, -0.5), "alpha must be finite and >= 0"),
                                ("nan-alpha", (2.0, 1.0, np.nan), "alpha must be finite and >= 0"),
                                ("inf-alpha", (1.0, 1.0, np.inf), "alpha must be finite and >= 0"),
                                ("zero-prior", (1.0, 1.0, 0.0, 0.0), "prior weight must be finite and positive"),
                                ("nan-prior", (1.0, 1.0, 0.5, np.nan), "prior weight must be finite and positive")]),
    *(rejected(f"config-negative-{key}", lambda key=key, value=value: ReweightConfig(**{key: value}), ConfigError,
               re.escape(f"{key} must lie in [0, inf), got {value!r}"))
      for key, value in (("alpha", -0.1), ("gamma", -1.0), ("switch_epoch", -1))),
]


@pytest.mark.parametrize("call, error, match", REJECTED_REWEIGHT_ARGS)
def test_rejected_reweight_args(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestReweightConfig:
    def test_default_prior(self):
        # ones unless use_base_prior is set and the base's class weights are count-based
        for kwargs in ({}, {"use_base_prior": True}, {"base": "cb"}):
            _, _, ctx = _inverse_run([0, 1, 1, 2, 2, 2], reweight=ReweightConfig(**kwargs))
            assert ctx.prior.tolist() == [[1.0, 1.0, 1.0]]
