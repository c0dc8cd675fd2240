import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.errors import ConfigError
from ltlab.scheduler import (
    LrSpec,
    entropy_alpha,
    learning_rates,
    mittag_leffler,
    ml_series,
    ml_series_log_peak,
    ml_tail,
)

from oracles import assert_close, case, ml_quadrature, rejected


class TestMittagLeffler:
    def test_heavier_than_exponential_tail(self):
        ratios = [mittag_leffler(0.5, z) / math.exp(-z) for z in np.arange(1.0, 6.0, 0.5)]
        assert np.all(np.diff(ratios) > 0)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.05, 1.0), z=st.floats(0.0, 0.999))
    def test_series_bounded(self, a, z):
        val = mittag_leffler(a, z)
        assert 0.0 < val <= 1.0


class TestMittagLefflerQuadrature:
    def test_quadrature_matches_the_closed_form_at_one_half(self):
        # E_1/2(-z) = exp(z^2) erfc(z).
        for z in (0.0, 0.5, 2.0):
            assert ml_quadrature(0.5, z) == pytest.approx(math.exp(z * z) * math.erfc(z), rel=1e-14)

    @pytest.mark.parametrize("a", [0.2, 0.35, 0.5, 0.65, 0.8, 0.9])
    def test_series_branch(self, a):
        for z in np.linspace(0.0, 0.99, 12).tolist():
            assert abs(mittag_leffler(a, z) - ml_quadrature(a, z)) <= 1e-11

    @pytest.mark.parametrize("a", [0.2, 0.3, 0.5, 0.7, 0.8, 0.9])
    def test_tail_error_falls_with_z(self, a):
        # The tail drops the O(1/z^2) terms of the asymptotic expansion.
        err = [abs(mittag_leffler(a, z) - ml_quadrature(a, z)) for z in (5.0, 20.0, 100.0)]
        assert err[0] >= 10 * err[1] and err[1] >= 10 * err[2]


def mile_rates(epochs=10, iters_per_epoch=10, counts=None, **kw):
    """The mile schedule's rates; by default t_all = 100, t_warm = 10 and
    t_switch = 70, so stage 1 is [10:80] and stage 2 [80:100]."""
    spec = dict(schedule="mile", eta0=0.1, warmup_epochs=1, switch_epoch=8, tail_param=0.5, eps=1e-3)
    spec.update(kw)
    return learning_rates(LrSpec(**spec), epochs, iters_per_epoch, counts)


def stage_2(eta0, t2, a=0.5, eps=1e-3):
    """The mile schedule's t2 stage-2 rates, as ``learning_rates`` forms them."""
    return [eta0 / ((1.0 + t / t2 / (1.0 - t / t2 + eps)) * math.gamma(1.0 - a)) for t in range(t2)]


# E_a(-z) and its branches, the entropy tail parameter and the two
# schedules' rates. A row whose want is an exact constant, or repeats the
# code's float arithmetic, holds bit for bit.
SCHEDULE_CASES = [
    case("ml-at-zero-is-one", lambda: [mittag_leffler(a, 0.0) for a in (0.1, 0.25, 0.5, 0.999, 1.0)], lambda: 1.0),
    # The tail 1 / (z Gamma(1/2)), with Gamma(1/2) = sqrt(pi).
    case("ml-tail-at-one-half", lambda: [mittag_leffler(0.5, 4.0), ml_tail(0.5, 4.0)],
         lambda: 1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-12),
    # E_1(-z) = e^-z; the tail 1/(z Gamma(0)) alone would give 0.
    *(case(f"ml-at-one-is-exp-z-{z}", lambda z=z: [mittag_leffler(1.0, z), ml_tail(1.0, z)],
           lambda z=z: [math.exp(-z), 0.0]) for z in (1.0, 2.5, 10.0)),
    case("ml-series-at-one-is-exp", lambda: ml_series(1.0, 0.3), lambda: math.exp(-0.3), rel=1e-12),
    # E_1(-1): terms 1/k!, largest 1 at k = 0 and 1.
    case("ml-series-log-peak-at-one", lambda: ml_series_log_peak(1.0, 1.0), lambda: 0.0),
    # E_0.3(-3) peaks at k = 128 near 5e15: rounding alone is about 1.
    case("ml-series-log-peak-hand-value", lambda: ml_series_log_peak(0.3, 3.0),
         lambda: max(k * math.log(3.0) - math.lgamma(0.3 * k + 1.0) for k in range(201))),
    case("ml-series-log-peak-above-1e15", lambda: ml_series_log_peak(0.3, 3.0) > math.log(1e15), lambda: True),
    case("ml-series-log-peak-at-zero", lambda: ml_series_log_peak(0.5, 0.0), lambda: 0.0),
    case("entropy-alpha-balanced", lambda: entropy_alpha((25, 25, 25, 25)), lambda: 1.0, rel=1e-15),
    case("entropy-alpha-one-class-holds-all", lambda: entropy_alpha([100, 0, 0]), lambda: 0.25),
    case("entropy-alpha-hand-value", lambda: entropy_alpha([3, 1]),
         lambda: 0.25 - 0.75 * (0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2), rel=1e-15),
    case("entropy-alpha-permutation-invariant", lambda: entropy_alpha([5, 500, 1, 50]),
         lambda: entropy_alpha([500, 50, 5, 1]), rel=1e-15),
    # t_warm = 10 and t_switch = 70: the warm-up ends at eta0, stage 1 starts
    # at E_a(0) = 1 and stage 2 at z = 1, 0.1 / Gamma(1/2).
    case("mile-warmup", lambda: mile_rates()[:10], lambda: [0.1 * (t + 1) / 10 for t in range(10)]),
    case("mile-stage-1", lambda: mile_rates()[10:80],
         lambda: [0.1 * mittag_leffler(0.5, (1.0 - 1e-3) * tau / 70) for tau in range(70)]),
    case("mile-stage-2", lambda: mile_rates()[80:], lambda: stage_2(0.1, 20)),
    case("mile-warmup-over-two-epochs", lambda: mile_rates(warmup_epochs=2)[:20],
         lambda: [0.1 * (t + 1) / 20 for t in range(20)]),
    # A switch inside the warm-up leaves no stage 1: stage 2 starts right after it.
    case("mile-switch-inside-the-warmup", lambda: mile_rates(warmup_epochs=5, switch_epoch=2),
         lambda: mile_rates(warmup_epochs=5, switch_epoch=5)),
    case("mile-switch-at-the-warmup-end", lambda: mile_rates(warmup_epochs=5, switch_epoch=5),
         lambda: [0.1 * (t + 1) / 50 for t in range(50)] + stage_2(0.1, 50)),
    case("mile-switch-past-the-end-is-all-stage-1", lambda: mile_rates(switch_epoch=12)[10:],
         lambda: [0.1 * mittag_leffler(0.5, (1.0 - 1e-3) * tau / 110) for tau in range(90)]),
    # a = 1 is capped at 0.999 in stage 2, so the last rate stays positive.
    case("mile-last-rate-at-tail-param-one", lambda: mile_rates(tail_param=1.0)[-1],
         lambda: stage_2(0.1, 20, a=0.999)[-1]),
    case("mile-entropy-tail-reads-the-counts", lambda: mile_rates(counts=(500, 50, 5), tail_param="entropy"),
         lambda: mile_rates(tail_param=entropy_alpha((500, 50, 5)))),
    case("multistep-before-the-first-milestone",
         lambda: learning_rates(LrSpec(eta0=0.4, milestones=(160, 180), decay=0.1), 200, 1)[:160], lambda: 0.4),
    case("multistep-decay-per-milestone-passed",
         lambda: learning_rates(LrSpec(eta0=1.0, milestones=(160, 180), decay=0.1), 200, 1)[160:],
         lambda: [1.0 * 0.1] * 20 + [1.0 * 0.1 ** 2] * 20),
    # Epochs 0-4 at eta0, three iterations each: a milestone epoch counts as passed.
    case("multistep-milestone-epoch-counts-as-passed",
         lambda: learning_rates(LrSpec(eta0=1.0, milestones=(5,), decay=0.5), 8, 3), lambda: [1.0] * 15 + [0.5] * 9),
]


@pytest.mark.parametrize("got, want, rel", SCHEDULE_CASES)
def test_schedule(got, want, rel):
    assert_close(got(), want(), rel)


REJECTED_SCHEDULE_ARGS = [
    *(rejected(f"ml-a-{a}", lambda a=a: mittag_leffler(a, 1.0), ValueError, "a must lie in") for a in (0.0, 1.5)),
    rejected("ml-negative-z", lambda: mittag_leffler(0.5, -0.1), ValueError, "z must be >= 0"),
    rejected("ml-tail-at-zero", lambda: ml_tail(0.5, 0.0), ValueError, "undefined at z = 0"),
    rejected("entropy-alpha-one-class", lambda: entropy_alpha([10]), ValueError, "at least two classes"),
    rejected("mile-eta0-zero", lambda: mile_rates(eta0=0.0), ConfigError,
             re.escape("eta0 must lie in (0, inf), got 0.0")),
    rejected("mile-tail-param-zero", lambda: mile_rates(tail_param=0.0), ConfigError, "tail_param must lie in"),
    rejected("mile-eps-one", lambda: mile_rates(eps=1.0), ConfigError, "eps must lie in"),
    rejected("mile-no-iteration-after-the-warmup", lambda: mile_rates(warmup_epochs=10), ValueError,
             "at least one iteration after its warm-up"),
    rejected("multistep-repeated-milestone", lambda: LrSpec(eta0=1.0, milestones=(5, 5), decay=0.5), ConfigError,
             "strictly increasing"),
    rejected("multistep-decay-one", lambda: LrSpec(eta0=1.0, milestones=(), decay=1.0), ConfigError,
             "decay must lie in"),
]


@pytest.mark.parametrize("call, error, match", REJECTED_SCHEDULE_ARGS)
def test_rejected_schedule_args(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestMileLr:
    def test_rates_are_python_floats(self):
        for spec in (dict(), dict(tail_param=1.0), dict(warmup_epochs=0, switch_epoch=0)):
            assert all(type(lr) is float for lr in mile_rates(**spec))
        assert all(type(lr) is float for lr in learning_rates(LrSpec(eta0=1, milestones=(2,)), 4, 3))

    def test_stage_monotonicity(self):
        for a in (0.3, 0.5, 0.9):
            lrs = mile_rates(tail_param=a)
            assert np.all(np.diff(lrs[10:80]) <= 1e-15)
            assert np.all(np.diff(lrs[80:]) <= 1e-15)
