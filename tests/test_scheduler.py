import math

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

from oracles import ml_quadrature


class TestMittagLeffler:
    def test_value_at_zero(self):
        for a in (0.1, 0.25, 0.5, 0.999, 1.0):
            assert mittag_leffler(a, 0.0) == 1.0

    def test_exponential_identity(self):
        assert mittag_leffler(1.0, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-6)
        for z in np.arange(0.0, 1.0, 0.1):
            assert abs(mittag_leffler(1.0, float(z)) - math.exp(-z)) <= 1e-6

    def test_tail_value(self):
        assert mittag_leffler(0.5, 4.0) == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-12)
        assert mittag_leffler(0.5, 4.0) == pytest.approx(0.141047, rel=1e-4)

    @pytest.mark.parametrize("z", [1.0, 2.5, 10.0])
    def test_exponential_at_one_parameter(self, z):
        # E_1(-z) = e^{-z}; the tail 1/(z Gamma(0)) alone would give 0.
        assert mittag_leffler(1.0, z) == math.exp(-z)
        assert ml_tail(1.0, z) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.5, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -0.1)

    def test_branch_helpers(self):
        assert ml_series(1.0, 0.3) == pytest.approx(math.exp(-0.3), abs=1e-9)
        assert ml_tail(0.5, 4.0) == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)))
        with pytest.raises(ValueError):
            ml_tail(0.5, 0.0)

    def test_series_log_peak(self):
        # E_1(-1): terms 1/k!, largest 1 at k = 0 and 1.
        assert ml_series_log_peak(1.0, 1.0) == 0.0
        # E_0.3(-3) peaks at k = 128 near 5e15: rounding alone is about 1.
        assert ml_series_log_peak(0.3, 3.0) == pytest.approx(
            max(k * math.log(3.0) - math.lgamma(0.3 * k + 1.0) for k in range(201)))
        assert ml_series_log_peak(0.3, 3.0) > math.log(1e15)
        assert ml_series_log_peak(0.5, 0.0) == 0.0

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


class TestEntropyAlpha:
    def test_balanced_counts(self):
        assert entropy_alpha((25, 25, 25, 25)) == pytest.approx(1.0)

    def test_degenerate_distribution(self):
        assert entropy_alpha([100, 0, 0]) == pytest.approx(0.25)

    def test_hand_value(self):
        assert entropy_alpha([3, 1]) == pytest.approx(0.858459, rel=1e-5)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            entropy_alpha([10])

    def test_permutation_invariant(self):
        a = entropy_alpha([500, 50, 5, 1])
        b = entropy_alpha([5, 500, 1, 50])
        assert a == pytest.approx(b, abs=1e-15)


def mile_rates(epochs=10, iters_per_epoch=10, counts=None, **kw):
    """The mile schedule's rates; by default t_all = 100, t_warm = 10 and
    t_switch = 70, so stage 1 is [10:80] and stage 2 [80:100]."""
    spec = dict(schedule="mile", eta0=0.1, warmup_epochs=1, switch_epoch=8, tail_param=0.5, eps=1e-3)
    spec.update(kw)
    return learning_rates(LrSpec(**spec), epochs, iters_per_epoch, counts)


class TestMileLr:
    def test_stage_positions(self):
        lrs = mile_rates()
        assert len(lrs) == 100
        assert lrs[9] == pytest.approx(0.1) and lrs[10] == 0.1  # warm-up ends, stage 1 starts at E_a(0)
        stage1 = [0.1 * mittag_leffler(0.5, (1.0 - 1e-3) * tau / 70) for tau in range(70)]
        assert lrs[10:80] == stage1
        assert lrs[80] == pytest.approx(0.1 / math.sqrt(math.pi))  # z = 1 at the switch
        s2 = 19 / 20  # the last of the 20 stage-2 iterations
        assert lrs[99] == pytest.approx(0.1 / ((1.0 + s2 / (1.0 - s2 + 1e-3)) * math.sqrt(math.pi)))

    def test_rates_are_python_floats(self):
        for spec in (dict(), dict(tail_param=1.0), dict(warmup_epochs=0, switch_epoch=0)):
            assert all(type(lr) is float for lr in mile_rates(**spec))
        assert all(type(lr) is float for lr in learning_rates(LrSpec(eta0=1, milestones=(2,)), 4, 3))

    def test_switch_clamped_at_zero(self):
        # A switch inside the warm-up leaves no stage 1: stage 2 starts right after it.
        lrs = mile_rates(warmup_epochs=5, switch_epoch=2)
        assert lrs[49] == pytest.approx(0.1)
        assert lrs[50] == pytest.approx(0.1 / math.sqrt(math.pi))
        assert lrs[50:] == mile_rates(warmup_epochs=5, switch_epoch=5)[50:]

    def test_switch_past_the_end_is_all_stage_1(self):
        lrs = mile_rates(switch_epoch=12)
        assert lrs[10:] == [0.1 * mittag_leffler(0.5, (1.0 - 1e-3) * tau / 110) for tau in range(90)]

    def test_warmup_values(self):
        lrs = mile_rates()
        assert lrs[0] == pytest.approx(0.01)
        assert lrs[9] == pytest.approx(0.1)

    def test_warmup_linearity(self):
        lrs = mile_rates(warmup_epochs=2)
        steps = np.diff(lrs[:20])
        assert np.abs(steps - 0.1 / 20).max() < 1e-15

    def test_stage1_start_at_full_rate(self):
        assert mile_rates()[10] == pytest.approx(0.1)

    def test_stage2_entry_value(self):
        assert mile_rates()[80] == pytest.approx(0.1 / math.sqrt(math.pi))

    def test_stage_monotonicity(self):
        for a in (0.3, 0.5, 0.9):
            lrs = mile_rates(tail_param=a)
            assert np.all(np.diff(lrs[10:80]) <= 1e-15)
            assert np.all(np.diff(lrs[80:]) <= 1e-15)

    def test_positive_late_lr_at_tail_param_one(self):
        assert mile_rates(tail_param=1.0)[-1] > 0.0

    def test_entropy_tail_reads_the_counts(self):
        counts = (500, 50, 5)
        assert mile_rates(counts=counts, tail_param="entropy") == mile_rates(tail_param=entropy_alpha(counts))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            mile_rates(eta0=0.0)
        with pytest.raises(ConfigError):
            mile_rates(tail_param=0.0)
        with pytest.raises(ConfigError):
            mile_rates(eps=1.0)
        with pytest.raises(ValueError):
            mile_rates(warmup_epochs=10)  # no post-warmup horizon


class TestMultiStep:
    def test_before_first_milestone(self):
        lrs = learning_rates(LrSpec(eta0=0.4, milestones=(160, 180), decay=0.1), 200, 1)
        assert lrs[0] == pytest.approx(0.4)
        assert lrs[159] == pytest.approx(0.4)

    def test_decay_counts(self):
        lrs = learning_rates(LrSpec(eta0=1.0, milestones=(160, 180), decay=0.1), 200, 1)
        assert lrs[170] == pytest.approx(0.1)
        assert lrs[190] == pytest.approx(0.01)

    def test_milestone_epoch_counts_as_passed(self):
        lrs = learning_rates(LrSpec(eta0=1.0, milestones=(5,), decay=0.5), 8, 3)
        assert len(lrs) == 24
        assert lrs[:15] == [1.0] * 15  # epochs 0-4, three iterations each
        assert lrs[15:] == [0.5] * 9

    def test_validation(self):
        with pytest.raises(ConfigError):
            LrSpec(eta0=1.0, milestones=(5, 5), decay=0.5)
        with pytest.raises(ConfigError):
            LrSpec(eta0=1.0, milestones=(), decay=1.0)
