import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.baselines import ClassCounts
from ltlab.scheduler import (
    MileLrConfig,
    MultiStepConfig,
    entropy_alpha,
    mile_lr_at,
    mittag_leffler,
    ml_series,
    ml_series_log_peak,
    ml_tail,
    multistep_lr_at,
)


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


class TestEntropyAlpha:
    def test_balanced_counts(self):
        assert entropy_alpha(ClassCounts((25, 25, 25, 25))) == pytest.approx(1.0)

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


def make_config(**kw):
    defaults = dict(eta0=0.1, total_epochs=10, iters_per_epoch=10,
                    warmup_epochs=1, lr_switch_epoch=8, tail_param=0.5, eps=1e-3)
    defaults.update(kw)
    return MileLrConfig(**defaults)


class TestMileLr:
    def test_derived_iteration_counts(self):
        cfg = make_config()
        assert cfg.t_all == 100
        assert cfg.t_warm == 10
        assert cfg.t_post == 90
        assert cfg.t_switch == 70

    def test_switch_clamped_at_zero(self):
        cfg = make_config(warmup_epochs=5, lr_switch_epoch=2)
        assert cfg.t_switch == 0

    def test_warmup_values(self):
        cfg = make_config()
        assert mile_lr_at(0, cfg) == pytest.approx(0.01)
        assert mile_lr_at(9, cfg) == pytest.approx(0.1)

    def test_warmup_linearity(self):
        cfg = make_config(warmup_epochs=2)
        steps = np.diff([mile_lr_at(t, cfg) for t in range(cfg.t_warm)])
        assert np.abs(steps - cfg.eta0 / cfg.t_warm).max() < 1e-15

    def test_stage1_start_at_full_rate(self):
        cfg = make_config()
        assert mile_lr_at(cfg.t_warm, cfg) == pytest.approx(cfg.eta0)

    def test_stage2_entry_value(self):
        cfg = make_config()
        t = cfg.t_warm + cfg.t_switch
        assert mile_lr_at(t, cfg) == pytest.approx(0.1 / math.sqrt(math.pi))

    def test_stage_monotonicity(self):
        for a in (0.3, 0.5, 0.9):
            cfg = make_config(tail_param=a)
            lrs = [mile_lr_at(t, cfg) for t in range(cfg.t_all)]
            stage1 = lrs[cfg.t_warm:cfg.t_warm + cfg.t_switch]
            stage2 = lrs[cfg.t_warm + cfg.t_switch:]
            assert np.all(np.diff(stage1) <= 1e-15)
            assert np.all(np.diff(stage2) <= 1e-15)

    def test_positive_late_lr_at_tail_param_one(self):
        cfg = make_config(tail_param=1.0)
        assert mile_lr_at(cfg.t_all - 1, cfg) > 0.0

    def test_range_check(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            mile_lr_at(-1, cfg)
        with pytest.raises(ValueError):
            mile_lr_at(cfg.t_all, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(eta0=0.0)
        with pytest.raises(ValueError):
            make_config(tail_param=0.0)
        with pytest.raises(ValueError):
            make_config(eps=1.0)
        with pytest.raises(ValueError):
            make_config(warmup_epochs=10)  # no post-warmup horizon


class TestMultiStep:
    def test_before_first_milestone(self):
        cfg = MultiStepConfig(eta0=0.4, milestones=(160, 180), decay=0.1)
        assert multistep_lr_at(0, cfg) == pytest.approx(0.4)
        assert multistep_lr_at(159, cfg) == pytest.approx(0.4)

    def test_decay_counts(self):
        cfg = MultiStepConfig(eta0=1.0, milestones=(160, 180), decay=0.1)
        assert multistep_lr_at(170, cfg) == pytest.approx(0.1)
        assert multistep_lr_at(190, cfg) == pytest.approx(0.01)

    def test_milestone_epoch_counts_as_passed(self):
        cfg = MultiStepConfig(eta0=1.0, milestones=(5,), decay=0.5)
        assert multistep_lr_at(5, cfg) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiStepConfig(eta0=1.0, milestones=(5, 5), decay=0.5)
        with pytest.raises(ValueError):
            MultiStepConfig(eta0=1.0, milestones=(), decay=1.0)
        with pytest.raises(ValueError):
            multistep_lr_at(-1, MultiStepConfig(eta0=1.0, milestones=(), decay=0.5))
