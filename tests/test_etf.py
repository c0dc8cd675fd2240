import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.etf import make_etf
from ltlab.nc_metrics import FeatureBank, nc1, nc2, nc3, nc4_agreement
from ltlab.reweighting import loss_imbalance_rho

from oracles import etf_gram, fixture_class_losses, make_nc_fixture


def bank_from_fixture(fx):
    x = np.concatenate(fx.features)
    y = np.repeat(np.arange(len(fx.features)), [b.shape[0] for b in fx.features])
    return FeatureBank.from_labels(x, y)


class TestMakeEtf:
    def test_c3_off_diagonals(self):
        g = etf_gram(make_etf(3, 3, seed=0))
        off = g[~np.eye(3, dtype=bool)]
        assert np.abs(off + 0.5).max() < 1e-9

    def test_c2_antipodal(self):
        cols = make_etf(2, 2, seed=1)
        cos = cols[:, 0] @ cols[:, 1]
        assert cos == pytest.approx(-1.0, abs=1e-9)

    def test_c10_p64_gram(self):
        c = 10
        g = etf_gram(make_etf(c, 64, seed=5))
        target = (c / (c - 1)) * (np.eye(c) - np.full((c, c), 1.0 / c))
        assert np.abs(g - target).max() < 1e-9

    def test_requires_room_for_rotation(self):
        with pytest.raises(ValueError):
            make_etf(5, 4, seed=0)
        with pytest.raises(ValueError):
            make_etf(1, 4, seed=0)

    def test_deterministic_in_seed(self):
        a = make_etf(4, 9, seed=13)
        b = make_etf(4, 9, seed=13)
        assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(c=st.integers(2, 12), extra=st.integers(0, 20), seed=st.integers(0, 2**31))
    def test_frame_invariants(self, c, extra, seed):
        e = make_etf(c, c + extra, seed=seed)
        norms = np.linalg.norm(e, axis=0)
        assert np.abs(norms - norms[0]).max() / norms[0] < 1e-9
        g = etf_gram(e)
        normalized = g / norms[0] ** 2
        off = normalized[~np.eye(c, dtype=bool)]
        assert np.abs(off + 1.0 / (c - 1)).max() < 1e-9


class TestEtfGram:
    def test_diagonal_equal(self):
        g = etf_gram(make_etf(6, 11, seed=2))
        d = np.diag(g)
        assert np.abs(d - d[0]).max() < 1e-9

    def test_c4_ratio(self):
        g = etf_gram(make_etf(4, 4, seed=3))
        ratio = g[0, 1] / g[0, 0]
        assert ratio == pytest.approx(-1.0 / 3.0, abs=1e-9)

    def test_perturbed_column_breaks_ratios(self):
        cols = make_etf(4, 6, seed=4)
        cols[:, 0] = cols[:, 0] + 0.3 * cols[:, 1]
        g = cols.T @ cols
        ratios = g[0, 1:] / g[0, 0]
        assert np.abs(ratios - ratios[0]).max() > 1e-3


class TestNcFixture:
    def test_equal_class_losses(self):
        rng = np.random.default_rng(0)
        fx = make_nc_fixture(5, 9, n_per_class=4, scale=1.7, radius=0.8,
                             global_mean=rng.standard_normal(9), seed=2)
        losses = fixture_class_losses(fx)
        assert losses.max() - losses.min() < 1e-12

    def test_zero_imbalance_coefficient(self):
        fx = make_nc_fixture(7, 16, n_per_class=2, scale=2.0, radius=1.0, seed=9)
        assert loss_imbalance_rho(fixture_class_losses(fx)) <= 1e-12

    def test_logit_pattern_c3(self):
        fx = make_nc_fixture(3, 3, n_per_class=1, scale=1.0, radius=1.0, seed=0)
        z = fx.classifier @ fx.features[0][0]
        assert z[0] == pytest.approx(1.0, abs=1e-9)
        assert z[1] == pytest.approx(-0.5, abs=1e-9)
        assert z[2] == pytest.approx(-0.5, abs=1e-9)

    def test_rotation_invariance(self):
        a = fixture_class_losses(make_nc_fixture(6, 20, 3, 1.3, 0.7, seed=11))
        b = fixture_class_losses(make_nc_fixture(6, 20, 3, 1.3, 0.7, seed=99))
        assert np.abs(a - b).max() < 1e-10

    def test_metrics_collapse_to_zero(self):
        rng = np.random.default_rng(8)
        fx = make_nc_fixture(4, 12, n_per_class=3, scale=1.5, radius=1.2,
                             global_mean=rng.standard_normal(12), seed=21)
        bank = bank_from_fixture(fx)
        assert nc1(bank) <= 1e-9
        assert nc2(fx.classifier) <= 1e-9
        assert nc3(fx.classifier, bank) <= 1e-9
        assert nc4_agreement((bank.features @ fx.classifier.T).argmax(axis=1), bank) == 1.0

    def test_global_mean_projected_out(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(10)
        fx = make_nc_fixture(4, 10, n_per_class=2, scale=1.0, radius=1.0,
                             global_mean=g, seed=5)
        # stored offset is orthogonal to every class vector
        assert np.abs(fx.etf.T @ fx.global_mean).max() < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_nc_fixture(3, 5, n_per_class=0, scale=1.0, radius=1.0)
        with pytest.raises(ValueError):
            make_nc_fixture(3, 5, n_per_class=1, scale=-1.0, radius=1.0)
        with pytest.raises(ValueError):
            make_nc_fixture(6, 5, n_per_class=1, scale=1.0, radius=1.0)
