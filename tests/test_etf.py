import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.etf import make_etf
from ltlab.nc_metrics import class_means, nc1, nc2, nc3, nc4_agreement

from oracles import assert_close, case, etf_gram, fixture_bank, fixture_class_losses, make_nc_fixture, rejected


FIXTURE_C3 = make_nc_fixture(3, 3, n_per_class=1, scale=1.0, radius=1.0, seed=0)

# The simplex ETF's Gram matrix, unit norms and cosines -1/(C-1), and the collapsed fixture built on it.
ETF_CASES = [
    case("c3-cosines", lambda: etf_gram(make_etf(3, 3, seed=0))[~np.eye(3, dtype=bool)], lambda: -0.5, rel=1e-12),
    case("c2-antipodal", lambda: make_etf(2, 2, seed=1)[:, 0] @ make_etf(2, 2, seed=1)[:, 1], lambda: -1.0, rel=1e-12),
    case("c10-p64-gram", lambda: etf_gram(make_etf(10, 64, seed=5)),
         lambda: (10 / 9) * (np.eye(10) - np.full((10, 10), 1.0 / 10)), rel=1e-12),
    case("c6-p11-unit-diagonal", lambda: np.diag(etf_gram(make_etf(6, 11, seed=2))), lambda: 1.0, rel=1e-12),
    case("c4-cosine", lambda: etf_gram(make_etf(4, 4, seed=3))[0, 1] / etf_gram(make_etf(4, 4, seed=3))[0, 0],
         lambda: -1.0 / 3.0, rel=1e-12),
    case("deterministic-in-seed", lambda: make_etf(4, 9, seed=13), lambda: make_etf(4, 9, seed=13)),
    # The fixture's class-0 logits: the scaled ETF cosines 1, -1/2, -1/2.
    case("fixture-logit-pattern-c3", lambda: FIXTURE_C3.classifier @ FIXTURE_C3.features[0][0],
         lambda: [1.0, -0.5, -0.5], rel=1e-12),
]


@pytest.mark.parametrize("got, want, rel", ETF_CASES)
def test_etf(got, want, rel):
    assert_close(got(), want(), rel)


REJECTED_ETF_ARGS = [
    rejected("fewer-features-than-classes", lambda: make_etf(5, 4, seed=0), ValueError, "no orthonormal rotation"),
    rejected("one-class", lambda: make_etf(1, 4, seed=0), ValueError, "need at least 2 classes"),
    rejected("fixture-no-rows", lambda: make_nc_fixture(3, 5, n_per_class=0, scale=1.0, radius=1.0), ValueError,
             "n_per_class must be >= 1"),
    rejected("fixture-negative-scale", lambda: make_nc_fixture(3, 5, n_per_class=1, scale=-1.0, radius=1.0),
             ValueError, "scale and radius must be positive"),
    rejected("fixture-fewer-features-than-classes", lambda: make_nc_fixture(6, 5, n_per_class=1, scale=1.0, radius=1.0),
             ValueError, "no orthonormal rotation"),
]


@pytest.mark.parametrize("call, error, match", REJECTED_ETF_ARGS)
def test_rejected_etf_args(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestMakeEtf:
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
    def test_perturbed_column_breaks_ratios(self):
        cols = make_etf(4, 6, seed=4)
        cols[:, 0] = cols[:, 0] + 0.3 * cols[:, 1]
        g = cols.T @ cols
        ratios = g[0, 1:] / g[0, 0]
        assert np.abs(ratios - ratios[0]).max() > 1e-3


class TestNcFixture:
    def test_rotation_invariance(self):
        a = fixture_class_losses(make_nc_fixture(6, 20, 3, 1.3, 0.7, seed=11))
        b = fixture_class_losses(make_nc_fixture(6, 20, 3, 1.3, 0.7, seed=99))
        assert np.abs(a - b).max() < 1e-10

    def test_metrics_collapse_to_zero(self):
        rng = np.random.default_rng(8)
        fx = make_nc_fixture(4, 12, n_per_class=3, scale=1.5, radius=1.2,
                             global_mean=rng.standard_normal(12), seed=21)
        bank = fixture_bank(fx)
        means, global_mean = class_means(bank)
        assert nc1(bank, means, global_mean) <= 1e-9
        assert nc2(fx.classifier) <= 1e-9
        assert nc3(fx.classifier, means, global_mean) <= 1e-9
        assert nc4_agreement((bank.features @ fx.classifier.T).argmax(axis=1), bank, means) == 1.0

    def test_global_mean_projected_out(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(10)
        fx = make_nc_fixture(4, 10, n_per_class=2, scale=1.0, radius=1.0,
                             global_mean=g, seed=5)
        # stored offset is orthogonal to every class vector
        assert np.abs(fx.etf.T @ fx.global_mean).max() < 1e-9

