import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.etf import make_etf
from ltlab.nc_metrics import (
    FeatureBank,
    class_means,
    etf_gram_target,
    make_report,
    nc1,
    nc2,
    nc3,
    nc4_agreement,
)

from ltlab.linalg import pinv
from oracles import covariances, make_nc_fixture, nc1_exact

TOY = FeatureBank(features=np.array([[0.0], [2.0], [4.0], [6.0]]), offsets=(0, 2, 4))


def _nc4_loop(classifier, bias, bank):
    """Per-class reference for nc4_agreement: the full (n_c, C, p) tensor of
    direct differences, argmin over classes and argmax over logits."""
    w = np.asarray(classifier, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    means = np.stack([block.mean(axis=0) for block in bank.blocks])
    agree = 0
    total = 0
    for block in bank.blocks:
        logits = block @ w.T + b
        pred = np.argmax(logits, axis=1)
        d2 = ((block[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        agree += int((pred == nearest).sum())
        total += block.shape[0]
    return agree / total


def _nc4(classifier, bias, bank, work=None):
    """nc4_agreement on the predictions of the classifier and bias."""
    logits = bank.features @ np.asarray(classifier, dtype=np.float64).T
    logits += bias
    return nc4_agreement(logits.argmax(axis=1), bank, work)


def _mask_bank(x, y):
    """Reference FeatureBank.from_labels blocks: one boolean mask per label, ascending."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    return tuple(x[y == c] for c in np.unique(y))


def fixture_bank(fx):
    x = np.concatenate(fx.features)
    y = np.repeat(np.arange(len(fx.features)), [b.shape[0] for b in fx.features])
    return FeatureBank.from_labels(x, y)


class TestFeatureBank:
    def test_from_labels(self):
        x = np.array([[1.0], [2.0], [3.0]])
        bank = FeatureBank.from_labels(x, [1, 0, 1])
        assert np.array_equal(bank.blocks[1], [[1.0], [3.0]])
        assert np.array_equal(bank.features, [[2.0], [1.0], [3.0]])
        assert bank.offsets.tolist() == [0, 1, 3]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 40), p=st.integers(1, 5),
           label_pool=st.lists(st.integers(-3, 50), min_size=1, max_size=6, unique=True))
    def test_from_labels_matches_masks(self, seed, n, p, label_pool):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        y = rng.choice(label_pool, size=n)
        bank = FeatureBank.from_labels(x, y)
        blocks = _mask_bank(x, y)
        assert len(bank.blocks) == len(blocks)
        for got, want in zip(bank.blocks, blocks):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, bank.features)
        assert not np.shares_memory(bank.features, x)  # one copy, in class order

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="2 labels for 3 feature rows"):
            FeatureBank.from_labels(np.zeros((3, 2)), [0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureBank.from_labels(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="non-empty"):
            FeatureBank(features=np.zeros((2, 2)), offsets=(0, 0, 2))
        with pytest.raises(ValueError, match="offsets from 0 to 2"):
            FeatureBank(features=np.zeros((2, 2)), offsets=(0, 1, 3))
        with pytest.raises(ValueError, match="float64"):
            FeatureBank(features=np.zeros(2), offsets=(0, 2))
        with pytest.raises(ValueError, match="float64"):
            FeatureBank(features=np.zeros((2, 2), dtype=np.float32), offsets=(0, 2))
        with pytest.raises(ValueError, match="offsets from 0 to 0 for C >= 1 classes"):
            FeatureBank(features=np.zeros((0, 2)), offsets=(0,))

    def test_keeps_the_given_array(self):
        x = np.arange(8.0).reshape(4, 2)
        bank = FeatureBank(features=x, offsets=np.array([0, 1, 4]))
        assert bank.features is x
        assert [b.shape[0] for b in bank.blocks] == [1, 3]
        assert all(np.shares_memory(b, x) for b in bank.blocks)


class TestClassMeans:
    def test_single_sample_classes(self):
        bank = FeatureBank.from_labels(np.array([[1.0, 0.0], [0.0, 2.0]]), [0, 1])
        means, global_mean = class_means(bank)
        assert np.array_equal(means, [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(global_mean, [0.5, 1.0])

    def test_symmetric_global_mean(self):
        m = np.array([1.5, -2.0, 0.25])
        bank = FeatureBank.from_labels(np.vstack([m, -m]), [0, 1])
        _, global_mean = class_means(bank)
        assert np.abs(global_mean).max() == 0.0

    def test_computed_once_and_read_only(self):
        bank = FeatureBank.from_labels(np.arange(12.0).reshape(6, 2), [0, 1, 2, 0, 1, 2])
        means, global_mean = class_means(bank)
        again = class_means(bank)
        assert again[0] is means and again[1] is global_mean
        with pytest.raises(ValueError):
            means[0, 0] = 1.0

    def test_permutation_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 6))
        y = rng.integers(0, 4, size=40)
        means, global_mean = class_means(FeatureBank.from_labels(x, y))
        perm = rng.permutation(40)
        means_p, global_p = class_means(FeatureBank.from_labels(x[perm], y[perm]))
        assert np.abs(means - means_p).max() < 1e-12
        assert np.abs(global_mean - global_p).max() < 1e-12


class TestCovariancesOracle:
    """The p x p scatter matrices of NC1's definition, kept as a test
    oracle: ``nc1`` never forms them."""

    def test_collapsed_features(self):
        fx = make_nc_fixture(3, 5, n_per_class=4, scale=1.0, radius=1.0, seed=0)
        sigma_w, _ = covariances(fixture_bank(fx))
        assert np.abs(sigma_w).max() < 1e-24

    def test_equal_means_zero_between(self):
        x = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        bank = FeatureBank.from_labels(x, [0, 0, 1, 1])
        _, sigma_b = covariances(bank)
        assert np.abs(sigma_b).max() == 0.0

    def test_1d_toy(self):
        sigma_w, sigma_b = covariances(TOY)
        assert sigma_w == pytest.approx(np.array([[1.0]]))
        assert sigma_b == pytest.approx(np.array([[4.0]]))


def _separated_bank(seed, sizes, p, dead=(), offset=0.0):
    """Classes of ``sizes`` rows around well-separated means, with the
    ``dead`` feature columns zero."""
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(len(sizes)), sizes)
    x = offset + rng.standard_normal((len(y), p)) + 3 * rng.standard_normal((len(sizes), p))[y]
    x[:, list(dead)] = 0.0
    return FeatureBank.from_labels(x, y)


class TestNc1:
    def test_fixture_zero(self):
        fx = make_nc_fixture(4, 7, n_per_class=3, scale=2.0, radius=1.5, seed=1)
        assert nc1(fixture_bank(fx)) <= 1e-9

    def test_1d_toy_value(self):
        assert nc1(TOY) == pytest.approx(0.125)
        assert nc1_exact(TOY) == Fraction(1, 8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 5))
        y = rng.integers(0, 3, size=60)
        base = nc1(FeatureBank.from_labels(x, y))
        scaled = nc1(FeatureBank.from_labels(7.3 * x, y))
        assert scaled == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("sizes, p, dead, offset", [
        ((9, 5, 7, 3, 6, 4, 8), 3, (), 0.0),  # C - 1 >= p: Sigma_B has full rank
        ((12, 1, 4, 1, 2, 9, 3), 6, (), 5.0),  # full rank, with singleton classes
        ((10, 6, 8), 5, (), 0.0),  # C - 1 < p: rank C - 1
        ((7, 3, 9, 2, 5), 6, (1, 4), 0.0),  # dead feature columns: rank p - 2
        ((4, 11, 6, 1), 4, (0, 1, 2), 1.0),  # rank 1
    ])
    def test_matches_exact_oracle(self, sizes, p, dead, offset):
        bank = _separated_bank(len(sizes) * p, sizes, p, dead, offset)
        exact = nc1_exact(bank)
        assert exact > 0
        assert abs(Fraction(nc1(bank)) - exact) <= Fraction(1, 10**12) * exact

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), sizes=st.lists(st.integers(1, 30), min_size=2, max_size=8),
           p=st.integers(1, 12), offset=st.sampled_from([0.0, 3.0, 1e4]))
    def test_matches_the_scatter_definition(self, seed, sizes, p, offset):
        # The p x p composition loses digits that the class-mean form keeps,
        # so the definition is checked here at a looser tolerance.
        bank = _separated_bank(seed, sizes, p, offset=offset)
        sigma_w, sigma_b = covariances(bank)
        want = np.trace(sigma_w @ pinv(sigma_b)) / bank.class_count
        assert nc1(bank) == pytest.approx(want, rel=1e-8)

    def test_buffers_and_in_place(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        fresh = nc1(FeatureBank.from_labels(x, y))
        bank = FeatureBank.from_labels(x, y)
        centred = np.full_like(bank.features, np.nan)
        work = np.full((30, 3), np.nan)
        assert nc1(bank, centred, work) == fresh
        assert nc1(bank, bank.features, work) == fresh  # the bank's own rows
        # The bank's rows are now centred; its cached means are not.
        assert np.array_equal(bank.features, centred)
        assert np.abs(np.stack([b.mean(axis=0) for b in bank.blocks])).max() < 1e-12
        assert np.array_equal(class_means(bank)[0], class_means(FeatureBank.from_labels(x, y))[0])
        # The work buffer holds the centred rows times pinv(M), M the centred means.
        means, global_mean = class_means(bank)
        q = pinv(means - global_mean, rank_tol=np.sqrt(4 * np.finfo(np.float64).eps))
        assert np.array_equal(work, centred @ q)
        with pytest.raises(ValueError, match="float64"):
            nc1(bank, centred=np.zeros((30, 3)))


class TestNc2:
    def test_etf_rows_give_zero(self):
        w = 2.7 * make_etf(5, 9, seed=3).T
        assert nc2(w) <= 1e-9

    def test_orthonormal_rows_closed_form(self):
        c = 4
        w = np.eye(c, 7)
        expected = np.linalg.norm(np.eye(c) / np.sqrt(c) - etf_gram_target(c))
        assert nc2(w) == pytest.approx(expected, rel=1e-12)

    def test_global_scaling_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 10))
        assert nc2(3.14 * w) == pytest.approx(nc2(w), rel=1e-12)

    def test_zero_classifier_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            nc2(np.zeros((3, 5)))


class TestNc3:
    def test_fixture_self_duality(self):
        fx = make_nc_fixture(5, 11, n_per_class=2, scale=1.3, radius=0.9, seed=5)
        assert nc3(fx.classifier, fixture_bank(fx)) <= 1e-9

    def test_random_inputs_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal((30, 4))
            y = rng.integers(0, 3, size=30)
            w = rng.standard_normal((3, 4))
            val = nc3(w, FeatureBank.from_labels(x, y))
            assert 0.0 < val <= 2.0

    def test_separate_scaling_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        w = rng.standard_normal((3, 4))
        a = nc3(w, FeatureBank.from_labels(x, y))
        b = nc3(5.0 * w, FeatureBank.from_labels(0.25 * x, y))
        assert b == pytest.approx(a, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nc3(np.ones((2, 3)), TOY)


class TestNc4Agreement:
    def test_fixture_full_agreement(self):
        fx = make_nc_fixture(4, 6, n_per_class=3, scale=1.0, radius=1.0, seed=8)
        assert _nc4(fx.classifier, np.zeros(4), fixture_bank(fx)) == 1.0

    def test_zero_classifier_brute_force(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((25, 3))
        y = rng.integers(0, 3, size=25)
        bank = FeatureBank.from_labels(x, y)
        means, _ = class_means(bank)
        nearest = np.array([np.argmin(((f - means) ** 2).sum(axis=1)) for f in bank.features])
        expected = float(np.mean(nearest == 0))
        got = _nc4(np.zeros((3, 3)), np.zeros(3), bank)
        assert got == pytest.approx(expected)

    def test_single_class(self):
        bank = FeatureBank.from_labels(np.array([[1.0], [2.0]]), [0, 0])
        assert _nc4(np.array([[1.0]]), np.zeros(1), bank) == 1.0

    @pytest.mark.parametrize("labels", [(0, 0, 1, 1), (1, 1, 2, 2), (3, 3, 7, 7)])
    def test_class_ids_need_not_start_at_zero(self, labels):
        # Classifier row k belongs to the bank's k-th class whatever its id:
        # the separating classifier agrees with the nearest mean everywhere.
        x = np.array([[-1.0], [-1.1], [1.0], [1.1]])
        bank = FeatureBank.from_labels(x, labels)
        assert _nc4(np.array([[-1.0], [1.0]]), np.zeros(2), bank) == 1.0
        assert _nc4(np.array([[1.0], [-1.0]]), np.zeros(2), bank) == 0.0
        # One row per class the bank holds: a classifier with a row for a
        # class the bank lacks cannot be matched to it by position.
        with pytest.raises(ValueError, match=re.escape("need 4 predictions in 0..1")):
            _nc4(np.array([[-1.0], [0.0], [1.0]]), np.zeros(3), bank)
        for bad in (np.zeros(3, dtype=int), np.zeros((4, 2), dtype=int), np.array([0, 0, -1, 1])):
            with pytest.raises(ValueError, match=re.escape("need 4 predictions in 0..1")):
                nc4_agreement(bad, bank)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31), sizes=st.lists(st.integers(1, 12), min_size=1, max_size=7),
           p=st.integers(1, 9), offset=st.sampled_from([0.0, 1.0, 1e8]),
           duplicate=st.booleans(), dead_frac=st.sampled_from([0.0, 0.3, 1.0]),
           integer=st.booleans())
    def test_equals_loop_oracle(self, seed, sizes, p, offset, duplicate, dead_frac, integer):
        rng = np.random.default_rng(seed)
        c = len(sizes)
        x = rng.standard_normal((sum(sizes), p))
        if integer:
            x = np.round(3 * x)  # small integers: exact ties between classes are common
        x[rng.random(len(x)) < dead_frac] = 0.0  # dead-ReLU rows
        x += offset
        y = np.repeat(np.arange(c), sizes)
        if duplicate and c > 1:  # the last class copies the first: equal means
            x = np.concatenate([x, x[y == 0]])
            y = np.concatenate([y, np.full(sizes[0], c - 1)])
        bank = FeatureBank.from_labels(x, y)
        w = rng.standard_normal((c, p))
        b = rng.standard_normal(c)
        assert _nc4(w, b, bank) == _nc4_loop(w, b, bank)
        zeros = np.zeros(c)  # every prediction is class 0: NC4 counts nearest == 0
        assert _nc4(np.zeros((c, p)), zeros, bank) == _nc4_loop(np.zeros((c, p)), zeros, bank)

    def test_equidistant_samples_take_lower_id(self):
        # Means 0 and 2; the two samples at 1 are exactly equidistant. With a
        # zero classifier every prediction is class 0, so agreement counts
        # the samples whose nearest mean is class 0: 3 of 4 when ties go to
        # the lower id, 1 of 4 when they go to the higher.
        for offset in (0.0, 1e8):
            x = offset + np.array([[-1.0], [1.0], [1.0], [3.0]])
            for labels in ([0, 0, 1, 1], [1, 1, 0, 0]):
                bank = FeatureBank.from_labels(x, labels)
                assert _nc4(np.zeros((2, 1)), np.zeros(2), bank) == 0.75

    @pytest.mark.parametrize("label", [0, 1, 2])
    def test_equidistant_in_two_dimensions(self, label):
        # Means (3, 4), (-4, 3) and (0, -5) all lie at distance 5 from the
        # sample at the origin, so its nearest mean is class 0 whichever
        # class it belongs to. That class's block is the origin and twice
        # its mean; the others are their mean plus and minus (1, 0).
        mus = np.array([[3.0, 4.0], [-4.0, 3.0], [0.0, -5.0]])
        blocks = [np.vstack([np.zeros(2), 2 * mu]) if k == label else mu + np.array([[1.0, 0.0], [-1.0, 0.0]])
                  for k, mu in enumerate(mus)]
        bank = FeatureBank(features=np.concatenate(blocks), offsets=(0, 2, 4, 6))
        assert np.array_equal(class_means(bank)[0], mus)
        # A zero classifier predicts class 0. Mean 0 is nearest to the
        # origin and to class 0's other rows: 2 of 6 rows when the origin is
        # one of class 0's two rows, 3 of 6 otherwise.
        assert _nc4(np.zeros((3, 2)), np.zeros(3), bank) == (2 if label == 0 else 3) / 6

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 1e200])
    def test_underflow_and_overflow_match_direct_form(self, scale):
        # Squares underflow below 1e-162 and overflow above 1e154; rows
        # whose Gram distances are not finite are rechecked in full.
        rng = np.random.default_rng(15)
        y = np.repeat(np.arange(4), 10)
        x = scale * (rng.standard_normal((40, 3)) + 2 * rng.standard_normal((4, 3))[y])
        bank = FeatureBank.from_labels(x, y)
        w = rng.standard_normal((4, 3)) / scale
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            assert _nc4(w, np.zeros(4), bank) == _nc4_loop(w, np.zeros(4), bank)

    def test_overflow_to_minus_infinity_is_rechecked(self):
        # -2 x.mu overflows to -inf for both large means, so the Gram form
        # ties classes 1 and 2 at -inf for the row at 1e154 and its argmin
        # picks class 1; the direct form puts that row on its own mean, 2.
        x = np.array([[0.0], [1.2e154], [1.0e154]])
        bank = FeatureBank.from_labels(x, [0, 1, 2])
        bias = np.array([0.0, 0.0, 1.0])  # predicts class 2 everywhere
        with np.errstate(over="ignore"):
            assert _nc4(np.zeros((3, 1)), bias, bank) == _nc4_loop(np.zeros((3, 1)), bias, bank) == 1 / 3

    def test_gram_cancellation_is_rechecked(self):
        # Features offset by 1e8 with unit spread: the Gram form loses about
        # 1e16 * 2^-53 ~ 1 to cancellation, about the gaps between distances.
        rng = np.random.default_rng(13)
        y = np.repeat(np.arange(6), 40)
        x = 1e8 + rng.standard_normal((240, 4)) + 0.3 * rng.standard_normal((6, 4))[y]
        bank = FeatureBank.from_labels(x, y)
        means, _ = class_means(bank)
        direct = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        gram = np.argmin((x * x).sum(1)[:, None] - 2 * x @ means.T + (means * means).sum(1), axis=1)
        assert (gram != direct).any()  # the case really needs the recheck
        for k in range(6):
            onehot = np.zeros((6, 4))
            bias = np.where(np.arange(6) == k, 1.0, 0.0)  # predicts class k everywhere
            assert _nc4(onehot, bias, bank) == np.mean(direct == k)

    def test_peak_memory_without_distance_tensor(self):
        # 4,000 x 64 features in 50 classes with half the rows in the head
        # class: an (n_c, C, p) difference tensor for it alone is 51 MB.
        n, p, c = 4000, 64, 50
        rng = np.random.default_rng(14)
        y = np.concatenate([np.zeros(n // 2, dtype=int), rng.integers(1, c, size=n - n // 2)])
        bank = FeatureBank.from_labels(rng.standard_normal((n, p)), y)
        predictions = (bank.features @ rng.standard_normal((c, p)).T).argmax(axis=1)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            nc4_agreement(predictions, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bank.class_count == c
        assert peak - base < 3 * (n * p + n * c) * 8

    def test_distance_buffer(self):
        rng = np.random.default_rng(17)
        y = np.repeat(np.arange(5), [9, 1, 4, 7, 2])
        bank = FeatureBank.from_labels(rng.standard_normal((len(y), 3)), y)
        w, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
        work = np.full((len(y), 5), np.nan)
        assert _nc4(w, b, bank, work) == _nc4(w, b, bank) == _nc4_loop(w, b, bank)
        # The buffer ends holding the Gram-form distances ||mu_k||^2 - 2 x.mu_k,
        # the squared distances less ||x||^2, whose row argmin is the nearest mean.
        x = bank.features
        means, _ = class_means(bank)
        direct = ((x[:, None] - means) ** 2).sum(axis=2)
        assert np.allclose(work + (x * x).sum(axis=1)[:, None], direct, rtol=0, atol=1e-12)
        assert np.array_equal(work.argmin(axis=1), direct.argmin(axis=1))


class TestDeterminismAndReport:
    def test_metrics_independent_of_sample_order(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((50, 6))
        y = rng.integers(0, 5, size=50)
        w = rng.standard_normal((5, 6))
        bank1 = FeatureBank.from_labels(x, y)
        perm = rng.permutation(50)
        bank2 = FeatureBank.from_labels(x[perm], y[perm])
        assert nc1(bank1) == pytest.approx(nc1(bank2), abs=1e-10)
        assert nc3(w, bank1) == pytest.approx(nc3(w, bank2), abs=1e-10)
        assert _nc4(w, np.zeros(5), bank1) == _nc4(w, np.zeros(5), bank2)

    def test_noise_increases_nc1(self):
        fx = make_nc_fixture(4, 8, n_per_class=10, scale=1.0, radius=1.0, seed=11)
        x0 = np.concatenate(fx.features)
        y = np.repeat(np.arange(4), 10)
        medians = []
        for sigma in (0.01, 0.1, 0.5):
            vals = []
            for seed in range(20):
                noise = np.random.default_rng(seed).standard_normal(x0.shape) * sigma
                vals.append(nc1(FeatureBank.from_labels(x0 + noise, y)))
            medians.append(np.median(vals))
        assert medians[0] <= medians[1] <= medians[2]

    def test_report_fields(self):
        fx = make_nc_fixture(3, 5, n_per_class=2, scale=1.0, radius=1.0, seed=12)
        bank = fixture_bank(fx)
        predictions = (bank.features @ fx.classifier.T).argmax(axis=1)
        report = make_report(fx.classifier, predictions, bank, [1.0, 1.0, 1.0])
        assert list(report) == ["nc1", "nc2", "nc3", "nc4", "rho"]
        assert report["rho"] == 0.0
        assert report["nc4"] == 1.0
        assert list(make_report(fx.classifier, predictions, bank)) == ["nc1", "nc2", "nc3", "nc4"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_report_rejects_non_finite(self):
        # Finite losses whose spread overflows: rho is inf.
        fx = make_nc_fixture(3, 5, n_per_class=2, scale=1.0, radius=1.0, seed=12)
        bank = fixture_bank(fx)
        predictions = (bank.features @ fx.classifier.T).argmax(axis=1)
        with pytest.raises(ValueError, match="metric values must be finite"):
            make_report(fx.classifier, predictions, bank, [1e300, 1e-300, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scatter_or_gram_is_rejected(self):
        # Finite input whose products overflow. Class 0's rows sit at
        # +/-1e200 around a zero mean, so Sigma_W is infinite while Sigma_B
        # is not; a classifier row of 1e200 overflows W W^T, and W M over
        # class means at +/-1e200.
        bank = FeatureBank.from_labels(np.array([[1e200], [-1e200], [1.0], [1.0]]), np.array([0, 0, 1, 1]))
        far = FeatureBank.from_labels(np.array([[1e200], [-1e200]]), np.array([0, 1]))
        w = np.array([[1e200], [1.0]])
        for metric in (lambda: nc1(bank), lambda: nc2(w), lambda: nc3(w, far)):
            with pytest.raises(ValueError, match="non-finite"):
                metric()
