import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.baselines import (
    RANGE_DIST_FLOOR,
    _pair_indices,
    cb_weights,
    ib_class_coefficients,
    inv_freq_weights,
    inv_sqrt_weights,
    range_loss_grad,
)

from oracles import focal_loss, ib_loss


class TestFrequencyWeights:
    def test_inv_freq(self):
        assert np.allclose(inv_freq_weights((10, 5)), [0.1, 0.2])
        assert np.allclose(inv_freq_weights((1,)), [1.0])
        assert np.allclose(inv_freq_weights((2, 4, 8)), [0.5, 0.25, 0.125])

    def test_inv_sqrt(self):
        assert np.allclose(inv_sqrt_weights((4, 16)), [0.5, 0.25])
        assert np.allclose(inv_sqrt_weights((1, 1)), [1.0, 1.0])

    def test_inv_sqrt_monotone(self):
        w = inv_sqrt_weights((1, 3, 9, 100))
        assert np.all(np.diff(w) < 0)


class TestCbWeights:
    def test_beta_zero_is_uniform(self):
        assert np.array_equal(cb_weights((3, 50, 7), 0.0), np.ones(3))

    def test_single_sample_class(self):
        for beta in (0.1, 0.5, 0.9999):
            assert cb_weights((1,), beta)[0] == pytest.approx(1.0)

    def test_hand_value(self):
        w = cb_weights((100,), 0.99)
        assert w[0] == pytest.approx(0.01 / (1 - 0.99 ** 100), rel=1e-12)
        assert w[0] == pytest.approx(0.0157746, rel=1e-4)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            cb_weights((2, 3), 1.0)
        with pytest.raises(ValueError):
            cb_weights((2, 3), -0.1)

    def test_limit_matches_inverse_frequency(self):
        counts = (5, 17, 301, 4000)
        w = cb_weights(counts, 1.0 - 1e-8)
        ratio = w * np.asarray(counts)
        assert np.abs(ratio / ratio[0] - 1.0).max() < 1e-4


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        probs = [0.2, 0.5, 0.3]
        assert focal_loss(probs, 1, gamma=0.0) == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_perfect_prediction(self):
        assert focal_loss([0.0, 1.0], 1, gamma=2.0) == 0.0

    def test_hand_value(self):
        # 0.25 * ln 2
        assert focal_loss([0.5, 0.5], 0, gamma=2.0) == pytest.approx(0.173287, rel=1e-5)

    def test_alpha_scaling(self):
        base = focal_loss([0.5, 0.5], 0, gamma=2.0)
        assert focal_loss([0.5, 0.5], 0, gamma=2.0, alpha_t=0.25) == pytest.approx(base / 4)

    def test_zero_probability(self):
        with pytest.raises(ValueError, match="eps_floor"):
            focal_loss([1.0, 0.0], 1, gamma=2.0)
        floored = focal_loss([1.0, 0.0], 1, gamma=0.0, eps_floor=True)
        assert floored == pytest.approx(-math.log(1e-12))

    def test_monotone_in_target_probability(self):
        grid = np.linspace(0.01, 0.99, 60)
        for gamma in (0.0, 0.5, 2.0, 5.0):
            vals = [focal_loss([p, 1 - p], 0, gamma=gamma) for p in grid]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            focal_loss([0.7, 0.7], 0, gamma=1.0)
        with pytest.raises(ValueError):
            focal_loss([-0.1, 1.1], 0, gamma=1.0)


class TestIbLoss:
    def test_perfect_one_hot(self):
        assert ib_loss([0.0, 1.0], 1, feature=np.ones(4), eps=1e-3) == 0.0

    def test_hand_value(self):
        # |p - y|_1 = 1, |h|_1 = 1
        val = ib_loss([0.5, 0.5], 0, feature=[1.0], eps=1e-3)
        assert val == pytest.approx(math.log(2) / 1.001, rel=1e-6)
        assert val == pytest.approx(0.692455, rel=1e-4)

    def test_feature_scaling_halves_loss(self):
        f = np.full(8, 10.0)
        a = ib_loss([0.6, 0.4], 0, feature=f, eps=1e-6)
        b = ib_loss([0.6, 0.4], 0, feature=2 * f, eps=1e-6)
        assert b == pytest.approx(a / 2, rel=1e-4)

    def test_bounded_by_ce_over_eps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            t = int(rng.integers(5))
            if p[t] == 0:
                continue
            eps = 10 ** rng.uniform(-6, -1)
            h = rng.standard_normal(7)
            assert ib_loss(p, t, h, eps) <= -math.log(p[t]) / eps + 1e-12

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            ib_loss([0.5, 0.5], 0, feature=[1.0], eps=0.0)


class TestIbClassCoefficients:
    def test_symmetry(self):
        assert np.allclose(ib_class_coefficients((1, 1), 1.0), [0.5, 0.5])

    def test_hand_example(self):
        assert np.allclose(ib_class_coefficients((1, 3), 1.0), [0.75, 0.25])

    def test_sum_equals_scale(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            counts = rng.integers(1, 500, size=6)
            scale = float(rng.uniform(0.1, 10))
            assert ib_class_coefficients(counts, scale).sum() == pytest.approx(scale)


class TestRangeLoss:
    def test_tight_clusters_far_centers(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        val = range_loss_grad(x, y, k=2, margin=5.0, alpha=1.0, beta=1.0)[0]
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_inter_hinge(self):
        x = np.array([[0.0], [3.0]])
        y = np.array([0, 1])
        assert range_loss_grad(x, y, k=1, margin=5.0, alpha=0.0, beta=1.0)[0] == pytest.approx(2.0)

    def test_inter_inactive_beyond_margin(self):
        x = np.array([[0.0], [7.0]])
        y = np.array([0, 1])
        assert range_loss_grad(x, y, k=1, margin=5.0, alpha=0.0, beta=1.0)[0] == 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            range_loss_grad(np.zeros((2, 1)), [0, 1], k=0, margin=1.0, alpha=1.0, beta=1.0)

    def test_harmonic_mean_of_top_ranges(self):
        x = np.array([[0.0], [1.0], [3.0], [50.0]])
        y = np.array([0, 0, 0, 1])
        # pairwise distances 1, 3, 2; top-2 are 3 and 2
        expected = 2.0 / (1 / 3.0 + 1 / 2.0)
        val = range_loss_grad(x, y, k=2, margin=1.0, alpha=1.0, beta=0.0)[0]
        assert val == pytest.approx(expected)

    def test_single_class_has_no_inter_term(self):
        # No centre pair: the hinge adds nothing and pushes no row, as a
        # singleton class adds no intra term.
        x = np.array([[0.0], [2.0]])
        y = np.array([0, 0])
        for beta in (0.0, 1.0):
            assert range_loss_grad(x, y, k=1, margin=1.0, alpha=0.0, beta=beta)[0] == 0.0
            assert not range_loss_grad(x, y, k=1, margin=1.0, alpha=0.0, beta=beta)[1].any()

    def test_inter_term_lipschitz(self):
        # inter term moves at most as fast as the center distance
        rng = np.random.default_rng(2)
        for _ in range(20):
            d1, d2 = rng.uniform(0.0, 8.0, size=2)
            x1 = np.array([[0.0], [d1]])
            x2 = np.array([[0.0], [d2]])
            y = np.array([0, 1])
            v1 = range_loss_grad(x1, y, k=1, margin=5.0, alpha=0.0, beta=1.0)[0]
            v2 = range_loss_grad(x2, y, k=1, margin=5.0, alpha=0.0, beta=1.0)[0]
            assert abs(v1 - v2) <= abs(d1 - d2) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 4)) * 2.0
        y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        _, grad = range_loss_grad(x, y, k=2, margin=5.0, alpha=0.7, beta=0.9)
        fd = np.zeros_like(x)
        h = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                orig = x[i, j]
                x[i, j] = orig + h
                up = range_loss_grad(x, y, 2, 5.0, 0.7, 0.9)[0]
                x[i, j] = orig - h
                down = range_loss_grad(x, y, 2, 5.0, 0.7, 0.9)[0]
                x[i, j] = orig
                fd[i, j] = (up - down) / (2 * h)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6


def _top_ranges_loop(block, k):
    """The k largest pairwise distances in a class block, floored, with index pairs."""
    n = block.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dists = np.array([max(float(np.linalg.norm(block[i] - block[j])), RANGE_DIST_FLOOR) for i, j in pairs])
    order = np.argsort(-dists, kind="stable")[: min(k, len(pairs))]
    return dists[order], [pairs[i] for i in order]


def _range_loss_grad_loop(features, labels, k, margin, alpha, beta):
    """Pair-loop reference for range_loss_grad: one np.linalg.norm per pair."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if margin <= 0:
        raise ValueError("margin must be positive")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, p) aligned with labels")
    classes = [int(c) for c in np.unique(y)]
    grad = np.zeros_like(x)

    intra = 0.0
    for c in classes:
        idx = np.flatnonzero(y == c)
        if idx.size < 2:
            continue
        block = x[idx]
        dists, pairs = _top_ranges_loop(block, k)
        inv_sum = float((1.0 / dists).sum())
        k_used = len(pairs)
        intra += k_used / inv_sum
        for d, (i, j) in zip(dists, pairs):
            if d <= RANGE_DIST_FLOOR:
                continue
            coeff = alpha * (k_used / inv_sum ** 2) / d ** 2
            diff = (block[i] - block[j]) / d
            grad[idx[i]] += coeff * diff
            grad[idx[j]] -= coeff * diff

    inter = 0.0
    if len(classes) >= 2:
        centers = {c: x[y == c].mean(axis=0) for c in classes}
        best = None
        for a_i, ca in enumerate(classes):
            for cb in classes[a_i + 1:]:
                d = float(np.linalg.norm(centers[ca] - centers[cb]))
                if best is None or d < best[0]:
                    best = (d, ca, cb)
        d_center, ca, cb = best
        inter = max(margin - d_center, 0.0)
        if inter > 0 and d_center > 0:
            direction = (centers[ca] - centers[cb]) / d_center
            na, nb = int((y == ca).sum()), int((y == cb).sum())
            grad[y == ca] += -beta * direction / na
            grad[y == cb] += beta * direction / nb

    return float(alpha * intra + beta * inter), grad


@st.composite
def range_batches(draw):
    """Batches drawn from a small pool of rows, so coincident features and
    singleton classes are common; labels may all be equal."""
    n = draw(st.integers(0, 14))
    p = draw(st.integers(1, 4))
    coord = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(coord, min_size=p, max_size=p), min_size=1, max_size=max(n, 1)))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 3))), min_size=n, max_size=n))
    x = np.array([pool[r] for r in rows], dtype=np.float64).reshape(n, p)
    return x, np.array(labels, dtype=np.int64)


def _centres_resolved(x, y):
    """False when two class centres coincide up to rounding."""
    classes = np.unique(y)
    if len(classes) < 2:
        return True
    centres = np.stack([x[y == c].mean(axis=0) for c in classes])
    gaps = np.linalg.norm(centres[:, None] - centres[None], axis=2)
    return gaps[np.triu_indices(len(classes), 1)].min() > 1e-9 * max(1.0, np.abs(x).max())


class TestPairIndices:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_cached_read_only_triu_indices(self, n):
        ii, jj = _pair_indices(n)
        want_i, want_j = np.triu_indices(n, 1)
        assert np.array_equal(ii, want_i) and np.array_equal(jj, want_j)
        assert ii.dtype == want_i.dtype and jj.dtype == want_j.dtype
        again = _pair_indices(n)
        assert again[0] is ii and again[1] is jj
        with pytest.raises(ValueError):
            ii[...] = 0

    def test_repeated_batches_are_byte_identical(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 3, size=16)
        first = range_loss_grad(x, y, 2, 5.0, 0.5, 0.5)
        for _ in range(3):
            value, grad = range_loss_grad(x, y, 2, 5.0, 0.5, 0.5)
            assert value == first[0] and grad.tobytes() == first[1].tobytes()
        assert _pair_indices(16)[0].flags.writeable is False


class TestRangeLossMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(batch=range_batches(), k=st.integers(1, 8), margin=st.floats(0.1, 10.0),
           alpha=st.floats(0.0, 2.0), beta=st.sampled_from([0.0, 0.8]))
    def test_value_and_gradient(self, batch, k, margin, alpha, beta):
        x, y = batch
        want_value, want_grad = _range_loss_grad_loop(x, y, k, margin, alpha, beta)
        value, grad = range_loss_grad(x, y, k, margin, alpha, beta)
        assert value == pytest.approx(want_value, rel=1e-12)
        if not _centres_resolved(x, y):
            # The hinge direction is the sign of rounding noise here: numpy's
            # mean sums a single column pairwise but several columns row by
            # row, so the loop itself flips it with the feature layout.
            # Check the intra gradient alone.
            _, want_grad = _range_loss_grad_loop(x, y, k, margin, alpha, 0.0)
            _, grad = range_loss_grad(x, y, k, margin, alpha, 0.0)
        assert np.allclose(grad, want_grad, rtol=0.0, atol=1e-12)

    def test_exact_ties_keep_pair_order(self):
        # Integer coordinates give bit-equal distances in both versions.
        # Class 0 (rows 0, 2, 3, 5) has three pairs at distance 5: (0, 2),
        # (0, 3) and (0, 5). k = 2 must keep the first two in pair order,
        # leaving row 5 without an intra gradient. Class 1 adds its one
        # range, 1.
        x = np.array([[0.0, 0.0], [9.0, 9.0], [3.0, 4.0], [4.0, 3.0], [9.0, 8.0], [0.0, 5.0]])
        y = np.array([0, 1, 0, 0, 1, 0])
        want_value, want_grad = _range_loss_grad_loop(x, y, 2, 1.0, 1.0, 0.0)
        value, grad = range_loss_grad(x, y, 2, 1.0, 1.0, 0.0)
        assert value == want_value == pytest.approx(6.0)
        assert np.array_equal(grad != 0, want_grad != 0)
        assert np.array_equal(np.flatnonzero(np.abs(grad).sum(axis=1)), [0, 1, 2, 3, 4])
        assert np.allclose(grad, want_grad, rtol=0.0, atol=1e-15)

    def test_first_closest_centre_pair_wins(self):
        # Centres at 0, 2 and 4 on a line: pairs (0, 1) and (1, 2) tie at 2,
        # and the first one pushes classes 0 and 1 apart.
        x = np.array([[4.0, 0.0], [0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        y = np.array([2, 0, 1, 2])
        want_value, want_grad = _range_loss_grad_loop(x, y, 1, 5.0, 0.0, 1.0)
        value, grad = range_loss_grad(x, y, 1, 5.0, 0.0, 1.0)
        assert value == want_value == 3.0
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(grad[:, 0], [0.0, 1.0, -1.0, 0.0])

    def test_floor_pairs_get_no_gradient(self):
        # Rows 0 and 1 sit 1e-14 apart, below the floor: their pair counts at
        # the floor in the value but pushes neither row.
        x = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-14], [7.0, 2.0]])
        y = np.array([0, 0, 1])
        want_value, want_grad = _range_loss_grad_loop(x, y, 3, 1.0, 1.0, 0.0)
        value, grad = range_loss_grad(x, y, 3, 1.0, 1.0, 0.0)
        assert value == want_value == RANGE_DIST_FLOOR
        assert np.array_equal(grad, want_grad)
        assert not grad.any()

    @pytest.mark.parametrize("bad", [dict(k=0), dict(margin=0.0), dict(alpha=-1.0), dict(beta=-1.0)])
    def test_validation_errors_kept(self, bad):
        args = dict(k=2, margin=1.0, alpha=1.0, beta=1.0) | bad
        x, y = np.zeros((3, 2)), np.array([0, 1, 1])
        for fn in (_range_loss_grad_loop, range_loss_grad):
            with pytest.raises(ValueError):
                fn(x, y, **args)

    def test_misaligned_features_rejected(self):
        with pytest.raises(ValueError):
            range_loss_grad(np.zeros((3, 2)), np.array([0, 1]), 2, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            range_loss_grad(np.zeros(3), np.array([0, 1, 1]), 2, 1.0, 1.0, 0.0)
