import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.linalg import frobenius_norm, matrix, pinv, trace


def gauss_inverse(a):
    """Independent dense inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        if abs(aug[pivot, col]) < 1e-12:
            raise ValueError("singular")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


class TestMatrix:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            matrix([1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            matrix([[np.inf, 0.0]])

    def test_accepts_lists(self):
        m = matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2) and m.dtype == np.float64


class TestFrobeniusAndTrace:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0
        assert trace(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0)

    def test_identity_norm(self):
        for c in (2, 5, 9):
            assert frobenius_norm(np.eye(c)) == pytest.approx(np.sqrt(c))

    def test_trace_examples(self):
        assert trace(np.eye(3)) == 3.0
        assert trace([[2.0, 9.0], [9.0, 5.0]]) == 7.0

    def test_trace_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            trace(np.ones((2, 3)))

    def test_norm_squared_equals_trace_of_gram(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 8))
            lhs = frobenius_norm(a) ** 2
            rhs = trace(a.T @ a)
            assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-10


class TestPinv:
    def test_inverse_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
            assert np.abs(pinv(a) - gauss_inverse(a)).max() < 1e-10

    def test_zero_matrix(self):
        out = pinv(np.zeros((3, 5)))
        assert out.shape == (5, 3)
        assert np.all(out == 0.0)

    def test_rank_one(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        a = np.outer(u, v)
        expected = np.outer(v, u) / (u @ u) / (v @ v)
        assert np.abs(pinv(a) - expected).max() < 1e-12

    def test_rank_tol_cuts_small_singular_values(self):
        a = np.diag([1.0, 1e-9])
        strict = pinv(a, rank_tol=1e-6)
        assert strict[1, 1] == 0.0
        loose = pinv(a, rank_tol=1e-12)
        assert loose[1, 1] == pytest.approx(1e9)

    def test_negative_rank_tol_rejected(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), rank_tol=-1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 64),
        cols=st.integers(1, 64),
        rank_cap=st.integers(1, 8),
        seed=st.integers(0, 2**31),
    )
    def test_penrose_conditions(self, rows, cols, rank_cap, seed):
        rng = np.random.default_rng(seed)
        r = min(rank_cap, rows, cols)
        a = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        ap = pinv(a)
        scale = max(frobenius_norm(a), 1e-12)
        assert frobenius_norm(a @ ap @ a - a) / scale < 1e-8
        pscale = max(frobenius_norm(ap), 1e-12)
        assert frobenius_norm(ap @ a @ ap - ap) / pscale < 1e-8
        aap = a @ ap
        apa = ap @ a
        assert frobenius_norm(aap - aap.T) / max(frobenius_norm(aap), 1e-12) < 1e-8
        assert frobenius_norm(apa - apa.T) / max(frobenius_norm(apa), 1e-12) < 1e-8
