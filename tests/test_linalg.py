import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.linalg import pinv


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

    def test_validates_shape(self):
        with pytest.raises(ValueError, match="2-D"):
            pinv([1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        for bad in ([[1.0, np.nan]], [[np.inf, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                pinv(bad)

    def test_accepts_lists(self):
        assert np.array_equal(pinv([[2, 0], [0, 4]]), [[0.5, 0.0], [0.0, 0.25]])

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
        norm = np.linalg.norm
        assert norm(a @ ap @ a - a) / max(norm(a), 1e-12) < 1e-8
        assert norm(ap @ a @ ap - ap) / max(norm(ap), 1e-12) < 1e-8
        aap = a @ ap
        apa = ap @ a
        assert norm(aap - aap.T) / max(norm(aap), 1e-12) < 1e-8
        assert norm(apa - apa.T) / max(norm(apa), 1e-12) < 1e-8
