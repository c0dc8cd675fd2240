import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.linalg import pinv

from oracles import assert_close, case, rejected


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


def rank_one_error():
    """The largest entry of |pinv(u v^T) - v u^T / (|u|^2 |v|^2)|."""
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal(6), rng.standard_normal(4)
    return np.abs(pinv(np.outer(u, v)) - np.outer(v, u) / (u @ u) / (v @ v)).max()


PINV_CASES = [
    case("zero-matrix", lambda: pinv(np.zeros((3, 5))), lambda: np.zeros((5, 3))),
    case("rank-one", lambda: rank_one_error() < 1e-12, lambda: True),
    # Singular values at or below rank_tol times the largest count as zero.
    case("rank-tol-cuts-a-small-singular-value", lambda: pinv(np.diag([1.0, 1e-9]), rank_tol=1e-6)[1, 1], lambda: 0.0),
    case("rank-tol-keeps-a-larger-one", lambda: pinv(np.diag([1.0, 1e-9]), rank_tol=1e-12)[1, 1], lambda: 1e9,
         rel=1e-12),
    case("accepts-lists", lambda: pinv([[2, 0], [0, 4]]), lambda: [[0.5, 0.0], [0.0, 0.25]]),
]


@pytest.mark.parametrize("got, want, rel", PINV_CASES)
def test_pinv(got, want, rel):
    assert_close(got(), want(), rel)


REJECTED_PINV_ARGS = [
    rejected("one-dimensional", lambda: pinv([1.0, 2.0, 3.0]), ValueError, "2-D"),
    rejected("nan-entry", lambda: pinv([[1.0, np.nan]]), ValueError, "finite"),
    rejected("inf-entry", lambda: pinv([[np.inf, 0.0]]), ValueError, "finite"),
    rejected("negative-rank-tol", lambda: pinv(np.eye(2), rank_tol=-1.0), ValueError, "rank_tol must be nonnegative"),
]


@pytest.mark.parametrize("call, error, match", REJECTED_PINV_ARGS)
def test_rejected_pinv_args(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestPinv:
    def test_inverse_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
            assert np.abs(pinv(a) - gauss_inverse(a)).max() < 1e-10

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
