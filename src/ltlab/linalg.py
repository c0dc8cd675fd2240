"""Dense float64 matrix kernel.

Thin, validated wrappers around numpy's LAPACK-backed routines. Every
function works on plain 2-D ``numpy.ndarray`` objects; ``matrix`` is the
validating constructor that enforces the shape and finiteness contract
the geometry and metric code relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["matrix", "frobenius_norm", "trace", "pinv", "default_rank_tol"]


def matrix(data) -> np.ndarray:
    """Return ``data`` as a validated 2-D float64 matrix.

    Raises ValueError if the input is not two-dimensional or contains
    NaN/Inf entries.
    """
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(matrix(a), ord="fro"))


def trace(a) -> float:
    """Sum of the diagonal of a square matrix."""
    a = matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return float(np.trace(a))


def default_rank_tol(a) -> float:
    """Standard SVD rank cutoff: max(rows, cols) times machine epsilon."""
    return max(a.shape) * float(np.finfo(np.float64).eps)


def pinv(a, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values sigma with sigma <= rank_tol * sigma_max are treated
    as zero. ``rank_tol`` defaults to max(rows, cols) * eps.
    """
    a = matrix(a)
    if rank_tol is None:
        rank_tol = default_rank_tol(a)
    elif rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.zeros_like(s)
    if s.size and s[0] > 0:
        keep = s > rank_tol * s[0]
        inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T
