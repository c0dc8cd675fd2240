"""SVD pseudo-inverse for the collapse metrics and the ETF fixtures."""

from __future__ import annotations

import numpy as np

__all__ = ["pinv"]


def pinv(a, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a finite 2-D matrix via SVD.

    Singular values sigma with sigma <= rank_tol * sigma_max are treated
    as zero. ``rank_tol`` defaults to max(rows, cols) * eps. Raises
    ValueError if the input is not two-dimensional or contains NaN/Inf.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if rank_tol is None:
        rank_tol = max(a.shape) * float(np.finfo(np.float64).eps)
    elif rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.zeros_like(s)
    if s.size and s[0] > 0:
        keep = s > rank_tol * s[0]
        inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T
