"""Simplex equiangular tight frames.

A simplex ETF is the maximally symmetric arrangement of C class vectors:
equal norms, and every pairwise normalized inner product equal to
-1/(C-1). The frames built here have unit-norm columns; any radius is
applied by the caller. The synthetic mixtures place their class centres
on one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_etf"]


def make_etf(class_count: int, feature_dim: int, seed: int = 0) -> np.ndarray:
    """The (p, C) simplex ETF: C unit-norm class vectors in R^p, one per
    column, with pairwise cosines -1/(C-1), under a seeded random
    orthonormal rotation.

    Requires feature_dim >= class_count >= 2. The rotation comes from the
    QR factorization of a seeded Gaussian matrix, with the sign convention
    that the R factor has a nonnegative diagonal, so the result is
    deterministic in (class_count, feature_dim, seed).
    """
    c, p = class_count, feature_dim
    if c < 2:
        raise ValueError(f"need at least 2 classes, got {c}")
    if p < c:
        raise ValueError(f"feature_dim {p} < class_count {c}: no orthonormal rotation exists")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, c)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    centering = np.eye(c) - np.full((c, c), 1.0 / c)
    return np.sqrt(c / (c - 1.0)) * (q @ centering)
