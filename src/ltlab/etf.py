"""Simplex equiangular tight frames and exactly-collapsed class geometries.

A simplex ETF is the maximally symmetric arrangement of C class vectors:
equal norms, and every pairwise normalized inner product equal to
-1/(C-1). The frames built here have unit-norm columns; any radius is
applied by the caller (see ``make_nc_fixture``).

``make_nc_fixture`` constructs a feature/classifier snapshot that sits
exactly at the collapsed end-state: all features at their class means,
class means on a simplex ETF around the global mean, and classifier rows
aligned with the centered means. At that configuration every class has
the same average cross-entropy loss, which the fixture tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import pinv

__all__ = ["SimplexEtf", "NcFixture", "make_etf", "etf_gram", "make_nc_fixture", "fixture_class_losses"]


@dataclass(frozen=True)
class SimplexEtf:
    """C unit-norm class vectors in R^p with pairwise cosines -1/(C-1)."""

    class_count: int
    feature_dim: int
    columns: np.ndarray  # (p, C), one class vector per column
    rotation_seed: int


@dataclass(frozen=True)
class NcFixture:
    """A snapshot with zero within-class scatter and self-dual classifier.

    ``features[c]`` holds n identical copies of the class-c mean
    ``global_mean + radius * etf.columns[:, c]``. The classifier row c is
    ``alignment_scale * radius * etf.columns[:, c]`` with zero bias.

    The requested global mean is projected onto the orthogonal complement
    of the frame's column span before use; only that component keeps the
    per-class logit pattern (and hence the per-class losses) exactly
    symmetric under a zero-bias linear head.
    """

    etf: SimplexEtf
    classifier: np.ndarray  # (C, p)
    features: tuple[np.ndarray, ...]  # per class, (n_per_class, p)
    alignment_scale: float
    radius: float
    global_mean: np.ndarray  # (p,), the projected offset actually used


def make_etf(class_count: int, feature_dim: int, seed: int = 0) -> SimplexEtf:
    """Build a simplex ETF with a seeded random orthonormal rotation.

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
    cols = np.sqrt(c / (c - 1.0)) * (q @ centering)
    return SimplexEtf(class_count=c, feature_dim=p, columns=cols, rotation_seed=seed)


def etf_gram(etf: SimplexEtf) -> np.ndarray:
    """C x C matrix of pairwise inner products of the frame columns."""
    return etf.columns.T @ etf.columns


def make_nc_fixture(
    class_count: int,
    feature_dim: int,
    n_per_class: int,
    scale: float,
    radius: float,
    global_mean=None,
    seed: int = 0,
) -> NcFixture:
    """Place features and classifier exactly at the collapsed geometry.

    ``scale`` is the classifier/mean alignment factor (rows of the
    classifier are scale * centered class means), ``radius`` the common
    norm of the centered class means.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if scale <= 0 or radius <= 0:
        raise ValueError("scale and radius must be positive")
    etf = make_etf(class_count, feature_dim, seed)
    m = etf.columns
    if global_mean is None:
        mu_g = np.zeros(feature_dim)
    else:
        mu_g = np.asarray(global_mean, dtype=np.float64)
        if mu_g.shape != (feature_dim,):
            raise ValueError(f"global_mean must have shape ({feature_dim},)")
        # Keep only the component orthogonal to the class-vector span.
        mu_g = mu_g - m @ (pinv(m) @ mu_g)
    feats = []
    for c in range(class_count):
        mean_c = mu_g + radius * m[:, c]
        feats.append(np.tile(mean_c, (n_per_class, 1)))
    classifier = (scale * radius) * m.T
    return NcFixture(
        etf=etf,
        classifier=classifier,
        features=tuple(feats),
        alignment_scale=scale,
        radius=radius,
        global_mean=mu_g,
    )


def fixture_class_losses(fixture: NcFixture) -> np.ndarray:
    """Average cross-entropy loss per class at the fixture configuration.

    Logits are classifier @ feature with zero bias; the loss is the
    standard softmax cross entropy computed via log-sum-exp.
    """
    w = fixture.classifier
    losses = np.empty(fixture.etf.class_count)
    for c, block in enumerate(fixture.features):
        z = block @ w.T  # (n, C)
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        losses[c] = float(np.mean(lse - z[:, c]))
    return losses
