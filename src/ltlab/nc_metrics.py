"""Neural-collapse geometry metrics for a feature/classifier snapshot.

Given last-layer features grouped by class and the classifier matrix,
compute:

* NC1: within-class scatter relative to between-class scatter,
  trace(Sigma_W @ pinv(Sigma_B)) / C;
* NC2: Frobenius distance between the normalized classifier Gram W W^T
  and the normalized simplex-ETF Gram;
* NC3: the same distance for W M, where M stacks the centered class
  means (classifier/mean self-duality);
* NC4 agreement: fraction of samples whose classifier prediction matches
  the nearest-class-mean prediction;
* rho: the class-wise loss imbalance coefficient of supplied per-class
  average losses.

The class means are computed once per bank and shared by every metric.
NC4 finds the nearest class mean from Gram-form distances and rechecks
near ties in the direct form, so it matches the direct argmin exactly
(the error bound is in ``nc4_agreement``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import frobenius_norm, pinv, trace
from .reweighting import loss_imbalance_rho

__all__ = [
    "FeatureBank",
    "NcReport",
    "etf_gram_target",
    "class_means",
    "covariances",
    "nc1",
    "nc2",
    "nc3",
    "nc4_agreement",
    "make_report",
]


@dataclass(frozen=True)
class FeatureBank:
    """Per-class collections of p-dimensional feature vectors.

    The blocks are treated as immutable: the class means are computed on
    first use and cached on the instance.
    """

    class_ids: tuple[int, ...]
    features: tuple[np.ndarray, ...]  # one (n_c, p) block per class id

    def __post_init__(self):
        if len(self.class_ids) != len(self.features) or not self.class_ids:
            raise ValueError("need one non-empty feature block per class id")
        if any(b >= a for a, b in zip(self.class_ids[1:], self.class_ids)):
            raise ValueError("class ids must be strictly increasing")
        dims = set()
        for block in self.features:
            if block.ndim != 2 or block.shape[0] == 0:
                raise ValueError("each class needs a non-empty (n, p) feature block")
            dims.add(block.shape[1])
        if len(dims) != 1:
            raise ValueError(f"inconsistent feature dimensions: {sorted(dims)}")

    @classmethod
    def from_labels(cls, features, labels) -> "FeatureBank":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        if y.shape != x.shape[:1]:
            raise ValueError(f"{y.size} labels for {x.shape[0]} feature rows")
        order = np.argsort(y, kind="stable")  # rows of each class keep their order
        ids, starts = np.unique(y[order], return_index=True)
        return cls(class_ids=tuple(int(c) for c in ids), features=tuple(np.split(x[order], starts[1:])))

    @property
    def class_count(self) -> int:
        return len(self.class_ids)

    @property
    def feature_dim(self) -> int:
        return self.features[0].shape[1]

    @cached_property
    def _means(self) -> tuple[np.ndarray, np.ndarray]:
        means = np.stack([block.mean(axis=0) for block in self.features])
        global_mean = means.mean(axis=0)
        means.flags.writeable = global_mean.flags.writeable = False
        return means, global_mean


@dataclass(frozen=True)
class NcReport:
    """One epoch's collapse metrics."""

    epoch: int
    nc1: float
    nc2: float
    nc3: float
    nc4_agreement: float
    rho: float

    def __post_init__(self):
        vals = (self.nc1, self.nc2, self.nc3, self.nc4_agreement, self.rho)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("metric values must be finite")


def etf_gram_target(class_count: int) -> np.ndarray:
    """(I - ones/C) / sqrt(C - 1), the normalized simplex-ETF Gram."""
    c = class_count
    if c < 2:
        raise ValueError("need at least 2 classes")
    return (np.eye(c) - np.full((c, c), 1.0 / c)) / np.sqrt(c - 1.0)


def class_means(bank: FeatureBank):
    """Per-class feature means and their unweighted average (global mean).

    Computed once per bank; the returned arrays are the read-only cache."""
    return bank._means


def covariances(bank: FeatureBank):
    """Within-class scatter Sigma_W (averaged over all samples) and
    between-class scatter Sigma_B of the centered class means."""
    means, global_mean = class_means(bank)
    p = bank.feature_dim
    sigma_w = np.zeros((p, p))
    total = 0
    for block, mu in zip(bank.features, means):
        centered = block - mu
        sigma_w += centered.T @ centered
        total += block.shape[0]
    sigma_w /= total
    centered_means = means - global_mean
    sigma_b = centered_means.T @ centered_means / bank.class_count
    return sigma_w, sigma_b


def nc1(bank: FeatureBank, rank_tol: float | None = None) -> float:
    """trace(Sigma_W @ pinv(Sigma_B)) / C."""
    sigma_w, sigma_b = covariances(bank)
    return trace(sigma_w @ pinv(sigma_b, rank_tol)) / bank.class_count


def _normalized_gram_distance(gram: np.ndarray, class_count: int, what: str) -> float:
    norm = frobenius_norm(gram)
    if norm == 0.0:
        raise ValueError(f"{what} is the zero matrix; metric undefined")
    return frobenius_norm(gram / norm - etf_gram_target(class_count))


def nc2(classifier) -> float:
    """Distance of the normalized W W^T from the simplex-ETF Gram."""
    w = np.asarray(classifier, dtype=np.float64)
    return _normalized_gram_distance(w @ w.T, w.shape[0], "W W^T")


def nc3(classifier, bank: FeatureBank) -> float:
    """Distance of the normalized W M from the simplex-ETF Gram, where M
    stacks the centered class means column-wise."""
    w = np.asarray(classifier, dtype=np.float64)
    means, global_mean = class_means(bank)
    m_dot = (means - global_mean).T  # (p, C)
    if w.shape[1] != m_dot.shape[0]:
        raise ValueError(f"classifier dim {w.shape[1]} != feature dim {m_dot.shape[0]}")
    return _normalized_gram_distance(w @ m_dot, bank.class_count, "W M")


def _nearest_means(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Row-wise first argmin of sum((x_i - mu_k)^2) over k, without the
    (n, C, p) difference tensor; see ``nc4_agreement`` for the recheck."""
    p = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are rechecked
        x_sq = np.einsum("ij,ij->i", x, x)
        mu_sq = np.einsum("ij,ij->i", means, means)
        d2 = x @ means.T
        d2 *= -2.0
        d2 += x_sq[:, None]
        d2 += mu_sq
        u = np.finfo(np.float64).eps / 2
        gamma = (p + 3) * u / (1 - (p + 3) * u)
        tol = 8 * gamma * (x_sq + mu_sq.max()) + 8 * p * np.finfo(np.float64).smallest_subnormal
        nearest = np.argmin(d2, axis=1)
        candidates = d2 <= (d2[np.arange(len(d2)), nearest] + tol)[:, None]
    candidates[~np.isfinite(d2).all(axis=1)] = True
    for i in np.flatnonzero(candidates.sum(axis=1) > 1):
        k = np.flatnonzero(candidates[i])  # ascending, so argmin keeps the lowest id
        nearest[i] = k[np.argmin(((x[i] - means[k]) ** 2).sum(axis=1))]
    return nearest


def nc4_agreement(classifier, bias, bank: FeatureBank) -> float:
    """Fraction of samples where the classifier argmax equals the
    nearest-class-mean argmin. Classifier row k belongs to the bank's k-th
    class (ascending id), so both sides are compared as class positions,
    whatever the ids are. Ties resolve to the lowest class on both sides.

    The nearest mean equals the argmin of the direct squared distances
    sum_j (x_j - mu_kj)^2 on every input. Write S_i = ||x_i||^2 +
    max_k ||mu_k||^2, u = eps/2 and gamma_n = n u / (1 - n u). In any
    summation order, blocked BLAS and FMA included, every term of the
    direct form passes at most p + 1 roundings and every term of the Gram
    form ||x||^2 - 2 x.mu + ||mu||^2 at most p + 2, so each form is within
    2 gamma_{p+2} S_i of the exact distance. Any class that attains the
    direct minimum is therefore within 8 gamma_{p+2} S_i of the Gram-form
    minimum. The candidates are every class within

        tol_i = 8 gamma_{p+3} S_i + 8 p * 2^-1074

    of that minimum: the step from p + 2 to p + 3 covers the rounding of
    tol_i and of min + tol_i, and the last term covers products that
    underflow. A row with one candidate has found its nearest mean. A row
    with more, or with a non-finite Gram distance, takes the argmin of the
    direct form over its candidates in ascending class id.
    """
    w = np.asarray(classifier, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    means, _ = class_means(bank)
    if w.shape[0] != len(means):
        raise ValueError(f"classifier has {w.shape[0]} rows but the bank {len(means)} classes")
    x = np.concatenate(bank.features)
    nearest = _nearest_means(x, means)
    logits = x @ w.T
    logits += b
    pred = np.argmax(logits, axis=1)  # first max = lowest class id
    return int((pred == nearest).sum()) / x.shape[0]


def make_report(classifier, bias, bank: FeatureBank, per_class_losses, epoch: int) -> NcReport:
    """Assemble all metrics for one snapshot."""
    return NcReport(
        epoch=epoch,
        nc1=nc1(bank),
        nc2=nc2(classifier),
        nc3=nc3(classifier, bank),
        nc4_agreement=nc4_agreement(classifier, bias, bank),
        rho=loss_imbalance_rho(per_class_losses),
    )
