"""Neural-collapse geometry metrics for a feature/classifier snapshot.

Given last-layer features grouped by class and the classifier matrix,
compute:

* NC1: within-class scatter relative to between-class scatter,
  trace(Sigma_W @ pinv(Sigma_B)) / C;
* NC2: Frobenius distance between the normalized classifier Gram W W^T
  and the normalized simplex-ETF Gram;
* NC3: the same distance for W M, where M stacks the centered class
  means (classifier/mean self-duality);
* NC4 agreement: fraction of samples whose classifier prediction (the
  argmax of the supplied logits) matches the nearest-class-mean
  prediction;
* rho: the class-wise loss imbalance coefficient of supplied per-class
  average losses.

A ``FeatureBank`` holds one class-sorted (n, p) array and the class
offsets; its per-class blocks are views. The class means (block sums over
the counts) are computed once per bank and shared by every metric.
Sigma_W is one matmul of the centred features. NC4 takes the logits of
the bank's rows, finds the nearest class mean from Gram-form distances
and rechecks near ties in the direct form, so it matches the direct
argmin exactly (the error bound is in ``nc4_agreement``). The centred
features and the distances can go to a caller's buffers, which is how
the trainer's epoch end avoids per-epoch (n, p) and (n, C) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import pinv
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


@dataclass(frozen=True, eq=False)
class FeatureBank:
    """p-dimensional feature vectors grouped by class.

    ``features`` is one (n, p) float64 array whose rows are sorted by
    class: class ``class_ids[k]`` holds rows ``offsets[k]:offsets[k + 1]``,
    and ``blocks`` gives those rows as views. The bank keeps the array it
    is given, without a copy. The class means are computed on first use
    and cached on the instance, so the rows must not change while the bank
    is in use.
    """

    class_ids: tuple[int, ...]
    features: np.ndarray  # (n, p), class-sorted
    offsets: np.ndarray  # (C + 1,) block boundaries, from 0 to n

    def __post_init__(self):
        if not self.class_ids:
            raise ValueError("need at least one class")
        if any(b >= a for a, b in zip(self.class_ids[1:], self.class_ids)):
            raise ValueError("class ids must be strictly increasing")
        if self.features.ndim != 2 or self.features.dtype != np.float64:
            raise ValueError("features must be an (n, p) float64 array")
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if offsets.shape != (len(self.class_ids) + 1,) or offsets[0] != 0 \
                or offsets[-1] != len(self.features):
            raise ValueError(f"need {len(self.class_ids) + 1} offsets from 0 to "
                             f"{len(self.features)} for {len(self.class_ids)} classes")
        if (offsets[1:] <= offsets[:-1]).any():
            raise ValueError("each class needs a non-empty feature block")
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_labels(cls, features, labels) -> "FeatureBank":
        """A bank over one class-sorted copy of ``features``; rows of each
        class keep their order (a stable sort by label)."""
        x = np.asarray(features)
        y = np.asarray(labels)
        if y.shape != x.shape[:1]:
            raise ValueError(f"{y.size} labels for {x.shape[0]} feature rows")
        order = np.argsort(y, kind="stable")
        ids, starts = np.unique(y[order], return_index=True)
        return cls(class_ids=tuple(int(c) for c in ids),
                   features=x[order].astype(np.float64, copy=False),
                   offsets=np.append(starts, len(y)))

    @property
    def class_count(self) -> int:
        return len(self.class_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The per-class (n_c, p) blocks, as views of ``features``."""
        return tuple(np.split(self.features, self.offsets[1:-1]))

    @cached_property
    def _means(self) -> tuple[np.ndarray, np.ndarray]:
        # Block sums over the counts: the same sums and division as block.mean(axis=0).
        means = np.empty((self.class_count, self.feature_dim))
        for block, row in zip(self.blocks, means):
            block.sum(axis=0, out=row)
        means /= np.diff(self.offsets)[:, None]
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


def covariances(bank: FeatureBank, out: np.ndarray | None = None):
    """Within-class scatter Sigma_W (averaged over all samples) and
    between-class scatter Sigma_B of the centered class means.

    Sigma_W is one matmul of the features centred on their class means.
    The centred rows go to a fresh array, or to ``out``, an (n, p) float64
    array. ``out`` may be ``bank.features`` itself, which is then
    overwritten (after the class means are cached), so pass it only when
    nothing reads the rows afterwards.
    """
    means, global_mean = class_means(bank)
    centred = np.empty_like(bank.features) if out is None else out
    if centred.shape != bank.features.shape or centred.dtype != np.float64:
        raise ValueError(f"out must be a {bank.features.shape} float64 array")
    for block, mu, rows in zip(bank.blocks, means, np.split(centred, bank.offsets[1:-1])):
        np.subtract(block, mu, out=rows)
    sigma_w = centred.T @ centred
    sigma_w /= len(centred)
    centered_means = means - global_mean
    sigma_b = centered_means.T @ centered_means / bank.class_count
    return sigma_w, sigma_b


def nc1(bank: FeatureBank, rank_tol: float | None = None, out: np.ndarray | None = None) -> float:
    """trace(Sigma_W @ pinv(Sigma_B)) / C; ``out`` is as in ``covariances``."""
    sigma_w, sigma_b = covariances(bank, out)
    scatter = sigma_w @ pinv(sigma_b, rank_tol)
    if not np.isfinite(scatter).all():
        raise ValueError("Sigma_W pinv(Sigma_B) has non-finite entries; metric undefined")
    return float(np.trace(scatter)) / bank.class_count


def _normalized_gram_distance(gram: np.ndarray, class_count: int, what: str) -> float:
    if not np.isfinite(gram).all():
        raise ValueError(f"{what} has non-finite entries; metric undefined")
    norm = float(np.linalg.norm(gram))
    if norm == 0.0:
        raise ValueError(f"{what} is the zero matrix; metric undefined")
    return float(np.linalg.norm(gram / norm - etf_gram_target(class_count)))


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


def _nearest_means(x: np.ndarray, means: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise first argmin of sum((x_i - mu_k)^2) over k, without the
    (n, C, p) difference tensor. The Gram-form distances go to ``out`` when
    it is given, and then become the candidate mask in place, so no other
    (n, C) array is made. See ``nc4_agreement`` for the recheck."""
    p = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are rechecked
        x_sq = np.einsum("ij,ij->i", x, x)
        mu_sq = np.einsum("ij,ij->i", means, means)
        d2 = np.matmul(x, means.T, out=out)
        d2 *= -2.0
        d2 += x_sq[:, None]
        d2 += mu_sq
        u = np.finfo(np.float64).eps / 2
        gamma = (p + 3) * u / (1 - (p + 3) * u)
        tol = 8 * gamma * (x_sq + mu_sq.max()) + 8 * p * np.finfo(np.float64).smallest_subnormal
        nearest = np.argmin(d2, axis=1)
        finite = np.isfinite(d2.sum(axis=1))  # False for a NaN or an infinity (or an overflow)
        threshold = d2[np.arange(len(d2)), nearest] + tol
        np.less_equal(d2, threshold[:, None], out=d2)  # 1.0 marks a candidate
    for i in np.flatnonzero((d2.sum(axis=1) > 1) | ~finite):
        # Ascending class ids, so argmin keeps the lowest; a non-finite row checks every class.
        k = np.flatnonzero(d2[i]) if finite[i] else np.arange(len(means))
        nearest[i] = k[np.argmin(((x[i] - means[k]) ** 2).sum(axis=1))]
    return nearest


def nc4_agreement(logits, bank: FeatureBank, out: np.ndarray | None = None) -> float:
    """Fraction of the bank's rows where the logits' argmax equals the
    nearest-class-mean argmin.

    ``logits`` is the (n, C) classifier output for the bank's rows, in
    bank order (``bank.features @ W.T + b``); column k belongs to the
    bank's k-th class (ascending id), so both sides are compared as class
    positions, whatever the ids are. Ties resolve to the lowest class on
    both sides. ``out``, an optional (n, C) float64 array, takes the
    Gram-form squared distances and is left holding the candidate mask.

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
    with more takes the argmin of the direct form over its candidates in
    ascending class id; a row with a non-finite Gram distance (or whose
    distances sum past the float range) takes it over every class.
    """
    z = np.asarray(logits)
    means, _ = class_means(bank)
    if z.shape != (len(bank.features), len(means)):
        shape = "x".join(str(n) for n in z.shape)
        raise ValueError(f"logits are {shape} but the bank has {len(bank.features)} rows "
                         f"in {len(means)} classes")
    nearest = _nearest_means(bank.features, means, out)
    pred = np.argmax(z, axis=1)  # first max = lowest class position
    return int((pred == nearest).sum()) / len(z)


def make_report(classifier, logits, bank: FeatureBank, per_class_losses, epoch: int, *,
                distances: np.ndarray | None = None, centred: np.ndarray | None = None) -> NcReport:
    """Assemble all metrics for one snapshot.

    ``logits`` are the classifier's logits of the bank's rows, in bank
    order. ``distances`` (n, C) and ``centred`` (n, p) are optional work
    buffers for NC4's squared distances and NC1's centred features.
    ``centred`` may be ``bank.features``: NC4 reads the rows and caches
    the class means before NC1 centres them.
    """
    nc4 = nc4_agreement(logits, bank, distances)  # first: NC1 may centre the rows in place
    return NcReport(
        epoch=epoch,
        nc1=nc1(bank, out=centred),
        nc2=nc2(classifier),
        nc3=nc3(classifier, bank),
        nc4_agreement=nc4,
        rho=loss_imbalance_rho(per_class_losses),
    )
