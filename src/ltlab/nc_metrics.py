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
  argmax of their logits) matches the nearest-class-mean prediction;
* rho: the class-wise loss imbalance coefficient of supplied per-class
  average losses.

A ``FeatureBank`` holds one class-sorted (n, p) array and the class
offsets; its blocks are slices at bounds it caches, and its class means
(block sums over the counts), computed once, serve every metric. With M
the C x p centred class means, Sigma_B = M^T M / C, so NC1 is
||H_c pinv(M)||_F^2 / n for the features H_c centred on their class
means: one (n, p) @ (p, C) matmul and a dot product. NC4 finds each
row's nearest class mean from Gram-form distances and rechecks near ties
in the direct form, so it matches the direct argmin exactly. The centred
features and one (n, C) work array (NC4's distances, then NC1's
projections) can be a caller's buffers, as in the trainer's epoch end.
"""

from __future__ import annotations

import math
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

    @cached_property
    def _bounds(self) -> tuple[slice, ...]:
        """The slice of each class's rows, in class order."""
        edges = self.offsets.tolist()
        return tuple(map(slice, edges[:-1], edges[1:]))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The per-class (n_c, p) blocks, as views of ``features``."""
        return tuple(self.features[rows] for rows in self._bounds)

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


def nc1(bank: FeatureBank, centred: np.ndarray | None = None,
        work: np.ndarray | None = None) -> float:
    """trace(Sigma_W @ pinv(Sigma_B)) / C as ||H_c Q||_F^2 / n. Q = pinv(M)
    drops singular values below sqrt(p eps) times the largest, the rank rule
    of pinv(Sigma_B), whose singular values are their squares over C. H_c
    goes to ``centred`` (n, p) and H_c Q to ``work`` (n, C), float64 arrays,
    fresh when not given. ``centred`` may be ``bank.features``, which is
    then overwritten (after the class means are cached).
    """
    means, global_mean = class_means(bank)
    q = pinv(means - global_mean, rank_tol=math.sqrt(bank.feature_dim * np.finfo(np.float64).eps))
    x = bank.features
    h = np.empty_like(x) if centred is None else centred
    if h.shape != x.shape or h.dtype != np.float64:
        raise ValueError(f"centred must be a {x.shape} float64 array")
    for rows, mu in zip(bank._bounds, means):
        np.subtract(x[rows], mu, out=h[rows])
    proj = np.matmul(h, q, out=work).reshape(-1)
    value = float(np.dot(proj, proj)) / len(h)
    if not math.isfinite(value):
        raise ValueError("||H_c pinv(M)||^2 is non-finite; metric undefined")
    return value


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
    """Row-wise first argmin of sum((x_i - mu_k)^2) over k, with the Gram-form
    distances in ``out`` if given; ``nc4_agreement`` proves the recheck."""
    p, rows = x.shape[1], np.arange(len(x))
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rechecked in full
        s = np.einsum("ij,ij->i", x, x)
        mu_sq = np.einsum("ij,ij->i", means, means)
        s += mu_sq.max()
        g = np.matmul(x, -2.0 * means.T, out=out)
        g += mu_sq
        u = np.finfo(np.float64).eps / 2
        tol = 8 * (p + 3) * u / (1 - (p + 3) * u) * s + 8 * p * np.finfo(np.float64).smallest_subnormal
        nearest = np.argmin(g, axis=1)
        best = g[rows, nearest]
        threshold = best + tol
        g[rows, nearest] = np.inf
        tied = g.min(axis=1) <= threshold  # the runner-up is a candidate too
        g[rows, nearest] = best
    safe = s <= np.finfo(np.float64).max / 4  # False for a NaN, an infinity or a possible overflow
    for i in np.flatnonzero(tied | ~safe):
        # Ascending class ids, so argmin keeps the lowest.
        k = np.flatnonzero(g[i] <= threshold[i]) if safe[i] else np.arange(len(means))
        nearest[i] = k[np.argmin(((x[i] - means[k]) ** 2).sum(axis=1))]
    return nearest


def nc4_agreement(predictions, bank: FeatureBank, work: np.ndarray | None = None) -> float:
    """Fraction of the bank's rows whose predicted class is the one with
    the nearest class mean.

    ``predictions`` are the argmax of the logits of the bank's rows, in
    bank order (``(bank.features @ W.T + b).argmax(axis=1)``); class k is
    the bank's k-th class (ascending id), whatever the ids are, and ties
    go to the lowest class on both sides. ``work``, an optional (n, C)
    float64 array, is left holding the Gram-form distances
    g_ik = ||mu_k||^2 - 2 x_i.mu_k, the squared distances less ||x_i||^2.

    The result equals the direct argmin of D_ik = sum_j (x_ij - mu_kj)^2
    on every input. Write S_i = ||x_i||^2 + max_k ||mu_k||^2, u = eps/2
    and gamma_n = n u / (1 - n u); folding the -2 into the means is exact.
    In any summation order, blocked BLAS and FMA included, each term of
    g_ik passes at most p + 1 roundings and their magnitudes sum to at
    most 2 S_i; each term of D_ik passes at most p + 2 and D_ik <= 2 S_i.
    So both forms are within 2 gamma_{p+2} S_i of their exact values, and
    as D_ik - g_ik = ||x_i||^2 for every k, a class that attains the
    direct minimum is within 8 gamma_{p+2} S_i of the Gram-form minimum.
    The candidates are every class within

        tol_i = 8 gamma_{p+3} S_i + 8 p * 2^-1074

    of it: the step to p + 3 covers the rounding of tol_i and of
    min + tol_i (|min| <= 2 S_i), and the last term covers products that
    underflow. A row whose runner-up lies beyond min + tol_i has found its
    nearest mean; any other takes the direct argmin over its candidates in
    ascending class id. With S_i <= max_float / 4 no partial sum of g_i
    can overflow; a row above that (or with a NaN) checks every class.
    """
    pred, (means, _) = np.asarray(predictions), class_means(bank)
    if pred.shape != (len(bank.features),) or pred.min() < 0 or pred.max() >= len(means):
        raise ValueError(f"need {len(bank.features)} predictions in 0..{len(means) - 1}")
    return int((pred == _nearest_means(bank.features, means, work)).sum()) / len(pred)


def make_report(classifier, predictions, bank: FeatureBank, per_class_losses, epoch: int, *,
                work: np.ndarray | None = None, centred: np.ndarray | None = None) -> NcReport:
    """Assemble all metrics for one snapshot; ``predictions`` are as in
    ``nc4_agreement``, and the optional buffers as in ``nc1`` (``work`` first
    holds NC4's distances). NC4 reads the rows and caches the class means
    before NC1 may centre them in place."""
    nc4 = nc4_agreement(predictions, bank, work)  # first: NC1 may centre the rows in place
    return NcReport(
        epoch=epoch,
        nc1=nc1(bank, centred, work),
        nc2=nc2(classifier),
        nc3=nc3(classifier, bank),
        nc4_agreement=nc4,
        rho=loss_imbalance_rho(per_class_losses),
    )
