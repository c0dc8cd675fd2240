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
offsets; its blocks are slices at bounds it caches. A report computes
the class means once (``class_means``) and passes them to each metric. With M
the C x p centred class means, Sigma_B = M^T M / C, so NC1 is
||H_c pinv(M)||_F^2 / n for the features H_c centred on their class
means: one (n, p) @ (p, C) matmul and a sum of squares. NC4 settles
each row that one class-major Gram pass leaves with one candidate mean
and rechecks the rest in the direct form, so it matches the direct
argmin exactly. The centred features and one (n, C) work array (NC4's
scratch, then NC1's projections) can be a caller's buffers, as in the
trainer's epoch end.
``make_report`` assembles the metrics under the names that the trainer's
``EpochRecord`` and ``ltlab nc-eval`` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .linalg import pinv
from .reweighting import loss_imbalance_rho

__all__ = [
    "FeatureBank",
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
    class: class k holds rows ``offsets[k]:offsets[k + 1]``, for k = 0..C-1,
    and ``blocks`` gives those rows as views. The bank keeps the array it
    is given, without a copy.
    """

    features: np.ndarray  # (n, p), class-sorted
    offsets: np.ndarray  # (C + 1,) block boundaries, from 0 to n

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.dtype != np.float64:
            raise ValueError("features must be an (n, p) float64 array")
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(self.features):
            raise ValueError(f"need C + 1 offsets from 0 to {len(self.features)} for C >= 1 classes")
        if (offsets[1:] <= offsets[:-1]).any():
            raise ValueError("each class needs a non-empty feature block")
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_labels(cls, features, labels) -> "FeatureBank":
        """A bank over ``features`` in class order, a stable sort by label
        (the k-th smallest label is class k): float64 ``features`` itself
        when the labels are already in order, else one sorted copy."""
        x, y = np.asarray(features), np.asarray(labels)
        if y.shape != x.shape[:1]:
            raise ValueError(f"{y.size} labels for {x.shape[0]} feature rows")
        if (y[1:] < y[:-1]).any():
            order = np.argsort(y, kind="stable")
            x, y = x[order], y[order]
        _, starts = np.unique(y, return_index=True)
        return cls(features=x.astype(np.float64, copy=False), offsets=np.append(starts, len(y)))

    @property
    def class_count(self) -> int:
        return len(self.offsets) - 1

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


@cache
def etf_gram_target(class_count: int) -> np.ndarray:
    """(I - ones/C) / sqrt(C - 1), the normalized simplex-ETF Gram: one
    read-only array per class count, built on its first call."""
    c = class_count
    if c < 2:
        raise ValueError("need at least 2 classes")
    gram = (np.eye(c) - np.full((c, c), 1.0 / c)) / np.sqrt(c - 1.0)
    gram.flags.writeable = False
    return gram


def class_means(bank: FeatureBank) -> tuple[np.ndarray, np.ndarray]:
    """The (C, p) class means and their unweighted average, the global mean:
    block sums over the counts, the same sums and division as ``block.mean(axis=0)``."""
    means = np.empty((bank.class_count, bank.feature_dim))
    for block, row in zip(bank.blocks, means):
        block.sum(axis=0, out=row)
    means /= np.diff(bank.offsets)[:, None]
    return means, means.mean(axis=0)


def nc1(bank: FeatureBank, means: np.ndarray, global_mean: np.ndarray,
        centred: np.ndarray | None = None, work: np.ndarray | None = None) -> float:
    """trace(Sigma_W @ pinv(Sigma_B)) / C as ||H_c Q||_F^2 / n. Q = pinv(M)
    drops singular values below sqrt(p eps) times the largest, the rank rule
    of pinv(Sigma_B), whose singular values are their squares over C. H_c
    goes to ``centred`` (n, p) and H_c Q to ``work`` (n, C), float64 arrays,
    fresh when not given. ``means`` and ``global_mean`` are ``class_means(bank)``;
    ``centred`` may be ``bank.features``, which is then overwritten.
    """
    q = pinv(means - global_mean, rank_tol=math.sqrt(bank.feature_dim * np.finfo(np.float64).eps))
    x = bank.features
    h = np.empty_like(x) if centred is None else centred
    if h.shape != x.shape or h.dtype != np.float64:
        raise ValueError(f"centred must be a {x.shape} float64 array")
    for rows, mu in zip(bank._bounds, means):
        np.subtract(x[rows], mu, out=h[rows])
    proj = np.matmul(h, q, out=work)
    # einsum's own loop, not a BLAS dot, whose threads change the order of the sum.
    value = float(np.einsum("ij,ij->", proj, proj)) / len(h)
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


def nc3(classifier, means: np.ndarray, global_mean: np.ndarray) -> float:
    """Distance of the normalized W M from the simplex-ETF Gram, where M
    stacks the centered class means (``class_means``) column-wise."""
    w = np.asarray(classifier, dtype=np.float64)
    m_dot = (means - global_mean).T  # (p, C)
    if w.shape[1] != m_dot.shape[0]:
        raise ValueError(f"classifier dim {w.shape[1]} != feature dim {m_dot.shape[0]}")
    return _normalized_gram_distance(w @ m_dot, len(means), "W M")


def nc4_agreement(predictions, bank: FeatureBank, means: np.ndarray,
                  work: np.ndarray | None = None) -> float:
    """Fraction of the bank's rows whose predicted class is the one with
    the nearest class mean, of the (C, p) ``means`` (``class_means(bank)[0]``).

    ``predictions`` are the argmax of the logits of the bank's rows, in
    bank order (``(bank.features @ W.T + b).argmax(axis=1)``); class k is
    the bank's k-th block, and ties go to the lowest class on both sides.
    ``work``, an optional (n, C) float64 array, is scratch: it takes the
    Gram-form distances g_ki = ||mu_k||^2 - 2 x_i.mu_k, the squared
    distances less ||x_i||^2, class-major as a (C, n) matrix.

    The result equals the direct argmin of D_ik = sum_j (x_ij - mu_kj)^2
    on every input. Write S_i = ||x_i||^2 + max_k ||mu_k||^2, u = eps/2
    and gamma_n = n u / (1 - n u); folding the -2 into the means is exact.
    In any summation order, blocked BLAS and FMA included, each term of
    g_ki passes at most p + 1 roundings and their magnitudes sum to at
    most 2 S_i; each term of D_ik passes at most p + 2 and D_ik <= 2 S_i.
    So both forms are within 2 gamma_{p+2} S_i of their exact values, and
    as D_ik - g_ki = ||x_i||^2 for every k, a class that attains the
    direct minimum is within 8 gamma_{p+2} S_i of the Gram-form minimum.
    The candidates are every class within

        tol_i = 8 gamma_{p+3} S_i + 8 p * 2^-1074

    of it: the step to p + 3 covers the rounding of tol_i and of
    min + tol_i (|min| <= 2 S_i), and the last term covers products that
    underflow. A row with one candidate has found its nearest mean, so it
    agrees iff that candidate is its prediction; any other takes the direct
    argmin over its candidates in ascending class order. With
    S_i <= max_float / 4 no partial sum of g_i can overflow; a row above
    that (or with a NaN, which has no candidate) checks every class.
    """
    pred, x = np.asarray(predictions), bank.features
    (n, p), c = x.shape, len(means)
    if pred.shape != (n,) or pred.min() < 0 or pred.max() >= c:
        raise ValueError(f"need {n} predictions in 0..{c - 1}")
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rechecked in full
        s = np.einsum("ij,ij->i", x, x)
        mu_sq = np.einsum("ij,ij->i", means, means)
        s += mu_sq.max()
        g = np.matmul(-2.0 * means, x.T, out=None if work is None else work.reshape(c, n))
        g += mu_sq[:, None]
        u = np.finfo(np.float64).eps / 2
        tol = 8 * (p + 3) * u / (1 - (p + 3) * u) * s + 8 * p * np.finfo(np.float64).smallest_subnormal
        candidate = g <= g.min(axis=0) + tol
    safe = s <= np.finfo(np.float64).max / 4  # False for a NaN, an infinity or a possible overflow
    agree = candidate[pred, np.arange(n)]
    for i in np.flatnonzero((np.count_nonzero(candidate, axis=0) != 1) | ~safe):
        # Ascending classes, so argmin keeps the lowest.
        k = np.flatnonzero(candidate[:, i]) if safe[i] else np.arange(c)
        agree[i] = k[np.argmin(((x[i] - means[k]) ** 2).sum(axis=1))] == pred[i]
    return int(agree.sum()) / n


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite value raises ValueError
def make_report(classifier, predictions, bank: FeatureBank, per_class_losses=None, *,
                work: np.ndarray | None = None, centred: np.ndarray | None = None) -> dict[str, float]:
    """All metrics of one snapshot: nc1, nc2, nc3, nc4 and, when per-class
    losses are given, rho, in that order. ``predictions`` are as in
    ``nc4_agreement``, and the optional buffers as in ``nc1`` (``work`` is
    NC4's scratch first). Raises ValueError unless every value is finite."""
    means, global_mean = class_means(bank)
    nc4 = nc4_agreement(predictions, bank, means, work)  # first: NC1 may centre the rows in place
    report = {"nc1": nc1(bank, means, global_mean, centred, work), "nc2": nc2(classifier),
              "nc3": nc3(classifier, means, global_mean), "nc4": nc4}
    if per_class_losses is not None:
        report["rho"] = loss_imbalance_rho(per_class_losses)
    if not all(map(math.isfinite, report.values())):
        raise ValueError("metric values must be finite")
    return report
