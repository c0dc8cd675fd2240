"""Reference reweighting losses used as comparison arms.

Class-weight schemes (inverse frequency, inverse square root,
class-balanced effective numbers) produce static per-class multipliers;
focal and influence-balanced losses reshape individual sample losses;
range loss is a batch-level feature-geometry regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "BASE_METHODS",
    "ClassCounts",
    "inv_freq_weights",
    "inv_sqrt_weights",
    "cb_weights",
    "focal_loss",
    "ib_loss",
    "ib_class_coefficients",
    "range_loss",
    "range_loss_grad",
]

# The losses a method can train with on their own, and that the inverse
# weights can multiply.
BASE_METHODS = ("ce", "inv_freq", "inv_sqrt", "cb", "focal", "ib", "range")

# Pairwise distances below this are floored before the harmonic mean in
# range_loss, keeping the intra term finite when features coincide.
RANGE_DIST_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassCounts:
    """Per-class sample counts n_c (each >= 1) with their total N."""

    per_class: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        counts = tuple(int(n) for n in self.per_class)
        if not counts:
            raise ValueError("need at least one class")
        if any(n < 1 for n in counts):
            raise ValueError("every class count must be >= 1")
        object.__setattr__(self, "per_class", counts)
        object.__setattr__(self, "total", sum(counts))

    @classmethod
    def from_labels(cls, labels, class_count: int) -> "ClassCounts":
        counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=class_count)
        return cls(per_class=tuple(int(n) for n in counts))

    def __len__(self) -> int:
        return len(self.per_class)


def _counts_array(counts: ClassCounts) -> np.ndarray:
    return np.asarray(counts.per_class, dtype=np.float64)


def inv_freq_weights(counts: ClassCounts) -> np.ndarray:
    """w_c = 1 / n_c."""
    return 1.0 / _counts_array(counts)


def inv_sqrt_weights(counts: ClassCounts) -> np.ndarray:
    """w_c = 1 / sqrt(n_c)."""
    return 1.0 / np.sqrt(_counts_array(counts))


def cb_weights(counts: ClassCounts, beta: float) -> np.ndarray:
    """Class-balanced weights w_c = (1 - beta) / (1 - beta^n_c).

    beta = 0 gives all ones; beta -> 1 approaches inverse frequency up to
    a constant factor.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if beta == 0.0:
        return np.ones(len(counts))
    n = _counts_array(counts)
    return (1.0 - beta) / (1.0 - beta ** n)


def _check_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-D")
    if (p < 0).any() or (p > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
    return p


def focal_loss(probs, target: int, gamma: float, alpha_t: float | None = None,
               eps_floor: bool = False) -> float:
    """-alpha_t * (1 - p_t)^gamma * log(p_t).

    gamma = 0 with no alpha_t reduces to cross entropy. A zero target
    probability raises unless ``eps_floor`` is set, which clips p_t at
    1e-12 instead.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if alpha_t is not None and not 0.0 <= alpha_t <= 1.0:
        raise ValueError("alpha_t must lie in [0, 1]")
    p = _check_probs(probs)
    p_t = float(p[target])
    if p_t == 0.0:
        if not eps_floor:
            raise ValueError("target probability is zero (infinite loss); enable eps_floor to clip")
        p_t = 1e-12
    factor = 1.0 if alpha_t is None else alpha_t
    return float(-factor * (1.0 - p_t) ** gamma * np.log(p_t))


def ib_loss(probs, target: int, feature, eps: float) -> float:
    """Cross entropy attenuated by the sample's influence factor.

    The influence factor is the l1 gap between the prediction and the
    one-hot target times the l1 norm of the feature; eps keeps the
    denominator positive.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = _check_probs(probs)
    p_t = float(p[target])
    if p_t == 0.0:
        raise ValueError("target probability is zero (infinite loss)")
    one_hot = np.zeros_like(p)
    one_hot[target] = 1.0
    influence = float(np.abs(p - one_hot).sum()) * float(np.abs(np.asarray(feature, dtype=np.float64)).sum())
    return float(-np.log(p_t) / (influence + eps))


def ib_class_coefficients(counts: ClassCounts, alpha_scale: float) -> np.ndarray:
    """Per-class coefficients proportional to 1/n_c, summing to alpha_scale."""
    if alpha_scale <= 0:
        raise ValueError("alpha_scale must be positive")
    inv = 1.0 / _counts_array(counts)
    return alpha_scale * inv / inv.sum()


def range_loss(features, labels, k: int, margin: float, alpha: float, beta: float) -> float:
    """alpha * sum of per-class harmonic means of the k largest intra-class
    ranges, plus beta * hinge(margin - minimum center distance).

    Classes with fewer than two samples contribute no intra term, and a
    batch of one class, with no centre pair, no inter term; when a class
    has fewer than k pairwise distances, all available are used.
    """
    value, _ = range_loss_grad(features, labels, k, margin, alpha, beta)
    return value


@lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, cached per size as read-only arrays: a
    run sees only two batch sizes and a few class counts per batch."""
    ii, jj = np.triu_indices(n, 1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def range_loss_grad(features, labels, k: int, margin: float, alpha: float, beta: float):
    """Range loss together with its gradient w.r.t. the feature matrix.

    A batch is one pass of array operations, with no Python loop over
    pairs or classes. Same-class pairs are picked from the upper-triangle
    index pairs before their feature differences are gathered, so the
    float work and memory grow with the number of same-class pairs; only
    the integer index pairs grow with the batch size squared.

    Equal distances keep the row-major (i, j) pair order when a class's k
    largest are chosen, and the first of equal centre distances wins the
    inter term. Pairs at the distance floor get no gradient. Labels are
    nonnegative integer class ids.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if margin <= 0:
        raise ValueError("margin must be positive")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, p) aligned with labels")
    # Dense class ids in label order, as np.unique's inverse gives them, without its sort.
    tally = np.bincount(y)
    present = tally > 0
    cls = (np.cumsum(present) - 1)[y]
    sizes = tally[present]
    n_cls = len(sizes)
    grad = np.zeros_like(x)

    ii, jj = _pair_indices(len(y))
    same = cls[ii] == cls[jj]
    ii, jj = ii[same], jj[same]
    pair_cls = cls[ii]
    delta = x[ii] - x[jj]
    dists = np.maximum(np.linalg.norm(delta, axis=1), RANGE_DIST_FLOOR)

    # Class-major, then descending distance; the stable sort keeps the
    # pair order among ties. Each class keeps its first k pairs.
    order = np.lexsort((-dists, pair_cls))
    pair_counts = np.bincount(pair_cls, minlength=n_cls)
    rank = np.arange(len(order)) - (np.cumsum(pair_counts) - pair_counts)[pair_cls[order]]
    top = order[rank < k]
    top_cls = pair_cls[top]
    d = dists[top]
    k_used = np.minimum(pair_counts, k)
    inv_sum = np.bincount(top_cls, weights=1.0 / d, minlength=n_cls)
    with_pairs = pair_counts > 0
    intra = float((k_used[with_pairs] / inv_sum[with_pairs]).sum())

    # d(k/S)/dD_j = (k/S^2) / D_j^2, chained through D_j = |h_i - h_j|.
    live = d > RANGE_DIST_FLOOR
    top, top_cls, d = top[live], top_cls[live], d[live]
    coeff = alpha * (k_used[top_cls] / inv_sum[top_cls] ** 2) / d ** 2
    step = coeff[:, None] * (delta[top] / d[:, None])
    # Interleave each pair's +/- rows so every row accumulates in pair order.
    rows = np.column_stack((ii[top], jj[top])).ravel()
    np.add.at(grad, rows, np.stack((step, -step), axis=1).reshape(-1, x.shape[1]))

    inter = 0.0
    if n_cls >= 2:
        centers = np.zeros((n_cls, x.shape[1]))
        np.add.at(centers, cls, x)
        centers /= sizes[:, None]
        ca, cb = _pair_indices(n_cls)
        gaps = centers[ca] - centers[cb]
        center_dists = np.linalg.norm(gaps, axis=1)
        best = int(np.argmin(center_dists))
        d_center = float(center_dists[best])
        inter = max(margin - d_center, 0.0)
        if inter > 0 and d_center > 0:
            direction = gaps[best] / d_center
            a, b = ca[best], cb[best]
            grad[cls == a] += -beta * direction / sizes[a]
            grad[cls == b] += beta * direction / sizes[b]

    return float(alpha * intra + beta * inter), grad
