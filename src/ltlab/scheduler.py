"""Learning-rate schedules.

The main schedule shapes the decay with the Mittag-Leffler function
E_a(-z), whose power-law tail keeps late-training learning rates
non-negligible so sparsely seen tail classes still receive meaningful
updates. It runs at iteration granularity in three phases: an optional
linear warm-up, an early stage following E_a along the series-stable
region of its argument, and a late stage on the asymptotic power-law
tail 1/(z * Gamma(1 - a)). The tail strength a can be tied to the
normalized entropy of the class counts, so heavier imbalance produces a
heavier tail.

A conventional epoch-level multi-step decay is provided as the baseline
schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MileLrConfig",
    "MultiStepConfig",
    "mittag_leffler",
    "ml_series",
    "ml_series_log_peak",
    "ml_tail",
    "entropy_alpha",
    "mile_lr_at",
    "multistep_lr_at",
]

SERIES_TOL = 1e-12
SERIES_MAX_TERMS = 200

# Stage II uses Gamma(1 - a), which diverges as a -> 1 and would zero
# out the late learning rate on balanced data; a is capped there.
STAGE2_ALPHA_CAP = 0.999


def _check_ml_args(a: float, z: float) -> None:
    if not 0.0 < a <= 1.0:
        raise ValueError(f"a must lie in (0, 1], got {a}")
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")


def ml_series(a: float, z: float) -> float:
    """Truncated power series sum((-z)^k / Gamma(a k + 1)) for E_a(-z).

    Terms are added until they fall below 1e-12 in magnitude or 200 terms
    are reached; log-gamma keeps large-k terms from overflowing.
    """
    _check_ml_args(a, z)
    if z == 0.0:
        return 1.0
    total = 0.0
    log_z = math.log(z)
    for k in range(SERIES_MAX_TERMS + 1):
        term = math.exp(k * log_z - math.lgamma(a * k + 1.0))
        if k % 2:
            term = -term
        total += term
        if abs(term) < SERIES_TOL:
            break
    return total


def ml_series_log_peak(a: float, z: float) -> float:
    """log of the largest series term z^k / Gamma(a k + 1) over k <= 200.

    The alternating sum in ``ml_series`` loses about this term times the
    machine epsilon to cancellation, so its value means nothing once that
    is not small. Working in logs keeps the check itself from overflowing.
    """
    _check_ml_args(a, z)
    if z == 0.0:
        return 0.0  # only the k = 0 term, 1, is nonzero
    log_z = math.log(z)
    return max(k * log_z - math.lgamma(a * k + 1.0) for k in range(SERIES_MAX_TERMS + 1))


def ml_tail(a: float, z: float) -> float:
    """Asymptotic tail 1 / (z * Gamma(1 - a)) of E_a(-z) for z > 0.

    At a = 1 returns 0, treating Gamma(0) as +inf.
    """
    _check_ml_args(a, z)
    if z == 0.0:
        raise ValueError("tail approximation undefined at z = 0")
    if a == 1.0:
        return 0.0
    return 1.0 / (z * math.gamma(1.0 - a))


def mittag_leffler(a: float, z: float) -> float:
    """Evaluate E_a(-z) for 0 < a <= 1 and z >= 0.

    Piecewise: the truncated power series for z < 1; for z >= 1 the exact
    E_1(-z) = e^{-z} at a = 1 and the asymptotic tail otherwise.
    """
    _check_ml_args(a, z)
    if z < 1.0:
        return ml_series(a, z)
    if a == 1.0:
        return math.exp(-z)
    return ml_tail(a, z)


def entropy_alpha(counts) -> float:
    """Tail parameter from the normalized entropy of class counts.

    a = 0.25 + 0.75 * H_norm with H_norm = entropy(n_c / N) / log(C).
    Zero counts contribute nothing (0 * log 0 := 0). Needs C >= 2.
    """
    per_class = getattr(counts, "per_class", counts)
    n = np.asarray(per_class, dtype=np.float64)
    if n.size < 2:
        raise ValueError("entropy_alpha needs at least two classes")
    if (n < 0).any() or n.sum() <= 0:
        raise ValueError("class counts must be nonnegative with a positive total")
    p = n / n.sum()
    nz = p[p > 0]
    h_norm = float(-(nz * np.log(nz)).sum() / math.log(n.size))
    return 0.25 + 0.75 * h_norm


@dataclass(frozen=True)
class MileLrConfig:
    """Constants of the Mittag-Leffler schedule, in iteration units.

    ``lr_switch_epoch`` marks the handoff from the early-stabilization
    stage to the late power-law stage; it is converted to iterations and
    offset by the warm-up length.
    """

    eta0: float
    total_epochs: int
    iters_per_epoch: int
    warmup_epochs: int = 0
    lr_switch_epoch: int = 0
    tail_param: float = 1.0
    eps: float = 1e-3

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.total_epochs < 1 or self.iters_per_epoch < 1:
            raise ValueError("total_epochs and iters_per_epoch must be >= 1")
        if self.warmup_epochs < 0 or self.lr_switch_epoch < 0:
            raise ValueError("epoch counts must be >= 0")
        if not 0.0 < self.tail_param <= 1.0:
            raise ValueError("tail_param must lie in (0, 1]")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.t_post < 1:
            raise ValueError("schedule needs at least one post-warmup iteration")

    @property
    def t_all(self) -> int:
        return self.total_epochs * self.iters_per_epoch

    @property
    def t_warm(self) -> int:
        return self.warmup_epochs * self.iters_per_epoch

    @property
    def t_post(self) -> int:
        return self.t_all - self.t_warm

    @property
    def t_switch(self) -> int:
        return max(self.lr_switch_epoch * self.iters_per_epoch - self.t_warm, 0)


def mile_lr_at(t: int, config: MileLrConfig) -> float:
    """Learning rate at global iteration t (0-based)."""
    if not 0 <= t < config.t_all:
        raise ValueError(f"iteration {t} outside [0, {config.t_all})")
    eta0, eps, a = config.eta0, config.eps, config.tail_param
    if t < config.t_warm:
        return eta0 * (t + 1) / config.t_warm
    tau = t - config.t_warm
    t_s = config.t_switch
    if tau < t_s:
        z1 = (1.0 - eps) * tau / max(t_s, 1)
        return eta0 * mittag_leffler(a, z1)
    tau2 = tau - t_s
    t2 = max(config.t_post - t_s, 1)
    s2 = min(tau2 / t2, 1.0 - eps)
    z2 = 1.0 + s2 / (1.0 - s2 + eps)
    a_eff = min(a, STAGE2_ALPHA_CAP)
    return eta0 / (z2 * math.gamma(1.0 - a_eff))


@dataclass(frozen=True)
class MultiStepConfig:
    """Epoch-level staircase decay: eta0 * decay^(milestones passed)."""

    eta0: float
    milestones: tuple[int, ...]
    decay: float = 0.1

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        ms = tuple(int(m) for m in self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("milestones must be strictly increasing")
        object.__setattr__(self, "milestones", ms)


def multistep_lr_at(epoch: int, config: MultiStepConfig) -> float:
    """Learning rate at the given epoch (milestone epochs count as passed)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    passed = bisect_right(config.milestones, epoch)
    return config.eta0 * config.decay ** passed
