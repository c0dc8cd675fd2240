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

``LrSpec`` is the one schedule config, the ``[lr]`` section, and checks
every value when it is built. ``learning_rates`` resolves it for a run,
once, into the rate of every iteration.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_ranges

__all__ = [
    "LrSpec",
    "mittag_leffler",
    "ml_series",
    "ml_series_log_peak",
    "ml_tail",
    "entropy_alpha",
    "learning_rates",
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
    """Tail parameter from the normalized entropy of the per-class sizes.

    a = 0.25 + 0.75 * H_norm with H_norm = entropy(n_c / N) / log(C).
    Zero counts contribute nothing (0 * log 0 := 0). Needs C >= 2.
    """
    n = np.asarray(counts, dtype=np.float64)
    if n.size < 2:
        raise ValueError("entropy_alpha needs at least two classes")
    if (n < 0).any() or n.sum() <= 0:
        raise ValueError("class counts must be nonnegative with a positive total")
    p = n / n.sum()
    nz = p[p > 0]
    h_norm = float(-(nz * np.log(nz)).sum() / math.log(n.size))
    return 0.25 + 0.75 * h_norm


@dataclass(frozen=True)
class LrSpec:
    """The ``[lr]`` section: which schedule, and its constants in epochs.

    ``mile`` warms up linearly over ``warmup_epochs``, follows E_a(-z)
    until ``switch_epoch`` (counted from the start of training, the
    warm-up included) and then the power-law tail; ``tail_param`` is a in
    (0, 1], or ``"entropy"`` to derive it from the class counts.
    ``multistep`` multiplies ``eta0`` by ``decay`` at each of the
    ``milestones``. Every value is checked here, whichever schedule is
    picked.
    """

    schedule: str = "multistep"  # "mile" | "multistep"
    eta0: float = 0.1
    warmup_epochs: int = 0
    switch_epoch: int = 0
    tail_param: float | str = "entropy"
    eps: float = 1e-3
    milestones: tuple[int, ...] = ()
    decay: float = 0.1

    def __post_init__(self):
        if self.schedule not in ("mile", "multistep"):
            raise ConfigError(f"unknown schedule {self.schedule!r}; valid: mile, multistep")
        if isinstance(self.tail_param, str) and self.tail_param != "entropy":
            raise ConfigError(f"tail_param = {self.tail_param!r} must be a number or 'entropy'")
        tail = {} if self.tail_param == "entropy" else {"tail_param": "(0, 1]"}
        check_ranges(self, eta0="(0, inf)", warmup_epochs="[0, inf)", switch_epoch="[0, inf)", **tail,
                     eps="(0, 1)", decay="(0, 1)")
        ms = tuple(int(m) for m in self.milestones)
        if any(m < 0 for m in ms):
            raise ConfigError(f"milestones must be >= 0, got {', '.join(map(str, ms))}")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {', '.join(map(str, ms))}")
        object.__setattr__(self, "milestones", ms)


def learning_rates(spec: LrSpec, epochs: int, iters_per_epoch: int, counts=None) -> list[float]:
    """The learning rate of every iteration of a run, as Python floats:
    entry t is the rate of global iteration t (0-based), and epoch e runs
    iterations e * iters_per_epoch up to (e + 1) * iters_per_epoch.
    ``counts`` (the class counts) is read only for the entropy tail.

    ``multistep`` holds eta0 * decay^(milestones passed) over each epoch,
    a milestone epoch counting as passed. ``mile`` runs in iteration
    units: t_warm warm-up iterations, then t_switch iterations of
    eta0 * E_a(-z) with z rising to 1 - eps, then eta0 / (z Gamma(1 - a))
    over the rest, z rising from 1 towards 1 / eps, with a capped below 1.
    """
    if spec.schedule == "multistep":
        return [spec.eta0 * spec.decay ** bisect_right(spec.milestones, t // iters_per_epoch)
                for t in range(epochs * iters_per_epoch)]
    t_all = epochs * iters_per_epoch
    t_warm = spec.warmup_epochs * iters_per_epoch
    t_post = t_all - t_warm
    if t_post < 1:
        raise ValueError("the mile schedule needs at least one iteration after its warm-up")
    t_s = max(spec.switch_epoch * iters_per_epoch - t_warm, 0)
    a = entropy_alpha(counts) if spec.tail_param == "entropy" else float(spec.tail_param)
    eta0, eps = spec.eta0, spec.eps
    n1 = min(t_s, t_post)  # iterations in the early stage
    rates = [eta0 * (t + 1) / t_warm for t in range(t_warm)]
    rates += [eta0 * mittag_leffler(a, (1.0 - eps) * tau / max(t_s, 1)) for tau in range(n1)]
    t2 = max(t_post - t_s, 1)
    gamma = math.gamma(1.0 - min(a, STAGE2_ALPHA_CAP))
    for tau2 in range(t_post - n1):
        s2 = min(tau2 / t2, 1.0 - eps)
        rates.append(eta0 / ((1.0 + s2 / (1.0 - s2 + eps)) * gamma))
    return rates
