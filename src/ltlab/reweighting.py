"""Inverse-view loss reweighting.

Instead of prescribing class weights from sample counts, solve for the
weights that map the observed per-class average losses onto the
equal-loss target: minimize (w_c * L_c - L_bar)^2 + alpha * (w_c - w0_c)^2
per class, which has the closed-form solution

    w_c = (L_bar * L_c + alpha * w0_c) / (L_c^2 + alpha).

A macro-level factor beta_c proportional to B_c^(-gamma), where B_c
counts the mini-batches in which class c has appeared, compensates for
how rarely tail classes are seen across batches; beta is normalized to
unit mean over the classes present in the batch, and the effective weight
is w_hat_c = beta_c * w_c.

``inverse_weights`` solves the batches of R lockstep runs at once, over
R * C class slots, each run with its own L_bar and beta mean: class means
from ``np.bincount``, L_bar over the present classes, the vectorized
closed form and beta, all as array operations; one run is the stack of
one. The trainer builds its inputs, so the solve checks none, and no
batch pays for validation. ``closed_form_weight`` validates its arguments
(it serves ``ltlab weights``) and shares the closed-form kernel with the
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import BASE_METHODS
from .errors import ConfigError

__all__ = [
    "ReweightConfig",
    "loss_imbalance_rho",
    "closed_form_weight",
    "inverse_weights",
]

REWEIGHT_MODES = ("both", "batch", "macro")


@dataclass(frozen=True)
class ReweightConfig:
    """Hyper-parameters of the inverse reweighting scheme.

    ``alpha`` is the Tikhonov strength pulling weights toward the prior,
    ``gamma`` the macro-compensation exponent, and ``switch_epoch`` the
    first epoch at which reweighting is applied. ``mode`` picks the
    factors: "both" (w_star * beta), "batch" (w_star) or "macro" (beta).
    ``base`` is the base loss that the weights multiply, and with
    ``use_base_prior`` the prior w0 is that base's class weights, when it
    has them, instead of ones.
    """

    alpha: float = 0.0
    gamma: float = 1.0
    switch_epoch: int = 0
    mode: str = "both"
    base: str = "ce"
    use_base_prior: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.switch_epoch < 0:
            raise ValueError("switch_epoch must be >= 0")
        if self.mode not in REWEIGHT_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid: {', '.join(REWEIGHT_MODES)}")
        if self.base not in BASE_METHODS:
            raise ConfigError(f"base must be a base method, got {self.base!r}; "
                              f"valid: {', '.join(BASE_METHODS)}")


def loss_imbalance_rho(class_losses) -> float:
    """Population standard deviation of per-class losses over their mean.

    Zero iff all class losses are equal. By convention returns 0 when the
    mean is 0 (all losses zero is the perfectly balanced case). A mean or
    spread that overflows gives inf or nan, without numpy's warning.
    """
    losses = np.asarray(class_losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("class loss list must be non-empty")
    if not np.isfinite(losses).all():
        raise ValueError("class losses must be finite")
    if (losses < 0).any():
        raise ValueError("class losses must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(losses.mean())
        if mean == 0.0:
            return 0.0
        return float(losses.std() / mean)


# Below this, l_c**2 and alpha*w0 can underflow; the closed form then
# scales l_c and alpha by 2**500 (see _closed_form).
_TINY = 2.0 ** -500


def closed_form_weight(l_c, l_bar, alpha, w0=1.0):
    """Unique minimizer of (w*l_c - l_bar)^2 + alpha*(w - w0)^2.

    Broadcasts over array arguments and returns a float when every
    argument is a scalar. l_c == 0 returns the prior w0: the exact
    minimizer for alpha > 0, and the continuous-in-alpha limit of the 0/0
    corner alpha == 0. As with float division, a weight beyond the float
    range is inf.
    """
    l_c, l_bar, alpha, w0 = (np.asarray(v, dtype=np.float64) for v in (l_c, l_bar, alpha, w0))
    if (l_c < 0).any() or (l_bar < 0).any():
        raise ValueError("losses must be nonnegative")
    if (alpha < 0).any():
        raise ValueError("alpha must be >= 0")
    if (w0 <= 0).any():
        raise ValueError("prior weight must be positive")
    w = _closed_form(l_c, l_bar, alpha, w0)
    return float(w) if w.ndim == 0 else w


def _closed_form(l_c, l_bar, alpha, w0):
    """The closed form on validated input: ``l_c`` an array, ``alpha`` a
    float or an array.

    With every l_c > 0 and alpha >= 2^-500 it is the one expression
    (l_bar*l_c + alpha*w0) / (l_c^2 + alpha); only otherwise are the
    corners taken.
    """
    # A NaN alpha fails this test and takes the corner form, which reads it as unanchored.
    plain_alpha = (alpha >= _TINY).all() if isinstance(alpha, np.ndarray) else alpha >= _TINY
    with np.errstate(over="ignore"):
        if plain_alpha and l_c.all():
            return (l_bar * l_c + alpha * w0) / (l_c * l_c + alpha)
        anchored = alpha > 0
        # When l_c and alpha are both tiny, l_c^2 and alpha*w0 underflow and the
        # weight would read 0. Scaling both by 2^500 keeps them below 1, so it
        # is exact, adds no overflow and leaves every other input's rounding alone.
        scale = np.where(np.maximum(l_c, alpha) < _TINY, 2.0 ** 500, 1.0)
        l_s, alpha_s = l_c * scale, alpha * scale
        zero = l_c == 0
        # Unanchored: (l_bar * l_c) / l_c^2 in a form that cannot underflow to 0.
        num = np.where(anchored, l_bar * l_s + alpha_s * w0, l_bar)
        den = np.where(anchored, l_c * l_s + alpha_s, l_c)
        return np.where(zero, w0, num / np.where(zero, 1.0, den))


def inverse_weights(losses, slots, n, batch_counts, prior, config: ReweightConfig) -> np.ndarray:
    """Effective per-class weights w_hat of the batches of R runs at once.

    ``losses`` are the per-sample losses and ``slots`` each sample's class
    slot r * C + c, of one shape ((R, B) in the trainer); ``n`` (the batches' class sizes),
    ``batch_counts`` (the counters B_c, already incremented for these
    batches) and ``prior`` (w0) are (R, C), and so is the result.
    ``config.mode`` picks the factors. Each run's L_bar and beta mean are
    over its own present classes, and absent classes get weight 1. The
    arguments are not checked: the losses must be nonnegative, and a
    present class needs B_c >= 1 and, unless the mode is "macro", a
    positive prior."""
    present = n > 0
    sizes = present.sum(axis=1).tolist()  # each run's number of present classes
    w = 1.0  # the present slots' weights, run by run
    if config.mode != "macro":
        sums = np.bincount(slots.ravel(), weights=losses.ravel(), minlength=n.size)
        mean = sums[present.ravel()] / n[present]
        w = _closed_form(mean, _run_means(mean, sizes), config.alpha, prior[present])
    if config.mode != "batch":
        beta = batch_counts[present].astype(np.float64) ** -config.gamma
        w = w * (beta / _run_means(beta, sizes))
    w_hat = np.ones(n.shape)
    w_hat[present] = w
    return w_hat


def _run_means(values, sizes):
    """Each run's mean over its present slots, repeated over them:
    ``values`` holds the present slots run by run, ``sizes[r]`` of run r.
    A run's block sums as it would alone, so its weights do not depend on
    the runs it is stacked with."""
    means, start = np.empty_like(values), 0
    for size in sizes:
        end = start + size
        # np.add.reduce(x) / len(x) is np.mean(x), the same sum and division, without its overhead.
        means[start:end] = np.add.reduce(values[start:end]) / size
        start = end
    return means
