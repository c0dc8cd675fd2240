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

One batch is one length-C solve (``inverse_weights``): class means from
``np.bincount``, L_bar over the present classes, the vectorized closed
form and beta, all as array operations. ``closed_form_weight`` and
``inverse_weights`` validate their arguments once per call and share one
unvalidated closed-form kernel; the trainer calls the solve's kernel on
inputs it builds itself, so no batch pays for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    first epoch at which reweighting is applied.
    """

    alpha: float = 0.0
    gamma: float = 1.0
    switch_epoch: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.switch_epoch < 0:
            raise ValueError("switch_epoch must be >= 0")


def loss_imbalance_rho(class_losses) -> float:
    """Population standard deviation of per-class losses over their mean.

    Zero iff all class losses are equal. By convention returns 0 when the
    mean is 0 (all losses zero is the perfectly balanced case).
    """
    losses = np.asarray(class_losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("class loss list must be non-empty")
    if not np.isfinite(losses).all():
        raise ValueError("class losses must be finite")
    if (losses < 0).any():
        raise ValueError("class losses must be nonnegative")
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


def inverse_weights(losses, labels, batch_counts, prior, config: ReweightConfig,
                    mode: str = "both") -> np.ndarray:
    """Effective per-class weights w_hat for one batch, length C.

    ``losses`` are the batch's per-sample losses, ``labels`` their class
    ids in [0, C), ``batch_counts`` the counters B_c already incremented
    for this batch, and ``prior`` the per-class prior w0. ``mode`` picks the
    factors: "both" (w_star * beta), "batch" (w_star) or "macro" (beta).
    Classes absent from the batch get weight 1.
    """
    losses = np.asarray(losses, dtype=np.float64)
    labels = np.asarray(labels)
    if losses.ndim != 1 or losses.shape != labels.shape or losses.size == 0:
        raise ValueError(f"losses and labels must be 1-D, non-empty and of equal length, "
                         f"got {losses.shape} vs {labels.shape}")
    n = np.bincount(labels, minlength=len(batch_counts))
    if mode != "macro":
        if (losses < 0).any():
            raise ValueError("losses must be nonnegative")
        if (prior[n > 0] <= 0).any():
            raise ValueError("prior weight must be positive")
    if mode != "batch" and (batch_counts[n > 0] < 1).any():
        raise ValueError("present class has zero batch count; update counters before solving")
    return _solve(losses, labels, n, batch_counts, prior, config, mode)


def _solve(losses, labels, n, batch_counts, prior, config: ReweightConfig, mode: str) -> np.ndarray:
    """``inverse_weights`` on validated input, with the batch's class sizes
    ``n`` (``np.bincount(labels, minlength=C)``) given."""
    present = n > 0
    w_hat = np.ones(len(n))
    # x.sum() / len(x) is np.mean(x), the same sum and division, without its Python overhead.
    if mode != "macro":
        mean = np.bincount(labels, weights=losses, minlength=len(n))[present] / n[present]
        w_hat[present] = _closed_form(mean, mean.sum() / len(mean), config.alpha, prior[present])
    if mode != "batch":
        beta = batch_counts[present].astype(np.float64) ** -config.gamma
        w_hat[present] *= beta / (beta.sum() / len(beta))
    return w_hat
