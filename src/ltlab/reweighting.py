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
the (R, C) class slots, with no loop over runs: class means from one
``np.bincount``, each run's L_bar and beta mean from one row reduction
over its C slots (absent classes add exact zeros), and the closed form and
beta over every slot; one run is the stack of one. The trainer builds its
inputs, so the solve checks none, and no batch pays for validation.
``closed_form_weight`` validates its arguments (it serves ``ltlab
weights``) and calls the same kernel, ``_closed_form``, whose exponent-split
form no product's over- or underflow can spoil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import BASE_METHODS
from .errors import ConfigError, check_ranges

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
    ``base`` is the base loss that the weights multiply. The prior w0 is
    ones, except that with ``use_base_prior`` it is the base's count-based
    class weights for ``inv_freq``, ``inv_sqrt`` and ``cb``; IB's
    coefficients and focal's alpha never become the prior.
    """

    alpha: float = 0.0
    gamma: float = 1.0
    switch_epoch: int = 0
    mode: str = "both"
    base: str = "ce"
    use_base_prior: bool = False

    def __post_init__(self):
        check_ranges(self, alpha="[0, inf)", gamma="[0, inf)", switch_epoch="[0, inf)")
        if self.mode not in REWEIGHT_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid: {', '.join(REWEIGHT_MODES)}")
        if self.base not in BASE_METHODS:
            raise ConfigError(f"base must be a base method, got {self.base!r}; "
                              f"valid: {', '.join(BASE_METHODS)}")


def loss_imbalance_rho(class_losses) -> float:
    """Population standard deviation of per-class losses over their mean.

    Zero iff all class losses are equal. By convention returns 0 when the
    mean is 0 (all losses zero is the perfectly balanced case). Finite for
    every finite, nonnegative input: rho is scale-invariant, and is taken on
    the losses scaled exactly, by a power of two, to a largest in [0.5, 1).
    """
    losses = np.asarray(class_losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("class loss list must be non-empty")
    if not np.isfinite(losses).all():
        raise ValueError("class losses must be finite")
    if (losses < 0).any():
        raise ValueError("class losses must be nonnegative")
    losses = np.ldexp(losses, -np.frexp(losses.max())[1])
    # np.std's own sums and divisions, on the one mean.
    mean = np.add.reduce(losses) / losses.size
    if mean == 0.0:
        return 0.0
    d = losses - mean
    return float(np.sqrt(np.add.reduce(d * d) / losses.size) / mean)


def closed_form_weight(l_c, l_bar, alpha, w0=1.0):
    """Unique minimizer of (w*l_c - l_bar)^2 + alpha*(w - w0)^2.

    Broadcasts over array arguments and returns a float when every
    argument is a scalar. l_c == 0 returns the prior w0: the exact
    minimizer for alpha > 0, and the continuous-in-alpha limit of the 0/0
    corner alpha == 0. As with float division, a weight beyond the float
    range is inf and one below it 0; every weight that a normal float
    holds is within 2 ulp of the exact one.
    """
    l_c, l_bar, alpha, w0 = (np.asarray(v, dtype=np.float64) for v in (l_c, l_bar, alpha, w0))
    if not (np.isfinite(l_c) & (l_c >= 0)).all() or not (np.isfinite(l_bar) & (l_bar >= 0)).all():
        raise ValueError("losses must be finite and nonnegative")
    if not (np.isfinite(alpha) & (alpha >= 0)).all():
        raise ValueError("alpha must be finite and >= 0")
    if not (np.isfinite(w0) & (w0 > 0)).all():
        raise ValueError("prior weight must be finite and positive")
    w = _closed_form(l_c, l_bar, alpha, w0)
    return float(w) if w.ndim == 0 else w


@np.errstate(all="ignore")  # the corners that np.where drops may divide by 0 or read inf * 0
def _closed_form(l_c, l_bar, alpha, w0):
    """The closed form on unchecked, broadcastable arguments: w0 where
    l_c = 0, l_bar / l_c where alpha is 0, and (l_bar*l_c + alpha*w0) /
    (l_c^2 + alpha) everywhere else, with no product over- or underflowing:
    each product is its factors' frexp mantissas' product times a power of
    two, each sum is taken at its larger term's exponent, and only the
    quotient is scaled back, so a weight beyond the float range is inf.
    Where the plain form's products stay in the normal range, the two round
    alike."""
    (m_c, e_c), (m_bar, e_bar), (m_a, e_a), (m_0, e_0) = map(np.frexp, (l_c, l_bar, alpha, w0))
    num, e_num = _sum_at_larger(m_bar * m_c, e_bar + e_c, m_a * m_0, e_a + e_0)
    den, e_den = _sum_at_larger(m_c * m_c, 2 * e_c, m_a, e_a)
    return np.where(l_c == 0, w0, np.where(alpha > 0, np.ldexp(num / den, e_num - e_den), l_bar / l_c))


def _sum_at_larger(x, e_x, y, e_y):
    """(s, e) with s * 2^e = x * 2^e_x + y * 2^e_y, for y > 0 and x >= 0; a
    zero x has no exponent."""
    e = np.where(x > 0, np.maximum(e_x, e_y), e_y)
    return np.ldexp(x, e_x - e) + np.ldexp(y, e_y - e), e


def inverse_weights(losses, slots, n, batch_counts, prior, config: ReweightConfig) -> np.ndarray:
    """Effective per-class weights w_hat of the batches of R runs at once.

    ``losses`` are the per-sample losses and ``slots`` each sample's class
    slot r * C + c, of one shape ((R, B) in the trainer); ``n`` (the batches' class sizes),
    ``batch_counts`` (the counters B_c, already incremented for these
    batches) and ``prior`` (w0) are (R, C), and so is the result.
    ``config.mode`` picks the factors. Each run's L_bar and beta mean are
    one reduction of its row over the present classes, with the absent ones
    as exact zeros; a row's sum never reads another row, so a run's weights
    do not depend on the runs it is stacked with. Absent classes get weight
    1. The arguments are not checked: the losses must be nonnegative, and a
    present class needs B_c >= 1 and, unless the mode is "macro", a
    positive prior."""
    present = n > 0
    size = present.sum(axis=1, keepdims=True)  # each run's number of present classes
    w = 1.0
    if config.mode != "macro":
        sums = np.bincount(slots.ravel(), weights=losses.ravel(), minlength=n.size).reshape(n.shape)
        mean = sums / np.maximum(n, 1)  # an absent class's is an exact zero
        l_bar = np.add.reduce(mean, axis=1, keepdims=True) / size
        w = _closed_form(mean, l_bar, config.alpha, prior)
    if config.mode != "batch":
        beta = np.where(present, np.maximum(batch_counts, 1.0) ** -config.gamma, 0.0)
        w = w * (beta / (np.add.reduce(beta, axis=1, keepdims=True) / size))
    return np.where(present, w, 1.0)
