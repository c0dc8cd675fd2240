"""Desk-scale training loop.

The model is a linear softmax classifier, optionally preceded by one
ReLU hidden layer. Gradients are analytic, optimization is SGD with
momentum and weight decay, and every run is deterministic in its seed.

Each batch goes through the selected base loss; once the reweighting
switch epoch is reached, per-class weights are solved in closed form
from the batch's class-mean losses and combined with the macro
batch-frequency factors, and the weighted mean loss drives the update.
Batch-appearance counters accumulate from epoch 0 so the macro factors
reflect true appearance frequencies. At the end of every epoch the
last-layer features of the training set are collected and the collapse
metrics and the loss imbalance coefficient are recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines, reweighting, scheduler
from .baselines import ClassCounts
from .data import Dataset, batch_iter
from .errors import ConfigError, NumericError
from .nc_metrics import FeatureBank, NcReport, make_report
from .reweighting import REWEIGHT_MODES, ReweightConfig

__all__ = [
    "VALID_METHODS",
    "ModelParams",
    "MethodConfig",
    "LrSpec",
    "TrainConfig",
    "TrainState",
    "EpochRecord",
    "init_params",
    "forward",
    "forward_batch",
    "ce_loss",
    "backward",
    "sgd_step",
    "prepare_run",
    "train_epoch",
    "run_experiment",
]

VALID_METHODS = ("ce", "inv_freq", "inv_sqrt", "cb", "focal", "ib", "range", "inverse")


@dataclass
class ModelParams:
    """Classifier weights/bias plus the optional hidden layer."""

    weights: np.ndarray  # (C, p)
    bias: np.ndarray  # (C,)
    hidden_weights: np.ndarray | None = None  # (p, d)
    hidden_bias: np.ndarray | None = None  # (p,)

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(
            weights=self.weights.copy(),
            bias=self.bias.copy(),
            hidden_weights=None if self.hidden_weights is None else self.hidden_weights.copy(),
            hidden_bias=None if self.hidden_bias is None else self.hidden_bias.copy(),
        )


@dataclass(frozen=True)
class MethodConfig:
    """Base loss selector and its hyper-parameters."""

    name: str = "ce"
    cb_beta: float = 0.9999
    focal_gamma: float = 2.0
    focal_alpha: float | None = None
    ib_eps: float = 1e-3
    ib_alpha_scale: float = 1.0
    range_k: int = 2
    range_margin: float = 5.0
    range_alpha: float = 0.5
    range_beta: float = 0.5
    range_lambda: float = 0.1

    def __post_init__(self):
        if self.name not in VALID_METHODS:
            raise ConfigError(f"unknown method {self.name!r}; valid: {', '.join(VALID_METHODS)}")


@dataclass(frozen=True)
class LrSpec:
    """Schedule selection; resolved into a concrete config per run."""

    schedule: str = "multistep"  # "mile" | "multistep"
    eta0: float = 0.1
    warmup_epochs: int = 0
    switch_epoch: int = 0
    tail_param: float | str = "entropy"  # number, or "entropy" to derive from counts
    eps: float = 1e-3
    milestones: tuple[int, ...] = ()
    decay: float = 0.1

    def __post_init__(self):
        if self.schedule not in ("mile", "multistep"):
            raise ConfigError(f"unknown lr schedule {self.schedule!r}")
        if isinstance(self.tail_param, str) and self.tail_param != "entropy":
            raise ConfigError("lr tail_param must be a number or 'entropy'")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 256
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    hidden_dim: int = 0  # 0 = linear model on the raw inputs
    use_bias: bool = True
    method: MethodConfig = field(default_factory=MethodConfig)
    reweight: ReweightConfig = field(default_factory=ReweightConfig)
    reweight_mode: str = "both"  # "both" | "batch" | "macro"
    reweight_base: str = "ce"  # base loss when method is "inverse"
    use_base_prior: bool = False
    lr: LrSpec = field(default_factory=LrSpec)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.hidden_dim < 0:
            raise ConfigError("hidden_dim must be >= 0")
        if self.reweight_mode not in REWEIGHT_MODES:
            raise ConfigError(f"unknown reweight_mode {self.reweight_mode!r}")
        if self.reweight_base not in VALID_METHODS or self.reweight_base == "inverse":
            raise ConfigError(f"reweight_base must be a base method, got {self.reweight_base!r}")


@dataclass
class TrainState:
    params: ModelParams
    velocity: dict[str, np.ndarray]
    batch_counts: np.ndarray  # (C,) int64 batch-appearance counters B_c
    iteration: int = 0


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch log row; field order matches the metrics CSV."""

    epoch: int
    train_loss: float
    bal_acc: float
    acc_head: float
    acc_med: float
    acc_tail: float
    lr: float
    rho: float
    nc1: float
    nc2: float
    nc3: float
    nc4: float


def init_params(class_count: int, input_dim: int, hidden_dim: int, seed: int) -> ModelParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    p = hidden_dim if hidden_dim > 0 else input_dim
    bound = 1.0 / math.sqrt(p)
    weights = rng.uniform(-bound, bound, size=(class_count, p))
    hidden_w = hidden_b = None
    if hidden_dim > 0:
        hb = 1.0 / math.sqrt(input_dim)
        hidden_w = rng.uniform(-hb, hb, size=(hidden_dim, input_dim))
        hidden_b = np.zeros(hidden_dim)
    return ModelParams(weights=weights, bias=np.zeros(class_count),
                       hidden_weights=hidden_w, hidden_bias=hidden_b)


def forward_batch(params: ModelParams, x: np.ndarray):
    """Features, logits, and softmax probabilities for a batch.

    Softmax subtracts the row max before exponentiating.
    """
    x = np.asarray(x, dtype=np.float64)
    if params.hidden_weights is not None:
        if x.shape[1] != params.hidden_weights.shape[1]:
            raise ValueError(f"input dim {x.shape[1]} != hidden fan-in {params.hidden_weights.shape[1]}")
        h = np.maximum(x @ params.hidden_weights.T + params.hidden_bias, 0.0)
    else:
        h = x
    if h.shape[1] != params.weights.shape[1]:
        raise ValueError(f"feature dim {h.shape[1]} != classifier fan-in {params.weights.shape[1]}")
    z = h @ params.weights.T + params.bias
    zs = z - z.max(axis=1, keepdims=True)
    e = np.exp(zs)
    probs = e / e.sum(axis=1, keepdims=True)
    return h, z, probs


def forward(params: ModelParams, x):
    """Single-sample forward pass: (features, logits, probabilities)."""
    h, z, p = forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    return h[0], z[0], p[0]


def ce_loss(probs, target: int) -> float:
    """-log of the target-class probability."""
    p_t = float(np.asarray(probs)[target])
    if p_t <= 0:
        raise ValueError("target probability must be positive; compute from logits instead")
    return -math.log(p_t)


def _ce_from_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample cross entropy via log-sum-exp (underflow safe)."""
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return lse - z[np.arange(len(y)), y]


def _focal_from_probs(probs: np.ndarray, y: np.ndarray, gamma: float):
    """Per-sample focal losses and d(loss)/d(logits) rows."""
    m = len(y)
    idx = np.arange(m)
    p_t = np.clip(probs[idx, y], 1e-300, 1.0)
    one_m = 1.0 - p_t
    losses = one_m ** gamma * (-np.log(p_t))
    # d(loss)/dz_k = gcoef * (delta_tk - p_k); gcoef = -1 recovers plain CE.
    gcoef = -(one_m ** gamma)
    if gamma > 0:
        pos = one_m > 0
        gcoef[pos] += gamma * p_t[pos] * np.log(p_t[pos]) * one_m[pos] ** (gamma - 1.0)
    dz = -gcoef[:, None] * probs
    dz[idx, y] += gcoef
    return losses, dz


def backward(params: ModelParams, x, y, per_sample_weights) -> dict[str, np.ndarray]:
    """Analytic gradients of mean(w_i * ce_i) w.r.t. all parameters.

    Weight decay is applied by ``sgd_step``, not here, so these gradients
    can be checked directly against finite differences of the loss.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(per_sample_weights, dtype=np.float64)
    h, z, probs = forward_batch(params, x)
    m = len(y)
    dz = probs.copy()
    dz[np.arange(m), y] -= 1.0
    dz *= (w / m)[:, None]
    return _grads_from_dz(params, x, h, z, dz)


def _grads_from_dz(params: ModelParams, x, h, z, dz, dh_extra=None) -> dict[str, np.ndarray]:
    grads = {"weights": dz.T @ h, "bias": dz.sum(axis=0)}
    if params.hidden_weights is not None:
        dh = dz @ params.weights
        if dh_extra is not None:
            dh = dh + dh_extra
        pre = x @ params.hidden_weights.T + params.hidden_bias
        dpre = dh * (pre > 0)
        grads["hidden_weights"] = dpre.T @ x
        grads["hidden_bias"] = dpre.sum(axis=0)
    return grads


def sgd_step(params: ModelParams, grads: dict[str, np.ndarray], lr: float, momentum: float,
             weight_decay: float, velocity: dict[str, np.ndarray], update_bias: bool = True) -> None:
    """v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v."""
    for name, grad in grads.items():
        if not update_bias and name in ("bias", "hidden_bias"):
            continue
        param = getattr(params, name)
        v = velocity[name]
        v *= momentum
        v += grad + weight_decay * param
        param -= lr * v


@dataclass
class RunContext:
    """Dataset-derived caches shared by every epoch of one run."""

    config: TrainConfig
    counts: ClassCounts
    base_method: str
    class_weights: np.ndarray | None  # static per-class multipliers
    ib_lambda: np.ndarray | None
    prior: np.ndarray  # (C,) inverse-solve prior w0: ones, or the base class weights
    inverse_active: bool
    iters_per_epoch: int
    mile: scheduler.MileLrConfig | None
    multistep: scheduler.MultiStepConfig | None
    groups: tuple[np.ndarray, np.ndarray, np.ndarray]  # head/med/tail class ids


def _tercile_groups(counts: ClassCounts):
    """Class ids split into head/med/tail terciles by descending count."""
    order = sorted(range(len(counts)), key=lambda c: (-counts.per_class[c], c))
    return tuple(np.array(g, dtype=np.int64) for g in np.array_split(order, 3))


def _static_class_weights(method: MethodConfig, name: str, counts: ClassCounts) -> np.ndarray | None:
    if name == "inv_freq":
        return baselines.inv_freq_weights(counts)
    if name == "inv_sqrt":
        return baselines.inv_sqrt_weights(counts)
    if name == "cb":
        return baselines.cb_weights(counts, method.cb_beta)
    return None


def prepare_run(config: TrainConfig, train: Dataset) -> tuple[TrainState, RunContext]:
    """Initialize parameters, optimizer state, and per-run caches."""
    method = config.method
    base_name = config.reweight_base if method.name == "inverse" else method.name
    counts = train.counts
    class_weights = _static_class_weights(method, base_name, counts)
    ib_lambda = None
    if base_name == "ib":
        ib_lambda = baselines.ib_class_coefficients(counts, method.ib_alpha_scale)

    prior = np.ones(train.class_count)
    if method.name == "inverse" and config.use_base_prior and class_weights is not None:
        prior = class_weights

    iters_per_epoch = math.ceil(len(train) / config.batch_size)
    mile = multistep = None
    if config.lr.schedule == "mile":
        tail = config.lr.tail_param
        if tail == "entropy":
            tail = scheduler.entropy_alpha(counts)
        mile = scheduler.MileLrConfig(
            eta0=config.lr.eta0,
            total_epochs=config.epochs,
            iters_per_epoch=iters_per_epoch,
            warmup_epochs=config.lr.warmup_epochs,
            lr_switch_epoch=config.lr.switch_epoch,
            tail_param=float(tail),
            eps=config.lr.eps,
        )
    else:
        multistep = scheduler.MultiStepConfig(
            eta0=config.lr.eta0, milestones=config.lr.milestones, decay=config.lr.decay)

    params = init_params(train.class_count, train.input_dim, config.hidden_dim, config.seed)
    velocity = {"weights": np.zeros_like(params.weights), "bias": np.zeros_like(params.bias)}
    if params.hidden_weights is not None:
        velocity["hidden_weights"] = np.zeros_like(params.hidden_weights)
        velocity["hidden_bias"] = np.zeros_like(params.hidden_bias)
    state = TrainState(params=params, velocity=velocity,
                       batch_counts=np.zeros(train.class_count, dtype=np.int64))
    ctx = RunContext(
        config=config,
        counts=counts,
        base_method=base_name,
        class_weights=class_weights,
        ib_lambda=ib_lambda,
        prior=prior,
        inverse_active=method.name == "inverse",
        iters_per_epoch=iters_per_epoch,
        mile=mile,
        multistep=multistep,
        groups=_tercile_groups(counts),
    )
    return state, ctx


def _lr_at(ctx: RunContext, epoch: int, iteration: int) -> float:
    if ctx.mile is not None:
        return scheduler.mile_lr_at(iteration, ctx.mile)
    return scheduler.multistep_lr_at(epoch, ctx.multistep)


def _base_losses(ctx: RunContext, h, z, probs, y):
    """Per-sample base losses, stop-gradient weights, and dloss/dlogits rows.

    The returned losses already include the method's static multipliers;
    gradients flow only through the differentiable rows, scaled by the
    weights at composition time.
    """
    method = ctx.config.method
    if ctx.base_method == "focal":
        ell, dz = _focal_from_probs(probs, y, method.focal_gamma)
        weights = np.full(len(y), 1.0 if method.focal_alpha is None else method.focal_alpha)
        return ell, weights, dz
    ell = _ce_from_logits(z, y)
    dz = probs.copy()
    dz[np.arange(len(y)), y] -= 1.0
    if ctx.class_weights is not None:
        weights = ctx.class_weights[y]
    elif ctx.base_method == "ib":
        # Influence factor |p - onehot|_1 |h|_1 = 2(1 - p_t) |h|_1, used as
        # a per-sample attenuation treated as constant by the gradient.
        p_t = probs[np.arange(len(y)), y]
        influence = 2.0 * (1.0 - p_t) * np.abs(h).sum(axis=1)
        weights = ctx.ib_lambda[y] / (influence + method.ib_eps)
    else:
        weights = np.ones(len(y))
    return ell, weights, dz


def _batch_update(state: TrainState, ctx: RunContext, x, y, epoch: int, lr: float) -> float:
    config = ctx.config
    h, z, probs = forward_batch(state.params, x)
    ell, weights, dz_rows = _base_losses(ctx, h, z, probs, y)

    coef = weights
    if ctx.inverse_active:
        # Batch-appearance counters accumulate from epoch 0.
        state.batch_counts += np.bincount(y, minlength=len(state.batch_counts)) > 0
        if epoch >= config.reweight.switch_epoch:
            w_hat = reweighting.inverse_weights(weights * ell, y, state.batch_counts, ctx.prior,
                                                config.reweight, config.reweight_mode)
            coef = weights * w_hat[y]

    m = len(y)
    loss = float(np.mean(coef * ell))
    dz = dz_rows * (coef / m)[:, None]

    dh_extra = None
    if ctx.base_method == "range":
        method = config.method
        range_val, range_grad = baselines.range_loss_grad(
            h, y, method.range_k, method.range_margin, method.range_alpha, method.range_beta)
        loss += method.range_lambda * range_val
        if state.params.hidden_weights is not None:
            dh_extra = method.range_lambda * range_grad

    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss at epoch {epoch}, iteration {state.iteration}")

    grads = _grads_from_dz(state.params, x, h, z, dz, dh_extra=dh_extra)
    sgd_step(state.params, grads, lr, config.momentum, config.weight_decay,
             state.velocity, update_bias=config.use_bias)
    state.iteration += 1
    return loss


def _per_class_accuracy(params: ModelParams, dataset: Dataset) -> np.ndarray:
    _, z, _ = forward_batch(params, dataset.x)
    hits = np.bincount(dataset.y, weights=z.argmax(axis=1) == dataset.y, minlength=dataset.class_count)
    return hits / dataset.counts.per_class


def _epoch_report(state: TrainState, train: Dataset, epoch: int) -> NcReport:
    h, z, _ = forward_batch(state.params, train.x)
    bank = FeatureBank.from_labels(h, train.y)
    ce = _ce_from_logits(z, train.y)
    per_class = np.bincount(train.y, weights=ce, minlength=train.class_count) / train.counts.per_class
    try:
        return make_report(state.params.weights, state.params.bias, bank, per_class, epoch)
    except ValueError as exc:
        raise NumericError(f"metric computation failed after epoch {epoch}: {exc}") from exc


def train_epoch(state: TrainState, train: Dataset, test: Dataset, epoch: int,
                config: TrainConfig, ctx: RunContext) -> EpochRecord:
    """One pass over the training set plus epoch-end evaluation."""
    total, seen = 0.0, 0
    last_lr = float("nan")
    epoch_seed = config.seed * 1_000_003 + epoch
    for idx in batch_iter(train, config.batch_size, epoch_seed):
        last_lr = _lr_at(ctx, epoch, state.iteration)
        loss = _batch_update(state, ctx, train.x[idx], train.y[idx], epoch, last_lr)
        total += loss * len(idx)
        seen += len(idx)
    for name in ("weights", "bias", "hidden_weights", "hidden_bias"):
        arr = getattr(state.params, name)
        if arr is not None and not np.isfinite(arr).all():
            raise NumericError(f"non-finite {name} after epoch {epoch}")

    report = _epoch_report(state, train, epoch)
    per_class_acc = _per_class_accuracy(state.params, test)
    head, med, tail = ctx.groups
    return EpochRecord(
        epoch=epoch,
        train_loss=total / seen,
        bal_acc=float(per_class_acc.mean()),
        acc_head=float(per_class_acc[head].mean()),
        acc_med=float(per_class_acc[med].mean()),
        acc_tail=float(per_class_acc[tail].mean()),
        lr=last_lr,
        rho=report.rho,
        nc1=report.nc1,
        nc2=report.nc2,
        nc3=report.nc3,
        nc4=report.nc4_agreement,
    )


def run_experiment(config: TrainConfig, train: Dataset, test: Dataset):
    """Full training run.

    Returns the per-epoch records, a summary of the final epoch, and the
    finished training state (for parameter dumps).
    """
    state, ctx = prepare_run(config, train)
    records = [train_epoch(state, train, test, e, config, ctx) for e in range(config.epochs)]
    last = records[-1]
    summary = {
        "method": config.method.name,
        "seed": config.seed,
        "bal_acc": last.bal_acc,
        "rho_final": last.rho,
        "nc1": last.nc1,
        "nc2": last.nc2,
        "nc3": last.nc3,
        "nc4": last.nc4,
        "acc_head": last.acc_head,
        "acc_med": last.acc_med,
        "acc_tail": last.acc_tail,
    }
    return records, summary, state
