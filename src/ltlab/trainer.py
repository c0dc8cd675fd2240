"""Desk-scale training loop.

The model is a linear softmax classifier, optionally preceded by one
ReLU hidden layer. Gradients are analytic, optimization is SGD with
momentum and weight decay, and every run is deterministic in its seed.

The parameters are views of one contiguous float64 buffer
(``ModelParams``, biases last); the SGD velocity and the gradient share
its layout, so a step is a few in-place ufuncs over the whole buffer.

A batch is one pass that computes each intermediate once: the features
(the ReLU in place over the hidden pre-activation) and the logits; one
exp and one row sum for both the softmax and the cross entropy; the base
loss's dlogits rows, built in place; from the reweighting switch epoch
on, the closed-form class weights times the macro batch-frequency
factors (whose counters accumulate from epoch 0); and a backward pass
that takes the ReLU mask from those features and writes into the
gradient buffer. ``forward_batch`` and ``backward`` call the same
kernels.

Each epoch ends with the collapse metrics and rho from the training
features and logits, and the per-class accuracy from the test logits; no
softmax is formed there. The epoch end works in stable label order (the
batches still index the original order) in buffers that ``prepare_run``
allocates once per run, so after the first epoch it allocates no (n, p)
or (n, C) array: the forward pass writes the features and logits into
theirs, the scratch holds the cross entropy's exp and then NC4's squared
distances, and NC1 centres the features in the feature buffer last.
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


# Buffer order of the tensors: the biases last, so a bias-frozen step is
# a prefix of the buffer.
_LAYOUT = ("weights", "hidden_weights", "bias", "hidden_bias")


class ModelParams:
    """Classifier weights/bias plus the optional hidden layer.

    ``weights`` (C, p), ``bias`` (C,), ``hidden_weights`` (p, d) and
    ``hidden_bias`` (p,) are views of the one float64 buffer ``flat``
    (the hidden pair is None for the linear model). ``bias_start`` is the
    buffer offset of the first bias slot. The constructor copies its
    arguments. Attributes cannot be rebound, so the views never detach
    from the buffer: write into them instead (``params.weights[:] = w``).
    """

    __slots__ = ("flat", "bias_start") + _LAYOUT

    def __init__(self, weights, bias, hidden_weights=None, hidden_bias=None):
        if (hidden_weights is None) != (hidden_bias is None):
            raise ValueError("hidden_weights and hidden_bias must be given together")
        given = dict(weights=weights, bias=bias, hidden_weights=hidden_weights, hidden_bias=hidden_bias)
        arrays = {k: np.asarray(given[k], dtype=np.float64) for k in _LAYOUT if given[k] is not None}
        self._bind(np.concatenate([a.ravel() for a in arrays.values()]),
                   {k: a.shape for k, a in arrays.items()})

    def _bind(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> None:
        offset = 0
        for name in _LAYOUT:
            if name == "bias":
                object.__setattr__(self, "bias_start", offset)
            view = None
            if name in shapes:
                size = math.prod(shapes[name])
                view = flat[offset:offset + size].reshape(shapes[name])
                offset += size
            object.__setattr__(self, name, view)
        object.__setattr__(self, "flat", flat)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot rebind ModelParams.{name}; its tensors are views of one "
                             f"buffer, so assign into them (params.{name}[...] = ...)")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor, which binds a fresh buffer.
        return ModelParams, (self.weights, self.bias, self.hidden_weights, self.hidden_bias)

    def tensors(self) -> dict[str, np.ndarray]:
        """The present tensors by name, in buffer order."""
        return {name: getattr(self, name) for name in _LAYOUT if getattr(self, name) is not None}

    def _with_buffer(self, flat: np.ndarray) -> "ModelParams":
        new = object.__new__(ModelParams)
        new._bind(flat, {name: arr.shape for name, arr in self.tensors().items()})
        return new

    def zeros_like(self) -> "ModelParams":
        """A zero buffer of the same layout (velocity, gradient)."""
        return self._with_buffer(np.zeros_like(self.flat))

    def copy(self) -> "ModelParams":
        return self._with_buffer(self.flat.copy())

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]


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
    velocity: ModelParams  # momentum buffer, laid out as params
    grads: ModelParams  # gradient buffer each batch's backward pass writes
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


def _forward(params: ModelParams, x: np.ndarray, h_out=None, z_out=None):
    """Features and logits, written into ``h_out`` and ``z_out`` when
    given (the epoch end's buffers) and into fresh arrays otherwise. The
    hidden ReLU runs in place over the pre-activation, whose sign pattern
    it keeps: h > 0 exactly where pre > 0. The linear model's features are
    x itself, and it leaves ``h_out`` alone."""
    h = x
    if params.hidden_weights is not None:
        h = np.matmul(x, params.hidden_weights.T, out=h_out)
        h += params.hidden_bias
        np.maximum(h, 0.0, out=h)
    z = np.matmul(h, params.weights.T, out=z_out)
    z += params.bias
    return h, z


def _shifted_exp(z: np.ndarray, out=None):
    """Row max, exp(z - max) (in ``out`` when given) and its row sum: the
    one exp and row sum that the softmax and the cross entropy share."""
    zmax = z.max(axis=1, keepdims=True)
    e = np.subtract(z, zmax, out=out)
    np.exp(e, out=e)
    return zmax, e, e.sum(axis=1, keepdims=True)


def _ce(z, rows, y, zmax, s) -> np.ndarray:
    """Per-sample cross entropy max + log(sum exp(z - max)) - z_y (underflow safe)."""
    return zmax[:, 0] + np.log(s[:, 0]) - z[rows, y]


def _ce_from_logits(z: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    zmax, _, s = _shifted_exp(z, out)
    return _ce(z, np.arange(len(y)), y, zmax, s)


def forward_batch(params: ModelParams, x):
    """Features, logits, and softmax probabilities for a batch.

    Softmax subtracts the row max before exponentiating.
    """
    x = np.asarray(x, dtype=np.float64)
    p = x.shape[1]
    if params.hidden_weights is not None:
        if p != params.hidden_weights.shape[1]:
            raise ValueError(f"input dim {p} != hidden fan-in {params.hidden_weights.shape[1]}")
        p = params.hidden_weights.shape[0]
    if p != params.weights.shape[1]:
        raise ValueError(f"feature dim {p} != classifier fan-in {params.weights.shape[1]}")
    h, z = _forward(params, x)
    _, probs, s = _shifted_exp(z)
    probs /= s
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


def _backward(params: ModelParams, x, h, dz, grads: ModelParams, dh_extra=None) -> None:
    """Write the gradients of the loss whose dlogits rows are ``dz`` into
    ``grads``; ``dh_extra`` is a further gradient w.r.t. the features ``h``
    that ``_forward`` returned for ``x``."""
    np.matmul(dz.T, h, out=grads.weights)
    dz.sum(axis=0, out=grads.bias)
    if params.hidden_weights is not None:
        dh = dz @ params.weights
        if dh_extra is not None:
            dh += dh_extra
        dh *= h > 0  # the ReLU's derivative: the pre-activation's sign pattern
        np.matmul(dh.T, x, out=grads.hidden_weights)
        dh.sum(axis=0, out=grads.hidden_bias)


def backward(params: ModelParams, x, y, per_sample_weights) -> dict[str, np.ndarray]:
    """Analytic gradients of mean(w_i * ce_i) w.r.t. all parameters, by
    tensor name (views of one buffer laid out like ``params``).

    Weight decay is applied by ``sgd_step``, not here, so these gradients
    can be checked directly against finite differences of the loss.
    ``sgd_step`` takes them as ``ModelParams(**grads)``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(per_sample_weights, dtype=np.float64)
    h, z = _forward(params, x)
    _, dz, s = _shifted_exp(z)
    dz /= s
    m = len(y)
    dz[np.arange(m), y] -= 1.0
    dz *= (w / m)[:, None]
    grads = params.zeros_like()
    _backward(params, x, h, dz, grads)
    return grads.tensors()


def sgd_step(params: ModelParams, grads: ModelParams, lr: float, momentum: float,
             weight_decay: float, velocity: ModelParams, update_bias: bool = True) -> None:
    """v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v.

    ``grads`` and ``velocity`` are laid out like ``params``; ``grads`` is
    left as it is. With ``update_bias`` off the step covers only the slots
    before ``bias_start``, so the biases and their velocity do not move.
    """
    stop = None if update_bias else params.bias_start
    p, v = params.flat[:stop], velocity.flat[:stop]
    step = p * weight_decay
    step += grads.flat[:stop]
    v *= momentum
    v += step
    np.multiply(v, lr, out=step)
    p -= step


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
    # The epoch end: the sets it evaluates, the training rows in stable
    # label order, and its per-run buffers. The test buffers are the first
    # rows of the training ones, which the training set's report is done
    # with by the time the test accuracy runs.
    train: Dataset
    test: Dataset | None
    sorted_x: np.ndarray  # (n, d) train.x itself when the labels are already in order
    sorted_y: np.ndarray  # (n,) non-decreasing
    offsets: np.ndarray  # (C + 1,) class k holds sorted rows offsets[k]:offsets[k + 1]
    features: np.ndarray  # (n, p) the hidden features, then NC1's centred features
    logits: np.ndarray  # (n, C)
    scratch: np.ndarray  # (n, C) the cross entropy's exp, then NC4's squared distances
    test_features: np.ndarray | None  # (n_test, p), unused by the linear model
    test_logits: np.ndarray | None  # (n_test, C)


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


def prepare_run(config: TrainConfig, train: Dataset,
                test: Dataset | None = None) -> tuple[TrainState, RunContext]:
    """Initialize parameters, optimizer state, and per-run caches.

    ``train_epoch`` needs ``test``, the set whose per-class accuracy each
    epoch reports; a run that only takes batch steps can leave it out.
    """
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

    y = train.y
    if (y[1:] >= y[:-1]).all():
        sorted_x, sorted_y = train.x, y
    else:
        order = np.argsort(y, kind="stable")  # rows of each class keep their order
        sorted_x, sorted_y = train.x[order], y[order]
    n, c = len(train), train.class_count
    n_test = 0 if test is None else len(test)
    features = np.empty((max(n, n_test), config.hidden_dim or train.input_dim))
    logits = np.empty((max(n, n_test), c))

    params = init_params(train.class_count, train.input_dim, config.hidden_dim, config.seed)
    state = TrainState(params=params, velocity=params.zeros_like(), grads=params.zeros_like(),
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
        train=train,
        test=test,
        sorted_x=np.asarray(sorted_x, dtype=np.float64),
        sorted_y=sorted_y,
        offsets=np.concatenate(([0], np.cumsum(counts.per_class))),
        features=features[:n],
        logits=logits[:n],
        scratch=np.empty((n, c)),
        test_features=None if test is None else features[:n_test],
        test_logits=None if test is None else logits[:n_test],
    )
    return state, ctx


def _lr_at(ctx: RunContext, epoch: int, iteration: int) -> float:
    if ctx.mile is not None:
        return scheduler.mile_lr_at(iteration, ctx.mile)
    return scheduler.multistep_lr_at(epoch, ctx.multistep)


def _base_losses(ctx: RunContext, h, z, y):
    """Per-sample base losses, stop-gradient weights, and dloss/dlogits rows.

    The weights are the method's static multipliers (or the IB
    attenuation, or focal alpha); they scale the losses and the rows at
    composition time and get no gradient. The softmax and the cross
    entropy share one exp and one row sum, and the dlogits rows are built
    in the softmax's buffer.
    """
    method = ctx.config.method
    rows = np.arange(len(y))
    zmax, probs, s = _shifted_exp(z)
    probs /= s
    if ctx.base_method == "focal":
        p_t = np.clip(probs[rows, y], 1e-300, 1.0)
        one_m = 1.0 - p_t
        decay = one_m ** method.focal_gamma
        ell = decay * (-np.log(p_t))
        # d(loss)/dz_k = gcoef * (delta_tk - p_k); gcoef = -1 recovers plain CE.
        gcoef = -decay
        if method.focal_gamma > 0:
            pos = one_m > 0
            gcoef[pos] += (method.focal_gamma * p_t[pos] * np.log(p_t[pos])
                           * one_m[pos] ** (method.focal_gamma - 1.0))
        probs *= -gcoef[:, None]
        probs[rows, y] += gcoef
        weights = np.full(len(y), 1.0 if method.focal_alpha is None else method.focal_alpha)
        return ell, weights, probs
    ell = _ce(z, rows, y, zmax, s)
    if ctx.class_weights is not None:
        weights = ctx.class_weights[y]
    elif ctx.base_method == "ib":
        # Influence factor |p - onehot|_1 |h|_1 = 2(1 - p_t) |h|_1, used as
        # a per-sample attenuation treated as constant by the gradient.
        influence = 2.0 * (1.0 - probs[rows, y]) * np.abs(h).sum(axis=1)
        weights = ctx.ib_lambda[y] / (influence + method.ib_eps)
    else:
        weights = np.ones(len(y))
    probs[rows, y] -= 1.0
    return ell, weights, probs


def _batch_update(state: TrainState, ctx: RunContext, x, y, epoch: int, lr: float) -> float:
    config = ctx.config
    params = state.params
    h, z = _forward(params, x)
    ell, weights, dz = _base_losses(ctx, h, z, y)

    coef = weights
    if ctx.inverse_active:
        # Batch-appearance counters accumulate from epoch 0.
        sizes = np.bincount(y, minlength=len(state.batch_counts))
        state.batch_counts += sizes > 0
        if epoch >= config.reweight.switch_epoch:
            w_hat = reweighting._solve(weights * ell, y, sizes, state.batch_counts, ctx.prior,
                                       config.reweight, config.reweight_mode)
            coef = weights * w_hat[y]

    m = len(y)
    loss = float((coef * ell).sum() / m)  # np.mean's sum and division, without its overhead
    dz *= (coef / m)[:, None]

    dh_extra = None
    if ctx.base_method == "range":
        method = config.method
        range_val, range_grad = baselines.range_loss_grad(
            h, y, method.range_k, method.range_margin, method.range_alpha, method.range_beta)
        loss += method.range_lambda * range_val
        if params.hidden_weights is not None:
            dh_extra = method.range_lambda * range_grad

    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss at epoch {epoch}, iteration {state.iteration}")

    _backward(params, x, h, dz, state.grads, dh_extra)
    sgd_step(params, state.grads, lr, config.momentum, config.weight_decay,
             state.velocity, update_bias=config.use_bias)
    state.iteration += 1
    return loss


def _per_class_accuracy(params: ModelParams, dataset: Dataset, h_out, z_out) -> np.ndarray:
    _, z = _forward(params, dataset.x, h_out, z_out)
    hits = np.bincount(dataset.y, weights=z.argmax(axis=1) == dataset.y, minlength=dataset.class_count)
    return hits / dataset.counts.per_class


def _epoch_report(state: TrainState, ctx: RunContext, epoch: int) -> NcReport:
    """The collapse metrics and rho of the training set, computed in
    stable label order in the run's buffers (see the module docstring)."""
    params, counts = state.params, ctx.counts
    h, z = _forward(params, ctx.sorted_x, ctx.features, ctx.logits)
    ce = _ce_from_logits(z, ctx.sorted_y, ctx.scratch)
    per_class = np.bincount(ctx.sorted_y, weights=ce, minlength=len(counts)) / counts.per_class
    bank = FeatureBank(class_ids=tuple(range(len(counts))), features=h, offsets=ctx.offsets)
    try:
        return make_report(params.weights, z, bank, per_class, epoch,
                           distances=ctx.scratch, centred=ctx.features)
    except ValueError as exc:
        raise NumericError(f"metric computation failed after epoch {epoch}: {exc}") from exc


def train_epoch(state: TrainState, train: Dataset, test: Dataset, epoch: int,
                config: TrainConfig, ctx: RunContext) -> EpochRecord:
    """One pass over the training set plus epoch-end evaluation.

    ``train`` and ``test`` must be the sets that ``prepare_run`` was given.
    """
    if train is not ctx.train or test is not ctx.test:
        raise ValueError("train_epoch needs the train and test sets that prepare_run was given")
    total, seen = 0.0, 0
    last_lr = float("nan")
    epoch_seed = config.seed * 1_000_003 + epoch
    for idx in batch_iter(train, config.batch_size, epoch_seed):
        last_lr = _lr_at(ctx, epoch, state.iteration)
        loss = _batch_update(state, ctx, train.x[idx], train.y[idx], epoch, last_lr)
        total += loss * len(idx)
        seen += len(idx)
    if not np.isfinite(state.params.flat).all():
        name = next(k for k, v in state.params.tensors().items() if not np.isfinite(v).all())
        raise NumericError(f"non-finite {name} after epoch {epoch}")

    report = _epoch_report(state, ctx, epoch)
    per_class_acc = _per_class_accuracy(state.params, test, ctx.test_features, ctx.test_logits)
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
    state, ctx = prepare_run(config, train, test)
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
