"""Desk-scale training loop: a linear softmax classifier, optionally after
one ReLU hidden layer, trained by SGD with momentum and weight decay, each
run deterministic in its seed. The R seeds of one ``TrainConfig`` train in
lockstep as one stack, and one seed is the stack of one (see the README).

The batches index the training rows in their original order, but each
epoch end reads them in ``FeatureBank.from_labels``' class order: it is
the order that ``nc-eval`` reads a run's dumps in, so the metrics sum
alike and ``nc-eval`` reproduces them to the bit, and it makes each class
one contiguous block of the bank.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baselines, reweighting
from .baselines import BASE_METHODS
from .data import Dataset, batch_iter
from .errors import ConfigError, DataError, NumericError, check_ranges
from .nc_metrics import FeatureBank, make_report
from .reweighting import ReweightConfig
from .scheduler import LrSpec, learning_rates

__all__ = [
    "VALID_METHODS",
    "ModelParams",
    "MethodConfig",
    "TrainConfig",
    "TrainState",
    "EpochRecord",
    "init_params",
    "forward",
    "backward",
    "sgd_step",
    "prepare_run",
    "train_epoch",
    "run_experiment",
]

VALID_METHODS = BASE_METHODS + ("inverse",)


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

    A stack of R runs (``ModelParams.stack``) has an (R, P) buffer: each
    tensor gains a leading run axis, ``bias_start`` is an offset within a
    row, and ``params[r]`` is run r, views of row r.
    """

    __slots__ = ("flat", "bias_start") + _LAYOUT

    def __init__(self, weights, bias, hidden_weights=None, hidden_bias=None):
        if (hidden_weights is None) != (hidden_bias is None):
            raise ValueError("hidden_weights and hidden_bias must be given together")
        given = dict(weights=weights, bias=bias, hidden_weights=hidden_weights, hidden_bias=hidden_bias)
        arrays = {k: np.asarray(given[k], dtype=np.float64) for k in _LAYOUT if given[k] is not None}
        lead = arrays["weights"].shape[:-2]  # the run axis of a stack, else ()
        self._bind(np.concatenate([a.reshape(lead + (-1,)) for a in arrays.values()], axis=-1),
                   {k: a.shape[len(lead):] for k, a in arrays.items()})

    @classmethod
    def stack(cls, runs) -> "ModelParams":
        """The given runs' parameters, copied into the rows of one (R, P) buffer."""
        return runs[0]._with_buffer(np.stack([run.flat for run in runs]))

    def _bind(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> None:
        lead = flat.shape[:-1]
        offset = 0
        for name in _LAYOUT:
            if name == "bias":
                object.__setattr__(self, "bias_start", offset)
            view = None
            if name in shapes:
                size = math.prod(shapes[name])
                view = flat[..., offset:offset + size].reshape(lead + shapes[name])
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

    def __getitem__(self, r: int) -> "ModelParams":
        """Run r of a stack: views of row r of the buffer."""
        if self.flat.ndim != 2:
            raise TypeError("only a stack of runs can be indexed")
        return self._with_buffer(self.flat[r])

    def tensors(self) -> dict[str, np.ndarray]:
        """The present tensors by name, in buffer order."""
        return {name: getattr(self, name) for name in _LAYOUT if getattr(self, name) is not None}

    def _with_buffer(self, flat: np.ndarray) -> "ModelParams":
        """The same per-run layout over ``flat``, (P,) or a stack's (R, P)."""
        new = object.__new__(ModelParams)
        lead = self.flat.ndim - 1
        new._bind(flat, {name: arr.shape[lead:] for name, arr in self.tensors().items()})
        return new

    def zeros_like(self) -> "ModelParams":
        """A zero buffer of the same layout (velocity, gradient)."""
        return self._with_buffer(np.zeros_like(self.flat))


@dataclass(frozen=True)
class MethodConfig:
    """Base loss selector and its hyper-parameters."""

    name: str = "ce"
    cb_beta: float = 0.9999
    focal_gamma: float = 2.0
    focal_alpha: float = 1.0
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
        check_ranges(self, cb_beta="[0, 1)", focal_gamma="[0, inf)", focal_alpha="(0, inf)", ib_eps="(0, inf)",
                     ib_alpha_scale="(0, inf)", range_k="[1, inf)", range_margin="(0, inf)",
                     range_alpha="[0, inf)", range_beta="[0, inf)", range_lambda="[0, inf)")


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
    lr: LrSpec = field(default_factory=LrSpec)

    def __post_init__(self):
        check_ranges(self, epochs="[1, inf)", batch_size="[1, inf)", momentum="[0, 1)", weight_decay="[0, inf)",
                     seed="[0, inf)", hidden_dim="[0, inf)")
        if self.lr.schedule == "mile" and self.epochs <= self.lr.warmup_epochs:
            raise ConfigError(f"epochs = {self.epochs} leaves no epoch after the mile schedule's "
                              f"warmup_epochs = {self.lr.warmup_epochs}")


@dataclass
class TrainState:
    """Optimizer state of the R runs of one stack (see the module docstring)."""

    params: ModelParams  # a stack: tensors (R, ...) over one (R, P) buffer
    velocity: ModelParams  # momentum buffer, laid out as params
    grads: ModelParams  # gradient buffer each batch's backward pass writes
    batch_counts: np.ndarray  # (R, C) int64 batch-appearance counters B_c
    iteration: int = 0

    def run(self, r: int) -> "TrainState":
        """Run r's state, views of row r of every buffer, for reading its
        parameters; the stack's own state is the one that trains."""
        return TrainState(self.params[r], self.velocity[r], self.grads[r], self.batch_counts[r],
                          self.iteration)


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch log row in the metrics CSV's column order: every field but
    epoch, train_loss and lr is ``_epoch_report``'s, rho on ``make_report``'s."""

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


def forward(params: ModelParams, x: np.ndarray, h_out=None, z_out=None):
    """Features and logits of one run, or of a stack with (R, B, d) inputs,
    written into ``h_out`` and ``z_out`` when given (the epoch end's
    buffers) and into fresh arrays otherwise. The hidden ReLU runs in place
    over the pre-activation, whose sign pattern it keeps: h > 0 exactly
    where pre > 0. The linear model's features are x itself, and it leaves
    ``h_out`` alone."""
    h = x
    if params.hidden_weights is not None:
        h = np.matmul(x, params.hidden_weights.swapaxes(-1, -2), out=h_out)
        h += params.hidden_bias[..., None, :]
        np.maximum(h, 0.0, out=h)
    z = np.matmul(h, params.weights.swapaxes(-1, -2), out=z_out)
    z += params.bias[..., None, :]
    return h, z


def _shifted_exp(z: np.ndarray, out=None, zmax=None):
    """Row max (unless given), exp(z - max) (in ``out`` when given) and its
    row sum: the one exp and row sum that the softmax and the cross entropy share."""
    zmax = z.max(axis=-1, keepdims=True) if zmax is None else zmax
    e = np.subtract(z, zmax, out=out)
    np.exp(e, out=e)
    return zmax, e, e.sum(axis=-1, keepdims=True)


def _ce(z_target, zmax, s) -> np.ndarray:
    """Per-sample cross entropy max + log(sum exp(z - max)) - z_y (underflow
    safe), from the target logits z_y."""
    return zmax[..., 0] + np.log(s[..., 0]) - z_target


def _ce_from_logits(z: np.ndarray, y: np.ndarray, out=None, argmax=None) -> np.ndarray:
    """Per-sample cross entropy, its exp in ``out`` (may be ``z``); ``argmax`` locates the row max."""
    rows = np.arange(len(y))
    z_target = z[rows, y]
    zmax, _, s = _shifted_exp(z, out, None if argmax is None else z[rows, argmax, None])
    return _ce(z_target, zmax, s)


def backward(params: ModelParams, x, h, dz, grads: ModelParams, dh_extra=None) -> None:
    """Write the gradients of the loss whose dlogits rows are ``dz`` into
    ``grads``; ``dh_extra`` is a further gradient w.r.t. the features ``h``
    that ``forward`` returned for ``x``. Works on one run or a stack. The
    hidden model's features are spent by then, and their buffer takes the
    feature gradient: ``h`` is overwritten. Weight decay is left to
    ``sgd_step``."""
    np.matmul(dz.swapaxes(-1, -2), h, out=grads.weights)
    dz.sum(axis=-2, out=grads.bias)
    if params.hidden_weights is not None:
        active = h > 0  # the ReLU's derivative: the pre-activation's sign pattern
        dh = np.matmul(dz, params.weights, out=h)
        if dh_extra is not None:
            dh += dh_extra
        dh *= active
        np.matmul(dh.swapaxes(-1, -2), x, out=grads.hidden_weights)
        dh.sum(axis=-2, out=grads.hidden_bias)


def sgd_step(params: ModelParams, grads: ModelParams, lr: float, momentum: float,
             weight_decay: float, velocity: ModelParams, update_bias: bool = True) -> None:
    """v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v.

    ``grads`` and ``velocity`` are laid out like ``params``, one run or a
    stack; ``grads`` is left as it is. With ``update_bias`` off the step
    covers only the slots before ``bias_start`` of each row, so the biases
    and their velocity do not move.
    """
    stop = None if update_bias else params.bias_start
    p, v = params.flat[..., :stop], velocity.flat[..., :stop]
    step = p * weight_decay
    step += grads.flat[..., :stop]
    v *= momentum
    v += step
    np.multiply(v, lr, out=step)
    p -= step


@dataclass
class RunContext:
    """Dataset-derived caches shared by every epoch and run of one stack."""

    config: TrainConfig
    seeds: tuple[int, ...]  # run r trains with seed seeds[r]
    base_method: str
    class_weights: np.ndarray  # (C,) the base loss's per-class multipliers (IB's before its influence)
    prior: np.ndarray  # (R, C) inverse-solve prior w0 of each run: ones, or count-based class weights
    slot_offsets: np.ndarray  # (R, 1) r * C: run r's class c is slot r * C + c of the stack
    lrs: list[float]  # the learning rate of every iteration of the run
    groups: tuple[np.ndarray, np.ndarray, np.ndarray]  # head/med/tail class ids
    # The epoch end: the sets it evaluates, the training rows in stable label
    # order, and its bank and buffers, which the runs use in turn: the training
    # set takes their first n rows, and then the test set their first n_test.
    train: Dataset
    test: Dataset | None
    sorted_x: np.ndarray  # (n, d) train.x itself when the labels are already in order
    sorted_y: np.ndarray  # (n,) non-decreasing
    bank: FeatureBank  # over sorted_x for the linear model, else over ``features[:n]``
    features: np.ndarray  # (max(n, n_test), p) the hidden features, then NC1's centred features
    logits: np.ndarray  # (max(n, n_test), C) the logits, their exp, NC4's scratch, then NC1's work


def _tercile_groups(counts: np.ndarray):
    """Class ids split into head/med/tail terciles by descending count,
    ties in class order."""
    return tuple(np.array_split(np.argsort(-counts, kind="stable"), 3))


def _class_weights(method: MethodConfig, name: str, counts: np.ndarray) -> np.ndarray:
    """The (C,) class weights that base loss ``name`` multiplies each sample's
    loss by: count-based, IB's coefficients, focal alpha in every slot, or ones."""
    if name == "inv_freq":
        return baselines.inv_freq_weights(counts)
    if name == "inv_sqrt":
        return baselines.inv_sqrt_weights(counts)
    if name == "cb":
        return baselines.cb_weights(counts, method.cb_beta)
    if name == "ib":
        return baselines.ib_class_coefficients(counts, method.ib_alpha_scale)
    return np.full(len(counts), method.focal_alpha if name == "focal" else 1.0)


def prepare_run(config: TrainConfig, train: Dataset, test: Dataset | None = None,
                seeds=None) -> tuple[TrainState, RunContext]:
    """Initialize the parameters, the optimizer state and the caches of a
    stack with one run per seed in ``seeds`` (default: ``config.seed``
    alone), each initialized from its own seed.

    ``train_epoch`` needs ``test``, the set whose per-class accuracy each
    epoch reports, and with it at least 3 training classes, one for each of
    the head, med and tail groups; a run that only takes batch steps can
    leave ``test`` out.
    """
    seeds = (config.seed,) if seeds is None else tuple(seeds)
    if not seeds:
        raise ValueError("a stack needs at least one seed")
    if test is not None and train.class_count < 3:
        raise DataError(f"the training set has {train.class_count} classes; the head, med and "
                        "tail accuracies need at least 3")
    method = config.method
    base_name = config.reweight.base if method.name == "inverse" else method.name
    counts = train.counts
    class_weights = _class_weights(method, base_name, counts)
    # With use_base_prior, w0 is the base's class weights where they are count-based; else ones.
    count_based = base_name in ("inv_freq", "inv_sqrt", "cb")
    prior = class_weights if config.reweight.use_base_prior and count_based else np.ones(len(counts))

    sorted_train = FeatureBank.from_labels(train.x, train.y)  # the class order that nc-eval uses too
    n, c = len(train), train.class_count
    n_test = 0 if test is None else len(test)
    features = np.empty((max(n, n_test), config.hidden_dim or train.input_dim))
    logits = np.empty((max(n, n_test), c))

    params = ModelParams.stack([init_params(c, train.input_dim, config.hidden_dim, seed)
                                for seed in seeds])
    state = TrainState(params=params, velocity=params.zeros_like(), grads=params.zeros_like(),
                       batch_counts=np.zeros((len(seeds), c), dtype=np.int64))
    ctx = RunContext(
        config=config,
        seeds=seeds,
        base_method=base_name,
        class_weights=class_weights,
        prior=np.broadcast_to(prior, (len(seeds), c)),  # one row for every run, not copied
        slot_offsets=c * np.arange(len(seeds))[:, None],
        lrs=learning_rates(config.lr, config.epochs, math.ceil(len(train) / config.batch_size), counts),
        groups=_tercile_groups(counts),
        train=train,
        test=test,
        sorted_x=sorted_train.features,
        sorted_y=np.repeat(np.arange(c), counts),
        bank=FeatureBank(features[:n], sorted_train.offsets) if config.hidden_dim else sorted_train,
        features=features,
        logits=logits,
    )
    return state, ctx


def _base_losses(ctx: RunContext, h, z, y):
    """Per-sample base losses, stop-gradient weights, and dloss/dlogits rows
    of a stack's batches: ``z`` (R, B, C) and ``y`` (R, B) give (R, B),
    (R, B) and (R, B, C).

    The weights are the base's class weights, gathered per sample, which
    IB divides by each sample's influence; they scale the losses and the
    rows at composition time and get no gradient. The softmax and the cross
    entropy share one exp and one row sum, and the softmax and then the
    dlogits rows are built in the logits' buffer: ``z`` is overwritten.
    """
    method = ctx.config.method
    # Flat offsets of the target logits: z.reshape(-1)[target] is (R, B). The
    # logits are forward's fresh C-contiguous output, so the reshape is a view.
    runs, m = y.shape
    target = y + np.arange(0, z.size, z.shape[-1]).reshape(runs, m)
    z_target = z.reshape(-1)[target]
    zmax, probs, s = _shifted_exp(z, out=z)
    probs /= s
    flat = probs.reshape(-1)
    weights = ctx.class_weights[y]
    ell = _ce(z_target, zmax, s)  # -log p_t, finite where p_t underflows
    if ctx.base_method == "focal":
        p_t = flat[target]
        one_m = 1.0 - p_t
        decay = one_m ** method.focal_gamma
        # d(loss)/dz_k = gcoef * (delta_tk - p_k); gcoef = -1 recovers plain CE.
        gcoef = -decay
        if method.focal_gamma > 0:
            pos = one_m > 0
            gcoef[pos] -= (method.focal_gamma * p_t[pos] * ell[pos]
                           * one_m[pos] ** (method.focal_gamma - 1.0))
        probs *= -gcoef[..., None]
        flat[target] += gcoef
        return decay * ell, weights, probs
    if ctx.base_method == "ib":
        # Influence factor |p - onehot|_1 |h|_1 = 2(1 - p_t) |h|_1, used as
        # a per-sample attenuation treated as constant by the gradient.
        weights /= 2.0 * (1.0 - flat[target]) * np.abs(h).sum(axis=-1) + method.ib_eps
    flat[target] -= 1.0
    return ell, weights, probs


def _batch_update(state: TrainState, ctx: RunContext, x, y, epoch: int, lr: float) -> np.ndarray:
    """One SGD step of every run of the stack on its own batch: ``x``
    (R, B, d) and ``y`` (R, B). Returns each run's reweighted mean loss."""
    config = ctx.config
    params = state.params
    h, z = forward(params, x)
    ell, weights, dz = _base_losses(ctx, h, z, y)

    coef = weights
    if config.method.name == "inverse":
        # One bincount over the class slots sizes every run's classes.
        counts = state.batch_counts
        slots = y + ctx.slot_offsets
        sizes = np.bincount(slots.ravel(), minlength=counts.size).reshape(counts.shape)
        # Batch-appearance counters accumulate from epoch 0.
        counts += sizes > 0
        if epoch >= config.reweight.switch_epoch:
            w_hat = reweighting.inverse_weights(weights * ell, slots, sizes, counts, ctx.prior, config.reweight)
            coef = weights * w_hat.ravel()[slots]

    m = y.shape[1]
    loss = np.add.reduce(coef * ell, axis=-1) / m  # np.mean's sum and division, without its overhead
    dz *= (coef / m)[..., None]

    dh_extra = None
    if ctx.base_method == "range":
        method = config.method
        values, grads = zip(*(baselines.range_loss_grad(h_r, y_r, method.range_k, method.range_margin,
                                                        method.range_alpha, method.range_beta)
                              for h_r, y_r in zip(h, y)))
        loss += method.range_lambda * np.array(values)
        if params.hidden_weights is not None:
            dh_extra = method.range_lambda * np.stack(grads)

    if not all(map(math.isfinite, loss.tolist())):
        seed = ctx.seeds[int(np.argmin(np.isfinite(loss)))]
        raise NumericError(f"seed {seed}: non-finite loss at epoch {epoch}, iteration {state.iteration}")

    backward(params, x, h, dz, state.grads, dh_extra)
    sgd_step(params, state.grads, lr, config.momentum, config.weight_decay,
             state.velocity, update_bias=config.use_bias)
    state.iteration += 1
    return loss


def _epoch_report(params: ModelParams, ctx: RunContext) -> dict[str, float]:
    """Every ``EpochRecord`` field of one run but epoch, train_loss and lr:
    the training set's collapse metrics and rho, in class order over the
    stack's one bank, then the test set's accuracies. No (n, p) or (n, C)
    float array is allocated: one argmax of the logits gives the cross
    entropy's row max and NC4's predictions, the exp overwrites the logits,
    whose buffer then is NC4's scratch and takes NC1's projections, NC1 last
    centres the features in place, and the test rows reuse both buffers'
    first rows. A metric that cannot be computed raises ValueError."""
    n = len(ctx.train)
    _, z = forward(params, ctx.sorted_x, ctx.features[:n], ctx.logits[:n])
    pred = z.argmax(axis=1)
    ce = _ce_from_logits(z, ctx.sorted_y, out=z, argmax=pred)
    per_class = np.bincount(ctx.sorted_y, weights=ce) / ctx.train.counts  # every class has rows
    report = make_report(params.weights, pred, ctx.bank, per_class, work=z, centred=ctx.features[:n])
    test, m = ctx.test, len(ctx.test)
    _, z = forward(params, test.x, ctx.features[:m], ctx.logits[:m])
    acc = np.bincount(test.y, weights=z.argmax(axis=1) == test.y, minlength=test.class_count) / test.counts
    head, med, tail = ctx.groups
    return dict(report, bal_acc=float(acc.mean()), acc_head=float(acc[head].mean()),
                acc_med=float(acc[med].mean()), acc_tail=float(acc[tail].mean()))


def _train_batches(state: TrainState, ctx: RunContext, epoch: int) -> tuple[list[float], float]:
    """One pass of every run of the stack over the training set, each in
    its own seeded order. Returns each run's mean training loss and the
    last learning rate. (A function of its own, so that the epoch's
    (R, n) batch order is freed before the epoch end runs.)"""
    train = ctx.train
    totals, seen = [0.0] * len(ctx.seeds), 0
    lr = float("nan")
    epoch_seeds = [seed * 1_000_003 + epoch for seed in ctx.seeds]
    for idx in batch_iter(train, ctx.config.batch_size, epoch_seeds):  # (R, B), row r in seed r's order
        lr = ctx.lrs[state.iteration]
        loss = _batch_update(state, ctx, train.x.take(idx, axis=0), train.y[idx], epoch, lr)
        m = idx.shape[1]
        totals = [total + run_loss * m for total, run_loss in zip(totals, loss.tolist())]
        seen += m
    return [total / seen for total in totals], lr


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite value raises NumericError
def train_epoch(state: TrainState, ctx: RunContext, epoch: int) -> list[EpochRecord]:
    """One pass of every run of the stack over the sets that ``prepare_run``
    was given: each run's batches in its own seeded order, then its
    epoch-end evaluation. Returns the runs' records in seed order. A stack
    that has run every epoch of its learning-rate schedule, or that
    ``prepare_run`` was given no test set for, raises ValueError before
    any batch step."""
    if state.iteration >= len(ctx.lrs):
        raise ValueError(f"the learning-rate schedule covers {ctx.config.epochs} epoch(s), "
                         f"and the stack has run them all")
    if ctx.test is None:
        raise ValueError("the stack has no test set to evaluate each epoch on; pass one to prepare_run")
    train_losses, last_lr = _train_batches(state, ctx, epoch)
    if not np.isfinite(state.params.flat).all():
        r = int(np.argmin(np.isfinite(state.params.flat).all(axis=1)))
        name = next(k for k, v in state.params[r].tensors().items() if not np.isfinite(v).all())
        raise NumericError(f"seed {ctx.seeds[r]}: non-finite {name} after epoch {epoch}")

    records = []
    for r, seed in enumerate(ctx.seeds):
        try:
            report = _epoch_report(state.params[r], ctx)
        except ValueError as exc:
            raise NumericError(f"seed {seed}: metric computation failed after epoch {epoch}: "
                               f"{exc}") from exc
        records.append(EpochRecord(epoch=epoch, train_loss=train_losses[r], lr=last_lr, **report))
    return records


def run_experiment(config: TrainConfig, train: Dataset, test: Dataset, seeds=None):
    """Full training run of ``config`` for each seed in ``seeds``, trained
    in lockstep as one stack; each seed's outputs equal those of a run of
    that seed alone.

    Returns one triple per seed, in order: the per-epoch records, a
    summary of the final epoch, and the run's finished state (views of its
    row of the stack, for parameter dumps). Without ``seeds`` it trains
    ``config.seed`` alone, and the list holds that one triple.
    """
    state, ctx = prepare_run(config, train, test, seeds)
    epochs = [train_epoch(state, ctx, e) for e in range(config.epochs)]
    results = []
    for r, seed in enumerate(ctx.seeds):
        records = [runs[r] for runs in epochs]
        # The last record's accuracy, collapse metrics (rho as rho_final), then group accuracies.
        last = asdict(records[-1])
        summary = {"method": config.method.name, "seed": seed, "bal_acc": last["bal_acc"],
                   "rho_final": last["rho"]}
        summary.update((k, v) for k, v in last.items() if k.startswith("nc"))
        summary.update((k, v) for k, v in last.items() if k.startswith("acc_"))
        results.append((records, summary, state.run(r)))
    return results
