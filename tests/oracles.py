"""Reference forms that the tests check ``ltlab`` against, and the
fixtures they check it on.

``softmax`` and ``weighted_ce_dlogits`` give the softmax and the weighted
cross entropy's dlogits rows the plain way. No base loss is copied here:
``trainer_losses`` runs the trainer's own kernel, ``trainer._base_losses``,
on one batch, so that the focal, influence-balanced and cross-entropy
properties are checked on the losses that train.

``central_difference`` is the finite-difference reference for every
gradient, ``closed_form_where`` the closed-form weight with every corner
taken by ``np.where``, and ``inverse_weights_ref`` the inverse solve of one
batch built on it, the one reference for ``reweighting.inverse_weights``.

``case`` makes a row of a module's value table (``SOLVE_CASES``,
``KERNEL_CASES``, ``SCHEDULE_CASES``, ``BASE_LOSS_CASES``, ``METRIC_CASES``,
``ETF_CASES``, ``PINV_CASES``), and ``assert_close`` compares a row's values:
bit for bit, or to a relative tolerance. ``rejected`` makes a row of a
module's ``REJECTED_*_ARGS`` table, checked by ``pytest.raises``.

``make_nc_fixture`` constructs a feature/classifier snapshot that sits
exactly at the collapsed end-state: all features at their class means,
class means on a simplex ETF around the global mean, and classifier rows
aligned with the centered means. At that configuration every class has
the same average cross-entropy loss, which ``fixture_class_losses``
computes with the trainer's cross entropy as the epoch-end report does;
``fixture_bank`` gives its features as a ``FeatureBank``.

``nc1_exact`` gives NC1 in exact rational arithmetic, the one reference
that ``nc_metrics.nc1`` is checked against.

``ml_quadrature`` gives the Mittag-Leffler decay value E_a(-z) by
Gauss-Legendre quadrature of its spectral integral, independent of the
series and the asymptotic tail in ``scheduler``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ltlab.etf import make_etf
from ltlab.linalg import pinv
from ltlab.nc_metrics import FeatureBank
from ltlab.trainer import MethodConfig, _base_losses, _ce_from_logits, _class_weights


def softmax(z):
    """Row-wise softmax of the logits (max-shifted, so it cannot overflow)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def weighted_ce_dlogits(z, y, w):
    """dloss/dlogits of mean(w_i * ce_i) over the m rows of ``z``: the
    softmax minus the one-hot targets, times w / m."""
    dz = softmax(z)
    m = len(y)
    dz[np.arange(m), y] -= 1.0
    dz *= (w / m)[:, None]
    return dz


def central_difference(arr, loss, h):
    """(loss() at a + h - loss() at a - h) / 2h for every entry a of
    ``arr``, which is perturbed in place and restored bit for bit."""
    fd = np.zeros_like(arr)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + h
        up = loss()
        arr[i] = orig - h
        down = loss()
        arr[i] = orig
        fd[i] = (up - down) / (2 * h)
    return fd


def closed_form_where(l_c, l_bar, alpha, w0):
    """The closed-form weight (l_bar l_c + alpha w0) / (l_c^2 + alpha) as
    one np.where composition, every corner on every call: l_bar / l_c at
    alpha = 0, and w0 at l_c = 0."""
    l_c, l_bar, alpha, w0 = (np.asarray(v, dtype=np.float64) for v in (l_c, l_bar, alpha, w0))
    anchored, zero = alpha > 0, l_c == 0
    with np.errstate(over="ignore"):
        num = np.where(anchored, l_bar * l_c + alpha * w0, l_bar)
        den = np.where(anchored, l_c * l_c + alpha, l_c)
        return np.where(zero, w0, num / np.where(zero, 1.0, den))


def inverse_weights_ref(losses, labels, batch_counts, prior, config):
    """The inverse solve's w_hat (C,) for one batch, the plain way: class
    means by ``np.bincount``, w_star by ``closed_form_where`` and beta =
    B_c^-gamma over its mean, composed as ``config.mode`` says; absent
    classes get 1."""
    n = np.bincount(labels, minlength=len(batch_counts))
    present = n > 0
    w_hat = np.ones(len(batch_counts))
    if config.mode != "macro":
        l_c = np.bincount(labels, weights=losses, minlength=len(n))[present] / n[present]
        w_hat[present] = closed_form_where(l_c, l_c.mean(), config.alpha, prior[present])
    if config.mode != "batch":
        beta = batch_counts[present].astype(np.float64) ** -config.gamma
        w_hat[present] *= beta / beta.mean()
    return w_hat


def case(name, got, want, rel=0.0):
    """A table row: ``got()`` equals ``want()`` to relative ``rel``, 0 meaning bit for bit."""
    return pytest.param(got, want, rel, id=name)


def rejected(name, call, error, match):
    """A table row: ``call()`` raises ``error`` with a message that ``match`` searches."""
    return pytest.param(call, error, match, id=name)


def assert_close(got, want, rel):
    """``got`` equals ``want``, a scalar or of ``got``'s shape: bit for bit
    at ``rel`` 0, else to relative ``rel`` with no absolute slack."""
    assert np.shape(want) in ((), np.shape(got)), (got, want)
    if rel:
        assert np.allclose(got, want, rtol=rel, atol=0.0), (got, want)
    else:
        assert np.all(np.asarray(got) == want), (got, want)


def trainer_losses(name, logits, targets, features=None, **hyper) -> np.ndarray:
    """Each row's loss for base ``name`` as ``trainer._base_losses``
    weights it, on a one-run batch: the (B, C) ``logits``, the (B,)
    ``targets`` and the (B, p) ``features`` (default one 1.0 per row), which
    only IB reads. The class weights come from ``_class_weights`` for one
    sample per class, as ``prepare_run`` builds them, and ``hyper`` sets the
    ``MethodConfig`` hyper-parameters."""
    z = np.array(logits, dtype=np.float64, ndmin=2)  # a copy: _base_losses overwrites it
    y = np.asarray(targets).reshape(-1)
    h = np.ones((len(y), 1)) if features is None else np.array(features, dtype=np.float64, ndmin=2)
    method = MethodConfig(name=name, **hyper)
    ctx = SimpleNamespace(config=SimpleNamespace(method=method), base_method=name,
                          class_weights=_class_weights(method, name, np.ones(z.shape[1], dtype=np.int64)))
    ell, weights, _ = _base_losses(ctx, h[None], z[None], y[None])
    return (weights * ell)[0]


@dataclass(frozen=True)
class NcFixture:
    """A snapshot with zero within-class scatter and self-dual classifier.

    ``features[c]`` holds n identical copies of the class-c mean
    ``global_mean + radius * etf[:, c]``. The classifier row c is
    ``alignment_scale * radius * etf[:, c]`` with zero bias.

    The requested global mean is projected onto the orthogonal complement
    of the frame's column span before use; only that component keeps the
    per-class logit pattern (and hence the per-class losses) exactly
    symmetric under a zero-bias linear head.
    """

    etf: np.ndarray  # (p, C), the frame from make_etf
    classifier: np.ndarray  # (C, p)
    features: tuple[np.ndarray, ...]  # per class, (n_per_class, p)
    alignment_scale: float
    radius: float
    global_mean: np.ndarray  # (p,), the projected offset actually used


def etf_gram(etf: np.ndarray) -> np.ndarray:
    """C x C matrix of pairwise inner products of the frame columns."""
    return etf.T @ etf


def make_nc_fixture(
    class_count: int,
    feature_dim: int,
    n_per_class: int,
    scale: float,
    radius: float,
    global_mean=None,
    seed: int = 0,
) -> NcFixture:
    """Place features and classifier exactly at the collapsed geometry.

    ``scale`` is the classifier/mean alignment factor (rows of the
    classifier are scale * centered class means), ``radius`` the common
    norm of the centered class means.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if scale <= 0 or radius <= 0:
        raise ValueError("scale and radius must be positive")
    m = make_etf(class_count, feature_dim, seed)
    if global_mean is None:
        mu_g = np.zeros(feature_dim)
    else:
        mu_g = np.asarray(global_mean, dtype=np.float64)
        if mu_g.shape != (feature_dim,):
            raise ValueError(f"global_mean must have shape ({feature_dim},)")
        # Keep only the component orthogonal to the class-vector span.
        mu_g = mu_g - m @ (pinv(m) @ mu_g)
    feats = []
    for c in range(class_count):
        mean_c = mu_g + radius * m[:, c]
        feats.append(np.tile(mean_c, (n_per_class, 1)))
    classifier = (scale * radius) * m.T
    return NcFixture(
        etf=m,
        classifier=classifier,
        features=tuple(feats),
        alignment_scale=scale,
        radius=radius,
        global_mean=mu_g,
    )


def fixture_bank(fixture: NcFixture) -> FeatureBank:
    """The fixture's features as a bank: class c's rows are block c."""
    sizes = [len(block) for block in fixture.features]
    return FeatureBank.from_labels(np.concatenate(fixture.features), np.repeat(np.arange(len(sizes)), sizes))


def fixture_class_losses(fixture: NcFixture) -> np.ndarray:
    """Average cross-entropy loss per class at the fixture configuration, as
    ``trainer._epoch_report`` computes it: the trainer's per-sample cross
    entropy of the zero-bias logits, summed per class by ``np.bincount``."""
    bank = fixture_bank(fixture)
    counts = np.diff(bank.offsets)
    labels = np.repeat(np.arange(len(counts)), counts)
    return np.bincount(labels, weights=_ce_from_logits(bank.features @ fixture.classifier.T, labels)) / counts


def _row_basis(rows):
    """Linearly independent rows spanning the same space as ``rows``
    (lists of Fractions), by exact Gaussian elimination."""
    basis, pivots = [], []
    for row in rows:
        v = list(row)
        for b, j in zip(basis, pivots):
            if v[j]:
                f = v[j] / b[j]
                v = [a - f * c for a, c in zip(v, b)]
        lead = next((j for j, a in enumerate(v) if a), None)
        if lead is not None:
            basis.append(v)
            pivots.append(lead)
    return basis


def _trace_of_solve(a, w) -> Fraction:
    """trace(a^-1 w) for a nonsingular square ``a``, by exact Gauss-Jordan."""
    r = len(a)
    aug = [list(a[i]) + list(w[i]) for i in range(r)]
    for col in range(r):
        pivot = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col] / head[col]
                aug[i] = [x - f * y for x, y in zip(aug[i], head)]
    return sum(aug[i][r + i] / aug[i][i] for i in range(r))


def nc1_exact(bank: FeatureBank) -> Fraction:
    """NC1 = trace(Sigma_W Sigma_B^+) / C of the bank's features, in exact
    rational arithmetic (every float is a rational number).

    Sigma_B = M^T M / C for the centred class means M. Its pseudo-inverse
    is Sigma_B^+ = B (B^T Sigma_B B)^-1 B^T for any basis B of its range,
    the row space of M (of full rank, it is the inverse), so
    trace(Sigma_W Sigma_B^+) = trace((B^T Sigma_B B)^-1 B^T Sigma_W B).
    NC1 does not change when every feature is scaled by one factor, so the
    features are first scaled to integers by their largest denominator (a
    power of two), and each class's scatter is a sum of integer products.
    """
    ratios = [v.as_integer_ratio() for v in bank.features.ravel().tolist()]
    scale = max(d for _, d in ratios)
    flat = [num * (scale // d) for num, d in ratios]
    p, n, c = bank.feature_dim, len(bank.features), bank.class_count
    offsets = bank.offsets.tolist()
    means, sigma_w = [], [[Fraction(0)] * p for _ in range(p)]
    for start, stop in zip(offsets[:-1], offsets[1:]):
        rows = [flat[i * p:(i + 1) * p] for i in range(start, stop)]
        n_c = stop - start
        sums = [sum(col) for col in zip(*rows)]
        means.append([Fraction(s, n_c) for s in sums])
        scaled = [[n_c * a - s for a, s in zip(row, sums)] for row in rows]  # n_c (h - mu), integers
        for i in range(p):
            for j in range(p):
                sigma_w[i][j] += Fraction(sum(e[i] * e[j] for e in scaled), n * n_c * n_c)
    global_mean = [sum(col, Fraction(0)) / c for col in zip(*means)]
    m = [[a - g for a, g in zip(mu, global_mean)] for mu in means]
    basis = _row_basis(m)
    r = len(basis)
    proj = [[sum((a * b for a, b in zip(row, v)), Fraction(0)) for v in basis] for row in m]  # M B
    between = [[sum((row[i] * row[j] for row in proj), Fraction(0)) / c for j in range(r)]
               for i in range(r)]
    w_basis = [[sum((sigma_w[i][j] * v[j] for j in range(p)), Fraction(0)) for v in basis]
               for i in range(p)]  # Sigma_W B, (p, r)
    within = [[sum((u[i] * w_basis[i][j] for i in range(p)), Fraction(0)) for j in range(r)]
              for u in basis]  # B^T Sigma_W B
    return _trace_of_solve(between, within) / c


_LEGENDRE = np.polynomial.legendre.leggauss(400)


def ml_quadrature(a: float, z: float) -> float:
    """E_a(-z) for 0 < a < 1 and z >= 0 from its spectral form,

        E_a(-z) = sin(a pi) / (a pi) * int_0^inf exp(-(v z)^(1/a)) / (v^2 + 2 v cos(a pi) + 1) dv,

    with 400 Gauss-Legendre nodes on v in [0, 1] and on [1, inf) mapped by
    v = 1/u, where the integrand becomes exp(-(z/u)^(1/a)) / (1 + 2 u cos(a pi) + u^2).
    """
    nodes, weights = _LEGENDRE
    u, c = (nodes + 1.0) / 2.0, math.cos(a * math.pi)
    head = np.exp(-(u * z) ** (1.0 / a)) / (u * u + 2.0 * u * c + 1.0)
    tail = np.exp(-(z / u) ** (1.0 / a)) / (1.0 + 2.0 * u * c + u * u)
    return math.sin(a * math.pi) / (a * math.pi) * float(weights @ (head + tail)) / 2.0
