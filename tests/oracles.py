"""Reference forms that the tests check ``ltlab`` against.

Training computes the losses in array form, once per batch or epoch
(``trainer._base_losses`` builds the focal and influence-balanced sample
losses from the batch's softmax). Here they are written the plain way, one
sample or one class at a time, so that an identity they satisfy can be
checked on its own.

``make_nc_fixture`` constructs a feature/classifier snapshot that sits
exactly at the collapsed end-state: all features at their class means,
class means on a simplex ETF around the global mean, and classifier rows
aligned with the centered means. At that configuration every class has
the same average cross-entropy loss, which the fixture tests exploit.

``covariances`` gives NC1's p x p scatter matrices one class block at a
time, and ``nc1_exact`` gives NC1 itself in exact rational arithmetic, the
reference that ``nc_metrics.nc1`` is checked against to 1e-12.

``ml_quadrature`` gives the Mittag-Leffler decay value E_a(-z) by
Gauss-Legendre quadrature of its spectral integral, independent of the
series and the asymptotic tail in ``scheduler``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ltlab.etf import make_etf
from ltlab.linalg import pinv
from ltlab.nc_metrics import FeatureBank


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


def fixture_class_losses(fixture: NcFixture) -> np.ndarray:
    """Average cross-entropy loss per class at the fixture configuration.

    Logits are classifier @ feature with zero bias; the loss is the
    standard softmax cross entropy computed via log-sum-exp.
    """
    w = fixture.classifier
    losses = np.empty(len(fixture.features))
    for c, block in enumerate(fixture.features):
        z = block @ w.T  # (n, C)
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        losses[c] = float(np.mean(lse - z[:, c]))
    return losses


def covariances(bank: FeatureBank):
    """Within-class scatter Sigma_W (averaged over all samples) and
    between-class scatter Sigma_B of the centered class means, summed one
    class block at a time: the p x p terms of NC1's definition."""
    means = np.stack([block.mean(axis=0) for block in bank.blocks])
    sigma_w = np.zeros((bank.feature_dim, bank.feature_dim))
    for block, mu in zip(bank.blocks, means):
        centered = block - mu
        sigma_w += centered.T @ centered
    centered_means = means - means.mean(axis=0)
    return sigma_w / len(bank.features), centered_means.T @ centered_means / bank.class_count


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
