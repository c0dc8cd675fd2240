"""Synthetic long-tailed datasets, CSV ingestion, and batch sampling.

Training sets are Gaussian mixtures whose per-class sizes follow an
exponential profile n_c = n_max * IF^(-(c-1)/(C-1)), the usual
imbalance-factor construction. Class centers sit on simplex-ETF
directions whenever the input dimension allows, which makes the
collapse-geometry diagnostics well posed. Test splits are always
class-balanced.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .baselines import ClassCounts
from .errors import DataError
from .etf import make_etf

__all__ = [
    "LongTailSpec",
    "Dataset",
    "exp_profile_counts",
    "gaussian_mixture",
    "load_csv_dataset",
    "save_csv_dataset",
    "batch_iter",
]


@dataclass(frozen=True)
class LongTailSpec:
    """Parameters of a synthetic long-tailed Gaussian mixture."""

    class_count: int = 10
    n_max: int = 500
    imbalance_factor: float = 100.0
    input_dim: int = 32
    class_separation: float = 2.0
    noise_sigma: float = 1.0
    seed: int = 0
    test_per_class: int = 100

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.n_max < 1 or self.test_per_class < 1:
            raise ValueError("sample counts must be >= 1")
        if self.imbalance_factor < 1:
            raise ValueError("imbalance_factor must be >= 1")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.class_separation <= 0 or self.noise_sigma < 0:
            raise ValueError("class_separation must be > 0 and noise_sigma >= 0")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels and per-class counts."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n,) int
    counts: ClassCounts
    split: str  # "train" | "test"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x must be (n, d) aligned with 1-D labels y")
        tallied = np.bincount(self.y, minlength=len(self.counts))
        if tuple(int(n) for n in tallied) != self.counts.per_class:
            raise DataError("per-class counts inconsistent with labels")
        if self.split == "test" and len(set(self.counts.per_class)) != 1:
            raise DataError("test split must be class-balanced")

    def __len__(self) -> int:
        return int(self.y.shape[0])

    @property
    def class_count(self) -> int:
        return len(self.counts)

    @property
    def input_dim(self) -> int:
        return int(self.x.shape[1])


def exp_profile_counts(class_count: int, n_max: int, imbalance_factor: float) -> ClassCounts:
    """n_c = max(1, round(n_max * IF^(-(c-1)/(C-1)))) for c = 1..C."""
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if imbalance_factor < 1:
        raise ValueError("imbalance_factor must be >= 1")
    counts = []
    for c in range(class_count):
        raw = n_max * imbalance_factor ** (-c / (class_count - 1))
        counts.append(max(1, math.floor(raw + 0.5)))
    return ClassCounts(per_class=tuple(counts))


def _class_centers(spec: LongTailSpec) -> np.ndarray:
    """(C, d) center matrix: scaled ETF directions when d >= C, otherwise
    seeded random unit vectors."""
    c, d = spec.class_count, spec.input_dim
    if d >= c:
        directions = make_etf(c, d, seed=spec.seed).columns.T
    else:
        rng = np.random.default_rng(spec.seed)
        directions = rng.standard_normal((c, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return spec.class_separation * directions


def gaussian_mixture(spec: LongTailSpec):
    """Build (train, test) datasets; fully deterministic given spec.seed."""
    centers = _class_centers(spec)
    counts = exp_profile_counts(spec.class_count, spec.n_max, spec.imbalance_factor)
    rng = np.random.default_rng(spec.seed)

    def draw(per_class):
        xs, ys = [], []
        for c, n in enumerate(per_class):
            noise = rng.standard_normal((n, spec.input_dim)) * spec.noise_sigma
            xs.append(centers[c] + noise)
            ys.append(np.full(n, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    x_tr, y_tr = draw(counts.per_class)
    x_te, y_te = draw([spec.test_per_class] * spec.class_count)
    train = Dataset(x=x_tr, y=y_tr, counts=counts, split="train")
    test_counts = ClassCounts(per_class=(spec.test_per_class,) * spec.class_count)
    test = Dataset(x=x_te, y=y_te, counts=test_counts, split="test")
    return train, test


def save_csv_dataset(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write the dataset as a headered CSV with the label in the last column."""
    d = dataset.input_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + [label_column])
        for row, label in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv_dataset(path, label_column: str = "label", split: str = "train") -> Dataset:
    """Parse a headered CSV of numeric features plus an integer label column.

    Labels must cover 0..C-1 with every class present; malformed cells are
    rejected with the offending row number.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open dataset file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        if not feat_idx:
            raise DataError(f"{path}: no feature columns")
        xs, ys = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path} row {row_no}: expected {len(header)} cells, got {len(row)}")
            try:
                xs.append([float(row[i]) for i in feat_idx])
            except ValueError:
                raise DataError(f"{path} row {row_no}: non-numeric feature cell") from None
            try:
                label = int(row[label_idx])
            except ValueError:
                raise DataError(f"{path} row {row_no}: non-integer label {row[label_idx]!r}") from None
            if label < 0:
                raise DataError(f"{path} row {row_no}: negative label {label}")
            ys.append(label)
    if not ys:
        raise DataError(f"{path}: no data rows")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.int64)
    if not np.isfinite(x).all():
        raise DataError(f"{path}: non-finite feature values")
    class_count = int(y.max()) + 1
    tally = np.bincount(y, minlength=class_count)
    missing = [c for c in range(class_count) if tally[c] == 0]
    if missing:
        raise DataError(f"{path}: classes {missing} have no samples (labels must cover 0..C-1)")
    try:
        counts = ClassCounts(per_class=tuple(int(n) for n in tally))
        return Dataset(x=x, y=y, counts=counts, split=split)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def batch_iter(dataset: Dataset, batch_size: int, epoch_seed):
    """Seeded shuffle of all indices, yielded in consecutive batches.

    The final partial batch is kept; together the batches cover every
    index exactly once. ``epoch_seed`` may also be a sequence of R seeds,
    for runs trained in lockstep: each batch is then (R, B), row r being
    the batch that seed r alone would give.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    if np.ndim(epoch_seed) == 0:
        perm = np.random.default_rng(epoch_seed).permutation(n)
    else:
        perm = np.stack([np.random.default_rng(seed).permutation(n) for seed in epoch_seed])
    for start in range(0, n, batch_size):
        yield perm[..., start:start + batch_size]
