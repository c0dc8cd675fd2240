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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .etf import make_etf

__all__ = [
    "LongTailSpec",
    "Dataset",
    "exp_profile_counts",
    "gaussian_mixture",
    "load_csv_dataset",
    "load_csv_matrix",
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
            raise ConfigError("class_count must be >= 2")
        if self.n_max < 1 or self.test_per_class < 1:
            raise ConfigError("sample counts must be >= 1")
        if self.imbalance_factor < 1:
            raise ConfigError("imbalance_factor must be >= 1")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.class_separation <= 0 or self.noise_sigma < 0:
            raise ConfigError("class_separation must be > 0 and noise_sigma >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels covering 0..C-1, and the
    per-class counts n_c derived from the labels."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n,) int
    split: str  # "train" | "test"
    counts: np.ndarray = field(init=False)  # (C,) int64, read-only: np.bincount(y)

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x must be (n, d) aligned with 1-D labels y")
        if not self.y.size:
            raise DataError("no samples")
        counts = np.bincount(self.y)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            more = f" and {missing.size - 10} more" if missing.size > 10 else ""
            raise DataError(f"classes {missing[:10].tolist()}{more} have no samples "
                            "(labels must cover 0..C-1)")
        if self.split == "test" and (counts != counts[0]).any():
            raise DataError("test split must be class-balanced")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.y.shape[0])

    @property
    def class_count(self) -> int:
        return len(self.counts)

    @property
    def input_dim(self) -> int:
        return int(self.x.shape[1])


def exp_profile_counts(spec: LongTailSpec) -> tuple[int, ...]:
    """n_c = max(1, round(n_max * IF^(-(c-1)/(C-1)))) for c = 1..C, from a checked spec."""
    c_last, imb = spec.class_count - 1, spec.imbalance_factor
    return tuple(max(1, math.floor(spec.n_max * imb ** (-c / c_last) + 0.5)) for c in range(c_last + 1))


def _class_centers(spec: LongTailSpec) -> np.ndarray:
    """(C, d) center matrix: scaled ETF directions when d >= C, otherwise
    seeded random unit vectors."""
    c, d = spec.class_count, spec.input_dim
    if d >= c:
        directions = make_etf(c, d, seed=spec.seed).T
    else:
        rng = np.random.default_rng(spec.seed)
        directions = rng.standard_normal((c, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return spec.class_separation * directions


def gaussian_mixture(spec: LongTailSpec):
    """Build (train, test) datasets; fully deterministic given spec.seed.
    A drawn feature beyond the float range is a ConfigError."""
    centers = _class_centers(spec)
    counts = exp_profile_counts(spec)
    rng = np.random.default_rng(spec.seed)

    def draw(per_class):
        xs, ys = [], []
        for c, n in enumerate(per_class):
            noise = rng.standard_normal((n, spec.input_dim)) * spec.noise_sigma
            xs.append(centers[c] + noise)
            ys.append(np.full(n, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    with np.errstate(over="ignore"):
        train, test = draw(counts), draw([spec.test_per_class] * spec.class_count)
    # min and max find an inf or a NaN without an (n, d) temporary.
    if not all(np.isfinite([x.min(), x.max()]).all() for x, _ in (train, test)):
        raise ConfigError(f"[dataset] class_separation = {spec.class_separation!r} and noise_sigma = "
                          f"{spec.noise_sigma!r} draw features beyond the float range")
    return Dataset(*train, split="train"), Dataset(*test, split="test")


def save_csv_dataset(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write a headered CSV, ``f0..f{d-1},<label>``: each float is its
    ``repr``, so it reads back exactly, the integer label is last and lines
    end in CRLF. Rows are converted one at a time, never the whole matrix."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([f"f{i}" for i in range(dataset.input_dim)] + [label_column])
        for row, label in zip(dataset.x, dataset.y.tolist()):
            fh.write(",".join(map(repr, row.tolist())))
            fh.write(f",{label}\r\n")


def _number(cell: str):
    """The cell's value as numpy's C parser reads it (float syntax, ASCII
    only, no underscores), or None where that parser rejects it."""
    text = cell.strip()
    try:
        return float(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


def _csv_rows(fh, what: str, path):
    """``csv.reader``'s rows of ``fh``; a ``csv.Error``, such as a cell
    beyond the csv module's field size limit, is a DataError naming the file."""
    try:
        yield from csv.reader(fh)
    except csv.Error as exc:
        raise DataError(f"{what} file {path}: {exc}") from None


def _bad_row(path, header: list, label_idx: int, n_rows=None):
    """The error naming the first offending row of a file the C reader
    rejected, counting from 1 at the header with blank lines included: the
    first row that is not UTF-8 text or is malformed, else the first
    non-finite value or, given ``n_rows``, the first label that leaves a
    class empty. None if no row is at fault."""
    value_problem = None
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        reader = _csv_rows(fh, "dataset", path)
        next(reader)
        for row_no, row in enumerate(reader, start=2):
            where = f"{path} row {row_no}"
            if not row:
                continue
            if any("\ufffd" in cell for cell in row):  # the decoder's mark for bytes it cannot read
                return f"{where}: not UTF-8 text"
            if len(row) != len(header):
                return f"{where}: expected {len(header)} cells, got {len(row)}"
            values = [_number(cell) for cell in row]
            if any(v is None for i, v in enumerate(values) if i != label_idx):
                return f"{where}: non-numeric feature cell"
            label = values[label_idx]
            if label is None or not label.is_integer():
                return f"{where}: non-integer label {row[label_idx]!r}"
            if label < 0:
                return f"{where}: negative label {int(label)}"
            if value_problem is not None:
                continue
            if not all(map(math.isfinite, values)):
                value_problem = f"{where}: non-finite feature value"
            elif n_rows is not None and label >= n_rows:
                value_problem = (f"{where}: label {row[label_idx]!r} is not below the "
                                 f"{n_rows} data rows, so some class has no samples")
    return value_problem


def load_csv_dataset(path, label_column: str = "label", split: str = "train") -> Dataset:
    """Parse a headered CSV of numeric features plus an integer label column.

    numpy's C reader parses every row after the header in one pass. Blank
    lines are skipped and ``#`` is an ordinary character. Labels must cover
    0..C-1 with every class present; a malformed cell, row or label, or a
    row that is not UTF-8 text, is rejected with the offending row number.
    """
    try:
        fh = open(path, encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise DataError(f"cannot open dataset file {path}: {exc}") from exc
    with fh:
        header = next(_csv_rows(fh, "dataset", path), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if any("\ufffd" in cell for cell in header):
            raise DataError(f"{path} row 1: not UTF-8 text")
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r} in header")
        if header.count(label_column) > 1:
            raise DataError(f"{path}: more than one column named {label_column!r} in header")
        label_idx = header.index(label_column)
        if len(header) < 2:
            raise DataError(f"{path}: no feature columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only file
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise DataError(_bad_row(path, header, label_idx) or f"{path}: {exc}") from None
    n = table.shape[0]
    if n == 0:
        raise DataError(f"{path}: no data rows")
    labels = table[:, label_idx] if table.shape[1] == len(header) else None
    if labels is None or not np.isfinite(table).all() \
            or not ((labels >= 0) & (labels < n) & (labels == np.floor(labels))).all():
        raise DataError(_bad_row(path, header, label_idx, n)
                        or f"{path}: rows do not match the {len(header)}-column header")
    try:
        return Dataset(x=np.delete(table, label_idx, axis=1), y=labels.astype(np.int64), split=split)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_csv_matrix(path, what: str) -> np.ndarray:
    """A headerless CSV of finite numbers, ``nc-eval``'s classifier or bias,
    as a 2-D float64 array: rows split by ``csv.reader`` (blank ones skipped),
    cells read as in the dataset reader. An error names the bad line, from 1,
    or the file if no row is left."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
            for line_no, cells in enumerate(_csv_rows(fh, what, path), start=1):
                if cells:
                    row = [_number(cell) for cell in cells]
                    where = f"{what} file {path} line {line_no}"
                    if not all(v is not None and math.isfinite(v) for v in row):
                        raise DataError(f"{where}: a cell is not a finite number")
                    if rows and len(row) != len(rows[0]):
                        raise DataError(f"{where}: {len(row)} cells, not {len(rows[0])}")
                    rows.append(row)
    except OSError as exc:
        raise DataError(f"cannot open {what} file {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{what} file {path}: no data rows")
    return np.array(rows)


def batch_iter(dataset: Dataset, batch_size: int, epoch_seeds):
    """One seeded shuffle of all indices per seed of the sequence
    ``epoch_seeds``, yielded in consecutive (R, B) batches: row r is seed
    r's, for R runs in lockstep (one seed is the stack of one). The final
    partial batch is kept, so each row's batches cover every index once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    perm = np.stack([np.random.default_rng(seed).permutation(n) for seed in epoch_seeds])
    for start in range(0, n, batch_size):
        yield perm[:, start:start + batch_size]
