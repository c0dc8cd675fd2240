"""Command-line experiment runner and inspection tool.

Subcommands:

* ``gen``      write a synthetic long-tailed dataset as CSV plus manifest
* ``train``    train with any method, logging metrics.csv / summary.json
* ``nc-eval``  collapse metrics for feature/classifier CSV dumps
* ``weights``  closed-form class weights for a list of class losses
* ``mlf``      evaluate the Mittag-Leffler decay value E_a(-z)

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure. All outputs are deterministic in their inputs; nothing written
contains timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import CsvSource, ExperimentConfig, load_experiment_config
from .data import gaussian_mixture, load_csv_dataset, load_csv_matrix, save_csv_dataset
from .errors import ConfigError, DataError, NumericError
from .nc_metrics import FeatureBank, make_report
from .reweighting import closed_form_weight
from .scheduler import ml_series, ml_series_log_peak, ml_tail, mittag_leffler
from .trainer import EpochRecord, forward, run_experiment

METRIC_COLUMNS = tuple(f.name for f in fields(EpochRecord))

# ``mlf`` shows the series value next to the tail only while the series'
# cancellation error, its largest term times machine epsilon, stays below this.
SERIES_NOISE_LIMIT = 1e-6


def _load_datasets(cfg: ExperimentConfig):
    if isinstance(cfg.dataset, CsvSource):
        train = load_csv_dataset(cfg.dataset.train_path, cfg.dataset.label_column, split="train")
        test = load_csv_dataset(cfg.dataset.test_path, cfg.dataset.label_column, split="test")
        if train.input_dim != test.input_dim or train.class_count != test.class_count:
            raise DataError("train/test shape mismatch: "
                            f"{train.input_dim}x{train.class_count} vs {test.input_dim}x{test.class_count}")
        return train, test
    return gaussian_mixture(cfg.dataset)


def _write_metrics_csv(path: Path, records: list[EpochRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for r in records:
            writer.writerow([r.epoch] + [repr(getattr(r, c)) for c in METRIC_COLUMNS[1:]])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _params_payload(params) -> dict:
    payload = {"weights": params.weights.tolist(), "bias": params.bias.tolist()}
    if params.hidden_weights is not None:
        payload["hidden_weights"] = params.hidden_weights.tolist()
        payload["hidden_bias"] = params.hidden_bias.tolist()
    return payload


def cmd_gen(args) -> int:
    cfg = load_experiment_config(args.config)
    if isinstance(cfg.dataset, CsvSource):
        raise ConfigError("gen requires a synthetic [dataset] section")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train, test = gaussian_mixture(cfg.dataset)
    save_csv_dataset(train, out / "train.csv")
    save_csv_dataset(test, out / "test.csv")
    manifest = {
        "C": cfg.dataset.class_count,
        "counts": train.counts.tolist(),
        "IF": cfg.dataset.imbalance_factor,
        "seed": cfg.dataset.seed,
        "sigma": cfg.dataset.noise_sigma,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'train.csv'}, {out / 'test.csv'}, {out / 'manifest.json'}")
    return 0


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    train_cfg = cfg.train
    if args.method is not None:
        train_cfg = replace(train_cfg, method=replace(train_cfg.method, name=args.method))
    seeds = args.seed if args.seed else [train_cfg.seed]
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigError(f"--seed {repeated} is given more than once; each seed writes its own files")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_datasets(cfg)

    # Every seed trains before any file is written, so a failed run writes no per-seed files.
    results = run_experiment(train_cfg, train_set, test_set, seeds)
    summaries = [summary for _, summary, _ in results]
    single = len(seeds) == 1
    for seed, (records, _, state) in zip(seeds, results):
        metrics_name = "metrics.csv" if single else f"metrics_seed{seed}.csv"
        params_name = "params.json" if single else f"params_seed{seed}.json"
        _write_metrics_csv(out / metrics_name, records)
        _write_json(out / params_name, _params_payload(state.params))
        if single:
            h, _ = forward(state.params, train_set.x)
            save_csv_dataset(replace(train_set, x=h), out / "features.csv")
            np.savetxt(out / "classifier.csv", state.params.weights, delimiter=",")
            np.savetxt(out / "bias.csv", state.params.bias[None, :], delimiter=",")

    bal_acc = [s["bal_acc"] for s in summaries]
    agg = {
        "method": train_cfg.method.name,
        "seeds": list(seeds),
        "bal_acc_mean": float(np.mean(bal_acc)),
        "bal_acc_per_seed": bal_acc,
    }
    agg.update((k, float(np.mean([s[k] for s in summaries])))
               for k in summaries[0] if k not in ("method", "seed", "bal_acc"))
    _write_json(out / "summary.json", agg)
    print(json.dumps(agg, indent=2))
    return 0


def _load_class_losses(path: str, class_count: int) -> list[float]:
    """The per-class losses of ``nc-eval --losses``: a JSON list of one
    finite, nonnegative number per class."""
    try:
        with open(path) as fh:
            losses = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open losses file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed losses file {path}: {exc}") from exc
    if not isinstance(losses, list) or len(losses) != class_count:
        found = f"{len(losses)} entries" if isinstance(losses, list) else json.dumps(losses)[:60]
        raise DataError(f"losses file {path} must hold a JSON list of {class_count} losses, "
                        f"one per class; found {found}")
    for i, value in enumerate(losses):
        # Comparisons with an int are exact, so this also rejects ints beyond the float range.
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 <= value <= sys.float_info.max:
            raise DataError(f"losses file {path}: entry {i} is {value!r}, "
                            "not a finite, nonnegative number")
    return [float(v) for v in losses]


def cmd_nc_eval(args) -> int:
    bank_data = load_csv_dataset(args.features, args.label_column, split="train")
    if bank_data.class_count < 2:
        raise DataError(f"{args.features}: the collapse metrics need at least 2 classes, "
                        f"found {bank_data.class_count}")
    bank = FeatureBank.from_labels(bank_data.x, bank_data.y)
    w = load_csv_matrix(args.classifier, "classifier")
    if w.shape != (bank.class_count, bank.feature_dim):
        raise DataError(f"classifier shape {w.shape[0]}x{w.shape[1]} does not match "
                        f"{bank.class_count} classes x {bank.feature_dim} features")
    b = np.zeros(bank.class_count) if args.bias is None else load_csv_matrix(args.bias, "bias").ravel()
    if b.shape != (bank.class_count,):
        raise DataError(f"bias length {b.size} does not match {bank.class_count} classes")
    losses = None if args.losses is None else _load_class_losses(args.losses, bank.class_count)
    logits = bank.features @ w.T
    logits += b
    try:
        report = make_report(w, logits.argmax(axis=1), bank, losses)
    except ValueError as exc:
        raise NumericError(f"metric computation failed: {exc}") from exc
    print(json.dumps(report, indent=2))
    return 0


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value!r}")
    return value


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(v.strip()) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must contain at least one value")
    return [_finite(v, flag) for v in values]


def cmd_weights(args) -> int:
    losses = _parse_float_list(args.losses, "--losses")
    if any(l < 0 for l in losses):
        raise ConfigError("losses must be nonnegative")
    if _finite(args.alpha, "--alpha") < 0:
        raise ConfigError("--alpha must be >= 0")
    if args.w0 is not None:
        w0 = _parse_float_list(args.w0, "--w0")
        if len(w0) != len(losses):
            raise ConfigError(f"--w0 has {len(w0)} entries for {len(losses)} losses")
        if any(w <= 0 for w in w0):
            raise ConfigError("prior weights must be positive")
    else:
        w0 = [1.0] * len(losses)
    with np.errstate(over="ignore", invalid="ignore"):
        l_bar = float(np.mean(losses))
        if math.isinf(l_bar):  # the sum overflowed; the mean of the scaled losses cannot
            top = max(losses)
            l_bar = top * float(np.mean(np.divide(losses, top)))
        w_star = closed_form_weight(losses, l_bar, args.alpha, w0).tolist()
    for c, w in enumerate(w_star):
        if not math.isfinite(w):
            raise NumericError(f"the weight of class {c} is {w!r} (loss {losses[c]!r}, l_bar {l_bar!r})")
    weights = {str(c): {"w_star": w, "beta": 1.0, "w_hat": w} for c, w in enumerate(w_star)}
    print(json.dumps({"l_bar": l_bar, "weights": weights}, indent=2))
    return 0


def cmd_mlf(args) -> int:
    _finite(args.a, "--a")
    _finite(args.z, "--z")
    try:
        value = mittag_leffler(args.a, args.z)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    branch = "series" if args.z < 1.0 else "exp" if args.a == 1.0 else "tail"
    payload = {"a": args.a, "z": args.z, "value": value, "branch": branch}
    # Make the piecewise handoff visible whenever the branches disagree and
    # the series is not lost to cancellation.
    trusted = math.log(SERIES_NOISE_LIMIT / np.finfo(float).eps)
    if args.z > 0 and ml_series_log_peak(args.a, args.z) < trusted:
        series_value = ml_series(args.a, args.z)
        tail_value = ml_tail(args.a, args.z)
        if abs(series_value - tail_value) > 1e-3:
            payload["series_value"] = series_value
            payload["tail_value"] = tail_value
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltlab",
                                     description="Long-tailed classification laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--config", required=True, help="experiment config file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--config", required=True, help="experiment config file")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--method", default=None, help="override the configured method")
    p_train.add_argument("--seed", type=int, action="append", default=None,
                         help="training seed; repeat for a multi-seed run")
    p_train.set_defaults(func=cmd_train)

    p_nc = sub.add_parser("nc-eval", help="collapse metrics from CSV dumps")
    p_nc.add_argument("--features", required=True, help="feature CSV with a label column")
    p_nc.add_argument("--classifier", required=True, help="classifier matrix CSV (C rows, p cols)")
    p_nc.add_argument("--bias", default=None, help="optional bias CSV (one row of C values)")
    p_nc.add_argument("--losses", default=None, help="optional JSON file of per-class losses")
    p_nc.add_argument("--label-column", default="label")
    p_nc.set_defaults(func=cmd_nc_eval)

    p_w = sub.add_parser("weights", help="closed-form class weights for given losses")
    p_w.add_argument("--losses", required=True, help="comma-separated per-class losses")
    p_w.add_argument("--alpha", type=float, default=0.0, help="prior-anchoring strength")
    p_w.add_argument("--w0", default=None, help="comma-separated prior weights (default all 1)")
    p_w.set_defaults(func=cmd_weights)

    p_m = sub.add_parser("mlf", help="evaluate the decay value E_a(-z)")
    p_m.add_argument("--a", type=float, required=True)
    p_m.add_argument("--z", type=float, required=True)
    p_m.set_defaults(func=cmd_mlf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
