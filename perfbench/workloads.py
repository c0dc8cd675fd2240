"""The benchmark's workloads: which ``ltlab`` invocations one repetition runs.

Each workload is a closed loop: one process runs its invocations back to
back, each through ``ltlab.cli.main`` exactly as a user would type them.
A workload seed sets ``[dataset] seed`` and the training seeds; the
default seed reproduces ``configs/default.ini`` (dataset seed 7, training
seeds 1, 2, 3) and the acceptance ``paired_runs`` fixture.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 7
DEFAULT_CONFIG = Path("configs") / "default.ini"
SWEEP_IMBALANCE = (50, 100, 200)
METHODS = ("ce", "inv_freq", "inv_sqrt", "cb", "focal", "ib", "range", "inverse")


@dataclass(frozen=True)
class Invocation:
    """One ``ltlab`` command line; ``name`` is its stable key in references."""

    name: str
    argv: tuple[str, ...]
    out: Path  # directory the invocation writes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (checkout root, work dir, seed) -> (set-up invocations, timed invocations)
    setup: Callable[[Path, Path, int], tuple[list[Invocation], list[Invocation]]]


def train_seeds(seed: int) -> tuple[int, int, int]:
    """Three training seeds per workload seed; (1, 2, 3) for the default."""
    base = 3 * ((seed - DEFAULT_SEED) % 2**20)
    return base + 1, base + 2, base + 3


def _read_default(root: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    with open(root / DEFAULT_CONFIG) as fh:
        cfg.read_file(fh)
    return cfg


def _write(cfg: configparser.ConfigParser, path: Path, **changes: dict[str, object]) -> Path:
    """Write ``cfg`` with ``changes`` ({section: {key: value}}) applied."""
    for section, keys in changes.items():
        if not cfg.has_section(section):
            cfg.add_section(section)
        for key, value in keys.items():
            cfg.set(section, key, str(value))
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def _train(config: Path, out: Path, method: str, seeds) -> tuple[str, ...]:
    argv = ["train", "--config", str(config), "--out", str(out), "--method", method]
    for s in seeds:
        argv += ["--seed", str(s)]
    return tuple(argv)


def setup_sweep(root: Path, work: Path, seed: int):
    """ce and inverse(both) at IF 50/100/200, plus inverse(batch) and
    inverse(macro) at IF 100; 8 invocations of 3 seeds each."""
    seeds = train_seeds(seed)
    invs = []
    for imb in SWEEP_IMBALANCE:
        modes = ("both", "batch", "macro") if imb == 100 else ("both",)
        arms = [("ce", "both")] + [("inverse", m) for m in modes]
        for method, mode in arms:
            name = f"if{imb}-{method}" + (f"-{mode}" if method == "inverse" else "")
            config = _write(_read_default(root), work / f"{name}.ini",
                            dataset={"imbalance_factor": imb, "seed": seed},
                            reweight={"mode": mode})
            out = work / name
            invs.append(Invocation(name, _train(config, out, method, seeds), out))
    return [], invs


def setup_methods(root: Path, work: Path, seed: int):
    """One single-seed run of every method on the default config."""
    config = _write(_read_default(root), work / "default.ini", dataset={"seed": seed})
    first = train_seeds(seed)[:1]
    return [], [Invocation(m, _train(config, work / m, m, first), work / m) for m in METHODS]


WIDE_DATASET = {"kind": "synthetic", "classes": 50, "n_max": 400, "imbalance_factor": 100,
                "input_dim": 64, "class_separation": 4.0, "test_per_class": 20}


def setup_wide(root: Path, work: Path, seed: int):
    """A 50-class, 64-dimensional mixture written by ``ltlab gen`` and read
    back as CSV; inverse with the Mittag-Leffler schedule over 3 seeds."""
    data = work / "data"
    gen_cfg = _write(_read_default(root), work / "gen.ini", dataset=dict(WIDE_DATASET, seed=seed))
    gen = Invocation("gen", ("gen", "--config", str(gen_cfg), "--out", str(data)), data)
    cfg = _read_default(root)
    cfg.remove_section("dataset")
    train_cfg = _write(
        cfg, work / "wide.ini",
        dataset={"kind": "csv", "train_path": data / "train.csv", "test_path": data / "test.csv"},
        train={"epochs": 12, "batch_size": 256, "hidden_dim": 64},
        reweight={"switch_epoch": 4, "mode": "both"},
        lr={"schedule": "mile", "eta0": 0.1, "warmup_epochs": 1, "switch_epoch": 8,
            "tail_param": "entropy"},
    )
    out = work / "wide"
    return [gen], [Invocation("wide-inverse", _train(train_cfg, out, "inverse", train_seeds(seed)), out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "paper ablation (24 runs over IF 50/100/200): batch path and weight solve "
                          "dominate, range loss absent, multi-seed", setup_sweep),
        Workload("methods", "all 8 methods single-seed with full artifacts: range_loss_grad pair loop "
                            "and artifact writing, little weight solve", setup_methods),
        Workload("wide", "C=50, d=64, batch 256 from CSV with the mile schedule: epoch-end NC "
                         "metrics and per-class loops dominate", setup_wide),
    )
}
