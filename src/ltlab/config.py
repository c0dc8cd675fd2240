"""Experiment configuration documents.

Plain INI files with five sections (dataset, train, method, reweight,
lr), all optional. Each section fills one frozen dataclass, and its keys
are that dataclass's field names: [train] fills ``TrainConfig``, and
[method], [reweight] and [lr] the ``TrainConfig`` fields of those names.
[dataset] fills ``LongTailSpec``, or ``CsvSource`` with ``kind = csv``;
its ``classes`` key is ``LongTailSpec.class_count``. A key left out keeps
its field's default, and so does an empty number, boolean or list; an
empty string is taken as given. Numbers must be finite, and integers
within numpy's int64 range. Unknown sections (``[DEFAULT]`` too) or keys
are rejected before anything runs, so a typo cannot silently fall back
to a default.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import Field, dataclass, fields

from .data import LongTailSpec
from .errors import ConfigError
from .reweighting import ReweightConfig
from .scheduler import LrSpec
from .trainer import MethodConfig, TrainConfig

__all__ = ["CsvSource", "ExperimentConfig", "load_experiment_config"]


@dataclass(frozen=True)
class CsvSource:
    """External dataset: paths to train/test CSV files."""

    train_path: str = ""
    test_path: str = ""
    label_column: str = "label"

    def __post_init__(self):
        if not self.train_path or not self.test_path:
            raise ConfigError("kind = csv requires train_path and test_path")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: LongTailSpec | CsvSource
    train: TrainConfig


def _boolean(raw: str) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ValueError(raw)
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):  # float() reads nan and inf
        raise ValueError(raw)
    return value


def _int64(raw: str) -> int:
    value = int(raw)
    if not -2**63 <= value < 2**63:  # numpy's int64, which every count and size becomes
        raise ValueError(raw)
    return value


def _number_or_text(raw: str) -> float | str:
    try:
        float(raw)
    except ValueError:
        return raw  # the dataclass decides which words it takes
    return _finite(raw)


# One converter per field annotation (the modules postpone annotations, so
# each is the string written in the dataclass), with what a bad value is
# not. Text fields take "" as given; ``str`` cannot fail.
_CONVERTERS = {
    "int": (_int64, "an integer in the int64 range"),
    "float": (_finite, "a finite number"),
    "bool": (_boolean, "a valid boolean"),
    "tuple[int, ...]": (lambda raw: tuple(_int64(v) for v in raw.split(",") if v.strip()),
                        "a comma-separated integer list"),
    "str": (str, None),
    "float | str": (_number_or_text, "a finite number"),
}
_TEXT_TYPES = ("str", "float | str")
_KEY_OF_FIELD = {"class_count": "classes"}
_DATASET_KINDS = {"synthetic": LongTailSpec, "csv": CsvSource}
_SECTIONS = {"dataset": tuple(_DATASET_KINDS.values()), "train": (TrainConfig,), "method": (MethodConfig,),
             "reweight": (ReweightConfig,), "lr": (LrSpec,)}


def _keys(cls) -> dict[str, Field]:
    """The INI key of each field of ``cls`` that a section sets."""
    return {_KEY_OF_FIELD.get(f.name, f.name): f for f in fields(cls) if f.type in _CONVERTERS}


def _read_document(path: str) -> dict[str, dict[str, str]]:
    # No section name can be empty, so [DEFAULT] is an ordinary section, and
    # an unknown one: its keys would otherwise leak into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.MissingSectionHeaderError as exc:  # configparser's messages span lines
        raise ConfigError(f"malformed config file {path}: "
                          f"line {exc.lineno} comes before any [section]") from exc
    except configparser.ParsingError as exc:
        raise ConfigError(f"malformed config file {path}: "
                          f"line {exc.errors[0][0]} is not a key = value line") from exc
    except configparser.Error as exc:  # a repeated section or key, already one line
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    doc: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; valid: {', '.join(sorted(_SECTIONS))}")
        keys = dict(parser.items(section))
        known = {"kind"} if section == "dataset" else set()
        for cls in _SECTIONS[section]:
            known.update(_keys(cls))
        unknown = set(keys) - known
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
        doc[section] = keys
    return doc


def _build(cls, doc: dict[str, dict[str, str]], section: str, **nested):
    """``cls`` from the document's ``section``, with ``nested`` as the
    fields that are sections of their own. Every error names the section
    once."""
    values = doc.get(section, {})
    kwargs = dict(nested)
    for key, f in _keys(cls).items():
        raw = values.get(key)
        convert, what = _CONVERTERS[f.type]
        if raw is None or (raw == "" and f.type not in _TEXT_TYPES):
            continue
        try:
            kwargs[f.name] = convert(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse and fully validate an experiment document."""
    doc = _read_document(path)
    kind = doc.get("dataset", {}).get("kind", "synthetic")
    if kind not in _DATASET_KINDS:
        raise ConfigError(f"[dataset] kind must be {' or '.join(map(repr, _DATASET_KINDS))}, got {kind!r}")
    return ExperimentConfig(
        dataset=_build(_DATASET_KINDS[kind], doc, "dataset"),
        train=_build(TrainConfig, doc, "train", method=_build(MethodConfig, doc, "method"),
                     reweight=_build(ReweightConfig, doc, "reweight"), lr=_build(LrSpec, doc, "lr")))
