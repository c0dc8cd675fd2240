"""The INI loader: which keys it accepts, where each lands, and how it
rejects a bad document (exit 2, naming the section and key)."""

from pathlib import Path

import pytest

from ltlab.cli import main
from ltlab.config import CsvSource, ExperimentConfig, load_experiment_config
from ltlab.data import LongTailSpec
from ltlab.errors import ConfigError
from ltlab.reweighting import ReweightConfig
from ltlab.scheduler import LrSpec
from ltlab.trainer import MethodConfig, TrainConfig

# (section, key, raw value, field getter, parsed value): every key of every
# section, each set away from its default.
SYNTHETIC_KEYS = [
    ("dataset", "kind", "synthetic", lambda c: type(c.dataset), LongTailSpec),
    ("dataset", "classes", "5", lambda c: c.dataset.class_count, 5),
    ("dataset", "n_max", "60", lambda c: c.dataset.n_max, 60),
    ("dataset", "imbalance_factor", "20.5", lambda c: c.dataset.imbalance_factor, 20.5),
    ("dataset", "input_dim", "7", lambda c: c.dataset.input_dim, 7),
    ("dataset", "class_separation", "3.5", lambda c: c.dataset.class_separation, 3.5),
    ("dataset", "noise_sigma", "0.25", lambda c: c.dataset.noise_sigma, 0.25),
    ("dataset", "seed", "11", lambda c: c.dataset.seed, 11),
    ("dataset", "test_per_class", "9", lambda c: c.dataset.test_per_class, 9),
]
CSV_KEYS = [
    ("dataset", "kind", "csv", lambda c: type(c.dataset), CsvSource),
    ("dataset", "train_path", "a.csv", lambda c: c.dataset.train_path, "a.csv"),
    ("dataset", "test_path", "b.csv", lambda c: c.dataset.test_path, "b.csv"),
    ("dataset", "label_column", "y", lambda c: c.dataset.label_column, "y"),
]
OTHER_KEYS = [
    ("train", "epochs", "3", lambda c: c.train.epochs, 3),
    ("train", "batch_size", "17", lambda c: c.train.batch_size, 17),
    ("train", "momentum", "0.5", lambda c: c.train.momentum, 0.5),
    ("train", "weight_decay", "0.001", lambda c: c.train.weight_decay, 0.001),
    ("train", "seed", "4", lambda c: c.train.seed, 4),
    ("train", "hidden_dim", "6", lambda c: c.train.hidden_dim, 6),
    ("train", "use_bias", "false", lambda c: c.train.use_bias, False),
    ("method", "name", "focal", lambda c: c.train.method.name, "focal"),
    ("method", "cb_beta", "0.99", lambda c: c.train.method.cb_beta, 0.99),
    ("method", "focal_gamma", "1.5", lambda c: c.train.method.focal_gamma, 1.5),
    ("method", "focal_alpha", "0.25", lambda c: c.train.method.focal_alpha, 0.25),
    ("method", "ib_eps", "0.01", lambda c: c.train.method.ib_eps, 0.01),
    ("method", "ib_alpha_scale", "2.0", lambda c: c.train.method.ib_alpha_scale, 2.0),
    ("method", "range_k", "3", lambda c: c.train.method.range_k, 3),
    ("method", "range_margin", "4.0", lambda c: c.train.method.range_margin, 4.0),
    ("method", "range_alpha", "0.25", lambda c: c.train.method.range_alpha, 0.25),
    ("method", "range_beta", "0.75", lambda c: c.train.method.range_beta, 0.75),
    ("method", "range_lambda", "0.2", lambda c: c.train.method.range_lambda, 0.2),
    ("reweight", "alpha", "0.5", lambda c: c.train.reweight.alpha, 0.5),
    ("reweight", "gamma", "2.5", lambda c: c.train.reweight.gamma, 2.5),
    ("reweight", "switch_epoch", "2", lambda c: c.train.reweight.switch_epoch, 2),
    ("reweight", "mode", "macro", lambda c: c.train.reweight.mode, "macro"),
    ("reweight", "base", "cb", lambda c: c.train.reweight.base, "cb"),
    ("reweight", "use_base_prior", "yes", lambda c: c.train.reweight.use_base_prior, True),
    ("lr", "schedule", "mile", lambda c: c.train.lr.schedule, "mile"),
    ("lr", "eta0", "0.05", lambda c: c.train.lr.eta0, 0.05),
    ("lr", "warmup_epochs", "1", lambda c: c.train.lr.warmup_epochs, 1),
    ("lr", "switch_epoch", "2", lambda c: c.train.lr.switch_epoch, 2),
    ("lr", "tail_param", "0.7", lambda c: c.train.lr.tail_param, 0.7),
    ("lr", "eps", "0.01", lambda c: c.train.lr.eps, 0.01),
    ("lr", "milestones", "1, 2", lambda c: c.train.lr.milestones, (1, 2)),
    ("lr", "decay", "0.5", lambda c: c.train.lr.decay, 0.5),
]

# Every key whose field is a number: float, float | None, or float | str.
FLOAT_KEYS = [(section, key) for section, key, _, _, want in SYNTHETIC_KEYS + OTHER_KEYS
              if isinstance(want, float)]


def _document(entries) -> str:
    sections: dict[str, list[str]] = {}
    for section, key, raw, *_ in entries:
        sections.setdefault(section, []).append(f"{key} = {raw}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


def _load(tmp_path, text: str) -> ExperimentConfig:
    path = tmp_path / "c.ini"
    path.write_text(text)
    return load_experiment_config(str(path))


def _rejected(tmp_path, capsys, text: str) -> str:
    """Run ``ltlab train`` on the document; it must exit 2 before writing
    anything. Returns the error line."""
    path, out = tmp_path / "c.ini", tmp_path / "out"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


class TestKeys:
    def test_the_accepted_keys(self):
        keys = {(s, k) for s, k, *_ in SYNTHETIC_KEYS + CSV_KEYS + OTHER_KEYS}
        assert len(keys) == 44

    @pytest.mark.parametrize("entries", (SYNTHETIC_KEYS, CSV_KEYS), ids=("synthetic", "csv"))
    def test_every_key_lands_on_its_field(self, tmp_path, entries):
        cfg = _load(tmp_path, _document(entries + OTHER_KEYS))
        for section, key, _, get, want in entries + OTHER_KEYS:
            got = get(cfg)
            assert got == want and type(got) is type(want), f"[{section}] {key}: {got!r}"

    def test_empty_document_is_every_dataclass_default(self, tmp_path):
        assert _load(tmp_path, "") == ExperimentConfig(dataset=LongTailSpec(), train=TrainConfig())

    def test_default_config(self):
        cfg = load_experiment_config(str(Path(__file__).resolve().parent.parent / "configs" / "default.ini"))
        assert cfg == ExperimentConfig(
            dataset=LongTailSpec(class_count=10, n_max=500, imbalance_factor=100.0, input_dim=32,
                                 class_separation=2.0, noise_sigma=1.0, seed=7, test_per_class=100),
            train=TrainConfig(epochs=40, batch_size=64, momentum=0.9, weight_decay=0.0005, seed=1,
                              hidden_dim=32, use_bias=True, method=MethodConfig(name="inverse"),
                              reweight=ReweightConfig(alpha=0.5, gamma=2.5, switch_epoch=12, mode="both",
                                                      base="ce", use_base_prior=False),
                              lr=LrSpec(schedule="multistep", eta0=0.1, milestones=(20, 32), decay=0.1)))

    def test_csv_section_does_not_read_the_synthetic_keys(self, tmp_path):
        cfg = _load(tmp_path, _document(CSV_KEYS + [("dataset", "classes", "x")]))
        assert cfg.dataset == CsvSource(train_path="a.csv", test_path="b.csv", label_column="y")

    @pytest.mark.parametrize("raw, want", [("true", True), ("Yes", True), ("1", True), ("ON", True),
                                           ("false", False), ("no", False), ("0", False), ("Off", False)])
    def test_bool_spellings(self, tmp_path, raw, want):
        assert _load(tmp_path, f"[train]\nuse_bias = {raw}\n").train.use_bias is want

    def test_list_skips_empty_items(self, tmp_path):
        assert _load(tmp_path, "[lr]\nmilestones = 3,,5,\n").train.lr.milestones == (3, 5)

    def test_tail_param_entropy(self, tmp_path):
        assert _load(tmp_path, "[lr]\ntail_param = entropy\n").train.lr.tail_param == "entropy"


class TestEmptyValues:
    @pytest.mark.parametrize("section, key, get, default", [
        ("dataset", "n_max", lambda c: c.dataset.n_max, 500),
        ("dataset", "imbalance_factor", lambda c: c.dataset.imbalance_factor, 100.0),
        ("train", "use_bias", lambda c: c.train.use_bias, True),
        ("method", "range_k", lambda c: c.train.method.range_k, 2),
        ("reweight", "gamma", lambda c: c.train.reweight.gamma, 1.0),
        ("reweight", "use_base_prior", lambda c: c.train.reweight.use_base_prior, False),
        ("lr", "eta0", lambda c: c.train.lr.eta0, 0.1),
        ("lr", "milestones", lambda c: c.train.lr.milestones, ()),
        ("method", "focal_alpha", lambda c: c.train.method.focal_alpha, None),
    ])
    def test_empty_number_bool_or_list_keeps_the_default(self, tmp_path, section, key, get, default):
        assert get(_load(tmp_path, f"[{section}]\n{key} =\n")) == default

    def test_empty_string_is_taken_as_given(self, tmp_path):
        cfg = _load(tmp_path, "[dataset]\nkind = csv\ntrain_path = a\ntest_path = b\nlabel_column =\n")
        assert cfg.dataset.label_column == ""

    @pytest.mark.parametrize("section, key", [("dataset", "kind"), ("reweight", "mode"),
                                              ("reweight", "base"), ("method", "name"),
                                              ("lr", "schedule"), ("lr", "tail_param")])
    def test_empty_string_field_is_rejected(self, tmp_path, capsys, section, key):
        _rejected(tmp_path, capsys, f"[{section}]\n{key} =\n")


class TestRejected:
    @pytest.mark.parametrize("section, key, raw", [
        ("dataset", "n_max", "x"),
        ("dataset", "imbalance_factor", "ten"),
        ("train", "epochs", "1.5"),
        ("train", "momentum", "fast"),
        ("train", "use_bias", "maybe"),
        ("method", "cb_beta", "q"),
        ("method", "range_k", "2.0"),
        ("method", "focal_alpha", "q"),
        ("reweight", "alpha", "x"),
        ("reweight", "switch_epoch", "1e2"),
        ("reweight", "use_base_prior", "2"),
        ("lr", "eta0", "x"),
        ("lr", "warmup_epochs", "one"),
        ("lr", "milestones", "1,x"),
        ("lr", "tail_param", "x"),
    ])
    def test_bad_value_names_section_and_key_once(self, tmp_path, capsys, section, key, raw):
        err = _rejected(tmp_path, capsys, f"[{section}]\n{key} = {raw}\n")
        assert f"[{section}] {key} = {raw!r}" in err
        assert err.count(f"[{section}]") == 1

    @pytest.mark.parametrize("text, named", [
        ("[dataset]\nimbalance_factor = 0.5\n", "[dataset] imbalance_factor must be >= 1"),
        ("[dataset]\nkind = parquet\n", "[dataset] kind must be 'synthetic' or 'csv', got 'parquet'"),
        ("[train]\nepochs = 0\n", "[train] epochs and batch_size must be >= 1"),
        ("[train]\nweight_decay = -1\n", "[train] weight_decay must be >= 0"),
        ("[method]\nname = bogus\n", "[method] unknown method 'bogus'"),
        ("[reweight]\nalpha = -1\n", "[reweight] alpha must be >= 0"),
        ("[reweight]\nmode = bogus\n", "[reweight] unknown mode 'bogus'"),
        ("[reweight]\nbase = inverse\n", "[reweight] base must be a base method, got 'inverse'"),
        ("[lr]\nschedule = cosine\n", "[lr] unknown schedule 'cosine'"),
        ("[lr]\neta0 = 0\n", "[lr] eta0 must be positive, got 0.0"),
        ("[lr]\nwarmup_epochs = -1\n", "[lr] warmup_epochs must be >= 0, got -1"),
        ("[lr]\nswitch_epoch = -1\n", "[lr] switch_epoch must be >= 0, got -1"),
        ("[lr]\neps = 5\n", "[lr] eps must lie in (0, 1), got 5.0"),
        ("[lr]\ndecay = 1\n", "[lr] decay must lie in (0, 1), got 1.0"),
        ("[lr]\ntail_param = 0\n", "[lr] tail_param must lie in (0, 1], got 0.0"),
        ("[lr]\nmilestones = 5,5\n", "[lr] milestones must be strictly increasing, got 5, 5"),
        ("[lr]\nschedule = mile\nwarmup_epochs = 40\n",
         "[train] epochs = 40 leaves no epoch after the mile schedule's warmup_epochs = 40"),
        ("[train]\nepochs = 2\n[lr]\nschedule = mile\nwarmup_epochs = 3\n",
         "[train] epochs = 2 leaves no epoch after the mile schedule's warmup_epochs = 3"),
        ("[method]\nfocal_gamma = -1\n", "[method] focal_gamma must be >= 0, got -1.0"),
        ("[method]\nfocal_alpha = -1\n", "[method] focal_alpha must be positive, got -1.0"),
        ("[method]\nrange_lambda = -5\n", "[method] range_lambda must be >= 0, got -5.0"),
        ("[method]\nrange_k = 0\n", "[method] range_k must be >= 1, got 0"),
        ("[method]\nrange_margin = 0\n", "[method] range_margin must be positive, got 0.0"),
        ("[method]\nrange_alpha = -1\n", "[method] range_alpha must be >= 0, got -1.0"),
        ("[method]\nrange_beta = -1\n", "[method] range_beta must be >= 0, got -1.0"),
        ("[method]\ncb_beta = 1\n", "[method] cb_beta must be >= 0 and < 1, got 1.0"),
        ("[method]\ncb_beta = -0.5\n", "[method] cb_beta must be >= 0 and < 1, got -0.5"),
        ("[method]\nib_alpha_scale = 0\n", "[method] ib_alpha_scale must be positive, got 0.0"),
    ])
    def test_bad_setting_names_section_once(self, tmp_path, capsys, text, named):
        err = _rejected(tmp_path, capsys, text)
        assert named in err and err.count("[") == 1

    def test_unknown_section_is_named(self, tmp_path, capsys):
        assert "unknown config section [optim]" in _rejected(tmp_path, capsys, "[optim]\nlr = 1\n")

    @pytest.mark.parametrize("text", ["[DEFAULT]\nepochs = 3\n", "[train]\nseed = 2\n[DEFAULT]\n"],
                             ids=("with-key", "empty"))
    def test_default_section_is_rejected(self, tmp_path, capsys, text):
        # configparser would hide it from sections() and copy its keys into every section.
        assert "unknown config section [DEFAULT]" in _rejected(tmp_path, capsys, text)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_number_names_section_and_key(self, tmp_path, capsys, section, key, raw):
        err = _rejected(tmp_path, capsys, f"[{section}]\n{key} = {raw}\n")
        assert f"[{section}] {key} = {raw!r} is not a finite number" in err

    @pytest.mark.parametrize("section, key", [("reweight", "banana"), ("dataset", "class_count"),
                                              ("train", "method"), ("train", "reweight_mode"),
                                              ("reweight", "reweight_mode"), ("lr", "tail")])
    def test_unknown_key_is_named(self, tmp_path, capsys, section, key):
        err = _rejected(tmp_path, capsys, f"[{section}]\n{key} = 1\n")
        assert f"unknown keys in [{section}]: {key}" in err

    @pytest.mark.parametrize("paths", ["train_path = a.csv\n", "test_path = b.csv\n",
                                       "train_path =\ntest_path = b.csv\n", ""])
    def test_csv_requires_both_paths(self, tmp_path, capsys, paths):
        err = _rejected(tmp_path, capsys, "[dataset]\nkind = csv\n" + paths)
        assert "[dataset] kind = csv requires train_path and test_path" in err

    def test_unreadable_and_malformed_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "missing.ini"), "--out", str(out)]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert "malformed config file" in _rejected(tmp_path, capsys, "epochs = 3\n")
        with pytest.raises(ConfigError):
            _load(tmp_path, "[train]\nepochs = 1\nepochs = 2\n")
