import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltlab.cli import main
from ltlab.data import load_csv_dataset, save_csv_dataset

from oracles import make_nc_fixture

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.ini"

BASE_CONFIG = """
[dataset]
kind = synthetic
classes = 4
n_max = 40
imbalance_factor = 10
input_dim = 8
class_separation = 2.0
noise_sigma = 1.0
seed = 3
test_per_class = 10

[train]
epochs = 2
batch_size = 32
seed = 1

[method]
name = ce

[lr]
schedule = multistep
eta0 = 0.1
milestones =
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


class TestGen:
    def test_writes_files_and_manifest(self, config_path, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen", "--config", str(config_path), "--out", str(out)]) == 0
        train = load_csv_dataset(out / "train.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == train.counts.tolist()
        assert manifest["C"] == 4
        assert manifest["IF"] == 10.0
        test = load_csv_dataset(out / "test.csv", split="test")
        assert test.counts.tolist() == [10] * 4

    def test_balanced_manifest_when_if_one(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG.replace("imbalance_factor = 10", "imbalance_factor = 1"))
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(set(manifest["counts"])) == 1

    def test_rerun_overwrites_identically(self, config_path, tmp_path):
        out = tmp_path / "data"
        main(["gen", "--config", str(config_path), "--out", str(out)])
        first = (out / "train.csv").read_bytes()
        main(["gen", "--config", str(config_path), "--out", str(out)])
        assert (out / "train.csv").read_bytes() == first

    def test_default_config_files_are_pinned(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen", "--config", str(DEFAULT_CONFIG), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("train.csv", "test.csv", "manifest.json")}
        assert digests == {
            "train.csv": "0a028683210887c264b5da27bce8da315e0708a16f4d0142bb21a2e3cbdc943c",
            "test.csv": "d8e4453bf2e8e2e0cc554a3b1287ce011bdf5294ba8a7cda55296b02615122b9",
            "manifest.json": "a42697721a7fb9e4d46fa644438124d746607d9272f91b981db785379d283da6",
        }


class TestTrain:
    def test_smoke_run_artifacts(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == ["method", "seeds", "bal_acc_mean", "bal_acc_per_seed", "rho_final",
                                 "nc1", "nc2", "nc3", "nc4", "acc_head", "acc_med", "acc_tail"]
        assert summary["method"] == "ce"
        assert summary["seeds"] == [1]
        assert math.isfinite(summary["bal_acc_mean"])
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_loss,bal_acc,acc_head,acc_med,acc_tail,lr,rho,nc1,nc2,nc3,nc4"
        assert len(metrics) == 3  # header + 2 epochs
        params = json.loads((out / "params.json").read_text())
        assert len(params["weights"]) == 4

    def test_method_override_and_multi_seed(self, config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out),
                     "--method", "inverse", "--seed", "1", "--seed", "2"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "inverse"
        assert summary["seeds"] == [1, 2]
        assert len(summary["bal_acc_per_seed"]) == 2
        assert (out / "metrics_seed1.csv").exists()
        assert (out / "metrics_seed2.csv").exists()

    def test_each_seed_of_a_stack_writes_what_it_writes_alone(self, config_path, tmp_path):
        argv = ["train", "--config", str(config_path), "--method", "inverse"]
        assert main(argv + ["--out", str(tmp_path / "stack"), "--seed", "2", "--seed", "1"]) == 0
        for seed in (2, 1):
            alone = tmp_path / f"seed{seed}"
            assert main(argv + ["--out", str(alone), "--seed", str(seed)]) == 0
            stack = tmp_path / "stack"
            assert (stack / f"metrics_seed{seed}.csv").read_bytes() == (alone / "metrics.csv").read_bytes()
            assert (stack / f"params_seed{seed}.json").read_bytes() == (alone / "params.json").read_bytes()

    def test_range_trains_through_a_one_class_batch(self, tmp_path):
        # 72 rows in batches of 71: the last batch holds one row, so one class.
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG.replace("batch_size = 32", "batch_size = 71"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--method", "range"]) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(math.isfinite(float(r["train_loss"])) for r in rows)

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(config_path), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS reads its thread count when numpy loads: one process per count.
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            subprocess.run([sys.executable, "-m", "ltlab.cli", "train", "--config", str(DEFAULT_CONFIG),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "metrics.csv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_unexpected_value_error_is_a_traceback(self, config_path, tmp_path, monkeypatch):
        # Only ConfigError, DataError and NumericError have exit codes; any other error is a bug.
        def broken(*args):
            raise ValueError("a bug")
        monkeypatch.setattr("ltlab.cli.run_experiment", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])

    @pytest.mark.parametrize("shuffled_csv", (False, True), ids=("default", "shuffled-csv"))
    def test_trained_dumps_feed_nc_eval(self, tmp_path, capsys, shuffled_csv):
        # The trainer's epoch end and nc-eval must put the rows in the same class order.
        config = DEFAULT_CONFIG
        if shuffled_csv:
            assert main(["gen", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path / "data")]) == 0
            train = load_csv_dataset(tmp_path / "data" / "train.csv")
            perm = np.random.default_rng(5).permutation(len(train))
            save_csv_dataset(replace(train, x=train.x[perm], y=train.y[perm]), tmp_path / "shuffled.csv")
            rest = DEFAULT_CONFIG.read_text().split("[train]", 1)[1]  # [dataset] comes first
            config = tmp_path / "csv.ini"
            config.write_text(f"[dataset]\nkind = csv\ntrain_path = {tmp_path / 'shuffled.csv'}\n"
                              f"test_path = {tmp_path / 'data' / 'test.csv'}\n\n[train]{rest}")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["nc-eval", "--features", str(out / "features.csv"),
                     "--classifier", str(out / "classifier.csv"),
                     "--bias", str(out / "bias.csv")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        with open(out / "metrics.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        # The dumps of the trained model reproduce its last epoch's metrics exactly.
        cols = ("nc1", "nc2", "nc3", "nc4")
        assert {k: repr(report[k]) for k in cols} == {k: last[k] for k in cols}
        assert "rho" not in report

    def test_features_csv_uses_the_dataset_format(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        features = load_csv_dataset(out / "features.csv")
        rewritten = tmp_path / "rewritten.csv"
        save_csv_dataset(features, rewritten)
        # repr round-trips, so only a file in the writer's own format rewrites to the same bytes.
        assert (out / "features.csv").read_bytes() == rewritten.read_bytes()
        assert (out / "features.csv").read_bytes().startswith(b"f0,f1,")


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["gen", "train"])
    @pytest.mark.parametrize("below", [False, True], ids=("file", "below-a-file"))
    def test_a_file_exits_2_naming_out(self, config_path, tmp_path, capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "run" if below else taken
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: --out {out}: {taken} exists and is not a directory\n"
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_one_that_cannot_be_made_exits_2_naming_out(self, config_path, tmp_path, capsys,
                                                         monkeypatch, command):
        def refused(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))
        monkeypatch.setattr(Path, "mkdir", refused)
        out = tmp_path / "run"
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot create --out {out}: ")

    @pytest.mark.parametrize("command, name", [("gen", "train.csv"), ("train", "metrics.csv")])
    def test_a_write_that_fails_exits_2_naming_the_file(self, config_path, tmp_path, capsys, command, name):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)  # a directory where the file goes
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write --out {out}: ")
        assert captured.err.endswith(f"'{out / name}'\n")


def write_fixture_dumps(tmp_path, c=4, p=6):
    fx = make_nc_fixture(c, p, n_per_class=3, scale=1.5, radius=1.0, seed=2)
    x = np.concatenate(fx.features)
    y = np.repeat(np.arange(c), 3)
    feat = tmp_path / "features.csv"
    rows = [",".join(f"f{i}" for i in range(p)) + ",label"]
    for row, label in zip(x, y):
        rows.append(",".join(repr(float(v)) for v in row) + f",{label}")
    feat.write_text("\n".join(rows) + "\n")
    clf = tmp_path / "classifier.csv"
    np.savetxt(clf, fx.classifier, delimiter=",")
    return feat, clf


class TestNcEval:
    def test_fixture_dump_collapses(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nc1"] <= 1e-9
        assert report["nc2"] <= 1e-9
        assert report["nc3"] <= 1e-9
        assert report["nc4"] == 1.0

    def test_rho_at_any_scale(self, tmp_path, capsys):
        # Finite losses whose spread overflows a plain mean and std: rho is sqrt(3).
        feat, clf = write_fixture_dumps(tmp_path)
        losses = tmp_path / "losses.json"
        losses.write_text("[1e300, 1e-300, 1.0, 1.0]")
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf),
                     "--losses", str(losses)]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # strict JSON
        assert report["rho"] == 1.7320508075688772

    def test_losses_add_rho(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        losses = tmp_path / "losses.json"
        losses.write_text("[1.0, 3.0, 1, 3.0]")  # one per class of the 4-class fixture
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf),
                     "--losses", str(losses)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rho"] == pytest.approx(0.5)


class TestWeights:
    def test_uniform_losses(self, capsys):
        assert main(["weights", "--losses", "1,1", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l_bar"] == 1.0
        assert payload["weights"]["0"]["w_hat"] == 1.0
        assert payload["weights"]["1"]["w_hat"] == 1.0

    def test_hand_example(self, capsys):
        main(["weights", "--losses", "1,3", "--alpha", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["l_bar"] == 2.0
        assert payload["weights"]["0"]["w_star"] == pytest.approx(2.0)
        assert payload["weights"]["1"]["w_star"] == pytest.approx(2.0 / 3.0)

    def test_single_loss_with_anchor(self, capsys):
        main(["weights", "--losses", "2", "--alpha", "0.1"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"]["0"]["w_star"] == pytest.approx(1.0)

    def test_stdout_format(self, capsys):
        assert main(["weights", "--losses", "0,3", "--alpha", "0", "--w0", "0.5,1"]) == 0
        expected = {"l_bar": 1.5, "weights": {
            "0": {"w_star": 0.5, "beta": 1.0, "w_hat": 0.5},
            "1": {"w_star": 0.5, "beta": 1.0, "w_hat": 0.5}}}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_losses_near_the_float_maximum(self, capsys):
        # Their sum overflows, their mean does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weights", "--losses", "1e308,1e308"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # strict JSON
        assert payload["l_bar"] == 1e308
        assert [w["w_hat"] for w in payload["weights"].values()] == [1.0, 1.0]

    @pytest.mark.parametrize("argv, expected", [
        (["--losses", "1e200,3e200", "--alpha", "0.5"], [2.0, 2.0 / 3.0]),
        (["--losses", "1e308,1e308", "--alpha", "1e308"], [1.0, 1.0]),
        # Here they underflow (1e-340 and 1e-350), to a positive weight, exactly 1e-190 + 1e-200.
        (["--losses", "1e-170,1e-170", "--alpha", "1e-150", "--w0", "1e-200,1e-200"],
         [1.0000000001e-190, 1.0000000001e-190]),
    ])
    def test_overflowing_products_give_the_finite_weights(self, capsys, argv, expected):
        # l_bar*l_c and l_c^2 overflow, while the weights themselves are finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weights"] + argv) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # strict JSON
        assert [w["w_star"] for w in payload["weights"].values()] == expected

    def test_underflowing_products_give_the_weight_to_2_ulp(self, capsys):
        # l_c^2 and alpha*w0 underflow, and the plain form reads class 0's
        # weight 69% too large.
        assert main(["weights", "--losses", "6.1681232e-316,2.534098825357965e-159",
                     "--alpha", "1.248474529988845e-308",
                     "--w0", "9.11331918708407e-168,9.11331918708407e-168"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"]["0"]["w_star"] == 7.171224822319144e-167


class TestMlf:
    def test_series_branch(self, capsys):
        assert main(["mlf", "--a", "0.5", "--z", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.0
        assert payload["branch"] == "series"

    def test_tail_branch_value(self, capsys):
        main(["mlf", "--a", "0.5", "--z", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["branch"] == "tail"
        assert payload["value"] == pytest.approx(0.141047, rel=1e-4)

    def test_branch_gap_reported(self, capsys):
        main(["mlf", "--a", "1", "--z", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["branch"] == "exp"
        assert payload["value"] == 0.36787944117144233
        assert payload["series_value"] == pytest.approx(math.exp(-1), abs=1e-6)
        assert payload["tail_value"] == 0.0

    @pytest.mark.parametrize("a,z", [(0.3, 3.0), (0.1, 1000.0)])
    def test_cancelled_series_not_reported(self, capsys, a, z):
        # The series' largest term times eps is far above 1e-6 here (at
        # z = 1000 it overflows a double), so only the tail is shown.
        assert main(["mlf", "--a", str(a), "--z", str(z)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.0 / (z * math.gamma(1.0 - a)), rel=1e-12)
        assert "series_value" not in payload and "tail_value" not in payload


class TestNcEvalMatrixFiles:
    """The classifier and bias files: blank lines and line ends are skipped,
    and cells may be quoted, as in the dataset reader. Their bad lines and
    shapes are rows of BAD_INPUTS."""

    def test_blank_lines_and_line_ends(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 0
        want = capsys.readouterr().out
        rows = clf.read_text().splitlines()
        clf.write_bytes(("\r\n".join(rows[:2]) + "\r\n\n" + "\n".join(rows[2:])).encode())
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 0
        assert capsys.readouterr().out == want

    def test_quoted_cells_read_as_unquoted(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        bias = tmp_path / "bias.csv"
        bias.write_text("100.0,0.0,-1.5,0.25\n")  # class 0 wins every row, so nc4 reads the bias
        argv = ["nc-eval", "--features", str(feat), "--classifier", str(clf), "--bias", str(bias)]
        assert main(argv) == 0
        want = capsys.readouterr().out
        assert json.loads(want)["nc4"] == 0.25
        for path in (clf, bias):
            path.write_text("".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
                                    for line in path.read_text().splitlines()))
        assert clf.read_text().startswith('"')
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestCsvTrainingPath:
    def test_train_from_generated_csv(self, config_path, tmp_path, capsys):
        data_dir, out, losses = tmp_path / "data", tmp_path / "run", tmp_path / "losses.json"
        assert main(["gen", "--config", str(config_path), "--out", str(data_dir)]) == 0
        csv_cfg = tmp_path / "csv.ini"
        rest = BASE_CONFIG.split("[train]", 1)[1]  # [dataset] comes first
        csv_cfg.write_text(f"[dataset]\nkind = csv\ntrain_path = {data_dir / 'train.csv'}\n"
                           f"test_path = {data_dir / 'test.csv'}\n\n[train]{rest}")
        train = ["train", "--config", str(csv_cfg), "--out", str(out), "--method", "inverse"]
        assert main(train) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert math.isfinite(summary["bal_acc_mean"])
        # The run learns: the loss falls (1.343 -> 0.838) and bal_acc (0.625) beats chance, 1/C.
        with open(out / "metrics.csv", newline="") as fh:
            first, last = csv.DictReader(fh)
        assert float(last["train_loss"]) < float(first["train_loss"])
        assert float(last["bal_acc"]) > 1 / 4
        # A leading UTF-8 BOM is no part of the first key, cell or value: with one on the INI and the CSVs (label
        # column first), train prints what it prints without; so does nc-eval, with one on classifier, bias, losses.
        for path in data_dir.glob("*.csv"):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            path.write_text("".join(",".join(row[-1:] + row[:-1]) + "\n" for row in rows))
        losses.write_text("[1.0, 3.0, 1.0, 3.0]")
        nc_eval = ["nc-eval", *(f"--{name}={out / name}.csv" for name in ("features", "classifier", "bias")),
                   f"--losses={losses}"]
        for argv, marked in ((train, (csv_cfg, *data_dir.glob("*.csv"))),
                             (nc_eval, (out / "classifier.csv", out / "bias.csv", losses))):
            capsys.readouterr()
            assert main(argv) == 0
            plain = capsys.readouterr().out
            for path in marked:
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert main(argv) == 0
            assert capsys.readouterr().out == plain


# Bad inputs: main must exit with the row's code, print nothing on stdout,
# and print on stderr one message that starts with the code's prefix and then
# the row's fragment (a fragment that ends in a newline is the whole
# message); a gen or train row must leave no --out. In argv, fragments and
# config texts {t} is the test's directory, where the setup writes its files
# one byte per character, so "\xff" is a byte that is not UTF-8. No row may warn.
PREFIXES = {2: "config error: ", 3: "data error: ", 4: "numeric failure: "}
GEN = "gen --config {t}/c.ini --out {t}/out"
TRAIN = "train --config {t}/c.ini --out {t}/out"
NC = "nc-eval --features {t}/features.csv --classifier {t}/classifier.csv"
BIAS, LOSSES = " --bias {t}/bias.csv", " --losses {t}/losses.json"


def _write(path, text):
    path.write_bytes(text.encode("latin-1"))


def cell(line, col, value):
    """An edit of a CSV text: cell ``col`` of line ``line`` (both from 0) becomes ``value``."""
    def edit(text):
        lines = text.split("\n")
        cells = lines[line].split(",")
        cells[col] = value
        lines[line] = ",".join(cells)
        return "\n".join(lines)
    return edit


def config(*edits, text=BASE_CONFIG):
    """Setup: {t}/c.ini, ``text`` with each (old, new) edit made."""
    def setup(t):
        edited = text
        for old, new in edits:
            edited = edited.replace(old, new)
        _write(t / "c.ini", edited.replace("{t}", str(t)))
    return setup


def dumps(**files):
    """Setup: write_fixture_dumps's features.csv and classifier.csv (4
    classes, 6 features); then each named file (features, classifier, bias or
    losses) holds its text, or an edit of the fixture's."""
    def setup(t):
        write_fixture_dumps(t)
        for name, content in files.items():
            path = t / (name + (".json" if name == "losses" else ".csv"))
            _write(path, content(path.read_text()) if callable(content) else content)
    return setup


def csv_dataset(*edits, test_edits=None, train_edit=None):
    """Setup: gen's {t}/train/train.csv from BASE_CONFIG with ``edits`` (then
    ``train_edit``), its {t}/test/test.csv with ``test_edits`` (default
    ``edits``), and {t}/c.ini reading the two as kind = csv."""
    def setup(t):
        for split, split_edits in (("train", edits), ("test", edits if test_edits is None else test_edits)):
            config(*split_edits)(t)
            assert main(["gen", "--config", str(t / "c.ini"), "--out", str(t / split)]) == 0
        if train_edit is not None:
            path = t / "train" / "train.csv"
            _write(path, train_edit(path.read_text()))
        _write(t / "c.ini", f"[dataset]\nkind = csv\ntrain_path = {t}/train/train.csv\n"
                            f"test_path = {t}/test/test.csv\n")
    return setup


DIVERGE = config(("switch_epoch = 12", "switch_epoch = 0"), ("eta0 = 0.1", "eta0 = 1e8"),
                 text=DEFAULT_CONFIG.read_text())


def bad(name, setup, argv, code, fragment):
    return pytest.param(setup, argv, code, fragment, id=name)


BAD_INPUTS = [
    bad("gen-csv-dataset", config(text="[dataset]\nkind = csv\ntrain_path = a.csv\ntest_path = b.csv\n"),
        GEN, 2, "gen requires a synthetic [dataset] section\n"),
    *(bad(f"{argv.split()[0]}-config-not-utf8", config(text="[train]\nepochs = 2\xff\n"), argv, 2,
          "cannot read config file {t}/c.ini: 'utf-8' codec") for argv in (GEN, TRAIN)),
    bad("train-config-missing", None, TRAIN, 2, "cannot read config file {t}/c.ini: "),
    bad("train-config-malformed", config(text="epochs = 3\n"), TRAIN, 2,
        "malformed config file {t}/c.ini: line 1 comes before any [section]\n"),
    bad("train-config-line-without-equals", config(text="[train]\nepochs = 2\nfoo\nbar\n"), TRAIN, 2,
        "malformed config file {t}/c.ini: line 3 is not a key = value line\n"),
    bad("train-unknown-key", config(text=BASE_CONFIG + "\n[reweight]\nbanana = 1\n"), TRAIN, 2,
        "unknown keys in [reweight]: banana\n"),
    bad("train-unknown-method", config(), TRAIN + " --method bogus", 2,
        "unknown method 'bogus'; valid: ce, inv_freq, inv_sqrt, cb, focal, ib, range, inverse\n"),
    bad("train-repeated-seed", config(), TRAIN + " --seed 4 --seed 2 --seed 4 --seed 2", 2,
        "--seed 4 is given more than once"),
    bad("train-negative-dataset-seed", config(("seed = 3", "seed = -3")), TRAIN, 2,
        "[dataset] seed must lie in [0, inf), got -3\n"),
    bad("train-negative-train-seed", config(("seed = 1", "seed = -1")), TRAIN, 2,
        "[train] seed must lie in [0, inf), got -1\n"),
    bad("train-negative-seed-flag", config(), TRAIN + " --seed 2 --seed -5", 2, "--seed must be >= 0, got -5\n"),
    # A noise draw times 1e308 overflows: the config is at fault, not the data or training.
    *(bad(f"{argv.split()[0]}-mixture-overflows", config(("noise_sigma = 1.0", "noise_sigma = 1e308")), argv, 2,
          "[dataset] class_separation = 2.0 and noise_sigma = 1e+308 draw features beyond the float range\n")
      for argv in (GEN, TRAIN)),
    # Two classes leave the tail tercile empty, so acc_tail has no classes to average.
    bad("train-two-classes", config(("classes = 4", "classes = 2")), TRAIN, 3, "the training set has 2 classes"),
    bad("train-csv-missing", config(text="[dataset]\nkind = csv\ntrain_path = {t}/absent.csv\n"
                                         "test_path = {t}/absent.csv\n"),
        TRAIN, 3, "cannot open dataset file {t}/absent.csv: "),
    bad("train-csv-two-classes", csv_dataset(("classes = 4", "classes = 2")), TRAIN, 3,
        "the training set has 2 classes"),
    bad("train-csv-not-utf8", csv_dataset(train_edit=cell(1, -1, "0\xff")), TRAIN, 3,
        "{t}/train/train.csv row 2: not UTF-8 text"),
    bad("train-csv-two-label-columns", csv_dataset(train_edit=cell(0, 0, "label")), TRAIN, 3,
        "{t}/train/train.csv: more than one column named 'label' in header\n"),
    bad("train-csv-shape-mismatch", csv_dataset(("classes = 4", "classes = 10"),
                                                test_edits=[("classes = 4", "classes = 5")]),
        TRAIN, 3, "train/test shape mismatch: 8x10 vs 8x5\n"),
    # The runs diverge on purpose: at iteration 21 the per-sample losses
    # themselves are non-finite, in each run of the stack as in the single run;
    # the first seed in seed order is named.
    bad("train-diverges", DIVERGE, TRAIN, 4, "seed 1: non-finite loss at epoch 1, iteration 21\n"),
    bad("train-stack-diverges", DIVERGE, TRAIN + " --seed 2 --seed 3", 4,
        "seed 2: non-finite loss at epoch 1, iteration 21\n"),

    # A finite classifier whose Gram matrix W W^T overflows: nc2 is not finite.
    bad("nc-eval-gram-overflows", dumps(classifier=cell(0, 0, "1e200")), NC, 4,
        "metric computation failed: W W^T has non-finite entries; metric undefined\n"),
    # A classifier cell of 1e308 times a feature cell of 4 overflows a logit.
    bad("nc-eval-logits-overflow", dumps(features=cell(1, 0, "4.0"), classifier=cell(0, 0, "1e308")), NC, 4,
        "non-finite logits: the features times the classifier, plus the bias, overflow\n"),
    bad("nc-eval-one-class", dumps(features="f0,f1,label\n1.0,2.0,0\n3.0,4.0,0\n", classifier="1.0,0.0\n"),
        NC, 3, "{t}/features.csv: the collapse metrics need at least 2 classes, found 1\n"),
    bad("nc-eval-features-not-utf8", dumps(features=cell(4, 0, "1.0\xff")), NC, 3,
        "{t}/features.csv row 5: not UTF-8 text"),
    *(bad(f"nc-eval-label-{name}", dumps(features=cell(12, -1, label)), NC, 3,  # the last of 12 data rows
          "{t}/features.csv row 13: " + message)
      for name, label, message in [("huge", "99999999999999999999", "label '99999999999999999999'"),
                                   ("too-large", "100000", "label '100000'"),
                                   ("fraction", "1.5", "non-integer label '1.5'")]),
    bad("nc-eval-classifier-missing", dumps(), NC.replace("classifier.csv", "absent.csv"), 3,
        "cannot open classifier file {t}/absent.csv: "),
    bad("nc-eval-classifier-shape", dumps(classifier="1,1,1,1,1\n" * 3), NC, 3,
        "classifier shape 3x5 does not match 4 classes x 6 features\n"),
    bad("nc-eval-classifier-field-limit", dumps(classifier="1" * 200_000 + "\n"), NC, 3,
        "classifier file {t}/classifier.csv: "),
    *(bad(f"nc-eval-{what}-{name}", dumps(**{what: text}), NC + (BIAS if what == "bias" else ""), 3,
          f"{what} file {{t}}/{what}.csv line {message}")
      for what in ("classifier", "bias")
      for name, text, message in [("letter", "1,2,3,4,5,6\n0,x,1,1,1,1\n", "2: a cell is not a finite number"),
                                  ("hash", "1,2,3,4,5,6\n#3,4,1,1,1,1\n", "2: a cell is not a finite number"),
                                  ("ragged", "1,2,3,4,5,6\n\n1,2,3\n", "3: 3 cells, not 6"),
                                  ("inf", "1,2,3,4,5,6\n1,2,3,4,5,inf\n", "2: a cell is not a finite number"),
                                  ("not-utf8", "1,2,3,4,5,6\n1,2,3,\xff,5,6\n",
                                   "2: a cell is not a finite number")]),
    *(bad(f"nc-eval-bias-{shape}", dumps(bias=text), NC + BIAS, 3,
          f"bias shape {shape} is not one row of 4 values\n")
      for text, shape in [("1,2\n3,4\n", "2x2"), ("1\n2\n3\n4\n", "4x1")]),
    *(bad(f"nc-eval-{what}-{name}", dumps(**{what: text}), NC + (BIAS if what == "bias" else ""), 3,
          f"{what} file {{t}}/{what}.csv: no data rows\n")
      for what in ("classifier", "bias") for name, text in [("empty", ""), ("blank", "\n\r\n\n")]),
    bad("nc-eval-losses-missing", dumps(), NC + LOSSES.replace("losses.json", "absent.json"), 3,
        "cannot open losses file {t}/absent.json: "),
    *(bad(f"nc-eval-losses-{name}", dumps(losses=text), NC + LOSSES, 3, "losses file {t}/losses.json" + message)
      for name, text, message in [
          ("dict", '{"0": 1.0, "1": 3.0, "2": 1.0, "3": 3.0}',
           ' must hold a JSON list of 4 losses, one per class; found {"0": 1.0'),
          ("short", "[1.0, 3.0, 2.0]", " must hold a JSON list of 4 losses, one per class; found 3 entries\n"),
          ("long", "[1.0, 3.0, 2.0, 1.0, 1.0]",
           " must hold a JSON list of 4 losses, one per class; found 5 entries\n"),
          ("negative", "[1.0, -3.0, 2.0, 1.0]", ": entry 1 is -3.0, not a finite, nonnegative number\n"),
          ("string", '[1.0, 3.0, "a", 1.0]', ": entry 2 is 'a', not a finite"),
          ("bool", "[1.0, 3.0, true, 1.0]", ": entry 2 is True, not a finite"),
          ("null", "[1.0, 3.0, null, 1.0]", ": entry 2 is None, not a finite"),
          ("nan", "[1.0, NaN, 2.0, 1.0]", ": entry 1 is nan, not a finite"),
          ("inf", "[1.0, 2.0, 2.0, Infinity]", ": entry 3 is inf, not a finite"),
          ("huge-int", "[1.0, 2.0, 2.0, 1" + "0" * 400 + "]", ": entry 3 is 1000"),
      ]),
    *(bad(f"nc-eval-losses-{name}", dumps(losses=text), NC + LOSSES, 3, "malformed losses file {t}/losses.json: ")
      for name, text in [("truncated", "[1.0, 2.0,"), ("not-utf8", "[1.0, 3.0\xff, 1.0, 3.0]")]),

    # l_bar / l_c = 1e600 is beyond the float range.
    bad("weights-weight-overflows", None, "weights --losses 2e300,1e-300", 4, "the weight of class 1 is inf"),
    bad("weights-losses-not-numbers", None, "weights --losses a,b", 2,
        "--losses must be a comma-separated list of numbers, got 'a,b'\n"),
    bad("weights-losses-empty", None, "weights --losses ,", 2, "--losses must contain at least one value\n"),
    bad("weights-negative-loss", None, "weights --losses 1,-2 --alpha 0", 2, "--losses must be nonnegative\n"),
    bad("weights-negative-alpha", None, "weights --losses 1,2 --alpha -1", 2, "--alpha must be >= 0\n"),
    bad("weights-w0-length", None, "weights --losses 1,2 --w0 1", 2, "--w0 has 1 entries for 2 losses\n"),
    bad("weights-w0-zero", None, "weights --losses 1,2 --w0 0,1", 2, "--w0 must be positive\n"),
    *(bad(f"weights-{flag}-{value}", None, "weights " + args, 2, f"--{flag} must be finite, got {value}\n")
      for flag, value, args in [("losses", "nan", "--losses nan,1"), ("losses", "inf", "--losses 1,inf"),
                                ("alpha", "nan", "--losses 1,2 --alpha nan"),
                                ("alpha", "inf", "--losses 1,2 --alpha inf"),
                                ("w0", "nan", "--losses 1,2 --w0 1,nan"),
                                ("w0", "inf", "--losses 1,2 --w0 1,inf")]),
    bad("mlf-a-out-of-range", None, "mlf --a 1.5 --z 1", 2, "a must lie in (0, 1], got 1.5\n"),
    *(bad(f"mlf-{flag}-{value}", None, f"mlf --{flag} {value} {other}", 2,
          f"--{flag} must be finite, got {value}\n")
      for value in ("nan", "inf") for flag, other in [("a", "--z 1"), ("z", "--a 0.5")]),
]


@pytest.mark.filterwarnings("error")  # no warning, numpy's or another, reaches stderr either
@pytest.mark.parametrize("setup, argv, code, fragment", BAD_INPUTS)
def test_bad_input(tmp_path, capsys, setup, argv, code, fragment):
    if setup is not None:
        setup(tmp_path)
        capsys.readouterr()
    argv = [arg.replace("{t}", str(tmp_path)) for arg in argv.split()]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = PREFIXES[code] + fragment.replace("{t}", str(tmp_path))
    if expected.endswith("\n"):  # the whole message
        assert captured.err == expected
    else:
        assert captured.err.startswith(expected)
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()
