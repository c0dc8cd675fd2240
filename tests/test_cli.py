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

    def test_csv_config_rejected(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[dataset]\nkind = csv\ntrain_path = a.csv\ntest_path = b.csv\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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

    def test_unknown_method_lists_valid(self, config_path, tmp_path, capsys):
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "x"),
                     "--method", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "inverse" in err and "focal" in err

    def test_unknown_config_key_rejected_before_output(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG + "\n[reweight]\nbanana = 1\n")
        out = tmp_path / "nope"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

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
        main(["train", "--config", str(config_path), "--out", str(out1)])
        main(["train", "--config", str(config_path), "--out", str(out2)])
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

    # The run diverges on purpose; numpy warns about the inf and nan it produces.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4_naming_epoch_and_iteration(self, tmp_path, capsys):
        text = DEFAULT_CONFIG.read_text()
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(text.replace("switch_epoch = 12", "switch_epoch = 0").replace("eta0 = 0.1", "eta0 = 1e8"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "non-finite loss at epoch 0, iteration 11" in capsys.readouterr().err

    # The runs diverge on purpose; numpy warns about the inf and nan they produce.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_a_stack_names_the_seed_and_writes_no_seed_files(self, tmp_path, capsys):
        text = DEFAULT_CONFIG.read_text()
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(text.replace("switch_epoch = 12", "switch_epoch = 0")
                       .replace("eta0 = 0.1", "eta0 = 1e8"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "2", "--seed", "3"]) == 4
        # Both seeds overflow at iteration 11; the first in seed order is named.
        assert "seed 2: non-finite loss at epoch 0, iteration 11" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed_exits_2_naming_it(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--config", str(config_path), "--out", str(out)]
        assert main(argv + ["--seed", "4", "--seed", "2", "--seed", "4", "--seed", "2"]) == 2
        assert "--seed 4 is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, flags, named", [
        (("seed = 3", "seed = -3"), [], "[dataset] seed must be >= 0, got -3"),
        (("seed = 1", "seed = -1"), [], "[train] seed must be >= 0, got -1"),
        (None, ["--seed", "2", "--seed", "-5"], "--seed must be >= 0, got -5"),
    ], ids=("dataset", "train", "flag"))
    def test_negative_seed_exits_2_naming_it_before_output(self, tmp_path, capsys, edit, flags, named):
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG.replace(*edit) if edit else BASE_CONFIG)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not out.exists()

    def test_two_classes_exit_3_before_training(self, tmp_path, capsys):
        # Two classes leave the tail tercile empty, so acc_tail has no classes to average.
        cfg = tmp_path / "two.ini"
        cfg.write_text(BASE_CONFIG.replace("classes = 4", "classes = 2"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert "the training set has 2 classes" in capsys.readouterr().err
        assert not out.exists()

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

    def test_losses_add_rho(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        losses = tmp_path / "losses.json"
        losses.write_text("[1.0, 3.0, 1, 3.0]")  # one per class of the 4-class fixture
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf),
                     "--losses", str(losses)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rho"] == pytest.approx(0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning reaches stderr either
    def test_overflowing_rho_prints_no_json(self, tmp_path, capsys):
        # Finite losses whose spread overflows: rho is inf, which JSON cannot hold.
        feat, clf = write_fixture_dumps(tmp_path)
        losses = tmp_path / "losses.json"
        losses.write_text("[1e300, 1e-300, 1.0, 1.0]")
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf),
                     "--losses", str(losses)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: ")
        assert "metric values must be finite" in captured.err

    def test_one_class_exits_3_naming_file_and_count(self, tmp_path, capsys):
        feat = tmp_path / "features.csv"
        feat.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,0\n")
        clf = tmp_path / "classifier.csv"
        clf.write_text("1.0,0.0\n")
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {feat}: the collapse metrics need at least 2 classes, found 1\n"

    @pytest.mark.parametrize("text, message", [
        ('{"0": 1.0, "1": 3.0, "2": 1.0, "3": 3.0}', "list of 4 losses, one per class; found {\"0\": 1.0"),
        ("[1.0, 3.0, 2.0]", "list of 4 losses, one per class; found 3 entries"),
        ("[1.0, 3.0, 2.0, 1.0, 1.0]", "found 5 entries"),
        ("[1.0, -3.0, 2.0, 1.0]", "entry 1 is -3.0, not a finite, nonnegative number"),
        ('[1.0, 3.0, "a", 1.0]', "entry 2 is 'a', not a finite"),
        ("[1.0, 3.0, true, 1.0]", "entry 2 is True, not a finite"),
        ("[1.0, 3.0, null, 1.0]", "entry 2 is None, not a finite"),
        ("[1.0, NaN, 2.0, 1.0]", "entry 1 is nan, not a finite"),
        ("[1.0, 2.0, 2.0, Infinity]", "entry 3 is inf, not a finite"),
        ("[1.0, 2.0, 2.0, 1" + "0" * 400 + "]", "entry 3 is 1000"),
        ("[1.0, 2.0,", "malformed losses file"),
        ("[1.0, 3.0\xff, 1.0, 3.0]", "malformed losses file"),
    ])
    def test_bad_losses_exit_3_naming_file_and_problem(self, tmp_path, capsys, text, message):
        feat, clf = write_fixture_dumps(tmp_path)
        losses = tmp_path / "losses.json"
        losses.write_bytes(text.encode("latin-1"))  # one byte per character: "\xff" is not UTF-8
        code = main(["nc-eval", "--features", str(feat), "--classifier", str(clf),
                     "--losses", str(losses)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("data error: ")
        assert str(losses) in captured.err and message in captured.err

    def test_missing_classifier_file(self, tmp_path, capsys):
        feat, _ = write_fixture_dumps(tmp_path)
        code = main(["nc-eval", "--features", str(feat),
                     "--classifier", str(tmp_path / "absent.csv")])
        assert code == 3

    def test_shape_mismatch_names_dimensions(self, tmp_path, capsys):
        feat, _ = write_fixture_dumps(tmp_path, c=4, p=6)
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, np.ones((3, 5)), delimiter=",")
        code = main(["nc-eval", "--features", str(feat), "--classifier", str(bad)])
        assert code == 3
        err = capsys.readouterr().err
        assert "3x5" in err and "4 classes" in err and "6 features" in err

    @pytest.mark.parametrize("label, message", [
        ("99999999999999999999", "row 13: label '99999999999999999999'"),
        ("100000", "row 13: label '100000'"),
        ("1.5", "row 13: non-integer label '1.5'"),
    ])
    def test_bad_label_exits_3_naming_the_row(self, tmp_path, capsys, label, message):
        feat, clf = write_fixture_dumps(tmp_path)
        lines = feat.read_text().splitlines()
        lines[12] = lines[12].rsplit(",", 1)[0] + "," + label  # the last of the 12 data rows
        feat.write_text("\n".join(lines) + "\n")
        code = main(["nc-eval", "--features", str(feat), "--classifier", str(clf)])
        assert code == 3
        assert message in capsys.readouterr().err


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

    def test_non_finite_weight_exits_4_naming_the_class(self, capsys):
        # l_bar / l_c = 1e600 is beyond the float range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weights", "--losses", "2e300,1e-300"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric failure: the weight of class 1 is inf" in captured.err

    def test_negative_loss_rejected(self, capsys):
        assert main(["weights", "--losses", "1,-2", "--alpha", "0"]) == 2

    def test_w0_length_mismatch(self, capsys):
        assert main(["weights", "--losses", "1,2", "--w0", "1"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["--losses", "nan,1"], "--losses"),
        (["--losses", "1,inf"], "--losses"),
        (["--losses", "1,2", "--alpha", "nan"], "--alpha"),
        (["--losses", "1,2", "--alpha", "inf"], "--alpha"),
        (["--losses", "1,2", "--w0", "1,nan"], "--w0"),
        (["--losses", "1,2", "--w0", "1,inf"], "--w0"),
    ])
    def test_non_finite_exits_2_naming_the_flag(self, capsys, argv, flag):
        assert main(["weights"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {flag} must be finite" in captured.err


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

    def test_domain_error(self, capsys):
        assert main(["mlf", "--a", "1.5", "--z", "1"]) == 2

    @pytest.mark.parametrize("a, z, flag", [("nan", "1", "--a"), ("inf", "1", "--a"),
                                            ("0.5", "nan", "--z"), ("0.5", "inf", "--z")])
    def test_non_finite_exits_2_naming_the_flag(self, capsys, a, z, flag):
        assert main(["mlf", "--a", a, "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {flag} must be finite" in captured.err

    @pytest.mark.parametrize("a,z", [(0.3, 3.0), (0.1, 1000.0)])
    def test_cancelled_series_not_reported(self, capsys, a, z):
        # The series' largest term times eps is far above 1e-6 here (at
        # z = 1000 it overflows a double), so only the tail is shown.
        assert main(["mlf", "--a", str(a), "--z", str(z)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.0 / (z * math.gamma(1.0 - a)), rel=1e-12)
        assert "series_value" not in payload and "tail_value" not in payload


class TestNcEvalMatrixFiles:
    """The classifier and bias files: a bad line is named from 1, and ``#``
    is an ordinary character, as in the dataset reader."""

    @pytest.mark.parametrize("text, message", [
        ("1,2,3,4,5,6\n0,x,1,1,1,1\n", "line 2: a cell is not a finite number"),
        ("1,2,3,4,5,6\n#3,4,1,1,1,1\n", "line 2: a cell is not a finite number"),
        ("1,2,3,4,5,6\n\n1,2,3\n", "line 3: 3 cells, not 6"),
        ("1,2,3,4,5,6\n1,2,3,4,5,inf\n", "line 2: a cell is not a finite number"),
        ("1,2,3,4,5,6\n1,2,3,\xff,5,6\n", "line 2: a cell is not a finite number"),
    ], ids=("letter", "hash", "ragged", "inf", "not_utf8"))
    def test_bad_line_exits_3_naming_it(self, tmp_path, capsys, text, message):
        feat, _ = write_fixture_dumps(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text.encode("latin-1"))
        for flags in (["--classifier", str(bad)], ["--classifier", str(tmp_path / "classifier.csv"),
                                                   "--bias", str(bad)]):
            assert main(["nc-eval", "--features", str(feat)] + flags) == 3
            err = capsys.readouterr().err
            assert f"{'bias' if '--bias' in flags else 'classifier'} file {bad} {message}" in err

    def test_blank_lines_and_line_ends(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 0
        want = capsys.readouterr().out
        rows = clf.read_text().splitlines()
        clf.write_bytes(("\r\n".join(rows[:2]) + "\r\n\n" + "\n".join(rows[2:])).encode())
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 0
        assert capsys.readouterr().out == want

    def test_non_utf8_features_exit_3_naming_the_row(self, tmp_path, capsys):
        feat, clf = write_fixture_dumps(tmp_path)
        lines = feat.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b",", b"\xff,", 1)
        feat.write_bytes(b"\n".join(lines))
        assert main(["nc-eval", "--features", str(feat), "--classifier", str(clf)]) == 3
        assert f"{feat} row 5: not UTF-8 text" in capsys.readouterr().err


class TestCsvTrainingPath:
    def test_train_from_generated_csv(self, config_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["gen", "--config", str(config_path), "--out", str(data_dir)])
        csv_cfg = tmp_path / "csv.ini"
        csv_cfg.write_text(f"""
[dataset]
kind = csv
train_path = {data_dir / 'train.csv'}
test_path = {data_dir / 'test.csv'}

[train]
epochs = 1
batch_size = 32
seed = 1

[lr]
schedule = multistep
eta0 = 0.1
milestones =
""")
        out = tmp_path / "run"
        assert main(["train", "--config", str(csv_cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert math.isfinite(summary["bal_acc_mean"])

    def test_two_class_csv_exits_3_before_training(self, tmp_path, capsys):
        two = tmp_path / "two.ini"
        two.write_text(BASE_CONFIG.replace("classes = 4", "classes = 2"))
        data_dir = tmp_path / "data"
        main(["gen", "--config", str(two), "--out", str(data_dir)])
        csv_cfg = tmp_path / "csv.ini"
        csv_cfg.write_text(f"[dataset]\nkind = csv\ntrain_path = {data_dir / 'train.csv'}\n"
                           f"test_path = {data_dir / 'test.csv'}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(csv_cfg), "--out", str(out)]) == 3
        assert "the training set has 2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_dataset_exits_3_naming_the_row(self, config_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["gen", "--config", str(config_path), "--out", str(data_dir)])
        train = data_dir / "train.csv"
        rows = train.read_bytes().split(b"\r\n")
        rows[1] += b"\xff"  # the label cell of the first data row
        train.write_bytes(b"\r\n".join(rows))
        csv_cfg = tmp_path / "csv.ini"
        csv_cfg.write_text(f"[dataset]\nkind = csv\ntrain_path = {train}\n"
                           f"test_path = {data_dir / 'test.csv'}\n")
        assert main(["train", "--config", str(csv_cfg), "--out", str(tmp_path / "run")]) == 3
        assert f"{train} row 2: not UTF-8 text" in capsys.readouterr().err
