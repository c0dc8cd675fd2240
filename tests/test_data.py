import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.data import (
    Dataset,
    LongTailSpec,
    batch_iter,
    exp_profile_counts,
    gaussian_mixture,
    load_csv_dataset,
    save_csv_dataset,
)
from ltlab.errors import DataError


class TestExpProfileCounts:
    def test_balanced_when_if_one(self):
        assert exp_profile_counts(5, 100, 1.0) == (100,) * 5

    def test_two_classes(self):
        assert exp_profile_counts(2, 100, 100.0) == (100, 1)

    def test_three_classes(self):
        assert exp_profile_counts(3, 100, 100.0) == (100, 10, 1)

    def test_head_exact_and_non_increasing(self):
        for imb in (1.0, 10.0, 50.0, 100.0, 200.0):
            counts = exp_profile_counts(10, 500, imb)
            assert counts[0] == 500
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert counts[-1] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            exp_profile_counts(1, 100, 10.0)
        with pytest.raises(ValueError):
            exp_profile_counts(3, 100, 0.5)


class TestGaussianMixture:
    def test_zero_noise_places_samples_on_centers(self):
        spec = LongTailSpec(class_count=3, n_max=10, imbalance_factor=2.0, input_dim=4,
                            class_separation=2.0, noise_sigma=0.0, seed=1, test_per_class=5)
        train, test = gaussian_mixture(spec)
        for c in range(3):
            block = train.x[train.y == c]
            assert np.abs(block - block[0]).max() == 0.0
        # nearest-center rule classifies the noiseless test set perfectly
        centers = np.stack([train.x[train.y == c][0] for c in range(3)])
        d2 = ((test.x[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), test.y)

    def test_deterministic(self):
        spec = LongTailSpec(class_count=4, n_max=30, seed=9, input_dim=6)
        a_train, a_test = gaussian_mixture(spec)
        b_train, b_test = gaussian_mixture(spec)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.x, b_test.x)
        assert np.array_equal(a_train.y, b_train.y)

    def test_counts_follow_profile(self):
        spec = LongTailSpec(class_count=10, n_max=500, imbalance_factor=100.0, seed=2)
        train, test = gaussian_mixture(spec)
        assert train.counts.tolist() == list(exp_profile_counts(10, 500, 100.0))
        assert len(train) == train.counts.sum()
        assert test.counts.tolist() == [100] * 10

    def test_low_dim_random_centers(self):
        spec = LongTailSpec(class_count=6, n_max=20, input_dim=3, seed=4)
        train, _ = gaussian_mixture(spec)
        assert train.input_dim == 3


class TestDatasetValidation:
    @pytest.mark.parametrize("labels, split, message", [
        ([0, 2], "train", r"^classes \[1\] have no samples \(labels must cover 0\.\.C-1\)$"),
        ([], "train", "^no samples$"),
        ([0, 0, 1], "test", "^test split must be class-balanced$"),
    ])
    def test_rejected_labels(self, labels, split, message):
        with pytest.raises(DataError, match=message):
            Dataset(x=np.zeros((len(labels), 1)), y=np.array(labels, dtype=np.int64), split=split)

    def test_test_split_balance_enforced(self):
        with pytest.raises(DataError):
            Dataset(x=np.zeros((3, 1)), y=np.array([0, 0, 1]), split="test")

    def test_counts_derived_from_labels(self):
        ds = Dataset(x=np.zeros((4, 2)), y=np.array([2, 0, 2, 1]), split="train")
        assert ds.counts.dtype == np.int64 and ds.counts.tolist() == [1, 1, 2]
        assert ds.class_count == 3
        with pytest.raises(ValueError, match="read-only"):
            ds.counts[0] = 5
        with pytest.raises(TypeError):
            Dataset(x=ds.x, y=ds.y, counts=ds.counts, split="train")
        # The features.csv dump: new features, the same labels and counts.
        dumped = replace(ds, x=np.ones((4, 3)))
        assert np.array_equal(dumped.counts, ds.counts) and not dumped.counts.flags.writeable


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path):
        spec = LongTailSpec(class_count=3, n_max=15, imbalance_factor=3.0, input_dim=4, seed=5)
        train, _ = gaussian_mixture(spec)
        path = tmp_path / "train.csv"
        save_csv_dataset(train, path)
        loaded = load_csv_dataset(path)
        assert np.array_equal(loaded.x, train.x)
        assert np.array_equal(loaded.y, train.y)
        assert np.array_equal(loaded.counts, train.counts)

    def test_small_wellformed_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv_dataset(path)
        assert len(ds) == 3
        assert ds.counts.tolist() == [2, 1]

    def test_text_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\noops,1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv_dataset(path)

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1.5\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv_dataset(tmp_path / "nope.csv")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(DataError, match="label"):
            load_csv_dataset(path)

    def test_gap_in_classes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n2.0,2\n3.0,0\n")
        with pytest.raises(DataError, match="classes \\[1\\]"):
            load_csv_dataset(path)

    def test_counts_match_manual_tally(self, tmp_path):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, size=50)
        labels[:3] = [0, 1, 2]  # ensure all present
        rows = ["f0,label"] + [f"{rng.standard_normal():.6f},{l}" for l in labels]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv_dataset(path)
        tally = [int((labels == c).sum()) for c in range(3)]
        assert ds.counts.tolist() == tally

    def test_unbalanced_test_split_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,1\n")
        with pytest.raises(DataError, match="balanced"):
            load_csv_dataset(path, split="test")


def load_text(tmp_path, text, **kwargs):
    """Load ``text`` written verbatim (no newline translation) as a CSV."""
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    return load_csv_dataset(path, **kwargs)


def reject(tmp_path, text, match):
    with pytest.raises(DataError, match=match) as info:
        load_text(tmp_path, text)
    return str(info.value)


class TestCsvReaderContract:
    """What the reader accepts and how it names the row it rejects. Rows
    count from 1 at the header; blank lines count as rows."""

    def test_label_column_need_not_be_last(self, tmp_path):
        ds = load_text(tmp_path, "f0,label,f1\n1.5,1,2.5\n3.5,0,4.5\n")
        assert ds.x.tolist() == [[1.5, 2.5], [3.5, 4.5]]
        assert ds.y.tolist() == [1, 0]
        assert ds.x.flags.c_contiguous and ds.x.dtype == np.float64 and ds.y.dtype == np.int64

    def test_quoted_cells(self, tmp_path):
        ds = load_text(tmp_path, '"f0","label"\n"1.5","0"\n" -2e3 ",1\n')
        assert ds.x.tolist() == [[1.5], [-2000.0]]
        assert ds.y.tolist() == [0, 1]

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_ends(self, tmp_path, eol):
        ds = load_text(tmp_path, eol.join(["f0,label", "1.5,0", "2.5,1", ""]))
        assert ds.x.tolist() == [[1.5], [2.5]]
        assert ds.y.tolist() == [0, 1]

    def test_no_final_line_end(self, tmp_path):
        assert load_text(tmp_path, "f0,label\n1.5,0\n2.5,1").y.tolist() == [0, 1]

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = load_text(tmp_path, "f0,label\n1.5,0\n\n2.5,1\n\n")
        assert ds.x.tolist() == [[1.5], [2.5]]
        assert ds.y.tolist() == [0, 1]

    def test_blank_lines_count_as_rows(self, tmp_path):
        reject(tmp_path, "f0,label\n1.5,0\n\noops,1\n", "row 4: non-numeric feature cell")

    @pytest.mark.parametrize("text, message", [
        ("f0,f1,label\n1,2,0\n3,1\n", "row 3: expected 3 cells, got 2"),
        ("f0,f1,label\n1,2,0\n3,4,1,5\n", "row 3: expected 3 cells, got 4"),
        ("f0,label\n1,0,7\n2,1,7\n", "row 2: expected 2 cells, got 3"),
        ("f0,label\n1,0\n  \n", "row 3: expected 2 cells, got 1"),
        ("f0,label\n1,0\n2,1,\n", "row 3: expected 2 cells, got 3"),
    ])
    def test_ragged_rows(self, tmp_path, text, message):
        reject(tmp_path, text, message)

    def test_header_only(self, tmp_path):
        reject(tmp_path, "f0,label\n", "no data rows")
        reject(tmp_path, "f0,label\n\n\n", "no data rows")

    def test_empty_file(self, tmp_path):
        reject(tmp_path, "", "empty file")

    def test_no_feature_columns(self, tmp_path):
        reject(tmp_path, "label\n0\n", "no feature columns")

    def test_negative_label(self, tmp_path):
        reject(tmp_path, "f0,label\n1.0,0\n2.0,-1\n", "row 3: negative label -1")

    @pytest.mark.parametrize("label", ["1.5", "nan", "inf", "", "one", "0x1"])
    def test_non_integer_label(self, tmp_path, label):
        reject(tmp_path, f"f0,label\n1.0,0\n2.0,{label}\n",
               re.escape(f"row 3: non-integer label {label!r}"))

    @pytest.mark.parametrize("label", ["1.0", "1e0", "+1", " 1 ", '"1"', "10e-1"])
    def test_integral_number_labels_are_accepted(self, tmp_path, label):
        # Labels are read with the feature cells' number syntax: a number
        # equal to an integer is that integer.
        assert load_text(tmp_path, f"f0,label\n1.0,0\n2.0,{label}\n").y.tolist() == [0, 1]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_feature_names_row(self, tmp_path, cell):
        reject(tmp_path, f"f0,f1,label\n1,2,0\n3,4,1\n5,{cell},1\n",
               "row 4: non-finite feature value")

    def test_parse_errors_are_named_before_non_finite_values(self, tmp_path):
        reject(tmp_path, "f0,label\nnan,0\n1.0,x\n", "row 3: non-integer label 'x'")

    def test_label_too_large_for_int64(self, tmp_path):
        reject(tmp_path, "f0,label\n1.0,0\n2.0,99999999999999999999\n", "row 3: label")

    @pytest.mark.parametrize("label", ["2", "100000"])
    def test_label_not_below_row_count(self, tmp_path, label):
        # Two rows cannot cover the classes 0..label, so the row is named before any counting.
        message = reject(tmp_path, f"f0,label\n1.0,0\n2.0,{label}\n",
                         f"row 3: label '{label}' is not below the 2 data rows")
        assert len(message) < 200

    def test_missing_classes_message_is_short(self, tmp_path):
        rows = ["f0,label"] + [f"{i}.5,0" for i in range(19)] + ["9.5,19"]
        message = reject(tmp_path, "\n".join(rows) + "\n",
                         "classes \\[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\\] and 8 more have no samples")
        assert len(message) < 200

    def test_accepted_text_loads_bit_identically(self, tmp_path):
        cells = ["1e5", " 2.5 ", "-0.0", "5e-324", "1.7976931348623157e308", ".5", "7.", "+3",
                 "0.1000000000000000055511151231257827", "\t4E-2"]
        text = "f0,label\n" + "".join(f"{c},{i % 2}\n" for i, c in enumerate(cells))
        x = load_text(tmp_path, text).x[:, 0]
        assert [v.hex() for v in x.tolist()] == [float(c).hex() for c in cells]

    # Decided differences from the csv.reader + float() reader this one replaced.

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\u0661.5"])
    def test_python_only_number_forms_are_rejected(self, tmp_path, cell):
        # Underscores and non-ASCII digits are Python literal syntax, not CSV numbers.
        reject(tmp_path, f"f0,label\n1.0,0\n{cell},1\n", "row 3: non-numeric feature cell")

    @pytest.mark.parametrize("label", ["1_0", "\u0661"])
    def test_python_only_label_forms_are_rejected(self, tmp_path, label):
        reject(tmp_path, f"f0,label\n1.0,0\n2.0,{label}\n", "row 3: non-integer label")

    @pytest.mark.parametrize("data, row", [
        (b"f0,\xfflabel\n1.0,0\n2.0,1\n", 1),  # the header
        (b"f0,label\n1.0,0\n2.\xff,1\n", 3),  # a feature cell
        (b"f0,label\n1.0,0\n2.0,\xc3\n", 3),  # a label cell, cut inside a multi-byte character
        (b"f0,label\n" + b"1.0,0\n" * 3000 + b"\xff\n2.0,1\n", 3002),  # past the first read
    ], ids=("header", "feature", "label", "far"))
    def test_bytes_that_are_not_utf8_name_the_row(self, tmp_path, data, row):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"row {row}: not UTF-8 text"):
            load_csv_dataset(path)

    def test_hash_is_not_a_comment(self, tmp_path):
        reject(tmp_path, "f0,label\n1.0,0\n#2.0,1\n", "row 3: non-numeric feature cell")
        ds = load_text(tmp_path, "f0,#label\n1.0,0\n2.0,1\n", label_column="#label")
        assert ds.y.tolist() == [0, 1]

    def test_peak_memory_is_near_the_array(self, tmp_path):
        spec = LongTailSpec(class_count=50, n_max=400, imbalance_factor=100.0, input_dim=64,
                            class_separation=4.0, seed=7, test_per_class=20)
        train, _ = gaussian_mixture(spec)
        path = tmp_path / "wide.csv"
        save_csv_dataset(train, path)
        assert train.x.shape == (4419, 64)
        tracemalloc.start()
        try:
            loaded = load_csv_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.x, train.x)
        assert peak < 3 * loaded.x.nbytes


class TestCsvWriter:
    def test_exact_bytes(self, tmp_path):
        x = np.array([[0.1, -0.0, 5e-324], [1e300, -2.5e-310, 3.0]])
        ds = Dataset(x=x, y=np.array([1, 0]), split="train")
        path = tmp_path / "d.csv"
        save_csv_dataset(ds, path)
        assert path.read_bytes() == (b"f0,f1,f2,label\r\n"
                                     b"0.1,-0.0,5e-324,1\r\n"
                                     b"1e+300,-2.5e-310,3.0,0\r\n")

    def test_label_column_name(self, tmp_path):
        ds = Dataset(x=np.zeros((2, 1)), y=np.array([0, 1]), split="test")
        path = tmp_path / "d.csv"
        save_csv_dataset(ds, path, label_column="y")
        assert path.read_bytes() == b"f0,y\r\n0.0,0\r\n0.0,1\r\n"
        assert load_csv_dataset(path, label_column="y", split="test").y.tolist() == [0, 1]


class TestBatchIter:
    def make_dataset(self, n):
        x = np.arange(n, dtype=float)[:, None]
        y = np.zeros(n, dtype=np.int64)
        y[-1] = 1  # two classes, both present
        return Dataset(x=x, y=y, split="train")

    def test_single_batch_when_large(self):
        ds = self.make_dataset(10)
        batches = list(batch_iter(ds, batch_size=32, epoch_seed=0))
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(10))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), batch_size=st.integers(1, 64), seed=st.integers(0, 1000))
    def test_partition_property(self, n, batch_size, seed):
        if n < 2:
            return
        ds = self.make_dataset(n)
        batches = list(batch_iter(ds, batch_size, seed))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n))
        assert all(len(b) == batch_size for b in batches[:-1])

    def test_deterministic_given_seed(self):
        ds = self.make_dataset(50)
        a = [b.tolist() for b in batch_iter(ds, 8, epoch_seed=123)]
        b = [b.tolist() for b in batch_iter(ds, 8, epoch_seed=123)]
        c = [b.tolist() for b in batch_iter(ds, 8, epoch_seed=124)]
        assert a == b
        assert a != c

    def test_seed_sequence_stacks_each_seeds_batches(self):
        ds = self.make_dataset(50)
        stacked = list(batch_iter(ds, 16, [3, 8, 3]))
        for r, seed in enumerate([3, 8, 3]):
            alone = list(batch_iter(ds, 16, seed))
            assert len(stacked) == len(alone) == 4
            for batch, own in zip(stacked, alone):
                assert batch.shape == (3, len(own))
                assert np.array_equal(batch[r], own)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            list(batch_iter(self.make_dataset(5), 0, 0))
