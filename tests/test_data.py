import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab.baselines import ClassCounts
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
        assert exp_profile_counts(5, 100, 1.0).per_class == (100,) * 5

    def test_two_classes(self):
        assert exp_profile_counts(2, 100, 100.0).per_class == (100, 1)

    def test_three_classes(self):
        assert exp_profile_counts(3, 100, 100.0).per_class == (100, 10, 1)

    def test_head_exact_and_non_increasing(self):
        for imb in (1.0, 10.0, 50.0, 100.0, 200.0):
            counts = exp_profile_counts(10, 500, imb).per_class
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
        assert train.counts.per_class == exp_profile_counts(10, 500, 100.0).per_class
        assert len(train) == sum(train.counts.per_class)
        assert test.counts.per_class == (100,) * 10

    def test_low_dim_random_centers(self):
        spec = LongTailSpec(class_count=6, n_max=20, input_dim=3, seed=4)
        train, _ = gaussian_mixture(spec)
        assert train.input_dim == 3


class TestDatasetValidation:
    def test_count_consistency_enforced(self):
        with pytest.raises(DataError):
            Dataset(x=np.zeros((2, 1)), y=np.array([0, 0]),
                    counts=ClassCounts((1, 1)), split="train")

    def test_test_split_balance_enforced(self):
        with pytest.raises(DataError):
            Dataset(x=np.zeros((3, 1)), y=np.array([0, 0, 1]),
                    counts=ClassCounts((2, 1)), split="test")


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path):
        spec = LongTailSpec(class_count=3, n_max=15, imbalance_factor=3.0, input_dim=4, seed=5)
        train, _ = gaussian_mixture(spec)
        path = tmp_path / "train.csv"
        save_csv_dataset(train, path)
        loaded = load_csv_dataset(path)
        assert np.array_equal(loaded.x, train.x)
        assert np.array_equal(loaded.y, train.y)
        assert loaded.counts.per_class == train.counts.per_class

    def test_small_wellformed_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv_dataset(path)
        assert len(ds) == 3
        assert ds.counts.per_class == (2, 1)

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
        path.write_text("f0,label\n1.0,0\n2.0,2\n")
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
        tally = tuple(int((labels == c).sum()) for c in range(3))
        assert ds.counts.per_class == tally

    def test_unbalanced_test_split_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,1\n")
        with pytest.raises(DataError, match="balanced"):
            load_csv_dataset(path, split="test")


class TestBatchIter:
    def make_dataset(self, n):
        x = np.arange(n, dtype=float)[:, None]
        y = np.zeros(n, dtype=np.int64)
        y[-1] = 1  # two classes so counts validate
        counts = ClassCounts((n - 1, 1))
        return Dataset(x=x, y=y, counts=counts, split="train")

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
