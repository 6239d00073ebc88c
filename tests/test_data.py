import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sisa_unlearn as su
from sisa_unlearn.data import channel_stats, normalize
from sisa_unlearn.errors import CorruptRecordError, FormatError

RECORD = 3073


def write_batch(path, labels, pixels=None, rng=None):
    """Fabricate a CIFAR-format binary batch file."""
    n = len(labels)
    records = np.zeros((n, RECORD), dtype=np.uint8)
    records[:, 0] = labels
    if pixels is not None:
        records[:, 1:] = pixels
    elif rng is not None:
        records[:, 1:] = rng.integers(0, 256, size=(n, RECORD - 1), dtype=np.uint8)
    path.write_bytes(records.tobytes())


class TestCifarLoader:
    def test_single_batch_of_10000_records(self, tmp_path):
        rng = np.random.default_rng(0)
        write_batch(tmp_path / "data_batch_1.bin",
                    rng.integers(0, 10, size=10000), rng=rng)
        ds = su.load_cifar10(tmp_path)
        assert len(ds) == 10000
        assert ds.num_classes == 10
        assert ds.inputs.shape == (10000, 3, 32, 32)

    def test_pixels_scaled_and_chw(self, tmp_path):
        # R plane first: byte 1 of the record is channel 0, row 0, col 0
        pixels = np.zeros((1, RECORD - 1), dtype=np.uint8)
        pixels[0, 0] = 255           # R[0, 0]
        pixels[0, 1024] = 128        # G[0, 0]
        write_batch(tmp_path / "data_batch_1.bin", np.array([3]), pixels=pixels)
        ds = su.load_cifar10(tmp_path)
        assert ds.labels[0] == 3
        assert ds.inputs[0, 0, 0, 0] == pytest.approx(1.0)
        assert ds.inputs[0, 1, 0, 0] == pytest.approx(128 / 255)
        assert ds.inputs[0, 2, 0, 0] == 0.0

    def test_loader_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        for name in ("data_batch_1.bin", "data_batch_2.bin"):
            write_batch(tmp_path / name, rng.integers(0, 10, size=20), rng=rng)
        a = su.load_cifar10(tmp_path)
        b = su.load_cifar10(tmp_path)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_truncated_file_names_offset(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 3072)
        with pytest.raises(FormatError, match="data_batch_1.bin.*byte 0"):
            su.load_cifar10(tmp_path)

    def test_corrupt_label_byte(self, tmp_path):
        write_batch(tmp_path / "data_batch_1.bin", np.array([0, 11]))
        with pytest.raises(CorruptRecordError, match="label byte 11"):
            su.load_cifar10(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError):
            su.load_cifar10(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FormatError, match="no CIFAR-10 batch files"):
            su.load_cifar10(tmp_path)


class TestSynthetic:
    def test_counts(self):
        ds = su.generate_synthetic(100, 10, shape=(16,), separation=5.0, seed=7)
        assert len(ds) == 1000
        assert ds.num_classes == 10
        assert np.array_equal(ds.class_counts(), np.full(10, 100))

    def test_deterministic(self):
        a = su.generate_synthetic(50, 4, shape=(8,), separation=2.0, seed=3)
        b = su.generate_synthetic(50, 4, shape=(8,), separation=2.0, seed=3)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_is_chance_level(self):
        # oracle: nearest-centroid classifier, centroids fit on held-out halves
        ds = su.generate_synthetic(100, 10, shape=(16,), separation=0.0, seed=5)
        fit, eval_ = ds.inputs[::2], ds.inputs[1::2]
        fit_y, eval_y = ds.labels[::2], ds.labels[1::2]
        centroids = np.stack([fit[fit_y == c].mean(axis=0) for c in range(10)])
        d = ((eval_[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = float((d.argmin(axis=1) == eval_y).mean())
        assert abs(acc - 0.1) <= 0.05

    def test_separation_scales_distances(self):
        a = su.generate_synthetic(5, 4, shape=(8,), separation=1.0, seed=0)
        b = su.generate_synthetic(5, 4, shape=(8,), separation=3.0, seed=0)
        # same noise, centers three times farther apart
        ca = np.stack([a.inputs[a.labels == c].mean(axis=0) for c in range(4)])
        cb = np.stack([b.inputs[b.labels == c].mean(axis=0) for c in range(4)])
        da = np.linalg.norm(ca[0] - ca[1])
        db = np.linalg.norm(cb[0] - cb[1])
        assert db == pytest.approx(3 * da, rel=0.35)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            su.generate_synthetic(10, 1)

    @pytest.mark.parametrize("shape", [(0,), (4, 0), ()])
    def test_shape_entries_below_one_rejected(self, shape):
        with pytest.raises(ValueError, match="shape must be nonempty"):
            su.generate_synthetic(10, 3, shape=shape)


class TestSplit:
    def test_cifar_scale_fractions(self):
        labels = np.repeat(np.arange(10), 6000)
        ds = su.LabeledDataset(inputs=np.zeros((60000, 1), np.float32),
                               labels=labels,
                               class_names=[str(i) for i in range(10)])
        train, val, test = su.split(ds, su.SplitSpec(0.7, 0.1, 0.2, seed=0))
        assert (len(train), len(val), len(test)) == (42000, 6000, 12000)

    def test_trivial_fractions(self, small_bundle):
        ds = su.generate_synthetic(10, 3, shape=(4,), seed=2)
        train, val, test = su.split(ds, su.SplitSpec(1.0, 0.0, 0.0, seed=0))
        assert len(train) == len(ds)
        assert len(val) == 0 and len(test) == 0

    def test_exact_per_class_counts(self):
        # oracle: per-class count in each split
        ds = su.generate_synthetic(100, 10, shape=(4,), seed=4)
        train, val, test = su.split(ds, su.SplitSpec(0.7, 0.1, 0.2, seed=9))
        for part, want in ((train, 70), (val, 10), (test, 20)):
            assert np.array_equal(part.class_counts(), np.full(10, want))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            su.SplitSpec(0.7, 0.1, 0.1)

    def test_deterministic(self):
        ds = su.generate_synthetic(30, 4, shape=(4,), seed=6)
        a = su.split(ds, su.SplitSpec(0.7, 0.1, 0.2, seed=1))
        b = su.split(ds, su.SplitSpec(0.7, 0.1, 0.2, seed=1))
        for x, y in zip(a, b):
            assert x.inputs.tobytes() == y.inputs.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(counts=st.lists(st.integers(3, 40), min_size=2, max_size=6),
           seed=st.integers(0, 2 ** 32))
    def test_disjoint_cover_and_stratification(self, counts, seed):
        labels = np.concatenate([np.full(n, c, np.int64)
                                 for c, n in enumerate(counts)])
        inputs = np.arange(len(labels), dtype=np.float32)[:, None]
        ds = su.LabeledDataset(inputs=inputs, labels=labels,
                               class_names=[str(c) for c in range(len(counts))])
        train, val, test = su.split(ds, su.SplitSpec(0.6, 0.2, 0.2, seed=seed))
        ids = np.concatenate([p.inputs[:, 0] for p in (train, val, test)])
        assert len(ids) == len(ds)
        assert len(np.unique(ids)) == len(ds)          # disjoint, covering
        if len(train):
            c_count = len(counts)
            for c, n in enumerate(counts):
                lhs = abs(np.mean(train.labels == c) - n / len(ds))
                assert lhs <= c_count / len(train) + 1e-12

    def test_small_class_rejected(self):
        ds = su.LabeledDataset(inputs=np.zeros((4, 1), np.float32),
                               labels=np.array([0, 0, 0, 1]),
                               class_names=["a", "b"])
        with pytest.raises(ValueError, match="at least 3"):
            su.split(ds, su.SplitSpec(0.7, 0.1, 0.2))


class TestNormalization:
    def test_train_stats_applied(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(3.0, 2.0, size=(50, 3, 4, 4)).astype(np.float32)
        ds = su.LabeledDataset(inputs=inputs,
                               labels=np.zeros(50, np.int64) , class_names=["a"])
        stats = channel_stats(ds)
        out = normalize(ds, stats)
        assert np.allclose(out.inputs.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(out.inputs.std(axis=(0, 2, 3)), 1.0, atol=1e-4)
