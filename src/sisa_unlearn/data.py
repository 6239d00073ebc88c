"""Datasets: CIFAR-10 binary loader, synthetic generator, stratified splits.

All datasets are immutable arrays of (input, label) pairs over a fixed class
inventory. Loaders are deterministic: the same files always produce the same
sample order and bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CorruptRecordError, FormatError
from .rng import RngState

CIFAR10_CLASSES = [
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
]

_CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
_CIFAR_TRAIN_BATCHES = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_TEST_BATCH = "test_batch.bin"


@dataclass(frozen=True)
class Normalization:
    """Per-channel statistics applied to a dataset's inputs."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class LabeledDataset:
    """Ordered collection of samples over classes 0..C-1."""

    inputs: np.ndarray          # (N, ...) float32, one shared shape
    labels: np.ndarray          # (N,) integer class ids
    class_names: list[str]

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must have equal length")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("labels must lie in [0, C)")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.inputs.shape[1:])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def indices_of(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, inputs=self.inputs[idx], labels=self.labels[idx])

    def restricted_to(self, keep) -> "LabeledDataset":
        keep = set(int(c) for c in keep)
        mask = np.isin(self.labels, sorted(keep))
        return replace(self, inputs=self.inputs[mask], labels=self.labels[mask])


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/val/test fractions plus the shuffle seed."""

    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self):
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {total!r}")
        if min(self.train_frac, self.val_frac, self.test_frac) < 0:
            raise ValueError("split fractions must be nonnegative")


def load_cifar10(dir_path) -> LabeledDataset:
    """Read CIFAR-10 binary batches from a directory.

    Each record is 1 label byte followed by 3072 pixel bytes (R, G, B planes,
    row-major), yielding CHW float32 inputs scaled to [0, 1]. Looks for the
    canonical five train batches plus the test batch; if none are present,
    falls back to every ``*.bin`` file in name order.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise FormatError(f"{root}: not a directory containing CIFAR-10 batches")
    files = [root / n for n in _CIFAR_TRAIN_BATCHES + [_CIFAR_TEST_BATCH] if (root / n).exists()]
    if not files:
        files = sorted(root.glob("*.bin"))
    if not files:
        raise FormatError(f"{root}: no CIFAR-10 batch files found")

    all_pixels, all_labels = [], []
    for path in files:
        raw = path.read_bytes()
        if len(raw) == 0 or len(raw) % _CIFAR_RECORD_BYTES != 0:
            offset = len(raw) - (len(raw) % _CIFAR_RECORD_BYTES)
            raise FormatError(
                f"{path}: truncated batch, {len(raw)} bytes is not a multiple of "
                f"{_CIFAR_RECORD_BYTES} (bad record starts at byte {offset})"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD_BYTES)
        labels = records[:, 0]
        bad = np.flatnonzero(labels >= len(CIFAR10_CLASSES))
        if bad.size:
            offset = int(bad[0]) * _CIFAR_RECORD_BYTES
            raise CorruptRecordError(
                f"{path}: record {int(bad[0])} at byte {offset} has label byte "
                f"{int(labels[bad[0]])} >= 10"
            )
        all_pixels.append(records[:, 1:].reshape(-1, 3, 32, 32))
        all_labels.append(labels.astype(np.int64))
    # each record's pixels decoded once, straight into the one float32 array
    inputs = np.empty((sum(map(len, all_pixels)), 3, 32, 32), dtype=np.float32)
    start = 0
    for pixels in all_pixels:
        np.divide(pixels, 255.0, dtype=np.float32, out=inputs[start:start + len(pixels)])
        start += len(pixels)
    return LabeledDataset(
        inputs=inputs,
        labels=np.concatenate(all_labels),
        class_names=list(CIFAR10_CLASSES),
    )


def generate_synthetic(n_per_class: int, num_classes: int, shape=(16,),
                       separation: float = 5.0, seed: int = 0) -> LabeledDataset:
    """Gaussian blobs, one per class, with center spacing set by `separation`.

    Class c is unit-variance noise around a class-specific center; pairwise
    center distances scale linearly with `separation`, so 0 collapses all
    classes onto each other. Deterministic given the seed.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    shape = tuple(int(d) for d in shape)
    if not shape or min(shape) < 1:
        raise ValueError(f"shape must be nonempty with entries >= 1, got {list(shape)}")
    dim = int(np.prod(shape))
    root = RngState(seed)

    if num_classes <= dim:
        centers = np.eye(num_classes, dim, dtype=np.float64)
    else:
        g = root.child("centers").generator()
        centers = g.standard_normal((num_classes, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers = (separation * centers).astype(np.float32)

    blocks, labels = [], []
    for c in range(num_classes):
        g = root.child("class", c).generator()
        noise = g.standard_normal((n_per_class, dim), dtype=np.float32)
        blocks.append(centers[c] + noise)
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    inputs = np.concatenate(blocks).reshape(num_classes * n_per_class, *shape)
    return LabeledDataset(
        inputs=inputs,
        labels=np.concatenate(labels),
        class_names=[f"class_{c}" for c in range(num_classes)],
    )


def _largest_remainder(total: int, fractions) -> list[int]:
    """Integer quotas for `total` items split by `fractions` (sum to 1)."""
    exact = [total * f for f in fractions]
    counts = [int(np.floor(q)) for q in exact]
    leftovers = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


def split(ds: LabeledDataset, spec: SplitSpec):
    """Stratified split into (train, val, test).

    Per class, quotas follow largest-remainder rounding (ties resolved in
    train, val, test order); class members are shuffled by a per-class
    Philox stream before being dealt out. Splits are disjoint and cover ds.
    """
    counts = ds.class_counts()
    present = np.flatnonzero(counts)
    if len(present) and counts[present].min() < 3:
        raise ValueError("every class needs at least 3 samples to split")
    fractions = (spec.train_frac, spec.val_frac, spec.test_frac)
    root = RngState(spec.seed)

    parts: list[list[np.ndarray]] = [[], [], []]
    for c in present:
        idx = ds.indices_of(int(c))
        perm = root.child("split", int(c)).generator().permutation(len(idx))
        idx = idx[perm]
        quotas = _largest_remainder(len(idx), fractions)
        start = 0
        for part, q in zip(parts, quotas):
            part.append(idx[start:start + q])
            start += q
    picks = [
        np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64)
        for p in parts
    ]
    return tuple(ds.subset(p) for p in picks)


def channel_stats(ds: LabeledDataset) -> Normalization:
    """Mean/std per channel (CHW images) or per feature (flat vectors)."""
    x = ds.inputs
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    mean = x.mean(axis=axes)
    std = x.std(axis=axes)
    std = np.where(std < 1e-8, 1.0, std)
    return Normalization(mean=mean.astype(np.float32), std=std.astype(np.float32))


def normalize(ds: LabeledDataset, stats: Normalization) -> LabeledDataset:
    x = ds.inputs
    if x.ndim == 4:
        mean = stats.mean.reshape(1, -1, 1, 1)
        std = stats.std.reshape(1, -1, 1, 1)
    else:
        mean, std = stats.mean, stats.std
    return replace(ds, inputs=((x - mean) / std).astype(np.float32, copy=False))

