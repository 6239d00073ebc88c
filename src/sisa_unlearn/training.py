"""Slice-by-slice training with replay, early stopping, and checkpoints.

A shard model trains on its slices in order; each slice's batch is the
slice itself merged with a replay buffer drawn once from all prior slices.
After every slice the full (parameters, optimizer, cursor, rng) state is
checkpointed, which is what makes rollback retraining exact: resuming from
checkpoint l with the same seeds reproduces the uninterrupted run bit for
bit, because every random stream is derived from (seed, shard, slice,
epoch) coordinates rather than consumed sequentially. Training writes no
file: `CheckpointStore.save_chain` saves what a store keeps of the chain.
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .data import LabeledDataset
from .errors import IntegrityError, InvalidLabelError, NumericFault
from .nn import (AdamConfig, Architecture, ModelParameters, OptimizerState,
                 adam_init, adam_step, cnn_architecture, drop_output_classes,
                 init_params, loss_and_grad, mean_loss, mlp_architecture)
from .partition import PartitionPlan, SliceLayout
from .rng import RngState


@dataclass(frozen=True)
class TrainConfig:
    """Budget and hyperparameters for one training run.

    patience=None disables early stopping entirely (fixed epoch budget,
    final-epoch parameters kept); with a patience the best-validation
    parameters seen so far are the ones kept.
    """

    max_epochs_per_slice: int = 20
    patience: int | None = 7
    replay_ratio: float = 0.0
    batch_size: int = 64
    seed: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 (or None to disable)")
        if not 0.0 <= self.replay_ratio <= 1.0:
            raise ValueError("replay_ratio must lie in [0, 1]")
        if self.max_epochs_per_slice < 1:
            raise ValueError("max_epochs_per_slice must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")

    def adam(self) -> AdamConfig:
        return AdamConfig(lr=self.learning_rate)


@dataclass
class ReplayBuffer:
    """Sample indices drawn from a shard's earlier slices."""

    indices: np.ndarray
    source_slices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def early_stop_monitor(history, patience: int) -> bool:
    """True once the best loss has gone `patience` evaluations unimproved.

    Improvement is strict (<); equal losses count as stalls.
    """
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    if patience < 1:
        raise ValueError("patience must be >= 1")
    best = np.inf
    best_i = -1
    for i, v in enumerate(history):
        if v < best:
            best, best_i = v, i
    return (len(history) - 1 - best_i) >= patience


def sample_replay(layout: SliceLayout, slice_index: int, ratio: float,
                  rng: RngState, labels: np.ndarray) -> ReplayBuffer:
    """Replay buffer for a slice: round(ratio * total prior samples) indices.

    Composition is stratified per class proportionally to availability in
    the prior slices (largest-remainder, ties to the lower class id), drawn
    without replacement. Slice 0 yields an empty buffer.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("replay ratio must lie in [0, 1]")
    empty = ReplayBuffer(np.empty(0, np.int64), np.empty(0, np.int64))
    if slice_index == 0 or ratio == 0.0:
        return empty

    prior = [(j, layout.slices[j]) for j in range(slice_index) if len(layout.slices[j])]
    if not prior:
        return empty
    pool_idx = np.concatenate([s for _, s in prior])
    pool_src = np.concatenate([np.full(len(s), j, np.int64) for j, s in prior])
    total = int(np.floor(ratio * len(pool_idx) + 0.5))
    if total == 0:
        return empty

    pool_labels = labels[pool_idx]
    class_ids = np.unique(pool_labels)
    avail = {int(c): int((pool_labels == c).sum()) for c in class_ids}
    exact = {c: total * n / len(pool_idx) for c, n in avail.items()}
    quotas = {c: int(np.floor(q)) for c, q in exact.items()}
    leftover = total - sum(quotas.values())
    for c in sorted(exact, key=lambda c: (-(exact[c] - quotas[c]), c))[:leftover]:
        quotas[c] += 1

    picks = []
    for c in sorted(quotas):
        members = np.flatnonzero(pool_labels == c)
        perm = rng.child("class", c).generator().permutation(len(members))
        picks.append(members[perm[:quotas[c]]])
    chosen = np.sort(np.concatenate(picks))
    return ReplayBuffer(indices=pool_idx[chosen], source_slices=pool_src[chosen])


@dataclass
class FitResult:
    epochs: int
    history: list[float]
    seconds: float          # CPU seconds


def fit(params: ModelParameters, opt: OptimizerState,
        x: np.ndarray, y: np.ndarray,
        x_val: np.ndarray | None, y_val: np.ndarray | None,
        cfg: TrainConfig, rng: RngState) -> FitResult:
    """Train in place for up to max_epochs_per_slice epochs.

    One deterministic permutation per epoch; validation loss is checked
    after every epoch and drives the patience counter. `seconds` is the CPU
    time of the calling thread over the fit (`time.thread_time`), so time
    spent waiting for CPUs that other processes hold is not counted, nor
    are OpenBLAS helper threads, which spin between calls.
    """
    if len(x) == 0:
        return FitResult(0, [], 0.0)
    has_val = x_val is not None and len(x_val) > 0
    history: list[float] = []
    best_val = np.inf
    live = (params.tensors.flat, opt.m.flat, opt.v.flat)
    saved = None    # copies of `live` at the best validation loss so far
    saved_step = 0
    epochs_run = 0
    t0 = time.thread_time()
    for epoch in range(cfg.max_epochs_per_slice):
        perm = rng.child("shuffle", epoch).generator().permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            take = perm[start:start + cfg.batch_size]
            loss, grads = loss_and_grad(params, x[take], y[take])
            if not math.isfinite(loss):
                raise NumericFault(f"non-finite loss at epoch {epoch}")
            adam_step(params, grads, opt)
        epochs_run = epoch + 1
        if has_val:
            vloss = mean_loss(params, x_val, y_val)
            history.append(vloss)
            if cfg.patience is not None:
                if vloss < best_val:
                    best_val = vloss
                    if saved is None:
                        saved = [np.empty_like(vec) for vec in live]
                    for copy, vec in zip(saved, live):
                        np.copyto(copy, vec)
                    saved_step = opt.step
                if early_stop_monitor(history, cfg.patience):
                    break
    if saved is not None:
        for vec, copy in zip(live, saved):
            np.copyto(vec, copy)
        opt.step = saved_step
    seconds = time.thread_time() - t0
    return FitResult(epochs_run, history, seconds)


@dataclass
class ShardTrainResult:
    shard_id: int
    head: tuple[int, ...]
    # one per trained slice, in order; a LazyChain when read from a run directory
    checkpoints: Sequence[Checkpoint]
    seconds_per_slice: list[float]      # each slice's fit, in CPU seconds
    slices_trained: int

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]

    @property
    def seconds(self) -> float:
        return float(sum(self.seconds_per_slice))


def default_architecture(input_shape: tuple[int, ...]) -> Architecture:
    """The architecture of every model trained on inputs of this shape:
    shard models, the baseline and the gating router's base."""
    if len(input_shape) == 1:
        return mlp_architecture(input_shape[0])
    return cnn_architecture(input_shape)


def lookup(table: dict[int, int], labels) -> np.ndarray:
    """table[label] for every label, as int64; -1 where a label has no entry."""
    labels = np.asarray(labels, dtype=np.int64)
    lut = np.full(max(table, default=0) + 1, -1, dtype=np.int64)
    lut[list(table)] = list(table.values())
    inside = (labels >= 0) & (labels < len(lut))
    return np.where(inside, lut[labels * inside], -1)


def _local_labels(labels: np.ndarray, head: tuple[int, ...]) -> np.ndarray:
    out = lookup({c: i for i, c in enumerate(head)}, labels)
    if np.any(out < 0):
        bad = int(np.asarray(labels)[np.argmax(out < 0)])
        raise InvalidLabelError(f"label {bad} outside shard head {head}")
    return out


def train_shard(plan: PartitionPlan, shard_id: int,
                train_ds: LabeledDataset, val_ds: LabeledDataset,
                cfg: TrainConfig, *,
                start_slice: int = 0,
                initial: Checkpoint | None = None) -> ShardTrainResult:
    """Train one shard's model, its head the shard's classes in `plan`, over
    slices start_slice..L-1.

    With `initial` given, training resumes from that checkpoint's exact
    parameter/optimizer state, its head cut to the shard's classes; it must
    be this shard's checkpoint of slice start_slice - 1 and hold Adam
    moments. Otherwise the model is freshly initialized from the shard's
    seed, with `default_architecture`. Slice l validates on the global split
    filtered to the classes of slices 0..l, so a checkpoint that a rollback
    keeps depends on no later class's rows. One checkpoint is produced per
    trained slice, with its moments, and the returned chain holds them all.
    Nothing is written: the caller saves what a store keeps of the chain
    (`CheckpointStore.save_chain`).
    """
    layout = plan.layouts[shard_id]
    head = tuple(sorted(plan.assignments[shard_id].class_ids))
    if not head:
        raise ValueError(f"shard {shard_id} has no classes to train on")
    root = RngState(cfg.seed).child("shard", shard_id)
    if initial is not None:
        expected = initial.params.tensors.layout
        if initial.opt_state.m.layout != expected or initial.opt_state.v.layout != expected:
            raise IntegrityError(
                f"shard {shard_id}: the checkpoint of slice {initial.slice_index} holds "
                "no Adam moments for its parameters, so training cannot resume from it")
        if (initial.shard_id, initial.slice_index) != (shard_id, start_slice - 1):
            raise IntegrityError(
                f"shard {shard_id}: resuming at slice {start_slice} needs the checkpoint "
                f"of slice {start_slice - 1}, got shard {initial.shard_id} slice "
                f"{initial.slice_index}")
        params, opt = drop_output_classes(initial.params, initial.opt_state,
                                          set(initial.params.output_classes) - set(head))
        if params.output_classes != head:
            raise ValueError("initial checkpoint head does not match the shard's classes")
    else:
        params = init_params(default_architecture(train_ds.input_shape), head,
                             root.child("init"))
        opt = adam_init(params, cfg.adam())

    labels = train_ds.labels
    checkpoints: list[Checkpoint] = []
    seconds: list[float] = []
    for ell in range(start_slice, plan.L):
        slice_rng = root.child("slice", ell)
        replay = sample_replay(layout, ell, cfg.replay_ratio,
                               slice_rng.child("replay"), labels)
        idx = np.concatenate([layout.slices[ell], replay.indices]) \
            if len(replay) else layout.slices[ell]
        x = train_ds.inputs[idx]
        y = _local_labels(labels[idx], head)
        seen = np.unique(labels[np.concatenate(layout.slices[:ell + 1])])
        val_part = val_ds.restricted_to(seen)
        x_val = val_part.inputs if len(val_part) else None
        y_val = _local_labels(val_part.labels, head) if len(val_part) else None
        try:
            res = fit(params, opt, x, y, x_val, y_val, cfg, slice_rng)
        except NumericFault as exc:
            raise NumericFault(f"shard {shard_id} slice {ell}: {exc}") from exc
        checkpoints.append(Checkpoint(params=params.copy(), opt_state=opt.copy(),
                                      shard_id=shard_id, slice_index=ell,
                                      epoch=res.epochs, rng=root))
        seconds.append(res.seconds)
    return ShardTrainResult(shard_id=shard_id, head=head, checkpoints=checkpoints,
                            seconds_per_slice=seconds,
                            slices_trained=plan.L - start_slice)


def train_model(train_ds: LabeledDataset, val_ds: LabeledDataset,
                classes, cfg: TrainConfig):
    """Plain (non-sliced) training of one model over the given classes."""
    head = tuple(sorted(int(c) for c in classes))
    root = RngState(cfg.seed).child("model")
    params = init_params(default_architecture(train_ds.input_shape), head,
                         root.child("init"))
    opt = adam_init(params, cfg.adam())
    train_part = train_ds.restricted_to(head)
    val_part = val_ds.restricted_to(head)
    y = _local_labels(train_part.labels, head)
    x_val = val_part.inputs if len(val_part) else None
    y_val = _local_labels(val_part.labels, head) if len(val_part) else None
    res = fit(params, opt, train_part.inputs, y, x_val, y_val, cfg, root.child("fit"))
    return params, opt, res


def train_full(plan: PartitionPlan, train_ds: LabeledDataset, val_ds: LabeledDataset,
               cfg: TrainConfig) -> ShardTrainResult:
    """Full retraining: the one shard of a plan of one shard and one slice,
    trained from scratch as one model over its classes by `train_model`.
    Its chain is one checkpoint, shard 0's of slice 0, with the Adam state
    `train_model` returns. Any other plan is a ValueError."""
    if (plan.K, plan.L) != (1, 1):
        raise ValueError("full retraining requires a plan of one shard and one "
                         f"slice, got K={plan.K}, L={plan.L}")
    params, opt, res = train_model(train_ds, val_ds, plan.assignments[0].class_ids, cfg)
    final = Checkpoint(params=params, opt_state=opt, shard_id=0, slice_index=0,
                       epoch=res.epochs, rng=RngState(cfg.seed).child("model"))
    return ShardTrainResult(shard_id=0, head=params.output_classes, checkpoints=[final],
                            seconds_per_slice=[res.seconds], slices_trained=1)
