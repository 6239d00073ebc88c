"""End-to-end orchestration: datasets -> plan -> trained system.

A SisaSystem bundles the partition plan, the per-shard checkpoint chains
and the gating router; the inference ensemble is derived from them. It is
the object unlearning strategies operate on; they return fresh systems
rather than mutating in place.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

from .checkpoint import CheckpointStore, save_params
from .data import (LabeledDataset, SplitSpec, channel_stats, generate_synthetic,
                   load_cifar10, normalize, split)
from .ensemble import EnsembleModel, train_gating
from .errors import IntegrityError
from .nn import ModelParameters
from .partition import PartitionPlan
from .rng import RngState
from .training import ShardTrainResult, TrainConfig, train_model, train_shard


@dataclass
class DataBundle:
    train: LabeledDataset
    val: LabeledDataset
    test: LabeledDataset

    @property
    def num_classes(self) -> int:
        return self.train.num_classes

    @property
    def class_names(self) -> list[str]:
        return self.train.class_names


def synthetic_bundle(n_per_class: int = 1000, num_classes: int = 10,
                     shape=(16,), separation: float = 3.0,
                     seed: int = 0,
                     split_spec: SplitSpec | None = None) -> DataBundle:
    ds = generate_synthetic(n_per_class, num_classes, shape, separation, seed)
    spec = split_spec or SplitSpec(0.7, 0.1, 0.2, seed=seed)
    train, val, test = split(ds, spec)
    return DataBundle(train=train, val=val, test=test)


def cifar_bundle(dir_path, spec: SplitSpec) -> DataBundle:
    """CIFAR-10 batches split by `spec`, every split normalized with the
    per-channel statistics of the train split alone."""
    train, val, test = split(load_cifar10(dir_path), spec)
    stats = channel_stats(train)
    return DataBundle(train=normalize(train, stats), val=normalize(val, stats),
                      test=normalize(test, stats))


@dataclass
class SisaSystem:
    """A trained sharded ensemble's state: everything needed to serve and to
    unlearn from it. The deployed ensemble is derived from it, not stored."""

    plan: PartitionPlan
    shard_results: dict[int, ShardTrainResult]
    num_classes: int
    gating: ModelParameters | None = None
    store: CheckpointStore | None = None
    train_seconds: float = 0.0
    removed_classes: tuple[int, ...] = ()

    @cached_property
    def ensemble(self) -> EnsembleModel:
        """Each shard's final parameters, in shard-id order, plus the router
        if there is one. Built on first use: a system read from a run
        directory then loads and digest-checks every deployed final together,
        and one whose ensemble is never used reads none. A final that is not
        shard k's checkpoint of slice L - 1, or whose head is not the shard's,
        is an IntegrityError: it was not trained on shard k's data."""
        for k, r in sorted(self.shard_results.items()):
            got = (r.final.shard_id, r.final.slice_index, r.final.params.output_classes)
            if got != (k, self.plan.L - 1, r.head):
                raise IntegrityError(
                    f"shard {k}: the deployed final is shard {got[0]} slice {got[1]} "
                    f"with head {list(got[2])}, not shard {k} slice {self.plan.L - 1} "
                    f"with head {list(r.head)}")
        shard_ids = sorted(self.shard_results)
        return EnsembleModel(
            constituents=[self.shard_results[k].final.params for k in shard_ids],
            shard_ids=shard_ids, num_classes=self.num_classes, gating=self.gating)


def train_sisa(data: DataBundle, plan: PartitionPlan, cfg: TrainConfig, *,
               gated: bool = False,
               store: CheckpointStore | None = None) -> SisaSystem:
    """Train every shard, one after another in plan order, then the router
    if `gated`. Per-shard RNG streams derive from (seed, shard id), so each
    shard's parameters do not depend on the others."""
    shard_results = {a.shard_id: train_shard(plan, a.shard_id, data.train,
                                             data.val, cfg, store=store)
                     for a in plan.assignments if a.class_ids}
    system = SisaSystem(
        plan=plan, shard_results=shard_results, num_classes=data.num_classes,
        store=store, train_seconds=sum(r.seconds for r in shard_results.values()),
    )
    if not gated:
        return system
    t0 = time.perf_counter()
    gating = train_gating(system.ensemble, data.train, data.val, plan.metadata, cfg)
    seconds = time.perf_counter() - t0
    if store is not None:
        # the router is never trained again, so no Adam moments are kept
        save_params(gating, store.gating_path(), cfg.adam(),
                    RngState(cfg.seed).child("gating"))
    return replace(system, gating=gating, train_seconds=system.train_seconds + seconds)


@dataclass
class BaselineModel:
    """Single model over every class, the full-retraining reference point."""

    params: ModelParameters
    train_seconds: float
    removed_classes: tuple[int, ...] = ()


def train_baseline(data: DataBundle, cfg: TrainConfig) -> BaselineModel:
    """One model over every class in the train split."""
    params, _opt, res = train_model(data.train, data.val,
                                    set(data.train.labels.tolist()), cfg)
    return BaselineModel(params=params, train_seconds=res.seconds)
