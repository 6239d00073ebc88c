"""End-to-end orchestration: datasets -> plan -> trained system.

A SisaSystem bundles the partition plan, the per-shard checkpoint chains
and the gating router; the inference ensemble is derived from them. It is
the object unlearning strategies operate on; they return fresh systems
rather than mutating in place.
"""
from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from functools import cached_property
from typing import BinaryIO, NoReturn

from .checkpoint import Checkpoint, CheckpointStore, save_params
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

    def deployed_final(self, k: int) -> Checkpoint:
        """Shard k's final checkpoint, loaded if it has not been. A final
        that is not shard k's checkpoint of slice L - 1, or whose head is
        not the shard's, is an IntegrityError: it was not trained on shard
        k's data."""
        r = self.shard_results[k]
        final = r.final
        got = (final.shard_id, final.slice_index, final.params.output_classes)
        if got != (k, self.plan.L - 1, r.head):
            raise IntegrityError(
                f"shard {k}: the deployed final is shard {got[0]} slice {got[1]} "
                f"with head {list(got[2])}, not shard {k} slice {self.plan.L - 1} "
                f"with head {list(r.head)}")
        return final

    @cached_property
    def ensemble(self) -> EnsembleModel:
        """Each shard's `deployed_final` parameters, in shard-id order, plus
        the router if there is one. Built on first use: a system read from a
        run directory then loads and checks every deployed final together,
        and one whose ensemble is never used reads none."""
        shard_ids = sorted(self.shard_results)
        return EnsembleModel(
            constituents=[self.deployed_final(k).params for k in shard_ids],
            shard_ids=shard_ids, num_classes=self.num_classes, gating=self.gating)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where forking is not possible or not
    safe: the OS cannot fork, or another Python thread runs, which may hold
    a lock the child would then wait on for ever."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


# OpenBLAS thread-count functions, by the names its builds export
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _limit_blas_threads(n: int) -> int | None:
    """Run at most `n` OpenBLAS threads in this process; returns the count
    now in effect, or None where no OpenBLAS is loaded (another BLAS is left
    as it is). A forked worker keeps its parent's pool, so W workers would
    run W times as many spinning BLAS threads as there are CPUs."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_THREADS:
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                if get() > n:
                    put(n)
                return get()
    return None


def _worker(fd: int, shard_ids: list[int], train, blas_threads: int) -> NoReturn:
    """A forked child: train `shard_ids` on at most `blas_threads` BLAS
    threads, pickle (True, their results) or (False, the exception) to
    `fd`, and exit without unwinding the parent's stack."""
    status = 1
    try:
        _limit_blas_threads(blas_threads)
        try:
            payload = (True, [train(k) for k in shard_ids])
        except Exception as exc:
            payload = (False, exc)
        with open(fd, "wb") as pipe:
            pickle.dump(payload, pipe, protocol=5)
        status = 0
    except BaseException:
        # the parent sees only the exit status
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _train_shards(shard_ids: list[int], train) -> dict[int, ShardTrainResult]:
    """`train(k)` for every shard id, in `shard_ids` order.

    With W = min(shards, usable CPUs) of 2 or more, shard i trains in forked
    worker i mod W, which pickles its results down a pipe. The parent
    unpickles each pipe on the calling thread (a reader thread would
    unpickle into a malloc arena of its own and raise the peak RSS), then
    reaps the worker. Fork hands the data to the workers without pickling
    it. A worker's exception is raised here with its type and message; a
    worker that ends without a result is a ChildProcessError. On any error
    the workers still running are killed, and every worker is reaped.
    """
    cpus = _usable_cpus()
    workers = min(len(shard_ids), cpus)
    if workers < 2:
        return {k: train(k) for k in shard_ids}
    groups = [shard_ids[w::workers] for w in range(workers)]
    live: dict[int, BinaryIO] = {}      # pid -> its pipe, for each worker not reaped
    results: dict[int, ShardTrainResult] = {}
    try:
        for group in groups:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(w, group, train, blas_threads=max(1, cpus // workers))
            os.close(w)
            live[pid] = open(r, "rb")
        for pid, group in zip(list(live), groups):
            with live[pid] as pipe:
                try:
                    payload = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # ended before a whole result
                    payload = None
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if payload is None:
                raise ChildProcessError(
                    f"the worker training shards {group} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without a result")
            ok, value = payload
            if not ok:
                raise value
            results.update(zip(group, value))
    finally:
        for pid, pipe in live.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {k: results[k] for k in shard_ids}


def train_sisa(data: DataBundle, plan: PartitionPlan, cfg: TrainConfig, *,
               gated: bool = False,
               store: CheckpointStore | None = None) -> SisaSystem:
    """Train every shard, then the router if `gated`.

    Shards train in forked worker processes, one per usable CPU, or in this
    process when only one CPU is usable, the OS cannot fork or another
    thread runs (`_usable_cpus`). Per-shard RNG streams derive from (seed,
    shard id), so each shard's parameters depend neither on the others nor
    on where it trained: every checkpoint, in memory and in `store`, is
    bit-identical to in-process training.
    `train_seconds` sums each shard's fit time, the work SISA accounts for,
    not the wall time of the parallel run.
    """
    shard_results = _train_shards(
        [a.shard_id for a in plan.assignments if a.class_ids],
        lambda k: train_shard(plan, k, data.train, data.val, cfg, store=store))
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
