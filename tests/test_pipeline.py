import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sisa_unlearn as su
from sisa_unlearn import pipeline
from sisa_unlearn.checkpoint import CheckpointStore, load_checkpoint
from sisa_unlearn.errors import NumericFault
from sisa_unlearn.ensemble import gated_predict_batch
from sisa_unlearn.training import default_architecture


class TestTrainSisa:
    def test_heads_disjoint_and_cover(self, small_bundle, quick_cfg):
        plan = su.make_plan(small_bundle.train.labels, K=3, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        system = su.train_sisa(small_bundle, plan, quick_cfg)
        heads = [set(c.output_classes) for c in system.ensemble.constituents]
        merged = set().union(*heads)
        assert merged == set(range(small_bundle.num_classes))
        assert sum(len(h) for h in heads) == len(merged)

    def test_gating_checkpoint_holds_parameters_only(self, small_bundle,
                                                     quick_cfg, tmp_path):
        plan = su.make_plan(small_bundle.train.labels, K=2, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        store = CheckpointStore(tmp_path)
        system = su.train_sisa(small_bundle, plan, quick_cfg, gated=True,
                               store=store)
        ckpt = load_checkpoint(store.gating_path())
        assert ckpt.opt_state.m == {} and ckpt.opt_state.v == {}
        gating = system.ensemble.gating
        assert ckpt.params.output_classes == gating.output_classes
        assert sorted(ckpt.params.tensors) == sorted(gating.tensors)
        for name, t in gating.tensors.items():
            assert ckpt.params.tensors[name].tobytes() == t.tobytes()

    @pytest.mark.parametrize("shape", [(16,), (3, 8, 8)])
    def test_every_model_has_the_default_architecture(self, shape):
        data = su.synthetic_bundle(n_per_class=12, num_classes=3, shape=shape,
                                   separation=4.0, seed=2)
        cfg = su.TrainConfig(max_epochs_per_slice=1, patience=None,
                             replay_ratio=0.3, batch_size=16, seed=3)
        arch = default_architecture(shape)
        plan = su.make_plan(data.train.labels, K=2, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        system = su.train_sisa(data, plan, cfg, gated=True)
        assert su.train_baseline(data, cfg).params.arch == arch
        # a removal restarting a shard at slice 0 builds the same architecture
        class_id = next(c for c, loc in plan.metadata.items()
                        if loc.first_slice == 0 and len(plan.assignments[
                            loc.shard_id].class_ids) > 1)
        after, _ = su.run_unlearning("sisa_gated", system, data, class_id, cfg)
        for model in (system, after):
            assert [c.arch for c in model.ensemble.constituents] == \
                [arch] * len(model.ensemble.constituents)
        # the router is the base architecture with its last hidden layer resized
        router = system.ensemble.gating.arch
        assert len(router.hidden) == len(arch.hidden)
        assert replace(router, hidden=arch.hidden) == arch

    def test_bundle_determinism(self):
        a = su.synthetic_bundle(n_per_class=20, num_classes=3, seed=5)
        b = su.synthetic_bundle(n_per_class=20, num_classes=3, seed=5)
        assert a.train.inputs.tobytes() == b.train.inputs.tobytes()
        assert a.test.inputs.tobytes() == b.test.inputs.tobytes()


class TestGatedDecommission:
    def test_routing_survives_shard_removal(self):
        bundle = su.synthetic_bundle(n_per_class=40, num_classes=4, shape=(8,),
                                     separation=4.0, seed=9)
        plan = su.make_plan(bundle.train.labels, K=2, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        cfg = su.TrainConfig(max_epochs_per_slice=4, patience=None,
                             replay_ratio=0.3, batch_size=32, seed=2)
        system = su.train_sisa(bundle, plan, cfg, gated=True)
        doomed = sorted(system.plan.assignments[0].class_ids)
        for c in doomed:
            system, outcome = su.unlearn_gated(system, bundle, c, cfg)
            assert outcome.verdict
        assert system.ensemble.shard_ids == [1]
        labels, shards = gated_predict_batch(system.ensemble,
                                             bundle.test.inputs)
        assert (shards == 1).all()
        survivors = set(system.ensemble.covered_classes())
        assert set(np.unique(labels)) <= survivors


class TestDerivedEnsemble:
    """The deployed ensemble is derived from a system's state, once per system."""

    @pytest.fixture(scope="class")
    def system(self, small_bundle, quick_cfg):
        plan = su.make_plan(small_bundle.train.labels, K=2, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        return su.train_sisa(small_bundle, plan, quick_cfg, gated=True)

    def test_one_ensemble_whose_stats_accumulate(self, small_bundle, system):
        ens = system.ensemble
        assert system.ensemble is ens
        assert ens.gating is system.gating
        ens.stats.reset()
        x = small_bundle.test.inputs[:7]
        gated_predict_batch(system.ensemble, x)
        gated_predict_batch(system.ensemble, x)
        assert system.ensemble.stats is ens.stats
        assert ens.stats.queries == 14
        assert ens.stats.gating_forwards == 14

    def test_removal_derives_a_new_ensemble(self, small_bundle, quick_cfg,
                                            system):
        class_id = 0
        new, outcome = su.run_unlearning("sisa_gated", system, small_bundle,
                                         class_id, quick_cfg)
        assert outcome.verdict
        assert class_id in system.ensemble.covered_classes()
        assert class_id not in new.ensemble.covered_classes()
        assert new.ensemble is not system.ensemble
        assert new.ensemble.gating is system.ensemble.gating


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FORK = os.fork


def usable_cpus(monkeypatch, n: int) -> list[int]:
    """Pretend `n` CPUs are usable; the returned list grows by one per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _FORK())
    return forks


def store_files(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_same_system(a, b):
    assert list(a.shard_results) == list(b.shard_results)
    for k, ra in a.shard_results.items():
        rb = b.shard_results[k]
        assert (ra.head, ra.slices_trained, len(ra.checkpoints)) == \
            (rb.head, rb.slices_trained, len(rb.checkpoints))
        for ca, cb in zip(ra.checkpoints, rb.checkpoints):
            assert (ca.shard_id, ca.slice_index, ca.epoch, ca.rng, ca.opt_state.step) == \
                (cb.shard_id, cb.slice_index, cb.epoch, cb.rng, cb.opt_state.step)
            assert ca.params.output_classes == cb.params.output_classes
            for x, y in [(ca.params.tensors, cb.params.tensors),
                         (ca.opt_state.m, cb.opt_state.m), (ca.opt_state.v, cb.opt_state.v)]:
                assert x.layout == y.layout
                assert x.flat.tobytes() == y.flat.tobytes()
        for pa, pb in zip(ra.replays, rb.replays):
            assert pa.indices.tobytes() == pb.indices.tobytes()
    if a.gating is None:
        assert b.gating is None
    else:
        assert a.gating.tensors.flat.tobytes() == b.gating.tensors.flat.tobytes()


class TestShardWorkers:
    """`train_sisa` trains shards in forked workers, one per usable CPU."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child_left()

    @pytest.fixture(scope="class")
    def data(self):
        return {shape: su.synthetic_bundle(n_per_class=12, num_classes=6, shape=shape,
                                           separation=4.0, seed=4)
                for shape in [(16,), (3, 8, 8)]}

    @pytest.fixture(scope="class")
    def cfg(self):
        return su.TrainConfig(max_epochs_per_slice=2, patience=1, replay_ratio=0.3,
                              batch_size=16, seed=6)

    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize("shape", [(16,), (3, 8, 8)], ids=["mlp", "cnn"])
    def test_workers_match_in_process_training(self, data, cfg, tmp_path,
                                               monkeypatch, shape, gated):
        bundle = data[shape]
        plan = su.make_plan(bundle.train.labels, K=3, L=2, policy=su.SEQUENTIAL_CLASS)
        systems = {}
        for cpus in (1, 2):
            forks = usable_cpus(monkeypatch, cpus)
            root = tmp_path / f"cpus_{cpus}"
            systems[cpus] = su.train_sisa(bundle, plan, cfg, gated=gated,
                                          store=CheckpointStore(root))
            # K=3 on 2 workers: shards 0 and 2 share one
            assert len(forks) == (0 if cpus == 1 else 2)
        assert_same_system(systems[1], systems[2])
        assert systems[2].train_seconds > 0
        files = store_files(tmp_path / "cpus_1")
        assert len(files) == 3 * 2 + gated
        assert store_files(tmp_path / "cpus_2") == files

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_exception_reaches_the_parent(self, data, cfg, monkeypatch, cpus):
        bundle = data[(16,)]
        plan = su.make_plan(bundle.train.labels, K=3, L=2, policy=su.SEQUENTIAL_CLASS)
        train_shard = pipeline.train_shard

        def failing(plan, shard_id, *args, **kwargs):
            if shard_id == 0:
                raise NumericFault("shard 0 slice 1: non-finite loss at epoch 0")
            return train_shard(plan, shard_id, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train_shard", failing)
        forks = usable_cpus(monkeypatch, cpus)
        with pytest.raises(NumericFault) as info:
            su.train_sisa(bundle, plan, cfg)
        assert str(info.value) == "shard 0 slice 1: non-finite loss at epoch 0"
        assert len(forks) == (0 if cpus == 1 else 2)

    def test_worker_that_exits_is_a_child_process_error(self, data, cfg, monkeypatch):
        bundle = data[(16,)]
        plan = su.make_plan(bundle.train.labels, K=3, L=2, policy=su.SEQUENTIAL_CLASS)
        train_shard = pipeline.train_shard

        def exiting(plan, shard_id, *args, **kwargs):
            if shard_id == 1:
                os._exit(3)
            return train_shard(plan, shard_id, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train_shard", exiting)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError,
                           match=r"shards \[1\] exited with status 3 without a result"):
            su.train_sisa(bundle, plan, cfg)

    def test_parent_error_kills_and_reaps_the_workers(self, data, cfg, monkeypatch):
        class Interrupt(BaseException):
            pass

        def interrupted(pipe):
            raise Interrupt

        bundle = data[(3, 8, 8)]
        plan = su.make_plan(bundle.train.labels, K=3, L=2, policy=su.SEQUENTIAL_CLASS)
        monkeypatch.setattr(pipeline.pickle, "load", interrupted)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(Interrupt):
            su.train_sisa(bundle, plan, cfg)

    def test_trains_in_process_while_another_thread_runs(self, data, cfg, monkeypatch):
        bundle = data[(16,)]
        plan = su.make_plan(bundle.train.labels, K=3, L=2, policy=su.SEQUENTIAL_CLASS)
        forks = usable_cpus(monkeypatch, 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            su.train_sisa(bundle, plan, cfg)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    def test_workers_share_the_cpus_with_blas(self):
        # in a fresh process, whose OpenBLAS pool starts at 2 threads
        code = ("from sisa_unlearn.pipeline import _limit_blas_threads as limit; "
                "print(limit(4), limit(1), limit(4))")
        src = Path(pipeline.__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        if out == ["None"] * 3:
            pytest.skip("numpy does not use OpenBLAS here")
        # a limit only lowers the pool, never raises it
        assert out == ["2", "1", "1"]
