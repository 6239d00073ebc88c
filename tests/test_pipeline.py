from dataclasses import replace

import numpy as np
import pytest

import sisa_unlearn as su
from sisa_unlearn.checkpoint import CheckpointStore, load_checkpoint
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
