import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sisa_unlearn as su
import sisa_unlearn.nn as nn
from sisa_unlearn import training
from sisa_unlearn.checkpoint import CheckpointStore, load_checkpoint
from sisa_unlearn.errors import IntegrityError, InvalidLabelError, NumericFault
from sisa_unlearn.partition import purge_class
from sisa_unlearn.rng import RngState
from sisa_unlearn.training import (_local_labels, early_stop_monitor, fit, lookup,
                                   sample_replay, train_model)

from conftest import make_labels


def sequential_layout(counts, L):
    labels = make_labels(counts)
    plan = su.make_plan(labels, K=1, L=L, policy=su.SEQUENTIAL_CLASS)
    return labels, plan.layouts[0]


class TestSampleReplay:
    def test_buffer_size_from_ratio(self):
        labels, layout = sequential_layout({0: 7000, 1: 7000, 2: 7000}, L=3)
        buf = sample_replay(layout, 2, 0.3, RngState(0), labels)
        assert len(buf) == 4200

    def test_zero_ratio_and_first_slice(self):
        labels, layout = sequential_layout({0: 10, 1: 10}, L=2)
        assert len(sample_replay(layout, 1, 0.0, RngState(0), labels)) == 0
        assert len(sample_replay(layout, 0, 0.5, RngState(0), labels)) == 0

    def test_proportional_split(self):
        # oracle: per-class proportional counts, 80 total -> 50/30
        labels = make_labels({0: 100, 1: 60, 2: 40})
        plan = su.make_plan(labels, K=1, L=2, policy=su.SEQUENTIAL_CLASS)
        layout = plan.layouts[0]
        # first slice: 100 of class 0; second: rest. Rebuild a custom layout
        # so the prior slice holds exactly {0: 100, 1: 60}.
        prior = np.flatnonzero(labels <= 1)
        rest = np.flatnonzero(labels == 2)
        layout.slices = [prior, rest]
        buf = sample_replay(layout, 1, 0.5, RngState(1), labels)
        assert len(buf) == 80
        got = np.bincount(labels[buf.indices], minlength=3)
        assert got.tolist() == [50, 30, 0]

    def test_never_samples_current_or_future(self):
        labels, layout = sequential_layout({c: 20 for c in range(4)}, L=4)
        for ell in range(1, 4):
            buf = sample_replay(layout, ell, 0.4, RngState(2), labels)
            prior = np.concatenate(layout.slices[:ell])
            assert np.isin(buf.indices, prior).all()
            assert (buf.source_slices < ell).all()

    def test_deterministic(self):
        labels, layout = sequential_layout({0: 30, 1: 30}, L=2)
        a = sample_replay(layout, 1, 0.5, RngState(3), labels)
        b = sample_replay(layout, 1, 0.5, RngState(3), labels)
        assert np.array_equal(a.indices, b.indices)

    def test_bad_ratio(self):
        labels, layout = sequential_layout({0: 10, 1: 10}, L=2)
        with pytest.raises(ValueError):
            sample_replay(layout, 1, 1.5, RngState(0), labels)


class TestLocalLabels:
    def test_maps_global_to_head_position(self):
        labels = np.array([7, 2, 7, 5], dtype=np.int32)
        assert _local_labels(labels, (2, 5, 7)).tolist() == [2, 0, 2, 1]

    def test_label_outside_head(self):
        with pytest.raises(InvalidLabelError, match=r"label 9 outside shard head \(2, 5\)"):
            _local_labels(np.array([2, 9, 3]), (2, 5))

    def test_lookup_marks_missing(self):
        out = lookup({2: 0, 5: 1}, np.array([5, 2, 7, -1, 0]))
        assert out.dtype == np.int64
        assert out.tolist() == [1, 0, -1, -1, -1]
        assert lookup({}, np.array([0, 3])).tolist() == [-1, -1]


class TestEarlyStop:
    def test_strictly_decreasing_never_stops(self):
        losses = [1.0 - 0.01 * i for i in range(50)]
        for i in range(1, len(losses) + 1):
            assert not early_stop_monitor(losses[:i], patience=7)

    def test_stops_after_seven_stalls(self):
        history = [1.0]
        for i in range(1, 8):
            history.append(1.0 + 0.01 * i)
            should = early_stop_monitor(history, patience=7)
            assert should == (i == 7)

    def test_equal_loss_counts_as_stall(self):
        assert early_stop_monitor([1.0] + [1.0] * 7, patience=7)

    def test_counter_resets_on_improvement(self):
        history = [1.0, 1.1, 0.5]
        assert not early_stop_monitor(history, patience=2)
        history += [0.6, 0.7]
        assert early_stop_monitor(history, patience=2)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            early_stop_monitor([], patience=3)

    @settings(max_examples=50, deadline=None)
    @given(losses=st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=1,
                           max_size=30),
           patience=st.integers(1, 8))
    def test_stop_definition(self, losses, patience):
        # stop iff the strict best lies at least `patience` entries back
        best_i = 0
        for i, v in enumerate(losses):
            if v < losses[best_i]:
                best_i = i
        expected = (len(losses) - 1 - best_i) >= patience
        assert early_stop_monitor(losses, patience) == expected


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -5), ("max_epochs_per_slice", 0),
        ("learning_rate", -1.0), ("learning_rate", 0.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ])
    def test_budget_that_cannot_train_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            su.TrainConfig(**{field: value})

    def test_smallest_budget_trains(self, small_bundle):
        cfg = su.TrainConfig(max_epochs_per_slice=1, batch_size=1,
                             learning_rate=1e-9)
        _params, opt, res = train_model(small_bundle.train, small_bundle.val,
                                        (0, 1), cfg)
        assert res.epochs == 1
        assert opt.step == (small_bundle.train.labels < 2).sum()


class TestFit:
    def test_early_stopping_keeps_best(self, small_bundle):
        head = (0, 1, 2, 3, 4, 5)
        cfg = su.TrainConfig(max_epochs_per_slice=40, patience=3,
                             batch_size=32, seed=5, learning_rate=0.05)
        params = nn.init_params(nn.mlp_architecture(16), head, RngState(5))
        opt = nn.adam_init(params, cfg.adam())
        train, val = small_bundle.train, small_bundle.val
        res = fit(params, opt, train.inputs, train.labels,
                  val.inputs, val.labels, cfg, RngState(6))
        # stopped before the budget, and the kept parameters score the best loss
        assert res.epochs < 40
        assert nn.mean_loss(params, val.inputs, val.labels) == \
            pytest.approx(min(res.history), abs=1e-6)

    def test_numeric_fault_names_slice(self, small_bundle):
        labels = make_labels({0: 16, 1: 16})
        plan = su.make_plan(labels, K=1, L=2, policy=su.SEQUENTIAL_CLASS)
        inputs = np.full((32, 4), np.inf, dtype=np.float32)
        train = su.LabeledDataset(inputs=inputs, labels=labels,
                                  class_names=["a", "b"])
        val = train.subset([0, 1])
        cfg = su.TrainConfig(max_epochs_per_slice=2, patience=None, seed=0)
        with pytest.raises(NumericFault, match=r"slice 0.*epoch 0"):
            su.train_shard(plan, 0, train, val, cfg)


@pytest.fixture(scope="module")
def plan(small_bundle):
    return su.make_plan(small_bundle.train.labels, K=2, L=3,
                        policy=su.SEQUENTIAL_CLASS)


class TestTrainShard:

    def test_single_slice_plan(self, small_bundle, quick_cfg):
        plan = su.make_plan(small_bundle.train.labels, K=2, L=1,
                            policy=su.SEQUENTIAL_CLASS)
        res = su.train_shard(plan, 0, small_bundle.train, small_bundle.val,
                             quick_cfg)
        assert len(res.checkpoints) == 1

    def test_checkpoint_count_is_l(self, small_bundle, plan, quick_cfg):
        res = su.train_shard(plan, 0, small_bundle.train, small_bundle.val,
                             quick_cfg)
        assert len(res.checkpoints) == 3
        assert res.slices_trained == 3
        assert [c.slice_index for c in res.checkpoints] == [0, 1, 2]

    def test_rollback_equivalence_in_memory(self, small_bundle, plan, quick_cfg):
        full = su.train_shard(plan, 0, small_bundle.train, small_bundle.val,
                              quick_cfg)
        resumed = su.train_shard(plan, 0, small_bundle.train, small_bundle.val,
                                 quick_cfg, start_slice=1,
                                 initial=full.checkpoints[0])
        for k, t in full.final.params.tensors.items():
            assert resumed.final.params.tensors[k].tobytes() == t.tobytes()
        for k in full.final.opt_state.m:
            assert resumed.final.opt_state.m[k].tobytes() == \
                full.final.opt_state.m[k].tobytes()

    def test_rollback_equivalence_through_disk(self, small_bundle, plan,
                                               quick_cfg, tmp_path):
        store = CheckpointStore(tmp_path)
        full = su.train_shard(plan, 1, small_bundle.train, small_bundle.val,
                              quick_cfg)
        store.save_chain(full.checkpoints, plan)
        loaded = load_checkpoint(store.slice_path(1, 1))
        resumed = su.train_shard(plan, 1, small_bundle.train, small_bundle.val,
                                 quick_cfg, start_slice=2, initial=loaded)
        assert resumed.final.params.tensors["dense1.w"].tobytes() == \
            full.final.params.tensors["dense1.w"].tobytes()

    def test_store_keeps_moments_only_where_training_resumes(
            self, small_bundle, plan, quick_cfg, tmp_path):
        labels = small_bundle.train.labels
        plans = {
            "one class per slice": plan,
            # 3 classes of 42 rows over 5 slices: no class starts after slice 1 or 3
            "classes straddle slices": su.make_plan(labels, K=2, L=5,
                                                    policy=su.SEQUENTIAL_CLASS),
            "balanced": su.make_plan(labels, K=2, L=3, policy=su.BALANCED),
        }
        for name, p in plans.items():
            # oracle: read off the slice contents, not the plan's metadata
            slices = p.layouts[0].slices
            seen = [set(labels[np.concatenate(slices[:ell + 1])]) for ell in range(p.L)]
            resume = {ell for ell in range(p.L - 1) if seen[ell + 1] - seen[ell]}
            assert resume == {"one class per slice": {0, 1}, "balanced": set(),
                              "classes straddle slices": {0, 2}}[name]
            store = CheckpointStore(tmp_path / name)
            res = su.train_shard(p, 0, small_bundle.train, small_bundle.val,
                                 quick_cfg)
            store.save_chain(res.checkpoints, p)
            # the store holds the resume points and the final, and no other slice
            kept = resume | {p.L - 1}
            assert sorted(path.name for path in store.shard_dir(0).iterdir()) == \
                sorted(f"slice_{ell}.ckpt" for ell in kept)
            for ckpt in res.checkpoints:
                # in memory every checkpoint keeps its moments
                assert ckpt.opt_state.m.layout == ckpt.params.tensors.layout
                if ckpt.slice_index not in kept:
                    continue
                loaded = load_checkpoint(store.slice_path(0, ckpt.slice_index))
                assert loaded.params.tensors.flat.tobytes() == ckpt.params.tensors.flat.tobytes()
                assert loaded.opt_state.step == ckpt.opt_state.step
                if ckpt.slice_index in resume:
                    assert loaded.opt_state.m.flat.tobytes() == ckpt.opt_state.m.flat.tobytes()
                    assert loaded.opt_state.v.flat.tobytes() == ckpt.opt_state.v.flat.tobytes()
                else:
                    assert loaded.opt_state.m == {} and loaded.opt_state.v == {}

    def test_one_class_shard_stores_no_moments(self, small_bundle, quick_cfg, tmp_path):
        # removing the last class of a shard decommissions it, so no removal
        # resumes from the slice before that class's first
        labels = small_bundle.train.labels
        # 6 classes of 42 rows, 2 per shard over 3 slices: the second starts at slice 1
        p = su.make_plan(labels, K=3, L=3, policy=su.SEQUENTIAL_CLASS)
        first, second = sorted(p.assignments[0].class_ids,
                               key=lambda c: p.metadata[c].first_slice)
        assert (p.metadata[first].first_slice, p.metadata[second].first_slice) == (0, 1)
        # removing the first class restarts the shard at slice 0 with one class
        purged = purge_class(p, first, labels)
        assert purged.metadata[second].first_slice == 1
        store = CheckpointStore(tmp_path)
        store.save_chain(su.train_shard(p, 0, small_bundle.train, small_bundle.val,
                                        quick_cfg).checkpoints, p)
        assert sorted(path.name for path in store.shard_dir(0).iterdir()) == \
            ["slice_0.ckpt", "slice_2.ckpt"]
        before = store.slice_path(0, 0).read_bytes()
        res = su.train_shard(purged, 0, small_bundle.train, small_bundle.val,
                             quick_cfg)
        # the save step writes the final alone; the retention step deletes
        # slice 0, the removed class's resume point, which no removal of
        # the purged plan reads
        store.save_chain(res.checkpoints, purged)
        assert store.slice_path(0, 0).read_bytes() == before
        store.retain(purged)
        assert [path.name for path in store.shard_dir(0).iterdir()] == ["slice_2.ckpt"]
        loaded = load_checkpoint(store.slice_path(0, 2))
        assert loaded.opt_state.m == {} and loaded.opt_state.v == {}
        assert loaded.params.tensors.flat.tobytes() == res.final.params.tensors.flat.tobytes()

    def test_resuming_from_a_final_is_an_integrity_error(
            self, small_bundle, plan, quick_cfg, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_chain(su.train_shard(plan, 1, small_bundle.train, small_bundle.val,
                                        quick_cfg).checkpoints, plan)
        final = load_checkpoint(store.slice_path(1, plan.L - 1))
        with pytest.raises(IntegrityError, match=r"shard 1: the checkpoint of slice 2 "
                                                 r"holds no Adam moments"):
            su.train_shard(plan, 1, small_bundle.train, small_bundle.val,
                           quick_cfg, start_slice=plan.L - 1, initial=final)

    def test_slice_validates_on_classes_trained_so_far(self, small_bundle, plan,
                                                       quick_cfg, monkeypatch):
        seen = []
        original = training.fit

        def spy(params, opt, x, y, x_val, y_val, cfg, rng):
            seen.append({params.output_classes[i] for i in np.unique(y_val)})
            return original(params, opt, x, y, x_val, y_val, cfg, rng)

        monkeypatch.setattr(training, "fit", spy)
        su.train_shard(plan, 0, small_bundle.train, small_bundle.val, quick_cfg)
        labels = small_bundle.train.labels
        layout = plan.layouts[0]
        expected = [set(np.unique(labels[np.concatenate(layout.slices[:ell + 1])]).tolist())
                    for ell in range(plan.L)]
        assert seen == expected
        assert seen[0] < seen[-1]

    def test_replay_mitigates_forgetting(self, small_bundle, plan):
        accs = {}
        for rho in (0.0, 0.3):
            cfg = su.TrainConfig(max_epochs_per_slice=8, patience=None,
                                 replay_ratio=rho, batch_size=32, seed=9)
            res = su.train_shard(plan, 0, small_bundle.train, small_bundle.val,
                                 cfg)
            part = small_bundle.test.restricted_to(res.head)
            pred = nn.predict_global(res.final.params, part.inputs)
            accs[rho] = float((pred == part.labels).mean())
        assert accs[0.3] > accs[0.0]

    def test_forgetting_observable_without_replay(self):
        # overlapping classes and enough steps per slice make the drift visible
        bundle = su.synthetic_bundle(n_per_class=60, num_classes=6, shape=(16,),
                                     separation=1.5, seed=1)
        seq_plan = su.make_plan(bundle.train.labels, K=2, L=3,
                                policy=su.SEQUENTIAL_CLASS)
        cfg = su.TrainConfig(max_epochs_per_slice=30, patience=None,
                             replay_ratio=0.0, batch_size=32, seed=9)
        res = su.train_shard(seq_plan, 0, bundle.train, bundle.val, cfg)
        first_classes = np.unique(bundle.train.labels[seq_plan.layouts[0].slices[0]])
        part = bundle.test.restricted_to(first_classes)
        accs = []
        for ckpt in res.checkpoints[:2]:
            pred = nn.predict_global(ckpt.params, part.inputs)
            accs.append(float((pred == part.labels).mean()))
        assert accs[1] < accs[0]

    def test_replay_buffers_stay_behind_cursor(self, small_bundle, plan,
                                               quick_cfg, monkeypatch):
        drawn = []

        def spy(layout, slice_index, *args):
            buf = sample_replay(layout, slice_index, *args)
            drawn.append((slice_index, buf))
            return buf

        monkeypatch.setattr(training, "sample_replay", spy)
        su.train_shard(plan, 0, small_bundle.train, small_bundle.val, quick_cfg)
        assert [ell for ell, _ in drawn] == list(range(plan.L))
        assert any(len(buf) for _, buf in drawn)
        for ell, buf in drawn:
            assert (buf.source_slices < ell).all()

    def test_slice_costs_less_than_shard(self, small_bundle, plan):
        cfg = su.TrainConfig(max_epochs_per_slice=6, patience=None,
                             batch_size=16, seed=4)
        res = su.train_shard(plan, 0, small_bundle.train, small_bundle.val, cfg)
        head = res.head
        whole = small_bundle.train.restricted_to(head)
        params = nn.init_params(nn.mlp_architecture(16), tuple(head), RngState(1))
        opt = nn.adam_init(params, cfg.adam())
        lut = {c: i for i, c in enumerate(head)}
        y = np.array([lut[int(v)] for v in whole.labels])
        whole_fit = fit(params, opt, whole.inputs, y, None, None, cfg, RngState(2))
        assert min(res.seconds_per_slice) < whole_fit.seconds
