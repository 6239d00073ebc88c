import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sisa_unlearn as su
from sisa_unlearn import training
from sisa_unlearn.checkpoint import CheckpointStore, load_checkpoint, stored_digest
from sisa_unlearn.ensemble import predict_labels
from sisa_unlearn.errors import UnknownClassError
from sisa_unlearn.training import sample_replay
from sisa_unlearn.unlearning import (SISA_BALANCED, SISA_GATED, SISA_SCLS_REPLAY,
                                     strategy_rule)


def shard_digests(store, shard_id) -> dict[str, int]:
    """The footer digest of every checkpoint file in a shard's directory."""
    return {p.name: stored_digest(p)
            for p in sorted(store.shard_dir(shard_id).glob("*.ckpt"))}


@pytest.fixture(scope="module")
def bundle():
    return su.synthetic_bundle(n_per_class=80, num_classes=6, shape=(16,),
                               separation=3.0, seed=2)


@pytest.fixture(scope="module")
def cfg():
    return su.TrainConfig(max_epochs_per_slice=5, patience=None,
                          replay_ratio=0.3, batch_size=32, seed=13)


@pytest.fixture(scope="module")
def scls_store(tmp_path_factory):
    return CheckpointStore(tmp_path_factory.mktemp("scls_run"))


@pytest.fixture(scope="module")
def scls_system(bundle, cfg, scls_store):
    plan = su.make_plan(bundle.train.labels, K=2, L=3,
                        policy=su.SEQUENTIAL_CLASS)
    return su.train_sisa(bundle, plan, cfg, store=scls_store)


@pytest.fixture(scope="module")
def balanced_system(bundle, cfg):
    plan = su.make_plan(bundle.train.labels, K=2, L=3, policy=su.BALANCED)
    return su.train_sisa(bundle, plan, cfg)


class TestVerifyExact:
    def test_trained_model_fails_before_unlearning(self, bundle, cfg,
                                                   scls_system):
        verdict, matrix = su.verify_exact(scls_system.ensemble, bundle.test, 0)
        assert not verdict
        assert matrix[:, 0].sum() > 0
        assert matrix.sum() == len(bundle.test)

    def test_column_zero_after_unlearning(self, bundle, cfg, scls_system):
        new_system, _ = su.unlearn_scls(scls_system, bundle, 0, cfg)
        verdict, matrix = su.verify_exact(new_system.ensemble, bundle.test, 0)
        assert verdict
        assert matrix[:, 0].sum() == 0
        assert matrix[0, :].sum() == (bundle.test.labels == 0).sum()

    def test_empty_test_set_rejected(self, bundle, scls_system):
        empty = bundle.test.subset([])
        with pytest.raises(ValueError):
            su.verify_exact(scls_system.ensemble, empty, 0)


class TestBaseline:
    def test_is_one_shard_of_one_slice_trained_as_one_model(self, bundle, cfg):
        # SISA with K=1 and L=1; its one checkpoint is what train_model returns
        model = su.train_baseline(bundle, cfg)
        assert model.plan.to_json() == su.make_plan(
            bundle.train.labels, 1, 1, su.BALANCED).to_json()
        assert list(model.shard_results) == [0]
        (ckpt,) = model.shard_results[0].checkpoints
        assert (ckpt.shard_id, ckpt.slice_index) == (0, 0)
        params, opt, res = training.train_model(bundle.train, bundle.val, range(6), cfg)
        assert ckpt.params.output_classes == params.output_classes == tuple(range(6))
        assert ckpt.params.tensors.flat.tobytes() == params.tensors.flat.tobytes()
        assert ckpt.opt_state.m.flat.tobytes() == opt.m.flat.tobytes()
        assert ckpt.opt_state.v.flat.tobytes() == opt.v.flat.tobytes()
        assert (ckpt.opt_state.step, ckpt.epoch) == (opt.step, res.epochs)
        assert model.ensemble.constituents[0] is ckpt.params

    def test_retrains_on_reduced_set(self, bundle, cfg):
        model = su.train_baseline(bundle, cfg)
        new_model, outcome = su.unlearn_baseline(model, bundle, 3, cfg)
        (params,) = new_model.ensemble.constituents
        assert 3 not in params.output_classes
        assert outcome.verdict
        assert outcome.shard_id == 0
        # reduced training set: 6 classes x 56 train samples, minus one class
        survivors = bundle.train.restricted_to(params.output_classes)
        assert len(survivors) == len(bundle.train) - 56

    def test_reports_its_one_training_set_as_one_slice(self, bundle, cfg):
        # the whole model retrains, as SISA with K=1 and L=1 would
        model = su.train_baseline(bundle, cfg)
        _, outcome = su.unlearn_baseline(model, bundle, 3, cfg)
        doc = outcome.to_json_dict()
        assert (doc["shard"], doc["slices_retrained"], doc["slice_range_retrained"]) \
            == (0, 1, [1, 1])

    def test_refuses_a_plan_of_more_than_one_shard_or_slice(self, bundle, cfg,
                                                           balanced_system):
        with pytest.raises(ValueError, match="one shard and one slice, got K=2, L=3"):
            su.unlearn_baseline(balanced_system, bundle, 3, cfg)

    def test_unknown_class(self, bundle, cfg):
        model = su.train_baseline(bundle, cfg)
        with pytest.raises(UnknownClassError):
            su.unlearn_baseline(model, bundle, 17, cfg)

    def test_degenerate_two_class_warning(self, cfg):
        two = su.synthetic_bundle(n_per_class=40, num_classes=2, shape=(8,),
                                  separation=3.0, seed=4)
        model = su.train_baseline(two, cfg)
        with pytest.warns(UserWarning, match="degenerate"):
            _, outcome = su.unlearn_baseline(model, two, 0, cfg)
        assert outcome.verdict

    def test_retraining_time_near_training_time(self, bundle):
        timer_cfg = su.TrainConfig(max_epochs_per_slice=12, patience=None,
                                   batch_size=32, seed=13)
        model = su.train_baseline(bundle, timer_cfg)
        _, outcome = su.unlearn_baseline(model, bundle, 1, timer_cfg)
        ratio = outcome.seconds / model.train_seconds
        assert 0.5 <= ratio <= 1.3    # ~5/6 of the data at fixed epochs


def test_retrained_rows_order_the_strategies(monkeypatch):
    # acceptance criterion 4 and the timing test above read CPU seconds of
    # fits of about 0.3 s; this counts the rows each removal's gradients
    # read, which no host load moves
    data = su.synthetic_bundle(n_per_class=100, num_classes=10, separation=3.0, seed=11)
    cfg = su.TrainConfig(max_epochs_per_slice=2, patience=None, replay_ratio=0.3,
                         batch_size=32, seed=7)
    labels = data.train.labels
    targets = {
        su.unlearn_baseline: su.train_baseline(data, cfg),
        su.unlearn_balanced: su.train_sisa(
            data, su.make_plan(labels, K=2, L=5, policy=su.BALANCED), cfg),
        su.unlearn_scls: su.train_sisa(
            data, su.make_plan(labels, K=2, L=5, policy=su.SEQUENTIAL_CLASS), cfg),
    }
    rows = [0]
    original = training.loss_and_grad

    def counting(params, x, y):
        rows[0] += len(x)
        return original(params, x, y)

    monkeypatch.setattr(training, "loss_and_grad", counting)
    mean_rows = []
    for unlearn, target in targets.items():
        rows[0] = 0
        for class_id in range(data.num_classes):
            unlearn(target, data, class_id, cfg)
        mean_rows.append(rows[0] / data.num_classes)
    # 45 : 32 : 19, as perfbench's work.grad_rows_per_removal
    assert mean_rows == [1260, 896, 532]


class TestBalanced:
    def test_retrains_all_slices_and_isolates_other_shard(self, bundle, cfg,
                                                          tmp_path):
        store = CheckpointStore(tmp_path)
        plan = su.make_plan(bundle.train.labels, K=2, L=3, policy=su.BALANCED)
        system = su.train_sisa(bundle, plan, cfg, store=store)
        victim = 0
        k = plan.metadata[victim].shard_id
        other = 1 - k
        before = shard_digests(store, other)
        before_own = shard_digests(store, k)

        new_system, outcome = su.unlearn_balanced(system, bundle, victim, cfg)
        assert outcome.slices_retrained == 3
        assert outcome.verdict
        assert shard_digests(store, other) == before
        assert shard_digests(store, k) != before_own
        assert victim not in new_system.ensemble.by_shard(k).output_classes

    def test_decommission_after_removing_every_class(self, bundle, cfg,
                                                     balanced_system):
        system = balanced_system
        k = 0
        doomed = sorted(system.plan.assignments[k].class_ids)
        for c in doomed:
            system, outcome = su.unlearn_balanced(system, bundle, c, cfg)
            assert outcome.verdict
        assert k not in system.ensemble.shard_ids
        assert len(system.ensemble.constituents) == 1
        report = su.evaluate(system.ensemble, bundle.test)
        assert report.accuracy > 0

    def test_policy_recorded(self, bundle, cfg, balanced_system):
        _, outcome = su.unlearn_balanced(balanced_system, bundle, 1, cfg)
        assert outcome.strategy == "sisa_balanced"
        assert outcome.first_slice == 1


class TestScls:
    def test_slice_count_law(self, bundle, cfg, scls_system):
        plan = scls_system.plan
        for c, loc in sorted(plan.metadata.items()):
            _, outcome = su.unlearn_scls(scls_system, bundle, c, cfg)
            want = plan.L - loc.first_slice
            assert outcome.slices_retrained == want
            assert outcome.first_slice == loc.first_slice + 1

    def test_last_slice_class_retrains_one(self, bundle, cfg, scls_system):
        plan = scls_system.plan
        last = [c for c, loc in plan.metadata.items()
                if loc.first_slice == plan.L - 1]
        assert last
        _, outcome = su.unlearn_scls(scls_system, bundle, last[0], cfg)
        assert outcome.slices_retrained == 1

    def test_replay_hygiene(self, bundle, cfg, scls_system, monkeypatch):
        # the buffers the retraining draws from the purged shard's slices
        victim = 0
        drawn = []

        def spy(*args):
            drawn.append(sample_replay(*args))
            return drawn[-1]

        monkeypatch.setattr(training, "sample_replay", spy)
        _, outcome = su.unlearn_scls(scls_system, bundle, victim, cfg)
        assert len(drawn) == outcome.slices_retrained
        assert any(len(buf) for buf in drawn)
        for buf in drawn:
            assert not np.any(bundle.train.labels[buf.indices] == victim)

    def test_prior_checkpoints_preserved(self, bundle, cfg, scls_system):
        plan = scls_system.plan
        spanner = [c for c, loc in plan.metadata.items() if loc.first_slice > 0]
        victim = spanner[0]
        loc = plan.metadata[victim]
        new_system, _ = su.unlearn_scls(scls_system, bundle, victim, cfg)
        old = scls_system.shard_results[loc.shard_id].checkpoints
        new = new_system.shard_results[loc.shard_id].checkpoints
        assert len(new) == plan.L
        for i in range(loc.first_slice):
            assert new[i] is old[i]

    def test_disk_isolation(self, bundle, cfg, scls_store, scls_system):
        victim = max(scls_system.plan.metadata)
        k = scls_system.plan.metadata[victim].shard_id
        other = 1 - k
        before = shard_digests(scls_store, other)
        su.unlearn_scls(scls_system, bundle, victim, cfg)
        assert shard_digests(scls_store, other) == before

    def test_unknown_class_lists_known(self, bundle, cfg, scls_system):
        with pytest.raises(UnknownClassError, match="known"):
            su.unlearn_scls(scls_system, bundle, 42, cfg)

    def test_chained_removals(self, bundle, cfg, scls_system):
        system = scls_system
        for victim in (0, 3):
            system, outcome = su.unlearn_scls(system, bundle, victim, cfg)
            assert outcome.verdict
        covered = system.ensemble.covered_classes()
        assert covered == {1, 2, 4, 5}
        with pytest.raises(UnknownClassError, match="removed"):
            su.unlearn_scls(system, bundle, 0, cfg)


@pytest.fixture(scope="module")
def gated(bundle, cfg, tmp_path_factory):
    store = CheckpointStore(tmp_path_factory.mktemp("gated_run"))
    plan = su.make_plan(bundle.train.labels, K=2, L=3,
                        policy=su.SEQUENTIAL_CLASS)
    system = su.train_sisa(bundle, plan, cfg, gated=True, store=store)
    return store, system


class TestGated:
    def test_gating_digest_unchanged(self, bundle, cfg, gated):
        store, system = gated
        before = stored_digest(store.gating_path())
        new_system, outcome = su.unlearn_gated(system, bundle, 2, cfg)
        assert stored_digest(store.gating_path()) == before
        assert new_system.ensemble.gating is system.ensemble.gating
        assert outcome.verdict

    def test_removed_class_routes_to_survivors(self, bundle, cfg, gated):
        _store, system = gated
        victim = 2
        new_system, _ = su.unlearn_gated(system, bundle, victim, cfg)
        removed_inputs = bundle.test.restricted_to([victim]).inputs
        labels, shards = su.ensemble.gated_predict_batch(new_system.ensemble,
                                                         removed_inputs)
        assert not np.any(labels == victim)
        assert set(np.unique(shards)) <= set(new_system.ensemble.shard_ids)

    def test_requires_gating(self, bundle, cfg, scls_system):
        with pytest.raises(RuntimeError, match="gating"):
            su.unlearn_gated(scls_system, bundle, 0, cfg)


class TestPolicyPreconditions:
    def test_balanced_strategy_needs_balanced_plan(self, bundle, cfg,
                                                   scls_system):
        with pytest.raises(ValueError, match="balanced plan"):
            su.unlearn_balanced(scls_system, bundle, 0, cfg)

    def test_scls_strategy_needs_sequential_plan(self, bundle, cfg,
                                                 balanced_system):
        with pytest.raises(ValueError, match="sequential class slicing"):
            su.unlearn_scls(balanced_system, bundle, 0, cfg)


class TestLastClass:
    """Removing the only class left is refused before any purge or training."""

    @pytest.fixture(scope="class")
    def two(self):
        return su.synthetic_bundle(n_per_class=30, num_classes=2, shape=(8,),
                                   separation=3.0, seed=4)

    def test_baseline_refuses(self, two, cfg):
        model = su.train_baseline(two, cfg)
        with pytest.warns(UserWarning, match="degenerate"):
            model, _ = su.unlearn_baseline(model, two, 0, cfg)
        with pytest.raises(ValueError, match=r"class 1 \('class_1'\) is the last class"):
            su.unlearn_baseline(model, two, 1, cfg)

    @pytest.mark.parametrize("strategy,policy,gated", [
        ("sisa_balanced", su.BALANCED, False),
        ("sisa_scls_replay", su.SEQUENTIAL_CLASS, False),
        ("sisa_gated", su.SEQUENTIAL_CLASS, True),
    ])
    def test_sisa_refuses(self, two, cfg, tmp_path, strategy, policy, gated):
        store = CheckpointStore(tmp_path)
        plan = su.make_plan(two.train.labels, K=2, L=2, policy=policy)
        system = su.train_sisa(two, plan, cfg, gated=gated, store=store)
        system, outcome = su.run_unlearning(strategy, system, two, 0, cfg)
        assert outcome.slices_retrained == 0      # shard 0 decommissioned
        survivor = system.ensemble.shard_ids[0]
        before = shard_digests(store, survivor)
        with pytest.raises(ValueError, match=r"class 1 \('class_1'\) is the last class"):
            su.run_unlearning(strategy, system, two, 1, cfg)
        assert shard_digests(store, survivor) == before
        assert 1 in system.plan.metadata


class TestOutcomeReport:
    @pytest.mark.parametrize("strategy", su.STRATEGIES)
    def test_report_matches_evaluate(self, request, bundle, cfg, strategy):
        target = {"baseline_full": lambda: su.train_baseline(bundle, cfg),
                  "sisa_balanced": lambda: request.getfixturevalue("balanced_system"),
                  "sisa_scls_replay": lambda: request.getfixturevalue("scls_system"),
                  "sisa_gated": lambda: request.getfixturevalue("gated")[1]}[strategy]()
        new, outcome = su.run_unlearning(strategy, target, bundle, 3, cfg)
        want = su.evaluate(new.ensemble, bundle.test)
        got = outcome.report
        assert got.accuracy == want.accuracy
        assert got.precision.tobytes() == want.precision.tobytes()
        assert got.recall.tobytes() == want.recall.tobytes()
        assert got.confusion.tobytes() == want.confusion.tobytes()
        assert got.confusion is outcome.confusion


class TestDispatcher:
    def test_roundtrip_each_strategy(self, bundle, cfg, scls_system,
                                     balanced_system):
        model = su.train_baseline(bundle, cfg)
        gated_plan = su.make_plan(bundle.train.labels, K=2, L=3,
                                  policy=su.SEQUENTIAL_CLASS)
        gated = su.train_sisa(bundle, gated_plan, cfg, gated=True)
        targets = {"baseline_full": model, "sisa_balanced": balanced_system,
                   "sisa_scls_replay": scls_system, "sisa_gated": gated}
        for strategy, target in targets.items():
            _new, outcome = su.run_unlearning(strategy, target, bundle, 1, cfg)
            assert outcome.strategy == strategy
            assert outcome.verdict
            doc = outcome.to_json_dict()
            assert doc["verdict"] == "pass"
            assert len(doc["confusion_matrix"]) == bundle.num_classes

    def test_unknown_strategy(self, bundle, cfg, scls_system):
        with pytest.raises(ValueError, match="unknown strategy"):
            su.run_unlearning("sisa_magic", scls_system, bundle, 1, cfg)


def resume_points(plan, labels, k) -> set[int]:
    """Oracle: the slices of shard k after which one of its classes first
    appears, read off the slice contents rather than the plan's metadata;
    none under a balanced plan, whose removals restart at slice 0, nor in a
    shard of one class, whose removal decommissions the shard."""
    slices = plan.layouts[k].slices
    seen = [set(labels[np.concatenate(slices[:ell + 1])].tolist()) for ell in range(plan.L)]
    if plan.policy == su.BALANCED or len(seen[-1]) < 2:
        return set()
    return {ell for ell in range(plan.L - 1) if seen[ell + 1] - seen[ell]}


def kept_slices(system, labels) -> set[tuple[int, int]]:
    """The (shard, slice) pairs a store holds: each deployed shard's final
    and its resume points under the system's plan, after training and after
    every removal alike."""
    final = system.plan.L - 1
    return {(k, ell) for k in system.shard_results
            for ell in resume_points(system.plan, labels, k) | {final}}


def assert_disk_matches(store, system, stored):
    """The store holds exactly the slices `stored` names, plus the router
    of a gated system, and no other file. Every slice file loads back to
    its checkpoint bitwise, every one but the final with that checkpoint's
    moments, the final without."""
    on_disk = {p.relative_to(store.root).as_posix()
               for p in store.root.rglob("*") if p.is_file()}
    assert on_disk == {f"shards/{k}/slice_{ell}.ckpt" for k, ell in stored} | \
        ({"gating.ckpt"} if system.gating is not None else set())
    assert {int(p.name) for p in (store.root / "shards").iterdir()} == set(system.shard_results)
    final = system.plan.L - 1
    for k, ell in stored:
        ckpt = system.shard_results[k].checkpoints[ell]
        assert ckpt.slice_index == ell
        loaded = load_checkpoint(store.slice_path(k, ell))
        assert loaded.params.output_classes == ckpt.params.output_classes
        assert loaded.params.tensors.flat.tobytes() == ckpt.params.tensors.flat.tobytes()
        assert loaded.opt_state.step == ckpt.opt_state.step
        if ell == final:
            assert loaded.opt_state.m == {} and loaded.opt_state.v == {}
        else:
            assert loaded.opt_state.m.flat.tobytes() == ckpt.opt_state.m.flat.tobytes()
            assert loaded.opt_state.v.flat.tobytes() == ckpt.opt_state.v.flat.tobytes()


class TestFinalsOnDisk:
    @pytest.mark.parametrize("strategy", [SISA_SCLS_REPLAY, SISA_GATED, SISA_BALANCED])
    def test_after_train_and_chained_removals(self, bundle, cfg, tmp_path, strategy):
        rule = strategy_rule(strategy)
        store = CheckpointStore(tmp_path)
        labels = bundle.train.labels
        plan = su.make_plan(labels, K=2, L=3, policy=rule.policy)
        system = su.train_sisa(bundle, plan, cfg, gated=rule.gated, store=store)
        assert_disk_matches(store, system, kept_slices(system, labels))
        # the two later classes of one shard: the second rolls back to the
        # checkpoint that the first removal retrained
        shard = plan.metadata[0].shard_id
        victims = sorted(plan.assignments[shard].class_ids,
                         key=lambda c: plan.metadata[c].first_slice)[1:]
        for victim in victims:
            system, outcome = su.run_unlearning(strategy, system, bundle, victim, cfg)
            assert outcome.verdict
            assert_disk_matches(store, system, kept_slices(system, labels))


class TestRetention:
    def test_a_former_resume_point_goes_once_no_removal_reads_it(self, bundle, cfg, tmp_path):
        # K=2, L=3 over 6 classes: each shard holds one class per slice, so
        # slices 0 and 1 are its resume points
        store = CheckpointStore(tmp_path)
        plan = su.make_plan(bundle.train.labels, K=2, L=3, policy=su.SEQUENTIAL_CLASS)
        system = su.train_sisa(bundle, plan, cfg, store=store)
        by_slice = {k: sorted(plan.assignments[k].class_ids,
                              key=lambda c: plan.metadata[c].first_slice) for k in (0, 1)}
        assert [plan.metadata[c].first_slice for c in by_slice[0]] == [0, 1, 2]

        def held(k):
            return sorted(p.name for p in store.shard_dir(k).iterdir())

        first, second, third = by_slice[0]
        # rolls back to slice 0, which the same removal deletes: its head
        # names `second`, and no removal of the purged plan resumes from it
        system, _ = su.unlearn_scls(system, bundle, second, cfg)
        assert held(0) == ["slice_1.ckpt", "slice_2.ckpt"]
        # leaves a one-class shard: slice 1, the rollback point, goes too
        system, _ = su.unlearn_scls(system, bundle, third, cfg)
        assert held(0) == ["slice_2.ckpt"]
        assert load_checkpoint(store.slice_path(0, 2)).params.output_classes == (first,)
        # a removal from the other shard leaves shard 0 alone and deletes
        # its own rollback point, slice 1, at once
        system, _ = su.unlearn_scls(system, bundle, by_slice[1][-1], cfg)
        assert held(0) == ["slice_2.ckpt"]
        assert held(1) == ["slice_0.ckpt", "slice_2.ckpt"]


def stored_files(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


class TestDecommissionOnDisk:
    """The removal that empties a shard deletes the shard's directory from a
    library store too; the system it started from still serves from memory."""

    @pytest.mark.parametrize("strategy", [SISA_SCLS_REPLAY, SISA_GATED, SISA_BALANCED])
    def test_store_loses_the_shard_and_nothing_else(self, bundle, cfg, tmp_path, strategy):
        rule = strategy_rule(strategy)
        store = CheckpointStore(tmp_path)
        plan = su.make_plan(bundle.train.labels, K=2, L=3, policy=rule.policy)
        system = su.train_sisa(bundle, plan, cfg, gated=rule.gated, store=store)
        k = 0
        kept = {name: raw for name, raw in stored_files(tmp_path).items()
                if not name.startswith(f"shards/{k}/")}
        *retrained, last = sorted(plan.assignments[k].class_ids)
        for class_id in retrained:
            system, _ = su.run_unlearning(strategy, system, bundle, class_id, cfg)
        assert store.shard_dir(k).is_dir()
        parent = system
        served = predict_labels(parent.ensemble, bundle.test.inputs)

        system, outcome = su.run_unlearning(strategy, parent, bundle, last, cfg)
        assert outcome.verdict and outcome.first_slice is None
        assert k not in system.shard_results
        assert not store.shard_dir(k).exists()
        assert stored_files(tmp_path) == kept
        # a copy rebuilds its ensemble from the parent's in-memory checkpoints
        again = predict_labels(replace(parent).ensemble, bundle.test.inputs)
        assert again.tobytes() == served.tobytes()
        assert k in parent.ensemble.shard_ids


def test_balanced_plan_stores_no_moments(tmp_path):
    # class 1 has fewer rows than slices, so it starts at slice 2; balanced
    # removal still restarts at slice 0 and never reads slice 1's moments
    data = tiny_bundle([30, 2, 30])
    plan = su.make_plan(data.train.labels, K=1, L=4, policy=su.BALANCED)
    assert plan.metadata[1].first_slice == 2
    cfg = su.TrainConfig(max_epochs_per_slice=2, patience=None,
                         replay_ratio=0.0, batch_size=4, seed=3)
    store = CheckpointStore(tmp_path)
    system = su.train_sisa(data, plan, cfg, store=store)
    # the store holds the final alone, without moments
    assert [p.name for p in store.shard_dir(0).iterdir()] == ["slice_3.ckpt"]
    final = system.shard_results[0].final
    loaded = load_checkpoint(store.slice_path(0, 3))
    assert loaded.opt_state.m == {} and loaded.opt_state.v == {}
    assert loaded.params.tensors.flat.tobytes() == final.params.tensors.flat.tobytes()
    # in memory every slice keeps its moments
    for ckpt in system.shard_results[0].checkpoints:
        assert ckpt.opt_state.m.layout == ckpt.params.tensors.layout


@st.composite
def removal_chains(draw):
    """A small dataset, a strategy (and so a slicing policy), K, L, and the
    classes removed in turn: all but one, in a drawn order."""
    num_classes = draw(st.integers(2, 5))
    K = draw(st.integers(1, num_classes))
    L = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(L, 3 * L + 2), min_size=num_classes,
                          max_size=num_classes))
    strategy = draw(st.sampled_from([SISA_SCLS_REPLAY, SISA_GATED, SISA_BALANCED]))
    chain = draw(st.permutations(range(num_classes)))[:-1]
    return sizes, strategy, K, L, chain


def tiny_bundle(sizes) -> su.DataBundle:
    """`sizes[c]` train rows of class c and one validation and one test row
    each, Gaussian blobs in 4-d."""
    names = [f"class_{c}" for c in range(len(sizes))]
    g = np.random.default_rng(sizes)

    def part(counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        inputs = (np.eye(len(counts), 4)[labels % 4] * 3
                  + g.standard_normal((len(labels), 4))).astype(np.float32)
        return su.LabeledDataset(inputs=inputs, labels=labels, class_names=names)
    ones = [1] * len(sizes)
    return su.DataBundle(train=part(sizes), val=part(ones), test=part(ones))


@settings(max_examples=25, deadline=None)
@given(removal_chains())
def test_store_holds_moments_exactly_at_resume_points(case):
    sizes, strategy, K, L, chain = case
    data = tiny_bundle(sizes)
    labels = data.train.labels
    rule = strategy_rule(strategy)
    cfg = su.TrainConfig(max_epochs_per_slice=2, patience=None,
                         replay_ratio=0.5 if rule.replay else 0.0,
                         batch_size=4, seed=sum(sizes))
    plan = su.make_plan(labels, K=K, L=L, policy=rule.policy)
    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        stored = su.train_sisa(data, plan, cfg, gated=rule.gated, store=store)
        memory = su.train_sisa(data, plan, cfg, gated=rule.gated)
        for class_id in [None] + chain:
            if class_id is not None:
                stored, _ = su.run_unlearning(strategy, stored, data, class_id, cfg)
                memory, _ = su.run_unlearning(strategy, memory, data, class_id, cfg)
            assert_disk_matches(store, stored, kept_slices(stored, labels))
            a, b = stored.ensemble, memory.ensemble
            assert a.shard_ids == b.shard_ids
            for p, q in zip(a.constituents, b.constituents):
                assert p.output_classes == q.output_classes
                assert p.tensors.flat.tobytes() == q.tensors.flat.tobytes()
