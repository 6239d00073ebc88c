import numpy as np
import pytest

import sisa_unlearn as su
import sisa_unlearn.nn as nn
from sisa_unlearn.ensemble import (EnsembleModel, aggregate_predict_batch,
                                   combine_scores, gated_predict_batch,
                                   gating_architecture, shard_targets)
from sisa_unlearn.errors import InvalidLabelError
from sisa_unlearn.rng import RngState
from sisa_unlearn.training import default_architecture


def max_rule(prob_rows, heads, C):
    """Independent restatement of max-of-max aggregation, one sample."""
    best_class, best_p = None, -1.0
    for probs, head in zip(prob_rows, heads):
        for p, c in zip(probs, head):
            if p > best_p or (p == best_p and c < best_class):
                best_class, best_p = c, p
    return best_class


def sum_rule(prob_rows, heads, C):
    dense = np.zeros(C)
    for probs, head in zip(prob_rows, heads):
        for p, c in zip(probs, head):
            dense[c] += p
    return int(dense.argmax())


def fixed_model(head, probs_row):
    """Constituent stub: an MLP forced to emit one fixed distribution."""
    arch = nn.mlp_architecture(2, hidden=(2,))
    params = nn.init_params(arch, head, RngState(0))
    params.tensors["dense0.w"][:] = 0
    params.tensors["dense0.b"][:] = 0
    params.tensors["dense1.w"][:] = 0
    params.tensors["dense1.b"][:] = np.log(np.asarray(probs_row, np.float32))
    return params


class TestAggregation:
    def test_highest_confidence_wins(self):
        # cat/dog on shard A, ship/truck on shard B; ship at 0.9 wins
        names = {"cat": 0, "dog": 1, "ship": 2, "truck": 3}
        ens = EnsembleModel(
            constituents=[fixed_model((0, 1), [0.7, 0.3]),
                          fixed_model((2, 3), [0.9, 0.1])],
            shard_ids=[0, 1], num_classes=4)
        labels, prob_rows = aggregate_predict_batch(ens, np.zeros((1, 2), np.float32))
        assert labels[0] == names["ship"]
        assert prob_rows[0][0] == pytest.approx([0.7, 0.3], abs=1e-5)

    def test_single_constituent_both_modes(self):
        ens = EnsembleModel(constituents=[fixed_model((0, 1, 2), [0.2, 0.5, 0.3])],
                            shard_ids=[0], num_classes=3)
        labels, _ = aggregate_predict_batch(ens, np.zeros((1, 2), np.float32))
        assert labels[0] == 1

    def test_modes_agree_on_disjoint_heads(self):
        # oracle: independent dense implementations of both rules, 1000 draws
        rng = np.random.default_rng(12)
        heads = [(0, 1, 2), (3, 4), (5, 6, 7, 8)]
        agreements = 0
        for _ in range(1000):
            rows = []
            for head in heads:
                p = rng.random(len(head))
                rows.append(p / p.sum())
            want_max = max_rule(rows, heads, 9)
            want_sum = sum_rule(rows, heads, 9)
            scores = combine_scores([r[None] for r in rows], heads, 9)
            assert scores.argmax() == want_max == want_sum
            agreements += want_max == want_sum
        assert agreements == 1000   # disjoint heads make the rules coincide

    def test_tie_breaks_to_lowest_class(self):
        rows = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])]
        scores = combine_scores(rows, [(2, 3), (0, 1)], 4)
        assert scores.argmax() == 0

    def test_scaling_a_loser_never_changes_winner(self):
        rng = np.random.default_rng(13)
        heads = [(0, 1), (2, 3)]
        for _ in range(200):
            rows = [rng.random(2), rng.random(2)]
            rows = [r / r.sum() for r in rows]
            base = combine_scores([r[None] for r in rows], heads, 4).argmax()
            loser = 0 if base in heads[1] else 1
            rows[loser] = rows[loser] * 0.5
            scaled = combine_scores([r[None] for r in rows], heads, 4).argmax()
            assert scaled == base

    def test_empty_ensemble_rejected(self):
        ens = EnsembleModel(constituents=[], shard_ids=[], num_classes=2)
        with pytest.raises(RuntimeError, match="no constituent"):
            aggregate_predict_batch(ens, np.zeros((1, 2), np.float32))

    def test_counts_k_forwards_per_query(self):
        ens = EnsembleModel(
            constituents=[fixed_model((0, 1), [0.6, 0.4]),
                          fixed_model((2, 3), [0.5, 0.5])],
            shard_ids=[0, 1], num_classes=4)
        aggregate_predict_batch(ens, np.zeros((7, 2), np.float32))
        assert ens.stats.queries == 7
        assert ens.stats.constituent_forwards == 14


@pytest.fixture(scope="module")
def routed_system():
    """4 classes, 2 shards, well separated; gated SISA system."""
    bundle = su.synthetic_bundle(n_per_class=80, num_classes=4, shape=(8,),
                                 separation=5.0, seed=21)
    plan = su.make_plan(bundle.train.labels, K=2, L=2,
                        policy=su.SEQUENTIAL_CLASS)
    cfg = su.TrainConfig(max_epochs_per_slice=10, patience=None,
                         replay_ratio=0.3, batch_size=32, seed=3,
                         learning_rate=0.01)
    system = su.train_sisa(bundle, plan, cfg, gated=True)
    return bundle, plan, cfg, system


class TestGating:
    def test_routing_beats_centroid_oracle_threshold(self, routed_system):
        bundle, plan, _cfg, system = routed_system
        # oracle: nearest shard-centroid router must already clear 0.95
        train, test = bundle.train, bundle.test
        shard_of = {c: loc.shard_id for c, loc in plan.metadata.items()}
        y_train = np.array([shard_of[int(c)] for c in train.labels])
        y_test = np.array([shard_of[int(c)] for c in test.labels])
        centroids = np.stack([train.inputs[y_train == k].mean(axis=0)
                              for k in (0, 1)])
        d = ((test.inputs[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        oracle_acc = float((d.argmin(axis=1) == y_test).mean())
        assert oracle_acc >= 0.95

        probs = nn.forward(system.ensemble.gating, test.inputs)
        routed = probs.argmax(axis=1)
        acc = float((routed == y_test).mean())
        assert acc >= 0.95

    def test_parameter_fraction_in_band(self, routed_system):
        _bundle, _plan, _cfg, system = routed_system
        total = sum(c.param_count() for c in system.ensemble.constituents)
        frac = system.ensemble.gating.param_count() / total
        assert 0.10 <= frac <= 0.15

    def test_parameter_fraction_for_reference_cnn(self):
        base = nn.cnn_architecture((3, 32, 32))
        per_shard = sum(int(np.prod(s)) for s in base.tensor_shapes(5).values())
        gating = gating_architecture(base, 2 * per_shard, 2)
        count = sum(int(np.prod(s)) for s in gating.tensor_shapes(2).values())
        assert 0.10 <= count / (2 * per_shard) <= 0.15

    @pytest.mark.parametrize("shape", [(16,), (3, 8, 8)], ids=["mlp", "cnn"])
    def test_router_width_follows_from_the_plan(self, shape):
        # 7 classes on K=3 shards: heads of uneven sizes
        bundle = su.synthetic_bundle(n_per_class=10, num_classes=7, shape=shape,
                                     separation=4.0, seed=5)
        plan = su.make_plan(bundle.train.labels, K=3, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        cfg = su.TrainConfig(max_epochs_per_slice=1, patience=None,
                             batch_size=16, seed=2)
        system = su.train_sisa(bundle, plan, cfg, gated=True)
        ens = system.ensemble
        assert len({len(c.output_classes) for c in ens.constituents}) > 1
        total = sum(c.param_count() for c in ens.constituents)
        want = gating_architecture(default_architecture(shape), total,
                                   len(ens.shard_ids))
        assert ens.gating.arch == want
        assert ens.gating.output_classes == tuple(sorted(ens.shard_ids))
        assert ens.gating.param_count() == sum(
            int(np.prod(s)) for s in want.tensor_shapes(len(ens.shard_ids)).values())

    def test_gated_counts_one_forward_per_query(self, routed_system):
        bundle, _plan, _cfg, system = routed_system
        system.ensemble.stats.reset()
        x = bundle.test.inputs[:11]
        labels, shards = gated_predict_batch(system.ensemble, x)
        assert system.ensemble.stats.queries == 11
        assert system.ensemble.stats.constituent_forwards == 11
        assert system.ensemble.stats.gating_forwards == 11
        assert len(labels) == len(shards) == 11

    def test_single_shard_routing_is_trivial(self, small_bundle):
        plan = su.make_plan(small_bundle.train.labels, K=1, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        cfg = su.TrainConfig(max_epochs_per_slice=2, patience=None,
                             batch_size=32, seed=0)
        system = su.train_sisa(small_bundle, plan, cfg, gated=True)
        _labels, shards = gated_predict_batch(system.ensemble,
                                              small_bundle.test.inputs)
        assert (shards == 0).all()

    def test_gated_matches_solo_prediction_when_routed(self, routed_system):
        bundle, _plan, _cfg, system = routed_system
        labels, shards = gated_predict_batch(system.ensemble, bundle.test.inputs)
        for k in (0, 1):
            member = system.ensemble.by_shard(k)
            rows = np.flatnonzero(shards == k)
            solo = nn.predict_global(member, bundle.test.inputs[rows])
            assert np.array_equal(labels[rows], solo)

    def test_prediction_domain(self, routed_system):
        bundle, _plan, _cfg, system = routed_system
        covered = system.ensemble.covered_classes()
        labels, _ = gated_predict_batch(system.ensemble, bundle.test.inputs)
        assert set(np.unique(labels)) <= covered
        agg, _ = aggregate_predict_batch(system.ensemble, bundle.test.inputs)
        assert set(np.unique(agg)) <= covered

    def test_missing_gating_rejected(self):
        ens = EnsembleModel(constituents=[fixed_model((0, 1), [0.5, 0.5])],
                            shard_ids=[0], num_classes=2)
        with pytest.raises(RuntimeError, match="no gating"):
            gated_predict_batch(ens, np.zeros((1, 2), np.float32))

    def test_metadata_gap_rejected(self, routed_system):
        bundle, plan, cfg, system = routed_system
        partial = {c: loc for c, loc in plan.metadata.items() if c != 2}
        with pytest.raises(InvalidLabelError):
            shard_targets(bundle.train.labels, partial)

    def test_shard_targets_follow_metadata(self, routed_system):
        bundle, plan, cfg, system = routed_system
        labels = bundle.train.labels
        want = [plan.metadata[int(c)].shard_id for c in labels]
        assert shard_targets(labels, plan.metadata).tolist() == want
        partial = {c: loc for c, loc in plan.metadata.items() if c != 2}
        with pytest.raises(InvalidLabelError, match="class 2 missing"):
            shard_targets(labels, partial)


# --- grouped gated dispatch ---------------------------------------------------

def reference_gated_predict_batch(ensemble, x):
    """One boolean mask and one fancy gather per routed shard: the oracle for
    the grouped dispatch."""
    gate_probs = nn.forward_batched(ensemble.gating, x)
    ensemble.stats.gating_forwards += len(x)
    gate_shards = np.asarray(ensemble.gating.output_classes, dtype=np.int64)
    alive = np.isin(gate_shards, ensemble.shard_ids)
    masked = np.where(alive[None, :], gate_probs, -np.inf)
    choice = gate_shards[masked.argmax(axis=1)]

    labels = np.empty(len(x), dtype=np.int64)
    for k in np.unique(choice):
        member = ensemble.by_shard(int(k))
        rows = np.flatnonzero(choice == k)
        local = nn.predict_local(member, x[rows])
        lut = np.asarray(member.output_classes, dtype=np.int64)
        labels[rows] = lut[local]
        ensemble.stats.constituent_forwards += len(rows)
    ensemble.stats.queries += len(x)
    return labels, choice


def dispatched(predict, ensemble, x):
    """Labels and choices as bytes, plus the three counters of one call."""
    ensemble.stats.reset()
    labels, choice = predict(ensemble, x)
    assert labels.dtype == choice.dtype == np.int64
    stats = ensemble.stats
    return (labels.tobytes(), choice.tobytes(), stats.constituent_forwards,
            stats.gating_forwards, stats.queries)


@pytest.fixture(scope="module", params=[(8,), (3, 8, 8)], ids=["mlp", "cnn"])
def three_shard_systems(request):
    """6 classes on K=3 gated shards; then shard 1 decommissioned by chained
    removals and one class of shard 2 removed."""
    bundle = su.synthetic_bundle(n_per_class=30, num_classes=6, shape=request.param,
                                 separation=4.0, seed=17)
    plan = su.make_plan(bundle.train.labels, K=3, L=2, policy=su.SEQUENTIAL_CLASS)
    cfg = su.TrainConfig(max_epochs_per_slice=3, patience=None, replay_ratio=0.3,
                         batch_size=32, seed=4)
    system = su.train_sisa(bundle, plan, cfg, gated=True)
    chained = system
    for c in [*sorted(plan.assignments[1].class_ids), max(plan.assignments[2].class_ids)]:
        chained, outcome = su.unlearn_gated(chained, bundle, c, cfg)
        assert outcome.verdict
    assert chained.ensemble.shard_ids == [0, 2]
    return bundle, {"full": system, "decommissioned": chained}


class TestGroupedDispatch:
    @pytest.mark.parametrize("state", ["full", "decommissioned"])
    def test_matches_reference_dispatch(self, three_shard_systems, state):
        bundle, systems = three_shard_systems
        ens = systems[state].ensemble
        rng = np.random.default_rng(8)
        wide = (25 * rng.standard_normal((3000, *bundle.test.input_shape))
                ).astype(np.float32)
        for x in (bundle.test.inputs, bundle.train.inputs, wide):
            assert dispatched(gated_predict_batch, ens, x) == \
                dispatched(reference_gated_predict_batch, ens, x)
        # wide rows reach every live shard, and never a dead one
        _, routed = gated_predict_batch(ens, wide)
        assert sorted(set(routed.tolist())) == sorted(ens.shard_ids)

    @pytest.mark.parametrize("state", ["full", "decommissioned"])
    def test_batch_routed_to_one_shard(self, three_shard_systems, state):
        bundle, systems = three_shard_systems
        ens = systems[state].ensemble
        x = bundle.test.inputs
        _, routed = reference_gated_predict_batch(ens, x)
        for k in ens.shard_ids:
            one = x[routed == k]
            assert len(one)
            got = dispatched(gated_predict_batch, ens, one)
            assert got == dispatched(reference_gated_predict_batch, ens, one)
            assert set(np.frombuffer(got[1], dtype=np.int64)) == {k}

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_row_batches(self, three_shard_systems, rows):
        bundle, systems = three_shard_systems
        for system in systems.values():
            x = bundle.test.inputs[:rows]
            got = dispatched(gated_predict_batch, system.ensemble, x)
            assert got == dispatched(reference_gated_predict_batch, system.ensemble, x)
            assert got[2:] == (rows, rows, rows)
            labels, choice = gated_predict_batch(system.ensemble, x)
            assert labels.shape == choice.shape == (rows,)
