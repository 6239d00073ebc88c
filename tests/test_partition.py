import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sisa_unlearn as su
from sisa_unlearn.errors import MissingClassError
from sisa_unlearn.partition import build_metadata, plan_shards, purge_class

from conftest import make_labels


def brute_force_ratio(sizes: dict[int, int], K: int) -> float:
    """Optimal imbalance ratio over every assignment with no empty shard."""
    classes = sorted(sizes)
    best = np.inf
    for combo in itertools.product(range(K), repeat=len(classes)):
        loads = [0] * K
        for c, k in zip(classes, combo):
            loads[k] += sizes[c]
        if min(loads) == 0:
            continue
        best = min(best, max(loads) / min(loads))
    return best


class TestPlanShards:
    def test_cifar_two_shards(self):
        sizes = {c: 4200 for c in range(10)}
        assignments, ratio = plan_shards(sizes, K=2)
        assert ratio == 1.0
        for a in assignments:
            assert len(a.class_ids) == 5
            assert a.sample_count == 21000

    def test_single_shard(self):
        assignments, ratio = plan_shards({0: 7, 1: 99, 2: 4}, K=1)
        assert ratio == 1.0
        assert assignments[0].class_ids == (0, 1, 2)

    def test_greedy_matches_brute_force_on_example(self):
        sizes = {0: 100, 1: 80, 2: 60, 3: 40}
        assignments, ratio = plan_shards(sizes, K=2)
        shard_sets = {frozenset(a.class_ids) for a in assignments}
        assert shard_sets == {frozenset({0, 3}), frozenset({1, 2})}
        assert ratio == 1.0
        assert brute_force_ratio(sizes, 2) == 1.0

    def test_k_exceeds_classes(self):
        with pytest.raises(ValueError, match="K exceeds class count"):
            plan_shards({0: 5, 1: 5}, K=3)

    def test_disjoint_cover(self):
        sizes = {c: 10 + 3 * c for c in range(7)}
        assignments, _ = plan_shards(sizes, K=3)
        seen = [c for a in assignments for c in a.class_ids]
        assert sorted(seen) == sorted(sizes)

    @settings(max_examples=20, deadline=None)
    @given(sizes=st.lists(st.integers(1, 50), min_size=3, max_size=8),
           K=st.integers(1, 3))
    def test_greedy_near_optimal(self, sizes, K):
        if K > len(sizes):
            return
        size_map = dict(enumerate(sizes))
        _, ratio = plan_shards(size_map, K)
        assert ratio <= brute_force_ratio(size_map, K) * 1.5 + 1e-9

    def test_equal_sizes_divisible_is_exact(self):
        for K in (1, 2, 3):
            _, ratio = plan_shards({c: 12 for c in range(6)}, K)
            assert ratio == 1.0


def layout_for(counts: dict[int, int], K: int, L: int, policy: str):
    labels = make_labels(counts)
    plan = su.make_plan(labels, K, L, policy)
    return labels, plan


class TestPlanSlices:
    def test_sequential_cut_spans_class_boundary(self):
        # one shard, 5 classes x 4200 -> three slices of 7000
        labels = make_labels({c: 4200 for c in range(5)})
        plan = su.make_plan(labels, K=1, L=3, policy=su.SEQUENTIAL_CLASS)
        layout = plan.layouts[0]
        assert [len(s) for s in layout.slices] == [7000, 7000, 7000]
        slice0 = labels[layout.slices[0]]
        assert (slice0 == 0).sum() == 4200
        assert (slice0 == 1).sum() == 2800

    def test_single_slice(self):
        labels = make_labels({0: 10, 1: 10})
        plan = su.make_plan(labels, K=1, L=1, policy=su.SEQUENTIAL_CLASS)
        assert len(plan.layouts[0].slices[0]) == 20

    def test_balanced_histogram(self):
        # oracle: per-slice class histogram
        labels = make_labels({0: 10, 1: 10})
        plan = su.make_plan(labels, K=1, L=2, policy=su.BALANCED)
        for s in plan.layouts[0].slices:
            counts = np.bincount(labels[s], minlength=2)
            assert counts.tolist() == [5, 5]

    def test_balanced_slice_sizes_within_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            counts = {c: int(rng.integers(5, 40)) for c in range(5)}
            labels = make_labels(counts)
            plan = su.make_plan(labels, K=1, L=3, policy=su.BALANCED)
            sizes = [len(s) for s in plan.layouts[0].slices]
            assert max(sizes) - min(sizes) <= 1

    def test_sequential_contiguity(self):
        labels = make_labels({c: 13 for c in range(5)})
        plan = su.make_plan(labels, K=1, L=4, policy=su.SEQUENTIAL_CLASS)
        for c, loc in plan.metadata.items():
            occupied = list(loc.slices)
            assert occupied == list(range(occupied[0], occupied[-1] + 1))

    def test_disjoint_cover_both_policies(self):
        labels = make_labels({c: 17 for c in range(4)})
        for policy in (su.BALANCED, su.SEQUENTIAL_CLASS):
            plan = su.make_plan(labels, K=2, L=3, policy=policy)
            for layout in plan.layouts:
                merged = np.concatenate(layout.slices)
                assert len(np.unique(merged)) == len(merged)
            all_idx = np.concatenate([np.concatenate(l.slices) for l in plan.layouts])
            assert sorted(all_idx) == list(range(len(labels)))

    def test_too_many_slices(self):
        labels = make_labels({0: 2, 1: 1})
        with pytest.raises(ValueError, match="exceeds shard sample count"):
            su.make_plan(labels, K=1, L=4, policy=su.BALANCED)


class TestMetadata:
    def test_sequential_spanning_class(self):
        # oracle: scan each slice's labels for occupancy
        labels = make_labels({c: 4200 for c in range(5)})
        plan = su.make_plan(labels, K=1, L=3, policy=su.SEQUENTIAL_CLASS)
        layout = plan.layouts[0]
        for c, loc in plan.metadata.items():
            want = tuple(i for i, s in enumerate(layout.slices)
                         if np.any(labels[s] == c))
            assert loc.slices == want
            assert loc.first_slice == want[0]
        assert plan.metadata[1].slices == (0, 1)
        assert plan.metadata[1].first_slice == 0

    def test_balanced_occupies_all(self):
        labels = make_labels({c: 30 for c in range(4)})
        plan = su.make_plan(labels, K=1, L=3, policy=su.BALANCED)
        for loc in plan.metadata.values():
            assert loc.slices == (0, 1, 2)

    def test_degenerate_plan(self):
        labels = make_labels({0: 5, 1: 5})
        plan = su.make_plan(labels, K=1, L=1, policy=su.BALANCED)
        for loc in plan.metadata.values():
            assert (loc.shard_id, loc.first_slice, loc.slices) == (0, 0, (0,))

    def test_missing_class(self):
        labels = make_labels({0: 5, 1: 5})
        plan = su.make_plan(labels, K=1, L=2, policy=su.SEQUENTIAL_CLASS)
        assignment = plan.assignments[0]
        broken = su.partition.ShardAssignment(0, assignment.class_ids + (9,), 10)
        with pytest.raises(MissingClassError):
            build_metadata([broken], plan.layouts, labels)


class TestPlanSerialization:
    def test_roundtrip_and_stability(self, tmp_path):
        labels = make_labels({c: 11 for c in range(6)})
        plan = su.make_plan(labels, K=2, L=3, policy=su.SEQUENTIAL_CLASS)
        text = plan.to_json()
        again = su.make_plan(labels, K=2, L=3, policy=su.SEQUENTIAL_CLASS)
        assert again.to_json() == text
        doc = json.loads(text)
        assert set(doc) == {"K", "L", "policy", "assignments", "layouts",
                            "metadata", "imbalance_ratio"}

    def test_purge_class_keeps_other_entries(self):
        labels = make_labels({c: 12 for c in range(4)})
        plan = su.make_plan(labels, K=2, L=2, policy=su.SEQUENTIAL_CLASS)
        victim = 1
        purged = purge_class(plan, victim, labels)
        assert victim not in purged.metadata
        k = plan.metadata[victim].shard_id
        for s in purged.layouts[k].slices:
            assert not np.any(labels[s] == victim)
        for c, loc in purged.metadata.items():
            assert loc == plan.metadata[c]
        other = 1 - k
        for before, after in zip(plan.layouts[other].slices,
                                 purged.layouts[other].slices):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("policy", [su.BALANCED, su.SEQUENTIAL_CLASS])
    def test_purges_commute(self, policy):
        # a run directory's plan is rebuilt with its removed classes purged
        # in ascending order, whatever order they were removed in
        labels = make_labels({c: 8 + 3 * c for c in range(6)})
        plan = su.make_plan(labels, K=2, L=3, policy=policy)
        for a, b in itertools.combinations(range(6), 2):
            ab = purge_class(purge_class(plan, a, labels), b, labels)
            ba = purge_class(purge_class(plan, b, labels), a, labels)
            assert ab.to_json() == ba.to_json()
