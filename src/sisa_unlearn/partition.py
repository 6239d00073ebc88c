"""Partition planning: class-cohesive shards, slice layouts, class metadata.

A plan fixes, before any training happens, which shard owns each class,
how each shard's samples are cut into slices, and where every class first
appears -- the lookup that drives targeted unlearning later.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MissingClassError
from .files import write_atomic

BALANCED = "balanced"
SEQUENTIAL_CLASS = "sequential_class"
POLICIES = (BALANCED, SEQUENTIAL_CLASS)


@dataclass
class ShardAssignment:
    shard_id: int
    class_ids: tuple[int, ...]      # sorted, disjoint across shards
    sample_count: int


@dataclass
class SliceLayout:
    shard_id: int
    slices: list[np.ndarray]        # dataset indices, disjoint, sizes differ <= 1
    policy: str


@dataclass(frozen=True)
class ClassLocation:
    shard_id: int
    first_slice: int
    slices: tuple[int, ...]         # every slice holding samples of the class


@dataclass
class PartitionPlan:
    K: int
    L: int
    policy: str
    assignments: list[ShardAssignment]
    layouts: list[SliceLayout]
    metadata: dict[int, ClassLocation]
    imbalance_ratio: float

    def to_json(self) -> str:
        doc = {
            "K": self.K,
            "L": self.L,
            "policy": self.policy,
            "imbalance_ratio": self.imbalance_ratio,
            "assignments": [
                {"shard_id": a.shard_id, "class_ids": list(a.class_ids),
                 "sample_count": a.sample_count}
                for a in self.assignments
            ],
            "layouts": [
                {"shard_id": l.shard_id, "policy": l.policy,
                 "slices": [s.tolist() for s in l.slices]}
                for l in self.layouts
            ],
            "metadata": {
                str(c): {"shard_id": m.shard_id, "first_slice": m.first_slice,
                         "slices": list(m.slices)}
                for c, m in sorted(self.metadata.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, path) -> None:
        write_atomic(path, self.to_json())


def plan_shards(class_sizes: dict[int, int], K: int):
    """Greedy load balancing: biggest class first, into the lightest shard.

    Returns (assignments, imbalance_ratio) where the ratio is largest shard
    size over smallest. Ties (equal loads, equal sizes) break toward the
    lower shard / class id, making plans reproducible.
    """
    classes = sorted(class_sizes)
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > len(classes):
        raise ValueError(f"K exceeds class count ({K} > {len(classes)}): a shard would be empty")
    order = sorted(classes, key=lambda c: (-class_sizes[c], c))
    members: list[list[int]] = [[] for _ in range(K)]
    loads = [0] * K
    for c in order:
        k = min(range(K), key=lambda i: (loads[i], i))
        members[k].append(c)
        loads[k] += class_sizes[c]
    assignments = [
        ShardAssignment(k, tuple(sorted(members[k])), loads[k]) for k in range(K)
    ]
    ratio = max(loads) / min(loads)
    return assignments, ratio


def _chunk_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def plan_slices(shard: ShardAssignment, L: int, policy: str,
                per_class_indices: dict[int, np.ndarray]) -> SliceLayout:
    """Cut one shard into L slices under the given policy.

    balanced: every slice gets a near-equal cut of every class (per-class
    remainders rotate across slices so slice sizes stay within one sample).
    sequential_class: class blocks are concatenated in ascending class id
    and cut into L near-equal runs, so each class occupies a contiguous
    range of slices.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown slicing policy {policy!r}")
    if L < 1:
        raise ValueError("L must be >= 1")
    if L > shard.sample_count:
        raise ValueError(f"L={L} exceeds shard sample count {shard.sample_count}")

    if policy == SEQUENTIAL_CLASS:
        stream = np.concatenate(
            [np.asarray(per_class_indices[c], dtype=np.int64) for c in shard.class_ids]
        )
        sizes = _chunk_sizes(len(stream), L)
        bounds = np.cumsum([0] + sizes)
        slices = [stream[bounds[i]:bounds[i + 1]] for i in range(L)]
    else:
        slices = [[] for _ in range(L)]
        rotation = 0
        for c in shard.class_ids:
            idx = np.asarray(per_class_indices[c], dtype=np.int64)
            base, extra = divmod(len(idx), L)
            sizes = [base] * L
            for j in range(extra):
                sizes[(rotation + j) % L] += 1
            rotation = (rotation + extra) % L
            start = 0
            for i, size in enumerate(sizes):
                slices[i].append(idx[start:start + size])
                start += size
        slices = [np.concatenate(parts) if parts else np.empty(0, np.int64) for parts in slices]
    return SliceLayout(shard_id=shard.shard_id, slices=slices, policy=policy)


def build_metadata(assignments: list[ShardAssignment],
                   layouts: list[SliceLayout],
                   labels: np.ndarray) -> dict[int, ClassLocation]:
    """Map every class to its shard, first slice, and full occupied range."""
    table: dict[int, ClassLocation] = {}
    layout_by_shard = {l.shard_id: l for l in layouts}
    for a in assignments:
        layout = layout_by_shard[a.shard_id]
        for c in a.class_ids:
            occupied = tuple(
                i for i, s in enumerate(layout.slices)
                if len(s) and np.any(labels[s] == c)
            )
            if not occupied:
                raise MissingClassError(f"class {c} has no samples in shard {a.shard_id}")
            table[c] = ClassLocation(a.shard_id, occupied[0], occupied)
    return table


def make_plan(labels: np.ndarray, K: int, L: int, policy: str) -> PartitionPlan:
    """Full plan for a training label array: shards, slices, metadata."""
    labels = np.asarray(labels, dtype=np.int64)
    class_ids = np.unique(labels)
    class_sizes = {int(c): int((labels == c).sum()) for c in class_ids}
    assignments, ratio = plan_shards(class_sizes, K)
    per_class = {int(c): np.flatnonzero(labels == c) for c in class_ids}
    layouts = [plan_slices(a, L, policy, per_class) for a in assignments]
    metadata = build_metadata(assignments, layouts, labels)
    return PartitionPlan(K=K, L=L, policy=policy, assignments=assignments,
                         layouts=layouts, metadata=metadata, imbalance_ratio=ratio)


def resume_points(plan: PartitionPlan, shard_id: int) -> set[int]:
    """The slices of shard `shard_id` that a removal under `plan` resumes
    from: slice l for each of the shard's classes whose first slice is
    l + 1 >= 1. None under a balanced plan, as balanced removal restarts at
    slice 0, nor in a shard of one class, whose removal decommissions it.
    Removals never move a surviving class's first slice, so a resume point
    stays one until its class is removed or its shard is left with one
    class."""
    if plan.policy == BALANCED or len(plan.assignments[shard_id].class_ids) < 2:
        return set()
    return {loc.first_slice - 1 for loc in plan.metadata.values()
            if loc.shard_id == shard_id and loc.first_slice > 0}


def purge_class(plan: PartitionPlan, class_id: int, labels: np.ndarray) -> PartitionPlan:
    """Plan with every sample of `class_id` dropped from its shard's slices.

    Only the owning shard changes; other classes keep their slice positions,
    so their metadata entries survive untouched. The purged class loses its
    metadata entry entirely.
    """
    if class_id not in plan.metadata:
        raise MissingClassError(f"class {class_id} not present in plan metadata")
    k = plan.metadata[class_id].shard_id
    assignments = []
    for a in plan.assignments:
        if a.shard_id != k:
            assignments.append(a)
            continue
        kept = tuple(c for c in a.class_ids if c != class_id)
        removed = int((labels[np.concatenate(plan.layouts[k].slices)] == class_id).sum()) \
            if plan.layouts[k].slices else 0
        assignments.append(ShardAssignment(k, kept, a.sample_count - removed))
    layouts = []
    for l in plan.layouts:
        if l.shard_id != k:
            layouts.append(l)
            continue
        slices = [s[labels[s] != class_id] for s in l.slices]
        layouts.append(SliceLayout(l.shard_id, slices, l.policy))
    metadata = {c: m for c, m in plan.metadata.items() if c != class_id}
    loads = [a.sample_count for a in assignments if a.sample_count > 0]
    ratio = (max(loads) / min(loads)) if loads else 1.0
    return PartitionPlan(plan.K, plan.L, plan.policy, assignments, layouts,
                         metadata, ratio)
