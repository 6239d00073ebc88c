"""Class removal strategies and exact-unlearning verification.

All four strategies end with a deployed model whose output heads no longer
contain the removed class, so zero predictions of it are structurally
guaranteed; verify_exact checks that empirically via the confusion matrix.
The full-retraining baseline is SISA with one shard of one slice, so all
four share one training dispatcher, run_training, and one removal path,
_unlearn_shard; their differences are the columns of STRATEGY_RULES, the
plan each trains on (strategy_plan) and the fit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .checkpoint import CheckpointStore
from .data import LabeledDataset
from .ensemble import predict_labels
from .errors import IntegrityError, UnknownClassError
from .evaluation import EvaluationReport, confusion_matrix, report_from_confusion
from .partition import (BALANCED, SEQUENTIAL_CLASS, PartitionPlan, make_plan,
                        purge_class, resume_points)
from .pipeline import DataBundle, SisaSystem, train_baseline, train_sisa
from .training import TrainConfig, train_full, train_shard

BASELINE_FULL = "baseline_full"
SISA_BALANCED = "sisa_balanced"
SISA_SCLS_REPLAY = "sisa_scls_replay"
SISA_GATED = "sisa_gated"


class StrategyRule(NamedTuple):
    policy: str             # plan policy the strategy requires
    replay: bool            # trains with the configured replay ratio
    gated: bool             # deploys, and requires, a gating router


STRATEGY_RULES = {
    BASELINE_FULL: StrategyRule(BALANCED, False, False),
    SISA_BALANCED: StrategyRule(BALANCED, False, False),
    SISA_SCLS_REPLAY: StrategyRule(SEQUENTIAL_CLASS, True, False),
    SISA_GATED: StrategyRule(SEQUENTIAL_CLASS, True, True),
}
STRATEGIES = tuple(STRATEGY_RULES)

# why a plan of the wrong policy is refused, by the policy required
_POLICY_PHRASES = {
    BALANCED: "balanced unlearning requires a balanced plan",
    SEQUENTIAL_CLASS: "rollback unlearning requires sequential class slicing",
}


def strategy_rule(strategy: str) -> StrategyRule:
    if strategy not in STRATEGY_RULES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return STRATEGY_RULES[strategy]


def strategy_plan(strategy: str, labels, K: int, L: int) -> PartitionPlan:
    """The plan `strategy` trains on: K shards of L slices under its rule's
    policy. The baseline's has one shard of one slice, whatever K and L, as
    `pipeline.train_baseline` trains it: SISA's full retraining."""
    if strategy == BASELINE_FULL:
        K = L = 1
    return make_plan(labels, K, L, strategy_rule(strategy).policy)


def train_config_for(strategy: str, cfg: TrainConfig) -> TrainConfig:
    """`cfg` as `strategy` trains with it: its replay ratio is kept only if
    the strategy's rule trains with replay."""
    return cfg if strategy_rule(strategy).replay else replace(cfg, replay_ratio=0.0)


def run_training(strategy: str, data: DataBundle, K: int, L: int, cfg: TrainConfig,
                 *, store: CheckpointStore | None = None) -> SisaSystem:
    """Train `strategy` on its plan (`strategy_plan`), saving to `store` as
    `pipeline.train_sisa` does."""
    if strategy == BASELINE_FULL:
        return train_baseline(data, cfg, store=store)
    return train_sisa(data, strategy_plan(strategy, data.train.labels, K, L), cfg,
                      gated=strategy_rule(strategy).gated, store=store)


@dataclass
class UnlearnOutcome:
    strategy: str
    class_id: int
    class_name: str
    shard_id: int
    first_slice: int | None            # 1-based slice where retraining began
    slices_retrained: int
    seconds: float                     # CPU seconds of the retraining fits
    verdict: bool
    confusion: np.ndarray
    report: EvaluationReport

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "class": self.class_name,
            "class_id": self.class_id,
            "shard": self.shard_id,
            "slice_range_retrained": (
                None if self.first_slice is None
                else [self.first_slice, self.first_slice + self.slices_retrained - 1]
            ),
            "slices_retrained": self.slices_retrained,
            "seconds": self.seconds,
            "verdict": "pass" if self.verdict else "fail",
            "confusion_matrix": self.confusion.tolist(),
            "accuracy_after": self.report.accuracy,
        }


def verify_exact(model, test_ds: LabeledDataset, class_id: int):
    """Confusion matrix over original class ids plus the unlearning verdict.

    Verdict passes iff the predicted-class column for `class_id` is all
    zero; its true-class row lands on surviving classes instead.
    """
    if len(test_ds) == 0:
        raise ValueError("test set must be nonempty")
    pred = predict_labels(model, test_ds.inputs)
    matrix = confusion_matrix(test_ds.labels, pred, test_ds.num_classes)
    verdict = int(matrix[:, class_id].sum()) == 0
    return verdict, matrix


def _outcome(strategy: str, data: DataBundle, model, class_id: int,
             shard_id, first_slice, slices_retrained, seconds) -> UnlearnOutcome:
    # one inference pass: the report is read off the verification matrix
    verdict, matrix = verify_exact(model, data.test, class_id)
    return UnlearnOutcome(
        strategy=strategy, class_id=class_id,
        class_name=data.class_names[class_id],
        shard_id=shard_id, first_slice=first_slice,
        slices_retrained=slices_retrained, seconds=seconds,
        verdict=verdict, confusion=matrix, report=report_from_confusion(matrix),
    )


def _unlearn_shard(strategy: str, system: SisaSystem, data: DataBundle,
                   class_id: int, cfg: TrainConfig):
    """Purge the class from its shard, restore a checkpoint that never saw
    it, and retrain the slices after that checkpoint.

    It resumes from the slice before the class's first when that slice is
    a resume point (`partition.resume_points`, the store's rule too), and
    restarts the shard at slice 0 otherwise. The fit is the one step that
    differs by strategy: the baseline's one shard of one slice retrains as
    one model (`training.train_full`), and warns when one class is left;
    every other shard retrains by `train_shard`.

    The restored head is rebuilt without the class (and without any class
    removed earlier), and the class's samples leave every remaining slice
    and every replay buffer drawn for them. A gating router is left untouched.

    A shard left without classes is dropped from the ensemble. With a
    `system.store`, the retrained chain is saved to it
    (`CheckpointStore.save_chain`) and, once the outcome is verified, the
    store is cut to what the new system reads (`CheckpointStore.retain`):
    a decommissioned shard's directory goes, as its checkpoints were trained
    on the classes removed from it, and so does every slice no removal of
    the purged plan resumes from, the one this removal resumed from among
    them. A caller repeats a removal from the `system` it still holds,
    which serves from its in-memory checkpoints. The CLI reads its systems
    with no store and writes the run directory itself (`cli._write_run`).
    """
    rule = strategy_rule(strategy)
    if rule.gated and system.gating is None:
        raise RuntimeError("system has no gating model")
    if system.plan.policy != rule.policy:
        raise ValueError(f"{_POLICY_PHRASES[rule.policy]}, got {system.plan.policy!r}")
    metadata = system.plan.metadata
    if class_id not in metadata:
        raise UnknownClassError(
            f"class {class_id} not in the current metadata table "
            f"(known: {sorted(metadata)}, removed: {sorted(system.removed_classes)})")
    if len(metadata) == 1:
        raise ValueError(f"class {class_id} ({data.class_names[class_id]!r}) is the "
                         "last class left; removing it would leave no model")
    loc = metadata[class_id]
    shard_id = loc.shard_id
    # refuse a bad surviving final before anything is retrained into the store
    for k in sorted(system.shard_results):
        if k != shard_id:
            system.deployed_final(k)
    first = (loc.first_slice
             if loc.first_slice - 1 in resume_points(system.plan, shard_id) else 0)
    purged = purge_class(system.plan, class_id, data.train.labels)
    new_head = tuple(sorted(purged.assignments[shard_id].class_ids))

    shard_results = dict(system.shard_results)
    if new_head:
        old = shard_results[shard_id]
        initial = None
        if first > 0:
            if len(old.checkpoints) < first:
                raise IntegrityError(
                    f"shard {shard_id} is missing the checkpoint after slice {first - 1}")
            initial = old.checkpoints[first - 1]
        if strategy == BASELINE_FULL:
            if len(new_head) < 2:
                warnings.warn("unlearning leaves a degenerate single-class model",
                              stacklevel=3)
            result = train_full(purged, data.train, data.val, cfg)
        else:
            result = train_shard(purged, shard_id, data.train, data.val, cfg,
                                 start_slice=first, initial=initial)
        if system.store is not None:
            system.store.save_chain(result.checkpoints, purged)
        # for a run read from disk, the kept prefix stays unread (LazyChain)
        shard_results[shard_id] = replace(
            result, checkpoints=old.checkpoints[:first] + result.checkpoints)
        first_slice, retrained, seconds = first + 1, result.slices_trained, result.seconds
    else:
        shard_results.pop(shard_id, None)
        first_slice, retrained, seconds = None, 0, 0.0

    new_system = replace(system, plan=purged, shard_results=shard_results,
                         removed_classes=system.removed_classes + (class_id,))
    outcome = _outcome(strategy, data, new_system.ensemble, class_id,
                       shard_id=shard_id, first_slice=first_slice,
                       slices_retrained=retrained, seconds=seconds)
    if system.store is not None:
        system.store.retain(purged, system.gating is not None)
    return new_system, outcome


def unlearn_baseline(system: SisaSystem, data: DataBundle, class_id: int,
                     cfg: TrainConfig):
    """Retrain the baseline's one model from scratch on the classes left.
    A plan of other than one shard and one slice is a ValueError."""
    return _unlearn_shard(BASELINE_FULL, system, data, class_id, cfg)


def unlearn_balanced(system: SisaSystem, data: DataBundle, class_id: int,
                     cfg: TrainConfig):
    """Purge the class from all L slices and retrain its shard from scratch."""
    return _unlearn_shard(SISA_BALANCED, system, data, class_id, cfg)


def unlearn_scls(system: SisaSystem, data: DataBundle, class_id: int,
                 cfg: TrainConfig):
    """Roll back to the checkpoint before the class's first slice l* and
    retrain slices l*..L -- L - l* + 1 of them."""
    return _unlearn_shard(SISA_SCLS_REPLAY, system, data, class_id, cfg)


def unlearn_gated(system: SisaSystem, data: DataBundle, class_id: int,
                  cfg: TrainConfig):
    """SCLS unlearning on the affected shard; the gating model is untouched."""
    return _unlearn_shard(SISA_GATED, system, data, class_id, cfg)


def run_unlearning(strategy: str, system: SisaSystem, data: DataBundle, class_id: int,
                   cfg: TrainConfig):
    """Remove `class_id` from `system` as `strategy` does."""
    return _unlearn_shard(strategy, system, data, class_id, cfg)
