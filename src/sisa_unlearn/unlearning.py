"""Class removal strategies and exact-unlearning verification.

All four strategies end with a deployed model whose output heads no longer
contain the removed class, so zero predictions of it are structurally
guaranteed; verify_exact checks that empirically via the confusion matrix.
The three SISA strategies share one removal path, _unlearn_shard; their
differences are the columns of STRATEGY_RULES.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset
from .ensemble import predict_labels
from .errors import IntegrityError, UnknownClassError
from .evaluation import EvaluationReport, confusion_matrix, report_from_confusion
from .partition import BALANCED, SEQUENTIAL_CLASS, purge_class
from .pipeline import BaselineModel, DataBundle, SisaSystem
from .training import TrainConfig, train_model, train_shard

BASELINE_FULL = "baseline_full"
SISA_BALANCED = "sisa_balanced"
SISA_SCLS_REPLAY = "sisa_scls_replay"
SISA_GATED = "sisa_gated"


class StrategyRule(NamedTuple):
    policy: str | None      # plan policy the strategy requires; None: no plan
    replay: bool            # trains with the configured replay ratio
    # removal resumes from the checkpoint before the class's first slice;
    # False restarts the shard at slice 0, which balanced slicing needs
    # because every slice held samples of the class
    rollback: bool
    gated: bool             # deploys, and requires, a gating router


STRATEGY_RULES = {
    BASELINE_FULL: StrategyRule(None, False, False, False),
    SISA_BALANCED: StrategyRule(BALANCED, False, False, False),
    SISA_SCLS_REPLAY: StrategyRule(SEQUENTIAL_CLASS, True, True, False),
    SISA_GATED: StrategyRule(SEQUENTIAL_CLASS, True, True, True),
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


def train_config_for(strategy: str, cfg: TrainConfig) -> TrainConfig:
    """`cfg` as `strategy` trains with it: its replay ratio is kept only if
    the strategy's rule trains with replay."""
    return cfg if strategy_rule(strategy).replay else replace(cfg, replay_ratio=0.0)


@dataclass
class UnlearnOutcome:
    strategy: str
    class_id: int
    class_name: str
    shard_id: int | None
    first_slice: int | None            # 1-based slice where retraining began
    slices_retrained: int
    seconds: float
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


def _last_class_message(data: DataBundle, class_id: int) -> str:
    return (f"class {class_id} ({data.class_names[class_id]!r}) is the last "
            "class left; removing it would leave no model")


def unlearn_baseline(model: BaselineModel, data: DataBundle, class_id: int,
                     cfg: TrainConfig):
    """Full retraining from scratch on the dataset minus the class."""
    if class_id not in model.params.output_classes:
        raise UnknownClassError(
            f"class {class_id} not in model head {model.params.output_classes}")
    survivors = tuple(c for c in model.params.output_classes if c != class_id)
    if not survivors:
        raise ValueError(_last_class_message(data, class_id))
    if len(survivors) < 2:
        warnings.warn("unlearning leaves a degenerate single-class model",
                      stacklevel=2)
    params, _opt, res = train_model(data.train, data.val, survivors, cfg)
    new_model = BaselineModel(params=params, train_seconds=res.seconds,
                              removed_classes=model.removed_classes + (class_id,))
    outcome = _outcome(BASELINE_FULL, data, params, class_id,
                       shard_id=None, first_slice=None,
                       slices_retrained=0, seconds=res.seconds)
    return new_model, outcome


def _unlearn_shard(strategy: str, system: SisaSystem, data: DataBundle,
                   class_id: int, cfg: TrainConfig):
    """Purge the class from its shard, restore a checkpoint that never saw
    it, and retrain the slices after that checkpoint.

    The restored head is rebuilt without the class (and without any class
    removed earlier), and the class's samples leave every remaining slice
    and every replay buffer drawn for them. A shard left without classes is
    dropped from the ensemble. A gating router is left untouched.
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
        raise ValueError(_last_class_message(data, class_id))
    shard_id = metadata[class_id].shard_id
    # refuse a bad surviving final before anything is retrained into the store
    for k in sorted(system.shard_results):
        if k != shard_id:
            system.deployed_final(k)
    first = metadata[class_id].first_slice if rule.rollback else 0
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
        result = train_shard(purged, shard_id, data.train, data.val, cfg,
                             store=system.store,
                             start_slice=first, initial=initial)
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
    return new_system, outcome


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


def run_unlearning(strategy: str, target, data: DataBundle, class_id: int,
                   cfg: TrainConfig):
    """Dispatch a request to its strategy implementation."""
    if strategy == BASELINE_FULL:
        return unlearn_baseline(target, data, class_id, cfg)
    return _unlearn_shard(strategy, target, data, class_id, cfg)
