"""Class removal strategies and exact-unlearning verification.

All four strategies end with a deployed model whose output heads no longer
contain the removed class, so zero predictions of it are structurally
guaranteed; verify_exact checks that empirically via the confusion matrix.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checkpoint import Checkpoint
from .data import LabeledDataset
from .ensemble import EnsembleModel, predict_labels
from .errors import IntegrityError, UnknownClassError
from .evaluation import EvaluationReport, confusion_matrix, evaluate
from .nn import drop_output_classes
from .partition import BALANCED, SEQUENTIAL_CLASS, purge_class
from .pipeline import BaselineModel, DataBundle, SisaSystem
from .training import ShardTrainResult, TrainConfig, train_model, train_shard

BASELINE_FULL = "baseline_full"
SISA_BALANCED = "sisa_balanced"
SISA_SCLS_REPLAY = "sisa_scls_replay"
SISA_GATED = "sisa_gated"


class StrategyRule(NamedTuple):
    policy: str | None      # plan policy the strategy requires; None: no plan
    replay: bool            # trains with the configured replay ratio


STRATEGY_RULES = {
    BASELINE_FULL: StrategyRule(None, False),
    SISA_BALANCED: StrategyRule(BALANCED, False),
    SISA_SCLS_REPLAY: StrategyRule(SEQUENTIAL_CLASS, True),
    SISA_GATED: StrategyRule(SEQUENTIAL_CLASS, True),
}
STRATEGIES = tuple(STRATEGY_RULES)


def strategy_rule(strategy: str) -> StrategyRule:
    if strategy not in STRATEGY_RULES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return STRATEGY_RULES[strategy]


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
    verdict, matrix = verify_exact(model, data.test, class_id)
    report = evaluate(model, data.test)
    return UnlearnOutcome(
        strategy=strategy, class_id=class_id,
        class_name=data.class_names[class_id],
        shard_id=shard_id, first_slice=first_slice,
        slices_retrained=slices_retrained, seconds=seconds,
        verdict=verdict, confusion=matrix, report=report,
    )


def unlearn_baseline(model: BaselineModel, data: DataBundle, class_id: int,
                     cfg: TrainConfig):
    """Full retraining from scratch on the dataset minus the class."""
    if class_id not in model.params.output_classes:
        raise UnknownClassError(
            f"class {class_id} not in model head {model.params.output_classes}")
    survivors = tuple(c for c in model.params.output_classes if c != class_id)
    if len(survivors) < 2:
        warnings.warn("unlearning leaves a degenerate single-class model",
                      stacklevel=2)
    params, opt, res = train_model(data.train, data.val, survivors, cfg)
    new_model = BaselineModel(params=params, train_seconds=res.seconds,
                              removed_classes=model.removed_classes + (class_id,),
                              opt_state=opt)
    outcome = _outcome(BASELINE_FULL, data, params, class_id,
                       shard_id=None, first_slice=None,
                       slices_retrained=0, seconds=res.seconds)
    return new_model, outcome


def _check_known(system: SisaSystem, class_id: int) -> None:
    if class_id not in system.plan.metadata:
        known = sorted(system.plan.metadata)
        raise UnknownClassError(
            f"class {class_id} not in the current metadata table "
            f"(known: {known}, removed: {sorted(system.removed_classes)})")


def _rebuild_system(system: SisaSystem, purged_plan, shard_id: int,
                    result: ShardTrainResult | None, class_id: int) -> SisaSystem:
    """New system with shard `shard_id` replaced (or dropped when empty)."""
    shard_results = dict(system.shard_results)
    new_constituents, new_shard_ids = [], []
    for sid, params in zip(system.ensemble.shard_ids, system.ensemble.constituents):
        if sid != shard_id:
            new_constituents.append(params)
            new_shard_ids.append(sid)
        elif result is not None:
            new_constituents.append(result.final.params)
            new_shard_ids.append(sid)
    if result is not None:
        shard_results[shard_id] = result
    else:
        shard_results.pop(shard_id, None)
    ensemble = EnsembleModel(
        constituents=new_constituents, shard_ids=new_shard_ids,
        num_classes=system.ensemble.num_classes, mode=system.ensemble.mode,
        gating=system.ensemble.gating,
    )
    return SisaSystem(
        plan=purged_plan, ensemble=ensemble, shard_results=shard_results,
        cfg=system.cfg, arch=system.arch, store=system.store,
        train_seconds=system.train_seconds,
        removed_classes=system.removed_classes + (class_id,),
    )


def unlearn_balanced(system: SisaSystem, data: DataBundle, class_id: int,
                     cfg: TrainConfig):
    """Purge the class from all L slices and retrain its shard from scratch.

    Restarting (rather than resuming a contaminated checkpoint) is what
    keeps the removal exact under balanced slicing, where every slice held
    samples of the class.
    """
    if system.plan.policy != BALANCED:
        raise ValueError(
            f"balanced unlearning requires a balanced plan, got {system.plan.policy!r}")
    _check_known(system, class_id)
    shard_id = system.plan.metadata[class_id].shard_id
    purged = purge_class(system.plan, class_id, data.train.labels)
    new_head = tuple(sorted(purged.assignments[shard_id].class_ids))

    if not new_head:
        new_system = _rebuild_system(system, purged, shard_id, None, class_id)
        outcome = _outcome(SISA_BALANCED, data, new_system.ensemble, class_id,
                           shard_id=shard_id, first_slice=None,
                           slices_retrained=0, seconds=0.0)
        return new_system, outcome

    result = train_shard(purged, shard_id, data.train, data.val, cfg,
                         arch=system.arch, store=system.store, head=new_head)
    new_system = _rebuild_system(system, purged, shard_id, result, class_id)
    outcome = _outcome(SISA_BALANCED, data, new_system.ensemble, class_id,
                       shard_id=shard_id, first_slice=1,
                       slices_retrained=result.slices_trained,
                       seconds=result.seconds)
    return new_system, outcome


def unlearn_scls(system: SisaSystem, data: DataBundle, class_id: int,
                 cfg: TrainConfig, *, strategy_name: str = SISA_SCLS_REPLAY):
    """Roll back to the checkpoint before the class's first slice and retrain.

    The restored head is rebuilt without the class (and without any class
    removed earlier), the class's samples are purged from the remaining
    slices and every replay buffer drawn for them, and slices l*..L are
    retrained -- L - l* + 1 of them.
    """
    if system.plan.policy != SEQUENTIAL_CLASS:
        raise ValueError(
            f"rollback unlearning requires sequential class slicing, "
            f"got {system.plan.policy!r}")
    _check_known(system, class_id)
    loc = system.plan.metadata[class_id]
    shard_id, first = loc.shard_id, loc.first_slice
    purged = purge_class(system.plan, class_id, data.train.labels)
    new_head = tuple(sorted(purged.assignments[shard_id].class_ids))

    if not new_head:
        new_system = _rebuild_system(system, purged, shard_id, None, class_id)
        outcome = _outcome(strategy_name, data, new_system.ensemble, class_id,
                           shard_id=shard_id, first_slice=None,
                           slices_retrained=0, seconds=0.0)
        return new_system, outcome

    old = system.shard_results[shard_id]
    initial = None
    if first > 0:
        if len(old.checkpoints) < first:
            raise IntegrityError(
                f"shard {shard_id} is missing the checkpoint after slice {first - 1}")
        base = old.checkpoints[first - 1]
        drop = set(base.params.output_classes) - set(new_head)
        params, opt = drop_output_classes(base.params, base.opt_state, drop)
        initial = Checkpoint(params=params, opt_state=opt,
                             shard_id=shard_id, slice_index=base.slice_index,
                             epoch=base.epoch, rng=base.rng)

    result = train_shard(purged, shard_id, data.train, data.val, cfg,
                         arch=system.arch, store=system.store,
                         start_slice=first, initial=initial, head=new_head)
    merged = ShardTrainResult(
        shard_id=shard_id, head=new_head,
        checkpoints=old.checkpoints[:first] + result.checkpoints,
        replays=result.replays,
        seconds_per_slice=result.seconds_per_slice,
        slices_trained=result.slices_trained,
    )
    new_system = _rebuild_system(system, purged, shard_id, merged, class_id)
    outcome = _outcome(strategy_name, data, new_system.ensemble, class_id,
                       shard_id=shard_id, first_slice=first + 1,
                       slices_retrained=result.slices_trained,
                       seconds=result.seconds)
    return new_system, outcome


def unlearn_gated(system: SisaSystem, data: DataBundle, class_id: int,
                  cfg: TrainConfig):
    """SCLS unlearning on the affected shard; the gating model is untouched."""
    if system.ensemble.gating is None:
        raise RuntimeError("system has no gating model")
    return unlearn_scls(system, data, class_id, cfg, strategy_name=SISA_GATED)


def run_unlearning(strategy: str, target, data: DataBundle, class_id: int,
                   cfg: TrainConfig):
    """Dispatch a request to its strategy implementation."""
    if strategy == BASELINE_FULL:
        return unlearn_baseline(target, data, class_id, cfg)
    if strategy == SISA_BALANCED:
        return unlearn_balanced(target, data, class_id, cfg)
    if strategy == SISA_SCLS_REPLAY:
        return unlearn_scls(target, data, class_id, cfg)
    if strategy == SISA_GATED:
        return unlearn_gated(target, data, class_id, cfg)
    raise ValueError(f"unknown strategy {strategy!r}")
