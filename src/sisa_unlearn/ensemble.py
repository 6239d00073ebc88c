"""Ensemble inference: max-confidence aggregation and gated routing.

Constituent heads cover disjoint global class sets, so each class gets its
score from the one constituent whose head holds it. Aggregation evaluates
every constituent and predicts the class with the highest score; gated
inference asks a lightweight router which single constituent to evaluate.
An InferenceStats counter tracks forward passes so the cost contract
(1 constituent per gated query vs K per aggregated query) is observable.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import InvalidLabelError
from .nn import Architecture, ModelParameters, forward_batched
from .partition import ClassLocation
from .rng import RngState
from .training import TrainConfig, default_architecture, fit, lookup
from . import nn


@dataclass
class InferenceStats:
    """Forward-pass counters, incremented per query (per sample)."""

    constituent_forwards: int = 0
    gating_forwards: int = 0
    queries: int = 0

    def reset(self) -> None:
        self.constituent_forwards = 0
        self.gating_forwards = 0
        self.queries = 0


@dataclass
class EnsembleModel:
    constituents: list[ModelParameters]
    shard_ids: list[int]                # shard owning each constituent
    num_classes: int                    # size of the global class inventory
    gating: ModelParameters | None = None
    stats: InferenceStats = field(default_factory=InferenceStats)

    def __post_init__(self):
        if len(self.constituents) != len(self.shard_ids):
            raise ValueError("one shard id per constituent required")

    def covered_classes(self) -> set[int]:
        out: set[int] = set()
        for c in self.constituents:
            out.update(c.output_classes)
        return out

    def by_shard(self, shard_id: int) -> ModelParameters:
        return self.constituents[self.shard_ids.index(shard_id)]


def combine_scores(prob_rows: list[np.ndarray], heads: list[tuple[int, ...]],
                   num_classes: int) -> np.ndarray:
    """Merge per-constituent probability rows into one (N, C) score grid.

    Each class keeps the highest probability any constituent assigns to it;
    constituents contribute 0 outside their own head. Argmax ties later
    resolve to the lowest class id.
    """
    n = prob_rows[0].shape[0]
    scores = np.zeros((n, num_classes), dtype=np.float64)
    for probs, head in zip(prob_rows, heads):
        cols = np.asarray(head, dtype=np.int64)
        scores[:, cols] = np.maximum(scores[:, cols], probs)
    return scores


def aggregate_predict_batch(ensemble: EnsembleModel, x: np.ndarray):
    """Predicted global class per input plus each constituent's probabilities."""
    if not ensemble.constituents:
        raise RuntimeError("ensemble has no constituent models")
    prob_rows = [forward_batched(c, x) for c in ensemble.constituents]
    heads = [c.output_classes for c in ensemble.constituents]
    scores = combine_scores(prob_rows, heads, ensemble.num_classes)
    ensemble.stats.queries += len(x)
    ensemble.stats.constituent_forwards += len(x) * len(ensemble.constituents)
    return scores.argmax(axis=1), prob_rows


def gated_predict_batch(ensemble: EnsembleModel, x: np.ndarray):
    """Route each input to one constituent; returns (class ids, shard ids).

    Exactly one constituent forward per query. Routing scores for shards
    without a live constituent (decommissioned after unlearning) are masked.
    The rows are grouped by routed shard with one stable sort, so each
    constituent predicts on one contiguous block holding its rows in input
    order.
    """
    if ensemble.gating is None:
        raise RuntimeError("ensemble has no gating model")
    if not ensemble.constituents:
        raise RuntimeError("ensemble has no constituent models")
    gate_probs = forward_batched(ensemble.gating, x)     # a fresh array
    ensemble.stats.gating_forwards += len(x)
    gate_shards = ensemble.gating.output_classes
    live = set(ensemble.shard_ids)
    gate_probs[:, [i for i, k in enumerate(gate_shards) if k not in live]] = -np.inf
    pick = gate_probs.argmax(axis=1)                     # position in the router head
    choice = np.asarray(gate_shards, dtype=np.int64)[pick]

    # a stable sort on a narrow key is a radix sort; take() gathers rows
    # faster than fancy indexing
    order = np.argsort(pick.astype(np.min_scalar_type(len(gate_shards))), kind="stable")
    grouped = np.take(x, order, axis=0)
    routed = np.empty(len(x), dtype=np.int64)
    start = 0
    for k, n in zip(gate_shards, np.bincount(pick, minlength=len(gate_shards)).tolist()):
        if not n:
            continue
        routed[start:start + n] = nn.predict_global(ensemble.by_shard(k),
                                                    grouped[start:start + n])
        ensemble.stats.constituent_forwards += n
        start += n
    ensemble.stats.queries += len(x)
    labels = np.empty_like(routed)
    labels[order] = routed
    return labels, choice


def predict_labels(model, x: np.ndarray) -> np.ndarray:
    """Global class predictions for a model or an ensemble."""
    if isinstance(model, EnsembleModel):
        if model.gating is not None:
            return gated_predict_batch(model, x)[0]
        return aggregate_predict_batch(model, x)[0]
    return nn.predict_global(model, x)


# --- gating -----------------------------------------------------------------

def gating_architecture(base: Architecture, constituent_params: int,
                        num_shards: int) -> Architecture:
    """Pick a hidden width landing the router in 10-15% of ensemble size.

    Walks final-dense widths upward and keeps the count closest to 12.5%
    of the summed constituent parameters, preferring in-band widths.
    """
    def count(width: int) -> int:
        arch = _resize(base, width)
        return sum(int(np.prod(s)) for s in arch.tensor_shapes(num_shards).values())

    lo, hi = 0.10 * constituent_params, 0.15 * constituent_params
    target = 0.125 * constituent_params
    best = None
    for width in range(1, 4097):
        c = count(width)
        key = (not lo <= c <= hi, abs(c - target))
        if best is None or key < best[0]:
            best = (key, width)
        if c > hi:
            break
    return _resize(base, best[1])


def _resize(base: Architecture, width: int) -> Architecture:
    hidden = tuple(base.hidden[:-1]) + (width,) if base.hidden else (width,)
    return Architecture(kind=base.kind, input_shape=base.input_shape,
                        conv_channels=base.conv_channels, hidden=hidden)


def shard_targets(labels: np.ndarray,
                  metadata: dict[int, ClassLocation]) -> np.ndarray:
    """Shard id for each sample, via the class -> location table."""
    out = lookup({c: loc.shard_id for c, loc in metadata.items()}, labels)
    if np.any(out < 0):
        bad = int(np.asarray(labels)[np.argmax(out < 0)])
        raise InvalidLabelError(f"class {bad} missing from partition metadata")
    return out


def train_gating(train_ds: LabeledDataset, val_ds: LabeledDataset,
                 metadata: dict[int, ClassLocation],
                 cfg: TrainConfig) -> ModelParameters:
    """Train the router on shard ids only; class labels never reach it.

    Everything it reads follows from the plan's class -> shard table: the
    shards it routes to, and the ensemble size its width is scaled to (each
    shard's default-architecture model over that shard's classes). It needs
    no trained constituent, so it can train while the shards do.
    """
    heads = Counter(loc.shard_id for loc in metadata.values())
    base = default_architecture(train_ds.input_shape)
    total = sum(math.prod(shape) for n in heads.values()
                for shape in base.tensor_shapes(n).values())
    shard_ids = tuple(sorted(heads))
    arch = gating_architecture(base, total, len(shard_ids))
    root = RngState(cfg.seed).child("gating")
    params = nn.init_params(arch, shard_ids, root.child("init"))
    opt = nn.adam_init(params, cfg.adam())
    position = {k: i for i, k in enumerate(shard_ids)}
    y = lookup(position, shard_targets(train_ds.labels, metadata))
    y_val = lookup(position, shard_targets(val_ds.labels, metadata)) if len(val_ds) else None
    x_val = val_ds.inputs if len(val_ds) else None
    fit(params, opt, train_ds.inputs, y, x_val, y_val, cfg, root.child("fit"))
    return params
