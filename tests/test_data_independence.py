"""Ginart et al.'s data-independence oracle for class removal.

A removal is exact when what it deploys depends on the retained data only.
So a system trained on the data and one trained with the removed class's
train and validation rows replaced by noise must deploy bitwise-identical
constituents once the class is removed from both. The gating router is
the one stated exception: it validates on every class, and a removal
leaves it untouched, so only the constituents are compared.

Early stopping is on (patience 2), so a validation loss that read the
class's rows would move a kept checkpoint's stop epoch.
"""
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

import sisa_unlearn as su
from sisa_unlearn.rng import RngState
from sisa_unlearn.unlearning import (SISA_BALANCED, SISA_GATED, SISA_SCLS_REPLAY,
                                     strategy_rule, train_config_for)

NUM_CLASSES = 6
CFG = su.TrainConfig(max_epochs_per_slice=10, patience=2, replay_ratio=0.3,
                     batch_size=16, seed=3, learning_rate=1e-2)
SHAPES = {"mlp": (8,), "cnn": (1, 8, 8)}
STRATEGIES = (SISA_SCLS_REPLAY, SISA_GATED, SISA_BALANCED)


@cache
def bundle(model: str, noise_class: int | None = None) -> su.DataBundle:
    """K=2, L=3 over 6 classes: under sequential slicing each class fills
    one slice. With `noise_class`, that class's train and validation inputs
    are replaced by noise; labels, test split and plan stay the same."""
    data = su.synthetic_bundle(n_per_class=30, num_classes=NUM_CLASSES,
                               shape=SHAPES[model], separation=2.0, seed=4)
    if noise_class is None:
        return data
    g = RngState(99).child("noise", noise_class).generator()

    def noised(ds: su.LabeledDataset) -> su.LabeledDataset:
        inputs = ds.inputs.copy()
        rows = ds.labels == noise_class
        inputs[rows] = g.standard_normal(inputs[rows].shape, dtype=np.float32)
        return replace(ds, inputs=inputs)
    return replace(data, train=noised(data.train), val=noised(data.val))


@cache
def trained(model: str, strategy: str, noise_class: int | None = None) -> su.SisaSystem:
    data = bundle(model, noise_class)
    rule = strategy_rule(strategy)
    plan = su.make_plan(data.train.labels, K=2, L=3, policy=rule.policy)
    return su.train_sisa(data, plan, train_config_for(strategy, CFG), gated=rule.gated)


def removed(model: str, strategy: str, class_id: int, noise_class: int | None):
    system = trained(model, strategy, noise_class)
    cfg = train_config_for(strategy, CFG)
    new_system, _ = su.run_unlearning(strategy, system, bundle(model, noise_class),
                                      class_id, cfg)
    return new_system.ensemble


@pytest.mark.parametrize("class_id", range(NUM_CLASSES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", list(SHAPES))
def test_removal_does_not_depend_on_the_removed_rows(model, strategy, class_id):
    real = removed(model, strategy, class_id, None)
    blind = removed(model, strategy, class_id, class_id)
    assert real.shard_ids == blind.shard_ids
    for shard_id, a, b in zip(real.shard_ids, real.constituents, blind.constituents):
        assert a.output_classes == b.output_classes
        assert class_id not in a.output_classes
        assert a.tensors.flat.tobytes() == b.tensors.flat.tobytes(), \
            f"shard {shard_id} depends on the rows of removed class {class_id}"
