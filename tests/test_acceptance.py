"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic benchmark is 10 classes x 1,000 samples per class;
every training budget is fixed (no early stopping) so timings and
orderings are reproducible at the given seeds.
"""
import time

import numpy as np
import pytest

import sisa_unlearn as su
import sisa_unlearn.nn as nn
from sisa_unlearn.checkpoint import CheckpointStore, load_checkpoint, stored_digest
from sisa_unlearn.ensemble import aggregate_predict_batch, gated_predict_batch
from sisa_unlearn.errors import IntegrityError
from sisa_unlearn.rng import RngState
from sisa_unlearn.training import early_stop_monitor

from test_nn import finite_diff_grads, rel_error, tiny_cnn, tiny_mlp

K, L = 2, 5
CLASSES = list(range(10))


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bundle():
    return su.synthetic_bundle(n_per_class=1000, num_classes=10, shape=(16,),
                               separation=3.0, seed=11)


@pytest.fixture(scope="module")
def shared_cfg():
    """One budget shared by baseline/balanced/SCLS so the retraining-time
    comparison isolates the strategy, not the hyperparameters."""
    return su.TrainConfig(max_epochs_per_slice=6, patience=None,
                          replay_ratio=0.3, batch_size=32, seed=7)


@pytest.fixture(scope="module")
def gated_cfg():
    return su.TrainConfig(max_epochs_per_slice=10, patience=None,
                          replay_ratio=0.3, batch_size=64, seed=7)


@pytest.fixture(scope="module")
def systems(bundle, shared_cfg, gated_cfg, tmp_path_factory):
    t0 = time.perf_counter()
    baseline = su.train_baseline(bundle, shared_cfg)
    balanced_plan = su.make_plan(bundle.train.labels, K, L, su.BALANCED)
    balanced = su.train_sisa(bundle, balanced_plan, shared_cfg)
    scls_plan = su.make_plan(bundle.train.labels, K, L, su.SEQUENTIAL_CLASS)
    scls_store = CheckpointStore(tmp_path_factory.mktemp("scls"))
    scls = su.train_sisa(bundle, scls_plan, shared_cfg, store=scls_store)
    gated_store = CheckpointStore(tmp_path_factory.mktemp("gated"))
    gated = su.train_sisa(bundle, scls_plan, gated_cfg, gated=True,
                          store=gated_store)
    return {
        "baseline": baseline, "balanced": balanced, "scls": scls,
        "gated": gated, "scls_store": scls_store, "gated_store": gated_store,
        "train_elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def all_outcomes(bundle, shared_cfg, gated_cfg, systems):
    """The 40 unlearning runs: 10 classes x 4 strategies, fresh state each."""
    t0 = time.perf_counter()
    outcomes = {name: [] for name in ("baseline", "balanced", "scls", "gated")}
    for c in CLASSES:
        _, out = su.unlearn_baseline(systems["baseline"], bundle, c, shared_cfg)
        outcomes["baseline"].append(out)
        _, out = su.unlearn_balanced(systems["balanced"], bundle, c, shared_cfg)
        outcomes["balanced"].append(out)
        _, out = su.unlearn_scls(systems["scls"], bundle, c, shared_cfg)
        outcomes["scls"].append(out)
        _, out = su.unlearn_gated(systems["gated"], bundle, c, gated_cfg)
        outcomes["gated"].append(out)
    outcomes["elapsed"] = time.perf_counter() - t0
    return outcomes


def test_criterion_1_exact_unlearning(bundle, systems, all_outcomes):
    runs = 0
    for name in ("baseline", "balanced", "scls", "gated"):
        for out in all_outcomes[name]:
            assert out.verdict, f"{name} failed to unlearn class {out.class_id}"
            assert out.confusion[:, out.class_id].sum() == 0
            runs += 1
    elapsed = all_outcomes["elapsed"] + systems["train_elapsed"]
    announce(1, runs == 40 and elapsed < 600,
             f"40/40 unlearning runs predicted the removed class 0 times "
             f"({elapsed:.1f}s < 600s)")


def test_criterion_2_shard_balance():
    class_sizes = {c: 4200 for c in range(10)}   # CIFAR-10 train split sizes
    assignments, ratio = su.plan_shards(class_sizes, K=2)
    ok = (ratio == 1.0
          and all(len(a.class_ids) == 5 for a in assignments)
          and all(a.sample_count == 21000 for a in assignments))
    announce(2, ok, f"K=2 plan: 5 classes / 21,000 samples per shard, "
                    f"imbalance ratio {ratio}")


def test_criterion_3_slice_count_law(systems, all_outcomes):
    scls_plan = systems["scls"].plan
    checked = []
    for out in all_outcomes["scls"]:
        first_1based = scls_plan.metadata[out.class_id].first_slice + 1
        want = L - first_1based + 1
        assert out.slices_retrained == want, (
            f"class {out.class_id}: retrained {out.slices_retrained}, "
            f"want {want}")
        checked.append((out.class_id, first_1based, out.slices_retrained))
    for out in all_outcomes["balanced"]:
        assert out.slices_retrained == L
    announce(3, True,
             f"SCLS retrains L - l* + 1 slices for all 10 classes "
             f"{[c[2] for c in sorted(checked)]}; balanced retrains L={L}")


def test_criterion_4_retraining_time_ordering(all_outcomes):
    mean = lambda name: float(np.mean([o.seconds for o in all_outcomes[name]]))
    t_base, t_bal, t_scls = mean("baseline"), mean("balanced"), mean("scls")
    ok = t_base >= 1.2 * t_bal and t_bal >= 1.2 * t_scls
    announce(4, ok,
             f"mean retraining seconds {t_base:.3f} > {t_bal:.3f} > "
             f"{t_scls:.3f} (gaps x{t_base / t_bal:.2f}, x{t_bal / t_scls:.2f},"
             f" both >= 1.2)")


def test_criterion_5_replay_efficacy(bundle):
    plan = su.make_plan(bundle.train.labels, K, L, su.SEQUENTIAL_CLASS)
    accs = {}
    checkpoints = {}
    for rho in (0.0, 0.2, 0.3):
        cfg = su.TrainConfig(max_epochs_per_slice=10, patience=None,
                             replay_ratio=rho, batch_size=64, seed=7)
        res = su.train_shard(plan, 0, bundle.train, bundle.val, cfg)
        part = bundle.test.restricted_to(res.head)
        pred = nn.predict_global(res.final.params, part.inputs)
        accs[rho] = float((pred == part.labels).mean())
        checkpoints[rho] = res.checkpoints

    first_class = int(bundle.train.labels[plan.layouts[0].slices[0][0]])
    part = bundle.test.restricted_to([first_class])
    drop_accs = []
    for ckpt in checkpoints[0.0][:2]:
        pred = nn.predict_global(ckpt.params, part.inputs)
        drop_accs.append(float((pred == part.labels).mean()))
    drop = drop_accs[0] - drop_accs[1]

    ok = (accs[0.3] - accs[0.0] >= 0.10
          and accs[0.0] <= accs[0.2] <= accs[0.3]
          and drop >= 0.20)
    announce(5, ok,
             f"shard accuracy by replay ratio {accs[0.0]:.3f} <= "
             f"{accs[0.2]:.3f} <= {accs[0.3]:.3f} "
             f"(+{(accs[0.3] - accs[0.0]) * 100:.1f} pts); slice-1 classes "
             f"dropped {drop * 100:.1f} pts after slice 2 without replay")


def test_criterion_6_gating_ordering_and_cost(bundle, systems):
    system = systems["gated"]
    ens = system.ensemble
    ens.stats.reset()
    gated_labels, _ = gated_predict_batch(ens, bundle.test.inputs)
    gated_forwards = ens.stats.constituent_forwards
    gated_acc = float((gated_labels == bundle.test.labels).mean())
    ens.stats.reset()
    agg_labels, _ = aggregate_predict_batch(ens, bundle.test.inputs)
    agg_forwards = ens.stats.constituent_forwards
    agg_acc = float((agg_labels == bundle.test.labels).mean())

    n = len(bundle.test)
    total = sum(c.param_count() for c in ens.constituents)
    frac = ens.gating.param_count() / total
    ok = (gated_acc >= agg_acc
          and gated_forwards == n and agg_forwards == K * n
          and 0.10 <= frac <= 0.15)
    announce(6, ok,
             f"gated accuracy {gated_acc:.4f} >= max-confidence {agg_acc:.4f} "
             f"(+{(gated_acc - agg_acc) * 100:.2f} pts, reported not asserted "
             f"beyond >= 0); forwards/query gated=1 vs aggregated={K}; "
             f"gating holds {frac * 100:.1f}% of constituent parameters")


def test_criterion_7_gating_isolation(bundle, gated_cfg, systems, all_outcomes):
    store = systems["gated_store"]
    before = stored_digest(store.gating_path())
    _new, out = su.unlearn_gated(systems["gated"], bundle, 5, gated_cfg)
    after = stored_digest(store.gating_path())
    ok = before == after and out.verdict
    announce(7, ok, f"gating checkpoint digest {before:016x} unchanged by "
                    f"unlearning (this run and all 10 in criterion 1)")


def test_criterion_8_numeric_core():
    worst = {}
    for name, factory in (("mlp", tiny_mlp), ("cnn", tiny_cnn)):
        params = factory(dtype=np.float64, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4,) + params.arch.input_shape)
        y = rng.integers(0, params.n_out, size=4)
        _, analytic = nn.loss_and_grad(params, x, y)
        numeric = finite_diff_grads(params, x, y)
        worst[name] = max(rel_error(analytic[k], numeric[k]) for k in analytic)

    params = nn.init_params(nn.mlp_architecture(16), tuple(range(10)),
                            RngState(3))
    x = np.random.default_rng(6).standard_normal((10000, 16),
                                                 dtype=np.float32)
    sums = nn.forward(params, x).sum(axis=1)
    simplex_err = float(np.max(np.abs(sums - 1.0)))

    ok = worst["mlp"] < 1e-4 and worst["cnn"] < 1e-4 and simplex_err <= 1e-6
    announce(8, ok,
             f"finite-difference rel. error mlp={worst['mlp']:.2e}, "
             f"cnn={worst['cnn']:.2e} (< 1e-4); softmax row sums within "
             f"{simplex_err:.2e} of 1 over 10,000 inputs")


def test_criterion_9_rollback_equivalence(bundle, shared_cfg, systems,
                                          tmp_path):
    from sisa_unlearn.checkpoint import save_checkpoint

    plan = systems["scls"].plan
    full = systems["scls"].shard_results[0]
    src = tmp_path / "slice_1.ckpt"
    save_checkpoint(full.checkpoints[1], src)    # checkpoint after slice 2
    loaded = load_checkpoint(src)
    roundtrip = all(loaded.params.tensors[k].tobytes() == t.tobytes()
                    for k, t in full.checkpoints[1].params.tensors.items())

    resumed = su.train_shard(plan, 0, bundle.train, bundle.val, shared_cfg,
                             start_slice=2, initial=loaded)
    bitwise = all(
        resumed.final.params.tensors[k].tobytes() == t.tobytes()
        for k, t in full.final.params.tensors.items())

    corrupted = tmp_path / "corrupt.ckpt"
    raw = bytearray(src.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    corrupted.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        load_checkpoint(corrupted)

    ok = bitwise and roundtrip
    announce(9, ok, "resume-from-slice-2 parameters bitwise identical to the "
                    "uninterrupted run; save/load roundtrip bitwise; "
                    "corrupted byte raises an integrity error")


def test_criterion_10_early_stopping():
    improving = [1.0 - 0.01 * i for i in range(30)]
    never = not any(early_stop_monitor(improving[:i], 7)
                    for i in range(1, 31))

    flat = [1.0] + [1.0 + 0.001 * i for i in range(1, 8)]
    stops_at = [early_stop_monitor(flat[:i], 7) for i in range(1, 9)]
    exact = stops_at == [False] * 7 + [True]

    reset = [1.0, 1.1, 1.2, 0.5]
    resets = not early_stop_monitor(reset, 3) and \
        early_stop_monitor(reset + [0.6, 0.7, 0.8], 3)

    ok = never and exact and resets
    announce(10, ok, "patience-7 contract exact: never stops while improving, "
                     "stops on the 7th consecutive stall, counter resets on "
                     "strict improvement")


def test_criterion_11_accuracy_bound(bundle, all_outcomes):
    n = len(bundle.test)
    worst_line = ""
    for name in ("baseline", "balanced", "scls", "gated"):
        for out in all_outcomes[name]:
            c = out.class_id
            n_c = int(out.confusion[c, :].sum())
            bound = 1.0 - n_c / n
            acc = out.report.accuracy
            assert acc <= bound + 1e-12
            err_surv = int(out.confusion.sum() - out.confusion[c, :].sum()
                           - np.trace(out.confusion) + out.confusion[c, c])
            deficit = bound - acc
            rate = err_surv / (n - n_c)
            assert deficit <= rate + 1e-12
            if err_surv > 0:
                assert deficit < rate
            worst_line = (f"e.g. {name}/class {c}: accuracy {acc:.4f} <= "
                          f"bound {bound:.4f}, deficit {deficit:.4f} < "
                          f"surviving error rate {rate:.4f}")
    announce(11, True, f"all 40 outcomes meet the removed-class bound; "
                       f"{worst_line}")
