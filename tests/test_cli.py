import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sisa_unlearn import bench, checkpoint, cli, training
from sisa_unlearn.bench import GridReport
from sisa_unlearn.checkpoint import load_checkpoint, save_checkpoint
from sisa_unlearn.cli import RunConfig, build_bundle, main
from sisa_unlearn.partition import make_plan
from sisa_unlearn.pipeline import train_sisa
from sisa_unlearn.unlearning import STRATEGIES, run_unlearning, strategy_rule


def base_config(out_dir, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "n_per_class": 40, "num_classes": 4,
                    "shape": [8], "separation": 4.0},
        "split": {"train": 0.7, "val": 0.1, "test": 0.2},
        "K": 2, "L": 3, "policy": "sequential_class",
        "strategy": "sisa_scls_replay", "replay_ratio": 0.3,
        "train": {"max_epochs_per_slice": 3, "patience": None,
                  "batch_size": 32},
        "seed": 5, "out": str(out_dir / "run"),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path, **overrides)))
    return path


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    return code


def assert_same_bundle(a, b):
    for part in ("train", "val", "test"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.inputs.tobytes() == y.inputs.tobytes()
        assert x.labels.tobytes() == y.labels.tobytes()


def write_cifar_dir(tmp_path, per_class=30):
    """One CIFAR-format batch: 10 classes, each a noisy copy of one image."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(10), per_class)
    records = np.zeros((len(labels), 3073), dtype=np.uint8)
    records[:, 0] = labels
    base = rng.integers(40, 200, size=(10, 3072))
    for i, lab in enumerate(labels):
        noise = rng.integers(-30, 30, size=3072)
        records[i, 1:] = np.clip(base[lab] + noise, 0, 255)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "data_batch_1.bin").write_bytes(records.tobytes())
    return data_dir


class TestPlan:
    def test_writes_plan(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["plan", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "run" / "plan.json").read_text())
        assert doc["K"] == 2 and doc["L"] == 3
        assert doc["imbalance_ratio"] == 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["plan", "--config", cfg])
        first = (tmp_path / "run" / "plan.json").read_bytes()
        run(["plan", "--config", cfg])
        assert (tmp_path / "run" / "plan.json").read_bytes() == first

    def test_k_exceeding_classes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, K=11)
        assert run(["plan", "--config", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "K exceeds class count" in err["error"]["message"]

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = base_config(tmp_path)
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        assert run(["plan", "--config", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "surprise" in err["error"]["message"]


class TestTrain:
    def test_run_directory_layout(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["train", "--config", cfg]) == 0
        run_dir = tmp_path / "run"
        ckpts = sorted(p.relative_to(run_dir).as_posix()
                       for p in run_dir.glob("shards/*/*.ckpt"))
        assert len(ckpts) == 6      # K=2 x L=3
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["strategy"] == "sisa_scls_replay"
        assert (run_dir / "reports" / "before.json").exists()
        assert not (run_dir / "gating.ckpt").exists()

    def test_gated_strategy_adds_gating_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, strategy="sisa_gated")
        assert run(["train", "--config", cfg]) == 0
        assert (tmp_path / "run" / "gating.ckpt").exists()

    def test_idempotent_checkpoints(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["train", "--config", cfg])
        path = tmp_path / "run" / "shards" / "0" / "slice_0.ckpt"
        first = path.read_bytes()
        run(["train", "--config", cfg])
        assert path.read_bytes() == first

    def test_baseline_strategy(self, tmp_path):
        cfg = write_config(tmp_path, strategy="baseline_full")
        assert run(["train", "--config", cfg]) == 0
        assert (tmp_path / "run" / "baseline.ckpt").exists()

    def test_baseline_checkpoint_holds_parameters_only(self, tmp_path):
        # the baseline retrains from a fresh init, so Adam moments are never read
        cfg = write_config(tmp_path, strategy="baseline_full")
        path = tmp_path / "run" / "baseline.ckpt"
        assert run(["train", "--config", cfg]) == 0
        ckpt = load_checkpoint(path)
        assert ckpt.opt_state.m == {} and ckpt.opt_state.v == {}
        assert ckpt.params.output_classes == (0, 1, 2, 3)
        assert run(["unlearn", tmp_path / "run", "--class", "class_2"]) == 0
        ckpt = load_checkpoint(path)
        assert ckpt.opt_state.m == {} and ckpt.opt_state.v == {}
        assert ckpt.params.output_classes == (0, 1, 3)

    def test_strategy_flag_sets_required_policy(self, tmp_path):
        cfg = write_config(tmp_path)      # sisa_scls_replay, sequential_class
        assert run(["train", "--config", cfg, "--strategy", "sisa_balanced"]) == 0
        plan = json.loads((tmp_path / "run" / "plan.json").read_text())
        assert plan["policy"] == "balanced"

    @pytest.mark.parametrize("strategy, policy, required", [
        ("sisa_balanced", "sequential_class", "balanced"),
        ("sisa_gated", "balanced", "sequential_class"),
    ])
    def test_strategy_policy_mismatch(self, tmp_path, capsys, strategy, policy,
                                      required):
        cfg = write_config(tmp_path, strategy=strategy, policy=policy)
        assert run(["train", "--config", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == \
            f"strategy {strategy} requires policy '{required}'"

    @pytest.mark.parametrize("overrides, key", [
        ({"train": {"patience": "3"}}, "train.patience"),
        ({"train": {"patience": 2.5}}, "train.patience"),
        ({"train": {"batch_size": [32]}}, "train.batch_size"),
        ({"dataset": {"kind": "synthetic", "shape": 5}}, "dataset.shape"),
        ({"dataset": {"kind": "synthetic", "shape": [8, "8"]}}, "dataset.shape"),
        ({"dataset": {"kind": "cifar10"}}, "dataset.dir"),
        ({"K": None}, "K"),
        ({"dataset": 5}, "dataset"),
        ({"split": [0.7, 0.1, 0.2]}, "split"),
        ({"train": 5}, "train"),
        ({"bench": "seeds"}, "bench"),
        ({"strategy": ["sisa_gated"]}, "strategy"),
        ({"dataset": {"kind": ["cifar10"]}}, "dataset.kind"),
        ({"out": ["run"]}, "out"),
        ({"K": 2.7}, "K"),
        ({"K": True}, "K"),
        ({"seed": 1.9}, "seed"),
        ({"replay_ratio": "0.3"}, "replay_ratio"),
        ({"split": {"train": True, "val": 0.1, "test": 0.2}}, "split.train"),
        ({"dataset": {"kind": "synthetic", "n_per_class": 40.0}},
         "dataset.n_per_class"),
        ({"train": {"batch_size": 8.9}}, "train.batch_size"),
        ({"train": {"learning_rate": True}}, "train.learning_rate"),
        ({"train": {"learning_rate": "0.01"}}, "train.learning_rate"),
        ({"bench": {"setups": [[2, 3.0]]}}, "bench.setups"),
        ({"bench": {"setups": [[2, 3, 4]]}}, "bench.setups"),
        ({"bench": {"setups": [2, 3]}}, "bench.setups"),
        ({"bench": {"replay_ratios": "abc"}}, "bench.replay_ratios"),
        ({"bench": {"replay_ratios": [True]}}, "bench.replay_ratios"),
        ({"dataset": {"kind": "synthetic", "shape": [0]}}, "dataset.shape"),
        ({"dataset": {"kind": "synthetic", "shape": [4, 0]}}, "dataset.shape"),
        ({"K": 0}, "K"),
        ({"L": 0}, "L"),
        ({"L": -2}, "L"),
        ({"dataset": {"kind": "synthetic", "n_per_class": 0}}, "dataset.n_per_class"),
        ({"dataset": {"kind": "synthetic", "num_classes": 1}}, "dataset.num_classes"),
        ({"dataset": {"kind": "synthetic", "num_classes": 0}}, "dataset.num_classes"),
    ])
    def test_malformed_value_is_one_json_line(self, tmp_path, capsys, overrides,
                                              key):
        cfg = write_config(tmp_path, **overrides)
        assert run(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert f"config key {key}" in err["message"]
        assert not (tmp_path / "run").exists()

    def test_integer_is_a_valid_float_value(self, tmp_path):
        cfg = write_config(tmp_path, replay_ratio=0,
                           train={"learning_rate": 1, "batch_size": 32})
        train = RunConfig.from_file(cfg).train_config()
        assert (train.replay_ratio, train.learning_rate) == (0.0, 1.0)

    @pytest.mark.parametrize("train, field", [
        ({"batch_size": 0}, "batch_size"),
        ({"max_epochs_per_slice": 0}, "max_epochs_per_slice"),
        ({"learning_rate": -1}, "learning_rate"),
    ])
    def test_untrainable_budget_is_one_json_line(self, tmp_path, capsys, train,
                                                 field):
        cfg = write_config(tmp_path, train=train)
        assert run(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{field} must be")
        assert not (tmp_path / "run").exists()


class TestUnlearn:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["train", "--config", cfg])
        return tmp_path / "run"

    def test_unlearn_and_eval(self, trained, capsys):
        assert run(["unlearn", trained, "--class", "class_1"]) == 0
        outcome = json.loads(
            (trained / "reports" / "unlearn_class_1.json").read_text())
        assert outcome["verdict"] == "pass"
        assert outcome["class"] == "class_1"
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["removed_classes"] == [1]
        assert run(["eval", trained]) == 0
        assert (trained / "reports" / "eval.json").exists()

    def test_repeat_removal_rejected(self, trained, capsys):
        run(["unlearn", trained, "--class", "class_1"])
        assert run(["unlearn", trained, "--class", "class_1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "already removed" in err["error"]["message"]

    def test_seed_flag_rejected(self, trained, capsys):
        # a retrained shard keeps the seed its kept checkpoints were trained with
        before = (trained / "manifest.json").read_bytes()
        with pytest.raises(SystemExit) as exc:
            run(["unlearn", trained, "--class", "class_1", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert (trained / "manifest.json").read_bytes() == before

    def test_unknown_class_lists_names(self, trained, capsys):
        assert run(["unlearn", trained, "--class", "notaclass"]) == 1
        err = json.loads(capsys.readouterr().err)
        for name in ("class_0", "class_1", "class_2", "class_3"):
            assert name in err["error"]["message"]

    def test_baseline_unlearn_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, strategy="baseline_full")
        run(["train", "--config", cfg])
        run_dir = tmp_path / "run"
        assert run(["unlearn", run_dir, "--class", "class_0"]) == 0
        outcome = json.loads(
            (run_dir / "reports" / "unlearn_class_0.json").read_text())
        assert outcome["verdict"] == "pass"
        assert outcome["shard"] is None


    def test_last_class_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset={
            "kind": "synthetic", "n_per_class": 30, "num_classes": 2,
            "shape": [8], "separation": 4.0})
        run(["train", "--config", cfg])
        run_dir = tmp_path / "run"
        assert run(["unlearn", run_dir, "--class", "class_0"]) == 0
        before = {name: (run_dir / name).read_bytes()
                  for name in ("manifest.json", "plan.json")}
        capsys.readouterr()
        assert run(["unlearn", run_dir, "--class", "class_1"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert "'class_1'" in err["message"] and "last class" in err["message"]
        for name, raw in before.items():
            assert (run_dir / name).read_bytes() == raw


class TestEval:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_reproduces_report_of_train(self, tmp_path, strategy):
        # eval rebuilds the deployed model (and any router) from disk alone
        cfg = write_config(tmp_path)
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        run_dir = tmp_path / "run"
        assert run(["eval", run_dir]) == 0
        before = json.loads((run_dir / "reports" / "before.json").read_text())
        after = json.loads((run_dir / "reports" / "eval.json").read_text())
        for key in ("accuracy", "precision", "recall", "confusion_matrix"):
            assert after[key] == before[key]

    def test_baseline_checkpoint_read_through_manifest(self, tmp_path, loads):
        cfg = write_config(tmp_path, strategy="baseline_full")
        assert run(["train", "--config", cfg]) == 0
        run_dir = tmp_path / "run"
        (run_dir / "baseline.ckpt").rename(run_dir / "moved.ckpt")
        path = run_dir / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "baseline": "moved.ckpt"}))
        loads.clear()
        assert run(["eval", run_dir]) == 0
        assert loads == [run_dir / "moved.ckpt"]

    def test_manifest_with_mode_key_loads(self, tmp_path):
        # manifests written before the aggregation rule was fixed carry "mode"
        cfg = write_config(tmp_path)
        run(["train", "--config", cfg])
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "mode": "max_confidence"}))
        assert run(["eval", tmp_path / "run"]) == 0
        assert run(["unlearn", tmp_path / "run", "--class", "class_1"]) == 0


@pytest.fixture()
def loads(monkeypatch):
    """Paths passed to load_checkpoint, from every package module that
    holds a reference to it."""
    seen = []
    original = checkpoint.load_checkpoint

    def counting(path):
        seen.append(Path(path))
        return original(path)

    for name, module in list(sys.modules.items()):
        if name.startswith("sisa_unlearn") and \
                getattr(module, "load_checkpoint", None) is original:
            monkeypatch.setattr(module, "load_checkpoint", counting)
    return seen


def train_run(tmp_path, strategy):
    assert run(["train", "--config", write_config(tmp_path),
                "--strategy", strategy]) == 0
    run_dir = tmp_path / "run"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
    return run_dir, manifest, meta


def finals(manifest, skip=None) -> set[str]:
    """The final checkpoint of every constituent except shard `skip`."""
    return {e["checkpoints"][-1] for e in manifest["constituents"]
            if e["shard_id"] != skip}


def rollback_point(meta, class_id: int) -> str:
    loc = meta[str(class_id)]
    return f"shards/{loc['shard_id']}/slice_{loc['first_slice'] - 1}.ckpt"


class TestCheckpointLoads:
    """The CLI reads a checkpoint only when the command uses it."""

    @pytest.mark.parametrize("strategy", ["sisa_scls_replay", "sisa_gated"])
    def test_eval_loads_finals_and_router(self, tmp_path, loads, strategy):
        run_dir, manifest, _ = train_run(tmp_path, strategy)
        loads.clear()
        assert run(["eval", run_dir]) == 0
        expected = finals(manifest) | ({"gating.ckpt"} if manifest["gating"] else set())
        got = [p.relative_to(run_dir).as_posix() for p in loads]
        assert sorted(got) == sorted(expected)

    @pytest.mark.parametrize("class_id", [0, 2])
    @pytest.mark.parametrize("strategy", ["sisa_balanced", "sisa_scls_replay",
                                          "sisa_gated"])
    def test_unlearn_loads_finals_and_rollback_point(self, tmp_path, loads,
                                                     strategy, class_id):
        run_dir, manifest, meta = train_run(tmp_path, strategy)
        loads.clear()
        assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
        # the owning shard's final is replaced, so it is never read
        expected = finals(manifest, skip=meta[str(class_id)]["shard_id"])
        if strategy_rule(strategy).rollback and meta[str(class_id)]["first_slice"] > 0:
            expected.add(rollback_point(meta, class_id))
        if manifest["gating"]:
            expected.add("gating.ckpt")
        got = [p.relative_to(run_dir).as_posix() for p in loads]
        assert sorted(got) == sorted(expected)
        shard_loads = [g for g in got if g.startswith("shards/")]
        assert len(shard_loads) <= len(manifest["constituents"])

    @pytest.mark.parametrize("strategy", ["sisa_balanced", "sisa_scls_replay",
                                          "sisa_gated"])
    def test_unlearn_emptying_a_shard_reads_none_of_its_checkpoints(
            self, tmp_path, loads, strategy):
        run_dir, _, meta = train_run(tmp_path, strategy)
        shard = meta["0"]["shard_id"]
        first, last = sorted(int(c) for c, loc in meta.items()
                             if loc["shard_id"] == shard)
        assert run(["unlearn", run_dir, "--class", f"class_{first}"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        loads.clear()
        assert run(["unlearn", run_dir, "--class", f"class_{last}"]) == 0
        expected = finals(manifest, skip=shard)
        if manifest["gating"]:
            expected.add("gating.ckpt")
        got = [p.relative_to(run_dir).as_posix() for p in loads]
        assert sorted(got) == sorted(expected)
        after = json.loads((run_dir / "manifest.json").read_text())
        assert shard not in [e["shard_id"] for e in after["constituents"]]

    @pytest.mark.parametrize("strategy", ["sisa_scls_replay", "sisa_gated"])
    def test_restart_at_slice_0_reads_nothing_of_its_shard(
            self, tmp_path, monkeypatch, strategy):
        # the restart takes its architecture from the data, not from a sidecar
        run_dir, _, meta = train_run(tmp_path, strategy)
        class_id = next(int(c) for c, loc in meta.items() if loc["first_slice"] == 0)
        shard_dir = run_dir / "shards" / str(meta[str(class_id)]["shard_id"])
        reads = []
        for name in ("read_bytes", "read_text"):
            original = getattr(Path, name)

            def spy(path, *args, _original=original, **kwargs):
                reads.append(Path(path))
                return _original(path, *args, **kwargs)
            monkeypatch.setattr(Path, name, spy)
        assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
        assert any(p.suffix == ".ckpt" for p in reads)     # the spy sees loads
        assert not [p for p in reads if p.is_relative_to(shard_dir)]

    def test_corrupt_rollback_point_fails_only_unlearn(self, tmp_path, capsys):
        run_dir, _, meta = train_run(tmp_path, "sisa_scls_replay")
        class_id = next(int(c) for c, loc in meta.items() if loc["first_slice"] > 0)
        assert run(["eval", run_dir]) == 0
        report = (run_dir / "reports" / "eval.json").read_bytes()
        target = run_dir / rollback_point(meta, class_id)
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))

        assert run(["eval", run_dir]) == 0
        assert (run_dir / "reports" / "eval.json").read_bytes() == report

        before = {name: (run_dir / name).read_bytes()
                  for name in ("manifest.json", "plan.json")}
        capsys.readouterr()
        assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "IntegrityError"
        assert rollback_point(meta, class_id).split("/")[-1] in err["message"]
        for name, raw_before in before.items():
            assert (run_dir / name).read_bytes() == raw_before


# K=2, L=3 over 6 classes: under sequential slicing each class fills one slice
SIX_CLASSES = {"kind": "synthetic", "n_per_class": 40, "num_classes": 6,
               "shape": [8], "separation": 4.0}
SISA = ["sisa_scls_replay", "sisa_gated", "sisa_balanced"]


def later_classes(meta, shard: int) -> list[int]:
    """A shard's classes after its first, by first slice."""
    own = sorted((loc["first_slice"], int(c)) for c, loc in meta.items()
                 if loc["shard_id"] == shard)
    return [c for _, c in own[1:]]


def assert_finals_hold_parameters_only(run_dir, scratch):
    """Each constituent's last checkpoint holds no moments; every other one
    holds moments laid out like its parameters and resaves to its bytes."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for entry in manifest["constituents"]:
        *kept, final = entry["checkpoints"]
        ckpt = load_checkpoint(run_dir / final)
        assert ckpt.opt_state.m == {} and ckpt.opt_state.v == {}
        for rel in kept:
            ckpt = load_checkpoint(run_dir / rel)
            assert ckpt.opt_state.m.layout == ckpt.params.tensors.layout
            assert ckpt.opt_state.v.layout == ckpt.params.tensors.layout
            save_checkpoint(ckpt, scratch)
            assert scratch.read_bytes() == (run_dir / rel).read_bytes()


def deployed(run_dir) -> dict[int, bytes]:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return {e["shard_id"]: load_checkpoint(run_dir / e["checkpoints"][-1])
            .params.tensors.flat.tobytes() for e in manifest["constituents"]}


class TestFinalsOnDisk:
    """A shard's last slice is saved without Adam moments: nothing resumes
    from it."""

    @pytest.mark.parametrize("strategy", SISA)
    def test_chained_removals_match_the_library(self, tmp_path, strategy):
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        run_dir = tmp_path / "run"
        scratch = tmp_path / "resaved.ckpt"
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        assert_finals_hold_parameters_only(run_dir, scratch)

        rc = RunConfig.from_file(cfg, strategy=strategy)
        bundle, tcfg = build_bundle(rc), rc.train_config()
        plan = make_plan(bundle.train.labels, rc.K, rc.L, rc.policy)
        system = train_sisa(bundle, plan, tcfg, gated=strategy_rule(strategy).gated)
        meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
        # under sequential slicing the second removal rolls back to slice
        # L - 2, the checkpoint the first removal retrained and saved
        for class_id in later_classes(meta, 0):
            assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
            system, _ = run_unlearning(strategy, system, bundle, class_id, tcfg)
            assert_finals_hold_parameters_only(run_dir, scratch)
            ens = system.ensemble
            assert deployed(run_dir) == {
                k: p.tensors.flat.tobytes() for k, p in zip(ens.shard_ids, ens.constituents)}

    def test_finals_with_moments_still_load(self, tmp_path, monkeypatch):
        # run directories written before finals dropped their moments
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        old, new = tmp_path / "old", tmp_path / "new"
        monkeypatch.setattr(training, "without_moments", lambda ckpt: ckpt)
        assert run(["train", "--config", cfg, "--out", old]) == 0
        monkeypatch.undo()
        assert run(["train", "--config", cfg, "--out", new]) == 0
        manifest = json.loads((old / "manifest.json").read_text())
        for entry in manifest["constituents"]:
            final = load_checkpoint(old / entry["checkpoints"][-1])
            assert final.opt_state.m.layout == final.params.tensors.layout
        assert deployed(old) == deployed(new)

        def reports(run_dir, name):
            doc = json.loads((run_dir / "reports" / name).read_text())
            return {k: v for k, v in doc.items() if "seconds" not in k}

        meta = json.loads((new / "plan.json").read_text())["metadata"]
        for class_id in later_classes(meta, 1):
            for run_dir in (old, new):
                assert run(["eval", run_dir]) == 0
                assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
            assert reports(old, "eval.json") == reports(new, "eval.json")
            name = f"unlearn_class_{class_id}.json"
            assert reports(old, name) == reports(new, name)
        assert deployed(old) == deployed(new)

    @pytest.mark.parametrize("strategy", SISA)
    def test_single_slice(self, tmp_path, strategy):
        cfg = write_config(tmp_path, L=1)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        assert_finals_hold_parameters_only(run_dir, tmp_path / "resaved.ckpt")
        assert run(["unlearn", run_dir, "--class", "class_1"]) == 0
        assert run(["eval", run_dir]) == 0
        outcome = json.loads((run_dir / "reports" / "unlearn_class_1.json").read_text())
        assert outcome["verdict"] == "pass"
        assert outcome["slice_range_retrained"] == [1, 1]

    def test_rollback_to_a_final_is_an_integrity_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg]) == 0
        meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
        class_id = next(int(c) for c, loc in meta.items() if loc["first_slice"] == 2)
        shard = meta[str(class_id)]["shard_id"]
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = next(e for e in manifest["constituents"] if e["shard_id"] == shard)
        entry["checkpoints"][1] = entry["checkpoints"][2]
        path.write_text(json.dumps(manifest))
        before = {name: (run_dir / name).read_bytes()
                  for name in ("manifest.json", "plan.json")}
        capsys.readouterr()
        assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "IntegrityError"
        assert f"shard {shard}: the checkpoint of slice 2 holds no Adam moments" \
            in err["message"]
        for name, raw in before.items():
            assert (run_dir / name).read_bytes() == raw

    @pytest.mark.parametrize("wrong", ["slice_0", "other_shard"])
    def test_rollback_to_another_checkpoint_is_an_integrity_error(
            self, tmp_path, capsys, wrong):
        # the manifest's slice-1 entry names a checkpoint that holds moments
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg]) == 0
        meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
        class_id = next(int(c) for c, loc in meta.items() if loc["first_slice"] == 2)
        shard = meta[str(class_id)]["shard_id"]
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        entry, other = sorted(manifest["constituents"],
                              key=lambda e: e["shard_id"] != shard)
        entry["checkpoints"][1] = (entry["checkpoints"][0] if wrong == "slice_0"
                                   else other["checkpoints"][1])
        path.write_text(json.dumps(manifest))
        before = {name: (run_dir / name).read_bytes()
                  for name in ("manifest.json", "plan.json")}
        capsys.readouterr()
        assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "IntegrityError"
        got = (f"shard {shard} slice 0" if wrong == "slice_0"
               else f"shard {other['shard_id']} slice 1")
        assert (f"shard {shard}: resuming at slice 2 needs the checkpoint of slice 1, "
                f"got {got}") in err["message"]
        for name, raw in before.items():
            assert (run_dir / name).read_bytes() == raw


    @pytest.mark.parametrize("command", ["eval", "unlearn"])
    @pytest.mark.parametrize("edit", ["final_of_another_shard", "head"])
    def test_mismatched_final_is_an_integrity_error(self, tmp_path, capsys,
                                                    edit, command):
        # a shard deploys its manifest's last entry under the manifest's head
        cfg = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg]) == 0
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        entry, other = manifest["constituents"]
        k, head = entry["shard_id"], entry["output_classes"]
        if edit == "final_of_another_shard":
            # unlearn refuses it before retraining the other shard
            entry["checkpoints"][-1] = other["checkpoints"][-1]
            want = [f"shard {k}: the deployed final is shard {other['shard_id']} slice 2 "
                    f"with head {other['output_classes']}, not shard {k} slice 2 "
                    f"with head {head}"]
        else:
            entry["output_classes"] = head[::-1]
            want = [f"shard {k}: the deployed final is shard {k} slice 2 with head "
                    f"{head}, not shard {k} slice 2 with head {head[::-1]}"]
        path.write_text(json.dumps(manifest))
        before = path.read_bytes()
        argv = ["eval", run_dir] if command == "eval" else \
            ["unlearn", run_dir, "--class", f"class_{other['output_classes'][0]}"]
        capsys.readouterr()
        assert run(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "IntegrityError"
        assert all(part in err["message"] for part in want)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("strategy", SISA)
    def test_refused_unlearn_changes_no_file(self, tmp_path, capsys, strategy):
        # shard 0 deploys shard 1's final: removing a shard-1 class must be
        # refused before shard 1 retrains into the run directory
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        entry, other = manifest["constituents"]
        assert (entry["shard_id"], other["shard_id"]) == (0, 1)
        entry["checkpoints"][-1] = other["checkpoints"][-1]
        path.write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run(["unlearn", run_dir, "--class",
                    f"class_{other['output_classes'][0]}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "IntegrityError"
        assert err["message"].startswith("shard 0: the deployed final is shard 1 slice 2")
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_checkpoint_is_one_file(self, tmp_path, strategy):
        assert run(["train", "--config", write_config(tmp_path),
                    "--strategy", strategy]) == 0
        run_dir = tmp_path / "run"
        assert run(["unlearn", run_dir, "--class", "class_1"]) == 0
        assert run(["eval", run_dir]) == 0
        names = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")
                 if p.is_file()}
        assert names >= {"config.json", "manifest.json"}
        assert not [n for n in names if n.endswith((".ckpt.json", ".tmp"))]


class TestCifarPipeline:
    def test_cnn_run_from_binary_batches(self, tmp_path):
        data_dir = write_cifar_dir(tmp_path)
        cfg = write_config(
            tmp_path,
            dataset={"kind": "cifar10", "dir": str(data_dir)},
            train={"max_epochs_per_slice": 1, "patience": None,
                   "batch_size": 32},
            K=2, L=2,
        )
        assert run(["train", "--config", cfg]) == 0
        run_dir = tmp_path / "run"
        assert run(["unlearn", run_dir, "--class", "dog"]) == 0
        outcome = json.loads(
            (run_dir / "reports" / "unlearn_dog.json").read_text())
        assert outcome["verdict"] == "pass"
        assert outcome["class"] == "dog"
        assert run(["eval", run_dir]) == 0


@pytest.fixture()
def bench_cells(monkeypatch):
    """(seed, bundle) of every grid cell that bench trains."""
    seen = []
    original = bench._run_strategy_cell

    def spy(cfg, data, setup, strategy, seed):
        seen.append((seed, data))
        return original(cfg, data, setup, strategy, seed)

    monkeypatch.setattr(bench, "_run_strategy_cell", spy)
    return seen


def bench_config(tmp_path, dataset_seed=None, split_seed=None):
    """A small one-setup grid on a 0.5/0.1/0.4 split."""
    dataset = {"kind": "synthetic", "n_per_class": 24, "num_classes": 4,
               "shape": [8], "separation": 4.0}
    split = {"train": 0.5, "val": 0.1, "test": 0.4}
    if dataset_seed is not None:
        dataset["seed"] = dataset_seed
    if split_seed is not None:
        split["seed"] = split_seed
    return write_config(
        tmp_path, dataset=dataset, split=split,
        train={"max_epochs_per_slice": 1, "patience": None, "batch_size": 32},
        bench={"setups": [[2, 3]], "replay_ratios": []},
        out=str(tmp_path / "bench"))


class TestBench:
    @pytest.mark.parametrize("seeds", [0, -1])
    def test_seeds_below_one_is_one_json_line(self, tmp_path, capsys, seeds):
        cfg = bench_config(tmp_path)
        assert run(["bench", "--config", cfg, "--seeds", seeds]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err == {"type": "ValueError",
                       "message": f"--seeds must be >= 1, got {seeds}"}
        assert not (tmp_path / "bench").exists()

    def test_cifar_bundle_matches_cli(self, tmp_path, monkeypatch):
        # bench's CIFAR row is what the CLI loads: normalized by train-split stats
        data_dir = write_cifar_dir(tmp_path, per_class=6)
        cfg = write_config(tmp_path, dataset={"kind": "cifar10", "dir": str(data_dir)})
        rows = {}

        def fake_grid(bcfg, bundle_for, out_dir=None):
            rows.update((s, bundle_for(s)) for s in bcfg.seeds)
            return GridReport(cells=[], replay_cells=[])

        monkeypatch.setattr(cli, "run_benchmark_grid", fake_grid)
        assert run(["--quiet", "bench", "--config", cfg, "--seed", "3"]) == 0
        assert_same_bundle(rows[3], build_bundle(RunConfig.from_file(cfg, seed=3)))
        mean = rows[3].train.inputs.mean(axis=(0, 2, 3))
        assert np.allclose(mean, 0.0, atol=1e-4)

    def test_cells_load_the_config_data(self, tmp_path, bench_cells):
        cfg = bench_config(tmp_path, dataset_seed=99, split_seed=42)
        assert run(["--quiet", "bench", "--config", cfg]) == 0
        expected = build_bundle(RunConfig.from_file(cfg))
        assert len(expected.train) == 48 and len(expected.test) == 40
        assert len(bench_cells) == 4
        for _seed, data in bench_cells:
            assert_same_bundle(data, expected)

    def test_seed_rows_load_what_train_loads(self, tmp_path, bench_cells,
                                             monkeypatch):
        cfg = bench_config(tmp_path)
        assert run(["--quiet", "bench", "--config", cfg, "--seeds", "2"]) == 0
        assert sorted({seed for seed, _ in bench_cells}) == [5, 6]
        loaded = []
        original = cli.build_bundle
        monkeypatch.setattr(cli, "build_bundle",
                            lambda c: loaded.append(original(c)) or loaded[-1])
        for s in (5, 6):
            loaded.clear()
            assert run(["--quiet", "train", "--config", cfg, "--seed", s,
                        "--out", tmp_path / f"run_{s}"]) == 0
            rows = [data for seed, data in bench_cells if seed == s]
            assert len(rows) == 4
            for data in rows:
                assert_same_bundle(data, loaded[0])
        row_5 = next(data for seed, data in bench_cells if seed == 5)
        row_6 = next(data for seed, data in bench_cells if seed == 6)
        assert row_5.train.inputs.tobytes() != row_6.train.inputs.tobytes()

    @pytest.mark.parametrize("bench_doc, key", [
        ({"setups": [[0, 3]]}, "bench.setups"),
        ({"setups": [[2, 3], [2, 0]]}, "bench.setups"),
        ({"setups": [[-1, 3]]}, "bench.setups"),
        ({"replay_ratios": [1.5]}, "bench.replay_ratios"),
        ({"replay_ratios": [0.3, -0.1]}, "bench.replay_ratios"),
    ])
    def test_out_of_range_grid_is_one_json_line(self, tmp_path, capsys, bench_doc,
                                                key):
        cfg = write_config(tmp_path, bench=bench_doc, out=str(tmp_path / "bench"))
        assert run(["bench", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert f"config key {key}" in err["message"]
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("key, value", [("seeds", 3), ("scls_replay_ratio", 0.3)])
    def test_removed_bench_keys_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, bench={key: value})
        assert run(["bench", "--config", cfg]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"] == f"unknown config key(s) at bench: ['{key}']"

    def test_train_section_reaches_bench(self, tmp_path, monkeypatch):
        seen = []

        def fake_grid(bcfg, bundle_for, out_dir=None):
            seen.append(bcfg)
            return GridReport(cells=[], replay_cells=[])

        monkeypatch.setattr(cli, "run_benchmark_grid", fake_grid)
        cfg = write_config(tmp_path, train={"batch_size": 3}, replay_ratio=0.25)
        assert run(["--quiet", "bench", "--config", cfg]) == 0
        train = seen[0].train
        assert train.batch_size == 3
        assert train.replay_ratio == 0.25
        # keys the config leaves out keep the bench's own defaults
        assert (train.max_epochs_per_slice, train.patience,
                train.learning_rate) == (8, None, 1e-3)

    def test_grid_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dataset={"kind": "synthetic", "n_per_class": 24, "num_classes": 4,
                     "shape": [8], "separation": 4.0},
            train={"max_epochs_per_slice": 2, "patience": None,
                   "batch_size": 32},
            out=str(tmp_path / "bench"),
        )
        assert run(["--quiet", "bench", "--config", cfg]) == 0
        out = tmp_path / "bench"
        assert len(list(out.glob("cell_*.json"))) == 16
        assert len(list(out.glob("replay_*.json"))) == 3
        assert (out / "grid.txt").exists()

    def test_quiet_after_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["plan", "--config", cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert run(["--quiet", "plan", "--config", cfg]) == 0
        assert capsys.readouterr().out == ""

    def test_multiple_seeds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dataset={"kind": "synthetic", "n_per_class": 24, "num_classes": 4,
                     "shape": [8], "separation": 4.0},
            train={"max_epochs_per_slice": 2, "patience": None,
                   "batch_size": 32},
            bench={"setups": [[2, 3]], "replay_ratios": []},
            out=str(tmp_path / "bench2"),
        )
        assert run(["--quiet", "bench", "--config", cfg, "--seeds", "2"]) == 0
        doc = json.loads((tmp_path / "bench2" / "grid.json").read_text())
        assert len(doc["cells"]) == 8        # 4 strategies x 2 seeds
        assert len(doc["means"]) == 4
