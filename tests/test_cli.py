import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sisa_unlearn import bench, checkpoint, cli, partition
from sisa_unlearn.bench import GridReport
from sisa_unlearn.checkpoint import load_checkpoint, save_checkpoint, without_moments
from sisa_unlearn.cli import RunConfig, build_bundle, main
from sisa_unlearn.partition import make_plan
from sisa_unlearn.pipeline import train_sisa
from sisa_unlearn.unlearning import STRATEGIES, run_unlearning, strategy_rule


def base_config(out_dir, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "n_per_class": 40, "num_classes": 4,
                    "shape": [8], "separation": 4.0},
        "split": {"train": 0.7, "val": 0.1, "test": 0.2},
        "K": 2, "L": 3, "strategy": "sisa_scls_replay", "replay_ratio": 0.3,
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

    def test_policy_key_is_unknown(self, tmp_path, capsys):
        # the plan policy follows the strategy
        cfg = write_config(tmp_path, policy="sequential_class")
        assert run(["plan", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err == {"type": "ValueError",
                       "message": "unknown config key(s) at top level: ['policy']"}
        assert not (tmp_path / "run").exists()


class TestTrain:
    def test_run_directory_layout(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["train", "--config", cfg]) == 0
        run_dir = tmp_path / "run"
        ckpts = sorted(p.relative_to(run_dir).as_posix()
                       for p in run_dir.glob("shards/*/*.ckpt"))
        # each shard's second class starts at slice 1: slice 0 is its resume
        # point, slice 2 its final, and slice 1 is not stored
        assert ckpts == [f"shards/{k}/slice_{ell}.ckpt" for k in (0, 1) for ell in (0, 2)]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["strategy"] == "sisa_scls_replay"
        assert [e["checkpoints"] for e in manifest["constituents"]] == [
            [f"shards/{k}/slice_0.ckpt", None, f"shards/{k}/slice_2.ckpt"] for k in (0, 1)]
        assert (run_dir / "reports" / "before.json").exists()
        assert not (run_dir / "gating.ckpt").exists()

    def test_train_over_an_earlier_run_leaves_none_of_its_checkpoints(self, tmp_path):
        # a gated K=3 run, then an ungated K=2 one, a baseline and a K=2 one
        # again, into one directory, each followed by an unlearn and an
        # eval: each train leaves only the files it writes, its manifest's
        # checkpoints among them, and no report of an earlier run
        demo = json.loads((Path(__file__).resolve().parent.parent / "demos"
                           / "config.json").read_text())
        run_dir = tmp_path / "run"
        for strategy, K in (("sisa_gated", 3), ("sisa_scls_replay", 2),
                            ("baseline_full", 2), ("sisa_scls_replay", 2)):
            path = tmp_path / f"{strategy}_{K}.json"
            path.write_text(json.dumps({**demo, "K": K, "strategy": strategy}))
            assert run(["train", "--config", path, "--out", run_dir]) == 0
            manifest = json.loads((run_dir / "manifest.json").read_text())
            named = {p for e in manifest.get("constituents", [])
                     for p in e["checkpoints"] if p}
            named |= {manifest[key] for key in ("gating", "baseline") if manifest.get(key)}
            written = {"config.json", "manifest.json", "reports/before.json"}
            if strategy != "baseline_full":
                written.add("plan.json")
            held = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")
                    if p.is_file()}
            assert held == named | written
            if strategy == "baseline_full":
                assert named == {"baseline.ckpt"}
                assert not (run_dir / "shards").exists()
            else:
                assert {p.name for p in (run_dir / "shards").iterdir()} == \
                    {str(k) for k in range(K)}
            assert run(["unlearn", run_dir, "--class", "class_1"]) == 0
            assert run(["eval", run_dir]) == 0

    def test_crashed_train_over_an_earlier_run_leaves_no_manifest(
            self, tmp_path, monkeypatch, capsys):
        # the earlier manifest goes before the first write, so the files a
        # crashed train leaves are never read as the earlier run
        cfg = write_config(tmp_path)
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        assert run(["train", "--config", cfg, "--seed", 7, "--out", crashed]) == 0

        class Crash(Exception):
            pass

        def crash(*args):
            raise Crash
        monkeypatch.setattr(cli, "_write_run", crash)
        with pytest.raises(Crash):
            run(["train", "--config", cfg, "--seed", 8, "--out", crashed])
        monkeypatch.undo()
        assert not (crashed / "manifest.json").exists()
        capsys.readouterr()
        for argv in (["eval", crashed], ["unlearn", crashed, "--class", "class_1"]):
            assert run(argv) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])["error"]
            assert err["type"] == "IntegrityError"
            assert err["message"].startswith(f"{crashed} holds no manifest.json")

        for run_dir in (crashed, clean):
            assert run(["train", "--config", cfg, "--seed", 8, "--out", run_dir]) == 0
            assert run(["eval", run_dir]) == 0
        assert_same_run(crashed, clean)

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
        config = json.loads((tmp_path / "run" / "config.json").read_text())
        assert config["strategy"] == "sisa_balanced" and "policy" not in config

    def test_unknown_strategy_in_config_refused_under_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategy="sisa_magic")
        assert run(["train", "--config", cfg, "--strategy", "sisa_gated"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ValueError", "message": "unknown strategy 'sisa_magic'"}
        assert not (tmp_path / "run").exists()

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


def stored(run_dir, sub: str) -> dict[str, bytes]:
    """Every file under run_dir/sub, by its path relative to run_dir."""
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in (run_dir / sub).rglob("*") if p.is_file()}


def assert_same_run(a, b):
    """Two run directories hold the same files with the same bytes, but for
    what records a time or the directory's path: the manifest, the config,
    before.json and the unlearn reports."""
    def files(run_dir):
        return {name: raw for name, raw in stored(run_dir, ".").items()
                if name not in ("manifest.json", "config.json")
                and not name.startswith("reports/")}
    assert files(a) == files(b)
    assert (a / "reports" / "eval.json").read_bytes() == \
        (b / "reports" / "eval.json").read_bytes()


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

    def test_baseline_unlearn_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategy="baseline_full")
        run(["train", "--config", cfg])
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert run(["unlearn", run_dir, "--class", "class_0"]) == 0
        outcome = json.loads(
            (run_dir / "reports" / "unlearn_class_0.json").read_text())
        assert outcome["verdict"] == "pass"
        # the whole model retrains: one training set, as SISA with K=1, L=1
        assert outcome["shard"] is None
        assert outcome["slices_retrained"] == 1
        assert outcome["slice_range_retrained"] == [1, 1]
        assert "1 slice(s) retrained" in capsys.readouterr().out


    @pytest.mark.parametrize("strategy", ["sisa_scls_replay", "sisa_gated", "sisa_balanced"])
    def test_decommissioned_shard_leaves_the_run_directory(self, tmp_path, strategy):
        # its checkpoints were trained on the classes removed from it
        cfg = write_config(tmp_path, strategy=strategy)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg]) == 0
        meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
        for class_id in sorted(int(c) for c, loc in meta.items() if loc["shard_id"] == 0):
            assert (run_dir / "shards" / "0").is_dir()
            assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
        assert not (run_dir / "shards" / "0").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert [e["shard_id"] for e in manifest["constituents"]] == [1]
        on_disk = {p.relative_to(run_dir).as_posix()
                   for p in (run_dir / "shards").rglob("*") if p.is_file()}
        assert on_disk == set(manifest["constituents"][0]["checkpoints"]) - {None}
        assert run(["eval", run_dir]) == 0

    def test_crash_before_the_manifest_swap_is_repaired_by_a_retry(
            self, tmp_path, monkeypatch):
        # the removal empties shard 1; _write_run deletes shards/1/ only
        # after it swaps the manifest, so a crash before leaves the old run
        demo = Path(__file__).resolve().parent.parent / "demos" / "config.json"
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        for run_dir in (crashed, clean):
            assert run(["train", "--config", demo, "--out", run_dir]) == 0
            for name in ("class_1", "class_3"):
                assert run(["unlearn", run_dir, "--class", name]) == 0
        manifest = json.loads((crashed / "manifest.json").read_text())
        assert [e["shard_id"] for e in manifest["constituents"]] == [0, 1]
        before = stored(crashed, ".")

        class Crash(Exception):
            pass

        def crash(*args):
            raise Crash
        monkeypatch.setattr(cli, "_write_run", crash)
        with pytest.raises(Crash):
            run(["unlearn", crashed, "--class", "class_5"])
        monkeypatch.undo()
        assert stored(crashed, ".") == before
        assert run(["eval", crashed]) == 0

        for run_dir in (crashed, clean):
            assert run(["unlearn", run_dir, "--class", "class_5"]) == 0
            assert run(["eval", run_dir]) == 0
        assert not (crashed / "shards" / "1").exists()
        assert_same_run(crashed, clean)

    def test_crash_after_the_retrained_slices_are_written_is_repaired_by_a_retry(
            self, tmp_path, monkeypatch, capsys):
        # shard 0 holds one class per slice. Removing the third rolls back
        # to slice 1 and overwrites the final in place; the crash comes
        # before _write_run writes plan.json, so the old manifest still
        # names every file it named, the rollback point among them
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        for run_dir in (crashed, clean):
            assert run(["train", "--config", cfg, "--out", run_dir]) == 0
        meta = json.loads((clean / "plan.json").read_text())["metadata"]
        second, third = later_classes(meta, 0)
        for run_dir in (crashed, clean):
            assert run(["unlearn", run_dir, "--class", f"class_{second}"]) == 0
        assert sorted(stored(crashed, "shards/0")) == ["shards/0/slice_1.ckpt",
                                                       "shards/0/slice_2.ckpt"]
        before = stored(crashed, ".")

        class Crash(Exception):
            pass

        def crash(*args):
            raise Crash
        monkeypatch.setattr(partition.PartitionPlan, "save", crash)
        with pytest.raises(Crash):
            run(["unlearn", crashed, "--class", f"class_{third}"])
        monkeypatch.undo()
        after = stored(crashed, ".")
        assert sorted(after) == sorted(before)
        assert {name for name in after if after[name] != before[name]} == \
            {"shards/0/slice_2.ckpt"}
        # the old manifest's final of shard 0 now holds the new head
        capsys.readouterr()
        assert run(["eval", crashed]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "IntegrityError"

        for run_dir in (crashed, clean):
            assert run(["unlearn", run_dir, "--class", f"class_{third}"]) == 0
            assert run(["eval", run_dir]) == 0
        assert sorted(stored(clean, "shards/0")) == ["shards/0/slice_2.ckpt"]
        assert_same_run(crashed, clean)

    def test_crash_between_the_plan_and_the_manifest_swap_is_repaired_by_a_retry(
            self, tmp_path, monkeypatch):
        # plan.json already holds the purged plan, but the old manifest
        # still names the class: the retry rebuilds the plan that holds it
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        for run_dir in (crashed, clean):
            assert run(["train", "--config", cfg, "--out", run_dir]) == 0
        meta = json.loads((clean / "plan.json").read_text())["metadata"]
        second, _ = later_classes(meta, 0)
        plan, manifest = ((crashed / name).read_bytes()
                          for name in ("plan.json", "manifest.json"))

        class Crash(Exception):
            pass

        def crash(path, payload, _write_json=cli.write_json):
            if Path(path).name == "manifest.json":
                raise Crash
            _write_json(path, payload)
        monkeypatch.setattr(cli, "write_json", crash)
        with pytest.raises(Crash):
            run(["unlearn", crashed, "--class", f"class_{second}"])
        monkeypatch.undo()
        assert (crashed / "plan.json").read_bytes() != plan
        assert (crashed / "manifest.json").read_bytes() == manifest

        for run_dir in (crashed, clean):
            assert run(["unlearn", run_dir, "--class", f"class_{second}"]) == 0
            assert run(["eval", run_dir]) == 0
        assert_same_run(crashed, clean)

    def test_crash_between_the_manifest_swap_and_the_cut(self, tmp_path, monkeypatch):
        # the new manifest is in place, beside the files the cut would have
        # deleted: the rollback point of the removal
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg, "--out", run_dir]) == 0
        meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
        second, third = later_classes(meta, 0)

        class Crash(Exception):
            pass

        def crash(*args):
            raise Crash
        monkeypatch.setattr(cli.CheckpointStore, "retain", crash)
        with pytest.raises(Crash):
            run(["unlearn", run_dir, "--class", f"class_{second}"])
        monkeypatch.undo()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["removed_classes"] == [second]
        assert manifest["constituents"][0]["checkpoints"][0] is None
        assert (run_dir / "shards" / "0" / "slice_0.ckpt").exists()
        assert run(["eval", run_dir]) == 0

        assert run(["unlearn", run_dir, "--class", f"class_{third}"]) == 0
        assert_run_holds_kept_slices(run_dir, tmp_path / "resaved.ckpt",
                                     kept_slices(run_dir))
        assert sorted(stored(run_dir, "shards/0")) == ["shards/0/slice_2.ckpt"]

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

    @pytest.mark.parametrize("strategy", ["sisa_scls_replay", "sisa_gated",
                                          "sisa_balanced"])
    def test_plan_json_is_never_read(self, tmp_path, strategy):
        # eval and unlearn rebuild the plan from the config and the
        # manifest's removed classes; plan.json is a report
        cfg = write_config(tmp_path)
        deleted, clean = tmp_path / "deleted", tmp_path / "clean"
        for run_dir in (deleted, clean):
            assert run(["train", "--config", cfg, "--strategy", strategy,
                        "--out", run_dir]) == 0
        (deleted / "plan.json").unlink()
        assert run(["eval", deleted]) == 0
        before = json.loads((deleted / "reports" / "before.json").read_text())
        after = json.loads((deleted / "reports" / "eval.json").read_text())
        for key in ("accuracy", "precision", "recall", "confusion_matrix"):
            assert after[key] == before[key]

        # removed out of order: the manifest lists removed classes sorted
        for name in ("class_2", "class_1"):
            (deleted / "plan.json").unlink(missing_ok=True)
            for run_dir in (deleted, clean):
                assert run(["unlearn", run_dir, "--class", name]) == 0
                assert run(["eval", run_dir]) == 0
            assert_same_run(deleted, clean)

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

    @pytest.mark.parametrize("command", ["eval", "unlearn"])
    @pytest.mark.parametrize("strategy, gating", [("sisa_gated", None),
                                                  ("sisa_scls_replay", "gating.ckpt")])
    def test_router_entry_must_match_the_strategy(self, tmp_path, capsys, strategy,
                                                  gating, command):
        # a gated run without its router would serve by max-confidence instead
        cfg = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        path = run_dir / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "gating": gating}))
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        argv = ["eval", run_dir] if command == "eval" else \
            ["unlearn", run_dir, "--class", "class_1"]
        capsys.readouterr()
        assert run(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "IntegrityError"
        assert err["message"].startswith(f"manifest.json key 'gating' is {gating!r}, "
                                         f"but strategy {strategy} ")
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


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


def resume_points(plan: dict, shard: int) -> set[int]:
    """The slices of a shard after which one of its classes first appears,
    from a plan.json document; none under a balanced plan, whose removals
    restart at slice 0, nor in a shard of one class, whose removal
    decommissions the shard."""
    own = [loc for loc in plan["metadata"].values() if loc["shard_id"] == shard]
    if plan["policy"] == "balanced" or len(own) < 2:
        return set()
    return {loc["first_slice"] - 1 for loc in own if loc["first_slice"] > 0}


def kept_slices(run_dir) -> set[tuple[int, int]]:
    """The (shard, slice) pairs a run directory holds: each deployed shard's
    final and its resume points under plan.json, after train and after
    every unlearn alike."""
    plan = json.loads((run_dir / "plan.json").read_text())
    return {(a["shard_id"], ell) for a in plan["assignments"] if a["class_ids"]
            for ell in resume_points(plan, a["shard_id"]) | {plan["L"] - 1}}


def assert_run_holds_kept_slices(run_dir, scratch, stored, first_slices=None):
    """shards/ holds exactly the slices `stored` names, and each
    constituent's manifest entry names its files and null for every other
    slice. Each stored slice but the final holds moments laid out like its
    parameters, the final none, and each file resaves to its bytes. With
    `first_slices`, each removed class's first slice in the plan the run
    was trained on, no stored slice was trained on a removed class's rows:
    one whose head still names such a class precedes its first slice."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    plan = json.loads((run_dir / "plan.json").read_text())
    final = plan["L"] - 1
    on_disk = {p.relative_to(run_dir).as_posix()
               for p in (run_dir / "shards").rglob("*") if p.is_file()}
    assert on_disk == {f"shards/{k}/slice_{ell}.ckpt" for k, ell in stored}
    assert {e["shard_id"] for e in manifest["constituents"]} == {k for k, _ in stored}
    for entry in manifest["constituents"]:
        k = entry["shard_id"]
        kept = {ell for j, ell in stored if j == k}
        assert len(entry["checkpoints"]) == plan["L"]
        assert {ell for ell, rel in enumerate(entry["checkpoints"]) if rel} == kept
        for ell in kept:
            rel = entry["checkpoints"][ell]
            ckpt = load_checkpoint(run_dir / rel)
            if ell == final:
                assert ckpt.opt_state.m == {} and ckpt.opt_state.v == {}
            else:
                assert ckpt.opt_state.m.layout == ckpt.params.tensors.layout
                assert ckpt.opt_state.v.layout == ckpt.params.tensors.layout
            for c in set(ckpt.params.output_classes) & set(manifest["removed_classes"]):
                assert ell < first_slices[c]
            save_checkpoint(ckpt, scratch)
            assert scratch.read_bytes() == (run_dir / rel).read_bytes()


def deployed(run_dir) -> dict[int, bytes]:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return {e["shard_id"]: load_checkpoint(run_dir / e["checkpoints"][-1])
            .params.tensors.flat.tobytes() for e in manifest["constituents"]}


class TestFinalsOnDisk:
    """A run directory holds a shard's resume points, with Adam moments, and
    its final, without them: nothing resumes from the final. A removal
    leaves no other slice, the one it resumed from included. The manifest
    names exactly those files."""

    @pytest.mark.parametrize("strategy", SISA)
    def test_chained_removals_match_the_library(self, tmp_path, strategy):
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        run_dir = tmp_path / "run"
        scratch = tmp_path / "resaved.ckpt"
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        assert_run_holds_kept_slices(run_dir, scratch, kept_slices(run_dir))

        rc = RunConfig.from_file(cfg, strategy=strategy)
        bundle, tcfg = build_bundle(rc), rc.train_config()
        plan = make_plan(bundle.train.labels, rc.K, rc.L, rc.policy)
        system = train_sisa(bundle, plan, tcfg, gated=strategy_rule(strategy).gated)
        meta = json.loads((run_dir / "plan.json").read_text())["metadata"]
        first_slices = {int(c): loc["first_slice"] for c, loc in meta.items()}
        # under sequential slicing the second removal rolls back to slice
        # L - 2, the checkpoint the first removal retrained and saved
        for class_id in later_classes(meta, 0):
            assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
            system, _ = run_unlearning(strategy, system, bundle, class_id, tcfg)
            assert_run_holds_kept_slices(run_dir, scratch, kept_slices(run_dir),
                                         first_slices)
            ens = system.ensemble
            assert deployed(run_dir) == {
                k: p.tensors.flat.tobytes() for k, p in zip(ens.shard_ids, ens.constituents)}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_demo_removals_leave_only_what_the_rule_keeps(self, tmp_path, strategy):
        # the committed config: class_1 restarts shard 1 at slice 0, class_3
        # rolls it back to slice 0, and class_5 empties it
        demo = Path(__file__).resolve().parent.parent / "demos" / "config.json"
        run_dir = tmp_path / "run"
        assert run(["train", "--config", demo, "--strategy", strategy,
                    "--out", run_dir]) == 0
        for name in ("class_1", "class_3", "class_5"):
            assert run(["unlearn", run_dir, "--class", name]) == 0
            held = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*.ckpt")}
            if strategy == "baseline_full":
                assert held == {"baseline.ckpt"}
                continue
            assert_run_holds_kept_slices(run_dir, tmp_path / "resaved.ckpt",
                                         kept_slices(run_dir))
            assert ("gating.ckpt" in held) == strategy_rule(strategy).gated
            if name == "class_3":
                # shard 1 is down to class 5: it has no resume point left
                assert sorted(stored(run_dir, "shards/1")) == ["shards/1/slice_2.ckpt"]
        assert run(["eval", run_dir]) == 0

    def test_finals_with_moments_still_load(self, tmp_path, monkeypatch):
        # run directories written before finals dropped their moments
        cfg = write_config(tmp_path, dataset=SIX_CLASSES)
        old, new = tmp_path / "old", tmp_path / "new"
        monkeypatch.setattr(checkpoint, "without_moments", lambda ckpt: ckpt)
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

    @pytest.mark.parametrize("command", ["eval", "unlearn"])
    def test_reading_a_null_entry_is_an_integrity_error(self, tmp_path, capsys, command):
        # eval reads every final; unlearn reads the removed class's rollback point
        run_dir, manifest, meta = train_run(tmp_path, "sisa_scls_replay")
        class_id = next(int(c) for c, loc in meta.items() if loc["first_slice"] > 0)
        shard = meta[str(class_id)]["shard_id"]
        ell = 2 if command == "eval" else meta[str(class_id)]["first_slice"] - 1
        entry = next(e for e in manifest["constituents"] if e["shard_id"] == shard)
        entry["checkpoints"][ell] = None
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        argv = ["eval", run_dir] if command == "eval" else \
            ["unlearn", run_dir, "--class", f"class_{class_id}"]
        capsys.readouterr()
        assert run(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "IntegrityError",
            "message": f"shard {shard}: the run directory holds no checkpoint of slice {ell}"}
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before

    def test_a_manifest_naming_every_slice_still_loads(self, tmp_path):
        # run directories written before the store held only resume points
        # and finals: every slice is on disk, and the manifest names it
        cfg = write_config(tmp_path)
        old, new = tmp_path / "old", tmp_path / "new"
        for run_dir in (old, new):
            assert run(["train", "--config", cfg, "--out", run_dir]) == 0
        rc = RunConfig.from_file(cfg)
        bundle = build_bundle(rc)
        system = train_sisa(bundle, make_plan(bundle.train.labels, rc.K, rc.L, rc.policy),
                            rc.train_config())
        manifest = json.loads((old / "manifest.json").read_text())
        filled = 0
        for entry in manifest["constituents"]:
            k = entry["shard_id"]
            for ell, rel in enumerate(entry["checkpoints"]):
                if rel is None:
                    rel = entry["checkpoints"][ell] = f"shards/{k}/slice_{ell}.ckpt"
                    ckpt = system.shard_results[k].checkpoints[ell]
                    save_checkpoint(without_moments(ckpt), old / rel)
                    filled += 1
        assert filled
        (old / "manifest.json").write_text(json.dumps(manifest))

        def reports(run_dir, name):
            doc = json.loads((run_dir / "reports" / name).read_text())
            return {k: v for k, v in doc.items() if "seconds" not in k}

        meta = json.loads((new / "plan.json").read_text())["metadata"]
        for class_id in later_classes(meta, 0) + later_classes(meta, 1):
            for run_dir in (old, new):
                assert run(["eval", run_dir]) == 0
                assert run(["unlearn", run_dir, "--class", f"class_{class_id}"]) == 0
            assert reports(old, "eval.json") == reports(new, "eval.json")
            name = f"unlearn_class_{class_id}.json"
            assert reports(old, name) == reports(new, name)
            assert deployed(old) == deployed(new)
            # the manifest names every file the old directory still holds
            manifest = json.loads((old / "manifest.json").read_text())
            named = {rel for e in manifest["constituents"] for rel in e["checkpoints"]}
            assert named - {None} == {p.relative_to(old).as_posix()
                                      for p in old.glob("shards/*/*.ckpt")}

    @pytest.mark.parametrize("strategy", SISA)
    def test_single_slice(self, tmp_path, strategy):
        cfg = write_config(tmp_path, L=1)
        run_dir = tmp_path / "run"
        assert run(["train", "--config", cfg, "--strategy", strategy]) == 0
        stored = kept_slices(run_dir)
        assert stored == {(0, 0), (1, 0)}     # the finals alone
        assert_run_holds_kept_slices(run_dir, tmp_path / "resaved.ckpt", stored)
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
