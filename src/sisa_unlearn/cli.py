"""Command-line entry point: plan -> train -> unlearn -> eval -> bench.

Configuration is one JSON document, read only by `RunConfig.from_file`,
which applies the `--seed`, `--out` and `--strategy` flags; every key
resolves as flag > config > default. Run directories are self-contained:
config copy, plan (a report no command reads back), the checkpoints the
store keeps, manifest, and reports, and `_write_run` is the one writer of
the manifest, which lists every checkpoint file the run directory keeps,
and of a removal's checkpoints.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .bench import BenchConfig, format_grid_table, run_benchmark_grid
from .checkpoint import (Checkpoint, CheckpointStore, LazyChain, kept_slices,
                         load_checkpoint, save_params)
from .data import SplitSpec
from .errors import IntegrityError, SisaError, UnknownClassError
from .evaluation import evaluate
from .files import write_json
from .partition import SEQUENTIAL_CLASS, make_plan, purge_class
from .pipeline import (BaselineModel, DataBundle, SisaSystem, cifar_bundle,
                       synthetic_bundle, train_baseline, train_sisa)
from .rng import RngState
from .training import ShardTrainResult, TrainConfig
from .unlearning import (BASELINE_FULL, STRATEGIES, run_unlearning, strategy_rule,
                         train_config_for)


def _int(value) -> int:
    if type(value) is int:          # a bool is not a JSON integer
        return value
    raise ValueError(value)


def _int_at_least(low: int):
    """A reader of a JSON integer no smaller than `low`."""
    def parse(value) -> int:
        if _int(value) >= low:
            return value
        raise ValueError(value)
    return parse


_positive_int = _int_at_least(1)


def _int_or_null(value):
    return None if value is None else _int(value)


def _number(value) -> float:
    if type(value) in (int, float):
        return float(value)
    raise ValueError(value)


def _fraction(value) -> float:
    if 0.0 <= _number(value) <= 1.0:
        return float(value)
    raise ValueError(value)


def _object(value) -> dict:
    if type(value) is dict:
        return value
    raise ValueError(value)


def _string(value) -> str:
    if type(value) is str:
        return value
    raise ValueError(value)


def _list_of(item, length=None):
    """A reader of a JSON list, `length` items long if given, whose every
    item `item` reads."""
    def parse(value) -> tuple:
        if type(value) is not list or length not in (None, len(value)):
            raise ValueError(value)
        return tuple(item(v) for v in value)
    return parse


_DATASET_KEYS = {
    "synthetic": {"kind", "n_per_class", "num_classes", "shape", "separation", "seed"},
    "cifar10": {"kind", "dir"},
}
_SPLIT_KEYS = {"train", "val", "test", "seed"}
# train-section keys and how each value is read
_TRAIN_KEYS = {"max_epochs_per_slice": _int, "patience": _int_or_null,
               "batch_size": _int, "learning_rate": _number}
# TrainConfig fields the train section leaves out, for train/unlearn/eval
_RUN_TRAIN_DEFAULTS = TrainConfig(max_epochs_per_slice=15)
_TOP_KEYS = {"dataset", "split", "K", "L", "strategy", "replay_ratio", "train",
             "seed", "out", "bench"}
# bench-section keys, each a BenchConfig field, and how each value is read
_BENCH_KEYS = {"setups": _list_of(_list_of(_positive_int, length=2)),
               "replay_ratios": _list_of(_fraction)}


def _reject_unknown(doc: dict, allowed, path: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config key(s) at {path}: {sorted(unknown)}")


def _read(doc: dict, key: str, parse, default, where: str = ""):
    """`parse(doc[key])`, or `default` when the key is absent. A value that
    `parse` refuses is a ValueError naming the key."""
    if key not in doc:
        return default
    try:
        return parse(doc[key])
    except (TypeError, ValueError):
        raise ValueError(f"bad value for config key {where}{key}: "
                         f"{doc[key]!r}") from None


def _train_config(train_doc: dict, defaults: TrainConfig, **fields) -> TrainConfig:
    """`defaults` overlaid with a config's train section, then with `fields`."""
    parsed = {k: _read(train_doc, k, _TRAIN_KEYS[k], None, "train.") for k in train_doc}
    return replace(defaults, **parsed, **fields)


@dataclass
class RunConfig:
    dataset: dict
    split: SplitSpec
    K: int = 2
    L: int = 3
    strategy: str = "sisa_scls_replay"
    replay_ratio: float = 0.3
    train: dict = field(default_factory=dict)
    seed: int = 0
    out: str = "run"
    bench: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path, *, seed=None, out=None, strategy=None) -> "RunConfig":
        """The config at `path`, with each flag that is not None applied
        over its key."""
        doc = json.loads(Path(path).read_text())
        _reject_unknown(doc, _TOP_KEYS, "top level")
        dataset = _read(doc, "dataset", _object, {"kind": "synthetic"})
        kind = _read(dataset, "kind", _string, "synthetic", "dataset.")
        if kind not in _DATASET_KEYS:
            raise ValueError(f"unknown dataset kind {kind!r}")
        _reject_unknown(dataset, _DATASET_KEYS[kind], "dataset")
        split_doc = _read(doc, "split", _object, {})
        _reject_unknown(split_doc, _SPLIT_KEYS, "split")
        train_doc = _read(doc, "train", _object, {})
        _reject_unknown(train_doc, _TRAIN_KEYS, "train")
        bench_doc = _read(doc, "bench", _object, {})
        _reject_unknown(bench_doc, _BENCH_KEYS, "bench")
        bench = {k: _read(bench_doc, k, _BENCH_KEYS[k], None, "bench.")
                 for k in bench_doc}
        if seed is None:
            seed = _read(doc, "seed", _int, cls.seed)
        spec = SplitSpec(_read(split_doc, "train", _number, 0.7, "split."),
                         _read(split_doc, "val", _number, 0.1, "split."),
                         _read(split_doc, "test", _number, 0.2, "split."),
                         seed=_read(split_doc, "seed", _int, seed, "split."))
        doc_strategy = _read(doc, "strategy", _string, cls.strategy)
        strategy_rule(doc_strategy)     # refused even when the flag overrides it
        return cls(
            dataset={**dataset, "kind": kind}, split=spec,
            K=_read(doc, "K", _positive_int, cls.K),
            L=_read(doc, "L", _positive_int, cls.L),
            strategy=strategy or doc_strategy,
            replay_ratio=_read(doc, "replay_ratio", _number, cls.replay_ratio),
            train=train_doc, seed=seed,
            out=str(out or _read(doc, "out", _string, cls.out)),
            bench=bench,
        )

    @property
    def policy(self) -> str:
        """The plan policy the strategy requires; the baseline trains on no
        plan, and `plan` writes it a sequential one."""
        return strategy_rule(self.strategy).policy or SEQUENTIAL_CLASS

    def train_config(self) -> TrainConfig:
        return train_config_for(self.strategy, _train_config(
            self.train, _RUN_TRAIN_DEFAULTS, replay_ratio=self.replay_ratio,
            seed=self.seed))

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "split": {"train": self.split.train_frac, "val": self.split.val_frac,
                      "test": self.split.test_frac, "seed": self.split.seed},
            "K": self.K, "L": self.L, "strategy": self.strategy,
            "replay_ratio": self.replay_ratio,
            "train": self.train, "seed": self.seed, "out": self.out,
            "bench": self.bench,
        }


def build_bundle(cfg: RunConfig) -> DataBundle:
    """The data every command that reads `cfg` trains and tests on."""
    ds_cfg = cfg.dataset
    if ds_cfg["kind"] == "cifar10":
        if "dir" not in ds_cfg:
            raise ValueError("config key dataset.dir is required by kind cifar10")
        return cifar_bundle(ds_cfg["dir"], cfg.split)
    return synthetic_bundle(
        n_per_class=_read(ds_cfg, "n_per_class", _positive_int, 200, "dataset."),
        num_classes=_read(ds_cfg, "num_classes", _int_at_least(2), 10, "dataset."),
        shape=_read(ds_cfg, "shape", _list_of(_positive_int), (16,), "dataset."),
        separation=_read(ds_cfg, "separation", _number, 3.0, "dataset."),
        seed=_read(ds_cfg, "seed", _int, cfg.seed, "dataset."),
        split_spec=cfg.split,
    )


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _write_run(store: CheckpointStore, manifest: dict, target,
               tcfg: TrainConfig, checkpoints: Iterable[Checkpoint] = ()) -> None:
    """Write the deployed target, then `manifest.json`, the run directory's
    one pointer into its files and its one commit point, then cut the run
    directory to what it names. Every checkpoint path in it is the store's,
    relative to the run directory.

    A baseline target writes its checkpoint; after the manifest, the store
    is cut to it (`CheckpointStore.retain`) and an earlier SISA run's
    `plan.json` goes. A SISA system saves `checkpoints`, a removal's
    retrained slices, as the store keeps them (`CheckpointStore.save_chain`;
    `pipeline.train_sisa` saved a trained system's), then its plan, a
    report no command reads back, then the manifest: per shard, the path
    of each slice `kept_slices` names and null for every other, the final
    last. Then the store is cut.

    Nothing is deleted before the manifest swap. A crash before it leaves
    every file the old manifest names, the rollback point among them, with
    only the retrained slices and `plan.json` overwritten, and repeating
    the `unlearn` repairs the directory, as `_load_run` rebuilds the plan
    from the old manifest's removed classes. A crash after it leaves files
    that the next command's cut deletes.
    """
    def rel(path: Path) -> str:
        return path.relative_to(store.root).as_posix()

    if isinstance(target, BaselineModel):
        save_params(target.params, store.baseline_path(), tcfg.adam(),
                    RngState(tcfg.seed))
        manifest["baseline"] = rel(store.baseline_path())
        write_json(store.root / "manifest.json", manifest)   # atomic swap
        store.retain(None)
        (store.root / "plan.json").unlink(missing_ok=True)
        return
    plan = target.plan
    store.save_chain(checkpoints, plan)
    plan.save(store.root / "plan.json")
    kept = kept_slices(plan)
    manifest["constituents"] = [
        {"shard_id": k, "output_classes": list(r.head),
         "checkpoints": [rel(store.slice_path(k, ell)) if ell in kept[k] else None
                         for ell in range(plan.L)]}
        for k, r in sorted(target.shard_results.items())]
    gated = target.gating is not None
    manifest["gating"] = rel(store.gating_path()) if gated else None
    write_json(store.root / "manifest.json", manifest)   # atomic swap
    store.retain(plan, gated)


# --- commands ----------------------------------------------------------------

def cmd_plan(args) -> int:
    cfg = RunConfig.from_file(args.config, seed=args.seed, out=args.out)
    bundle = build_bundle(cfg)
    plan = make_plan(bundle.train.labels, cfg.K, cfg.L, cfg.policy)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    plan.save(out / "plan.json")
    _say(args, f"plan written to {out / 'plan.json'} "
               f"(imbalance ratio {plan.imbalance_ratio:.4f})")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config, seed=args.seed, out=args.out,
                              strategy=args.strategy)
    bundle = build_bundle(cfg)
    tcfg = cfg.train_config()
    out = Path(cfg.out)
    # an earlier run's manifest would name the files this train overwrites:
    # until the new one is swapped in, the directory is no run
    (out / "manifest.json").unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    store = CheckpointStore(out)
    write_json(out / "config.json", cfg.to_dict())

    manifest: dict = {
        "strategy": cfg.strategy,
        "class_names": bundle.class_names,
        "removed_classes": [],
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if cfg.strategy == BASELINE_FULL:
        target = train_baseline(bundle, tcfg)
        model = target.params
    else:
        plan = make_plan(bundle.train.labels, cfg.K, cfg.L, cfg.policy)
        target = train_sisa(bundle, plan, tcfg, store=store,
                            gated=strategy_rule(cfg.strategy).gated)
        model = target.ensemble
    manifest["train_seconds"] = target.train_seconds
    _write_run(store, manifest, target, tcfg)
    report = evaluate(model, bundle.test,
                      config_tag={"K": cfg.K, "L": cfg.L, "strategy": cfg.strategy,
                                  "replay_ratio": cfg.replay_ratio})
    report.train_seconds = target.train_seconds
    # an earlier run's reports describe removals and evaluations of another model
    shutil.rmtree(out / "reports", ignore_errors=True)
    write_json(out / "reports" / "before.json", report.to_json_dict())
    _say(args, f"trained {cfg.strategy} -> {out} "
               f"(test accuracy {report.accuracy:.4f})")
    return 0


def _load_run(run_dir: Path):
    """The run in `run_dir` as its config and manifest define it: the
    checkpoints the manifest names, and the plan rebuilt by `make_plan` over
    the config's data, then `purge_class` for each removed class.
    `plan.json` is never read, so the manifest swap alone commits a removal.
    A directory without `manifest.json` is an `IntegrityError`."""
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except FileNotFoundError:
        raise IntegrityError(f"{run_dir} holds no manifest.json: it is no run "
                             "directory, or a train into it did not finish") from None
    cfg = RunConfig.from_file(run_dir / "config.json")
    strategy = manifest["strategy"]
    gated = strategy_rule(strategy).gated
    if bool(manifest.get("gating")) != gated:
        raise IntegrityError(
            f"manifest.json key 'gating' is {manifest.get('gating')!r}, but strategy "
            f"{strategy} {'deploys a' if gated else 'has no'} gating router")
    bundle = build_bundle(cfg)
    store = CheckpointStore(run_dir)
    tcfg = cfg.train_config()
    removed = tuple(manifest["removed_classes"])
    if strategy == BASELINE_FULL:
        params = load_checkpoint(run_dir / manifest["baseline"]).params
        target = BaselineModel(params=params, train_seconds=0.0, removed_classes=removed)
        return manifest, bundle, tcfg, store, target
    plan = make_plan(bundle.train.labels, cfg.K, cfg.L, cfg.policy)
    for class_id in removed:
        plan = purge_class(plan, class_id, bundle.train.labels)
    shard_results: dict[int, ShardTrainResult] = {}
    for entry in manifest["constituents"]:
        k = entry["shard_id"]
        # loaded as read: eval reads the finals; unlearn reads the rollback
        # point and the finals of the other shards, not the owner's. A null
        # entry is a slice the store does not hold.
        ckpts = LazyChain((None if rel is None else run_dir / rel
                           for rel in entry["checkpoints"]), k)
        shard_results[k] = ShardTrainResult(
            shard_id=k, head=tuple(entry["output_classes"]), checkpoints=ckpts,
            seconds_per_slice=[], slices_trained=len(ckpts))
    gating = load_checkpoint(run_dir / manifest["gating"]).params if gated else None
    # no store: a removal writes nothing, and `_write_run` writes its result
    system = SisaSystem(plan=plan, shard_results=shard_results,
                        num_classes=bundle.num_classes, gating=gating,
                        removed_classes=removed)
    return manifest, bundle, tcfg, store, system


def cmd_unlearn(args) -> int:
    run_dir = Path(args.run_dir)
    manifest, bundle, tcfg, store, target = _load_run(run_dir)
    names = manifest["class_names"]
    if args.class_name not in names:
        raise UnknownClassError(
            f"unknown class {args.class_name!r}; valid names: {names}")
    class_id = names.index(args.class_name)
    if class_id in manifest["removed_classes"]:
        raise UnknownClassError(f"class {args.class_name!r} already removed")

    new_target, outcome = run_unlearning(manifest["strategy"], target, bundle,
                                         class_id, tcfg)
    manifest["removed_classes"] = sorted(new_target.removed_classes)
    retrained = ()
    if outcome.shard_id is not None and outcome.first_slice is not None:
        # the owning shard's chain from its first retrained slice on
        chain = new_target.shard_results[outcome.shard_id].checkpoints
        retrained = chain[outcome.first_slice - 1:]
    _write_run(store, manifest, new_target, tcfg, retrained)
    write_json(run_dir / "reports" / f"unlearn_{args.class_name}.json",
               outcome.to_json_dict())
    _say(args, f"unlearned {args.class_name!r}: verdict "
               f"{'pass' if outcome.verdict else 'fail'}, "
               f"{outcome.slices_retrained} slice(s) retrained in "
               f"{outcome.seconds:.2f}s")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    manifest, bundle, _tcfg, _store, target = _load_run(run_dir)
    model = target.params if isinstance(target, BaselineModel) else target.ensemble
    report = evaluate(model, bundle.test,
                      config_tag={"strategy": manifest["strategy"]})
    write_json(run_dir / "reports" / "eval.json", report.to_json_dict())
    _say(args, f"test accuracy {report.accuracy:.4f} "
               f"({len(bundle.test)} samples, "
               f"removed classes: {manifest['removed_classes']})")
    return 0


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = RunConfig.from_file(args.config, seed=args.seed, out=args.out)
    bcfg = BenchConfig(**cfg.bench, seeds=tuple(range(cfg.seed, cfg.seed + args.seeds)))
    bcfg = replace(bcfg, train=_train_config(cfg.train, bcfg.train,
                                             replay_ratio=cfg.replay_ratio))
    out = Path(cfg.out)
    # seed row s trains and tests on exactly what `train --seed s` loads
    report = run_benchmark_grid(
        bcfg, lambda s: build_bundle(RunConfig.from_file(args.config, seed=s)),
        out_dir=out)
    _say(args, format_grid_table(report))
    _say(args, f"grid written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sisa-unlearn",
        description="Train sharded ensembles and remove whole classes from them.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        # --quiet is also accepted after the subcommand; SUPPRESS keeps the
        # subparser from clobbering a --quiet given before it
        p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="suppress progress output")
        if config:
            p.add_argument("--config", required=True, help="path to the JSON config")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("plan", help="write the partition plan JSON")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="train checkpoints into a run directory")
    common(p)
    p.add_argument("--strategy", default=None, choices=STRATEGIES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("unlearn", help="remove one class from a trained run")
    common(p, config=False)
    p.add_argument("run_dir", help="run directory produced by train")
    p.add_argument("--class", dest="class_name", required=True,
                   help="class name to remove")
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("eval", help="evaluate the current run on the test split")
    common(p, config=False)
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the benchmark grid")
    common(p)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of seeds (rows per cell)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SisaError, ValueError, OSError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
