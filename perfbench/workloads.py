"""The three benchmark workloads, their seeded inputs and correctness checks.

Each workload runs in one process with one closed-loop client: the next
request is sent only after the previous one has returned. Operations are
timed here, around calls into the public ``sisa_unlearn`` API or the CLI's
``main``; the benchmark's own checks run outside the timed regions.

A run is a few set-ups followed by measure *cycles* until the time budget
is spent. Every cycle of a run does the same work (same classes, same
order), so medians are taken over a fixed mix of removals and the traced
run's work counters repeat exactly from cycle to cycle.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sisa_unlearn as su
from sisa_unlearn import cli
from sisa_unlearn import ensemble as ens_mod
from sisa_unlearn.checkpoint import CheckpointStore


@dataclass(frozen=True)
class Scale:
    n_per_class: int        # synthetic samples per class / CIFAR-format images per class
    epochs: int
    setups: int
    min_cycles: int
    queries: int            # query batches (eval commands on cnn_cli) per removal
    query_rows: int         # rows per query batch (the test split on cnn_cli)


SCALES = {
    "full": {
        "mlp_rollback": Scale(1000, 6, 5, 4, 10, 1024),
        "gated_serve": Scale(1000, 10, 3, 1, 399, 1024),
        "cnn_cli": Scale(30, 5, 3, 2, 2, 0),
    },
    "tiny": {
        "mlp_rollback": Scale(60, 1, 1, 1, 2, 32),
        "gated_serve": Scale(40, 1, 1, 1, 5, 32),
        "cnn_cli": Scale(6, 1, 1, 1, 1, 0),
    },
}


class Recorder:
    """Timed samples, operation counts and check failures of one run."""

    def __init__(self, tracer, workload: str) -> None:
        self.tracer = tracer
        self.workload = workload
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.counts = {"setup": 0, "measure": 0}     # set-ups and cycles done
        self.needed: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.last_op = ""
        self.queries = 0
        self.query_rows = 0
        self.removals = 0
        self.slots = 0                               # K * L of the workload

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @contextmanager
    def op(self, kind: str, op_id, phase: str, metrics: tuple[str, ...] = ()):
        """Time one request: the block holds the program call and nothing else."""
        self.attempted += 1
        self.last_op = f"{kind}:{op_id}"
        t0 = time.perf_counter()
        try:
            with self.tracer.op(kind, op_id, phase):
                yield
        except Exception:
            self.failed_ops.add(self.last_op)
            raise
        for metric in metrics:
            self.samples[metric].append(time.perf_counter() - t0)

    def check(self, ok: bool, message: str) -> None:
        """A failed check marks the last operation failed; the run goes on."""
        if not ok:
            self.failed_ops.add(self.last_op)
            print(f"CHECK FAILED [{self.last_op}] {message}", file=sys.stderr, flush=True)


def digest_system(system) -> str:
    """blake2b over every deployed constituent's tensors (and the router)."""
    h = hashlib.blake2b(digest_size=16)
    ens = system.ensemble
    models = sorted(zip(ens.shard_ids, ens.constituents), key=lambda p: p[0])
    if ens.gating is not None:
        models.append((-1, ens.gating))
    for shard_id, params in models:
        h.update(f"{shard_id}:{params.output_classes}".encode())
        for name in sorted(params.tensors):
            h.update(name.encode())
            h.update(np.ascontiguousarray(params.tensors[name]).tobytes())
    return h.hexdigest()


def digest_run_dir(run_dir: Path) -> str:
    """blake2b over the final checkpoint file of every deployed constituent."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    h = hashlib.blake2b(digest_size=16)
    for entry in manifest["constituents"]:
        h.update(f"{entry['shard_id']}:{entry['output_classes']}".encode())
        h.update((run_dir / entry["checkpoints"][-1]).read_bytes())
    return h.hexdigest()


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class DigestLog:
    """First digest seen per key; a later different one is a determinism failure."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.seen: dict[str, str] = {}

    def record(self, key: str, digest: str) -> None:
        if key not in self.seen:
            self.seen[key] = digest
            print(f"digest {key} {digest}", flush=True)
        first = self.seen[key]
        self.rec.check(first == digest,
                       f"nondeterministic result for {key}: {first} then {digest}")


# --- seeded inputs --------------------------------------------------------------

def blobs(seed: int, n_per_class: int, num_classes: int, dim: int = 16,
          separation: float = 3.0) -> su.LabeledDataset:
    """Unit-variance Gaussian blobs around fixed class centers.

    Centers lie on the axes when there are enough of them, else on fixed
    random unit directions. Only the samples depend on the seed, so the
    task's difficulty (and the accuracy metrics) does not.
    """
    if num_classes <= dim:
        centers = np.eye(num_classes, dim)
    else:
        centers = np.random.default_rng([num_classes, dim]).standard_normal((num_classes, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    g = np.random.default_rng([seed, num_classes, n_per_class])
    labels = np.repeat(np.arange(num_classes), n_per_class)
    inputs = (separation * centers[labels]
              + g.standard_normal((len(labels), dim))).astype(np.float32)
    return su.LabeledDataset(inputs=inputs, labels=labels,
                             class_names=[f"class_{c}" for c in range(num_classes)])


def write_cifar_batches(seed: int, n_per_class: int, out_dir: Path) -> None:
    """CIFAR-format records (1 label byte + 3072 pixel bytes), shuffled.

    Class c brightens one 10x6 patch of a noisy grey image, at a position
    unique to the class, so a small CNN separates the classes in a few epochs.
    """
    g = np.random.default_rng([seed, 3073])
    labels = np.repeat(np.arange(10), n_per_class)
    g.shuffle(labels)
    pixels = g.normal(96.0, 40.0, (len(labels), 3, 32, 32))
    for i, c in enumerate(labels):
        row, col = divmod(int(c), 5)
        pixels[i, :, 4 + 14 * row:14 + 14 * row, 1 + 6 * col:7 + 6 * col] += 128.0
    pixels = np.clip(pixels, 0, 255).astype(np.uint8).reshape(len(labels), -1)
    records = np.concatenate([labels[:, None].astype(np.uint8), pixels], axis=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "data_batch_1.bin").write_bytes(records.tobytes())


def query_rows(seed: int, n_queries: int, rows: int, pool: int) -> np.ndarray:
    return np.random.default_rng([seed, 7]).integers(0, pool, (n_queries, rows))


# --- shared steps -----------------------------------------------------------------

def serve_queries(rec: Recorder, model, x: np.ndarray, picks: np.ndarray) -> None:
    """Send query batches one after another and check every answer."""
    allowed = np.asarray(sorted(model.covered_classes()))
    for rows in picks:
        xb = x[rows]
        with rec.op("query", rec.queries, "measure", ("query_s",)):
            labels = ens_mod.predict_labels(model, xb)
        rec.queries += 1
        rec.query_rows += len(rows)
        rec.check(bool(np.isin(labels, allowed).all()),
                  "a query was answered with a class outside the deployed heads")


def check_removal(rec: Recorder, system, outcome, removed) -> None:
    rec.check(bool(outcome.verdict),
              f"removal of class {outcome.class_id}: verdict failed")
    left = system.ensemble.covered_classes() & set(removed)
    rec.check(not left, f"removed classes {sorted(left)} still in a deployed head")


def finish(rec: Recorder, accuracy_before: float, accuracy_after: list[float],
           disk_root: Path) -> None:
    rec.values["accuracy_before"] = accuracy_before
    rec.values["accuracy_after"] = float(np.mean(accuracy_after))
    rec.values["disk_bytes"] = float(dir_bytes(disk_root))


def measuring(rec: Recorder, scale: Scale, seconds: float, setup):
    """Whole cycles: the minimum, then more while another fits the budget.

    `setup(i)` times set-up i. The first runs before this; the others are
    spread over the cycles, so `setup_s` samples the same stretch of time
    as the other metrics rather than the run's first seconds.
    """
    start = time.perf_counter()
    while True:
        done = rec.counts["measure"]
        elapsed = time.perf_counter() - start
        if done >= scale.min_cycles and elapsed + (elapsed / done if done else 0) > seconds:
            break
        if done:
            due = 1 + int((scale.setups - 1) * min(elapsed / seconds, 1.0)) \
                if seconds > 0 else scale.setups
            while rec.counts["setup"] < due:
                setup(rec.counts["setup"])
        yield done
        rec.counts["measure"] += 1
    while rec.counts["setup"] < scale.setups:
        setup(rec.counts["setup"])


def split_bundle(ds: su.LabeledDataset, seed: int) -> su.DataBundle:
    train, val, test = su.split(ds, su.SplitSpec(0.7, 0.1, 0.2, seed=seed))
    return su.DataBundle(train=train, val=val, test=test)


def mlp_config(seed: int, scale: Scale) -> su.TrainConfig:
    """The acceptance suite's shared training budget."""
    return su.TrainConfig(max_epochs_per_slice=scale.epochs, patience=None,
                          replay_ratio=0.3, batch_size=32, seed=seed)


def synthetic_setup(rec: Recorder, digests, ds, cfg, K: int, L: int,
                    work: Path, gated: bool):
    """Set-up i: split, plan and train with an on-disk store.

    Set-up 0 is the deployed system; later ones are timed, checked for the
    same digest and thrown away.
    """
    def setup(i: int):
        store_dir = work / f"store_{i}"
        with rec.op("setup", i, "setup", ("setup_s",)):
            bundle = split_bundle(ds, cfg.seed)
            plan = su.make_plan(bundle.train.labels, K, L, su.SEQUENTIAL_CLASS)
            system = su.train_sisa(bundle, plan, cfg, gated=gated,
                                   store=CheckpointStore(store_dir))
        rec.counts["setup"] += 1
        digests.record("setup", digest_system(system))
        if i:
            shutil.rmtree(store_dir)
        return bundle, system, store_dir
    return setup


# --- workloads --------------------------------------------------------------------

def mlp_rollback(rec: Recorder, seed: int, seconds: float, scale: Scale, work: Path):
    """Acceptance configuration; every class removed independently, per round."""
    K, L = 2, 5
    rec.slots = K * L
    cfg = mlp_config(seed, scale)
    digests = DigestLog(rec)
    setup = synthetic_setup(rec, digests, blobs(seed, scale.n_per_class, 10),
                            cfg, K, L, work, gated=False)
    bundle, system, store_dir = setup(0)
    accuracy_before = su.evaluate(system.ensemble, bundle.test).accuracy

    order = [int(c) for c in np.random.default_rng([seed, 1]).permutation(10)]
    picks = query_rows(seed, scale.queries, scale.query_rows, len(bundle.test))
    accuracy_after = []
    for _ in measuring(rec, scale, seconds, setup):
        for c in order:
            with rec.op("removal", rec.removals, "measure", ("unlearn_s",)):
                new, outcome = su.run_unlearning("sisa_scls_replay", system, bundle, c, cfg)
            rec.removals += 1
            check_removal(rec, new, outcome, [c])
            digests.record(f"remove_{c}", digest_system(new))
            accuracy_after.append(outcome.report.accuracy)
            with rec.op("eval", rec.removals, "measure", ("eval_s",)):
                su.evaluate(new.ensemble, bundle.test)
            serve_queries(rec, new.ensemble, bundle.test.inputs, picks)
    finish(rec, accuracy_before, accuracy_after, store_dir)


def gated_serve(rec: Recorder, seed: int, seconds: float, scale: Scale, work: Path):
    """A deployed gated system answering queries; every N-th request is a removal."""
    K, L, C = 5, 5, 20
    rec.slots = K * L
    cfg = su.TrainConfig(max_epochs_per_slice=scale.epochs, patience=None,
                         replay_ratio=0.3, batch_size=64, seed=seed)
    digests = DigestLog(rec)
    setup = synthetic_setup(rec, digests, blobs(seed, scale.n_per_class, C),
                            cfg, K, L, work, gated=True)
    bundle, deployed, store_dir = setup(0)
    accuracy_before = su.evaluate(deployed.ensemble, bundle.test).accuracy

    # chained removals never leave fewer than two classes deployed
    chain = [int(c) for c in np.random.default_rng([seed, 1]).permutation(C)[:C - 2]]
    picks = query_rows(seed, scale.queries, scale.query_rows, len(bundle.test))
    accuracy_after = []
    for _ in measuring(rec, scale, seconds, setup):
        system = deployed
        for step, c in enumerate(chain):
            serve_queries(rec, system.ensemble, bundle.test.inputs, picks)
            with rec.op("removal", rec.removals, "measure", ("unlearn_s",)):
                system, outcome = su.run_unlearning("sisa_gated", system, bundle, c, cfg)
            rec.removals += 1
            check_removal(rec, system, outcome, chain[:step + 1])
            digests.record(f"chain_{step}_remove_{c}", digest_system(system))
            accuracy_after.append(outcome.report.accuracy)
            with rec.op("eval", rec.removals, "measure", ("eval_s",)):
                su.evaluate(system.ensemble, bundle.test)
    finish(rec, accuracy_before, accuracy_after, store_dir)


def cnn_cli(rec: Recorder, seed: int, seconds: float, scale: Scale, work: Path):
    """``sisa-unlearn train``; then per removal one ``unlearn`` and two ``eval``
    commands, on CIFAR-format batches."""
    K, L = 2, 2
    rec.slots = K * L
    data_dir = work / "cifar"
    write_cifar_batches(seed, scale.n_per_class, data_dir)
    config = work / "config.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "cifar10", "dir": str(data_dir)},
        "K": K, "L": L, "strategy": "sisa_scls_replay", "replay_ratio": 0.3,
        "train": {"max_epochs_per_slice": scale.epochs, "patience": None,
                  "batch_size": 8},
        "seed": seed,
    }))
    names = list(su.CIFAR10_CLASSES)
    digests = DigestLog(rec)

    def setup(i: int) -> None:
        run_dir = work / f"run_{i}"
        with rec.op("setup", i, "setup", ("setup_s",)):
            code = cli.main(["--quiet", "train", "--config", str(config),
                             "--out", str(run_dir)])
        rec.counts["setup"] += 1
        rec.check(code == 0, f"train exited with {code}")
        digests.record("setup", digest_run_dir(run_dir))
        if i:
            shutil.rmtree(run_dir)

    setup(0)
    pristine = work / "run_0"
    accuracy_before = json.loads((pristine / "reports" / "before.json").read_text())["accuracy"]

    # One removal that rolls its shard back to the start (every slice
    # retrained) and one from the other shard that retrains only the last
    # slice: a fixed mix, so the median does not depend on the class drawn.
    meta = json.loads((pristine / "plan.json").read_text())["metadata"]
    g = np.random.default_rng([seed, 1])
    first = int(g.choice([int(c) for c, m in meta.items() if m["first_slice"] == 0]))
    owner = meta[str(first)]["shard_id"]
    last = int(g.choice([int(c) for c, m in meta.items()
                         if m["first_slice"] == L - 1 and m["shard_id"] != owner]))
    chain = [first, last] if g.random() < 0.5 else [last, first]
    accuracy_after = []
    run_dir = work / "run"
    for _ in measuring(rec, scale, seconds, setup):
        if run_dir.exists():
            shutil.rmtree(run_dir)
        shutil.copytree(pristine, run_dir)
        for step, c in enumerate(chain):
            plan = json.loads((run_dir / "plan.json").read_text())
            # the owning shard's rollback checkpoint, when there is one
            rec.needed["measure"] += plan["metadata"][str(c)]["first_slice"] > 0
            with rec.op("removal", rec.removals, "measure", ("unlearn_s",)):
                code = cli.main(["--quiet", "unlearn", str(run_dir), "--class", names[c]])
            rec.removals += 1
            rec.check(code == 0, f"unlearn exited with {code}")
            report = json.loads(
                (run_dir / "reports" / f"unlearn_{names[c]}.json").read_text())
            rec.check(report["verdict"] == "pass",
                      f"removal of class {c}: verdict {report['verdict']}")
            manifest = json.loads((run_dir / "manifest.json").read_text())
            heads = {h for e in manifest["constituents"] for h in e["output_classes"]}
            left = heads & set(chain[:step + 1])
            rec.check(not left, f"removed classes {sorted(left)} still in a deployed head")
            digests.record(f"chain_{step}_remove_{c}", digest_run_dir(run_dir))
            accuracy_after.append(report["accuracy_after"])
            # the CLI's read request is `eval`: it answers the whole test split
            for _ in range(scale.queries):
                rec.needed["measure"] += len(manifest["constituents"])   # the K finals
                with rec.op("eval", rec.queries, "measure", ("eval_s", "query_s")):
                    code = cli.main(["--quiet", "eval", str(run_dir)])
                rec.queries += 1
                rec.check(code == 0, f"eval exited with {code}")
                confusion = np.asarray(json.loads(
                    (run_dir / "reports" / "eval.json").read_text())["confusion_matrix"])
                rec.query_rows += int(confusion.sum())
                rec.check(int(np.delete(confusion, sorted(heads), axis=1).sum()) == 0,
                          "eval predicted a class outside the deployed heads")
    finish(rec, accuracy_before, accuracy_after, run_dir)


RUNNERS = {"mlp_rollback": mlp_rollback, "gated_serve": gated_serve, "cnn_cli": cnn_cli}


def work_ratio_probe(seed: int, scale: Scale) -> dict[str, float]:
    """Sample-gradient evaluations per removal for three strategies.

    Runs at the mlp_rollback configuration, removes every class from each
    strategy's trained system, and returns the mean number of rows that went
    through ``nn.loss_and_grad`` per removal, plus the seconds spent in
    ``train_baseline``. Used only by the traced run.
    """
    from tracing import PROBE_ONLY, Tracer
    K, L = 2, 5
    bundle = split_bundle(blobs(seed, scale.n_per_class, 10), seed)
    labels = bundle.train.labels
    cfg = mlp_config(seed, scale)
    builders = {
        "baseline_full": lambda: su.train_baseline(bundle, cfg),
        "sisa_balanced": lambda: su.train_sisa(
            bundle, su.make_plan(labels, K, L, su.BALANCED), cfg),
        "sisa_scls_replay": lambda: su.train_sisa(
            bundle, su.make_plan(labels, K, L, su.SEQUENTIAL_CLASS), cfg),
    }
    out = {}
    with Tracer() as tracer:
        for strategy, build in builders.items():
            target = build()
            first = len(tracer.spans)
            for c in range(10):
                su.run_unlearning(strategy, target, bundle, c, cfg)
            out[strategy] = sum(s.counters.get("rows", 0) for s in tracer.spans[first:]
                                if s.name == "nn.loss_and_grad") / 10
    missing = tracer.check_coverage(PROBE_ONLY | {"nn.loss_and_grad"})
    if missing:
        raise RuntimeError(f"work-ratio probe: wrappers that never fired: {missing}")
    out["train_baseline_s"] = sum(s.duration for s in tracer.spans
                                  if s.name == "pipeline.train_baseline")
    return out
