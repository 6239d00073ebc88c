"""Outside-in tracing: wrap the package's public functions from benchmark code.

The traced run patches each wrapped function at every ``sisa_unlearn`` module
that holds a reference to it (functions are imported by name across modules,
e.g. ``training`` looks ``loss_and_grad`` up in its own namespace), records
one span per call plus per-call counters, and restores every original on
exit so untraced runs execute unmodified code.

Spans are kept in memory: (name, layer, start, end, parent index, cause id,
counters). The cause id names the benchmark operation that caused the call
(a set-up, removal, query batch or CLI command); calls made outside any
operation (the benchmark's own checks) are recorded but excluded from the
per-layer numbers.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("data", "partition", "nn", "training", "checkpoint", "ensemble",
          "unlearning", "evaluation", "pipeline", "cli")


def _rows(arg_index):
    return lambda args, kwargs, result: {"rows": len(args[arg_index])}


def _file_bytes(arg_index):
    return lambda args, kwargs, result: {"bytes": Path(args[arg_index]).stat().st_size}


# (module, function, span name, counter extractor). The span name's first
# component is the layer.
WRAPPED = (
    ("data", "load_cifar10", "data.load_cifar10",
     lambda a, k, r: {"rows": len(r), "bytes": len(r) * 3073}),
    ("data", "split", "data.split", None),
    ("data", "channel_stats", "data.channel_stats", None),
    ("data", "normalize", "data.normalize", None),
    ("partition", "make_plan", "partition.make_plan", None),
    ("partition", "purge_class", "partition.purge_class", None),
    ("nn", "loss_and_grad", "nn.loss_and_grad", _rows(1)),
    ("nn", "adam_step", "nn.adam_step", None),
    ("nn", "mean_loss", "nn.mean_loss", _rows(1)),
    ("nn", "forward_batched", "nn.forward_batched", _rows(1)),
    ("nn", "predict_local", "nn.predict_local", _rows(1)),
    ("nn", "drop_output_classes", "nn.drop_output_classes", None),
    ("training", "fit", "training.fit", None),
    ("training", "train_shard", "training.train_shard",
     lambda a, k, r: {"slices": r.slices_trained}),
    ("training", "sample_replay", "training.sample_replay", None),
    ("training", "train_model", "training.train_model", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _file_bytes(1)),
    ("checkpoint", "load_checkpoint", "checkpoint.load", _file_bytes(0)),
    ("checkpoint", "fnv1a64", "checkpoint.fnv1a64",
     lambda a, k, r: {"bytes": len(a[0])}),
    ("ensemble", "gated_predict_batch", "ensemble.gated_predict_batch", None),
    ("ensemble", "aggregate_predict_batch", "ensemble.aggregate_predict_batch", None),
    ("ensemble", "train_gating", "ensemble.train_gating", None),
    ("unlearning", "run_unlearning", "unlearning.run_unlearning",
     lambda a, k, r: {"slices": r[1].slices_retrained}),
    ("unlearning", "verify_exact", "unlearning.verify_exact", _rows(1)),
    ("evaluation", "evaluate", "evaluation.evaluate", _rows(1)),
    ("pipeline", "train_sisa", "pipeline.train_sisa", None),
    ("pipeline", "train_baseline", "pipeline.train_baseline", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_unlearn", "cli.unlearn", None),
    ("cli", "cmd_eval", "cli.eval", None),
)

# Ensemble inference reads its forward counts from the ensemble's own
# InferenceStats, before and after the call.
_STATS_SPANS = {"ensemble.gated_predict_batch", "ensemble.aggregate_predict_batch"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    cause: str | None = None
    counters: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class NullTracer:
    """Untraced runs: operations are timed by the caller, nothing is patched."""

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> None:
        pass

    @contextmanager
    def op(self, kind: str, op_id, phase: str):
        yield


class Tracer:
    """Span recorder; use as a context manager to patch and restore."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[Span] = []
        self.fired: dict[str, int] = {}
        self._stack: list[int] = []
        self._cause: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # --- operations (the benchmark's own requests) --------------------------

    @contextmanager
    def op(self, kind: str, op_id, phase: str):
        span = Span(name=f"op.{kind}", start=time.perf_counter(),
                    cause=f"{phase}:{kind}:{op_id}")
        self._cause = span.cause
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            self._cause = None
            self.ops.append(span)

    # --- patching -------------------------------------------------------------

    def _wrap(self, original, name: str, extract):
        spans, stack, fired = self.spans, self._stack, self.fired
        tracer = self
        with_stats = name in _STATS_SPANS

        def wrapper(*args, **kwargs):
            span = Span(name=name, start=0.0,
                        parent=stack[-1] if stack else None,
                        cause=tracer._cause)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            if with_stats:
                stats = args[0].stats
                c0, g0 = stats.constituent_forwards, stats.gating_forwards
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_time += span.duration
            fired[name] = fired.get(name, 0) + 1
            if extract is not None:
                span.counters = extract(args, kwargs, result)
            if with_stats:
                span.counters = {
                    "rows": len(args[1]),
                    "constituent_forwards": stats.constituent_forwards - c0,
                    "gating_forwards": stats.gating_forwards - g0,
                }
            return result

        wrapper.__wrapped__ = original
        wrapper.span_name = name
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def __enter__(self) -> "Tracer":
        import sisa_unlearn  # noqa: F401  (loads every submodule)
        import sisa_unlearn.cli  # noqa: F401
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sisa_unlearn" or n.startswith("sisa_unlearn.")]
        for mod_name, func_name, span_name, extract in WRAPPED:
            home = sys.modules[f"sisa_unlearn.{mod_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(original, span_name, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def check_coverage(self, expected) -> list[str]:
        """Span names expected for the workload that never fired."""
        return sorted(n for n in expected if not self.fired.get(n))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "cause": s.cause,
                    "self_s": s.self_time, "counters": s.counters,
                }) + "\n")


def wrapper_cost(n: int = 20000) -> float:
    """Seconds one traced call adds, measured on a wrapped no-op."""
    tracer = Tracer()

    def noop(*args):
        return None

    wrapped = tracer._wrap(noop, "bench.noop", None)
    with tracer.op("calibrate", 0, "calibrate"):
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped(None)
        traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            noop(None)
        plain = time.perf_counter() - t0
    return max(traced - plain, 0.0) / n


# --- per-layer report ---------------------------------------------------------------

# Wrapped spans a workload does not reach; every other one must fire.
NOT_EXERCISED = {
    "mlp_rollback": {"data.load_cifar10", "data.channel_stats", "data.normalize",
                     "nn.predict_local", "checkpoint.load",
                     "ensemble.gated_predict_batch", "ensemble.train_gating",
                     "cli.train", "cli.unlearn", "cli.eval"},
    "gated_serve": {"data.load_cifar10", "data.channel_stats", "data.normalize",
                    "checkpoint.load", "ensemble.aggregate_predict_batch",
                    "cli.train", "cli.unlearn", "cli.eval"},
    "cnn_cli": {"nn.predict_local", "ensemble.gated_predict_batch",
                "ensemble.train_gating"},
}
# reached only by the work-ratio probe, which checks them itself
PROBE_ONLY = {"training.train_model", "pipeline.train_baseline"}


def expected_spans(workload: str) -> set[str]:
    return {w[2] for w in WRAPPED} - NOT_EXERCISED[workload] - PROBE_ONLY


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("data.load.s", "s", "lower"),
    ("data.bytes_read", "bytes", "lower"),
    ("partition.make_plan.s", "s", "lower"),
    ("partition.purge_class.s", "s", "lower"),
    ("nn.loss_and_grad.calls", "count", "lower"),
    ("nn.loss_and_grad.rows", "rows", "lower"),
    ("nn.loss_and_grad.s", "s", "lower"),
    ("nn.adam_step.calls", "count", "lower"),
    ("nn.adam_step.s", "s", "lower"),
    ("nn.mean_loss.s", "s", "lower"),
    ("nn.forward.rows", "rows", "lower"),
    ("nn.drop_output_classes.s", "s", "lower"),
    ("training.fit.calls", "count", "lower"),
    ("training.fit.s", "s", "lower"),
    ("training.fit.self_s", "s", "lower"),
    ("training.train_shard.calls", "count", "lower"),
    ("training.train_shard.slices", "count", "lower"),
    ("training.sample_replay.s", "s", "lower"),
    ("checkpoint.save.calls", "count", "lower"),
    ("checkpoint.save.bytes", "bytes", "lower"),
    ("checkpoint.save.s", "s", "lower"),
    ("checkpoint.load.calls", "count", "lower"),
    ("checkpoint.load.bytes", "bytes", "lower"),
    ("checkpoint.load.s", "s", "lower"),
    ("checkpoint.fnv1a64.bytes", "bytes", "lower"),
    ("checkpoint.fnv1a64.s", "s", "lower"),
    ("checkpoint.hash_passes_per_byte", "ratio", "lower"),
    ("ensemble.gated_predict_batch.calls", "count", "lower"),
    ("ensemble.gated_predict_batch.rows", "rows", "lower"),
    ("ensemble.gated_predict_batch.s", "s", "lower"),
    ("ensemble.aggregate_predict_batch.calls", "count", "lower"),
    ("ensemble.aggregate_predict_batch.rows", "rows", "lower"),
    ("ensemble.aggregate_predict_batch.s", "s", "lower"),
    ("ensemble.constituent_forwards", "count", "lower"),
    ("ensemble.gating_forwards", "count", "lower"),
    ("ensemble.train_gating.s", "s", "lower"),
    ("unlearning.run_unlearning.calls", "count", "lower"),
    ("unlearning.run_unlearning.s", "s", "lower"),
    ("unlearning.run_unlearning.self_s", "s", "lower"),
    ("unlearning.verify_exact.s", "s", "lower"),
    ("unlearning.slices_retrained", "count", "lower"),
    ("unlearning.retrained_fraction", "fraction", "lower"),
    ("evaluation.evaluate.calls", "count", "lower"),
    ("evaluation.evaluate.rows", "rows", "lower"),
    ("evaluation.evaluate.s", "s", "lower"),
    ("evaluation.inference_rows_per_removal", "rows", "lower"),
    ("evaluation.useful_row_ratio", "fraction", "higher"),
    ("pipeline.train_sisa.s", "s", "lower"),
    ("pipeline.train_baseline.s", "s", "lower"),
    ("cli.train.s", "s", "lower"),
    ("cli.unlearn.s", "s", "lower"),
    ("cli.eval.s", "s", "lower"),
    ("cli.checkpoints_loaded", "count", "lower"),
    ("cli.checkpoints_needed", "count", "lower"),
] + [(f"share.{layer}", "fraction", "lower") for layer in LAYERS] + [
    ("work.grad_rows_per_removal.baseline_full", "rows", "lower"),
    ("work.grad_rows_per_removal.sisa_balanced", "rows", "lower"),
    ("work.grad_rows_per_removal.sisa_scls_replay", "rows", "lower"),
    ("traced.setup_s", "s", "lower"),
    ("traced.unlearn_p50_s", "s", "lower"),
    ("traced.eval_s", "s", "lower"),
    ("traced.query_p50_ms", "ms", "lower"),
    ("trace.wrapper_calls", "count", "lower"),
    ("trace.overhead_est_s", "s", "lower"),
    ("predictions.checked", "count", "higher"),
    ("predictions.held", "count", "higher"),
]

# Per-layer metrics that count work: identical across traced runs of one
# seed, whatever their length.
DETERMINISTIC = [name for name, unit, _ in PER_LAYER
                 if unit in ("count", "rows", "bytes", "ratio")
                 and not name.startswith("predictions.")
                 ] + ["unlearning.retrained_fraction", "evaluation.useful_row_ratio"]


class Report:
    """Per-unit sums over spans caused by the benchmark's operations.

    A unit is one set-up plus one measure cycle: set-up spans are divided
    by the number of set-ups and measure spans by the number of cycles, so
    counters repeat exactly across runs of one seed whatever the run length.
    """

    def __init__(self, tracer: Tracer, counts: dict[str, int]) -> None:
        self.spans = tracer.spans
        self.counts = {phase: n for phase, n in counts.items() if n}
        self.inner = [s for s in tracer.spans
                      if s.cause and not s.name.startswith("op.")]
        self.ops = tracer.ops

    def per_unit(self, pairs) -> float:
        """Sum (span, value) pairs per phase, then divide each phase's total
        by its count once, so integer counters come out exact."""
        totals: dict[str, float] = defaultdict(float)
        for span, value in pairs:
            totals[span.cause.split(":", 1)[0]] += value
        return sum(totals[phase] / n for phase, n in self.counts.items())

    def _op_kind(self, span: Span) -> str:
        return span.cause.split(":")[1]

    def calls(self, name: str) -> float:
        return self.per_unit((s, 1) for s in self.inner if s.name == name)

    def seconds(self, prefix: str, self_only: bool = False) -> float:
        return self.per_unit((s, s.self_time if self_only else s.duration)
                             for s in self.inner
                             if s.name == prefix or s.name.startswith(prefix + "."))

    def counter(self, name: str, key: str) -> float:
        return self.per_unit((s, s.counters.get(key, 0))
                             for s in self.inner if s.name == name)

    def has_ancestor(self, span: Span, prefix: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name.startswith(prefix):
                return True
        return False

    def blocking(self, kind: str | None = None) -> float:
        return self.per_unit((s, s.duration) for s in self.ops
                             if kind is None or self._op_kind(s) == kind)

    def layer_self(self, layer: str, kind: str | None = None,
                   names: tuple[str, ...] | None = None) -> float:
        return self.per_unit((s, s.self_time) for s in self.inner
                             if s.layer == layer
                             and (kind is None or self._op_kind(s) == kind)
                             and (names is None or s.name in names))

    def share(self, layer: str, kind: str | None = None) -> float:
        total = self.blocking(kind)
        return self.layer_self(layer, kind) / total if total else 0.0


def layer_metrics(tracer: Tracer, rec, probe: dict[str, float],
                  per_call_cost: float) -> tuple[dict[str, float], list]:
    r = Report(tracer, rec.counts)
    m: dict[str, float] = {}
    m["data.load.s"] = r.seconds("data")
    m["data.bytes_read"] = r.counter("data.load_cifar10", "bytes")
    for name in ("partition.make_plan", "partition.purge_class", "nn.loss_and_grad",
                 "nn.adam_step", "nn.mean_loss", "nn.drop_output_classes",
                 "training.fit", "training.sample_replay", "checkpoint.save",
                 "checkpoint.load", "checkpoint.fnv1a64", "ensemble.gated_predict_batch",
                 "ensemble.aggregate_predict_batch", "ensemble.train_gating",
                 "unlearning.run_unlearning", "unlearning.verify_exact",
                 "evaluation.evaluate", "pipeline.train_sisa",
                 "cli.train", "cli.unlearn", "cli.eval"):
        m[f"{name}.s"] = r.seconds(name)
        m[f"{name}.calls"] = r.calls(name)
        m[f"{name}.self_s"] = r.seconds(name, self_only=True)
        for key in ("rows", "bytes"):
            m[f"{name}.{key}"] = r.counter(name, key)
    m["nn.forward.rows"] = (r.counter("nn.forward_batched", "rows")
                            + r.counter("nn.predict_local", "rows"))
    m["training.train_shard.calls"] = r.calls("training.train_shard")
    m["training.train_shard.slices"] = r.counter("training.train_shard", "slices")
    io_bytes = m["checkpoint.save.bytes"] + m["checkpoint.load.bytes"]
    m["checkpoint.hash_passes_per_byte"] = (
        m["checkpoint.fnv1a64.bytes"] / io_bytes if io_bytes else 0.0)
    for key in ("constituent_forwards", "gating_forwards"):
        m[f"ensemble.{key}"] = (r.counter("ensemble.gated_predict_batch", key)
                                + r.counter("ensemble.aggregate_predict_batch", key))

    removals = [s for s in r.inner if s.name == "unlearning.run_unlearning"]
    slices = sum(s.counters["slices"] for s in removals)
    m["unlearning.slices_retrained"] = r.counter("unlearning.run_unlearning", "slices")
    m["unlearning.retrained_fraction"] = (
        slices / (len(removals) * rec.slots) if removals else 0.0)
    checked = [s for s in r.inner
               if s.name in ("unlearning.verify_exact", "evaluation.evaluate")
               and r.has_ancestor(s, "unlearning.run_unlearning")]
    rows = sum(s.counters["rows"] for s in checked)
    useful = sum(s.counters["rows"] for s in checked if s.name == "evaluation.evaluate")
    m["evaluation.inference_rows_per_removal"] = rows / len(removals) if removals else 0.0
    m["evaluation.useful_row_ratio"] = useful / rows if rows else 0.0

    m["pipeline.train_baseline.s"] = probe["train_baseline_s"]
    m["cli.checkpoints_loaded"] = r.per_unit(
        (s, 1) for s in r.inner
        if s.name == "checkpoint.load" and r.has_ancestor(s, "cli."))
    m["cli.checkpoints_needed"] = sum(
        n / r.counts[phase] for phase, n in rec.needed.items())
    for layer in LAYERS:
        m[f"share.{layer}"] = r.share(layer)
    for strategy in ("baseline_full", "sisa_balanced", "sisa_scls_replay"):
        m[f"work.grad_rows_per_removal.{strategy}"] = probe[strategy]
    calls = r.per_unit((s, 1) for s in r.inner)
    m["trace.wrapper_calls"] = calls
    m["trace.overhead_est_s"] = calls * per_call_cost

    predictions = predict(r, rec.workload)
    m["predictions.checked"] = float(len(predictions))
    m["predictions.held"] = float(sum(ok for _, ok in predictions))
    return m, predictions


def predict(r: Report, workload: str) -> list[tuple[str, bool]]:
    """The layer predictions written down before measuring, with the outcome."""
    out = [("partition takes under 5% of the blocking time", r.share("partition") < 0.05)]
    if workload == "mlp_rollback":
        nn_removal = r.layer_self("nn", "removal", ("nn.loss_and_grad", "nn.adam_step"))
        out += [
            ("nn.loss_and_grad + nn.adam_step take over half of a removal",
             nn_removal > 0.5 * r.blocking("removal")),
            ("checkpoint takes under a quarter of a removal",
             r.share("checkpoint", "removal") < 0.25),
        ]
    elif workload == "cnn_cli":
        out += [
            ("checkpoint takes over half of the blocking time", r.share("checkpoint") > 0.5),
            ("nn is a minority of the blocking time", r.share("nn") < 0.5),
        ]
    elif workload == "gated_serve":
        forward = (r.layer_self("ensemble", "query") + r.layer_self("nn", "query")
                   + r.layer_self("ensemble", "eval") + r.layer_self("nn", "eval"))
        training = r.per_unit((s, s.duration) for s in r.inner
                              if s.name == "training.fit" and r._op_kind(s) == "removal")
        out += [
            ("query and eval forward work exceeds removal training",
             forward > training),
            ("checkpoint takes no query time", r.layer_self("checkpoint", "query") == 0.0),
        ]
    return out
