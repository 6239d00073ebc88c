"""Benchmark for the sisa_unlearn package: one workload per invocation.

    python3 perfbench/run.py --workload mlp_rollback --seed 1 --seconds 20 --trace 0

Runs the named workload against the package in ``src/`` of this checkout,
checks every output, and prints each metric by name and unit. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The exit code is nonzero when any
correctness check fails. ``--scale tiny`` shrinks every workload for the
self-test. Scratch files live under ``.perfbench/`` at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("mlp_rollback", "cnn_cli", "gated_serve")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) of every end-to-end metric
END_TO_END = [
    ("setup_s", "s"), ("unlearn_p50_s", "s"), ("unlearn_p75_s", "s"),
    ("eval_s", "s"), ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
    ("query_rows_per_s", "rows/s"), ("accuracy_before", "fraction"),
    ("accuracy_after", "fraction"), ("disk_bytes", "bytes"), ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure budget after set-up; whole cycles only")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def end_to_end(rec, np) -> dict[str, float]:
    s = {k: np.asarray(v) for k, v in rec.samples.items()}
    query = s["query_s"]
    return {
        "setup_s": float(np.median(s["setup_s"])),
        "unlearn_p50_s": float(np.percentile(s["unlearn_s"], 50)),
        "unlearn_p75_s": float(np.percentile(s["unlearn_s"], 75)),
        "eval_s": float(np.median(s["eval_s"])),
        "query_p50_ms": float(np.percentile(query, 50) * 1e3),
        "query_p99_ms": float(np.percentile(query, 99) * 1e3),
        "query_rows_per_s": rec.query_rows / float(query.sum()),
        "accuracy_before": rec.values["accuracy_before"],
        "accuracy_after": rec.values["accuracy_after"],
        "disk_bytes": rec.values["disk_bytes"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sample_counts(rec) -> dict[str, int]:
    return {"setups": len(rec.samples["setup_s"]), "removals": len(rec.samples["unlearn_s"]),
            "evals": len(rec.samples["eval_s"]), "queries": len(rec.samples["query_s"]),
            "cycles": rec.counts["measure"]}


def environment(args, np, blas_threads: str, sisa_threads) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
        "SISA_THREADS": sisa_threads if sisa_threads is not None else "unset (1 worker)",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sisa_unlearn" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # One client, no extra threads: BLAS pinned to one thread unless the
    # caller chose otherwise, and the package's shard pool left at 1 worker.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sisa_threads = os.environ.pop("SISA_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import sisa_unlearn
    if Path(sisa_unlearn.__file__).resolve().parent != SRC / "sisa_unlearn":
        print(f"error: imported {sisa_unlearn.__file__}, not this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    scale = workloads.SCALES[args.scale][args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    rec = workloads.Recorder(tracer, args.workload)
    env = environment(args, np, os.environ["OPENBLAS_NUM_THREADS"], sisa_threads)
    try:
        with tracer:
            workloads.RUNNERS[args.workload](rec, args.seed, args.seconds, scale, work)
        if args.trace:
            leftover = [f"{n}.{a}" for n, m in list(sys.modules.items())
                        if n.startswith("sisa_unlearn")
                        for a, v in vars(m).items() if hasattr(v, "span_name")]
            rec.last_op = "trace:restore"
            rec.check(not leftover, f"wrappers left installed: {leftover}")
            missing = tracer.check_coverage(tracing.expected_spans(args.workload))
            rec.last_op = "trace:coverage"
            rec.check(not missing, f"wrappers that never fired: {missing}")
            probe = workloads.work_ratio_probe(
                args.seed, workloads.SCALES[args.scale]["mlp_rollback"])
            metrics, predictions = tracing.layer_metrics(
                tracer, rec, probe, tracing.wrapper_cost())
            traced = end_to_end(rec, np)
            for name in ("setup_s", "unlearn_p50_s", "eval_s", "query_p50_ms"):
                metrics[f"traced.{name}"] = traced[name]
            units = [(n, u) for n, u, _ in tracing.PER_LAYER]
            tracer.dump(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            for text, held in predictions:
                print(f"prediction {'held' if held else 'MISSED'}: {text}")
        else:
            metrics = end_to_end(rec, np)
            units = END_TO_END
    except Exception:
        traceback.print_exc()
        rec.failed_ops.add(rec.last_op or "run")
        print(json.dumps({"correct": False, "attempted": max(rec.attempted, 1),
                          "failed": rec.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["samples"] = sample_counts(rec)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: ops_attempted {rec.attempted} count, ops_failed {rec.failed} count")
    for name, unit in units:
        print(f"{args.workload}: {name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
