"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload once at ``--scale tiny``, untraced and traced, and
checks that the last output line carries every metric BENCHMARK.json names,
with its unit, and that no operation failed. Also checks that the benchmark
refuses to run without the package sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py accepts, including any kept out of BENCHMARK.json
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int, seconds: float = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload, trace):
    proc = run(ROOT, workload, trace)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert "env {" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_across_traced_runs(workload):
    from tracing import DETERMINISTIC
    short, longer = (result(run(ROOT, workload, 1, s))["metrics"] for s in (0, 2))
    for name in DETERMINISTIC:
        assert short[name]["value"] == longer[name]["value"], name


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
