#!/usr/bin/env python3
"""Benchmark grid: 4 shard-slice setups x 4 model variants plus the replay
study, on the synthetic benchmark. Writes cell files under bench_out/ and
prints the aligned table.
"""
from sisa_unlearn.bench import BenchConfig, format_grid_table, run_benchmark_grid
from sisa_unlearn.pipeline import synthetic_bundle
from sisa_unlearn.training import TrainConfig


def main():
    cfg = BenchConfig(
        seeds=(0,),
        train=TrainConfig(max_epochs_per_slice=6, patience=None,
                          batch_size=64, replay_ratio=0.3),
    )
    report = run_benchmark_grid(
        cfg, lambda seed: synthetic_bundle(n_per_class=300, separation=3.0, seed=seed),
        out_dir="bench_out")
    print(format_grid_table(report))
    print("cell files written to bench_out/")


if __name__ == "__main__":
    main()
