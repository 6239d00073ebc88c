"""Benchmark grid: 4 shard-slice setups x 4 model variants, plus the
replay-ratio study. Cells are written atomically as they complete; a
failing cell records its error and the grid moves on.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .evaluation import evaluate
from .files import write_atomic, write_json
from .partition import make_plan
from .pipeline import DataBundle, train_baseline, train_sisa
from .training import TrainConfig
from .unlearning import (BASELINE_FULL, SISA_SCLS_REPLAY, STRATEGIES,
                         STRATEGY_RULES, run_unlearning, train_config_for)

# (K, L) of the replay-ratio study
REPLAY_SETUP = (2, 5)


@dataclass
class BenchConfig:
    setups: tuple[tuple[int, int], ...] = ((2, 3), (2, 5), (3, 3), (3, 5))
    replay_ratios: tuple[float, ...] = (0.2, 0.3, 0.4)
    seeds: tuple[int, ...] = (0,)
    # replay strategies train with train.replay_ratio; the others without replay
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        max_epochs_per_slice=8, patience=None, batch_size=64, replay_ratio=0.3))


@dataclass
class GridCell:
    setup: str
    model: int
    strategy: str
    seed: int
    accuracy_before: float | None = None
    train_seconds: float | None = None
    accuracy_after: float | None = None
    retrain_seconds: float | None = None
    error: str | None = None


@dataclass
class ReplayCell:
    ratio: float
    seed: int
    accuracy: float | None = None
    unlearn_accuracy: float | None = None
    train_seconds: float | None = None
    error: str | None = None


@dataclass
class GridReport:
    cells: list[GridCell]
    replay_cells: list[ReplayCell]

    def mean_rows(self) -> list[GridCell]:
        """One averaged row per (setup, model) across seeds."""
        keys = sorted({(c.setup, c.model) for c in self.cells})
        rows = []
        for setup, model in keys:
            group = [c for c in self.cells if (c.setup, c.model) == (setup, model)
                     and c.error is None]
            if not group:
                continue
            rows.append(GridCell(
                setup=setup, model=model, strategy=group[0].strategy, seed=-1,
                accuracy_before=float(np.mean([c.accuracy_before for c in group])),
                train_seconds=float(np.mean([c.train_seconds for c in group])),
                accuracy_after=float(np.mean([c.accuracy_after for c in group])),
                retrain_seconds=float(np.mean([c.retrain_seconds for c in group])),
            ))
        return rows


def _run_strategy_cell(cfg: BenchConfig, data: DataBundle, setup: tuple[int, int],
                       strategy: str, seed: int) -> GridCell:
    K, L = setup
    cell = GridCell(setup=f"{K}-{L}", model=STRATEGIES.index(strategy) + 1,
                    strategy=strategy, seed=seed)
    rule = STRATEGY_RULES[strategy]
    tcfg = train_config_for(strategy, replace(cfg.train, seed=seed))
    classes = sorted(set(int(c) for c in data.train.labels))

    if strategy == BASELINE_FULL:
        model = train_baseline(data, tcfg)
        cell.accuracy_before = evaluate(model.params, data.test).accuracy
        cell.train_seconds = model.train_seconds
        target = model
    else:
        plan = make_plan(data.train.labels, K, L, rule.policy)
        system = train_sisa(data, plan, tcfg, gated=rule.gated)
        cell.accuracy_before = evaluate(system.ensemble, data.test).accuracy
        cell.train_seconds = system.train_seconds
        target = system

    after_acc, seconds = [], []
    for c in classes:
        _new, outcome = run_unlearning(strategy, target, data, c, tcfg)
        after_acc.append(outcome.report.accuracy)
        seconds.append(outcome.seconds)
    cell.accuracy_after = float(np.mean(after_acc))
    cell.retrain_seconds = float(np.mean(seconds))
    return cell


def _run_replay_cell(cfg: BenchConfig, data: DataBundle, ratio: float,
                     seed: int) -> ReplayCell:
    """The sisa_scls_replay cell at REPLAY_SETUP, trained with `ratio`."""
    cfg = replace(cfg, train=replace(cfg.train, replay_ratio=ratio))
    cell = _run_strategy_cell(cfg, data, REPLAY_SETUP, SISA_SCLS_REPLAY, seed)
    return ReplayCell(ratio=ratio, seed=seed, accuracy=cell.accuracy_before,
                      unlearn_accuracy=cell.accuracy_after,
                      train_seconds=cell.train_seconds)


def _write_cell(out_dir: Path | None, name: str, payload: dict) -> None:
    if out_dir is not None:
        write_json(out_dir / name, payload)


def run_benchmark_grid(cfg: BenchConfig, bundle_for: Callable[[int], DataBundle],
                       out_dir=None) -> GridReport:
    """Train, unlearn every class, and tabulate each (setup, model) cell.

    Seed row `s` trains and tests on `bundle_for(s)`. The baseline ignores
    the shard/slice setup, so its result per seed is computed once and
    replicated across setups.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    cells: list[GridCell] = []
    replay_cells: list[ReplayCell] = []
    for seed in cfg.seeds:
        data = bundle_for(seed)
        baseline_proto: GridCell | None = None
        for setup in cfg.setups:
            for strategy in STRATEGIES:
                if strategy == BASELINE_FULL and baseline_proto is not None:
                    cell = GridCell(**{**asdict(baseline_proto),
                                       "setup": f"{setup[0]}-{setup[1]}"})
                else:
                    try:
                        cell = _run_strategy_cell(cfg, data, setup, strategy, seed)
                    except Exception as exc:   # cell failures never stop the grid
                        cell = GridCell(setup=f"{setup[0]}-{setup[1]}",
                                        model=STRATEGIES.index(strategy) + 1,
                                        strategy=strategy, seed=seed,
                                        error=f"{type(exc).__name__}: {exc}")
                    if strategy == BASELINE_FULL:
                        baseline_proto = cell
                cells.append(cell)
                _write_cell(out_dir, f"cell_{cell.setup}_m{cell.model}_s{seed}.json",
                            asdict(cell))
        for ratio in cfg.replay_ratios:
            try:
                rcell = _run_replay_cell(cfg, data, ratio, seed)
            except Exception as exc:
                rcell = ReplayCell(ratio=ratio, seed=seed,
                                   error=f"{type(exc).__name__}: {exc}")
            replay_cells.append(rcell)
            _write_cell(out_dir, f"replay_{int(round(ratio * 100))}_s{seed}.json",
                        asdict(rcell))
    report = GridReport(cells=cells, replay_cells=replay_cells)
    if out_dir is not None:
        _write_cell(out_dir, "grid.json", grid_json(report))
        write_atomic(out_dir / "grid.txt", format_grid_table(report))
    return report


def grid_json(report: GridReport) -> dict:
    return {
        "cells": [asdict(c) for c in report.cells],
        "replay_cells": [asdict(c) for c in report.replay_cells],
        "means": [asdict(c) for c in report.mean_rows()],
    }


def _fmt(value, scale=1.0, digits=2) -> str:
    return "-" if value is None else f"{value * scale:.{digits}f}"


def format_grid_table(report: GridReport) -> str:
    """Aligned text table: Setup, Model, Acc%, T.Time(s), A.Acc%, A.RT(s)."""
    header = ["Setup", "Model", "Acc%", "T.Time(s)", "A.Acc%", "A.RT(s)"]
    multi_seed = len({c.seed for c in report.cells}) > 1
    rows = []
    source = report.cells + (report.mean_rows() if multi_seed else [])
    for c in source:
        tag = f"{c.model}" if not multi_seed else \
            (f"{c.model} (mean)" if c.seed == -1 else f"{c.model} [s{c.seed}]")
        if c.error:
            rows.append([c.setup, tag, "ERR", "-", "-", "-"])
        else:
            rows.append([c.setup, tag, _fmt(c.accuracy_before, 100),
                         _fmt(c.train_seconds), _fmt(c.accuracy_after, 100),
                         _fmt(c.retrain_seconds)])
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    def line(cols):
        return "  ".join(col.rjust(w) for col, w in zip(cols, widths))
    out = [line(header), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    if report.replay_cells:
        out.append("")
        out.append("Replay ratio study (sequential slicing)")
        out.append("ratio  Acc%   A.Acc%  T.Time(s)")
        for r in report.replay_cells:
            if r.error:
                out.append(f"{r.ratio:>5.0%}  ERR")
            else:
                out.append(f"{r.ratio:>5.0%}  {r.accuracy * 100:5.2f}  "
                           f"{r.unlearn_accuracy * 100:6.2f}  {r.train_seconds:9.2f}")
    return "\n".join(out) + "\n"
