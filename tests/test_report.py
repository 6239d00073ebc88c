import json

import numpy as np
import pytest

import sisa_unlearn as su
from sisa_unlearn.bench import BenchConfig, format_grid_table, run_benchmark_grid
from sisa_unlearn.errors import InvalidLabelError
from sisa_unlearn.evaluation import confusion_matrix, evaluate, report_from_confusion


def labeled_by_first_feature(n, num_classes, seed=0):
    """Dataset whose true class is written into feature 0 of each input."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    inputs = rng.standard_normal((n, 4)).astype(np.float32)
    inputs[:, 0] = labels
    return su.LabeledDataset(inputs=inputs, labels=labels,
                             class_names=[str(c) for c in range(num_classes)])


class TestEvaluate:
    def test_perfect_predictor(self):
        ds = labeled_by_first_feature(100, 5)
        report = report_from_confusion(
            confusion_matrix(ds.labels, ds.inputs[:, 0].astype(np.int64), 5))
        assert report.accuracy == 1.0
        assert np.array_equal(np.diag(report.confusion), ds.class_counts())
        assert report.confusion.sum() == 100
        assert np.all(report.precision == 1.0)
        assert np.all(report.recall == 1.0)

    def test_uniform_random_predictor(self):
        # oracle: binomial interval around 1/10 for 10,000 draws
        ds = labeled_by_first_feature(10000, 10, seed=1)
        rng = np.random.default_rng(2)
        report = report_from_confusion(
            confusion_matrix(ds.labels, rng.integers(0, 10, size=len(ds)), 10))
        assert abs(report.accuracy - 0.10) <= 0.01
        assert report.confusion.sum() == 10000

    def test_matrix_total_matches_dataset(self, small_bundle, quick_cfg):
        plan = su.make_plan(small_bundle.train.labels, K=2, L=2,
                            policy=su.SEQUENTIAL_CLASS)
        system = su.train_sisa(small_bundle, plan, quick_cfg)
        report = evaluate(system.ensemble, small_bundle.test)
        assert report.confusion.sum() == len(small_bundle.test)
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / len(small_bundle.test))

    def test_confusion_matrix_counts(self):
        matrix = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 1], 3)
        assert matrix.tolist() == [[1, 1, 0], [0, 1, 0], [0, 1, 0]]

    def test_confusion_matrix_matches_pair_counts(self):
        # oracle: one increment per (true, predicted) pair
        rng = np.random.default_rng(3)
        true, pred = rng.integers(0, 7, size=(2, 500))
        want = np.zeros((7, 7), dtype=np.int64)
        for t, p in zip(true, pred):
            want[t, p] += 1
        matrix = confusion_matrix(true, pred, 7)
        assert matrix.dtype == np.int64
        assert matrix.tobytes() == want.tobytes()
        assert confusion_matrix([], [], 3).tolist() == [[0] * 3] * 3

    @pytest.mark.parametrize("true, pred", [([0, 3], [0, 1]), ([0, 1], [1, 3]),
                                            ([0, -1], [0, 3]), ([0, 1], [-1, 2])])
    def test_confusion_matrix_refuses_labels_outside_the_classes(self, true, pred):
        # a flat cell index true * 3 + pred can land inside the matrix:
        # (1, 3) would count as (2, 0) and (-1, 3) as (0, 0)
        with pytest.raises(InvalidLabelError, match=r"outside \[0, 3\)"):
            confusion_matrix(true, pred, 3)


def tiny_bench(**overrides) -> BenchConfig:
    base = dict(
        seeds=(0,),
        train=su.TrainConfig(max_epochs_per_slice=2, patience=None,
                             batch_size=32, replay_ratio=0.3),
        setups=((2, 3), (2, 5), (3, 3), (3, 5)),
    )
    base.update(overrides)
    return BenchConfig(**base)


def tiny_data(seed: int) -> su.DataBundle:
    return su.synthetic_bundle(n_per_class=30, num_classes=4, shape=(8,),
                               separation=4.0, seed=seed)


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    report = run_benchmark_grid(tiny_bench(), tiny_data, out_dir=out)
    return out, report


class TestBenchmarkGrid:
    def test_cell_counts(self, grid_run):
        _out, report = grid_run
        assert len(report.cells) == 16
        assert len(report.replay_cells) == 3
        assert all(c.error is None for c in report.cells)

    def test_baseline_identical_across_setups(self, grid_run):
        _out, report = grid_run
        rows = [c for c in report.cells if c.model == 1]
        assert len(rows) == 4
        assert len({(c.accuracy_before, c.train_seconds, c.accuracy_after,
                     c.retrain_seconds) for c in rows}) == 1

    def test_cells_written_atomically(self, grid_run):
        out, _report = grid_run
        cell_files = sorted(out.glob("cell_*.json"))
        assert len(cell_files) == 16
        assert len(sorted(out.glob("replay_*.json"))) == 3
        assert not list(out.glob("*.tmp"))
        doc = json.loads((out / "grid.json").read_text())
        assert len(doc["cells"]) == 16

    def test_table_columns(self, grid_run):
        _out, report = grid_run
        table = format_grid_table(report)
        header = table.splitlines()[0].split()
        assert header == ["Setup", "Model", "Acc%", "T.Time(s)", "A.Acc%",
                          "A.RT(s)"]

    def test_failing_cell_recorded_and_grid_continues(self, monkeypatch):
        import sisa_unlearn.bench as bench

        original = bench._run_strategy_cell
        def sabotage(cfg, data, setup, strategy, seed):
            if strategy == "sisa_balanced" and setup == (2, 3):
                raise RuntimeError("injected fault")
            return original(cfg, data, setup, strategy, seed)

        monkeypatch.setattr(bench, "_run_strategy_cell", sabotage)
        report = run_benchmark_grid(tiny_bench(setups=((2, 3), (2, 5)),
                                               replay_ratios=(0.3,)), tiny_data)
        failed = [c for c in report.cells if c.error]
        assert len(failed) == 1
        assert "injected fault" in failed[0].error
        assert len(report.cells) == 8

    def test_multi_seed_mean_rows(self):
        report = run_benchmark_grid(tiny_bench(
            seeds=(0, 1), setups=((2, 3),), replay_ratios=()), tiny_data)
        assert len(report.cells) == 8          # 4 strategies x 2 seeds
        means = report.mean_rows()
        assert len(means) == 4
        table = format_grid_table(report)
        assert "(mean)" in table
