"""Evaluation metrics: accuracy, per-class precision/recall, confusion matrix."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .ensemble import predict_labels
from .errors import InvalidLabelError


@dataclass
class EvaluationReport:
    accuracy: float
    precision: np.ndarray              # per original class id
    recall: np.ndarray
    confusion: np.ndarray              # rows true class, columns predicted
    train_seconds: float | None = None
    config_tag: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "confusion_matrix": self.confusion.tolist(),
            "train_seconds": self.train_seconds,
            "config": self.config_tag,
        }


def confusion_matrix(true_labels, predicted, num_classes: int) -> np.ndarray:
    """Counts of (true, predicted) label pairs, rows true, as int64; a label
    outside [0, num_classes) is an InvalidLabelError."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    for labels in (true_labels, predicted):
        if labels.size and not 0 <= labels.min() <= labels.max() < num_classes:
            bad = labels[(labels < 0) | (labels >= num_classes)][0]
            raise InvalidLabelError(f"label {bad} outside [0, {num_classes})")
    cells = np.bincount(true_labels * num_classes + predicted,
                        minlength=num_classes * num_classes)
    return cells.astype(np.int64, copy=False).reshape(num_classes, num_classes)


def report_from_confusion(matrix: np.ndarray,
                          config_tag: dict | None = None) -> EvaluationReport:
    """Accuracy and per-class precision/recall read off a confusion matrix."""
    diag = np.diag(matrix).astype(np.float64)
    col = matrix.sum(axis=0).astype(np.float64)
    row = matrix.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, diag / col, 0.0)
        recall = np.where(row > 0, diag / row, 0.0)
    return EvaluationReport(
        accuracy=float(diag.sum() / matrix.sum()),
        precision=precision, recall=recall, confusion=matrix,
        config_tag=config_tag,
    )


def evaluate(model, ds: LabeledDataset, config_tag: dict | None = None) -> EvaluationReport:
    """Deterministic metrics for a model or an ensemble."""
    if len(ds) == 0:
        raise ValueError("dataset must be nonempty")
    pred = predict_labels(model, ds.inputs)
    return report_from_confusion(confusion_matrix(ds.labels, pred, ds.num_classes),
                                 config_tag)
