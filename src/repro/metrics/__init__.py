"""Evaluation metrics for semantic-cache hit/miss decisions."""

from repro.metrics.classification import (
    ConfusionMatrix,
    accuracy,
    confusion_matrix,
    evaluate_decisions,
    fbeta_score,
    precision,
    recall,
)
from repro.metrics.reporting import format_table, format_confusion_matrix
from repro.metrics.timing import LatencyHistogram

__all__ = [
    "ConfusionMatrix",
    "confusion_matrix",
    "precision",
    "recall",
    "fbeta_score",
    "accuracy",
    "evaluate_decisions",
    "LatencyHistogram",
    "format_table",
    "format_confusion_matrix",
]
