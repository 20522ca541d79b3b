"""Cache-decision classification metrics (paper §IV-A3).

The semantic-cache decision is a binary classification per probe query:
*hit* (positive) when the cache claims a semantically-similar cached query
exists, *miss* (negative) otherwise.  Against ground truth this yields:

* **true hit (TP)** — probe duplicates a cached query and the cache hit it;
* **false hit (FP)** — the cache returned an entry for a probe with no true
  duplicate in the cache (the user receives a wrong response);
* **true miss (TN)** — probe had no duplicate and the cache missed;
* **false miss (FN)** — probe had a duplicate but the cache missed it.

The paper weights precision over recall (Fβ with β = 0.5) because a false hit
forces the user to manually re-send the query, whereas a false miss is
transparently served by the LLM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of the four decision outcomes."""

    true_hits: int
    false_hits: int
    true_misses: int
    false_misses: int

    # Aliases matching standard terminology.
    @property
    def tp(self) -> int:
        """True positives (true hits)."""
        return self.true_hits

    @property
    def fp(self) -> int:
        """False positives (false hits)."""
        return self.false_hits

    @property
    def tn(self) -> int:
        """True negatives (true misses)."""
        return self.true_misses

    @property
    def fn(self) -> int:
        """False negatives (false misses)."""
        return self.false_misses

    @property
    def total(self) -> int:
        """Total number of decisions."""
        return self.tp + self.fp + self.tn + self.fn

    def as_array(self) -> np.ndarray:
        """2x2 array laid out as the paper's Figure 7: rows = real label (0, 1),
        columns = predicted label (0, 1)."""
        return np.array(
            [[self.tn, self.fp], [self.fn, self.tp]],
            dtype=np.int64,
        )

    def precision(self) -> float:
        """TP / (TP + FP); 0 when no positive predictions were made."""
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    def recall(self) -> float:
        """TP / (TP + FN); 0 when there are no positive ground-truth items."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    def accuracy(self) -> float:
        """(TP + TN) / total."""
        return (self.tp + self.tn) / self.total if self.total else 0.0

    def fbeta(self, beta: float = 0.5) -> float:
        """Weighted harmonic mean of precision and recall."""
        if beta <= 0:
            raise ValueError("beta must be positive")
        p = self.precision()
        r = self.recall()
        denom = beta * beta * p + r
        if denom == 0.0:
            return 0.0
        return (1 + beta * beta) * p * r / denom

    def f1(self) -> float:
        """F1 score (β = 1)."""
        return self.fbeta(1.0)

    def false_hit_rate(self) -> float:
        """FP / (FP + TN): fraction of unique probes wrongly served from cache."""
        denom = self.fp + self.tn
        return self.fp / denom if denom else 0.0

    def metrics(self, beta: float = 0.5) -> Dict[str, float]:
        """All headline metrics as a dict (keys match Table I rows)."""
        return {
            "f_score": self.fbeta(beta),
            "f1": self.f1(),
            "precision": self.precision(),
            "recall": self.recall(),
            "accuracy": self.accuracy(),
            "false_hits": float(self.fp),
            "false_misses": float(self.fn),
            "true_hits": float(self.tp),
            "true_misses": float(self.tn),
        }


def confusion_matrix(
    true_labels: Sequence[bool] | np.ndarray,
    predicted_labels: Sequence[bool] | np.ndarray,
) -> ConfusionMatrix:
    """Build a :class:`ConfusionMatrix` from boolean label arrays."""
    y_true = np.asarray(true_labels, dtype=bool).reshape(-1)
    y_pred = np.asarray(predicted_labels, dtype=bool).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"label arrays differ in length: {y_true.shape} vs {y_pred.shape}")
    tp = int(np.sum(y_true & y_pred))
    fp = int(np.sum(~y_true & y_pred))
    tn = int(np.sum(~y_true & ~y_pred))
    fn = int(np.sum(y_true & ~y_pred))
    return ConfusionMatrix(true_hits=tp, false_hits=fp, true_misses=tn, false_misses=fn)


def precision(
    true_labels: Sequence[bool] | np.ndarray,
    predicted_labels: Sequence[bool] | np.ndarray,
) -> float:
    """Precision of hit decisions."""
    return confusion_matrix(true_labels, predicted_labels).precision()


def recall(
    true_labels: Sequence[bool] | np.ndarray,
    predicted_labels: Sequence[bool] | np.ndarray,
) -> float:
    """Recall of hit decisions."""
    return confusion_matrix(true_labels, predicted_labels).recall()


def accuracy(
    true_labels: Sequence[bool] | np.ndarray,
    predicted_labels: Sequence[bool] | np.ndarray,
) -> float:
    """Accuracy of hit/miss decisions."""
    return confusion_matrix(true_labels, predicted_labels).accuracy()
