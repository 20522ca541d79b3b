"""Optimal cosine-similarity threshold search (paper §III-A2, §IV-F).

Given an encoder and a set of labelled query pairs, sweep the cosine
threshold τ over [0, 1], compute the decision metrics at each value, and pick
the τ maximising the Fβ score (β = 0.5, weighting precision twice as much as
recall).  Each FL client runs this on its local validation pairs; the server
averages the per-client optima into the global threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.model import SiameseEncoder
from repro.embeddings.similarity import cosine_similarity, pairwise_cosine
from repro.metrics.classification import confusion_matrix


@dataclass
class ThresholdSweepResult:
    """The metric curves of a threshold sweep plus the selected optimum."""

    thresholds: np.ndarray
    f_scores: np.ndarray
    f1_scores: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray
    accuracies: np.ndarray
    optimal_threshold: float
    optimal_index: int
    beta: float
    metadata: Dict[str, float] = field(default_factory=dict)

    def metrics_at_optimum(self) -> Dict[str, float]:
        """Headline metrics at the selected threshold."""
        i = self.optimal_index
        return {
            "threshold": float(self.thresholds[i]),
            "f_score": float(self.f_scores[i]),
            "f1": float(self.f1_scores[i]),
            "precision": float(self.precisions[i]),
            "recall": float(self.recalls[i]),
            "accuracy": float(self.accuracies[i]),
        }

    def metrics_at(self, threshold: float) -> Dict[str, float]:
        """Headline metrics at the sweep point nearest ``threshold``."""
        i = int(np.argmin(np.abs(self.thresholds - threshold)))
        return {
            "threshold": float(self.thresholds[i]),
            "f_score": float(self.f_scores[i]),
            "f1": float(self.f1_scores[i]),
            "precision": float(self.precisions[i]),
            "recall": float(self.recalls[i]),
            "accuracy": float(self.accuracies[i]),
        }


def pair_similarities(
    encoder: SiameseEncoder,
    pairs: Sequence[Tuple[str, str, int]],
    compress: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cosine similarity and label arrays for labelled query pairs."""
    if not pairs:
        return np.zeros(0), np.zeros(0, dtype=bool)
    texts_a = [p[0] for p in pairs]
    texts_b = [p[1] for p in pairs]
    labels = np.array([bool(p[2]) for p in pairs])
    emb_a = encoder.encode(texts_a, compress=compress)
    emb_b = encoder.encode(texts_b, compress=compress)
    sims = pairwise_cosine(emb_a, emb_b)
    return sims, labels


def score_sweep(
    scores: np.ndarray,
    labels: np.ndarray,
    thresholds: Optional[np.ndarray] = None,
    beta: float = 0.5,
    metadata: Optional[Dict[str, float]] = None,
) -> ThresholdSweepResult:
    """Sweep τ over precomputed (similarity, label) observations.

    The shared core of :func:`threshold_sweep`,
    :func:`cache_mode_threshold_sweep` and the online fleet adaptation loop
    (:mod:`repro.federated.online`): given one similarity score and one
    boolean duplicate label per observation, compute the decision metrics at
    every grid value and select the Fβ-optimal threshold.  Callers that
    already hold served similarities (the online loop mines them from live
    traffic) sweep without touching an encoder.
    """
    if thresholds is None:
        thresholds = np.linspace(0.0, 1.0, 101)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size == 0:
        raise ValueError("thresholds must be non-empty")
    if np.any(thresholds < 0) or np.any(thresholds > 1):
        raise ValueError("thresholds must lie in [0, 1]")
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=bool).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")

    n = thresholds.size
    f_scores = np.zeros(n)
    f1_scores = np.zeros(n)
    precisions = np.zeros(n)
    recalls = np.zeros(n)
    accuracies = np.zeros(n)
    for i, tau in enumerate(thresholds):
        predicted = scores >= tau
        cm = confusion_matrix(labels, predicted)
        f_scores[i] = cm.fbeta(beta)
        f1_scores[i] = cm.f1()
        precisions[i] = cm.precision()
        recalls[i] = cm.recall()
        accuracies[i] = cm.accuracy()
    optimal_index = int(np.argmax(f_scores))
    base_metadata = {
        "n_pairs": float(scores.size),
        "positive_fraction": float(labels.mean()) if labels.size else 0.0,
    }
    base_metadata.update(metadata or {})
    return ThresholdSweepResult(
        thresholds=thresholds,
        f_scores=f_scores,
        f1_scores=f1_scores,
        precisions=precisions,
        recalls=recalls,
        accuracies=accuracies,
        optimal_threshold=float(thresholds[optimal_index]),
        optimal_index=optimal_index,
        beta=beta,
        metadata=base_metadata,
    )


def threshold_sweep(
    encoder: SiameseEncoder,
    pairs: Sequence[Tuple[str, str, int]],
    thresholds: Optional[np.ndarray] = None,
    beta: float = 0.5,
    compress: bool = True,
) -> ThresholdSweepResult:
    """Sweep τ over [0, 1] and compute decision metrics at each value.

    A pair is *predicted duplicate* when its cosine similarity is at least τ.
    """
    sims, labels = pair_similarities(encoder, pairs, compress=compress)
    return score_sweep(sims, labels, thresholds=thresholds, beta=beta)


def cache_mode_threshold_sweep(
    encoder: SiameseEncoder,
    pairs: Sequence[Tuple[str, str, int]],
    thresholds: Optional[np.ndarray] = None,
    beta: float = 0.5,
    compress: bool = True,
    extra_cache_texts: Optional[Sequence[str]] = None,
) -> ThresholdSweepResult:
    """Sweep τ against *deployed-cache* decisions rather than pairwise ones.

    The paper's clients tune τ from their cache's observed behaviour (a user
    re-querying the LLM after a bad cached answer marks a false hit), i.e.
    against the distribution of *best-match* similarities over a populated
    cache, not against isolated pairs.  This sweep reproduces that: the first
    query of every local pair is loaded into a scratch cache, the second query
    of every pair probes it, the probe's score is its maximum cosine
    similarity over the whole cache, and the ground truth is the pair's
    duplicate label.

    ``extra_cache_texts`` adds more queries to the scratch cache (e.g. the
    client's full query history), making the best-match distribution closer
    to the deployed cache's.
    """
    if not pairs:
        raise ValueError("cache-mode sweep needs at least one pair")

    cache_texts = [p[0] for p in pairs]
    if extra_cache_texts:
        cache_texts = cache_texts + [t for t in extra_cache_texts if t]
    probe_texts = [p[1] for p in pairs]
    labels = np.array([bool(p[2]) for p in pairs])
    cache_embs = np.atleast_2d(encoder.encode(cache_texts, compress=compress))
    probe_embs = np.atleast_2d(encoder.encode(probe_texts, compress=compress))
    # fmax skips a NaN similarity; a probe with no finite one scores -1.
    best = np.fmax.reduce(cosine_similarity(probe_embs, cache_embs), axis=1)
    best[~np.isfinite(best)] = -1.0
    return score_sweep(
        best,
        labels,
        thresholds=thresholds,
        beta=beta,
        metadata={"mode": 1.0},  # 1.0 marks cache-mode sweeps
    )


def find_optimal_threshold(
    encoder: SiameseEncoder,
    pairs: Sequence[Tuple[str, str, int]],
    thresholds: Optional[np.ndarray] = None,
    beta: float = 0.5,
    compress: bool = True,
    default: float = 0.7,
    extra_cache_texts: Optional[Sequence[str]] = None,
) -> float:
    """Return the Fβ-optimal cosine threshold for ``encoder`` on ``pairs``.

    Tunes against deployed-cache best-match scores
    (:func:`cache_mode_threshold_sweep`).  Falls back to ``default`` when there are no pairs or only one
    class is present (the sweep would be degenerate) — mirroring MeanCache's
    use of the server's global threshold for data-poor clients.
    """
    if not pairs:
        return default
    labels = {p[2] for p in pairs}
    if len(labels) < 2:
        return default
    return cache_mode_threshold_sweep(
        encoder,
        pairs,
        thresholds=thresholds,
        beta=beta,
        compress=compress,
        extra_cache_texts=extra_cache_texts,
    ).optimal_threshold
