"""Server-side aggregation strategies.

The paper uses FedAvg (Eq. 1): the new global model is the sample-count
weighted mean of client models.  The global cosine-similarity threshold is the
(unweighted) mean of the clients' locally-optimal thresholds (§III-A3).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def _validate_updates(
    parameter_sets: Sequence[Sequence[np.ndarray]], weights: Sequence[float]
) -> None:
    if not parameter_sets:
        raise ValueError("no client updates to aggregate")
    if len(parameter_sets) != len(weights):
        raise ValueError("one weight per client update is required")
    n_arrays = len(parameter_sets[0])
    for i, params in enumerate(parameter_sets):
        if len(params) != n_arrays:
            raise ValueError(f"client {i} returned {len(params)} arrays, expected {n_arrays}")
        for j, (p, ref) in enumerate(zip(params, parameter_sets[0])):
            if p.shape != ref.shape:
                raise ValueError(
                    f"client {i} parameter {j} has shape {p.shape}, expected {ref.shape}"
                )
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if sum(weights) <= 0:
        raise ValueError("at least one weight must be positive")


def fedavg(
    parameter_sets: Sequence[Sequence[np.ndarray]],
    num_samples: Sequence[float],
) -> List[np.ndarray]:
    """Sample-count weighted parameter averaging (McMahan et al., Eq. 1).

    Parameters
    ----------
    parameter_sets:
        One parameter list per participating client.
    num_samples:
        The ``n_k`` sample counts used as weights.
    """
    _validate_updates(parameter_sets, num_samples)
    total = float(sum(num_samples))
    fractions = [float(n) / total for n in num_samples]
    aggregated: List[np.ndarray] = []
    for j in range(len(parameter_sets[0])):
        acc = np.zeros_like(np.asarray(parameter_sets[0][j], dtype=np.float64))
        for frac, params in zip(fractions, parameter_sets):
            acc += frac * np.asarray(params[j], dtype=np.float64)
        aggregated.append(acc)
    return aggregated


def aggregate_thresholds(
    thresholds: Sequence[float],
    num_samples: Sequence[float] | None = None,
    weighted: bool = False,
) -> float:
    """Aggregate client cosine-similarity thresholds into the global threshold.

    The paper takes the plain mean (``weighted=False``); the online fleet
    loop can weight by per-client observation counts instead.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("no thresholds to aggregate")
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold {t} outside [0, 1]")
    if weighted:
        if num_samples is None or len(num_samples) != len(thresholds):
            raise ValueError("weighted aggregation requires one sample count per threshold")
        _check_sample_counts(num_samples)
        total = float(sum(num_samples))
        return float(sum(t * n for t, n in zip(thresholds, num_samples)) / total)
    return float(np.mean(thresholds))


def _check_sample_counts(num_samples: Sequence[float]) -> None:
    """Reject negative per-client counts, not just a non-positive sum.

    A single negative weight among positive ones passes the sum check yet
    silently skews the weighted mean (and can push it outside the clients'
    threshold range), so each entry is validated individually.
    """
    for i, n in enumerate(num_samples):
        if n < 0:
            raise ValueError(f"sample count {n} at position {i} is negative")
    if float(sum(num_samples)) <= 0:
        raise ValueError("sample counts must sum to a positive value")
