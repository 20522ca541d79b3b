"""Brute-force oracle of the one ranking rule every search follows.

Score every row with its own dot product (one ``np.vecdot`` per row, against
the query rows in the index's dtype), stable-sort by descending score (equal
scores keep row order), keep the first ``k`` and list them by
``(-score, id)``.  A row's score is then a function of that row alone, never
of where a BLAS kernel met it, so the comparison is on ids and score bits.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.index import FlatIndex, IndexHit


def reference_search(
    index: FlatIndex, queries: np.ndarray, top_k: int = 5, score_threshold: Optional[float] = None
) -> List[List[IndexHit]]:
    """The unrouted ``FlatIndex.search`` of ``queries``, by sorting every row's score."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n = len(index)
    if n == 0:
        return [[] for _ in Q]
    unit, rows, ids = index._prepare_queries(Q, False)[1], index._rows[:n], index._ids[:n]
    results = []
    for q in unit:
        s = np.vecdot(rows, q)
        top = np.argsort(-s, kind="stable")[:top_k]
        top = top[np.lexsort((ids[top], -s[top]))]
        hits = [IndexHit(int(ids[r]), float(np.clip(s[r], -1.0, 1.0))) for r in top]
        results.append([h for h in hits if score_threshold is None or h.score >= score_threshold])
    return results
