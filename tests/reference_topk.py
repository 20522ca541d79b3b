"""Brute-force oracle of the one ranking rule every search follows.

Score every row, stable-sort by descending score (equal scores keep row
order), keep the first ``k`` and list them by ``(-score, id)``.  The scores
are the index's own products — the ``(q, d) @ (d, chunk)`` blocks
``FlatIndex.search`` multiplies — so the comparison is on ids and score bits.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.index import FlatIndex, IndexHit


def reference_search(
    index: FlatIndex, queries: np.ndarray, top_k: int = 5, score_threshold: Optional[float] = None
) -> List[List[IndexHit]]:
    """The unrouted ``FlatIndex.search`` of ``queries``, by sorting every score."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n, chunk = len(index), index._chunk_size
    if n == 0:
        return [[] for _ in Q]
    unit, rows, ids = index._prepare_queries(Q, False)[1], index._rows[:n], index._ids[:n]
    scores = np.concatenate([unit @ rows[s : s + chunk].T for s in range(0, n, chunk)], axis=1)
    results = []
    for s in scores:
        top = np.argsort(-s, kind="stable")[:top_k]
        top = top[np.lexsort((ids[top], -s[top]))]
        hits = [IndexHit(int(ids[r]), float(np.clip(s[r], -1.0, 1.0))) for r in top]
        results.append([h for h in hits if score_threshold is None or h.score >= score_threshold])
    return results
