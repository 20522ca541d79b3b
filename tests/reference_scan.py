"""Decode-to-float64 reference scan: the oracle the quantized scans are checked against.

What ``QuantizedIndex`` used to carry as a second, runtime-selectable scan
path: every candidate row is dequantized to a materialized float64 matrix
and scored with one plain matmul — no query tables, no chunk pre-selection, no
probe pruning.  With ``rescore > 1`` the index's final
scores are a float64 rescore of a deterministic candidate set, so its hits
must equal this oracle's exactly; with ``rescore == 1`` only within codec
error.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.index import IndexHit, QuantizedIndex
from repro.index.postings import det_topk, topk_hits
from repro.index.routing import sorted_probes
from repro.index.store import normalize_rows


def reference_search(
    index: QuantizedIndex, queries: np.ndarray, top_k: int
) -> List[List[IndexHit]]:
    """Top-``top_k`` hits of a trained ``index`` by the decode scan."""
    unit = normalize_rows(queries)[0]
    n = len(index)
    ids = np.asarray(index.ids, dtype=np.int64)
    decoded = index.codec.decode(index._rows[:n], dtype=np.float64)
    router = index._router
    if router.is_trained:  # only the rows of the cells the index probes
        cscores = unit.astype(np.float32) @ router.centroids.T
        probes = sorted_probes(cscores, min(router.nprobe, router.nlist))
    results = []
    for qi, q64 in enumerate(unit):
        rows = np.arange(n)
        if router.is_trained:
            cells = [router.lists[li].view() for li in probes[qi]]
            rows = np.sort(router.row_map.rows(np.concatenate(cells)))
        scores = decoded[rows] @ q64
        if index.rescore > 1:
            rows = rows[det_topk(scores, min(top_k * index.rescore, rows.shape[0]))]
            scores = decoded[rows] @ q64
        results.append(topk_hits(ids[rows], scores, top_k, None))
    return results
