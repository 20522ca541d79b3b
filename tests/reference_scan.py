"""Decode-to-float64 reference scan: the oracle the quantized scans are checked against.

What ``QuantizedIndex`` used to carry as a second, runtime-selectable scan
path, now a brute force: every candidate row (every row, or those of the
cells the index probes) is dequantized to float64 and scored against the
float64 unit query with its own dot product (one ``np.vecdot`` per row), and
:func:`~repro.index.postings.topk_hits` ranks them.  The index's fast scan
only cuts, and its rank rescores every row within rounding of the cut the
same way, so its hits must equal this oracle's exactly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.index import IndexHit, QuantizedIndex
from repro.index.body import normalize_rows
from repro.index.postings import topk_hits
from repro.index.routing import best_cells


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
        probes = best_cells(cscores, min(router.nprobe, router.nlist))
    results = []
    for qi, q64 in enumerate(unit):
        rows = np.arange(n)
        if router.is_trained:
            cells = [router.lists[li].view() for li in probes[qi]]
            rows = np.sort(router.row_map.rows(np.concatenate(cells)))
        results.append(topk_hits(ids[rows], np.vecdot(decoded[rows], q64), top_k, None))
    return results
