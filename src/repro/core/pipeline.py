"""The lookup rule (paper Algorithm 1) as three plain functions.

Every semantic cache in the repo answers a batch of probes the same way:

    embed_probes → search_candidates → first_admissible (per probe)

``MeanCache`` calls all three from its ``_lookup`` body and builds the
decision itself; the quantized L2 tier's ``match`` calls
:func:`first_admissible` over its own search, so the τ + context rule exists
once.  The functions hold no state and read no config: the caller passes the
values in force for this call, which is how a re-learned τ or a replaced
config applies to the very next probe.  ``tests/test_pipeline_parity.py``
pins the decisions against the seed's monolithic loops.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.model import SiameseEncoder
from repro.index import IndexHit, VectorIndex

__all__ = ["embed_probes", "search_candidates", "first_admissible"]


def embed_probes(
    encoder: SiameseEncoder,
    queries: Sequence[str],
    compress: bool,
    embeddings: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """The batch's ``(n, d)`` float64 probe matrix and the per-probe cost.

    One ``encoder.encode`` call covers the whole batch; its wall-clock time
    is split evenly over the probes.  ``embeddings`` (one row per query, from
    the same encoder and compression setting) skips the call — the serving
    layer embeds a whole flush upstream — and is reported as free.
    """
    if embeddings is not None:
        matrix = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if len(matrix) != len(queries):
            raise ValueError("embeddings must align with queries")
        return matrix, 0.0
    start = time.perf_counter()
    matrix = np.atleast_2d(
        np.asarray(encoder.encode(list(queries), compress=compress), dtype=np.float64)
    )
    return matrix, (time.perf_counter() - start) / len(queries)


def search_candidates(
    index: VectorIndex,
    embeddings: np.ndarray,
    top_k: int,
) -> Tuple[List[List[IndexHit]], float]:
    """Ranked top-k candidates per probe row and the per-probe search cost.

    One index call covers the batch, and every probe gets its full top-k:
    Algorithm 1 checks each candidate that clears τ in rank order, so the
    scan never stops at the first good one.  An empty index is not searched
    (every probe gets ``[]`` at a cost of exactly 0.0).
    """
    if len(index) == 0:
        return [[] for _ in embeddings], 0.0
    start = time.perf_counter()
    hit_lists = index.search(embeddings, top_k=min(int(top_k), len(index)))
    return hit_lists, (time.perf_counter() - start) / len(embeddings)


def first_admissible(
    hits: Sequence[IndexHit],
    threshold: float,
    context_ok: Optional[Callable[[int], bool]] = None,
) -> Tuple[Optional[IndexHit], bool]:
    """The first candidate, in rank order, that clears τ and the context rule.

    Returns ``(winner or None, context_checked)``.  A score that is not
    ``>= threshold`` is skipped, so a NaN never wins.  ``context_ok(entry_id)``
    (``None`` when context verification is off) is asked only about
    candidates that cleared τ, so a caller that embeds the probe's context
    chain inside it pays for that lazily; ``context_checked`` reports whether
    it was asked at all.
    """
    context_checked = False
    for hit in hits:
        if not hit.score >= threshold:
            continue
        if context_ok is not None:
            context_checked = True
            if not context_ok(hit.id):
                continue
        return hit, context_checked
    return None, context_checked
