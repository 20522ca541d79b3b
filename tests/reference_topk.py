"""The top-k merge as it stood before the buffer-reuse rewrite: the oracle.

``reference_chunked_topk`` is the former body of
:func:`repro.embeddings.similarity.chunked_topk`, moved here verbatim (the
``tests/reference_scan.py`` convention).  Its two selection calls —
``argpartition`` over ``[running best | sims]`` negated, then ``argsort`` of
the k survivors — define the scores *and the order among exactly equal
scores* that every flat search returns, so the production routine is checked
against it on indices and on score bytes.  ``reference_flat_search`` and
``reference_semantic_search`` are the former hit-materialising loops of
``FlatIndex.search`` and ``semantic_search`` over that oracle, so the whole
public path is compared, not just the kernel.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.embeddings.similarity import SearchHit
from repro.index import FlatIndex, IndexHit


def reference_chunked_topk(
    normalized_queries: np.ndarray,
    corpus: np.ndarray,
    top_k: int,
    chunk_size: int = 65536,
    corpus_prenormalized: bool = False,
) -> "tuple[np.ndarray, np.ndarray]":
    n_queries = normalized_queries.shape[0]
    n_corpus = corpus.shape[0]
    k = min(top_k, n_corpus)
    best_scores = np.full((n_queries, k), -np.inf, dtype=np.result_type(normalized_queries, corpus))
    best_indices = np.zeros((n_queries, k), dtype=np.int64)

    for start in range(0, n_corpus, chunk_size):
        chunk = corpus[start : start + chunk_size]
        if not corpus_prenormalized:
            c_norm = np.linalg.norm(chunk, axis=1, keepdims=True)
            chunk = chunk / np.where(c_norm > 1e-12, c_norm, 1.0)
        sims = normalized_queries @ chunk.T  # (q, chunk)
        # Merge this chunk's candidates with the running best.
        combined_scores = np.concatenate([best_scores, sims], axis=1)
        combined_indices = np.concatenate(
            [best_indices, np.broadcast_to(np.arange(start, start + chunk.shape[0]), sims.shape)],
            axis=1,
        )
        top = np.argpartition(-combined_scores, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(n_queries)[:, None]
        best_scores = combined_scores[rows, top]
        best_indices = combined_indices[rows, top]

    order = np.argsort(-best_scores, axis=1)
    rows = np.arange(n_queries)[:, None]
    return best_scores[rows, order], best_indices[rows, order]


def reference_flat_search(
    index: FlatIndex,
    queries: np.ndarray,
    top_k: int = 5,
    score_threshold: Optional[float] = None,
) -> List[List[IndexHit]]:
    """``FlatIndex.search`` as it materialised hits before, over the oracle."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = Q.shape[0]
    if len(index) == 0:
        return [[] for _ in range(n_queries)]
    # Copied out of scratch: the search under test reuses the same buffer.
    queries_n = index._prepare_queries(Q, False).copy()
    scores, rows = reference_chunked_topk(
        queries_n,
        index._rows[: len(index)],
        top_k=top_k,
        chunk_size=index._chunk_size,
        corpus_prenormalized=True,
    )
    np.clip(scores, -1.0, 1.0, out=scores)
    live_ids = index._ids[: len(index)]
    results: List[List[IndexHit]] = []
    for qi in range(n_queries):
        hits: List[IndexHit] = []
        for j in range(scores.shape[1]):
            score = float(scores[qi, j])
            if not np.isfinite(score):
                continue
            if score_threshold is not None and score < score_threshold:
                continue
            hits.append(IndexHit(id=int(live_ids[rows[qi, j]]), score=score))
        results.append(hits)
    return results


def reference_semantic_search(
    query_embeddings: np.ndarray,
    corpus_embeddings: np.ndarray,
    top_k: int = 5,
    score_threshold: Optional[float] = None,
    chunk_size: int = 65536,
) -> List[List[SearchHit]]:
    """``semantic_search`` over the oracle (non-empty corpus)."""
    queries = np.atleast_2d(np.asarray(query_embeddings, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus_embeddings, dtype=np.float64))
    q_norm = np.linalg.norm(queries, axis=1, keepdims=True)
    queries_n = queries / np.where(q_norm > 1e-12, q_norm, 1.0)
    best_scores, best_indices = reference_chunked_topk(
        queries_n, corpus, top_k=top_k, chunk_size=chunk_size
    )
    results: List[List[SearchHit]] = []
    for qi in range(queries.shape[0]):
        hits = []
        for j in range(best_scores.shape[1]):
            score = float(best_scores[qi, j])
            if not np.isfinite(score):
                continue
            if score_threshold is not None and score < score_threshold:
                continue
            hits.append(SearchHit(index=int(best_indices[qi, j]), score=score))
        results.append(hits)
    return results
