"""Cosine similarity and vectorized top-k semantic search.

This replaces SBERT's ``util.semantic_search``: given a query embedding and a
matrix of cached embeddings, return the top-k most similar cached entries and
their cosine scores.  The search is a single (chunked) matrix multiplication,
which keeps per-probe cost O(N * d) — the quantity measured in the paper's
Figure 10(b) search-time experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity between rows of ``a`` and rows of ``b``.

    Accepts 1-D or 2-D inputs; returns a scalar for two 1-D inputs, otherwise
    an ``(n_a, n_b)`` matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scalar = a.ndim == 1 and b.ndim == 1
    A = np.atleast_2d(a)
    B = np.atleast_2d(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    a_norm = np.linalg.norm(A, axis=1, keepdims=True)
    b_norm = np.linalg.norm(B, axis=1, keepdims=True)
    a_safe = A / np.where(a_norm > 1e-12, a_norm, 1.0)
    b_safe = B / np.where(b_norm > 1e-12, b_norm, 1.0)
    sims = a_safe @ b_safe.T
    return float(sims[0, 0]) if scalar else sims


@dataclass(frozen=True)
class SearchHit:
    """A single semantic-search result."""

    index: int
    score: float


def chunked_topk(
    normalized_queries: np.ndarray,
    corpus: np.ndarray,
    top_k: int,
    chunk_size: int = 65536,
    corpus_prenormalized: bool = False,
) -> "tuple[np.ndarray, np.ndarray]":
    """Chunked top-k merge: the shared core of every cosine search.

    Streams the corpus in ``chunk_size`` row blocks, computes one matmul per
    block and keeps a running top-k per query, so peak extra memory is bounded
    by the chunk regardless of corpus size.  Both :func:`semantic_search` and
    :class:`repro.index.FlatIndex` search through this routine.

    The selection is ``argpartition`` over ``[running best | -sims]`` per
    block and one ``argsort`` of the k survivors; those two calls on those
    values *define* the returned scores and the order among exactly equal
    ones, so everything around them is bookkeeping and is kept to one
    ``(q, k + chunk)`` buffer of negated scores: the block's similarities are
    negated straight into its tail, the running best is written back into its
    first k columns, and a survivor's corpus row is its buffer column shifted
    by ``start - k`` (no index matrix is built).  The k leading columns start
    as ``+inf`` placeholders and stay part of the partitioned row even when a
    single block covers the corpus: partitioning ``k + n`` values does not
    leave ties in the order partitioning the ``n`` alone would.  A single
    probe runs the same calls on 1-D views.

    Parameters
    ----------
    normalized_queries:
        ``(q, d)`` array of **unit-norm** query rows.
    corpus:
        ``(n, d)`` corpus matrix with ``n >= 1``.
    top_k:
        Candidates kept per query (callers cap it at the corpus size).
    chunk_size:
        Corpus rows per matmul block.
    corpus_prenormalized:
        When True the corpus rows are already unit-norm (the incremental
        index's invariant) and per-chunk normalization is skipped — this is
        what removes the per-lookup corpus pass.

    Returns
    -------
    ``(scores, indices)`` arrays of shape ``(q, k)`` with
    ``k = min(top_k, n_corpus)``, each row sorted by descending score.  Every
    returned score is finite (the ``+inf`` placeholders never survive, since
    k is capped at the corpus size).
    """
    n_queries = normalized_queries.shape[0]
    n_corpus = corpus.shape[0]
    k = min(top_k, n_corpus)
    buffer = np.empty(
        (n_queries, k + min(chunk_size, n_corpus)),
        dtype=np.result_type(normalized_queries, corpus),
    )
    if n_queries == 1:
        neg, rows = buffer[0], ()
    else:
        neg, rows = buffer, (np.arange(n_queries)[:, None],)
    best = np.inf  # negated running best; placeholders before the first block

    for start in range(0, n_corpus, chunk_size):
        chunk = corpus[start : start + chunk_size]
        if not corpus_prenormalized:
            c_norm = np.linalg.norm(chunk, axis=1, keepdims=True)
            chunk = chunk / np.where(c_norm > 1e-12, c_norm, 1.0)
        stop = k + chunk.shape[0]
        neg[..., :k] = best
        np.negative(normalized_queries @ chunk.T, out=buffer[:, k:stop])
        top = neg[..., :stop].argpartition(k - 1)[..., :k]
        fresh = top - (k - start)  # corpus rows, for survivors from this block
        if start or stop < 2 * k:
            # A column below k may survive: an earlier block's candidate keeps
            # the row it was given there (a placeholder's was 0).
            carried = best_indices[rows + (np.minimum(top, k - 1),)] if start else 0
            fresh = np.where(top < k, carried, fresh)
        best_indices = fresh
        best = neg[rows + (top,)]

    order = rows + (best.argsort(),)
    return (
        np.negative(best[order]).reshape(n_queries, k),
        best_indices[order].reshape(n_queries, k),
    )


def semantic_search(
    query_embeddings: np.ndarray,
    corpus_embeddings: np.ndarray,
    top_k: int = 5,
    score_threshold: float | None = None,
    chunk_size: int = 65536,
) -> List[List[SearchHit]]:
    """Top-k cosine search of query embeddings against a corpus.

    This is the brute-force reference: the corpus is re-normalized on every
    call, which costs a full extra pass over the matrix.  Long-lived caches
    should search through :class:`repro.index.FlatIndex`, which keeps rows
    pre-normalized and skips that pass.

    Parameters
    ----------
    query_embeddings:
        ``(q, d)`` or ``(d,)`` array of query embeddings.
    corpus_embeddings:
        ``(n, d)`` array of cached embeddings.
    top_k:
        Number of hits per query (fewer if the corpus is smaller).
    score_threshold:
        If given, drop hits scoring below the threshold.
    chunk_size:
        Corpus rows processed per matmul chunk, bounding peak memory.

    Returns
    -------
    One list of :class:`SearchHit` (sorted by descending score) per query.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    queries = np.atleast_2d(np.asarray(query_embeddings, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus_embeddings, dtype=np.float64))
    n_queries = queries.shape[0]
    if corpus.size == 0:
        return [[] for _ in range(n_queries)]
    if queries.shape[1] != corpus.shape[1]:
        raise ValueError(
            f"query dim {queries.shape[1]} != corpus dim {corpus.shape[1]}"
        )

    q_norm = np.linalg.norm(queries, axis=1, keepdims=True)
    queries_n = queries / np.where(q_norm > 1e-12, q_norm, 1.0)

    best_scores, best_indices = chunked_topk(
        queries_n, corpus, top_k=top_k, chunk_size=chunk_size
    )

    results: List[List[SearchHit]] = []
    for qi in range(n_queries):
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


def pairwise_cosine(pairs_a: np.ndarray, pairs_b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity between two equally-shaped batches."""
    A = np.atleast_2d(np.asarray(pairs_a, dtype=np.float64))
    B = np.atleast_2d(np.asarray(pairs_b, dtype=np.float64))
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    a_norm = np.linalg.norm(A, axis=1)
    b_norm = np.linalg.norm(B, axis=1)
    denom = a_norm * b_norm
    dots = np.einsum("ij,ij->i", A, B)
    return dots / np.where(denom > 1e-12, denom, 1.0)
