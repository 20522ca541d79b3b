"""Differential test of the one top-k routine against its predecessor.

``chunked_topk`` was rewritten in place to reuse one buffer; what it must not
change is a single returned bit *or the order among exactly equal scores* —
with duplicated rows (the same text cached under several contexts) that order
decides which entries' context chains Algorithm 1 gets to verify.  The oracle
is the old body, kept verbatim in ``tests/reference_topk.py``; the cases are
generated, not hand-picked: duplicated rows, ``k`` from 1 to past the corpus
size, one to four probes, both float widths, ``chunk_size`` below ``k``, equal
to the corpus and above it, ``corpus_prenormalized`` both ways.  The same
comparison then runs through the public entry points the caches call.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_topk import (
    reference_chunked_topk,
    reference_flat_search,
    reference_semantic_search,
)
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings.similarity import chunked_topk, semantic_search
from repro.index import FlatIndex


def make_case(seed: int, n: int, distinct: int, q: int, dim: int, dtype, unit: bool):
    """A corpus of ``n`` rows drawn (with repeats) from ``distinct`` vectors,
    and ``q`` probes of which the first repeats a corpus row exactly."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((distinct, dim))
    corpus = base[rng.integers(0, distinct, size=n)]
    queries = rng.standard_normal((q, dim))
    queries[0] = corpus[rng.integers(0, n)]
    if unit:
        corpus = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
    queries = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    return queries.astype(dtype), np.ascontiguousarray(corpus.astype(dtype))


def chunk_sizes(n: int, k: int):
    """Below ``k`` (placeholders survive a block), mid-corpus, exactly the
    corpus, and above it (the single-block case every small cache runs)."""
    return sorted({1, max(1, k - 1), max(1, n // 2), n, n + 3, 65536})


def assert_same_topk(queries, corpus, k, chunk_size, prenormalized):
    want_scores, want_rows = reference_chunked_topk(
        queries, corpus, k, chunk_size=chunk_size, corpus_prenormalized=prenormalized
    )
    scores, rows = chunked_topk(
        queries, corpus, k, chunk_size=chunk_size, corpus_prenormalized=prenormalized
    )
    assert scores.shape == want_scores.shape and scores.dtype == want_scores.dtype
    assert rows.shape == want_rows.shape and rows.dtype == want_rows.dtype
    assert np.array_equal(rows, want_rows)
    assert scores.tobytes() == want_scores.tobytes()
    assert scores.flags.writeable  # FlatIndex.search clips in place


def hit_stream(results):
    """``(id or corpus row, score bits)`` per hit, ``IndexHit``/``SearchHit`` alike."""
    return [[(key, float(score).hex()) for key, score in map(astuple, hits)] for hits in results]


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    distinct_share=st.floats(0.0, 1.0),
    q=st.integers(1, 4),
    dim=st.integers(1, 8),
    dtype=st.sampled_from([np.float32, np.float64]),
    k_over=st.integers(-40, 2),
    prenormalized=st.booleans(),
)
def test_chunked_topk_matches_reference(
    seed, n, distinct_share, q, dim, dtype, k_over, prenormalized
):
    distinct = max(1, round(distinct_share * n))
    k = max(1, n + k_over)  # 1 … n + 2
    queries, corpus = make_case(seed, n, distinct, q, dim, dtype, unit=prenormalized)
    for chunk_size in chunk_sizes(n, k):
        assert_same_topk(queries, corpus, k, chunk_size, prenormalized)


def test_chunked_topk_matches_reference_seeded_sweep():
    """5,000 seeded cases on top of the Hypothesis ones: 0 mismatches."""
    rng = np.random.default_rng(2024)
    multi_chunk = below_k = 0
    for case in range(5000):
        n = int(rng.integers(1, 48))
        k = int(rng.integers(1, n + 3))
        chunk_size = int(rng.choice(chunk_sizes(n, k)))
        prenormalized = bool(case % 2)
        queries, corpus = make_case(
            seed=case,
            n=n,
            distinct=int(rng.integers(1, n + 1)),
            q=int(rng.integers(1, 5)),
            dim=int(rng.integers(1, 9)),
            dtype=(np.float32, np.float64)[(case // 2) % 2],
            unit=prenormalized,
        )
        assert_same_topk(queries, corpus, k, chunk_size, prenormalized)
        multi_chunk += chunk_size < n
        below_k += chunk_size < min(k, n)
    assert multi_chunk > 1000 and below_k > 500  # the sweep reaches both


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 5, 22, 64, 257])
def test_all_rows_equal_keeps_the_tie_order(n, dtype):
    """Every score ties: the returned rows are whatever the two selection
    calls leave, and that must be what they left before."""
    row = np.random.default_rng(n).standard_normal(16)
    row /= np.linalg.norm(row)
    corpus = np.ascontiguousarray(np.tile(row, (n, 1)).astype(dtype))
    queries = np.stack([row, -row]).astype(dtype)
    for k in sorted({1, min(5, n), n, n + 2}):
        for chunk_size in chunk_sizes(n, k):
            assert_same_topk(queries[:1], corpus, k, chunk_size, True)
            assert_same_topk(queries, corpus, k, chunk_size, True)


# --------------------------------------------------------------------------- #
# Through the public entry points
# --------------------------------------------------------------------------- #
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    distinct_share=st.floats(0.0, 1.0),
    q=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    top_k=st.integers(1, 8),
    chunk_size=st.sampled_from([1, 3, 7, 40, 65536]),
    threshold=st.sampled_from([None, -1.0, 0.0, 0.5, 1.0]),
)
def test_flat_search_matches_reference(
    seed, n, distinct_share, q, dtype, top_k, chunk_size, threshold
):
    queries, corpus = make_case(
        seed, n, max(1, round(distinct_share * n)), q, 8, np.float64, unit=False
    )
    index = FlatIndex(dtype=dtype, chunk_size=chunk_size)
    index.add_batch(corpus, ids=list(range(100, 100 + n)))
    for victim in range(100, 100 + n, 3)[: n // 4]:  # swap-deletes reorder the rows
        index.remove(victim)
    if len(index) == 0:
        return
    # The batch, the (d,) single-probe form (a gemv: its own last bits) and
    # the (1, d) matrix a cache lookup hands over; both single forms take
    # the one-probe path whenever the corpus fits one chunk.
    for probes in (queries, queries[0], queries[:1]):
        got = index.search(probes, top_k, threshold)
        assert hit_stream(got) == hit_stream(reference_flat_search(index, probes, top_k, threshold))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    distinct_share=st.floats(0.0, 1.0),
    q=st.integers(1, 4),
    top_k=st.integers(1, 8),
    chunk_size=st.sampled_from([1, 3, 7, 40, 65536]),
    threshold=st.sampled_from([None, 0.0, 0.9]),
)
def test_semantic_search_matches_reference(
    seed, n, distinct_share, q, top_k, chunk_size, threshold
):
    queries, corpus = make_case(
        seed, n, max(1, round(distinct_share * n)), q, 8, np.float64, unit=False
    )
    got = semantic_search(queries, corpus, top_k, threshold, chunk_size)
    want = reference_semantic_search(queries, corpus, top_k, threshold, chunk_size)
    assert hit_stream(got) == hit_stream(want)


def test_all_duplicate_index_returns_the_same_ids_in_the_same_order():
    row = np.random.default_rng(7).standard_normal(32)
    for n in (3, 6, 22, 70):
        index = FlatIndex(chunk_size=16)
        index.add_batch(np.tile(row, (n, 1)), ids=list(range(10, 10 + n)))
        index.remove(10 + n // 2)
        for top_k in (1, 5, n + 1):
            got = index.search(row, top_k=top_k)
            assert hit_stream(got) == hit_stream(reference_flat_search(index, row, top_k))
            scores = [h.score for h in got[0]]
            assert max(scores) - min(scores) < 1e-6  # ties up to the BLAS kernel's tail


def test_same_text_under_many_contexts_keeps_its_candidate_order(tiny_encoder):
    """More than ``top_k`` entries share one embedding (one text, different
    conversations): which of them are retrieved — hence verified against the
    probe's context — is decided by tie order alone."""
    cache = MeanCache(tiny_encoder, MeanCacheConfig(top_k=3, similarity_threshold=0.9))
    text = "change the color to red"
    parents = [f"how do I draw a {shape} in matplotlib" for shape in
               ("circle", "square", "line", "histogram", "heatmap", "violin plot", "pie")]
    ids = [cache.insert(text, f"answer {i}", context=[p]) for i, p in enumerate(parents)]
    cache.insert("an unrelated question about sourdough hydration", "72 percent")
    cache.remove(ids[1])  # the last row swaps into its slot
    for parent in (parents[4], parents[0], "something never cached"):
        decision = cache.lookup(text, context=[parent])
        want = reference_flat_search(cache.index, decision.embedding, top_k=3)[0]
        assert [(h.id, h.score.hex()) for h in decision.candidates] == [
            (h.id, h.score.hex()) for h in want
        ]
        scores = [h.score for h in decision.candidates]
        assert max(scores) - min(scores) < 1e-6
        assert {h.id for h in decision.candidates} <= set(ids)
