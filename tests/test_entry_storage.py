"""An entry's vector is stored once: as its row in the cache's vector index.

``MeanCache`` entries (the GPTCache baseline's configuration included) hold
texts, metadata and a context chain; ``entry.embedding`` reads the vector back from the index.
These tests pin that nothing the caches keep aliases an array handed to
them — in particular the ``(n, d)`` probe matrix of the lookup batch that
enrolled them — and that ``embedding_storage_bytes`` is what the process
holds.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import make_tiny_encoder

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.compression import compress_cache
from repro.core.context import ContextChain
from repro.core.storage import object_nbytes
from repro.embeddings.model import EncoderConfig, SiameseEncoder
from repro.index import FlatIndex
from repro.index.snapshot import native_float_dtype

N = 64
QUERIES = [f"question {i} about topic {i % 7} and item {i}" for i in range(N)]
CONTEXTS = [[f"earlier turn {i}"] if i % 2 else [] for i in range(N)]


def _enrol_one_batch(cache, embeddings=None) -> None:
    """One lookup batch over QUERIES, every miss enrolled with its decision's
    embedding (the serving layer's path)."""
    decisions = cache.lookup_batch(QUERIES, contexts=CONTEXTS, embeddings=embeddings)
    for decision, context in zip(decisions, CONTEXTS):
        assert not decision.hit
        cache.enroll(decision.query, f"answer {decision.query}", context, None, decision.embedding)


def _root(array: np.ndarray) -> np.ndarray:
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize(
    "config", [MeanCacheConfig(), GPTCACHE_CONFIG], ids=["MeanCache", "GPTCache"]
)
def test_enrolled_batch_matrix_is_freed_with_its_decisions(config):
    """Once the decisions are dropped, the batch's probe matrix is freed:
    no entry keeps a row view of it."""
    cache = MeanCache(make_tiny_encoder(), config)
    decisions = cache.lookup_batch(QUERIES)
    matrix = weakref.ref(_root(decisions[0].embedding))
    for decision in decisions:
        cache.enroll(decision.query, "answer", (), None, decision.embedding)
    del decisions, decision
    gc.collect()
    assert matrix() is None
    assert len(cache) == N


def test_no_stored_array_shares_memory_with_a_callers_array():
    encoder = make_tiny_encoder()
    cache = MeanCache(encoder)
    matrix = np.asarray(encoder.encode(QUERIES))
    # a chain already at the index's dtype, handed over as is
    chain = ContextChain(
        ("a parent turn",), np.asarray(encoder.encode(["a parent turn"]), np.float32)[0]
    )
    decisions = cache.lookup_batch(QUERIES, contexts=CONTEXTS, embeddings=matrix)
    for decision, context in zip(decisions, CONTEXTS):
        cache.enroll(decision.query, "answer", context, None, decision.embedding)
    cache.insert("handed a chain", "answer", context=chain, embedding=matrix[0])

    callers = [matrix, chain.embedding] + [d.embedding for d in decisions]
    stored = [cache.index.vectors()] + [
        e.context.embedding for e in cache.entries if not e.context.is_empty
    ]
    assert len(stored) == 1 + N // 2 + 1
    for array in stored:
        assert not any(np.shares_memory(array, caller) for caller in callers)


def test_reported_embedding_bytes_are_what_the_process_holds():
    """For N live entries, the memory the process holds for them is within
    10 % of ``embedding_storage_bytes()`` plus their texts.  At 2,048
    dimensions the per-entry Python objects are a few percent, so a second
    copy of each vector, or a pinned probe matrix, cannot hide in the
    margin."""
    encoder = SiameseEncoder(
        EncoderConfig(n_features=256, hidden_dim=32, output_dim=2048, seed=5)
    )
    cache = MeanCache(encoder, index=FlatIndex(dim=2048, initial_capacity=N))
    texts = QUERIES + [t for context in CONTEXTS for t in context]
    encoder.encode(texts)  # fill the tokenizer/featurizer memos before tracing
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _enrol_one_batch(cache)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    reported = cache.embedding_storage_bytes()
    text_bytes = sum(object_nbytes(e.query) + object_nbytes(e.response) for e in cache.entries)
    assert len(cache) == N
    assert reported <= held <= 1.10 * (reported + text_bytes)


def test_entries_hold_no_vector_and_read_it_from_the_index():
    encoder = make_tiny_encoder()
    cache = MeanCache(encoder)
    _enrol_one_batch(cache)
    central = MeanCache(encoder, GPTCACHE_CONFIG)
    _enrol_one_batch(central)
    for owner in (cache, central):
        for entry in owner.entries:
            assert not any(
                isinstance(getattr(entry, f.name), np.ndarray)
                for f in dataclasses.fields(entry)
            )
            np.testing.assert_array_equal(entry.embedding, owner.index.get(entry.entry_id))


def test_rebuild_embeddings_reads_through_the_rebuilt_index():
    """After a PCA head is attached and the cache re-embedded, each entry
    reads its new row and its chain is re-embedded at the index's dtype."""
    cache = MeanCache(make_tiny_encoder())
    _enrol_one_batch(cache)
    compress_cache(cache, n_components=8)
    native = native_float_dtype(cache.index)
    for entry in cache.entries:
        assert entry.embedding.shape == (8,)
        np.testing.assert_array_equal(entry.embedding, cache.index.get(entry.entry_id))
        if not entry.context.is_empty:
            assert entry.context.embedding.dtype == native
            assert entry.context.embedding.shape == (8,)
