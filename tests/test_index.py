"""Tests for the incremental vector index (repro.index).

The load-bearing property is *parity*: FlatIndex.search must agree with a
brute-force cosine ranking of the vectors it currently holds — including after deletions (swap-with-last) and capacity growth —
up to the float32 storage tolerance.
"""

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings.similarity import cosine_similarity
from repro.index import FlatIndex, IndexHit, VectorIndex

SCORE_ATOL = 1e-5  # float32 storage vs float64 reference


def brute_force(queries, vectors, top_k):
    """``(row, score)`` of the ``top_k`` rows of ``vectors`` most similar to
    each query, by descending score."""
    sims = cosine_similarity(np.atleast_2d(queries), vectors)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :top_k]
    return [[(int(r), float(s[r])) for r in rows] for s, rows in zip(sims, order)]


def assert_parity(index, vectors, ids, queries, top_k=5, atol=SCORE_ATOL):
    """index.search must match brute-force search over (vectors, ids)."""
    got = index.search(queries, top_k=top_k)
    ref = brute_force(queries, vectors, top_k)
    assert len(got) == len(ref)
    for got_hits, ref_hits in zip(got, ref):
        assert len(got_hits) == len(ref_hits)
        np.testing.assert_allclose(
            [h.score for h in got_hits], [score for _, score in ref_hits], atol=atol
        )
        assert [h.id for h in got_hits] == [ids[row] for row, _ in ref_hits]


class TestFlatIndexBasics:
    def test_is_a_vector_index(self):
        assert isinstance(FlatIndex(), VectorIndex)

    def test_empty_index_searches_empty(self):
        index = FlatIndex(dim=8)
        assert len(index) == 0
        assert index.search(np.ones(8), top_k=3) == [[]]
        assert index.search(np.ones((4, 8)), top_k=3) == [[], [], [], []]
        assert index.ids == []
        assert index.nbytes == 0

    def test_remove_from_empty_raises(self):
        with pytest.raises(KeyError):
            FlatIndex(dim=4).remove(0)

    def test_get_unknown_id_raises(self):
        index = FlatIndex(dim=4)
        index.add(np.ones(4))
        with pytest.raises(KeyError):
            index.get(99)

    def test_auto_ids_are_sequential(self, rng):
        index = FlatIndex()
        ids = [index.add(rng.normal(size=8)) for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_explicit_and_duplicate_ids(self, rng):
        index = FlatIndex()
        index.add(rng.normal(size=8), id=42)
        with pytest.raises(ValueError):
            index.add(rng.normal(size=8), id=42)
        # Auto ids continue past explicit ones.
        assert index.add(rng.normal(size=8)) == 43

    def test_dim_mismatch_rejected(self, rng):
        index = FlatIndex()
        index.add(rng.normal(size=8))
        with pytest.raises(ValueError):
            index.add(rng.normal(size=9))
        with pytest.raises(ValueError):
            index.search(rng.normal(size=9))

    def test_invalid_top_k(self, rng):
        index = FlatIndex()
        index.add(rng.normal(size=4))
        with pytest.raises(ValueError):
            index.search(np.ones(4), top_k=0)

    def test_get_roundtrips_raw_vector(self, rng):
        index = FlatIndex()
        v = rng.normal(size=16) * 3.7
        vid = index.add(v)
        np.testing.assert_allclose(index.get(vid), v, atol=1e-5)
        assert vid in index
        assert 123 not in index

    def test_zero_vector_is_safe(self):
        index = FlatIndex(dim=4)
        zid = index.add(np.zeros(4))
        hits = index.search(np.ones(4), top_k=1)[0]
        assert hits[0].id == zid
        assert hits[0].score == pytest.approx(0.0, abs=1e-6)

    def test_scores_clipped_to_unit_range(self, rng):
        index = FlatIndex()
        v = rng.normal(size=64)
        index.add(v)
        score = index.search(v, top_k=1)[0][0].score
        assert score <= 1.0
        assert score == pytest.approx(1.0, abs=1e-6)

    def test_finds_exact_match_first(self, rng):
        X = rng.normal(size=(50, 16))
        index = FlatIndex()
        ids = index.add_batch(X)
        hits = index.search(X[17], top_k=3)[0]
        assert hits[0].id == ids[17]
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_top_k_capped_by_corpus_size(self, rng):
        index = FlatIndex()
        index.add_batch(rng.normal(size=(4, 8)))
        assert [len(hits) for hits in index.search(rng.normal(size=(2, 8)), top_k=10)] == [4, 4]

    def test_threshold_filters(self, rng):
        index = FlatIndex()
        for _ in range(10):
            index.add(rng.normal(size=8))
        assert index.search(rng.normal(size=8), top_k=10, score_threshold=2.0) == [[]]

    def test_clear_resets(self, rng):
        index = FlatIndex()
        index.add_batch(rng.normal(size=(10, 8)))
        index.clear()
        assert len(index) == 0 and index.nbytes == 0
        assert index.add(rng.normal(size=8)) == 0  # ids reset too

    def test_clear_unpins_data_driven_dim(self, rng):
        index = FlatIndex()
        index.add(rng.normal(size=8))
        index.clear()
        index.add(rng.normal(size=16))  # a new dim is acceptable after clear
        assert index.dim == 16

    def test_clear_keeps_constructor_dim(self, rng):
        index = FlatIndex(dim=8)
        index.add(rng.normal(size=8))
        index.clear()
        with pytest.raises(ValueError):
            index.add(rng.normal(size=16))

    def test_matrix_nbytes_excludes_bookkeeping(self, rng):
        index = FlatIndex()
        index.add_batch(rng.normal(size=(10, 8)))
        assert index.matrix_nbytes == 10 * 8 * 4  # float32 rows only
        assert index.nbytes > index.matrix_nbytes  # norms + ids on top

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nbytes_accounting_pinned(self, rng, dtype):
        """nbytes = matrix + one norm + one id per live row — exactly.

        Pins the storage-accounting identity so the norm column can neither
        be double-counted (inside the matrix term) nor silently dropped, for
        both storage dtypes and across growth and deletion.
        """
        dim, itemsize = 8, np.dtype(dtype).itemsize
        index = FlatIndex(dim=dim, dtype=dtype, initial_capacity=4)
        per_row = dim * itemsize + itemsize + 8  # row + norm + int64 id
        for n in (3, 4, 9, 64, 100):  # crosses several capacity doublings
            while len(index) < n:
                index.add(rng.normal(size=dim))
            assert index.nbytes == n * per_row
            assert index.matrix_nbytes == n * dim * itemsize
            assert index.nbytes - index.matrix_nbytes == n * (itemsize + 8)
        index.remove(index.ids[0])
        assert index.nbytes == 99 * per_row
        # The allocation itself is larger (capacity doubling) but must obey
        # the same per-row formula at capacity rows.
        assert index.allocated_nbytes == index.capacity * per_row
        assert index.allocated_nbytes >= index.nbytes
        index.clear()
        assert index.nbytes == 0 and index.allocated_nbytes == 0


class TestFlatIndexParity:
    def test_matches_brute_force_on_random_corpus(self, rng):
        X = rng.normal(size=(300, 24))
        index = FlatIndex()
        ids = index.add_batch(X)
        assert_parity(index, X, ids, rng.normal(size=(7, 24)), top_k=5)

    def test_matches_after_growth_past_capacity(self, rng):
        index = FlatIndex(initial_capacity=4)
        X = rng.normal(size=(100, 16))
        ids = [index.add(x) for x in X]
        assert index.capacity >= 100
        assert_parity(index, X, ids, rng.normal(size=(5, 16)), top_k=4)

    def test_matches_after_deletions(self, rng):
        X = rng.normal(size=(120, 16))
        index = FlatIndex()
        ids = index.add_batch(X)
        removed = set(rng.choice(ids, size=40, replace=False).tolist())
        for rid in removed:
            index.remove(rid)
        keep = [i for i in ids if i not in removed]
        assert sorted(index.ids) == sorted(keep)
        assert_parity(index, X[keep], keep, rng.normal(size=(6, 16)), top_k=5)

    def test_matches_after_interleaved_add_remove(self, rng):
        index = FlatIndex()
        live = {}
        for step in range(200):
            if live and rng.random() < 0.35:
                victim = int(rng.choice(list(live)))
                index.remove(victim)
                del live[victim]
            else:
                v = rng.normal(size=12)
                live[index.add(v)] = v
        keep = sorted(live)
        assert sorted(index.ids) == keep
        assert_parity(
            index, np.array([live[i] for i in keep]), keep, rng.normal(size=(4, 12)), top_k=3
        )

    def test_remove_down_to_empty_then_refill(self, rng):
        index = FlatIndex()
        ids = index.add_batch(rng.normal(size=(5, 8)))
        for i in ids:
            index.remove(i)
        assert len(index) == 0
        assert index.search(np.ones(8), top_k=2) == [[]]
        X = rng.normal(size=(10, 8))
        new_ids = index.add_batch(X)
        assert set(new_ids).isdisjoint(ids)  # ids are never recycled
        assert_parity(index, X, new_ids, rng.normal(size=(3, 8)), top_k=2)

    def test_rebuild_replaces_contents(self, rng):
        index = FlatIndex()
        index.add_batch(rng.normal(size=(20, 8)))
        Y = rng.normal(size=(15, 32))
        ids = [100 + i for i in range(15)]
        index.rebuild(Y, ids=ids)
        assert len(index) == 15 and index.dim == 32
        assert_parity(index, Y, ids, rng.normal(size=(4, 32)), top_k=3)

    def test_rebuild_respects_constructor_dim(self, rng):
        """A constructor-pinned dim constrains rebuild, matching clear()."""
        index = FlatIndex(dim=4)
        index.add_batch(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            index.rebuild(rng.normal(size=(2, 3)), ids=[0, 1])
        assert index.dim == 4
        # A data-driven dim may still change across rebuilds.
        free = FlatIndex()
        free.add_batch(rng.normal(size=(3, 4)))
        free.rebuild(rng.normal(size=(2, 7)), ids=[0, 1])
        assert free.dim == 7

    def test_rebuild_to_empty(self, rng):
        index = FlatIndex()
        index.add_batch(rng.normal(size=(5, 8)))
        index.rebuild([], [])
        assert len(index) == 0
        assert index.search(np.ones(8), top_k=2) == [[]]
        with pytest.raises(ValueError):
            index.rebuild(rng.normal(size=(2, 8)), ids=[0])  # misaligned still rejected

    def test_float64_mode_matches_reference_exactly(self, rng):
        X = rng.normal(size=(80, 16))
        index = FlatIndex(dtype=np.float64)
        ids = index.add_batch(X)
        assert_parity(index, X, ids, rng.normal(size=16), top_k=5, atol=1e-12)

    def test_chunked_search_matches_unchunked(self, rng):
        X = rng.normal(size=(150, 8))
        chunked = FlatIndex(chunk_size=13)
        plain = FlatIndex()
        chunked.add_batch(X)
        plain.add_batch(X)
        q = rng.normal(size=(3, 8))
        for a, b in zip(chunked.search(q, top_k=6), plain.search(q, top_k=6)):
            assert [h.id for h in a] == [h.id for h in b]
            np.testing.assert_allclose([h.score for h in a], [h.score for h in b])

    def test_hits_are_index_hits(self, rng):
        index = FlatIndex()
        index.add(rng.normal(size=4))
        hit = index.search(rng.normal(size=4), top_k=1)[0][0]
        assert isinstance(hit, IndexHit)
        assert isinstance(hit.id, int) and isinstance(hit.score, float)


class TestLookupBatchEquivalence:
    def _queries(self):
        return [
            "How can I sort a list in python?",
            "What is the best way to order a python list?",
            "How do I plan a trip to japan?",
            "Tips for how to bake chocolate chip cookies",
        ]

    def test_batch_matches_sequential_lookups(self):
        seq_cache = MeanCache(make_tiny_encoder(seed=7), MeanCacheConfig(similarity_threshold=0.6))
        bat_cache = MeanCache(make_tiny_encoder(seed=7), MeanCacheConfig(similarity_threshold=0.6))
        cached = [f"question number {i} about subject {i % 5}" for i in range(30)]
        cached += self._queries()[:2]
        seq_cache.populate(cached)
        bat_cache.populate(cached)

        probes = self._queries() + [f"question number {i} about subject {i % 5}" for i in range(5)]
        sequential = [seq_cache.lookup(q) for q in probes]
        batched = bat_cache.lookup_batch(probes)

        assert len(batched) == len(sequential)
        for s, b in zip(sequential, batched):
            assert b.hit == s.hit
            assert b.response == s.response
            assert b.matched_query == s.matched_query
            assert b.entry_id == s.entry_id
            assert b.similarity == pytest.approx(s.similarity, abs=1e-6)
        assert bat_cache.stats.lookups == seq_cache.stats.lookups
        assert bat_cache.stats.hits == seq_cache.stats.hits
        assert bat_cache.stats.misses == seq_cache.stats.misses

    def test_batch_with_contexts_matches_sequential(self):
        enc = make_tiny_encoder(seed=9)
        seq_cache = MeanCache(enc.clone(), MeanCacheConfig(similarity_threshold=0.6))
        bat_cache = MeanCache(enc.clone(), MeanCacheConfig(similarity_threshold=0.6))
        parent = "How can I sort a list in python?"
        for cache in (seq_cache, bat_cache):
            cache.insert(parent, "use sorted()")
            cache.insert("Change the color to red", "set color='red'", context=[parent])
        probes = ["Change the color to red", "Change the color to red", parent]
        contexts = [[parent], ["Tips for how to bake chocolate chip cookies"], []]
        sequential = [seq_cache.lookup(q, context=c) for q, c in zip(probes, contexts)]
        batched = bat_cache.lookup_batch(probes, contexts=contexts)
        for s, b in zip(sequential, batched):
            assert b.hit == s.hit
            assert b.entry_id == s.entry_id

    def test_batch_on_empty_cache_all_miss(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        decisions = cache.lookup_batch(["query one alpha", "query two beta"])
        assert [d.hit for d in decisions] == [False, False]
        assert cache.stats.lookups == 2 and cache.stats.misses == 2

    def test_batch_validates_inputs(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        assert cache.lookup_batch([]) == []
        with pytest.raises(ValueError):
            cache.lookup_batch(["ok query", "  "])
        with pytest.raises(ValueError):
            cache.lookup_batch(["ok query"], contexts=[[], []])

    def test_batch_overheads_are_amortized(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        cache.populate([f"question number {i} about subject {i}" for i in range(10)])
        decisions = cache.lookup_batch([f"probe number {i}" for i in range(4)])
        embed_times = {d.embed_time_s for d in decisions}
        search_times = {d.search_time_s for d in decisions}
        assert len(embed_times) == 1 and len(search_times) == 1
        assert embed_times.pop() > 0


class TestCacheIndexIntegration:
    def test_cache_exposes_its_index(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        cache.populate(["alpha bravo", "charlie delta"])
        assert isinstance(cache.index, FlatIndex)
        assert len(cache.index) == 2
        assert sorted(cache.index.ids) == [e.entry_id for e in cache.entries]

    def test_eviction_keeps_index_and_entries_aligned(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(max_entries=4))
        for i in range(12):
            cache.insert(f"query number {i} about topic {i}", f"r{i}")
        assert len(cache) == 4 and len(cache.index) == 4
        assert sorted(cache.index.ids) == sorted(e.entry_id for e in cache.entries)

    def test_rebuild_embeddings_keeps_search_working(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.9))
        cache.insert("sort a python list", "resp")
        cache.insert("bake chocolate cookies", "resp2")
        cache.remove(cache.entries[0].entry_id)
        cache.rebuild_embeddings()
        assert cache.lookup("bake chocolate cookies").hit


class TestPrenormalizedZeroCopy:
    """The prenormalized fast path must not copy or allocate per call.

    ISSUE 7 regression guards: the fleet's hot path hands the index an
    already-normalized, contiguous float32 query block, and the index must
    pass it straight to the kernel (zero copies) while scoring into reused
    scratch buffers (zero steady-state allocations).
    """

    def _unit_queries(self, rng, n, dim):
        q = rng.normal(size=(n, dim))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return np.ascontiguousarray(q, dtype=np.float32)

    def test_flat_passthrough_shares_memory(self, rng):
        index = FlatIndex(dim=32)
        index.add_batch(rng.normal(size=(50, 32)))
        q = self._unit_queries(rng, 4, 32)
        _, prepared = index._prepare_queries(q, prenormalized=True)
        assert prepared is q
        assert np.shares_memory(prepared, q)
        # A non-contiguous batch pays exactly one cast into scratch — never
        # a silent chain of intermediate copies.
        odd = np.asfortranarray(q)
        _, prepared = index._prepare_queries(odd, prenormalized=True)
        assert not np.shares_memory(prepared, odd)
        np.testing.assert_array_equal(prepared, q)

    def test_quantized_passthrough_shares_memory(self, rng):
        from repro.index import make_index

        index = make_index("sq8", dim=32, min_train_size=24, seed=7)
        index.add_batch(rng.normal(size=(64, 32)))
        assert index.is_trained
        q = self._unit_queries(rng, 4, 32)
        unit, qf = index._prepare_queries(q, prenormalized=True)
        assert np.shares_memory(qf, q)

    def test_prenormalized_matches_default_path_bitwise(self, rng):
        index = FlatIndex(dim=32)
        index.add_batch(rng.normal(size=(200, 32)))
        q64 = rng.normal(size=(6, 32))
        q64 /= np.linalg.norm(q64, axis=1, keepdims=True)
        q32 = np.ascontiguousarray(q64, dtype=np.float32)
        default = index.search(q32, top_k=5)
        fast = index.search(q32, top_k=5, prenormalized=True)
        assert [[(h.id, h.score) for h in hits] for hits in default] == [
            [(h.id, h.score) for h in hits] for hits in fast
        ]

    def test_steady_state_search_allocates_nothing_query_shaped(self, rng):
        import gc
        import tracemalloc

        index = FlatIndex(dim=32)
        index.add_batch(rng.normal(size=(4000, 32)))
        q = self._unit_queries(rng, 16, 32)
        # Warm the scratch buffers and any lazy caches.
        for _ in range(5):
            index.search(q, top_k=5, prenormalized=True)
        gc.collect()
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(20):
            index.search(q, top_k=5, prenormalized=True)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Retained growth is the regression signal: a path that re-allocates
        # score matrices or grows a cache leaks query-shaped arrays every
        # call (a fresh (16, 4000) float32 block is 256 KB; 20 calls > 5 MB).
        # The scratch-backed path retains only the returned hit objects
        # (~12 KB measured).  Transient top-k temporaries inside one call
        # are bounded separately and loosely.
        assert retained - base < 120_000, f"retained {retained - base} bytes"
        assert peak - base < 8_000_000, f"peak {peak - base} bytes"
