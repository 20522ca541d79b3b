"""Cross-backend tests: registry, shared edge cases, recall floors.

Three layers:

* the backend table (``make_index`` / ``seeded_params``) resolves names,
  rejects unknowns and seeds exactly the seeded backends;
* every backend (flat / ivf / sq8 / ivf+sq8) honours the same
  ``VectorIndex`` edge cases — empty-index lookups, remove-then-add id
  reuse, dim mismatches, ``rebuild`` round-trips — via one parametrized
  suite;
* the approximate backend keeps recall@k ≥ 0.9 against exact flat search on
  the standard clustered paraphrase workload (the parity-style floor the
  benchmark sweep also enforces at scale).
"""

import dataclasses

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.compression import compress_cache
from repro.experiments.index_bench import make_ann_workload
from repro.index import (
    FlatIndex,
    QuantizedIndex,
    VectorIndex,
    available_backends,
    load_index,
    make_index,
)
from repro.index.registry import seeded_params

BACKENDS = ["flat", "ivf"]
# The shared row store sits under every registered name, so the edge-case
# suite runs on the quantized family too.  With SMALL_PARAMS those stay in
# their exact float32 staging phase for the score-exact cases (a codec
# trained on a handful of rows cannot survive them); the storage contract
# cases train them explicitly.  The ``-variant`` compositions rerun the
# suite with float64 storage, deferred repartition and multi-chunk scans of
# staged quantized rows and of float rows.
EDGE_BACKENDS = BACKENDS + [
    "sq8",
    "ivf+sq8",
    "flat-f64",
    "ivf-deferred",
    "sq8-chunked",
    "flat-chunked",
]
TRAINABLE = {"ivf", "sq8", "ivf+sq8"}

# Small-corpus parameters: IVF trains after 8 vectors and probes every cell;
# the quantized backends keep the default min_train_size, so tests that need
# ivf+sq8's router trained pass ``min_train_size=8`` themselves.  A name is a
# registry backend, optionally followed by ``-variant``.
SMALL_PARAMS = {
    "flat": {},
    "ivf": {"min_train_size": 8, "nlist": 4, "nprobe": 4},
    "ivf+sq8": {"nlist": 4, "nprobe": 4},
    "sq8": {},
    "flat-f64": {"dtype": np.float64},
    "ivf-deferred": {"min_train_size": 8, "nlist": 4, "nprobe": 4, "auto_repartition": False},
    "sq8-chunked": {"chunk_size": 16},
    "flat-chunked": {"chunk_size": 3},
}


def registry_name(backend: str) -> str:
    """The registry backend a SMALL_PARAMS name builds."""
    return backend.split("-")[0]


def small_index(backend: str, dim=8, **overrides) -> VectorIndex:
    params = dict(SMALL_PARAMS[backend])
    params.update(overrides)
    return make_index(registry_name(backend), dim=dim, **params)


def trained_index(backend: str, rng, dim=16, n=64) -> VectorIndex:
    """``n`` rows in a ``dim``-d index, trained where the backend trains."""
    overrides = {"min_train_size": 32} if registry_name(backend) in TRAINABLE else {}
    index = small_index(backend, dim=dim, **overrides)
    index.add_batch(rng.normal(size=(n, dim)))
    assert index.is_trained == (registry_name(backend) in TRAINABLE)
    return index


def storage_state(index: VectorIndex, queries):
    """Everything a rejected mutation must leave untouched."""
    return (
        len(index),
        index.ids,
        index.nbytes,
        index.dim,
        [[(h.id, float(h.score).hex()) for h in hits] for hits in index.search(queries)],
    )


def check_non_finite_rejected(backend: str, rng) -> None:
    """NaN/inf rows and queries raise; nothing — not even an id — is consumed."""
    index = trained_index(backend, rng)
    queries = rng.normal(size=(3, 16))
    before = storage_state(index, queries)
    for poison in (np.nan, np.inf, -np.inf):
        bad = rng.normal(size=16)
        bad[5] = poison
        with pytest.raises(ValueError, match="finite"):
            index.add(bad)
        with pytest.raises(ValueError, match="finite"):
            index.add(bad, id=10_000)
        block = rng.normal(size=(4, 16))
        block[2] = bad
        with pytest.raises(ValueError, match="finite"):
            index.add_batch(block)
        with pytest.raises(ValueError, match="finite"):
            index.search(bad, top_k=3)
        with pytest.raises(ValueError, match="finite"):
            index.search(np.stack([queries[0], bad]), top_k=3)
    assert storage_state(index, queries) == before
    assert 10_000 not in index
    assert index.add(rng.normal(size=16)) == 64  # no auto id was burnt


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("flat", "ivf", "ivf+sq8", "sq8")

    def test_make_index_types(self):
        assert isinstance(make_index("flat"), FlatIndex)
        assert isinstance(make_index("sq8"), QuantizedIndex)
        ivf = make_index("ivf")
        assert isinstance(ivf, FlatIndex) and ivf.routed

    @pytest.mark.parametrize(
        "name, cls, routed",
        [
            ("flat", FlatIndex, False),
            ("ivf", FlatIndex, True),
            ("sq8", QuantizedIndex, False),
            ("ivf+sq8", QuantizedIndex, True),
        ],
    )
    def test_each_name_is_a_class_and_a_routing_flag(self, name, cls, routed, tmp_path):
        """A registry name is one of two classes, routed or not, and a
        snapshot comes back as the same class, flag and name."""
        index = make_index(name, dim=4)
        assert type(index) is cls and index.routed is routed
        assert index.snapshot_backend == name
        index.add_batch(np.eye(4))
        loaded = load_index(index.save(tmp_path / "snap"))
        assert type(loaded) is cls and loaded.routed is routed
        assert loaded.snapshot_backend == name

    def test_case_and_whitespace_insensitive(self):
        ivf = make_index("  IVF ")
        assert isinstance(ivf, FlatIndex) and ivf.routed

    def test_params_forwarded(self):
        index = make_index("ivf", dim=16, nprobe=3)
        assert index.dim == 16
        assert index.nprobe == 3
        routed = make_index("ivf+sq8", nprobe=2)
        assert (routed.routed, routed.nprobe) == (True, 2)
        with pytest.raises(TypeError, match="rescore"):  # the rank's band replaced it
            make_index("sq8", rescore=2)

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="flat"):
            make_index("hnsw")

    def test_seeded_params_seeds_every_backend_but_flat(self):
        assert seeded_params("flat", {"dim": 4}, seed=7) == {"dim": 4}
        for backend in ("ivf", "sq8", " IVF+SQ8 "):
            params = seeded_params(backend, {"dim": 4}, seed=7)
            assert params == {"dim": 4, "seed": 7}
            assert make_index(backend, **params)._seed == 7
        # An explicit seed wins.
        assert seeded_params("sq8", {"seed": 1}, seed=7) == {"seed": 1}
        with pytest.raises(ValueError, match="flat"):
            seeded_params("hnsw", {}, seed=7)


# --------------------------------------------------------------------------- #
# Shared edge cases, parametrized over every backend
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", EDGE_BACKENDS)
class TestBackendEdgeCases:
    def test_is_a_vector_index(self, backend, rng):
        assert isinstance(small_index(backend), VectorIndex)

    def test_empty_index_lookup(self, backend, rng):
        index = small_index(backend)
        assert len(index) == 0
        assert index.search(np.ones(8), top_k=3) == [[]]
        assert index.search(np.ones((4, 8)), top_k=3) == [[], [], [], []]
        assert index.ids == []
        assert index.nbytes == 0

    def test_self_search_top1(self, backend, rng):
        index = small_index(backend)
        V = rng.normal(size=(32, 8))
        ids = index.add_batch(V)
        hits = index.search(V, top_k=1)
        assert [h[0].id for h in hits] == ids
        for h in hits:
            assert h[0].score == pytest.approx(1.0, abs=1e-5)

    def test_remove_then_add_id_reuse(self, backend, rng):
        index = small_index(backend)
        V = rng.normal(size=(24, 8))
        index.add_batch(V)
        index.remove(5)
        assert 5 not in index
        assert len(index) == 23
        replacement = rng.normal(size=8)
        assert index.add(replacement, id=5) == 5
        assert 5 in index
        np.testing.assert_allclose(index.get(5), replacement, atol=1e-6)
        # The reused id must be searchable and resolve to the new vector.
        hits = index.search(replacement, top_k=1)[0]
        assert hits and hits[0].id == 5

    def test_remove_unknown_raises(self, backend, rng):
        index = small_index(backend)
        index.add(rng.normal(size=8))
        with pytest.raises(KeyError):
            index.remove(99)

    def test_dim_mismatch_rejected(self, backend, rng):
        index = small_index(backend)
        index.add(rng.normal(size=8))
        with pytest.raises(ValueError):
            index.add(rng.normal(size=9))
        with pytest.raises(ValueError):
            index.search(rng.normal(size=9))
        with pytest.raises(ValueError):
            index.add_batch(rng.normal(size=(3, 9)))

    def test_rebuild_round_trip(self, backend, rng):
        index = small_index(backend)
        index.add_batch(rng.normal(size=(20, 8)))
        new_vectors = rng.normal(size=(12, 8))
        new_ids = list(range(100, 112))
        index.rebuild(new_vectors, ids=new_ids)
        assert len(index) == 12
        assert sorted(index.ids) == new_ids
        for i, id in enumerate(new_ids):
            np.testing.assert_allclose(index.get(id), new_vectors[i], atol=1e-6)
        hits = index.search(new_vectors, top_k=1)
        assert [h[0].id for h in hits] == new_ids
        # Round-trip again with the original contract: rebuild to empty.
        index.rebuild(np.empty((0, 8)), ids=[])
        assert len(index) == 0
        assert index.search(np.ones(8)) == [[]]

    def test_clear_and_reuse(self, backend, rng):
        index = small_index(backend)
        index.add_batch(rng.normal(size=(16, 8)))
        index.clear()
        assert len(index) == 0
        assert index.add(rng.normal(size=8)) == 0  # ids reset
        index.clear(reset_ids=False)
        assert index.add(rng.normal(size=8)) == 1  # ids keep counting

    def test_score_threshold_filters(self, backend, rng):
        index = small_index(backend)
        V = rng.normal(size=(16, 8))
        index.add_batch(V)
        hits = index.search(V[3], top_k=8, score_threshold=0.999)[0]
        assert hits and all(h.score >= 0.999 for h in hits)
        assert hits[0].id == 3

    def test_non_finite_vectors_and_queries_rejected(self, backend, rng):
        check_non_finite_rejected(backend, rng)

    def test_rejected_first_vector_leaves_dim_unpinned(self, backend, rng):
        index = small_index(backend, dim=None)
        with pytest.raises(ValueError, match="finite"):
            index.add(np.full(8, np.nan))
        assert index.dim is None and len(index) == 0
        assert index.add(rng.normal(size=12)) == 0
        assert index.dim == 12

    def test_duplicate_id_on_add_rejected(self, backend, rng):
        index = trained_index(backend, rng)
        queries = rng.normal(size=(3, 16))
        before = storage_state(index, queries)
        with pytest.raises(ValueError, match="already in the index"):
            index.add(rng.normal(size=16), id=7)
        assert storage_state(index, queries) == before
        assert index.add(rng.normal(size=16)) == 64

    def test_duplicate_or_colliding_ids_on_add_batch_rejected(self, backend, rng):
        index = trained_index(backend, rng)
        queries = rng.normal(size=(3, 16))
        before = storage_state(index, queries)
        block = rng.normal(size=(3, 16))
        with pytest.raises(ValueError, match="unique"):
            index.add_batch(block, ids=[100, 101, 100])
        with pytest.raises(ValueError, match="already in the index"):
            index.add_batch(block, ids=[100, 7, 101])
        with pytest.raises(ValueError, match="align"):
            index.add_batch(block, ids=[100, 101])
        assert storage_state(index, queries) == before
        assert 100 not in index and 101 not in index
        assert index.add_batch(block) == [64, 65, 66]

    def test_rejected_rebuild_leaves_the_index_as_it_was(self, backend, rng):
        """A rebuild refused for a non-finite row or for duplicate ids is
        refused before the old contents go: nothing is dropped."""
        index = trained_index(backend, rng)
        queries = rng.normal(size=(3, 16))
        before = storage_state(index, queries)
        block = rng.normal(size=(5, 16))
        poisoned = block.copy()
        poisoned[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            index.rebuild(poisoned, ids=range(100, 105))
        with pytest.raises(ValueError, match="unique"):
            index.rebuild(block, ids=[100, 101, 102, 101, 103])
        assert storage_state(index, queries) == before
        assert index.is_trained == (registry_name(backend) in TRAINABLE)
        assert index.add(rng.normal(size=16)) == 64  # no auto id was burnt

    def test_rebuild_to_empty_resets_training(self, backend, rng):
        index = trained_index(backend, rng)
        index.rebuild(np.empty((0, 16)), ids=[])
        assert len(index) == 0 and index.ids == [] and index.nbytes == 0
        assert index.allocated_nbytes == 0
        assert not index.is_trained
        assert index.search(np.ones(16)) == [[]]
        assert index.add(rng.normal(size=16)) == 64  # auto ids stay monotonic

    def test_churn_consistency(self, backend, rng):
        """Random add/remove churn never desynchronises search from storage."""
        index = small_index(backend)
        V = rng.normal(size=(60, 8))
        live = {}
        for i in range(40):
            live[index.add(V[i])] = V[i]
        for id in list(live)[::3]:
            index.remove(id)
            del live[id]
        for i in range(40, 60):
            live[index.add(V[i])] = V[i]
        assert len(index) == len(live)
        assert sorted(index.ids) == sorted(live)
        for id, vec in live.items():
            hits = index.search(vec, top_k=1)[0]
            assert hits and hits[0].id == id


@pytest.mark.parametrize("backend", sorted(SMALL_PARAMS))
def test_rejected_batch_leaves_dim_unpinned(backend):
    """A batch (or row) refused for its ids changes nothing: not the dimension
    of an empty data-driven index either, which is checked — and pinned —
    only once every other check has passed."""
    index = small_index(backend, dim=None)
    block = np.ones((2, 16))
    for ids, message in (([1, 1], "unique"), ([1, 2, 3], "align")):
        with pytest.raises(ValueError, match=message):
            index.add_batch(block, ids=ids)
        assert index.dim is None and len(index) == 0 and index.ids == []
    assert index.add(np.ones(8)) == 0  # neither the dim nor an auto id was taken
    assert index.dim == 8
    with pytest.raises(ValueError, match="already in the index"):
        index.add(np.ones(16), id=0)  # the duplicate id is reported, dim untouched
    with pytest.raises(ValueError, match="already in the index"):
        index.add_batch(np.ones((2, 16)), ids=[5, 0])
    assert index.dim == 8 and index.ids == [0]


@pytest.mark.parametrize("backend", available_backends())
def test_search_refuses_malformed_queries_and_top_k_alike(backend, rng):
    """Every backend checks a search's inputs in one preamble, in either phase:
    a batch of more than two dimensions is named by its shape (not read as a
    dim mismatch), a non-integral ``top_k`` is a ``TypeError`` naming it (an
    integer-valued numpy scalar passes), and ``top_k < 1`` a ``ValueError``."""
    for index in (small_index(backend, dim=16), trained_index(backend, rng)):
        index.add_batch(rng.normal(size=(4, 16)))
        query = rng.normal(size=16)
        with pytest.raises(ValueError, match=r"\(1, 2, 16\)"):
            index.search(np.ones((1, 2, 16)))
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(TypeError, match="top_k"):
                index.search(query, top_k=bad)
        with pytest.raises(ValueError, match="top_k"):
            index.search(query, top_k=0)
        assert index.search(query, top_k=np.int64(3)) == index.search(query, top_k=3)


# --------------------------------------------------------------------------- #
# Recall floors on the standard workload (the parity-style test)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["ivf"])
def test_recall_at_least_090_vs_flat(backend):
    n, dim, n_queries, top_k = 4_000, 32, 100, 5
    vectors, queries = make_ann_workload(n, dim=dim, n_queries=n_queries, seed=3)
    flat = FlatIndex(dim=dim)
    flat.add_batch(vectors)
    truth = flat.search(queries, top_k=top_k)
    index = make_index(backend, dim=dim)
    index.add_batch(vectors)
    got = index.search(queries, top_k=top_k)
    fractions = []
    for true_hits, got_hits in zip(truth, got):
        true_ids = {h.id for h in true_hits}
        fractions.append(len(true_ids & {h.id for h in got_hits}) / len(true_ids))
    assert float(np.mean(fractions)) >= 0.9


def test_ivf_untrained_matches_flat_exactly(rng=np.random.default_rng(11)):
    V = rng.normal(size=(50, 16))
    Q = rng.normal(size=(10, 16))
    flat = FlatIndex(dim=16)
    ivf = FlatIndex(dim=16, routed=True, min_train_size=1_000)  # stays untrained
    flat.add_batch(V)
    ivf.add_batch(V)
    assert not ivf.is_trained
    for f_hits, i_hits in zip(flat.search(Q, top_k=5), ivf.search(Q, top_k=5)):
        assert [h.id for h in f_hits] == [h.id for h in i_hits]
        np.testing.assert_allclose(
            [h.score for h in f_hits], [h.score for h in i_hits], atol=1e-7
        )


def test_ivf_trains_and_repartitions(rng=np.random.default_rng(12)):
    ivf = FlatIndex(
        dim=8, routed=True, min_train_size=32, nlist=4, nprobe=4, repartition_growth=2.0
    )
    ivf.add_batch(rng.normal(size=(31, 8)))
    assert not ivf.is_trained
    ivf.add(rng.normal(size=8))
    assert ivf.is_trained and ivf.nlist == 4
    # Growing past repartition_growth × trained size must retrain cleanly.
    ivf.add_batch(rng.normal(size=(40, 8)))
    assert ivf.is_trained
    assert len(ivf) == 72
    hits = ivf.search(ivf.get(0), top_k=1)[0]
    assert hits and hits[0].id == 0


@pytest.mark.parametrize("backend", ["ivf", "ivf+sq8"])
def test_ivf_repartitions_under_plateau_churn(backend):
    """Eviction-style churn at constant size must still trigger retraining."""
    rng = np.random.default_rng(14)
    ivf = make_index(
        backend, dim=8, min_train_size=16, nlist=4, nprobe=4, repartition_growth=2.0
    )
    ids = ivf.add_batch(rng.normal(size=(16, 8)))
    assert ivf.is_trained
    first_training_marker = ivf._router.trained_size
    # Replace the whole corpus several times over without growing it.
    next_vecs = rng.normal(size=(64, 8))
    for i, vec in enumerate(next_vecs):
        ivf.remove(ids.pop(0))
        ids.append(ivf.add(vec))
    assert len(ivf) == 16
    # Mutations (64 adds + 64 removes) far exceed 2× the trained size, so
    # at least one retraining must have happened since the first.
    assert ivf._router.mutations_since_train < 32
    assert first_training_marker == 16  # sanity: the first training was at 16
    hits = ivf.search(next_vecs[-1], top_k=1)[0]
    assert hits and hits[0].id == ids[-1]


def churn_index(backend: str) -> VectorIndex:
    """A small index of ``backend``, trained from its 8th row where it trains."""
    overrides = {"min_train_size": 8} if registry_name(backend) in TRAINABLE else {}
    return small_index(backend, **overrides)


# Every row store keeps its id→row map as a RowMap (the router borrows its
# owner's), so the map's bounds hold on every backend.
@pytest.mark.parametrize("backend", BACKENDS + ["sq8", "ivf+sq8"])
def test_row_map_stays_bounded_under_churn(backend):
    """Monotonic entry ids must not grow the id→row table without bound."""
    rng = np.random.default_rng(15)
    index = churn_index(backend)
    ids = index.add_batch(rng.normal(size=(64, 8)))
    # Sustained evict-oldest/insert-newest churn: ids only ever increase.
    for _ in range(5_000):
        index.remove(ids.pop(0))
        ids.append(index.add(rng.normal(size=8)))
    assert len(index) == 64
    # Lifetime-max id is ~5k, but the live span is 64 — the map must have
    # re-anchored instead of keeping a slot for every id ever issued.
    assert index._id_to_row.slots <= 4 * 1024
    for id in (ids[0], ids[-1]):
        hits = index.search(index.get(id), top_k=1)[0]
        assert hits and hits[0].id == id


@pytest.mark.parametrize("backend", BACKENDS + ["sq8", "ivf+sq8"])
def test_row_map_handles_id_reuse_below_compacted_base(backend):
    """Explicit re-adds of old (low) ids stay correct after map compaction."""
    rng = np.random.default_rng(16)
    index = churn_index(backend)
    ids = index.add_batch(rng.normal(size=(64, 8)))
    for _ in range(2_000):  # churn enough to re-anchor the map upward
        index.remove(ids.pop(0))
        ids.append(index.add(rng.normal(size=8)))
    low_vec = rng.normal(size=8)
    assert index.add(low_vec, id=0) == 0  # id 0 is far below any live id
    hits = index.search(low_vec, top_k=1)[0]
    assert hits and hits[0].id == 0
    for id in (0, ids[-1]):  # older entries must remain reachable too
        got = index.search(index.get(id), top_k=1)[0]
        assert got and got[0].id == id


# --------------------------------------------------------------------------- #
# Caches on approximate backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_meancache_runs_on_any_backend(backend):
    encoder = make_tiny_encoder()
    cache = MeanCache(
        encoder,
        MeanCacheConfig(
            similarity_threshold=0.8,
            index_backend=backend,
            index_params=SMALL_PARAMS[backend],
        ),
    )
    cache.insert("how do I sort a list in python", "use sorted()")
    cache.insert("what is the capital of france", "paris")
    hit = cache.lookup("how do I sort a list in python")
    assert hit.hit and hit.response == "use sorted()"
    miss = cache.lookup("completely unrelated gardening question")
    assert not miss.hit
    assert type(cache.index) is FlatIndex
    assert cache.index.routed == (backend == "ivf")


@pytest.mark.parametrize("backend", ["flat", "ivf", "sq8", "ivf+sq8"])
def test_a_refused_re_embed_leaves_the_cache_whole(backend, tmp_path, monkeypatch):
    """An encoder that returns NaN makes ``rebuild_embeddings`` raise, and the
    cache keeps every entry, its index rows and its context chains: re-asks
    still hit and a save loads back."""
    encoder = make_tiny_encoder()
    cache = MeanCache(
        encoder,
        MeanCacheConfig(
            similarity_threshold=0.8,
            index_backend=backend,
            index_params=SMALL_PARAMS[backend],
        ),
    )
    cache.insert("how do I sort a list in python", "use sorted()")
    cache.insert("what is the capital of france", "paris", ["geography quiz"])
    queries = encoder.encode(["how do I sort a list in python", "capital of france"])
    before = storage_state(cache.index, queries)
    chains = [entry.context for entry in cache._entries.values()]
    with monkeypatch.context() as patch:
        patch.setattr(
            encoder,
            "encode",
            lambda texts, compress=True: np.full((len(texts), encoder.embedding_dim), np.nan),
        )
        with pytest.raises(ValueError, match="finite"):
            cache.rebuild_embeddings()
    assert storage_state(cache.index, queries) == before
    assert [entry.context for entry in cache._entries.values()] == chains
    assert cache.lookup("how do I sort a list in python").hit
    loaded = MeanCache.load(cache.save(tmp_path / "cache"), encoder)
    assert sorted(loaded.index.ids) == sorted(cache.index.ids)


def test_a_refused_compression_leaves_the_cache_and_its_encoder_as_they_were():
    """An index pinned to 64 dims refuses the 8-dim re-embed: ``compress_cache``
    raises, and the encoder carries no PCA head, the cache is not compressed,
    its rows are unchanged and a re-ask still hits."""
    encoder = make_tiny_encoder()
    cache = MeanCache(
        encoder, MeanCacheConfig(similarity_threshold=0.8, index_params={"dim": 64})
    )
    cache.populate([f"question number {i} about subject {i % 11}" for i in range(20)])
    config = cache.config
    queries = encoder.encode(["question number 3 about subject 3", "an unseen question"])
    before = storage_state(cache.index, queries)
    with pytest.raises(ValueError, match="dim 8"):
        compress_cache(cache, n_components=8)
    assert encoder.pca is None
    assert cache.config == config and not cache.config.compressed
    assert storage_state(cache.index, queries) == before
    assert cache.lookup("question number 3 about subject 3").hit


def test_meancache_rejects_unknown_backend():
    with pytest.raises(ValueError, match="available"):
        MeanCacheConfig(index_backend="bogus")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# The construction seed per backend: one whose two near-duplicates k-means
# puts in different cells (a near-duplicate pair usually shares one, which
# the test asserts rather than assumes).
_SPLIT_PAIR_SEEDS = {"ivf": 11, "ivf+sq8": 42}


@pytest.mark.parametrize("backend", sorted(_SPLIT_PAIR_SEEDS))
def test_routed_lookup_serves_the_next_candidate_when_the_best_fails_context(backend):
    """Algorithm 1 checks every top-k candidate that clears τ, in rank order.

    Entry A (context "printer") is the probe's exact vector; entry B (context
    "router") is A nudged by a quarter-length random direction, in another
    cell.  Probed with A's vector under B's context, A clears τ but fails the
    context check, so the cache must serve B: the routed scan has to reach
    B's cell even though A's cell already held a candidate far above τ.
    """
    nlist = 8
    cache = MeanCache(
        make_tiny_encoder(),
        MeanCacheConfig(
            similarity_threshold=0.8,
            index_backend=backend,
            index_params={"min_train_size": 32, "nlist": nlist, "nprobe": nlist, "seed": 0},
        ),
    )
    rng = np.random.default_rng(_SPLIT_PAIR_SEEDS[backend])
    dim = cache.encoder.embedding_dim
    a = _unit(rng.normal(size=dim))
    b = _unit(a + 0.25 * _unit(rng.normal(size=dim)))
    query = "how do I reset it"
    a_id = cache.insert(query, "hold the printer's reset button", ["printer"], embedding=a)
    b_id = cache.insert(query, "power-cycle the router", ["router"], embedding=b)
    for i, row in enumerate(rng.normal(size=(200, dim))):
        cache.insert(f"filler question {i}", "filler", embedding=row)

    index = cache.index
    router = index._router
    assert router.is_trained and index.nprobe == router.nlist == nlist
    assert router.cells[index._row_map.get(a_id)] != router.cells[index._row_map.get(b_id)]

    decision = cache.lookup_batch([query], contexts=[["router"]], embeddings=a[None])[0]
    assert decision.hit
    assert decision.entry_id == b_id
    assert decision.response == "power-cycle the router"


def test_gptcache_runs_on_approximate_backend():
    cache = MeanCache(
        make_tiny_encoder(),
        dataclasses.replace(
            GPTCACHE_CONFIG, index_backend="ivf", index_params=SMALL_PARAMS["ivf"]
        ),
    )
    cache.insert("what's the weather like today", "sunny")
    decision = cache.lookup("what's the weather like today")
    assert decision.hit
    assert type(cache.index) is FlatIndex and cache.index.routed


def test_gptcache_rejects_unknown_backend():
    with pytest.raises(ValueError, match="available"):
        dataclasses.replace(GPTCACHE_CONFIG, index_backend="bogus")


def test_explicit_index_instance_wins_over_config():
    prebuilt = FlatIndex(dim=None, routed=True, min_train_size=8, nlist=2, nprobe=2)
    cache = MeanCache(
        make_tiny_encoder(),
        MeanCacheConfig(index_backend="flat"),
        index=prebuilt,
    )
    assert cache.index is prebuilt


def test_injected_index_must_be_empty():
    """Cache entry ids and index ids share a namespace, so a pre-populated
    index would hold vectors unreachable by entry lookups — rejected."""
    populated = FlatIndex(dim=4)
    populated.add([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        MeanCache(make_tiny_encoder(), index=populated)


@pytest.mark.parametrize("backend", BACKENDS + ["sq8", "ivf+sq8"])
def test_row_map_anchors_after_clear_with_high_ids(backend):
    """A rebuild late in a cache's life re-adds with large monotonic ids;
    the freshly cleared map must size by id span, not id magnitude."""
    rng = np.random.default_rng(18)
    index = small_index(backend)
    index.add_batch(rng.normal(size=(32, 8)))
    high_ids = list(range(10_000_000, 10_000_032))
    index.rebuild(rng.normal(size=(32, 8)), ids=high_ids)
    assert sorted(index.ids) == high_ids
    assert index._id_to_row.slots <= 64
    hits = index.search(index.get(high_ids[0]), top_k=1)[0]
    assert hits and hits[0].id == high_ids[0]
