"""Persistence round-trips: save → load → identical lookup decisions.

Covers the snapshot subsystem end to end:

* every index backend round-trips bit-exactly (ids, searched ids *and*
  ``float.hex`` scores), including after swap-delete churn and while
  quantized backends are still in their untrained staging phase;
* corrupted, foreign-format and future-version manifests are rejected with
  :class:`~repro.index.SnapshotError` instead of half-restoring;
* ``MeanCache`` snapshots (the GPTCache baseline's configuration included)
  reproduce decision streams
  byte-exactly, preserve stats and eviction order, and a saved+reloaded
  MeanCache replays the golden fixture's Table I decision stream (the
  acceptance criterion of ISSUE 4);
* ``CacheServer.checkpoint``/``restore`` warm-starts a fleet whose
  second-half run matches an uninterrupted fleet exactly, and deduplicates
  a shared central cache;
* crash safety: a save killed mid-write (after arrays, before the manifest)
  leaves the previous snapshot loadable and the torn stage never loadable,
  saves fully replace the target directory (no stale arrays/delta logs),
  vectors persist once (in the index snapshot) and context chains at the
  index's native dtype, format-v2 snapshots still load, the append-only delta log
  replays/compacts correctly (torn trailing line included), and
  ``load_index(mmap=True)`` restores without copying the row matrix
  (tracemalloc ceiling);
* golden snapshots: the directories under ``tests/fixtures/snapshots``
  (written by ``tests/golden_snapshots.py``, whose ``--check`` proves here
  that they are what the tree generates) load eagerly and memory-mapped to
  the recorded search results and decisions, and re-save to the recorded
  bytes.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_tiny_encoder, seal_adds_no_record

from repro.baselines import GPTCACHE_CONFIG, load_gptcache_snapshot
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.index import SnapshotError, load_index, make_index
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadConfig, WorkloadGenerator

pytestmark = pytest.mark.concurrency

DIM = 16

BACKENDS = {
    "flat": {},
    "ivf": {"min_train_size": 32, "nprobe": 4, "seed": 3},
    "sq8": {"min_train_size": 32, "seed": 3},
    "ivf+sq8": {"min_train_size": 32, "nprobe": 4, "seed": 3},
}


def hit_signature(results):
    """Bit-exact signature of a search result set."""
    return [[(h.id, float(h.score).hex()) for h in hits] for hits in results]


# --------------------------------------------------------------------------- #
# Index round-trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("n", [0, 10, 120])
def test_index_round_trip_identical_searches(name, n, tmp_path):
    """n=10 keeps quantized backends untrained (staging phase); n=120 trains."""
    index = make_index(name, dim=DIM, **BACKENDS[name])
    rng = np.random.default_rng(n + 1)
    if n:
        index.add_batch(rng.normal(size=(n, DIM)))
        for victim in list(index.ids)[:: max(n // 7, 1)]:
            index.remove(victim)
    queries = rng.normal(size=(8, DIM))
    before = index.search(queries, top_k=5)

    index.save(tmp_path / "snap")
    loaded = load_index(tmp_path / "snap")

    assert type(loaded) is type(index)
    assert len(loaded) == len(index)
    assert loaded.ids == index.ids
    assert loaded.dim == index.dim
    assert loaded.nbytes == index.nbytes
    assert hit_signature(loaded.search(queries, top_k=5)) == hit_signature(before)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_index_round_trip_stays_usable(name, tmp_path):
    """A loaded index keeps mutating correctly (ids stay monotonic, etc.)."""
    index = make_index(name, dim=DIM, **BACKENDS[name])
    rng = np.random.default_rng(8)
    index.add_batch(rng.normal(size=(50, DIM)))
    index.remove(index.ids[0])
    index.save(tmp_path / "snap")
    loaded = load_index(tmp_path / "snap")

    new_id = loaded.add(rng.normal(size=DIM))
    assert new_id == 50  # next_id survived the round trip
    loaded.remove(new_id)
    with pytest.raises(ValueError):
        loaded.add(rng.normal(size=DIM), id=loaded.ids[0])
    assert len(loaded.search(rng.normal(size=DIM), top_k=3)[0]) == 3


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("n", [10, 120])
def test_mmap_load_materializes_exactly_once(name, n, tmp_path):
    """The store's copy-on-write contract, per backend and training phase.

    An mmap load adopts the snapshot's arrays (except the routed quantized
    backends, which rebuild their lists and copy); the first mutation swaps
    in one private copy and later mutations write that copy in place.
    """
    index = make_index(name, dim=DIM, **BACKENDS[name])
    index.add_batch(np.random.default_rng(5).normal(size=(n, DIM)))
    index.save(tmp_path / "snap")
    assert not load_index(tmp_path / "snap").mmap_backed
    loaded = load_index(tmp_path / "snap", mmap=True)
    assert loaded.mmap_backed == (name != "ivf+sq8")
    queries = np.random.default_rng(6).normal(size=(4, DIM))
    assert hit_signature(loaded.search(queries)) == hit_signature(index.search(queries))
    mapped = loaded._rows
    assert loaded.mmap_backed == isinstance(mapped, np.memmap)

    loaded.remove(loaded.ids[0])
    assert not loaded.mmap_backed
    private = loaded._rows
    assert not isinstance(private, np.memmap)
    if isinstance(mapped, np.memmap):
        assert private is not mapped and private.flags.writeable
    loaded.remove(loaded.ids[0])
    assert loaded._rows is private  # no second copy
    index.remove(index.ids[0])
    index.remove(index.ids[0])
    assert loaded.ids == index.ids
    assert hit_signature(loaded.search(queries)) == hit_signature(index.search(queries))
    # The snapshot the map came from is untouched by the mutations.
    assert len(load_index(tmp_path / "snap")) == n


@pytest.mark.parametrize("name", ["sq8", "ivf", "ivf+sq8"])
def test_trained_but_empty_snapshot_recycles(name, tmp_path):
    """Train, drain to empty, save → load → save again must round-trip.

    Regression: restoring a trained-then-drained snapshot allocates no
    storage, so post-restore code must not touch ``_ids``/``_codes``.
    """
    index = make_index(name, dim=DIM, **BACKENDS[name])
    index.add_batch(np.random.default_rng(0).normal(size=(40, DIM)))
    assert index.is_trained
    for i in list(index.ids):
        index.remove(i)
    index.save(tmp_path / "a")
    loaded = load_index(tmp_path / "a")
    assert loaded.is_trained and len(loaded) == 0
    loaded.save(tmp_path / "b")
    again = load_index(tmp_path / "b")
    vec = np.random.default_rng(1).normal(size=DIM)
    new_id = again.add(vec)
    assert new_id == 40  # next_id survived two cycles
    # Query with the stored vector itself: routed backends probe its own
    # cell, so the hit is guaranteed even at tiny nprobe.
    assert [h.id for h in again.search(vec)[0]] == [new_id]


def test_load_rejects_unknown_backend(tmp_path):
    path = _saved_index(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["backend"] = "backend-from-the-future"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match="unknown index backend"):
        load_index(path)


@pytest.mark.parametrize(
    "name, replacement", [("lsh", "ivf"), ("pq", "sq8"), ("ivf+pq", "ivf+sq8")]
)
def test_retired_backend_names_fail_clearly(name, replacement, tmp_path):
    """A config naming a retired backend lists the four that exist; a
    snapshot of one is refused with the name of its replacement."""
    with pytest.raises(ValueError, match=r"available: flat, ivf, ivf\+sq8, sq8$"):
        MeanCacheConfig(index_backend=name)
    path = _saved_index(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["backend"] = name
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match=f"retired '{re.escape(name)}'") as caught:
        load_index(path)
    assert f"rebuild it as '{replacement}'" in str(caught.value)


def test_load_rejects_bad_params(tmp_path):
    path = _saved_index(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["params"] = {"no_such_kwarg": 1}
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match="rejects"):
        load_index(path)


def test_load_index_restores_rng_continuity(tmp_path):
    """Post-load training/repartition draws continue the saved RNG stream."""
    a = make_index("ivf", dim=DIM, min_train_size=32, seed=5)
    b = make_index("ivf", dim=DIM, min_train_size=32, seed=5)
    rng = np.random.default_rng(0)
    grow = rng.normal(size=(200, DIM))
    a.add_batch(grow[:60])
    b.add_batch(grow[:60])
    a.save(tmp_path / "snap")
    loaded = load_index(tmp_path / "snap")
    # Push both past the repartition threshold; the retrained partitions
    # must match because the RNG state was serialized.
    loaded.add_batch(grow[60:])
    b.add_batch(grow[60:])
    queries = rng.normal(size=(5, DIM))
    assert hit_signature(loaded.search(queries)) == hit_signature(b.search(queries))


def _check_load_drops_retired_param(name, key, value, mmap, tmp_path):
    """A manifest carrying the retired constructor param ``key`` loads with
    bit-identical hits; load drops that key and no other."""
    live = make_index(name, dim=DIM, min_train_size=32, nprobe=4, seed=3)
    rng = np.random.default_rng(21)
    grow = rng.normal(size=(200, DIM))
    live.add_batch(grow[:60])
    path = live.save(tmp_path / "snap")
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert key not in manifest["params"]
    manifest["params"][key] = value
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    loaded = load_index(path, mmap=mmap)
    queries = rng.normal(size=(5, DIM))
    assert hit_signature(loaded.search(queries)) == hit_signature(live.search(queries))
    assert hit_signature(loaded.search(queries[0])) == hit_signature(live.search(queries[0]))
    # Past the repartition threshold: the next retraining must match too.
    loaded.add_batch(grow[60:])
    live.add_batch(grow[60:])
    assert loaded.nlist == live.nlist
    assert hit_signature(loaded.search(queries)) == hit_signature(live.search(queries))

    manifest["params"]["no_such_kwarg"] = 1
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match="rejects"):
        load_index(path, mmap=mmap)


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("name", ["ivf", "ivf+sq8"])
def test_load_drops_retired_scan_threads_param(name, mmap, tmp_path):
    """Manifests written while ``scan_threads`` was a constructor parameter
    carry ``"scan_threads": 1``."""
    _check_load_drops_retired_param(name, "scan_threads", 1, mmap, tmp_path)


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", ["sq8", "ivf+sq8"])
def test_load_drops_retired_fused_scan_param(name, value, mmap, tmp_path):
    """Manifests written while the quantized backends had a runtime
    ``fused_scan`` toggle carry it (``true`` unless someone saved mid-flip);
    either value loads as the one scan there is now."""
    _check_load_drops_retired_param(name, "fused_scan", value, mmap, tmp_path)


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", ["ivf", "sq8", "ivf+sq8"])
def test_load_drops_retired_prune_probes_param(name, value, mmap, tmp_path):
    """Manifests written while the routed backends had exact-bound probe
    pruning carry ``prune_probes`` (``true`` by default); either value loads
    as the one exhaustive probe scan there is now."""
    _check_load_drops_retired_param(name, "prune_probes", value, mmap, tmp_path)


# --------------------------------------------------------------------------- #
# Manifest validation
# --------------------------------------------------------------------------- #
def _saved_index(tmp_path):
    index = make_index("flat", dim=DIM)
    index.add_batch(np.random.default_rng(0).normal(size=(5, DIM)))
    path = tmp_path / "snap"
    index.save(path)
    return path


def test_load_rejects_missing_snapshot(tmp_path):
    with pytest.raises(SnapshotError, match="no snapshot manifest"):
        load_index(tmp_path / "nowhere")


def test_load_rejects_corrupted_manifest(tmp_path):
    path = _saved_index(tmp_path)
    (path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(SnapshotError, match="corrupted snapshot manifest"):
        load_index(path)


def test_load_rejects_foreign_format(tmp_path):
    path = _saved_index(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["format"] = "somebody-elses-checkpoint"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match="format"):
        load_index(path)


def test_load_rejects_future_version(tmp_path):
    path = _saved_index(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["version"] = 999
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match="unsupported version"):
        load_index(path)


def test_load_rejects_missing_arrays(tmp_path):
    path = _saved_index(tmp_path)
    shutil.rmtree(path / "arrays")
    with pytest.raises(SnapshotError, match="no snapshot arrays"):
        load_index(path)


def test_load_rejects_legacy_npz_payload(tmp_path):
    """A well-formed manifest beside only a pre-v2 ``arrays.npz`` is refused
    outright — the single-file reader is gone, nothing is half-loaded."""
    path = _saved_index(tmp_path)
    arrays = {f.stem: np.load(f) for f in (path / "arrays").glob("*.npy")}
    shutil.rmtree(path / "arrays")
    np.savez(path / "arrays.npz", **arrays)
    with pytest.raises(SnapshotError, match="no snapshot arrays"):
        load_index(path)
    with pytest.raises(SnapshotError, match="no snapshot arrays"):
        load_index(path, mmap=True)


def test_unregistered_base_index_save_raises_snapshot_error(tmp_path):
    from repro.index import VectorIndex

    class Bare(VectorIndex):
        """Honours the contract's abstract surface, names no snapshot backend."""

        add = add_batch = remove = search = rebuild = get = clear = None
        __len__ = dim = ids = nbytes = None

    with pytest.raises(SnapshotError, match="does not support snapshots"):
        Bare().save(tmp_path / "x")


def test_meancache_load_rejects_truncated_manifest_payload(tmp_path):
    encoder = make_tiny_encoder()
    cache = MeanCache(encoder, MeanCacheConfig())
    cache.populate(["a question here"])
    cache.save(tmp_path / "mc")
    manifest = json.loads((tmp_path / "mc" / "manifest.json").read_text())
    del manifest["config"]
    (tmp_path / "mc" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="corrupted manifest payload"):
        MeanCache.load(tmp_path / "mc", encoder)


def test_cache_load_rejects_index_snapshot(tmp_path):
    """Format tags keep the snapshot kinds from being cross-loaded."""
    path = _saved_index(tmp_path)
    with pytest.raises(SnapshotError, match="format"):
        MeanCache.load(path, make_tiny_encoder())


# --------------------------------------------------------------------------- #
# Cache round-trips
# --------------------------------------------------------------------------- #
def _populated_meancache(encoder, **config_kwargs):
    cache = MeanCache(encoder, MeanCacheConfig(**config_kwargs))
    queries = [f"how do I configure widget {i}" for i in range(30)]
    contexts = [["setting up widgets"] if i % 3 == 0 else [] for i in range(30)]
    cache.populate(queries, contexts=contexts)
    # Touch entries so policy order and hit counters are non-trivial.
    cache.lookup_batch(queries[:10], contexts=contexts[:10])
    return cache


def test_meancache_round_trip_decisions_and_policy(tmp_path):
    encoder = make_tiny_encoder()
    cache = _populated_meancache(encoder, max_entries=40, index_backend="flat")
    probes = [f"how do I configure widget {i}" for i in range(0, 45, 3)]
    probe_ctx = [["setting up widgets"]] * len(probes)
    before = cache.lookup_batch(probes, contexts=probe_ctx)

    cache.save(tmp_path / "mc")
    loaded = MeanCache.load(tmp_path / "mc", encoder.clone())

    # State parity straight after load (before any new lookups mutate it).
    assert loaded.stats.insertions == cache.stats.insertions
    assert len(loaded) == len(cache)
    assert [e.hit_count for e in loaded.entries] == [e.hit_count for e in cache.entries]

    after = loaded.lookup_batch(probes, contexts=probe_ctx)
    assert [(d.hit, d.entry_id, float(d.similarity).hex()) for d in before] == [
        (d.hit, d.entry_id, float(d.similarity).hex()) for d in after
    ]
    # Replaying identical hit traffic leaves both LRU orders in the same
    # state (the hits re-touch the same ids in the same order), so from here
    # the caches must evict in lock-step.
    # Eviction order must continue exactly where the saved cache left off:
    # fill both to capacity and compare which entries survive.
    for i in range(20):
        cache.insert(f"new query {i}", "r")
        loaded.insert(f"new query {i}", "r")
    assert [e.entry_id for e in cache.entries] == [e.entry_id for e in loaded.entries]


@pytest.mark.parametrize(
    "backend,params",
    [
        ("ivf", {"min_train_size": 16, "seed": 2}),
        ("ivf+sq8", {"min_train_size": 16, "nprobe": 4, "seed": 2}),
        ("sq8", {"min_train_size": 16, "seed": 2}),
    ],
)
def test_meancache_round_trip_on_every_backend(backend, params, tmp_path):
    encoder = make_tiny_encoder()
    cache = _populated_meancache(
        encoder, index_backend=backend, index_params=params
    )
    probes = [f"how do I configure widget {i}" for i in range(0, 60, 2)]
    before = cache.lookup_batch(probes)
    cache.save(tmp_path / "mc")
    loaded = MeanCache.load(tmp_path / "mc", encoder.clone())
    assert type(loaded.index).__name__ == type(cache.index).__name__
    after = loaded.lookup_batch(probes)
    assert [(d.hit, d.entry_id, float(d.similarity).hex()) for d in before] == [
        (d.hit, d.entry_id, float(d.similarity).hex()) for d in after
    ]


def test_meancache_load_drops_retired_early_stop_margin(tmp_path):
    """Snapshots written while ``MeanCacheConfig`` had ``early_stop_margin``
    carry it (the ``legacy-v2`` fixtures hold ``null``).  A set margin loads
    too, as the same config without it, and the cache decides like the live
    one: retrieval hands every lookup its full top-k."""
    encoder = make_tiny_encoder()
    cache = _populated_meancache(
        encoder, index_backend="ivf", index_params={"min_train_size": 16, "seed": 2}
    )
    probes = [f"how do I configure widget {i}" for i in range(0, 60, 2)]
    probe_ctx = [["setting up widgets"]] * len(probes)
    path = tmp_path / "mc"
    cache.save(path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert "early_stop_margin" not in manifest["config"]
    manifest["config"]["early_stop_margin"] = 0.05
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    loaded = MeanCache.load(path, encoder.clone())
    assert loaded.config == cache.config
    before = cache.lookup_batch(probes, contexts=probe_ctx)
    after = loaded.lookup_batch(probes, contexts=probe_ctx)
    assert [(d.hit, d.entry_id, float(d.similarity).hex()) for d in before] == [
        (d.hit, d.entry_id, float(d.similarity).hex()) for d in after
    ]


def test_meancache_load_rejects_tampered_entries(tmp_path):
    encoder = make_tiny_encoder()
    cache = _populated_meancache(encoder)
    cache.save(tmp_path / "mc")
    entries = json.loads((tmp_path / "mc" / "entries.json").read_text())
    entries.pop()
    (tmp_path / "mc" / "entries.json").write_text(json.dumps(entries))
    with pytest.raises(SnapshotError, match="inconsistent"):
        MeanCache.load(tmp_path / "mc", encoder)


def test_meancache_loaded_cache_removes_and_saves_again(tmp_path):
    """A loaded cache is a live one: a removal takes the entry out of its
    index, and a second save/load round-trips the removal."""
    encoder = make_tiny_encoder()
    cache = _populated_meancache(encoder)
    cache.save(tmp_path / "mc")
    loaded = MeanCache.load(tmp_path / "mc", encoder.clone())
    some = loaded.entries[0]
    loaded.remove(some.entry_id)
    assert len(loaded) == len(cache) - 1
    assert some.entry_id not in [e.entry_id for e in loaded.entries]
    probe = loaded.lookup(some.query, some.context.texts)
    assert probe.entry_id != some.entry_id

    loaded.save(tmp_path / "mc2")
    reloaded = MeanCache.load(tmp_path / "mc2", encoder.clone())
    assert [e.entry_id for e in reloaded.entries] == [e.entry_id for e in loaded.entries]
    probes = [e.query for e in cache.entries]
    assert _decision_signature(reloaded, probes) == _decision_signature(loaded, probes)


@pytest.mark.parametrize("version", ["legacy-v2", "legacy-v3"])
def test_gptcache_load_rejects_tampered_entries(version, tmp_path):
    """The legacy reader refuses a ``repro-gptcache`` snapshot whose entry
    records no longer line up with its index rows."""
    import golden_snapshots as gs

    shutil.copytree(gs.FIXTURE_DIR / version / "gptcache", tmp_path / "gpt")
    entries = json.loads((tmp_path / "gpt" / "entries.json").read_text())
    entries.pop()
    (tmp_path / "gpt" / "entries.json").write_text(json.dumps(entries))
    with pytest.raises(SnapshotError, match="inconsistent"):
        load_gptcache_snapshot(tmp_path / "gpt", make_tiny_encoder())


def test_legacy_gptcache_snapshot_loads_as_the_baseline_config(tmp_path):
    """A ``repro-gptcache`` snapshot reads as a MeanCache in the baseline's
    configuration: the saved τ, list-position ids, empty contexts, LRU order
    = insertion order, and the manifest's counters; it then enrols and
    saves as a MeanCache."""
    import golden_snapshots as gs

    cache = load_gptcache_snapshot(
        gs.LEGACY_V3_DIR / "gptcache", make_tiny_encoder()
    )
    assert cache.config == replace(GPTCACHE_CONFIG, similarity_threshold=gs.CACHE_THRESHOLD)
    assert [e.entry_id for e in cache.entries] == list(range(len(gs.CACHE_QUERIES)))
    assert [e.query for e in cache.entries] == gs.CACHE_QUERIES
    assert all(e.context.is_empty for e in cache.entries)
    assert cache._policy.select_victim() == 0
    assert (cache.stats.lookups, cache.stats.hits, cache.stats.misses) == (4, 4, 0)
    assert cache.insert("a brand new question", "r") == len(gs.CACHE_QUERIES)
    cache.save(tmp_path / "mc")
    assert MeanCache.load(tmp_path / "mc", make_tiny_encoder()).config == cache.config


def test_gptcache_round_trip_decisions(tmp_path):
    encoder = make_tiny_encoder()
    cache = MeanCache(encoder, GPTCACHE_CONFIG)
    cache.populate([f"question number {i}" for i in range(25)])
    cache.populate(["what is the weather"])
    probes = [f"question number {i}" for i in range(0, 40, 2)]
    before = cache.lookup_batch(probes)
    cache.save(tmp_path / "gpt")
    loaded = MeanCache.load(tmp_path / "gpt", encoder)
    assert loaded.config == GPTCACHE_CONFIG
    assert loaded.stats == cache.stats
    after = loaded.lookup_batch(probes)
    assert [(d.hit, d.matched_query, float(d.similarity).hex()) for d in before] == [
        (d.hit, d.matched_query, float(d.similarity).hex()) for d in after
    ]
    loaded.insert("a brand new question", "r")
    assert len(loaded) == len(cache) + 1


# --------------------------------------------------------------------------- #
# Golden snapshots: formats and restored behaviour pinned across refactors
# --------------------------------------------------------------------------- #
def _golden_cases():
    import golden_snapshots as gs

    names = [gs.fixture_name(b) for b in gs.INDEX_BACKENDS] + list(gs.CACHE_NAMES)
    return [
        (name, mmap)
        for name in names
        for mmap in ((False, True) if gs.supports_mmap(name) else (False,))
    ]


@pytest.mark.parametrize("name,mmap", _golden_cases())
def test_golden_snapshot_loads_and_resaves_identically(name, mmap, tmp_path):
    """Every fixture loads to the recorded results and re-saves to the
    recorded bytes, eagerly and memory-mapped."""
    import golden_snapshots as gs

    expected = json.loads(gs.EXPECTED_PATH.read_text(encoding="utf-8"))[name]
    work = tmp_path / "fixture"
    shutil.copytree(gs.FIXTURE_DIR / name, work)
    loaded = gs.load_fixture(name, work, mmap=mmap)
    mode = "mmap" if mmap else "eager"
    assert gs.storage_index(name, loaded).mmap_backed == expected[mode + "_mmap_backed"]

    # Re-save first: observing a cache moves its stats and policy state.
    loaded.save(tmp_path / "resaved")
    resaved = gs.tree_hashes(tmp_path / "resaved")
    assert resaved == expected["resave"]
    if name != "tier":  # the tier's re-save folds its delta log
        assert resaved == gs.tree_hashes(gs.FIXTURE_DIR / name)
    assert gs.observe(name, loaded) == expected["observed"]


@pytest.mark.parametrize(
    "version,legacy",
    [
        ("v2", "meancache"),
        ("v2", "gptcache"),
        ("v2", "tiered-l1"),
        ("v3", "meancache"),
        ("v3", "gptcache"),
        ("v3", "tiered-l1"),
    ],
    ids=["meancache", "gptcache", "tiered-l1", "v3-meancache", "v3-gptcache", "v3-tiered-l1"],
)
def test_format_v2_snapshots_still_load(version, legacy, tmp_path):
    """A v2 snapshot (each vector also in ``arrays/embeddings.npy``) and a
    v3 one (entry records with ``created_at``/``last_accessed`` stamps)
    load, re-save as their current successor byte for byte, and decide
    exactly as it.  A ``repro-gptcache`` snapshot (v2 or v3) goes through
    the legacy reader and must decide as its successor; its re-save cannot
    be byte-equal, since the retired class kept no hit counts or recency.
    A legacy ``tiered-l1`` also serves as the L1 of the current ``tiered``
    fixture, loaded eagerly and memory-mapped."""
    import golden_snapshots as gs

    legacy_dir = {"v2": gs.LEGACY_DIR, "v3": gs.LEGACY_V3_DIR}[version]
    current = gs.LEGACY_NAMES[legacy]
    has_copy = (legacy_dir / legacy / "arrays" / "embeddings.npy").is_file()
    assert has_copy == (version == "v2")
    shutil.copytree(legacy_dir / legacy, tmp_path / "old")
    shutil.copytree(gs.FIXTURE_DIR / current, tmp_path / "new")
    new = gs.load_fixture("meancache", tmp_path / "new")
    if legacy == "gptcache":
        old = load_gptcache_snapshot(tmp_path / "old", make_tiny_encoder())
        assert gs.observe(legacy, old) == gs.observe(legacy, new)
        return
    old = gs.load_fixture("meancache", tmp_path / "old")
    old.save(tmp_path / "resaved")
    assert gs.tree_hashes(tmp_path / "resaved") == gs.tree_hashes(gs.FIXTURE_DIR / current)
    assert gs.observe(legacy, old) == gs.observe(legacy, new)
    if legacy != "tiered-l1":
        return
    expected = json.loads(gs.EXPECTED_PATH.read_text(encoding="utf-8"))["tiered"]
    for mmap in (False, True):
        tree = tmp_path / f"tiered-{int(mmap)}"
        shutil.copytree(gs.FIXTURE_DIR / "tiered", tree)
        shutil.rmtree(tree / "l1")
        shutil.copytree(legacy_dir / legacy, tree / "l1")
        assert gs.observe("tiered", gs.load_fixture("tiered", tree, mmap=mmap)) == (
            expected["observed"]
        )


def _edit_manifest(root: Path, edit) -> None:
    """Rewrite ``root/manifest.json`` after ``edit`` mutated its payload."""
    path = root / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")


@pytest.mark.parametrize(
    "name,key,kept,retired",
    [("meancache", "eviction_policy", "lru", "lfu"), ("tiered", "promote_on_hit", True, False)],
    ids=["meancache", "tiered"],
)
def test_manifests_naming_a_retired_setting_load_only_at_its_one_value(
    name, key, kept, retired, tmp_path
):
    """A manifest written while LRU eviction and L2 promotion were settings
    names them: one holding the only value left (``"lru"``, ``true``) loads
    and decides as the fixture does; any other value raises."""
    import golden_snapshots as gs

    expected = json.loads(gs.EXPECTED_PATH.read_text(encoding="utf-8"))[name]
    for value in (kept, retired):
        tree = tmp_path / str(value)
        shutil.copytree(gs.FIXTURE_DIR / name, tree)

        def edit(manifest):
            (manifest["config"] if name == "meancache" else manifest)[key] = value

        _edit_manifest(tree, edit)
        if value == kept:
            assert gs.observe(name, gs.load_fixture(name, tree)) == expected["observed"]
        else:
            with pytest.raises(SnapshotError, match="lfu|promote"):
                gs.load_fixture(name, tree)


@pytest.mark.parametrize(
    "order",
    [[0, 1, 99], [0, 1, 1], [0, 1], [0, 1, 2, 2]],
    ids=["unknown-id", "repeated-id", "missing-id", "extra-repeat"],
)
def test_meancache_load_rejects_a_tampered_lru_order(order, tmp_path):
    """The saved LRU order must list each entry id exactly once: an order
    naming an id the cache does not hold would make a later eviction pick
    a victim that is not there."""
    cache = MeanCache(make_tiny_encoder(), MeanCacheConfig(max_entries=3))
    for i in range(3):
        cache.insert(f"query number {i} about topic {i}", f"r{i}")
    cache.save(tmp_path / "mc")
    MeanCache.load(tmp_path / "mc", make_tiny_encoder())  # the untampered copy loads

    def edit(manifest):
        assert manifest["policy"]["state"]["order"] == [0, 1, 2]
        manifest["policy"]["state"]["order"] = order

    _edit_manifest(tmp_path / "mc", edit)
    with pytest.raises(SnapshotError, match="LRU order"):
        MeanCache.load(tmp_path / "mc", make_tiny_encoder())


def test_cache_snapshots_do_not_depend_on_wall_time(tmp_path):
    """Cache state holds no time: the same populate / lookup_batch / insert
    sequence run twice, 10 ms apart and with no clock injected, saves
    byte-identical ``MeanCache`` and ``TieredCache`` snapshot trees."""
    import time

    import golden_snapshots as gs

    from repro.core.tiered import QuantizedTier, TieredCache

    queries, contexts = gs.CACHE_QUERIES, gs.CACHE_CONTEXTS

    def run(tag: str) -> None:
        config = MeanCacheConfig(max_entries=4, similarity_threshold=gs.CACHE_THRESHOLD)
        flat = MeanCache(make_tiny_encoder(), config)
        flat.populate(queries[:10], contexts=contexts[:10])
        tiered = TieredCache(
            make_tiny_encoder(),
            config,
            l2=QuantizedTier(params={"min_train_size": 8, "seed": 3}),
        )
        for query, context in zip(queries[:10], contexts[:10]):
            tiered.insert(query, f"answer to: {query}", context=context)
        for cache in (flat, tiered):
            cache.lookup_batch(queries[:6], contexts=contexts[:6])
            cache.insert(queries[10], "a late answer", context=contexts[10])
        flat.save(tmp_path / tag / "meancache")
        tiered.save(tmp_path / tag / "tiered")

    run("first")
    time.sleep(0.01)
    run("second")
    for name in ("meancache", "tiered"):
        first = gs.tree_hashes(tmp_path / "first" / name)
        assert first and first == gs.tree_hashes(tmp_path / "second" / name), name


def test_format_v2_snapshot_with_a_torn_copy_is_refused(tmp_path):
    """The dropped v2 copy is still checked: one row short is corrupt."""
    import golden_snapshots as gs

    path = tmp_path / "v2"
    shutil.copytree(gs.LEGACY_DIR / "meancache", path)
    embeddings = np.load(path / "arrays" / "embeddings.npy")
    np.save(path / "arrays" / "embeddings.npy", embeddings[:-1])
    with pytest.raises(SnapshotError, match="inconsistent"):
        MeanCache.load(path, make_tiny_encoder())


def test_committed_snapshot_fixtures_are_what_this_tree_generates():
    """``python -m golden_snapshots --check``: a full regeneration into a
    temporary directory reproduces every committed fixture file and
    ``expected.json`` byte for byte, so a format change cannot land without
    the regenerated fixture beside it."""
    import golden_snapshots as gs

    assert gs.check() == []


# --------------------------------------------------------------------------- #
# Golden-fixture byte-exactness through a save/load cycle
# --------------------------------------------------------------------------- #
def test_saved_and_reloaded_meancache_reproduces_golden_decisions():
    """A snapshot round-trip must not perturb a single golden decision.

    Rebuilds the golden fixture's Table I MeanCache (MPNet) setup, saves it,
    reloads it with a fresh encoder clone, and asserts the reloaded cache's
    decision stream matches ``golden_decisions_quick.json`` byte for byte
    (hit bits, ``float.hex`` similarities, matched entry ids).
    """
    import tempfile

    from golden_decisions import FIXTURE_PATH, GOLDEN_SCALE, GOLDEN_SEED

    from repro.datasets.semantic_pairs import generate_cache_workload
    from repro.experiments.common import cached_system_bundle, resolve_scale

    assert FIXTURE_PATH.exists(), "golden fixture missing"
    golden = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    expected = golden["table1"]["MeanCache (MPNet)"]

    resolved = resolve_scale(GOLDEN_SCALE)
    bundle = cached_system_bundle(resolved, seed=GOLDEN_SEED, train_albert=True)
    workload = generate_cache_workload(
        n_cached=resolved.n_cached,
        n_probes=resolved.n_probes,
        duplicate_fraction=0.3,
        corpus=bundle.corpus,
        seed=GOLDEN_SEED + 100,
    )
    trained = bundle.meancache_mpnet
    cache = MeanCache(
        trained.encoder.clone(),
        MeanCacheConfig(similarity_threshold=trained.threshold, verify_context=True),
    )
    cache.populate(workload.cached_queries)

    with tempfile.TemporaryDirectory() as tmp:
        cache.save(Path(tmp) / "mc")
        loaded = MeanCache.load(Path(tmp) / "mc", trained.encoder.clone())

    decisions = loaded.lookup_batch([p.text for p in workload.probes])
    assert "".join("1" if d.hit else "0" for d in decisions) == expected["hits"]
    assert [float(d.similarity).hex() for d in decisions] == expected["sims"]
    assert [d.entry_id if d.hit else None for d in decisions] == expected["matches"]


# --------------------------------------------------------------------------- #
# Fleet checkpoint / warm-start
# --------------------------------------------------------------------------- #
def _split_trace(seed=11, n_users=5):
    trace = WorkloadGenerator(
        WorkloadConfig(n_users=n_users, queries_per_user=8, duplicate_rate=0.5),
        seed=seed,
    ).generate()
    events = sorted(trace.events, key=lambda e: (e.time_s, e.user_id))
    half = len(events) // 2
    return (
        Trace(events=events[:half], n_users=n_users),
        Trace(events=events[half:], n_users=n_users),
    )


def _fleet(encoder, factory):
    return CacheServer(
        factory,
        SimulatedLLMService(LLMServiceConfig(seed=0)),
        ServerConfig(),
    )


def test_fleet_checkpoint_warm_start_matches_continuous_run(tmp_path):
    encoder = make_tiny_encoder()
    first, second = _split_trace()
    factory = lambda uid: MeanCache(encoder, MeanCacheConfig())

    continuous = _fleet(encoder, factory)
    continuous.replay(first, 0.25)
    expected = continuous.replay(second, 0.25)

    interrupted = _fleet(encoder, factory)
    interrupted.replay(first, 0.25)
    interrupted.checkpoint(tmp_path / "ckpt")

    resumed = _fleet(encoder, factory)
    resumed.restore(tmp_path / "ckpt", loader=lambda p: MeanCache.load(p, encoder))
    got = resumed.replay(second, 0.25)

    assert {u: (s.lookups, s.hits) for u, s in got.per_user.items()} == {
        u: (s.lookups, s.hits) for u, s in expected.per_user.items()
    }


def test_fleet_checkpoint_deduplicates_shared_cache(tmp_path):
    encoder = make_tiny_encoder()
    first, second = _split_trace(seed=21)
    shared = MeanCache(encoder, GPTCACHE_CONFIG)
    sim = _fleet(encoder, lambda uid: shared)
    sim.replay(first, 0.25)
    sim.checkpoint(tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert set(manifest["users"].values()) == {"cache_0"}

    resumed = _fleet(encoder, lambda uid: MeanCache(encoder, GPTCACHE_CONFIG))
    resumed.restore(tmp_path / "ckpt", loader=lambda p: MeanCache.load(p, encoder))
    # All restored users share one instance, as before the checkpoint.
    caches = {id(a.cache) for a in resumed.adapters.values()}
    assert len(caches) == 1
    resumed.replay(second, 0.25)


def test_fleet_checkpoint_in_place_rebases_restored_tier_logs(tmp_path):
    """A restored tiered cache logs its tier's mutations under the checkpoint
    it came from; checkpointing over that directory replaces the log's
    baseline, and the tier must count (and owe) from the new one."""
    from repro.core.tiered import QuantizedTier, TieredCache
    from repro.index import delta_log_size

    encoder = make_tiny_encoder()
    first, second = _split_trace(n_users=2)
    factory = lambda uid: TieredCache(
        encoder,
        MeanCacheConfig(max_entries=2),
        l2=QuantizedTier(params={"min_train_size": 10_000}),
    )
    sim = _fleet(encoder, factory)
    sim.replay(first, 0.25)
    sim.checkpoint(tmp_path / "ckpt")

    resumed = _fleet(encoder, factory)
    resumed.restore(tmp_path / "ckpt", loader=lambda p: TieredCache.load(p, encoder))
    resumed.replay(second, 0.25)
    # (cache, the lock of the shard serving it): the server owns the caches,
    # so touching one from here takes that lock, as the server's flush does
    caches = [
        (adapter.cache, resumed._shards[resumed.shard_of(user)].lock)
        for user, adapter in resumed.adapters.items()
    ]
    assert all(delta_log_size(c.l2.snapshot_dir)[0] > 0 for c, _ in caches)
    for cache, lock in caches:  # demotions still pending when the checkpoint lands
        with lock:
            for i in range(3):
                cache.insert(f"enrolled between windows {i}", "r")
        assert len(QuantizedTier.load(cache.l2.snapshot_dir)) != len(cache.l2)
    resumed.checkpoint(tmp_path / "ckpt")
    for cache, lock in caches:
        with lock:
            assert seal_adds_no_record(cache.l2)
            cache.insert("enrolled after the checkpoint", "r")
            cache.maintenance()
        assert cache.l2._log_length() == delta_log_size(cache.l2.snapshot_dir)[0] == 1
        loaded = QuantizedTier.load(cache.l2.snapshot_dir)
        assert [e.query for e in loaded.entries] == [e.query for e in cache.l2.entries]


class _UnsaveableCache(MeanCache):
    """A cache the server can serve but not checkpoint: it has no ``save``."""

    save = None


def test_fleet_checkpoint_rejects_unsaveable_cache(tmp_path):
    encoder = make_tiny_encoder()
    sim = CacheServer(lambda uid: _UnsaveableCache(encoder), config=ServerConfig())
    trace = WorkloadGenerator(
        WorkloadConfig(n_users=1, queries_per_user=2), seed=0
    ).generate()
    sim.replay(trace)
    with pytest.raises(SnapshotError, match="no save"):
        sim.checkpoint(tmp_path / "ckpt")


# --------------------------------------------------------------------------- #
# Crash safety: atomic saves, delta log, native dtype, zero-copy restore
# --------------------------------------------------------------------------- #
def _decision_signature(cache, probes):
    return [
        (d.hit, d.entry_id, float(d.similarity).hex())
        for d in cache.lookup_batch(probes)
    ]


def test_kill_mid_save_preserves_previous_snapshot(tmp_path, monkeypatch):
    """A save that dies after writing arrays must not touch the old snapshot.

    The manifest is the commit point: it is written last inside the staged
    ``tmp-`` sibling, so a crash before it leaves the published directory
    byte-identical and the torn stage unloadable (and cleaned up).
    """
    import repro.index.snapshot as snapshot_module

    encoder = make_tiny_encoder()
    cache = _populated_meancache(encoder)
    probes = [f"how do I configure widget {i}" for i in range(0, 45, 3)]
    expected = _decision_signature(cache, probes)
    target = tmp_path / "mc"
    cache.save(target)

    # Mutate the live cache, then kill the next save right before the
    # manifest (arrays + entries already written into the stage).
    cache.insert("a brand new question", "a brand new response")

    real_write_manifest = snapshot_module.write_manifest

    def exploding_write_manifest(path, manifest):
        # The nested index snapshot commits; the cache's own manifest — the
        # envelope's commit point — is the write that dies.
        if manifest["format"] == "repro-meancache":
            raise OSError("simulated crash before manifest commit")
        real_write_manifest(path, manifest)

    monkeypatch.setattr(snapshot_module, "write_manifest", exploding_write_manifest)
    with pytest.raises(OSError, match="simulated crash"):
        cache.save(target)
    monkeypatch.undo()

    # No torn stage left behind, and the published snapshot is the old one.
    assert [p.name for p in tmp_path.iterdir()] == ["mc"]
    loaded = MeanCache.load(target, encoder.clone())
    assert len(loaded) == len(cache) - 1
    assert _decision_signature(loaded, probes) == expected


def test_kill_mid_save_stage_is_never_loadable(tmp_path, monkeypatch):
    """If the stage *did* survive a crash, its missing manifest rejects it."""
    import repro.index.snapshot as snapshot_module

    index = make_index("flat", dim=DIM)
    index.add_batch(np.random.default_rng(0).normal(size=(12, DIM)))

    staged = []
    real_write_arrays = snapshot_module.write_arrays

    def capturing_write_arrays(path, arrays):
        real_write_arrays(path, arrays)
        staged.append(Path(path))
        raise OSError("simulated crash after arrays")

    monkeypatch.setattr(snapshot_module, "write_arrays", capturing_write_arrays)
    with pytest.raises(OSError, match="simulated crash"):
        index.save(tmp_path / "snap")
    monkeypatch.undo()

    # The stage was cleaned up on the failure path; even if a hard kill had
    # left it on disk, loading it must fail (arrays but no manifest).
    (stage,) = staged
    assert not stage.exists()
    shutil.rmtree(tmp_path / "snap", ignore_errors=True)
    real_write_arrays(tmp_path / "snap", {"vectors": np.zeros((3, DIM))})
    with pytest.raises(SnapshotError, match="no snapshot manifest"):
        load_index(tmp_path / "snap")


def test_save_replaces_whole_directory(tmp_path):
    """Saving a small snapshot over a big one leaves no stale files behind.

    Regression for in-place overwrites: the big snapshot's extra arrays and
    its delta log must vanish, not linger to corrupt the next load.
    """
    from repro.index import append_delta, delta_log_size

    big = make_index("flat", dim=DIM)
    big.add_batch(np.random.default_rng(0).normal(size=(200, DIM)))
    path = tmp_path / "snap"
    big.save(path)
    append_delta(path, vectors=np.zeros((2, DIM)), ids=[900, 901])
    assert (path / "deltas.jsonl").exists()

    small = make_index("flat", dim=DIM)
    small.add_batch(np.random.default_rng(1).normal(size=(3, DIM)))
    small.save(path)

    assert not (path / "deltas.jsonl").exists()
    assert not (path / "deltas").exists()
    loaded = load_index(path)
    assert loaded.ids == small.ids
    assert len(loaded) == 3


def test_meancache_persists_native_index_dtype(tmp_path):
    """The restored footprint is the on-disk one: vectors live once, in the
    index snapshot, no loaded entry owns a vector array, and context chains
    round-trip at the index's dtype."""
    encoder = make_tiny_encoder()
    cache = _populated_meancache(encoder)
    native = np.dtype(cache.index.dtype)
    assert native == np.float32  # the flat index stores float32 rows
    path = tmp_path / "mc"
    cache.save(path)

    assert not (path / "arrays" / "embeddings.npy").exists()
    on_disk = np.load(path / "arrays" / "ctx_embeddings.npy", allow_pickle=False)
    assert on_disk.dtype == native and len(on_disk) > 0

    loaded = MeanCache.load(path, encoder.clone())
    for entry in loaded.entries:
        assert not any(isinstance(value, np.ndarray) for value in vars(entry).values())
        assert entry.context.is_empty or entry.context.embedding.dtype == native
    assert loaded.embedding_storage_bytes() == cache.embedding_storage_bytes()
    # Stability: a second save/load cycle changes nothing.
    loaded.save(tmp_path / "mc2")
    again = np.load(tmp_path / "mc2" / "arrays" / "ctx_embeddings.npy")
    np.testing.assert_array_equal(again, on_disk)


def test_delta_log_replays_and_compacts(tmp_path):
    """append → load replays; torn trailing line is ignored; compact folds."""
    from repro.index import append_delta, compact_snapshot, delta_log_size

    rng = np.random.default_rng(4)
    index = make_index("flat", dim=DIM)
    index.add_batch(rng.normal(size=(20, DIM)))
    path = tmp_path / "snap"
    index.save(path)

    extra = rng.normal(size=(3, DIM))
    append_delta(path, vectors=extra, ids=[100, 101, 102])
    append_delta(path, removed=[0, 101])
    assert delta_log_size(path) == (2, 3)

    # A torn trailing line (crash mid-append) must be skipped, not fatal.
    with open(path / "deltas.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"seq": 3, "ids": [99')

    loaded = load_index(path)
    assert set(loaded.ids) == (set(index.ids) | {100, 102}) - {0}
    queries = rng.normal(size=(4, DIM))
    expected = hit_signature(loaded.search(queries, top_k=5))

    compact_snapshot(path)
    assert delta_log_size(path) == (0, 0)
    compacted = load_index(path)
    assert compacted.ids == loaded.ids
    assert hit_signature(compacted.search(queries, top_k=5)) == expected

    # Skipping replay yields the base snapshot unchanged (now = compacted).
    base_only = load_index(path, replay_deltas=False)
    assert base_only.ids == compacted.ids


def test_delta_log_rejects_mid_file_corruption(tmp_path):
    """Only the *trailing* line may be torn; earlier corruption is fatal."""
    from repro.index import append_delta

    index = make_index("flat", dim=DIM)
    index.add_batch(np.random.default_rng(5).normal(size=(8, DIM)))
    path = tmp_path / "snap"
    index.save(path)
    append_delta(path, vectors=np.zeros((1, DIM)), ids=[50])
    append_delta(path, removed=[50])
    lines = (path / "deltas.jsonl").read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0][: len(lines[0]) // 2]
    (path / "deltas.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotError, match="corrupted delta log"):
        load_index(path)


@pytest.mark.parametrize(
    "tail",
    [
        '{"seq": 2, "ids": [11], "rem',  # cut mid-record
        '{"seq": 2, "ids": [], "removed": [1], "file": null}',  # cut before its newline
        '{"seq": 2, "ids": [11], "rem\n',  # garbage that did get a newline
    ],
)
def test_append_after_a_torn_tail_keeps_every_committed_record(tmp_path, tail):
    """A crashed append's fragment must not swallow the next record.

    Appending onto the torn line would make the new (fsynced, acknowledged)
    record part of an undecodable tail readers skip, and one append later a
    mid-file corruption no load survives.
    """
    from repro.index import append_delta, delta_log_size

    index = make_index("flat", dim=DIM)
    index.add_batch(np.random.default_rng(6).normal(size=(8, DIM)))
    path = tmp_path / "snap"
    index.save(path)
    append_delta(path, vectors=np.ones((1, DIM)), ids=[50])
    with open(path / "deltas.jsonl", "a", encoding="utf-8") as fh:
        fh.write(tail)
    complete = tail.endswith("}")  # a whole record counts; only its newline was lost
    committed = 2 if complete else 1
    assert delta_log_size(path)[0] == committed

    assert append_delta(path, vectors=np.ones((1, DIM)), ids=[60]) == committed + 1
    assert 60 in load_index(path).ids
    assert append_delta(path, removed=[50]) == committed + 2
    loaded = load_index(path)
    assert 60 in loaded.ids and 50 not in loaded.ids
    assert (1 in loaded.ids) == (not complete)
    assert delta_log_size(path)[0] == committed + 2


def _snapshot_with_log(tmp_path):
    index = make_index("flat", dim=4)
    index.add_batch(np.random.default_rng(7).normal(size=(6, 4)))
    path = tmp_path / "snap"
    index.save(path)
    return index, path


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape, order", [((4,), "C"), ((3, 4), "C"), ((3, 4), "F"), ((0, 4), "C")]
)
def test_delta_rows_round_trip_bit_for_bit(tmp_path, dtype, shape, order):
    """What ``append_delta`` was given is what ``read_deltas`` returns: same
    values, dtype and (row-matrix) shape, and nothing but the log on disk."""
    from repro.index import append_delta, read_deltas

    index, path = _snapshot_with_log(tmp_path)
    rows = np.asarray(
        np.random.default_rng(8).normal(size=shape).astype(dtype), order=order
    )
    ids = list(range(100, 100 + np.atleast_2d(rows).shape[0]))
    append_delta(path, removed=[0])
    assert append_delta(path, vectors=rows, ids=ids, meta={"note": "kept"}) == 2
    assert sorted(p.name for p in path.iterdir()) == ["arrays", "deltas.jsonl", "manifest.json"]

    first, second = read_deltas(path)
    assert first.vectors is None and first.removed == (0,)
    assert second.ids == tuple(ids) and second.meta == {"note": "kept"}
    assert second.vectors.dtype == rows.dtype
    assert second.vectors.shape == np.atleast_2d(rows).shape
    assert second.vectors.tobytes() == np.ascontiguousarray(np.atleast_2d(rows)).tobytes()
    assert not second.vectors.flags.writeable  # apply() only feeds add_batch

    loaded = load_index(path)
    assert set(loaded.ids) == (set(index.ids) | set(ids)) - {0}


def test_append_delta_rejects_rows_it_could_not_read_back(tmp_path):
    from repro.index import append_delta, delta_log_size

    _, path = _snapshot_with_log(tmp_path)
    for rows in (np.ones((1, 4), dtype=bool), np.array([["a", "b", "c", "d"]])):
        with pytest.raises(ValueError, match="float or int"):
            append_delta(path, vectors=rows, ids=[50])
    assert delta_log_size(path) == (0, 0)
    assert not (path / "deltas.jsonl").exists()


def _good_vectors_field():
    import base64

    rows = np.arange(8, dtype=np.float32).reshape(2, 4)
    return {"dtype": "<f4", "shape": [2, 4], "b64": base64.b64encode(rows).decode("ascii")}


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda r: r["vectors"].update(b64="not base64!"), "line 2 .seq 2."),
        (lambda r: r["vectors"].update(b64=r["vectors"]["b64"][:-4]), "line 2 .seq 2."),
        (lambda r: r["vectors"].update(shape=[2, 3]), "line 2 .seq 2."),
        (lambda r: r["vectors"].update(shape=[2, -1]), "line 2 .seq 2."),
        (lambda r: r["vectors"].update(shape=[1, 8]), "line 2 .seq 2."),
        (lambda r: r.update(ids=[7]), "for shape .2, 4., 1 ids"),
        (lambda r: r["vectors"].update(dtype="O"), "not a plain float/int dtype"),
        (lambda r: r["vectors"].update(dtype="<U4"), "not a plain float/int dtype"),
        (lambda r: r["vectors"].update(dtype=None), "not a plain float/int dtype"),
        (lambda r: r["vectors"].update(dtype="f4,i4"), "not a plain float/int dtype"),
        (lambda r: r["vectors"].pop("b64"), "KeyError"),
        (lambda r: r.update(vectors=[1, 2]), "line 2 .seq 2."),
        (lambda r: r.update(vectors=None), "ids given without vectors"),
        (lambda r: r.update(ids=["x", 8]), "line 2 .seq 2."),
    ],
)
@pytest.mark.parametrize("position", ["last", "middle"])
def test_a_committed_record_with_a_bad_payload_is_a_snapshot_error(
    tmp_path, damage, message, position
):
    """A line that parses as JSON is committed — last in the log or not — so
    a payload that does not decode names the log, the line and the seq
    instead of surfacing as the backend's bare ``ValueError``."""
    from repro.index import read_deltas

    _, path = _snapshot_with_log(tmp_path)
    record = {"seq": 2, "ids": [7, 8], "removed": [], "vectors": _good_vectors_field()}
    lines = [json.dumps({"seq": 1, "ids": [], "removed": [1], "vectors": None}), json.dumps(record)]
    (path / "deltas.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [r.seq for r in read_deltas(path)] == [1, 2]  # undamaged, it reads

    damage(record)
    lines[1] = json.dumps(record)
    if position == "middle":
        lines.append(json.dumps({"seq": 3, "ids": [], "removed": [2], "vectors": None}))
    (path / "deltas.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for read in (read_deltas, load_index):
        with pytest.raises(SnapshotError, match=message) as caught:
            read(path)
        assert str(path / "deltas.jsonl") in str(caught.value)


def test_a_log_of_the_per_delta_npy_format_is_refused(tmp_path):
    """One delta format: a record that keeps its rows in ``deltas/*.npy`` is
    not read, and the error says which build must compact it."""
    from repro.index import append_delta, read_deltas

    _, path = _snapshot_with_log(tmp_path)
    (path / "deltas").mkdir()
    np.save(path / "deltas" / "delta-00000001.npy", np.zeros((1, 4), dtype=np.float32))
    legacy = {"seq": 1, "ids": [50], "removed": [], "file": "deltas/delta-00000001.npy"}
    (path / "deltas.jsonl").write_text(json.dumps(legacy) + "\n", encoding="utf-8")
    for read in (read_deltas, load_index):
        with pytest.raises(SnapshotError, match="per-delta .npy format.*version that wrote it"):
            read(path)
    # a pure removal of that format carried "file": null and still reads
    (path / "deltas.jsonl").write_text(
        '{"seq": 1, "ids": [], "removed": [1], "file": null}\n', encoding="utf-8"
    )
    assert read_deltas(path)[0].removed == (1,)
    assert append_delta(path, removed=[2]) == 2


def _append_an_id_already_held(path, held_id, dim):
    """Hand-append a second record to the log at ``path``: one row under
    ``held_id``, an id the snapshot already holds."""
    from repro.index import append_delta

    append_delta(path, removed=[])
    append_delta(
        path, vectors=np.ones((1, dim), dtype=np.float32), ids=[held_id], meta={"entries": []}
    )


def test_an_index_log_that_adds_a_held_id_is_a_snapshot_error(tmp_path):
    """The backend's bare ``ValueError`` does not escape the loader: the
    error names the log, the line and the seq."""
    index, path = _snapshot_with_log(tmp_path)
    _append_an_id_already_held(path, index.ids[0], 4)
    with pytest.raises(SnapshotError, match=r"line 2 \(seq 2\).*already in the index") as caught:
        load_index(path)
    assert str(path / "deltas.jsonl") in str(caught.value)


def test_a_tier_log_that_adds_a_held_id_is_a_snapshot_error(tmp_path):
    from repro.core.tiered import QuantizedTier

    path = tmp_path / "tier"
    tier = QuantizedTier(dim=4, params={"min_train_size": 10_000}, snapshot_dir=path)
    held = tier.insert("held", "r", np.ones(4))
    tier.flush()  # the full snapshot
    _append_an_id_already_held(path, held, 4)
    with pytest.raises(SnapshotError, match=r"line 2 \(seq 2\).*already in the index") as caught:
        QuantizedTier.load(path)
    assert str(path / "deltas.jsonl") in str(caught.value)


def test_mmap_load_is_zero_copy(tmp_path):
    """The mmap restore must not allocate the row matrix (tier-1 smoke).

    numpy reports its buffer allocations to tracemalloc, so the full-copy
    load's peak includes the whole storage matrix while the mmap load's
    peak must stay far below it.
    """
    import tracemalloc

    n, dim = 20_000, 64
    matrix_bytes = n * dim * 4
    index = make_index("flat", dim=dim)
    index.add_batch(
        np.random.default_rng(6).normal(size=(n, dim)).astype(np.float32)
    )
    path = tmp_path / "snap"
    index.save(path)

    tracemalloc.start()
    full = load_index(path)
    _, full_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del full

    tracemalloc.start()
    mapped = load_index(path, mmap=True)
    _, mmap_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert full_peak >= matrix_bytes  # the copying path really copies
    assert mmap_peak < matrix_bytes / 10  # the mmap path really doesn't
    assert mapped.mmap_backed
    # First mutation materializes a private copy — correctness over laziness.
    mapped.add(np.zeros(dim, dtype=np.float32))
    assert not mapped.mmap_backed
    assert len(mapped) == n + 1
