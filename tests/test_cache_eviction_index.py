"""Randomized eviction × index interplay: bookkeeping never diverges.

Drives randomized insert / lookup / remove sequences through a small
:class:`MeanCache`, asserting after **every** step that the three id
spaces stay consistent:

* ids in the vector index == ids of the live entries,
* the LRU order tracks exactly the live ids,
* ``len(cache) == len(index) == len(policy)``.

Evictions happen naturally whenever an insert exceeds ``max_entries``; the
index must drop exactly the victim's row (swap-with-last) and the LRU
order must forget it.
"""

from __future__ import annotations

import zlib

import numpy as np

from conftest import make_tiny_encoder

from repro.core.cache import MeanCache, MeanCacheConfig


def _assert_consistent(cache: MeanCache) -> None:
    entry_ids = {e.entry_id for e in cache.entries}
    index_ids = set(cache.index.ids)
    order = cache._policy.state_dict()["order"]
    assert index_ids == entry_ids, "index ids diverged from live entries"
    assert set(order) == entry_ids, "LRU order diverged from live entries"
    assert len(cache) == len(cache.index) == len(order)
    # Every live id must resolve to a finite vector of the right dimension.
    for entry_id in entry_ids:
        vec = cache.index.get(entry_id)
        assert np.all(np.isfinite(vec))


def test_randomized_insert_lookup_evict_consistency():
    # crc32, not hash(): str hashes are salted per process, and a failing
    # randomized sequence must be reproducible by rerunning.
    rng = np.random.default_rng(zlib.crc32(b"lru"))
    encoder = make_tiny_encoder(seed=11)
    cache = MeanCache(
        encoder,
        MeanCacheConfig(
            similarity_threshold=0.5,
            max_entries=12,
            top_k=3,
        ),
    )
    vocab = [
        "sort a python list",
        "reverse a string in python",
        "plan a trip to japan",
        "improve wifi signal",
        "bake a chocolate cake",
        "invest in index funds",
        "explain photosynthesis",
        "fix a flat bicycle tire",
        "merge two dataframes",
        "reset a router",
    ]
    inserted = 0
    for step in range(300):
        op = rng.random()
        text = f"{vocab[int(rng.integers(len(vocab)))]} variant {int(rng.integers(40))}"
        if op < 0.55:
            cache.insert(text, f"response {inserted}")
            inserted += 1
        elif op < 0.9:
            cache.lookup(text)
        elif len(cache):
            # Remove a random live entry directly (external invalidation).
            victim = cache.entries[int(rng.integers(len(cache)))].entry_id
            cache.remove(victim)
        _assert_consistent(cache)
        assert len(cache) <= cache.config.max_entries

    assert cache.stats.evictions > 0, "workload never overflowed the cache"
    assert cache.stats.insertions == inserted


def test_eviction_to_zero_and_refill():
    cache = MeanCache(make_tiny_encoder(seed=3), MeanCacheConfig(max_entries=5))
    ids = cache.populate([f"query number {i}" for i in range(5)])
    for entry_id in ids:
        cache.remove(entry_id)
        _assert_consistent(cache)
    assert len(cache) == 0
    cache.populate([f"fresh query {i}" for i in range(8)])
    _assert_consistent(cache)
    assert len(cache) == 5
    assert cache.stats.evictions == 3
