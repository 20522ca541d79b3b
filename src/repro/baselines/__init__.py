"""The paper's baseline, GPTCache, as a :class:`MeanCache` configuration.

GPTCache (Bang, 2023) keeps one central cache of every user's queries with a
fixed τ = 0.7, a pretrained encoder and no context check: build it as
``MeanCache(encoder, GPTCACHE_CONFIG)``.  The network round trip a remote
cache adds is modelled by the one experiment that reports it (Fig. 5).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

from repro.core.cache import CacheEntry, CacheStats, MeanCache, MeanCacheConfig
from repro.core.context import ContextChain
from repro.embeddings.model import SiameseEncoder
from repro.index.snapshot import SnapshotError, load_cache_snapshot

#: τ = 0.7, the single best candidate, no context check, and a capacity
#: never reached (a central cache does not evict).
GPTCACHE_CONFIG = MeanCacheConfig(
    similarity_threshold=0.7, top_k=1, verify_context=False, max_entries=sys.maxsize
)


def load_gptcache_snapshot(path: "str | Path", encoder: SiameseEncoder) -> MeanCache:
    """Read a legacy ``repro-gptcache`` v2 or v3 snapshot as a MeanCache.

    Entry ids are list positions and contexts are empty; the LRU order is
    the insertion order, and ``lookups``/``hits`` come from the manifest.
    """

    def build(manifest) -> MeanCache:
        saved = manifest["config"]
        keep = ("similarity_threshold", "top_k", "index_backend", "index_params")
        cache = MeanCache(encoder, replace(GPTCACHE_CONFIG, **{k: saved[k] for k in keep}))
        lookups, hits = int(manifest["lookups"]), int(manifest["hits"])
        cache.stats = CacheStats(lookups=lookups, hits=hits, misses=lookups - hits)
        return cache

    cache, index, records, data, _ = load_cache_snapshot(
        path, "repro-gptcache", 3, build, required=()
    )
    n = len(records)
    # Before v3 each vector was stored a second time beside the index's rows.
    if index.ids != list(range(n)) or len(data.get("embeddings", records)) != n:
        raise SnapshotError(f"snapshot at {path} is inconsistent: entries, ids and rows differ")
    cache._index = index
    for i, record in enumerate(records):
        entry = CacheEntry(record["query"], record["response"], ContextChain.empty(), i, index)
        cache._entries[i] = entry
        cache._policy.record_insert(i)
    cache._next_id = cache.stats.insertions = n  # the baseline never evicted
    return cache


__all__ = ["GPTCACHE_CONFIG", "load_gptcache_snapshot"]
