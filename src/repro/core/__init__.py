"""MeanCache core: the paper's primary contribution.

* :mod:`repro.core.storage` — byte-level size accounting for cached values.
* :mod:`repro.core.policy` — the cache's LRU eviction order.
* :mod:`repro.core.context` — context-chain representation and matching.
* :mod:`repro.core.cache` — :class:`MeanCache` implementing Algorithm 1:
  embedding-based semantic matching with an adaptive cosine threshold,
  context-chain verification and PCA-compressed embeddings.
* :mod:`repro.core.pipeline` — the lookup rule as three functions
  (``embed_probes``, ``search_candidates``, ``first_admissible``) that every
  semantic cache and the quantized L2 tier call.
* :mod:`repro.core.tiered` — :class:`TieredCache`: a small exact L1 over a
  large (optionally shared) quantized L2 with promotion/demotion and
  crash-safe delta-logged snapshots.
* :mod:`repro.core.compression` — cache-level embedding compression utility.
* :mod:`repro.core.client` — :class:`MeanCacheClient`, the end-user session
  that wires a local MeanCache to the (simulated) LLM web service.
"""

from repro.core.cache import MeanCache, MeanCacheConfig, CacheDecision, CacheEntry
from repro.core.client import MeanCacheClient, ClientQueryResult
from repro.core.compression import compress_cache, CompressionReport
from repro.core.context import ContextChain, context_matches
from repro.core.policy import LRUPolicy
from repro.core.tiered import QuantizedTier, TierEntry, TieredCache

__all__ = [
    "MeanCache",
    "MeanCacheConfig",
    "CacheDecision",
    "CacheEntry",
    "MeanCacheClient",
    "ClientQueryResult",
    "ContextChain",
    "context_matches",
    "LRUPolicy",
    "compress_cache",
    "CompressionReport",
    "QuantizedTier",
    "TierEntry",
    "TieredCache",
]
