"""Reproduction of *MeanCache: User-Centric Semantic Caching for LLM Web Services*.

The package is organised as a set of substrates plus the core contribution:

``repro.embeddings``
    Trainable siamese sentence-embedding models (NumPy), losses, an optimizer,
    PCA compression and vectorized cosine similarity search.
``repro.federated``
    A from-scratch synchronous federated-learning framework (FedAvg,
    client sampling, threshold aggregation, simulation harness).
``repro.llm``
    A simulated LLM web service with a calibrated latency model.
``repro.datasets``
    Deterministic synthetic datasets: duplicate-query pairs, contextual
    conversations, user-study logs and federated partitioning.
``repro.baselines``
    The GPTCache baseline as one ``MeanCache`` configuration
    (``GPTCACHE_CONFIG``: fixed τ = 0.7, top-1, no context check, no
    eviction) and a reader for its legacy snapshots.
``repro.core``
    MeanCache itself: the user-side semantic cache with context-chain
    verification, adaptive thresholds, PCA-compressed embeddings, eviction
    policies, persistent storage, and the lookup rule every semantic cache
    shares (three functions in ``repro.core.pipeline``).
``repro.serving``
    Multi-client serving: deterministic fleet workload generation, the
    cache server (N per-user caches against one shared service, live or
    replaying a JSON traffic trace) and its checkpoints.
``repro.metrics``
    Cache-decision evaluation metrics (precision / recall / F-beta / accuracy).
``repro.experiments``
    One module per paper table/figure regenerating the reported series.
"""

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig, CacheDecision, CacheEntry
from repro.core.client import MeanCacheClient
from repro.embeddings.zoo import load_encoder, ENCODER_SPECS
from repro.llm.service import SimulatedLLMService, LLMServiceConfig
from repro.serving import Trace, WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "MeanCache",
    "MeanCacheConfig",
    "MeanCacheClient",
    "CacheDecision",
    "CacheEntry",
    "GPTCACHE_CONFIG",
    "load_encoder",
    "ENCODER_SPECS",
    "SimulatedLLMService",
    "LLMServiceConfig",
    "Trace",
    "WorkloadGenerator",
    "__version__",
]
