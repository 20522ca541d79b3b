"""Reproduction of *MeanCache: User-Centric Semantic Caching for LLM Web Services*.

The package is organised as a set of substrates plus the core contribution:

``repro.embeddings``
    Trainable siamese sentence-embedding models (NumPy), losses, optimizers,
    PCA compression and vectorized cosine similarity search.
``repro.federated``
    A from-scratch synchronous federated-learning framework (FedAvg/FedProx,
    client sampling, threshold aggregation, simulation harness).
``repro.llm``
    A simulated LLM web service with a calibrated latency model.
``repro.datasets``
    Deterministic synthetic datasets: duplicate-query pairs, contextual
    conversations, user-study logs and federated partitioning.
``repro.baselines``
    GPTCache-style server-side semantic cache and a keyword-matching cache.
``repro.core``
    MeanCache itself: the user-side semantic cache with context-chain
    verification, adaptive thresholds, PCA-compressed embeddings, eviction
    policies, persistent storage, and the lookup rule every semantic cache
    shares (three functions in ``repro.core.pipeline``).
``repro.serving``
    Multi-client serving: deterministic fleet workload generation, the
    fleet simulator (N per-user caches against one shared service) and
    JSON traffic replay.
``repro.metrics``
    Cache-decision evaluation metrics (precision / recall / F-beta / accuracy).
``repro.experiments``
    One module per paper table/figure regenerating the reported series.
"""

from repro.baselines.gptcache import GPTCache, GPTCacheConfig
from repro.core.cache import MeanCache, MeanCacheConfig, CacheDecision, CacheEntry
from repro.core.client import MeanCacheClient
from repro.embeddings.zoo import load_encoder, ENCODER_SPECS
from repro.llm.service import SimulatedLLMService, LLMServiceConfig
from repro.serving import FleetSimulator, Trace, WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "MeanCache",
    "MeanCacheConfig",
    "MeanCacheClient",
    "CacheDecision",
    "CacheEntry",
    "GPTCache",
    "GPTCacheConfig",
    "load_encoder",
    "ENCODER_SPECS",
    "SimulatedLLMService",
    "LLMServiceConfig",
    "FleetSimulator",
    "Trace",
    "WorkloadGenerator",
    "__version__",
]
