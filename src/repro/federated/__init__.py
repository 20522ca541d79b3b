"""Federated-learning substrate (Flower framework replacement).

Implements the synchronous FL protocol of the paper (§II, §III-A):

1. the server sends the global encoder weights and global cosine threshold to
   a sampled subset of clients,
2. each client fine-tunes the encoder on its local duplicate/non-duplicate
   query pairs with the multitask loss and searches for its locally-optimal
   cosine threshold,
3. clients return updated weights + threshold + sample counts,
4. the server aggregates weights with FedAvg (sample-count weighted mean) and
   thresholds with the mean, then redistributes.

Modules
-------
* :mod:`repro.federated.aggregation` — FedAvg and threshold aggregation.
* :mod:`repro.federated.sampling` — uniform client selection.
* :mod:`repro.federated.threshold` — optimal-cosine-threshold search.
* :mod:`repro.federated.client` — the FL client (local training through
  :meth:`~repro.embeddings.model.SiameseEncoder.train_on_pairs`).
* :mod:`repro.federated.server` — the FL server (round orchestration).
* :mod:`repro.federated.simulation` — end-to-end simulation harness.
* :mod:`repro.federated.online` — online threshold adaptation for the
  serving fleet (mines labelled pairs from live traffic, runs rounds on the
  fleet's virtual clock, pushes personalized τ into live caches).
"""

from repro.federated.aggregation import fedavg, aggregate_thresholds
from repro.federated.client import FLClient, ClientConfig, ClientUpdate
from repro.federated.online import (
    MinedPair,
    OnlineAdaptationConfig,
    OnlineRound,
    OnlineThresholdAdapter,
)
from repro.federated.sampling import UniformSampler
from repro.federated.server import FLServer, ServerConfig, RoundResult
from repro.federated.simulation import FLSimulation, SimulationConfig, SimulationResult
from repro.federated.threshold import (
    find_optimal_threshold,
    threshold_sweep,
    cache_mode_threshold_sweep,
    score_sweep,
    ThresholdSweepResult,
)

__all__ = [
    "fedavg",
    "aggregate_thresholds",
    "UniformSampler",
    "find_optimal_threshold",
    "threshold_sweep",
    "cache_mode_threshold_sweep",
    "score_sweep",
    "ThresholdSweepResult",
    "MinedPair",
    "OnlineAdaptationConfig",
    "OnlineRound",
    "OnlineThresholdAdapter",
    "FLClient",
    "ClientConfig",
    "ClientUpdate",
    "FLServer",
    "ServerConfig",
    "RoundResult",
    "FLSimulation",
    "SimulationConfig",
    "SimulationResult",
]
