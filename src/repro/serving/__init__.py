"""Multi-client serving: fleet workload generation, simulation and replay.

The paper evaluates one client at a time; this package scales the setting to
the fleet the paper actually describes — many user devices, each with a local
cache, sharing one LLM web service:

* :mod:`repro.serving.workload` — :class:`WorkloadGenerator` produces
  deterministic, seeded multi-user traffic traces (Poisson arrivals,
  per-user domain mixes, conversations/follow-ups, paraphrase duplicates,
  drift phases, :class:`ArrivalSchedule` diurnal/flash-crowd re-timing);
  :class:`Trace` serializes to JSON for traffic replay.
* :mod:`repro.serving.scenarios` — the scenario zoo: adversarial
  cache-poisoning and near-miss-flooding streams, mixed-domain cohorts,
  multi-tenant mixes and external log import, as seeded trace builders
  (each family's floor is a check in ``tests/test_scenarios.py``); import
  them from that module, the package does not re-export them.
* :mod:`repro.serving.scheduling` — the serving core under the server's
  flush: :class:`BatchExecutor` (one shard's two-phase batch execution),
  :class:`CacheAdapter`, the :class:`FleetResult` aggregation, and
  :func:`iter_windows` (trace-time batching windows).
* :mod:`repro.serving.server` — :class:`CacheServer`, the serving tier:
  hash-sharded per-user caches (any variant with ``lookup_batch``/``enroll``)
  behind per-shard locks against one shared
  :class:`~repro.llm.service.SimulatedLLMService`, a bounded admission queue
  with :class:`BackpressureError` shedding, and an adaptive cross-user
  micro-batcher (:class:`MicroBatcher`).  The same flush replays a trace on
  its own timestamps (``CacheServer.replay``, with per-fleet/per-user
  hit-rate, latency and cost aggregation), and the server checkpoints its
  caches and warm-starts from them (``checkpoint`` / ``restore``).
"""

from repro.serving.scheduling import (
    BatchExecutor,
    CacheAdapter,
    FleetResult,
    LookupOutcome,
    UserStats,
    iter_windows,
)
from repro.serving.server import (
    BackpressureError,
    CacheServer,
    MicroBatcher,
    ServerConfig,
    ServerMetrics,
    ServerResponse,
)
from repro.serving.workload import (
    ArrivalSchedule,
    DriftPhase,
    Trace,
    WorkloadConfig,
    WorkloadEvent,
    WorkloadGenerator,
    apply_arrival_schedule,
)

__all__ = [
    "FleetResult",
    "LookupOutcome",
    "UserStats",
    "BatchExecutor",
    "CacheAdapter",
    "iter_windows",
    "BackpressureError",
    "CacheServer",
    "MicroBatcher",
    "ServerConfig",
    "ServerMetrics",
    "ServerResponse",
    "ArrivalSchedule",
    "DriftPhase",
    "Trace",
    "WorkloadConfig",
    "WorkloadEvent",
    "WorkloadGenerator",
    "apply_arrival_schedule",
]
