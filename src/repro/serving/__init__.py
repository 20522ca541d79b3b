"""Multi-client serving: fleet workload generation, simulation and replay.

The paper evaluates one client at a time; this package scales the setting to
the fleet the paper actually describes — many user devices, each with a local
cache, sharing one LLM web service:

* :mod:`repro.serving.workload` — :class:`WorkloadGenerator` produces
  deterministic, seeded multi-user traffic traces (Poisson arrivals,
  per-user domain mixes, conversations/follow-ups, paraphrase duplicates,
  drift phases, :class:`ArrivalSchedule` diurnal/flash-crowd re-timing);
  :class:`Trace` serializes to JSON for traffic replay.
* :mod:`repro.serving.fleet` — :class:`FleetSimulator` replays a trace over
  N per-user caches (any variant with ``lookup_batch``/``enroll``) against one
  shared :class:`~repro.llm.service.SimulatedLLMService` on a virtual event
  clock, with batched lookup scheduling and per-fleet/per-user hit-rate,
  latency and cost aggregation.
* :mod:`repro.serving.scenarios` — the scenario zoo: adversarial
  cache-poisoning and near-miss-flooding streams, mixed-domain cohorts,
  multi-tenant mixes, external log import, plus the declarative
  :class:`ScenarioSpec` registry the evaluation matrix
  (:mod:`repro.experiments.scenario_bench`) drives.
* :mod:`repro.serving.scheduling` — the shared serving core:
  :class:`BatchExecutor` (the two-phase batch execution core both frontends
  drive), :class:`CacheAdapter`, and :func:`iter_windows` (virtual-time
  batching windows).
* :mod:`repro.serving.server` — :class:`CacheServer`, the live threaded
  serving tier: hash-sharded per-user caches behind per-shard locks, a
  bounded admission queue with :class:`BackpressureError` shedding, and an
  adaptive cross-user micro-batcher (:class:`MicroBatcher`).
"""

from repro.serving.fleet import (
    FleetConfig,
    FleetResult,
    FleetSimulator,
    LookupOutcome,
    UserStats,
)
from repro.serving.scenarios import (
    CohortSpec,
    FloodingConfig,
    MultiTenantConfig,
    PoisoningConfig,
    ScenarioSpec,
    available_scenarios,
    build_cohort_trace,
    build_flooding_trace,
    build_multi_tenant_trace,
    get_scenario,
    inject_poisoning,
    merge_traces,
    register_scenario,
    relabel_users,
    trace_from_logs,
    trace_to_logs,
)
from repro.serving.scheduling import (
    BatchExecutor,
    CacheAdapter,
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
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
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
    "CohortSpec",
    "FloodingConfig",
    "MultiTenantConfig",
    "PoisoningConfig",
    "ScenarioSpec",
    "available_scenarios",
    "build_cohort_trace",
    "build_flooding_trace",
    "build_multi_tenant_trace",
    "get_scenario",
    "inject_poisoning",
    "merge_traces",
    "register_scenario",
    "relabel_users",
    "trace_from_logs",
    "trace_to_logs",
]
