"""Declarative scenario-matrix evaluation harness (``BENCH_scenarios.json``).

One driver, one matrix, one comparable table per scenario: every
:class:`~repro.serving.scenarios.ScenarioSpec` in the matrix runs through
one :meth:`CacheServer.replay <repro.serving.server.CacheServer.replay>`
and reports the same metric set — events, hit rate, verified true-hit
rate, false-hit rate, mean latency, LLM cost, throughput — plus
family-specific ``extras`` (attack accounting, τ trajectories, per-tenant
isolation gaps).  Scenarios with a natural counterfactual (the unpoisoned
stream, the quiet tenant alone, the unwarped arrivals) also report that
baseline's metrics, so
per-family CI floors in ``benchmarks/test_bench_scenarios.py`` can gate
*degradation*, not absolutes.

The harness mirrors the declarative-evaluation idiom of retrieval stacks
(one evaluation object per (system, measure) pair, fanned out over a
matrix): specs are data, the driver is generic, and the emitted
``BENCH_scenarios.json`` payload carries each spec verbatim so any row is
reproducible from the JSON alone.

Default matrix (registered into the scenario registry on import):

========================  ============  =====================================
scenario                  family        what it stresses
========================  ============  =====================================
``cache_poisoning``       poisoning     misleading near-duplicate enrolment
``near_miss_flooding``    flooding      τ-adapter gaming via mined positives
``diurnal_cycle``         arrival       load-cycle batching behaviour
``flash_crowd``           arrival       burst arrivals / window pile-up
``mixed_domain_cohorts``  mixed_domain  disjoint-vocabulary cohorts
``multi_tenant_isolation``multi_tenant  noisy neighbour at provisioned size
``multi_tenant_stressed`` multi_tenant  noisy neighbour under eviction
``external_trace_replay`` replay        foreign log import determinism
========================  ============  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.datasets.corpus import Corpus
from repro.embeddings.model import SiameseEncoder
from repro.federated.online import OnlineAdaptationConfig, OnlineThresholdAdapter
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.metrics.reporting import format_table
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
    register_scenario,
    trace_from_logs,
    trace_to_logs,
)
from repro.serving.scheduling import FleetResult, UserStats
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import (
    ArrivalSchedule,
    Trace,
    WorkloadConfig,
    WorkloadGenerator,
    apply_arrival_schedule,
)


# --------------------------------------------------------------------------- #
# Result shapes
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioMetrics:
    """The per-scenario metric table every family reports identically."""

    n_events: int
    hit_rate: float
    true_hit_rate: float
    false_hit_rate: float
    mean_latency_s: float
    total_cost_usd: float
    throughput_lookups_per_s: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "n_events": self.n_events,
            "hit_rate": self.hit_rate,
            "true_hit_rate": self.true_hit_rate,
            "false_hit_rate": self.false_hit_rate,
            "mean_latency_s": self.mean_latency_s,
            "total_cost_usd": self.total_cost_usd,
            "throughput_lookups_per_s": self.throughput_lookups_per_s,
        }

    @classmethod
    def from_result(cls, result: FleetResult) -> "ScenarioMetrics":
        """Metrics of a whole fleet run."""
        return cls(
            n_events=result.lookups,
            hit_rate=result.hit_rate,
            true_hit_rate=result.true_hit_rate,
            false_hit_rate=result.false_hit_rate,
            mean_latency_s=result.mean_latency_s,
            total_cost_usd=result.total_cost_usd,
            throughput_lookups_per_s=result.throughput_lookups_per_s,
        )

    @classmethod
    def from_stats(cls, stats: UserStats) -> "ScenarioMetrics":
        """Metrics of a user subset (throughput is a fleet-level quantity)."""
        return cls(
            n_events=stats.lookups,
            hit_rate=stats.hit_rate,
            true_hit_rate=stats.true_hit_rate,
            false_hit_rate=stats.false_hit_rate,
            mean_latency_s=stats.mean_latency_s,
            total_cost_usd=stats.cost_usd,
        )


@dataclass
class ScenarioResult:
    """One scenario's outcome: metrics, optional counterfactual, extras."""

    spec: ScenarioSpec
    metrics: ScenarioMetrics
    baseline: Optional[ScenarioMetrics] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The spec's registered name."""
        return self.spec.name

    @property
    def family(self) -> str:
        """The spec's scenario family."""
        return self.spec.family

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (one ``BENCH_scenarios.json`` row)."""
        return {
            "spec": self.spec.to_dict(),
            "metrics": self.metrics.to_dict(),
            "baseline": None if self.baseline is None else self.baseline.to_dict(),
            "extras": dict(self.extras),
        }


@dataclass
class ScenarioMatrixResult:
    """All scenarios' outcomes plus run configuration."""

    results: List[ScenarioResult] = field(default_factory=list)
    encoder_name: str = "albert-sim"

    def __len__(self) -> int:
        return len(self.results)

    def get(self, name: str) -> ScenarioResult:
        """One scenario's result by name."""
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(f"no scenario result named {name!r}")

    @property
    def families(self) -> List[str]:
        """Distinct scenario families present, sorted."""
        return sorted({r.family for r in self.results})

    def to_dict(self) -> Dict[str, object]:
        """The ``BENCH_scenarios.json`` payload."""
        return {
            "encoder_name": self.encoder_name,
            "families": self.families,
            "scenarios": {r.name: r.to_dict() for r in self.results},
        }

    def format(self) -> str:
        """Render the cross-scenario comparison table."""
        rows = []
        for r in self.results:
            m = r.metrics
            rows.append(
                [
                    r.name,
                    r.family,
                    m.n_events,
                    m.hit_rate,
                    m.true_hit_rate,
                    m.false_hit_rate,
                    m.mean_latency_s * 1000.0,
                    m.total_cost_usd,
                ]
            )
        return format_table(
            [
                "Scenario",
                "Family",
                "Events",
                "Hit rate",
                "True-hit",
                "False-hit",
                "Latency (ms)",
                "Cost ($)",
            ],
            rows,
            title=(
                "Scenario-matrix evaluation "
                f"({len(self.results)} scenarios, {self.encoder_name} encoder)"
            ),
        )


# --------------------------------------------------------------------------- #
# Fleet construction shared by every family
# --------------------------------------------------------------------------- #
def _workload_config(spec: ScenarioSpec, **extra: object) -> WorkloadConfig:
    """The spec's honest-traffic workload (overrides win over spec sizes)."""
    kwargs: Dict[str, object] = {
        "n_users": spec.n_users,
        "queries_per_user": spec.queries_per_user,
    }
    kwargs.update(spec.workload)
    kwargs.update(extra)
    return WorkloadConfig(**kwargs)


def _make_adapter(spec: ScenarioSpec) -> Optional[OnlineThresholdAdapter]:
    """Fresh online-adaptation loop per run (adapters hold per-run state)."""
    if spec.adaptation is None:
        return None
    kwargs: Dict[str, object] = {
        "initial_threshold": spec.similarity_threshold,
        "seed": spec.seed,
    }
    kwargs.update(spec.adaptation)
    return OnlineThresholdAdapter(OnlineAdaptationConfig(**kwargs))


def _make_fleet(
    spec: ScenarioSpec,
    encoder: SiameseEncoder,
    adaptation: Optional[OnlineThresholdAdapter] = None,
) -> CacheServer:
    """A fleet per the spec: per-device caches, or one shared central cache."""
    cache_config = MeanCacheConfig(
        similarity_threshold=spec.similarity_threshold,
        max_entries=spec.max_entries,
    )
    if spec.shared_cache:
        shared = MeanCache(encoder, cache_config)
        factory: Callable[[str], object] = lambda user_id: shared
    else:
        factory = lambda user_id: MeanCache(encoder, cache_config)
    return CacheServer(
        factory,
        SimulatedLLMService(LLMServiceConfig(seed=spec.seed)),
        ServerConfig(n_shards=1),
        adaptation=adaptation,
    )


def _run(
    spec: ScenarioSpec,
    encoder: SiameseEncoder,
    trace: Trace,
    adaptation: Optional[OnlineThresholdAdapter] = None,
    collect_outcomes: bool = False,
) -> FleetResult:
    return _make_fleet(spec, encoder, adaptation).replay(
        trace, collect_outcomes=collect_outcomes
    )


# --------------------------------------------------------------------------- #
# Family runners
# --------------------------------------------------------------------------- #
def _run_poisoning(spec: ScenarioSpec, encoder: SiameseEncoder) -> ScenarioResult:
    corpus = Corpus(seed=spec.seed)
    base = WorkloadGenerator(
        _workload_config(spec), corpus=corpus, seed=spec.seed
    ).generate()
    poisoned, info = inject_poisoning(
        base, corpus, PoisoningConfig(**spec.params), seed=spec.seed
    )
    attacked = _run(spec, encoder, poisoned, collect_outcomes=True)
    clean = _run(spec, encoder, base)
    victims = base.user_ids
    victim_set = set(victims)
    metrics = ScenarioMetrics.from_stats(attacked.stats_for(victims))
    baseline = ScenarioMetrics.from_stats(clean.stats_for(victims))
    poison_served = sum(
        1
        for o in attacked.outcomes
        if o.hit
        and o.event.user_id in victim_set
        and o.matched_query in info.poison_queries
    )
    return ScenarioResult(
        spec=spec,
        metrics=metrics,
        baseline=baseline,
        extras={
            "n_poison_events": info.n_targets,
            "n_attackers": len(info.attacker_ids),
            "poison_served": poison_served,
            "false_hit_delta": metrics.false_hit_rate - baseline.false_hit_rate,
        },
    )


def _run_flooding(spec: ScenarioSpec, encoder: SiameseEncoder) -> ScenarioResult:
    honest_config = _workload_config(spec)
    flooding = FloodingConfig(**spec.params)
    trace, honest_ids, flooder_ids = build_flooding_trace(
        honest_config, flooding, seed=spec.seed
    )
    if spec.adaptation is None:
        raise ValueError(
            "flooding scenarios need adaptation= on the spec: the attack "
            "targets the online τ adapter"
        )
    adapter = _make_adapter(spec)
    attacked = _run(spec, encoder, trace, adaptation=adapter)
    baseline_adapter = _make_adapter(spec)
    honest_alone = WorkloadGenerator(honest_config, seed=spec.seed).generate()
    clean = _run(spec, encoder, honest_alone, adaptation=baseline_adapter)
    metrics = ScenarioMetrics.from_stats(attacked.stats_for(honest_ids))
    baseline = ScenarioMetrics.from_stats(clean.stats_for(honest_ids))
    trajectory = [
        float(t) for t in adapter.threshold_trajectory().get("threshold", [])
    ]
    served_taus = [adapter.threshold_for(uid) for uid in adapter.user_ids]
    return ScenarioResult(
        spec=spec,
        metrics=metrics,
        baseline=baseline,
        extras={
            "n_flood_events": sum(
                1 for e in trace.events if e.user_id in set(flooder_ids)
            ),
            "tau_floor": adapter.config.min_threshold,
            "min_global_tau": min(trajectory) if trajectory else adapter.global_threshold,
            "final_global_tau": adapter.global_threshold,
            "min_served_tau": min(served_taus) if served_taus else adapter.global_threshold,
            "n_rounds": len(adapter.history),
            "baseline_final_tau": baseline_adapter.global_threshold,
            "false_hit_delta": metrics.false_hit_rate - baseline.false_hit_rate,
        },
    )


def _run_arrival(spec: ScenarioSpec, encoder: SiameseEncoder) -> ScenarioResult:
    schedule = ArrivalSchedule(**spec.params)
    base = WorkloadGenerator(_workload_config(spec), seed=spec.seed).generate()
    warped = apply_arrival_schedule(base, schedule)
    scenario_run = _run(spec, encoder, warped)
    baseline_run = _run(spec, encoder, base)

    def peak_arrivals_per_s(trace: Trace) -> int:
        if not trace.events:
            return 0
        buckets = np.bincount(
            np.floor([e.time_s for e in trace.events]).astype(int)
        )
        return int(buckets.max())

    return ScenarioResult(
        spec=spec,
        metrics=ScenarioMetrics.from_result(scenario_run),
        baseline=ScenarioMetrics.from_result(baseline_run),
        extras={
            "schedule": schedule.to_dict(),
            "peak_arrivals_per_s": peak_arrivals_per_s(warped),
            "baseline_peak_arrivals_per_s": peak_arrivals_per_s(base),
            "duration_s": warped.duration_s,
            "baseline_duration_s": base.duration_s,
            "hit_rate_delta": scenario_run.hit_rate - baseline_run.hit_rate,
        },
    )


def _run_mixed_domain(spec: ScenarioSpec, encoder: SiameseEncoder) -> ScenarioResult:
    cohort_dicts = spec.params.get("cohorts")
    if not cohort_dicts:
        # Default: split the corpus into two disjoint-vocabulary cohorts.
        domains = Corpus.all_domains()
        half = len(domains) // 2
        cohort_dicts = [
            {"name": "west", "domains": domains[:half]},
            {"name": "east", "domains": domains[half:]},
        ]
    cohorts = [
        CohortSpec(
            **{
                "n_users": spec.n_users,
                "queries_per_user": spec.queries_per_user,
                **dict(d),
            }
        )
        for d in cohort_dicts
    ]
    trace, members = build_cohort_trace(cohorts, seed=spec.seed)
    result = _run(spec, encoder, trace)
    per_cohort = {
        name: ScenarioMetrics.from_stats(result.stats_for(ids)).to_dict()
        for name, ids in members.items()
    }
    return ScenarioResult(
        spec=spec,
        metrics=ScenarioMetrics.from_result(result),
        extras={
            "cohorts": [c.name for c in cohorts],
            "per_cohort": per_cohort,
            "min_cohort_hit_rate": min(
                (m["hit_rate"] for m in per_cohort.values()), default=0.0
            ),
            "max_cohort_false_hit_rate": max(
                (m["false_hit_rate"] for m in per_cohort.values()), default=0.0
            ),
        },
    )


def _run_multi_tenant(spec: ScenarioSpec, encoder: SiameseEncoder) -> ScenarioResult:
    config = MultiTenantConfig(**spec.params)
    mixed, quiet_alone, quiet_ids, noisy_ids = build_multi_tenant_trace(
        config, seed=spec.seed
    )
    mixed_run = _run(spec, encoder, mixed)
    solo_run = _run(spec, encoder, quiet_alone)
    metrics = ScenarioMetrics.from_stats(mixed_run.stats_for(quiet_ids))
    baseline = ScenarioMetrics.from_stats(solo_run.stats_for(quiet_ids))
    noisy_stats = mixed_run.stats_for(noisy_ids)
    return ScenarioResult(
        spec=spec,
        metrics=metrics,
        baseline=baseline,
        extras={
            "quiet_hit_rate_mixed": metrics.hit_rate,
            "quiet_hit_rate_alone": baseline.hit_rate,
            "isolation_gap": baseline.hit_rate - metrics.hit_rate,
            "noisy_hit_rate": noisy_stats.hit_rate,
            "noisy_traffic_share": (
                noisy_stats.lookups / mixed_run.lookups if mixed_run.lookups else 0.0
            ),
            "cache_capacity": spec.max_entries,
        },
    )


def _run_replay(spec: ScenarioSpec, encoder: SiameseEncoder) -> ScenarioResult:
    base = WorkloadGenerator(_workload_config(spec), seed=spec.seed).generate()
    # Round-trip through the foreign log schema (field names remapped).
    logs = trace_to_logs(base)
    imported = trace_from_logs(logs)
    replayed = _run(spec, encoder, imported)
    replayed_again = _run(spec, encoder, imported)
    direct = _run(spec, encoder, base)
    metrics = ScenarioMetrics.from_result(replayed)
    baseline = ScenarioMetrics.from_result(direct)
    deterministic = (
        replayed.hit_rate == replayed_again.hit_rate
        and replayed.total_cost_usd == replayed_again.total_cost_usd
        and replayed.false_hit_rate == replayed_again.false_hit_rate
    )
    return ScenarioResult(
        spec=spec,
        metrics=metrics,
        baseline=baseline,
        extras={
            "n_records": len(logs),
            "replay_deterministic": deterministic,
            "hit_rate_matches_direct": metrics.hit_rate == baseline.hit_rate,
            "cost_matches_direct": metrics.total_cost_usd == baseline.total_cost_usd,
        },
    )


FAMILY_RUNNERS: Dict[str, Callable[[ScenarioSpec, SiameseEncoder], ScenarioResult]] = {
    "poisoning": _run_poisoning,
    "flooding": _run_flooding,
    "arrival": _run_arrival,
    "mixed_domain": _run_mixed_domain,
    "multi_tenant": _run_multi_tenant,
    "replay": _run_replay,
}


# --------------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------------- #
def run_scenario(
    spec: ScenarioSpec,
    encoder: Optional[SiameseEncoder] = None,
    encoder_name: str = "albert-sim",
) -> ScenarioResult:
    """Run one scenario spec through its family runner."""
    if encoder is None:
        from repro.embeddings.zoo import load_encoder

        encoder = load_encoder(encoder_name)
    runner = FAMILY_RUNNERS.get(spec.family)
    if runner is None:  # pragma: no cover - ScenarioSpec already validates
        raise ValueError(f"no runner for scenario family {spec.family!r}")
    return runner(spec, encoder)


def run_scenario_matrix(
    specs: Optional[Sequence[ScenarioSpec]] = None,
    encoder: Optional[SiameseEncoder] = None,
    encoder_name: str = "albert-sim",
) -> ScenarioMatrixResult:
    """Run a whole scenario matrix and collect one comparable table.

    ``specs=None`` runs every registered scenario (the default zoo).  An
    explicitly empty list is legal and returns an empty matrix — the
    driver itself has no minimum-size assumption.
    """
    if specs is None:
        specs = [get_scenario(name) for name in available_scenarios()]
    matrix = ScenarioMatrixResult(encoder_name=encoder_name)
    if not specs:
        return matrix
    if encoder is None:
        from repro.embeddings.zoo import load_encoder

        encoder = load_encoder(encoder_name)
    for spec in specs:
        matrix.results.append(run_scenario(spec, encoder=encoder))
    return matrix


# --------------------------------------------------------------------------- #
# The default zoo (registered on import)
# --------------------------------------------------------------------------- #
def default_scenario_specs() -> List[ScenarioSpec]:
    """The stock scenario matrix (sizes tuned for a ~1-minute bench run)."""
    return [
        ScenarioSpec(
            name="cache_poisoning",
            family="poisoning",
            description=(
                "Attacker front-runs victims' first asks with misleading "
                "hard-negative near-duplicates on a shared cache"
            ),
            n_users=10,
            queries_per_user=30,
            shared_cache=True,
            workload={"duplicate_rate": 0.35, "followup_rate": 0.1},
            params={"target_fraction": 0.5, "lead_s": 5.0, "object_bias": 0.95},
        ),
        ScenarioSpec(
            name="near_miss_flooding",
            family="flooding",
            description=(
                "Adversarial devices flood weak-paraphrase near-misses to "
                "drag the federated τ down for honest users"
            ),
            n_users=10,
            queries_per_user=40,
            workload={"duplicate_rate": 0.35, "paraphrase_bias": 0.7},
            params={
                "n_flooders": 4,
                "queries_per_flooder": 150,
                "duplicate_rate": 0.95,
                "paraphrase_bias": 0.0,
            },
            adaptation={
                "round_interval_s": 15.0,
                "clients_per_round": 14,
                "min_observations": 12,
                "min_threshold": 0.55,
                "weighted": True,
            },
        ),
        ScenarioSpec(
            name="diurnal_cycle",
            family="arrival",
            description="Sinusoidal load cycle layered on Poisson arrivals",
            n_users=10,
            queries_per_user=30,
            params={"kind": "diurnal", "period_s": 120.0, "amplitude": 0.8},
        ),
        ScenarioSpec(
            name="flash_crowd",
            family="arrival",
            description="10x arrival-rate spike compressing a burst window",
            n_users=10,
            queries_per_user=30,
            params={
                "kind": "flash_crowd",
                "flash_at_s": 30.0,
                "flash_duration_s": 30.0,
                "flash_multiplier": 10.0,
            },
        ),
        ScenarioSpec(
            name="mixed_domain_cohorts",
            family="mixed_domain",
            description=(
                "Disjoint-vocabulary cohorts (multilingual stand-in) served "
                "by one fleet simultaneously"
            ),
            n_users=6,
            queries_per_user=30,
            params={
                "cohorts": [
                    {"name": "west", "domains": ["programming", "science", "devices", "finance"]},
                    {"name": "east", "domains": ["cooking", "travel", "gardening", "fitness"]},
                ]
            },
        ),
        ScenarioSpec(
            name="multi_tenant_isolation",
            family="multi_tenant",
            description=(
                "One noisy tenant floods unique traffic through a shared "
                "cache provisioned for the working set"
            ),
            shared_cache=True,
            params={
                "n_quiet_users": 8,
                "queries_per_quiet_user": 30,
                "n_noisy_users": 2,
                "queries_per_noisy_user": 120,
                "noisy_rate_multiplier": 5.0,
            },
        ),
        ScenarioSpec(
            name="multi_tenant_stressed",
            family="multi_tenant",
            description=(
                "Same noisy neighbour, but the shared cache is capacity-"
                "starved so eviction pressure is real"
            ),
            shared_cache=True,
            max_entries=64,
            params={
                "n_quiet_users": 8,
                "queries_per_quiet_user": 30,
                "n_noisy_users": 2,
                "queries_per_noisy_user": 120,
                "noisy_rate_multiplier": 5.0,
            },
        ),
        ScenarioSpec(
            name="external_trace_replay",
            family="replay",
            description=(
                "Foreign request logs imported via trace_from_logs replay "
                "deterministically and match the direct run"
            ),
            n_users=8,
            queries_per_user=25,
            workload={"duplicate_rate": 0.4},
        ),
    ]


for _spec in default_scenario_specs():
    register_scenario(_spec, replace=True)
