"""Fleet-scale serving benchmarks: throughput scaling and online adaptation.

Two benchmarks live here, both recorded in ``BENCH_fleet.json`` by
``benchmarks/test_bench_fleet.py`` so later scaling PRs can track the
trajectory:

* :func:`run_fleet_bench` — lookup throughput at 100 / 1,000 users:
  a deterministic multi-user trace
  (:class:`~repro.serving.workload.WorkloadGenerator`) replayed through
  :class:`~repro.serving.fleet.FleetSimulator` — one local MeanCache per
  user, all sharing one frozen encoder and one simulated LLM service — with
  wall-clock fleet throughput (lookups/s) plus hit-rate, latency and cost
  aggregates.
* :func:`run_drift_adaptation_bench` — adaptive vs static τ on drifting
  traffic: the same fleet twice over one non-stationary trace (paraphrase
  style collapse + domain-mix drift + duplicate-rate shift + user churn),
  once with the cold-start default τ pinned and once with the online
  federated loop (:class:`~repro.federated.online.OnlineThresholdAdapter`)
  re-learning per-user thresholds live.  Reported per fleet: raw hit rate,
  verified true-hit rate, false-hit rate, lookups/s — the adaptive fleet
  must serve strictly more correct cached answers at a strictly lower
  false-hit rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings.model import SiameseEncoder
from repro.embeddings.zoo import load_encoder
from repro.federated.online import OnlineAdaptationConfig, OnlineThresholdAdapter
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.metrics.reporting import format_table
from repro.metrics.timing import LatencyHistogram
from repro.serving.fleet import FleetConfig, FleetResult, FleetSimulator
from repro.serving.workload import DriftPhase, WorkloadConfig, WorkloadGenerator


@dataclass
class FleetBenchPoint:
    """One fleet size's measurements."""

    n_users: int
    n_lookups: int
    wall_clock_s: float
    throughput_lookups_per_s: float
    hit_rate: float
    mean_latency_s: float
    total_cost_usd: float
    virtual_duration_s: float
    # Wall-clock cache overhead per lookup (encode + index search + policy),
    # summarized with the same nearest-rank histogram the index latency
    # bench uses — the tail is what a served query actually waits on.
    overhead_p50_ms: float = 0.0
    overhead_p95_ms: float = 0.0
    overhead_p99_ms: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "n_users": self.n_users,
            "n_lookups": self.n_lookups,
            "wall_clock_s": self.wall_clock_s,
            "throughput_lookups_per_s": self.throughput_lookups_per_s,
            "hit_rate": self.hit_rate,
            "mean_latency_s": self.mean_latency_s,
            "total_cost_usd": self.total_cost_usd,
            "virtual_duration_s": self.virtual_duration_s,
            "overhead_p50_ms": self.overhead_p50_ms,
            "overhead_p95_ms": self.overhead_p95_ms,
            "overhead_p99_ms": self.overhead_p99_ms,
        }

    @classmethod
    def from_result(cls, result: FleetResult) -> "FleetBenchPoint":
        """Extract the benchmark quantities from a simulation result.

        When the result retains per-event outcomes (``collect_outcomes``),
        the measured per-lookup cache overheads are folded into a
        :class:`~repro.metrics.timing.LatencyHistogram` for the percentile
        fields; without outcomes those fields stay 0.
        """
        hist = LatencyHistogram()
        for outcome in result.outcomes:
            hist.record(int(outcome.cache_overhead_s * 1e9))
        return cls(
            n_users=result.n_users,
            n_lookups=result.lookups,
            wall_clock_s=result.wall_clock_s,
            throughput_lookups_per_s=result.throughput_lookups_per_s,
            hit_rate=result.hit_rate,
            mean_latency_s=result.mean_latency_s,
            total_cost_usd=result.total_cost_usd,
            virtual_duration_s=result.virtual_duration_s,
            overhead_p50_ms=hist.p50 / 1e6,
            overhead_p95_ms=hist.p95 / 1e6,
            overhead_p99_ms=hist.p99 / 1e6,
        )


@dataclass
class FleetBenchResult:
    """All fleet sizes' measurements plus the run configuration."""

    points: List[FleetBenchPoint] = field(default_factory=list)
    encoder_name: str = "albert-sim"
    queries_per_user: int = 10
    duplicate_rate: float = 0.3
    similarity_threshold: float = 0.7
    batch_window_s: float = 0.25
    index_backend: str = "flat"
    index_params: Optional[Dict[str, object]] = None
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``BENCH_fleet.json`` payload)."""
        return {
            "encoder_name": self.encoder_name,
            "queries_per_user": self.queries_per_user,
            "duplicate_rate": self.duplicate_rate,
            "similarity_threshold": self.similarity_threshold,
            "batch_window_s": self.batch_window_s,
            "index_backend": self.index_backend,
            "index_params": dict(self.index_params or {}),
            "seed": self.seed,
            "points": [p.to_dict() for p in self.points],
        }

    def point(self, n_users: int) -> FleetBenchPoint:
        """The measurements for one fleet size."""
        for p in self.points:
            if p.n_users == n_users:
                return p
        raise KeyError(f"no benchmark point for {n_users} users")

    def format(self) -> str:
        """Render the throughput table."""
        rows = [
            [
                p.n_users,
                p.n_lookups,
                p.wall_clock_s,
                p.throughput_lookups_per_s,
                p.hit_rate,
                p.mean_latency_s * 1000.0,
                f"{p.overhead_p99_ms:.2f}",
                p.total_cost_usd,
            ]
            for p in self.points
        ]
        return format_table(
            [
                "Users",
                "Lookups",
                "Wall clock (s)",
                "Lookups/s",
                "Hit rate",
                "Mean latency (ms)",
                "Overhead p99 (ms)",
                "LLM cost ($)",
            ],
            rows,
            title=(
                "Fleet serving benchmark: per-user MeanCache fleet vs one shared "
                f"LLM service ({self.encoder_name}, τ={self.similarity_threshold})"
            ),
        )


def run_fleet_bench(
    user_counts: Sequence[int] = (100, 1000),
    queries_per_user: int = 10,
    duplicate_rate: float = 0.3,
    similarity_threshold: float = 0.7,
    batch_window_s: float = 0.25,
    encoder: Optional[SiameseEncoder] = None,
    encoder_name: str = "albert-sim",
    index_backend: str = "flat",
    index_params: Optional[Dict[str, object]] = None,
    seed: int = 0,
) -> FleetBenchResult:
    """Measure fleet lookup throughput at each fleet size.

    One frozen encoder instance is shared by every user's cache (encoding is
    stateless), matching a deployment where all devices run the same
    distributed model snapshot.  ``index_backend``/``index_params`` select
    each cache's vector-index backend (any :func:`repro.index.make_index`
    name), so the same trace can be replayed over flat/IVF/quantized
    fleets.

    Every RNG in the run derives from ``seed``: the workload generator, the
    simulated LLM service, and — unless ``index_params`` pins one — each
    cache index's internal seed, so BENCH_fleet.json deltas are
    attributable to code changes rather than run-to-run noise.
    """
    from repro.index.registry import seeded_params

    encoder = encoder or load_encoder(encoder_name)
    # Thread the benchmark seed into the backend when its constructor takes
    # one (flat does not; all randomized backends do).
    resolved_params = seeded_params(index_backend, index_params or {}, seed)
    result = FleetBenchResult(
        encoder_name=encoder_name,
        queries_per_user=queries_per_user,
        duplicate_rate=duplicate_rate,
        similarity_threshold=similarity_threshold,
        batch_window_s=batch_window_s,
        index_backend=index_backend,
        index_params=dict(resolved_params),
        seed=seed,
    )
    cache_config = MeanCacheConfig(
        similarity_threshold=similarity_threshold,
        index_backend=index_backend,
        index_params=dict(resolved_params),
    )
    for n_users in user_counts:
        trace = WorkloadGenerator(
            WorkloadConfig(
                n_users=n_users,
                queries_per_user=queries_per_user,
                duplicate_rate=duplicate_rate,
            ),
            seed=seed,
        ).generate()
        simulator = FleetSimulator(
            cache_factory=lambda user_id: MeanCache(encoder, cache_config),
            service=SimulatedLLMService(LLMServiceConfig(seed=seed)),
            config=FleetConfig(batch_window_s=batch_window_s),
        )
        result.points.append(
            FleetBenchPoint.from_result(simulator.run(trace, collect_outcomes=True))
        )
    return result


# --------------------------------------------------------------------------- #
# Adaptive vs static τ on drifting traffic
# --------------------------------------------------------------------------- #
@dataclass
class AdaptiveFleetPoint:
    """One fleet's measurements over the drifting trace."""

    label: str  # "static" | "adaptive"
    n_lookups: int
    hit_rate: float
    true_hit_rate: float
    false_hit_rate: float
    throughput_lookups_per_s: float
    total_cost_usd: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return asdict(self)

    @classmethod
    def from_result(cls, label: str, result: FleetResult) -> "AdaptiveFleetPoint":
        """Extract the comparison quantities from a simulation result."""
        return cls(
            label=label,
            n_lookups=result.lookups,
            hit_rate=result.hit_rate,
            true_hit_rate=result.true_hit_rate,
            false_hit_rate=result.false_hit_rate,
            throughput_lookups_per_s=result.throughput_lookups_per_s,
            total_cost_usd=result.total_cost_usd,
        )


@dataclass
class DriftAdaptationResult:
    """Static-τ vs adaptive-τ comparison on one drifting trace."""

    static: AdaptiveFleetPoint
    adaptive: AdaptiveFleetPoint
    static_threshold: float
    final_global_threshold: float
    n_rounds: int
    threshold_trajectory: List[float]
    workload: Dict[str, object] = field(default_factory=dict)
    adaptation: Dict[str, object] = field(default_factory=dict)
    encoder_name: str = "albert-sim"
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``BENCH_fleet.json``'s
        ``adaptive_vs_static`` section)."""
        return {
            "encoder_name": self.encoder_name,
            "seed": self.seed,
            "static_threshold": self.static_threshold,
            "final_global_threshold": self.final_global_threshold,
            "n_rounds": self.n_rounds,
            "threshold_trajectory": list(self.threshold_trajectory),
            "workload": dict(self.workload),
            "adaptation": dict(self.adaptation),
            "static": self.static.to_dict(),
            "adaptive": self.adaptive.to_dict(),
        }

    def format(self) -> str:
        """Render the comparison table."""
        rows = [
            [
                p.label,
                p.n_lookups,
                p.hit_rate,
                p.true_hit_rate,
                p.false_hit_rate,
                p.throughput_lookups_per_s,
                p.total_cost_usd,
            ]
            for p in (self.static, self.adaptive)
        ]
        return format_table(
            [
                "Fleet",
                "Lookups",
                "Hit rate",
                "True-hit rate",
                "False-hit rate",
                "Lookups/s",
                "LLM cost ($)",
            ],
            rows,
            title=(
                "Online federated τ adaptation vs static τ on drifting traffic "
                f"(static τ={self.static_threshold}, final global "
                f"τ={self.final_global_threshold:.3f} after {self.n_rounds} rounds)"
            ),
        )


def drifting_workload_config(
    n_users: int = 30,
    queries_per_user: int = 150,
) -> WorkloadConfig:
    """The benchmark's non-stationary scenario (all four drift mechanisms).

    Phase 1 (first half): specialised users (``domain_concentration=0.1``)
    re-asking strong paraphrases (``paraphrase_bias=0.9`` — re-asks share
    the distinctive noun phrase), a hard-negative-dense regime where the
    cold-start τ=0.7 admits many false hits.  Phase 2 (second half):
    paraphrase style collapses (``paraphrase_bias=0.05``), every user's
    domain mix re-draws broad (``domain_concentration=5.0``), the duplicate
    rate jumps to 0.65, and 10% of users churn into cold-start successors —
    the whole similarity distribution shifts down, so the static τ strands
    the re-ask traffic it was supposed to convert.
    """
    return WorkloadConfig(
        n_users=n_users,
        queries_per_user=queries_per_user,
        duplicate_rate=0.35,
        domain_concentration=0.1,
        paraphrase_bias=0.9,
        followup_rate=0.15,
        drift_phases=(
            DriftPhase(
                start_fraction=0.5,
                duplicate_rate=0.65,
                redraw_domain_mix=True,
                domain_concentration=5.0,
                paraphrase_bias=0.05,
            ),
        ),
        churn_fraction=0.1,
        churn_point=0.5,
    )


def run_drift_adaptation_bench(
    n_users: int = 30,
    queries_per_user: int = 150,
    static_threshold: float = 0.7,
    encoder: Optional[SiameseEncoder] = None,
    encoder_name: str = "albert-sim",
    adaptation_config: Optional[OnlineAdaptationConfig] = None,
    seed: int = 0,
) -> DriftAdaptationResult:
    """Replay one drifting trace through a static-τ and an adaptive-τ fleet.

    Both fleets are identical per-user MeanCache deployments on one frozen
    encoder; the only difference is the adaptive fleet's
    :class:`OnlineThresholdAdapter` mining labelled pairs from its own
    traffic and re-learning per-user thresholds on the virtual clock.  The
    static fleet pins the cold-start default τ for the whole run.

    The headline comparison is *served answer quality*: the adaptive fleet
    must deliver a higher verified true-hit rate at a lower false-hit rate
    (raw admission rate — which counts wrongly served answers as wins — is
    reported alongside and stays within noise of the static fleet).
    """
    encoder = encoder or load_encoder(encoder_name)
    workload_config = drifting_workload_config(n_users, queries_per_user)
    trace = WorkloadGenerator(workload_config, seed=seed).generate()
    adaptation_config = adaptation_config or OnlineAdaptationConfig(
        round_interval_s=10.0,
        clients_per_round=n_users,
        min_observations=16,
        max_observations=256,
        observation_ttl_s=120.0,
        beta=1.25,
        personalization=0.5,
        initial_threshold=static_threshold,
        seed=seed,
    )

    def run_fleet(adaptation: Optional[OnlineThresholdAdapter]) -> FleetResult:
        simulator = FleetSimulator(
            cache_factory=lambda user_id: MeanCache(
                encoder, MeanCacheConfig(similarity_threshold=static_threshold)
            ),
            service=SimulatedLLMService(LLMServiceConfig(seed=seed)),
            config=FleetConfig(),
            adaptation=adaptation,
        )
        return simulator.run(trace)

    static_result = run_fleet(None)
    adapter = OnlineThresholdAdapter(adaptation_config)
    adaptive_result = run_fleet(adapter)

    trajectory = adapter.threshold_trajectory()
    return DriftAdaptationResult(
        static=AdaptiveFleetPoint.from_result("static", static_result),
        adaptive=AdaptiveFleetPoint.from_result("adaptive", adaptive_result),
        static_threshold=static_threshold,
        final_global_threshold=adapter.global_threshold,
        n_rounds=len(adapter.history),
        threshold_trajectory=[float(t) for t in trajectory.get("threshold", [])],
        workload={
            "n_users": n_users,
            "queries_per_user": queries_per_user,
            "n_events": len(trace),
            "duplicate_fraction": trace.duplicate_fraction,
            "metadata": dict(trace.metadata),
        },
        adaptation=asdict(adaptation_config),
        encoder_name=encoder_name,
        seed=seed,
    )
