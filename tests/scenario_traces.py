"""Scenario zoo: adversarial / heterogeneous trace construction for the checks.

The serving stack is checked on more than one workload shape — Poisson
arrivals over Dirichlet domain mixes with a couple of drift phases.  This
test-support module goes wide, the way the paper's deployment framing
(millions of heterogeneous devices, adversarially mixed traffic) demands.
Everything here is **trace construction**: pure, seeded transforms of
:class:`~repro.serving.workload.Trace` streams, with no encoder or cache
dependency, so every scenario replays through any fleet configuration.
Each family's check — one replay through ``CacheServer.replay`` and the
family's floor — is a test in ``tests/test_scenarios.py``.  A serving
process never runs any of it, so it lives beside the tests, which import it
as ``scenario_traces``.

Scenario families
-----------------
* **poisoning** — :func:`inject_poisoning`: an attacker enrols misleading
  near-duplicates (hard-negative intents realized with high lexical
  overlap) into a shared cache moments before victims first ask the real
  thing, converting their first asks into false hits.
* **flooding** — :func:`build_flooding_trace`: adversarial devices flood
  weak-paraphrase re-asks whose similarities land in the near-threshold
  band the online τ adapter mines, trying to drag the federated threshold
  down for everyone.
* **arrival** — :class:`ArrivalSchedule` and :func:`apply_arrival_schedule`:
  diurnal cycles and flash crowds layered on a generated trace as a pure
  time-warp of its arrival times.
* **mixed_domain** — :func:`build_cohort_trace`: cohorts of users drawing
  from disjoint domain-restricted corpora (the synthetic stand-in for
  multilingual / mixed-domain fleets), merged into one stream.
* **multi_tenant** — :func:`build_multi_tenant_trace`: quiet tenants plus
  one noisy tenant flooding unique traffic through a shared cache; the
  isolation floor bounds how much the noisy tenant may cost a quiet one.
* **replay** — :func:`trace_from_logs`: external request logs (foreign
  field names, unordered) imported into a replayable :class:`Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.datasets.corpus import Corpus
from repro.serving.workload import (
    Trace,
    WorkloadConfig,
    WorkloadEvent,
    WorkloadGenerator,
)

__all__ = [
    "ArrivalSchedule",
    "apply_arrival_schedule",
    "relabel_users",
    "merge_traces",
    "PoisoningConfig",
    "PoisoningInfo",
    "inject_poisoning",
    "FloodingConfig",
    "build_flooding_trace",
    "CohortSpec",
    "build_cohort_trace",
    "MultiTenantConfig",
    "build_multi_tenant_trace",
    "trace_from_logs",
    "trace_to_logs",
]


# --------------------------------------------------------------------------- #
# Trace surgery helpers
# --------------------------------------------------------------------------- #
def relabel_users(trace: Trace, prefix: str) -> Trace:
    """Prefix every user id in ``trace`` (cohort / tenant namespacing).

    Merged scenario streams combine traces from independently seeded
    generators whose user ids would otherwise collide; prefixing keeps
    every cohort's devices distinct and lets per-cohort metrics be
    recovered from the id alone.
    """
    events = [
        WorkloadEvent(
            time_s=e.time_s,
            user_id=f"{prefix}{e.user_id}",
            query=e.query,
            context=e.context,
            is_followup=e.is_followup,
            kind=e.kind,
            intent_key=e.intent_key,
        )
        for e in trace.events
    ]
    return Trace(
        events=events,
        n_users=trace.n_users,
        seed=trace.seed,
        metadata={**trace.metadata, "user_prefix": prefix},
    )


def merge_traces(*traces: Trace) -> Trace:
    """Merge several traces into one time-ordered fleet stream.

    User ids must already be distinct across the inputs (use
    :func:`relabel_users`); a collision would silently fuse two users'
    histories, so it is rejected loudly.
    """
    seen: Set[str] = set()
    for trace in traces:
        ids = set(trace.user_ids)
        overlap = seen & ids
        if overlap:
            raise ValueError(
                f"user ids collide across merged traces: {sorted(overlap)[:5]}"
            )
        seen |= ids
    events = [e for trace in traces for e in trace.events]
    events.sort(key=lambda e: (e.time_s, e.user_id))
    return Trace(
        events=events,
        n_users=len(seen),
        seed=traces[0].seed if traces else 0,
        metadata={"merged": [dict(t.metadata) for t in traces]},
    )


# --------------------------------------------------------------------------- #
# Arrival schedules (diurnal cycles, flash crowds)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ArrivalSchedule:
    """Deterministic rate profile layered on the Poisson arrival process.

    The stationary generator draws each user's arrivals as a *homogeneous*
    Poisson process.  A schedule reshapes those arrival times into an
    inhomogeneous process — diurnal load cycles, flash crowds — through the
    time-rescaling identity: a homogeneous arrival at virtual time ``u``
    lands at the warped time ``t`` solving ``∫₀ᵗ m(s) ds = u``, where
    ``m(t)`` is the schedule's rate multiplier.  Where ``m`` is large
    (peak hours, a flash crowd) arrivals compress together; where it is
    small they spread out.

    The warp is a pure, monotone transform of *already-drawn* times: it
    consumes no RNG draws and never touches event contents, so layering,
    changing or removing a schedule cannot perturb the per-user seeded
    query stream.

    Attributes
    ----------
    kind:
        ``"constant"`` (identity), ``"diurnal"`` (sinusoidal load cycle) or
        ``"flash_crowd"`` (a rate spike over one interval).
    period_s:
        Diurnal cycle length in virtual seconds.
    amplitude:
        Diurnal multiplier swing: ``m(t) = 1 + amplitude·sin(2πt/period)``,
        so the rate oscillates in ``[1-amplitude, 1+amplitude]``; must stay
        below 1.0 to keep the intensity positive.
    flash_at_s, flash_duration_s, flash_multiplier:
        Flash-crowd window: between ``flash_at_s`` and
        ``flash_at_s + flash_duration_s`` the arrival rate is multiplied by
        ``flash_multiplier`` (≥ 1), compressing that interval's arrivals
        into a burst.
    """

    kind: str = "constant"
    period_s: float = 600.0
    amplitude: float = 0.6
    flash_at_s: float = 120.0
    flash_duration_s: float = 60.0
    flash_multiplier: float = 8.0

    #: grid points used for the numeric inversion of the cumulative rate
    _GRID_POINTS = 8193

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "diurnal", "flash_crowd"):
            raise ValueError(f"unknown arrival schedule kind: {self.kind!r}")
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.flash_at_s < 0:
            raise ValueError("flash_at_s must be >= 0")
        if self.flash_duration_s <= 0:
            raise ValueError("flash_duration_s must be > 0")
        if self.flash_multiplier < 1.0:
            raise ValueError("flash_multiplier must be >= 1")

    def rate_multiplier(self, times_s: "np.ndarray | float") -> np.ndarray:
        """The instantaneous rate multiplier ``m(t)`` (vectorized)."""
        t = np.asarray(times_s, dtype=np.float64)
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_s)
        if self.kind == "flash_crowd":
            in_flash = (t >= self.flash_at_s) & (
                t < self.flash_at_s + self.flash_duration_s
            )
            return np.where(in_flash, self.flash_multiplier, 1.0)
        return np.ones_like(t)

    def warp(self, times_s: Sequence[float]) -> np.ndarray:
        """Map homogeneous arrival times onto the schedule's clock.

        Solves ``Λ(t) = u`` for each input time ``u`` on a dense grid
        (``Λ`` is the cumulative rate multiplier), preserving order — the
        warp is strictly monotone because ``m(t) > 0`` everywhere.
        """
        times = np.asarray(times_s, dtype=np.float64)
        if self.kind == "constant" or times.size == 0:
            return times.copy()
        floor = 1.0 - self.amplitude if self.kind == "diurnal" else 1.0
        horizon = float(times.max()) / floor * 1.001 + 1.0
        grid = np.linspace(0.0, horizon, self._GRID_POINTS)
        m = self.rate_multiplier(grid)
        steps = np.diff(grid)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * steps)]
        )
        return np.interp(times, cumulative, grid)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (stored in trace metadata)."""
        return {
            "kind": self.kind,
            "period_s": self.period_s,
            "amplitude": self.amplitude,
            "flash_at_s": self.flash_at_s,
            "flash_duration_s": self.flash_duration_s,
            "flash_multiplier": self.flash_multiplier,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArrivalSchedule":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(data.get("kind", "constant")),
            period_s=float(data.get("period_s", 600.0)),
            amplitude=float(data.get("amplitude", 0.6)),
            flash_at_s=float(data.get("flash_at_s", 120.0)),
            flash_duration_s=float(data.get("flash_duration_s", 60.0)),
            flash_multiplier=float(data.get("flash_multiplier", 8.0)),
        )


def apply_arrival_schedule(trace: "Trace", schedule: ArrivalSchedule) -> "Trace":
    """Re-time an existing trace under an arrival schedule.

    Returns a new :class:`Trace` whose events carry warped arrival times
    (contents untouched), re-sorted into the fleet's global time order; the
    schedule is recorded in the trace metadata.  The warp is a pure
    function of time, so the arrival check compares one stream with and
    without its schedule.
    """
    times = schedule.warp([e.time_s for e in trace.events])
    events = [
        replace(event, time_s=float(t)) for event, t in zip(trace.events, times)
    ]
    events.sort(key=lambda e: (e.time_s, e.user_id))
    return Trace(
        events=events,
        n_users=trace.n_users,
        seed=trace.seed,
        metadata={**trace.metadata, "arrival_schedule": schedule.to_dict()},
    )


# --------------------------------------------------------------------------- #
# Adversarial cache poisoning
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PoisoningConfig:
    """Knobs of the cache-poisoning adversary.

    Attributes
    ----------
    target_fraction:
        Fraction of the victims' first-ask (``kind="unique"``) events the
        attacker front-runs with a poisoned near-duplicate.
    lead_s:
        Virtual seconds the poison lands *before* its target event.  Must
        exceed the fleet's batch window, or the poison's enrolment is not
        yet visible when the victim asks.
    object_bias:
        Canonical-object bias used to realize poison queries; near 1.0 the
        poison shares the victim intent's distinctive noun phrase, which is
        what makes it a *misleading* near-duplicate.
    attacker_prefix:
        User-id prefix of the attacker devices (one attacker per shard of
        ``attacker_shards`` so its traffic looks like ordinary users).
    attacker_shards:
        Number of attacker identities the poison stream is spread over.
    """

    target_fraction: float = 0.5
    lead_s: float = 5.0
    object_bias: float = 0.95
    attacker_prefix: str = "attacker-"
    attacker_shards: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        if self.lead_s <= 0:
            raise ValueError("lead_s must be > 0")
        if not 0.0 <= self.object_bias <= 1.0:
            raise ValueError("object_bias must be in [0, 1]")
        if self.attacker_shards < 1:
            raise ValueError("attacker_shards must be >= 1")


@dataclass
class PoisoningInfo:
    """What the adversary actually injected (for attack accounting)."""

    n_targets: int
    poison_queries: Set[str] = field(default_factory=set)
    attacker_ids: Set[str] = field(default_factory=set)


def inject_poisoning(
    trace: Trace, corpus: Corpus, config: Optional[PoisoningConfig] = None, seed: int = 0
) -> Tuple[Trace, PoisoningInfo]:
    """Inject an adversarial poisoning stream into ``trace``.

    For a seeded sample of the victims' first asks, the attacker issues a
    *hard-negative* intent (same domain, sharing the action or the object)
    realized with strong lexical overlap, ``lead_s`` seconds earlier.  On a
    shared cache the attacker's miss enrols the misleading entry, and the
    victim's later probe can clear τ against it — a false hit serving the
    wrong answer.  Per-device caches are structurally immune (the poison
    lands in the attacker's own cache), which is itself a scenario finding.

    The victims' own events are byte-identical to the input trace, so the
    no-attack baseline is simply the unpoisoned ``trace``.
    """
    config = config or PoisoningConfig()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9157]))
    intent_of = {intent.key: intent for intent in corpus.intents}
    first_asks = [
        e
        for e in trace.events
        if e.kind == "unique" and not e.is_followup and e.intent_key in intent_of
    ]
    n_targets = max(1, int(round(config.target_fraction * len(first_asks))))
    n_targets = min(n_targets, len(first_asks))
    target_idx = rng.choice(len(first_asks), size=n_targets, replace=False)
    info = PoisoningInfo(n_targets=n_targets)
    poison_events: List[WorkloadEvent] = []
    for i in sorted(int(j) for j in target_idx):
        target = first_asks[i]
        intent = intent_of[target.intent_key]
        poison_intent = corpus.hard_negative(intent, rng)
        query = corpus.realize(poison_intent, rng=rng, object_bias=config.object_bias)
        attacker = (
            f"{config.attacker_prefix}"
            f"{int(rng.integers(config.attacker_shards)):05d}"
        )
        poison_events.append(
            WorkloadEvent(
                time_s=max(0.0, target.time_s - config.lead_s),
                user_id=attacker,
                query=query,
                kind="unique",
                intent_key=poison_intent.key,
            )
        )
        info.poison_queries.add(query)
        info.attacker_ids.add(attacker)
    events = list(trace.events) + poison_events
    events.sort(key=lambda e: (e.time_s, e.user_id))
    poisoned = Trace(
        events=events,
        n_users=trace.n_users + len(info.attacker_ids),
        seed=trace.seed,
        metadata={
            **trace.metadata,
            "poisoning": {
                "n_targets": n_targets,
                "n_attackers": len(info.attacker_ids),
                "lead_s": config.lead_s,
                "object_bias": config.object_bias,
            },
        },
    )
    return poisoned, info


# --------------------------------------------------------------------------- #
# Near-miss flooding (τ-adapter gaming)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FloodingConfig:
    """Knobs of the near-miss flooding adversary.

    Flooder devices re-ask their own history almost every query as *weak*
    paraphrases (``paraphrase_bias`` near 0): the resulting similarities
    land just under τ, exactly the near-threshold band the online adapter
    mines, and every mined pair is a low-similarity positive — evidence
    that τ should drop.  Aggregation then drags the *global* threshold
    toward the flooders' optimum unless the adapter's configured floor
    (``OnlineAdaptationConfig.min_threshold``) clamps it.
    """

    n_flooders: int = 4
    queries_per_flooder: int = 120
    duplicate_rate: float = 0.95
    paraphrase_bias: float = 0.0
    arrival_rate_qps: float = 1.0
    prefix: str = "flood-"

    def __post_init__(self) -> None:
        if self.n_flooders < 1:
            raise ValueError("n_flooders must be >= 1")
        if self.queries_per_flooder < 1:
            raise ValueError("queries_per_flooder must be >= 1")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if not 0.0 <= self.paraphrase_bias <= 1.0:
            raise ValueError("paraphrase_bias must be in [0, 1]")
        if self.arrival_rate_qps <= 0:
            raise ValueError("arrival_rate_qps must be > 0")


def build_flooding_trace(
    honest_config: WorkloadConfig,
    flooding: Optional[FloodingConfig] = None,
    corpus: Optional[Corpus] = None,
    seed: int = 0,
) -> Tuple[Trace, List[str], List[str]]:
    """Merge an honest fleet's trace with an adversarial flooder cohort.

    Returns ``(trace, honest_ids, flooder_ids)``.  The honest stream is
    exactly ``WorkloadGenerator(honest_config, seed)``'s, so the no-attack
    baseline replays the same honest traffic; flooders are generated from
    an offset seed and namespaced under ``flooding.prefix``.
    """
    flooding = flooding or FloodingConfig()
    honest = WorkloadGenerator(honest_config, corpus=corpus, seed=seed).generate()
    flood_config = WorkloadConfig(
        n_users=flooding.n_flooders,
        queries_per_user=flooding.queries_per_flooder,
        arrival_rate_qps=flooding.arrival_rate_qps,
        duplicate_rate=flooding.duplicate_rate,
        followup_rate=0.0,
        paraphrase_bias=flooding.paraphrase_bias,
    )
    flood = relabel_users(
        WorkloadGenerator(flood_config, corpus=corpus, seed=seed + 7919).generate(),
        flooding.prefix,
    )
    merged = merge_traces(honest, flood)
    return merged, honest.user_ids, flood.user_ids


# --------------------------------------------------------------------------- #
# Mixed-domain / multilingual-style cohorts
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CohortSpec:
    """One user cohort drawing from a domain-restricted corpus.

    Disjoint domain vocabularies are the synthetic stand-in for
    multilingual / mixed-domain fleets: cohorts share no surface forms, so
    cross-cohort retrievals are pure noise while in-cohort duplicates stay
    cacheable — the regime a heterogeneous deployment must serve well
    simultaneously.
    """

    name: str
    domains: Tuple[str, ...]
    n_users: int = 5
    queries_per_user: int = 30
    duplicate_rate: float = 0.35
    followup_rate: float = 0.2
    domain_concentration: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.name:
            raise ValueError("cohort name must be non-empty")
        if not self.domains:
            raise ValueError("cohort needs at least one domain")
        if self.n_users < 1 or self.queries_per_user < 1:
            raise ValueError("n_users and queries_per_user must be >= 1")


def build_cohort_trace(
    cohorts: Sequence[CohortSpec], seed: int = 0
) -> Tuple[Trace, Dict[str, List[str]]]:
    """Merge per-cohort traces (each from its own restricted corpus).

    Returns ``(trace, {cohort_name: user_ids})``.  Each cohort gets an
    independently seeded generator over ``Corpus(domains=cohort.domains)``
    and a ``<name>-`` user-id prefix.
    """
    if not cohorts:
        raise ValueError("need at least one cohort")
    names = [c.name for c in cohorts]
    if len(set(names)) != len(names):
        raise ValueError("cohort names must be distinct")
    traces: List[Trace] = []
    members: Dict[str, List[str]] = {}
    for offset, cohort in enumerate(cohorts):
        corpus = Corpus(seed=seed, domains=list(cohort.domains))
        config = WorkloadConfig(
            n_users=cohort.n_users,
            queries_per_user=cohort.queries_per_user,
            duplicate_rate=cohort.duplicate_rate,
            followup_rate=cohort.followup_rate,
            domain_concentration=cohort.domain_concentration,
        )
        trace = relabel_users(
            WorkloadGenerator(config, corpus=corpus, seed=seed + 101 * (offset + 1)).generate(),
            f"{cohort.name}-",
        )
        traces.append(trace)
        members[cohort.name] = trace.user_ids
    return merge_traces(*traces), members


# --------------------------------------------------------------------------- #
# Multi-tenant isolation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MultiTenantConfig:
    """Quiet tenants sharing a cache with one noisy tenant.

    The noisy tenant floods all-unique traffic (nothing it asks is ever
    re-asked, so none of it is cacheable) at a multiple of the quiet
    arrival rate — the classic noisy-neighbour pattern.  Isolation holds
    when a quiet tenant's hit rate and verified (true) hit rate in the
    mixed deployment stay within a small ε of its rates running alone on
    the same seed.
    """

    n_quiet_users: int = 8
    queries_per_quiet_user: int = 30
    quiet_duplicate_rate: float = 0.4
    n_noisy_users: int = 2
    queries_per_noisy_user: int = 120
    noisy_rate_multiplier: float = 5.0
    quiet_prefix: str = "quiet-"
    noisy_prefix: str = "noisy-"

    def __post_init__(self) -> None:
        if self.n_quiet_users < 1 or self.n_noisy_users < 1:
            raise ValueError("tenant sizes must be >= 1")
        if self.queries_per_quiet_user < 1 or self.queries_per_noisy_user < 1:
            raise ValueError("queries per user must be >= 1")
        if self.noisy_rate_multiplier <= 0:
            raise ValueError("noisy_rate_multiplier must be > 0")


def build_multi_tenant_trace(
    config: Optional[MultiTenantConfig] = None,
    base_rate_qps: float = 0.2,
    corpus: Optional[Corpus] = None,
    seed: int = 0,
) -> Tuple[Trace, Trace, List[str], List[str]]:
    """Build the mixed-tenancy stream plus the quiet tenant's solo stream.

    Returns ``(mixed, quiet_alone, quiet_ids, noisy_ids)``.  The quiet
    tenant's events are byte-identical in both traces (same generator,
    same seed), so any hit-rate difference is attributable to the noisy
    tenant's presence — the quantity the isolation floor bounds.
    """
    config = config or MultiTenantConfig()
    quiet_config = WorkloadConfig(
        n_users=config.n_quiet_users,
        queries_per_user=config.queries_per_quiet_user,
        arrival_rate_qps=base_rate_qps,
        duplicate_rate=config.quiet_duplicate_rate,
    )
    quiet = relabel_users(
        WorkloadGenerator(quiet_config, corpus=corpus, seed=seed).generate(),
        config.quiet_prefix,
    )
    noisy_config = WorkloadConfig(
        n_users=config.n_noisy_users,
        queries_per_user=config.queries_per_noisy_user,
        arrival_rate_qps=base_rate_qps * config.noisy_rate_multiplier,
        duplicate_rate=0.0,
        followup_rate=0.0,
    )
    noisy = relabel_users(
        WorkloadGenerator(noisy_config, corpus=corpus, seed=seed + 4243).generate(),
        config.noisy_prefix,
    )
    mixed = merge_traces(quiet, noisy)
    return mixed, quiet, quiet.user_ids, noisy.user_ids


# --------------------------------------------------------------------------- #
# External trace import (log replay)
# --------------------------------------------------------------------------- #
def trace_from_logs(
    records: Iterable[Mapping[str, object]],
    *,
    time_key: str = "timestamp",
    user_key: str = "user",
    query_key: str = "prompt",
    context_key: Optional[str] = "context",
    intent_key: Optional[str] = "intent",
    normalize_time: bool = True,
) -> Trace:
    """Import external request logs into a replayable :class:`Trace`.

    ``records`` is any iterable of mappings — parsed JSON lines, CSV rows —
    with arbitrary field names declared through the ``*_key`` arguments.
    Records are sorted into arrival order; with ``normalize_time`` the
    earliest arrival becomes t=0 so foreign epochs replay on the fleet's
    virtual clock.  Missing optional fields degrade gracefully: no context
    means no conversation chain, no intent key means hits on that entry are
    unverifiable (exactly as for any traffic without an oracle).

    Together with :meth:`Trace.save` / :meth:`Trace.load` this closes the
    loop for production logs: import once, replay through any fleet or
    cache configuration forever after.
    """
    events: List[WorkloadEvent] = []
    for i, record in enumerate(records):
        if time_key not in record:
            raise ValueError(f"log record {i} is missing its {time_key!r} field")
        if user_key not in record or query_key not in record:
            raise ValueError(
                f"log record {i} is missing its {user_key!r} or {query_key!r} field"
            )
        context: Tuple[str, ...] = ()
        if context_key is not None and record.get(context_key):
            raw = record[context_key]
            if isinstance(raw, str):
                context = (raw,)
            else:
                context = tuple(str(turn) for turn in raw)
        events.append(
            WorkloadEvent(
                time_s=float(record[time_key]),
                user_id=str(record[user_key]),
                query=str(record[query_key]),
                context=context,
                is_followup=bool(context),
                kind="unique",
                intent_key=(
                    str(record[intent_key])
                    if intent_key is not None and record.get(intent_key)
                    else ""
                ),
            )
        )
    events.sort(key=lambda e: (e.time_s, e.user_id))
    if normalize_time and events:
        t0 = events[0].time_s
        if t0 != 0.0:
            events = [
                WorkloadEvent(
                    time_s=e.time_s - t0,
                    user_id=e.user_id,
                    query=e.query,
                    context=e.context,
                    is_followup=e.is_followup,
                    kind=e.kind,
                    intent_key=e.intent_key,
                )
                for e in events
            ]
    return Trace(
        events=events,
        n_users=len({e.user_id for e in events}),
        seed=0,
        metadata={"source": "external_logs", "n_records": len(events)},
    )


def trace_to_logs(
    trace: Trace,
    *,
    time_key: str = "timestamp",
    user_key: str = "user",
    query_key: str = "prompt",
    context_key: str = "context",
    intent_key: str = "intent",
) -> List[Dict[str, object]]:
    """Export a trace as external-log records (inverse of :func:`trace_from_logs`).

    Mainly a test fixture: round-tripping a generated trace through the
    foreign schema and back must replay identically.
    """
    return [
        {
            time_key: e.time_s,
            user_key: e.user_id,
            query_key: e.query,
            context_key: list(e.context),
            intent_key: e.intent_key,
        }
        for e in trace.events
    ]
