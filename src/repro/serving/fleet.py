"""Fleet simulation: N per-user caches against one shared LLM service.

:class:`FleetSimulator` replays a :class:`~repro.serving.workload.Trace`
on a virtual event clock: every arrival is looked up in its user's *local*
cache; misses are forwarded to the shared :class:`SimulatedLLMService` and
(optionally) enrolled.  Events that arrive within one ``batch_window_s`` are
scheduled together — each cache's queries in the window go through a single
``lookup_batch`` call, so the per-query embed/search overhead amortizes the
way a deployed batching frontend would.

The simulator is one frontend over the shared serving core
(:mod:`repro.serving.scheduling`): :func:`replay_windows` carves the trace
into deterministic virtual-time windows and a
:class:`~repro.serving.scheduling.BatchExecutor` runs each window through
the same two-phase lookup/enroll semantics the live threaded server
(:class:`~repro.serving.server.CacheServer`) uses under wall-clock load —
``tests/test_serving_parity.py`` pins the two frontends byte-identical on a
shared trace.

Any cache variant rides along: every variant returns
:class:`~repro.core.cache.CacheDecision`, which the executor folds into one
outcome shape (see :class:`LookupOutcome`), and enrolment goes through the
variant's ``enroll`` method.  A ``cache_factory``
returning the *same* object for every user models a central shared cache
(the GPTCache deployment); returning fresh instances models the paper's
per-device fleet.

With the service's default hashed latency jitter, a replayed trace produces
identical per-user results regardless of how fleet traffic interleaves.

The simulator also closes the paper's federated loop online: pass an
:class:`~repro.federated.online.OnlineThresholdAdapter` as ``adaptation`` and
every lookup outcome is mined for labelled pairs, adaptation rounds fire on
the trace's virtual clock between batching windows, and freshly aggregated
per-user thresholds land in each cache's live ``set_threshold`` hook.  Hits
are verified against the workload's intent oracle (the stand-in for the
user-feedback channel), which also powers the fleet-wide ``false_hit_rate``
aggregate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.index.snapshot import (
    SnapshotError,
    atomic_snapshot_dir,
    read_manifest,
    write_manifest,
)
from repro.llm.service import SimulatedLLMService
from repro.serving.scheduling import (
    BatchExecutor,
    CacheAdapter,
    LookupOutcome,
    iter_windows,
    storage_report,
)
from repro.serving.workload import Trace, WorkloadEvent

#: Snapshot format tag / version of ``FleetSimulator.checkpoint`` directories.
FLEET_FORMAT = "repro-fleet"
FLEET_VERSION = 1


@dataclass(frozen=True)
class FleetConfig:
    """Fleet scheduling and enrolment knobs.

    Attributes
    ----------
    batch_window_s:
        Width of the virtual batching window: arrivals within one window are
        grouped per cache and classified with one ``lookup_batch`` call
        before any of the window's misses enrol.  Wider windows amortize
        more but defer enrolment visibility to the next window (intra-window
        duplicate misses each pay the LLM); ``0`` batches only simultaneous
        arrivals, approaching sequential semantics.
    enroll_on_miss:
        Whether misses enrol the LLM's response in the user's cache.
    """

    batch_window_s: float = 0.25
    enroll_on_miss: bool = True

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")


@dataclass
class UserStats:
    """Per-user aggregation over one simulation run."""

    lookups: int = 0
    hits: int = 0
    llm_requests: int = 0
    cache_overhead_s: float = 0.0
    llm_latency_s: float = 0.0
    cost_usd: float = 0.0
    #: hits verified correct / incorrect against the intent oracle (hits
    #: without a verification signal count in neither)
    true_hits: int = 0
    false_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of this user's lookups served locally."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def false_hit_rate(self) -> float:
        """Fraction of lookups served a verified-wrong cached answer."""
        return self.false_hits / self.lookups if self.lookups else 0.0

    @property
    def total_latency_s(self) -> float:
        """Cache overhead plus simulated LLM latency, summed."""
        return self.cache_overhead_s + self.llm_latency_s

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency per query."""
        return self.total_latency_s / self.lookups if self.lookups else 0.0

    @property
    def true_hit_rate(self) -> float:
        """Fraction of lookups served a verified-correct cached answer."""
        return self.true_hits / self.lookups if self.lookups else 0.0

    def record(self, outcome: LookupOutcome) -> None:
        """Fold one lookup outcome into the totals."""
        self.lookups += 1
        self.hits += int(outcome.hit)
        self.llm_requests += int(not outcome.hit)
        self.cache_overhead_s += outcome.cache_overhead_s
        self.llm_latency_s += outcome.llm_latency_s
        self.cost_usd += outcome.cost_usd
        if outcome.hit and outcome.verified is not None:
            if outcome.verified:
                self.true_hits += 1
            else:
                self.false_hits += 1

    def add(self, other: "UserStats") -> None:
        """Fold another user's totals into this one (cohort aggregation)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.llm_requests += other.llm_requests
        self.cache_overhead_s += other.cache_overhead_s
        self.llm_latency_s += other.llm_latency_s
        self.cost_usd += other.cost_usd
        self.true_hits += other.true_hits
        self.false_hits += other.false_hits


@dataclass
class FleetResult:
    """Fleet-wide and per-user aggregation of one simulation run."""

    n_users: int
    n_events: int
    virtual_duration_s: float
    wall_clock_s: float
    per_user: Dict[str, UserStats] = field(default_factory=dict)
    outcomes: List[LookupOutcome] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        """Total lookups across the fleet."""
        return sum(u.lookups for u in self.per_user.values())

    @property
    def hits(self) -> int:
        """Total cache hits across the fleet."""
        return sum(u.hits for u in self.per_user.values())

    @property
    def hit_rate(self) -> float:
        """Fleet-wide hit rate."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @property
    def true_hits(self) -> int:
        """Hits verified correct against the intent oracle, fleet-wide."""
        return sum(u.true_hits for u in self.per_user.values())

    @property
    def false_hits(self) -> int:
        """Hits verified as false hits (wrong cached answer), fleet-wide."""
        return sum(u.false_hits for u in self.per_user.values())

    @property
    def false_hit_rate(self) -> float:
        """Fraction of fleet lookups served a verified-wrong cached answer."""
        lookups = self.lookups
        return self.false_hits / lookups if lookups else 0.0

    @property
    def true_hit_rate(self) -> float:
        """Fraction of fleet lookups served a verified-correct cached answer."""
        lookups = self.lookups
        return self.true_hits / lookups if lookups else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency per query across the fleet."""
        lookups = self.lookups
        if not lookups:
            return 0.0
        return sum(u.total_latency_s for u in self.per_user.values()) / lookups

    @property
    def total_cost_usd(self) -> float:
        """Total simulated LLM spend across the fleet."""
        return float(sum(u.cost_usd for u in self.per_user.values()))

    @property
    def throughput_lookups_per_s(self) -> float:
        """Fleet lookup throughput against measured wall-clock time."""
        if self.wall_clock_s <= 0:
            return 0.0
        return self.lookups / self.wall_clock_s

    def stats_for(self, user_ids: Sequence[str]) -> UserStats:
        """Aggregate stats over a user subset (a tenant, a cohort).

        Users absent from the run contribute nothing — scenario drivers
        pass the cohort's full id list even when some users never got a
        single arrival.
        """
        merged = UserStats()
        for user_id in user_ids:
            stats = self.per_user.get(user_id)
            if stats is not None:
                merged.add(stats)
        return merged

    def format(self) -> str:
        """One-paragraph text summary of the run."""
        return (
            f"fleet of {self.n_users} users — {self.n_events} lookups in "
            f"{self.wall_clock_s:.2f}s wall-clock "
            f"({self.throughput_lookups_per_s:,.0f} lookups/s); "
            f"hit rate {self.hit_rate:.3f} "
            f"(false-hit rate {self.false_hit_rate:.3f}), "
            f"mean latency {self.mean_latency_s * 1000:.1f} ms, "
            f"LLM spend ${self.total_cost_usd:.4f}, "
            f"virtual duration {self.virtual_duration_s:.1f}s"
        )


def replay_windows(
    trace: Trace,
    batch_window_s: float,
    step: Callable[[List[WorkloadEvent]], Iterable[LookupOutcome]],
    collect_outcomes: bool = False,
) -> FleetResult:
    """The one replay loop: window → ``step`` → aggregate.

    ``trace`` is carved into virtual-time windows of ``batch_window_s``;
    ``step(window)`` serves one window and returns its outcomes, which are
    folded into per-user and fleet-wide totals.  :meth:`FleetSimulator.run`
    and :meth:`CacheServer.replay <repro.serving.server.CacheServer.replay>`
    differ only in the ``step`` they pass.  ``collect_outcomes`` also
    retains every per-event :class:`LookupOutcome` on the result (off by
    default: at fleet scale the aggregate is the product).
    """
    per_user: Dict[str, UserStats] = {}
    outcomes: List[LookupOutcome] = []
    virtual_end = 0.0
    start = time.perf_counter()
    for window in iter_windows(trace.events, batch_window_s):
        for outcome in step(window):
            stats = per_user.setdefault(outcome.event.user_id, UserStats())
            stats.record(outcome)
            virtual_end = max(
                virtual_end, outcome.event.time_s + outcome.total_latency_s
            )
            if collect_outcomes:
                outcomes.append(outcome)
    wall_clock = time.perf_counter() - start
    # Count the users actually served rather than echoing the trace's
    # configured fleet size: with churn, cold-start successors appear
    # under fresh ids, so the two can legitimately differ.
    return FleetResult(
        n_users=len(per_user),
        n_events=len(trace),
        virtual_duration_s=virtual_end,
        wall_clock_s=wall_clock,
        per_user=per_user,
        outcomes=outcomes,
    )


class FleetSimulator:
    """Runs a traffic trace over N per-user caches and one shared service."""

    def __init__(
        self,
        cache_factory: Callable[[str], object],
        service: Optional[SimulatedLLMService] = None,
        config: Optional[FleetConfig] = None,
        adaptation: Optional[object] = None,
    ) -> None:
        """``cache_factory(user_id)`` supplies each user's cache instance.

        Return fresh instances for the paper's per-device fleet, or one
        shared object to model a central cache.  The cache's index backend
        is the factory's choice — e.g.
        ``MeanCacheConfig(index_backend="ivf")`` puts every device on
        sublinear approximate search.

        ``adaptation``, when given, closes the federated loop over live
        traffic: an :class:`~repro.federated.online.OnlineThresholdAdapter`
        (or anything with its ``register_user``/``observe``/``advance``
        surface).  The simulator registers each user's cache on first use,
        reports every lookup outcome, and advances the adapter on the
        virtual clock after each batching window so adaptation rounds fire
        deterministically between windows.
        """
        self.cache_factory = cache_factory
        self.service = service or SimulatedLLMService()
        self.config = config or FleetConfig()
        self.adaptation = adaptation
        self.executor = BatchExecutor(
            cache_factory=cache_factory,
            service=self.service,
            enroll_on_miss=self.config.enroll_on_miss,
            adaptation=adaptation,
        )

    @property
    def caches(self) -> Dict[str, CacheAdapter]:
        """Live user-id → cache-adapter map (owned by the executor)."""
        return self.executor.adapters

    # ------------------------------------------------------------------ #
    # Checkpoint / warm-start
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: "str | Path") -> Path:
        """Snapshot every live cache so a later fleet can warm-start from it.

        Each distinct cache *object* is saved once (a shared central cache
        produces one snapshot no matter how many users route to it) via its
        ``save(path)`` method, and the manifest maps user ids to snapshot
        subdirectories.  Caches without a ``save`` method (e.g. the keyword
        baseline) raise :class:`~repro.index.SnapshotError`.

        The whole checkpoint directory is staged and published atomically
        (one ``os.replace``): a crash mid-checkpoint over a previous
        checkpoint leaves the old generation intact, and snapshots for
        users the new fleet no longer serves cannot leak into the new one.
        """
        path = Path(path)
        with atomic_snapshot_dir(path) as stage:
            key_of_cache: Dict[int, str] = {}
            users: Dict[str, str] = {}
            for user_id, adapter in self.caches.items():
                key = key_of_cache.get(id(adapter.cache))
                if key is None:
                    key = f"cache_{len(key_of_cache)}"
                    saver = getattr(adapter.cache, "save", None)
                    if saver is None:
                        raise SnapshotError(
                            f"cache for user {user_id!r} "
                            f"({type(adapter.cache).__name__}) has no save() method"
                        )
                    saver(stage / key)
                    key_of_cache[id(adapter.cache)] = key
                users[user_id] = key
            write_manifest(
                stage,
                {"format": FLEET_FORMAT, "version": FLEET_VERSION, "users": users},
            )
        # A cache that keeps a delta log where its snapshot just landed (a
        # restored tiered cache checkpointed in place) rebases it.
        for adapter in self.caches.values():
            published_at = getattr(adapter.cache, "published_at", None)
            if published_at is not None:
                published_at(path / key_of_cache[id(adapter.cache)])
        return path

    def restore(self, path: "str | Path", loader: Callable[[Path], object]) -> None:
        """Warm-start the fleet from a :meth:`checkpoint` directory.

        ``loader(snapshot_dir)`` rebuilds one cache instance — e.g.
        ``lambda p: MeanCache.load(p, encoder)``.  Each snapshot is loaded
        once and shared by every user the manifest maps to it, so a
        checkpointed central cache stays central.  Users not present in the
        checkpoint keep going through ``cache_factory`` on first use.
        """
        path = Path(path)
        manifest = read_manifest(path, FLEET_FORMAT, FLEET_VERSION)
        users = manifest.get("users")
        if not isinstance(users, dict):
            raise SnapshotError(f"fleet checkpoint at {path} has a corrupted user map")
        cache_of_key = {key: loader(path / key) for key in sorted(set(users.values()))}
        for user_id, key in users.items():
            self.executor.register(user_id, cache_of_key[key])

    def storage_report(self) -> Dict[str, object]:
        """Fleet-level bytes-vs-hit-rate accounting across every live cache.

        Each distinct cache object is counted once (a shared central cache
        or shared quantized tier does not multiply by its user count), and
        tiered caches contribute a per-tier breakdown — see
        :func:`repro.serving.scheduling.storage_report`.
        """
        return storage_report(adapter.cache for adapter in self.caches.values())

    def run(self, trace: Trace, collect_outcomes: bool = False) -> FleetResult:
        """Replay ``trace`` through the fleet and aggregate the results.

        Parameters
        ----------
        trace:
            The time-ordered traffic trace (generated or loaded for replay).
        collect_outcomes:
            Also retain every per-event :class:`LookupOutcome` on the result
            (off by default: at fleet scale the aggregate is the product).
        """

        def step(window: List[WorkloadEvent]) -> List[LookupOutcome]:
            outcomes = self.executor.execute(window)
            # Windows arrive in time order; adaptation rounds due inside
            # this window fire before the next window's lookups, on the
            # trace's virtual clock.
            self.executor.advance_adaptation(window[-1].time_s)
            # Deferred index reorganization (IVF repartitioning with
            # ``auto_repartition=False``, cell-stat refreshes) runs between
            # windows, off the lookup path: each touched cache's share, then
            # each shared tier under them once.
            self.executor.maintenance(self.executor.maintenance())
            return outcomes

        return replay_windows(
            trace, self.config.batch_window_s, step, collect_outcomes
        )
