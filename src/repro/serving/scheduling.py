"""The serving core under :class:`~repro.serving.server.CacheServer`.

There is one serving driver: the server's flush (take a batch of arrivals,
classify them through their caches, forward misses to the LLM service,
enrol).  Live serving runs it on micro-batches cut on the server's
clock; a replay runs it on the trace's batching windows.
This module holds the pieces the flush is made of:

* :class:`CacheAdapter` — one batched lookup/enroll surface over any cache
  variant.  Every cache returns :class:`~repro.core.cache.CacheDecision`;
  the adapter only decides which optional arguments (contexts, precomputed
  embeddings) a variant's ``lookup_batch`` takes.
* :class:`BatchExecutor` — one shard's users' caches, in two steps:
  :meth:`~BatchExecutor.lookup` runs every cache's lookups (a tiered
  cache's L1 misses are held back for one batched match per shared tier,
  :func:`~repro.core.tiered.match_probes`), and
  :meth:`~BatchExecutor.execute` then forwards the misses and enrols.  The
  server completes every shard's lookups and promotions before any
  enrolment, and enrols in arrival order, so no event can hit an entry
  enrolled by a later-arriving event and results are independent of how
  the flush is grouped into shards.  The
  executor owns the per-cache intent oracle (hit verification), the
  optional online-adaptation hookup, and the deferred maintenance passes
  (per cache, then once per shared tier).
* :class:`UserStats` / :class:`FleetResult` — per-user and fleet-wide
  aggregation of a replay's outcomes.
* :func:`iter_windows` — carves a trace into trace-time batching windows
  (arrivals within ``batch_window_s`` of a window's first event batch
  together), which the replay flushes one at a time.  The live server's
  wall-clock counterpart is its adaptive micro-batcher
  (:class:`~repro.serving.server.MicroBatcher`).

Concurrency contract
--------------------
:class:`BatchExecutor` is **not** thread-safe: it mutates caches, whose
index backends share scratch buffers and rewire postings in place (no
:class:`~repro.index.VectorIndex` backend supports concurrent calls — see
``docs/api.md``).  The server runs one executor per shard and serializes
each behind that shard's lock.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import CacheDecision
from repro.core.tiered import TieredCache, TierProbe
from repro.serving.workload import WorkloadEvent


@dataclass
class LookupOutcome:
    """Variant-agnostic result of one served lookup."""

    event: WorkloadEvent
    hit: bool
    response: Optional[str]
    cache_overhead_s: float = 0.0
    llm_latency_s: float = 0.0
    cost_usd: float = 0.0
    #: probe embedding from the lookup (reused by enrolment; None for
    #: non-vector variants)
    embedding: Optional[object] = None
    #: best retrieved similarity (1.0/0.0 for exact-match variants); feeds
    #: the online adaptation loop's near-threshold miss mining
    similarity: float = 0.0
    #: the matched entry's query text on a hit (None when the variant does
    #: not report one)
    matched_query: Optional[str] = None
    #: hit verification against the workload's intent oracle: True = the hit
    #: answered the probe's intent, False = a false hit, None = unverifiable
    #: (miss, no intent metadata, or an entry the fleet never saw enrol)
    verified: Optional[bool] = None

    @property
    def total_latency_s(self) -> float:
        """Latency the user experienced for this query."""
        return self.cache_overhead_s + self.llm_latency_s


@dataclass
class UserStats:
    """Per-user aggregation over one replay."""

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
    """Fleet-wide and per-user aggregation of one replay."""

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


class CacheAdapter:
    """One batched lookup/enroll surface over any cache variant."""

    def __init__(self, cache) -> None:
        """Wrap ``cache`` and sniff its batched-lookup capabilities."""
        self.cache = cache
        params = inspect.signature(cache.lookup_batch).parameters
        self._accepts_contexts = "contexts" in params
        self._accepts_embeddings = "embeddings" in params

    def lookup_batch(
        self,
        queries: Sequence[str],
        contexts: Sequence[Sequence[str]],
        embeddings: Optional[np.ndarray] = None,
    ) -> List[CacheDecision]:
        """The cache's decisions for ``queries``, one per query in order.

        ``embeddings`` (one row per query) is the cross-cache micro-batcher's
        amortization hook: when the serving layer already embedded the whole
        flush with one encoder call, the cache skips its own encode.
        """
        kwargs: Dict[str, object] = {}
        if self._accepts_contexts:
            kwargs["contexts"] = [list(c) for c in contexts]
        if self._accepts_embeddings and embeddings is not None:
            kwargs["embeddings"] = embeddings
        return self.cache.lookup_batch(list(queries), **kwargs)

    def lookup_held(
        self,
        queries: Sequence[str],
        contexts: Sequence[Sequence[str]],
        embeddings: Optional[np.ndarray] = None,
    ) -> Tuple[List[CacheDecision], List[TierProbe]]:
        """:meth:`lookup_batch`, except that a tiered cache stops after its
        L1 pass: its misses come back held for the tier, with their L1
        decisions (every other cache holds none back)."""
        if isinstance(self.cache, TieredCache):
            return self.cache.lookup_l1(
                list(queries), [list(c) for c in contexts], embeddings
            )
        return self.lookup_batch(queries, contexts, embeddings), []

    def enroll(
        self,
        query: str,
        response: str,
        context: Sequence[str],
        user_id: str,
        embedding: Optional[object] = None,
    ) -> None:
        """Enrol through the cache's ``enroll`` (every variant has one).

        ``user_id`` keeps per-user attribution in central shared caches
        (per-device caches ignore it); ``embedding`` reuses the lookup's
        probe embedding so enrolment skips a second encoder forward.
        """
        self.cache.enroll(
            query, response, context=context, user_id=user_id, embedding=embedding
        )


class BatchExecutor:
    """One shard's users' caches, executed a batch of arrivals at a time.

    One executor owns a set of users' caches (created through
    ``cache_factory`` on first use), the per-cache intent oracle used to
    verify hits, and the optional online adaptation hookup.  The server
    runs a flush as :meth:`lookup` on every shard slice, then one match and
    serving of all the flush's held-back tier probes, then :meth:`execute`
    on every slice with the decisions its :meth:`lookup` returned (see
    :meth:`CacheServer._classify_flush
    <repro.serving.server.CacheServer._classify_flush>`).

    A service whose ``query`` takes ``now`` gets each miss's
    ``event.time_s``: the trace time in a replay, the submit time on the
    server's clock in a live run.
    """

    def __init__(
        self,
        cache_factory: Callable[[str], object],
        service,
        adaptation: Optional[object] = None,
    ) -> None:
        self.cache_factory = cache_factory
        self.service = service
        self.adaptation = adaptation
        self.adapters: Dict[str, CacheAdapter] = {}
        #: per underlying cache object: enrolled query text -> intent key,
        #: the oracle used to verify hits (user feedback stand-in)
        self._intent_maps: Dict[int, Dict[str, str]] = {}
        self._touched: Dict[int, CacheAdapter] = {}
        self._service_accepts_now = "now" in inspect.signature(service.query).parameters

    # ------------------------------------------------------------------ #
    def register(self, user_id: str, cache) -> CacheAdapter:
        """Attach a user's cache (intent oracle + adaptation loop).

        Idempotent per user; a cache object shared by several users gets one
        intent map no matter how many users route to it.
        """
        adapter = self.adapters.get(user_id)
        if adapter is None or adapter.cache is not cache:
            adapter = CacheAdapter(cache)
            self.adapters[user_id] = adapter
            self._intent_maps.setdefault(id(cache), {})
            if self.adaptation is not None:
                self.adaptation.register_user(user_id, cache)
        return adapter

    def adapter(self, user_id: str) -> CacheAdapter:
        """The user's cache adapter, creating it via the factory on first use."""
        adapter = self.adapters.get(user_id)
        if adapter is None:
            adapter = self.register(user_id, self.cache_factory(user_id))
        return adapter

    # ------------------------------------------------------------------ #
    def lookup(
        self,
        events: Sequence[WorkloadEvent],
        embeddings: Optional[np.ndarray] = None,
    ) -> Tuple[List[CacheDecision], List[Tuple[int, TierProbe]]]:
        """Phase 1 of a batch: every cache's lookups, up to the shared tier.

        The batch's arrivals are grouped by *underlying cache object*
        (per-user fleets: one group per user; a shared central cache: one
        group for the whole batch), preserving arrival order within each
        group, and each group is classified with one lookup call.
        ``embeddings`` (one row per event, e.g. the server's single
        cross-user encoder call for the whole flush) is sliced per group
        and handed to caches that accept precomputed embeddings.  A tiered
        cache stops after its L1 pass (:meth:`TieredCache.lookup_l1
        <repro.core.tiered.TieredCache.lookup_l1>`).

        Returns one decision per event, in input order, and the held-back
        L1 misses as ``(event index, probe)`` pairs in arrival order.  The
        caller answers and serves those probes
        (:func:`~repro.core.tiered.match_probes`, then
        :func:`~repro.core.tiered.serve_probes`) — which completes their
        decisions — and then hands the decisions to :meth:`execute`.
        """
        by_cache: Dict[int, Tuple[CacheAdapter, List[int]]] = {}
        for i, event in enumerate(events):
            adapter = self.adapter(event.user_id)
            by_cache.setdefault(id(adapter.cache), (adapter, []))[1].append(i)
        decisions: Dict[int, CacheDecision] = {}
        held: List[Tuple[int, TierProbe]] = []
        for adapter, rows in by_cache.values():
            group = [events[i] for i in rows]
            group_embs = embeddings[np.asarray(rows)] if embeddings is not None else None
            results, probes = adapter.lookup_held(
                [e.query for e in group],
                [e.context for e in group],
                embeddings=group_embs,
            )
            for i, result in zip(rows, results):
                decisions[i] = result
            held.extend((rows[probe.row], probe) for probe in probes)
        self._touched = {id(a.cache): a for a, _ in by_cache.values()}
        held.sort(key=lambda pair: pair[0])
        return [decisions[i] for i in range(len(events))], held

    def execute(
        self,
        events: Sequence[WorkloadEvent],
        decisions: Sequence[CacheDecision],
    ) -> List[LookupOutcome]:
        """Phase 2 of a batch: misses and enrolment, in input order.

        ``decisions`` are what :meth:`lookup` returned for the same
        ``events``, once the flush has served its held-back tier probes.
        All lookups complete before any enrolment, so a decision can only
        depend on entries enrolled by *previous* batches — no event can hit
        an entry enrolled by a later-arriving event, even on a shared cache,
        and results are independent of grouping order.  Returns outcomes in
        input order.
        """
        outcomes: List[LookupOutcome] = []
        for event, result in zip(events, decisions):
            adapter = self.adapters[event.user_id]
            intent_map = self._intent_maps[id(adapter.cache)]
            # Verification against the intent oracle (the user-feedback
            # stand-in): on a hit, whether the served entry answers the
            # probe's intent; on a miss, whether the *top retrieved
            # candidate* would have (feeding near-miss pair mining).
            verified: Optional[bool] = None
            reference = result.matched_query if result.hit else result.top_candidate_query
            if reference is not None and event.intent_key:
                reference_intent = intent_map.get(reference)
                if reference_intent is not None:
                    verified = reference_intent == event.intent_key
            outcome = LookupOutcome(
                event=event,
                hit=result.hit,
                response=result.response,
                cache_overhead_s=result.total_overhead_s,
                embedding=result.embedding,
                similarity=result.similarity,
                matched_query=result.matched_query,
                verified=verified,
            )
            if not result.hit:
                kwargs: Dict[str, object] = {}
                if self._service_accepts_now:
                    kwargs["now"] = event.time_s
                llm = self.service.query(
                    event.query,
                    client_id=event.user_id,
                    context=list(event.context),
                    **kwargs,
                )
                outcome.response = llm.text
                outcome.llm_latency_s = llm.latency_s
                outcome.cost_usd = llm.cost_usd
                adapter.enroll(
                    event.query,
                    llm.text,
                    event.context,
                    event.user_id,
                    embedding=result.embedding,
                )
                if event.intent_key:
                    intent_map[event.query] = event.intent_key
            if self.adaptation is not None:
                self.adaptation.observe(
                    event.user_id,
                    similarity=outcome.similarity,
                    hit=outcome.hit,
                    verified=outcome.verified,
                    followup=event.is_followup,
                    query=event.query,
                    matched_query=outcome.matched_query or result.top_candidate_query,
                    time_s=event.time_s,
                )
            outcomes.append(outcome)
        return outcomes

    def maintenance(self, targets: Optional[Iterable[object]] = None) -> List[object]:
        """Deferred background work for ``targets`` — by default every cache
        the last batch touched.  Returns the shared tiers still owed upkeep.

        IVF repartitioning (``auto_repartition=False``), layout compaction
        and snapshot delta-log folding run here, between batches — the query path itself never pays for
        reorganization.  Each target's own ``maintenance()`` owns the whole
        hook.

        A tiered cache does only its own share here
        (:meth:`~repro.core.tiered.TieredCache.local_maintenance`: L1 index
        upkeep, and its tier mutations sealed into one delta record, not yet
        written), and its quantized tier is returned instead of maintained:
        a tier shared by many caches is owed one upkeep per batch, not one
        per cache, and that upkeep writes every record the batch sealed with
        one append and one fsync.  The caller hands the returned tiers, each
        distinct object once, back as ``targets`` when the whole batch has
        run and before any of its responses goes out — the server does so
        once every shard has done its share.
        """
        if targets is None:
            targets = [adapter.cache for adapter in self._touched.values()]
        owed: Dict[int, object] = {}
        for target in targets:
            local = getattr(target, "local_maintenance", None)
            if local is not None:
                local()
                owed[id(target.l2)] = target.l2
                continue
            target.maintenance()
        return list(owed.values())


def storage_report(caches: Iterable[object]) -> Dict[str, object]:
    """Fleet-level bytes-vs-hit-rate accounting over a set of cache objects.

    Behind :meth:`CacheServer.storage_report
    <repro.serving.server.CacheServer.storage_report>` (and so the fleet
    simulator's).  Each distinct cache *object* is
    counted once (pass duplicates freely — a shared central cache routed to
    by many users does not multiply).  Tiered caches contribute a per-tier
    breakdown, and a quantized tier shared by several tiered caches is
    counted once on both the bytes and the hit-counter side.
    """
    seen: Dict[int, object] = {}
    shared_tiers: Dict[int, object] = {}
    total_bytes = 0
    total_entries = 0
    l1_bytes = l2_bytes = l1_entries = l2_entries = 0
    lookups = hits = 0
    for cache in caches:
        if id(cache) in seen:
            continue
        seen[id(cache)] = cache
        entries = len(cache)
        breakdown = getattr(cache, "storage_breakdown", None)
        if breakdown is not None:
            # A tiered cache: count its L1 per cache and its quantized tier
            # once even when shared (a shared tier's hits would otherwise be
            # re-added through every owner's combined stats).
            tier = getattr(cache, "l2", None)
            tier_is_new = tier is not None and id(tier) not in shared_tiers
            tier_stats = cache.tier_stats()
            lookups += int(tier_stats["l1"].lookups)
            hits += int(tier_stats["l1"].hits)
            if tier_is_new:
                hits += int(tier_stats["l2"].hits)
            parts = breakdown()
            if tier is not None and not tier_is_new:
                parts = dict(parts)
                parts["l2_bytes"] = 0
                parts["l2_entries"] = 0
            elif tier is not None:
                shared_tiers[id(tier)] = tier
            l1_bytes += int(parts["l1_bytes"])
            l2_bytes += int(parts["l2_bytes"])
            l1_entries += int(parts["l1_entries"])
            l2_entries += int(parts["l2_entries"])
            cache_bytes = int(parts["l1_bytes"]) + int(parts["l2_bytes"])
            entries = int(parts["l1_entries"]) + int(parts["l2_entries"])
        else:
            stats = cache.stats
            lookups += int(stats.lookups)
            hits += int(stats.hits)
            cache_bytes = int(cache.embedding_storage_bytes())
        total_bytes += cache_bytes
        total_entries += entries
    return {
        "n_caches": len(seen),
        "total_entries": total_entries,
        "total_bytes": total_bytes,
        "bytes_per_entry": total_bytes / total_entries if total_entries else 0.0,
        "hit_rate": hits / lookups if lookups else 0.0,
        "l1_entries": l1_entries,
        "l1_bytes": l1_bytes,
        "l2_entries": l2_entries,
        "l2_bytes": l2_bytes,
    }


def iter_windows(
    events: Iterable[WorkloadEvent], width: float
) -> Iterator[List[WorkloadEvent]]:
    """Split an event stream into virtual-time batching windows.

    The stream is re-sorted by arrival time first: the windowing and the
    "enrolments become visible next window" invariant both assume time
    order, and a hand-merged replay file may not provide it.
    """
    ordered = sorted(events, key=lambda e: (e.time_s, e.user_id))
    window: List[WorkloadEvent] = []
    window_end: Optional[float] = None
    for event in ordered:
        if window_end is None:
            window_end = event.time_s + width
        if event.time_s <= window_end:
            window.append(event)
        else:
            yield window
            window = [event]
            window_end = event.time_s + width
    if window:
        yield window
