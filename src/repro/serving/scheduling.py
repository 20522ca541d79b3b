"""The serving core under every frontend.

The deterministic virtual-clock simulator
(:class:`~repro.serving.fleet.FleetSimulator`) and the live threaded server
(:class:`~repro.serving.server.CacheServer`) drive the *same* steps —
"take a batch of arrivals, classify them through their caches, forward
misses to the LLM service, enrol" — through this module, so the two
frontends cannot drift:

* :class:`CacheAdapter` — one batched lookup/enroll surface over any cache
  variant.  Every cache returns :class:`~repro.core.cache.CacheDecision`;
  the adapter only decides which optional arguments (contexts, precomputed
  embeddings) a variant's ``lookup_batch`` takes.
* :class:`BatchExecutor` — executes one batch of
  :class:`~repro.serving.workload.WorkloadEvent` arrivals with two-phase
  semantics: **all** of a batch's lookups complete before **any** of its
  misses enrol, so no event can hit an entry enrolled by a later-arriving
  event and results are independent of grouping order.  A lookup that falls
  through to a shared quantized tier is held back after the L1 pass and
  answered by one batched match per tier
  (:func:`~repro.core.tiered.match_probes`), so the rule holds across every
  cache sharing the tier — across shards, in the server.  The executor owns
  the per-cache intent oracle (hit verification), the optional
  online-adaptation hookup, and the deferred maintenance passes (per cache,
  then once per shared tier).
* :func:`iter_windows` — carves a trace into virtual-time batching windows
  (arrivals within ``batch_window_s`` of a window's first event batch
  together).  The live server's wall-clock counterpart is its adaptive
  micro-batcher (:class:`~repro.serving.server.MicroBatcher`).
  ``tests/test_serving_parity.py`` replays one trace through both frontends
  and asserts byte-identical per-event decisions.

Concurrency contract
--------------------
:class:`BatchExecutor` is **not** thread-safe: it mutates caches, whose
index backends share scratch buffers and rewire postings in place (no
:class:`~repro.index.VectorIndex` backend supports concurrent calls — see
``docs/api.md``).  The simulator runs one executor on one thread; the server
runs one executor per shard and serializes each behind that shard's lock.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import CacheDecision
from repro.core.clock import VirtualClock
from repro.core.tiered import TieredCache, TierProbe, match_probes, serve_probes
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
        flush with one encoder call, vector caches skip their own encode.
        Variants that cannot consume precomputed embeddings (the keyword
        baseline) silently ignore them.
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


#: A batch between :meth:`BatchExecutor.lookup` and the rest of
#: :meth:`BatchExecutor.execute`: its events and their decisions by event
#: index.
_OpenBatch = Tuple[Sequence[WorkloadEvent], Dict[int, CacheDecision]]


class BatchExecutor:
    """Executes batches of arrivals against per-user caches + one service.

    The execution core shared by :class:`~repro.serving.fleet.FleetSimulator`
    and :class:`~repro.serving.server.CacheServer`.  One executor owns a set
    of users' caches (created through ``cache_factory`` on first use), the
    per-cache intent oracle used to verify hits, and the optional online
    adaptation hookup; :meth:`execute` runs one batch with the pinned
    two-phase semantics (all lookups, then misses/enrolment in arrival
    order).  A frontend whose batch spans several executors over one shared
    tier (the server's shards) opens each slice with :meth:`lookup`,
    answers and serves every slice's held-back tier probes at once, and
    then calls :meth:`execute` per slice for the rest.

    ``stamp_event_time=True`` (the simulator) timestamps LLM requests with
    each event's virtual arrival time; ``False`` (the live server) lets the
    service read its own injected wall clock instead — the two-clocks fix
    from :class:`~repro.llm.service.SimulatedLLMService`.

    """

    def __init__(
        self,
        cache_factory: Callable[[str], object],
        service,
        enroll_on_miss: bool = True,
        adaptation: Optional[object] = None,
        stamp_event_time: bool = True,
    ) -> None:
        self.cache_factory = cache_factory
        self.service = service
        self.enroll_on_miss = enroll_on_miss
        self.adaptation = adaptation
        self.stamp_event_time = stamp_event_time
        #: Simulation runs (``stamp_event_time=True``) drive every cache's
        #: entry timestamps from this virtual clock, advanced to each
        #: window's max event time before lookups run — entry TTL/recency
        #: state then depends only on the trace, not on wall speed or
        #: processing order.  The live server keeps caches on wall time.
        self.virtual_clock: Optional[VirtualClock] = (
            VirtualClock() if stamp_event_time else None
        )
        self.adapters: Dict[str, CacheAdapter] = {}
        #: per underlying cache object: enrolled query text -> intent key,
        #: the oracle used to verify hits (user feedback stand-in)
        self._intent_maps: Dict[int, Dict[str, str]] = {}
        self._touched: Dict[int, CacheAdapter] = {}
        #: the batch :meth:`lookup` opened for :meth:`execute`
        self._open: Optional[_OpenBatch] = None
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
            if self.virtual_clock is not None:
                set_clock = getattr(cache, "set_clock", None)
                if callable(set_clock):
                    set_clock(self.virtual_clock)
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
    ) -> List[Tuple[int, TierProbe]]:
        """Step (a) of a batch: every cache's lookups, up to the shared tier.

        The batch's arrivals are grouped by *underlying cache object*
        (per-user fleets: one group per user; a shared central cache: one
        group for the whole batch), preserving arrival order within each
        group, and each group is classified with one lookup call.
        ``embeddings`` (one row per event, e.g. the server's single
        cross-user encoder call for the whole flush) is sliced per group
        and handed to caches that accept precomputed embeddings.  A tiered
        cache stops after its L1 pass (:meth:`TieredCache.lookup_l1
        <repro.core.tiered.TieredCache.lookup_l1>`).

        Returns those held-back L1 misses as ``(event index, probe)`` pairs
        in arrival order; the caller answers and serves them
        (:func:`~repro.core.tiered.match_probes`, then
        :func:`~repro.core.tiered.serve_probes`) and then calls
        :meth:`execute` with the same ``events`` object.  Opens the batch
        for that call, discarding any batch a failed flush left open.
        """
        self._open = None
        if self.virtual_clock is not None and len(events):
            # Window-level stamping: every entry enrolled by this batch is
            # stamped with the window's max arrival time, so stamps are
            # independent of intra-window processing order (pinned in
            # tests/test_clock.py).
            self.virtual_clock.advance_to(max(e.time_s for e in events))
        by_cache: Dict[int, Tuple[CacheAdapter, List[int]]] = {}
        for i, event in enumerate(events):
            adapter = self.adapter(event.user_id)
            by_cache.setdefault(id(adapter.cache), (adapter, []))[1].append(i)
        looked_up: Dict[int, CacheDecision] = {}
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
                looked_up[i] = result
            held.extend((rows[probe.row], probe) for probe in probes)
        self._touched = {id(a.cache): a for a, _ in by_cache.values()}
        self._open = (events, looked_up)
        held.sort(key=lambda pair: pair[0])
        return held

    def execute(
        self,
        events: Sequence[WorkloadEvent],
        embeddings: Optional[np.ndarray] = None,
    ) -> List[LookupOutcome]:
        """Run one batch of arrivals; returns outcomes in input order.

        Phase 1 — lookups: :meth:`lookup`, then one batched match per
        shared tier over the L1 misses it held back, then the tiered
        caches' promotions (:func:`~repro.core.tiered.serve_probes`).  When
        :meth:`lookup` already opened a batch, its caller has answered and
        served the held-back probes, and this call — which must get the
        same ``events`` object — starts at phase 2.

        Phase 2 — misses and enrolment, in input order.  All lookups
        complete before any enrolment, so a decision can only depend on
        entries enrolled by *previous* batches — no event can hit an entry
        enrolled by a later-arriving event, even on a shared cache, and
        results are independent of grouping order.
        """
        opened, self._open = self._open, None
        if opened is None:
            probes = [probe for _, probe in self.lookup(events, embeddings)]
            match_probes(probes)
            serve_probes(probes)
            opened, self._open = self._open, None
        elif opened[0] is not events:
            raise RuntimeError(
                "execute() was given other events than the batch lookup() opened"
            )
        _, looked_up = opened

        outcomes: List[LookupOutcome] = []
        for i, event in enumerate(events):
            result = looked_up[i]
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
                if self._service_accepts_now and self.stamp_event_time:
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
                if self.enroll_on_miss:
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

    def advance_adaptation(self, now_s: float) -> None:
        """Fire adaptation rounds due at ``now_s`` (no-op without a loop)."""
        if self.adaptation is not None:
            self.adaptation.advance(now_s)

    def maintenance(self, targets: Optional[Iterable[object]] = None) -> List[object]:
        """Deferred background work for ``targets`` — by default every cache
        the last batch touched.  Returns the shared tiers still owed upkeep.

        IVF repartitioning (``auto_repartition=False``), probe-bound stat
        refreshes, layout compaction and snapshot delta-log folding run
        here, between batches — the query path itself never pays for
        reorganization.  A target exposing its own ``maintenance()`` owns
        the whole hook; otherwise the executor falls through to the
        target's index.

        A tiered cache does only its own share here
        (:meth:`~repro.core.tiered.TieredCache.local_maintenance`: L1 index
        upkeep, and its tier mutations committed to the delta log), and its
        quantized tier is returned instead of maintained: a tier shared by
        many caches is owed one upkeep per batch, not one per cache.  The
        caller hands the returned tiers, each distinct object once, back as
        ``targets`` when the whole batch has run — the simulator at once,
        the server after its last shard slice.
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
            maintain = getattr(target, "maintenance", None)
            if maintain is not None:
                maintain()
                continue
            index = getattr(target, "index", None)
            if index is not None and hasattr(index, "maintenance"):
                index.maintenance()
        return list(owed.values())


def storage_report(caches: Iterable[object]) -> Dict[str, object]:
    """Fleet-level bytes-vs-hit-rate accounting over a set of cache objects.

    Shared by :meth:`FleetSimulator.storage_report` and
    :meth:`CacheServer.storage_report`.  Each distinct cache *object* is
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
        entries = len(cache) if hasattr(cache, "__len__") else 0
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
            embedding_bytes = getattr(cache, "embedding_storage_bytes", None)
            cache_bytes = int(embedding_bytes()) if embedding_bytes else 0
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
