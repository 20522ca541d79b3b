"""The real-concurrency serving tier: a threaded semantic-cache service.

The simulator runs on a single-threaded virtual clock;
:class:`CacheServer` serves the same federated-cache stack under *real*
concurrent load:

* **Hash-sharded per-user caches.**  Users hash (stable CRC32) onto
  ``n_shards`` shards; each shard owns its users' caches behind one
  ``threading.Lock``, so index mutation is serialized per shard while a
  flush's lookups run across shards.  A ``cache_factory`` returning one
  shared object (a central GPTCache) is detected by object identity and
  collapsed onto a single owning shard — the shared index is never touched
  from two locks.
* **Bounded admission queue with backpressure.**  ``max_queue_depth`` caps
  the pending queue; an arrival beyond it is shed immediately with a typed
  :class:`BackpressureError` instead of growing an unbounded backlog.
* **Adaptive micro-batching.**  Concurrent requests coalesce into one
  flush: the batcher fires as soon as as many requests are pending as the
  last flush drained (at most ``max_batch_size``; a fresh server starts at
  ``max_batch_size``), or once the oldest has waited ``max_batch_wait_s``,
  whichever comes first.  A closed loop of k clients therefore waits out
  the deadline once and then flushes the moment its k clients are back.
  A flush is embedded with **one** cross-user encoder call (the dominant
  per-request cost) and each shard's caches then retrieve from their own
  indexes via the precomputed rows.  The server freezes the encoder it was
  given for as long as it serves (and during :meth:`CacheServer.replay`), so
  a follow-up's context chain — the same user's earlier queries — is read
  from the encoder's bounded row memo instead of being encoded again.
* **Shared L2 through the cache, not the server.**  A second tier shared
  by all users is a ``cache_factory`` returning
  :class:`~repro.core.tiered.TieredCache` instances over one shared
  :class:`~repro.core.tiered.QuantizedTier` (which carries its own lock);
  the server has no L2 path of its own.

The execution semantics inside a flush are exactly the simulator's
(:class:`~repro.serving.scheduling.BatchExecutor` is shared): all lookups
complete before any enrolment.  Replaying a trace through
:meth:`CacheServer.replay` (the synchronous single-worker deterministic
mode) therefore produces byte-identical per-event decisions to
:class:`~repro.serving.fleet.FleetSimulator` — ``tests/test_serving_parity.py``
pins this.

Live wall-clock serving runs on one daemon flush thread
(:meth:`CacheServer.start` / :meth:`CacheServer.stop`) sleeping on the one
``threading.Condition`` that guards the admission queue: client threads offer
requests under it, the thread executes one flush at a time and resolves the
futures itself.  The coroutine API (``serve`` / ``submit`` / ``shutdown``)
wraps the threaded one.  ``experiments/serving_bench.py`` drives the server
from real client threads and lands the numbers in ``BENCH_serving.json``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.runtime import guard_cache, maybe_tracked_lock
from repro.core.tiered import TierProbe, match_probes, serve_probes
from repro.llm.service import SimulatedLLMService
from repro.metrics.timing import LatencyHistogram
from repro.serving.fleet import FleetResult, replay_windows
from repro.serving.scheduling import BatchExecutor, LookupOutcome, storage_report
from repro.serving.workload import Trace, WorkloadEvent

logger = logging.getLogger(__name__)

#: Why a flush fired, as :meth:`MicroBatcher.fire_reason` names it:
#: ``max_batch_size`` pending (``full``), as many pending as the last flush
#: drained (``target``), the oldest aged ``max_batch_wait_s`` or a replayed
#: window closed (``deadline``), or :meth:`CacheServer.stop` draining what
#: was still waiting for company (``stop``).
FLUSH_REASONS = ("full", "target", "deadline", "stop")


class BackpressureError(RuntimeError):
    """A request was shed because the admission queue is full.

    Carries the depth the queue stood at and the configured bound, so
    callers can log/aggregate shed decisions without parsing messages.
    """

    def __init__(self, queue_depth: int, limit: int) -> None:
        super().__init__(
            f"admission queue full ({queue_depth} pending >= limit {limit}); "
            "request shed"
        )
        self.queue_depth = queue_depth
        self.limit = limit


@dataclass(frozen=True)
class ServerConfig:
    """Serving-tier knobs.

    Attributes
    ----------
    n_shards:
        Number of cache shards.  Users are assigned by stable hash; each
        shard's caches are mutated only under that shard's lock.
    max_queue_depth:
        Admission bound: requests arriving while this many are already
        pending are shed with :class:`BackpressureError`.
    max_batch_size:
        Flush when this many requests are pending (the batch cap).
    max_batch_wait_s:
        The longest a request waits for company: flush when the oldest
        pending request has waited this long, even if fewer requests are
        pending than the last flush drained.  Only a change in traffic (a
        fresh server, or fewer clients than last flush) waits it out.
    enroll_on_miss:
        Whether misses enrol the LLM's response in the user's cache.
    deterministic:
        Replay mode: :meth:`CacheServer.replay` runs each flush inline on
        the calling thread (no flush thread) and LLM requests are stamped
        with virtual event times — byte-exact parity with the simulator.
    """

    n_shards: int = 4
    max_queue_depth: int = 4096
    max_batch_size: int = 64
    max_batch_wait_s: float = 0.002
    enroll_on_miss: bool = True
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_batch_wait_s < 0:
            raise ValueError("max_batch_wait_s must be >= 0")


@dataclass
class ServerResponse:
    """What one served request resolves to."""

    user_id: str
    query: str
    hit: bool
    response: Optional[str]
    similarity: float = 0.0
    cache_overhead_s: float = 0.0
    llm_latency_s: float = 0.0
    cost_usd: float = 0.0
    queue_wait_s: float = 0.0
    batch_size: int = 1


@dataclass
class ServerMetrics:
    """Wall-clock serving metrics, aggregated across the server's lifetime."""

    completed: int = 0
    hits: int = 0
    llm_requests: int = 0
    shed: int = 0
    #: requests admitted and then failed by an exception inside their flush
    failed: int = 0
    #: flush size -> number of flushes of that size (at most
    #: ``max_batch_size`` keys in live mode, so memory stays bounded)
    flush_sizes: Dict[int, int] = field(default_factory=dict)
    #: why each flush fired -> count, one key per :data:`FLUSH_REASONS`; the
    #: counts sum to :attr:`flushes`
    flush_reasons: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FLUSH_REASONS, 0)
    )
    max_depth_seen: int = 0
    e2e_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: the frozen encoder's ``memo_stats()``, folded in each time the server
    #: thaws it: counters add up, ``rows``/``bytes`` are the last thaw's
    encoder_memo: Dict[str, int] = field(default_factory=dict)

    @property
    def flushes(self) -> int:
        """Flushes executed so far."""
        return sum(self.flush_sizes.values())

    @property
    def offered(self) -> int:
        """Requests that reached admission (served + failed + shed)."""
        return self.completed + self.failed + self.shed

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests shed by backpressure."""
        offered = self.offered
        return self.shed / offered if offered else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of completed requests served from a cache."""
        return self.hits / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Mean flush size (1.0 = no coalescing happened)."""
        flushes = self.flushes
        if not flushes:
            return 0.0
        requests = sum(size * count for size, count in self.flush_sizes.items())
        return float(requests) / flushes

    def record_flush(self, size: int, reason: str) -> None:
        """Count one flush of ``size`` requests, fired for ``reason``."""
        self.flush_sizes[size] = self.flush_sizes.get(size, 0) + 1
        self.flush_reasons[reason] += 1

    def record_thaw(self, stats: Dict[str, int]) -> None:
        """Fold in what the encoder's memo held and counted when thawed."""
        for key in ("hits", "misses", "evictions"):
            stats[key] += self.encoder_memo.get(key, 0)
        self.encoder_memo = stats

    def batch_size_histogram(self) -> Dict[int, int]:
        """Flush-size -> count histogram."""
        return dict(sorted(self.flush_sizes.items()))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary."""
        return {
            "completed": self.completed,
            "hits": self.hits,
            "llm_requests": self.llm_requests,
            "shed": self.shed,
            "failed": self.failed,
            "shed_rate": self.shed_rate,
            "hit_rate": self.hit_rate,
            "flushes": self.flushes,
            "flush_reasons": dict(self.flush_reasons),
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {
                str(k): v for k, v in self.batch_size_histogram().items()
            },
            "max_queue_depth_seen": self.max_depth_seen,
            "e2e_latency": self.e2e_latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            **{
                f"encoder_memo_{key}": self.encoder_memo.get(key, 0)
                for key in ("rows", "bytes", "hits", "misses", "evictions")
            },
        }


@dataclass
class _PendingRequest:
    """One admitted request waiting for (or inside) a flush."""

    #: the executor-facing arrival (a replayed trace event, or one built by
    #: :meth:`CacheServer.submit_threadsafe` stamped with the server clock)
    event: WorkloadEvent
    enqueued_at: float
    #: what the flush thread resolves (live mode; a replayed request has none)
    future: Optional["concurrent.futures.Future[ServerResponse]"] = None


class MicroBatcher:
    """The admission queue + flush policy, as a pure deterministic core.

    All time flows in through arguments (``now``), so the class is directly
    testable under arbitrary arrival/flush interleavings — the Hypothesis
    suite in ``tests/test_server_properties.py`` drives exactly this object.
    Invariants it maintains (and the tests assert):

    * pending depth never exceeds ``max_queue_depth``; an ``offer`` beyond
      the bound raises :class:`BackpressureError` and the request is never
      stored;
    * every admitted request is drained exactly once, in global FIFO offer
      order (which implies per-user FIFO);
    * :meth:`due` fires iff at least :attr:`flush_depth` requests are
      pending — ``max_batch_size``, or fewer if the last non-empty drain
      was smaller — or the oldest pending request has waited
      ``max_wait_s``; so no admitted request is due later than
      :meth:`next_deadline`.

    The depth target is read off the traffic: a closed loop of k clients
    drains k per flush, so after one flush that waits out the deadline the
    next fires the moment the k-th client is back, instead of idling until
    the oldest has aged ``max_wait_s``.

    The class is not thread-safe; the server only touches it under its
    condition (live mode) or from the replaying thread (deterministic mode).
    """

    def __init__(
        self, max_batch_size: int, max_wait_s: float, max_queue_depth: int
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_queue_depth = max_queue_depth
        self._pending: Deque[Tuple[float, object]] = deque()
        self.admitted = 0
        self.shed = 0
        self.drained = 0
        #: size of the last non-empty drain (``max_batch_size`` before any)
        self.target = max_batch_size

    @property
    def depth(self) -> int:
        """Number of pending (admitted, not yet drained) requests."""
        return len(self._pending)

    @property
    def flush_depth(self) -> int:
        """Pending depth at which a flush is due without waiting."""
        return min(self.max_batch_size, self.target)

    def offer(self, item: object, now: float) -> None:
        """Admit one request, or shed it with :class:`BackpressureError`."""
        if len(self._pending) >= self.max_queue_depth:
            self.shed += 1
            raise BackpressureError(len(self._pending), self.max_queue_depth)
        self._pending.append((float(now), item))
        self.admitted += 1

    def oldest_wait(self, now: float) -> float:
        """Seconds the oldest pending request has been waiting (0 if none)."""
        if not self._pending:
            return 0.0
        return max(0.0, float(now) - self._pending[0][0])

    def next_deadline(self) -> Optional[float]:
        """Absolute time at which the oldest pending request forces a flush."""
        if not self._pending:
            return None
        return self._pending[0][0] + self.max_wait_s

    def fire_reason(self, now: float) -> Optional[str]:
        """Why a flush should fire now (see :data:`FLUSH_REASONS`), or None."""
        if not self._pending:
            return None
        depth = len(self._pending)
        if depth >= self.max_batch_size:
            return "full"
        if depth >= self.target:
            return "target"
        # Compared against the deadline itself, so due(next_deadline()) holds
        # exactly and the flush thread never wakes a rounding error early.
        if now >= self._pending[0][0] + self.max_wait_s:
            return "deadline"
        return None

    def due(self, now: float) -> bool:
        """Whether a flush should fire now (target depth reached, or oldest aged out)."""
        return self.fire_reason(now) is not None

    def drain(self, limit: Optional[int] = None) -> List[object]:
        """Pop up to ``limit`` requests in FIFO order (``None`` = all).

        The default live flush passes ``max_batch_size``; the deterministic
        replay drains a whole virtual window in one call so window grouping
        matches the simulator's exactly.  A non-empty drain's size becomes
        the depth :meth:`due` next waits for.
        """
        if limit is None:
            limit = len(self._pending)
        batch = [self._pending.popleft()[1] for _ in range(min(limit, len(self._pending)))]
        self.drained += len(batch)
        if batch:
            self.target = len(batch)
        return batch


class _Shard:
    """One shard: a lock plus the executor owning its users' caches."""

    def __init__(self, executor: BatchExecutor, name: str = "shard") -> None:
        self.lock = maybe_tracked_lock(name)
        self.executor = executor


class CacheServer:
    """Cache service over hash-sharded per-user caches.

    Deterministic replay (and unit tests) needs no thread: :meth:`replay`
    drives the micro-batcher and shards inline.  Live use is
    :meth:`start` → :meth:`submit_threadsafe` from any number of client
    threads → :meth:`stop`: the server owns one daemon flush thread and
    nothing else.  Callers inside an event loop use the same server through
    ``await server.serve()`` / ``await server.submit(...)`` / ``await
    server.shutdown()``, which wrap the three calls above.
    """

    def __init__(
        self,
        cache_factory: Callable[[str], object],
        service: Optional[SimulatedLLMService] = None,
        config: Optional[ServerConfig] = None,
        encoder=None,
        compress: bool = False,
        adaptation: Optional[object] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """``cache_factory(user_id)`` supplies each user's cache instance.

        ``encoder`` (with ``compress`` matching the caches' config) enables
        the cross-user batched embed; without it each cache embeds its own
        flush slice.  ``service`` defaults to a thread-safe
        :class:`SimulatedLLMService` stamping requests on ``clock``.
        ``adaptation`` hooks the online federated loop exactly as in the
        simulator (advance fires after each flush on the flush's max event
        time).
        """
        self.config = config or ServerConfig()
        self.clock = clock
        if service is None:
            service = SimulatedLLMService(clock=clock, thread_safe=True)
        self.service = service
        self.encoder = encoder
        self.compress = compress
        self.adaptation = adaptation
        self.metrics = ServerMetrics()
        self._factory = cache_factory
        self._shards = [
            _Shard(
                BatchExecutor(
                    cache_factory=cache_factory,
                    service=service,
                    enroll_on_miss=self.config.enroll_on_miss,
                    adaptation=adaptation,
                    stamp_event_time=self.config.deterministic,
                ),
                name=f"shard[{i}]",
            )
            for i in range(self.config.n_shards)
        ]
        self._registry_lock = maybe_tracked_lock("server.registry")
        self._user_shard: Dict[str, int] = {}
        self._cache_shard: Dict[int, int] = {}
        self._batcher = MicroBatcher(
            self.config.max_batch_size,
            self.config.max_batch_wait_s,
            self.config.max_queue_depth,
        )
        #: guards ``_batcher`` and ``_running`` while live; the flush thread
        #: sleeps on it and admission wakes it
        self._wake = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._running = False

    # ------------------------------------------------------------------ #
    # Shard registry
    # ------------------------------------------------------------------ #
    def shard_of(self, user_id: str) -> int:
        """The shard index serving ``user_id`` (stable CRC32 hash).

        A user whose cache object is shared with users already living on
        another shard is re-homed onto that shard: one cache object is only
        ever touched under one shard lock.
        """
        shard = self._user_shard.get(user_id)
        if shard is not None:
            return shard
        with self._registry_lock:
            shard = self._user_shard.get(user_id)
            if shard is not None:
                return shard
            cache = self._factory(user_id)
            owner = self._cache_shard.get(id(cache))
            if owner is None:
                owner = zlib.crc32(user_id.encode("utf-8")) % self.config.n_shards
                self._cache_shard[id(cache)] = owner
            self._user_shard[user_id] = owner
            self._shards[owner].executor.register(user_id, cache)
            # Under REPRO_DEBUG_CONCURRENCY=1 the cache's index raises if
            # mutated without this shard's lock held (no-op otherwise).
            guard_cache(cache, self._shards[owner].lock, f"shard[{owner}].cache")
            return owner

    @property
    def n_users(self) -> int:
        """Users registered so far."""
        return len(self._user_shard)

    def cache_for(self, user_id: str):
        """The (possibly shared) cache object serving ``user_id``."""
        shard = self.shard_of(user_id)
        return self._shards[shard].executor.adapters[user_id].cache

    def storage_report(self) -> Dict[str, object]:
        """Server-wide bytes-vs-hit-rate accounting over every live cache.

        Covers every shard-local cache, each distinct cache object counted
        once; tiered caches contribute their per-tier breakdown (a shared
        quantized tier counted once) — see
        :func:`repro.serving.scheduling.storage_report`.
        """
        return storage_report(
            adapter.cache
            for shard in self._shards
            for adapter in shard.executor.adapters.values()
        )

    # ------------------------------------------------------------------ #
    # Flush execution (shared by live + deterministic paths)
    # ------------------------------------------------------------------ #
    def _embed_flush(self, requests: Sequence[_PendingRequest]) -> Optional[np.ndarray]:
        """One cross-user encoder call for the whole flush (or None)."""
        if self.encoder is None:
            return None
        embs = self.encoder.encode(
            [r.event.query for r in requests], compress=self.compress
        )
        return np.atleast_2d(np.asarray(embs, dtype=np.float64))

    def _freeze_encoder(self) -> None:
        """The encoder's weights do not change while this server serves."""
        if self.encoder is not None:
            self.encoder.freeze()

    def _thaw_encoder(self) -> None:
        """Hand the encoder back writable, keeping what its memo counted."""
        if self.encoder is not None:
            self.metrics.record_thaw(self.encoder.unfreeze())

    def _classify_flush(
        self, requests: List[_PendingRequest]
    ) -> List[Tuple[_PendingRequest, LookupOutcome]]:
        """Group a flush by shard and execute it in four steps.

        (a) Each shard slice runs its lookups under its shard lock; a tiered
        cache's L1 misses are held back.  (b) The held-back probes of the
        whole flush are answered in arrival order by one batched match per
        shared tier, under the tier's lock alone.  (c) Every tiered cache
        with a held-back probe serves its matches and applies its
        promotions under its shard lock, caches in the order of their
        earliest probe (:func:`~repro.core.tiered.serve_probes`, the
        simulator's order too).  (d) Each slice, under its shard lock again,
        forwards its misses and enrols (:meth:`BatchExecutor.execute`);
        each cache it touched then does its own share of the deferred
        upkeep.  So every lookup and promotion of the flush completes
        before any of its misses enrols, across shards as within one.

        Slices run sequentially on the calling thread: flushes execute one
        at a time anyway — per-user FIFO depends on it — and with the GIL
        over NumPy-bound work, fanning the slices out to more threads buys
        nothing.  Cross-request amortization comes from the single
        flush-wide encoder call and tier match, not from shard parallelism.
        """
        events = [r.event for r in requests]
        embeddings = self._embed_flush(requests)
        by_shard: Dict[int, List[int]] = {}
        for i, event in enumerate(events):
            by_shard.setdefault(self.shard_of(event.user_id), []).append(i)
        slices = []
        held: List[Tuple[int, TierProbe]] = []
        shard_of_cache: Dict[int, _Shard] = {}
        for shard_idx, rows in by_shard.items():
            shard = self._shards[shard_idx]
            shard_events = [events[i] for i in rows]
            shard_embs = (
                embeddings[np.asarray(rows)] if embeddings is not None else None
            )
            with shard.lock:
                probes = shard.executor.lookup(shard_events, embeddings=shard_embs)
            for i, probe in probes:
                held.append((rows[i], probe))
                shard_of_cache[id(probe.cache)] = shard
            slices.append((shard, rows, shard_events, shard_embs))
        held.sort(key=lambda pair: pair[0])
        probes = [probe for _, probe in held]
        match_probes(probes)
        serve_probes(probes, lambda cache: shard_of_cache[id(cache)].lock)
        results: List[Optional[LookupOutcome]] = [None] * len(requests)
        tiers: Dict[int, object] = {}
        for shard, rows, shard_events, shard_embs in slices:
            with shard.lock:
                outcomes = shard.executor.execute(shard_events, embeddings=shard_embs)
                for tier in shard.executor.maintenance():
                    tiers[id(tier)] = tier
            for i, outcome in zip(rows, outcomes):
                results[i] = outcome
        # Every slice has committed its tier mutations; each shared tier's
        # own upkeep (index maintenance, compaction when due) runs once for
        # the flush, before any of its responses goes out.  The pass touches
        # no executor state, so any shard's executor serves.
        for tier in tiers.values():
            with tier.lock:
                self._shards[0].executor.maintenance([tier])
        if self.adaptation is not None and events:
            self._advance_adaptation(max(e.time_s for e in events))
        return [(request, results[i]) for i, request in enumerate(requests)]

    def _advance_adaptation(self, now_s: float) -> None:
        """Fire adaptation rounds after a flush (serialized across shards)."""
        with self._registry_lock:
            self.adaptation.advance(now_s)

    def _record(
        self,
        request: _PendingRequest,
        outcome: LookupOutcome,
        batch_size: int,
        drained_at: float,
    ) -> ServerResponse:
        """Fold one flush result into the metrics and build the response."""
        queue_wait = max(0.0, drained_at - request.enqueued_at)
        self.metrics.completed += 1
        self.metrics.hits += int(outcome.hit)
        self.metrics.llm_requests += int(not outcome.hit)
        self.metrics.queue_wait.record(int(queue_wait * 1e9))
        return ServerResponse(
            user_id=request.event.user_id,
            query=request.event.query,
            hit=outcome.hit,
            response=outcome.response,
            similarity=outcome.similarity,
            cache_overhead_s=outcome.cache_overhead_s,
            llm_latency_s=outcome.llm_latency_s,
            cost_usd=outcome.cost_usd,
            queue_wait_s=queue_wait,
            batch_size=batch_size,
        )

    # ------------------------------------------------------------------ #
    # Deterministic replay (single-worker mode)
    # ------------------------------------------------------------------ #
    def replay(
        self,
        trace: Trace,
        batch_window_s: float = 0.25,
        collect_outcomes: bool = False,
    ) -> FleetResult:
        """Replay a trace synchronously through the full serving path.

        Events are offered to the admission queue window by window (the
        same virtual-time windows the simulator schedules) and each window
        drains as one flush, so per-event decisions are byte-identical to
        :meth:`FleetSimulator.run` on the same trace — the parity pin.
        Requires ``deterministic=True`` in the config (single worker,
        virtual time stamps).  Events shed by the admission bound appear in
        no aggregate except ``metrics.shed`` (size the queue generously when
        parity matters).
        """
        if not self.config.deterministic:
            raise ValueError("replay requires ServerConfig(deterministic=True)")

        def step(window: List[WorkloadEvent]) -> List[LookupOutcome]:
            requests: List[_PendingRequest] = []
            for event in window:
                request = _PendingRequest(event=event, enqueued_at=event.time_s)
                try:
                    self._batcher.offer(request, now=event.time_s)
                except BackpressureError:
                    self.metrics.shed += 1
                    continue
                requests.append(request)
            drained = self._batcher.drain(limit=None)
            assert drained == requests
            if not drained:
                return []
            # A replayed window drains when its virtual window closes.
            self.metrics.record_flush(len(drained), "deadline")
            outcomes: List[LookupOutcome] = []
            for request, outcome in self._classify_flush(drained):
                self._record(request, outcome, len(drained), request.enqueued_at)
                outcomes.append(outcome)
            return outcomes

        self._freeze_encoder()
        try:
            return replay_windows(trace, batch_window_s, step, collect_outcomes)
        finally:
            self._thaw_encoder()

    # ------------------------------------------------------------------ #
    # Live serving: one flush thread, one condition
    # ------------------------------------------------------------------ #
    def submit_threadsafe(
        self,
        user_id: str,
        query: str,
        context: Sequence[str] = (),
        intent_key: str = "",
    ) -> "concurrent.futures.Future[ServerResponse]":
        """Admit one request from any thread; the future is its flushed result.

        A request arriving while the admission queue is at its bound is shed,
        not queued: its future is already failed with
        :class:`BackpressureError` when this returns.  Raises
        ``RuntimeError`` when the server is not running (before
        :meth:`start`, or once :meth:`stop` began).
        """
        now = self.clock()
        future: "concurrent.futures.Future[ServerResponse]" = concurrent.futures.Future()
        event = WorkloadEvent(
            time_s=now,
            user_id=user_id,
            query=query,
            context=tuple(context),
            intent_key=intent_key,
        )
        request = _PendingRequest(event=event, enqueued_at=now, future=future)
        with self._wake:
            # Tested under the condition the flush thread's exit test holds:
            # whatever is admitted here is drained before the thread returns.
            if not self._running:
                raise RuntimeError("server is not running; call start() first")
            try:
                self._batcher.offer(request, now=now)
            except BackpressureError as exc:
                self.metrics.shed += 1
                future.set_exception(exc)
                return future
            depth = self._batcher.depth
            self.metrics.max_depth_seen = max(self.metrics.max_depth_seen, depth)
            # The thread sleeps untimed on an empty queue and until the oldest
            # request's deadline otherwise; only the first arrival and the one
            # that brings the queue to the flush depth change when it must wake.
            if depth == 1 or depth >= self._batcher.flush_depth:
                self._wake.notify()
        return future

    def _flush_loop(self) -> None:
        """The flush thread: wait until a flush is due, drain, execute, repeat.

        Returns once :meth:`stop` cleared ``_running`` and the queue is empty;
        after stop began nothing more will coalesce, so it drains at once.
        An exception that escapes a flush kills the thread, so on the way
        out it stops admitting and fails every future it still owed — the
        unresolved rest of its batch and everything queued — with that
        exception: no client waits on a thread that is gone.
        """
        batch: List[_PendingRequest] = []
        try:
            while True:
                with self._wake:
                    while (
                        reason := self._batcher.fire_reason(now := self.clock())
                    ) is None and self._running:
                        deadline = self._batcher.next_deadline()
                        self._wake.wait(None if deadline is None else deadline - now)
                    batch = self._batcher.drain(limit=self.config.max_batch_size)
                if not batch:
                    return
                self._flush(batch, reason or "stop")
        except BaseException as exc:
            with self._wake:
                self._running = False
                owed = batch + self._batcher.drain(limit=None)
            for request in owed:
                if not request.future.done():
                    self.metrics.failed += 1
                    request.future.set_exception(exc)
            raise
        finally:
            self._thaw_encoder()

    def _flush(self, drained: List[_PendingRequest], reason: str) -> None:
        """Execute one drained batch (fired for ``reason``), resolve its futures.

        A future its client cancelled while it was queued is dropped here
        instead of breaking the batch.  A failure inside the flush (an
        encoder, cache or LLM exception) is contained to this batch: its
        futures fail with the exception, one warning is logged, and the flush
        loop keeps serving later requests.  Anything that is not an
        ``Exception`` fails the futures too, then propagates.
        """
        drained_at = self.clock()
        batch = [r for r in drained if r.future.set_running_or_notify_cancel()]
        if not batch:
            return
        self.metrics.record_flush(len(batch), reason)
        try:
            pairs = self._classify_flush(batch)
        except BaseException as exc:
            # Fail the waiters either way: no client may hang on a flush
            # that will never resolve.
            self.metrics.failed += len(batch)
            for request in batch:
                request.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            logger.warning(
                "flush of %d request(s) failed; failing that batch only",
                len(batch),
                exc_info=True,
            )
            return
        resolved_at = self.clock()
        for request, outcome in pairs:
            response = self._record(request, outcome, len(batch), drained_at)
            self.metrics.e2e_latency.record(int((resolved_at - request.enqueued_at) * 1e9))
            request.future.set_result(response)

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> None:
        """Start the flush thread; the encoder stays frozen while it lives.

        Client threads then call :meth:`submit_threadsafe`.  Pair with
        :meth:`stop`.
        """
        with self._wake:
            if self._thread is not None:
                raise RuntimeError("server already started")
            self._freeze_encoder()
            self._running = True
            self._thread = threading.Thread(
                target=self._flush_loop, name="cache-server-flush", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Refuse new requests, serve everything already admitted, join.

        If the flush thread is still draining after ``timeout`` seconds a
        warning is logged and the server stays stopped-but-unjoined (the
        encoder still frozen): call :meth:`stop` again to finish the join.
        """
        with self._wake:
            self._running = False
            self._wake.notify()
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout=timeout)
        if thread.is_alive():
            logger.warning(
                "flush thread still draining after %.1f s; call stop() again", timeout
            )
            return
        self._thread = None

    # -- the same server for callers inside an event loop --------------- #
    async def serve(self) -> None:
        """:meth:`start`, for callers inside an event loop."""
        self.start()

    async def submit(
        self,
        user_id: str,
        query: str,
        context: Sequence[str] = (),
        intent_key: str = "",
    ) -> ServerResponse:
        """:meth:`submit_threadsafe`, awaited (shed → :class:`BackpressureError`)."""
        return await asyncio.wrap_future(
            self.submit_threadsafe(user_id, query, context, intent_key)
        )

    async def shutdown(self) -> None:
        """:meth:`stop`, off-loaded so the caller's loop keeps running."""
        await asyncio.to_thread(self.stop)
