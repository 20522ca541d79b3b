"""The real-concurrency serving tier: an asyncio semantic-cache service.

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
  flush: the batcher fires when ``max_batch_size`` requests are pending or
  the oldest has waited ``max_batch_wait_s``, whichever comes first.  A
  flush is embedded with **one** cross-user encoder call (the dominant
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

Live wall-clock serving runs on an asyncio event loop (started in-thread or
via :meth:`start` on a dedicated daemon thread) with flush execution on a
small thread pool; ``experiments/serving_bench.py`` drives it from real
client threads and lands the numbers in ``BENCH_serving.json``.
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
from repro.llm.service import SimulatedLLMService
from repro.metrics.timing import LatencyHistogram
from repro.serving.fleet import FleetResult, replay_windows
from repro.serving.scheduling import BatchExecutor, LookupOutcome, storage_report
from repro.serving.workload import Trace, WorkloadEvent

logger = logging.getLogger(__name__)


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
        Flush when the oldest pending request has waited this long, even if
        the batch is not full (the latency bound on coalescing).
    enroll_on_miss:
        Whether misses enrol the LLM's response in the user's cache.
    deterministic:
        Single-worker mode: flush execution runs inline on the calling
        thread (no pool, no cross-shard parallelism) and LLM requests are
        stamped with virtual event times — the mode :meth:`CacheServer.replay`
        uses for byte-exact parity with the simulator.
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
    #: flush size -> number of flushes of that size (at most
    #: ``max_batch_size`` keys in live mode, so memory stays bounded)
    flush_sizes: Dict[int, int] = field(default_factory=dict)
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
        """Requests that reached admission (served + shed)."""
        return self.completed + self.shed

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

    def record_flush(self, size: int) -> None:
        """Count one flush of ``size`` requests."""
        self.flush_sizes[size] = self.flush_sizes.get(size, 0) + 1

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
            "shed_rate": self.shed_rate,
            "hit_rate": self.hit_rate,
            "flushes": self.flushes,
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
    #: :meth:`CacheServer.submit` stamped with the server clock)
    event: WorkloadEvent
    enqueued_at: float
    future: Optional[asyncio.Future] = None


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
    * :meth:`due` fires iff the batch is full or the oldest pending request
      has waited ``max_wait_s``.

    The class is not thread-safe; the server only touches it from its event
    loop (live mode) or the replaying thread (deterministic mode).
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

    @property
    def depth(self) -> int:
        """Number of pending (admitted, not yet drained) requests."""
        return len(self._pending)

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

    def due(self, now: float) -> bool:
        """Whether a flush should fire now (batch full, or oldest aged out)."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch_size:
            return True
        return self.oldest_wait(now) >= self.max_wait_s

    def drain(self, limit: Optional[int] = None) -> List[object]:
        """Pop up to ``limit`` requests in FIFO order (``None`` = all).

        The default live flush passes ``max_batch_size``; the deterministic
        replay drains a whole virtual window in one call so window grouping
        matches the simulator's exactly.
        """
        if limit is None:
            limit = len(self._pending)
        batch = [self._pending.popleft()[1] for _ in range(min(limit, len(self._pending)))]
        self.drained += len(batch)
        return batch


class _Shard:
    """One shard: a lock plus the executor owning its users' caches."""

    def __init__(self, executor: BatchExecutor, name: str = "shard") -> None:
        self.lock = maybe_tracked_lock(name)
        self.executor = executor


class CacheServer:
    """Asyncio cache service over hash-sharded per-user caches.

    Synchronous single-worker use (deterministic replay, unit tests) needs
    no event loop: :meth:`replay` drives the micro-batcher and shards
    inline.  Live use either runs inside an existing loop (``await
    server.submit(...)`` with ``async with server.serving()``), or lets the
    server own a loop on a daemon thread (:meth:`start` / :meth:`stop`) and
    drives it from real client threads via :meth:`submit_threadsafe` — the
    load generator's mode.
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
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._arrival: Optional[asyncio.Event] = None
        self._stop_requested: Optional[asyncio.Event] = None
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

    def _run_shard(
        self,
        shard: _Shard,
        events: List[WorkloadEvent],
        embeddings: Optional[np.ndarray],
    ) -> List[LookupOutcome]:
        """Execute one shard's slice of a flush under the shard lock.

        Deferred index maintenance for the caches the slice touched runs
        under the same lock, after the slice's lookups and enrolments.
        """
        with shard.lock:
            outcomes = shard.executor.execute(events, embeddings=embeddings)
            shard.executor.maintenance()
            return outcomes

    def _classify_flush(
        self, requests: List[_PendingRequest]
    ) -> List[Tuple[_PendingRequest, LookupOutcome]]:
        """Group a flush by shard, execute each slice, restore input order.

        Shard slices run sequentially on the calling thread (each under its
        shard lock): flushes execute one at a time anyway — per-user FIFO
        depends on it — and with the GIL over NumPy-bound work, fanning the
        slices out to more threads buys nothing while risking pool
        starvation (this method already runs *on* the worker pool in live
        mode).  Cross-request amortization comes from the single flush-wide
        encoder call, not from shard parallelism.
        """
        events = [r.event for r in requests]
        embeddings = self._embed_flush(requests)
        by_shard: Dict[int, List[int]] = {}
        for i, event in enumerate(events):
            by_shard.setdefault(self.shard_of(event.user_id), []).append(i)
        results: List[Optional[LookupOutcome]] = [None] * len(requests)
        for shard_idx, rows in by_shard.items():
            shard_events = [events[i] for i in rows]
            shard_embs = (
                embeddings[np.asarray(rows)] if embeddings is not None else None
            )
            outcomes = self._run_shard(self._shards[shard_idx], shard_events, shard_embs)
            for i, outcome in zip(rows, outcomes):
                results[i] = outcome
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
            self.metrics.record_flush(len(drained))
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
    # Live asyncio serving
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        user_id: str,
        query: str,
        context: Sequence[str] = (),
        intent_key: str = "",
    ) -> ServerResponse:
        """Admit one request and await its flushed result.

        Raises :class:`BackpressureError` immediately when the admission
        queue is at its bound (the request is shed, not queued).
        """
        if self._loop is None:
            raise RuntimeError("server is not running; call start() or serve()")
        now = self.clock()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        event = WorkloadEvent(
            time_s=now,
            user_id=user_id,
            query=query,
            context=tuple(context),
            intent_key=intent_key,
        )
        request = _PendingRequest(event=event, enqueued_at=now, future=future)
        try:
            self._batcher.offer(request, now=now)
        except BackpressureError:
            self.metrics.shed += 1
            raise
        self.metrics.max_depth_seen = max(
            self.metrics.max_depth_seen, self._batcher.depth
        )
        if self._arrival is not None:
            self._arrival.set()
        response = await future
        self.metrics.e2e_latency.record(int((self.clock() - now) * 1e9))
        return response

    def submit_threadsafe(
        self, user_id: str, query: str, context: Sequence[str] = ()
    ) -> "concurrent.futures.Future[ServerResponse]":
        """Submit from any thread into the server's own loop (see start())."""
        if self._loop is None:
            raise RuntimeError("server is not running; call start() first")
        return asyncio.run_coroutine_threadsafe(
            self.submit(user_id, query, context), self._loop
        )

    async def _flush(self, batch: List[_PendingRequest]) -> None:
        """Execute one drained batch and resolve its futures.

        A failure inside the flush (an encoder, cache or LLM exception) is
        contained to this batch: its futures fail with the exception, one
        warning is logged, and the batch loop keeps serving later requests.
        Cancellation is not an ``Exception``: it fails the futures too, then
        propagates.
        """
        drained_at = self.clock()
        self.metrics.record_flush(len(batch))
        loop = asyncio.get_running_loop()
        try:
            if self._pool is not None and not self.config.deterministic:
                pairs = await loop.run_in_executor(
                    self._pool, self._classify_flush, batch
                )
            else:
                pairs = self._classify_flush(batch)
        except BaseException as exc:
            # Fail the waiters either way: no submit() may hang on a flush
            # that will never resolve.
            for request in batch:
                if request.future is not None and not request.future.done():
                    request.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            logger.warning(
                "flush of %d request(s) failed; failing that batch only",
                len(batch),
                exc_info=True,
            )
            return
        for request, outcome in pairs:
            response = self._record(request, outcome, len(batch), drained_at)
            if request.future is not None and not request.future.done():
                request.future.set_result(response)

    async def _batch_loop(self) -> None:
        """Coalesce pending requests into flushes (max-batch or max-wait)."""
        assert self._arrival is not None
        while self._running or self._batcher.depth:
            if self._batcher.depth == 0:
                self._arrival.clear()
                if not self._running:
                    break
                try:
                    await asyncio.wait_for(self._arrival.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    continue
            now = self.clock()
            # Once shutdown began, drain at once: nothing more will coalesce.
            if self._running and not self._batcher.due(now):
                deadline = self._batcher.next_deadline()
                delay = max(0.0, (deadline or now) - now)
                self._arrival.clear()
                try:
                    # Wake early on new arrivals (the batch may fill before
                    # the oldest request ages out).
                    await asyncio.wait_for(self._arrival.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
                if not self._batcher.due(self.clock()) and self._running:
                    continue
            batch = self._batcher.drain(limit=self.config.max_batch_size)
            if batch:
                await self._flush(batch)

    # -- lifecycle ------------------------------------------------------ #
    async def serve(self) -> None:
        """Start serving inside the *current* event loop (async context)."""
        if self._running:
            return
        self._loop = asyncio.get_running_loop()
        self._arrival = asyncio.Event()
        if not self.config.deterministic:
            # One worker: flushes execute sequentially (per-user FIFO
            # requires it) while the event loop stays free to admit
            # arrivals — which is what fills the next batch.
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="cache-server"
            )
        self._freeze_encoder()
        self._running = True
        self._batch_task = asyncio.get_running_loop().create_task(self._batch_loop())

    async def shutdown(self) -> None:
        """Drain pending requests, stop the batch loop, release the pool.

        The only place that clears ``_running``: the batch loop keeps
        flushing until the queue is empty, and it is awaited here.
        """
        if not self._running:
            return
        self._running = False
        try:
            if self._arrival is not None:
                self._arrival.set()
            if self._batch_task is not None:
                await self._batch_task
                self._batch_task = None
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self._loop = None
        finally:
            self._thaw_encoder()

    def start(self) -> None:
        """Run the server's event loop on a dedicated daemon thread.

        The load-generator mode: real client threads then call
        :meth:`submit_threadsafe`.  Pair with :meth:`stop`.
        """
        if self._loop_thread is not None:
            raise RuntimeError("server already started")
        ready = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def _main() -> None:
                await self.serve()
                self._stop_requested = asyncio.Event()
                ready.set()
                await self._stop_requested.wait()
                await self.shutdown()

            loop.run_until_complete(_main())
            loop.close()

        self._loop_thread = threading.Thread(
            target=_run, name="cache-server-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`start`-ed server, draining pending requests."""
        if self._loop_thread is None:
            return
        if self._loop is not None and self._stop_requested is not None:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._loop_thread.join(timeout=timeout)
        self._loop_thread = None
