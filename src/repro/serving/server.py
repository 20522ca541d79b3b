"""The serving tier: one flush, driven live or replayed from a trace.

:class:`CacheServer` serves the federated-cache stack under *real*
concurrent load, and replays traces through the same flush on the trace's
own timestamps (:meth:`CacheServer.replay`); it checkpoints its caches to disk and
warm-starts from them (:meth:`CacheServer.checkpoint` /
:meth:`CacheServer.restore`):

* **Hash-sharded per-user caches.**  Users hash (stable CRC32) onto
  ``n_shards`` shards; each shard owns its users' caches behind one
  ``threading.Lock``, so index mutation is serialized per shard while a
  flush's lookups run across shards.  A ``cache_factory`` returning one
  shared object (a central cache in ``GPTCACHE_CONFIG``) is detected by object identity and
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

Inside a flush, all lookups complete before any enrolment, across shards
as within one, and cache state holds no time.  Replaying a trace through
:meth:`CacheServer.replay` (synchronous, on the calling thread) therefore
decides and stores the same at every shard count — ``tests/test_serving_parity.py`` and
``tests/test_serving_parity_properties.py`` pin every shard count to the
one-shard replay.

The server has one clock, its admission clock (``clock``, default
``time.monotonic``): it stamps each live request's submit time, which cuts
micro-batches and is the ``now`` the LLM service sees.  A replayed
request's time is its trace time.

Live serving runs on one daemon flush thread
(:meth:`CacheServer.start` / :meth:`CacheServer.stop`) sleeping on the one
``threading.Condition`` that guards the admission queue: client threads offer
requests under it, the thread executes one flush at a time and resolves the
futures itself.  Each flush runs under the server's flush lock, which
:meth:`CacheServer.checkpoint` also takes, so a live checkpoint is a cut
between two flushes.  The coroutine API (``serve`` / ``submit`` /
``shutdown``) wraps the threaded one.  ``experiments/serving_bench.py`` drives the server
from real client threads and lands the numbers in ``BENCH_serving.json``.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import logging
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.runtime import guard_cache, maybe_tracked_lock
from repro.core.cache import CacheDecision
from repro.core.tiered import TierProbe, match_probes, serve_probes
from repro.core.validation import require_context_texts
from repro.index.snapshot import (
    SnapshotError,
    atomic_snapshot_dir,
    read_manifest,
    write_manifest,
)
from repro.llm.service import SimulatedLLMService
from repro.metrics.timing import LatencyHistogram
from repro.serving.scheduling import (
    BatchExecutor,
    CacheAdapter,
    FleetResult,
    LookupOutcome,
    UserStats,
    iter_windows,
    storage_report,
)
from repro.serving.workload import Trace, WorkloadEvent

logger = logging.getLogger(__name__)

#: Snapshot format tag / version of :meth:`CacheServer.checkpoint` directories.
FLEET_FORMAT = "repro-fleet"
FLEET_VERSION = 1

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
        Admission bound on live traffic: requests arriving while this many
        are already pending are shed with :class:`BackpressureError`.  A
        replay never sheds.
    max_batch_size:
        Flush when this many requests are pending (the batch cap).
    max_batch_wait_s:
        The longest a request waits for company: flush when the oldest
        pending request has waited this long, even if fewer requests are
        pending than the last flush drained.  Only a change in traffic (a
        fresh server, or fewer clients than last flush) waits it out.
    """

    n_shards: int = 4
    max_queue_depth: int = 4096
    max_batch_size: int = 64
    max_batch_wait_s: float = 0.002

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
    condition.  A replay does not use it: each trace window is one flush.
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

        The live flush passes ``max_batch_size``; a failing flush thread
        drains the rest.  A non-empty drain's size becomes the depth
        :meth:`due` next waits for.
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
        :class:`SimulatedLLMService`.  ``clock`` is the admission clock:
        live requests are stamped with their submit time on it.
        ``adaptation`` hooks the online federated loop (advance fires
        after each flush on the flush's max event time).
        """
        self.config = config or ServerConfig()
        self.clock = clock
        if service is None:
            service = SimulatedLLMService(thread_safe=True)
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
                    adaptation=adaptation,
                ),
                name=f"shard[{i}]",
            )
            for i in range(self.config.n_shards)
        ]
        self._registry_lock = maybe_tracked_lock("server.registry")
        #: held around each flush's execution and by :meth:`checkpoint`
        self._flush_lock = maybe_tracked_lock("server.flush")
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
            return self._place(user_id, self._factory(user_id))

    def register(self, user_id: str, cache) -> int:
        """Serve a user not served yet from ``cache`` (e.g. one loaded from
        a checkpoint) instead of the factory's; returns the user's shard,
        chosen as :meth:`shard_of` chooses it."""
        with self._registry_lock:
            return self._place(user_id, cache)

    def _place(self, user_id: str, cache) -> int:
        """Home ``user_id`` and ``cache`` on a shard (registry lock held)."""
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

    @property
    def adapters(self) -> Dict[str, CacheAdapter]:
        """User id → cache adapter of every user served so far, shard by shard."""
        return {
            user_id: adapter
            for shard in self._shards
            for user_id, adapter in shard.executor.adapters.items()
        }

    def storage_report(self) -> Dict[str, object]:
        """Server-wide bytes-vs-hit-rate accounting over every live cache.

        Covers every shard-local cache, each distinct cache object counted
        once; tiered caches contribute their per-tier breakdown (a shared
        quantized tier counted once) — see
        :func:`repro.serving.scheduling.storage_report`.  Like
        :meth:`checkpoint`, it reads the caches between two flushes.
        """
        with self._flush_lock:
            with self._registry_lock:
                adapters = self.adapters
            return storage_report(adapter.cache for adapter in adapters.values())

    # ------------------------------------------------------------------ #
    # Checkpoint / warm-start
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: "str | Path") -> Path:
        """Snapshot every live cache so a later server can warm-start from it.

        Each distinct cache *object* is saved once (a shared central cache
        produces one snapshot no matter how many users route to it) via its
        ``save(path)`` method, and the manifest maps user ids to snapshot
        subdirectories.  A cache without a ``save`` method (a caller's own
        cache type: ``MeanCache`` and ``TieredCache`` both have one) raises
        :class:`~repro.index.SnapshotError`.

        The whole checkpoint directory is staged and published atomically
        (one ``os.replace``): a crash mid-checkpoint over a previous
        checkpoint leaves the old generation intact, and snapshots for
        users the server no longer serves cannot leak into the new one.

        On a live server the checkpoint is a cut between two flushes: it
        holds the flush lock throughout and saves each cache under its
        shard's lock.  Admission goes on meanwhile; what arrives waits for
        the next flush.  A failing ``save`` raises here, to the caller.
        """
        path = Path(path)
        with self._flush_lock:
            with self._registry_lock:
                adapters = self.adapters
            key_of_cache: Dict[int, str] = {}
            users: Dict[str, str] = {}
            with atomic_snapshot_dir(path) as stage:
                for user_id, adapter in adapters.items():
                    key = key_of_cache.get(id(adapter.cache))
                    if key is None:
                        key = f"cache_{len(key_of_cache)}"
                        saver = getattr(adapter.cache, "save", None)
                        if saver is None:
                            raise SnapshotError(
                                f"cache for user {user_id!r} "
                                f"({type(adapter.cache).__name__}) has no save() method"
                            )
                        with self._lock_of(adapter.cache):
                            saver(stage / key)
                        key_of_cache[id(adapter.cache)] = key
                    users[user_id] = key
                write_manifest(
                    stage,
                    {"format": FLEET_FORMAT, "version": FLEET_VERSION, "users": users},
                )
            # A cache that keeps a delta log where its snapshot just landed (a
            # restored tiered cache checkpointed in place) rebases it.
            for adapter in adapters.values():
                published_at = getattr(adapter.cache, "published_at", None)
                if published_at is not None:
                    with self._lock_of(adapter.cache):
                        published_at(path / key_of_cache[id(adapter.cache)])
        return path

    def restore(self, path: "str | Path", loader: Callable[[Path], object]) -> None:
        """Warm-start from a :meth:`checkpoint` directory.

        ``loader(snapshot_dir)`` rebuilds one cache instance — e.g.
        ``lambda p: MeanCache.load(p, encoder)``.  Each snapshot is loaded
        once and shared by every user the manifest maps to it, so a
        checkpointed central cache stays central.  Each restored user is
        :meth:`register`-ed, so restore before serving them; users not in
        the checkpoint keep going through ``cache_factory`` on first use.
        """
        path = Path(path)
        manifest = read_manifest(path, FLEET_FORMAT, FLEET_VERSION)
        users = manifest.get("users")
        if not isinstance(users, dict):
            raise SnapshotError(f"fleet checkpoint at {path} has a corrupted user map")
        cache_of_key = {key: loader(path / key) for key in sorted(set(users.values()))}
        for user_id, key in users.items():
            self.register(user_id, cache_of_key[key])

    def _lock_of(self, cache):
        """The lock of the shard that owns ``cache``."""
        return self._shards[self._cache_shard[id(cache)]].lock

    # ------------------------------------------------------------------ #
    # Flush execution (shared by live serving and replay)
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
        earliest probe (:func:`~repro.core.tiered.serve_probes`).  (d) The
        flush's misses go to the LLM and enrol in arrival order, each run
        of consecutive same-shard events under its shard's lock
        (:meth:`BatchExecutor.execute`, with the decisions from (a)), so a
        shared tier receives the flush's demotions in arrival order; after
        a shard's last run, the caches it touched do their own share of
        the deferred upkeep.  So every lookup and promotion of the flush
        completes before any of its misses enrols, and its caches and tiers
        end the flush in one state whatever the shard count.

        Slices run sequentially on the calling thread: flushes execute one
        at a time anyway — per-user FIFO depends on it — and with the GIL
        over NumPy-bound work, fanning the slices out to more threads buys
        nothing.  Cross-request amortization comes from the single
        flush-wide encoder call and tier match, not from shard parallelism.
        """
        events = [r.event for r in requests]
        embeddings = self._embed_flush(requests)
        shard_of_event = [self.shard_of(event.user_id) for event in events]
        by_shard: Dict[int, List[int]] = {}
        for i, shard_idx in enumerate(shard_of_event):
            by_shard.setdefault(shard_idx, []).append(i)
        decisions: Dict[int, CacheDecision] = {}
        held: List[Tuple[int, TierProbe]] = []
        shard_of_cache: Dict[int, _Shard] = {}
        for shard_idx, rows in by_shard.items():
            shard = self._shards[shard_idx]
            shard_embs = (
                embeddings[np.asarray(rows)] if embeddings is not None else None
            )
            with shard.lock:
                found, probes = shard.executor.lookup([events[i] for i in rows], shard_embs)
            for i, decision in zip(rows, found):
                decisions[i] = decision
            for i, probe in probes:
                held.append((rows[i], probe))
                shard_of_cache[id(probe.cache)] = shard
        held.sort(key=lambda pair: pair[0])
        probes = [probe for _, probe in held]
        match_probes(probes)
        serve_probes(probes, lambda cache: shard_of_cache[id(cache)].lock)
        runs = [
            (shard_idx, list(rows))
            for shard_idx, rows in itertools.groupby(
                range(len(events)), key=shard_of_event.__getitem__
            )
        ]
        last_run = {shard_idx: k for k, (shard_idx, _) in enumerate(runs)}
        outcomes: List[LookupOutcome] = []
        tiers: Dict[int, object] = {}
        for k, (shard_idx, rows) in enumerate(runs):
            shard = self._shards[shard_idx]
            with shard.lock:
                outcomes += shard.executor.execute(
                    [events[i] for i in rows], [decisions[i] for i in rows]
                )
                if last_run[shard_idx] == k:
                    for tier in shard.executor.maintenance():
                        tiers[id(tier)] = tier
        # Every shard has sealed its tier mutations; each shared tier's own
        # upkeep (the sealed records written with one append and one fsync,
        # index maintenance, compaction when due) runs once for the flush,
        # before any of its responses goes out.  The pass touches no
        # executor state, so any shard's executor serves.
        for tier in tiers.values():
            with tier.lock:
                self._shards[0].executor.maintenance([tier])
        if self.adaptation is not None:
            # Rounds due by this flush's arrivals fire before the next flush,
            # on the trace's clock in a replay.
            with self._registry_lock:
                self.adaptation.advance(max(e.time_s for e in events))
        return list(zip(requests, outcomes))

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
    # Replay (synchronous, on the calling thread)
    # ------------------------------------------------------------------ #
    def replay(
        self,
        trace: Trace,
        batch_window_s: float = 0.25,
        collect_outcomes: bool = False,
    ) -> FleetResult:
        """Replay a trace synchronously through the full serving path.

        ``trace`` is carved into trace-time windows of ``batch_window_s``
        (:func:`~repro.serving.scheduling.iter_windows`); each window is
        one flush, whose outcomes are folded into per-user and fleet-wide
        totals.  Arrivals within one window are grouped per cache and
        classified with one ``lookup_batch`` call before any of the
        window's misses enrol: wider windows amortize more but defer
        enrolment visibility to the next window, and ``0`` batches only
        simultaneous arrivals.  The admission bound is for live traffic; a
        replay never sheds.  Each flush runs on the calling thread, so a
        replay raises ``RuntimeError`` while the server is running (after
        :meth:`start`, before :meth:`stop` has joined the flush thread):
        replayed and live flushes never interleave.  Decisions and stored
        entries do not depend on ``n_shards``.  ``collect_outcomes`` also retains
        every per-event :class:`~repro.serving.scheduling.LookupOutcome` on
        the result (off by default: at fleet scale the aggregate is the
        product).
        """
        with self._wake:
            if self._thread is not None:
                raise RuntimeError("cannot replay while the server is running; stop() first")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        per_user: Dict[str, UserStats] = {}
        outcomes: List[LookupOutcome] = []
        virtual_end = 0.0
        start = time.perf_counter()
        self._freeze_encoder()
        try:
            for window in iter_windows(trace.events, batch_window_s):
                drained = [
                    _PendingRequest(event=event, enqueued_at=event.time_s)
                    for event in window
                ]
                # A replayed window drains when its trace window closes.
                self.metrics.record_flush(len(drained), "deadline")
                with self._flush_lock:
                    pairs = self._classify_flush(drained)
                for request, outcome in pairs:
                    self._record(request, outcome, len(drained), request.enqueued_at)
                    per_user.setdefault(outcome.event.user_id, UserStats()).record(outcome)
                    virtual_end = max(
                        virtual_end, outcome.event.time_s + outcome.total_latency_s
                    )
                    if collect_outcomes:
                        outcomes.append(outcome)
        finally:
            self._thaw_encoder()
        # Count the users actually served rather than echoing the trace's
        # configured fleet size: with churn, cold-start successors appear
        # under fresh ids, so the two can legitimately differ.
        return FleetResult(
            n_users=len(per_user),
            n_events=len(trace),
            virtual_duration_s=virtual_end,
            wall_clock_s=time.perf_counter() - start,
            per_user=per_user,
            outcomes=outcomes,
        )

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
        :meth:`start`, or once :meth:`stop` began), and ``ValueError`` for a
        context that is not a sequence of strings (nothing is admitted).
        """
        context = require_context_texts(context)
        now = self.clock()
        future: "concurrent.futures.Future[ServerResponse]" = concurrent.futures.Future()
        event = WorkloadEvent(
            time_s=now,
            user_id=user_id,
            query=query,
            context=context,
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
            with self._flush_lock:
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
            e2e = max(0.0, resolved_at - request.enqueued_at)
            self.metrics.e2e_latency.record(int(e2e * 1e9))
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
        import asyncio

        return await asyncio.wrap_future(
            self.submit_threadsafe(user_id, query, context, intent_key)
        )

    async def shutdown(self) -> None:
        """:meth:`stop`, off-loaded so the caller's loop keeps running."""
        import asyncio

        await asyncio.to_thread(self.stop)
