"""The four named workloads: set-up, per-repeat install, and the timed loop.

Every workload builds its inputs from the seed alone (``WorkloadGenerator(...,
seed=seed)`` for traffic, ``default_rng(seed)`` for filler vectors), installs
the same state before every repeat without re-encoding, and drives the
library only through its public API.  Sizes at ``scale=1.0`` are the ones the
benchmark contract's time cap allows on a 2-core host; ``bench/README.md``
records how they relate to the sizes the issue was prototyped at.
"""

from __future__ import annotations

import hashlib
import json
import queue
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.client import MeanCacheClient
from repro.core.context import ContextChain
from repro.core.tiered import QuantizedTier, TieredCache
from repro.embeddings.zoo import load_encoder
from repro.llm.responses import ResponseGenerator
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.scheduling import storage_report
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import WorkloadConfig, WorkloadEvent, WorkloadGenerator

from mcbench.hostspeed import kernel_seconds
from mcbench.oracle import (
    FAILED,
    FALSE_HIT,
    MISS,
    TRUE_HIT,
    ResponseOracle,
    expected_responses,
)

ENCODER = "albert-sim"
TAU = 0.7
CONTEXT_TAU = 0.7
TOP_K = 5
#: closed-loop client count of the server workloads
IN_FLIGHT = 8
#: probes per ``query_many`` call on ``central_bulk``
CHUNK = 64
REQUEST_TIMEOUT_S = 60.0
#: slices per pass; the host-speed kernel runs between them (mcbench.hostspeed)
SLICES = 12
SERVER = dict(n_shards=8, max_batch_size=64, max_batch_wait_s=0.0005)


@dataclass(frozen=True)
class Request:
    """One timed request; ``idx`` is its position in the timed stream."""

    idx: int
    user_id: str
    query: str
    context: Tuple[str, ...]
    intent_key: str


@dataclass(frozen=True)
class Installed:
    """One entry placed in a cache before the timed phase."""

    user_id: str
    query: str
    response: str
    embedding: np.ndarray
    context: ContextChain
    intent_key: Optional[str]


@dataclass
class Slice:
    """Timing of one slice of a pass, bracketed by host-speed samples."""

    wall_s: float
    cpu_s: float
    start: float
    end: float
    #: mean of the reference-kernel seconds sampled just before and after
    kernel_s: float


_STREAM_CODE = {TRUE_HIT: "h", FALSE_HIT: "h", MISS: "m", FAILED: "x"}


@dataclass
class PassResult:
    """What one repeat measured."""

    slices: List[Slice] = field(default_factory=list)
    #: seconds from call (or submit) to verified response, by request idx
    latencies_s: List[float] = field(default_factory=list)
    #: slice each request was sent in, by request idx
    slice_of: List[int] = field(default_factory=list)
    #: oracle verdict by request idx
    outcomes: List[str] = field(default_factory=list)
    #: per-request server-side numbers (server workloads only)
    queue_waits_s: List[float] = field(default_factory=list)
    storage: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: wall seconds spent in host-speed samples, and CPU seconds that threads
    #: other than the measuring one used meanwhile (see SliceTimer)
    pause_wall_s: float = 0.0
    pause_other_cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return len(self.outcomes) - self.outcomes.count(FAILED)

    @property
    def wall_s(self) -> float:
        """Raw timed wall: the slices, without the kernel pauses between."""
        return sum(s.wall_s for s in self.slices)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.slices)

    @property
    def window(self) -> Tuple[float, float]:
        """First slice's start to last slice's end; the system under test is
        idle in the kernel pauses between slices."""
        return self.slices[0].start, self.slices[-1].end

    def share(self, outcome: str) -> float:
        return self.outcomes.count(outcome) / len(self.outcomes)

    @property
    def decision_stream(self) -> str:
        """The hit/miss stream as one string, for cross-repeat comparison."""
        return "".join(_STREAM_CODE[o] for o in self.outcomes)


def slice_bounds(n: int) -> List[int]:
    """Request counts at which the slices of an ``n``-request pass end."""
    return [round(n * k / SLICES) for k in range(1, SLICES + 1)]


class SliceTimer:
    """Times consecutive slices and samples the host speed between them.

    The kernel sample is only a measure of the host while nothing else in
    this process runs.  Work a change moves onto a background thread would
    overlap the sample, read as a slow host and scale the slice's times down,
    so each pause also records how much CPU threads other than this one used
    (process CPU minus this thread's); the runner fails the run when that is
    more than noise.
    """

    def __init__(self, result: PassResult) -> None:
        self.result = result
        self._kernel_s = self._sample()

    def _sample(self) -> float:
        process0, thread0, wall0 = time.process_time(), time.thread_time(), time.perf_counter()
        kernel_s = kernel_seconds()
        process1, thread1, wall1 = time.process_time(), time.thread_time(), time.perf_counter()
        self.result.pause_wall_s += wall1 - wall0
        self.result.pause_other_cpu_s += (process1 - process0) - (thread1 - thread0)
        return kernel_s

    def begin(self) -> None:
        self._cpu0, self._start = time.process_time(), time.perf_counter()

    def end(self) -> None:
        end, cpu1 = time.perf_counter(), time.process_time()
        before, self._kernel_s = self._kernel_s, self._sample()
        self.result.slices.append(
            Slice(
                wall_s=end - self._start,
                cpu_s=cpu1 - self._cpu0,
                start=self._start,
                end=end,
                kernel_s=(before + self._kernel_s) / 2,
            )
        )


def trace_sha256(events: Sequence[WorkloadEvent]) -> str:
    payload = json.dumps([e.to_dict() for e in events], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (``unknown`` off Linux)."""
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fstype = "", "unknown"
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(
            mount
        ) >= len(best):
            best, fstype = mount, parts[2]
    return fstype


def _chain(texts: Sequence[str], embedding_of: Dict[str, np.ndarray]) -> ContextChain:
    """The chain ``ContextChain.from_texts`` would build, from rows already
    encoded in the set-up batch (context turns are the user's own earlier
    queries), so installing warm entries never re-encodes."""
    texts = tuple(t for t in texts if t)
    if not texts:
        return ContextChain.empty()
    mean = np.stack([embedding_of[t] for t in texts]).mean(axis=0)
    norm = np.linalg.norm(mean)
    return ContextChain(texts=texts, embedding=mean / norm if norm > 1e-12 else mean)


class Workload:
    """Common set-up and bookkeeping; subclasses supply install and drive."""

    name = ""
    why = ""
    #: True when a hit may only serve entries enrolled for the same user
    per_user_scope = True
    #: False when the hit/miss stream depends on thread interleaving
    deterministic = True
    users = 0
    #: the scaled user count is rounded to a multiple of this
    user_multiple = 1
    events_per_user = 0
    duplicate_rate = 0.0
    followup_rate = 0.0
    #: leading events of every user installed before the timed phase
    warm_events = 0
    compress = False

    def __init__(self, seed: int, scale: float, work_dir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        multiple = self.user_multiple
        self.n_users = max(IN_FLIGHT, round(self.users * scale / multiple) * multiple)
        self.load_encoder_s = 0.0
        self.requests: List[Request] = []
        self.installed: List[Installed] = []
        self.expected: Dict[str, str] = {}
        self.trace_sha256 = ""

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def cache_config(self, **overrides) -> MeanCacheConfig:
        return MeanCacheConfig(
            similarity_threshold=TAU,
            context_threshold=CONTEXT_TAU,
            top_k=TOP_K,
            compressed=self.compress,
            **overrides,
        )

    def new_service(self, thread_safe: bool) -> SimulatedLLMService:
        return SimulatedLLMService(LLMServiceConfig(seed=self.seed), thread_safe=thread_safe)

    # -- set-up: everything a process pays before its first timed request -- #
    def setup(self) -> None:
        start = time.perf_counter()
        self.encoder = load_encoder(ENCODER)
        self.load_encoder_s = time.perf_counter() - start
        trace = WorkloadGenerator(
            WorkloadConfig(
                n_users=self.n_users,
                queries_per_user=self.events_per_user,
                duplicate_rate=self.duplicate_rate,
                followup_rate=self.followup_rate,
            ),
            seed=self.seed,
        ).generate()
        self.trace_sha256 = trace_sha256(trace.events)
        seen: Dict[str, int] = {}
        warm: List[WorkloadEvent] = []
        for event in trace.events:
            position = seen.get(event.user_id, 0)
            seen[event.user_id] = position + 1
            if position < self.warm_events:
                warm.append(event)
            else:
                self.requests.append(
                    Request(
                        len(self.requests),
                        event.user_id,
                        event.query,
                        tuple(event.context),
                        event.intent_key,
                    )
                )
        self.build(trace.events, warm)

    def build(self, events: Sequence[WorkloadEvent], warm: Sequence[WorkloadEvent]) -> None:
        """Workload-specific set-up after the trace exists."""
        self.installed = self.encode_warm(warm)

    def encode_warm(self, warm: Sequence[WorkloadEvent]) -> List[Installed]:
        """One batched encode of the warm events; chains reuse its rows."""
        if not warm:
            return []
        texts = sorted({e.query for e in warm} | {t for e in warm for t in e.context})
        rows = np.atleast_2d(self.encoder.encode(texts, compress=self.compress))
        embedding_of = dict(zip(texts, rows))
        generator = ResponseGenerator()
        return [
            Installed(
                e.user_id,
                e.query,
                generator.generate(e.query),
                embedding_of[e.query],
                _chain(e.context, embedding_of),
                e.intent_key,
            )
            for e in warm
        ]

    def prepare_checks(self) -> None:
        """Harness-side verification tables; not part of set-up time."""
        self.expected = expected_responses(r.query for r in self.requests)

    def new_oracle(self) -> ResponseOracle:
        return ResponseOracle(
            self.expected,
            self.per_user_scope,
            ((i.user_id, i.response, i.intent_key) for i in self.installed),
        )

    # -- per repeat -------------------------------------------------------- #
    def install(self) -> None:
        """Rebuild caches (and server) in the installed state; untimed."""
        raise NotImplementedError

    def drive(self, oracle: ResponseOracle, recorder=None) -> PassResult:
        """The timed loop over ``self.requests``."""
        raise NotImplementedError

    def finish(self, result: PassResult) -> None:
        """Read storage and counters, then release the repeat's resources."""
        raise NotImplementedError

    def sanity(self, result: PassResult, layers: Optional[Dict[str, float]]) -> List[str]:
        """Violated operating-point assertions (empty when all hold)."""
        return []

    def describe(self) -> Dict[str, object]:
        return {
            "users": self.n_users,
            "events_per_user": self.events_per_user,
            "warm_events_per_user": self.warm_events,
            "duplicate_rate": self.duplicate_rate,
            "followup_rate": self.followup_rate,
            "timed_requests": len(self.requests),
            "trace_sha256": self.trace_sha256,
        }


def _cache_counters(caches: Sequence[object], service: SimulatedLLMService) -> Dict[str, float]:
    """Counts read from the public stats objects after a pass."""
    lookups = hits = evictions = 0
    l2_stats = {}
    for cache in caches:
        if isinstance(cache, TieredCache):
            tiers = cache.tier_stats()
            lookups += tiers["l1"].lookups
            hits += tiers["l1"].hits
            evictions += tiers["l1"].evictions
            l2_stats[id(cache.l2)] = tiers["l2"]
        else:
            lookups += cache.stats.lookups
            hits += cache.stats.hits
            evictions += cache.stats.evictions
    l2_lookups = sum(s.lookups for s in l2_stats.values())
    l2_hits = sum(s.hits for s in l2_stats.values())
    return {
        "cache_lookups": lookups,
        "cache_hits": hits + l2_hits,
        "cache_evictions": evictions,
        "l2_lookups": l2_lookups,
        "l2_hits": l2_hits,
        "llm_requests": service.stats.n_requests,
        "llm_sim_latency_s": service.stats.total_latency_s,
        "llm_cost_usd": service.stats.total_cost_usd,
    }


# --------------------------------------------------------------------------- #
# Server workloads: closed loop, IN_FLIGHT requests outstanding, one generator
# --------------------------------------------------------------------------- #
class ServerWorkload(Workload):
    server: CacheServer
    # every lane owns the same number of users, each with the same number of
    # events, so all IN_FLIGHT lanes stay busy to the last request of a slice
    user_multiple = IN_FLIGHT

    def new_server(self, cache_factory) -> CacheServer:
        self.service = self.new_service(thread_safe=True)
        self._made: Dict[str, object] = {}

        def factory(user_id: str):
            if user_id not in self._made:
                self._made[user_id] = cache_factory(user_id)
            return self._made[user_id]

        return CacheServer(
            factory,
            service=self.service,
            config=ServerConfig(**SERVER),
            encoder=self.encoder,
            compress=self.compress,
        )

    def install_entries(self) -> None:
        for entry in self.installed_l1():
            self.server.cache_for(entry.user_id).insert(
                entry.query, entry.response, context=entry.context, embedding=entry.embedding
            )

    def installed_l1(self) -> Sequence[Installed]:
        return self.installed

    def drive(self, oracle: ResponseOracle, recorder=None) -> PassResult:
        """Each of IN_FLIGHT virtual clients (lanes) owns a fixed share of the
        users and keeps one request outstanding, so per-user FIFO holds.  Done
        callbacks only hand the future back; submitting, timing and checking
        all happen on this thread.  Every lane sends the same share of its
        requests in each slice, so which request falls in which slice is fixed
        and all lanes reach the end of the pass together; a slice ends when
        every request sent in it has been answered."""
        lanes: List[List[Request]] = [[] for _ in range(IN_FLIGHT)]
        lane_of: Dict[str, int] = {}
        for request in self.requests:
            lane = lane_of.setdefault(request.user_id, len(lane_of) % IN_FLIGHT)
            lanes[lane].append(request)
        quotas = [slice_bounds(len(lane)) for lane in lanes]
        n = len(self.requests)
        result = PassResult(
            latencies_s=[REQUEST_TIMEOUT_S] * n,
            slice_of=[0] * n,
            outcomes=[FAILED] * n,
            queue_waits_s=[0.0] * n,
        )
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        cursor = [0] * IN_FLIGHT
        server = self.server
        clock = time.perf_counter

        def submit(lane: int, slice_index: int) -> bool:
            """Send the lane's next request unless its slice quota is spent."""
            if cursor[lane] >= quotas[lane][slice_index]:
                return False
            request = lanes[lane][cursor[lane]]
            cursor[lane] += 1
            result.slice_of[request.idx] = slice_index
            if recorder is not None:
                recorder.inflight[request.user_id] = request.idx
            sent = clock()
            future = server.submit_threadsafe(request.user_id, request.query, request.context)
            future.add_done_callback(lambda f: done.put((lane, request, sent, f)))
            return True

        timer = SliceTimer(result)
        for slice_index in range(SLICES):
            timer.begin()
            outstanding = sum(submit(lane, slice_index) for lane in range(IN_FLIGHT))
            while outstanding:
                try:
                    lane, request, sent, future = done.get(timeout=REQUEST_TIMEOUT_S)
                except queue.Empty:
                    timer.end()
                    return result  # everything still outstanding stays FAILED
                if future.exception() is None:
                    response = future.result()
                    result.outcomes[request.idx] = oracle.check(
                        request.user_id,
                        request.query,
                        request.intent_key,
                        response.hit,
                        response.response,
                    )
                    result.queue_waits_s[request.idx] = response.queue_wait_s
                result.latencies_s[request.idx] = clock() - sent
                if not submit(lane, slice_index):
                    outstanding -= 1
            timer.end()
        return result

    def finish(self, result: PassResult) -> None:
        self.server.stop()
        result.storage = self.server.storage_report()
        result.counters = _cache_counters(list(self._made.values()), self.service)
        metrics = self.server.metrics
        result.counters.update(
            server_flushes=metrics.flushes,
            server_completed=metrics.completed,
            server_shed=metrics.shed,
        )
        # Drop the repeat's state now, so the next install does not build a
        # second copy beside it and peak RSS does not depend on repeat count.
        del self.server, self.service, self._made


class DeviceWarm(ServerWorkload):
    name = "device_warm"
    why = (
        "paper's operating point behind the live server: warm per-user caches of "
        "10-100 entries, 60% re-asks, a quarter of probes contextual, 8 in flight"
    )
    users, events_per_user, warm_events = 48, 50, 10
    duplicate_rate, followup_rate = 0.6, 0.25

    def install(self) -> None:
        config = self.cache_config()
        self.server = self.new_server(lambda user_id: MeanCache(self.encoder, config))
        self.install_entries()
        self.server.start()

    def sanity(self, result, layers):
        hit_rate = result.share(TRUE_HIT) + result.share(FALSE_HIT)
        return [] if hit_rate >= 0.3 else [f"hit rate {hit_rate:.3f} < 0.3"]


class SharedTier(ServerWorkload):
    name = "shared_tier"
    why = (
        "memory hierarchy and durability: per-user L1 of 16 over one shared ivf+sq8 "
        "L2 with PCA-64 embeddings, promotions, demotions, delta log and compaction"
    )
    per_user_scope = False
    deterministic = False
    users, events_per_user, warm_events = 40, 50, 40
    duplicate_rate, followup_rate = 0.5, 0.25
    compress = True
    l1_entries = 16
    pca_dim = 64
    filler_rows = 8_000
    pca_fit_texts = 1_500
    compact_every = 32

    def build(self, events, warm) -> None:
        self.encoder.fit_pca(
            [e.query for e in events[: self.scaled(self.pca_fit_texts)]],
            n_components=self.pca_dim,
        )
        self.installed = self.encode_warm(warm)
        rng = np.random.default_rng(self.seed)
        filler = rng.standard_normal((self.scaled(self.filler_rows), self.pca_dim))
        filler /= np.linalg.norm(filler, axis=1, keepdims=True)
        tier = QuantizedTier(
            dim=self.pca_dim,
            backend="ivf+sq8",
            params={"nprobe": 64},
            compact_every=self.compact_every,
        )
        empty = ContextChain.empty()
        filler_entries = [
            Installed("", f"filler query {i}", f"filler response {i}", row, empty, None)
            for i, row in enumerate(filler)
        ]
        for entry in filler_entries:
            tier.insert(entry.query, entry.response, entry.embedding, entry.context)
        # Installing each user's warm events through TieredCache.insert demotes
        # all but the last ``l1_entries`` of them into the shared tier.
        config = self.cache_config(max_entries=self.l1_entries)
        caches: Dict[str, TieredCache] = {}
        for entry in self.installed:
            cache = caches.get(entry.user_id)
            if cache is None:
                cache = caches[entry.user_id] = TieredCache(self.encoder, config, l2=tier)
            cache.insert(
                entry.query, entry.response, context=entry.context, embedding=entry.embedding
            )
        self._l1_entries = [
            Installed(user_id, e.query, e.response, e.embedding, e.context, None)
            for user_id, cache in caches.items()
            for e in cache.l1.entries
        ]
        self.installed = filler_entries + self.installed
        self.seed_dir = self.work_dir / "seed-snapshot"
        self.live_dir = self.work_dir / "live-snapshot"
        tier.save(self.seed_dir)
        self.snapshot_fs = filesystem_type(self.seed_dir)

    def installed_l1(self):
        return self._l1_entries

    def install(self) -> None:
        shutil.rmtree(self.live_dir, ignore_errors=True)
        shutil.copytree(self.seed_dir, self.live_dir)
        tier = QuantizedTier.load(self.live_dir)
        self.tier = tier
        config = self.cache_config(max_entries=self.l1_entries)
        self.server = self.new_server(
            lambda user_id: TieredCache(self.encoder, config, l2=tier)
        )
        self.install_entries()
        self._l2_insertions = tier.stats.insertions
        self.server.start()

    def finish(self, result: PassResult) -> None:
        super().finish(result)
        result.counters["l2_insertions"] = self.tier.stats.insertions - self._l2_insertions
        del self.tier

    def sanity(self, result, layers):
        problems = []
        if result.counters["l2_hits"] <= 0:
            problems.append("no L2 hits")
        if result.counters["l2_insertions"] <= 0:
            problems.append("no demotions")
        if layers is not None:
            for key in ("core.tiered.promotions", "index.snapshot.compact.calls"):
                if layers[key] <= 0:
                    problems.append(f"{key} is 0")
        return problems

    def describe(self):
        return {
            **super().describe(),
            "l2_filler_rows": self.scaled(self.filler_rows),
            "snapshot_dir_fs": self.snapshot_fs,
        }


# --------------------------------------------------------------------------- #
# No-server workloads: one caller
# --------------------------------------------------------------------------- #
class ClientWorkload(Workload):
    def finish(self, result: PassResult) -> None:
        caches = [client.cache for client in self.clients.values()]
        result.storage = storage_report(caches)
        result.counters = _cache_counters(caches, self.service)
        del self.clients, self.service  # see ServerWorkload.finish


class OndeviceChurn(ClientWorkload):
    name = "ondevice_churn"
    why = (
        "Figure 1's on-device path and the write side: cold 16-entry caches, ~90% "
        "misses each paying LLM + insert + eviction, every encode a batch of one"
    )
    users, events_per_user = 75, 40
    duplicate_rate, followup_rate = 0.1, 0.0
    max_entries = 16

    def install(self) -> None:
        self.service = self.new_service(thread_safe=False)
        config = self.cache_config(max_entries=self.max_entries)
        self.clients = {
            user_id: MeanCacheClient(MeanCache(self.encoder, config), self.service, user_id)
            for user_id in sorted({r.user_id for r in self.requests})
        }

    def drive(self, oracle: ResponseOracle, recorder=None) -> PassResult:
        result = PassResult()
        clients = self.clients
        clock = time.perf_counter
        timer = SliceTimer(result)
        first = 0
        for slice_index, last in enumerate(slice_bounds(len(self.requests))):
            timer.begin()
            for request in self.requests[first:last]:
                if recorder is not None:
                    recorder.tag((request.idx,))
                sent = clock()
                try:
                    answer = clients[request.user_id].query(
                        request.query, context=request.context
                    )
                    outcome = oracle.check(
                        request.user_id,
                        request.query,
                        request.intent_key,
                        answer.from_cache,
                        answer.response,
                    )
                except Exception:  # a raising request fails, the run goes on
                    outcome = FAILED
                result.latencies_s.append(clock() - sent)
                result.outcomes.append(outcome)
            result.slice_of.extend([slice_index] * (last - first))
            timer.end()
            first = last
        return result

    def sanity(self, result, layers):
        problems = []
        hit_rate = result.share(TRUE_HIT) + result.share(FALSE_HIT)
        if hit_rate > 0.15:
            problems.append(f"hit rate {hit_rate:.3f} > 0.15")
        evicted = result.counters["cache_evictions"] / result.attempted
        if evicted < 0.4:
            problems.append(f"evictions per request {evicted:.3f} < 0.4")
        return problems


class CentralBulk(ClientWorkload):
    name = "central_bulk"
    why = (
        "GPTCache-style central deployment: one flat 768-d cache of 2e4 rows probed "
        "in chunks of 64, so the scan is a GEMM and the encoder runs batched"
    )
    per_user_scope = False
    users, events_per_user = 60, 50
    duplicate_rate, followup_rate = 0.3, 0.0
    filler_rows = 20_000

    def build(self, events, warm) -> None:
        rng = np.random.default_rng(self.seed)
        filler = rng.standard_normal(
            (self.scaled(self.filler_rows), self.encoder.embedding_dim)
        )
        filler /= np.linalg.norm(filler, axis=1, keepdims=True)
        empty = ContextChain.empty()
        self.installed = [
            Installed("", f"filler query {i}", f"filler response {i}", row, empty, None)
            for i, row in enumerate(filler)
        ]

    def install(self) -> None:
        self.service = self.new_service(thread_safe=False)
        cache = MeanCache(self.encoder, self.cache_config())
        for entry in self.installed:
            cache.insert(entry.query, entry.response, embedding=entry.embedding)
        self.clients = {"central": MeanCacheClient(cache, self.service, "central")}

    def drive(self, oracle: ResponseOracle, recorder=None) -> PassResult:
        result = PassResult()
        client = self.clients["central"]
        clock = time.perf_counter
        chunks = [
            self.requests[offset : offset + CHUNK]
            for offset in range(0, len(self.requests), CHUNK)
        ]
        timer = SliceTimer(result)
        first = 0
        for slice_index, last in enumerate(slice_bounds(len(chunks))):
            timer.begin()
            for chunk in chunks[first:last]:
                if recorder is not None:
                    recorder.tag(tuple(r.idx for r in chunk))
                sent = clock()
                try:
                    answers = client.query_many(
                        [r.query for r in chunk], contexts=[r.context for r in chunk]
                    )
                    outcomes = [
                        oracle.check(r.user_id, r.query, r.intent_key, a.from_cache, a.response)
                        for r, a in zip(chunk, answers)
                    ]
                except Exception:  # a raising chunk fails all its requests
                    outcomes = [FAILED] * len(chunk)
                # a request's latency is its chunk's
                result.latencies_s.extend([clock() - sent] * len(chunk))
                result.slice_of.extend([slice_index] * len(chunk))
                result.outcomes.extend(outcomes)
            timer.end()
            first = last
        return result

    def sanity(self, result, layers):
        # The scan only dominates at the full filler size.
        if layers is None or self.scale < 1.0:
            return []
        share = layers["index.search.busy_s"] / result.wall_s
        return [] if share >= 0.5 else [f"index.search share of wall {share:.2f} < 0.5"]

    def describe(self):
        return {**super().describe(), "filler_rows": self.scaled(self.filler_rows)}


WORKLOADS = {
    cls.name: cls for cls in (DeviceWarm, OndeviceChurn, CentralBulk, SharedTier)
}
