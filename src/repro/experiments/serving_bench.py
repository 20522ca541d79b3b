"""Wall-clock serving benchmark: a threaded load generator over CacheServer.

Everything else in the repo measures the serving stack by replaying traces
on their own timestamps; this experiment measures the *live* tier.  A deterministic
multi-user trace (:class:`~repro.serving.workload.WorkloadGenerator`, fleet
sizes of 10^4–10^5 users) is driven through a started
:class:`~repro.serving.server.CacheServer` by real client threads — each
thread owns a slice of the fleet and replays its users' events in order,
closed-loop — and the server's own metrics supply the headline numbers:

* sustained throughput (requests/s against measured wall clock),
* end-to-end p50/p95/p99 latency (submit → response, including queue wait),
* queue-depth samples, flush-size histogram and shed rate.

The run is repeated with micro-batching disabled (``max_batch_size=1``) on
an identical fresh fleet, so ``BENCH_serving.json`` carries the
amortization headline directly: cross-user batching must beat batch-size-1
throughput on the same traffic (a CI floor in
``benchmarks/test_bench_serving.py``).  On a single-core host the win is
pure amortization — one encoder GEMM and one event-loop round per flush
instead of per request — not thread parallelism.

Methodology notes: latencies are *measured* wall-clock times, so absolute
numbers vary with host load; the CI floors therefore only compare the two
modes measured seconds apart on the same host (relative floors), never
absolute milliseconds.  The simulated LLM service models miss latency but
never sleeps — throughput here is cache-tier throughput, the quantity the
serving layer actually controls.

Run directly (REPRO_SMOKE=1 shrinks the fleet for a CI smoke pass)::

    PYTHONPATH=src python -m repro.experiments.serving_bench
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings.model import SiameseEncoder
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.metrics.reporting import format_table
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadConfig, WorkloadGenerator


@dataclass
class ServingBenchPoint:
    """One serving mode's measurements (batched or batch-size-1)."""

    label: str
    n_users: int
    n_requests: int
    n_client_threads: int
    max_batch_size: int
    max_batch_wait_s: float
    n_shards: int
    wall_clock_s: float
    throughput_rps: float
    hit_rate: float
    shed: int
    shed_rate: float
    e2e_p50_ms: float
    e2e_p95_ms: float
    e2e_p99_ms: float
    queue_wait_p99_ms: float
    mean_batch_size: float
    batch_size_histogram: Dict[str, int] = field(default_factory=dict)
    max_queue_depth_seen: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "label": self.label,
            "n_users": self.n_users,
            "n_requests": self.n_requests,
            "n_client_threads": self.n_client_threads,
            "max_batch_size": self.max_batch_size,
            "max_batch_wait_s": self.max_batch_wait_s,
            "n_shards": self.n_shards,
            "wall_clock_s": self.wall_clock_s,
            "throughput_rps": self.throughput_rps,
            "hit_rate": self.hit_rate,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "e2e_p50_ms": self.e2e_p50_ms,
            "e2e_p95_ms": self.e2e_p95_ms,
            "e2e_p99_ms": self.e2e_p99_ms,
            "queue_wait_p99_ms": self.queue_wait_p99_ms,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": dict(self.batch_size_histogram),
            "max_queue_depth_seen": self.max_queue_depth_seen,
        }


@dataclass
class ServingBenchResult:
    """Batched vs batch-size-1 comparison plus the run configuration."""

    batched: ServingBenchPoint
    unbatched: ServingBenchPoint
    queries_per_user: int
    duplicate_rate: float
    similarity_threshold: float
    seed: int

    @property
    def batching_speedup(self) -> float:
        """Batched throughput over batch-size-1 throughput (same traffic)."""
        if self.unbatched.throughput_rps <= 0:
            return 0.0
        return self.batched.throughput_rps / self.unbatched.throughput_rps

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``BENCH_serving.json`` payload)."""
        return {
            "queries_per_user": self.queries_per_user,
            "duplicate_rate": self.duplicate_rate,
            "similarity_threshold": self.similarity_threshold,
            "seed": self.seed,
            "batching_speedup": self.batching_speedup,
            "batched": self.batched.to_dict(),
            "unbatched": self.unbatched.to_dict(),
        }

    def format(self) -> str:
        """Render the comparison table."""
        rows = [
            [
                p.label,
                p.n_users,
                p.n_requests,
                f"{p.wall_clock_s:.2f}",
                f"{p.throughput_rps:,.0f}",
                f"{p.hit_rate:.3f}",
                f"{p.e2e_p50_ms:.2f}",
                f"{p.e2e_p99_ms:.2f}",
                f"{p.mean_batch_size:.1f}",
                f"{p.shed_rate:.3f}",
            ]
            for p in (self.batched, self.unbatched)
        ]
        return format_table(
            [
                "Mode",
                "Users",
                "Requests",
                "Wall clock (s)",
                "Req/s",
                "Hit rate",
                "p50 (ms)",
                "p99 (ms)",
                "Mean batch",
                "Shed rate",
            ],
            rows,
            title=(
                "Wall-clock serving benchmark: cross-user micro-batching vs "
                f"batch-size-1 (speedup {self.batching_speedup:.2f}x)"
            ),
        )


def drive_load(
    server: CacheServer,
    trace: Trace,
    n_client_threads: int,
) -> List[object]:
    """Replay a trace's events through a started server from client threads.

    Users are partitioned across threads by stable order of first
    appearance; each thread submits its users' events in trace order,
    closed-loop (one outstanding request per thread), which preserves
    per-user FIFO by construction.  Returns every
    :class:`~repro.serving.server.ServerResponse`; a client thread's
    failure (e.g. an unexpected :class:`BackpressureError`) is re-raised.
    """
    events_of_thread: Dict[int, List] = {t: [] for t in range(n_client_threads)}
    thread_of_user: Dict[str, int] = {}
    for event in trace.events:
        tid = thread_of_user.setdefault(
            event.user_id, len(thread_of_user) % n_client_threads
        )
        events_of_thread[tid].append(event)

    responses: List[object] = []
    responses_lock = threading.Lock()
    errors: List[BaseException] = []

    def client(tid: int) -> None:
        mine = []
        try:
            for event in events_of_thread[tid]:
                future = server.submit_threadsafe(
                    event.user_id, event.query, context=event.context
                )
                mine.append(future.result(timeout=300))
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            errors.append(exc)
        with responses_lock:
            responses.extend(mine)

    threads = [
        threading.Thread(target=client, args=(tid,), name=f"load-gen-{tid}")
        for tid in range(n_client_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return responses


def _measure_mode(
    label: str,
    trace: Trace,
    cache_factory: Callable[[str], object],
    encoder: Optional[SiameseEncoder],
    config: ServerConfig,
    n_client_threads: int,
    seed: int,
) -> ServingBenchPoint:
    """One load-generation run against a fresh server; returns its point."""
    import time

    server = CacheServer(
        cache_factory,
        service=SimulatedLLMService(LLMServiceConfig(seed=seed), thread_safe=True),
        config=config,
        encoder=encoder,
    )
    server.start()
    try:
        start = time.perf_counter()
        responses = drive_load(server, trace, n_client_threads)
        wall_clock = time.perf_counter() - start
    finally:
        server.stop()
    metrics = server.metrics
    assert metrics.completed == len(responses) == len(trace)
    return ServingBenchPoint(
        label=label,
        n_users=trace.n_users,
        n_requests=len(responses),
        n_client_threads=n_client_threads,
        max_batch_size=config.max_batch_size,
        max_batch_wait_s=config.max_batch_wait_s,
        n_shards=config.n_shards,
        wall_clock_s=wall_clock,
        throughput_rps=len(responses) / wall_clock if wall_clock > 0 else 0.0,
        hit_rate=metrics.hit_rate,
        shed=metrics.shed,
        shed_rate=metrics.shed_rate,
        e2e_p50_ms=metrics.e2e_latency.p50 / 1e6,
        e2e_p95_ms=metrics.e2e_latency.p95 / 1e6,
        e2e_p99_ms=metrics.e2e_latency.p99 / 1e6,
        queue_wait_p99_ms=metrics.queue_wait.p99 / 1e6,
        mean_batch_size=metrics.mean_batch_size,
        batch_size_histogram={
            str(k): v for k, v in metrics.batch_size_histogram().items()
        },
        max_queue_depth_seen=metrics.max_depth_seen,
    )


def run_serving_bench(
    n_users: int = 10_000,
    queries_per_user: int = 2,
    n_client_threads: int = 16,
    max_batch_size: int = 64,
    max_batch_wait_s: float = 0.0005,
    n_shards: int = 8,
    duplicate_rate: float = 0.3,
    similarity_threshold: float = 0.8,
    encoder: Optional[SiameseEncoder] = None,
    seed: int = 0,
) -> ServingBenchResult:
    """Measure live serving throughput, batched vs batch-size-1.

    One trace is generated once and replayed twice against *fresh* fleets:
    once with the adaptive micro-batcher (``max_batch_size``, cross-user
    batched embedding) and once with batching disabled (``max_batch_size=1``,
    ``max_batch_wait_s=0`` — every request is its own flush).  Identical
    traffic, identical caches, identical service seed: the only variable is
    the batching policy.
    """
    if encoder is None:
        from repro.embeddings.zoo import load_encoder

        encoder = load_encoder("albert-sim")
    trace = WorkloadGenerator(
        WorkloadConfig(
            n_users=n_users,
            queries_per_user=queries_per_user,
            duplicate_rate=duplicate_rate,
        ),
        seed=seed,
    ).generate()
    cache_config = MeanCacheConfig(similarity_threshold=similarity_threshold)

    def factory(user_id: str) -> MeanCache:
        return MeanCache(encoder, cache_config)

    batched = _measure_mode(
        "batched",
        trace,
        factory,
        encoder,
        ServerConfig(
            n_shards=n_shards,
            max_batch_size=max_batch_size,
            max_batch_wait_s=max_batch_wait_s,
            max_queue_depth=max(4096, 4 * n_client_threads),
        ),
        n_client_threads,
        seed,
    )
    unbatched = _measure_mode(
        "unbatched",
        trace,
        factory,
        encoder,
        ServerConfig(
            n_shards=n_shards,
            max_batch_size=1,
            max_batch_wait_s=0.0,
            max_queue_depth=max(4096, 4 * n_client_threads),
        ),
        n_client_threads,
        seed,
    )
    return ServingBenchResult(
        batched=batched,
        unbatched=unbatched,
        queries_per_user=queries_per_user,
        duplicate_rate=duplicate_rate,
        similarity_threshold=similarity_threshold,
        seed=seed,
    )


def main() -> None:
    """Self-contained smoke/demo entry (REPRO_SMOKE=1 shrinks the fleet)."""
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer
    from repro.embeddings.model import EncoderConfig
    from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig

    # The smoke/demo entry uses a small untrained encoder so it runs in
    # seconds without the zoo's pretraining pass; the benchmark harness
    # (benchmarks/test_bench_serving.py) uses the trained zoo encoder.
    encoder = SiameseEncoder(
        EncoderConfig(n_features=256, hidden_dim=32, output_dim=64, seed=5),
        HashedFeaturizer(FeaturizerConfig(n_features=256, seed=5), Tokenizer(TokenizerConfig())),
    )
    result = run_serving_bench(
        n_users=200 if smoke else 10_000,
        queries_per_user=2,
        n_client_threads=8 if smoke else 16,
        encoder=encoder,
        seed=0,
    )
    print(result.format())


if __name__ == "__main__":
    main()
