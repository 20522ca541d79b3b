"""Index benchmarks: the ANN backend sweep and single-query latency.

Two measurements live here, both backing ``benchmarks/test_bench_index.py``
(which records ``BENCH_index.json`` for cross-PR tracking; field reference
in ``docs/benchmarks.md``):

1. :func:`run_backend_sweep` — the recall/throughput/memory trade-off of
   the approximate and quantized backends (IVF, SQ8, IVF+SQ8)
   against exact flat search at several corpus sizes, on
   :func:`make_ann_workload`'s paraphrase-style clustered workload.  Exact
   search is O(n·d) per query and O(4d) bytes per entry, so it loses ground
   as the cache grows; the sweep pins how much lookup throughput and memory
   the sublinear/quantized backends buy back and how much recall they give
   up (bytes-per-entry lands in the ``backends`` section of
   BENCH_index.json).

2. :func:`run_latency_bench` — single-query latency histograms (p50/p95/p99
   over ``time.perf_counter_ns`` samples) for the quantized backends next
   to exact flat search on the same vectors.  Latency, unlike throughput,
   is dominated by per-call fixed costs — allocations, page faults on fresh
   large buffers, per-cell dispatch — so this is the measurement that
   guards the fused/scratch-buffer hot path: a scan that fell back to
   decoding rows would be an order of magnitude behind flat.  The
   methodology (warmup, per-query best-of-``repeats``, nearest-rank
   percentiles) is documented in ``docs/benchmarks.md``.  Lands in the
   ``latency`` section of BENCH_index.json.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.index import FlatIndex, make_index
from repro.index.registry import seeded_params
from repro.metrics.reporting import format_table
from repro.metrics.timing import LatencyHistogram


# --------------------------------------------------------------------------- #
# ANN backend sweep: recall vs lookup throughput per backend and corpus size
# --------------------------------------------------------------------------- #
def make_ann_workload(
    n_entries: int,
    dim: int = 64,
    n_queries: int = 200,
    paraphrases_per_intent: int = 8,
    intent_spread: float = 0.35,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The standard clustered workload for index recall measurements.

    Models semantic-cache traffic rather than worst-case uniform noise:
    the corpus holds ``n_entries / paraphrases_per_intent`` *intents* (unit
    vectors) with ``paraphrases_per_intent`` noisy paraphrases each, and
    every query is a fresh paraphrase of a stored intent — the repeated
    traffic a cache exists to convert into hits.  ``intent_spread`` is the
    expected L2 norm of the paraphrase noise; 0.35 puts sibling cosine
    similarity around 0.89–0.94, matching the τ-band the caches operate in.

    Returns ``(vectors, queries)``; a vector's true nearest neighbours are
    dominated by its intent's other paraphrases, so ground-truth top-k from
    exact search measures exactly what an approximate cache backend must
    not lose.
    """
    if n_entries < 1 or n_queries < 1:
        raise ValueError("n_entries and n_queries must be >= 1")
    if paraphrases_per_intent < 1:
        raise ValueError("paraphrases_per_intent must be >= 1")
    rng = np.random.default_rng(seed)
    n_intents = max(1, n_entries // paraphrases_per_intent)
    intents = rng.normal(size=(n_intents, dim))
    intents /= np.linalg.norm(intents, axis=1, keepdims=True)
    sigma = intent_spread / np.sqrt(dim)
    vectors = intents[rng.integers(0, n_intents, n_entries)] + sigma * rng.normal(
        size=(n_entries, dim)
    )
    queries = intents[rng.integers(0, n_intents, n_queries)] + sigma * rng.normal(
        size=(n_queries, dim)
    )
    return vectors, queries


@dataclass(frozen=True)
class BackendBenchPoint:
    """One (backend, corpus size) cell of the sweep.

    ``nbytes`` is the backend's *total* footprint for the corpus: live row
    storage plus, where the backend has them, routing structures and codec
    tables (quantized backends) — the honest per-entry cost of choosing it.
    ``flat_nbytes`` is exact float32 storage for the same corpus.
    """

    backend: str
    n_entries: int
    dim: int
    n_queries: int
    top_k: int
    params: Mapping[str, object]
    build_s: float
    lookup_s: float
    lookup_batch_s: float
    flat_lookup_s: float
    flat_lookup_batch_s: float
    recall_at_k: float
    nbytes: int = 0
    flat_nbytes: int = 0

    @property
    def lookup_throughput(self) -> float:
        """Sequential (per-query) lookups per second."""
        return self.n_queries / self.lookup_s if self.lookup_s > 0 else float("inf")

    @property
    def lookup_batch_throughput(self) -> float:
        """Batched lookups per second (the fleet/serving hot path)."""
        if self.lookup_batch_s <= 0:
            return float("inf")
        return self.n_queries / self.lookup_batch_s

    @property
    def speedup_vs_flat(self) -> float:
        """Per-query lookup speedup over exact flat search."""
        return self.flat_lookup_s / self.lookup_s if self.lookup_s > 0 else float("inf")

    @property
    def batch_speedup_vs_flat(self) -> float:
        """Batched lookup speedup over exact flat search (one call each)."""
        if self.lookup_batch_s <= 0:
            return float("inf")
        return self.flat_lookup_batch_s / self.lookup_batch_s

    @property
    def bytes_per_entry(self) -> float:
        """Total index bytes (rows + routing + codec) per stored vector."""
        return self.nbytes / self.n_entries if self.n_entries else 0.0

    @property
    def bytes_per_entry_vs_flat(self) -> float:
        """Memory ratio against exact float32 storage (< 1 is a win)."""
        if self.flat_nbytes <= 0:
            return float("inf")
        return self.nbytes / self.flat_nbytes

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record (one ``backends`` row of BENCH_index.json)."""
        return {
            "backend": self.backend,
            "n_entries": self.n_entries,
            "dim": self.dim,
            "n_queries": self.n_queries,
            "top_k": self.top_k,
            "params": dict(self.params),
            "build_s": self.build_s,
            "lookup_s": self.lookup_s,
            "lookup_batch_s": self.lookup_batch_s,
            "lookup_throughput_per_s": self.lookup_throughput,
            "lookup_batch_throughput_per_s": self.lookup_batch_throughput,
            "speedup_vs_flat": self.speedup_vs_flat,
            "batch_speedup_vs_flat": self.batch_speedup_vs_flat,
            "recall_at_k": self.recall_at_k,
            "nbytes": self.nbytes,
            "bytes_per_entry": self.bytes_per_entry,
            "bytes_per_entry_vs_flat": self.bytes_per_entry_vs_flat,
        }


@dataclass
class BackendSweepResult:
    """All (backend, size) measurements of one sweep run."""

    points: List[BackendBenchPoint] = field(default_factory=list)
    top_k: int = 5
    dim: int = 64
    n_queries: int = 200
    seed: int = 0

    def point(self, backend: str, n_entries: int) -> BackendBenchPoint:
        """The cell for one backend at one corpus size."""
        for p in self.points:
            if p.backend == backend and p.n_entries == n_entries:
                return p
        raise KeyError(f"no sweep point for backend {backend!r} at {n_entries} entries")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``backends`` block of BENCH_index.json)."""
        return {
            "top_k": self.top_k,
            "dim": self.dim,
            "n_queries": self.n_queries,
            "seed": self.seed,
            "points": [p.to_dict() for p in self.points],
        }

    def format(self) -> str:
        """Render the recall/throughput/memory trade-off table."""
        rows = [
            [
                p.backend,
                p.n_entries,
                f"{p.recall_at_k:.3f}",
                f"{p.lookup_s * 1e6 / p.n_queries:.0f}",
                f"{p.speedup_vs_flat:.1f}x",
                f"{p.batch_speedup_vs_flat:.1f}x",
                f"{p.bytes_per_entry:.0f}",
                f"{p.bytes_per_entry_vs_flat:.2f}x",
                f"{p.build_s:.2f}",
            ]
            for p in self.points
        ]
        return format_table(
            [
                "Backend",
                "Entries",
                f"Recall@{self.top_k}",
                "Lookup (µs/query)",
                "Speedup",
                "Batch speedup",
                "B/entry",
                "Mem vs flat",
                "Build (s)",
            ],
            rows,
            title=(
                "ANN backend sweep: recall vs lookup throughput vs memory "
                f"(dim={self.dim}, {self.n_queries} queries, top_k={self.top_k})"
            ),
        )


def _recall_against(
    truth: Sequence[Sequence], got: Sequence[Sequence]
) -> float:
    """Mean fraction of the exact top-k ids each approximate result kept."""
    fractions = []
    for true_hits, got_hits in zip(truth, got):
        if not true_hits:
            continue
        true_ids = {h.id for h in true_hits}
        got_ids = {h.id for h in got_hits}
        fractions.append(len(true_ids & got_ids) / len(true_ids))
    return float(np.mean(fractions)) if fractions else 1.0


def _build_backend(backend: str, dim: int, params: Mapping[str, object], seed: int):
    """Build a sweep backend, threading the sweep seed into its RNGs.

    Every randomized backend (IVF/SQ8/IVF+SQ8) takes a ``seed`` kwarg;
    injecting the sweep's seed (via the registry's shared
    :func:`~repro.index.registry.seeded_params` rule) makes
    BENCH_index.json deltas attributable to code changes, not to run-to-run
    k-means noise.
    """
    return make_index(backend, dim=dim, **seeded_params(backend, params, seed))


def default_sweep_backends() -> Mapping[str, Mapping[str, object]]:
    """The standard sweep configurations.

    Sublinear routing (ivf), quantized storage (sq8) and the
    routed-quantized composition; IVF+SQ8 probes 16 cells to hold recall
    with quantized scoring.
    """
    return {
        "ivf": {},
        "sq8": {},
        "ivf+sq8": {"nprobe": 16},
    }


def run_backend_sweep(
    sizes: Sequence[int] = (10_000, 100_000),
    dim: int = 64,
    n_queries: int = 200,
    top_k: int = 5,
    backends: Optional[Mapping[str, Mapping[str, object]]] = None,
    seed: int = 0,
) -> BackendSweepResult:
    """Measure every backend's recall, lookup throughput and memory per size.

    For each corpus size an exact :class:`FlatIndex` provides ground-truth
    top-k and the baseline timings; each approximate backend is then built
    on the same vectors (build time includes IVF's k-means training and the
    quantized backends' codec training + encoding) and timed on the same
    queries, sequentially (one ``search`` per query — the interactive-lookup
    path) and batched (one call for all queries — the fleet path).  Each
    point also records the backend's total bytes (rows + routing + codec)
    for the memory column.  ``backends`` maps backend name → constructor
    params and defaults to :func:`default_sweep_backends`.  The ``seed``
    kwarg drives the workload *and* every backend's internal RNG, so a sweep
    is deterministic end to end.
    """
    if backends is None:
        backends = default_sweep_backends()
    result = BackendSweepResult(top_k=top_k, dim=dim, n_queries=n_queries, seed=seed)
    for n_entries in sizes:
        vectors, queries = make_ann_workload(
            n_entries, dim=dim, n_queries=n_queries, seed=seed
        )
        flat = FlatIndex(dim=dim)
        start = time.perf_counter()
        flat.add_batch(vectors)
        flat_build_s = time.perf_counter() - start
        truth = flat.search(queries, top_k=top_k)

        start = time.perf_counter()
        for q in queries:
            flat.search(q, top_k=top_k)
        flat_lookup_s = time.perf_counter() - start
        start = time.perf_counter()
        flat.search(queries, top_k=top_k)
        flat_lookup_batch_s = time.perf_counter() - start

        flat_nbytes = flat.storage_nbytes
        result.points.append(
            BackendBenchPoint(
                backend="flat",
                n_entries=n_entries,
                dim=dim,
                n_queries=n_queries,
                top_k=top_k,
                params={},
                build_s=flat_build_s,
                lookup_s=flat_lookup_s,
                lookup_batch_s=flat_lookup_batch_s,
                flat_lookup_s=flat_lookup_s,
                flat_lookup_batch_s=flat_lookup_batch_s,
                recall_at_k=1.0,
                nbytes=flat_nbytes,
                flat_nbytes=flat_nbytes,
            )
        )
        for name, params in backends.items():
            index = _build_backend(name, dim, params, seed)
            start = time.perf_counter()
            index.add_batch(vectors)
            build_s = time.perf_counter() - start
            start = time.perf_counter()
            got = [index.search(q, top_k=top_k)[0] for q in queries]
            lookup_s = time.perf_counter() - start
            start = time.perf_counter()
            index.search(queries, top_k=top_k)
            lookup_batch_s = time.perf_counter() - start
            result.points.append(
                BackendBenchPoint(
                    backend=name,
                    n_entries=n_entries,
                    dim=dim,
                    n_queries=n_queries,
                    top_k=top_k,
                    params=dict(params),
                    build_s=build_s,
                    lookup_s=lookup_s,
                    lookup_batch_s=lookup_batch_s,
                    flat_lookup_s=flat_lookup_s,
                    flat_lookup_batch_s=flat_lookup_batch_s,
                    recall_at_k=_recall_against(truth, got),
                    nbytes=index.storage_nbytes,
                    flat_nbytes=flat_nbytes,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Single-query latency: one histogram per backend, read against flat's
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LatencyBenchPoint:
    """One (backend, corpus size) single-query latency histogram.

    Percentiles are nearest-rank over per-query best-of-``repeats`` samples.
    """

    backend: str
    n_entries: int
    dim: int
    params: Mapping[str, object]
    count: int
    repeats: int
    warmup: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record (one ``latency`` row of BENCH_index.json)."""
        return {
            "backend": self.backend,
            "n_entries": self.n_entries,
            "dim": self.dim,
            "params": dict(self.params),
            "count": self.count,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
        }


@dataclass
class LatencyBenchResult:
    """All (backend, size) latency histograms of one run."""

    points: List[LatencyBenchPoint] = field(default_factory=list)
    top_k: int = 5
    dim: int = 64
    n_queries: int = 100
    repeats: int = 2
    warmup: int = 10
    seed: int = 0

    def point(self, backend: str, n_entries: int) -> LatencyBenchPoint:
        """The histogram for one backend at one corpus size."""
        for p in self.points:
            if p.backend == backend and p.n_entries == n_entries:
                return p
        raise KeyError(
            f"no latency point for backend {backend!r} at {n_entries} entries"
        )

    def vs_flat(self, backend: str, n_entries: int, stat: str = "p99_ms") -> float:
        """``backend``'s ``stat`` over flat's at the same size (< 1 is faster)."""
        flat = getattr(self.point("flat", n_entries), stat)
        return getattr(self.point(backend, n_entries), stat) / flat

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``latency`` block of BENCH_index.json)."""
        return {
            "top_k": self.top_k,
            "dim": self.dim,
            "n_queries": self.n_queries,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seed": self.seed,
            "points": [p.to_dict() for p in self.points],
        }

    def format(self) -> str:
        """Render the per-backend latency table with the p50-over-flat column."""
        rows = [
            [
                p.backend,
                p.n_entries,
                f"{p.p50_ms:.3f}",
                f"{p.p95_ms:.3f}",
                f"{p.p99_ms:.3f}",
                f"{self.vs_flat(p.backend, p.n_entries, 'p50_ms'):.2f}x",
            ]
            for p in self.points
        ]
        return format_table(
            ["Backend", "Entries", "p50 (ms)", "p95 (ms)", "p99 (ms)", "p50 vs flat"],
            rows,
            title=(
                "Single-query latency "
                f"(dim={self.dim}, {self.n_queries} queries x best-of-"
                f"{self.repeats}, top_k={self.top_k})"
            ),
        )


def default_latency_backends() -> Mapping[str, Mapping[str, object]]:
    """The standard latency-bench configurations.

    Exact flat search — the line every other backend is read against, so
    it comes first — plus the quantized pair the fused-scan work targets.
    ``ivf+sq8`` probes 64 cells — the high-recall serving configuration,
    where the scan (not the routing) dominates — with repartitioning
    deferred to :meth:`~repro.index.base.VectorIndex.maintenance` as the
    serving fleet runs it.
    """
    return {
        "flat": {},
        "sq8": {},
        "ivf+sq8": {"nprobe": 64, "auto_repartition": False},
    }


def _measure_single_query(
    index, queries: np.ndarray, top_k: int, warmup: int, repeats: int
) -> LatencyHistogram:
    """Per-query best-of-``repeats`` latency histogram for one index.

    Each query runs ``repeats`` times and records its fastest sample: a
    single-core container steals multi-millisecond slices often enough to
    poison raw tail percentiles, and the minimum across back-to-back runs
    strips that scheduler noise while keeping the real per-query variation
    (probe counts, list sizes) that tail latency is about.
    """
    hist = LatencyHistogram()
    for q in queries[:warmup]:
        index.search(q[None, :], top_k=top_k)
    for q in queries:
        best: Optional[int] = None
        for _ in range(repeats):
            start = time.perf_counter_ns()
            index.search(q[None, :], top_k=top_k)
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        hist.record(best)
    return hist


def run_latency_bench(
    sizes: Sequence[int] = (100_000, 1_000_000),
    dim: int = 64,
    n_queries: int = 100,
    top_k: int = 5,
    repeats: int = 2,
    warmup: int = 10,
    backends: Optional[Mapping[str, Mapping[str, object]]] = None,
    seed: int = 0,
) -> LatencyBenchResult:
    """Measure single-query p50/p95/p99 per backend.

    For each corpus size and backend the index is built once on the
    :func:`make_ann_workload` vectors, :meth:`maintenance` runs (deferred
    repartitioning plus cell-major layout compaction — the steady state a
    served index reaches between batching windows), and the same queries
    are timed one at a time.  Relative (same-run) backend-over-flat ratios
    are what ``benchmarks/test_bench_index.py`` gates on; absolute numbers
    are machine-dependent context.
    """
    if n_queries < 1 or repeats < 1 or warmup < 0:
        raise ValueError("n_queries and repeats must be >= 1, warmup >= 0")
    if backends is None:
        backends = default_latency_backends()
    result = LatencyBenchResult(
        top_k=top_k,
        dim=dim,
        n_queries=n_queries,
        repeats=repeats,
        warmup=warmup,
        seed=seed,
    )
    for n_entries in sizes:
        vectors, queries = make_ann_workload(
            n_entries, dim=dim, n_queries=n_queries + warmup, seed=seed
        )
        for name, params in backends.items():
            index = _build_backend(name, dim, params, seed)
            index.add_batch(vectors)
            index.maintenance()
            hist = _measure_single_query(
                index, queries[warmup:], top_k, warmup, repeats
            )
            stats = hist.to_dict()
            result.points.append(
                LatencyBenchPoint(
                    backend=name,
                    n_entries=n_entries,
                    dim=dim,
                    params=dict(params),
                    count=hist.count,
                    repeats=repeats,
                    warmup=warmup,
                    p50_ms=stats["p50_ns"] / 1e6,
                    p95_ms=stats["p95_ns"] / 1e6,
                    p99_ms=stats["p99_ns"] / 1e6,
                    mean_ms=stats["mean_ns"] / 1e6,
                )
            )
    return result
