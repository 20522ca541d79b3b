"""Persistence benchmarks: zero-copy warm starts, delta appends, tiered bytes.

Three measurements back the ``persistence`` section of ``BENCH_index.json``
(recorded by ``benchmarks/test_bench_index.py::test_persistence_gates``):

* :func:`run_restore_bench` — snapshot save / full-copy load / mmap load
  wall-time at production entry counts (10^6 by default), plus snapshot
  bytes-per-entry.  The gated floor: ``load_index(path, mmap=True)`` must
  restore ≥20× faster than the full-copy load at 10^6 entries — the mmap
  path adopts the storage matrix without copying and defers the id→row map,
  so restore cost is O(1) in the entry count.
* :func:`run_delta_bench` — appending a 1k-entry delta to a small and to a
  large snapshot.  The gated floor: append cost is proportional to the
  delta, not the snapshot (the large-snapshot append must not approach the
  large full-save cost, and must stay within a small factor of the
  small-snapshot append).
* :func:`run_tiered_fleet_bench` — the same fleet workload replayed through
  an all-exact fleet (one unbounded MeanCache per user) and a tiered fleet
  (small exact L1 per user over a quantized L2).  The gated floor: the
  tiered fleet's bytes-per-entry is below, and ≤0.65× of, the exact fleet's at an equal
  (±2pp) hit rate — the memory-hierarchy trade the paper's fleet needs to
  reach 10^6–10^7 total entries.

Everything here is pure measurement; the floors live in the benchmark test
so CI publishes the JSON either way.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.tiered import QuantizedTier, TieredCache
from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer
from repro.embeddings.model import EncoderConfig, SiameseEncoder
from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig
from repro.index import make_index
from repro.index.snapshot import append_delta, load_index, save_index
from repro.metrics.reporting import format_table
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import WorkloadConfig, WorkloadGenerator


def _bench_encoder(seed: int = 5) -> SiameseEncoder:
    """The suite's small deterministic encoder (64-d, hashed features)."""
    config = EncoderConfig(
        n_features=256, hidden_dim=32, output_dim=64, seed=seed, anisotropy=0.3
    )
    featurizer = HashedFeaturizer(
        FeaturizerConfig(n_features=256, seed=seed), Tokenizer(TokenizerConfig())
    )
    return SiameseEncoder(config, featurizer)


def _build_flat_snapshot(path: Path, n_entries: int, dim: int, seed: int) -> float:
    """Populate a flat index with ``n_entries`` random rows and save it.

    Rows are generated and added in chunks so peak transient memory stays
    bounded at production sizes.  Returns the save wall-time in seconds.
    """
    rng = np.random.default_rng(seed)
    index = make_index("flat", dim=dim)
    chunk = 100_000
    for start in range(0, n_entries, chunk):
        rows = min(chunk, n_entries - start)
        index.add_batch(rng.standard_normal((rows, dim), dtype=np.float32))
    start_s = time.perf_counter()
    save_index(index, path)
    return time.perf_counter() - start_s


def _dir_nbytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


@dataclass
class RestoreBenchResult:
    """Warm-start cost of one snapshot size."""

    n_entries: int
    dim: int
    save_s: float
    full_load_s: float
    mmap_load_s: float
    mmap_speedup: float
    snapshot_bytes: int
    bytes_per_entry: float

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "n_entries": self.n_entries,
            "dim": self.dim,
            "save_s": self.save_s,
            "full_load_s": self.full_load_s,
            "mmap_load_s": self.mmap_load_s,
            "mmap_speedup": self.mmap_speedup,
            "snapshot_bytes": self.snapshot_bytes,
            "bytes_per_entry": self.bytes_per_entry,
        }


def run_restore_bench(
    n_entries: int = 1_000_000,
    dim: int = 64,
    seed: int = 7,
    workdir: "str | Path | None" = None,
) -> RestoreBenchResult:
    """Measure save / full-copy load / mmap load at ``n_entries`` rows.

    The mmap load is validated to actually be lazy: it must produce a
    memmap-backed index (adoption, not a silent copy).
    """
    owns_dir = workdir is None
    root = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp())
    try:
        path = root / f"restore-{n_entries}"
        save_s = _build_flat_snapshot(path, n_entries, dim, seed)

        start = time.perf_counter()
        full = load_index(path)
        full_load_s = time.perf_counter() - start
        assert len(full.ids) == n_entries
        del full

        start = time.perf_counter()
        mapped = load_index(path, mmap=True)
        mmap_load_s = time.perf_counter() - start
        if not getattr(mapped, "mmap_backed", False):
            raise RuntimeError("mmap load did not adopt the storage matrix")
        del mapped

        snapshot_bytes = _dir_nbytes(path)
        return RestoreBenchResult(
            n_entries=n_entries,
            dim=dim,
            save_s=save_s,
            full_load_s=full_load_s,
            mmap_load_s=mmap_load_s,
            mmap_speedup=full_load_s / mmap_load_s if mmap_load_s > 0 else float("inf"),
            snapshot_bytes=snapshot_bytes,
            bytes_per_entry=snapshot_bytes / n_entries if n_entries else 0.0,
        )
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)


@dataclass
class DeltaBenchResult:
    """Delta-append cost vs snapshot size."""

    small_entries: int
    large_entries: int
    delta_rows: int
    append_small_s: float
    append_large_s: float
    full_save_large_s: float
    #: append-to-large vs append-to-small — ~1.0 when cost is O(delta)
    size_sensitivity: float
    #: full rewrite cost vs the delta append it replaces
    append_speedup_vs_full_save: float

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "small_entries": self.small_entries,
            "large_entries": self.large_entries,
            "delta_rows": self.delta_rows,
            "append_small_s": self.append_small_s,
            "append_large_s": self.append_large_s,
            "full_save_large_s": self.full_save_large_s,
            "size_sensitivity": self.size_sensitivity,
            "append_speedup_vs_full_save": self.append_speedup_vs_full_save,
        }


def run_delta_bench(
    small_entries: int = 10_000,
    large_entries: int = 1_000_000,
    delta_rows: int = 1_000,
    dim: int = 64,
    seed: int = 11,
    repeats: int = 5,
    workdir: "str | Path | None" = None,
) -> DeltaBenchResult:
    """Append a ``delta_rows`` delta to a small and to a large snapshot.

    Each append is repeated ``repeats`` times and the *minimum* wall-time
    kept (the usual microbenchmark noise floor).  The large snapshot's full
    save time is measured once for the rewrite-cost comparison.
    """
    owns_dir = workdir is None
    root = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp())
    rng = np.random.default_rng(seed)
    delta = rng.standard_normal((delta_rows, dim), dtype=np.float32)
    try:
        small = root / "delta-small"
        large = root / "delta-large"
        _build_flat_snapshot(small, small_entries, dim, seed)
        full_save_large_s = _build_flat_snapshot(large, large_entries, dim, seed + 1)

        def timed_append(path: Path, base: int) -> float:
            best = float("inf")
            for r in range(repeats):
                ids = list(range(base + r * delta_rows, base + (r + 1) * delta_rows))
                start = time.perf_counter()
                append_delta(path, vectors=delta, ids=ids)
                best = min(best, time.perf_counter() - start)
            return best

        append_small_s = timed_append(small, base=10_000_000)
        append_large_s = timed_append(large, base=10_000_000)
        return DeltaBenchResult(
            small_entries=small_entries,
            large_entries=large_entries,
            delta_rows=delta_rows,
            append_small_s=append_small_s,
            append_large_s=append_large_s,
            full_save_large_s=full_save_large_s,
            size_sensitivity=(
                append_large_s / append_small_s if append_small_s > 0 else float("inf")
            ),
            append_speedup_vs_full_save=(
                full_save_large_s / append_large_s if append_large_s > 0 else float("inf")
            ),
        )
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)


@dataclass
class TieredFleetBenchResult:
    """Bytes-vs-hit-rate of a tiered fleet against the all-exact fleet."""

    n_users: int
    n_events: int
    exact_hit_rate: float
    tiered_hit_rate: float
    exact_bytes_per_entry: float
    tiered_bytes_per_entry: float
    #: tiered / exact bytes-per-entry — the ≤0.65 floor quantity
    bytes_ratio: float
    hit_rate_gap: float
    tiered_l1_entries: int
    tiered_l2_entries: int

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "n_users": self.n_users,
            "n_events": self.n_events,
            "exact_hit_rate": self.exact_hit_rate,
            "tiered_hit_rate": self.tiered_hit_rate,
            "exact_bytes_per_entry": self.exact_bytes_per_entry,
            "tiered_bytes_per_entry": self.tiered_bytes_per_entry,
            "bytes_ratio": self.bytes_ratio,
            "hit_rate_gap": self.hit_rate_gap,
            "tiered_l1_entries": self.tiered_l1_entries,
            "tiered_l2_entries": self.tiered_l2_entries,
        }


def run_tiered_fleet_bench(
    n_users: int = 40,
    queries_per_user: int = 60,
    l1_entries: int = 4,
    seed: int = 13,
) -> TieredFleetBenchResult:
    """Replay one fleet workload through exact and tiered fleets.

    Both fleets share the encoder and the trace; the tiered fleet gives
    each user a small exact L1 over a per-user sq8 L2 (``min_train_size``
    low enough that codes train during the run, so the measured bytes are
    the quantized steady state, not the float staging phase).
    """
    encoder = _bench_encoder(seed)
    trace = WorkloadGenerator(
        WorkloadConfig(
            n_users=n_users,
            queries_per_user=queries_per_user,
            duplicate_rate=0.6,
        ),
        seed=seed,
    ).generate()
    fleet_config = ServerConfig(n_shards=1)

    exact_fleet = CacheServer(
        lambda user_id: MeanCache(encoder, MeanCacheConfig(max_entries=100_000)),
        config=fleet_config,
    )
    exact_result = exact_fleet.replay(trace, 0.25)
    exact_report = exact_fleet.storage_report()

    tiered_fleet = CacheServer(
        lambda user_id: TieredCache(
            encoder,
            MeanCacheConfig(max_entries=l1_entries),
            l2=QuantizedTier(params={"min_train_size": 16}),
        ),
        config=fleet_config,
    )
    tiered_result = tiered_fleet.replay(trace, 0.25)
    tiered_report = tiered_fleet.storage_report()

    exact_bpe = float(exact_report["bytes_per_entry"])
    tiered_bpe = float(tiered_report["bytes_per_entry"])
    return TieredFleetBenchResult(
        n_users=n_users,
        n_events=len(trace),
        exact_hit_rate=exact_result.hit_rate,
        tiered_hit_rate=tiered_result.hit_rate,
        exact_bytes_per_entry=exact_bpe,
        tiered_bytes_per_entry=tiered_bpe,
        bytes_ratio=tiered_bpe / exact_bpe if exact_bpe else float("inf"),
        hit_rate_gap=abs(exact_result.hit_rate - tiered_result.hit_rate),
        tiered_l1_entries=int(tiered_report["l1_entries"]),
        tiered_l2_entries=int(tiered_report["l2_entries"]),
    )


def format_persistence_report(
    restore: RestoreBenchResult,
    delta: DeltaBenchResult,
    tiered: TieredFleetBenchResult,
) -> str:
    """Human-readable summary of the three persistence measurements."""
    rows = [
        (
            "restore",
            f"{restore.n_entries:,} entries",
            f"full {restore.full_load_s * 1e3:.1f} ms",
            f"mmap {restore.mmap_load_s * 1e3:.2f} ms",
            f"{restore.mmap_speedup:.1f}x",
        ),
        (
            "delta append",
            f"{delta.delta_rows:,} rows",
            f"small {delta.append_small_s * 1e3:.2f} ms",
            f"large {delta.append_large_s * 1e3:.2f} ms",
            f"{delta.append_speedup_vs_full_save:.1f}x vs full save",
        ),
        (
            "tiered fleet",
            f"{tiered.n_events:,} events",
            f"exact {tiered.exact_bytes_per_entry:.0f} B/entry",
            f"tiered {tiered.tiered_bytes_per_entry:.0f} B/entry",
            f"ratio {tiered.bytes_ratio:.2f}",
        ),
    ]
    return format_table(
        ["benchmark", "scale", "a", "b", "headline"],
        rows,
        title="Persistence / memory hierarchy",
    )


def main() -> None:
    """Small-scale run for eyeballing (full scale runs in the bench suite)."""
    restore = run_restore_bench(n_entries=100_000)
    delta = run_delta_bench(small_entries=5_000, large_entries=100_000)
    tiered = run_tiered_fleet_bench(n_users=20, queries_per_user=25)
    print(format_persistence_report(restore, delta, tiered))


if __name__ == "__main__":
    main()
