"""Benchmark: the ANN backend sweep, single-query latency and persistence.

Three index benchmarks are recorded into ``BENCH_index.json`` at the repo
root (field reference in ``docs/benchmarks.md``) so later PRs can track the
perf trajectory:

* ``backends`` — recall@k vs lookup throughput vs bytes-per-entry of the
  approximate and quantized backends (IVF inverted lists, int8 scalar
  quantization, IVF-routed SQ8) against exact flat search at 10k and 100k
  entries on the standard clustered paraphrase workload;
* ``latency`` — single-query p50/p95/p99 of the quantized backends next to
  exact flat search on the same vectors, at 10^5 and 10^6 entries, with
  same-run backend-over-flat regression gates (methodology in
  ``docs/benchmarks.md``);
* ``persistence`` — snapshot restore wall-time (full-copy vs mmap
  zero-copy) and bytes-per-entry at 10^6 entries, delta-append cost vs
  snapshot size, and the tiered fleet's bytes-vs-hit-rate trade against an
  all-exact fleet.

Run with ``pytest benchmarks/test_bench_index.py -s``.  Set
``REPRO_BENCH_SCALE`` (e.g. ``0.1`` in CI) to shrink the latency corpus
sizes proportionally; the gates adapt to the scaled sizes.
"""

import json
import os
from pathlib import Path

from conftest import emit

from repro.experiments.index_bench import run_backend_sweep, run_latency_bench
from repro.experiments.persistence_bench import (
    format_persistence_report,
    run_delta_bench,
    run_restore_bench,
    run_tiered_fleet_bench,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_index.json"

DIM = 64
N_QUERIES = 200
TOP_K = 5

SWEEP_SIZES = (10_000, 100_000)
APPROX_BACKENDS = ("ivf",)
QUANTIZED_BACKENDS = ("sq8",)
ROUTED_QUANTIZED_BACKENDS = ("ivf+sq8",)
MIN_RECALL = 0.9
MIN_BATCH_SPEEDUP_AT_100K = 10.0
# Quantized floors (ISSUE 4 acceptance): at 100k entries the memory-tier
# backends must keep >= 90% of the exact top-k while storing at most 0.30x
# of flat's bytes-per-entry (rows + routing + codec all counted).
MAX_QUANTIZED_BYTES_RATIO_AT_100K = 0.30
# The routed composition trades some of the memory win (inverted lists,
# row map) for sublinear scans; it must still beat flat's batched path.
MIN_ROUTED_QUANTIZED_BATCH_SPEEDUP_AT_100K = 2.0

# ---------------------------------------------------------------------- #
# Single-query latency gates (ISSUE 7): relative, same-run, per backend.
# ---------------------------------------------------------------------- #
# REPRO_BENCH_SCALE shrinks the latency corpus sizes for constrained
# runners (CI uses 0.1 -> 10k/100k); sizes are clamped so the workload
# stays meaningful and duplicates collapse.
LATENCY_BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
LATENCY_BASE_SIZES = (100_000, 1_000_000)
LATENCY_SIZES = tuple(
    dict.fromkeys(max(5_000, int(s * LATENCY_BENCH_SCALE)) for s in LATENCY_BASE_SIZES)
)
LATENCY_QUERIES = 100
LATENCY_REPEATS = 2
LATENCY_WARMUP = 10


def _latency_ceilings(n_entries):
    """Maximum backend/flat p50 and p99 ratio per backend at the gated size.

    What the gate must catch is a quantized scan falling back to decoding
    rows into a float matrix (the speed of ``tests/reference_scan.py``):
    17-22x slower for the flat-scan backend and ~3x for the routed one.
    Backend/flat p50 was 1.26 (sq8), 0.22 (ivf+sq8) at 10^5 and 0.74, 0.035
    at 10^6 on the host the ceilings were set on; a host whose flat sgemv is
    relatively faster reads more (the committed BENCH_index.json, from a
    2-vCPU container: 1.98, 0.54 at 10^5 and 1.44, 0.09 at 10^6), a
    reversion multiplies them (to >= 27, 0.66 at 10^5; 14, 0.137 at 10^6).
    The ceilings sit between: above every measured ratio, below every
    reverted one.  The routed backend's margin is the thin one — its
    reference path only ever decoded the probed cells.  Below ~5*10^4
    entries fixed per-query costs (routing) dominate both sides and the
    ratio says nothing about the scan, so nothing is gated there.
    """
    if n_entries >= 500_000:
        return {"sq8": 4.0, "ivf+sq8": 0.12}
    if n_entries >= 50_000:
        return {"sq8": 6.0, "ivf+sq8": 0.65}
    return {}


# ---------------------------------------------------------------------- #
# Persistence gates (ISSUE 9): crash-safe snapshots + mmap warm starts.
# ---------------------------------------------------------------------- #
# REPRO_BENCH_SCALE shrinks the snapshot sizes like the latency corpus;
# the mmap-restore floor adapts because the fixed manifest/entry-map cost
# has not amortized away at small snapshot sizes.
PERSISTENCE_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
RESTORE_ENTRIES = max(50_000, int(1_000_000 * PERSISTENCE_SCALE))
DELTA_SMALL_ENTRIES = 10_000
DELTA_LARGE_ENTRIES = RESTORE_ENTRIES
# At 10^6 entries a full-copy restore reads + copies 256MB of float32 rows
# while the mmap path maps them and defers the id->row table: >=20x.  Below
# ~500k the fixed per-load costs (manifest parse, file opens) are a larger
# share of both paths, so the floor relaxes to 5x.
MIN_MMAP_SPEEDUP = 20.0 if RESTORE_ENTRIES >= 500_000 else 5.0
# Appending a 1k-row delta must cost a small fraction of rewriting the
# large snapshot, and must not scale with the snapshot being appended to.
MIN_DELTA_SPEEDUP_VS_FULL_SAVE = 10.0
MAX_DELTA_SIZE_SENSITIVITY = 10.0
# Fleet memory hierarchy: the tiered fleet stores well under the all-exact
# fleet's bytes per entry while staying within 2pp of its hit rate.  Both
# sides count each vector once (an exact row; an L1 row or an L2 code row)
# plus float32 context chains.  Measured ratio 0.568 at seed 13 (exact 353,
# tiered 201 B/entry) and 0.561-0.564 at seeds 0, 7, 21; the floor leaves
# ~0.08 of margin.  (It was 0.5 while each exact entry also kept a float64
# copy of its vector, which put the exact side at 951 B/entry.)
MAX_TIERED_BYTES_RATIO = 0.65
MAX_TIERED_HIT_RATE_GAP = 0.02


def _write_payload(update):
    """Merge one benchmark's section into BENCH_index.json."""
    payload = {}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def test_backend_recall_throughput_sweep(benchmark):
    result = benchmark.pedantic(
        lambda: run_backend_sweep(
            sizes=SWEEP_SIZES, dim=DIM, n_queries=N_QUERIES, top_k=TOP_K, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    emit("ANN backend sweep", result.format())

    _write_payload({"backends": result.to_dict()})
    emit("BENCH_index.json", f"backends section written to {BENCH_JSON}")

    for backend in APPROX_BACKENDS:
        for n_entries in SWEEP_SIZES:
            point = result.point(backend, n_entries)
            # Approximate search must keep at least 90% of the exact top-k
            # on the standard paraphrase workload at every size.
            assert point.recall_at_k >= MIN_RECALL, point.to_dict()
        # At 100k entries sublinear probing must buy an order of magnitude
        # of lookup throughput on the batched (fleet/serving) path.
        at_100k = result.point(backend, 100_000)
        assert at_100k.batch_speedup_vs_flat >= MIN_BATCH_SPEEDUP_AT_100K, (
            at_100k.to_dict()
        )

    for backend in QUANTIZED_BACKENDS + ROUTED_QUANTIZED_BACKENDS:
        for n_entries in SWEEP_SIZES:
            point = result.point(backend, n_entries)
            # Quantized scoring must stay inside the recall band the caches
            # operate in at every size.
            assert point.recall_at_k >= MIN_RECALL, point.to_dict()
    for backend in QUANTIZED_BACKENDS:
        # The memory floor is pinned at 100k, where fixed codec tables have
        # amortized away.
        at_100k = result.point(backend, 100_000)
        assert (
            at_100k.bytes_per_entry_vs_flat <= MAX_QUANTIZED_BYTES_RATIO_AT_100K
        ), at_100k.to_dict()
    for backend in ROUTED_QUANTIZED_BACKENDS:
        # Routing over quantized rows must also buy back lookup throughput.
        at_100k = result.point(backend, 100_000)
        assert (
            at_100k.batch_speedup_vs_flat
            >= MIN_ROUTED_QUANTIZED_BATCH_SPEEDUP_AT_100K
        ), at_100k.to_dict()


def test_single_query_latency_gates(benchmark):
    result = benchmark.pedantic(
        lambda: run_latency_bench(
            sizes=LATENCY_SIZES,
            dim=DIM,
            n_queries=LATENCY_QUERIES,
            top_k=TOP_K,
            repeats=LATENCY_REPEATS,
            warmup=LATENCY_WARMUP,
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    emit("Single-query latency", result.format())

    _write_payload({"latency": result.to_dict()})
    emit("BENCH_index.json", f"latency section written to {BENCH_JSON}")

    # Gates are *relative* (backend over flat, same run, same vectors):
    # absolute latency depends on the runner; how far a compressed scan sits
    # from the exact one depends on it far less, and not at all like a
    # reversion to decode speed does.  They apply at the largest measured
    # size, where the scan dominates per-query cost.
    largest = max(LATENCY_SIZES)
    for backend, ceiling in _latency_ceilings(largest).items():
        context = {
            "backend": backend,
            "n_entries": largest,
            "p50_vs_flat": result.vs_flat(backend, largest, "p50_ms"),
            "p99_vs_flat": result.vs_flat(backend, largest, "p99_ms"),
            "ceiling": ceiling,
            "point": result.point(backend, largest).to_dict(),
            "flat": result.point("flat", largest).to_dict(),
        }
        assert context["p50_vs_flat"] <= ceiling, context
        assert context["p99_vs_flat"] <= ceiling, context
    # Decision invariance against the decode scan is pinned by
    # tests/test_index_properties.py; here we only sanity-check that every
    # backend produced real histograms at every size.
    for size in LATENCY_SIZES:
        for backend in QUANTIZED_BACKENDS + ROUTED_QUANTIZED_BACKENDS:
            assert result.point(backend, size).count == LATENCY_QUERIES


def test_persistence_gates(benchmark):
    def run():
        restore = run_restore_bench(n_entries=RESTORE_ENTRIES, dim=DIM, seed=7)
        delta = run_delta_bench(
            small_entries=DELTA_SMALL_ENTRIES,
            large_entries=DELTA_LARGE_ENTRIES,
            delta_rows=1_000,
            dim=DIM,
            seed=11,
        )
        tiered = run_tiered_fleet_bench(seed=13)
        return restore, delta, tiered

    restore, delta, tiered = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Persistence benchmark", format_persistence_report(restore, delta, tiered))

    _write_payload(
        {
            "persistence": {
                "restore": restore.to_dict(),
                "delta": delta.to_dict(),
                "tiered_fleet": tiered.to_dict(),
            }
        }
    )
    emit("BENCH_index.json", f"persistence section written to {BENCH_JSON}")

    # Warm-start floor: the mmap restore adopts the stored row matrix and
    # defers the id->row table, so restore time is O(1) in entries while
    # the full-copy path reads + copies the whole matrix.
    assert restore.mmap_speedup >= MIN_MMAP_SPEEDUP, restore.to_dict()
    # Delta floor: appending 1k rows costs a small fraction of rewriting
    # the snapshot, and does not grow with the snapshot being appended to.
    assert (
        delta.append_speedup_vs_full_save >= MIN_DELTA_SPEEDUP_VS_FULL_SAVE
    ), delta.to_dict()
    assert delta.size_sensitivity <= MAX_DELTA_SIZE_SENSITIVITY, delta.to_dict()
    # Memory-hierarchy floor: the tiered fleet stores fewer bytes per entry
    # without giving up hit rate on duplicate-heavy fleet traffic.
    assert tiered.tiered_bytes_per_entry < tiered.exact_bytes_per_entry, tiered.to_dict()
    assert tiered.bytes_ratio <= MAX_TIERED_BYTES_RATIO, tiered.to_dict()
    assert tiered.hit_rate_gap <= MAX_TIERED_HIT_RATE_GAP, tiered.to_dict()
