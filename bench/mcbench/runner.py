"""One workload, one process: set-up, repeats, checks, metrics.

The timed phase repeats the workload's fixed request stream from identical
installed state until ``seconds`` of timed wall have accumulated (at least
``MIN_REPEATS`` times).  Timing metrics are the median over repeats, with min
and max beside them; the hit/miss stream must be identical in every repeat of
a deterministic workload.  With ``trace`` on, half the budget goes to untraced
repeats and half to repeats run under :class:`~mcbench.tracing.Tracer`; the
traced stream must equal the untraced one, which is the proof the wrappers
changed nothing, and the gap between the two throughputs is the tracing
overhead.  End-to-end numbers always come from untraced repeats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from mcbench.hostspeed import speed_factor
from mcbench.oracle import FAILED, FALSE_HIT, MISS, TRUE_HIT
from mcbench.stats import percentile, summary
from mcbench.tracing import (
    Recorder,
    Tracer,
    aggregate,
    attribute_flush_encodes,
    in_window,
    top_level_busy,
    write_spans,
)
from mcbench.workloads import WORKLOADS, PassResult, ServerWorkload, Workload

MIN_REPEATS = 3
#: most CPU that threads other than the measuring one may use during the
#: host-speed samples, as a share of the samples' wall time.  The idle server
#: (event loop, flush worker) reads 0.00-0.02 here; a busy background thread
#: reads 0.5 or more.
MAX_PAUSE_OTHER_CPU = 0.05
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: printed beside the end-to-end metrics and gated by nothing; the units of
#: the gated metrics are BENCHMARK.json's
DIAGNOSTIC_UNITS = {
    "latency_p99_ms": "ms",
    "latency_max_ms": "ms",
    "true_hit_rate": "share",
    "false_hit_rate": "share",
    "failed_share": "share",
    "host_speed": "share",
    "raw_throughput_rps": "req/s",
    "raw_latency_p50_ms": "ms",
    "raw_latency_p95_ms": "ms",
    "raw_cpu_ms_per_req": "ms",
}


def one_pass(workload: Workload, recorder: Optional[Recorder] = None) -> PassResult:
    """Install, drive and release one repeat."""
    gc.collect()
    workload.install()
    result = workload.drive(workload.new_oracle(), recorder)
    workload.finish(result)
    return result


def typical_seconds(passes: List[PassResult], field: str) -> float:
    """``wall_s`` or ``cpu_s`` of one typical repeat at nominal host speed.

    Every repeat runs the same stream, so slice *j* is the same work each
    time: its cost is the median over repeats of its speed-normalised time,
    and the repeat's cost is the sum over slices.  A burst of interference
    then spoils one sample of one slice, not one of three whole repeats.
    """
    per_pass = [
        [getattr(s, field) * speed_factor(s.kernel_s) for s in p.slices] for p in passes
    ]
    if len({len(row) for row in per_pass}) != 1:  # a repeat timed out part-way
        return statistics.median(sum(row) for row in per_pass)
    return sum(statistics.median(column) for column in zip(*per_pass))


def pause_other_cpu_share(passes: List[PassResult]) -> float:
    """CPU that other threads used while the host-speed kernel ran, as a share
    of the kernel pauses' wall time, over all the given repeats.

    The normalisation reads a slow kernel as a slow host.  If a change moved
    maintenance, compaction or a warm-up onto a background thread, that work
    would overlap the pauses, slow the kernel and scale the timed readings
    *down*: off-path work would count as a gain instead of reappearing.  A run
    whose share exceeds ``MAX_PAUSE_OTHER_CPU`` therefore fails.
    """
    wall = sum(p.pause_wall_s for p in passes)
    return sum(p.pause_other_cpu_s for p in passes) / wall if wall else 0.0


def pass_metrics(result: PassResult) -> Dict[str, float]:
    """End-to-end and diagnostic numbers of one repeat.

    Times are scaled to the nominal host speed slice by slice (see
    mcbench.hostspeed); the ``raw_`` entries are the unscaled readings.
    """
    factors = [speed_factor(s.kernel_s) for s in result.slices]
    raw_ms = [s * 1e3 for s in result.latencies_s]
    latencies_ms = [ms * factors[k] for ms, k in zip(raw_ms, result.slice_of)]
    wall = sum(s.wall_s * f for s, f in zip(result.slices, factors))
    cpu = sum(s.cpu_s * f for s, f in zip(result.slices, factors))
    failed = result.share(FAILED)
    false_hits = result.share(FALSE_HIT)
    return {
        "throughput_rps": result.completed / wall,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "latency_p99_ms": percentile(latencies_ms, 99),
        "latency_max_ms": max(latencies_ms),
        "cpu_ms_per_req": cpu * 1e3 / result.attempted,
        "llm_call_share": result.share(MISS),
        "true_hit_rate": result.share(TRUE_HIT),
        "false_hit_rate": false_hits,
        "failed_share": failed,
        "correct_share": 1.0 - false_hits - failed,
        "completed_share": 1.0 - failed,
        "host_speed": statistics.median(factors),
        "raw_throughput_rps": result.completed / result.wall_s,
        "raw_latency_p50_ms": percentile(raw_ms, 50),
        "raw_latency_p95_ms": percentile(raw_ms, 95),
        "raw_cpu_ms_per_req": result.cpu_s * 1e3 / result.attempted,
    }


def layer_metrics(
    workload: Workload,
    result: PassResult,
    recorder: Recorder,
    overhead_share: float,
) -> Dict[str, float]:
    """The per-layer table, from one traced repeat's spans and counters."""
    spans = in_window(recorder.spans, *result.window)
    rows = aggregate(spans)

    def get(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    wall = result.wall_s
    counters = result.counters
    covered = ratio(top_level_busy(spans), wall)
    served = isinstance(workload, ServerWorkload)
    waits_ms = [s * 1e3 for s in result.queue_waits_s] or [0.0]
    load_busy = sum(s.duration for s in recorder.spans if s.name == "index.snapshot.load")
    return {
        "embeddings.load_encoder.busy_s": workload.load_encoder_s,
        "embeddings.encode.calls": get("embeddings.encode", "calls"),
        "embeddings.encode.texts": get("embeddings.encode", "count"),
        "embeddings.encode.busy_s": get("embeddings.encode", "busy_s"),
        "embeddings.encode.self_s": get("embeddings.encode", "self_s"),
        "embeddings.encode.repeat_text_share": ratio(
            get("embeddings.encode", "extra"), get("embeddings.encode", "count")
        ),
        "embeddings.tokenize.calls": get("embeddings.tokenize", "calls"),
        "embeddings.tokenize.busy_s": get("embeddings.tokenize", "busy_s"),
        "embeddings.featurize.self_s": get("embeddings.featurize", "self_s"),
        "embeddings.forward.busy_s": get("embeddings.forward", "busy_s"),
        "embeddings.pca.busy_s": get("embeddings.pca", "busy_s"),
        "core.context.embed.calls": get("core.context.embed", "calls"),
        "core.context.embed.texts": get("core.context.embed", "count"),
        "core.context.embed.busy_s": get("core.context.embed", "busy_s"),
        "core.cache.lookup.calls": get("core.cache.lookup", "calls"),
        "core.cache.lookup.probes": get("core.cache.lookup", "count"),
        "core.cache.lookup.self_s": get("core.cache.lookup", "self_s"),
        "core.cache.insert.calls": get("core.cache.insert", "calls"),
        "core.cache.insert.self_s": get("core.cache.insert", "self_s"),
        "core.cache.evictions": counters["cache_evictions"],
        "core.cache.hit_share": ratio(counters["cache_hits"], counters["cache_lookups"]),
        "core.client.query.self_s": get("core.client.query", "self_s"),
        "index.search.calls": get("index.search", "calls"),
        "index.search.queries": get("index.search", "count"),
        "index.search.busy_s": get("index.search", "busy_s"),
        "index.search.rows_per_query": ratio(
            get("index.search", "extra"), get("index.search", "count")
        ),
        "index.add.calls": get("index.add", "calls"),
        "index.add.busy_s": get("index.add", "busy_s"),
        "index.remove.calls": get("index.remove", "calls"),
        "index.remove.busy_s": get("index.remove", "busy_s"),
        "index.maintenance.calls": get("index.maintenance", "calls"),
        "index.maintenance.busy_s": get("index.maintenance", "busy_s"),
        "core.tiered.l2_match.calls": get("core.tiered.l2_match", "calls"),
        "core.tiered.l2_match.busy_s": get("core.tiered.l2_match", "busy_s"),
        "core.tiered.l2_hit_share": ratio(counters["l2_hits"], counters["l2_lookups"]),
        "core.tiered.promotions": get("core.tiered.promote", "calls"),
        "core.tiered.demotions": get("core.tiered.demote", "calls"),
        "index.snapshot.flush.calls": get("index.snapshot.flush", "calls"),
        "index.snapshot.flush.busy_s": get("index.snapshot.flush", "busy_s"),
        "index.snapshot.compact.calls": get("index.snapshot.compact", "calls"),
        "index.snapshot.compact.busy_s": get("index.snapshot.compact", "busy_s"),
        "index.snapshot.bytes_written": get("index.snapshot.flush", "count")
        + get("index.snapshot.compact", "count"),
        "index.snapshot.load.busy_s": load_busy,
        "llm.query.calls": get("llm.query", "calls"),
        "llm.query.busy_s": get("llm.query", "busy_s"),
        "llm.sim_latency_s": counters["llm_sim_latency_s"],
        "llm.cost_usd": counters["llm_cost_usd"],
        "serving.execute.calls": get("serving.execute", "calls"),
        "serving.execute.events": get("serving.execute", "count"),
        "serving.execute.self_s": get("serving.execute", "self_s"),
        "serving.maintenance.busy_s": get("serving.maintenance", "busy_s"),
        "serving.server.flushes": counters.get("server_flushes", 0),
        "serving.server.mean_batch": ratio(
            counters.get("server_completed", 0), counters.get("server_flushes", 0)
        ),
        "serving.server.queue_wait_p50_ms": percentile(waits_ms, 50),
        "serving.server.queue_wait_p95_ms": percentile(waits_ms, 95),
        "serving.server.shed": counters.get("server_shed", 0),
        "serving.server.unattributed_share": 1.0 - covered if served else 0.0,
        "trace.coverage_share": covered,
        "trace.overhead_share": overhead_share,
    }


def host_metadata() -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.lower().startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


@contextlib.contextmanager
def one_cpu() -> Iterator[Optional[int]]:
    """Pin this thread, and so every thread it starts, to one CPU.

    The server workloads run three threads that take turns on the GIL; left
    free on two vCPUs their hand-offs cross cores, and contention on either
    core slows them in a way the single-threaded reference kernel cannot see
    (run-to-run spread 0.26 free against 0.06 pinned, same minutes, and the
    second core bought no throughput).  Pinned, the kernel measures the very
    core the workload runs on.  Yields the CPU, or None where unsupported.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def scratch_dir(out_dir: Path, name: str, seed: int) -> Iterator[Path]:
    """A fresh per-process directory for snapshots, removed on the way out."""
    path = out_dir / "work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float,
    out_dir: Path,
    started_at: float,
    setup_probes: int = 0,
    script: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload in this process and return its full result.

    ``started_at`` is the ``perf_counter`` reading taken when the process
    began, so ``setup_s`` covers imports too.  ``setup_probes`` further
    processes (``script --setup-only``) set the workload up from scratch, one
    at a time, once this one has; ``setup_s`` is the median over all of them.
    """
    with scratch_dir(out_dir, name, seed) as work_dir:
        workload = WORKLOADS[name](seed, scale, work_dir)
        workload.setup()
        setup_samples = [time.perf_counter() - started_at]
        if setup_probes:
            setup_samples += probe_setup(script, name, seed, scale, setup_probes)
        workload.prepare_checks()
        with one_cpu() as cpu:
            result = _measure(workload, seconds, trace, out_dir, setup_samples)
        result["pinned_cpu"] = cpu
        return result


def _measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    out_dir: Path,
    setup_samples: List[float],
) -> Dict[str, object]:
    problems: List[str] = []
    budget = seconds / 2 if trace else seconds
    min_repeats = 1 if trace else MIN_REPEATS

    passes: List[PassResult] = []
    while len(passes) < min_repeats or sum(p.wall_s for p in passes) < budget:
        passes.append(one_pass(workload))
    per_pass = [pass_metrics(p) for p in passes]
    first = passes[0]
    if workload.deterministic:
        for i, other in enumerate(passes[1:], start=2):
            if other.decision_stream != first.decision_stream:
                problems.append(f"repeat {i} decided differently from repeat 1")
    for result in passes:
        problems.extend(workload.sanity(result, None))

    end_to_end = {key: summary([m[key] for m in per_pass]) for key in per_pass[0]}
    completed = statistics.median(p.completed for p in passes)
    end_to_end["throughput_rps"]["value"] = completed / typical_seconds(passes, "wall_s")
    end_to_end["cpu_ms_per_req"]["value"] = (
        typical_seconds(passes, "cpu_s") * 1e3 / first.attempted
    )
    end_to_end["bytes_per_entry"] = summary([float(first.storage["bytes_per_entry"])])
    end_to_end["setup_s"] = summary(setup_samples)

    layers: Optional[Dict[str, float]] = None
    traced: List[PassResult] = []
    if trace:
        traced, layers = _traced_repeats(
            workload, budget, first, end_to_end["throughput_rps"]["value"], out_dir, problems
        )

    end_to_end["peak_rss_mb"] = summary(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )
    busy_pauses = pause_other_cpu_share(passes + traced)
    if busy_pauses > MAX_PAUSE_OTHER_CPU:
        problems.append(
            f"other threads used {busy_pauses:.3f} of the host-speed pauses "
            f"(limit {MAX_PAUSE_OTHER_CPU}): the speed-normalised times are not valid"
        )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.outcomes.count(FAILED) for p in passes)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "scale": workload.scale,
        "settings": workload.describe(),
        "repeats": len(passes),
        "traced_repeats": len(traced),
        "traced_wall_s": traced[-1].wall_s if traced else None,
        "samples_per_repeat": first.attempted,
        "pause_other_cpu_share": busy_pauses,
        "attempted": attempted,
        "failed": failed,
        "decision_sha256": hashlib.sha256(first.decision_stream.encode()).hexdigest(),
        "passes": [
            {
                "slices": [dataclasses.asdict(s) for s in p.slices],
                **pass_metrics(p),
            }
            for p in passes
        ],
        "correct": not problems and failed == 0,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def _traced_repeats(
    workload: Workload,
    budget: float,
    first: PassResult,
    untraced_rps: float,
    out_dir: Path,
    problems: List[str],
) -> Tuple[List[PassResult], Dict[str, float]]:
    """Repeats under the tracer; layer metrics come from the last of them."""
    recorder = Recorder()
    tracer = Tracer(recorder)
    traced: List[PassResult] = []
    # Wrappers go on before the repeat's caches are built and come off after
    # its last request; see mcbench.tracing.
    tracer.install()
    try:
        while not traced or sum(p.wall_s for p in traced) < budget:
            recorder.reset()
            traced.append(one_pass(workload, recorder))
    finally:
        tracer.uninstall()
    last = traced[-1]
    for result in traced:
        if workload.deterministic and result.decision_stream != first.decision_stream:
            problems.append("a traced repeat decided differently from the untraced ones")
        if result.outcomes.count(FAILED):
            problems.append("a traced repeat had failed requests")
    traced_rps = statistics.median(pass_metrics(p)["throughput_rps"] for p in traced)
    layers = layer_metrics(
        workload, last, recorder, (untraced_rps - traced_rps) / untraced_rps
    )
    problems.extend(workload.sanity(last, layers))
    if not isinstance(workload, ServerWorkload) and layers["trace.coverage_share"] < 0.9:
        problems.append(f"trace.coverage_share {layers['trace.coverage_share']:.3f} < 0.9")
    attribute_flush_encodes(recorder.spans)
    write_spans(recorder.spans, out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    return traced, layers


def format_result(result: Dict[str, object], units: Dict[str, str]) -> str:
    """Every metric by name with its unit; min and max over repeats beside
    the reported value.  ``units`` are BENCHMARK.json's."""
    units = {**DIAGNOSTIC_UNITS, **units}
    lines = [
        f"== {result['workload']}  seed={result['seed']} scale={result['scale']} "
        f"repeats={result['repeats']} x {result['samples_per_repeat']} requests "
        f"(failed {result['failed']}/{result['attempted']}; other threads used "
        f"{result['pause_other_cpu_share']:.4f} of the host-speed pauses)"
    ]
    for key, stats in result["end_to_end"].items():
        lines.append(
            f"  {key:<24} {stats['value']:>14.6g} {units[key]:<6} "
            f"(min {stats['min']:.6g}, max {stats['max']:.6g})"
        )
    for key, value in (result["per_layer"] or {}).items():
        lines.append(f"  {key:<40} {value:>14.6g} {units[key]}")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def setup_only(name: str, seed: int, scale: float, out_dir: Path, started_at: float) -> float:
    """Set the workload up in this fresh process and report how long it took."""
    with scratch_dir(out_dir, name, seed) as work_dir:
        WORKLOADS[name](seed, scale, work_dir).setup()
        return time.perf_counter() - started_at


def probe_setup(script: Path, name: str, seed: int, scale: float, runs: int) -> List[float]:
    """Set-up time of ``runs`` fresh processes, one after another: side by
    side on two vCPUs they would time each other's contention."""
    command = [
        sys.executable,
        str(script),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--scale",
        str(scale),
        "--setup-only",
    ]
    samples = []
    for _ in range(runs):
        done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples
