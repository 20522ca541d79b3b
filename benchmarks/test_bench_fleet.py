"""Benchmarks: fleet serving throughput and online τ adaptation.

``test_fleet_throughput`` replays deterministic multi-user traffic
(``repro.serving.WorkloadGenerator``) through ``CacheServer.replay`` — a local
MeanCache per user in front of one shared simulated LLM service — and records
fleet lookup throughput, hit rate, latency and cost in ``BENCH_fleet.json``
at the repo root so later scaling PRs can track the trajectory.

``test_drift_adaptation`` (slower; CI runs it as its own benchmarks-job step
via ``-k drift``) replays one drifting trace through a static-τ and an
adaptive-τ fleet and merges the comparison into the same JSON under
``adaptive_vs_static``, asserting the adaptation floors: more verified
correct answers, fewer false hits, raw hit rate within noise of static.

Run with ``pytest benchmarks/test_bench_fleet.py -s``.
"""

import json
from pathlib import Path

from conftest import emit

from repro.experiments.fleet_bench import run_drift_adaptation_bench, run_fleet_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

USER_COUNTS = (100, 1000)
QUERIES_PER_USER = 10


def _merge_into_bench_json(key, payload):
    """Upsert one section of BENCH_fleet.json, preserving the others."""
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    data[key] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def test_fleet_throughput(benchmark):
    result = benchmark.pedantic(
        lambda: run_fleet_bench(
            user_counts=USER_COUNTS, queries_per_user=QUERIES_PER_USER, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    emit("Fleet serving benchmark", result.format())

    payload = result.to_dict()
    if BENCH_JSON.exists():
        previous = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        if "adaptive_vs_static" in previous:
            payload["adaptive_vs_static"] = previous["adaptive_vs_static"]
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    emit("BENCH_fleet.json", f"written to {BENCH_JSON}")

    for n_users in USER_COUNTS:
        point = result.point(n_users)
        assert point.n_lookups == n_users * QUERIES_PER_USER
        # Sanity floors, not perf assertions: the fleet must actually serve
        # traffic (some of it from cache) at a non-degenerate rate.
        assert point.throughput_lookups_per_s > 10.0, point.to_dict()
        assert 0.0 < point.hit_rate < 1.0, point.to_dict()
        assert point.total_cost_usd > 0.0, point.to_dict()


def test_drift_adaptation(benchmark):
    result = benchmark.pedantic(
        lambda: run_drift_adaptation_bench(seed=0),
        rounds=1,
        iterations=1,
    )
    emit("Drift adaptation benchmark", result.format())

    _merge_into_bench_json("adaptive_vs_static", result.to_dict())
    emit("BENCH_fleet.json", f"adaptive_vs_static merged into {BENCH_JSON}")

    static, adaptive = result.static, result.adaptive
    assert static.n_lookups == adaptive.n_lookups > 0
    # Both fleets must actually serve traffic at a non-degenerate rate.
    assert static.throughput_lookups_per_s > 10.0, static.to_dict()
    assert adaptive.throughput_lookups_per_s > 10.0, adaptive.to_dict()
    # The loop must actually run rounds and move τ off the cold-start value.
    assert result.n_rounds > 10
    assert result.threshold_trajectory, "no τ trajectory recorded"
    assert any(abs(t - result.static_threshold) > 0.02 for t in result.threshold_trajectory)
    # Adaptation floors (margins are half the worst case observed over
    # seeds 0/3/7/11, so a real regression trips them, noise does not):
    # the adaptive fleet serves strictly more verified-correct answers...
    assert adaptive.true_hit_rate >= static.true_hit_rate + 0.002, result.to_dict()
    # ...at a strictly lower false-hit rate...
    assert adaptive.false_hit_rate <= static.false_hit_rate - 0.003, result.to_dict()
    # ...without giving up raw admissions beyond noise (raw hit rate counts
    # wrongly-served answers as wins, so a small dip is the false hits it
    # stopped serving).
    assert adaptive.hit_rate >= static.hit_rate - 0.025, result.to_dict()
