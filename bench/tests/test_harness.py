"""Workload-level self-tests at --scale 0.1: seeds, response check, shedding."""

import dataclasses
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mcbench import hostspeed, runner, workloads
from mcbench.oracle import FAILED, FALSE_HIT, MISS, TRUE_HIT, ResponseOracle

BENCH_DIR = Path(__file__).resolve().parents[1]


def run(name, seed, tmp_path, trace=False):
    return runner.run_workload(
        name, seed, 0.0, trace, 0.1, tmp_path / "out", time.perf_counter()
    )


def test_oracle_classifies_and_enrols():
    oracle = ResponseOracle(
        {"q1": "r1", "q2": "r2"}, per_user_scope=True, installed=[("u", "warm", "intent-w")]
    )
    assert oracle.check("u", "q1", "intent-1", False, "r1") == MISS
    assert oracle.check("u", "q1", "intent-1", False, "something else") == FAILED
    assert oracle.check("u", "q1-again", "intent-1", True, "r1") == TRUE_HIT
    assert oracle.check("u", "q9", "intent-9", True, "r1") == FALSE_HIT
    assert oracle.check("u", "q9", "intent-w", True, "warm") == TRUE_HIT
    # another user's cache never saw r1 enrolled
    assert oracle.check("v", "q1", "intent-1", True, "r1") == FAILED
    shared = ResponseOracle({"q1": "r1"}, per_user_scope=False)
    shared.check("u", "q1", "intent-1", False, "r1")
    assert shared.check("v", "q1", "intent-1", True, "r1") == TRUE_HIT


def test_same_seed_same_inputs_and_decisions(tmp_path):
    first = run("ondevice_churn", 0, tmp_path)
    again = run("ondevice_churn", 0, tmp_path)
    other = run("ondevice_churn", 1, tmp_path)
    assert first["correct"] and again["correct"] and other["correct"]
    assert first["repeats"] >= runner.MIN_REPEATS
    assert first["settings"]["trace_sha256"] == again["settings"]["trace_sha256"]
    assert first["decision_sha256"] == again["decision_sha256"]
    assert first["settings"]["trace_sha256"] != other["settings"]["trace_sha256"]
    assert first["decision_sha256"] != other["decision_sha256"]


def test_traced_run_matches_untraced_and_fills_every_layer_metric(tmp_path):
    result = run("device_warm", 0, tmp_path, trace=True)
    assert result["correct"], result["problems"]
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    layers = result["per_layer"]
    # the flush-wide encode stayed on: far fewer encoder calls than requests
    assert layers["serving.execute.events"] == result["samples_per_repeat"]
    assert layers["embeddings.encode.calls"] < result["samples_per_repeat"]
    assert layers["core.context.embed.calls"] > 0
    assert (tmp_path / "out" / "spans-device_warm-seed0.jsonl").is_file()


def test_corrupted_response_fails_the_run(tmp_path, monkeypatch):
    from repro.llm.service import SimulatedLLMService

    real_query = SimulatedLLMService.query
    calls = {"n": 0}

    def corrupting(self, *args, **kwargs):
        response = real_query(self, *args, **kwargs)
        calls["n"] += 1
        if calls["n"] % 50 == 0:
            return dataclasses.replace(response, text=response.text + " (corrupted)")
        return response

    monkeypatch.setattr(SimulatedLLMService, "query", corrupting)
    result = run("ondevice_churn", 0, tmp_path)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["end_to_end"]["failed_share"]["value"] > 0
    assert result["end_to_end"]["completed_share"]["value"] < 1


def test_shed_request_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SERVER", {**workloads.SERVER, "max_queue_depth": 1})
    result = run("device_warm", 0, tmp_path)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["end_to_end"]["failed_share"]["value"] > 0


def make_pass(walls, kernel_s=hostspeed.NOMINAL_S):
    slices = [
        workloads.Slice(wall_s=w, cpu_s=w / 2, start=0.0, end=w, kernel_s=kernel_s)
        for w in walls
    ]
    return workloads.PassResult(slices=slices)


def test_typical_seconds_votes_out_a_burst():
    steady = make_pass([1.0, 1.0, 1.0])
    burst = make_pass([1.0, 4.0, 1.0])  # middle slice took 4 s instead of 1
    assert runner.typical_seconds([steady, burst, steady], "wall_s") == pytest.approx(3.0)
    assert runner.typical_seconds([steady, burst, steady], "cpu_s") == pytest.approx(1.5)


def test_times_are_scaled_to_nominal_host_speed():
    # a host running at half speed takes twice as long over the same work
    slow = make_pass([2.0, 2.0, 2.0], kernel_s=2 * hostspeed.NOMINAL_S)
    assert runner.typical_seconds([slow], "wall_s") == pytest.approx(3.0)
    slow.outcomes = [MISS] * 30
    slow.latencies_s = [0.002] * 30
    slow.slice_of = [0] * 10 + [1] * 10 + [2] * 10
    metrics = runner.pass_metrics(slow)
    assert metrics["host_speed"] == pytest.approx(0.5)
    assert metrics["raw_throughput_rps"] == pytest.approx(5.0)
    assert metrics["throughput_rps"] == pytest.approx(10.0)
    assert metrics["raw_latency_p50_ms"] == pytest.approx(2.0)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)


def timed_slices(n=20):
    result = workloads.PassResult()
    timer = workloads.SliceTimer(result)
    for _ in range(n):
        timer.begin()
        timer.end()
    return result


def test_background_work_during_host_speed_samples_is_caught(tmp_path):
    """Work moved onto a background thread would slow the reference kernel and
    scale the timed readings down; the run must fail, not look faster."""
    quiet = timed_slices()
    assert runner.pause_other_cpu_share([quiet]) < runner.MAX_PAUSE_OTHER_CPU

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    worker = threading.Thread(target=spin, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # let the spinner in during a 3 ms sample
    worker.start()
    try:
        busy = timed_slices()
        result = run("ondevice_churn", 0, tmp_path)
    finally:
        stop.set()
        worker.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert runner.pause_other_cpu_share([busy]) > runner.MAX_PAUSE_OTHER_CPU
    assert result["failed"] == 0 and not result["correct"]
    assert any("host-speed pauses" in problem for problem in result["problems"])


def test_smoke_mode_runs_everything_within_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--scale", "0.1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["scale"] == 0.1
    assert set(report["workloads"]) == set(workloads.WORKLOADS)
    for entry in report["workloads"].values():
        assert len(entry["runs"]) == 1 and entry["runs"][0]["scale"] == 0.1
        assert entry["traced"]["per_layer"]["trace.coverage_share"] > 0
    for key in ("git_commit", "host", "command_wall_s", "seed"):
        assert key in report
    assert report["host"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
