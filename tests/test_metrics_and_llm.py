"""Tests for the metrics package and the simulated LLM service."""

import numpy as np
import pytest

from repro.llm.latency import LatencyModel, LatencyModelConfig
from repro.llm.responses import ResponseGenerator, count_tokens
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.metrics.classification import (
    ConfusionMatrix,
    accuracy,
    confusion_matrix,
    evaluate_decisions,
    fbeta_score,
    precision,
    recall,
)
from repro.metrics.reporting import format_confusion_matrix, format_metric_comparison, format_table
from repro.metrics.timing import LatencyHistogram, Timer


class TestConfusionMatrix:
    def test_counts(self):
        y_true = [True, True, False, False, True]
        y_pred = [True, False, True, False, True]
        cm = confusion_matrix(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 1)

    def test_metric_values(self):
        cm = ConfusionMatrix(true_hits=60, false_hits=40, true_misses=160, false_misses=40)
        assert cm.precision() == pytest.approx(0.6)
        assert cm.recall() == pytest.approx(0.6)
        assert cm.accuracy() == pytest.approx(220 / 300)
        assert cm.f1() == pytest.approx(0.6)

    def test_fbeta_weights_precision(self):
        high_p = ConfusionMatrix(true_hits=50, false_hits=5, true_misses=100, false_misses=50)
        high_r = ConfusionMatrix(true_hits=95, false_hits=90, true_misses=15, false_misses=5)
        # Same F1-ish ballpark, but F0.5 must prefer the high-precision system.
        assert high_p.fbeta(0.5) > high_r.fbeta(0.5)

    def test_degenerate_cases_are_zero_not_nan(self):
        cm = ConfusionMatrix(0, 0, 10, 0)
        assert cm.precision() == 0.0
        assert cm.recall() == 0.0
        assert cm.fbeta() == 0.0

    def test_as_array_layout(self):
        cm = ConfusionMatrix(true_hits=3, false_hits=2, true_misses=5, false_misses=1)
        arr = cm.as_array()
        assert arr[0, 0] == 5 and arr[0, 1] == 2 and arr[1, 0] == 1 and arr[1, 1] == 3

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1, 1, 1, 1).fbeta(0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([True], [True, False])

    def test_wrapper_functions_agree(self):
        y_true = np.array([True, False, True, False])
        y_pred = np.array([True, True, False, False])
        cm = confusion_matrix(y_true, y_pred)
        assert precision(y_true, y_pred) == cm.precision()
        assert recall(y_true, y_pred) == cm.recall()
        assert accuracy(y_true, y_pred) == cm.accuracy()
        assert fbeta_score(y_true, y_pred) == cm.fbeta(0.5)
        assert evaluate_decisions(y_true, y_pred)["f_score"] == cm.fbeta(0.5)

    def test_false_hit_rate(self):
        cm = ConfusionMatrix(true_hits=10, false_hits=25, true_misses=75, false_misses=5)
        assert cm.false_hit_rate() == pytest.approx(0.25)


class TestReporting:
    def test_format_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "2.500" in text and "x" in text

    def test_format_confusion_matrix(self):
        cm = ConfusionMatrix(1, 2, 3, 4)
        text = format_confusion_matrix(cm, "demo")
        assert "demo" in text and "3" in text

    def test_format_metric_comparison(self):
        text = format_metric_comparison(
            {"A": {"precision": 0.5}, "B": {"precision": 0.7}}, metrics=("precision",)
        )
        assert "0.700" in text and "A" in text


class TestTiming:
    def test_timer_records_durations(self):
        timer = Timer()
        with timer:
            sum(range(1000))
        assert timer.last >= 0.0
        assert len(timer.durations) == 1
        assert timer.mean == timer.total

    def test_timer_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.durations == [] and timer.last == 0.0


class TestLatencyHistogram:
    def test_nearest_rank_percentiles(self):
        hist = LatencyHistogram()
        for ns in range(1, 101):  # 1..100ns
            hist.record(ns)
        # Nearest-rank: pXX over 1..100 is exactly XX, and every reported
        # value is an observed sample.
        assert hist.p50 == 50.0
        assert hist.p95 == 95.0
        assert hist.p99 == 99.0
        assert hist.percentile(100.0) == 100.0
        assert hist.percentile(1.0) == 1.0
        assert hist.mean == pytest.approx(50.5)
        assert hist.count == 100

    def test_single_sample_and_empty(self):
        hist = LatencyHistogram()
        assert hist.p99 == 0.0 and hist.mean == 0.0 and hist.count == 0
        hist.record(42)
        assert hist.p50 == 42.0 and hist.p99 == 42.0 and hist.mean == 42.0

    def test_warmup_samples_are_dropped(self):
        hist = LatencyHistogram(warmup=2)
        for ns in (10_000, 20_000, 1, 2, 3):
            hist.record(ns)
        assert hist.count == 3
        assert hist.samples == [1, 2, 3]
        assert hist.p99 == 3.0

    def test_time_context_manager_records(self):
        hist = LatencyHistogram()
        with hist.time():
            sum(range(1000))
        assert hist.count == 1
        assert hist.p50 > 0.0

    def test_merge_combines_samples(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for ns in (1, 2):
            a.record(ns)
        for ns in (3, 4):
            b.record(ns)
        merged = a.merge(b)
        assert merged.count == 4
        assert merged.percentile(100.0) == 4.0
        # Sources are untouched.
        assert a.count == 2 and b.count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(warmup=-1)
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-5)
        hist.record(7)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_to_dict_round_numbers(self):
        hist = LatencyHistogram()
        for ns in (100, 200, 300):
            hist.record(ns)
        d = hist.to_dict()
        assert d == {
            "count": 3.0,
            "p50_ns": 200.0,
            "p95_ns": 300.0,
            "p99_ns": 300.0,
            "mean_ns": 200.0,
        }


class TestLatencyModel:
    def test_expected_latency_grows_with_tokens(self):
        model = LatencyModel(seed=0)
        assert model.expected(10, 100) > model.expected(10, 10)

    def test_sample_respects_minimum(self):
        config = LatencyModelConfig(jitter_std=10.0, min_latency=0.02)
        model = LatencyModel(config, seed=1)
        samples = [model.sample(5, 5) for _ in range(50)]
        assert min(samples) >= 0.02

    def test_deterministic_given_seed(self):
        a = LatencyModel(seed=7)
        b = LatencyModel(seed=7)
        assert [a.sample(10, 50) for _ in range(5)] == [b.sample(10, 50) for _ in range(5)]

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(seed=0).sample(-1, 10)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LatencyModelConfig(decode_per_token=-1.0)

    def test_llm_scale_latency_magnitude(self):
        # ~50-token responses should land in the hundreds of milliseconds,
        # matching the magnitudes in the paper's Figure 5.
        model = LatencyModel(seed=0)
        assert 0.2 < model.expected(20, 50) < 2.0


class TestResponses:
    def test_deterministic_per_query(self):
        gen = ResponseGenerator(response_tokens=50)
        assert gen.generate("sort a list") == gen.generate("sort a list")

    def test_token_budget_respected(self):
        gen = ResponseGenerator(response_tokens=50)
        assert count_tokens(gen.generate("anything at all")) == 50

    def test_different_queries_differ(self):
        gen = ResponseGenerator()
        assert gen.generate("query one") != gen.generate("a different query")

    def test_invalid_token_count(self):
        with pytest.raises(ValueError):
            ResponseGenerator(response_tokens=0)


class TestSimulatedService:
    def test_query_returns_response_and_accounting(self):
        service = SimulatedLLMService()
        resp = service.query("How do I sort a list in python?", client_id="u1")
        assert resp.response_tokens == 50
        assert resp.latency_s > 0
        assert service.stats.n_requests == 1
        assert service.client_stats("u1").n_requests == 1
        assert service.client_stats("unknown").n_requests == 0

    def test_context_increases_prompt_tokens(self):
        service = SimulatedLLMService()
        short = service.query("change the color to red")
        long = service.query("change the color to red", context=["draw a big line plot in python please"])
        assert long.prompt_tokens > short.prompt_tokens

    def test_cost_positive_and_accumulates(self):
        service = SimulatedLLMService()
        service.query("a")
        service.query("b")
        assert service.stats.total_cost_usd > 0

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            SimulatedLLMService().query("   ")

    def test_reset_stats(self):
        service = SimulatedLLMService()
        service.query("a")
        service.reset_stats()
        assert service.stats.n_requests == 0

    def test_hashed_jitter_independent_of_arrival_order(self):
        requests = [("u1", "sort a python list"), ("u2", "plan a trip"), ("u1", "bake bread")]
        forward = SimulatedLLMService(LLMServiceConfig(seed=0))
        reordered = SimulatedLLMService(LLMServiceConfig(seed=0))
        lat_fwd = {req: forward.query(req[1], client_id=req[0]).latency_s for req in requests}
        lat_rev = {
            req: reordered.query(req[1], client_id=req[0]).latency_s
            for req in reversed(requests)
        }
        assert lat_fwd == lat_rev

    def test_sequential_jitter_depends_on_arrival_order(self):
        config = LLMServiceConfig(seed=0, jitter_mode="sequential")
        requests = [("u1", "sort a python list"), ("u2", "plan a trip")]
        forward = SimulatedLLMService(config)
        reordered = SimulatedLLMService(config)
        lat_fwd = {req: forward.query(req[1], client_id=req[0]).latency_s for req in requests}
        lat_rev = {
            req: reordered.query(req[1], client_id=req[0]).latency_s
            for req in reversed(requests)
        }
        # The shared RNG hands out jitter in request order, so swapping the
        # arrival order reassigns latencies (the defect the hashed mode fixes).
        assert lat_fwd != lat_rev

    def test_hashed_jitter_distinguishes_clients(self):
        service = SimulatedLLMService(LLMServiceConfig(seed=0))
        a = service.query("identical prompt", client_id="client-a").latency_s
        b = service.query("identical prompt", client_id="client-b").latency_s
        assert a != b

    def test_invalid_jitter_mode_rejected(self):
        with pytest.raises(ValueError):
            LLMServiceConfig(jitter_mode="bogus")


class TestServiceClocks:
    """Regression tests for the two-clocks fix (injectable service clock).

    The historical service silently assumed the simulator's virtual event
    clock; stamping live wall-clock requests with it mixed modelled virtual
    latencies into measured wall-clock sums.  The clock is now injectable:
    the simulator passes ``now=<virtual arrival>`` per request, the live
    server constructs the service with ``clock=time.monotonic`` and passes
    nothing.  Both modes must stamp correctly — and neither may change the
    modelled latency/cost, which depend only on the request itself.
    """

    def test_explicit_now_stamps_virtual_time(self):
        service = SimulatedLLMService()
        resp = service.query("sort a python list", client_id="u1", now=123.5)
        assert resp.issued_at_s == 123.5
        assert resp.completed_at_s == pytest.approx(123.5 + resp.latency_s)

    def test_injected_clock_stamps_wall_time(self):
        ticks = iter([1000.0, 2000.0])
        service = SimulatedLLMService(clock=lambda: next(ticks))
        first = service.query("sort a python list")
        second = service.query("plan a trip")
        assert first.issued_at_s == 1000.0
        assert second.issued_at_s == 2000.0
        assert second.completed_at_s == pytest.approx(2000.0 + second.latency_s)

    def test_explicit_now_overrides_injected_clock(self):
        service = SimulatedLLMService(clock=lambda: 777.0)
        resp = service.query("sort a python list", now=3.25)
        assert resp.issued_at_s == 3.25

    def test_no_clock_keeps_historical_behaviour(self):
        resp = SimulatedLLMService().query("sort a python list")
        assert resp.issued_at_s is None
        assert resp.completed_at_s is None

    def test_clock_choice_never_changes_modelled_latency_or_cost(self):
        virtual = SimulatedLLMService(LLMServiceConfig(seed=0))
        wall = SimulatedLLMService(LLMServiceConfig(seed=0), clock=lambda: 55.5)
        a = virtual.query("identical prompt", client_id="u1", now=1.0)
        b = wall.query("identical prompt", client_id="u1")
        assert a.latency_s == b.latency_s
        assert a.cost_usd == b.cost_usd
        assert a.issued_at_s == 1.0 and b.issued_at_s == 55.5

    def test_thread_safe_accounting_under_contention(self):
        import threading

        service = SimulatedLLMService(thread_safe=True)
        n_threads, per_thread = 8, 50

        def worker(tid):
            for i in range(per_thread):
                service.query(f"worker {tid} request {i}", client_id=f"u{tid}")

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.stats.n_requests == n_threads * per_thread
        for tid in range(n_threads):
            assert service.client_stats(f"u{tid}").n_requests == per_thread
