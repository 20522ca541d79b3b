"""Property-based suite: trace import/export round-trips replay identically.

The replay loop (production logs -> :func:`trace_from_logs` -> fleet) is
only trustworthy if serialization is lossless where it matters: for any
generated workload, exporting through the foreign log schema and importing
back must hand :meth:`CacheServer.replay` a stream that produces the *same
outcomes* — hit for hit, response for response, dollar for dollar.

Hypothesis drives the workload shape (fleet size, duplicate/follow-up
mixes, arrival rate, seed) with ``derandomize=True`` so CI is stable; the
replay-equality property runs on the keyword cache (encoder-free, so the
property loop stays tier-1 fast) plus one explicit MeanCache case on the
tiny encoder.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tiny_encoder

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving import (
    CacheServer,
    ServerConfig,
    Trace,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.serving.scenarios import trace_from_logs, trace_to_logs

pytestmark = pytest.mark.concurrency

workload_configs = st.builds(
    WorkloadConfig,
    n_users=st.integers(min_value=1, max_value=4),
    queries_per_user=st.integers(min_value=1, max_value=8),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.9),
    followup_rate=st.floats(min_value=0.0, max_value=0.9),
    arrival_rate_qps=st.floats(min_value=0.05, max_value=2.0),
)
seeds = st.integers(min_value=0, max_value=10_000)


def _generate(config: WorkloadConfig, seed: int) -> Trace:
    return WorkloadGenerator(config, seed=seed).generate()


def _replay(trace: Trace, cache_factory) -> tuple:
    """Replay ``trace`` and distil the outcome sequence to comparable data."""
    fleet = CacheServer(
        cache_factory,
        SimulatedLLMService(LLMServiceConfig(seed=0)),
        ServerConfig(),
    )
    result = fleet.replay(trace, collect_outcomes=True)
    return tuple(
        (
            o.event.user_id,
            o.event.query,
            o.hit,
            o.response,
            round(o.cost_usd, 12),
            round(o.llm_latency_s, 12),
        )
        for o in result.outcomes
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=workload_configs, seed=seeds)
def test_trace_json_round_trip_is_lossless(config, seed):
    trace = _generate(config, seed)
    through_json = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert through_json.to_dict() == trace.to_dict()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=workload_configs, seed=seeds)
def test_log_round_trip_preserves_replayable_fields(config, seed):
    trace = _generate(config, seed)
    back = trace_from_logs(trace_to_logs(trace), normalize_time=False)
    assert len(back) == len(trace)
    for before, after in zip(trace.events, back.events):
        assert (after.time_s, after.user_id, after.query) == (
            before.time_s,
            before.user_id,
            before.query,
        )
        assert after.context == before.context
        assert after.intent_key == before.intent_key


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=workload_configs, seed=seeds)
def test_log_round_trip_replays_to_identical_outcomes(config, seed):
    """Trace -> logs -> import -> replay == direct replay, draw for draw."""
    trace = _generate(config, seed)
    imported = trace_from_logs(trace_to_logs(trace), normalize_time=False)
    encoder = make_tiny_encoder()
    direct = _replay(trace, lambda uid: MeanCache(encoder))
    replayed = _replay(imported, lambda uid: MeanCache(encoder))
    assert replayed == direct


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=workload_configs, seed=seeds)
def test_time_normalization_preserves_arrival_deltas(config, seed):
    trace = _generate(config, seed)
    shifted = [
        {"timestamp": e.time_s + 1_700_000_000.0, "user": e.user_id, "prompt": e.query}
        for e in trace.events
    ]
    imported = trace_from_logs(shifted)
    assert imported.events[0].time_s == 0.0
    deltas = [
        b.time_s - a.time_s for a, b in zip(trace.events, trace.events[1:])
    ]
    imported_deltas = [
        b.time_s - a.time_s for a, b in zip(imported.events, imported.events[1:])
    ]
    assert imported_deltas == pytest.approx(deltas, abs=1e-6)


def test_log_round_trip_replays_identically_on_meancache():
    """One semantic-cache spot check of the keyword-cache property."""
    encoder = make_tiny_encoder()
    trace = _generate(
        WorkloadConfig(n_users=3, queries_per_user=10, duplicate_rate=0.5), seed=11
    )
    imported = trace_from_logs(trace_to_logs(trace), normalize_time=False)
    factory = lambda uid: MeanCache(
        encoder, MeanCacheConfig(similarity_threshold=0.7)
    )
    assert _replay(imported, factory) == _replay(trace, factory)
