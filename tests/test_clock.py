"""Tests for repro.core.clock and the MeanCache/CacheServer clock wiring.

The determinism regression the issue pins down: entry ``created_at`` /
``last_accessed`` stamps — the inputs to TTL/recency introspection — must
come from the *trace's* virtual time, not the machine's wall clock, so a
replay produces identical cache state regardless of wall speed and of the
order events inside one batch window happen to be processed — or of how
many shards the server spreads the users over.
"""

from __future__ import annotations

import time

import pytest

from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.clock import VirtualClock, WALL_CLOCK
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadEvent


def make_cache(clock=WALL_CLOCK) -> MeanCache:
    return MeanCache(
        make_tiny_encoder(),
        MeanCacheConfig(max_entries=64, similarity_threshold=0.8),
        clock=clock,
    )


class TestVirtualClock:
    def test_starts_at_origin_and_advances(self):
        clock = VirtualClock()
        assert clock() == 0.0
        assert clock.advance_to(5.0) == 5.0
        assert clock.now == 5.0

    def test_advance_to_is_monotone(self):
        clock = VirtualClock(start=10.0)
        clock.advance_to(3.0)  # regression ignored
        assert clock() == 10.0
        clock.advance_to(12.5)
        assert clock() == 12.5

    def test_relative_advance_ignores_negative(self):
        clock = VirtualClock()
        clock.advance(2.0)
        clock.advance(-1.0)
        assert clock() == 2.0


class TestMeanCacheClockInjection:
    def test_default_clock_is_wall_time(self):
        cache = make_cache()
        before = time.time()
        cache.insert("hello there", "resp")
        after = time.time()
        entry = cache.entries[0]
        assert before <= entry.created_at <= after

    def test_injected_clock_stamps_entries(self):
        clock = VirtualClock(start=100.0)
        cache = make_cache(clock=clock)
        cache.insert("hello there", "resp")
        entry = cache.entries[0]
        assert entry.created_at == 100.0
        assert entry.last_accessed == 100.0

    def test_hit_restamps_last_accessed_from_clock(self):
        clock = VirtualClock(start=100.0)
        cache = make_cache(clock=clock)
        cache.insert("hello there", "resp")
        clock.advance_to(250.0)
        decision = cache.lookup("hello there")
        assert decision.hit
        entry = cache.entries[0]
        assert entry.created_at == 100.0
        assert entry.last_accessed == 250.0

    def test_set_clock_swaps_source(self):
        cache = make_cache()
        clock = VirtualClock(start=7.0)
        cache.set_clock(clock)
        cache.insert("hello there", "resp")
        assert cache.entries[0].created_at == 7.0


def _server(caches, n_shards):
    """A deterministic server whose per-user caches land in ``caches``."""
    return CacheServer(
        lambda uid: caches.setdefault(uid, make_cache()),
        service=SimulatedLLMService(LLMServiceConfig(seed=0)),
        config=ServerConfig(deterministic=True, n_shards=n_shards),
    )


def _trace(windows):
    return Trace(
        [WorkloadEvent(time_s=t, user_id=uid, query=q) for w in windows for t, uid, q in w],
        n_users=2,
    )


def _run_windows(windows, n_shards=1):
    """Replay windows of (time_s, user, query), one flush per window."""
    caches = {}
    _server(caches, n_shards).replay(_trace(windows), batch_window_s=WINDOW_S)
    return caches


def _stamps(caches):
    """{(user, query): (created_at, last_accessed)} across the fleet."""
    return {
        (uid, entry.query): (entry.created_at, entry.last_accessed)
        for uid, cache in caches.items()
        for entry in cache.entries
    }


#: Wide enough that each of WINDOWS replays as one flush.
WINDOW_S = 5.0
WINDOWS = [
    [
        (10.0, "alice", "what is the capital of france"),
        (10.5, "bob", "how do i reverse a list in python"),
        (11.0, "alice", "what is the tallest mountain"),
    ],
    [
        (40.0, "bob", "how do i reverse a list in python"),
        (41.0, "alice", "what is the capital of france"),
    ],
]


@pytest.mark.parametrize("n_shards", [1, 2, 4])
class TestReplayVirtualClock:
    """Replay stamps entries with each flush's max arrival time, on every
    shard alike (alice and bob live on different shards for 2 and 4)."""

    def test_replay_injects_virtual_clock_into_caches(self, n_shards):
        caches = _run_windows(WINDOWS, n_shards)
        for cache in caches.values():
            assert isinstance(cache.clock, VirtualClock)

    def test_stamps_come_from_event_time_not_wall_time(self, n_shards):
        caches = _run_windows(WINDOWS, n_shards)
        for created, accessed in _stamps(caches).values():
            # Trace times are tens of seconds; wall time is ~1.7e9.
            assert created <= 41.0
            assert accessed <= 41.0

    def test_reorder_within_window_does_not_change_stamps(self, n_shards):
        """Intra-window processing order is an implementation detail."""
        reordered = [list(reversed(window)) for window in WINDOWS]
        assert _stamps(_run_windows(WINDOWS, n_shards)) == _stamps(
            _run_windows(reordered, n_shards)
        )

    def test_wall_speed_does_not_change_stamps(self, n_shards):
        """A slow replay (wall-clock pauses between windows) stamps identically."""
        caches_slow = {}
        server = _server(caches_slow, n_shards)
        for window in WINDOWS:
            time.sleep(0.05)  # wall time passes; virtual time does not care
            server.replay(_trace([window]), batch_window_s=WINDOW_S)
        assert _stamps(_run_windows(WINDOWS, n_shards)) == _stamps(caches_slow)

    def test_repeat_lookup_restamps_recency_with_window_time(self, n_shards):
        caches = _run_windows(WINDOWS, n_shards)
        stamps = _stamps(caches)
        created, accessed = stamps[("bob", "how do i reverse a list in python")]
        # Enrolled in window 1 (stamped with its max arrival 11.0), hit
        # again in window 2 (stamped with its max arrival 41.0).
        assert created == 11.0
        assert accessed == 41.0

    def test_stamps_do_not_depend_on_shard_count(self, n_shards):
        assert _stamps(_run_windows(WINDOWS, n_shards)) == _stamps(_run_windows(WINDOWS))


def test_live_server_keeps_wall_clock():
    caches = {}
    server = CacheServer(
        lambda uid: caches.setdefault(uid, make_cache()),
        service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
    )
    server.start()
    try:
        server.submit_threadsafe("alice", "hello there").result(timeout=10)
    finally:
        server.stop()
    (entry,) = caches["alice"].entries
    assert entry.created_at == pytest.approx(time.time(), abs=60.0)
