"""A replayed fleet's cache state is a function of its trace alone.

Cache state holds no time: entries carry no wall-clock or trace-time
stamps, and recency lives in the eviction policy's order.  So a replay
leaves the same state (entries, hit counts, policy order, saved snapshot
bytes) however fast the wall clock runs, in whatever order the events of
one batch window are processed, and over however many shards the server
spreads the users.  Each property runs for per-user ``MeanCache``s and
for per-user ``TieredCache``s over one shared tier.
"""

from __future__ import annotations

import json
import time

import pytest

import golden_snapshots as gs
from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.tiered import QuantizedTier, TieredCache
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadEvent

pytestmark = pytest.mark.concurrency

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
SHARDS = [1, 2, 4]
FLEETS = ["meancache", "tiered"]

ENCODER = make_tiny_encoder()


class _Fleet:
    """Per-user caches of one kind, created by the server's factory."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.caches: dict = {}
        self.tier = QuantizedTier() if kind == "tiered" else None

    def __call__(self, uid: str):
        if uid not in self.caches:
            config = MeanCacheConfig(max_entries=64, similarity_threshold=0.8)
            if self.kind == "tiered":
                self.caches[uid] = TieredCache(ENCODER, config, l2=self.tier)
            else:
                self.caches[uid] = MeanCache(ENCODER, config)
        return self.caches[uid]

    def l1(self, uid: str) -> MeanCache:
        cache = self.caches[uid]
        return getattr(cache, "l1", cache)


def _server(fleet: _Fleet, n_shards: int) -> CacheServer:
    return CacheServer(
        fleet,
        service=SimulatedLLMService(LLMServiceConfig(seed=0)),
        config=ServerConfig(n_shards=n_shards),
    )


def _trace(windows) -> Trace:
    return Trace(
        [WorkloadEvent(time_s=t, user_id=uid, query=q) for w in windows for t, uid, q in w],
        n_users=2,
    )


def _run_windows(windows, kind: str, n_shards: int = 1) -> _Fleet:
    """Replay windows of (time_s, user, query), one flush per window."""
    fleet = _Fleet(kind)
    _server(fleet, n_shards).replay(_trace(windows), batch_window_s=WINDOW_S)
    return fleet


def _entries_by_query(fleet: _Fleet) -> dict:
    """{(user, query): (response, hit_count)} across the fleet's L1s."""
    return {
        (uid, e.query): (e.response, e.hit_count)
        for uid in fleet.caches
        for e in fleet.l1(uid).entries
    }


def _snapshot_hashes(fleet: _Fleet, root) -> dict:
    """Every user's cache saved under ``root``: {user: tree hashes}."""
    hashes = {}
    for uid, cache in sorted(fleet.caches.items()):
        cache.save(root / uid)
        hashes[uid] = gs.tree_hashes(root / uid)
    return hashes


@pytest.mark.parametrize("kind", FLEETS)
@pytest.mark.parametrize("n_shards", SHARDS)
class TestReplayState:
    """Alice and Bob live on different shards for 2 and 4."""

    def test_wall_speed_does_not_change_saved_state(self, n_shards, kind, tmp_path):
        """A slow replay (wall-clock pauses between windows) saves the
        same snapshot bytes as a replay of the whole trace at once."""
        slow = _Fleet(kind)
        server = _server(slow, n_shards)
        for window in WINDOWS:
            time.sleep(0.02)
            server.replay(_trace([window]), batch_window_s=WINDOW_S)
        fast = _run_windows(WINDOWS, kind, n_shards)
        assert _snapshot_hashes(slow, tmp_path / "slow") == _snapshot_hashes(
            fast, tmp_path / "fast"
        )

    def test_saved_state_does_not_depend_on_shard_count(self, n_shards, kind, tmp_path):
        sharded = _run_windows(WINDOWS, kind, n_shards)
        oracle = _run_windows(WINDOWS, kind)
        assert _snapshot_hashes(sharded, tmp_path / "sharded") == _snapshot_hashes(
            oracle, tmp_path / "oracle"
        )

    def test_reorder_within_window_keeps_entries_and_hit_counts(self, n_shards, kind):
        """Intra-window processing order may renumber entries, but every
        user keeps the same queries, responses and hit counts."""
        reordered = [list(reversed(window)) for window in WINDOWS]
        assert _entries_by_query(_run_windows(WINDOWS, kind, n_shards)) == (
            _entries_by_query(_run_windows(reordered, kind, n_shards))
        )

    def test_repeat_lookup_bumps_hit_count_and_recency(self, n_shards, kind):
        """A hit in window 2 counts once and moves its entry to the
        most-recent end of the LRU order; nothing records when."""
        fleet = _run_windows(WINDOWS, kind, n_shards)
        entries = _entries_by_query(fleet)
        assert entries[("bob", "how do i reverse a list in python")][1] == 1
        assert entries[("alice", "what is the capital of france")][1] == 1
        assert entries[("alice", "what is the tallest mountain")][1] == 0
        alice = fleet.l1("alice")
        ids = {e.query: e.entry_id for e in alice.entries}
        assert alice._policy.state_dict()["order"] == [
            ids["what is the tallest mountain"],
            ids["what is the capital of france"],
        ]


def test_live_server_saves_entries_without_time(tmp_path):
    """A live run stores no reading of its clock in the cache: the saved
    entry records hold no stamp, and a second server whose admission clock
    is an hour ahead saves the same bytes."""

    def run(offset: float, root):
        fleet = _Fleet("meancache")
        server = CacheServer(
            fleet,
            service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
            clock=lambda: time.monotonic() + offset,
        )
        server.start()
        try:
            for query in ("hello there", "hello there", "what is the tallest mountain"):
                server.submit_threadsafe("alice", query).result(timeout=10)
        finally:
            server.stop()
        return _snapshot_hashes(fleet, root)

    first = run(0.0, tmp_path / "first")
    assert first == run(3600.0, tmp_path / "second")
    records = json.loads((tmp_path / "first" / "alice" / "entries.json").read_text())
    assert records
    for record in records:
        assert "created_at" not in record
        assert "last_accessed" not in record
