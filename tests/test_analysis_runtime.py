"""Tests for the runtime lock-discipline checker (repro.analysis.runtime).

Covers the tracker primitives (TrackedLock, the acquisition-order graph,
index ownership guards) and the acceptance-criteria scenario: a
deliberately-injected lock-discipline violation is detected against a live
CacheServer running with REPRO_DEBUG_CONCURRENCY=1, while the normal
request path stays green under the same flag.
"""

from __future__ import annotations

import threading

import pytest

from conftest import make_tiny_encoder
from repro.analysis.runtime import (
    LockCycleError,
    LockDisciplineError,
    LockOwnershipError,
    TrackedLock,
    debug_enabled,
    guard_cache,
    guard_index,
    maybe_tracked_lock,
    maybe_tracked_rlock,
    reset_registry,
)
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.index import make_index
from repro.index.flat import FlatIndex


@pytest.fixture(autouse=True)
def _clean_registry():
    """Isolate each test from edges recorded by earlier acquisitions."""
    reset_registry()
    yield
    reset_registry()


def make_cache(max_entries: int = 32) -> MeanCache:
    return MeanCache(
        make_tiny_encoder(),
        MeanCacheConfig(max_entries=max_entries, similarity_threshold=0.8),
    )


# --------------------------------------------------------------------------- #
# TrackedLock primitives
# --------------------------------------------------------------------------- #
class TestTrackedLock:
    def test_context_manager_tracks_ownership(self):
        lock = TrackedLock("a")
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_non_reentrant_reacquire_raises_instead_of_deadlocking(self):
        lock = TrackedLock("a")
        with lock:
            with pytest.raises(LockDisciplineError):
                lock.acquire()

    def test_reentrant_lock_nests(self):
        lock = TrackedLock("a", reentrant=True)
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_release_by_non_owner_raises(self):
        lock = TrackedLock("a")
        lock.acquire()
        errors = []

        def interloper():
            try:
                lock.release()
            except LockDisciplineError as exc:
                errors.append(exc)

        thread = threading.Thread(target=interloper)
        thread.start()
        thread.join()
        lock.release()
        assert len(errors) == 1

    def test_ownership_is_per_thread(self):
        lock = TrackedLock("a")
        seen = []
        with lock:
            thread = threading.Thread(
                target=lambda: seen.append(lock.held_by_current_thread())
            )
            thread.start()
            thread.join()
        assert seen == [False]


# --------------------------------------------------------------------------- #
# Lock-order cycle detection
# --------------------------------------------------------------------------- #
class TestLockOrder:
    def test_consistent_order_is_fine(self):
        a, b = TrackedLock("a"), TrackedLock("b")
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_inverted_order_raises_cycle(self):
        a, b = TrackedLock("a"), TrackedLock("b")
        with a:
            with b:
                pass
        with pytest.raises(LockCycleError):
            with b:
                with a:
                    pass

    def test_three_lock_cycle_detected(self):
        a, b, c = TrackedLock("a"), TrackedLock("b"), TrackedLock("c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(LockCycleError):
            with c:
                with a:
                    pass

    def test_cycle_detected_across_threads(self):
        # Thread 1 establishes a->b; the main thread's b->a attempt is the
        # classic two-thread deadlock shape, caught without any hang.
        a, b = TrackedLock("a"), TrackedLock("b")

        def establish():
            with a:
                with b:
                    pass

        thread = threading.Thread(target=establish)
        thread.start()
        thread.join()
        with pytest.raises(LockCycleError):
            with b:
                with a:
                    pass


# --------------------------------------------------------------------------- #
# Ownership guards
# --------------------------------------------------------------------------- #
# One backend per client of the shared row store: the flat family, its
# routed subclass, the quantized family and its routed composition.
STORE_CLIENTS = ["flat", "ivf", "sq8", "ivf+sq8"]


class TestOwnershipGuards:
    @pytest.mark.parametrize("backend", STORE_CLIENTS)
    def test_guarded_index_requires_lock(self, backend):
        lock = TrackedLock("shard")
        index = guard_index(make_index(backend), lock, "test.index")
        with pytest.raises(LockOwnershipError):
            index.add([1.0, 0.0], id=0)
        with lock:
            index.add([1.0, 0.0], id=0)
            assert index.search([[1.0, 0.0]], top_k=1)

    @pytest.mark.parametrize("backend", STORE_CLIENTS)
    def test_guarded_rebuild_reenters_guarded_add_batch(self, backend):
        """The shared ``rebuild`` body calls ``self.add_batch`` — the
        instance-level guarded wrapper — so it must pass with the lock held
        (re-entering the guard) and raise without it, before mutating."""
        lock = TrackedLock("shard")
        index = guard_index(make_index(backend), lock, "test.index")
        with lock:
            index.add_batch([[1.0, 0.0], [0.0, 1.0]], ids=[0, 1])
        with pytest.raises(LockOwnershipError):
            index.rebuild([[1.0, 1.0]], ids=[5])
        assert index.ids == [0, 1]
        with lock:
            index.rebuild([[1.0, 1.0]], ids=[5])
            assert index.ids == [5]
            assert [h.id for h in index.search([[1.0, 1.0]], top_k=1)[0]] == [5]

    def test_guard_is_per_instance(self):
        lock = TrackedLock("shard")
        guarded = guard_index(FlatIndex(), lock, "guarded")
        free = FlatIndex()
        free.add([1.0, 0.0], id=0)  # unguarded instance stays usable
        with pytest.raises(LockOwnershipError):
            guarded.add([1.0, 0.0], id=0)

    def test_guard_cache_covers_mean_cache_index(self):
        lock = TrackedLock("shard")
        cache = guard_cache(make_cache(), lock, "user")
        with lock:
            cache.insert("hello there", "resp")
            assert len(cache) == 1
        with pytest.raises(LockOwnershipError):
            cache.insert("smuggled entry", "resp")

    def test_plain_lock_means_no_instrumentation(self):
        cache = guard_cache(make_cache(), threading.Lock(), "user")
        cache.insert("hello there", "resp")  # no guard, no raise
        assert len(cache) == 1


# --------------------------------------------------------------------------- #
# Env-flag gating
# --------------------------------------------------------------------------- #
class TestEnvGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_CONCURRENCY", raising=False)
        assert not debug_enabled()
        assert not isinstance(maybe_tracked_lock("x"), TrackedLock)
        assert not isinstance(maybe_tracked_rlock("x"), TrackedLock)

    def test_enabled_by_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CONCURRENCY", "1")
        assert debug_enabled()
        assert isinstance(maybe_tracked_lock("x"), TrackedLock)
        rlock = maybe_tracked_rlock("x")
        assert isinstance(rlock, TrackedLock) and rlock.reentrant


# --------------------------------------------------------------------------- #
# Acceptance scenario: live server under REPRO_DEBUG_CONCURRENCY=1
# --------------------------------------------------------------------------- #
def _trace(pairs):
    """A minimal Trace from (user_id, query) pairs, one event per second."""
    from repro.serving.workload import Trace, WorkloadEvent

    events = [
        WorkloadEvent(time_s=float(i), user_id=uid, query=query)
        for i, (uid, query) in enumerate(pairs)
    ]
    return Trace(events=events, n_users=len({uid for uid, _ in pairs}))


class TestServerUnderChecker:
    @pytest.fixture()
    def server(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CONCURRENCY", "1")
        from repro.llm.service import LLMServiceConfig, SimulatedLLMService
        from repro.serving.server import CacheServer, ServerConfig

        caches = {}
        server = CacheServer(
            lambda uid: caches.setdefault(uid, make_cache()),
            service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
            config=ServerConfig(n_shards=2, max_batch_size=8, deterministic=True),
        )
        return server

    def test_normal_replay_passes_under_checker(self, server):
        result = server.replay(_trace(
            [("user-a", f"query number {i}") for i in range(6)]
            + [("user-b", f"query number {i}") for i in range(6)]
        ))
        assert result.n_events == 12
        assert result.lookups == 12

    def test_injected_unlocked_mutation_is_detected(self, server):
        server.replay(_trace([("user-a", "seed the cache")]))
        cache = server.cache_for("user-a")
        # The deliberate violation: touching the user's cache directly,
        # without the owning shard lock — exactly what RPL001 forbids
        # lexically and this checker enforces dynamically.
        with pytest.raises(LockOwnershipError):
            cache.insert("smuggled entry", "resp")

    def test_mutation_under_owning_lock_is_fine(self, server):
        server.replay(_trace([("user-a", "seed the cache")]))
        shard = server._shards[server.shard_of("user-a")]
        cache = server.cache_for("user-a")
        before = len(cache)
        with shard.lock:
            cache.insert("legitimate entry", "resp")
        assert len(cache) == before + 1
