"""Thread-hammer tests for the serving tier's concurrency contract.

No :class:`~repro.index.VectorIndex` backend is thread-safe: the flat scan
reuses per-index scratch buffers, IVF rewires postings in place, and
eviction compacts entry layouts — concurrent calls corrupt them.  The fix
lives in the **server adapter layer**, not in FlatIndex: every cache hangs
off exactly one shard of :class:`~repro.serving.server.CacheServer` and all
access to it runs under that shard's lock.  Putting a lock inside FlatIndex
instead would tax the single-threaded simulator and benchmarks on every
call, serialize at the wrong granularity (per index, when the unit of
consistency is the cache: entries dict + index + stats must move together),
and still leave the cache-level compound operations racy.

These tests hammer a live server from real client threads — interleaved
lookup, insert (miss→enrol) and eviction churn — and assert:

* every submitted request resolves exactly once (none lost, none duplicated);
* cache/index invariants hold afterwards (index ids == entry ids, sizes
  match, capacity respected);
* results match a sequential oracle replay of the same traffic;
* the server never lets two threads into one cache at once (probed with an
  instrumented cache that detects re-entrancy).
"""

from __future__ import annotations

import concurrent.futures
import gc
import logging
import sys
import threading
import time

import pytest

from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.federated.online import OnlineAdaptationConfig, OnlineThresholdAdapter
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import BackpressureError, CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadEvent

pytestmark = [pytest.mark.serving, pytest.mark.concurrency]

N_THREADS = 6
REQUESTS_PER_THREAD = 20


def _fast_service():
    """A thread-safe service (latency is modelled, never slept)."""
    return SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True)


def _server(factory, **config_kwargs):
    config = ServerConfig(
        n_shards=config_kwargs.pop("n_shards", 4),
        max_batch_size=config_kwargs.pop("max_batch_size", 16),
        max_batch_wait_s=config_kwargs.pop("max_batch_wait_s", 0.002),
        **config_kwargs,
    )
    return CacheServer(factory, service=_fast_service(), config=config)


def _hammer(server, queries_of_thread):
    """Drive the server from N client threads; returns responses and errors."""
    responses = {}
    errors = []

    def client(tid):
        try:
            for query in queries_of_thread[tid]:
                future = server.submit_threadsafe(f"user-{tid}", query)
                responses[(tid, query)] = future.result(timeout=60)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((tid, exc))

    threads = [
        threading.Thread(target=client, args=(tid,))
        for tid in range(len(queries_of_thread))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, errors


def _server_threads():
    """Live threads a CacheServer started (they are all named ``cache-server…``)."""
    return [t for t in threading.enumerate() if t.name.startswith("cache-server")]


def assert_cache_invariants(cache):
    """Entries dict, vector index and capacity agree with each other."""
    entry_ids = sorted(cache._entries.keys())
    index_ids = sorted(cache.index.ids)
    assert index_ids == entry_ids, "index ids diverged from entry ids"
    assert len(cache.index) == len(cache._entries)
    assert len(cache) <= cache.config.max_entries
    for entry_id, entry in cache._entries.items():
        assert entry.entry_id == entry_id


class TestThreadedHammer:
    def test_per_user_caches_miss_then_hit_rounds(self):
        """Two hammer rounds match the sequential oracle exactly.

        Round 1 offers each thread distinct never-seen queries: every
        request must miss, pay the (zero-latency) LLM and enrol.  Round 2
        re-submits the identical queries: every request must hit its own
        round-1 enrolment.  That is precisely what a sequential replay of
        the same per-user streams produces, so any lost/duplicated/crossed
        request under concurrency breaks the assertions.
        """
        encoder = make_tiny_encoder()
        caches = {}

        def factory(user_id):
            # τ high enough that only (near-)exact duplicates hit: round 1's
            # distinct queries all miss, round 2's replays all hit.
            caches[user_id] = MeanCache(
                encoder, MeanCacheConfig(similarity_threshold=0.999)
            )
            return caches[user_id]

        queries_of_thread = {
            tid: [
                f"thread {tid} unique question number {i} about subject {tid}-{i}"
                for i in range(REQUESTS_PER_THREAD)
            ]
            for tid in range(N_THREADS)
        }
        server = _server(factory)
        server.start()
        try:
            first, errors = _hammer(server, queries_of_thread)
            assert not errors
            second, errors = _hammer(server, queries_of_thread)
            assert not errors
        finally:
            server.stop()

        n_requests = N_THREADS * REQUESTS_PER_THREAD
        assert len(first) == n_requests and len(second) == n_requests
        assert all(not r.hit for r in first.values()), "round 1 must be all misses"
        assert all(r.hit for r in second.values()), "round 2 must be all hits"
        # Round-2 hits serve exactly the response round 1 enrolled.
        for key, response in second.items():
            assert response.response == first[key].response
        # Sequential oracle on cache state: each user's cache holds exactly
        # its own round-1 misses, once each.
        assert set(caches) == {f"user-{tid}" for tid in range(N_THREADS)}
        for tid in range(N_THREADS):
            cache = caches[f"user-{tid}"]
            assert_cache_invariants(cache)
            assert sorted(e.query for e in cache.entries) == sorted(
                queries_of_thread[tid]
            )
        # Accounting survived the interleaving (thread-safe service stats).
        assert server.service.stats.n_requests == n_requests
        assert server.metrics.completed == 2 * n_requests
        assert server.metrics.hits == n_requests

    def test_shared_central_cache_under_contention(self):
        """All threads hammer ONE cache object; per-shard lock keeps it sane."""
        encoder = make_tiny_encoder()
        central = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8))
        queries_of_thread = {
            tid: [
                f"central topic {tid}-{i} with distinctive wording {tid * 100 + i}"
                for i in range(REQUESTS_PER_THREAD)
            ]
            for tid in range(N_THREADS)
        }
        server = _server(lambda uid: central)
        server.start()
        try:
            responses, errors = _hammer(server, queries_of_thread)
        finally:
            server.stop()
        assert not errors
        assert len(responses) == N_THREADS * REQUESTS_PER_THREAD
        assert_cache_invariants(central)
        # Every miss enrolled exactly once; hits served an enrolled entry.
        misses = [r for r in responses.values() if not r.hit]
        assert len(central) == len(misses)
        enrolled = {e.query for e in central.entries}
        for response in responses.values():
            if not response.hit:
                assert response.query in enrolled
        # The shared object was pinned to one shard (identity collapse).
        assert len({server.shard_of(f"user-{t}") for t in range(N_THREADS)}) == 1

    def test_eviction_churn_keeps_invariants(self):
        """A capacity-8 shared cache under 120 concurrent inserts stays sane."""
        encoder = make_tiny_encoder()
        central = MeanCache(
            encoder,
            MeanCacheConfig(similarity_threshold=0.95, max_entries=8),
        )
        queries_of_thread = {
            tid: [
                f"churn workload item {tid}-{i} body {i * 7 + tid}"
                for i in range(REQUESTS_PER_THREAD)
            ]
            for tid in range(N_THREADS)
        }
        server = _server(lambda uid: central, max_batch_size=8)
        server.start()
        try:
            responses, errors = _hammer(server, queries_of_thread)
        finally:
            server.stop()
        assert not errors
        assert len(responses) == N_THREADS * REQUESTS_PER_THREAD
        assert_cache_invariants(central)
        assert len(central) <= 8

    def test_server_never_overlaps_access_to_one_cache(self):
        """Re-entrancy probe: two threads never run one cache concurrently.

        The instrumented cache sleeps inside ``lookup_batch`` while tracking
        concurrent entries; without the per-shard lock, 6 client threads
        with sub-millisecond batching would overlap with near certainty.
        """
        import time as _time

        encoder = make_tiny_encoder()

        class ProbedCache(MeanCache):
            overlaps = 0
            _inside = 0
            _guard = threading.Lock()

            def lookup_batch(self, queries, contexts=None, embeddings=None):
                cls = ProbedCache
                with cls._guard:
                    cls._inside += 1
                    if cls._inside > 1:
                        cls.overlaps += 1
                _time.sleep(0.002)
                try:
                    return super().lookup_batch(
                        queries, contexts=contexts, embeddings=embeddings
                    )
                finally:
                    with cls._guard:
                        cls._inside -= 1

        central = ProbedCache(encoder, MeanCacheConfig(similarity_threshold=0.8))
        queries_of_thread = {
            tid: [f"probe {tid}-{i}" for i in range(10)] for tid in range(N_THREADS)
        }
        server = _server(lambda uid: central, max_batch_size=4, max_batch_wait_s=0.0005)
        server.start()
        try:
            _, errors = _hammer(server, queries_of_thread)
        finally:
            server.stop()
        assert not errors
        assert ProbedCache.overlaps == 0


def test_stop_drains_the_queue_and_tears_down(caplog):
    """stop() right after a burst: every queued request still resolves and
    the flush thread is joined and forgotten."""
    encoder = make_tiny_encoder()
    caches = {}

    def factory(user_id):
        return caches.setdefault(
            user_id, MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.999))
        )

    # A batch cap above the burst and a long coalescing wait: nothing has
    # flushed when stop() lands, so shutdown itself must drain the queue.
    server = _server(factory, max_batch_size=64, max_batch_wait_s=5.0)
    server.start()
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        futures = [
            server.submit_threadsafe(f"user-{i % 4}", f"burst question number {i}")
            for i in range(24)
        ]
        server.stop()
        gc.collect()  # a task left pending would be reported here
    assert all(future.done() for future in futures)
    assert all(future.result(timeout=0).response for future in futures)
    assert server.metrics.completed == 24
    assert server._thread is None
    assert _server_threads() == []
    assert not server._running
    assert "Task was destroyed" not in caplog.text


def test_flush_failure_is_contained_to_its_batch(caplog):
    """A cache raising inside a flush fails that batch's requests only: the
    flush loop survives, another user's next request is served, and stop()
    still tears down cleanly."""
    encoder = make_tiny_encoder()

    class PoisonableCache(MeanCache):
        def lookup_batch(self, queries, contexts=None, embeddings=None):
            if any("poison" in query for query in queries):
                raise RuntimeError("poisoned lookup")
            return super().lookup_batch(
                queries, contexts=contexts, embeddings=embeddings
            )

    caches = {}

    def factory(user_id):
        return caches.setdefault(
            user_id,
            PoisonableCache(encoder, MeanCacheConfig(similarity_threshold=0.999)),
        )

    # One request per flush, so "that batch" is exactly the poisoned request.
    server = _server(factory, max_batch_size=1, max_batch_wait_s=0.0)
    server.start()
    with caplog.at_level(logging.WARNING):
        try:
            poisoned = server.submit_threadsafe("mallory", "a poison question")
            with pytest.raises(RuntimeError, match="poisoned lookup"):
                poisoned.result(timeout=5)
            served = server.submit_threadsafe("alice", "an ordinary question")
            response = served.result(timeout=5)
        finally:
            server.stop()
            gc.collect()  # a task left pending would be reported here
    assert response.response and not response.hit
    assert server.metrics.completed == 1  # the failed request is counted apart
    assert server.metrics.failed == 1
    assert server.metrics.offered == 2 and server.metrics.to_dict()["failed"] == 1
    assert server.metrics.flushes == 2
    flush_warnings = [
        record
        for record in caplog.records
        if record.name == "repro.serving.server" and record.levelno == logging.WARNING
    ]
    assert len(flush_warnings) == 1
    assert server._thread is None
    assert _server_threads() == []
    assert "Task was destroyed" not in caplog.text


class TestLiveCheckpoint:
    """A live server checkpoints between two flushes, from the caller's thread."""

    def _factory(self, encoder):
        # τ high enough that every distinct query misses and enrols; the
        # default capacity never evicts at these sizes.
        return lambda user_id: MeanCache(
            encoder, MeanCacheConfig(similarity_threshold=0.999)
        )

    def _restore(self, encoder, path):
        restored = _server(self._factory(encoder))
        restored.restore(path, lambda p: MeanCache.load(p, encoder))
        return restored

    def test_checkpoint_mid_hammer_is_a_cut_between_flushes(self, tmp_path):
        """Every miss answered before checkpoint() was called is in the
        checkpoint, and nothing the live run never answered is."""
        encoder = make_tiny_encoder()
        n_threads, per_thread = 8, 24
        server = _server(self._factory(encoder), max_batch_size=8)
        answered = []  # (user, query) of each resolved miss, in resolution order
        answered_lock = threading.Lock()
        offered = []
        quarter_done = threading.Event()

        def client(tid):
            for i in range(per_thread):
                query = f"live checkpoint thread {tid} question {i} topic {tid * 97 + i}"
                offered.append(query)
                response = server.submit_threadsafe(f"user-{tid}", query).result(
                    timeout=60
                )
                if not response.hit:
                    with answered_lock:
                        answered.append((response.user_id, response.query))
                        if len(answered) >= n_threads * per_thread // 4:
                            quarter_done.set()

        threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server.start()
        try:
            for thread in threads:
                thread.start()
            assert quarter_done.wait(timeout=60)
            with answered_lock:
                before = list(answered)
            server.checkpoint(tmp_path / "ckpt")
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.stop()

        assert len(offered) == n_threads * per_thread
        metrics = server.metrics
        assert len(offered) == metrics.completed + metrics.failed + metrics.shed
        assert metrics.failed == metrics.shed == 0
        restored = self._restore(encoder, tmp_path / "ckpt")
        stored = {
            (user, entry.query)
            for user, adapter in restored.adapters.items()
            for entry in adapter.cache.entries
        }
        assert set(before) <= stored
        assert stored <= set(answered)
        for adapter in restored.adapters.values():
            assert_cache_invariants(adapter.cache)

    def test_flushes_wait_while_a_checkpoint_saves(self, tmp_path):
        """Admission goes on during a checkpoint, but no flush runs until it
        is done — even for a user on another shard."""
        encoder = make_tiny_encoder()
        server = _server(self._factory(encoder), max_batch_wait_s=0.0)
        saving, release = threading.Event(), threading.Event()
        server.start()
        try:
            server.submit_threadsafe("user-0", "a question to save").result(timeout=10)
            cache = server.cache_for("user-0")
            save = cache.save

            def slow_save(path):
                saving.set()
                assert release.wait(timeout=10)
                return save(path)

            cache.save = slow_save
            other = next(
                f"user-{i}"
                for i in range(1, 64)
                if server.shard_of(f"user-{i}") != server.shard_of("user-0")
            )
            checkpointer = threading.Thread(
                target=server.checkpoint, args=(tmp_path / "ckpt",)
            )
            checkpointer.start()
            assert saving.wait(timeout=10)
            waiting = server.submit_threadsafe(other, "a question during the save")
            with pytest.raises(concurrent.futures.TimeoutError):
                waiting.result(timeout=0.2)
            release.set()
            checkpointer.join(timeout=10)
            assert not checkpointer.is_alive()
            assert waiting.result(timeout=10).response
        finally:
            release.set()
            server.stop()
        assert (tmp_path / "ckpt" / "manifest.json").exists()

    def test_flushes_wait_while_a_storage_report_reads(self):
        """A storage report reads the caches between two flushes, as a
        checkpoint does: no flush runs while it walks them — even for a
        user on another shard."""
        encoder = make_tiny_encoder()
        server = _server(self._factory(encoder), max_batch_wait_s=0.0)
        reading, release = threading.Event(), threading.Event()
        report = {}
        server.start()
        try:
            server.submit_threadsafe("user-0", "a question to count").result(timeout=10)
            cache = server.cache_for("user-0")
            nbytes = cache.embedding_storage_bytes

            def slow_nbytes():
                reading.set()
                assert release.wait(timeout=10)
                return nbytes()

            cache.embedding_storage_bytes = slow_nbytes
            other = next(
                f"user-{i}"
                for i in range(1, 64)
                if server.shard_of(f"user-{i}") != server.shard_of("user-0")
            )
            reporter = threading.Thread(
                target=lambda: report.update(server.storage_report())
            )
            reporter.start()
            assert reading.wait(timeout=10)
            waiting = server.submit_threadsafe(other, "a question during the report")
            with pytest.raises(concurrent.futures.TimeoutError):
                waiting.result(timeout=0.2)
            release.set()
            reporter.join(timeout=10)
            assert not reporter.is_alive()
            assert waiting.result(timeout=10).response
        finally:
            release.set()
            server.stop()
        # Both users' caches, read before the second one enrolled anything.
        assert (report["n_caches"], report["total_entries"]) == (2, 1)

    def test_failing_save_reaches_the_caller_and_keeps_the_old_generation(
        self, tmp_path
    ):
        """One cache's save raises mid-checkpoint: the caller sees it, the
        previous checkpoint still restores, and serving goes on."""
        encoder = make_tiny_encoder()
        server = _server(self._factory(encoder))
        path = tmp_path / "ckpt"

        def round_of(name):
            return {t: [f"{name} round {t} question {i}" for i in range(4)] for t in range(4)}

        server.start()
        try:
            _, errors = _hammer(server, round_of("first"))
            assert not errors
            server.checkpoint(path)
            expected = {
                user: sorted(e.query for e in adapter.cache.entries)
                for user, adapter in server.adapters.items()
            }
            _, errors = _hammer(server, round_of("second"))
            assert not errors

            def failing_save(path):
                raise OSError("disk full")

            # The last cache in checkpoint order: the others saved first.
            list(server.adapters.values())[-1].cache.save = failing_save
            with pytest.raises(OSError, match="disk full"):
                server.checkpoint(path)
            after = server.submit_threadsafe("user-0", "a question after the failure")
            response = after.result(timeout=10)
        finally:
            server.stop()

        assert response.response and not response.hit
        assert server.metrics.failed == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        restored = self._restore(encoder, path)
        assert {
            user: sorted(e.query for e in adapter.cache.entries)
            for user, adapter in restored.adapters.items()
        } == expected


class TestFlushThreadLifecycle:
    """The live server is one flush thread behind one condition."""

    def _factory(self):
        encoder = make_tiny_encoder()
        caches = {}

        def factory(user_id):
            return caches.setdefault(
                user_id, MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.999))
            )

        return factory

    def test_submitters_racing_stop_lose_nothing(self):
        """8 clients submit while another thread stops the server: every
        future ever returned resolves, every refused call raised, and the
        metrics account for exactly the admitted requests."""
        server = _server(
            self._factory(), max_queue_depth=16, max_batch_size=4, max_batch_wait_s=0.0005
        )
        server.start()
        returned, refused, errors = [], [], []
        go = threading.Event()

        def client(tid):
            try:
                go.wait(timeout=10)
                for i in range(400):
                    try:
                        returned.append(
                            server.submit_threadsafe(f"user-{tid}", f"race {tid} item {i}")
                        )
                    except RuntimeError as exc:
                        assert "server is not running" in str(exc)
                        refused.append((tid, i))
                        return
            except BaseException as exc:  # surfaced on the main thread below
                errors.append((tid, exc))

        def stopper():
            go.wait(timeout=10)
            while len(returned) < 40:  # let some traffic through first
                time.sleep(0.0005)
            server.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
            threads.append(threading.Thread(target=stopper))
            for thread in threads:
                thread.start()
            go.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert not errors, errors[0]
        # stop() returned only after the flush thread drained the queue: no
        # future is pending, whichever side of the stop it was admitted on.
        assert all(future.done() for future in returned)
        shed = [f for f in returned if isinstance(f.exception(), BackpressureError)]
        served = [f for f in returned if f.exception() is None]
        assert len(shed) + len(served) == len(returned)
        assert all(f.result().response for f in served)
        assert refused, "stop() landed after every client finished; nothing raced"
        metrics = server.metrics
        assert (metrics.completed, metrics.shed, metrics.failed) == (len(served), len(shed), 0)
        assert metrics.offered == len(returned)
        assert _server_threads() == []

    def test_cancelled_queued_future_is_dropped_not_its_batch(self):
        """A client cancels while queued: the batch's other requests are
        served, the cancelled one is never executed or counted."""
        # Nothing flushes before stop(): the long wait keeps all three queued.
        server = _server(self._factory(), max_batch_size=64, max_batch_wait_s=30.0)
        server.start()
        try:
            futures = [
                server.submit_threadsafe("alice", f"cancellable question {i}") for i in range(3)
            ]
            assert futures[1].cancel()
        finally:
            server.stop()
        assert futures[1].cancelled()
        assert [f.result(timeout=0).query for f in (futures[0], futures[2])] == [
            "cancellable question 0",
            "cancellable question 2",
        ]
        assert server.metrics.completed == 2
        assert server.metrics.batch_size_histogram() == {2: 1}
        assert server.service.stats.n_requests == 2  # the dropped one paid no LLM

    def test_closed_loop_flushes_when_its_clients_are_back(self):
        """4 clients in a closed loop against a 0.2 s coalescing wait: only
        the first flush waits it out; every later one fires the moment the
        4th client is back, so 15 rounds take far less than 15 x 0.2 s."""
        n_clients, rounds, wait_s = 4, 15, 0.2
        server = _server(self._factory(), max_batch_size=64, max_batch_wait_s=wait_s)
        go = threading.Barrier(n_clients)
        responses = {tid: [] for tid in range(n_clients)}
        errors = []

        def client(tid):
            try:
                go.wait(timeout=10)
                for i in range(rounds):
                    future = server.submit_threadsafe(f"user-{tid}", f"loop {tid} round {i}")
                    responses[tid].append(future.result(timeout=10))
            except BaseException as exc:  # surfaced on the main thread below
                errors.append((tid, exc))

        threads = [threading.Thread(target=client, args=(t,)) for t in range(n_clients)]
        server.start()
        began = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            elapsed = time.perf_counter() - began
            assert not any(thread.is_alive() for thread in threads)
        finally:
            server.stop()
        assert not errors, errors[0]
        assert elapsed < 0.5 * rounds * wait_s
        metrics = server.metrics
        assert metrics.batch_size_histogram() == {n_clients: rounds}
        assert metrics.to_dict()["flush_reasons"] == {
            "full": 0,
            "target": rounds - 1,
            "deadline": 1,
            "stop": 0,
        }
        # The deadline flush is the first one: its oldest request waited the
        # whole window, no later request did.
        assert max(r[0].queue_wait_s for r in responses.values()) >= wait_s
        assert all(r.queue_wait_s < wait_s for rs in responses.values() for r in rs[1:])

    def test_flush_reasons_sum_to_flushes(self):
        """A cap of 2 and a long wait: a burst of 5 flushes twice because the
        batch is full, and stop() drains the odd one out."""
        server = _server(self._factory(), max_batch_size=2, max_batch_wait_s=30.0)
        server.start()
        try:
            futures = [server.submit_threadsafe("alice", f"burst {i}") for i in range(5)]
        finally:
            server.stop()
        assert all(f.result(timeout=0).response for f in futures)
        metrics = server.metrics
        assert metrics.batch_size_histogram() == {1: 1, 2: 2}
        assert metrics.flush_reasons == {"full": 2, "target": 0, "deadline": 0, "stop": 1}
        assert sum(metrics.flush_reasons.values()) == metrics.flushes

    def test_exactly_one_server_thread_while_serving(self):
        server = _server(self._factory())
        assert _server_threads() == []
        server.start()
        try:
            assert server.submit_threadsafe("alice", "who is counting").result(timeout=10)
            assert [t.name for t in _server_threads()] == ["cache-server-flush"]
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()
        assert _server_threads() == []
        server.stop()  # a second stop is a no-op

    def test_submit_outside_start_stop_raises_synchronously(self):
        server = _server(self._factory())
        with pytest.raises(RuntimeError, match="server is not running"):
            server.submit_threadsafe("alice", "too early")
        server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="server is not running"):
            server.submit_threadsafe("alice", "too late")
        assert server.metrics.offered == 0

    @pytest.mark.parametrize("bad", ["make it red", ["a turn", 5]], ids=["str", "int-turn"])
    def test_malformed_context_is_refused_before_admission(self, bad):
        """A bare-string context would be admitted as one turn per
        character; a non-string turn would fail the whole flush in the
        tokenizer.  Both raise in the caller's thread and admit nothing."""
        server = _server(self._factory())
        server.start()
        try:
            with pytest.raises(ValueError, match="context"):
                server.submit_threadsafe("alice", "change the color to red", context=bad)
            assert server.metrics.offered == 0
            served = server.submit_threadsafe(
                "alice", "change the color to red", context=["draw a line plot"]
            )
            assert served.result(timeout=10).user_id == "alice"
        finally:
            server.stop()
        assert (server.metrics.offered, server.metrics.completed) == (1, 1)

    def test_stop_timeout_keeps_the_thread_and_the_freeze(self, caplog):
        """stop(timeout) expiring mid-flush warns, keeps the handle and the
        encoder frozen; a second stop() finishes the join and thaws."""
        encoder = make_tiny_encoder()
        entered, release = threading.Event(), threading.Event()

        class SlowCache(MeanCache):
            def lookup_batch(self, queries, contexts=None, embeddings=None):
                entered.set()
                assert release.wait(timeout=30)
                return super().lookup_batch(queries, contexts=contexts, embeddings=embeddings)

        cache = SlowCache(encoder, MeanCacheConfig(similarity_threshold=0.999))
        server = CacheServer(
            lambda uid: cache,
            service=_fast_service(),
            config=ServerConfig(max_batch_size=1, max_batch_wait_s=0.0),
            encoder=encoder,
        )
        server.start()
        try:
            future = server.submit_threadsafe("alice", "a slow question")
            assert entered.wait(timeout=10)
            with caplog.at_level(logging.WARNING, logger="repro.serving.server"):
                server.stop(timeout=0.05)
            assert "still draining" in caplog.text
            assert server._thread is not None and server._thread.is_alive()
            assert not encoder.W1.flags.writeable  # still frozen: the thread still runs
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
            with pytest.raises(RuntimeError, match="server is not running"):
                server.submit_threadsafe("alice", "after stop began")
        finally:
            release.set()
            server.stop()
        assert future.result(timeout=0).response
        assert server._thread is None and _server_threads() == []
        assert encoder.W1.flags.writeable
        assert server.metrics.to_dict()["encoder_memo_misses"] == 1

    def test_dead_flush_thread_fails_what_it_owed_and_stops_admitting(self):
        """An exception escaping a flush outside the contained part kills
        the thread: the batch in flight and everything queued fail with it
        (nobody hangs), later submits are refused, stop() still joins and
        thaws."""
        encoder = make_tiny_encoder()
        cache = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.999))
        entered, release = threading.Event(), threading.Event()
        server = CacheServer(
            lambda uid: cache,
            service=_fast_service(),
            config=ServerConfig(max_batch_size=1, max_batch_wait_s=0.0),
            encoder=encoder,
        )

        def broken_record(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=30)
            raise RuntimeError("metrics exploded")

        server._record = broken_record
        # Tier-1 turns an exception escaping a thread into a failure; this
        # one is the point of the test, so take it from the hook ourselves.
        escaped = []
        hook, threading.excepthook = threading.excepthook, escaped.append
        server.start()
        try:
            in_flight = server.submit_threadsafe("alice", "the flush that dies")
            assert entered.wait(timeout=10)
            queued = server.submit_threadsafe("alice", "queued behind it")
            release.set()
            for future in (in_flight, queued):
                with pytest.raises(RuntimeError, match="metrics exploded"):
                    future.result(timeout=2)
            server._thread.join(timeout=10)
            with pytest.raises(RuntimeError, match="server is not running"):
                server.submit_threadsafe("alice", "after the thread died")
        finally:
            release.set()
            server.stop()
            threading.excepthook = hook
        # The exception still escaped the thread (it is not swallowed).
        assert [args.exc_type for args in escaped] == [RuntimeError]
        assert not server._running
        assert server._thread is None and _server_threads() == []
        assert encoder.W1.flags.writeable
        metrics = server.metrics
        assert (metrics.completed, metrics.failed, metrics.shed) == (0, 2, 0)
        assert metrics.offered == 2

    def test_backward_clock_step_keeps_the_flush_thread_serving(self):
        """The server's clock steps back 1 s while a flush runs: its request
        still resolves (end-to-end latency clamps at 0, as queue wait does)
        and the server keeps serving the next one."""
        offset = [0.0]
        server = CacheServer(
            self._factory(),
            service=_fast_service(),
            config=ServerConfig(max_batch_size=1, max_batch_wait_s=0.0),
            clock=lambda: time.monotonic() + offset[0],
        )
        classify = server._classify_flush

        def classify_then_step_back(batch):
            pairs = classify(batch)
            if not offset[0]:
                offset[0] = -1.0
            return pairs

        server._classify_flush = classify_then_step_back
        server.start()
        try:
            first = server.submit_threadsafe("alice", "asked before the step").result(timeout=10)
            second = server.submit_threadsafe("alice", "asked after the step").result(timeout=10)
            assert server._thread.is_alive()
        finally:
            server.stop()
        assert (first.query, second.query) == ("asked before the step", "asked after the step")
        metrics = server.metrics
        assert (metrics.completed, metrics.failed) == (2, 0)
        assert metrics.e2e_latency.count == 2

    def test_submit_threadsafe_forwards_intent_key(self):
        """The thread API carries the intent key, so a re-ask is verified."""

        class Recorder:
            def __init__(self):
                self.observed = []

            def register_user(self, user_id, cache):
                pass

            def observe(self, user_id, **kwargs):
                self.observed.append((kwargs["hit"], kwargs["verified"]))

            def advance(self, now_s):
                pass

        recorder = Recorder()
        server = CacheServer(
            self._factory(),
            service=_fast_service(),
            config=ServerConfig(max_batch_size=1, max_batch_wait_s=0.0),
            adaptation=recorder,
        )
        server.start()
        try:
            for intent in ("paris", "paris", "rome"):
                server.submit_threadsafe(
                    "alice", "what is the capital of France", intent_key=intent
                ).result(timeout=10)
        finally:
            server.stop()
        assert recorder.observed == [(False, None), (True, True), (True, False)]


class _SpyService(SimulatedLLMService):
    """A thread-safe service that records each request's ``now``."""

    def __init__(self):
        super().__init__(LLMServiceConfig(seed=0), thread_safe=True)
        self.nows = []

    def query(self, prompt, client_id="default", context=None, response_tokens=None, now=None):
        self.nows.append((prompt, now))
        return super().query(prompt, client_id, context, response_tokens, now)


class TestOneServerClock:
    """The server's one clock is its admission clock: the LLM service sees
    a replayed request's trace time and a live request's submit time."""

    def _server(self, service, clock=time.monotonic):
        encoder = make_tiny_encoder()
        return CacheServer(
            lambda user_id: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.999)),
            service=service,
            config=ServerConfig(n_shards=2, max_batch_size=1, max_batch_wait_s=0.0),
            clock=clock,
        )

    def _trace(self):
        events = [
            WorkloadEvent(time_s=0.5 * i + 0.125, user_id=f"user-{i % 3}", query=f"trace q {i}")
            for i in range(9)
        ]
        return Trace(events, n_users=3)

    def test_replay_passes_each_event_trace_time(self):
        spy = _SpyService()
        trace = self._trace()
        self._server(spy).replay(trace, batch_window_s=0.2)
        assert spy.nows == [(e.query, e.time_s) for e in trace.events]

    def test_live_passes_the_submit_time_on_the_server_clock(self):
        spy = _SpyService()
        submitted = []  # the clock's readings on the submitting thread
        submitter = threading.current_thread()

        def clock():
            now = time.monotonic() + 5000.0
            if threading.current_thread() is submitter:
                submitted.append(now)
            return now

        server = self._server(spy, clock=clock)
        server.start()
        try:
            for i in range(4):
                server.submit_threadsafe(f"user-{i}", f"live q {i}").result(timeout=10)
        finally:
            server.stop()
        assert len(submitted) == 4
        assert spy.nows == [(f"live q {i}", now) for i, now in enumerate(submitted)]

    def test_live_adaptation_owes_no_rounds_before_the_first_request(self):
        """A live clock reads far from its origin: the adapter's schedule
        starts at the first request it sees, so that request runs no
        catch-up rounds, and a request 31 s later runs exactly one."""
        # Shift the clock 1e6 s out and one second past a 30 s grid point,
        # so the first due round is 29 s after the first request.
        shift = 1e6 - (time.monotonic() + 1e6) % 30.0 + 1.0
        offset = [0.0]
        adapter = OnlineThresholdAdapter(OnlineAdaptationConfig(round_interval_s=30.0))
        encoder = make_tiny_encoder()
        server = CacheServer(
            lambda user_id: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.999)),
            service=_fast_service(),
            config=ServerConfig(max_batch_size=1, max_batch_wait_s=0.0),
            clock=lambda: time.monotonic() + shift + offset[0],
            adaptation=adapter,
        )
        server.start()
        try:
            server.submit_threadsafe("alice", "first live question").result(timeout=10)
            assert adapter.history == []
            offset[0] = 31.0
            server.submit_threadsafe("alice", "second live question").result(timeout=10)
            assert len(adapter.history) == 1
        finally:
            server.stop()

    def test_replay_refuses_a_running_server(self):
        spy = _SpyService()
        server = self._server(spy)
        trace = self._trace()
        server.start()
        try:
            with pytest.raises(RuntimeError, match="running"):
                server.replay(trace)
            server.submit_threadsafe("user-0", "live while refused").result(timeout=10)
        finally:
            server.stop()
        assert [q for q, _ in spy.nows] == ["live while refused"]
        server.replay(trace)
        assert len(spy.nows) == 1 + len(trace)


class TestHammerUnderRuntimeChecker:
    """The miss-then-hit hammer re-run with the lock tracker active.

    ``REPRO_DEBUG_CONCURRENCY=1`` turns the shard/registry locks into
    :class:`~repro.analysis.runtime.TrackedLock` instances (lock-order
    cycle detection) and instruments every registered cache's index with
    ownership guards — a mutation outside the owning shard lock raises
    instead of corrupting state.  CI re-runs the whole serving suite under
    the flag; this test pins the instrumented path into tier-1 regardless
    of environment.
    """

    def test_miss_then_hit_rounds_with_tracker(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CONCURRENCY", "1")
        from repro.analysis.runtime import TrackedLock, reset_registry

        reset_registry()
        try:
            encoder = make_tiny_encoder()
            caches = {}

            def factory(user_id):
                return caches.setdefault(
                    user_id,
                    MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.999)),
                )

            queries_of_thread = {
                tid: [f"tracked thread {tid} question number {i}" for i in range(8)]
                for tid in range(4)
            }
            server = _server(factory)
            assert isinstance(server._shards[0].lock, TrackedLock)
            server.start()
            try:
                first, errors = _hammer(server, queries_of_thread)
                assert not errors, errors
                second, errors = _hammer(server, queries_of_thread)
                assert not errors, errors
            finally:
                server.stop()
            assert all(not r.hit for r in first.values())
            assert all(r.hit for r in second.values())
            for cache in caches.values():
                assert_cache_invariants(cache)
        finally:
            reset_registry()


@pytest.mark.slow
class TestSlowHammer:
    """Heavier wall-clock hammers, excluded from tier-1 (run via ``-m slow``)."""

    def test_large_scale_hammer_with_backpressure(self):
        """16 threads, tiny queue: some requests shed, none lost or corrupted.

        Shed requests must surface as the typed BackpressureError at submit
        time; everything admitted must resolve; cache invariants must hold
        through the contention; accounting must balance exactly.
        """
        encoder = make_tiny_encoder()
        caches = {}

        def factory(user_id):
            caches[user_id] = MeanCache(
                encoder, MeanCacheConfig(similarity_threshold=0.999, max_entries=32)
            )
            return caches[user_id]

        server = _server(
            factory,
            n_shards=8,
            max_queue_depth=8,  # deliberately tiny: force shedding
            max_batch_size=8,
            max_batch_wait_s=0.0005,
        )
        server.start()
        served = []
        shed_count = [0]
        errors = []
        n_threads, per_thread = 16, 40

        def client(tid):
            try:
                for i in range(per_thread):
                    try:
                        future = server.submit_threadsafe(
                            f"user-{tid}", f"slow hammer {tid} item {i}"
                        )
                        served.append(future.result(timeout=60))
                    except BackpressureError as exc:
                        assert exc.limit == 8 and exc.queue_depth >= 8
                        shed_count[0] += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((tid, exc))

        threads = [
            threading.Thread(target=client, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()

        assert not errors
        offered = n_threads * per_thread
        assert len(served) + shed_count[0] == offered
        assert server.metrics.completed == len(served)
        assert server.metrics.shed == shed_count[0]
        assert server.metrics.failed == 0
        assert server.metrics.offered == offered
        for cache in caches.values():
            assert_cache_invariants(cache)
        # The admission bound was honoured at every sampled depth.
        assert server.metrics.max_depth_seen <= 8
