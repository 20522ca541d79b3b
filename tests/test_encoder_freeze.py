"""The frozen encoder: a bounded text -> row memo that cannot go stale."""

import asyncio
import sys
import threading

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings import model as model_module
from repro.embeddings.model import EncoderConfig, SiameseEncoder
from repro.embeddings.optim import SGD, Adam
from repro.embeddings.pca import PCA
from repro.embeddings.similarity import cosine_similarity
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import WorkloadConfig, WorkloadGenerator

TEXTS = [
    "sort a list in python",
    "order a python list",
    "grill salmon fillets",
    "extend my phone battery",
    "plan a trip to japan",
    "write a cover letter",
]
ZERO_STATS = {"rows": 0, "bytes": 0, "hits": 0, "misses": 0, "evictions": 0}


def _is_frozen(encoder):
    return not encoder.W1.flags.writeable


@pytest.fixture()
def frozen():
    encoder = make_tiny_encoder()
    encoder.freeze()
    return encoder


class TestFrozenEncode:
    def test_cold_memo_same_call_shape_is_bit_equal(self, frozen):
        reference = make_tiny_encoder()
        for batch in (TEXTS, TEXTS[:1], [], TEXTS[2]):
            frozen.unfreeze()
            frozen.freeze()
            assert np.array_equal(frozen.encode(batch), reference.encode(batch))

    def test_memo_rows_are_within_rounding_of_a_fresh_encode(self, frozen):
        reference = make_tiny_encoder()
        frozen.encode(TEXTS)  # rows come from one many-row forward ...
        for text in TEXTS:  # ... and are served where a one-row forward would run
            assert np.allclose(frozen.encode(text), reference.encode(text), rtol=0, atol=1e-12)
        mixed = [TEXTS[0], "never seen before", TEXTS[3]]
        assert np.allclose(frozen.encode(mixed), reference.encode(mixed), rtol=0, atol=1e-12)
        assert frozen.memo_stats()["misses"] == len(TEXTS) + 1

    def test_shapes(self, frozen):
        assert frozen.encode([]).shape == (0, 64)
        assert frozen.encode(TEXTS[0]).shape == (64,)
        assert frozen.encode(TEXTS[0]).shape == (64,)  # a hit keeps the shape
        assert frozen.encode([TEXTS[0]]).shape == (1, 64)
        assert frozen.encode(iter(TEXTS)).shape == (len(TEXTS), 64)

    def test_duplicates_inside_one_batch_are_encoded_once(self, frozen):
        batch = [TEXTS[0], TEXTS[1], TEXTS[0], TEXTS[0]]
        out = frozen.encode(batch)
        assert frozen.memo_stats()["misses"] == 2
        assert np.array_equal(out[0], out[2]) and np.array_equal(out[0], out[3])
        assert np.allclose(out, make_tiny_encoder().encode(batch), rtol=0, atol=1e-12)

    def test_one_memo_serves_both_compress_settings(self):
        encoder = make_tiny_encoder()
        encoder.fit_pca(TEXTS * 3, n_components=8)
        reference = encoder.clone()
        encoder.freeze()
        for _ in range(2):  # cold, then from the memo
            assert np.allclose(encoder.encode(TEXTS), reference.encode(TEXTS), rtol=0, atol=1e-12)
            full = encoder.encode(TEXTS, compress=False)
            assert full.shape == (len(TEXTS), 64)
            assert np.allclose(full, reference.encode(TEXTS, compress=False), rtol=0, atol=1e-12)
        assert encoder.encode(TEXTS[0]).shape == (8,)
        assert encoder.memo_stats()["misses"] == len(TEXTS)

    def test_returned_rows_are_the_callers_to_overwrite(self, frozen):
        first = frozen.encode(TEXTS)
        kept = first.copy()
        first[:] = 0.0
        again = frozen.encode(TEXTS)
        again[:] = 0.0
        assert np.array_equal(frozen.encode(TEXTS), kept)

    def test_memo_is_bounded_and_counts_what_it_did(self, frozen, monkeypatch):
        monkeypatch.setattr(model_module, "MEMO_ROWS", 4)
        frozen.encode(TEXTS[:3])
        frozen.encode(TEXTS[:3])
        assert frozen.memo_stats() == {
            "rows": 3, "bytes": 3 * 64 * 8, "hits": 3, "misses": 3, "evictions": 0,
        }
        frozen.encode(TEXTS[3:])  # 6 distinct texts through a 4-row memo
        stats = frozen.memo_stats()
        assert stats["rows"] == 4 and stats["evictions"] == 2 and stats["bytes"] == 4 * 64 * 8
        frozen.encode(TEXTS[0])  # the oldest went first
        assert frozen.memo_stats()["misses"] == 7
        frozen.encode([f"text {i}" for i in range(20)])  # one batch wider than the memo
        assert frozen.memo_stats()["rows"] == 4

    def test_text_noise_rows_are_memoized_with_their_noise(self):
        config = EncoderConfig(n_features=256, hidden_dim=32, output_dim=64, seed=5, text_noise=0.5)
        encoder, reference = SiameseEncoder(config), SiameseEncoder(config)
        encoder.freeze()
        encoder.encode(TEXTS)
        assert np.allclose(encoder.encode(TEXTS[1]), reference.encode(TEXTS[1]), rtol=0, atol=1e-12)

    def test_unfrozen_encoder_keeps_no_memo(self, tiny_encoder):
        tiny_encoder.encode(TEXTS)
        assert tiny_encoder.memo_stats() == ZERO_STATS
        assert tiny_encoder.unfreeze() == ZERO_STATS


class TestLifecycle:
    @pytest.mark.parametrize("optimizer", [Adam(lr=1e-2), SGD(lr=0.1)])
    def test_in_place_writer_hits_a_read_only_array(self, frozen, optimizer):
        params = [frozen.W1, frozen.b1, frozen.W2, frozen.b2]
        with pytest.raises(ValueError, match="read-only"):
            optimizer.step(params, [np.ones_like(p) for p in params])

    def test_pca_head_is_read_only_while_frozen(self):
        encoder = make_tiny_encoder()
        pca = encoder.fit_pca(TEXTS * 3, n_components=8)
        encoder.freeze()
        with pytest.raises(ValueError, match="read-only"):
            pca.components_ *= 2.0
        encoder.unfreeze()
        pca.components_ *= 1.0

    def test_freeze_is_idempotent_and_unfreeze_reports_the_memo(self, frozen):
        frozen.encode(TEXTS)
        frozen.freeze()
        assert frozen.memo_stats()["rows"] == len(TEXTS)
        assert frozen.unfreeze()["misses"] == len(TEXTS)
        assert not _is_frozen(frozen) and frozen.b2.flags.writeable
        assert frozen.memo_stats() == ZERO_STATS

    def test_arrays_read_only_before_freeze_stay_read_only_after_thaw(self, tiny_encoder):
        tiny_encoder.b1.flags.writeable = False
        tiny_encoder.freeze()
        tiny_encoder.unfreeze()
        assert not tiny_encoder.b1.flags.writeable and tiny_encoder.W1.flags.writeable

    def _thawing_calls(self):
        other = make_tiny_encoder(seed=9)
        fitted = PCA(n_components=8).fit(other.encode(TEXTS * 3))
        pairs = [(TEXTS[0], TEXTS[1], 1), (TEXTS[0], TEXTS[2], 0)] * 4
        return {
            "set_parameters": lambda e: e.set_parameters(other.get_parameters()),
            "load_state_dict": lambda e: e.load_state_dict(other.state_dict()),
            "train_on_pairs": lambda e: e.train_on_pairs(pairs, epochs=2, batch_size=4),
            "attach_pca": lambda e: e.attach_pca(fitted),
            "detach_pca": lambda e: (
                e.attach_pca(fitted), e.freeze(), e.encode(TEXTS), e.detach_pca(),
            ),
            "fit_pca": lambda e: e.fit_pca(TEXTS * 3, n_components=8),
        }

    THAWING = ("set_parameters", "load_state_dict", "train_on_pairs",
               "attach_pca", "detach_pca", "fit_pca")

    @pytest.mark.parametrize("name", THAWING)
    def test_every_mutator_thaws_and_the_next_encode_is_fresh(self, frozen, name):
        frozen.encode(TEXTS)
        assert frozen.memo_stats()["rows"] == len(TEXTS)
        self._thawing_calls()[name](frozen)
        assert not _is_frozen(frozen)
        assert frozen.memo_stats() == ZERO_STATS
        # What encode returns now is what an encoder that never had a memo
        # returns for the same weights and head.
        assert np.array_equal(frozen.encode(TEXTS), frozen.clone().encode(TEXTS))

    def test_training_a_frozen_encoder_improves_separation(self, frozen):
        """tests/test_model.py's scenario, on an encoder whose memo holds the
        pre-training rows: a memo that outlived training gives equal gaps."""
        dup = ("sort a list in python", "order a python list")
        neg = ("sort a list in python", "reverse a list in python")

        def sim(pair):
            return cosine_similarity(frozen.encode(pair[0]), frozen.encode(pair[1]))

        def gap():
            return sim(dup) - sim(neg)

        before = gap()
        assert frozen.memo_stats()["rows"] == 3
        frozen.train_on_pairs([(*dup, 1), (*neg, 0)] * 16, epochs=8, batch_size=8)
        assert gap() > before

    def test_clone_of_a_frozen_encoder_is_unfrozen_and_shares_no_memo(self, frozen):
        frozen.encode(TEXTS)
        clone = frozen.clone()
        assert not _is_frozen(clone) and clone.memo_stats() == ZERO_STATS
        clone.W1[:] = 0.0  # writable, and not the original's storage
        assert _is_frozen(frozen) and frozen.memo_stats()["rows"] == len(TEXTS)
        clone.freeze()
        clone.encode(TEXTS[:2])
        assert frozen.memo_stats()["rows"] == len(TEXTS)


class TestNonFiniteParametersRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_rejected_before_any_array_is_replaced(self, frozen, bad, which):
        frozen.encode(TEXTS)
        before = frozen.get_parameters()
        params = make_tiny_encoder(seed=9).get_parameters()
        params[which].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            frozen.set_parameters(params)
        with pytest.raises(ValueError, match="non-finite"):
            frozen.load_state_dict(dict(zip(SiameseEncoder.PARAM_NAMES, params)))
        assert all(np.array_equal(a, b) for a, b in zip(before, frozen.get_parameters()))
        assert _is_frozen(frozen) and frozen.memo_stats()["rows"] == len(TEXTS)

    def test_one_bad_aggregate_no_longer_turns_the_cache_off(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig())
        params = tiny_encoder.get_parameters()
        params[0][0, 0] = np.nan
        with pytest.raises(ValueError):
            tiny_encoder.set_parameters(params)
        cache.insert(TEXTS[0], "response")
        assert cache.lookup(TEXTS[0]).hit


# --------------------------------------------------------------------------- #
# CacheServer is the only thing that freezes
# --------------------------------------------------------------------------- #
def _server(encoder, **config):
    return CacheServer(
        lambda uid: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8)),
        service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
        config=ServerConfig(**config),
        encoder=encoder,
    )


def _trace():
    return WorkloadGenerator(
        WorkloadConfig(n_users=4, queries_per_user=12, duplicate_rate=0.5, followup_rate=0.4),
        seed=3,
    ).generate()


class TestServerFreezes:
    def test_frozen_while_serving_and_thawed_after_stop(self):
        encoder = make_tiny_encoder()
        server = _server(encoder)
        assert not _is_frozen(encoder)  # constructing a server freezes nothing
        server.start()
        try:
            assert _is_frozen(encoder)
            first = server.submit_threadsafe("u", TEXTS[0]).result(timeout=10)
            follow = server.submit_threadsafe("u", TEXTS[1], context=(TEXTS[0],)).result(timeout=10)
            assert not first.hit and follow.response is not None
            live = encoder.memo_stats()
            assert live["misses"] == 2 and live["hits"] >= 1  # the context turn was a read
        finally:
            server.stop()
        assert not _is_frozen(encoder) and encoder.memo_stats() == ZERO_STATS
        report = server.metrics.to_dict()
        assert report["encoder_memo_misses"] == 2
        assert report["encoder_memo_hits"] == live["hits"]
        assert report["encoder_memo_rows"] == 2
        assert report["encoder_memo_bytes"] == 2 * 64 * 8
        assert report["encoder_memo_evictions"] == 0

    def test_serve_and_shutdown_inside_a_loop(self):
        encoder = make_tiny_encoder()
        server = _server(encoder)

        async def main():
            await server.serve()
            assert _is_frozen(encoder)
            await server.submit("u", TEXTS[0])
            await server.shutdown()

        asyncio.run(main())
        assert not _is_frozen(encoder)
        assert server.metrics.to_dict()["encoder_memo_misses"] == 1

    def test_replay_freezes_for_its_duration_only(self):
        encoder = make_tiny_encoder()
        server = _server(encoder, deterministic=True)
        trace = _trace()
        result = server.replay(trace, collect_outcomes=True)
        assert len(result.outcomes) == len(trace)
        assert not _is_frozen(encoder) and encoder.memo_stats() == ZERO_STATS
        report = server.metrics.to_dict()
        assert report["encoder_memo_hits"] > 0
        assert report["encoder_memo_misses"] <= len({e.query for e in trace.events})
        # A second replay adds to the counters; rows/bytes are the last thaw's.
        server.replay(trace)
        again = server.metrics.to_dict()
        assert again["encoder_memo_misses"] == 2 * report["encoder_memo_misses"]
        assert again["encoder_memo_rows"] == report["encoder_memo_rows"]

    def test_thawed_when_a_flush_raised(self):
        encoder = make_tiny_encoder()
        server = _server(encoder, deterministic=True)

        def boom(events, embeddings=None):
            raise RuntimeError("flush failed")

        for shard in server._shards:
            shard.executor.execute = boom
        with pytest.raises(RuntimeError, match="flush failed"):
            server.replay(_trace())
        assert not _is_frozen(encoder) and encoder.memo_stats() == ZERO_STATS

        live = _server(encoder)
        for shard in live._shards:
            shard.executor.execute = boom
        live.start()
        try:
            with pytest.raises(RuntimeError, match="flush failed"):
                live.submit_threadsafe("u", TEXTS[0]).result(timeout=10)
            assert _is_frozen(encoder)  # a failed flush fails its batch, not the server
        finally:
            live.stop()
        assert not _is_frozen(encoder) and encoder.memo_stats() == ZERO_STATS

    def test_server_without_an_encoder_reports_zeros(self):
        encoder = make_tiny_encoder()
        server = CacheServer(
            lambda uid: MeanCache(encoder, MeanCacheConfig()),
            config=ServerConfig(deterministic=True),
        )
        server.replay(_trace())
        assert not _is_frozen(encoder)
        assert server.metrics.to_dict()["encoder_memo_misses"] == 0


# --------------------------------------------------------------------------- #
# Threads
# --------------------------------------------------------------------------- #
def test_threads_hammering_one_frozen_encoder_get_the_right_rows(monkeypatch):
    """Overlapping texts, a memo small enough to evict constantly, and a short
    switch interval: no call raises and every row is the text's own."""
    monkeypatch.setattr(model_module, "MEMO_ROWS", 16)
    encoder = make_tiny_encoder()
    texts = [f"question number {i} about topic {i % 7}" for i in range(48)]
    expected = dict(zip(texts, make_tiny_encoder().encode(texts)))
    encoder.freeze()
    errors = []

    def hammer(worker: int) -> None:
        rng = np.random.default_rng(worker)
        try:
            for _ in range(300):
                batch = [texts[i] for i in rng.integers(0, len(texts), size=rng.integers(1, 6))]
                rows = encoder.encode(batch)
                for text, row in zip(batch, rows):
                    if not np.allclose(row, expected[text], rtol=0, atol=1e-12):
                        raise AssertionError(f"wrong row for {text!r}")
                encoder.memo_stats()
        except BaseException as exc:  # surfaced on the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
    stats = encoder.memo_stats()
    assert stats["rows"] <= 16 and stats["evictions"] > 0
    assert stats["hits"] + stats["misses"] > 0
