"""Tests for MeanCache (Algorithm 1), compression and the client session."""

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.baselines.gptcache import GPTCache, GPTCacheConfig
from repro.baselines.keyword_cache import KeywordCache, KeywordCacheConfig
from repro.core.cache import CacheDecision, MeanCache, MeanCacheConfig
from repro.core.client import ClientStats, MeanCacheClient
from repro.core.compression import compress_cache
from repro.core.storage import InMemoryStore
from repro.llm.service import SimulatedLLMService
from repro.serving.fleet import FleetSimulator
from repro.serving.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture()
def trained_encoder():
    """A tiny encoder fine-tuned just enough to separate the test phrases."""
    enc = make_tiny_encoder(seed=2)
    pairs = [
        ("How can I sort a list in python?", "What is the best way to order a python list?", 1),
        ("How can I sort a list in python?", "How can I reverse a list in python?", 0),
        ("Tips for how to bake chocolate chip cookies", "How do I make cookies with chocolate chips?", 1),
        ("Tips for how to bake chocolate chip cookies", "How do I plan a trip to japan?", 0),
        ("How do I extend the battery life of my smartphone?", "Tips for improving my phone's battery duration", 1),
        ("How do I extend the battery life of my smartphone?", "How do I reset my wifi router?", 0),
    ] * 8
    enc.train_on_pairs(pairs, epochs=6, batch_size=8)
    return enc


class TestMeanCacheBasics:
    def test_empty_cache_misses(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        decision = cache.lookup("anything at all")
        assert not decision.hit and decision.response is None
        assert cache.stats.lookups == 1 and cache.stats.misses == 1

    def test_insert_then_exact_hit(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.9))
        cache.insert("How can I sort a list in python?", "use sorted()")
        decision = cache.lookup("How can I sort a list in python?")
        assert decision.hit and decision.response == "use sorted()"
        assert decision.similarity == pytest.approx(1.0, abs=1e-6)

    def test_paraphrase_hit_unrelated_miss(self, trained_encoder):
        cache = MeanCache(trained_encoder, MeanCacheConfig(similarity_threshold=0.8))
        cache.insert("How can I sort a list in python?", "use sorted()")
        dup = cache.lookup("What is the best way to order a python list?")
        other = cache.lookup("How do I plan a trip to japan?")
        assert dup.hit
        assert not other.hit

    def test_empty_query_rejected(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        with pytest.raises(ValueError):
            cache.lookup("  ")
        with pytest.raises(ValueError):
            cache.insert("", "resp")

    def test_populate_and_len(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        ids = cache.populate(["q one", "q two", "q three"])
        assert len(cache) == 3 and len(ids) == 3

    def test_remove_entry(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.95))
        eid = cache.insert("sort a python list", "resp")
        cache.remove(eid)
        assert len(cache) == 0
        assert not cache.lookup("sort a python list").hit
        with pytest.raises(KeyError):
            cache.remove(eid)

    def test_clear(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        cache.populate(["a b c", "d e f"])
        cache.clear()
        assert len(cache) == 0

    def test_hit_updates_stats_and_entry(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.9))
        eid = cache.insert("sort a python list", "resp")
        cache.lookup("sort a python list")
        entry = cache.entries[0]
        assert entry.hit_count == 1
        assert cache.stats.hit_rate == pytest.approx(1.0)

    def test_persistent_store_receives_entries(self, tiny_encoder):
        store = InMemoryStore()
        cache = MeanCache(tiny_encoder, store=store)
        eid = cache.insert("sort a python list", "resp")
        assert f"entry:{eid}" in store
        cache.remove(eid)
        assert f"entry:{eid}" not in store

    def test_config_validation(self, tiny_encoder):
        with pytest.raises(ValueError):
            MeanCacheConfig(similarity_threshold=1.5)
        with pytest.raises(ValueError):
            MeanCacheConfig(top_k=0)
        with pytest.raises(ValueError):
            MeanCache(tiny_encoder, MeanCacheConfig(compressed=True))

    def test_set_threshold(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        cache.set_threshold(0.91)
        assert cache.config.similarity_threshold == 0.91
        with pytest.raises(ValueError):
            cache.set_threshold(2.0)


class TestEviction:
    def test_capacity_enforced_with_lru(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(max_entries=3, eviction_policy="lru"))
        for i in range(5):
            cache.insert(f"query number {i} about topic {i}", f"r{i}")
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        remaining = {e.query for e in cache.entries}
        assert "query number 0 about topic 0" not in remaining

    def test_lru_keeps_recently_accessed(self, tiny_encoder):
        cache = MeanCache(
            tiny_encoder,
            MeanCacheConfig(max_entries=2, eviction_policy="lru", similarity_threshold=0.99),
        )
        cache.insert("alpha bravo charlie", "r0")
        cache.insert("delta echo foxtrot", "r1")
        cache.lookup("alpha bravo charlie")  # touch entry 0
        cache.insert("golf hotel india", "r2")  # evicts entry 1
        remaining = {e.query for e in cache.entries}
        assert "alpha bravo charlie" in remaining
        assert "delta echo foxtrot" not in remaining


    def test_non_finite_embedding_rejected_before_eviction(self, tiny_encoder):
        """A poisoned embedding at capacity costs nothing: no victim is
        evicted for it and no entry, index row, policy slot or counter moves."""
        from dataclasses import asdict

        cache = MeanCache(tiny_encoder, MeanCacheConfig(max_entries=3))
        for i in range(3):
            cache.insert(f"query number {i} about topic {i}", f"r{i}")
        bad = np.asarray(cache.entries[0].embedding).copy()
        bad[3] = np.nan
        before = (
            [e.entry_id for e in cache.entries],
            cache.index.ids,
            cache._policy.state_dict(),
            asdict(cache.stats),
        )
        with pytest.raises(ValueError, match="finite"):
            cache.insert("poisoned entry", "r", embedding=bad)
        assert before == (
            [e.entry_id for e in cache.entries],
            cache.index.ids,
            cache._policy.state_dict(),
            asdict(cache.stats),
        )
        # The id the rejected insert would have taken is still the next one.
        assert cache.insert("a healthy entry", "r") == 3

    @staticmethod
    def _enrol_state(cache):
        from dataclasses import asdict

        return (
            [e.entry_id for e in cache.entries],
            cache.index.ids,
            cache._policy.state_dict(),
            asdict(cache.stats),
        )

    def test_overflowing_embedding_rejected_before_eviction(self, tiny_encoder):
        """Finite components, infinite norm: the index refuses such a row, so
        the cache must refuse it while its victim is still in place."""
        cache = MeanCache(tiny_encoder, MeanCacheConfig(max_entries=2))
        cache.insert("alpha bravo charlie", "r0")
        cache.insert("delta echo foxtrot", "r1")
        huge = np.full(cache.embedding_dim, 1e200)
        assert np.isfinite(huge).all()
        before = self._enrol_state(cache)
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            cache.insert("golf hotel india", "r2", embedding=huge)
        assert self._enrol_state(cache) == before

    def test_failed_context_embed_costs_no_victim(self, tiny_encoder, monkeypatch):
        """An encoder failure while embedding the context chain enrols nothing
        and therefore evicts nothing (the chain is built before the capacity
        loop runs)."""
        cache = MeanCache(tiny_encoder, MeanCacheConfig(max_entries=2))
        cache.insert("alpha bravo charlie", "r0")
        cache.insert("delta echo foxtrot", "r1")
        embedding, _ = cache.embed("golf hotel india")
        before = self._enrol_state(cache)

        def encoder_down(*args, **kwargs):
            raise RuntimeError("encoder down")

        monkeypatch.setattr(tiny_encoder, "encode", encoder_down)
        with pytest.raises(RuntimeError, match="encoder down"):
            cache.insert("golf hotel india", "r2", context=["a parent turn"], embedding=embedding)
        assert self._enrol_state(cache) == before
        monkeypatch.undo()
        assert cache.insert("golf hotel india", "r2", context=["a parent turn"]) == 2
        assert len(cache) == 2 and cache.stats.evictions == 1


class TestContextHandling:
    def test_contextual_trap_misses_with_verification(self, trained_encoder):
        config = MeanCacheConfig(similarity_threshold=0.8, verify_context=True, context_threshold=0.6)
        cache = MeanCache(trained_encoder, config)
        parent = "How can I sort a list in python?"
        cache.insert(parent, "use sorted()")
        cache.insert("Change the color to red", "set color='red'", context=[parent])
        # Same follow-up text but under a different conversation -> must miss.
        trap = cache.lookup(
            "Change the color to red",
            context=["Tips for how to bake chocolate chip cookies"],
        )
        assert not trap.hit
        # Same follow-up under a paraphrased matching context -> should hit.
        good = cache.lookup(
            "Change the color to red",
            context=["What is the best way to order a python list?"],
        )
        assert good.hit

    def test_without_verification_trap_hits(self, trained_encoder):
        config = MeanCacheConfig(similarity_threshold=0.8, verify_context=False)
        cache = MeanCache(trained_encoder, config)
        parent = "How can I sort a list in python?"
        cache.insert("Change the color to red", "set color='red'", context=[parent])
        trap = cache.lookup(
            "Change the color to red",
            context=["Tips for how to bake chocolate chip cookies"],
        )
        assert trap.hit

    def test_standalone_probe_does_not_hit_contextual_entry(self, trained_encoder):
        config = MeanCacheConfig(similarity_threshold=0.8, verify_context=True)
        cache = MeanCache(trained_encoder, config)
        cache.insert("Change the color to red", "resp", context=["How can I sort a list in python?"])
        assert not cache.lookup("Change the color to red").hit


class TestCompression:
    def _populated_cache(self, encoder, n=40):
        cache = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8))
        cache.populate([f"question number {i} about subject {i % 11}" for i in range(n)])
        return cache

    def test_compress_reduces_storage_and_dim(self, tiny_encoder):
        cache = self._populated_cache(tiny_encoder)
        before = cache.embedding_storage_bytes()
        report = compress_cache(cache, n_components=8)
        assert cache.embedding_dim == 8
        assert cache.embedding_storage_bytes() < before
        assert report.embedding_saving_fraction > 0.8
        assert report.compressed_dim == 8 and report.original_dim == tiny_encoder.config.output_dim

    def test_compressed_cache_still_hits_duplicates(self, trained_encoder):
        cache = MeanCache(trained_encoder, MeanCacheConfig(similarity_threshold=0.75))
        cache.populate(
            ["How can I sort a list in python?"]
            + [f"unrelated filler question number {i} about area {i}" for i in range(30)]
        )
        compress_cache(cache, n_components=8)
        decision = cache.lookup("What is the best way to order a python list?")
        assert decision.hit
        assert decision.matched_query == "How can I sort a list in python?"

    def test_double_compression_rejected(self, tiny_encoder):
        cache = self._populated_cache(tiny_encoder)
        compress_cache(cache, n_components=8)
        with pytest.raises(ValueError):
            compress_cache(cache, n_components=8)

    def test_too_few_entries_rejected(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        cache.insert("only one entry", "r")
        with pytest.raises(ValueError):
            compress_cache(cache, n_components=8)

    def test_components_exceeding_dim_rejected(self, tiny_encoder):
        cache = self._populated_cache(tiny_encoder)
        with pytest.raises(ValueError):
            compress_cache(cache, n_components=tiny_encoder.config.output_dim + 1)


class TestBaselines:
    def test_gptcache_fixed_threshold_hit_and_miss(self, trained_encoder):
        gpt = GPTCache(trained_encoder, GPTCacheConfig(similarity_threshold=0.8))
        gpt.insert("How can I sort a list in python?", "use sorted()", user_id="alice")
        hit = gpt.lookup("What is the best way to order a python list?")
        miss = gpt.lookup("How do I plan a trip to japan?")
        assert hit.hit and not miss.hit
        assert hit.network_time_s > 0  # central cache always pays the round trip

    def test_gptcache_is_context_oblivious(self, trained_encoder):
        gpt = GPTCache(trained_encoder, GPTCacheConfig(similarity_threshold=0.8))
        gpt.insert("Change the color to red", "resp")
        trap = gpt.lookup("Change the color to red", context=["totally different conversation"])
        assert trap.hit

    def test_gptcache_central_storage_tracks_users(self, tiny_encoder):
        gpt = GPTCache(tiny_encoder)
        gpt.insert("q1 from alice", "r", user_id="alice")
        gpt.insert("q2 from bob", "r", user_id="bob")
        assert gpt.users() == ["alice", "bob"]
        assert gpt.total_storage_bytes() > 0

    def test_gptcache_validation(self, tiny_encoder):
        with pytest.raises(ValueError):
            GPTCacheConfig(similarity_threshold=-0.1)
        with pytest.raises(ValueError):
            GPTCache(tiny_encoder).lookup("")

    def test_keyword_cache_exact_match_only(self):
        kc = KeywordCache()
        kc.insert("How can I sort a list in Python?", "use sorted()")
        assert kc.lookup("how can i sort a list in python").response == "use sorted()"
        # A paraphrase is a miss for the keyword cache (the paper's motivation).
        assert not kc.lookup("What is the best way to order a python list?").hit

    def test_keyword_cache_eviction(self):
        kc = KeywordCache(KeywordCacheConfig(max_entries=2))
        kc.insert("query one alpha", "1")
        kc.insert("query two beta", "2")
        kc.insert("query three gamma", "3")
        assert len(kc) == 2

    def test_keyword_cache_sorted_tokens_mode(self):
        kc = KeywordCache(KeywordCacheConfig(sort_tokens=True))
        kc.insert("python list sort", "r")
        assert kc.lookup("sort python list").response == "r"

    @pytest.mark.parametrize("variant", ["shared_gptcache", "keyword"])
    def test_baseline_fleet_storage_report_hit_rate(self, tiny_encoder, variant):
        """storage_report reads the baselines' counters (it reported 0.0)."""
        central = GPTCache(tiny_encoder, GPTCacheConfig())
        factories = {
            "shared_gptcache": lambda user_id: central,
            "keyword": lambda user_id: KeywordCache(),
        }
        trace = WorkloadGenerator(
            WorkloadConfig(n_users=4, queries_per_user=12, duplicate_rate=0.5),
            seed=3,
        ).generate()
        sim = FleetSimulator(factories[variant])
        result = sim.run(trace)
        assert result.hit_rate > 0
        assert sim.storage_report()["hit_rate"] == result.hit_rate


class TestMeanCacheClient:
    def test_miss_then_hit_roundtrip(self, trained_encoder):
        cache = MeanCache(trained_encoder, MeanCacheConfig(similarity_threshold=0.8))
        client = MeanCacheClient(cache, SimulatedLLMService(), client_id="u1")
        first = client.query("How can I sort a list in python?")
        assert not first.from_cache and first.llm_latency_s > 0
        second = client.query("What is the best way to order a python list?")
        assert second.from_cache
        assert second.llm_latency_s == 0.0
        assert second.total_latency_s < first.total_latency_s
        assert client.hit_rate == pytest.approx(0.5)
        assert client.total_cost_usd > 0

    def test_followup_carries_context(self, trained_encoder):
        cache = MeanCache(trained_encoder, MeanCacheConfig(similarity_threshold=0.8))
        client = MeanCacheClient(cache, SimulatedLLMService())
        client.query("How can I sort a list in python?")
        followup = client.query("Change the color to red", is_followup=True)
        assert not followup.from_cache
        # The follow-up must have been stored with a context chain.
        contextual_entries = [e for e in cache.entries if not e.context.is_empty]
        assert len(contextual_entries) == 1

    def test_enroll_on_miss_can_be_disabled(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        client = MeanCacheClient(cache, SimulatedLLMService())
        client.query("some query", enroll_on_miss=False)
        assert len(cache) == 0

    def test_new_conversation_resets_context(self, tiny_encoder):
        cache = MeanCache(tiny_encoder)
        client = MeanCacheClient(cache, SimulatedLLMService())
        client.query("first question about python")
        client.new_conversation()
        assert client.conversation.turns == []

    def test_query_many_batched_accounting(self, trained_encoder):
        cache = MeanCache(trained_encoder, MeanCacheConfig(similarity_threshold=0.8))
        client = MeanCacheClient(cache, SimulatedLLMService(), client_id="batch-user")
        cache.populate(["How can I sort a list in python?"])
        results = client.query_many(
            [
                "What is the best way to order a python list?",
                "How do I plan a trip to japan?",
            ]
        )
        assert [r.from_cache for r in results] == [True, False]
        assert results[0].cost_usd == 0.0 and results[0].llm_latency_s == 0.0
        assert results[1].cost_usd > 0 and results[1].llm_latency_s > 0
        # Per-result accounting feeds the same aggregate properties as query().
        assert client.stats == ClientStats(
            n_queries=2,
            n_hits=1,
            total_cost_usd=results[0].cost_usd + results[1].cost_usd,
            total_latency_s=results[0].total_latency_s + results[1].total_latency_s,
        )
        assert client.hit_rate == pytest.approx(0.5)
        assert client.total_cost_usd == pytest.approx(results[1].cost_usd)
        # The miss was enrolled.
        assert len(cache) == 2

    def test_query_many_matches_sequential_decisions(self, trained_encoder):
        probes = [
            "What is the best way to order a python list?",
            "How do I plan a trip to japan?",
            "how can I reverse a string in python",
        ]
        cache_a = MeanCache(trained_encoder.clone(), MeanCacheConfig(similarity_threshold=0.8))
        cache_b = MeanCache(trained_encoder.clone(), MeanCacheConfig(similarity_threshold=0.8))
        for cache in (cache_a, cache_b):
            cache.populate(["How can I sort a list in python?"])
        client_a = MeanCacheClient(cache_a, SimulatedLLMService())
        client_b = MeanCacheClient(cache_b, SimulatedLLMService())
        sequential = [client_a.query(p, enroll_on_miss=False) for p in probes]
        batched = client_b.query_many(probes, enroll_on_miss=False)
        assert [r.from_cache for r in sequential] == [r.from_cache for r in batched]
        assert [r.response for r in sequential] == [r.response for r in batched]

    def test_query_many_context_alignment_validated(self, tiny_encoder):
        client = MeanCacheClient(MeanCache(tiny_encoder), SimulatedLLMService())
        with pytest.raises(ValueError):
            client.query_many(["a query"], contexts=[["ctx"], ["extra"]])
