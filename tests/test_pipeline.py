"""Unit tests for the shared lookup pipeline (repro.core.pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.gptcache import GPTCache, GPTCacheConfig
from repro.baselines.keyword_cache import KeywordCache
from repro.core.cache import CacheDecision, MeanCache, MeanCacheConfig
from repro.core.context import ContextChain
from repro.core.pipeline import (
    AlwaysAdmit,
    CapacityEnroll,
    ChainContextVerify,
    DecideStage,
    EmbedStage,
    EncoderEmbed,
    ExactKeyRetrieve,
    IndexRetrieve,
    KeyEmbed,
    LookupPipeline,
    NoContextVerify,
    Probe,
    Selection,
    SimilarityThreshold,
    UnboundedEnroll,
)
from repro.core.tiered import TieredCache
from repro.embeddings.zoo import load_encoder
from repro.index import FlatIndex, IndexHit


class _VectorEmbed(EmbedStage):
    """Maps known query strings to fixed unit vectors (test double)."""

    def __init__(self, table):
        self.table = table
        self.calls = 0

    def encode_batch(self, queries):
        self.calls += 1
        return np.atleast_2d(np.array([self.table[q] for q in queries], dtype=np.float64))


class _SelectionDecide(DecideStage):
    """Returns the raw Selection (lets tests inspect stage outcomes)."""

    def decide(self, selection: Selection) -> Selection:
        return selection


def _unit(*coords):
    v = np.array(coords, dtype=np.float64)
    return v / np.linalg.norm(v)


@pytest.fixture()
def toy_pipeline():
    """A 2-entry vector pipeline with an adjustable threshold."""
    index = FlatIndex()
    index.add(_unit(1.0, 0.0), id=10)
    index.add(_unit(0.6, 0.8), id=11)
    embed = _VectorEmbed(
        {
            "east": _unit(1.0, 0.0),
            "northeast": _unit(0.8, 0.6),
            "north": _unit(0.0, 1.0),
        }
    )
    state = {"tau": 0.9}
    pipeline = LookupPipeline(
        embed=embed,
        retrieve=IndexRetrieve(index, top_k=2),
        threshold=SimilarityThreshold(lambda: state["tau"]),
        context_verify=NoContextVerify(),
        decide=_SelectionDecide(),
    )
    return pipeline, state, embed, index


class TestLookupPipeline:
    def test_batched_run_one_embed_call(self, toy_pipeline):
        pipeline, _, embed, _ = toy_pipeline
        selections = pipeline.run([Probe.make("east"), Probe.make("north")])
        assert embed.calls == 1
        assert [s.hit for s in selections] == [True, False]
        assert selections[0].best.id == 10
        assert selections[0].best.score == pytest.approx(1.0)

    def test_candidates_ranked_and_first_survivor_wins(self, toy_pipeline):
        pipeline, state, _, _ = toy_pipeline
        state["tau"] = 0.5
        (sel,) = pipeline.run([Probe.make("northeast")])
        # Both entries clear τ=0.5; the better-ranked one must win.
        assert len(sel.hits) == 2
        assert sel.best.id == 11
        assert sel.hits[0].score >= sel.hits[1].score

    def test_live_threshold_readback(self, toy_pipeline):
        pipeline, state, _, _ = toy_pipeline
        # cos(northeast, entry11) = 0.8*0.6 + 0.6*0.8 = 0.96
        state["tau"] = 0.99
        (sel99,) = pipeline.run([Probe.make("northeast")])
        assert not sel99.hit
        state["tau"] = 0.5
        (sel50,) = pipeline.run([Probe.make("northeast")])
        assert sel50.hit

    def test_empty_retrieve_skips_search(self, toy_pipeline):
        pipeline, _, _, _ = toy_pipeline
        empty = LookupPipeline(
            embed=pipeline.embed,
            retrieve=IndexRetrieve(FlatIndex(), top_k=2),
            threshold=pipeline.threshold,
            context_verify=pipeline.context_verify,
            decide=pipeline.decide,
        )
        (sel,) = empty.run([Probe.make("east")])
        assert not sel.hit
        assert sel.hits == []
        assert sel.search_time_s == 0.0

    def test_run_one_matches_run(self, toy_pipeline):
        pipeline, _, _, _ = toy_pipeline
        single = pipeline.run_one("east")
        (batched,) = pipeline.run([Probe.make("east")])
        assert single.hit == batched.hit
        assert single.best.id == batched.best.id

    def test_empty_batch(self, toy_pipeline):
        pipeline, _, _, _ = toy_pipeline
        assert pipeline.run([]) == []

    def test_stage_names(self, toy_pipeline):
        pipeline, _, _, _ = toy_pipeline
        names = pipeline.stage_names()
        assert names["retrieve"] == "IndexRetrieve"
        assert names["threshold"] == "SimilarityThreshold"
        assert names["enroll"] == "None"


class TestContextVerifyLaziness:
    def _pipeline(self, verifier):
        index = FlatIndex()
        index.add(_unit(1.0, 0.0), id=0)
        embed = _VectorEmbed({"east": _unit(1.0, 0.0), "north": _unit(0.0, 1.0)})
        return LookupPipeline(
            embed=embed,
            retrieve=IndexRetrieve(index, top_k=1),
            threshold=SimilarityThreshold(0.9),
            context_verify=verifier,
            decide=_SelectionDecide(),
        )

    def test_probe_context_embedded_only_on_candidate(self):
        calls = []

        def embed_context(texts):
            calls.append(tuple(texts))
            return ContextChain.empty()

        verifier = ChainContextVerify(
            embed_context=embed_context,
            entry_context=lambda _id: ContextChain.empty(),
            threshold=0.7,
        )
        pipeline = self._pipeline(verifier)
        (miss,) = pipeline.run([Probe.make("north", ("parent",))])
        assert not miss.hit
        assert calls == []  # no candidate cleared τ → context never embedded
        (hit,) = pipeline.run([Probe.make("east", ("parent",))])
        assert hit.hit and hit.context_checked
        assert calls == [("parent",)]  # embedded exactly once

    def test_context_mismatch_rejects_candidate(self):
        verifier = ChainContextVerify(
            embed_context=lambda texts: ContextChain(texts=tuple(texts)),
            # Cached entry is contextual; a standalone probe must not match.
            entry_context=lambda _id: ContextChain(texts=("some parent",)),
            threshold=0.7,
        )
        pipeline = self._pipeline(verifier)
        (sel,) = pipeline.run([Probe.make("east")])
        assert not sel.hit
        assert sel.context_checked


class TestExactKeyStages:
    def test_key_embed_and_exact_retrieve(self):
        embed = KeyEmbed(str.lower)
        retrieve = ExactKeyRetrieve({"hello": 3})
        keys = embed.encode_batch(["HeLLo", "missing"])
        assert keys == ["hello", "missing"]
        hits = retrieve.retrieve_batch(keys)
        assert hits[0] == [IndexHit(id=3, score=1.0)]
        assert hits[1] == []
        assert not retrieve.is_empty()
        assert ExactKeyRetrieve({}).is_empty()
        assert AlwaysAdmit().admit(IndexHit(id=0, score=-1.0))


class TestEnrollStages:
    def test_capacity_enroll_evicts_until_room(self):
        state = {"size": 5, "evicted": 0}

        def evict():
            state["size"] -= 1
            state["evicted"] += 1

        enroll = CapacityEnroll(
            size=lambda: state["size"],
            max_entries=3,
            evict_one=evict,
            insert=lambda q, r, context=(), embedding=None: None,
        )
        assert enroll.ensure_capacity() == 3  # 5 -> 2 (< 3 leaves room for one)
        assert state["evicted"] == 3

    def test_unbounded_enroll_never_evicts(self):
        inserted = []
        enroll = UnboundedEnroll(
            insert=lambda q, r, embedding=None: inserted.append((q, r))
        )
        assert enroll.ensure_capacity() == 0
        enroll.enroll("q", "r", context=("ignored",))
        assert inserted == [("q", "r")]


class TestCacheWiring:
    """Each variant is a stage substitution on the one pipeline."""

    def test_meancache_stages(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(verify_context=True))
        names = cache.pipeline.stage_names()
        assert names["embed"] == "EncoderEmbed"
        assert names["retrieve"] == "IndexRetrieve"
        assert names["threshold"] == "SimilarityThreshold"
        assert names["context_verify"] == "ChainContextVerify"
        assert names["enroll"] == "CapacityEnroll"

    def test_meancache_ablation_disables_context_stage(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(verify_context=False))
        assert not cache.pipeline.context_verify.enabled

    def test_verify_context_read_live_from_config(self, tiny_encoder):
        """Replacing cache.config wholesale must retoggle the stage."""
        cache = MeanCache(tiny_encoder, MeanCacheConfig(verify_context=True))
        assert cache.pipeline.context_verify.enabled
        cache.config = MeanCacheConfig(verify_context=False)
        assert not cache.pipeline.context_verify.enabled
        # And the decision path follows: a contextual entry matches a
        # standalone probe once verification is off.
        cache.config = MeanCacheConfig(verify_context=True, similarity_threshold=0.3)
        cache.insert("how can i sort a list in python", "r", context=["earlier turn"])
        assert not cache.lookup("how can i sort a list in python").hit
        cache.config = MeanCacheConfig(verify_context=False, similarity_threshold=0.3)
        assert cache.lookup("how can i sort a list in python").hit

    def test_gptcache_stages(self, tiny_encoder):
        cache = GPTCache(tiny_encoder, GPTCacheConfig())
        names = cache.pipeline.stage_names()
        assert names["embed"] == "EncoderEmbed"
        assert names["context_verify"] == "NoContextVerify"
        assert names["enroll"] == "UnboundedEnroll"

    def test_keyword_cache_swaps_retrieve(self):
        cache = KeywordCache()
        names = cache.pipeline.stage_names()
        assert names["embed"] == "KeyEmbed"
        assert names["retrieve"] == "ExactKeyRetrieve"
        assert names["threshold"] == "AlwaysAdmit"

    def test_set_threshold_is_live(self, tiny_encoder):
        cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.999999))
        cache.insert("how can i sort a list in python", "use sorted()")
        assert not cache.lookup("what is the best way to order a python list").hit
        cache.set_threshold(0.2)
        assert cache.lookup("what is the best way to order a python list").hit

    def test_lookup_and_batch_agree_across_variants(self, tiny_encoder):
        queries = ["how can i sort a list in python", "plan a trip to japan"]
        probes = [
            "what is the best way to order a python list",
            "how do i reverse a string in python",
        ]
        mc_a = MeanCache(tiny_encoder.clone(), MeanCacheConfig(similarity_threshold=0.6))
        mc_b = MeanCache(tiny_encoder.clone(), MeanCacheConfig(similarity_threshold=0.6))
        mc_a.populate(queries)
        mc_b.populate(queries)
        sequential = [mc_a.lookup(p) for p in probes]
        batched = mc_b.lookup_batch(probes)
        for s, b in zip(sequential, batched):
            assert s.hit == b.hit
            assert s.entry_id == b.entry_id
            assert s.similarity == pytest.approx(b.similarity)

        kw_a, kw_b = KeywordCache(), KeywordCache()
        kw_a.populate(queries)
        kw_b.populate(queries)
        for s, b in zip([kw_a.lookup(p) for p in probes], kw_b.lookup_batch(probes)):
            assert (s.hit, s.response) == (b.hit, b.response)

    @pytest.mark.parametrize("variant", ["meancache", "gptcache", "keyword", "tiered"])
    def test_every_variant_returns_cache_decision(self, tiny_encoder, variant):
        """The one lookup result type: what the serving layer reads off a
        decision is populated by every cache, single and batched."""
        cache = {
            "meancache": lambda: MeanCache(tiny_encoder, MeanCacheConfig()),
            "gptcache": lambda: GPTCache(tiny_encoder, GPTCacheConfig()),
            "keyword": lambda: KeywordCache(),
            "tiered": lambda: TieredCache(tiny_encoder, MeanCacheConfig()),
        }[variant]()
        enrolled, fresh = "how can i sort a list in python", "plan a trip to japan"
        cache.insert(enrolled, "use sorted()")
        single = [cache.lookup(enrolled), cache.lookup(fresh)]
        batched = cache.lookup_batch([enrolled, fresh])
        for hit, miss in (single, batched):
            assert isinstance(hit, CacheDecision) and isinstance(miss, CacheDecision)
            assert hit.hit is True and hit.response == "use sorted()"
            assert hit.similarity == pytest.approx(1.0)
            assert miss.hit is False and miss.response is None
            assert miss.similarity < hit.similarity
            for decision in (hit, miss):
                assert decision.total_overhead_s >= 0.0
                assert decision.total_overhead_s == pytest.approx(
                    decision.embed_time_s
                    + decision.search_time_s
                    + decision.network_time_s
                )
            # Only the remote (central) variant pays a network round trip,
            # on hits and misses alike.
            rtt = GPTCacheConfig().network_rtt_s if variant == "gptcache" else 0.0
            assert hit.network_time_s == miss.network_time_s == rtt
