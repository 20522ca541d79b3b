"""The lookup rule (repro.core.pipeline) and the caches that call it.

The first 23 ids predate PR 20, when the rule was a framework of stage
classes; each still asserts the behaviour its stage stood for, now through
the three functions or the caches' public API:

==================================================  ==========================================
id                                                  asserts
==================================================  ==========================================
test_batched_run_one_embed_call                     one ``encode`` call per batch; handed-in
                                                    rows cost 0 and must align
test_candidates_ranked_and_first_survivor_wins      first survivor in rank order wins; NaN never
test_live_threshold_readback                        τ read live (set_threshold, replaced config)
test_empty_retrieve_skips_search                    empty index not searched, search_time_s == 0
test_run_one_matches_run                            lookup ≡ lookup_batch of one
test_empty_batch                                    [] in, [] out, nothing counted or encoded
test_stage_names                                    the module's public names are the 3 functions
test_probe_context_embedded_only_on_candidate       chain embedded only once a candidate clears
                                                    τ, and once for two verified candidates
test_context_mismatch_rejects_candidate             contextual entry ≠ standalone probe
test_key_embed_and_exact_retrieve                   normalised exact key match, no pseudo-hit
test_capacity_enroll_evicts_until_room              enrolment evicts until one fits (live bound)
test_unbounded_enroll_never_evicts                  central enrolment never evicts, keeps user_id
test_meancache_stages                               MeanCache: context rule on + capacity bound
test_meancache_ablation_disables_context_stage      verify_context=False ignores chains
test_verify_context_read_live_from_config           replaced config retoggles the context rule
test_gptcache_stages                                GPTCache: context ignored + unbounded
test_keyword_cache_swaps_retrieve                   exact match at 1.0, paraphrase misses
test_set_threshold_is_live                          next probe admitted under the pushed τ
test_lookup_and_batch_agree_across_variants         sequential ≡ batched, MeanCache and keyword
test_every_variant_returns_cache_decision[×4]       one decision type, fields populated
==================================================  ==========================================
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gptcache import GPTCache, GPTCacheConfig
from repro.baselines.keyword_cache import KeywordCache, KeywordCacheConfig
from repro.core import pipeline
from repro.core.cache import CacheDecision, MeanCache, MeanCacheConfig
from repro.core.context import ContextChain
from repro.core.pipeline import embed_probes, first_admissible, search_candidates
from repro.core.tiered import QuantizedTier, TieredCache
from repro.index import FlatIndex, IndexHit


def _unit(*coords):
    v = np.array(coords, dtype=np.float64)
    return v / np.linalg.norm(v)


EAST, NORTHEAST, NORTH = _unit(1.0, 0.0), _unit(0.8, 0.6), _unit(0.0, 1.0)


class _TableEncoder:
    """Maps known texts to fixed unit vectors and records every encode call."""

    pca = None
    embedding_dim = 2

    def __init__(self, table=None):
        self.table = {"east": EAST, "northeast": NORTHEAST, "north": NORTH, **(table or {})}
        self.batches = []

    def encode(self, texts, compress=True):
        if isinstance(texts, str):
            return self.table[texts]
        self.batches.append(list(texts))
        return np.array([self.table[t] for t in texts], dtype=np.float64)


@pytest.fixture()
def toy_cache():
    """A 2-entry MeanCache (ids 0: east, 1: (0.6, 0.8)) at τ = 0.9, top-2."""
    encoder = _TableEncoder()
    cache = MeanCache(
        encoder, MeanCacheConfig(similarity_threshold=0.9, top_k=2)
    )
    cache.insert("east entry", "r-east", embedding=EAST)
    cache.insert("ne entry", "r-ne", embedding=_unit(0.6, 0.8))
    return cache, encoder


class TestLookupPipeline:
    def test_batched_run_one_embed_call(self, toy_cache):
        cache, encoder = toy_cache
        hit, miss = cache.lookup_batch(["east", "north"])
        assert encoder.batches == [["east", "north"]]  # one encode for the batch
        assert (hit.hit, miss.hit) == (True, False)
        assert hit.entry_id == 0
        assert hit.similarity == pytest.approx(1.0)
        matrix, per_probe_s = embed_probes(encoder, ["east", "north"], False)
        assert matrix.shape == (2, 2) and matrix.dtype == np.float64
        assert len(encoder.batches) == 2 and per_probe_s >= 0.0
        # Precomputed rows are taken as they are, at no cost and no encode.
        given_rows, cost = embed_probes(encoder, ["a", "b"], False, embeddings=matrix)
        assert np.array_equal(given_rows, matrix) and cost == 0.0
        assert len(encoder.batches) == 2
        with pytest.raises(ValueError, match="align"):
            embed_probes(encoder, ["a"], False, embeddings=matrix)

    def test_candidates_ranked_and_first_survivor_wins(self, toy_cache):
        cache, _ = toy_cache
        cache.set_threshold(0.5)
        decision = cache.lookup("northeast")
        # Both entries clear τ=0.5; the better-ranked one must win.
        assert len(decision.candidates) == 2
        assert decision.entry_id == 1
        assert decision.candidates[0].score >= decision.candidates[1].score
        ranked = [IndexHit(id=7, score=0.9), IndexHit(id=8, score=0.8)]
        assert first_admissible(ranked, 0.5) == (ranked[0], False)
        assert first_admissible(ranked, 0.5, lambda i: i != 7) == (ranked[1], True)
        assert first_admissible(ranked, 0.95) == (None, False)
        # A NaN score is not >= τ, whatever τ is: it never wins.
        assert first_admissible([IndexHit(id=1, score=float("nan"))], 0.0) == (None, False)

    def test_live_threshold_readback(self, toy_cache):
        cache, _ = toy_cache
        # cos(northeast, entry 1) = 0.8*0.6 + 0.6*0.8 = 0.96
        cache.set_threshold(0.99)
        assert not cache.lookup("northeast").hit
        cache.set_threshold(0.5)
        assert cache.lookup("northeast").hit
        cache.config = MeanCacheConfig(similarity_threshold=0.99, top_k=2)
        assert not cache.lookup("northeast").hit

    def test_empty_retrieve_skips_search(self):
        class Unsearchable(FlatIndex):
            def search(self, *args, **kwargs):
                raise AssertionError("an empty index must not be searched")

        hit_lists, per_probe_s = search_candidates(
            Unsearchable(), np.array([EAST, NORTH]), top_k=2
        )
        assert hit_lists == [[], []] and per_probe_s == 0.0
        cache = MeanCache(_TableEncoder(), index=Unsearchable())
        decision = cache.lookup("east")
        assert not decision.hit
        assert decision.candidates == []
        assert decision.search_time_s == 0.0

    def test_run_one_matches_run(self, toy_cache):
        cache, _ = toy_cache
        single = cache.lookup("east")
        (batched,) = cache.lookup_batch(["east"])
        for field in ("hit", "entry_id", "similarity", "candidates", "context_verified"):
            assert getattr(single, field) == getattr(batched, field)
        assert np.array_equal(single.embedding, batched.embedding)
        assert (cache.stats.lookups, cache.stats.hits) == (2, 2)

    def test_empty_batch(self, toy_cache):
        cache, encoder = toy_cache
        assert cache.lookup_batch([]) == []
        assert cache.stats.lookups == 0 and encoder.batches == []
        assert GPTCache(encoder).lookup_batch([]) == []
        assert KeywordCache().lookup_batch([]) == []

    def test_stage_names(self):
        """The module is the three functions: no class, no other public name."""
        public = {
            name
            for name, value in vars(pipeline).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == pipeline.__name__
        }
        assert public == set(pipeline.__all__) == {
            "embed_probes",
            "search_candidates",
            "first_admissible",
        }
        assert all(inspect.isfunction(getattr(pipeline, name)) for name in public)


class TestContextVerifyLaziness:
    def _contextual_cache(self, contexts):
        """Entries 0 (east) and 1 (0.6, 0.8), each under its given chain."""
        encoder = _TableEncoder({"parent": EAST})
        cache = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.5, top_k=2))
        cache.insert("east entry", "r-east", context=contexts[0], embedding=EAST)
        cache.insert("ne entry", "r-ne", context=contexts[1], embedding=_unit(0.6, 0.8))
        return cache, encoder

    def test_probe_context_embedded_only_on_candidate(self):
        # Candidate 0's chain mismatches the probe's, candidate 1's matches.
        cache, encoder = self._contextual_cache(
            [
                ContextChain(texts=("other",), embedding=NORTH),
                ContextChain(texts=("parent",), embedding=EAST),
            ]
        )
        cache.set_threshold(0.999)
        miss = cache.lookup("north", context=("parent",))
        assert not miss.hit and not miss.context_verified
        assert ["parent"] not in encoder.batches  # nothing cleared τ → never embedded
        cache.set_threshold(0.5)
        hit = cache.lookup("east", context=("parent",))
        # Two candidates were verified; the probe's chain was embedded once.
        assert hit.hit and hit.context_verified and hit.entry_id == 1
        assert encoder.batches.count(["parent"]) == 1
        asked = []
        ranked = [IndexHit(id=0, score=0.9), IndexHit(id=1, score=0.6), IndexHit(id=2, score=0.1)]
        first_admissible(ranked, 0.5, lambda i: asked.append(i) or False)
        assert asked == [0, 1]  # id 2 never cleared τ, so it is never asked about

    def test_context_mismatch_rejects_candidate(self):
        # Cached entries are contextual; a standalone probe must not match.
        chain = ContextChain(texts=("some parent",), embedding=EAST)
        cache, _ = self._contextual_cache([chain, chain])
        decision = cache.lookup("east")
        assert not decision.hit
        assert decision.context_verified
        assert decision.similarity == pytest.approx(1.0)  # top retrieved, not admitted


class TestExactKeyStages:
    def test_key_embed_and_exact_retrieve(self):
        cache = KeywordCache(KeywordCacheConfig(remove_stopwords=False))
        assert not cache.lookup("hello world").hit  # empty cache
        cache.insert("HeLLo   world", "hi")
        hit, miss = cache.lookup("hello, WORLD!"), cache.lookup("missing")
        assert (hit.hit, hit.response, hit.similarity) == (True, "hi", 1.0)
        assert (miss.hit, miss.response, miss.similarity) == (False, None, 0.0)
        # A dictionary probe: no pseudo-candidate, no entry id, no timings.
        assert hit.candidates == [] and hit.entry_id is None
        assert hit.total_overhead_s == 0.0
        assert (cache.lookups, cache.hits) == (3, 1)


class TestEnrollStages:
    def test_capacity_enroll_evicts_until_room(self):
        cache = MeanCache(_TableEncoder(), MeanCacheConfig(max_entries=5))
        for i in range(5):
            cache.enroll(f"query {i}", "r", embedding=_unit(1.0, float(i)))
        assert (len(cache), cache.stats.evictions) == (5, 0)
        # The bound is read live: shrink it, and the next enrolment evicts
        # until one more entry fits (5 -> 2, then the new one makes 3).
        cache.config = MeanCacheConfig(max_entries=3)
        cache.enroll("query 5", "r", embedding=_unit(1.0, 5.0))
        assert (len(cache), cache.stats.evictions) == (3, 3)
        keyword = KeywordCache(KeywordCacheConfig(max_entries=2))
        for text in ("alpha", "beta", "gamma"):
            keyword.enroll(text, "r", context=("ignored",), user_id="u", embedding=EAST)
        assert len(keyword) == 2 and "alpha" not in keyword and "gamma" in keyword

    def test_unbounded_enroll_never_evicts(self):
        cache = GPTCache(_TableEncoder(), GPTCacheConfig())
        for i in range(50):
            cache.enroll(f"query {i}", "r", context=("ignored",), embedding=_unit(1.0, float(i)))
        cache.enroll("the last", "r", user_id="user-7", embedding=NORTH)
        assert len(cache) == 51  # central enrolment never evicts
        assert [e.user_id for e in cache.entries[-2:]] == ["default", "user-7"]


class TestCacheWiring:
    """What each variant adds around the three functions."""

    def test_meancache_stages(self, tiny_encoder):
        """MeanCache: the context rule is on and capacity is bounded."""
        cache = MeanCache(
            tiny_encoder, MeanCacheConfig(similarity_threshold=0.3, max_entries=2)
        )
        cache.insert("how can i sort a list in python", "r", context=["earlier turn"])
        decision = cache.lookup("how can i sort a list in python")
        assert not decision.hit and decision.context_verified
        cache.insert("plan a trip to japan", "r")
        cache.insert("what is the boiling point of water", "r")
        assert (len(cache), cache.stats.evictions) == (2, 1)

    def test_meancache_ablation_disables_context_stage(self, tiny_encoder):
        cache = MeanCache(
            tiny_encoder, MeanCacheConfig(verify_context=False, similarity_threshold=0.3)
        )
        cache.insert("how can i sort a list in python", "r", context=["earlier turn"])
        decision = cache.lookup("how can i sort a list in python")
        assert decision.hit and not decision.context_verified

    def test_verify_context_read_live_from_config(self, tiny_encoder):
        """Replacing cache.config wholesale must retoggle the context rule:
        a contextual entry matches a standalone probe once it is off."""
        cache = MeanCache(
            tiny_encoder, MeanCacheConfig(verify_context=True, similarity_threshold=0.3)
        )
        cache.insert("how can i sort a list in python", "r", context=["earlier turn"])
        assert not cache.lookup("how can i sort a list in python").hit
        cache.config = MeanCacheConfig(verify_context=False, similarity_threshold=0.3)
        assert cache.lookup("how can i sort a list in python").hit
        cache.config = MeanCacheConfig(verify_context=True, similarity_threshold=0.3)
        assert not cache.lookup("how can i sort a list in python").hit

    def test_gptcache_stages(self, tiny_encoder):
        """GPTCache: conversation state is ignored and nothing is evicted."""
        cache = GPTCache(tiny_encoder, GPTCacheConfig())
        cache.enroll("how can i sort a list in python", "r", context=["earlier turn"])
        decision = cache.lookup("how can i sort a list in python", context=["another chat"])
        assert decision.hit and not decision.context_verified
        assert "max_entries" not in GPTCacheConfig.__dataclass_fields__

    def test_keyword_cache_swaps_retrieve(self):
        """KeywordCache: normalised exact match at 1.0; a paraphrase misses."""
        cache = KeywordCache()
        cache.insert("How can I sort a list in Python?", "use sorted()")
        exact = cache.lookup("how can i sort a list in python")
        assert exact.hit and exact.similarity == 1.0 and exact.response == "use sorted()"
        paraphrase = cache.lookup("what is the best way to order a python list")
        assert not paraphrase.hit and paraphrase.similarity == 0.0

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
        cache = _variant(variant, tiny_encoder)
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


def _variant(name, encoder):
    return {
        "meancache": lambda: MeanCache(encoder, MeanCacheConfig()),
        "gptcache": lambda: GPTCache(encoder, GPTCacheConfig()),
        "keyword": lambda: KeywordCache(),
        "tiered": lambda: TieredCache(encoder, MeanCacheConfig()),
    }[name]()


VARIANTS = ["meancache", "gptcache", "keyword", "tiered"]
SEMANTIC = ["meancache", "gptcache", "tiered"]


class TestRejectedLookupsDoNotCount:
    """A lookup the cache refuses leaves ``lookups == hits + misses``."""

    @pytest.mark.parametrize("variant", SEMANTIC)
    def test_rejected_embeddings_count_nothing(self, tiny_encoder, variant):
        cache = _variant(variant, tiny_encoder)
        cache.insert("how can i sort a list in python", "use sorted()")
        cache.lookup_batch(["how can i sort a list in python", "plan a trip to japan"])
        dim = tiny_encoder.embedding_dim
        not_finite = np.ones((2, dim))
        not_finite[1, 0] = np.nan
        for bad in (np.ones((3, dim)), np.ones((2, dim + 1)), not_finite):
            with pytest.raises(ValueError):
                cache.lookup_batch(["a b", "c d"], embeddings=bad)
            stats = cache.stats
            assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)

    def test_keyword_cache_rejects_non_text_before_counting(self):
        cache = KeywordCache()
        for bad in (None, 5, "", "   "):
            with pytest.raises(ValueError, match="non-empty string"):
                cache.lookup(bad)
        with pytest.raises(ValueError, match="non-empty string"):
            cache.lookup_batch(["fine", None])
        assert (cache.lookups, cache.hits) == (0, 0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bare_string_is_not_a_batch(self, tiny_encoder, variant):
        """``lookup_batch("abc")`` used to probe "a", "b" and "c"."""
        cache = _variant(variant, tiny_encoder)
        with pytest.raises(ValueError, match="not one string"):
            cache.lookup_batch("abc")
        assert cache.stats.lookups == 0
        if variant != "tiered":  # TieredCache has no populate
            with pytest.raises(ValueError, match="not one string"):
                cache.populate("abc")
            assert len(cache) == 0


def test_lookup_and_lookup_batch_never_enter_each_other(tiny_encoder, monkeypatch):
    """The bench tracer wraps both public names under one span; a nested
    call would count every probe twice."""
    entered = []
    real_lookup, real_batch = MeanCache.lookup, MeanCache.lookup_batch
    assert "lookup" in MeanCache.__dict__ and "lookup_batch" in MeanCache.__dict__

    def spy_lookup(self, query, context=()):
        entered.append("lookup")
        return real_lookup(self, query, context)

    def spy_batch(self, queries, contexts=None, embeddings=None):
        entered.append("lookup_batch")
        return real_batch(self, queries, contexts=contexts, embeddings=embeddings)

    monkeypatch.setattr(MeanCache, "lookup", spy_lookup)
    monkeypatch.setattr(MeanCache, "lookup_batch", spy_batch)
    cache = MeanCache(tiny_encoder, MeanCacheConfig())
    cache.insert("how can i sort a list in python", "use sorted()", context=["a turn"])
    cache.lookup("how can i sort a list in python", context=["a turn"])
    assert entered == ["lookup"]
    cache.lookup_batch(["how can i sort a list in python"], contexts=[["a turn"]])
    assert entered == ["lookup", "lookup_batch"]


# --------------------------------------------------------------------------- #
# Generated validity check: three call sites, one rule
# --------------------------------------------------------------------------- #
def _oracle(hits, tau, context_ok, verify):
    """Algorithm 1 lines 3-6, written out: the first ranked candidate that
    clears τ and (when verification is on) whose context matches."""
    for entry_id, score in hits:
        if score >= tau and (not verify or context_ok[entry_id]):
            return entry_id
    return None


@st.composite
def _ranked_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.permutations(range(n)))[: draw(st.integers(min_value=0, max_value=n))]
    scores = sorted(
        draw(st.lists(st.floats(0.0, 1.0), min_size=len(ids), max_size=len(ids))),
        reverse=True,
    )
    return {
        "n": n,
        "hits": list(zip(ids, scores)),
        "tau": draw(st.floats(0.0, 1.0)),
        "context_ok": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "verify": draw(st.booleans()),
    }


@settings(max_examples=150, deadline=None)
@given(case=_ranked_cases())
def test_every_call_site_equals_the_oracle(case):
    n, hits, tau, verify = case["n"], case["hits"], case["tau"], case["verify"]
    expected = _oracle(hits, tau, case["context_ok"], verify)
    # The probe's chain embeds to EAST; an entry's stored chain matches it
    # (cosine 1) or is orthogonal to it (cosine 0), as the case dictates.
    chains = [
        ContextChain(texts=("turn",), embedding=EAST if ok else NORTH)
        for ok in case["context_ok"]
    ]
    canned = [IndexHit(id=i, score=s) for i, s in hits]

    def search(queries, top_k, **kwargs):
        return [canned[:top_k]]

    encoder = _TableEncoder({"parent": EAST})
    config = MeanCacheConfig(similarity_threshold=tau, top_k=n, verify_context=verify)
    cache = MeanCache(encoder, config)
    tier = QuantizedTier(backend="sq8")
    central = GPTCache(encoder, GPTCacheConfig(similarity_threshold=tau, top_k=n))
    for i in range(n):
        vector = _unit(1.0, float(i))
        cache.insert(f"entry {i}", f"r{i}", context=chains[i], embedding=vector)
        assert tier.insert(f"entry {i}", f"r{i}", vector, chains[i]) == i
        central.insert(f"entry {i}", f"r{i}", embedding=vector)
    for holder in (cache, tier, central):
        holder._index.search = search

    decision = cache.lookup("east", context=("parent",))
    assert decision.entry_id == expected and decision.hit == (expected is not None)
    assert encoder.batches.count(["parent"]) <= 1

    embedded = []

    def probe_context():
        embedded.append(1)
        return ContextChain(texts=("parent",), embedding=EAST)

    (found,) = tier.match(EAST[None], n, [tau], [probe_context], verify_context=[verify])
    assert (found[0].entry_id if found is not None else None) == expected
    assert len(embedded) <= 1
    if expected is not None:
        assert found[1] == dict(hits)[expected]

    if not verify:
        ignored = central.lookup("east", context=("parent",))
        assert ignored.hit == (expected is not None)
        assert ignored.matched_query == (None if expected is None else f"entry {expected}")
    for stats in (cache.stats, tier.stats, central.stats):
        assert stats.lookups == stats.hits + stats.misses
