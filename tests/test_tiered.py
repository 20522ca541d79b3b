"""TieredCache hierarchy: promotion/demotion, parity, persistence, threads.

Pins the tiered cache's contract (ISSUE 9):

* **tier disjointness** — an entry lives in exactly one tier at any moment
  (demotion removes from L1, promotion removes from L2), so no probe can
  score the same entry twice across the hierarchy;
* **decision parity** — on duplicate-heavy traffic the hierarchy produces
  the same hit/miss stream as a single unbounded exact MeanCache, and
  duplicate probes *within one batch* all hit (promotions are applied only
  after every probe is matched);
* **persistence** — Hypothesis-driven op sequences (insert / remove /
  flush / compact / save) round-trip through save, mmap load and delta
  replay with byte-identical match scores;
* **concurrency** — many TieredCache instances sharing one QuantizedTier
  keep the tier consistent under a thread hammer, both raw and behind
  :class:`~repro.serving.server.CacheServer` shard locks.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tiny_encoder, seal_adds_no_record

from repro.core.cache import CacheStats, MeanCache, MeanCacheConfig
from repro.core.context import ContextChain
from repro.core.tiered import QuantizedTier, TieredCache, match_probes
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig

pytestmark = pytest.mark.concurrency

# L2 stays in its exact float staging phase below min_train_size, which
# makes tier scores identical to flat search — the parity tests rely on
# that; the quantized regime is exercised by the trained-tier tests.
UNTRAINED = {"min_train_size": 10_000}


# Lexically diverse intents: under the tiny encoder their pairwise
# similarity tops out well below the τ=0.85 used here, so only exact
# re-asks hit and near-neighbour shadowing cannot blur tier attribution.
TOPICS = [
    "database sharding",
    "oven temperature for sourdough",
    "tax deductions",
    "quantum entanglement",
    "marathon training",
    "guitar tuning",
    "visa applications",
    "composting",
    "kubernetes ingress",
    "sleep schedules",
    "oil painting",
    "telescope lenses",
    "french grammar",
    "bicycle repair",
    "solar panels",
    "chess openings",
    "typescript generics",
    "orchid care",
    "espresso grind size",
    "drywall anchors",
]
TAU = 0.85


def _queries(n):
    assert n <= len(TOPICS)
    return [f"how do I handle {t}" for t in TOPICS[:n]]


def _tiered(encoder, l1_entries=4, l2=None, **tier_kwargs):
    """A tiered cache over ``l2``, or over a private untrained tier built
    with ``tier_kwargs``."""
    if l2 is None:
        l2 = QuantizedTier(**{"params": UNTRAINED, **tier_kwargs})
    return TieredCache(
        encoder,
        MeanCacheConfig(max_entries=l1_entries, similarity_threshold=TAU),
        l2=l2,
    )


def _tier_queries(cache):
    l1 = {e.query for e in cache.l1.entries}
    l2 = {e.query for e in cache.l2.entries}
    return l1, l2


# --------------------------------------------------------------------------- #
# Promotion / demotion invariants
# --------------------------------------------------------------------------- #
def test_failed_enrol_demotes_nothing(monkeypatch):
    """An encoder failure while embedding the new entry's context chain must
    not push an L1 victim into L2 for an entry that is never enrolled."""
    from dataclasses import asdict

    encoder = make_tiny_encoder()
    cache = _tiered(encoder, l1_entries=2)
    first, second, third = _queries(3)
    cache.insert(first, "r0")
    cache.insert(second, "r1")
    embedding, _ = cache.l1.embed(third)

    def state():
        return (
            [e.entry_id for e in cache.l1.entries],
            cache.l1.index.ids,
            cache.l1._policy.state_dict(),
            asdict(cache.l1.stats),
            len(cache.l2),
            asdict(cache.l2.stats),
        )

    before = state()

    def encoder_down(*args, **kwargs):
        raise RuntimeError("encoder down")

    monkeypatch.setattr(encoder, "encode", encoder_down)
    with pytest.raises(RuntimeError, match="encoder down"):
        cache.insert(third, "r2", context=[first], embedding=embedding)
    assert state() == before
    monkeypatch.undo()
    cache.insert(third, "r2", context=[first], embedding=embedding)
    assert (len(cache.l1), len(cache.l2)) == (2, 1)


def test_l1_eviction_demotes_into_l2():
    cache = _tiered(make_tiny_encoder(), l1_entries=4)
    queries = _queries(10)
    for q in queries:
        cache.insert(q, f"response to {q}")
    assert len(cache.l1) == 4
    assert len(cache.l2) == 6
    assert len(cache) == 10
    # Demotion preserves the payload: the oldest inserts now live in L2.
    l1, l2 = _tier_queries(cache)
    assert l1 | l2 == set(queries)
    assert not (l1 & l2), "an entry must live in exactly one tier"
    # Demotions are movement, not data loss: nothing was evicted for real.
    assert cache.stats.evictions == 0
    assert cache.l2.stats.insertions == 6


def test_l2_hit_promotes_back_into_l1():
    encoder = make_tiny_encoder()
    cache = _tiered(encoder, l1_entries=2)
    queries = _queries(6)
    for q in queries:
        cache.insert(q, f"response to {q}")
    victim = queries[0]  # FIFO-demoted long ago
    assert victim in {e.query for e in cache.l2.entries}

    decision = cache.lookup(victim)
    assert decision.hit
    assert decision.response == f"response to {victim}"
    # The entry moved: now resident in L1, gone from L2.
    l1, l2 = _tier_queries(cache)
    assert victim in l1 and victim not in l2
    assert not (l1 & l2)
    assert cache.l2.stats.hits == 1
    # Promotion re-used the tier's stored vector: probing the promoted
    # entry again hits straight from L1 without touching L2.
    l2_lookups = cache.l2.stats.lookups
    assert cache.lookup(victim).hit
    assert cache.l2.stats.lookups == l2_lookups


def test_l1_hit_never_probes_l2():
    cache = _tiered(make_tiny_encoder(), l1_entries=8)
    for q in _queries(4):
        cache.insert(q, "r")
    assert len(cache.l2) == 0
    for q in _queries(4):
        assert cache.lookup(q).hit
    assert cache.l2.stats.lookups == 0


def test_entry_never_scored_twice_per_probe():
    """Tiers stay disjoint throughout a churny trace, so the candidate
    sets the two indexes can score never overlap for any single probe."""
    cache = _tiered(make_tiny_encoder(), l1_entries=3)
    rng = np.random.default_rng(0)
    queries = _queries(12)
    for step in range(60):
        q = queries[int(rng.integers(len(queries)))]
        decision = cache.lookup(q)
        if not decision.hit:
            cache.insert(q, f"response to {q}")
        l1, l2 = _tier_queries(cache)
        assert not (l1 & l2), f"tiers overlap at step {step}: {l1 & l2}"
        assert len(cache) == len(l1) + len(l2)


def test_default_tier_is_private_and_unbounded():
    """Without ``l2=`` each cache owns a fresh ``QuantizedTier()``: sq8, no
    capacity bound, no snapshot directory, shared with no other cache."""
    encoder = make_tiny_encoder()
    first, second = TieredCache(encoder), TieredCache(encoder)
    assert first.l2 is not second.l2
    for cache in (first, second):
        assert isinstance(cache.l2.index, type(QuantizedTier().index))
        assert (cache.l2.max_entries, cache.l2.snapshot_dir) == (None, None)
        assert cache.l2.index.routed is False
    first.insert("how do I handle composting", "r")
    assert (len(first), len(second)) == (1, 0)


def test_l2_capacity_evicts_fifo_for_real():
    cache = _tiered(make_tiny_encoder(), l1_entries=2, max_entries=3)
    queries = _queries(10)
    for q in queries:
        cache.insert(q, "r")
    assert len(cache.l1) == 2 and len(cache.l2) == 3
    assert cache.stats.evictions == 5  # truly dropped, not demoted
    assert cache.lookup(queries[0]).hit is False  # oldest are gone


# --------------------------------------------------------------------------- #
# Decision parity with a single unbounded exact cache
# --------------------------------------------------------------------------- #
def _duplicate_heavy_trace(n_intents=14, n_probes=80, seed=3):
    rng = np.random.default_rng(seed)
    intents = _queries(n_intents)
    return [intents[int(rng.integers(n_intents))] for _ in range(n_probes)]


def test_hit_stream_parity_with_unbounded_exact_cache():
    """L1 ∪ L2 must decide hit/miss exactly like one big exact cache.

    The tiered cache holds the same entry set split across tiers; with the
    L2 in its exact staging phase every tier score equals the flat score,
    so the fall-through scan reproduces the single cache's decisions.
    Responses must match too on this trace: probes are exact duplicates,
    so both caches return the enrolled response for every hit.
    """
    encoder = make_tiny_encoder()
    tiered = _tiered(encoder, l1_entries=3)
    exact = MeanCache(
        encoder, MeanCacheConfig(max_entries=100_000, similarity_threshold=TAU)
    )

    stream = []
    for q in _duplicate_heavy_trace():
        d_t = tiered.lookup(q)
        d_e = exact.lookup(q)
        assert d_t.hit == d_e.hit, f"hit-bit divergence on {q!r}"
        if d_t.hit:
            assert d_t.response == d_e.response
        else:
            tiered.insert(q, f"response to {q}")
            exact.insert(q, f"response to {q}")
        stream.append(d_t.hit)
    assert any(stream), "trace produced no hits — not duplicate-heavy"
    assert tiered.l2.stats.lookups > 0, "L2 was never probed — L1 too large"
    assert tiered.stats.hits == exact.stats.hits
    assert tiered.stats.lookups == exact.stats.lookups


def test_duplicate_probes_in_one_batch_all_hit():
    """Promotion is deferred past matching, so in-batch duplicates of a
    demoted entry must all hit even though the first match moves it."""
    encoder = make_tiny_encoder()
    cache = _tiered(encoder, l1_entries=2)
    queries = _queries(6)
    for q in queries:
        cache.insert(q, f"response to {q}")
    victim = queries[0]
    assert victim in {e.query for e in cache.l2.entries}

    batch = [victim, queries[-1], victim, victim]
    decisions = cache.lookup_batch(batch)
    assert [d.hit for d in decisions] == [True, True, True, True]
    assert {d.response for d in decisions[::2]} == {f"response to {victim}"}
    # All duplicates resolved to the same (promoted) entry, scored once
    # per probe in the tier that held it at batch start.
    assert len({d.entry_id for d in decisions[::2] if d.entry_id is not None}) <= 2
    l1, l2 = _tier_queries(cache)
    assert not (l1 & l2)


def test_context_verification_applies_in_l2():
    """A demoted contextual entry must still be context-gated on the
    fall-through path, exactly like the L1 pipeline's ContextVerify."""
    encoder = make_tiny_encoder()
    cache = _tiered(encoder, l1_entries=1)
    cache.insert(
        "how do I reset the flux capacitor",
        "contextual answer",
        context=["talking about time machines"],
    )
    # Push it out of L1 into L2.
    cache.insert("an entirely different question", "other")
    assert len(cache.l2) == 1

    wrong_ctx = cache.lookup(
        "how do I reset the flux capacitor",
        context=["discussing sourdough starters and baking bread today"],
    )
    right_ctx = cache.lookup(
        "how do I reset the flux capacitor",
        context=["talking about time machines"],
    )
    assert not wrong_ctx.hit
    assert right_ctx.hit and right_ctx.response == "contextual answer"
    assert right_ctx.context_verified


def test_combined_stats_view():
    cache = _tiered(make_tiny_encoder(), l1_entries=2)
    queries = _queries(5)
    for q in queries:
        cache.insert(q, "r")
    assert cache.lookup(queries[0]).hit  # L2 hit
    assert cache.lookup("utterly unrelated brand new text").hit is False
    stats = cache.stats
    assert stats.lookups == 2
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.insertions == 5
    tiers = cache.tier_stats()
    assert tiers["l1"].lookups == 2
    assert tiers["l2"].hits == 1
    breakdown = cache.storage_breakdown()
    assert breakdown["l1_entries"] == len(cache.l1)
    assert breakdown["l2_entries"] == len(cache.l2)
    assert breakdown["l1_bytes"] > 0 and breakdown["l2_bytes"] > 0


def test_stats_count_only_the_l2_hits_a_cache_served(tmp_path):
    """A shared tier's hit counter is every sharing cache's; each cache's
    combined stats count the L2 hits it served itself, and keep them across
    a save/load."""
    encoder = make_tiny_encoder()
    tier = QuantizedTier(params=dict(UNTRAINED))
    idle, busy = (_tiered(encoder, l1_entries=2, l2=tier) for _ in range(2))
    queries = _queries(4)
    for q in queries:
        busy.insert(q, f"response to {q}")
    assert busy.lookup(queries[0]).hit  # served from L2
    assert tier.stats.hits == 1
    assert idle.stats == CacheStats()
    assert (busy.stats.lookups, busy.stats.hits, busy.stats.misses) == (1, 1, 0)
    restored = TieredCache.load(busy.save(tmp_path / "busy"), encoder)
    assert restored.stats == busy.stats


# --------------------------------------------------------------------------- #
# The batched tier match
# --------------------------------------------------------------------------- #
DIM = 16


def _routed_tier(n=400):
    """A trained, maintained ``ivf+sq8`` tier of ``n`` random entries."""
    vectors = np.random.default_rng(0).normal(size=(n, DIM))
    tier = QuantizedTier(dim=DIM, backend="ivf+sq8", params={"nlist": 16, "seed": 0})
    for i, vector in enumerate(vectors):
        tier.insert(f"q{i}", f"r{i}", vector)
    tier.maintenance()
    return tier, vectors


def _near(vectors):
    """Probes a little off ``vectors``."""
    return vectors + 0.05 * np.random.default_rng(1).normal(size=vectors.shape)


def _found(found):
    return None if found is None else (found[0].entry_id, float(found[1]).hex())


def test_batched_match_equals_single_row_matches():
    tier, vectors = _routed_tier()
    probes = np.concatenate([_near(vectors[:5]), np.random.default_rng(2).normal(size=(4, DIM))])
    batched = [_found(f) for f in tier.match(probes, 5, [0.9] * len(probes))]
    singles = [_found(tier.match(p[None], 5, [0.9])[0]) for p in probes]
    assert batched == singles
    assert None in batched and batched[:5] == [(i, batched[i][1]) for i in range(5)]


def test_batched_match_counts_one_lookup_per_row():
    tier, vectors = _routed_tier()
    before = CacheStats(**vars(tier.stats))
    found = tier.match(_near(vectors[:3]), 5, [0.9, 0.9, 2.0])
    assert [f is not None for f in found] == [True, True, False]
    assert tier.stats.lookups == before.lookups + 3
    assert tier.stats.hits == before.hits + 2
    assert tier.stats.misses == before.misses + 1


def test_batched_match_takes_tau_per_row():
    tier, vectors = _routed_tier()
    probe = _near(vectors[3:4])
    ((entry, score),) = tier.match(probe, 5, [-1.0])
    low, high = tier.match(np.repeat(probe, 2, axis=0), 5, [score - 1e-9, score + 1e-9])
    assert low is not None and low[0] is entry
    assert high is None


def test_batched_match_embeds_a_context_only_where_a_candidate_needs_it():
    """Row 0 has a candidate to verify; row 1 has none above its τ; row 2
    does not verify context."""
    tier, vectors = _routed_tier()
    embedded = []

    def chain(row):
        def embed():
            embedded.append(row)
            return ContextChain.empty()

        return embed

    found = tier.match(
        vectors[:3],
        5,
        [0.5, 2.0, 0.5],
        [chain(0), chain(1), chain(2)],
        verify_context=[True, True, False],
    )
    assert embedded == [0]
    assert [f is not None for f in found] == [True, False, True]


@pytest.mark.serving
def test_a_shard_serves_its_next_flush_after_a_failed_one():
    """A flush whose tier match raised fails its own requests and leaves
    its shards' lookups open; the next flush discards them and is served
    from the tier as usual."""
    encoder = make_tiny_encoder()
    tier = QuantizedTier(params=dict(UNTRAINED))
    query = _queries(1)[0]
    tier.insert(query, "from the tier", MeanCache(encoder).embed(query)[0])
    match = tier.match

    def fail_once(*args, **kwargs):
        tier.match = match
        raise RuntimeError("tier down")

    tier.match = fail_once
    server = CacheServer(
        cache_factory=lambda uid: _tiered(encoder, l2=tier),
        service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
        config=ServerConfig(n_shards=2, max_batch_wait_s=0.0),
    )
    server.start()
    try:
        with pytest.raises(RuntimeError, match="tier down"):
            server.submit_threadsafe("u", query).result(timeout=10)
        response = server.submit_threadsafe("u", query).result(timeout=10)
    finally:
        server.stop()
    assert response.hit and response.response == "from the tier"
    assert server.metrics.failed == 1 and query not in {e.query for e in tier.entries}


def test_a_match_that_left_the_tier_is_served_but_not_promoted():
    """Another user of the tier removed the matched entry between the match
    and the promotion: the probe is still served the entry as matched, and
    nothing moves into L1."""
    encoder = make_tiny_encoder()
    tier = QuantizedTier(params=dict(UNTRAINED))
    x = _queries(1)[0]
    x_id = tier.insert(x, "answer X", MeanCache(encoder).embed(x)[0])
    cache = _tiered(encoder, l2=tier)
    decisions, probes = cache.lookup_l1([x])
    match_probes(probes)
    assert probes[0].promote
    tier.pop(x_id)
    cache.serve_matches(probes)
    (decision,) = decisions
    assert decision.hit and decision.response == "answer X"
    assert decision.entry_id == x_id
    assert len(cache.l1) == 0 and len(tier) == 0
    assert cache.stats.hits == 1


# --------------------------------------------------------------------------- #
# Persistence round-trips (Hypothesis op sequences)
# --------------------------------------------------------------------------- #


def _probe_signature(tier, probes):
    """Byte-exact signature of the tier's match decisions for ``probes``."""
    out = []
    for p in probes:
        (found,) = tier.match(p[None], 5, [-2.0], verify_context=[False])
        out.append(
            (found[0].entry_id, float(found[1]).hex()) if found is not None else None
        )
    return out


def _tier_state(tier):
    return sorted(
        (e.entry_id, e.query, e.response, tuple(e.context.texts))
        for e in tier.entries
    )


@st.composite
def op_sequences(draw):
    """insert / remove / flush / maintenance / save op streams."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 2**31 - 1)),
                st.tuples(st.just("remove"), st.integers(0, 200)),
                st.tuples(st.just("flush"), st.just(0)),
                st.tuples(st.just("maintenance"), st.just(0)),
                st.tuples(st.just("save"), st.just(0)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    # Lead with an insert so there is always something to persist.
    return [("insert", draw(st.integers(0, 2**31 - 1)))] + ops


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ops=op_sequences(), data=st.data())
def test_tier_op_sequences_round_trip_through_snapshots(ops, data, tmp_path_factory):
    """Any op sequence → flush → load (copy and mmap) restores the exact
    tier: same entries, same ids, byte-identical match scores, and the
    loaded tier keeps accepting mutations with monotonic ids."""
    tmp_path = tmp_path_factory.mktemp("tier")
    tier = QuantizedTier(
        dim=DIM,
        backend="sq8",
        params={"min_train_size": 24, "seed": 0},
        snapshot_dir=tmp_path / "snap",
        compact_every=4,
    )
    for step, (op, arg) in enumerate(ops):
        if op == "insert":
            rng = np.random.default_rng(arg)
            tier.insert(
                f"query {step} seeded {arg}",
                f"response {step}",
                embedding=rng.normal(size=DIM),
            )
        elif op == "remove" and len(tier):
            victim = tier.entries[arg % len(tier)].entry_id
            tier.pop(victim)
        elif op == "flush":
            tier.flush()
        elif op == "maintenance":
            tier.maintenance()
        elif op == "save":
            tier.save(tmp_path / "snap")
    tier.flush()

    probes = np.random.default_rng(99).normal(size=(6, DIM))
    expected_state = _tier_state(tier)
    expected_sig = _probe_signature(tier, probes)
    expected_next = tier._next_id

    for mmap in (False, True):
        loaded = QuantizedTier.load(tmp_path / "snap", mmap=mmap)
        assert _tier_state(loaded) == expected_state
        assert _probe_signature(loaded, probes) == expected_sig
        assert loaded._next_id == expected_next
    # The loaded tier stays live: new ids continue past the snapshot.
    loaded.snapshot_dir = None
    new_id = loaded.insert("post-restore query", "r", np.zeros(DIM))
    assert new_id == expected_next


def test_tier_maintenance_compacts_delta_log(tmp_path):
    from repro.index import delta_log_size

    tier = QuantizedTier(
        dim=DIM, params=UNTRAINED, snapshot_dir=tmp_path / "snap", compact_every=3
    )
    rng = np.random.default_rng(1)
    tier.insert("baseline", "r", rng.normal(size=DIM))
    tier.flush()  # writes the full baseline snapshot
    for i in range(3):
        tier.insert(f"delta {i}", "r", rng.normal(size=DIM))
        tier.flush()
    assert delta_log_size(tmp_path / "snap")[0] == 3
    tier.maintenance()  # 3 >= compact_every → fold: one record of the 3 rows
    assert delta_log_size(tmp_path / "snap") == (1, 3)
    loaded = QuantizedTier.load(tmp_path / "snap")
    assert _tier_state(loaded) == _tier_state(tier)


def _assert_count_matches_disk(tier):
    from repro.index import delta_log_size

    has_baseline = (tier.snapshot_dir / "manifest.json").is_file()
    on_disk = delta_log_size(tier.snapshot_dir)[0] if has_baseline else None
    assert tier._log_length() == on_disk


@st.composite
def log_op_sequences(draw):
    return draw(
        st.lists(
            st.sampled_from(
                [
                    "insert",
                    "pop",
                    "seal",
                    "flush",
                    "maintenance",
                    "save",
                    "save_elsewhere",
                    "load",
                ]
            ),
            min_size=1,
            max_size=30,
        )
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(ops=log_op_sequences(), preexisting=st.booleans())
def test_tier_counts_its_delta_log_in_memory(ops, preexisting, tmp_path_factory):
    """After every step the tier's in-memory record count is what a reader
    of the directory finds — including over a directory that already held
    a snapshot plus log, and across a save to some other path."""
    tmp_path = tmp_path_factory.mktemp("count")
    snap = tmp_path / "snap"
    rng = np.random.default_rng(7)

    def new_tier():
        return QuantizedTier(
            dim=DIM, params=UNTRAINED, snapshot_dir=snap, compact_every=3
        )

    tier = new_tier()
    if preexisting:
        for i in range(3):
            tier.insert(f"earlier {i}", "r", rng.normal(size=DIM))
            tier.flush()  # baseline, then two records
        tier = QuantizedTier.load(snap)
    _assert_count_matches_disk(tier)
    for step, op in enumerate(ops):
        if op == "insert":
            tier.insert(f"query {step}", "r", rng.normal(size=DIM))
        elif op == "pop" and len(tier):
            tier.pop(tier.entries[step % len(tier)].entry_id)
        elif op == "seal":
            tier.seal()
        elif op == "flush":
            tier.flush()
        elif op == "maintenance":
            tier.maintenance()
        elif op == "save":
            tier.save(snap)
            assert not tier._sealed and seal_adds_no_record(tier)
        elif op == "save_elsewhere":
            owed = [(r.seq, r.ids) for r in tier._sealed]
            tier.save(tmp_path / "elsewhere")
            # still owed to snapshot_dir (the final load checks the rest)
            assert [(r.seq, r.ids) for r in tier._sealed] == owed
        elif op == "load" and (snap / "manifest.json").is_file():
            tier.flush()
            tier = QuantizedTier.load(snap)
        _assert_count_matches_disk(tier)
    tier.flush()
    assert _tier_state(QuantizedTier.load(snap)) == _tier_state(tier)


def test_tier_constructed_over_an_existing_snapshot_counts_no_log_of_it(tmp_path):
    """A tier keeps no change set for a directory it did not write or load:
    it counts no log there, and its first flush publishes a full snapshot
    of itself over what another tier left."""
    from repro.index import delta_log_size

    snap = tmp_path / "snap"
    rng = np.random.default_rng(8)
    first = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    for i in range(3):
        first.insert(f"earlier {i}", "r", rng.normal(size=DIM))
        first.flush()
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    assert tier._log_length() is None and delta_log_size(snap)[0] == 2
    tier.insert("the new tier's own", "r", rng.normal(size=DIM))
    tier.flush()
    _assert_count_matches_disk(tier)
    assert tier._log_length() == 0
    assert _tier_state(QuantizedTier.load(snap)) == _tier_state(tier)
    # Pointed at another directory, the tier has no change set there either.
    tier.snapshot_dir = tmp_path / "moved"
    assert tier._log_length() is None
    tier.insert("after the move", "r", rng.normal(size=DIM))
    tier.flush()  # no baseline there yet: this writes it
    _assert_count_matches_disk(tier)
    assert tier._log_length() == 0 and delta_log_size(snap)[0] == 0
    assert _tier_state(QuantizedTier.load(tmp_path / "moved")) == _tier_state(tier)


def test_steady_state_upkeep_never_rereads_the_log(tmp_path, monkeypatch):
    from repro.index import snapshot

    reads = []
    original = snapshot._delta_lines

    def spy(path, *args, **kwargs):
        reads.append(path)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(snapshot, "_delta_lines", spy)
    rng = np.random.default_rng(9)
    seed_tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=tmp_path / "snap")
    seed_tier.insert("seed", "r", rng.normal(size=DIM))
    seed_tier.flush()
    tier = QuantizedTier.load(tmp_path / "snap")
    tier.compact_every = 4
    tier.insert("first after load", "r", rng.normal(size=DIM))
    tier.flush()  # the one read: counts the log, would cut off a torn tail
    del reads[:]
    for i in range(10):  # crosses two compactions
        tier.insert(f"steady {i}", "r", rng.normal(size=DIM))
        tier.flush()
        tier.maintenance()
    assert reads == []
    assert _tier_state(QuantizedTier.load(tmp_path / "snap")) == _tier_state(tier)


def test_reloaded_tier_appends_past_a_torn_tail(tmp_path):
    """Crash mid-append, restart, keep serving: the records appended after
    the restart are not glued onto the fragment and lost with it."""
    snap = tmp_path / "snap"
    rng = np.random.default_rng(10)
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    for i in range(2):
        tier.insert(f"before the crash {i}", "r", rng.normal(size=DIM))
        tier.flush()
    with open(snap / "deltas.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"seq": 2, "ids": [11], "rem')

    for step in range(2):
        tier = QuantizedTier.load(snap)
        tier.insert(f"after the crash {step}", "r", rng.normal(size=DIM))
        tier.flush()
        loaded = QuantizedTier.load(snap)
        assert _tier_state(loaded) == _tier_state(tier)
        assert f"after the crash {step}" in {e.query for e in loaded.entries}


def test_tiered_cache_save_load_round_trip(tmp_path):
    encoder = make_tiny_encoder()
    cache = _tiered(encoder, l1_entries=3)
    queries = _queries(9)
    for q in queries:
        cache.insert(q, f"response to {q}")
    probes = queries[::2] + ["something never enrolled at all"]
    before = [
        (d.hit, d.response, float(d.similarity).hex())
        for d in [cache.lookup(q) for q in probes]
    ]
    # Lookups promoted entries — capture the post-lookup layout.
    layout = (_tier_queries(cache), len(cache.l1), len(cache.l2))

    cache.save(tmp_path / "tc")
    for mmap in (False, True):
        loaded = TieredCache.load(tmp_path / "tc", encoder.clone(), mmap=mmap)
        assert (_tier_queries(loaded), len(loaded.l1), len(loaded.l2)) == layout
        after = [
            (d.hit, d.response, float(d.similarity).hex())
            for d in [loaded.lookup(q) for q in probes]
        ]
        assert after == before
        # Demotion wiring survived the load: overflow still lands in L2.
        grown = len(loaded.l2)
        for i in range(4):
            loaded.insert(f"fresh post-load query {i}", "r")
        assert len(loaded.l2) > grown


@pytest.mark.parametrize("reloaded", [False, True])
def test_tiered_cache_checkpointed_in_place_keeps_a_loadable_log(reloaded, tmp_path):
    """``save(X)`` over a cache whose tier logs to ``X/l2`` stages the tier
    elsewhere and renames it in: the tier must still learn that its log was
    rebased, or the next record re-adds rows the new baseline already has."""
    from repro.index import delta_log_size

    encoder = make_tiny_encoder()
    snap = tmp_path / "tc"
    cache = TieredCache(
        encoder,
        MeanCacheConfig(max_entries=2),
        l2=QuantizedTier(params=dict(UNTRAINED), snapshot_dir=snap / "l2"),
    )
    queries = _queries(12)
    for q in queries[:4]:
        cache.insert(q, f"response to {q}")
    cache.save(snap)  # baseline, nothing in the log yet
    if reloaded:
        cache = TieredCache.load(snap, encoder)
    for q in queries[4:8]:
        cache.insert(q, f"response to {q}")
    cache.maintenance()  # demotions committed as a delta record
    assert delta_log_size(snap / "l2")[0] == 1
    for q in queries[8:10]:
        cache.insert(q, f"response to {q}")
    # demotions pending across the checkpoint
    assert _tier_state(QuantizedTier.load(snap / "l2")) != _tier_state(cache.l2)
    cache.save(snap)
    assert seal_adds_no_record(cache.l2)
    _assert_count_matches_disk(cache.l2)
    for q in queries[10:]:
        cache.insert(q, f"response to {q}")
    cache.maintenance()
    _assert_count_matches_disk(cache.l2)
    assert delta_log_size(snap / "l2")[0] == 1

    loaded = TieredCache.load(snap, encoder.clone())
    assert _tier_state(loaded.l2) == _tier_state(cache.l2)
    # l1 is as of the checkpoint; the tier's log carries it forward
    assert len(loaded.l2) == len(cache.l2) == len(queries) - 2

    # a checkpoint saved elsewhere leaves the pending demotions owed
    cache.insert("one more to demote", "r")
    assert _tier_state(QuantizedTier.load(snap / "l2")) != _tier_state(cache.l2)
    cache.save(tmp_path / "elsewhere")
    assert _tier_state(QuantizedTier.load(snap / "l2")) != _tier_state(cache.l2)
    cache.maintenance()
    assert _tier_state(QuantizedTier.load(snap / "l2")) == _tier_state(cache.l2)


def test_failed_append_leaves_the_log_as_it_was(tmp_path, monkeypatch):
    """The log line is written whole but its fsync raises: the bytes come
    back off the log, so retrying the flush does not commit the same rows
    twice (which no load would accept)."""
    from repro.index import snapshot

    snap = tmp_path / "snap"
    rng = np.random.default_rng(11)
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    for i in range(2):
        tier.insert(f"committed {i}", "r", rng.normal(size=DIM))
        tier.flush()
    before = (snap / "deltas.jsonl").read_bytes()

    real_fsync = os.fsync

    def fsync_failing_on_the_log(fd):
        if os.readlink(f"/proc/self/fd/{fd}").endswith("deltas.jsonl"):
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    tier.insert("not yet durable", "r", rng.normal(size=DIM))
    monkeypatch.setattr(snapshot.os, "fsync", fsync_failing_on_the_log)
    with pytest.raises(OSError):
        tier.flush()
    monkeypatch.undo()
    assert (snap / "deltas.jsonl").read_bytes() == before
    assert tier._sealed  # still owed

    tier.flush()
    _assert_count_matches_disk(tier)
    assert _tier_state(QuantizedTier.load(snap)) == _tier_state(tier)


def test_flush_after_a_failed_append_cuts_off_its_fragment(tmp_path, monkeypatch):
    """An append that dies mid-write in this process and cannot take its
    bytes back leaves what a crash leaves; the retried flush re-reads the
    directory and appends past the fragment, not onto it."""
    from repro.core import tiered

    snap = tmp_path / "snap"
    rng = np.random.default_rng(12)
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    for i in range(2):
        tier.insert(f"committed {i}", "r", rng.normal(size=DIM))
        tier.flush()

    def append_dying_mid_write(path, **kwargs):
        with open(path / "deltas.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "ids": [2], "rem')
        raise OSError(28, "No space left on device")

    tier.insert("not yet durable", "r", rng.normal(size=DIM))
    monkeypatch.setattr(tiered, "append_delta", append_dying_mid_write)
    with pytest.raises(OSError):
        tier.flush()
    monkeypatch.undo()

    for step in range(2):
        tier.flush()
        _assert_count_matches_disk(tier)
        loaded = QuantizedTier.load(snap)
        assert _tier_state(loaded) == _tier_state(tier)
        assert "not yet durable" in {e.query for e in loaded.entries}
        tier.insert(f"after the failure {step}", "r", rng.normal(size=DIM))


# --------------------------------------------------------------------------- #
# Concurrency: a shared tier hammered through many owners
# --------------------------------------------------------------------------- #
N_THREADS = 6
OPS_PER_THREAD = 40


def test_shared_tier_thread_hammer_raw():
    """N caches (one per thread) share one QuantizedTier; interleaved
    insert/lookup churn must leave the tier internally consistent."""
    encoder = make_tiny_encoder()
    shared = QuantizedTier(params=dict(UNTRAINED))
    caches = [
        TieredCache(encoder, MeanCacheConfig(max_entries=3), l2=shared)
        for _ in range(N_THREADS)
    ]
    errors = []

    def worker(tid):
        try:
            cache = caches[tid]
            for i in range(OPS_PER_THREAD):
                q = f"thread {tid} question number {i % 10}"
                if not cache.lookup(q).hit:
                    cache.insert(q, f"answer {tid}/{i}")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((tid, exc))

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors

    # Tier invariants: entries dict and quantized index agree exactly.
    assert sorted(e.entry_id for e in shared.entries) == sorted(shared.index.ids)
    assert len(shared) == len(shared.index)
    counters = shared.stats
    assert counters.insertions >= len(shared)
    assert counters.lookups == counters.hits + counters.misses


def test_shared_tier_hammer_with_runtime_checker(monkeypatch):
    """The raw shared-tier hammer with the tier's lock tracked.

    Under ``REPRO_DEBUG_CONCURRENCY=1`` the QuantizedTier's internal RLock
    becomes a :class:`~repro.analysis.runtime.TrackedLock`, so this churn
    additionally exercises the lock-order cycle detector across the
    per-thread interleavings; CI re-runs the whole suite under the flag.
    """
    monkeypatch.setenv("REPRO_DEBUG_CONCURRENCY", "1")
    from repro.analysis.runtime import TrackedLock, reset_registry

    reset_registry()
    try:
        encoder = make_tiny_encoder()
        shared = QuantizedTier(params=dict(UNTRAINED))
        assert isinstance(shared.lock, TrackedLock)
        caches = [
            TieredCache(encoder, MeanCacheConfig(max_entries=3), l2=shared)
            for _ in range(N_THREADS)
        ]
        errors = []

        def worker(tid):
            try:
                cache = caches[tid]
                for i in range(OPS_PER_THREAD // 2):
                    q = f"tracked thread {tid} question number {i % 10}"
                    if not cache.lookup(q).hit:
                        cache.insert(q, f"answer {tid}/{i}")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((tid, exc))

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert sorted(e.entry_id for e in shared.entries) == sorted(shared.index.ids)
    finally:
        reset_registry()


@pytest.mark.serving
def test_tiered_cache_behind_server_shard_locks():
    """TieredCache slots in as the shard-local cache with a shared L2;
    a client-thread hammer through CacheServer must keep every tier
    consistent and resolve every request."""
    encoder = make_tiny_encoder()
    shared = QuantizedTier(params=dict(UNTRAINED))
    server = CacheServer(
        cache_factory=lambda uid: TieredCache(
            encoder, MeanCacheConfig(max_entries=3), l2=shared
        ),
        service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
        config=ServerConfig(n_shards=4, max_batch_size=8, max_batch_wait_s=0.002),
    )
    queries_of_thread = {
        tid: [f"user {tid} asks question {i % 8}" for i in range(20)]
        for tid in range(N_THREADS)
    }
    responses = {}
    errors = []

    def client(tid):
        try:
            for i, query in enumerate(queries_of_thread[tid]):
                future = server.submit_threadsafe(f"user-{tid}", query)
                responses[(tid, i)] = future.result(timeout=60)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((tid, exc))

    server.start()
    try:
        threads = [
            threading.Thread(target=client, args=(tid,))
            for tid in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        server.stop()
    assert not errors, errors
    assert len(responses) == N_THREADS * 20

    # Each user's repeated queries eventually hit (their own enrolments).
    assert any(r.hit for r in responses.values())
    # Shared tier stayed consistent across all shard owners.
    assert sorted(e.entry_id for e in shared.entries) == sorted(shared.index.ids)
    report = server.storage_report()
    assert report["n_caches"] == N_THREADS
    assert report["total_entries"] >= len(shared)
    assert report["l2_bytes"] >= 0
