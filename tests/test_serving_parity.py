"""Shard-count parity regression (the PR 8 scheduler-refactor pin).

:meth:`CacheServer.replay <repro.serving.server.CacheServer.replay>` on one
shard is the oracle: every cache sits behind one lock and each virtual
window is one flush.  Replaying the same trace through a sharded server
with the same window width must produce **identical per-event decisions**:
same hit/miss bits, same responses, bit-exact similarities, same admission
of every event.

Decision streams are compared in the golden-decision canonical form of
``tests/golden_decisions.py`` (hits as a ``"0"/"1"`` string, similarities as
``float.hex()``), and one MeanCache stream is additionally pinned against
``tests/fixtures/golden_serving_decisions.json`` so a change that shifts
*both* frontends together is caught too.  Regenerate that fixture only for a
deliberate, documented decision-level change, or a value-level re-pin that
moves only ``sims`` (the last: hits scored one dot per row, 53 similarities
by at most 8 float32 ulp)::

    PYTHONPATH=src:tests python -m test_serving_parity
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_tiny_encoder
from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.tiered import QuantizedTier, TieredCache
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadConfig, WorkloadEvent, WorkloadGenerator

pytestmark = pytest.mark.concurrency

FIXTURE_PATH = (
    Path(__file__).resolve().parent / "fixtures" / "golden_serving_decisions.json"
)

TRACE_SEED = 17
BATCH_WINDOW_S = 0.25


def _make_trace():
    config = WorkloadConfig(
        n_users=10, queries_per_user=14, duplicate_rate=0.4, followup_rate=0.3
    )
    return WorkloadGenerator(config, seed=TRACE_SEED).generate()


@pytest.fixture(scope="module")
def trace():
    return _make_trace()


def _service():
    return SimulatedLLMService(LLMServiceConfig(seed=0))


def _event_key(outcome):
    return (outcome.event.user_id, outcome.event.time_s, outcome.event.query)


def _decision_stream(outcomes):
    """Canonical decision summary (golden_decisions.py form), in event order."""
    ordered = sorted(outcomes, key=_event_key)
    return {
        "events": [list(_event_key(o)) for o in ordered],
        "hits": "".join("1" if o.hit else "0" for o in ordered),
        "sims": [float(o.similarity).hex() for o in ordered],
        "responses": [o.response for o in ordered],
        "matches": [o.matched_query if o.hit else None for o in ordered],
        "verified": [o.verified for o in ordered],
    }


def _run_oracle(trace, factory):
    return _run_server(trace, factory, n_shards=1)[0]


def _run_server(trace, factory, n_shards=4, **server_kwargs):
    server = CacheServer(
        factory,
        service=_service(),
        config=ServerConfig(n_shards=n_shards),
        **server_kwargs,
    )
    return server.replay(
        trace, batch_window_s=BATCH_WINDOW_S, collect_outcomes=True
    ), server


def _meancache_factory(encoder):
    return lambda uid: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8))


def _tiered_factory(encoder, snapshot_dir):
    """Per-user 3-entry L1s over one shared, snapshotted sq8 tier."""
    tier = QuantizedTier(
        params={"min_train_size": 24, "seed": 0},
        snapshot_dir=snapshot_dir,
        compact_every=4,
    )
    caches = {}

    def factory(uid):
        if uid not in caches:
            caches[uid] = TieredCache(
                encoder,
                MeanCacheConfig(max_entries=3, similarity_threshold=0.8),
                l2=tier,
            )
        return caches[uid]

    return factory, tier


#: Unrelated questions; users "a" and "c" share a shard, "b" does not
#: (``n_shards=4``).
CROSS_SHARD_X = "how do I handle database sharding"
CROSS_SHARD_Y = "what oven temperature for sourdough bread"
CROSS_SHARD_Z = "which tax deductions can a freelancer claim"


def _one_entry_l1s(encoder, tier_entries=None):
    """Per-user 1-entry L1s over one shared tier (unbounded by default)."""
    tier = QuantizedTier(max_entries=tier_entries)
    caches = {}

    def factory(uid):
        if uid not in caches:
            caches[uid] = TieredCache(
                encoder,
                MeanCacheConfig(max_entries=1, similarity_threshold=0.8),
                l2=tier,
            )
        return caches[uid]

    return factory, tier, caches


def collect_parity_summary():
    """The pinned MeanCache decision stream (fixture-regeneration entry)."""
    trace = _make_trace()
    encoder = make_tiny_encoder()
    result = _run_oracle(trace, _meancache_factory(encoder))
    summary = _decision_stream(result.outcomes)
    summary["trace_seed"] = TRACE_SEED
    summary["batch_window_s"] = BATCH_WINDOW_S
    return summary


class TestSimulatorServerParity:
    def assert_identical_streams(self, sim_result, srv_result, n_events):
        """Both frontends served every event with byte-identical decisions."""
        assert len(sim_result.outcomes) == n_events
        assert len(srv_result.outcomes) == n_events  # nothing shed or lost
        assert _decision_stream(sim_result.outcomes) == _decision_stream(
            srv_result.outcomes
        )

    def test_meancache_fleet_byte_identical(self, trace):
        encoder = make_tiny_encoder()
        sim_result = _run_oracle(trace, _meancache_factory(encoder))
        srv_result, server = _run_server(trace, _meancache_factory(encoder))
        self.assert_identical_streams(sim_result, srv_result, len(trace))
        # The aggregates derive from the same streams.
        assert srv_result.hit_rate == sim_result.hit_rate
        assert srv_result.total_cost_usd == pytest.approx(sim_result.total_cost_usd)
        assert server.metrics.shed == 0
        # Users really spread over the shards (sharding happened, parity held).
        shards_used = {server.shard_of(uid) for uid in trace.user_ids}
        assert len(shards_used) > 1

    def test_shared_central_cache_byte_identical(self, trace):
        """One central cache in the GPTCache configuration for the whole
        fleet: the server pins it to one shard."""
        encoder = make_tiny_encoder()
        config = replace(GPTCACHE_CONFIG, similarity_threshold=0.8)
        central_sim = MeanCache(encoder, config)
        sim_result = _run_oracle(trace, lambda uid: central_sim)
        central_srv = MeanCache(encoder, config)
        srv_result, server = _run_server(trace, lambda uid: central_srv)
        self.assert_identical_streams(sim_result, srv_result, len(trace))
        # Every user collapsed onto the shared cache's owning shard.
        assert len({server.shard_of(uid) for uid in trace.user_ids}) == 1

    def test_tiered_fleet_byte_identical(self, trace, tmp_path):
        """A shared tier maintained once per window (one shard) and once per
        flush across shards (server) decides the same, and both leave a
        snapshot that loads back to the live tier."""
        encoder = make_tiny_encoder()
        sim_factory, sim_tier = _tiered_factory(encoder, tmp_path / "sim")
        srv_factory, srv_tier = _tiered_factory(encoder, tmp_path / "srv")
        sim_result = _run_oracle(trace, sim_factory)
        srv_result, server = _run_server(trace, srv_factory)
        self.assert_identical_streams(sim_result, srv_result, len(trace))
        assert len({server.shard_of(uid) for uid in trace.user_ids}) > 1
        assert sim_tier.stats.hits == srv_tier.stats.hits > 0  # the L2 served
        for tier in (sim_tier, srv_tier):
            loaded = QuantizedTier.load(tier.snapshot_dir)
            assert [(e.entry_id, e.query) for e in loaded.entries] == [
                (e.entry_id, e.query) for e in tier.entries
            ]

    def test_per_user_baseline_config_byte_identical(self, trace):
        encoder = make_tiny_encoder()

        def factory(uid):
            return MeanCache(encoder, GPTCACHE_CONFIG)

        sim_result = _run_oracle(trace, factory)
        srv_result, _ = _run_server(trace, factory)
        self.assert_identical_streams(sim_result, srv_result, len(trace))

    def test_parity_independent_of_shard_count(self, trace):
        encoder = make_tiny_encoder()
        baseline, _ = _run_server(trace, _meancache_factory(encoder), n_shards=1)
        resharded, _ = _run_server(trace, _meancache_factory(encoder), n_shards=7)
        assert _decision_stream(baseline.outcomes) == _decision_stream(
            resharded.outcomes
        )

    def test_precomputed_embeddings_preserve_decisions(self, trace):
        """The cross-user batched embed changes grouping, not decisions.

        One encoder call per flush slices rows per cache, so the GEMM batch
        composition differs from per-cache encoding — similarities may move
        at float rounding scale, decisions must not.
        """
        encoder = make_tiny_encoder()
        plain, _ = _run_server(trace, _meancache_factory(encoder))
        fused, server = _run_server(
            trace, _meancache_factory(encoder), encoder=encoder
        )
        plain_stream = _decision_stream(plain.outcomes)
        fused_stream = _decision_stream(fused.outcomes)
        assert fused_stream["hits"] == plain_stream["hits"]
        assert fused_stream["responses"] == plain_stream["responses"]
        assert fused_stream["matches"] == plain_stream["matches"]
        for fused_hex, plain_hex in zip(fused_stream["sims"], plain_stream["sims"]):
            assert float.fromhex(fused_hex) == pytest.approx(
                float.fromhex(plain_hex), abs=1e-9
            )

    def test_no_probe_sees_a_demotion_from_its_own_flush(self):
        """``a``'s enrolment of Y demotes X into the shared tier; ``b``'s probe
        for X in the same window must miss on both frontends, even when the
        server runs ``a``'s shard slice first."""
        encoder = make_tiny_encoder()
        events = [
            WorkloadEvent(0.0, "a", CROSS_SHARD_X),
            WorkloadEvent(10.0, "a", CROSS_SHARD_Y),
            WorkloadEvent(10.01, "b", CROSS_SHARD_X),
        ]
        trace = Trace(events, n_users=2)
        sim_factory, _, _ = _one_entry_l1s(encoder)
        srv_factory, _, _ = _one_entry_l1s(encoder)
        sim_result = _run_oracle(trace, sim_factory)
        srv_result, server = _run_server(trace, srv_factory)
        assert server.shard_of("a") != server.shard_of("b")
        self.assert_identical_streams(sim_result, srv_result, len(trace))
        assert [o.hit for o in sorted(srv_result.outcomes, key=_event_key)] == [
            False, False, False
        ]

    def test_an_entry_matched_by_two_caches_moves_into_the_earliest(self):
        """Both probes of a tier entry are served it; the entry is popped
        once, into the L1 of the earlier arrival — ``b``, whose shard slice
        the server runs second (``c`` opened ``a``'s shard first)."""
        encoder = make_tiny_encoder()
        events = [
            WorkloadEvent(0.0, "c", CROSS_SHARD_Y),
            WorkloadEvent(0.01, "b", CROSS_SHARD_X),
            WorkloadEvent(0.02, "a", CROSS_SHARD_X),
        ]
        trace = Trace(events, n_users=3)
        results = []
        for run in (_run_oracle, lambda t, f: _run_server(t, f)[0]):
            factory, tier, caches = _one_entry_l1s(encoder)
            embedding, _ = MeanCache(encoder).embed(CROSS_SHARD_X)
            x_id = tier.insert(CROSS_SHARD_X, "answer X", embedding)
            pops = []
            pop = tier.pop
            tier.pop = lambda entry_id: pops.append(entry_id) or pop(entry_id)
            result = run(trace, factory)
            hits = {o.event.user_id: o for o in result.outcomes}
            assert hits["a"].hit and hits["b"].hit and not hits["c"].hit
            assert hits["a"].response == hits["b"].response == "answer X"
            assert pops == [x_id] and x_id not in tier
            assert [e.query for e in caches["b"].l1.entries] == [CROSS_SHARD_X]
            assert [e.query for e in caches["a"].l1.entries] == []
            results.append(result)
        self.assert_identical_streams(*results, len(trace))

    def test_every_promotion_lands_before_any_enrolment(self):
        """``b``'s probe matches X in the full one-entry tier; ``c``, which
        arrived first and whose shard slice the server runs first, enrols Z
        and so demotes W into that tier.  On both frontends X moves into
        ``b``'s L1 before W arrives, so ``b``'s re-ask of X in a later
        window hits in L1 — W's demotion never evicts X from the hierarchy."""
        encoder = make_tiny_encoder()
        events = [
            WorkloadEvent(0.0, "c", CROSS_SHARD_Z),
            WorkloadEvent(0.01, "b", CROSS_SHARD_X),
            WorkloadEvent(10.0, "b", CROSS_SHARD_X),
        ]
        trace = Trace(events, n_users=2)
        results, servers = [], []

        def run_server(trace, factory):
            result, server = _run_server(trace, factory)
            servers.append(server)
            return result

        for run in (_run_oracle, run_server):
            factory, tier, caches = _one_entry_l1s(encoder, tier_entries=1)
            embedding, _ = MeanCache(encoder).embed(CROSS_SHARD_X)
            tier.insert(CROSS_SHARD_X, "answer X", embedding)
            factory("c").insert(CROSS_SHARD_Y, "answer W")
            result = run(trace, factory)
            served = [(o.event.user_id, o.hit) for o in sorted(result.outcomes, key=_event_key)]
            assert served == [("b", True), ("b", True), ("c", False)]
            assert [e.query for e in tier.entries] == [CROSS_SHARD_Y]
            assert [e.query for e in caches["b"].l1.entries] == [CROSS_SHARD_X]
            assert caches["b"].l1.stats.hits == 1
            results.append(result)
        (server,) = servers
        assert server.shard_of("b") != server.shard_of("c")
        self.assert_identical_streams(*results, len(trace))

    def test_golden_fixture_pin(self):
        """Both frontends still reproduce the committed decision stream."""
        golden = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        assert golden["trace_seed"] == TRACE_SEED
        current = collect_parity_summary()
        assert current == golden


if __name__ == "__main__":
    FIXTURE_PATH.write_text(
        json.dumps(collect_parity_summary(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE_PATH}")
