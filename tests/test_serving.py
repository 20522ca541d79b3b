"""Tests for the serving subsystem (workload generation, fleet replay)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_tiny_encoder

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.experiments.fleet_bench import run_drift_adaptation_bench, run_fleet_bench
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving import (
    ArrivalSchedule,
    BatchExecutor,
    CacheServer,
    DriftPhase,
    ServerConfig,
    Trace,
    WorkloadConfig,
    WorkloadEvent,
    WorkloadGenerator,
    apply_arrival_schedule,
    iter_windows,
)

pytestmark = pytest.mark.concurrency


@pytest.fixture(scope="module")
def small_trace():
    config = WorkloadConfig(
        n_users=6, queries_per_user=12, duplicate_rate=0.4, followup_rate=0.3
    )
    return WorkloadGenerator(config, seed=42).generate()


def _meancache_factory(encoder, threshold=0.8):
    return lambda user_id: MeanCache(
        encoder, MeanCacheConfig(similarity_threshold=threshold)
    )


class TestWorkloadGenerator:
    def test_trace_shape_and_order(self, small_trace):
        assert len(small_trace) == 6 * 12
        assert small_trace.n_users == 6
        times = [e.time_s for e in small_trace]
        assert times == sorted(times)
        assert len(small_trace.user_ids) == 6

    def test_deterministic_generation(self, small_trace):
        config = WorkloadConfig(
            n_users=6, queries_per_user=12, duplicate_rate=0.4, followup_rate=0.3
        )
        again = WorkloadGenerator(config, seed=42).generate()
        assert again.to_dict() == small_trace.to_dict()

    def test_per_user_streams_independent_of_fleet_size(self):
        """User k's stream must not change when more users join the fleet."""
        small = WorkloadGenerator(WorkloadConfig(n_users=3, queries_per_user=8), seed=7)
        large = WorkloadGenerator(WorkloadConfig(n_users=10, queries_per_user=8), seed=7)
        uid = small.user_id(2)
        events_small = small.generate().events_for_user(uid)
        events_large = large.generate().events_for_user(uid)
        assert [e.to_dict() for e in events_small] == [e.to_dict() for e in events_large]

    def test_duplicate_and_followup_traffic_present(self, small_trace):
        kinds = {e.kind for e in small_trace}
        assert kinds == {"unique", "duplicate"}
        followups = [e for e in small_trace if e.is_followup]
        assert followups, "expected some conversational follow-ups"
        for event in followups:
            assert event.context  # follow-ups carry their chain
            assert len(event.context) <= 3

    def test_duplicates_reask_past_intents(self, small_trace):
        for uid in small_trace.user_ids:
            seen = set()
            for event in small_trace.events_for_user(uid):
                if event.kind == "duplicate":
                    assert event.intent_key in seen
                seen.add(event.intent_key)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_users=0)
        with pytest.raises(ValueError):
            WorkloadConfig(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_rate_qps=0.0)

    def test_trace_json_roundtrip(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.json")
        loaded = Trace.load(path)
        assert loaded.to_dict() == small_trace.to_dict()
        assert loaded.duration_s == small_trace.duration_s


def _trace_digest(trace: Trace) -> str:
    return hashlib.sha256(
        json.dumps(trace.to_dict(), sort_keys=True).encode()
    ).hexdigest()


class TestArrivalSchedules:
    #: sha256 of the canonical seed-0 / seed-42 stationary traces, pinned
    #: *before* the arrival-schedule refactor.  If either digest moves, an
    #: extension has perturbed the per-user seeded draw sequence — the exact
    #: regression the schedule layer is designed (post-hoc time warping,
    #: zero RNG draws) to make structurally impossible.
    GOLDEN = {
        0: "0443ef85abce48b9f21fd8de67e26dd6e55353c0b4ab7d4a91c21d4baef220d2",
        42: "e55e6c6a0e82cabde20c5cfdd30c6720d46dc5b54cfcb8092f2f24000a0be53d",
    }
    GOLDEN_CONFIG = dict(
        n_users=4, queries_per_user=25, duplicate_rate=0.35, followup_rate=0.25
    )

    def test_stationary_stream_matches_pre_refactor_golden_digests(self):
        for seed, digest in self.GOLDEN.items():
            trace = WorkloadGenerator(
                WorkloadConfig(**self.GOLDEN_CONFIG), seed=seed
            ).generate()
            assert _trace_digest(trace) == digest, (
                f"seed {seed}: stationary workload no longer byte-identical "
                "to the pre-arrival-schedule generator"
            )

    def test_schedule_off_is_byte_identical(self):
        """No schedule configured -> trace identical, metadata untouched."""
        base = WorkloadGenerator(WorkloadConfig(**self.GOLDEN_CONFIG), seed=0)
        trace = base.generate()
        assert "arrival_schedule" not in trace.metadata
        assert _trace_digest(trace) == self.GOLDEN[0]

    def test_constant_schedule_is_identity_on_times(self):
        trace = WorkloadGenerator(WorkloadConfig(**self.GOLDEN_CONFIG), seed=0).generate()
        warped = apply_arrival_schedule(trace, ArrivalSchedule(kind="constant"))
        assert [e.time_s for e in warped] == pytest.approx(
            [e.time_s for e in trace], abs=1e-9
        )

    def test_warp_preserves_contents_and_order(self):
        trace = WorkloadGenerator(
            WorkloadConfig(n_users=5, queries_per_user=20), seed=3
        ).generate()
        schedule = ArrivalSchedule(kind="diurnal", period_s=60.0, amplitude=0.7)
        warped = apply_arrival_schedule(trace, schedule)
        assert len(warped) == len(trace)
        strip = lambda e: {k: v for k, v in e.to_dict().items() if k != "time_s"}
        # Content is untouched; only arrival times move.
        assert sorted(map(json.dumps, map(strip, warped))) == sorted(
            map(json.dumps, map(strip, trace))
        )
        times = [e.time_s for e in warped]
        assert times == sorted(times)
        assert warped.metadata["arrival_schedule"] == schedule.to_dict()

    def test_flash_crowd_compresses_the_burst_window(self):
        trace = WorkloadGenerator(
            WorkloadConfig(n_users=6, queries_per_user=25), seed=1
        ).generate()
        schedule = ArrivalSchedule(
            kind="flash_crowd",
            flash_at_s=20.0,
            flash_duration_s=30.0,
            flash_multiplier=10.0,
        )
        warped = apply_arrival_schedule(trace, schedule)
        # 10x the rate inside the flash window => arrivals pile into it.
        in_flash = sum(1 for e in warped if 20.0 <= e.time_s <= 50.0)
        in_same_band = sum(1 for e in trace if 20.0 <= e.time_s <= 50.0)
        assert in_flash > in_same_band
        assert warped.duration_s < trace.duration_s

    def test_generate_with_schedule_equals_post_hoc_warp(self):
        schedule = ArrivalSchedule(kind="diurnal", period_s=90.0, amplitude=0.5)
        config = WorkloadConfig(**self.GOLDEN_CONFIG)
        direct = WorkloadGenerator(
            WorkloadConfig(**self.GOLDEN_CONFIG, arrival_schedule=schedule), seed=0
        ).generate()
        post_hoc = apply_arrival_schedule(
            WorkloadGenerator(config, seed=0).generate(), schedule
        )
        assert direct.to_dict() == post_hoc.to_dict()

    def test_schedule_serialization_round_trip(self):
        schedule = ArrivalSchedule(
            kind="flash_crowd", flash_at_s=10.0, flash_duration_s=5.0, flash_multiplier=4.0
        )
        assert ArrivalSchedule.from_dict(schedule.to_dict()) == schedule

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(kind="lunar")
        with pytest.raises(ValueError):
            ArrivalSchedule(kind="diurnal", amplitude=1.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(kind="flash_crowd", flash_multiplier=0.5)
        with pytest.raises(ValueError):
            ArrivalSchedule(kind="diurnal", period_s=0.0)


class TestDriftScenarios:
    BASE = dict(n_users=5, queries_per_user=40, duplicate_rate=0.4, followup_rate=0.2)

    def test_no_drift_knobs_reproduce_stationary_stream(self):
        """Drift plumbing must not perturb the default RNG draw sequence."""
        plain = WorkloadGenerator(WorkloadConfig(**self.BASE), seed=9).generate()
        wired = WorkloadGenerator(
            WorkloadConfig(**self.BASE, drift_phases=(), churn_fraction=0.0),
            seed=9,
        ).generate()
        assert [e.to_dict() for e in wired] == [e.to_dict() for e in plain]

    def test_duplicate_rate_shift_applies_mid_stream(self):
        config = WorkloadConfig(
            **self.BASE,
            drift_phases=(DriftPhase(start_fraction=0.5, duplicate_rate=0.0),),
        )
        trace = WorkloadGenerator(config, seed=9).generate()
        for uid in trace.user_ids:
            events = trace.events_for_user(uid)
            second_half = events[len(events) // 2 :]
            assert all(e.kind == "unique" for e in second_half)

    def test_pre_changepoint_stream_unchanged(self):
        """Events before the first phase boundary are identical to the
        stationary stream (drift only consumes RNG from the boundary on)."""
        plain = WorkloadGenerator(WorkloadConfig(**self.BASE), seed=9).generate()
        drifted = WorkloadGenerator(
            WorkloadConfig(
                **self.BASE,
                drift_phases=(
                    DriftPhase(
                        start_fraction=0.5, redraw_domain_mix=True, paraphrase_bias=0.0
                    ),
                ),
            ),
            seed=9,
        ).generate()
        cut = self.BASE["queries_per_user"] // 2
        for uid in plain.user_ids:
            before_plain = [e.to_dict() for e in plain.events_for_user(uid)[:cut]]
            before_drift = [e.to_dict() for e in drifted.events_for_user(uid)[:cut]]
            assert before_plain == before_drift
        # ...and the redraw/bias change actually alters the second half.
        assert [e.to_dict() for e in plain] != [e.to_dict() for e in drifted]

    def test_paraphrase_bias_extremes_change_realisations(self):
        """Bias 1.0 always keeps the canonical noun; bias 0.0 never does."""
        from repro.datasets.corpus import Corpus

        corpus = Corpus(seed=0)
        intent = next(
            i for i in corpus.intents if len(corpus.object_synonyms(i)) > 1
        )
        synonyms = corpus.object_synonyms(intent)
        for trial in range(10):
            rng = np.random.default_rng(trial)
            assert intent.obj in corpus.realize(intent, rng=rng, object_bias=1.0)
            rng = np.random.default_rng(trial)
            text = corpus.realize(intent, rng=rng, object_bias=0.0)
            assert intent.obj == synonyms[0]
            assert any(s in text for s in synonyms[1:])
        # The workload threads the knob through to its realisations.
        biased = WorkloadGenerator(
            WorkloadConfig(**self.BASE, paraphrase_bias=0.0), seed=9
        ).generate()
        default = WorkloadGenerator(WorkloadConfig(**self.BASE), seed=9).generate()
        assert [e.query for e in biased] != [e.query for e in default]

    def test_churn_replaces_users_with_cold_start_successors(self):
        config = WorkloadConfig(
            **self.BASE, churn_fraction=1.0, churn_point=0.5
        )
        trace = WorkloadGenerator(config, seed=9).generate()
        originals = [u for u in trace.user_ids if not u.endswith("-r")]
        successors = [u for u in trace.user_ids if u.endswith("-r")]
        assert len(originals) == len(successors) == config.n_users
        cut = config.queries_per_user // 2
        for uid in originals:
            assert len(trace.events_for_user(uid)) == cut
            successor_events = trace.events_for_user(f"{uid}-r")
            assert len(successor_events) == config.queries_per_user - cut
            # Cold start: a successor's first event cannot re-ask history.
            assert successor_events[0].kind == "unique"
            # Successors inherit the original's timeline (later arrivals).
            assert successor_events[0].time_s > trace.events_for_user(uid)[-1].time_s

    def test_churn_fraction_zero_never_splits_users(self):
        trace = WorkloadGenerator(
            WorkloadConfig(**self.BASE, churn_fraction=0.0), seed=9
        ).generate()
        assert all(not u.endswith("-r") for u in trace.user_ids)

    def test_same_index_phases_merge_field_by_field(self):
        """Phases rounding to the same query index must all apply — an
        unset field keeps the earlier phase's override, as documented."""
        config = WorkloadConfig(
            **self.BASE,
            drift_phases=(
                DriftPhase(start_fraction=0.50, duplicate_rate=0.0),
                # 0.51 * 40 rounds to the same index 20 as 0.50 * 40.
                DriftPhase(start_fraction=0.51, paraphrase_bias=0.1),
            ),
        )
        trace = WorkloadGenerator(config, seed=9).generate()
        cut = self.BASE["queries_per_user"] // 2
        for uid in trace.user_ids:
            # The earlier phase's duplicate_rate=0.0 still applies.
            assert all(e.kind == "unique" for e in trace.events_for_user(uid)[cut:])

    def test_boundary_fraction_one_still_applies(self):
        """start_fraction=1.0 / churn_point=1.0 clamp to the final query
        instead of silently falling past the stream."""
        phased = WorkloadGenerator(
            WorkloadConfig(
                **self.BASE,
                drift_phases=(DriftPhase(start_fraction=1.0, duplicate_rate=0.0),),
            ),
            seed=9,
        ).generate()
        for uid in phased.user_ids:
            assert phased.events_for_user(uid)[-1].kind == "unique"
        churned = WorkloadGenerator(
            WorkloadConfig(**self.BASE, churn_fraction=1.0, churn_point=1.0), seed=9
        ).generate()
        successors = [u for u in churned.user_ids if u.endswith("-r")]
        assert len(successors) == self.BASE["n_users"]
        for uid in successors:
            assert len(churned.events_for_user(uid)) == 1  # the final slot

    def test_fleet_result_counts_churned_successors(self, tiny_encoder):
        trace = WorkloadGenerator(
            WorkloadConfig(**self.BASE, churn_fraction=1.0, churn_point=0.5), seed=9
        ).generate()
        simulator = CacheServer(
            _meancache_factory(tiny_encoder),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(trace)
        assert result.n_users == len(trace.user_ids) == 2 * self.BASE["n_users"]
        assert set(result.per_user) == set(trace.user_ids)

    def test_drift_metadata_round_trips(self, tmp_path):
        config = WorkloadConfig(
            **self.BASE,
            paraphrase_bias=0.8,
            drift_phases=(DriftPhase(start_fraction=0.5, duplicate_rate=0.6),),
            churn_fraction=0.25,
        )
        trace = WorkloadGenerator(config, seed=9).generate()
        assert trace.metadata["churn_fraction"] == 0.25
        assert trace.metadata["paraphrase_bias"] == 0.8
        assert trace.metadata["drift_phases"][0]["duplicate_rate"] == 0.6
        loaded = Trace.load(trace.save(tmp_path / "drift.json"))
        assert loaded.metadata == trace.metadata

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftPhase(start_fraction=1.5)
        with pytest.raises(ValueError):
            DriftPhase(start_fraction=0.5, duplicate_rate=2.0)
        with pytest.raises(ValueError):
            DriftPhase(start_fraction=0.5, paraphrase_bias=-0.1)
        with pytest.raises(ValueError):
            WorkloadConfig(
                **self.BASE,
                drift_phases=(
                    DriftPhase(start_fraction=0.8),
                    DriftPhase(start_fraction=0.2),
                ),
            )
        with pytest.raises(ValueError):
            WorkloadConfig(**self.BASE, churn_fraction=1.2)
        with pytest.raises(ValueError):
            WorkloadConfig(**self.BASE, paraphrase_bias=1.2)


class TestFleetReplay:
    def test_negative_window_is_rejected(self, small_trace, tiny_encoder):
        server = CacheServer(
            _meancache_factory(tiny_encoder),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        with pytest.raises(ValueError, match="batch_window_s"):
            server.replay(small_trace, -0.1)
        assert server.metrics.flushes == 0 and server.n_users == 0

    def test_per_user_and_fleet_aggregation(self, small_trace, tiny_encoder):
        service = SimulatedLLMService(LLMServiceConfig(seed=0))
        simulator = CacheServer(
            _meancache_factory(tiny_encoder), service, ServerConfig()
        )
        result = simulator.replay(small_trace)
        assert result.n_events == len(small_trace)
        assert set(result.per_user) == set(small_trace.user_ids)
        assert result.lookups == len(small_trace)
        assert result.hits == sum(u.hits for u in result.per_user.values())
        assert 0.0 <= result.hit_rate < 1.0
        assert result.total_cost_usd > 0
        assert result.throughput_lookups_per_s > 0
        assert result.virtual_duration_s >= small_trace.duration_s
        # Misses (and only misses) reached the shared service.
        assert service.stats.n_requests == result.lookups - result.hits

    def test_replay_is_deterministic(self, small_trace, tiny_encoder):
        def run_once():
            simulator = CacheServer(
                _meancache_factory(tiny_encoder),
                SimulatedLLMService(LLMServiceConfig(seed=0)),
                ServerConfig(),
            )
            return simulator.replay(small_trace)

        a, b = run_once(), run_once()
        assert a.hit_rate == b.hit_rate
        assert a.total_cost_usd == b.total_cost_usd
        for uid in a.per_user:
            assert a.per_user[uid].llm_latency_s == b.per_user[uid].llm_latency_s
            assert a.per_user[uid].hits == b.per_user[uid].hits

    def test_batch_window_does_not_change_classification(self, small_trace, tiny_encoder):
        """Batched scheduling is an amortization, not a semantics change.

        Classification alone (:meth:`BatchExecutor.lookup`, which enrols
        nothing) must be identical under any window width.  (A replay also
        enrols, and windowing legitimately delays intra-window enrolment —
        a probe cannot hit an entry enrolled by an earlier probe of the same
        window — so its decisions are only window-invariant when no such
        pair occurs.)
        """
        # Each user's cache starts with the first half of the user's events.
        warm = {}
        for event in small_trace:
            warm.setdefault(event.user_id, [])
            if len(warm[event.user_id]) < 6:
                warm[event.user_id].append(event)

        def factory(user_id):
            cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.8))
            cache.populate(
                [e.query for e in warm[user_id]], contexts=[e.context for e in warm[user_id]]
            )
            return cache

        def classify_with_window(width):
            executor = BatchExecutor(factory, SimulatedLLMService(LLMServiceConfig(seed=0)))
            hits = {}
            for window in iter_windows(small_trace, width):
                decisions, held = executor.lookup(window)
                assert not held  # no tiered cache, so no tier probe
                # Keyed by (user, time): grouping differs, decisions must not.
                hits.update(
                    ((e.user_id, e.time_s), d.hit) for e, d in zip(window, decisions)
                )
            return hits

        tight = classify_with_window(0.0)
        wide = classify_with_window(5.0)
        assert len(tight) == len(small_trace)
        assert tight == wide
        assert any(tight.values()) and not all(tight.values())

    def test_every_miss_enrols_in_the_user_cache(self, small_trace, tiny_encoder):
        caches = {}

        def factory(user_id):
            caches[user_id] = MeanCache(
                tiny_encoder, MeanCacheConfig(similarity_threshold=0.8)
            )
            return caches[user_id]

        simulator = CacheServer(
            factory,
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(small_trace)
        assert set(caches) == set(small_trace.user_ids)
        for uid, cache in caches.items():
            stats = result.per_user[uid]
            assert len(cache) == stats.llm_requests  # every miss was enrolled

    def test_enrolment_reuses_lookup_embeddings(self):
        """A miss's enrolment reuses the Embed stage's output — no re-encode."""

        class CountingEncoder:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def encode(self, texts, compress=True):
                self.calls += 1
                return self.inner.encode(texts, compress=compress)

        encoder = CountingEncoder(make_tiny_encoder())
        cache = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8))
        decision = cache.lookup("how can i sort a list in python")
        assert not decision.hit and decision.embedding is not None
        assert encoder.calls == 1
        cache.enroll(decision.query, "use sorted()", embedding=decision.embedding)
        assert encoder.calls == 1  # enrolment did not re-encode
        assert len(cache) == 1
        assert cache.lookup("how can i sort a list in python").hit

    def test_hits_verified_against_intent_oracle(self, small_trace, tiny_encoder):
        simulator = CacheServer(
            _meancache_factory(tiny_encoder, threshold=0.6),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(small_trace, collect_outcomes=True)
        hits = [o for o in result.outcomes if o.hit]
        assert hits, "expected some hits at a permissive threshold"
        # Every hit on generator traffic is verifiable (intent keys present
        # and the matched entry was enrolled in-simulation).
        assert all(o.verified is not None for o in hits)
        # Nothing-retrieved misses have no candidate to verify against.
        assert all(
            o.verified is None for o in result.outcomes if not o.hit and o.similarity == 0.0
        )
        assert result.true_hits + result.false_hits == result.hits
        assert result.false_hit_rate == pytest.approx(result.false_hits / result.lookups)
        # Verified-correct hits really did match the probe's intent.
        intent_of = {}
        for event in small_trace:
            intent_of[(event.user_id, event.query)] = event.intent_key
        for outcome in hits:
            expected = intent_of.get((outcome.event.user_id, outcome.matched_query))
            if expected is not None:
                assert outcome.verified == (expected == outcome.event.intent_key)

    def test_outcomes_carry_similarity_and_matched_query(self, small_trace, tiny_encoder):
        simulator = CacheServer(
            _meancache_factory(tiny_encoder),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(small_trace, collect_outcomes=True)
        for outcome in result.outcomes:
            assert 0.0 <= outcome.similarity <= 1.0 + 1e-9
            if outcome.hit:
                assert outcome.matched_query is not None
                assert outcome.similarity >= 0.8  # the fixture's τ

    def test_per_user_baseline_config_rides_along(self, small_trace, tiny_encoder):
        simulator = CacheServer(
            lambda uid: MeanCache(tiny_encoder, GPTCACHE_CONFIG),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(small_trace)
        assert result.lookups == len(small_trace)
        assert 0.0 <= result.hit_rate <= 1.0

    def test_shared_central_cache_variant(self, small_trace, tiny_encoder):
        """One cache in the GPTCache configuration for the whole fleet
        (central deployment)."""
        central = MeanCache(tiny_encoder, replace(GPTCACHE_CONFIG, similarity_threshold=0.8))
        simulator = CacheServer(
            lambda uid: central,
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(small_trace)
        assert result.lookups == len(small_trace)
        assert len(central) == result.lookups - result.hits
        assert (central.stats.lookups, central.stats.hits) == (result.lookups, result.hits)

    def test_no_causality_inversion_on_shared_cache(self, tiny_encoder):
        """An event must never hit an entry enrolled by a later arrival.

        All of a window's lookups complete before any of its misses enrol,
        so B's t=0.02 probe cannot match the entry A enrols at t=0.24 even
        though both land in the same batch window of a shared cache.
        """
        q = "how can i sort a list in python"
        events = [
            WorkloadEvent(time_s=0.01, user_id="user-a", query="plan a trip to japan"),
            WorkloadEvent(time_s=0.02, user_id="user-b", query=q),
            WorkloadEvent(time_s=0.24, user_id="user-a", query=q),
        ]
        trace = Trace(events=events, n_users=2)
        central = MeanCache(tiny_encoder, replace(GPTCACHE_CONFIG, similarity_threshold=0.8))
        simulator = CacheServer(
            lambda uid: central,
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
        )
        result = simulator.replay(trace, 0.25, collect_outcomes=True)
        assert [o.hit for o in result.outcomes] == [False, False, False]
        assert len(central) == 3  # every miss enrolled, duplicates included


class TestFleetBench:
    def test_small_fleet_bench_points(self):
        result = run_fleet_bench(
            user_counts=(3, 5),
            queries_per_user=4,
            encoder=make_tiny_encoder(),
            encoder_name="tiny",
            seed=0,
        )
        assert [p.n_users for p in result.points] == [3, 5]
        for point in result.points:
            assert point.n_lookups == point.n_users * 4
            assert point.throughput_lookups_per_s > 0
        assert "Fleet serving benchmark" in result.format()
        payload = result.to_dict()
        assert payload["encoder_name"] == "tiny"
        assert len(payload["points"]) == 2
        with pytest.raises(KeyError):
            result.point(99)

    def test_small_drift_adaptation_bench(self):
        """Structural check at toy scale (the dominance floors live in
        benchmarks/test_bench_fleet.py at full scale)."""
        result = run_drift_adaptation_bench(
            n_users=6,
            queries_per_user=30,
            encoder=make_tiny_encoder(),
            encoder_name="tiny",
            seed=0,
        )
        assert result.static.label == "static"
        assert result.adaptive.label == "adaptive"
        assert result.static.n_lookups == result.adaptive.n_lookups == 6 * 30
        assert result.n_rounds > 0
        assert len(result.threshold_trajectory) == result.n_rounds
        assert 0.0 <= result.adaptive.false_hit_rate <= result.adaptive.hit_rate
        payload = result.to_dict()
        assert payload["workload"]["metadata"]["drift_phases"]
        assert payload["adaptation"]["round_interval_s"] > 0
        assert payload["static"]["hit_rate"] == pytest.approx(result.static.hit_rate)
        assert "Online federated" in result.format()
