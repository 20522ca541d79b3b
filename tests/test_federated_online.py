"""Tests for the online federated threshold adaptation loop.

Covers the adapter in isolation (mining rules, recency windows, round
driver, personalization, clamping) and integrated with ``CacheServer.replay``
(live τ pushes, determinism under a fixed seed, variant tolerance).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tiny_encoder

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.federated.online import (
    MinedPair,
    OnlineAdaptationConfig,
    OnlineThresholdAdapter,
)
from repro.federated.sampling import ClientSampler
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving import (
    CacheServer,
    DriftPhase,
    ServerConfig,
    WorkloadConfig,
    WorkloadGenerator,
)
from scenario_traces import FloodingConfig, build_flooding_trace

pytestmark = pytest.mark.concurrency


class _RecordingCache:
    """Minimal cache stand-in recording every pushed threshold."""

    def __init__(self) -> None:
        self.pushed = []

    def set_threshold(self, tau: float) -> None:
        self.pushed.append(tau)

    @property
    def threshold(self):
        return self.pushed[-1] if self.pushed else None


class _FirstClientsSampler(ClientSampler):
    """Picks the first ``n`` client ids, so a test chooses the participant."""

    def sample(self, client_ids, n, round_number):
        return list(client_ids[: self._check(client_ids, n)])


def _observe_batch(adapter, user_id, observations):
    """Feed (similarity, hit, verified) triples into the adapter."""
    for i, (sim, hit, verified) in enumerate(observations):
        adapter.observe(
            user_id,
            similarity=sim,
            hit=hit,
            verified=verified,
            query=f"q{i}",
            matched_query=f"m{i}",
            time_s=float(i),
        )


def _separable_observations(n_pos=12, n_neg=12, pos=0.85, neg=0.45):
    obs = []
    for i in range(n_pos):
        obs.append((pos + 0.001 * i, True, True))
    for i in range(n_neg):
        obs.append((neg + 0.001 * i, False, False))
    return obs


class TestConfigValidation:
    def test_defaults_valid(self):
        OnlineAdaptationConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"round_interval_s": 0.0},
            {"clients_per_round": 0},
            {"min_observations": 1},
            {"max_observations": 4, "min_observations": 8},
            {"observation_ttl_s": 0.0},
            {"miss_margin": -0.1},
            {"threshold_grid": 1},
            {"personalization": 1.5},
            {"initial_threshold": 2.0},
            {"min_threshold": 0.8, "max_threshold": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OnlineAdaptationConfig(**kwargs)


class TestMining:
    def _adapter(self, **kwargs):
        config = OnlineAdaptationConfig(
            round_interval_s=10.0, min_observations=4, **kwargs
        )
        adapter = OnlineThresholdAdapter(config)
        adapter.register_user("u0", _RecordingCache())
        return adapter

    def test_verified_hits_and_false_hits_are_mined(self):
        adapter = self._adapter()
        adapter.observe("u0", similarity=0.9, hit=True, verified=True, query="a")
        adapter.observe("u0", similarity=0.72, hit=True, verified=False, query="b")
        pairs = adapter.mined_pairs("u0")
        assert [(p.label, p.source) for p in pairs] == [(True, "hit"), (False, "hit")]

    def test_unverifiable_outcomes_are_skipped(self):
        adapter = self._adapter()
        adapter.observe("u0", similarity=0.9, hit=True, verified=None)
        adapter.observe("u0", similarity=0.6, hit=False, verified=None)
        assert adapter.mined_pairs("u0") == []

    def test_near_threshold_misses_only(self):
        adapter = self._adapter(miss_margin=0.1)
        # τ starts at 0.7: mined iff similarity >= 0.6.
        adapter.observe("u0", similarity=0.65, hit=False, verified=True)
        adapter.observe("u0", similarity=0.35, hit=False, verified=False)
        pairs = adapter.mined_pairs("u0")
        assert len(pairs) == 1
        assert pairs[0].similarity == pytest.approx(0.65)
        assert pairs[0].label is True and pairs[0].source == "miss"

    def test_followup_misses_skipped_by_default(self):
        adapter = self._adapter()
        adapter.observe("u0", similarity=0.68, hit=False, verified=True, followup=True)
        assert adapter.mined_pairs("u0") == []
        adapter.observe("u0", similarity=0.95, hit=True, verified=True, followup=True)
        assert len(adapter.mined_pairs("u0")) == 1  # followup *hits* still mined

    def test_followup_misses_mined_when_enabled(self):
        adapter = self._adapter(mine_followup_misses=True)
        adapter.observe("u0", similarity=0.68, hit=False, verified=True, followup=True)
        assert len(adapter.mined_pairs("u0")) == 1

    def test_unknown_user_ignored(self):
        adapter = self._adapter()
        adapter.observe("ghost", similarity=0.9, hit=True, verified=True)
        assert adapter.mined_pairs("ghost") == []

    def test_count_window_evicts_oldest(self):
        adapter = self._adapter(max_observations=4)
        _observe_batch(adapter, "u0", [(0.9, True, True)] * 6)
        pairs = adapter.mined_pairs("u0")
        assert len(pairs) == 4
        assert pairs[0].query == "q2"  # the two oldest aged out


class TestRoundDriver:
    def _config(self, **kwargs):
        defaults = dict(
            round_interval_s=10.0,
            clients_per_round=4,
            min_observations=4,
            personalization=1.0,
            initial_threshold=0.7,
            seed=0,
        )
        defaults.update(kwargs)
        return OnlineAdaptationConfig(**defaults)

    def test_rounds_fire_on_the_virtual_clock(self):
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        assert adapter.advance(9.9) == []
        assert len(adapter.advance(10.0)) == 1
        assert len(adapter.advance(45.0)) == 3  # catches up: t=20, 30, 40
        assert [r.time_s for r in adapter.history] == [10.0, 20.0, 30.0, 40.0]

    def test_local_sweep_moves_global_and_pushes_live(self):
        cache = _RecordingCache()
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", cache)
        _observe_batch(adapter, "u0", _separable_observations())
        (round_,) = adapter.advance(10.0)
        assert round_.participants == ["u0"]
        assert "u0" in round_.local_thresholds
        # Positives at ~0.85, negatives at ~0.45: τ lands in the gap.
        assert 0.45 < adapter.global_threshold <= 0.85
        assert cache.pushed[-1] == pytest.approx(adapter.global_threshold)
        assert adapter.threshold_for("u0") == pytest.approx(cache.pushed[-1])

    def test_devices_below_min_observations_keep_global(self):
        adapter = OnlineThresholdAdapter(self._config(min_observations=50))
        cache = _RecordingCache()
        adapter.register_user("u0", cache)
        _observe_batch(adapter, "u0", _separable_observations())
        adapter.advance(10.0)
        assert adapter.global_threshold == pytest.approx(0.7)
        assert adapter.threshold_for("u0") == pytest.approx(0.7)

    def test_single_class_buffer_is_not_swept(self):
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        _observe_batch(adapter, "u0", [(0.9, True, True)] * 10)  # positives only
        (round_,) = adapter.advance(10.0)
        assert round_.local_thresholds == {}
        assert adapter.global_threshold == pytest.approx(0.7)

    def test_personalization_blend(self):
        config = self._config(personalization=0.5, clients_per_round=1)
        adapter = OnlineThresholdAdapter(config, sampler=_FirstClientsSampler())
        swept, idle = _RecordingCache(), _RecordingCache()
        adapter.register_user("u0", swept)
        adapter.register_user("u1", idle)
        _observe_batch(adapter, "u0", _separable_observations())
        (round_,) = adapter.advance(10.0)
        local = round_.local_thresholds["u0"]
        # One participant: global == its local optimum; the swept device
        # serves the (here degenerate) blend, the idle device the global.
        assert adapter.global_threshold == pytest.approx(local)
        assert adapter.threshold_for("u0") == pytest.approx(0.5 * local + 0.5 * local)
        assert adapter.threshold_for("u1") == pytest.approx(adapter.global_threshold)

    def test_shared_cache_gets_global_only(self):
        shared = _RecordingCache()
        adapter = OnlineThresholdAdapter(self._config(personalization=1.0))
        adapter.register_user("u0", shared)
        adapter.register_user("u1", shared)
        _observe_batch(adapter, "u0", _separable_observations())
        adapter.advance(10.0)
        assert shared.pushed[-1] == pytest.approx(adapter.global_threshold)

    def test_threshold_clamped(self):
        config = self._config(min_threshold=0.6, max_threshold=0.75)
        adapter = OnlineThresholdAdapter(config)
        cache = _RecordingCache()
        adapter.register_user("u0", cache)
        # All-positive scores down at 0.2 would drive τ to ~0: the clamp holds.
        _observe_batch(
            adapter, "u0", [(0.2, True, True)] * 8 + [(0.1, False, False)] * 8
        )
        adapter.advance(10.0)
        assert 0.6 <= adapter.threshold_for("u0") <= 0.75

    def test_observation_ttl_prunes_stale_pairs(self):
        config = self._config(observation_ttl_s=5.0)
        adapter = OnlineThresholdAdapter(config)
        adapter.register_user("u0", _RecordingCache())
        for i, (sim, hit, verified) in enumerate(_separable_observations(6, 6)):
            adapter.observe(
                "u0", similarity=sim, hit=hit, verified=verified, time_s=float(i)
            )
        adapter.advance(30.0)  # rounds at t=10, 20, 30
        # By the t=30 round (cutoff 25) every pair (t <= 11) is stale.
        assert adapter.mined_pairs("u0") == []
        assert adapter.history[-1].n_observations == 0
        # The t=10 round (cutoff 5) still saw the fresher half.
        assert adapter.history[0].n_observations > 0

    def test_trajectory_matches_history(self):
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        adapter.advance(35.0)
        trajectory = adapter.threshold_trajectory()
        assert list(trajectory["round"]) == [0, 1, 2]
        assert trajectory["threshold"].shape == (3,)

    def test_first_observation_far_from_the_origin_owes_no_backlog(self):
        """A clock that reads far from zero at the first observation (a live
        server's monotonic clock) starts the schedule at the next grid point."""
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        t0 = 1_000_003.0
        adapter.observe("u0", similarity=0.9, hit=True, verified=True, time_s=t0)
        assert adapter.advance(t0) == []
        assert adapter.advance(1_000_009.9) == []
        (round_,) = adapter.advance(1_000_010.0)
        assert round_.time_s == 1_000_010.0 and round_.round_number == 0

    def test_first_observation_on_a_grid_point_does_not_owe_it(self):
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        adapter.observe("u0", similarity=0.9, hit=True, verified=True, time_s=40.0)
        assert adapter.advance(40.0) == []
        assert [r.time_s for r in adapter.advance(50.0)] == [50.0]

    def test_later_observations_keep_the_schedule(self):
        """Only the first observation starts the clock: an idle gap after it
        is caught up round by round."""
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        adapter.observe("u0", similarity=0.9, hit=True, verified=True, time_s=2.0)
        adapter.observe("u0", similarity=0.9, hit=True, verified=True, time_s=100.0)
        assert [r.time_s for r in adapter.advance(100.0)] == [
            10.0 * k for k in range(1, 11)
        ]

    def test_round_records_serialize(self):
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("u0", _RecordingCache())
        _observe_batch(adapter, "u0", _separable_observations())
        (round_,) = adapter.advance(10.0)
        payload = round_.to_dict()
        assert payload["round_number"] == 0
        assert payload["participants"] == ["u0"]
        assert isinstance(payload["local_thresholds"], dict)


class TestFleetIntegration:
    @pytest.fixture(scope="class")
    def drift_trace(self):
        config = WorkloadConfig(
            n_users=6,
            queries_per_user=40,
            duplicate_rate=0.45,
            domain_concentration=0.3,
            drift_phases=(
                DriftPhase(start_fraction=0.5, duplicate_rate=0.6, paraphrase_bias=0.1),
            ),
        )
        return WorkloadGenerator(config, seed=21).generate()

    def _run(self, trace, tiny_encoder, adapter=None):
        simulator = CacheServer(
            lambda uid: MeanCache(
                tiny_encoder, MeanCacheConfig(similarity_threshold=0.7)
            ),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
            adaptation=adapter,
        )
        return simulator.replay(trace)

    def _adapter(self, seed=0):
        return OnlineThresholdAdapter(
            OnlineAdaptationConfig(
                round_interval_s=15.0,
                clients_per_round=6,
                min_observations=8,
                personalization=0.5,
                initial_threshold=0.7,
                seed=seed,
            )
        )

    def test_adaptation_runs_rounds_and_pushes_thresholds(self, drift_trace, tiny_encoder):
        adapter = self._adapter()
        result = self._run(drift_trace, tiny_encoder, adapter)
        assert result.lookups == len(drift_trace)
        assert len(adapter.history) > 5
        assert adapter.user_ids == drift_trace.user_ids
        assert any(adapter.mined_pairs(uid) for uid in adapter.user_ids)
        # At least one device must have moved off the cold-start τ.
        assert any(
            abs(adapter.threshold_for(uid) - 0.7) > 1e-9 for uid in adapter.user_ids
        )

    def test_fleet_adaptation_deterministic_under_fixed_seed(self, drift_trace, tiny_encoder):
        first_adapter = self._adapter(seed=4)
        first = self._run(drift_trace, tiny_encoder, first_adapter)
        second_adapter = self._adapter(seed=4)
        second = self._run(drift_trace, tiny_encoder, second_adapter)
        assert first.hit_rate == second.hit_rate
        assert first.false_hit_rate == second.false_hit_rate
        assert first_adapter.global_threshold == second_adapter.global_threshold
        assert [r.global_threshold for r in first_adapter.history] == [
            r.global_threshold for r in second_adapter.history
        ]
        assert [r.participants for r in first_adapter.history] == [
            r.participants for r in second_adapter.history
        ]
        for uid in first_adapter.user_ids:
            assert first_adapter.threshold_for(uid) == second_adapter.threshold_for(uid)

    def test_adaptive_threshold_reaches_live_cache_config(self, drift_trace, tiny_encoder):
        adapter = self._adapter()
        caches = {}

        def factory(uid):
            caches[uid] = MeanCache(
                tiny_encoder, MeanCacheConfig(similarity_threshold=0.7)
            )
            return caches[uid]

        simulator = CacheServer(
            factory,
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
            adaptation=adapter,
        )
        simulator.replay(drift_trace)
        for uid, cache in caches.items():
            # The config every lookup reads afresh (that the next probe is
            # admitted under it: test_pipeline.py::test_set_threshold_is_live).
            assert cache.config.similarity_threshold == pytest.approx(
                adapter.threshold_for(uid)
            )

    def test_shared_central_cache_is_pushed_the_global_threshold(
        self, drift_trace, tiny_encoder
    ):
        """One central cache in the GPTCache configuration for the whole
        fleet: every push it gets is the global τ, never a user's own."""
        adapter = self._adapter()
        central = MeanCache(tiny_encoder, GPTCACHE_CONFIG)
        simulator = CacheServer(
            lambda uid: central,
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
            adaptation=adapter,
        )
        result = simulator.replay(drift_trace)
        assert result.lookups == len(drift_trace)
        assert len(adapter.history) > 5
        assert central.config.similarity_threshold == pytest.approx(
            adapter.global_threshold
        )

    def test_mined_pairs_carry_texts_for_future_training(self, drift_trace, tiny_encoder):
        adapter = self._adapter()
        self._run(drift_trace, tiny_encoder, adapter)
        pairs = [p for uid in adapter.user_ids for p in adapter.mined_pairs(uid)]
        assert pairs
        for pair in pairs:
            assert isinstance(pair, MinedPair)
            assert pair.query
            assert pair.source in ("hit", "miss")
            assert 0.0 <= pair.similarity <= 1.0 + 1e-9


class TestAdversarialFloodResistance:
    """Near-miss flooding must never drive τ below the configured floor.

    The attack: adversarial devices issue weak-paraphrase re-asks whose
    similarities land in the near-threshold mining band as *positives*, so
    a local sweep prefers an ever-lower τ.  ``min_threshold`` is the
    defense — the clamp applies to the aggregated global τ and to every
    per-device value actually pushed into a live cache.
    """

    def _flood_observations(self, n=24, sim=0.30):
        # Verified-correct re-asks at adversarially low similarity, plus a
        # few true negatives so the buffer is sweepable: the sweep's
        # preferred τ sits far below any sane floor.
        obs = [(sim + 0.001 * i, True, True) for i in range(n)]
        obs += [(0.15 + 0.001 * i, False, False) for i in range(4)]
        return obs

    def _config(self, **kwargs):
        defaults = dict(
            round_interval_s=10.0,
            clients_per_round=8,
            min_observations=6,
            personalization=1.0,
            initial_threshold=0.7,
            min_threshold=0.6,
            seed=0,
        )
        defaults.update(kwargs)
        return OnlineAdaptationConfig(**defaults)

    def test_flooded_low_similarity_positives_cannot_cross_floor(self):
        cache = _RecordingCache()
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("flood-0", cache)
        _observe_batch(adapter, "flood-0", self._flood_observations())
        adapter.advance(10.0)
        # The sweep wanted τ ≈ 0.2; the floor holds everywhere it matters.
        assert adapter.global_threshold >= 0.6
        assert adapter.threshold_for("flood-0") >= 0.6
        assert all(tau >= 0.6 for tau in cache.pushed)

    def test_flooder_majority_cannot_drag_weighted_aggregate_below_floor(self):
        adapter = OnlineThresholdAdapter(self._config(weighted=True))
        honest = _RecordingCache()
        adapter.register_user("honest", honest)
        _observe_batch(adapter, "honest", _separable_observations())
        flood_caches = [_RecordingCache() for _ in range(5)]
        for i, cache in enumerate(flood_caches):
            adapter.register_user(f"flood-{i}", cache)
            # Big buffers: under weighted aggregation the flooders dominate.
            _observe_batch(adapter, f"flood-{i}", self._flood_observations(n=60))
        adapter.advance(10.0)
        assert adapter.global_threshold >= 0.6
        for cache in flood_caches + [honest]:
            assert all(tau >= 0.6 for tau in cache.pushed)

    def test_floor_holds_across_sustained_flooding_rounds(self):
        adapter = OnlineThresholdAdapter(self._config())
        adapter.register_user("flood-0", _RecordingCache())
        for round_index in range(6):
            _observe_batch(adapter, "flood-0", self._flood_observations())
            adapter.advance(10.0 * (round_index + 1))
        trajectory = adapter.threshold_trajectory()["threshold"]
        assert len(trajectory) == 6
        assert trajectory.min() >= 0.6

    def test_fleet_flooding_trajectory_never_crosses_floor(self, tiny_encoder):
        trace, honest_ids, flooder_ids = build_flooding_trace(
            WorkloadConfig(n_users=4, queries_per_user=15, duplicate_rate=0.4),
            FloodingConfig(n_flooders=3, queries_per_flooder=60),
            seed=0,
        )
        adapter = OnlineThresholdAdapter(
            self._config(min_threshold=0.55, round_interval_s=15.0)
        )
        simulator = CacheServer(
            lambda uid: MeanCache(
                tiny_encoder, MeanCacheConfig(similarity_threshold=0.7)
            ),
            SimulatedLLMService(LLMServiceConfig(seed=0)),
            ServerConfig(),
            adaptation=adapter,
        )
        result = simulator.replay(trace)
        assert result.lookups == len(trace)
        assert adapter.history, "flooding run must drive adaptation rounds"
        assert adapter.threshold_trajectory()["threshold"].min() >= 0.55
        for uid in honest_ids + flooder_ids:
            assert adapter.threshold_for(uid) >= 0.55
