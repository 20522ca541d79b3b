"""Tests for the scenario zoo: trace construction and the six scenario checks.

Construction tests are encoder-free: every scenario family is a pure,
seeded trace transform, so correctness (victim streams untouched by the
attacker, cohort membership, tenant stream identity, log import fidelity)
is asserted on the traces themselves.

The scenario checks replay each family's trace through
``CacheServer(..., ServerConfig(n_shards=1)).replay`` with the pretrained
``albert-sim`` encoder and assert the family's floor.  Attack scenarios
compare the victims' (honest users', quiet tenant's) stats against the
same traffic without the adversary, so the floors bound a *delta*; they
also demand that the attack lands, or the check would pass on a broken
construction.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.datasets.corpus import Corpus
from repro.federated.online import OnlineAdaptationConfig, OnlineThresholdAdapter
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving import (
    CacheServer,
    ServerConfig,
    WorkloadConfig,
    WorkloadGenerator,
)
from scenario_traces import (
    ArrivalSchedule,
    CohortSpec,
    FloodingConfig,
    MultiTenantConfig,
    PoisoningConfig,
    apply_arrival_schedule,
    build_cohort_trace,
    build_flooding_trace,
    build_multi_tenant_trace,
    inject_poisoning,
    merge_traces,
    relabel_users,
    trace_from_logs,
    trace_to_logs,
)


# --------------------------------------------------------------------------- #
# Trace surgery
# --------------------------------------------------------------------------- #
class TestTraceSurgery:
    def test_relabel_users_prefixes_every_event(self):
        trace = WorkloadGenerator(WorkloadConfig(n_users=3, queries_per_user=5)).generate()
        relabelled = relabel_users(trace, "tenant-a/")
        assert all(uid.startswith("tenant-a/") for uid in relabelled.user_ids)
        assert len(relabelled) == len(trace)
        # Only the ids change.
        for before, after in zip(trace.events, relabelled.events):
            assert after.query == before.query
            assert after.time_s == before.time_s

    def test_merge_traces_interleaves_in_time_order(self):
        a = relabel_users(
            WorkloadGenerator(WorkloadConfig(n_users=2, queries_per_user=5), seed=1).generate(),
            "a-",
        )
        b = relabel_users(
            WorkloadGenerator(WorkloadConfig(n_users=2, queries_per_user=5), seed=2).generate(),
            "b-",
        )
        merged = merge_traces(a, b)
        assert len(merged) == len(a) + len(b)
        times = [e.time_s for e in merged]
        assert times == sorted(times)
        assert set(merged.user_ids) == set(a.user_ids) | set(b.user_ids)

    def test_merge_traces_rejects_user_id_collisions(self):
        trace = WorkloadGenerator(WorkloadConfig(n_users=2, queries_per_user=5)).generate()
        with pytest.raises(ValueError, match="collide"):
            merge_traces(trace, trace)

    def test_relabel_keeps_every_field_but_the_id(self):
        trace = WorkloadGenerator(
            WorkloadConfig(n_users=3, queries_per_user=6, followup_rate=0.5)
        ).generate()
        relabelled = relabel_users(trace, "t-")
        assert relabelled.metadata["user_prefix"] == "t-"
        for before, after in zip(trace.events, relabelled.events):
            assert after.user_id == f"t-{before.user_id}"
            assert (after.context, after.is_followup, after.kind, after.intent_key) == (
                before.context,
                before.is_followup,
                before.kind,
                before.intent_key,
            )

    def test_merge_counts_the_users_of_every_input(self):
        a = relabel_users(
            WorkloadGenerator(WorkloadConfig(n_users=2, queries_per_user=4), seed=1).generate(),
            "a-",
        )
        b = relabel_users(
            WorkloadGenerator(WorkloadConfig(n_users=3, queries_per_user=4), seed=2).generate(),
            "b-",
        )
        merged = merge_traces(a, b)
        assert merged.n_users == 5
        assert [m["user_prefix"] for m in merged.metadata["merged"]] == ["a-", "b-"]


# --------------------------------------------------------------------------- #
# Poisoning construction
# --------------------------------------------------------------------------- #
class TestPoisoning:
    def test_victim_stream_is_untouched(self):
        corpus = Corpus(seed=0)
        base = WorkloadGenerator(
            WorkloadConfig(n_users=4, queries_per_user=15), corpus=corpus, seed=0
        ).generate()
        poisoned, info = inject_poisoning(base, corpus, seed=0)
        victim_events = [
            e for e in poisoned.events if not e.user_id.startswith("attacker-")
        ]
        assert [e.to_dict() for e in victim_events] == [
            e.to_dict() for e in base.events
        ]
        assert info.n_targets == len(poisoned) - len(base)
        assert info.n_targets > 0

    def test_poison_leads_its_target(self):
        corpus = Corpus(seed=0)
        base = WorkloadGenerator(
            WorkloadConfig(n_users=4, queries_per_user=15), corpus=corpus, seed=0
        ).generate()
        config = PoisoningConfig(lead_s=5.0, target_fraction=1.0)
        poisoned, info = inject_poisoning(base, corpus, config, seed=0)
        poison_events = [e for e in poisoned.events if e.query in info.poison_queries]
        assert poison_events
        first_ask = {}
        for e in base.events:
            first_ask.setdefault(e.intent_key, e.time_s)
        for poison in poison_events:
            # Each poison arrives before *some* victim first-ask by
            # construction; all of them precede the trace's end.
            assert poison.time_s < base.duration_s
        assert all(uid.startswith("attacker-") for uid in info.attacker_ids)

    def test_deterministic_under_seed(self):
        corpus = Corpus(seed=0)
        base = WorkloadGenerator(
            WorkloadConfig(n_users=3, queries_per_user=10), corpus=corpus, seed=0
        ).generate()
        once, _ = inject_poisoning(base, corpus, seed=5)
        twice, _ = inject_poisoning(base, corpus, seed=5)
        assert once.to_dict() == twice.to_dict()
        other, _ = inject_poisoning(base, corpus, seed=6)
        assert other.to_dict() != once.to_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoisoningConfig(target_fraction=0.0)
        with pytest.raises(ValueError):
            PoisoningConfig(lead_s=0.0)
        with pytest.raises(ValueError):
            PoisoningConfig(attacker_shards=0)

    def test_poison_comes_from_at_most_attacker_shards_identities(self):
        corpus = Corpus(seed=0)
        base = WorkloadGenerator(
            WorkloadConfig(n_users=4, queries_per_user=15), corpus=corpus, seed=0
        ).generate()
        config = PoisoningConfig(target_fraction=1.0, attacker_shards=1)
        poisoned, info = inject_poisoning(base, corpus, config, seed=0)
        assert info.attacker_ids == {"attacker-00000"}
        assert poisoned.n_users == base.n_users + 1
        assert poisoned.metadata["poisoning"]["n_targets"] == info.n_targets
        assert poisoned.metadata["poisoning"]["n_attackers"] == 1


# --------------------------------------------------------------------------- #
# Flooding / cohorts / tenancy construction
# --------------------------------------------------------------------------- #
class TestStreamBuilders:
    def test_flooding_keeps_honest_stream_identical(self):
        honest_config = WorkloadConfig(n_users=3, queries_per_user=10)
        trace, honest_ids, flooder_ids = build_flooding_trace(
            honest_config, FloodingConfig(n_flooders=2, queries_per_flooder=20), seed=0
        )
        solo = WorkloadGenerator(honest_config, seed=0).generate()
        honest_events = [e for e in trace.events if e.user_id in set(honest_ids)]
        assert sorted(honest_ids) == sorted(solo.user_ids)
        assert [e.to_dict() for e in honest_events] == [
            e.to_dict() for e in solo.events
        ]
        assert all(uid.startswith("flood-") for uid in flooder_ids)
        flood_events = [e for e in trace.events if e.user_id in set(flooder_ids)]
        assert len(flood_events) == 2 * 20
        # The flood is dominated by re-asks (the near-miss mining bait).
        duplicates = sum(1 for e in flood_events if e.kind == "duplicate")
        assert duplicates / len(flood_events) > 0.7

    def test_cohorts_partition_users_and_domains(self):
        cohorts = [
            CohortSpec(name="west", domains=("programming", "science"), n_users=2, queries_per_user=8),
            CohortSpec(name="east", domains=("cooking", "travel"), n_users=3, queries_per_user=8),
        ]
        trace, members = build_cohort_trace(cohorts, seed=0)
        assert set(members) == {"west", "east"}
        assert len(members["west"]) == 2 and len(members["east"]) == 3
        assert set(trace.user_ids) == set(members["west"]) | set(members["east"])
        for name, ids in members.items():
            assert all(uid.startswith(f"{name}-") for uid in ids)
        # Intents stay inside each cohort's domain slice.
        west_corpus = Corpus(seed=0, domains=["programming", "science"])
        west_intents = {
            i.key for d in west_corpus.domains for i in west_corpus.intents_for_domain(d)
        }
        for e in trace.events:
            if e.user_id in set(members["west"]) and e.intent_key:
                assert e.intent_key in west_intents

    def test_cohort_name_collision_rejected(self):
        with pytest.raises(ValueError):
            build_cohort_trace(
                [CohortSpec(name="x", domains=("cooking",)), CohortSpec(name="x", domains=("travel",))]
            )

    def test_multi_tenant_quiet_stream_identical_solo_and_mixed(self):
        mixed, quiet_alone, quiet_ids, noisy_ids = build_multi_tenant_trace(
            MultiTenantConfig(
                n_quiet_users=3,
                queries_per_quiet_user=10,
                n_noisy_users=1,
                queries_per_noisy_user=30,
            ),
            seed=0,
        )
        quiet_in_mixed = [e for e in mixed.events if e.user_id in set(quiet_ids)]
        assert [e.to_dict() for e in quiet_in_mixed] == [
            e.to_dict() for e in quiet_alone.events
        ]
        noisy_events = [e for e in mixed.events if e.user_id in set(noisy_ids)]
        assert len(noisy_events) == 30
        # The noisy tenant floods *unique* traffic (cache-useless churn).
        assert all(e.kind == "unique" for e in noisy_events)

    def test_flooding_trace_is_deterministic_under_seed(self):
        honest_config = WorkloadConfig(n_users=2, queries_per_user=6)
        flooding = FloodingConfig(n_flooders=1, queries_per_flooder=10)
        once = build_flooding_trace(honest_config, flooding, seed=3)[0]
        twice = build_flooding_trace(honest_config, flooding, seed=3)[0]
        other = build_flooding_trace(honest_config, flooding, seed=4)[0]
        assert once.to_dict() == twice.to_dict()
        assert other.to_dict() != once.to_dict()

    def test_flooding_config_validation(self):
        for bad in (
            {"n_flooders": 0},
            {"queries_per_flooder": 0},
            {"duplicate_rate": 1.5},
            {"paraphrase_bias": -0.1},
            {"arrival_rate_qps": 0.0},
        ):
            with pytest.raises(ValueError):
                FloodingConfig(**bad)

    def test_cohort_spec_validation(self):
        assert CohortSpec(name="x", domains=["cooking"]).domains == ("cooking",)
        with pytest.raises(ValueError, match="name"):
            CohortSpec(name="", domains=("cooking",))
        with pytest.raises(ValueError, match="domain"):
            CohortSpec(name="x", domains=())
        with pytest.raises(ValueError):
            CohortSpec(name="x", domains=("cooking",), n_users=0)
        with pytest.raises(ValueError, match="at least one cohort"):
            build_cohort_trace([])

    def test_multi_tenant_config_validation(self):
        for bad in (
            {"n_quiet_users": 0},
            {"n_noisy_users": 0},
            {"queries_per_noisy_user": 0},
            {"noisy_rate_multiplier": 0.0},
        ):
            with pytest.raises(ValueError):
                MultiTenantConfig(**bad)

    def test_noisy_tenant_arrives_faster_than_quiet_users(self):
        mixed, _alone, quiet_ids, noisy_ids = build_multi_tenant_trace(
            MultiTenantConfig(noisy_rate_multiplier=5.0), seed=0
        )

        def mean_gap_s(user_ids):
            gaps = []
            for uid in user_ids:
                times = [e.time_s for e in mixed.events if e.user_id == uid]
                gaps.extend(np.diff(times))
            return float(np.mean(gaps))

        assert mean_gap_s(noisy_ids) < mean_gap_s(quiet_ids) / 2


# --------------------------------------------------------------------------- #
# External log import/export
# --------------------------------------------------------------------------- #
class TestLogImport:
    def test_round_trip_preserves_replayable_fields(self):
        trace = WorkloadGenerator(WorkloadConfig(n_users=3, queries_per_user=8)).generate()
        back = trace_from_logs(trace_to_logs(trace), normalize_time=False)
        assert len(back) == len(trace)
        for before, after in zip(trace.events, back.events):
            assert after.time_s == before.time_s
            assert after.user_id == before.user_id
            assert after.query == before.query
            assert after.context == before.context
            assert after.intent_key == before.intent_key

    def test_custom_field_names_and_epoch_normalization(self):
        records = [
            {"ts": 1700000012.5, "uid": "u1", "text": "later", "topic": "b"},
            {"ts": 1700000002.5, "uid": "u0", "text": "earlier", "topic": "a"},
        ]
        trace = trace_from_logs(
            records,
            time_key="ts",
            user_key="uid",
            query_key="text",
            intent_key="topic",
            context_key=None,
        )
        assert [e.query for e in trace.events] == ["earlier", "later"]
        assert trace.events[0].time_s == 0.0
        assert trace.events[1].time_s == 10.0
        assert trace.metadata["source"] == "external_logs"

    def test_string_context_becomes_single_turn(self):
        trace = trace_from_logs(
            [{"timestamp": 0.0, "user": "u", "prompt": "q", "context": "prior turn"}]
        )
        assert trace.events[0].context == ("prior turn",)
        assert trace.events[0].is_followup

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="timestamp"):
            trace_from_logs([{"user": "u", "prompt": "q"}])
        with pytest.raises(ValueError, match="user"):
            trace_from_logs([{"timestamp": 0.0, "prompt": "q"}])

    def test_empty_logs_give_an_empty_trace(self):
        trace = trace_from_logs([])
        assert len(trace) == 0
        assert trace.n_users == 0

    def test_missing_optional_fields_degrade_to_unverifiable_first_asks(self):
        trace = trace_from_logs([{"timestamp": 3.0, "user": "u", "prompt": "q"}])
        event = trace.events[0]
        assert event.intent_key == ""
        assert event.context == ()
        assert not event.is_followup
        assert event.time_s == 0.0

    def test_normalize_time_off_keeps_the_foreign_epoch(self):
        records = [
            {"timestamp": 1700000005.0, "user": "u1", "prompt": "b"},
            {"timestamp": 1700000001.0, "user": "u0", "prompt": "a"},
        ]
        trace = trace_from_logs(records, normalize_time=False)
        assert [e.time_s for e in trace.events] == [1700000001.0, 1700000005.0]




# --------------------------------------------------------------------------- #
# The scenario checks (albert-sim encoder, one replay per stream)
# --------------------------------------------------------------------------- #
def _replay(encoder, trace, *, shared=False, max_entries=100_000, adaptation=None,
            collect_outcomes=False):
    """Replay ``trace`` on a fresh fleet: per-device caches or one shared cache."""
    config = MeanCacheConfig(similarity_threshold=0.75, max_entries=max_entries)
    cache = MeanCache(encoder, config) if shared else None
    server = CacheServer(
        lambda user_id: cache if shared else MeanCache(encoder, config),
        SimulatedLLMService(LLMServiceConfig(seed=0)),
        ServerConfig(n_shards=1),
        adaptation=adaptation,
    )
    return server.replay(trace, collect_outcomes=collect_outcomes)


def _assert_served(lookups, hit_rate, cost_usd):
    """What every scenario must show: events served, a hit rate, LLM spend."""
    assert lookups > 0
    assert 0.0 <= hit_rate <= 1.0
    assert cost_usd > 0.0


def test_poisoning_scenario(albert_encoder):
    """Hard-negative front-running on a shared cache lands, but boundedly."""
    corpus = Corpus(seed=0)
    base = WorkloadGenerator(
        WorkloadConfig(n_users=10, queries_per_user=30, duplicate_rate=0.35, followup_rate=0.1),
        corpus=corpus,
        seed=0,
    ).generate()
    poisoned, info = inject_poisoning(
        base, corpus, PoisoningConfig(target_fraction=0.5, lead_s=5.0, object_bias=0.95), seed=0
    )
    attacked = _replay(albert_encoder, poisoned, shared=True, collect_outcomes=True)
    clean = _replay(albert_encoder, base, shared=True)
    victim_ids = set(base.user_ids)
    victims = attacked.stats_for(base.user_ids)
    unpoisoned = clean.stats_for(base.user_ids)
    _assert_served(victims.lookups, victims.hit_rate, victims.cost_usd)

    poison_served = sum(
        1
        for o in attacked.outcomes
        if o.hit and o.event.user_id in victim_ids and o.matched_query in info.poison_queries
    )
    assert poison_served >= 1
    # Front-running: a victim's first ask (not a re-ask, not a follow-up) is
    # served a poison enrolled at most lead_s before it.  A poison landing
    # after its target still serves later asks, but none within the lead.
    lead_s = poisoned.metadata["poisoning"]["lead_s"]
    enrolled_at = {e.query: e.time_s for e in poisoned.events if e.user_id in info.attacker_ids}
    front_run = sum(
        1
        for o in attacked.outcomes
        if o.hit
        and o.event.user_id in victim_ids
        and o.event.kind == "unique"
        and not o.event.is_followup
        and o.matched_query in enrolled_at
        and 0.0 <= o.event.time_s - enrolled_at[o.matched_query] <= lead_s
    )
    assert front_run >= 1
    # Real but bounded: extra victim false hits in (0, 0.2] over the same
    # honest traffic unpoisoned.
    delta = victims.false_hit_rate - unpoisoned.false_hit_rate
    assert 0.0 < delta <= 0.2, delta
    assert victims.true_hit_rate >= unpoisoned.true_hit_rate - 0.05, (victims, unpoisoned)


def test_flooding_scenario(albert_encoder):
    """Near-miss flooding drags the federated τ, never past its clamp."""
    honest_config = WorkloadConfig(
        n_users=10, queries_per_user=40, duplicate_rate=0.35, paraphrase_bias=0.7
    )
    trace, honest_ids, _flooder_ids = build_flooding_trace(
        honest_config,
        FloodingConfig(
            n_flooders=4, queries_per_flooder=150, duplicate_rate=0.95, paraphrase_bias=0.0
        ),
        seed=0,
    )

    def adapter():
        return OnlineThresholdAdapter(
            OnlineAdaptationConfig(
                initial_threshold=0.75,
                seed=0,
                round_interval_s=15.0,
                clients_per_round=14,
                min_observations=12,
                min_threshold=0.55,
                weighted=True,
            )
        )

    attacked_adapter, clean_adapter = adapter(), adapter()
    attacked = _replay(albert_encoder, trace, adaptation=attacked_adapter)
    clean = _replay(
        albert_encoder,
        WorkloadGenerator(honest_config, seed=0).generate(),
        adaptation=clean_adapter,
    )
    honest = attacked.stats_for(honest_ids)
    honest_alone = clean.stats_for(honest_ids)
    _assert_served(honest.lookups, honest.hit_rate, honest.cost_usd)

    # Clamp invariant: no aggregated τ, global or served per device, ever
    # crosses the configured floor.
    floor = attacked_adapter.config.min_threshold
    assert len(attacked_adapter.history) > 0
    assert attacked_adapter.threshold_trajectory()["threshold"].min() >= floor - 1e-9
    assert min(
        attacked_adapter.threshold_for(uid) for uid in attacked_adapter.user_ids
    ) >= floor - 1e-9
    # The attack must drag τ below the clean run's, or the scenario
    # exercises nothing ...
    assert attacked_adapter.global_threshold < clean_adapter.global_threshold
    # ... while the clamp keeps honest users' false-hit inflation small.
    assert honest.false_hit_rate - honest_alone.false_hit_rate <= 0.08


@pytest.mark.parametrize(
    "schedule",
    [
        ArrivalSchedule(kind="diurnal", period_s=120.0, amplitude=0.8),
        ArrivalSchedule(
            kind="flash_crowd", flash_at_s=30.0, flash_duration_s=30.0, flash_multiplier=10.0
        ),
    ],
    ids=["diurnal_cycle", "flash_crowd"],
)
def test_arrival_scenario(albert_encoder, schedule):
    """Diurnal and flash-crowd re-timing moves load, not query content."""
    base = WorkloadGenerator(WorkloadConfig(n_users=10, queries_per_user=30), seed=0).generate()
    warped = apply_arrival_schedule(base, schedule)
    stationary = _replay(albert_encoder, base)
    result = _replay(albert_encoder, warped)
    _assert_served(result.lookups, result.hit_rate, result.total_cost_usd)
    assert result.lookups == stationary.lookups
    assert abs(result.hit_rate - stationary.hit_rate) <= 0.02
    if schedule.kind == "flash_crowd":
        # The flash window concentrates real load: peak arrivals at least
        # 3x the stationary peak, total duration compressed.
        def peak_arrivals_per_s(trace):
            return int(np.bincount(np.floor([e.time_s for e in trace.events]).astype(int)).max())

        assert peak_arrivals_per_s(warped) >= 3 * peak_arrivals_per_s(base)
        assert warped.duration_s < base.duration_s


def test_cohort_scenario(albert_encoder):
    """Disjoint-vocabulary cohorts each get service, without contamination."""
    trace, members = build_cohort_trace(
        [
            CohortSpec(
                name="west",
                domains=("programming", "science", "devices", "finance"),
                n_users=6,
                queries_per_user=30,
            ),
            CohortSpec(
                name="east",
                domains=("cooking", "travel", "gardening", "fitness"),
                n_users=6,
                queries_per_user=30,
            ),
        ],
        seed=0,
    )
    result = _replay(albert_encoder, trace)
    _assert_served(result.lookups, result.hit_rate, result.total_cost_usd)
    for name, ids in members.items():
        cohort = result.stats_for(ids)
        assert cohort.hit_rate >= 0.05, name
        assert cohort.false_hit_rate <= 0.10, name


@pytest.mark.parametrize(
    "max_entries, bound",
    # Provisioned for the working set, then capacity-starved: eviction
    # pressure is real, so degradation may show but must stay graceful.
    [(100_000, 0.03), (64, 0.15)],
    ids=["provisioned", "capacity_starved"],
)
def test_tenancy_scenario(albert_encoder, max_entries, bound):
    """A noisy tenant costs a quiet one little hit rate and few true hits on a
    shared cache, and nothing at all on per-device caches."""
    mixed, quiet_alone, quiet_ids, noisy_ids = build_multi_tenant_trace(
        MultiTenantConfig(
            n_quiet_users=8,
            queries_per_quiet_user=30,
            n_noisy_users=2,
            queries_per_noisy_user=120,
            noisy_rate_multiplier=5.0,
        ),
        seed=0,
    )
    noisy_events = sum(1 for e in mixed.events if e.user_id in set(noisy_ids))
    assert noisy_events / len(mixed) >= 0.3
    quiet = _replay(albert_encoder, mixed, shared=True, max_entries=max_entries).stats_for(
        quiet_ids
    )
    alone = _replay(
        albert_encoder, quiet_alone, shared=True, max_entries=max_entries
    ).stats_for(quiet_ids)
    _assert_served(quiet.lookups, quiet.hit_rate, quiet.cost_usd)
    assert quiet.hit_rate > 0.0
    assert alone.hit_rate - quiet.hit_rate <= bound, (quiet, alone)
    # The noisy tenant's unique traffic draws on the quiet tenant's corpus,
    # so raw hits can rise with it as false hits; judge the isolation on
    # verified hits too.
    assert alone.true_hit_rate - quiet.true_hit_rate <= bound, (quiet, alone)
    # That rise is real on a shared cache, but bounded.
    rise = quiet.false_hit_rate - alone.false_hit_rate
    assert 0.0 < rise <= 0.10, (quiet, alone)
    # Per-device caches isolate exactly: the quiet tenant's served stream,
    # hit for hit and dollar for dollar, does not see the noisy tenant.
    isolated, solo = (
        _replay(albert_encoder, trace, max_entries=max_entries).stats_for(quiet_ids)
        for trace in (mixed, quiet_alone)
    )
    for stat in ("lookups", "hits", "true_hits", "false_hits", "cost_usd"):
        assert getattr(isolated, stat) == getattr(solo, stat), (stat, isolated, solo)


def test_replay_scenario(albert_encoder):
    """Imported logs replay deterministically and match the direct run."""
    base = WorkloadGenerator(
        WorkloadConfig(n_users=8, queries_per_user=25, duplicate_rate=0.4), seed=0
    ).generate()
    imported = trace_from_logs(trace_to_logs(base))
    replayed = _replay(albert_encoder, imported)
    again = _replay(albert_encoder, imported)
    direct = _replay(albert_encoder, base)
    _assert_served(replayed.lookups, replayed.hit_rate, replayed.total_cost_usd)
    assert replayed.hit_rate == again.hit_rate
    assert replayed.total_cost_usd == again.total_cost_usd
    assert replayed.false_hit_rate == again.false_hit_rate
    assert replayed.hit_rate == direct.hit_rate
    assert replayed.total_cost_usd == direct.total_cost_usd
