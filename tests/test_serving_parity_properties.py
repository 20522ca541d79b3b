"""Generated driver parity: the one-shard replay against sharded replay.

``CacheServer.replay`` with one shard is the oracle;
the same replay runs the same flush over ``n_shards`` shards.  Sharding is
an implementation detail of the server, so the shard count must change
nothing: ``tests/test_serving_parity.py`` pins that on hand-written traces,
and this module generates the traces from the model instead.

Hypothesis draws (``derandomize=True``, so CI is stable):

* a trace of 2–8 users from :class:`WorkloadGenerator` (paraphrased
  duplicates and follow-ups), with some events turned into verbatim repeats
  of an earlier query and every arrival re-timed so that several users share
  one batching window;
* ``n_shards`` from {1, 2, 3, 4};
* the fleet: per-user ``MeanCache`` (LRU eviction), per-user
  ``TieredCache`` over one shared tier (``max_entries`` 1–4 or unbounded),
  one central ``MeanCache`` in the GPTCache configuration, or a mixed
  fleet of all three;
* online threshold adaptation on or off.

Three properties compare the two runs: the per-event decisions (hit,
response, matched query, verified flag, ``float.hex`` similarity), the
final storage (``storage_report``, every L1's and every tier's entries)
and every L1's final LRU order.
Tier-1 runs them at a small budget; the ``slow`` variants run a
larger one.  A counterexample Hypothesis shrinks becomes a named case in
:class:`TestShrunkCases`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tiny_encoder
from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.tiered import QuantizedTier, TieredCache
from repro.federated.online import OnlineAdaptationConfig, OnlineThresholdAdapter
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadConfig, WorkloadEvent, WorkloadGenerator

pytestmark = pytest.mark.concurrency

BATCH_WINDOW_S = 0.25
THRESHOLD = 0.7
#: Inter-arrival gaps: most are shorter than the window, so windows hold
#: several users; the long ones let enrolments become visible.
GAPS = (0.0, 0.02, 0.1, 0.2, 0.5, 3.0)
FLEETS = ("meancache", "tiered", "central", "mixed")

ENCODER = make_tiny_encoder()


@dataclass(frozen=True)
class FleetCase:
    """One generated parity case: a trace plus the fleet that serves it."""

    trace: Trace
    n_shards: int
    fleet: str
    l1_entries: int = 2
    tier_entries: Optional[int] = None
    adaptive: bool = False


@st.composite
def traces(draw) -> Trace:
    config = WorkloadConfig(
        n_users=draw(st.integers(min_value=2, max_value=8)),
        queries_per_user=draw(st.integers(min_value=1, max_value=5)),
        duplicate_rate=draw(st.sampled_from((0.3, 0.6, 0.9))),
        followup_rate=draw(st.sampled_from((0.0, 0.3, 0.6))),
    )
    generated = WorkloadGenerator(config, seed=draw(st.integers(0, 10_000))).generate()
    events, now = [], 0.0
    for event in generated.events:
        now += draw(st.sampled_from(GAPS))
        if events and draw(st.integers(0, 3)) == 0:
            # A verbatim repeat of a recent query (any user's), so exact
            # hits and cross-user hits on a central cache occur.
            earlier = events[-draw(st.integers(1, min(4, len(events))))]
            event = replace(event, query=earlier.query, intent_key=earlier.intent_key)
        events.append(replace(event, time_s=round(now, 6)))
    return Trace(events, n_users=config.n_users)


fleet_cases = st.builds(
    FleetCase,
    trace=traces(),
    n_shards=st.integers(min_value=1, max_value=4),
    fleet=st.sampled_from(FLEETS),
    l1_entries=st.integers(min_value=1, max_value=4),
    tier_entries=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    adaptive=st.booleans(),
)


def _factory(case: FleetCase):
    """A fresh fleet for ``case``: ``(cache_factory, shared tiers)``."""
    config = MeanCacheConfig(
        similarity_threshold=THRESHOLD,
        max_entries=case.l1_entries,
    )
    tier = QuantizedTier(max_entries=case.tier_entries)
    central = MeanCache(ENCODER, replace(GPTCACHE_CONFIG, similarity_threshold=THRESHOLD))
    kinds = {
        uid: (case.fleet if case.fleet != "mixed" else FLEETS[i % 3])
        for i, uid in enumerate(case.trace.user_ids)
    }
    caches = {}

    def factory(uid):
        if kinds[uid] == "central":
            return central
        if uid not in caches:
            if kinds[uid] == "tiered":
                caches[uid] = TieredCache(ENCODER, config, l2=tier)
            else:
                caches[uid] = MeanCache(ENCODER, config)
        return caches[uid]

    tiers = [tier] if "tiered" in kinds.values() else []
    return factory, tiers


def _adapter(case: FleetCase):
    if not case.adaptive:
        return None
    return OnlineThresholdAdapter(
        OnlineAdaptationConfig(
            round_interval_s=2.0, clients_per_round=4, min_observations=2, seed=0
        )
    )


def _service():
    return SimulatedLLMService(LLMServiceConfig(seed=0))


@dataclass
class _Run:
    """One driver's run of a case: outcomes, per-user caches, tiers."""

    outcomes: list
    caches: dict
    tiers: list
    report: dict


def _simulate(case: FleetCase) -> _Run:
    factory, tiers = _factory(case)
    simulator = CacheServer(
        factory,
        _service(),
        ServerConfig(n_shards=1),
        adaptation=_adapter(case),
    )
    result = simulator.replay(case.trace, BATCH_WINDOW_S, collect_outcomes=True)
    caches = {uid: simulator.adapters[uid].cache for uid in case.trace.user_ids}
    return _Run(result.outcomes, caches, tiers, simulator.storage_report())


def _replay(case: FleetCase) -> _Run:
    factory, tiers = _factory(case)
    server = CacheServer(
        factory,
        service=_service(),
        config=ServerConfig(n_shards=case.n_shards),
        adaptation=_adapter(case),
    )
    result = server.replay(case.trace, BATCH_WINDOW_S, collect_outcomes=True)
    assert server.metrics.shed == 0
    caches = {uid: server.cache_for(uid) for uid in case.trace.user_ids}
    return _Run(result.outcomes, caches, tiers, server.storage_report())


def _decisions(run: _Run) -> list:
    return [
        (
            o.event.user_id,
            o.event.time_s,
            o.event.query,
            o.hit,
            o.response,
            o.matched_query,
            o.verified,
            float(o.similarity).hex(),
        )
        for o in run.outcomes
    ]


ENTRY_FIELDS = ("entry_id", "query", "response", "hit_count")


def _l1_entries(run: _Run) -> dict:
    """Per user, the entries of the cache in front of the user (the L1)."""
    return {
        uid: [
            tuple(getattr(e, f) for f in ENTRY_FIELDS)
            for e in getattr(c, "l1", c).entries
        ]
        for uid, c in run.caches.items()
    }


def _tier_entries(run: _Run) -> list:
    return [[(e.entry_id, e.query, e.response) for e in t.entries] for t in run.tiers]


def _policy_orders(run: _Run) -> dict:
    """Per user, the LRU order of the user's L1."""
    return {
        uid: getattr(c, "l1", c)._policy.state_dict() for uid, c in run.caches.items()
    }


def check_decisions(case: FleetCase) -> None:
    """Every event gets the same decision from both drivers."""
    sim, srv = _simulate(case), _replay(case)
    assert len(srv.outcomes) == len(case.trace)
    assert _decisions(srv) == _decisions(sim)


def check_storage(case: FleetCase) -> None:
    """Both drivers leave the same entries in every L1 and every tier."""
    sim, srv = _simulate(case), _replay(case)
    assert srv.report == sim.report
    assert _l1_entries(srv) == _l1_entries(sim)
    assert _tier_entries(srv) == _tier_entries(sim)


def check_policy_order(case: FleetCase) -> None:
    """Both drivers leave every L1's eviction order the same: the next
    victim of each cache does not depend on the shard count."""
    sim, srv = _simulate(case), _replay(case)
    assert _policy_orders(srv) == _policy_orders(sim)


CHECKS = [check_decisions, check_storage, check_policy_order]


def _holds(check, max_examples: int) -> None:
    @settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)
    @given(case=fleet_cases)
    def run(case):
        check(case)

    run()


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_generated_parity(check):
    _holds(check, max_examples=15)


@pytest.mark.slow
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_generated_parity_larger_budget(check):
    _holds(check, max_examples=200)


#: Shrunk from ``check_storage``: two users on different shards (of 3) each
#: enrol twice into a one-entry L1 in one window, so each demotes one entry
#: into the shared tier.  The demotions must reach the tier in arrival order
#: (entry ids, FIFO position) however the shards split the window.
DEMOTING_WINDOW = [
    WorkloadEvent(0.0, "user-00001", "What's a good way to monitor daily water intake?"),
    WorkloadEvent(0.0, "user-00001", "Steps to barbecue banana bread, if possible"),
    WorkloadEvent(0.0, "user-00000", "Best approach to invest my credit score, quickly"),
    WorkloadEvent(0.02, "user-00000", "How can I allocate savings my credit rating, quickly?"),
]


class TestShrunkCases:
    def test_demotions_reach_a_shared_tier_in_arrival_order(self):
        case = FleetCase(
            Trace(DEMOTING_WINDOW, n_users=2), n_shards=3, fleet="tiered", l1_entries=1
        )
        check_storage(case)

    def test_a_bounded_tier_keeps_the_last_arrivals_demotion(self):
        """With a one-entry tier the demotion order decides which entry
        survives, and so whether a later re-ask hits in the tier."""
        reask = WorkloadEvent(5.0, "user-00000", DEMOTING_WINDOW[2].query)
        case = FleetCase(
            Trace(DEMOTING_WINDOW + [reask], n_users=2),
            n_shards=3,
            fleet="tiered",
            l1_entries=1,
            tier_entries=1,
        )
        check_decisions(case)
        check_storage(case)
