"""The upkeep contract of a shared quantized tier (``docs/serving.md``).

One flush (live, or a replayed window) over k users sharing one
:class:`~repro.core.tiered.QuantizedTier`:

* every touched cache does its own share — L1 index upkeep and sealing
  the tier's buffered mutations into one delta record — inside its shard
  slice; the first touched cache of a slice seals whatever the slice left
  buffered, so the log gains one record per shard slice that mutated the
  tier (never more than one per touching cache);
* the tier's own upkeep (the sealed records written with one append,
  index maintenance, compaction when due) runs once per distinct tier
  object, after the last slice;
* a response is acknowledged only after its mutations are in the log.
"""

from __future__ import annotations

import shutil
import threading

import numpy as np
import pytest

from conftest import make_tiny_encoder

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.tiered import QuantizedTier, TieredCache
from repro.index import delta_log_size
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadEvent

pytestmark = pytest.mark.concurrency

UNTRAINED = {"min_train_size": 10_000}
N_SHARDS = 3
USERS = [f"user-{i}" for i in range(6)]


class Calls:
    """Counts calls to one bound method while passing them through."""

    def __init__(self, owner, attr):
        self.n = 0
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.n += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)


def _tier(path, compact_every=1000):
    return QuantizedTier(
        params=dict(UNTRAINED), snapshot_dir=path, compact_every=compact_every
    )


def _full_caches(encoder, tier_of_user):
    """One TieredCache per user with a full 2-entry L1: the next enrolment
    demotes, so every cache a flush touches mutates its tier."""
    caches = {}
    for user, tier in tier_of_user.items():
        cache = caches[user] = TieredCache(
            encoder, MeanCacheConfig(max_entries=2, similarity_threshold=0.99), l2=tier
        )
        for i in range(2):
            cache.insert(f"{user} warm question {i} about topic {i}", f"warm {i}")
    for tier in {id(t): t for t in tier_of_user.values()}.values():
        tier.flush()  # the baseline snapshot; records are counted on top of it
    return caches


def _one_window(users, round_no=0):
    events = [
        WorkloadEvent(
            time_s=float(round_no),
            user_id=user,
            query=f"{user} asks something new in round {round_no} number {7 * round_no}",
        )
        for user in users
    ]
    return Trace(events=events, n_users=len(users))


def _service():
    return SimulatedLLMService(LLMServiceConfig(seed=0))


def _replay_server(caches):
    return CacheServer(
        caches.__getitem__,
        service=_service(),
        config=ServerConfig(n_shards=N_SHARDS),
    )


def test_server_flush_maintains_a_shared_tier_once(tmp_path):
    encoder = make_tiny_encoder()
    tier = _tier(tmp_path / "snap")
    caches = _full_caches(encoder, {user: tier for user in USERS})
    server = _replay_server(caches)
    shards = {server.shard_of(user) for user in USERS}
    assert 2 <= len(shards) < len(USERS)  # several shards, one of them shared

    index_upkeep = Calls(tier.index, "maintenance")
    compactions = Calls(tier, "save")
    l1_upkeep = [Calls(cache.l1, "maintenance") for cache in caches.values()]
    result = server.replay(_one_window(USERS), collect_outcomes=True)

    assert not any(o.hit for o in result.outcomes)  # every user enrolled and demoted
    assert index_upkeep.n == 1
    assert compactions.n == 0
    assert [calls.n for calls in l1_upkeep] == [1] * len(USERS)
    # One record per shard slice: the slice's first cache seals for all.
    assert delta_log_size(tier.snapshot_dir)[0] == len(shards) <= len(USERS)
    assert not tier._pending_ids and not tier._pending_removed


def test_server_flush_compacts_at_most_once(tmp_path):
    encoder = make_tiny_encoder()
    tier = _tier(tmp_path / "snap", compact_every=1)
    caches = _full_caches(encoder, {user: tier for user in USERS})
    server = _replay_server(caches)
    compactions = Calls(tier, "save")
    for round_no in range(3):
        server.replay(_one_window(USERS, round_no))
        # Due after every slice, folded once the last slice has run.
        assert compactions.n == round_no + 1
        assert delta_log_size(tier.snapshot_dir)[0] == 0


def test_simulator_window_maintains_a_shared_tier_once(tmp_path):
    encoder = make_tiny_encoder()
    tier = _tier(tmp_path / "snap", compact_every=2)
    caches = _full_caches(encoder, {user: tier for user in USERS})
    simulator = CacheServer(
        caches.__getitem__, _service(), ServerConfig(n_shards=1)
    )
    index_upkeep = Calls(tier.index, "maintenance")
    compactions = Calls(tier, "save")
    simulator.replay(_one_window(USERS), 0.25)
    # One executor sees the whole window: one record, nothing due yet.
    assert (index_upkeep.n, compactions.n) == (1, 0)
    assert delta_log_size(tier.snapshot_dir)[0] == 1
    simulator.replay(_one_window(USERS, round_no=1), 0.25)
    assert (index_upkeep.n, compactions.n) == (2, 1)
    assert delta_log_size(tier.snapshot_dir)[0] == 0


def test_two_tiers_and_an_untiered_cache_in_one_flush(tmp_path):
    encoder = make_tiny_encoder()
    tier_a, tier_b = _tier(tmp_path / "a"), _tier(tmp_path / "b")
    tiered_users = USERS[:4]
    caches = _full_caches(
        encoder, {user: (tier_a, tier_b)[i % 2] for i, user in enumerate(tiered_users)}
    )
    plain = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.99))
    caches["plain-user"] = plain
    server = _replay_server(caches)
    upkeep = {
        "a": Calls(tier_a.index, "maintenance"),
        "b": Calls(tier_b.index, "maintenance"),
        "plain": Calls(plain, "maintenance"),
    }
    server.replay(_one_window(tiered_users + ["plain-user"]))
    assert {name: calls.n for name, calls in upkeep.items()} == {
        "a": 1,
        "b": 1,
        "plain": 1,
    }
    for tier in (tier_a, tier_b):
        assert delta_log_size(tier.snapshot_dir)[0] >= 1


def _tier_image(tier, probes):
    return (
        [(e.entry_id, e.query, e.response, e.context.texts) for e in tier.entries],
        [
            [(hit.id, float(hit.score).hex()) for hit in hits]
            for hits in tier.index.search(probes, top_k=3)
        ],
    )


@pytest.mark.serving
def test_acknowledged_responses_are_durable(tmp_path):
    """Once a flush's futures resolved, a copy of the snapshot directory
    loads to the live tier: ids, texts and search results."""
    encoder = make_tiny_encoder()
    tier = _tier(tmp_path / "snap", compact_every=4)
    caches = _full_caches(encoder, {user: tier for user in USERS})
    server = CacheServer(
        caches.__getitem__,
        service=SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True),
        config=ServerConfig(n_shards=N_SHARDS, max_batch_size=4, max_batch_wait_s=0.001),
    )
    probes = np.random.default_rng(3).normal(size=(5, 64))
    server.start()
    try:
        for round_no in range(6):
            futures = [
                server.submit_threadsafe(user, f"{user} live question {round_no}")
                for user in USERS
            ]
            for future in futures:
                future.result(timeout=30)
            # Nothing is in flight: the directory is quiescent while copied.
            copy = tmp_path / f"copy-{round_no}"
            shutil.copytree(tier.snapshot_dir, copy)
            assert _tier_image(QuantizedTier.load(copy), probes) == _tier_image(
                tier, probes
            )
    finally:
        server.stop()
    assert not [t for t in threading.enumerate() if t.name == "cache-server-flush"]
