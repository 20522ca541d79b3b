"""Every failure point of an atomic publish, generated rather than sampled.

:func:`~repro.index.snapshot.atomic_snapshot_dir` stages a snapshot, fsyncs
it (``_fsync_tree``, ``_fsync_dir``), moves the previous generation aside
and the stage into place (two ``os.replace``) and removes the ``tmp-``
directory it staged in (``shutil.rmtree``).  A shim makes each of those calls fail in
turn, under every writer that publishes a snapshot — an index, a
``MeanCache``, a full ``QuantizedTier`` snapshot and a ``TieredCache`` —
and then each write into the stage (``write_manifest``, ``write_arrays``);
a ``CacheServer.checkpoint`` over ``TieredCache`` users and over
``MeanCache`` users is failed at every one of those calls.  Each fails in
two ways:

* **fault**: the one call raises and the code goes on handling it in
  process (rollback, cleanup);
* **crash**: the call and every shimmed call after it raise, so nothing
  is rolled back or cleaned up — what a killed process leaves on disk.

Either way the path then loads to the old state or to the new one, and the
next successful save leaves no ``tmp-`` directory behind.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np
import pytest

from conftest import make_tiny_encoder

from repro.core import tiered
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.context import ContextChain
from repro.core.tiered import QuantizedTier, TieredCache
from repro.index import load_index, make_index, snapshot
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving import server
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadEvent

pytestmark = pytest.mark.concurrency

DIM = 8
#: (owner, attribute) of each shimmed call
POINTS = [
    (snapshot.os, "replace"),
    (snapshot, "_fsync_tree"),
    (snapshot, "_fsync_dir"),
    (snapshot.shutil, "rmtree"),
]
#: the writes into a stage, through each module a writer calls them from
WRITES = [
    (snapshot, "write_manifest"),
    (snapshot, "write_arrays"),
    (tiered, "write_manifest"),
    (server, "write_manifest"),
]


class Fault(OSError):
    """Raised by the shim."""


class Shim:
    """Counts the shimmed calls; raises at call number ``fail_at`` (and at
    every later one too when ``crash``)."""

    def __init__(
        self,
        patch: pytest.MonkeyPatch,
        fail_at: int = -1,
        crash: bool = False,
        points=POINTS,
    ):
        self.calls = 0
        #: the name of each call so far, in order
        self.names: List[str] = []
        self.fail_at, self.crash = fail_at, crash
        for owner, name in points:
            patch.setattr(owner, name, self._wrap(name, getattr(owner, name)))

    def _wrap(self, name: str, real: Callable) -> Callable:
        def shimmed(*args, **kwargs):
            n, self.calls = self.calls, self.calls + 1
            self.names.append(name)
            if n == self.fail_at or (self.crash and 0 <= self.fail_at <= n):
                raise Fault(f"shimmed failure at call {n}")
            return real(*args, **kwargs)

        return shimmed


@dataclass
class Scenario:
    """A writer with an old and a new state: ``save(path)`` publishes the
    current one, ``state(path)`` loads what a path holds."""

    save: Callable[[Path], None]
    state: Callable[[Path], object]
    mutate: Callable[[], None]


def _rows(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, DIM))


def _index_scenario() -> Scenario:
    index = make_index("flat", dim=DIM)
    index.add_batch(_rows(0, 6))

    def state(path):
        loaded = load_index(path)
        return [(i, loaded.get(i).tobytes()) for i in sorted(loaded.ids)]

    return Scenario(
        lambda path: snapshot.save_index(index, path),
        state,
        lambda: (index.add_batch(_rows(1, 2)), index.remove(index.ids[0])),
    )


def _meancache_scenario() -> Scenario:
    encoder = make_tiny_encoder()
    cache = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.99))
    for i in range(5):
        cache.insert(f"how do I configure widget {i}", f"answer {i}")

    def state(path):
        loaded = MeanCache.load(path, encoder)
        return [(e.entry_id, e.query, e.response) for e in loaded.entries]

    return Scenario(
        cache.save, state, lambda: cache.insert("a brand new question", "a new answer")
    )


def _tier_state(tier: QuantizedTier):
    return (
        [(e.entry_id, e.query, e.context.texts) for e in tier.entries],
        sorted(tier.index.ids),
    )


def _tier_scenario() -> Scenario:
    tier = QuantizedTier(dim=DIM, params={"min_train_size": 10_000})
    chain = ContextChain(texts=("a turn",), embedding=np.full(DIM, 0.5))
    for i, row in enumerate(_rows(2, 5)):
        tier.insert(f"q{i}", "r", row, chain if i % 2 else None)

    def mutate():
        tier.insert("new", "r", _rows(3, 1)[0])
        tier.pop(tier.entries[0].entry_id)

    return Scenario(tier.save, lambda path: _tier_state(QuantizedTier.load(path)), mutate)


def _tiered_scenario() -> Scenario:
    encoder = make_tiny_encoder()
    cache = TieredCache(
        encoder,
        MeanCacheConfig(max_entries=2),
        l2=QuantizedTier(params={"min_train_size": 10_000}),
    )
    for i in range(4):
        cache.insert(f"question number {i}", f"answer {i}")

    def state(path):
        loaded = TieredCache.load(path, encoder)
        return [e.query for e in loaded.l1.entries], _tier_state(loaded.l2)

    return Scenario(
        cache.save, state, lambda: cache.insert("one more question", "one more answer")
    )


SCENARIOS = {
    "save_index": _index_scenario,
    "MeanCache.save": _meancache_scenario,
    "QuantizedTier.save": _tier_scenario,
    "TieredCache.save": _tiered_scenario,
}


def _leftovers(root: Path) -> List[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("tmp-*"))


def _old_and_new(build, root: Path):
    """The scenario with its old state published at ``root/"old"`` and its
    new state live; the new state's load signature and the number of shimmed
    calls a save of it makes."""
    scenario = build()
    scenario.save(root / "old")
    old = scenario.state(root / "old")
    scenario.mutate()
    with pytest.MonkeyPatch.context() as patch:
        shim = Shim(patch)
        scenario.save(root / "new")
    new = scenario.state(root / "new")
    assert new != old
    return scenario, old, new, shim.calls


@pytest.mark.parametrize("crash", [False, True], ids=["fault", "crash"])
@pytest.mark.parametrize("writer", list(SCENARIOS))
def test_a_publish_failing_at_any_call_leaves_the_old_or_the_new_state(
    writer, crash, tmp_path
):
    scenario, old, new, n_calls = _old_and_new(SCENARIOS[writer], tmp_path)
    assert n_calls >= 4  # at least: fsync the stage, two renames, the cleanup
    outcomes = set()
    for fail_at in range(n_calls):
        root = tmp_path / f"at-{fail_at}"
        shutil.copytree(tmp_path / "old", root / "snap")
        with pytest.MonkeyPatch.context() as patch:
            shim = Shim(patch, fail_at=fail_at, crash=crash)
            with pytest.raises(Fault):
                scenario.save(root / "snap")
            assert shim.calls > fail_at
        got = scenario.state(root / "snap")
        assert got in (old, new), f"failure at call {fail_at}"
        outcomes.add("new" if got == new else "old")
        scenario.save(root / "snap")
        assert scenario.state(root / "snap") == new
        assert _leftovers(root) == []
    # Early failures keep the old state; a failure after the publish (the
    # parent directory's fsync, the cleanup) leaves the new one.
    assert outcomes == {"old", "new"}


def test_a_crash_between_the_renames_is_recovered_by_the_next_load(tmp_path):
    """The case a killed publish makes worst: the old generation moved
    aside, the new one not yet in place.  The next load puts the old one
    back; before the fix the path held no snapshot at all."""
    index = make_index("flat", dim=DIM)
    index.add_batch(_rows(4, 3))
    path = tmp_path / "snap"
    snapshot.save_index(index, path)
    index.add_batch(_rows(5, 2))
    replaced = []
    real_replace = snapshot.os.replace

    def dies_from_the_second_replace(src, dst):
        replaced.append(dst)
        if len(replaced) >= 2:  # the stage's rename into place, and the rest
            raise Fault("killed between the renames")
        real_replace(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(snapshot.os, "replace", dies_from_the_second_replace)
        with pytest.raises(Fault):
            snapshot.save_index(index, path)
    assert not path.exists()  # what the kill left
    assert len(load_index(path)) == 3
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("tmp-")]
    snapshot.save_index(index, path)
    assert len(load_index(path)) == 5
    assert _leftovers(tmp_path) == []


def test_cleanup_spares_a_sibling_whose_name_extends_the_target(tmp_path):
    """``snap-2``'s staging directory is not one of ``snap``'s leftovers."""
    index = make_index("flat", dim=DIM)
    index.add_batch(_rows(6, 2))
    foreign = tmp_path / "tmp-snap-2" / "abcdefgh"
    foreign.mkdir(parents=True)
    snapshot.save_index(index, tmp_path / "snap")
    assert foreign.is_dir()


# --------------------------------------------------------------------------- #
# Writes into the stage, and the fleet checkpoint
# --------------------------------------------------------------------------- #
def _fail_each_call(scenario, old, new, tmp_path, crash, pick) -> set:
    """Fail ``scenario.save`` over ``old`` at each of its shimmed calls
    (:data:`POINTS` and :data:`WRITES`) that ``pick(name)`` selects; check
    that the path loads to the old or the new state and that the next save
    leaves no ``tmp-`` entry.  Returns the states the failures left."""
    points = POINTS + WRITES
    shutil.copytree(tmp_path / "old", tmp_path / "count" / "snap")
    with pytest.MonkeyPatch.context() as patch:
        counted = Shim(patch, points=points)
        scenario.save(tmp_path / "count" / "snap")
    chosen = [n for n, name in enumerate(counted.names) if pick(name)]
    assert chosen
    outcomes = set()
    for fail_at in chosen:
        root = tmp_path / f"at-{fail_at}"
        shutil.copytree(tmp_path / "old", root / "snap")
        with pytest.MonkeyPatch.context() as patch:
            shim = Shim(patch, fail_at=fail_at, crash=crash, points=points)
            with pytest.raises(Fault):
                scenario.save(root / "snap")
            assert shim.calls > fail_at
        got = scenario.state(root / "snap")
        assert got in (old, new), f"failure at call {fail_at} ({counted.names[fail_at]})"
        outcomes.add("new" if got == new else "old")
        scenario.save(root / "snap")
        assert scenario.state(root / "snap") == new
        assert _leftovers(root) == []
    return outcomes


@pytest.mark.parametrize("crash", [False, True], ids=["fault", "crash"])
@pytest.mark.parametrize("writer", list(SCENARIOS))
def test_a_write_into_the_stage_failing_leaves_the_old_state(writer, crash, tmp_path):
    scenario, old, new, _ = _old_and_new(SCENARIOS[writer], tmp_path)
    writes = {name for _, name in WRITES}
    assert _fail_each_call(scenario, old, new, tmp_path, crash, writes.__contains__) == {"old"}


def _window(users, round_no: int) -> Trace:
    events = [
        WorkloadEvent(
            time_s=float(round_no),
            user_id=user,
            query=f"{user} asks question {round_no} about topic {7 * round_no + i}",
        )
        for i, user in enumerate(users)
    ]
    return Trace(events=events, n_users=len(users))


def _fleet_scenario(users, factory, loader, signature) -> Scenario:
    """A two-shard server whose ``users`` each hold a cache from
    ``factory``: ``save`` is a checkpoint, ``state`` what a restore into a
    new server gives each user, ``mutate`` one more window of traffic."""

    def new_server():
        return CacheServer(
            factory, SimulatedLLMService(LLMServiceConfig(seed=0)), ServerConfig(n_shards=2)
        )

    live = new_server()
    rounds = iter(range(100))
    live.replay(_window(users, next(rounds)))

    def state(path):
        restored = new_server()
        restored.restore(path, loader)
        return sorted((user, signature(a.cache)) for user, a in restored.adapters.items())

    return Scenario(live.checkpoint, state, lambda: live.replay(_window(users, next(rounds))))


def _tiered_fleet() -> Scenario:
    """One user: a tiered cache's save is three publishes, each failed at
    every call (the users' map is the MeanCache fleet's to cover)."""
    encoder = make_tiny_encoder()
    return _fleet_scenario(
        ["alice"],
        lambda user: TieredCache(
            encoder,
            MeanCacheConfig(max_entries=1, similarity_threshold=0.99),
            l2=QuantizedTier(params={"min_train_size": 10_000}),
        ),
        lambda path: TieredCache.load(path, encoder),
        lambda cache: ([e.query for e in cache.l1.entries], _tier_state(cache.l2)),
    )


def _meancache_fleet() -> Scenario:
    encoder = make_tiny_encoder()
    return _fleet_scenario(
        ["alice", "bob"],
        lambda user: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.99)),
        lambda path: MeanCache.load(path, encoder),
        lambda cache: [(e.entry_id, e.query, e.response) for e in cache.entries],
    )


@pytest.mark.parametrize("crash", [False, True], ids=["fault", "crash"])
@pytest.mark.parametrize(
    "users", [_tiered_fleet, _meancache_fleet], ids=["TieredCache", "MeanCache"]
)
def test_a_checkpoint_failing_at_any_call_leaves_the_old_or_the_new_checkpoint(
    users, crash, tmp_path
):
    scenario, old, new, _ = _old_and_new(users, tmp_path)
    outcomes = _fail_each_call(scenario, old, new, tmp_path, crash, lambda name: True)
    assert outcomes == {"old", "new"}
