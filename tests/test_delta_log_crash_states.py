"""The delta log's crash states, generated rather than sampled.

A record is one line of one append-only file, and a commit (group commit:
every record the tier's caches sealed since the last one) is one write of
whole lines, so a crash can leave exactly two things: some prefix of the
commit's records whole, then nothing or one torn line.  Instead of
hand-picking kill points, these tests enumerate them: the log is cut at
*every* byte offset of its last record, and of a multi-record commit, and
the append is failed at *every* call it makes (``write``, ``flush``,
``os.fsync``) — standalone, in a replayed server flush and in a live one.
The last tests count what a commit costs — one open and one ``fsync`` of the
log per commit (per server flush that changed the tier), no file or
directory created.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import make_tiny_encoder

from repro.core.cache import MeanCacheConfig
from repro.core.context import ContextChain
from repro.core.tiered import QuantizedTier, TieredCache
from repro.index import delta_log_size, read_deltas, snapshot
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadEvent

pytestmark = pytest.mark.concurrency

DIM = 16
UNTRAINED = {"min_train_size": 10_000}
LOG = "deltas.jsonl"


def _state(tier):
    """What a reload must reproduce: entries, their chains, the index's ids."""
    return (
        [
            (
                e.entry_id,
                e.query,
                e.response,
                tuple(e.context.texts),
                # chains persist as float32, whatever dtype the enrolment held
                None
                if e.context.embedding is None
                else e.context.embedding.astype(np.float32).tobytes(),
            )
            for e in tier.entries
        ],
        sorted(int(i) for i in tier.index.ids),
    )


def _tier_with_two_records(snap: Path):
    """A tier whose snapshot holds a baseline and two committed records, the
    second with every kind of payload (rows, a chain embedding, a removal);
    returns ``(tier, state after record 1, state after record 2)``."""
    rng = np.random.default_rng(22)
    chain = ContextChain(texts=("earlier turn",), embedding=np.ones(DIM) / np.sqrt(DIM))
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    first = [tier.insert(f"baseline {i}", "r", rng.normal(size=DIM)) for i in range(3)]
    tier.flush()  # baseline
    tier.insert("record one", "r", rng.normal(size=DIM))
    tier.flush()  # record 1
    after_one = _state(tier)
    tier.insert("record two, plain", "r", rng.normal(size=DIM))
    tier.insert("record two, contextual", "r", rng.normal(size=DIM), chain)
    tier.pop(first[1])
    tier.flush()  # record 2
    assert delta_log_size(snap) == (2, 3)
    return tier, after_one, _state(tier)


def _tier_with_a_sealed_group(snap: Path):
    """:func:`_tier_with_two_records`, then three sealed records (an add; an
    add with a chain embedding and a removal; a pure removal) and one add
    still buffered: what the next flush commits in one write.  Returns
    ``(tier, states)``, ``states[k]`` the state with ``k`` of the four on
    top of the two committed records."""
    rng = np.random.default_rng(26)
    chain = ContextChain(texts=("a turn",), embedding=np.full(DIM, 0.25))
    tier, _, committed = _tier_with_two_records(snap)
    states = [committed]
    tier.insert("sealed one", "r", rng.normal(size=DIM))
    tier.seal()
    states.append(_state(tier))
    tier.insert("sealed two, contextual", "r", rng.normal(size=DIM), chain)
    tier.pop(tier.entries[0].entry_id)
    tier.seal()
    states.append(_state(tier))
    tier.pop(tier.entries[0].entry_id)
    tier.seal()
    states.append(_state(tier))
    tier.insert("still buffered", "r", rng.normal(size=DIM))
    states.append(_state(tier))
    assert [r.seq for r in tier._sealed] == [3, 4, 5] and tier._pending_ids
    assert tier._sealed[2].vectors is None  # the pure removal
    return tier, states


def _seqs(data: bytes):
    return [json.loads(line)["seq"] for line in data.splitlines()]


def test_every_truncation_of_the_last_record_loads_and_appends(tmp_path):
    """Cut the log at each byte of its last record: the load sees one record
    until the whole JSON object is on disk (its newline is optional), and a
    flush after the restart leaves a log that loads to the live state."""
    snap = tmp_path / "snap"
    _, after_one, after_two = _tier_with_two_records(snap)
    data = (snap / LOG).read_bytes()
    lines = data.splitlines(keepends=True)
    assert len(lines) == 2 and data.endswith(b"}\n")
    start, end = len(lines[0]), len(data)
    rng = np.random.default_rng(23)

    for cut in range(start, end + 1):
        (snap / LOG).write_bytes(data[:cut])
        whole = cut >= end - 1  # the closing brace is the last byte but one
        tier = QuantizedTier.load(snap)
        assert _state(tier) == (after_two if whole else after_one), cut

        tier.insert(f"after the crash at {cut}", "r", rng.normal(size=DIM))
        tier.flush()
        assert _state(QuantizedTier.load(snap)) == _state(tier), cut
        repaired = (snap / LOG).read_bytes()
        assert repaired.startswith(data[: end - 1] if whole else lines[0]), cut
        records = [json.loads(line) for line in repaired.splitlines()]
        assert [r["seq"] for r in records] == list(range(1, (3 if whole else 2) + 1)), cut
        assert repaired.endswith(b"}\n"), cut


def test_every_cut_of_a_grouped_commit_loads_as_whole_records(tmp_path):
    """Cut the log at each byte of one flush's four-record write: the load
    is the baseline plus the records whose whole JSON object is on disk (a
    prefix of the four), and the next grouped commit cuts off the torn
    line, keeps that prefix and numbers its own records after it."""
    snap = tmp_path / "snap"
    tier, states = _tier_with_a_sealed_group(snap)
    before = (snap / LOG).read_bytes()
    tier.flush()
    data = (snap / LOG).read_bytes()
    assert data.startswith(before) and _seqs(data) == [1, 2, 3, 4, 5, 6]
    group = data[len(before) :].splitlines(keepends=True)
    ends = list(itertools.accumulate((len(line) for line in group), initial=len(before)))[1:]
    rng = np.random.default_rng(27)

    for cut in range(len(before), len(data) + 1):
        (snap / LOG).write_bytes(data[:cut])
        whole = sum(cut >= end - 1 for end in ends)  # closing brace on disk
        tier = QuantizedTier.load(snap)
        assert _state(tier) == states[whole], cut

        for i in range(2):  # the next commit is itself a group of two
            tier.insert(f"after the crash at {cut}, {i}", "r", rng.normal(size=DIM))
            tier.seal()
        tier.flush()
        assert _state(QuantizedTier.load(snap)) == _state(tier), cut
        repaired = (snap / LOG).read_bytes()
        assert repaired.startswith(data[: ends[whole - 1] - 1] if whole else before), cut
        assert _seqs(repaired) == list(range(1, 2 + whole + 2 + 1)), cut
        assert repaired.endswith(b"}\n"), cut


class _FailingLog:
    """The append's file object, failing one of its calls."""

    def __init__(self, fh, fail: str) -> None:
        self._fh, self._fail = fh, fail

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        if self._fail in ("write", "stuck"):
            self._fh.write(data[: len(data) // 2])  # a short write, then the error
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def flush(self):
        if self._fail == "flush":
            raise OSError(5, "Input/output error")
        return self._fh.flush()

    def truncate(self, size):
        if self._fail == "stuck":  # the bytes cannot be taken back either
            raise OSError(5, "Input/output error")
        return self._fh.truncate(size)


@contextmanager
def _failing_log(fail: str):
    """Make every append to a delta log fail at its ``fail`` call."""
    real_fsync = os.fsync

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FailingLog(fh, fail) if mode == "ab" else fh

    def failing_fsync(fd):
        if fail == "fsync" and os.readlink(f"/proc/self/fd/{fd}").endswith(LOG):
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(snapshot, "open", failing_open, raising=False)
        patch.setattr(snapshot.os, "fsync", failing_fsync)
        yield


FAILING_CALLS = ["write", "flush", "fsync"]


@pytest.mark.parametrize("fail", FAILING_CALLS)
def test_an_append_failing_at_any_call_takes_its_bytes_back(tmp_path, fail):
    """Whichever call of the append raises, the log is byte for byte what it
    was, the rows stay owed, and the retried flush commits them exactly once."""
    snap = tmp_path / "snap"
    tier, _, _ = _tier_with_two_records(snap)
    before = (snap / LOG).read_bytes()
    tier.insert("not yet durable", "r", np.random.default_rng(24).normal(size=DIM))
    with _failing_log(fail), pytest.raises(OSError):
        tier.flush()
    assert (snap / LOG).read_bytes() == before
    assert [r.seq for r in tier._sealed] == [3]  # still owed

    tier.flush()
    assert not tier._sealed
    after = (snap / LOG).read_bytes()
    assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 1
    assert delta_log_size(snap)[0] == 3
    assert _state(QuantizedTier.load(snap)) == _state(tier)


@pytest.mark.parametrize("fail", FAILING_CALLS)
def test_a_grouped_commit_failing_at_any_call_takes_all_its_bytes_back(tmp_path, fail):
    """The failed commit takes back every record of its one write; the
    records stay owed under their seqs (the buffered rows sealed as the
    fourth), and the retry writes them exactly once."""
    snap = tmp_path / "snap"
    tier, states = _tier_with_a_sealed_group(snap)
    before = (snap / LOG).read_bytes()
    owed = [(r.seq, r.ids, r.removed) for r in tier._sealed]
    with _failing_log(fail), pytest.raises(OSError):
        tier.flush()
    assert (snap / LOG).read_bytes() == before
    assert [(r.seq, r.ids, r.removed) for r in tier._sealed][:3] == owed
    assert [r.seq for r in tier._sealed] == [3, 4, 5, 6] and not tier._pending_ids

    tier.flush()
    assert not tier._sealed and not tier._pending_ids
    after = (snap / LOG).read_bytes()
    assert after.startswith(before) and _seqs(after) == [1, 2, 3, 4, 5, 6]
    assert _state(QuantizedTier.load(snap)) == _state(tier) == states[-1]


def test_a_grouped_append_checks_every_record_before_it_writes(tmp_path):
    """A record that cannot be encoded fails the whole group with the log
    untouched; a group with one record's fields too, or none, is refused."""
    snap = tmp_path / "snap"
    tier, _, _ = _tier_with_two_records(snap)
    before = (snap / LOG).read_bytes()
    good = snapshot.DeltaRecord(3, (90,), (), np.ones((1, DIM), dtype=np.float32))
    bad = snapshot.DeltaRecord(4, (91,), (), np.array([["x"] * DIM]))
    for kwargs in (
        {"records": [good, bad]},
        {"records": [good], "seq": 3},
        {"records": [good], "removed": [1]},
        {"records": []},
    ):
        with pytest.raises(ValueError):
            snapshot.append_delta(snap, **kwargs)
        assert (snap / LOG).read_bytes() == before
    assert snapshot.append_delta(snap, records=[good]) == 3


def test_a_grouped_commit_that_cannot_take_its_bytes_back_is_not_written_twice(tmp_path):
    """The write stops halfway through the group and the truncation fails
    too, leaving what a crash leaves: some records whole, then a torn line.
    The retry re-reads the log, keeps those records and writes only the
    rest, each record once."""
    snap = tmp_path / "snap"
    tier, states = _tier_with_a_sealed_group(snap)
    with _failing_log("stuck"), pytest.raises(OSError):
        tier.flush()
    left = delta_log_size(snap)[0] - 2
    assert 1 <= left < 4  # whole records of the group, then a torn line

    tier.flush()
    assert not tier._sealed
    assert _seqs((snap / LOG).read_bytes()) == [1, 2, 3, 4, 5, 6]
    assert _state(QuantizedTier.load(snap)) == _state(tier) == states[-1]


# --------------------------------------------------------------------------- #
# Sealed records meet save and clear
# --------------------------------------------------------------------------- #
def test_a_save_over_snapshot_dir_drops_the_sealed_records(tmp_path):
    """The new full snapshot holds what they carried: the log starts over."""
    snap = tmp_path / "snap"
    tier, states = _tier_with_a_sealed_group(snap)
    tier.save(snap)
    assert not tier._sealed and not tier._pending_ids
    assert delta_log_size(snap) == (0, 0)
    assert _state(QuantizedTier.load(snap)) == states[-1]
    tier.flush()  # nothing owed
    assert delta_log_size(snap) == (0, 0)
    tier.insert("after the save", "r", np.random.default_rng(28).normal(size=DIM))
    tier.flush()
    assert _seqs((snap / LOG).read_bytes()) == [1]
    assert _state(QuantizedTier.load(snap)) == _state(tier)


def test_a_save_elsewhere_keeps_the_sealed_records_owed(tmp_path):
    """The copy holds the live tier; ``snapshot_dir`` still gets the records."""
    snap = tmp_path / "snap"
    tier, states = _tier_with_a_sealed_group(snap)
    before = (snap / LOG).read_bytes()
    owed = [(r.seq, r.ids, r.removed) for r in tier._sealed]
    tier.save(tmp_path / "copy")
    assert [(r.seq, r.ids, r.removed) for r in tier._sealed] == owed
    assert (snap / LOG).read_bytes() == before
    assert _state(QuantizedTier.load(tmp_path / "copy")) == states[-1]
    tier.flush()
    assert _seqs((snap / LOG).read_bytes()) == [1, 2, 3, 4, 5, 6]
    assert _state(QuantizedTier.load(snap)) == states[-1]


def test_a_clear_drops_the_sealed_records(tmp_path):
    """Nothing is left to log: the next flush publishes the empty tier."""
    snap = tmp_path / "snap"
    tier, _ = _tier_with_a_sealed_group(snap)
    tier.clear()
    assert not tier._sealed and not tier._pending_ids
    tier.flush()
    assert delta_log_size(snap) == (0, 0)
    assert len(QuantizedTier.load(snap)) == 0


# --------------------------------------------------------------------------- #
# Server flushes: every shard slice seals, the tier's upkeep commits
# --------------------------------------------------------------------------- #
USERS = [f"user-{i}" for i in range(8)]
N_SHARDS = 4


def _served_tier(snap: Path, live: bool = False):
    """One shared tier under eight users' tiered caches, each L1 full (so
    every enrolment demotes), baseline on disk; returns ``(tier, server,
    shards)``, ``shards`` the shard indexes the users land on."""
    encoder = make_tiny_encoder()
    tier = QuantizedTier(params=dict(UNTRAINED), snapshot_dir=snap, compact_every=1000)
    caches = {}
    for user in USERS:
        cache = caches[user] = TieredCache(
            encoder, MeanCacheConfig(max_entries=2, similarity_threshold=0.99), l2=tier
        )
        for i in range(2):
            cache.insert(f"{user} warm question {i} about topic {i}", f"warm {i}")
    tier.flush()  # the baseline
    if live:
        service = SimulatedLLMService(LLMServiceConfig(seed=0), thread_safe=True)
        config = ServerConfig(
            n_shards=N_SHARDS, max_batch_size=len(USERS), max_batch_wait_s=30.0
        )
    else:
        service = SimulatedLLMService(LLMServiceConfig(seed=0))
        config = ServerConfig(n_shards=N_SHARDS)
    server = CacheServer(caches.__getitem__, service=service, config=config)
    shards = {server.shard_of(user) for user in USERS}
    assert len(shards) >= 3
    return tier, server, shards


def _question(user: str, round_no: int) -> str:
    return f"{user} asks something new in round {round_no} number {7 * round_no}"


def _window(round_no: int) -> Trace:
    events = [
        WorkloadEvent(time_s=float(round_no), user_id=user, query=_question(user, round_no))
        for user in USERS
    ]
    return Trace(events=events, n_users=len(USERS))


def _log_bytes(snap: Path) -> bytes:
    return (snap / LOG).read_bytes() if (snap / LOG).is_file() else b""


def _assert_each_record_once(tier, n_records: int) -> None:
    records = read_deltas(tier.snapshot_dir)
    assert [r.seq for r in records] == list(range(1, n_records + 1))
    added = [i for r in records for i in r.ids]
    assert len(added) == len(set(added))
    assert not tier._sealed and not tier._pending_ids
    assert _state(QuantizedTier.load(tier.snapshot_dir)) == _state(tier)


@pytest.mark.parametrize("fail", FAILING_CALLS)
def test_a_replayed_flush_whose_commit_fails_raises_and_the_next_commits_once(
    tmp_path, fail
):
    snap = tmp_path / "snap"
    tier, server, shards = _served_tier(snap)
    before = _log_bytes(snap)
    with _failing_log(fail), pytest.raises(OSError):
        server.replay(_window(0))
    assert _log_bytes(snap) == before
    assert len(tier._sealed) == len(shards)  # one per shard slice, all owed

    server.replay(_window(1))
    _assert_each_record_once(tier, 2 * len(shards))


@pytest.mark.serving
@pytest.mark.parametrize("fail", FAILING_CALLS)
def test_a_live_flush_whose_commit_fails_fails_only_its_futures(tmp_path, fail):
    snap = tmp_path / "snap"
    tier, server, shards = _served_tier(snap, live=True)
    before = _log_bytes(snap)
    server.start()
    try:
        with _failing_log(fail):
            failed = [server.submit_threadsafe(u, _question(u, 0)) for u in USERS]
            for future in failed:
                with pytest.raises(OSError):
                    future.result(timeout=30)
        assert _log_bytes(snap) == before
        assert len(tier._sealed) == len(shards)
        served = [server.submit_threadsafe(u, _question(u, 1)) for u in USERS]
        for future in served:
            assert not future.result(timeout=30).hit
    finally:
        server.stop()
    assert server.metrics.failed == len(USERS)
    assert server.metrics.flushes == 2
    _assert_each_record_once(tier, 2 * len(shards))


def _tree(root: Path):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@contextmanager
def _counted_io():
    """``(fsyncs, mkdirs, opened)``, filled by the calls made inside."""
    fsyncs, mkdirs, opened = [], [], []
    real_fsync, real_mkdir, real_os_open = os.fsync, os.mkdir, os.open

    def counting_fsync(fd):
        fsyncs.append(Path(os.readlink(f"/proc/self/fd/{fd}")).name)
        real_fsync(fd)

    def counting_mkdir(path, *args, **kwargs):
        mkdirs.append(str(path))
        real_mkdir(path, *args, **kwargs)

    def counting_os_open(path, flags, *args, **kwargs):
        opened.append((Path(path).name, "os.open"))
        return real_os_open(path, flags, *args, **kwargs)

    def counting_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name, mode))
        return open(file, mode, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", counting_fsync)
        patch.setattr(os, "mkdir", counting_mkdir)
        patch.setattr(snapshot.os, "open", counting_os_open)
        patch.setattr(snapshot, "open", counting_open, raising=False)
        yield fsyncs, mkdirs, opened


def test_a_commit_is_one_append_and_one_fsync(tmp_path):
    """A flush with pending rows opens the log for append, fsyncs once and
    creates nothing: no per-record file, no directory, no directory sync."""
    snap = tmp_path / "snap"
    tier, _, _ = _tier_with_two_records(snap)
    tier.insert("one more row", "r", np.random.default_rng(25).normal(size=DIM))
    tier.pop(tier.entries[0].entry_id)
    listing, tree = sorted(os.listdir(snap)), _tree(snap)

    with _counted_io() as (fsyncs, mkdirs, opened):
        tier.flush()

    assert fsyncs == [LOG]
    assert mkdirs == []
    assert opened == [(LOG, "ab")]
    assert sorted(os.listdir(snap)) == listing and _tree(snap) == tree
    assert not tier._pending_ids and delta_log_size(snap)[0] == 3
    assert _state(QuantizedTier.load(snap)) == _state(tier)


def test_a_server_flush_is_one_append_and_one_fsync(tmp_path):
    """Over four shards, each flush that changed the tier seals one record
    per shard slice and commits them with one open and one fsync of the
    log, creating nothing."""
    snap = tmp_path / "snap"
    tier, server, shards = _served_tier(snap)
    tier.insert("one committed record first", "r", np.ones(64))
    tier.flush()
    listing = sorted(os.listdir(snap))
    rounds = 3

    with _counted_io() as (fsyncs, mkdirs, opened):
        for round_no in range(rounds):
            server.replay(_window(round_no))
            assert delta_log_size(snap)[0] == 1 + (round_no + 1) * len(shards)

    assert fsyncs == [LOG] * rounds
    assert mkdirs == []
    assert opened == [(LOG, "ab")] * rounds
    assert sorted(os.listdir(snap)) == listing
    _assert_each_record_once(tier, 1 + rounds * len(shards))
