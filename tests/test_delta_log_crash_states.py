"""The delta log's crash states, generated rather than sampled.

A record is one line of one append-only file, so a crash can leave exactly
two things: the line absent, or the line torn.  Instead of hand-picking kill
points, these tests enumerate them: the log is cut at *every* byte offset of
its last record, and the append is failed at *every* call it makes (``write``,
``flush``, ``os.fsync``).  A last test counts what a commit costs — one
``fsync``, no file or directory created.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.context import ContextChain
from repro.core.tiered import QuantizedTier
from repro.index import delta_log_size, snapshot

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
        if self._fail == "write":
            self._fh.write(data[: len(data) // 2])  # a short write, then the error
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def flush(self):
        if self._fail == "flush":
            raise OSError(5, "Input/output error")
        return self._fh.flush()


@pytest.mark.parametrize("fail", ["write", "flush", "fsync"])
def test_an_append_failing_at_any_call_takes_its_bytes_back(tmp_path, monkeypatch, fail):
    """Whichever call of the append raises, the log is byte for byte what it
    was, the rows stay owed, and the retried flush commits them exactly once."""
    snap = tmp_path / "snap"
    tier, _, _ = _tier_with_two_records(snap)
    before = (snap / LOG).read_bytes()
    real_fsync = os.fsync

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FailingLog(fh, fail) if mode == "ab" else fh

    def failing_fsync(fd):
        if fail == "fsync" and os.readlink(f"/proc/self/fd/{fd}").endswith(LOG):
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    tier.insert("not yet durable", "r", np.random.default_rng(24).normal(size=DIM))
    monkeypatch.setattr(snapshot, "open", failing_open, raising=False)
    monkeypatch.setattr(snapshot.os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        tier.flush()
    monkeypatch.undo()
    assert (snap / LOG).read_bytes() == before
    assert tier._pending_ids  # still owed

    tier.flush()
    assert not tier._pending_ids
    after = (snap / LOG).read_bytes()
    assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 1
    assert delta_log_size(snap)[0] == 3
    assert _state(QuantizedTier.load(snap)) == _state(tier)


def _tree(root: Path):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_a_commit_is_one_append_and_one_fsync(tmp_path, monkeypatch):
    """A flush with pending rows opens the log for append, fsyncs once and
    creates nothing: no per-record file, no directory, no directory sync."""
    snap = tmp_path / "snap"
    tier, _, _ = _tier_with_two_records(snap)
    tier.insert("one more row", "r", np.random.default_rng(25).normal(size=DIM))
    tier.pop(tier.entries[0].entry_id)
    listing, tree = sorted(os.listdir(snap)), _tree(snap)

    fsyncs, mkdirs, opened = [], [], []
    real_fsync, real_mkdir, real_os_open = os.fsync, os.mkdir, os.open

    def counting_fsync(fd):
        fsyncs.append(os.readlink(f"/proc/self/fd/{fd}"))
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

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    monkeypatch.setattr(snapshot.os, "open", counting_os_open)
    monkeypatch.setattr(snapshot, "open", counting_open, raising=False)
    tier.flush()
    monkeypatch.undo()

    assert [Path(p).name for p in fsyncs] == [LOG]
    assert mkdirs == []
    assert opened == [(LOG, "ab")]
    assert sorted(os.listdir(snap)) == listing and _tree(snap) == tree
    assert not tier._pending_ids and delta_log_size(snap)[0] == 3
    assert _state(QuantizedTier.load(snap)) == _state(tier)
