"""Replay of ``tests/fixtures/index_streams.json`` (see :mod:`index_streams`)."""

from __future__ import annotations

import json

import pytest

from index_streams import COMPOSITIONS, FIXTURE_PATH, run_composition

EXPECTED = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_composition():
    assert sorted(EXPECTED) == sorted(COMPOSITIONS)


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_search_streams_replay_bit_identically(name):
    got = run_composition(name)
    want = EXPECTED[name]
    assert list(got) == list(want)
    for checkpoint, seen in got.items():
        pinned = want[checkpoint]
        if isinstance(seen, dict) and isinstance(pinned, dict):
            moved = sorted(k for k in set(seen) | set(pinned) if seen.get(k) != pinned.get(k))
            assert not moved, f"{name}/{checkpoint}: {moved} differ from the pinned stream"
        assert seen == pinned, f"{name}/{checkpoint}"
