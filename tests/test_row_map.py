"""The id → row map every row store keeps, and the router state beside it.

* :class:`~repro.index.postings.RowMap` against a dict: a generated
  operation sequence (GIPS-style) drives the map's scalar and block API
  exactly as a row store does — ``set``/``set_block`` appends,
  swap-with-last ``swap_remove`` (with and without the re-anchoring its
  schedule triggers), a ``remap_block`` permutation, ``clear`` — while the
  dict is kept the way the store kept its own before the map replaced it.
  Ids come from the monotonic stream, from below a re-anchored base, and
  far above everything after a clear.
* the router's per-row cells: a removal whose cell does not list the id
  fails loudly instead of leaving a stale id to gather.
* a zero-copy restore leaves the map empty until an id-keyed call, and an
  ``ivf`` index restored that way still answers searches identically.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.index import load_index, make_index, save_index
from repro.index.postings import RowMap

#: where a new id comes from: past the highest id so far, the low ids a
#: re-anchored base has moved above, or far above everything (a map
#: anchored there by a clear must size by span, not magnitude)
KINDS = st.sampled_from(["next", "low", "high"])
HIGH = 10_000


class RowMapAgainstDict(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.map = RowMap()
        self.by_row: List[int] = []  # the owner's id column
        self.oracle: Dict[int, int] = {}  # id -> row, kept as the dict store did
        self.next_id = 0
        self.gone: List[int] = []

    def fresh(self, kind: str, offset: int) -> int:
        if kind == "next":
            return self.next_id + offset
        if kind == "low":
            return offset
        return HIGH + self.next_id + offset

    def appended(self, ids: List[int]) -> None:
        for id in ids:
            self.oracle[id] = len(self.by_row)
            self.by_row.append(id)
            self.next_id = max(self.next_id, id + 1)

    @rule(kind=KINDS, offset=st.integers(0, 40))
    def set(self, kind, offset):
        id = self.fresh(kind, offset)
        assume(id not in self.oracle)
        empty = not self.oracle
        self.map.set(id, len(self.by_row))
        self.appended([id])
        if empty:
            assert self.map.slots == 64  # anchored at the id, whatever its size

    @rule(kind=KINDS, offset=st.integers(0, 40), n=st.integers(1, 6))
    def set_block(self, kind, offset, n):
        ids = [self.fresh(kind, offset + 3 * j) for j in range(n)]
        assume(not set(ids) & set(self.oracle))
        self.map.set_block(np.asarray(ids, dtype=np.int64), len(self.by_row))
        self.appended(ids)

    @precondition(lambda self: self.by_row)
    @rule(pick=st.integers(0, 2**16), reanchor=st.booleans())
    def swap_remove(self, pick, reanchor):
        id = self.by_row[pick % len(self.by_row)]
        row = self.oracle.pop(id)
        last = len(self.by_row) - 1
        moved = None
        if row != last:
            moved = self.by_row[last]
            self.by_row[row] = moved
            self.oracle[moved] = row
        self.by_row.pop()
        if reanchor:
            self.map._countdown = 1  # the amortized schedule comes due now
        slots = self.map.slots
        self.map.swap_remove(id, row, moved, np.asarray(self.by_row, dtype=np.int64))
        if reanchor and slots > 4 * max(64, len(self.by_row)):
            assert self.map.slots <= slots
        self.gone.append(id)

    @precondition(lambda self: self.by_row)
    @rule(seed=st.integers(0, 2**16))
    def remap_block(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.by_row))
        self.by_row = [self.by_row[r] for r in order]
        self.oracle = {id: row for row, id in enumerate(self.by_row)}
        self.map.remap_block(np.asarray(self.by_row, dtype=np.int64), 0)

    @rule()
    def clear(self):
        self.gone.extend(self.by_row)
        self.map.clear()
        self.by_row, self.oracle = [], {}

    @invariant()
    def the_map_agrees_with_the_dict(self):
        assert self.oracle == {id: row for row, id in enumerate(self.by_row)}
        for id, row in self.oracle.items():
            assert self.map.get(id) == row
            assert id in self.map
        if self.by_row:
            ids = np.asarray(self.by_row, dtype=np.int64)
            assert np.array_equal(self.map.rows(ids), np.arange(len(ids)))
            out = np.empty_like(ids)
            assert np.array_equal(self.map.rows_into(ids, out), np.arange(len(ids)))
        for id in self.gone[-20:] + [0, -1, self.next_id, HIGH + 10 * self.next_id]:
            if id not in self.oracle:
                assert self.map.get(id) is None
                assert id not in self.map


TestRowMapAgainstDict = RowMapAgainstDict.TestCase
TestRowMapAgainstDict.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None, derandomize=True
)


# --------------------------------------------------------------------------- #
# The router's per-row cells
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["ivf", "ivf+sq8"])
def test_a_removal_whose_cell_does_not_list_the_id_fails_loudly(backend):
    rng = np.random.default_rng(3)
    index = make_index(backend, dim=8, min_train_size=16, nlist=4, nprobe=4, seed=0)
    ids = index.add_batch(rng.normal(size=(40, 8)))
    router = index._router
    assert router.is_trained
    victim = ids[5]
    row = index._id_to_row.get(victim)
    router.cells[row] = (router.cells[row] + 1) % router.nlist  # out of sync
    with pytest.raises(RuntimeError, match="not in its cell"):
        index.remove(victim)


# --------------------------------------------------------------------------- #
# Zero-copy restores
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["flat", "sq8"])
def test_a_zero_copy_restore_fills_the_map_on_the_first_id_keyed_call(backend, tmp_path):
    rng = np.random.default_rng(4)
    index = make_index(backend, dim=8)
    ids = index.add_batch(rng.normal(size=(300, 8)))
    for victim in ids[::7]:
        index.remove(victim)
    save_index(index, tmp_path / "snap")
    loaded = load_index(tmp_path / "snap", mmap=True)
    assert loaded.mmap_backed
    assert loaded._row_map_deferred  # nothing mapped yet: an O(1) warm start
    assert loaded.search(index.get(ids[1]), top_k=3) == index.search(
        index.get(ids[1]), top_k=3
    )
    assert loaded._row_map_deferred
    assert ids[1] in loaded and ids[7] not in loaded
    assert not loaded._row_map_deferred
    assert loaded.mmap_backed  # an id-keyed read copies nothing
    for id in index.ids:
        assert loaded._id_to_row.get(id) == index._id_to_row.get(id)


def test_an_ivf_index_restored_zero_copy_searches_before_any_id_keyed_call(tmp_path):
    rng = np.random.default_rng(5)
    index = make_index("ivf", dim=8, min_train_size=32, nlist=6, nprobe=3, seed=0)
    ids = index.add_batch(rng.normal(size=(200, 8)))
    for victim in ids[::5]:
        index.remove(victim)
    assert index.is_trained
    save_index(index, tmp_path / "snap")
    queries = rng.normal(size=(6, 8))
    loaded = load_index(tmp_path / "snap", mmap=True)
    assert loaded.mmap_backed
    assert loaded.search(queries, top_k=5) == index.search(queries, top_k=5)
    assert loaded.search(queries[0], top_k=5, stop_score=0.5) == index.search(
        queries[0], top_k=5, stop_score=0.5
    )
