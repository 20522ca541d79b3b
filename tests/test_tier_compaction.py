"""What a shared-tier compaction writes, and what it renders to write it.

A :class:`~repro.core.tiered.QuantizedTier` folds its delta log into a full
snapshot every ``compact_every`` records.  The fold keeps each live entry's
rendered ``entries.json`` block from the save that first wrote it, so:

* the bytes are the reference encoding's — after every save,
  ``entries.json`` is ``json.dumps(records, indent=1)`` of the live entries,
  whatever ran before it (a generated operation sequence, GIPS-style:
  insert with and without context, pop, FIFO eviction, clear, seal, flush,
  save, load-and-continue, compaction);
* the block memo is a FIFO prefix of the live entries, each block the
  reference rendering of its record, and all of them once a save ran; the
  context-chain memo is the contextual entries in FIFO order; the router's
  per-row cells agree with its inverted lists;
* a fold renders the entries added since the previous one, not the tier —
  and the first fold after a load renders only what the delta log added;
* a fold fsyncs each file it writes once.

Also here: ``clear()`` is durable like any other mutation, a context chain
the L1 lookup embedded is not embedded again for the L2 fall-through, and
the vectorized router paths agree with the per-id / per-cell loops they
replaced (kept below as oracles).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import make_tiny_encoder

from repro.core.cache import MeanCacheConfig
from repro.core.context import ContextChain
from repro.core.tiered import QuantizedTier, TieredCache, _tier_entry_record
from repro.index import delta_log_size, make_index

pytestmark = pytest.mark.concurrency

DIM = 8
UNTRAINED = {"min_train_size": 10_000}


def _unit(seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=DIM)
    return v / np.linalg.norm(v)


def _image(tier):
    return [(e.entry_id, e.query, e.response, e.context.texts) for e in tier.entries]


def _reference_entries_json(tier) -> str:
    records = [_tier_entry_record(e, with_ctx_embedding=False) for e in tier.entries]
    return json.dumps(records, indent=1) + "\n"


def _reference_block(entry) -> str:
    """``entry``'s record as ``json.dumps(records, indent=1)`` prints it in the list."""
    text = json.dumps([_tier_entry_record(entry, with_ctx_embedding=False)], indent=1)
    return text[len("[\n ") : -len("\n]")]


def _members(router):
    """Every routed id and its cell, in list order (cell 0's ids first)."""
    views = [lst.view() for lst in router.lists]
    ids = np.concatenate(views) if views else np.zeros(0, dtype=np.int64)
    cells = np.repeat(np.arange(len(views)), [view.shape[0] for view in views])
    return ids, cells


# --------------------------------------------------------------------------- #
# Generated operation sequences
# --------------------------------------------------------------------------- #
class TierFolds(RuleBasedStateMachine):
    """One routed tier (FIFO-bounded, folding every two log records) driven
    through arbitrary interleavings; the live tier is the oracle for what a
    load returns, the ``indent=1`` encoder for what a save writes."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="tier-folds-"))
        self.steps = 0
        self.attach(
            QuantizedTier(
                dim=DIM,
                backend="ivf+sq8",
                params={"min_train_size": 6, "nlist": 2, "seed": 0},
                max_entries=12,
                snapshot_dir=self.root / "snap",
                compact_every=2,
            )
        )

    def attach(self, tier: QuantizedTier) -> None:
        """Drive ``tier`` from now on, noting every save it makes."""
        self.tier, self.saved = tier, False
        save = tier.save

        def noted(path):
            self.saved = True
            return save(path)

        tier.save = noted

    @rule(seed=st.integers(0, 2**16), contextual=st.booleans())
    def insert(self, seed, contextual):
        self.steps += 1
        context = (
            ContextChain(texts=(f"turn {seed} é %s", ""), embedding=_unit(seed + 1))
            if contextual
            else None
        )
        self.tier.insert(f'q{self.steps} "{seed}" \\ %', f"r\n{seed}", _unit(seed), context)

    @precondition(lambda self: len(self.tier) > 0)
    @rule(pick=st.integers(0, 2**16))
    def pop(self, pick):
        entries = self.tier.entries
        self.tier.pop(entries[pick % len(entries)].entry_id)

    @rule()
    def clear(self):
        self.tier.clear()

    @rule()
    def seal(self):
        self.tier.seal()

    @rule()
    def flush(self):
        self.tier.flush()

    @rule()
    def maintenance(self):
        self.tier.maintenance()

    @rule()
    def save(self):
        self.tier.save(self.root / "snap")

    @rule()
    def load_and_continue(self):
        self.tier.flush()
        loaded = QuantizedTier.load(self.root / "snap")
        assert _image(loaded) == _image(self.tier)
        self.attach(loaded)

    @invariant()
    def block_memo_is_a_fifo_prefix_of_reference_blocks(self):
        tier = self.tier
        kept = list(tier._blocks)
        assert kept == list(tier._entries)[: len(kept)]
        for entry_id, block in tier._blocks.items():
            assert block == _reference_block(tier.entry(entry_id))

    @invariant()
    def ctx_memo_is_the_contextual_entries_in_fifo_order(self):
        expected = [
            (e.entry_id, e.context.embedding)
            for e in self.tier.entries
            if e.context.embedding is not None
        ]
        assert list(self.tier._ctx) == [entry_id for entry_id, _ in expected]
        for entry_id, embedding in expected:
            assert self.tier._ctx[entry_id] is embedding

    @invariant()
    def router_cells_agree_with_the_lists(self):
        index = self.tier.index
        router = index._router
        if not router.is_trained:
            return
        ids, cells = _members(router)
        n = len(index)
        assert router.size == n == ids.shape[0]
        rows = index._id_to_row.rows(ids)
        assert np.array_equal(np.sort(rows), np.arange(n))
        assert np.array_equal(router.cells[rows], cells)

    @invariant()
    def sealed_records_continue_the_log(self):
        sealed = [record.seq for record in self.tier._sealed]
        if sealed:
            committed = delta_log_size(self.root / "snap")[0]
            assert sealed == list(range(committed + 1, committed + 1 + len(sealed)))

    @invariant()
    def a_save_writes_the_reference_encoding(self):
        if self.saved:
            self.saved = False
            written = (self.root / "snap" / "entries.json").read_text(encoding="utf-8")
            assert written == _reference_entries_json(self.tier)
            assert set(self.tier._blocks) == set(self.tier._entries)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


TestTierFolds = TierFolds.TestCase
TestTierFolds.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
)


# --------------------------------------------------------------------------- #
# What a fold renders
# --------------------------------------------------------------------------- #
def _count_renders(monkeypatch):
    """The ids of the ``entries.json`` records the tier renders from now on."""
    rendered = []

    def counted(entry, with_ctx_embedding=True):
        if not with_ctx_embedding:  # an entries.json record, not a delta's meta
            rendered.append(entry.entry_id)
        return _tier_entry_record(entry, with_ctx_embedding)

    monkeypatch.setattr("repro.core.tiered._tier_entry_record", counted)
    return rendered


def _contextual(i: int):
    return ContextChain(texts=(f"turn {i}",), embedding=_unit(1000 + i)) if i % 3 == 0 else None


def test_a_fold_renders_only_the_entries_added_since_the_last(tmp_path, monkeypatch):
    rendered = _count_renders(monkeypatch)
    tier = QuantizedTier(
        dim=DIM, params=UNTRAINED, snapshot_dir=tmp_path / "snap", compact_every=1
    )
    old = [tier.insert(f"old {i}", "r", _unit(i)) for i in range(40)]
    tier.maintenance()  # the baseline renders every entry once
    assert sorted(rendered) == old
    for fold in range(3):
        rendered.clear()
        new = [tier.insert(f"new {fold} {i}", "r", _unit(100 + i)) for i in range(3)]
        tier.pop(old[fold])
        tier.maintenance()  # one log record is due: a fold
        assert sorted(rendered) == new
        assert set(tier._blocks) == {e.entry_id for e in tier.entries}
    assert QuantizedTier.load(tmp_path / "snap").entries == tier.entries


def test_the_first_fold_after_a_load_renders_only_what_the_deltas_added(
    tmp_path, monkeypatch
):
    snap = tmp_path / "snap"
    tier = QuantizedTier(
        dim=DIM,
        backend="ivf+sq8",
        params={"min_train_size": 6, "nlist": 2, "seed": 0},
        snapshot_dir=snap,
        compact_every=100,
    )
    old = [tier.insert(f"old {i}", "r", _unit(i), _contextual(i)) for i in range(30)]
    tier.flush()  # the baseline: a full snapshot
    added = [tier.insert(f"added {i}", "r", _unit(50 + i), _contextual(i)) for i in range(4)]
    tier.flush()
    tier.pop(old[2])
    tier.pop(added[0])
    tier.flush()
    added += [tier.insert(f"late {i}", "r", _unit(60 + i), _contextual(i)) for i in range(2)]
    tier.flush()  # three log records on top of the baseline

    loaded = QuantizedTier.load(snap)
    assert _image(loaded) == _image(tier)
    kept = list(loaded._blocks)
    rendered = _count_renders(monkeypatch)
    loaded.save(snap)
    assert rendered == added[1:]
    assert kept == [i for i in old if i != old[2]]
    assert (snap / "entries.json").read_text(encoding="utf-8") == _reference_entries_json(tier)


def test_an_entries_file_that_does_not_rejoin_is_rendered_again(tmp_path, monkeypatch):
    snap = tmp_path / "snap"
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    ids = [tier.insert(f"q{i}", f"r {i}", _unit(i), _contextual(i)) for i in range(7)]
    tier.save(snap)
    reference = (snap / "entries.json").read_text(encoding="utf-8")
    records = json.loads(reference)
    (snap / "entries.json").write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")

    loaded = QuantizedTier.load(snap)
    assert _image(loaded) == _image(tier)
    assert loaded._blocks == {}
    rendered = _count_renders(monkeypatch)
    loaded.save(snap)
    assert rendered == ids
    assert (snap / "entries.json").read_text(encoding="utf-8") == reference


def test_a_fold_fsyncs_each_file_once(tmp_path, monkeypatch):
    """The index snapshot is written into the tier's stage, not staged,
    fsynced and published on its own inside it."""
    snap = tmp_path / "snap"
    tier = QuantizedTier(
        dim=DIM,
        backend="ivf+sq8",
        params={"min_train_size": 6, "nlist": 2, "seed": 0},
        snapshot_dir=snap,
        compact_every=1,
    )
    for i in range(20):
        tier.insert(f"q{i}", "r", _unit(i), _contextual(i))
    tier.flush()
    tier.insert("one more", "r", _unit(99))
    tier.flush()
    fsynced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsynced.append(fd), fsync(fd))[1])
    tier.save(snap)  # what maintenance() does once the log is due
    written = list(snap.rglob("*"))
    assert {p.relative_to(snap).as_posix() for p in written} >= {
        "entries.json",
        "manifest.json",
        "index/manifest.json",
        "index/arrays/codes.npy",
        "index/arrays/rt_assign.npy",
    }
    # Once per file and directory under the snapshot, once for the snapshot
    # directory itself and once for its parent after the rename.
    assert len(fsynced) == len(written) + 2


# --------------------------------------------------------------------------- #
# clear() is committed like any other mutation
# --------------------------------------------------------------------------- #
def test_a_cleared_tier_loads_as_it_is_live(tmp_path):
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=tmp_path / "snap")
    for i in range(5):
        tier.insert(f"q{i}", "r", _unit(i))
    tier.maintenance()
    tier.clear()
    tier.flush()
    assert QuantizedTier.load(tmp_path / "snap").entries == []
    tier.insert("after", "r", _unit(9))
    tier.maintenance()
    loaded = QuantizedTier.load(tmp_path / "snap")
    assert [e.query for e in loaded.entries] == [e.query for e in tier.entries] == ["after"]


def test_a_cleared_tiered_cache_loads_as_it_is_live(tmp_path):
    cache = TieredCache(
        make_tiny_encoder(),
        MeanCacheConfig(max_entries=1),
        l2=QuantizedTier(params=UNTRAINED, snapshot_dir=tmp_path / "cache" / "l2"),
    )
    for i in range(4):
        cache.insert(f"question number {i}", f"answer {i}")
    cache.maintenance()
    assert len(QuantizedTier.load(tmp_path / "cache" / "l2")) == 3
    cache.clear()
    cache.insert("one after the clear", "a")
    cache.insert("two after the clear", "b")  # demotes the first into L2
    cache.local_maintenance()  # no baseline since the clear: the seal publishes one
    loaded = QuantizedTier.load(tmp_path / "cache" / "l2")
    assert _image(loaded) == _image(cache.l2)
    assert [e.query for e in loaded.entries] == ["one after the clear"]


# --------------------------------------------------------------------------- #
# One context embed per probe across the tiers
# --------------------------------------------------------------------------- #
def test_the_l2_fall_through_reuses_the_chain_l1_embedded(monkeypatch):
    """L1 holds the query under one context, L2 under another: a probe under
    the L2 one clears τ in L1, fails its context check there and hits in
    L2 — embedding its chain once, not once per tier."""
    encoder = make_tiny_encoder()
    cache = TieredCache(
        encoder,
        MeanCacheConfig(max_entries=1, similarity_threshold=0.9),
        l2=QuantizedTier(params=UNTRAINED),
    )
    query, ours, theirs = (
        "how do I reset the flux capacitor",
        "talking about time machines",
        "discussing sourdough starters and baking bread today",
    )
    cache.insert(query, "ours", context=[ours])
    cache.insert(query, "theirs", context=[theirs])  # demotes "ours" into L2
    assert [e.response for e in cache.l2.entries] == ["ours"]

    chain_encodes = []
    encode = encoder.encode

    def counting(texts, compress=True):
        if list(texts) == [ours]:
            chain_encodes.append(texts)
        return encode(texts, compress=compress)

    monkeypatch.setattr(encoder, "encode", counting)
    decision = cache.lookup(query, context=[ours])
    assert decision.hit and decision.response == "ours" and decision.context_verified
    assert len(chain_encodes) == 1
    # A probe L1 never had to verify embeds its chain for L2 only.
    chain_encodes.clear()
    assert not cache.lookup("a question nobody has asked yet", context=[ours]).hit
    assert len(chain_encodes) <= 1


# --------------------------------------------------------------------------- #
# The vectorized router paths against the loops they replaced
# --------------------------------------------------------------------------- #
def _assign_per_id(router, live_ids):
    """A live row's cell the way the router once kept it: an id -> cell dict
    built from the inverted lists, looked up once per id."""
    cell_of = {int(i): li for li, lst in enumerate(router.lists) for i in lst.view()}
    return np.asarray([cell_of[int(i)] for i in live_ids], dtype=np.int64)


def _cell_major_per_cell(router):
    """``QuantizedIndex._compact_layout``'s loop before the one sort: a sort per cell."""
    return np.concatenate([np.sort(lst.view()) for lst in router.lists if len(lst)])


def _cell_major_by_members(router):
    """``QuantizedIndex._compact_layout``'s body before the per-row cells: the
    routed ids and cells, one sort of a (cell, id) key, and the new id -> row
    dict."""
    ids, cells = _members(router)
    base = int(ids.min())
    span = int(ids.max()) - base + 1
    ids_new = np.sort(cells * span + (ids - base)) % span + base
    return ids_new, dict(zip(ids_new.tolist(), range(len(ids_new))))


def _churned(backend, rng):
    index = make_index(
        backend, dim=DIM, min_train_size=32, nlist=6, auto_repartition=False, seed=0
    )
    ids = index.add_batch(rng.normal(size=(200, DIM)))
    for victim in rng.choice(ids, size=80, replace=False):
        index.remove(int(victim))
    index.add_batch(rng.normal(size=(60, DIM)))
    return index


def _check_against_oracles(index):
    router = index._router
    live = np.asarray(index.ids, dtype=np.int64)
    arrays = index._snapshot_arrays()
    prefix = "rt_" if "rt_assign" in arrays else ""
    assert np.array_equal(arrays[prefix + "assign"], _assign_per_id(router, live))
    if hasattr(index, "_compact_layout"):
        expected = _cell_major_per_cell(router)
        expected_ids, expected_rows = _cell_major_by_members(router)
        assert np.array_equal(expected_ids, expected)
        index._compact_layout()
        assert np.array_equal(np.asarray(index.ids), expected)
        assert np.array_equal(router.row_map.rows(expected), np.arange(len(expected)))
        assert {i: index._id_to_row.get(i) for i in expected_rows} == expected_rows
        assert router.row_map is index._id_to_row
        assert np.array_equal(
            index._snapshot_arrays()[prefix + "assign"],
            _assign_per_id(router, np.asarray(index.ids, dtype=np.int64)),
        )


def test_router_paths_match_their_loops_after_churn_and_a_repartition():
    for backend in ("ivf+sq8", "ivf"):
        rng = np.random.default_rng(7)
        index = _churned(backend, rng)
        assert index._router.is_trained
        _check_against_oracles(index)
        trained_size = index._router.trained_size
        index.add_batch(rng.normal(size=(400, DIM)))  # growth: a refit is due
        assert index._router.repartition_due
        index.maintenance()
        assert index._router.trained_size != trained_size
        for victim in index.ids[::3]:
            index.remove(victim)
        _check_against_oracles(index)
