"""What a shared-tier compaction writes, and that a load gets the live tier back.

A :class:`~repro.core.tiered.QuantizedTier` keeps one change set — what it
changed since its last full snapshot in ``snapshot_dir`` — and folds its
delta log every ``compact_every`` records.  A *minor* fold replaces the log
with one record of the change set; a *major* fold — once that record would
pass half the full snapshot's bytes, or with no change set to fold — writes
a new full snapshot, its ``entries.json`` rendered whole.  So:

* after every flush and every fold the snapshot directory loads to the live
  tier (its next id included), and a major fold's bytes are the reference
  encoding's — ``entries.json`` is ``json.dumps(records, indent=1)`` of the
  live entries — whatever ran before it (a generated operation sequence,
  GIPS-style: insert with and without context, pop, FIFO eviction, clear,
  seal, flush, folds, saves elsewhere, load-and-continue, mutations while
  detached, a fresh tier taking the directory over); the shrunk sequences
  that broke this before the change set was the tier's one tracker are
  kept as named tests;
* the router's per-row cells agree with its inverted lists;
* a minor fold renders no ``entries.json`` record, writes one file — its
  record — and fsyncs it and the directory once; a major fold fsyncs each
  file once;
* a reload after any number of minor folds, and after the switch to a
  major one, is the live tier, match scores included.

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
from repro.index import delta_log_size, make_index, read_deltas, snapshot

pytestmark = pytest.mark.concurrency

DIM = 8
UNTRAINED = {"min_train_size": 10_000}


def _unit(seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=DIM)
    return v / np.linalg.norm(v)


def _image(tier):
    return [(e.entry_id, e.query, e.response, e.context.texts) for e in tier.entries]


def _state(tier):
    """What a load must restore: the entries, their chain embeddings (kept
    as float32) and the index's ids."""
    chains = [
        None
        if e.context.embedding is None
        else np.asarray(e.context.embedding, dtype=np.float32).tobytes()
        for e in tier.entries
    ]
    return _image(tier), chains, sorted(int(i) for i in tier.index.ids)


def _reference_entries_json(tier) -> str:
    records = [_tier_entry_record(e, with_ctx_embedding=False) for e in tier.entries]
    return json.dumps(records, indent=1) + "\n"


def _members(router):
    """Every routed id and its cell, in list order (cell 0's ids first)."""
    views = [lst.view() for lst in router.lists]
    ids = np.concatenate(views) if views else np.zeros(0, dtype=np.int64)
    cells = np.repeat(np.arange(len(views)), [view.shape[0] for view in views])
    return ids, cells


# --------------------------------------------------------------------------- #
# Generated operation sequences
# --------------------------------------------------------------------------- #
def _folding_tier(snap: Path) -> QuantizedTier:
    """A routed tier, FIFO-bounded, folding every two log records."""
    return QuantizedTier(
        dim=DIM,
        backend="ivf+sq8",
        params={"min_train_size": 6, "nlist": 2, "seed": 0},
        max_entries=12,
        snapshot_dir=snap,
        compact_every=2,
    )


class TierFolds(RuleBasedStateMachine):
    """One routed tier (:func:`_folding_tier`) driven through arbitrary
    interleavings; the live tier is the oracle for what a load returns, the
    ``indent=1`` encoder for what a save writes."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="tier-folds-"))
        self.steps = 0
        self.flushed = False
        self.attach(_folding_tier(self.root / "snap"))

    def attach(self, tier: QuantizedTier) -> None:
        """Drive ``tier`` from now on, noting where it saves."""
        self.tier, self.saved = tier, None
        save = tier.save

        def noted(path):
            self.saved = Path(path)
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
        self.flushed = True

    @rule()
    def maintenance(self):
        self.tier.maintenance()
        self.flushed = True

    @rule()
    def save_to_its_own_directory(self):
        self.tier.save(self.root / "snap")

    @rule()
    def save_elsewhere(self):
        owed = [record.seq for record in self.tier._sealed]
        self.tier.save(self.root / "elsewhere")
        # A copy elsewhere is a full snapshot, and leaves the tier's own
        # directory owed what it was.
        assert [record.seq for record in self.tier._sealed] == owed

    @rule()
    def load_and_continue(self):
        self.tier.flush()
        loaded = QuantizedTier.load(self.root / "snap")
        assert _image(loaded) == _image(self.tier)
        self.attach(loaded)

    @rule(seeds=st.lists(st.integers(0, 2**16), max_size=2), pop=st.booleans())
    def mutate_while_detached(self, seeds, pop):
        self.tier.snapshot_dir = None
        for seed in seeds:
            self.insert(seed, False)
        if pop and len(self.tier):
            self.tier.pop(self.tier.entries[0].entry_id)
        self.tier.snapshot_dir = self.root / "snap"

    @rule(seeds=st.lists(st.integers(0, 2**16), max_size=2))
    def fresh_tier_takes_the_directory(self, seeds):
        self.attach(_folding_tier(self.root / "snap"))
        for seed in seeds:
            self.insert(seed, False)

    @invariant()
    def a_flush_loads_to_the_live_tier(self):
        flushed, self.flushed = self.flushed, False
        if flushed:
            loaded = QuantizedTier.load(self.root / "snap")
            assert _state(loaded) == _state(self.tier)
            assert loaded._next_id == self.tier._next_id

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
    def a_fold_loads_to_the_live_tier(self):
        path, self.saved = self.saved, None
        if path is None:
            return
        records = delta_log_size(path)[0]
        if records == 0:  # a full snapshot: the reference encoding
            written = (path / "entries.json").read_text(encoding="utf-8")
            assert written == _reference_entries_json(self.tier)
        else:  # a minor fold: one record of the changes since the full one
            assert records == 1 and path == self.root / "snap"
        assert _state(QuantizedTier.load(path)) == _state(self.tier)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


TestTierFolds = TierFolds.TestCase
TestTierFolds.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
)


# The shrunk sequences :class:`TierFolds` found while a seal's record came
# from buffers of its own rather than from the tier's change set.


def test_a_fresh_tier_over_another_tiers_snapshot_loads_as_itself_after_its_first_flush(
    tmp_path,
):
    """The fresh tier's ids start over, so appending them to the log of a
    snapshot that holds the same ids left a directory no load accepted."""
    snap = tmp_path / "snap"
    first = _folding_tier(snap)
    first.insert("the first tier's", "r", _unit(0))
    first.flush()
    fresh = _folding_tier(snap)
    fresh.insert("the fresh tier's", "r", _unit(1))
    fresh.flush()
    loaded = QuantizedTier.load(snap)
    assert _state(loaded) == _state(fresh)
    assert loaded._next_id == fresh._next_id == 1


def test_an_insert_made_while_detached_is_in_the_load_after_the_next_flush(tmp_path):
    """The flush after re-attaching acknowledged the insert without writing it."""
    snap = tmp_path / "snap"
    tier = _folding_tier(snap)
    tier.flush()
    tier.snapshot_dir = None
    tier.insert("while detached", "r", _unit(0))
    tier.snapshot_dir = snap
    tier.flush()
    assert _state(QuantizedTier.load(snap)) == _state(tier)


def test_a_reload_does_not_reissue_an_id_a_cancelled_add_held(tmp_path):
    """An add popped within its seal window leaves no row in the log, but
    its id was issued: the record carries the tier's next id."""
    snap = tmp_path / "snap"
    tier = _folding_tier(snap)
    tier.insert("kept", "r", _unit(0))
    tier.flush()
    tier.pop(tier.insert("cancelled", "r", _unit(1)))
    tier.flush()
    assert read_deltas(snap)[-1].meta == {"entries": [], "next_id": 2}
    loaded = QuantizedTier.load(snap)
    assert loaded._next_id == tier._next_id == 2
    assert _state(loaded) == _state(tier)


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


def test_a_major_fold_writes_the_reference_entries_json(tmp_path):
    """Minor folds first, then the switch to a major one once the record
    grows past half the full snapshot: each major fold's ``entries.json``
    is ``json.dumps(records, indent=1)`` of the live entries, and after
    every fold the directory loads to the live tier."""
    snap = tmp_path / "snap"
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap, compact_every=1)
    old = [tier.insert(f"old {i}", "r", _unit(i), _contextual(i)) for i in range(40)]
    tier.maintenance()  # the baseline
    majors = []
    for fold in range(12):
        for i in range(3):
            tier.insert(f"new {fold} {i}", "r", _unit(100 + i), _contextual(i))
        tier.pop(old[fold])
        tier.maintenance()  # one log record is due: a fold
        if delta_log_size(snap)[0] == 0:
            majors.append(fold)
            written = (snap / "entries.json").read_text(encoding="utf-8")
            assert written == _reference_entries_json(tier)
        assert _state(QuantizedTier.load(snap)) == _state(tier)
    assert majors and majors[0] > 0  # minor folds first, then the switch


def test_the_first_fold_after_a_load_is_minor_and_a_full_snapshot_is_the_reference(
    tmp_path,
):
    """A loaded tier folds onto the snapshot it loaded: its first fold is
    minor (one record of what the delta log added and removed), and a full
    snapshot of it is the reference encoding."""
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
    loaded.save(snap)
    assert delta_log_size(snap) == (1, len(added) - 1)
    assert _state(QuantizedTier.load(snap)) == _state(tier)
    loaded.save(tmp_path / "full")
    assert (tmp_path / "full" / "entries.json").read_text(
        encoding="utf-8"
    ) == _reference_entries_json(tier)
    assert _state(QuantizedTier.load(tmp_path / "full")) == _state(tier)


def test_an_entries_file_indented_otherwise_loads_and_saves_as_the_reference(tmp_path):
    snap = tmp_path / "snap"
    tier = QuantizedTier(dim=DIM, params=UNTRAINED, snapshot_dir=snap)
    for i in range(7):
        tier.insert(f"q{i}", f"r {i}", _unit(i), _contextual(i))
    tier.save(snap)
    reference = (snap / "entries.json").read_text(encoding="utf-8")
    assert reference == _reference_entries_json(tier)
    records = json.loads(reference)
    (snap / "entries.json").write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")

    loaded = QuantizedTier.load(snap)
    assert _state(loaded) == _state(tier)
    loaded.save(tmp_path / "full")  # a full snapshot
    assert (tmp_path / "full" / "entries.json").read_text(encoding="utf-8") == reference


def _routed_tier(snap, compact_every=1):
    """A routed tier that trains early and never refits after (a refit
    makes the next fold a major one)."""
    return QuantizedTier(
        dim=DIM,
        backend="ivf+sq8",
        params={"min_train_size": 6, "nlist": 2, "seed": 0, "repartition_growth": 1e6},
        snapshot_dir=snap,
        compact_every=compact_every,
    )


class _Fsyncs(list):
    """The names of the files and directories fsynced from now on."""

    def __init__(self, monkeypatch):
        super().__init__()
        fsync = os.fsync

        def named(fd):
            self.append(Path(os.readlink(f"/proc/self/fd/{fd}")).name)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", named)


def test_a_fold_fsyncs_each_file_once(tmp_path, monkeypatch):
    """A major fold: the index snapshot is written into the tier's stage, not staged,
    fsynced and published on its own inside it."""
    snap = tmp_path / "snap"
    tier = _routed_tier(snap)
    for i in range(20):
        tier.insert(f"q{i}", "r", _unit(i), _contextual(i))
    tier.flush()
    for i in range(30):  # more than half the snapshot: the fold is major
        tier.insert(f"more {i}", "r", _unit(100 + i), _contextual(i))
    tier.flush()
    fsynced = _Fsyncs(monkeypatch)
    tier.save(snap)  # what maintenance() does once the log is due
    assert delta_log_size(snap)[0] == 0
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


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_a_minor_fold_writes_one_file_and_fsyncs_it_and_the_directory_once(
    tmp_path, monkeypatch
):
    snap = tmp_path / "snap"
    tier = _routed_tier(snap)
    first = [tier.insert(f"q{i}", "r", _unit(i), _contextual(i)) for i in range(20)]
    tier.flush()
    tier.insert("one more", "r", _unit(99), _contextual(0))
    tier.flush()
    tier.pop(first[3])
    tier.flush()  # two log records, folded into one
    record = tier._changes.record(tier._next_id, tier.stats)
    before = _files(snap)
    rendered = _count_renders(monkeypatch)
    fsynced = _Fsyncs(monkeypatch)
    tier.save(snap)  # what maintenance() does once the log is due
    after = _files(snap)
    assert sorted(after) == sorted(before)  # no file made, none left behind
    changed = [name for name in after if after[name] != before[name]]
    assert changed == ["deltas.jsonl"] and after["deltas.jsonl"] == record
    assert sum(map(len, after.values())) - sum(map(len, before.values())) == len(
        record
    ) - len(before["deltas.jsonl"])
    assert delta_log_size(snap) == (1, 1) and rendered == []
    (temp, directory) = fsynced
    assert temp.startswith(snapshot._LOG_TEMP_PREFIX) and directory == "snap"
    assert _state(QuantizedTier.load(snap)) == _state(tier)


def _signature(tier, probes):
    """Search and match results, float scores bit for bit, once the index's
    own maintenance (the cell-major layout) has run."""
    tier.index.maintenance()
    searched = [
        [(hit.id, float(hit.score).hex()) for hit in hits]
        for hits in tier.index.search(probes, top_k=4)
    ]
    matched = [
        None if found is None else (found[0].entry_id, float(found[1]).hex())
        for found in tier.match(probes, 4, [0.2] * len(probes))
    ]
    return searched, matched


def test_a_reload_after_minor_folds_and_the_switch_to_a_major_is_the_live_tier(tmp_path):
    snap = tmp_path / "snap"
    tier = _routed_tier(snap)
    base = [tier.insert(f"base {i}", "r", _unit(i), _contextual(i)) for i in range(40)]
    tier.maintenance()  # the baseline
    probes = np.stack([_unit(500 + i) for i in range(6)])
    kinds = []
    for fold in range(14):
        added = [
            tier.insert(f"fold {fold} {i}", "r", _unit(200 + 3 * fold + i), _contextual(i))
            for i in range(3)
        ]
        tier.pop(base[fold])
        tier.pop(added[fold % 3])
        tier.maintenance()  # one record appended: a fold
        kinds.append("minor" if delta_log_size(snap)[0] else "major")
        loaded = QuantizedTier.load(snap)
        assert _state(loaded) == _state(tier), kinds
        # Every third fold drops the newest id: the loaded tier issues past it.
        assert (loaded._next_id, loaded.stats) == (tier._next_id, tier.stats), kinds
        assert _signature(loaded, probes) == _signature(tier, probes), kinds
    first_major = kinds.index("major")
    assert first_major >= 2 and "minor" in kinds[first_major:]


def test_a_fold_after_the_index_trained_is_major(tmp_path):
    """Rows replayed onto a snapshot taken before the codec trained would
    be encoded otherwise than the live ones: however small the changes,
    the fold after a fit writes a full snapshot."""
    snap = tmp_path / "snap"
    tier = QuantizedTier(
        dim=DIM, params={"min_train_size": 30, "seed": 0}, snapshot_dir=snap, compact_every=1
    )
    for i in range(28):
        tier.insert(f"q{i}", "r", _unit(i))
    tier.maintenance()  # the baseline, untrained
    for i in range(3):  # the 30th row trains the codec
        tier.insert(f"late {i}", "r", _unit(100 + i))
    assert tier.index.is_trained
    tier.maintenance()
    assert delta_log_size(snap)[0] == 0
    probes = np.stack([_unit(500 + i) for i in range(4)])
    loaded = QuantizedTier.load(snap)
    assert _signature(loaded, probes) == _signature(tier, probes)
    tier.insert("after the fit", "r", _unit(200))
    tier.maintenance()  # nothing refitted since the full snapshot: minor
    assert delta_log_size(snap) == (1, 1)


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
