"""Tiered L1/L2 cache hierarchy: exact hot tier over a shared quantized tier.

The paper's fleet of per-user semantic caches reaches production scale
(10^5–10^6 users, 10^6–10^7 total entries — ROADMAP open items 1 and 2) only
if most entries live in a compact representation while the hot working set
keeps exact-search quality.  :class:`TieredCache` composes the two existing
building blocks into that memory hierarchy:

* **L1** — a small exact per-user :class:`~repro.core.cache.MeanCache` over a
  flat float index, running the full lookup rule (embed, top-k, τ, context
  check).  Hot entries live here at full precision.
* **L2** — a large :class:`QuantizedTier` over a quantized index (``sq8``
  or ``ivf+sq8``): per-entry storage is the code row (1 byte per dimension)
  instead of L1's float32 index row.
  One ``QuantizedTier`` may be **shared** by many ``TieredCache`` instances —
  the :class:`~repro.serving.server.CacheServer` slots a ``TieredCache`` in
  as the shard-local cache with the quantized tier shared across shards (the
  tier carries its own lock).

Data movement:

* an **L1 miss falls through** to L2: the probe's own embedding (carried on
  the L1 decision) is searched against the quantized rows under the same
  live τ and context-verification rule, so no query is re-encoded;
* an **L2 hit promotes** the entry into L1 (the dequantized vector is
  reconstructed from the code row — again no re-encode);
* an **L1 eviction demotes** the victim into L2, quantizing the entry's L1
  index row (again no re-encode).

The tiers are disjoint (promotion removes from L2, demotion removes from
L1), so an entry is scored **at most once per probe** across the hierarchy.

A batch reaches the tier in three steps, so one tier search serves every
L1 miss of the batch however many caches share the tier:
:meth:`TieredCache.lookup_l1` runs the L1 pass and holds each miss back as a
:class:`TierProbe`; :func:`match_probes` answers the held-back probes with
one :meth:`QuantizedTier.match` per tier; :func:`serve_probes` then serves
the matched probes and applies the promotions, cache by cache
(:meth:`TieredCache.serve_matches`).  :meth:`TieredCache.lookup_batch` is
the three steps for one cache; the serving layer runs them across every
cache of a flush, all before any of its misses enrols.  Promotions are
applied only after every probe has been matched, so duplicate probes all
see the entry (decision parity with a single exact cache on duplicate-heavy
traffic — pinned in ``tests/test_tiered.py``), and an entry several caches
matched moves into the L1 of the earliest-arriving probe's cache only.

Persistence: a ``QuantizedTier`` given a ``snapshot_dir`` keeps a crash-safe
snapshot there under one rule — a change set since the full snapshot, or a
full snapshot next.  Full generations are written atomically via
:func:`~repro.index.snapshot.atomic_snapshot_dir`; the tier's one change
set (what it changed since its last full snapshot there) is cut into delta
records by :meth:`QuantizedTier.seal` and appended to the snapshot's delta
log (:func:`~repro.index.snapshot.append_delta`), all the records owed
with one write and one fsync, by :meth:`QuantizedTier.flush`; and
:meth:`QuantizedTier.maintenance` folds the log every ``compact_every``
records — into one record of the change set (a minor fold), or into a new
full snapshot once that record would pass half of it (a major fold).
:meth:`QuantizedTier.load` (``mmap=True``) adopts the code matrix as a
read-only memory map — the zero-copy warm start benchmarked in
``BENCH_index.json``'s ``persistence`` section.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.runtime import maybe_tracked_rlock
from repro.core.cache import (
    CacheDecision,
    CacheEntry,
    CacheStats,
    MeanCache,
    MeanCacheConfig,
)
from repro.core.context import (
    ContextChain,
    context_matches,
    pack_context_embeddings,
    unpack_context_embeddings,
)
from repro.core.pipeline import first_admissible
from repro.core.storage import object_nbytes
from repro.core.validation import require_query_text
from repro.embeddings.model import SiameseEncoder
from repro.index import IndexHit, make_index
from repro.index.snapshot import (
    DeltaRecord,
    SnapshotError,
    append_delta,
    atomic_snapshot_dir,
    delta_line,
    load_cache_snapshot,
    native_float_dtype,
    open_delta_log,
    read_deltas,
    read_manifest,
    replace_delta_log,
    save_cache_snapshot,
    snapshot_nbytes,
    write_manifest,
)

#: Snapshot format tags of the tiered cache and its quantized tier.
TIERED_FORMAT = "repro-tiered"
TIERED_VERSION = 1
TIER_FORMAT = "repro-tiered-l2"
TIER_VERSION = 1


@dataclass(frozen=True)
class TierEntry:
    """One demoted (query, response) pair resident in the quantized tier.

    Like :class:`~repro.core.cache.CacheEntry` it holds **no** vector: the
    vector lives only as a code row in the tier's quantized index.  Frozen:
    what a match returns stays as the tier held it at match time.
    """

    entry_id: int
    query: str
    response: str
    context: ContextChain

    def nbytes(self) -> int:
        """Text + context footprint (the code row is counted by the index)."""
        return (
            object_nbytes(self.query)
            + object_nbytes(self.response)
            + self.context.nbytes
            + sum(object_nbytes(t) for t in self.context.texts)
        )


def _entries_meta(texts: Sequence[str], **fields: object) -> str:
    """A delta record's ``meta`` as JSON text, from its entries' records
    rendered one by one: ``{"entries": [...]}``, then ``fields``."""
    tail = "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in fields.items())
    return '{"entries": [' + ", ".join(texts) + "]" + tail + "}"


@dataclass
class _Changes:
    """What a tier changed since its last full snapshot in ``directory``
    (its ``snapshot_dir``): the tier's one mutation tracker while attached.

    A minor fold writes all of it as one log record (:meth:`record`); each
    seal cuts its record from what changed since the seal before
    (:meth:`cut`).  An entry added and then removed within one seal window
    leaves no trace.
    """

    directory: Path
    #: bytes of that full snapshot, its delta log left out
    nbytes: int
    #: the index's :attr:`~repro.index.VectorIndex.trainings`
    #: as of that snapshot: rows replayed onto it are encoded and routed as
    #: the live ones only while no fit ran since
    trainings: int
    #: the tier's next id as of that snapshot, which holds no id at or past it
    base_next_id: int
    #: records in the snapshot's log; None until the log is read (after a
    #: load, or after a write to it failed)
    log_records: Optional[int] = 0
    #: log records the last minor fold wrote (0 after a full snapshot)
    folded: int = 0
    #: id -> (float32 row, the entry's delta record as JSON text) of each
    #: live entry added since, in FIFO order
    added: Dict[int, Tuple[np.ndarray, str]] = field(default_factory=dict)
    #: ids removed since, in order: those the full snapshot holds, then
    #: those the next seal owes (an entry a record before it added)
    removed: List[int] = field(default_factory=list)
    #: the tier's next id at the last seal, and the length of ``removed`` then
    sealed_next_id: int = field(init=False)
    sealed_removed: int = 0

    def __post_init__(self) -> None:
        self.sealed_next_id = self.base_next_id

    def note_removed(self, entry_id: int) -> None:
        if self.added.pop(entry_id, None) is None or entry_id < self.sealed_next_id:
            self.removed.append(entry_id)

    def seal_all(self, next_id: int) -> None:
        """Everything changed so far is sealed, the tier's next id being
        ``next_id``: the window's removals of entries the full snapshot does
        not hold were owed to the seal alone."""
        window = self.removed[self.sealed_removed :]
        self.removed[self.sealed_removed :] = [i for i in window if i < self.base_next_id]
        self.sealed_removed = len(self.removed)
        self.sealed_next_id = next_id

    def cut(self, seq: int, next_id: int) -> Optional[DeltaRecord]:
        """The seal's record, numbered ``seq``: the live entries added since
        the last seal (their ids at or past the next id then) and the ids
        removed since, or None when the tier did not change.  Its ``meta``
        carries ``next_id`` when that is past what its ids give a reload (a
        cancelled add held the newest id)."""
        mark = self.sealed_next_id
        ids = list(itertools.takewhile(mark.__le__, reversed(self.added)))[::-1]
        removed = self.removed[self.sealed_removed :]
        if not ids and not removed and next_id == mark:
            return None
        self.seal_all(next_id)
        rows = [self.added[i] for i in ids]
        texts = [text for _, text in rows]
        # the next id a reload takes from the log with this record on it
        implied = ids[-1] + 1 if ids else mark
        return DeltaRecord(
            seq=seq,
            ids=tuple(ids),
            removed=tuple(removed),
            vectors=np.stack([row for row, _ in rows]) if rows else None,
            encoded_meta=_entries_meta(texts)
            if next_id == implied
            else _entries_meta(texts, next_id=next_id),
        )

    def record(self, next_id: int, stats: CacheStats) -> bytes:
        """The one log record a minor fold writes: every row and entry
        record as rendered when the entry arrived, joined, and the tier's
        next id and counters, which the full snapshot holds as of its own
        time."""
        rows = [row for row, _ in self.added.values()]
        return delta_line(
            1,
            np.stack(rows) if rows else None,
            list(self.added),
            [i for i in self.removed if i < self.base_next_id],
            encoded_meta=_entries_meta(
                [text for _, text in self.added.values()],
                next_id=next_id,
                stats=asdict(stats),
            ),
        )


class QuantizedTier:
    """The shared L2: texts keyed by id over a quantized vector index.

    Thread-safe behind one re-entrant lock (several shard executors may
    probe a shared tier at once).  Capacity is FIFO-bounded when
    ``max_entries`` is set; an unbounded tier never drops entries.

    With ``snapshot_dir`` set the tier maintains a crash-safe on-disk
    snapshot, under one rule: a change set since the full snapshot, or a
    full snapshot next.  While attached, the tier keeps what changed since
    its last full snapshot in ``snapshot_dir`` — each entry added since (its
    float32 row and its delta entry record, rendered once) and the ids
    removed since — and nothing else.  :meth:`seal` cuts one in-memory
    delta record from it (what changed since the seal before),
    :meth:`flush` appends every record owed to the snapshot's delta log
    with one write and one fsync (cost proportional to the delta, never a
    full rewrite), and :meth:`maintenance` folds the log once
    ``compact_every`` records were appended since the last fold.  A
    *minor* fold atomically replaces the log with one record of the whole
    change set (:func:`~repro.index.snapshot.replace_delta_log`) — one file
    written and fsynced, whatever the size of the tier.  A *major* fold, a
    full snapshot with ``entries.json`` rendered whole, runs only when that
    record would pass half of the full snapshot's bytes, or when the index
    refitted its codec or routing since it (rows replayed onto the older
    snapshot would be encoded or routed otherwise).

    A tier with no change set for its ``snapshot_dir`` writes a full
    snapshot at its next seal instead of a record: a tier that never wrote
    or loaded one there, a cleared one, one mutated while detached
    (``snapshot_dir = None``), one whose :meth:`load` read a log its own
    records did not write, and one whose ``snapshot_dir`` was pointed
    elsewhere.

    The tier counts its log records in memory: the log is read once, before
    the first append after a :meth:`load` (which is also when a torn tail
    left by a crashed append is cut off), and again only after a write of
    its own failed — nothing else may write to ``snapshot_dir`` while the
    tier is attached to it, bar a full snapshot of this tier published over
    it (:meth:`TieredCache.published_at`).

    Upkeep is split by owner.  Sealing mutations (:meth:`seal`) is owed by
    every cache that made some, so the log gains one record per shard
    slice; :meth:`maintenance` — writing the sealed records (group commit),
    the index's own upkeep and compaction — is owed once per served batch
    however many caches share the tier (see ``docs/serving.md``, "Upkeep
    contract").
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        backend: str = "sq8",
        params: Optional[Mapping[str, object]] = None,
        max_entries: Optional[int] = None,
        snapshot_dir: "str | Path | None" = None,
        compact_every: int = 64,
    ) -> None:
        params = dict(params or {})
        if dim is not None:
            params.setdefault("dim", dim)
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 when set")
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self._backend = backend
        self._params = dict(params)
        self._index = make_index(backend, **params)
        self._entries: Dict[int, TierEntry] = {}  # id -> entry, FIFO order
        self._next_id = 0
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.lock = maybe_tracked_rlock("tier.l2")
        self.snapshot_dir: Optional[Path] = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self.compact_every = int(compact_every)
        #: the changes since the full snapshot in ``snapshot_dir`` — None
        #: while there is none this tier wrote or loaded, or a clear or a
        #: detached mutation made the next seal a full snapshot
        self._changes: Optional[_Changes] = None
        #: records sealed but not yet appended to the log, in seq order
        self._sealed: List[DeltaRecord] = []

    def _log_length(self) -> Optional[int]:
        """Records in the log of the tier's full snapshot in
        ``snapshot_dir``, or ``None`` while it has no change set there (its
        next seal writes a full snapshot).  Reads the log after a load or a
        failed write (cutting off a crashed append's torn tail on the way);
        :meth:`save` and :meth:`flush` keep count otherwise.  Records
        sealed but not yet written are not counted."""
        changes = self._changes
        if changes is None or changes.directory != self.snapshot_dir:
            return None
        if changes.log_records is None:
            changes.log_records = open_delta_log(changes.directory)
        return changes.log_records

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: int) -> bool:
        return int(entry_id) in self._entries

    @property
    def index(self):
        """The quantized vector index holding the tier's code rows."""
        return self._index

    @property
    def entries(self) -> List[TierEntry]:
        """Live tier entries in FIFO (insertion) order."""
        return list(self._entries.values())

    def entry(self, entry_id: int) -> TierEntry:
        """The tier entry for ``entry_id`` (KeyError when absent)."""
        return self._entries[int(entry_id)]

    def embedding_storage_bytes(self) -> int:
        """Bytes of vector state: code rows + codec/routing + ctx chains."""
        with self.lock:
            return self._index.storage_nbytes + sum(
                int(e.context.embedding.nbytes)
                for e in self._entries.values()
                if e.context.embedding is not None
            )

    def total_storage_bytes(self) -> int:
        """Bytes of the whole tier: texts + contexts + index payload, and
        the delta entry records its change set keeps.  Those are a
        host-side copy of the texts, so :meth:`embedding_storage_bytes` and
        :meth:`TieredCache.storage_breakdown` (bytes-per-entry accounting)
        leave them out."""
        with self.lock:
            changes = self._changes.added.values() if self._changes is not None else ()
            return (
                self.embedding_storage_bytes()
                + sum(
                    object_nbytes(e.query)
                    + object_nbytes(e.response)
                    + sum(object_nbytes(t) for t in e.context.texts)
                    for e in self._entries.values()
                )
                + sum(object_nbytes(text) for _, text in changes)
            )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(
        self,
        query: str,
        response: str,
        embedding: np.ndarray,
        context: Optional[ContextChain] = None,
    ) -> int:
        """Enrol a demoted entry; quantizes ``embedding`` into the index.

        Returns the tier-local entry id (a namespace separate from any L1's
        entry ids).  Inserting past ``max_entries`` drops the oldest entry
        first (FIFO) and counts an eviction.
        """
        require_query_text(query)
        context = context if context is not None else ContextChain.empty()
        # float32 up front: the delta log persists float32 rows, so feeding
        # the index the same bits keeps replayed scores byte-identical.  A
        # copy: the row is kept until a fold writes it, and the caller may
        # reuse its buffer.
        vector = np.array(embedding, dtype=np.float32).reshape(-1)
        with self.lock:
            if self.max_entries is not None:
                while len(self._entries) >= self.max_entries:
                    oldest = next(iter(self._entries))
                    self._remove_locked(oldest)
                    self.stats.evictions += 1
            entry_id = self._next_id
            self._next_id += 1
            self._index.add(vector, id=entry_id)
            entry = TierEntry(
                entry_id=entry_id, query=query, response=response, context=context
            )
            self._entries[entry_id] = entry
            self.stats.insertions += 1
            if self.snapshot_dir is None:
                self._changes = None
            elif self._changes is not None:
                text = json.dumps(_tier_entry_record(entry))
                self._changes.added[entry_id] = (vector, text)
            return entry_id

    def _remove_locked(self, entry_id: int) -> None:
        del self._entries[entry_id]
        self._index.remove(entry_id)
        if self.snapshot_dir is None:
            self._changes = None
        elif self._changes is not None:
            self._changes.note_removed(entry_id)

    def pop(self, entry_id: int) -> Tuple[TierEntry, np.ndarray]:
        """Remove and return ``(entry, embedding)`` — the promotion path.

        The embedding is reconstructed from the tier's own storage (exact
        while the index is untrained, dequantized after), so promotion never
        re-encodes the query text.
        """
        entry_id = int(entry_id)
        with self.lock:
            entry = self._entries[entry_id]
            embedding = np.asarray(self._index.get(entry_id), dtype=np.float64)
            self._remove_locked(entry_id)
            return entry, embedding

    # ------------------------------------------------------------------ #
    # Lookup (the L1-miss fall-through)
    # ------------------------------------------------------------------ #
    def match(
        self,
        embeddings: np.ndarray,
        top_k: int,
        thresholds: Sequence[float],
        probe_contexts: Optional[Sequence[Optional[Callable[[], ContextChain]]]] = None,
        context_thresholds: Optional[Sequence[float]] = None,
        verify_context: Optional[Sequence[bool]] = None,
    ) -> List[Optional[Tuple[TierEntry, float]]]:
        """Best admissible candidate per probe row: ``(entry, score)`` or ``None``.

        ``embeddings`` is a ``(q, d)`` probe matrix, searched with **one**
        index search under one lock hold; the other arguments are per row
        (τ is personalised per cache, so rows of several caches differ).
        Each row takes the L1 lookup's decision rule
        (:func:`~repro.core.pipeline.first_admissible`): candidates in
        descending score order, the first to clear its ``thresholds`` entry
        and (when its ``verify_context`` flag is set — the default) to match
        the probe's context chain within its ``context_thresholds`` entry
        (default 0.7) wins.  A ``probe_contexts`` entry is a lazy callable,
        so a chain is embedded only when a candidate actually needs
        verification (``None``: the probe is standalone).  The entry is
        returned as the tier held it at match time.  Counts one lookup (and
        a hit or miss) per row on the tier's
        :class:`~repro.core.cache.CacheStats`.
        """
        queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        n = queries.shape[0]
        with self.lock:
            hit_lists = (
                self._index.search(queries, top_k=top_k)
                if self._entries
                else [[] for _ in range(n)]
            )
            found = [
                self._admit(*row)
                for row in zip(
                    hit_lists,
                    thresholds,
                    [None] * n if probe_contexts is None else probe_contexts,
                    [0.7] * n if context_thresholds is None else context_thresholds,
                    [True] * n if verify_context is None else verify_context,
                )
            ]
            hits = sum(f is not None for f in found)
            self.stats.lookups += n
            self.stats.hits += hits
            self.stats.misses += n - hits
            return found

    def _admit(
        self,
        hits: List[IndexHit],
        threshold: float,
        probe_context: Optional[Callable[[], ContextChain]],
        context_threshold: float,
        verify_context: bool,
    ) -> Optional[Tuple[TierEntry, float]]:
        """One probe row's winner among its candidates (caller holds the lock)."""
        chain: List[ContextChain] = []

        def context_ok(entry_id: int) -> bool:
            if not chain:  # embedded for the first candidate that needs it, once
                chain.append(probe_context() if probe_context else ContextChain.empty())
            return context_matches(
                chain[0], self._entries[entry_id].context, context_threshold
            )

        best, _ = first_admissible(
            # only rows whose entry the tier still holds
            [hit for hit in hits if hit.id in self._entries],
            threshold,
            context_ok if verify_context else None,
        )
        if best is None:
            return None
        return self._entries[best.id], float(best.score)

    def clear(self) -> None:
        """Drop every entry (sealed records included).

        Committed like any other mutation: the snapshot in ``snapshot_dir``
        still holds the dropped entries, so the tier keeps no change set and
        the next :meth:`seal` publishes a full snapshot (of what the tier
        holds by then) instead of appending to its log.
        """
        with self.lock:
            self._entries.clear()
            self._index.clear()
            self._sealed = []
            self._changes = None

    # ------------------------------------------------------------------ #
    # Persistence: atomic full snapshots + append-only delta log
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path") -> Path:
        """Fold the tier into ``path``: what :meth:`maintenance` calls.

        At the tier's own ``snapshot_dir``, with a change set since the full
        snapshot there and no index refit since it, a *minor* fold replaces
        the delta log with one record of the change set, when the record is
        at most half the snapshot's bytes: one file written, fsynced,
        renamed over the log, then one directory fsync.  Otherwise a *major*
        fold writes a full snapshot atomically (discarding any delta log),
        its ``entries.json`` rendered whole.  Either way a load of ``path``
        gives the tier as it is.
        """
        path = Path(path)
        with self.lock:
            if self._minor_fold(path):
                return path
            entries = self._entries.values()
            payload = {
                "backend": self._backend,
                "params": dict(self._params),
                "next_id": int(self._next_id),
                "max_entries": self.max_entries,
                "compact_every": self.compact_every,
                "stats": asdict(self.stats),
            }
            path = save_cache_snapshot(
                path,
                TIER_FORMAT,
                TIER_VERSION,
                payload,
                [_tier_entry_record(e, with_ctx_embedding=False) for e in entries],
                pack_context_embeddings(
                    ((e.entry_id, e.context.embedding) for e in entries),
                    self._index.dim or 0,
                    native_float_dtype(self._index),
                ),
                self._index,
            )
            self._rebaselined(path)
        return path

    def _is_own(self, path: Path) -> bool:
        """Whether ``path`` is the tier's ``snapshot_dir``."""
        return self.snapshot_dir is not None and path.resolve() == self.snapshot_dir.resolve()

    def _minor_fold(self, path: Path) -> bool:
        """Replace the log at ``path`` with one record of the changes since
        the full snapshot there, if ``path`` is the tier's own directory,
        the index did not refit since and the record is at most half that
        snapshot (caller holds the lock); returns whether it did."""
        changes = self._changes
        if (
            changes is None
            or changes.directory != self.snapshot_dir
            or not self._is_own(path)
            or self._index.trainings != changes.trainings
        ):
            return False
        record = changes.record(self._next_id, self.stats)
        if 2 * len(record) > changes.nbytes:
            return False
        try:
            replace_delta_log(path, record)
        except BaseException:
            # The log may be the old one or the new: count it afresh.
            changes.log_records = None
            raise
        self._sealed = []
        changes.seal_all(self._next_id)
        changes.log_records = changes.folded = 1
        return True

    def _rebaselined(self, path: Path) -> None:
        """A full snapshot of the tier was just published at ``path``
        (caller holds the lock, and has since the snapshot was taken).  If
        that is the tier's own ``snapshot_dir``, it now holds every change
        and sealed record under an empty log, and the tier's change set
        starts over from it; a copy saved elsewhere leaves both as they
        were, still owed to ``snapshot_dir``."""
        if self._is_own(path):
            self._sealed = []
            self._changes = _Changes(
                self.snapshot_dir,
                snapshot_nbytes(path),
                self._index.trainings,
                self._next_id,
            )

    def seal(self) -> None:
        """Cut one delta record from the change set — what changed since
        the last seal — owed to the log until the next :meth:`flush`
        writes it.

        Writes nothing, except on a tier with no change set for its
        ``snapshot_dir`` (see the class docstring): there a full snapshot is
        written at once, as :meth:`flush` would.
        """
        if self.snapshot_dir is None:
            return
        with self.lock:
            n_records = self._log_length()
            if n_records is None:
                self.save(self.snapshot_dir)
                return
            record = self._changes.cut(n_records + len(self._sealed) + 1, self._next_id)
            if record is not None:
                self._sealed.append(record)

    def flush(self) -> None:
        """Commit every mutation the log does not hold yet: what changed
        since the last seal is sealed, then every sealed record is appended.

        Costs O(delta), not O(tier): one JSON line per record, carrying its
        vectors, all appended to the log with one write and fsynced once.
        A tier with no change set writes a full snapshot instead.  A failed
        append leaves the records owed, and the retry writes them under the
        same seqs.
        """
        if self.snapshot_dir is None:
            return
        with self.lock:
            self.seal()
            changes = self._changes
            # A failed append that could not take its bytes back may have
            # left some of its records whole: the count (re-read by the seal
            # after a failure) holds them, so they are not written twice.
            self._sealed = [r for r in self._sealed if r.seq > changes.log_records]
            if not self._sealed:
                return
            try:
                append_delta(self.snapshot_dir, records=self._sealed)
            except BaseException:
                # A failed append may have left a fragment on the log: make
                # the retry re-read it, which cuts the fragment off.
                changes.log_records = None
                raise
            changes.log_records = self._sealed[-1].seq
            self._sealed = []

    def maintenance(self) -> None:
        """The tier's own off-query-path upkeep: index maintenance, then a
        fold once ``compact_every`` records were appended to the delta log
        since the last fold, minor or major.  A fold is a :meth:`save` to
        ``snapshot_dir``: minor, it writes the change set as one log
        record; major, the whole tier.

        Owed once per served batch, not once per cache sharing the tier
        (the serving layer de-duplicates by tier identity).  Everything the
        batch's caches sealed, and anything changed since, is flushed
        before the compaction check — one write and one fsync for all of it
        — so a standalone tier needs no other call.
        """
        with self.lock:
            self._index.maintenance()
            self.flush()
            if self.snapshot_dir is None:
                return
            changes = self._changes
            if changes.log_records - changes.folded >= self.compact_every:
                self.save(self.snapshot_dir)

    @classmethod
    def load(cls, path: "str | Path", mmap: bool = False) -> "QuantizedTier":
        """Rebuild a tier from :meth:`save` plus any delta log on top.

        ``mmap=True`` adopts the snapshot's code matrix as a read-only
        memory map (zero-copy warm start) — replaying a non-empty delta log
        materializes it again, so compacted snapshots restore fastest.  The
        loaded tier keeps ``snapshot_dir = path`` and continues appending
        there; set it to ``None`` to detach.  The snapshot it loaded is its
        last full one, and what the log added and removed its change set
        since, so its next fold can be a minor one — unless the log is not
        one its records wrote, which makes its next seal a full snapshot.

        A log record that does not replay onto what came before it (it adds
        an id already held, say) raises :class:`SnapshotError` naming the
        log, the line and the seq.
        """
        path = Path(path)

        def build(manifest: Mapping[str, object]) -> "QuantizedTier":
            tier = cls(
                backend=str(manifest["backend"]),
                params=manifest.get("params"),
                max_entries=manifest.get("max_entries"),
                snapshot_dir=path,
                compact_every=int(manifest.get("compact_every", 64)),
            )
            tier._next_id = int(manifest["next_id"])
            tier.stats = CacheStats(**manifest.get("stats", {}))
            return tier

        tier, index, meta, data = load_cache_snapshot(
            path,
            TIER_FORMAT,
            TIER_VERSION,
            build,
            required=("ctx_entry_ids", "ctx_embeddings"),
            mmap=mmap,
        )
        tier._index = index
        ctx_embedding_of = unpack_context_embeddings(data)
        for record in meta:
            entry_id = int(record["entry_id"])
            tier._entries[entry_id] = _tier_entry_from_record(
                record, ctx_embedding_of.get(entry_id)
            )
        if set(tier._entries) != set(tier._index.ids):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: entry ids and index ids differ"
            )
        base_ids = set(tier._entries)
        changes = _Changes(
            path,
            snapshot_nbytes(path),
            index.trainings,
            tier._next_id,
            log_records=None,
        )
        # Replay the delta log (texts from each record's meta, vectors into
        # the index) — mutations committed after the base snapshot.
        for record in read_deltas(path):
            rows = {}
            if record.vectors is not None and record.ids:
                try:
                    tier._index.add_batch(record.vectors, ids=list(record.ids))
                except ValueError as exc:
                    raise record.error(path, exc) from exc
                rows = dict(zip(record.ids, record.vectors))
            meta = record.meta or {}
            for entry_record in meta.get("entries", []):
                ctx_embedding = entry_record.get("ctx_embedding")
                entry = _tier_entry_from_record(
                    entry_record,
                    np.asarray(ctx_embedding, dtype=np.float32)
                    if ctx_embedding is not None
                    else None,
                )
                tier._entries[entry.entry_id] = entry
                row = rows.get(entry.entry_id)
                if row is not None:
                    changes.added[entry.entry_id] = (row, json.dumps(entry_record))
            for removed_id in record.removed:
                removed_id = int(removed_id)
                if removed_id in tier._entries:
                    del tier._entries[removed_id]
                    tier._index.remove(removed_id)
                    changes.note_removed(removed_id)
            if record.ids:
                tier._next_id = max(tier._next_id, max(record.ids) + 1)
            # A minor fold's record carries what a full snapshot's manifest
            # would: the next id (an id it dropped may have been the last
            # issued) and the counters; a seal's carries the next id when a
            # cancelled add held the newest.
            if "next_id" in meta:
                tier._next_id = max(tier._next_id, int(meta["next_id"]))
            if "stats" in meta:
                tier.stats = CacheStats(**meta["stats"])
        # A log the tier's own records did not write (an entry without its
        # row, say) leaves the tier no change set: its next seal writes a
        # full snapshot.
        if base_ids.isdisjoint(changes.added) and set(tier._entries) == base_ids.difference(
            changes.removed
        ).union(changes.added):
            changes.seal_all(tier._next_id)
            tier._changes = changes
        return tier


def _tier_entry_record(
    entry: TierEntry, with_ctx_embedding: bool = True
) -> Dict[str, object]:
    record: Dict[str, object] = {
        "entry_id": int(entry.entry_id),
        "query": entry.query,
        "response": entry.response,
        "context": list(entry.context.texts),
    }
    if with_ctx_embedding:
        # Delta records are JSON lines; the chain embedding (contextual
        # entries only) rides along as a float list.
        record["ctx_embedding"] = (
            np.asarray(entry.context.embedding, dtype=np.float32).tolist()
            if entry.context.embedding is not None
            else None
        )
    return record


#: the chain of every standalone entry a load rebuilds (chains are frozen,
#: so one instance serves them all)
_STANDALONE = ContextChain.empty()


def _tier_entry_from_record(
    record: Mapping[str, object], ctx_embedding: Optional[np.ndarray]
) -> TierEntry:
    texts = record.get("context")
    if texts or ctx_embedding is not None:
        context = ContextChain(
            texts=tuple(texts or ()),
            embedding=np.asarray(ctx_embedding) if ctx_embedding is not None else None,
        )
    else:
        context = _STANDALONE
    return TierEntry(
        int(record["entry_id"]), str(record["query"]), str(record["response"]), context
    )


@dataclass(eq=False)
class TierProbe:
    """One L1 miss held back for its tier's batched match.

    :meth:`TieredCache.lookup_l1` makes one per L1 miss; :func:`match_probes`
    fills in ``found`` — the winning tier entry as the match captured it,
    with its score — and ``promote``; :func:`serve_probes` serves it.
    """

    cache: "TieredCache"
    #: the probe's position in the cache's lookup batch
    row: int
    #: the probe's L1 decision, turned into a hit when the tier matches
    decision: CacheDecision
    embedding: np.ndarray
    #: the probe's context chain, embedded on first call
    context: Callable[[], ContextChain]
    found: Optional[Tuple[TierEntry, float]] = None
    #: whether the matched entry moves into this probe's cache's L1
    promote: bool = False


def match_probes(probes: Sequence[TierProbe]) -> None:
    """Answer held-back L1 misses, given in arrival order: one
    :meth:`QuantizedTier.match` per tier (per ``top_k`` when the caches
    sharing a tier differ in it), each row under its own cache's τ and
    context rule.

    An entry matched by probes of several caches is claimed by the cache of
    the earliest of them: only there is it promoted; every other probe is
    served it from the tier.
    """
    groups: Dict[Tuple[int, int], List[TierProbe]] = {}
    for probe in probes:
        key = (id(probe.cache.l2), probe.cache.config.top_k)
        groups.setdefault(key, []).append(probe)
    for (_, top_k), group in groups.items():
        configs = [p.cache.config for p in group]
        found = group[0].cache.l2.match(
            np.array([p.embedding for p in group], dtype=np.float64),
            top_k,
            [c.similarity_threshold for c in configs],
            [p.context for p in group],
            [c.context_threshold for c in configs],
            [c.verify_context for c in configs],
        )
        for probe, hit in zip(group, found):
            probe.found = hit
    claims: Dict[Tuple[int, int], TieredCache] = {}
    for probe in probes:
        if probe.found is not None:
            key = (id(probe.cache.l2), probe.found[0].entry_id)
            probe.promote = claims.setdefault(key, probe.cache) is probe.cache


def serve_probes(
    probes: Sequence[TierProbe],
    lock_for: Callable[["TieredCache"], ContextManager[object]],
) -> None:
    """Serve matched probes, given in arrival order, cache by cache
    (:meth:`TieredCache.serve_matches`, each under ``lock_for(cache)`` — the
    lock of the server shard that owns the cache).

    The caches go in the order of their earliest probe, and all before any
    of the batch's misses enrols: no enrolment's demotion can evict a
    matched entry ahead of its promotion, and a batch ends in one state
    however its caches were grouped across the server's shards.
    """
    by_cache: Dict[int, List[TierProbe]] = {}
    for probe in probes:
        by_cache.setdefault(id(probe.cache), []).append(probe)
    for group in by_cache.values():
        cache = group[0].cache
        with lock_for(cache):
            cache.serve_matches(group)


class _L1Cache(MeanCache):
    """MeanCache whose evictions hand the victim to a demotion hook."""

    #: set by the owning TieredCache; receives the full CacheEntry *before*
    #: it leaves L1 (its index row and context chain intact — no re-encode).
    on_evict: Optional[Callable[[CacheEntry], None]] = None

    def _evict_one(self) -> None:
        victim_id = self._policy.select_victim()
        if self.on_evict is not None:
            self.on_evict(self._entries[victim_id])
        self.remove(victim_id)
        self.stats.evictions += 1


class TieredCache:
    """L1 (exact, per-user) over L2 (quantized, optionally shared).

    Drop-in for :class:`~repro.core.cache.MeanCache` wherever the serving
    layer's :class:`~repro.serving.scheduling.CacheAdapter` duck-typing
    reaches: ``lookup_batch(queries, contexts=, embeddings=)``, an
    ``enroll`` that inserts into L1, ``save``/``load``, ``set_threshold``
    and ``maintenance``.  Pass a pre-built ``l2`` to share
    one quantized tier across many per-user caches (fleet/server mode), or
    to choose the tier's backend, capacity or snapshot directory; by
    default each instance owns a private ``QuantizedTier()``.
    """

    def __init__(
        self,
        encoder: SiameseEncoder,
        config: Optional[MeanCacheConfig] = None,
        l2: Optional[QuantizedTier] = None,
    ) -> None:
        """``config`` is the L1's MeanCacheConfig — ``max_entries`` is the
        L1 capacity (its evictions demote rather than drop)."""
        self.l1 = _L1Cache(encoder, config)
        self.l1.on_evict = self._demote
        self.l2 = l2 if l2 is not None else QuantizedTier()
        # L2→L1 promotions pass through l1.insert; tracked so the combined
        # stats can report them as movement rather than new insertions.
        self._promotions = 0
        # L1 misses this cache served from L2.  A shared tier's own hit
        # counter counts every sharing cache's, so the combined stats use
        # this instead.
        self._l2_hits = 0

    # ------------------------------------------------------------------ #
    # MeanCache-compatible surface
    # ------------------------------------------------------------------ #
    @property
    def encoder(self) -> SiameseEncoder:
        """The L1 tier's encoder, which embeds probes for both tiers."""
        return self.l1.encoder

    @property
    def config(self) -> MeanCacheConfig:
        """The L1 tier's config (τ, context threshold, capacity, …)."""
        return self.l1.config

    @property
    def index(self):
        """The L1 tier's exact index."""
        return self.l1.index

    def __len__(self) -> int:
        return len(self.l1) + len(self.l2)

    @property
    def stats(self) -> CacheStats:
        """Hierarchy-level counters derived from the per-tier stats.

        ``lookups``/``hits``/``misses`` see the hierarchy as one cache (an
        L2 hit this cache served is a cache hit, not a miss — counted per
        cache, so caches sharing a tier do not see each other's);
        ``insertions`` counts entries entering through L1 (demotions are
        movement, not new data); ``evictions`` counts entries actually
        dropped (L2 FIFO evictions — an L1 eviction merely demotes).
        Inspect ``l1.stats`` / ``l2.stats`` for the per-tier view.
        """
        l1 = self.l1.stats
        return CacheStats(
            lookups=l1.lookups,
            hits=l1.hits + self._l2_hits,
            misses=l1.misses - self._l2_hits,
            insertions=max(0, l1.insertions - self._promotions),
            evictions=self.l2.stats.evictions,
        )

    def tier_stats(self) -> Dict[str, CacheStats]:
        """Per-tier counters: ``{"l1": ..., "l2": ...}``."""
        return {"l1": self.l1.stats, "l2": self.l2.stats}

    def embedding_storage_bytes(self) -> int:
        """Vector bytes across both tiers (L1 float rows + L2 codes, and
        both tiers' context chains)."""
        return self.l1.embedding_storage_bytes() + self.l2.embedding_storage_bytes()

    def total_storage_bytes(self) -> int:
        """Bytes of the whole hierarchy (texts + embeddings + codes)."""
        return self.l1.total_storage_bytes() + self.l2.total_storage_bytes()

    def storage_breakdown(self) -> Dict[str, int]:
        """Fleet-accounting view: entries and bytes per tier.

        ``l1_bytes`` counts the exact tier's float index rows plus its
        context chains; ``l2_bytes`` counts the quantized payload (code
        rows + codec/routing tables + context chains).
        """
        return {
            "l1_entries": len(self.l1),
            "l2_entries": len(self.l2),
            "l1_bytes": self.l1.embedding_storage_bytes(),
            "l2_bytes": self.l2.embedding_storage_bytes(),
        }

    # ------------------------------------------------------------------ #
    # Lookup: L1, then the L2 fall-through
    # ------------------------------------------------------------------ #
    def lookup(self, query: str, context: Sequence[str] = ()) -> CacheDecision:
        """Single-probe lookup through both tiers."""
        return self.lookup_batch([query], contexts=[context])[0]

    def lookup_batch(
        self,
        queries: Sequence[str],
        contexts: Optional[Sequence[Sequence[str]]] = None,
        embeddings: Optional[np.ndarray] = None,
    ) -> List[CacheDecision]:
        """Batched lookup: one L1 pass, one L2 match for all its misses,
        then the promotions (:meth:`lookup_l1`, :func:`match_probes` and
        :meth:`serve_matches` in a row).

        Each L1 miss probes L2 with the L1 decision's probe embedding (no
        re-encode) under the live τ and context rule, reusing the context
        chain the L1 lookup embedded, if it did.  Promotions happen only
        after **every** probe in the batch is matched, so duplicate
        probes all see the entry exactly once (in whichever tier held it
        when the batch started) — an entry is never scored twice for one
        probe.
        """
        decisions, probes = self.lookup_l1(queries, contexts, embeddings)
        match_probes(probes)
        self.serve_matches(probes)
        return decisions

    def lookup_l1(
        self,
        queries: Sequence[str],
        contexts: Optional[Sequence[Sequence[str]]] = None,
        embeddings: Optional[np.ndarray] = None,
    ) -> Tuple[List[CacheDecision], List[TierProbe]]:
        """The L1 pass of :meth:`lookup_batch`: the L1 decisions, and each
        L1 miss held back as a :class:`TierProbe` for the tier."""
        decisions = self.l1.lookup_batch(
            queries, contexts=contexts, embeddings=embeddings
        )
        probes = []
        for i, decision in enumerate(decisions):
            if decision.hit or decision.embedding is None:
                continue
            chain = decision.context_chain
            probes.append(
                TierProbe(
                    self,
                    i,
                    decision,
                    decision.embedding,
                    (lambda chain=chain: chain)
                    if chain is not None
                    else functools.partial(
                        self.l1._embed_context,
                        tuple(contexts[i]) if contexts is not None else (),
                    ),
                )
            )
        return decisions, probes

    def serve_matches(self, probes: Sequence[TierProbe]) -> None:
        """Turn this cache's matched probes into hits on their L1 decisions.

        An entry the cache claimed (``promote``) moves into L1 once, and
        every probe that matched it records its new L1 id; other matches
        record the tier id and leave the entry in L2.  An entry that left
        the tier between the match and its promotion (another user of the
        tier removed it) is still served as matched, just not promoted.
        """
        promoted: Dict[int, int] = {}  # tier id -> L1 id
        for probe in probes:
            if probe.found is None:
                continue
            entry, score = probe.found
            entry_id = entry.entry_id
            if probe.promote and entry_id not in promoted:
                with self.l2.lock:  # membership test and pop in one step
                    embedding = self.l2.pop(entry_id)[1] if entry_id in self.l2 else None
                if embedding is not None:
                    promoted[entry_id] = self.l1.insert(
                        entry.query,
                        entry.response,
                        context=entry.context,
                        embedding=embedding,
                    )
                    self._promotions += 1
            self._l2_hits += 1
            decision = probe.decision
            decision.hit = True
            decision.response = entry.response
            decision.matched_query = entry.query
            decision.entry_id = promoted.get(entry_id, entry_id)
            decision.similarity = score
            decision.context_verified = (
                self.l1.config.verify_context and not entry.context.is_empty
            )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(
        self,
        query: str,
        response: str,
        context: "Sequence[str] | ContextChain" = (),
        embedding: Optional[np.ndarray] = None,
    ) -> int:
        """Enrol into L1 (new entries are hot); may cascade a demotion."""
        return self.l1.insert(query, response, context=context, embedding=embedding)

    def enroll(
        self,
        query: str,
        response: str,
        context: Sequence[str] = (),
        user_id: Optional[str] = None,
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """:meth:`insert` under the enrolment signature every cache shares
        (``user_id`` ignored: the hierarchy belongs to one user)."""
        self.insert(query, response, context=context, embedding=embedding)

    def _demote(self, entry: CacheEntry) -> None:
        """L1 eviction hook: move the victim into L2 — its L1 index row
        (still in place: the hook runs before the row is removed) and its
        context chain."""
        self.l2.insert(
            entry.query,
            entry.response,
            embedding=entry.embedding,
            context=entry.context,
        )

    def set_threshold(self, threshold: float) -> None:
        """Update τ for both tiers (L2 reads the L1 config live)."""
        self.l1.set_threshold(threshold)

    def clear(self) -> None:
        """Drop all entries in both tiers."""
        self.l1.clear()
        self.l2.clear()

    def local_maintenance(self) -> None:
        """This cache's own share of between-batch upkeep: L1 index upkeep,
        then sealing what the tier changed since its last seal — this
        cache's mutations, and any a neighbour served in the same batch has
        not sealed yet — into one delta record (:meth:`QuantizedTier.seal`),
        which writes nothing.
        The tier's own upkeep (:meth:`QuantizedTier.maintenance`, which
        writes every sealed record with one append and one fsync) is not
        included: whoever drives several caches over one tier owes that once
        per batch, before any of the batch's responses goes out."""
        self.l1.maintenance()
        self.l2.seal()

    def maintenance(self) -> None:
        """Between-batch upkeep of a cache driven on its own:
        :meth:`local_maintenance`, then the tier's; the tier's mutations are
        durable when this returns."""
        self.local_maintenance()
        self.l2.maintenance()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path") -> Path:
        """Snapshot both tiers atomically under one directory.

        The published directory holds ``l1/`` (a full MeanCache snapshot),
        ``l2/`` (the quantized tier's snapshot) and a manifest; the whole
        tree appears with one rename, so a crash mid-save leaves any
        previous generation intact.  A *shared* L2 is snapshotted as part
        of every owning cache's save — restore topology (which caches share
        a tier) is the caller's to re-establish, exactly as with the fleet
        checkpoint's user map.
        """
        path = Path(path)
        # The tier stays locked from its staged snapshot to the publish, so
        # a checkpoint in place (``path / "l2"`` is the tier's own
        # ``snapshot_dir``) rebases its delta log on exactly what was staged.
        with self.l2.lock:
            with atomic_snapshot_dir(path) as stage:
                self.l1.save(stage / "l1")
                self.l2.save(stage / "l2")
                write_manifest(
                    stage,
                    {
                        "format": TIERED_FORMAT,
                        "version": TIERED_VERSION,
                        "promotions": self._promotions,
                        "l2_hits": self._l2_hits,
                    },
                )
            self.published_at(path)
        return path

    def published_at(self, path: "str | Path") -> None:
        """The snapshot the last :meth:`save` wrote now sits at ``path``.

        For a caller that saved into a staging directory of its own and
        renamed that into place (the fleet checkpoint): if ``path / "l2"``
        is the tier's own ``snapshot_dir``, its delta log was just rebased
        on that snapshot.  Nothing may mutate the cache between the save
        and this call.
        """
        with self.l2.lock:
            self.l2._rebaselined(Path(path) / "l2")

    @classmethod
    def load(
        cls,
        path: "str | Path",
        encoder: SiameseEncoder,
        mmap: bool = False,
    ) -> "TieredCache":
        """Rebuild a tiered cache from :meth:`save`.

        ``mmap=True`` memory-maps the L2 code matrix (zero-copy warm start
        for the big tier; L1 is small and always materialized).
        """
        path = Path(path)
        manifest = read_manifest(path, TIERED_FORMAT, TIERED_VERSION)
        # Snapshots written while promotion was a setting record it; an L2
        # hit always promotes now, so only a promoting cache loads.
        if manifest.get("promote_on_hit", True) is not True:
            raise SnapshotError(
                f"snapshot at {path} does not promote L2 hits; every tiered "
                "cache does now"
            )
        l1 = _L1Cache.load(path / "l1", encoder)
        l2 = QuantizedTier.load(path / "l2", mmap=mmap)
        cache = cls.__new__(cls)
        cache.l1 = l1
        cache.l1.on_evict = cache._demote
        cache.l2 = l2
        cache._promotions = int(manifest.get("promotions", 0))
        cache._l2_hits = int(manifest.get("l2_hits", 0))
        return cache
