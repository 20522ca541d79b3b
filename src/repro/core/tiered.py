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
snapshot there — full generations written atomically via
:func:`~repro.index.snapshot.atomic_snapshot_dir`, incremental mutations
appended to the snapshot's delta log (:func:`~repro.index.snapshot.append_delta`)
by :meth:`QuantizedTier.flush`, and the log folded back into a full snapshot
by :meth:`QuantizedTier.maintenance` once it grows past ``compact_every``
records.  :meth:`QuantizedTier.load` (``mmap=True``) adopts the code matrix
as a read-only memory map — the zero-copy warm start benchmarked in
``BENCH_index.json``'s ``persistence`` section.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import nullcontext
from dataclasses import asdict, dataclass
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
    SnapshotError,
    append_delta,
    atomic_snapshot_dir,
    load_cache_snapshot,
    native_float_dtype,
    open_delta_log,
    read_deltas,
    read_manifest,
    record_blocks,
    save_cache_snapshot,
    split_blocks,
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
    vector lives only as a code row in the tier's quantized index.  Frozen: the
    tier renders an entry's ``entries.json`` block once and reuses it in
    every later snapshot (:meth:`QuantizedTier.save`).
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


class QuantizedTier:
    """The shared L2: texts keyed by id over a quantized vector index.

    Thread-safe behind one re-entrant lock (several shard executors may
    probe a shared tier at once).  Capacity is FIFO-bounded when
    ``max_entries`` is set; an unbounded tier never drops entries.

    With ``snapshot_dir`` set the tier maintains a crash-safe on-disk
    snapshot: :meth:`flush` appends pending mutations to the snapshot's
    delta log (cost proportional to the delta, never a full rewrite) and
    :meth:`maintenance` folds the log into a fresh full snapshot once it
    holds ``compact_every`` records.  A fold's CPU follows what changed
    since the last one: each entry's ``entries.json`` block is rendered by
    the first full snapshot that holds it (or kept from the file
    :meth:`load` read) for the entry's lifetime, so a fold renders only the
    entries added since, and the context-chain arrays are packed from the
    contextual entries alone.  Its bytes do not: every fold still writes
    the whole tier.

    The tier counts its log records in memory: the directory is read once,
    before the first append to a snapshot that was already there (which
    is also when a torn tail left by a crashed append is cut off), and
    again only after an append of its own failed — nothing else may write
    to ``snapshot_dir`` while the tier is attached to it, bar a full
    snapshot of this tier published over it
    (:meth:`TieredCache.published_at`).

    Upkeep is split by owner.  Committing mutations (:meth:`flush`) is
    owed by every cache that made some; :meth:`maintenance` — the index's
    own upkeep and compaction — is owed once per served batch however many
    caches share the tier (see ``docs/serving.md``, "Upkeep contract").
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
        #: id -> the entry's rendered entries.json block, for the entries
        #: some save() rendered or load() read: always a FIFO prefix of
        #: ``_entries`` (see save)
        self._blocks: Dict[int, str] = {}
        #: id -> context-chain embedding of each live contextual entry, in
        #: FIFO order: what a save packs, without walking every entry
        self._ctx: Dict[int, np.ndarray] = {}
        self._next_id = 0
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.lock = maybe_tracked_rlock("tier.l2")
        self.snapshot_dir: Optional[Path] = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self.compact_every = int(compact_every)
        #: the directory ``_log_records`` describes: unset until the first
        #: append reads it, stale once ``snapshot_dir`` is pointed elsewhere
        self._counted_dir: Optional[Path] = None
        self._log_records: Optional[int] = None
        self._reset_pending()

    def _log_length(self) -> Optional[int]:
        """Delta records on top of the baseline in ``snapshot_dir``, or
        ``None`` while there is no baseline a log record can extend: none
        on disk yet, or a :meth:`clear` since the last one.  Reads the
        directory once (cutting off a crashed append's torn tail on the
        way); :meth:`save`, :meth:`flush` and :meth:`clear` keep count after
        that."""
        if self._counted_dir != self.snapshot_dir:
            self._log_records = (
                open_delta_log(self.snapshot_dir)
                if (self.snapshot_dir / "manifest.json").is_file()
                else None
            )
            self._counted_dir = self.snapshot_dir
        return self._log_records

    def _reset_pending(self) -> None:
        """Forget the mutations buffered since the last flush (one delta
        record commits them all)."""
        self._pending_ids: List[int] = []
        self._pending_vectors: List[np.ndarray] = []
        self._pending_meta: List[Dict[str, object]] = []
        self._pending_removed: List[int] = []

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
                int(e.nbytes) for e in self._ctx.values()
            )

    def total_storage_bytes(self) -> int:
        """Bytes of the whole tier: texts + contexts + index payload, and
        the rendered ``entries.json`` blocks :meth:`save` keeps.  The blocks
        are a host-side copy of the texts, so :meth:`embedding_storage_bytes`
        and :meth:`TieredCache.storage_breakdown` (bytes-per-entry
        accounting) leave them out."""
        with self.lock:
            return (
                self.embedding_storage_bytes()
                + sum(
                    object_nbytes(e.query)
                    + object_nbytes(e.response)
                    + sum(object_nbytes(t) for t in e.context.texts)
                    for e in self._entries.values()
                )
                + sum(map(object_nbytes, self._blocks.values()))
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
        # the index the same bits keeps replayed scores byte-identical.
        vector = np.asarray(embedding, dtype=np.float32).reshape(-1)
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
            self._hold(entry)
            self.stats.insertions += 1
            if self.snapshot_dir is not None:
                self._pending_ids.append(entry_id)
                self._pending_vectors.append(vector)
                self._pending_meta.append(_tier_entry_record(entry))
            return entry_id

    def _hold(self, entry: TierEntry) -> None:
        """Keep ``entry`` as the newest (its index row is the caller's)."""
        self._entries[entry.entry_id] = entry
        if entry.context.embedding is not None:
            self._ctx[entry.entry_id] = entry.context.embedding

    def _drop(self, entry_id: int) -> None:
        """Forget ``entry_id`` and what is kept beside it (not its index row)."""
        del self._entries[entry_id]
        self._blocks.pop(entry_id, None)
        self._ctx.pop(entry_id, None)

    def _remove_locked(self, entry_id: int) -> None:
        self._drop(entry_id)
        self._index.remove(entry_id)
        if self.snapshot_dir is not None:
            if entry_id in self._pending_ids:
                # Added and removed within one flush window: cancel the add
                # instead of logging a dead row.
                pos = self._pending_ids.index(entry_id)
                del self._pending_ids[pos]
                del self._pending_vectors[pos]
                del self._pending_meta[pos]
            else:
                self._pending_removed.append(entry_id)

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
        """Drop every entry (pending delta buffers included).

        Committed like any other mutation: the snapshot in ``snapshot_dir``
        still holds the dropped entries, so the next :meth:`flush` publishes
        a full snapshot (of what the tier holds by then) instead of
        appending to its log.
        """
        with self.lock:
            self._entries.clear()
            self._blocks.clear()
            self._ctx.clear()
            self._index.clear()
            self._reset_pending()
            self._counted_dir, self._log_records = self.snapshot_dir, None

    # ------------------------------------------------------------------ #
    # Persistence: atomic full snapshots + append-only delta log
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path") -> Path:
        """Write a full snapshot atomically (discarding any delta log).

        ``entries.json`` is joined from per-entry blocks: an entry's block
        is rendered by the first save that holds it (or kept from the file
        :meth:`load` read) until the entry leaves.  The entries without one
        are the FIFO suffix added since, so a save renders only those; the
        context-chain arrays are packed from the contextual entries alone.
        The arrays, the index snapshot and the file bytes are written whole
        every time, each file fsynced once.
        """
        with self.lock:
            fresh = list(itertools.islice(self._entries.values(), len(self._blocks), None))
            rendered = record_blocks(
                [_tier_entry_record(e, with_ctx_embedding=False) for e in fresh]
            )
            self._blocks.update(zip((e.entry_id for e in fresh), rendered))
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
                list(self._blocks.values()),
                pack_context_embeddings(
                    self._ctx.items(),
                    self._index.dim or 0,
                    native_float_dtype(self._index),
                ),
                self._index,
            )
            self._rebaselined(path)
        return path

    def _rebaselined(self, path: Path) -> None:
        """A full snapshot of the tier was just published at ``path``
        (caller holds the lock, and has since the snapshot was taken).  If
        that is the tier's own ``snapshot_dir``, it now captures every
        pending mutation under an empty log; a copy saved elsewhere leaves
        both as they were, still owed to ``snapshot_dir``."""
        if self.snapshot_dir is not None and path.resolve() == self.snapshot_dir.resolve():
            self._reset_pending()
            self._counted_dir, self._log_records = self.snapshot_dir, 0

    def flush(self) -> None:
        """Commit pending mutations to the snapshot's delta log.

        Costs O(delta), not O(tier): one JSON line, carrying the vectors,
        is appended to the log and fsynced.  The first flush (no snapshot
        on disk yet) writes the full baseline instead.
        """
        if self.snapshot_dir is None:
            return
        with self.lock:
            n_records = self._log_length()
            if n_records is None:
                self.save(self.snapshot_dir)
                return
            if not (self._pending_ids or self._pending_removed):
                return
            try:
                append_delta(
                    self.snapshot_dir,
                    vectors=(
                        np.stack(self._pending_vectors) if self._pending_ids else None
                    ),
                    ids=list(self._pending_ids),
                    removed=list(self._pending_removed),
                    meta={"entries": list(self._pending_meta)},
                    seq=n_records + 1,
                )
            except BaseException:
                # A failed append may have left a fragment on the log: make
                # the retry re-read the directory, which cuts it off.
                self._counted_dir = None
                raise
            self._log_records = n_records + 1
            self._reset_pending()

    def maintenance(self) -> None:
        """The tier's own off-query-path upkeep: index maintenance, then
        compaction once the delta log holds ``compact_every`` records.  A
        compaction is a :meth:`save`: it renders the entries added since the
        last one and writes the whole tier.

        Owed once per served batch, not once per cache sharing the tier
        (the serving layer de-duplicates by tier identity).  Anything still
        pending is flushed first, so a standalone tier needs no other call.
        """
        with self.lock:
            self._index.maintenance()
            self.flush()
            if self.snapshot_dir is not None and self._log_length() >= self.compact_every:
                self.save(self.snapshot_dir)

    @classmethod
    def load(cls, path: "str | Path", mmap: bool = False) -> "QuantizedTier":
        """Rebuild a tier from :meth:`save` plus any delta log on top.

        ``mmap=True`` adopts the snapshot's code matrix as a read-only
        memory map (zero-copy warm start) — replaying a non-empty delta log
        materializes it again, so compacted snapshots restore fastest.  The
        loaded tier keeps ``snapshot_dir = path`` and continues appending
        there; set it to ``None`` to detach.

        The base snapshot's ``entries.json`` blocks are kept as read
        (:func:`~repro.index.snapshot.split_blocks`), so the first save
        renders only the entries the delta log added; a file that does not
        split back into its records' blocks (edited by hand, say) keeps
        none, and that save renders every entry.
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

        tier, index, meta, data, text = load_cache_snapshot(
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
            tier._hold(
                _tier_entry_from_record(record, ctx_embedding_of.get(int(record["entry_id"])))
            )
        if set(tier._entries) != set(tier._index.ids):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: entry ids and index ids differ"
            )
        # Keep the file's blocks if it splits into one per entry (counting
        # distinct ids, so a record listed twice keeps none).
        blocks = split_blocks(text, len(tier._entries))
        if blocks is not None:
            tier._blocks = dict(zip(tier._entries, blocks))
        # Replay the delta log (texts from each record's meta, vectors into
        # the index) — mutations committed after the base snapshot.
        for record in read_deltas(path):
            if record.vectors is not None and record.ids:
                tier._index.add_batch(record.vectors, ids=list(record.ids))
            entry_records = (record.meta or {}).get("entries", [])
            for entry_record in entry_records:
                ctx_embedding = entry_record.get("ctx_embedding")
                tier._hold(
                    _tier_entry_from_record(
                        entry_record,
                        np.asarray(ctx_embedding, dtype=np.float32)
                        if ctx_embedding is not None
                        else None,
                    )
                )
            for removed_id in record.removed:
                removed_id = int(removed_id)
                if removed_id in tier._entries:
                    tier._drop(removed_id)
                    tier._index.remove(removed_id)
            if record.ids:
                tier._next_id = max(tier._next_id, max(record.ids) + 1)
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
    the earliest of them: only there is it promoted (if that cache promotes
    on hit); every other probe is served it from the tier.
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
            owner = claims.setdefault(key, probe.cache)
            probe.promote = owner is probe.cache and owner.promote_on_hit


def serve_probes(
    probes: Sequence[TierProbe],
    lock_for: Callable[["TieredCache"], ContextManager[object]] = lambda cache: nullcontext(),
) -> None:
    """Serve matched probes, given in arrival order, cache by cache
    (:meth:`TieredCache.serve_matches`, each under ``lock_for(cache)``).

    The caches go in the order of their earliest probe, whichever driver
    ran the lookups, and all before any of the batch's misses enrols: no
    enrolment's demotion can evict a matched entry ahead of its promotion,
    and a batch ends in one state however its caches were grouped (across
    the server's shards or in the simulator's one executor).
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
    one quantized tier across many per-user caches (fleet/server mode); by
    default each instance owns a private tier.
    """

    def __init__(
        self,
        encoder: SiameseEncoder,
        config: Optional[MeanCacheConfig] = None,
        l2: Optional[QuantizedTier] = None,
        l2_backend: str = "sq8",
        l2_params: Optional[Mapping[str, object]] = None,
        l2_max_entries: Optional[int] = None,
        promote_on_hit: bool = True,
        snapshot_dir: "str | Path | None" = None,
        compact_every: int = 64,
    ) -> None:
        """``config`` is the L1's MeanCacheConfig — ``max_entries`` is the
        L1 capacity (its evictions demote rather than drop).  ``l2`` wins
        over the ``l2_*`` knobs when given."""
        self.l1 = _L1Cache(encoder, config)
        self.l1.on_evict = self._demote
        if l2 is None:
            l2 = QuantizedTier(
                backend=l2_backend,
                params=l2_params,
                max_entries=l2_max_entries,
                snapshot_dir=(
                    Path(snapshot_dir) / "l2" if snapshot_dir is not None else None
                ),
                compact_every=compact_every,
            )
        self.l2 = l2
        self.promote_on_hit = bool(promote_on_hit)
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

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Swap the L1 timestamp source (L2 entries carry no timestamps)."""
        self.l1.set_clock(clock)

    def clear(self) -> None:
        """Drop all entries in both tiers."""
        self.l1.clear()
        self.l2.clear()

    def local_maintenance(self) -> None:
        """This cache's own share of between-batch upkeep: L1 index upkeep,
        then committing the tier's pending mutations — its own, and any a
        neighbour served in the same batch has not committed yet — as one
        delta-log record, durable when this returns.  The tier's own upkeep
        (:meth:`QuantizedTier.maintenance`) is not included: whoever drives
        several caches over one tier owes that once per batch."""
        self.l1.maintenance()
        self.l2.flush()

    def maintenance(self) -> None:
        """Between-batch upkeep of a cache driven on its own:
        :meth:`local_maintenance`, then the tier's."""
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
                        "promote_on_hit": self.promote_on_hit,
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
        l1 = _L1Cache.load(path / "l1", encoder)
        l2 = QuantizedTier.load(path / "l2", mmap=mmap)
        cache = cls.__new__(cls)
        cache.l1 = l1
        cache.l1.on_evict = cache._demote
        cache.l2 = l2
        cache.promote_on_hit = bool(manifest.get("promote_on_hit", True))
        cache._promotions = int(manifest.get("promotions", 0))
        cache._l2_hits = int(manifest.get("l2_hits", 0))
        return cache
