"""The one vector index: row store × codec × router.

:class:`VectorIndex` owns a cache's embedding rows.  Callers hand it stable
integer ids and get the same ids back from :meth:`VectorIndex.search`, so it
is free to reorder rows internally.  The four registry names are its
configurations: ``flat``/``ivf`` have no codec, ``sq8``/``ivf+sq8`` the
:class:`~repro.index.codecs.ScalarQuantizer`, and the ``ivf`` ones route
through an IVF :class:`~repro.index.routing.Router`.

The vectors are the rows of one contiguous *payload* matrix — unit float
rows, replaced by uint8 code rows once a codec trains — beside a column of
the original L2 norms and an int64 id column:

* **amortized-O(1) appends** — capacity doubles when full, so an insert is
  one row write;
* **swap-with-last deletion** — removing a row copies the last row into its
  slot: O(row width), no matrix copy, no re-index loop;
* **id-centric addressing** — one id → row
  :class:`~repro.index.postings.RowMap` (a dense base-anchored ``int64``
  table, re-anchored to the live id span under churn) that the router
  borrows for its gathers.  After a memory-mapped restore of an unrouted
  index it stays empty until the first id-keyed call, so a zero-copy warm
  start pays no O(n) pass;
* **mmap adopt / materialize** — ``load_index(mmap=True)`` adopts the mapped
  snapshot arrays as storage; the first mutation copies them once;
* **validation at the door** — duplicate ids, mismatched dims and rows whose
  norm is not finite (NaN/inf components) are rejected before any state
  changes, and a snapshot whose arrays disagree (row counts, row width, a
  repeated id) does not load.

Every index starts with unit float rows in its ``dtype``, searched exactly.
Once ``min_train_size`` rows are stored it trains on a seeded sample of
them: the codec (if any), whose code rows then replace the float rows, and
the routing (if routed).  A flat index has no codec to train, so it stays
in that float phase forever.  The codec is trained once and frozen (the
faiss contract; ``clear``/``rebuild`` reset it).  The routing refits when
the size, or the adds and removes since the last fit, reach
``repartition_growth ×`` the size at that fit, from the dequantized rows
once the floats are gone.  ``maintenance()`` stores a routed codec
index's code rows cell-major and keeps each cell's row offsets until the
next add, remove or refit.  A search has two branches: routed → the probe
loop over the ``nprobe`` nearest cells, whose candidates are the probed
cells' row ranges while those offsets exist and otherwise the rows the
inverted lists name, sorted (the same rows in the same order either way),
scored by the codec's gathered-row scorer or a float gather+gemv;
everything else, at every batch size →
:func:`~repro.index.postings.exact_scan`, over rows × probes blocks
(``block @ Qs.T``) of the float rows or the codec's fused chunk scorer, cut
per probe at a block-maximum bound.  Those scan scores only cut: both
branches end in one rank (:meth:`VectorIndex._rank`), which rescores the
candidates within a computed ``ε`` (at most one computation per search)
of the ``top_k``-th scan score with one dot per row and lists them with
:func:`~repro.index.postings.topk_hits`.
Training-sample selection, k-means init and re-seeding all derive from
``seed``, so an operation sequence reproduces bit-identical results.

:class:`~repro.index.flat.FlatIndex` and
:class:`~repro.index.quantized.QuantizedIndex` are the two registry classes,
each this index behind its own constructor.  There is no abstract base:
any other object with the methods :class:`repro.core.cache.MeanCache` calls
(``add``, ``add_batch``, ``remove``, ``search``, ``rebuild``, ``get``,
``clear``, ``len``, ``dim``, ``ids``, ``nbytes``, ``storage_nbytes``,
``maintenance``) slots under it by duck typing (see ``docs/api.md``).
"""

from __future__ import annotations

import math
import operator
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.index.codecs import ScalarQuantizer
from repro.index.postings import IndexHit, RowMap, ScratchBuffers, exact_scan, topk_hits
from repro.index.routing import Router, ScoreRows, training_sample
from repro.index.snapshot import SnapshotError, save_index

_MIN_CAPACITY = 64
# Rows per encode/decode block: bounds the temporary float matrices.
_ENCODE_BLOCK = 16384
# Scores per codec scan chunk: the codec scores a whole batch's chunk into
# one float32 block in scratch, so q queries scan chunks of at most
# ``_SCORE_BLOCK // q`` rows and any batch retains at most 512 KB of scores.
_SCORE_BLOCK = 1 << 17
# Up to this many candidates, scoring them all beats finding the band.
_BAND_MIN_ROWS = 64

_NON_FINITE = "vectors must have finite norms (NaN or inf component)"


def _row_norms(M: np.ndarray) -> np.ndarray:
    """``(n, 1)`` L2 norms of the float rows of ``M``; raises for a non-finite one.

    The one place the index validates values: a row (or query) with a NaN or
    inf component has no cosine, and its norm — computed here anyway — is
    where that shows, so the check costs no extra pass over the data.  The
    ufuncs are the ones ``np.linalg.norm(M, axis=1, keepdims=True)`` runs for
    a real matrix, called without its argument dispatch, which for a single
    probe cost more than the arithmetic.
    """
    norms = np.sqrt(np.add.reduce(M * M, axis=1, keepdims=True))
    if not np.isfinite(norms).all():
        raise ValueError(_NON_FINITE)
    return norms


def normalize_rows(vectors: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Unit-normalize rows in float64, returning (unit rows, norms).

    The one normalization rule of the index, so the epsilon and dtype policy
    cannot drift between backends.  Raises ``ValueError`` for rows whose norm
    is not finite.
    """
    V = np.asarray(vectors, dtype=np.float64)
    if V.ndim != 2:
        V = np.atleast_2d(V)
    norms = _row_norms(V)
    unit = V / np.where(norms > 1e-12, norms, 1.0)
    return unit, norms[:, 0]


def _grown(array: np.ndarray, capacity: int, size: int) -> np.ndarray:
    """``array`` re-allocated to ``capacity`` rows, live prefix copied."""
    grown = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:size] = array[:size]
    return grown


def _blockwise(
    fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out[:len(rows)] = fn(rows)``, ``_ENCODE_BLOCK`` rows at a time."""
    for start in range(0, rows.shape[0], _ENCODE_BLOCK):
        block = rows[start : start + _ENCODE_BLOCK]
        out[start : start + block.shape[0]] = fn(block)
    return out


class VectorIndex:
    """Cosine index over unit float rows or a codec's code rows, optionally routed.

    ``search`` agrees with a brute-force cosine scan of the stored vectors
    (up to floating-point tolerance; see ``docs/api.md`` for the float32
    note).  ``dim`` may be omitted; the first added vector then fixes it.
    ``dtype`` is the float dtype of the rows (before encoding), the norms
    and the scanned queries; ``initial_capacity`` rows are allocated before
    the first doubling; a search scores at most ``chunk_size`` rows per
    block.  ``codec`` replaces the float rows once trained, or is ``None``.
    Training starts once ``min_train_size`` rows are stored, on at most
    ``train_sample`` of them, seeded by ``seed``; an unrouted index without
    a codec never trains, builds no router and ignores these and the routing
    ``knobs`` (see :class:`repro.index.routing.Router`).
    """

    def __init__(
        self,
        dim: Optional[int],
        dtype: np.dtype,
        initial_capacity: int,
        chunk_size: int,
        codec: Optional[ScalarQuantizer],
        routed: bool,
        min_train_size: int,
        train_sample: int,
        seed: int,
        **knobs: Any,
    ) -> None:
        self._dtype = np.dtype(dtype)  # of the float rows, the norms and the queries
        if dim is not None and dim < 1:
            raise ValueError("dim must be >= 1")
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self._dtype.kind != "f":
            raise ValueError("dtype must be a floating-point type")
        self._dim = dim
        self._constructor_dim = dim  # restored on clear(); None means data-driven
        self._initial_capacity = int(initial_capacity)
        self._chunk_size = int(chunk_size)
        self._size = 0
        self._next_id = 0
        self._rows: Optional[np.ndarray] = None  # (capacity, width) payload rows
        self._norms: Optional[np.ndarray] = None  # (capacity,) original L2 norms
        self._ids: Optional[np.ndarray] = None  # (capacity,) int64 entry ids
        # id -> row map (read through _id_to_row).  An mmap-backed restore
        # defers filling it to the first id-keyed call, so a zero-copy warm
        # start pays no O(n) pass up front.
        self._row_map = RowMap()
        self._row_map_deferred = False
        # True while storage is an adopted read-only memmap from
        # load_index(mmap=True); any mutation first materializes a copy.
        self._mmap_backed = False
        # Reused query-preparation and scan buffers: repeat lookups against
        # the same index never re-allocate them.
        self._scratch = ScratchBuffers()
        self._codec = codec
        self._routed = bool(routed)
        # Row offsets of each cell while the code rows are stored cell-major
        # (cell c is rows [b[c], b[c+1])); None until maintenance() groups them.
        self._cell_bounds: Optional[np.ndarray] = None
        self._router: Optional[Router] = None
        if not (self._routed or codec is not None):
            return
        if min_train_size < 2:
            raise ValueError("min_train_size must be >= 2")
        if train_sample < 2:
            raise ValueError("train_sample must be >= 2")
        self._min_train_size = int(min_train_size)
        self._train_sample = int(train_sample)
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        # An unrouted codec index keeps an untrained, empty router: it shares
        # the nprobe/scan_stats surface, and its trained size records the
        # codec's.  Only a routed index gathers through the row map.
        self._router = Router(
            self._dtype,
            self._scratch,
            row_map=self._row_map if self._routed else None,
            **knobs,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def _id_to_row(self) -> RowMap:
        """The id -> storage-row map, filled here if a restore deferred it."""
        if self._row_map_deferred:
            self._fill_row_map()
        return self._row_map

    def _fill_row_map(self) -> None:
        """Map the live ids now, if a restore left the map empty.

        Raises :class:`~repro.index.snapshot.SnapshotError` (and leaves the
        map empty) when the restored id column repeats an id: each id must
        then map to its own row, and a repeated one maps to one row only.
        """
        if self._row_map_deferred:
            ids = self._ids[: self._size]
            self._row_map.set_block(ids, 0)
            misplaced = np.flatnonzero(self._row_map.rows(ids) != np.arange(self._size))
            if misplaced.size:
                self._row_map.clear()
                raise SnapshotError(f"snapshot ids repeat id {ids[misplaced[0]]}")
            self._row_map_deferred = False

    @property
    def mmap_backed(self) -> bool:
        """True while storage is a read-only memory map (zero-copy restore)."""
        return self._mmap_backed

    def __len__(self) -> int:
        return self._size

    def __contains__(self, id: int) -> bool:
        return int(id) in self._id_to_row

    @property
    def dim(self) -> Optional[int]:
        """Vector dimensionality, or None while the index is empty and unset."""
        return self._dim

    @property
    def ids(self) -> List[int]:
        """Ids of the stored vectors (internal row order)."""
        return [] if self._ids is None else self._ids[: self._size].tolist()

    @property
    def nbytes(self) -> int:
        """Bytes held by the *live* rows: payload + cached norms + id column.

        Exactly ``len(self) * (row width * itemsize + norm itemsize + 8)``;
        codec tables and routing structures are fixed overheads reported by
        ``codec_nbytes`` / ``routing_nbytes``.  The backing arrays are
        over-allocated for amortized-O(1) appends, so the process-level
        footprint is :attr:`allocated_nbytes`.
        """
        if self._rows is None:
            return 0
        n = self._size
        return int(self._rows[:n].nbytes + self._norms[:n].nbytes + self._ids[:n].nbytes)

    @property
    def allocated_nbytes(self) -> int:
        """Bytes actually allocated (capacity rows, not just live ones)."""
        if self._rows is None:
            return 0
        return int(self._rows.nbytes + self._norms.nbytes + self._ids.nbytes)

    @property
    def codec_nbytes(self) -> int:
        """Bytes of the trained codec tables (0 without a codec)."""
        return 0 if self._codec is None else int(self._codec.nbytes)

    @property
    def routing_nbytes(self) -> int:
        """Bytes of the routing structures (centroids + lists + row map).

        Kept separate from ``nbytes``, which across every backend counts
        only the live row storage.
        """
        return 0 if self._router is None else self._router.nbytes

    @property
    def storage_nbytes(self) -> int:
        """Every byte of vector state: ``nbytes`` + codec + routing tables."""
        return int(self.nbytes) + int(self.codec_nbytes) + int(self.routing_nbytes)

    @property
    def is_trained(self) -> bool:
        """Whether the codec (without one: the routing) is trained; False → exact scans."""
        if self._codec is not None:
            return self._codec.is_trained
        return self._router is not None and self._router.is_trained

    @property
    def routed(self) -> bool:
        """Whether searches route through IVF cells once trained."""
        return self._routed

    def _live_router(self) -> Router:
        """The router; an index without one has no routing surface at all."""
        if self._router is None:
            raise AttributeError(f"an unrouted {type(self).__name__} has no router")
        return self._router

    @property
    def trainings(self) -> int:
        """Fits of the codec or routing so far, never reset (0 for an index
        that never trains): rows replayed onto an older snapshot may differ."""
        return 0 if self._router is None else self._router.trainings

    @property
    def nlist(self) -> int:
        """Current number of routing cells (0 while unrouted or untrained)."""
        return 0 if self._router is None else self._router.nlist

    @property
    def nprobe(self) -> int:
        """Cells probed per routed query (the recall/throughput dial)."""
        return self._live_router().nprobe

    @nprobe.setter
    def nprobe(self, value: int) -> None:
        """Set the probe count; raise for values below 1."""
        self._live_router().nprobe = value

    @property
    def scan_stats(self) -> Dict[str, int]:
        """Cumulative scan counters (probes and rows scanned)."""
        return dict(self._live_router().scan_stats)

    def reset_scan_stats(self) -> None:
        """Zero the :attr:`scan_stats` counters."""
        self._live_router().reset_scan_stats()

    def get(self, id: int) -> np.ndarray:
        """The stored vector for ``id``; raises ``KeyError`` for unknown ids.

        Exact from the float rows; once a codec is trained, the dequantized
        code times the cached norm — approximate by design.
        """
        row = self._id_to_row.get(int(id))
        if row is None:
            raise KeyError(f"no vector with id {id}")
        if self._coded:
            unit = self._codec.decode(self._rows[row : row + 1], dtype=np.float64)[0]
        else:
            unit = np.asarray(self._rows[row], dtype=np.float64)
        return unit * float(self._norms[row])

    # ------------------------------------------------------------------ #
    # Storage layout: float rows, then (with a codec) code rows
    # ------------------------------------------------------------------ #
    @property
    def _coded(self) -> bool:
        """Whether the payload is code rows (a trained codec)."""
        return self._codec is not None and self._codec.is_trained

    def _row_layout(self) -> Tuple[int, np.dtype]:
        """Code rows once the codec is trained, float rows before (or forever)."""
        if self._coded:
            width = self._codec.code_width(self._dim) if self._dim else 0
            return width, np.dtype(np.uint8)
        return self._dim or 0, self._dtype

    def _float_rows(self) -> np.ndarray:
        """The live rows as float unit rows, in row order: dequantized once coded."""
        rows = self._rows[: self._size]
        if not self._coded:
            return rows
        return _blockwise(self._codec.decode, rows, np.empty((self._size, self._dim), self._dtype))

    def _materialize(self) -> None:
        """Replace mmap-backed storage with a private in-memory copy.

        Called before any mutation: the mapped arrays from
        ``load_index(mmap=True)`` are read-only (and shared with the
        snapshot file), so the first add/remove pays one copy and every
        later mutation is the usual in-place path.
        """
        if not self._mmap_backed:
            return
        self._rows = np.array(self._rows)
        self._norms = np.array(self._norms)
        self._ids = np.array(self._ids)
        self._mmap_backed = False

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        if self._rows is None:
            capacity = max(self._initial_capacity, needed)
            width, dtype = self._row_layout()
            self._rows = np.empty((capacity, width), dtype=dtype)
            self._norms = np.empty(capacity, dtype=self._dtype)
            self._ids = np.empty(capacity, dtype=np.int64)
            return
        capacity = self._rows.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        self._rows = _grown(self._rows, capacity, self._size)
        self._norms = _grown(self._norms, capacity, self._size)
        self._ids = _grown(self._ids, capacity, self._size)

    def _check_dim(self, d: int) -> None:
        if self._dim is None:
            self._dim = int(d)
        elif d != self._dim:
            raise ValueError(f"vector dim {d} does not match index dim {self._dim}")

    def _unit_queries(self, Q: np.ndarray, dtype: np.dtype = np.float64) -> np.ndarray:
        """Unit rows of the ``(q, d)`` float64 batch ``Q`` as ``dtype``, in scratch.

        Same ufuncs in the same order as :func:`normalize_rows` (non-finite
        queries are rejected the same way); a narrower ``dtype`` is the
        float64 quotient rounded once on the way out, so scores do not change
        by a bit.
        """
        unit = self._scratch.get("query.unit", Q.shape, dtype)
        if Q.shape[0] == 1:
            # One probe: the same reduce over the row as a vector, and a
            # Python guard for the ``np.where`` (the same quotient bits).
            q = Q[0]
            norm = np.sqrt(np.add.reduce(q * q))
            if not math.isfinite(norm):
                raise ValueError(_NON_FINITE)
            return np.divide(Q, norm if norm > 1e-12 else 1.0, out=unit)
        norms = _row_norms(Q)
        np.divide(Q, np.where(norms > 1e-12, norms, 1.0), out=unit)
        return unit

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, vector: np.ndarray, id: Optional[int] = None) -> int:
        """Insert one vector; returns its id (auto-assigned when ``id`` is None)."""
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        unit, norms = normalize_rows(vector)  # rejects non-finite rows
        if id is None:
            id = self._next_id
        id = int(id)
        row_map = self._id_to_row
        if id in row_map:
            raise ValueError(f"id {id} is already in the index")
        self._check_dim(vector.shape[1])  # last check: it pins an unset dim
        self._next_id = max(self._next_id, id + 1)
        self._materialize()
        self._ensure_capacity(1)
        row = self._size
        self._rows[row] = (self._codec.encode(unit) if self._coded else unit)[0]
        self._norms[row] = norms[0]
        self._ids[row] = id
        row_map.set(id, row)
        self._size += 1
        if self._router is not None:
            self._note_added(np.asarray([id], dtype=np.int64), row, unit)
        return id

    def add_batch(
        self, vectors: np.ndarray, ids: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Insert many vectors at once; returns their ids in order."""
        V = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if V.size == 0:
            return []
        unit, norms = normalize_rows(V)  # rejects non-finite rows
        n = V.shape[0]
        if ids is None:
            ids = list(range(self._next_id, self._next_id + n))
        else:
            ids = [int(i) for i in ids]
            if len(ids) != n:
                raise ValueError("ids must align with vectors")
            if len(set(ids)) != n:
                raise ValueError("ids must be unique")
            row_map = self._id_to_row
            for i in ids:
                if i in row_map:
                    raise ValueError(f"id {i} is already in the index")
        self._check_dim(V.shape[1])  # last check: it pins an unset dim
        self._materialize()
        self._ensure_capacity(n)
        start = self._size
        id_block = np.asarray(ids, dtype=np.int64)
        self._rows[start : start + n] = self._codec.encode(unit) if self._coded else unit
        self._norms[start : start + n] = norms
        self._ids[start : start + n] = id_block
        self._id_to_row.set_block(id_block, start)
        self._size += n
        self._next_id = max(self._next_id, max(ids) + 1)
        if self._router is not None:
            self._note_added(id_block, start, unit)
        return list(ids)

    def _note_added(self, ids: np.ndarray, start_row: int, unit: np.ndarray) -> None:
        """Train or refit after ``len(ids)`` rows (float64 ``unit`` before
        encoding) were appended at ``start_row`` to an index with a router."""
        self._cell_bounds = None
        refit_due = self._routed and self._router.note_added(ids, start_row, unit)
        if not self.is_trained:
            if self._size >= self._min_train_size:
                self._train()
        elif refit_due:
            self._refit_routing()

    def remove(self, id: int) -> None:
        """Delete one vector by id; raises ``KeyError`` for unknown ids."""
        id = int(id)
        row_map = self._id_to_row
        row = row_map.get(id)
        if row is None:
            raise KeyError(f"no vector with id {id}")
        self._materialize()
        last = self._size - 1
        moved_id: Optional[int] = None
        if row != last:
            # Swap-with-last: O(width) instead of an O(n·width) compaction.
            self._rows[row] = self._rows[last]
            self._norms[row] = self._norms[last]
            moved_id = int(self._ids[last])
            self._ids[row] = moved_id
        self._size -= 1
        row_map.swap_remove(id, row, moved_id, self._ids[: self._size])
        self._cell_bounds = None
        if self._routed:
            self._router.note_removed(id, row, self._size)

    def rebuild(self, vectors: np.ndarray, ids: Sequence[int]) -> None:
        """Replace the whole contents (e.g. after re-embedding); a refused one changes nothing."""
        ids = [int(i) for i in ids]
        V = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if not ids:
            # np.atleast_2d turns an empty 1-D input into shape (1, 0), so
            # handle "rebuild to empty" before the alignment check.
            if V.size != 0:
                raise ValueError("ids must align with vectors")
            self.clear(reset_ids=False)
            return
        if V.shape[0] != len(ids):
            raise ValueError("ids must align with vectors")
        if self._constructor_dim is not None and V.shape[1] != self._constructor_dim:
            raise ValueError(
                f"vector dim {V.shape[1]} does not match index dim "
                f"{self._constructor_dim}"
            )
        _row_norms(V)  # add_batch's value check, before the old rows go
        if len(set(ids)) != len(ids):
            raise ValueError("ids must be unique")
        self.clear(reset_ids=False)
        self.add_batch(V, ids=ids)

    def clear(self, reset_ids: bool = True) -> None:
        """Drop every vector; ``reset_ids=False`` keeps auto-ids monotonic.

        ``MeanCache`` relies on both forms (``reset_ids=False`` during
        re-embedding).  The codec and routing reset with the rows.
        """
        self._size = 0
        self._rows = None
        self._norms = None
        self._ids = None
        self._row_map.clear()
        self._row_map_deferred = False
        self._mmap_backed = False
        self._scratch.clear()
        # A data-driven dim unpins so the next add may re-fix it (e.g. the
        # cache is cleared and re-populated after a PCA head changed the
        # embedding dimensionality); an explicit constructor dim stays.
        self._dim = self._constructor_dim
        if reset_ids:
            self._next_id = 0
        if self._codec is not None:
            self._codec.reset()
        self._cell_bounds = None
        if self._router is not None:
            self._router.clear()

    # ------------------------------------------------------------------ #
    # Training and routing upkeep
    # ------------------------------------------------------------------ #
    def _train(self) -> None:
        """The first fit on the stored float rows: codec (then encode), then routing."""
        rows = self._rows[: self._size]
        sample = training_sample(rows, self._train_sample, self._rng)
        if self._codec is not None:
            self._codec.train(sample)
            width = self._codec.code_width(self._dim)
            codes = np.empty((self._rows.shape[0], width), dtype=np.uint8)
            self._rows = _blockwise(self._codec.encode, rows, codes)  # the floats go
        if self._routed:
            self._refit_routing(rows, sample)
        else:
            # Snapshots record the codec's training size either way.
            self._router.trained_size = self._size
            self._router.trainings += 1

    def _refit_routing(
        self, rows: Optional[np.ndarray] = None, sample: Optional[np.ndarray] = None
    ) -> None:
        """(Re)partition the live float ``rows`` into cells fitted on ``sample``
        (by default: the live rows, and a fresh sample of them)."""
        if rows is None:
            rows = self._float_rows()
            sample = training_sample(rows, self._train_sample, self._rng)
        self._router.fit(rows, sample, self._ids[: self._size], self._rng)
        # Storage still reflects arrival order until the next maintenance().
        self._cell_bounds = None

    def _compact_layout(self) -> None:
        """Reorder a routed codec index's storage cell-major: each cell's codes
        become one contiguous ascending-row range, whose offsets
        (:attr:`_cell_bounds`, one ``searchsorted`` of the sorted cells) the
        probe scans then read as their candidates.

        With arrival-order storage a probe gather at 10⁶ entries touches one
        ~64-byte code row per 4 KB page (DRAM-latency bound); afterwards it
        reads ``nprobe`` sequential runs, and a probe's candidate rows are
        its cells' ranges, with no id lookup or sort.  A pure storage
        permutation: ids, cells and codes are unchanged, only the scan's
        BLAS summation order (float ulps) shifts, which the rank's band
        absorbs.  Float rows (``ivf``) keep arrival order, which their
        snapshots pin, and scan through the inverted lists.
        """
        self._materialize()
        n = self._size
        ids, cells = self._ids[:n], self._router.cells[:n]
        # Cell-major, ascending id within a cell: one argsort of a (cell, id)
        # key, which is unique because the ids are.
        base = int(ids.min())
        span = int(ids.max()) - base + 1
        order = np.argsort(cells * span + (ids - base), kind="stable")  # new row -> old row
        self._rows[:n] = self._rows[:n].take(order, axis=0)
        self._norms[:n] = self._norms[:n].take(order)
        ids[:] = ids.take(order)
        cells[:] = cells.take(order)
        self._row_map.remap_block(ids, 0)
        self._cell_bounds = self._router.cell_bounds(n)

    def maintenance(self) -> Dict[str, object]:
        """Run deferred repartitioning and layout compaction off-query.

        With ``auto_repartition=False`` the growth/churn-triggered routing
        refit is deferred to this hook (the serving fleet calls it between
        batching windows); a routed codec index also groups its code storage
        cell-major here, so its probes read their cells as contiguous ranges
        until the next mutation.  Returns a small summary of the work done
        (empty when nothing was due).
        """
        done: Dict[str, object] = {}
        router = self._router
        if router is None:
            return done
        if router.repartition_due:
            self._refit_routing()
            done["repartitioned"] = True
            done["trained_size"] = router.trained_size
        if self._coded and router.is_trained and self._size and self._cell_bounds is None:
            self._compact_layout()
            done["layout_compacted"] = True
        return done

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _prepare_queries(
        self, Q: np.ndarray, prenormalized: bool
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(float64 unit rows or None, unit rows in the scan dtype)``, in scratch.

        Only a trained codec index builds the float64 rows (its rank reads
        them), so a float-row scan makes no query copy it does not use.
        The default path is the float64 normalization
        (:meth:`_unit_queries`).  ``prenormalized=True`` asserts
        unit rows: a contiguous batch in the scan dtype passes through with
        zero copies, any other pays one cast into scratch.
        """
        if Q.shape[1] != self._dim:
            raise ValueError(f"query dim {Q.shape[1]} != index dim {self._dim}")
        coded = self._coded
        if not prenormalized:
            if not coded:
                return None, self._unit_queries(Q, self._dtype)
            unit = self._unit_queries(Q)
            source = unit
        else:
            unit = None
            if coded:
                unit = self._scratch.get("query.unit", Q.shape, np.float64)
                np.copyto(unit, Q, casting="unsafe")
            if Q.dtype == self._dtype and Q.flags.c_contiguous:
                return unit, Q
            source = Q
        out = self._scratch.get("query.cast", Q.shape, self._dtype)
        np.copyto(out, source, casting="unsafe")
        return unit, out

    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
        *,
        prenormalized: bool = False,
    ) -> List[List[IndexHit]]:
        """Batched top-k cosine search over the live rows (see the module docstring).

        Takes one ``(d,)`` query or a ``(q, d)`` batch (more dimensions raise
        ``ValueError``) and an integer ``top_k >= 1`` (``TypeError`` /
        ``ValueError`` otherwise); returns one list of :class:`IndexHit` per
        query, ranked by :func:`~repro.index.postings.topk_hits`.  Code rows
        score up to the codec's error, which ``score_threshold`` then
        filters.  ``prenormalized=True`` skips the query normalization.
        """
        try:
            top_k = operator.index(top_k)
        except TypeError:
            raise TypeError(
                f"top_k must be an integer, not {type(top_k).__name__}"
            ) from None
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        Q = np.asarray(queries, dtype=None if prenormalized else np.float64)
        if Q.ndim != 2:
            if Q.ndim > 2:
                raise ValueError(
                    f"queries must be one vector or a (q, d) batch, not shape {Q.shape}"
                )
            Q = np.atleast_2d(Q)
        if self._size == 0:
            return [[] for _ in range(Q.shape[0])]
        unit, Qs = self._prepare_queries(Q, prenormalized)
        band = self._band_once()
        # Decoded code rows rank against the float64 unit rows, float rows as scanned.
        rank = partial(self._rank, Qs if unit is None else unit, top_k, score_threshold, band)
        n, coded = self._size, self._coded
        if self._router is not None and self._router.is_trained:
            scorers = (
                self._codec.row_scorers(Qs, self._rows, self._scratch)
                if coded
                else self._float_row_scorers(Qs)
            )
            return self._router.search(Qs, scorers, rank, self._cell_bounds)
        if coded:
            chunk = min(self._chunk_size, max(1, _SCORE_BLOCK // Qs.shape[0]))
            score = self._codec.chunk_scorer(Qs, self._rows, min(chunk, n), self._scratch)
        else:  # rows × probes blocks of the live float rows
            rows, chunk = self._rows[:n], self._chunk_size
            score = lambda start, stop: rows[start:stop] @ Qs.T  # noqa: E731
        return exact_scan(score, n, top_k, chunk, rank, band)

    def _float_row_scorers(self, Qs: np.ndarray) -> Callable[[int], ScoreRows]:
        """Gather+gemv scorers of the float rows, every buffer in scratch."""
        sc, matrix = self._scratch, self._rows

        def scorer(qi: int) -> ScoreRows:
            qn = Qs[qi]

            def score_rows(rows: np.ndarray, out: np.ndarray) -> None:
                rowbuf = sc.get("ivf.rowgather", (rows.shape[0], matrix.shape[1]), self._dtype)
                matrix.take(rows, axis=0, out=rowbuf)
                np.matmul(rowbuf, qn, out=out)

            return score_rows

        return scorer

    # ε, derived.  A row's scan score s and rank score r round one exact dot
    # product; with unit roundoff u and γ_n = n·u/(1 − n·u), a d-term dot in
    # any order is within γ_d·Σ|x_i·y_i| of it.  Float rows: s and r take the
    # same stored row and scan-dtype query, both unit to within γ_{d+2}, so
    # b = |s − r| ≤ 2·γ_d·(1 + γ_{d+2})².  Code rows (float32 scan): with
    # M = Σ|q_i|·w_i and w = 255·scale + |offset|, the scan's products and sums
    # err by γ_{d+2}·(1 + u)·M, the query's float32 cast by u·M and the float64
    # decode and dot by under u·M, so by γ_{d+4}·M in all; M ≤ ‖q‖·‖w‖ with
    # ‖q‖ ≤ 1 + γ_{d+2}, and a factor 1 + u covers ‖w‖'s rounding:
    # b ≤ γ_{d+4}·(1 + γ_{d+2})·(1 + u)·‖w‖.  With s_k the k-th best s, the k
    # rows at s ≥ s_k have r ≥ s_k − b, so the k-th best r is too, and every
    # row ranking at or above it (ties included) has s ≥ s_k − 2b: ε = 2b.
    def _band(self) -> float:
        """``ε = 2b``: twice the bound ``b`` on any row's ``|s − r|``, derived above."""
        d, u = self._dim, 2.0**-24 if self._coded else float(np.finfo(self._dtype).eps) / 2
        g, g2, g4 = (n * u / (1 - n * u) if n * u < 1 else np.inf for n in (d, d + 2, d + 4))
        if self._coded:
            return 2 * g4 * (1 + g2) * (1 + u) * self._codec.dot_bound
        return 4 * g * (1 + g2) ** 2

    def _band_once(self) -> Callable[[], float]:
        """:meth:`_band` for one search: computed on first call, then reused."""
        memo: List[float] = []

        def band() -> float:
            if not memo:
                memo.append(self._band())
            return memo[0]

        return band

    def _rank(
        self,
        query: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
        band: Callable[[], float],
        qi: int,
        cand_rows: Union[np.ndarray, slice],
        cand_scores: np.ndarray,
    ) -> List[IndexHit]:
        """Query ``qi``'s hits among its scanned candidates: every search's one rank.

        The scan scores only cut.  The candidates within ``band()`` (the
        search's :meth:`_band_once`) of the ``top_k``-th best (NaN below
        every number; all when fewer are numeric) are scored one dot per row
        against ``query[qi]`` (code rows decoded to float64) and ranked by
        :func:`topk_hits`, as a brute force would.
        """
        n = cand_scores.shape[0]
        if n > max(top_k, _BAND_MIN_ROWS):
            kth = -np.partition(-cand_scores, top_k - 1)[top_k - 1]
            if kth == kth:  # NaN: fewer than top_k are numeric, so every row ranks
                # In float64: a float32 ``kth − ε`` could round up past a row.
                near = np.flatnonzero(cand_scores >= np.float64(kth) - band())
                cand_rows = near if isinstance(cand_rows, slice) else cand_rows[near]
        rows = self._rows[cand_rows]
        if self._coded:
            rows = self._codec.decode(rows, dtype=np.float64)
        return topk_hits(self._ids[cand_rows], np.vecdot(rows, query[qi]), top_k, score_threshold)

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    # The codec names the arrays: a float index's rows are ``matrix`` and
    # its routing arrays unprefixed; a codec index's rows are ``staging``
    # then ``codes``, beside the codec's tables and ``rt_``-prefixed routing.
    @property
    def snapshot_backend(self) -> str:
        """The registry name of this composition: ``flat``/``ivf``, ``sq8``/``ivf+sq8``."""
        if self._codec is None:
            return "ivf" if self._routed else "flat"
        return ("ivf+" if self._routed else "") + self._codec.name

    def save(self, path: "str | Path") -> Path:
        """Snapshot the live index state to a directory, atomically.

        Stages a versioned ``manifest.json`` (backend name, constructor
        parameters, scalar state) plus raw per-array ``.npy`` files of the
        live numpy state under ``arrays/``, then publishes the directory
        with one rename; :func:`repro.index.load_index` rebuilds an
        identical index from it (``mmap=True`` adopts the storage matrix
        without copying).
        """
        return save_index(self, path)

    def _array_names(self) -> Tuple[str, str]:
        """``(payload array name, routing array prefix)``."""
        if self._codec is None:
            return "matrix", ""
        return ("codes" if self._coded else "staging"), "rt_"

    def _snapshot_params(self) -> Dict[str, object]:
        """Constructor kwargs that rebuild an empty equivalent instance."""
        dim = {"dim": self._constructor_dim}
        storage = {"initial_capacity": self._initial_capacity, "chunk_size": self._chunk_size}
        if self._router is None:
            return {**dim, "dtype": self._dtype.name, **storage}
        training = {"min_train_size": self._min_train_size, "train_sample": self._train_sample}
        routing, seed = self._router.snapshot_params(), {"seed": self._seed}
        if self._codec is None:
            return {**dim, "dtype": self._dtype.name, **storage, **routing, **training, **seed}
        return {**dim, **storage, **training, "routed": self._routed, **routing, **seed}

    def _snapshot_state(self) -> Dict[str, object]:
        """JSON-serializable scalar state (next id, training counters, …)."""
        state: Dict[str, object] = {"dim": self._dim, "next_id": self._next_id}
        if self._codec is not None:
            state["trained"] = bool(self._codec.is_trained)
        if self._router is not None:
            state.update(self._router.snapshot_state())
            if self._codec is not None:
                state["layout_clustered"] = self._cell_bounds is not None
            state["rng_state"] = self._rng.bit_generator.state
        return state

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """The live numpy state, keyed for the snapshot's array files."""
        payload, prefix = self._array_names()
        if self._rows is None:
            # Never filled, or drained and reloaded: nothing is allocated.
            width, dtype = self._row_layout()
            arrays = {
                payload: np.zeros((0, width), dtype=dtype),
                "norms": np.zeros(0, dtype=self._dtype),
                "ids": np.zeros(0, dtype=np.int64),
            }
        else:
            n = self._size
            arrays = {payload: self._rows[:n], "norms": self._norms[:n], "ids": self._ids[:n]}
        if self._codec is not None:
            arrays.update(self._codec.snapshot_arrays())
        if self._router is not None:
            arrays.update(self._router.snapshot_arrays(prefix))
        return arrays

    def _restore(self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate a snapshot into this (freshly constructed) instance.

        Raises :class:`~repro.index.snapshot.SnapshotError` when the payload,
        ``norms`` and ``ids`` arrays disagree on the row count, the payload
        is not the layout's width, or the ids repeat one (checked when the
        id map fills: here, or on the first id-keyed call of a zero-copy
        restore).
        """
        self.clear(reset_ids=True)
        if self._codec is not None and state["trained"]:
            self._codec.restore_arrays(arrays)
        if state["dim"] is not None:
            self._check_dim(int(state["dim"]))
        payload, prefix = self._array_names()
        rows, norms = arrays[payload], np.asarray(arrays["norms"])
        # The snapshot's id column: a trained index drained to empty restores
        # with no storage allocated at all.
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        width, dtype = self._row_layout()
        if ids.ndim != 1 or rows.shape != (ids.shape[0], width) or norms.shape != ids.shape:
            raise SnapshotError(
                f"snapshot arrays disagree: {payload} {rows.shape}, norms "
                f"{norms.shape} and ids {ids.shape} for rows {width} wide"
            )
        n = int(ids.shape[0])
        # A memory-mapped payload in the storage dtypes is adopted without a
        # copy (capacity == size; the id map fills on the first id-keyed
        # call, the first mutation materializes a private copy) — except by
        # a routed codec index, whose maintenance() regroups its rows in
        # place.  Anything else is copied: snapshots store the storage
        # dtypes, so those copies are bit-exact round trips.
        if (
            n
            and not (self._routed and self._codec is not None)
            and isinstance(rows, np.memmap)
            and rows.dtype == dtype
            and norms.dtype == self._dtype
        ):
            self._rows, self._norms, self._ids = rows, norms, ids
            self._mmap_backed = True
        elif n:
            self._ensure_capacity(n)
            self._rows[:n] = np.asarray(rows, dtype=dtype)
            self._norms[:n] = np.asarray(norms, dtype=self._dtype)
            self._ids[:n] = ids
        self._size = n
        self._next_id = int(state["next_id"])
        self._row_map_deferred = n > 0
        if not self._mmap_backed or self._routed:
            # The probe scans gather through the row map: a routed index
            # fills it now even after a zero-copy restore.
            self._fill_row_map()
        if self._router is None:
            return
        self._router.restore(state, arrays, ids, prefix)
        rng_state = state.get("rng_state")
        if rng_state is not None:
            self._rng = np.random.default_rng(self._seed)
            self._rng.bit_generator.state = rng_state
        # Snapshots preserve row order byte-for-byte, so a cell-major layout
        # survives the round trip; its cell offsets are recomputed from the
        # cells (None if they are not ascending: the next maintenance()
        # regroups the rows).
        if state.get("layout_clustered", False) and self._router.is_trained and n:
            self._cell_bounds = self._router.cell_bounds(n)
