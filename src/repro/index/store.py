"""Row-addressed storage: the one storage layer under every index backend.

Every backend keeps its vectors as the rows of one contiguous *payload*
matrix — unit float rows for the flat family (``flat``/``ivf``), float32
staging rows and later uint8 code rows for the quantized family (``sq8``
and its routed composition ``ivf+sq8``) — beside a column of the
original L2 norms and an int64 id column.  :class:`RowStore` is the single
implementation of that discipline:

* **amortized-O(1) appends** — capacity doubles when full, so an insert is
  one row write;
* **swap-with-last deletion** — removing a row copies the last row into its
  slot: O(row width), no matrix copy, no re-index loop;
* **id-centric addressing** — one id → row map per store, a
  :class:`~repro.index.postings.RowMap` (a dense base-anchored ``int64``
  table, re-anchored to the live id span under churn) that a routed
  backend's router borrows for its gathers.  After a memory-mapped restore
  it stays empty until the first id-keyed call, so a zero-copy warm start
  pays no O(n) pass;
* **mmap adopt / materialize** — ``load_index(mmap=True)`` adopts the mapped
  snapshot arrays as storage; the first mutation copies them once;
* **validation at the door** — duplicate ids, mismatched dims and rows whose
  norm is not finite (NaN/inf components) are rejected before any state
  changes, so no backend can store a row it cannot score;
* ``rebuild``/``clear`` and the storage half of the snapshot protocol.

A backend supplies only what differs: :meth:`RowStore._row_layout` (payload
width and dtype), :meth:`RowStore._encode_rows` (unit rows → payload rows:
the identity cast, or ``quantizer.encode``), ``get``, ``search`` and the
``_post_add``/``_post_remove``/``_post_clear`` hooks that keep routing
structures consistent with the rows.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import VectorIndex
from repro.index.postings import RowMap, ScratchBuffers

_MIN_CAPACITY = 64

_NON_FINITE = "vectors must have finite norms (NaN or inf component)"


def _row_norms(M: np.ndarray) -> np.ndarray:
    """``(n, 1)`` L2 norms of the float rows of ``M``; raises for a non-finite one.

    The one place the store validates values: a row (or query) with a NaN or
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

    The one normalization rule of the store, so the epsilon and dtype policy
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


class RowStore(VectorIndex):
    """Shared row storage of the index backends (see the module docstring).

    Parameters
    ----------
    dim:
        Vector dimensionality.  May be omitted; the first added vector then
        fixes it.
    initial_capacity:
        Rows pre-allocated before the first doubling.
    chunk_size:
        Corpus rows per scoring block during search (bounds peak memory).
    norm_dtype:
        dtype of the cached-norm column.
    """

    def __init__(
        self,
        dim: Optional[int],
        initial_capacity: int,
        chunk_size: int,
        norm_dtype: np.dtype,
    ) -> None:
        if dim is not None and dim < 1:
            raise ValueError("dim must be >= 1")
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._dim = dim
        self._constructor_dim = dim  # restored on clear(); None means data-driven
        self._initial_capacity = int(initial_capacity)
        self._chunk_size = int(chunk_size)
        self._norm_dtype = np.dtype(norm_dtype)
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

    # ------------------------------------------------------------------ #
    # What a backend supplies
    # ------------------------------------------------------------------ #
    def _row_layout(self) -> Tuple[int, np.dtype]:
        """``(width, dtype)`` of the payload rows in the current phase."""
        raise NotImplementedError

    def _encode_rows(self, unit: np.ndarray) -> np.ndarray:
        """Payload rows for float64 ``unit`` rows (default: stored as-is,
        cast to the payload dtype on assignment)."""
        return unit

    def _post_add(self, ids: np.ndarray, start_row: int, unit: np.ndarray) -> None:
        """Called after ``len(ids)`` rows (float64 ``unit`` before encoding)
        were written at ``start_row``."""

    def _post_remove(self, id: int, row: int, moved_id: Optional[int]) -> None:
        """Called after ``id`` was swap-deleted from ``row``.

        ``moved_id`` is the id of the former last row — index ``len(self)``
        now — that occupies ``row`` (``None`` when the victim was last).
        """

    def _post_clear(self) -> None:
        """Called after the store was emptied (clear / rebuild / restore)."""

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
        """Map the live ids now, if an mmap-backed restore left the map empty.

        A routed backend calls this from its restore: its scans gather
        through the map without going through :attr:`_id_to_row`.
        """
        if self._row_map_deferred:
            self._row_map_deferred = False
            self._row_map.set_block(self._ids[: self._size], 0)

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

    # ------------------------------------------------------------------ #
    # Capacity, dim and copy-on-write
    # ------------------------------------------------------------------ #
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
            self._norms = np.empty(capacity, dtype=self._norm_dtype)
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
        self._rows[row] = self._encode_rows(unit)[0]
        self._norms[row] = norms[0]
        self._ids[row] = id
        row_map.set(id, row)
        self._size += 1
        self._post_add(np.asarray([id], dtype=np.int64), row, unit)
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
        self._rows[start : start + n] = self._encode_rows(unit)
        self._norms[start : start + n] = norms
        self._ids[start : start + n] = id_block
        self._id_to_row.set_block(id_block, start)
        self._size += n
        self._next_id = max(self._next_id, max(ids) + 1)
        self._post_add(id_block, start, unit)
        return list(ids)

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
        self._post_remove(id, row, moved_id)

    def rebuild(self, vectors: np.ndarray, ids: Sequence[int]) -> None:
        """Replace the whole index contents (e.g. after re-embedding)."""
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
        self.clear(reset_ids=False)
        self.add_batch(V, ids=ids)

    def clear(self, reset_ids: bool = True) -> None:
        """Drop every vector; ``reset_ids=False`` keeps auto-ids monotonic."""
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
        self._post_clear()

    # ------------------------------------------------------------------ #
    # Storage half of the snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    def _snapshot_rows(self, payload_name: str) -> Dict[str, np.ndarray]:
        """The live payload, norm and id arrays, keyed for the snapshot."""
        n = self._size
        if self._rows is None:
            # Never filled, or drained and reloaded: nothing is allocated.
            width, dtype = self._row_layout()
            return {
                payload_name: np.zeros((0, width), dtype=dtype),
                "norms": np.zeros(0, dtype=self._norm_dtype),
                "ids": np.zeros(0, dtype=np.int64),
            }
        return {
            payload_name: self._rows[:n],
            "norms": self._norms[:n],
            "ids": self._ids[:n],
        }

    def _restore_rows(
        self,
        state: Mapping[str, object],
        rows: np.ndarray,
        norms: np.ndarray,
        ids: np.ndarray,
        adopt_mmap: bool = True,
    ) -> None:
        """Reinstate dim, ``next_id`` and the row arrays into this cleared store.

        Whatever else :meth:`_row_layout` depends on (a codec's trained flag)
        must already be restored.  Memory-mapped ``rows`` in the payload dtype are adopted
        without copying when ``adopt_mmap`` allows (capacity == size; the id
        map is filled on the first id-keyed call and the first mutation
        materializes a private copy); anything else is copied — snapshots
        store the storage dtypes, so those copies are bit-exact round-trips.
        """
        if state["dim"] is not None:
            self._check_dim(int(state["dim"]))
        ids = np.asarray(ids, dtype=np.int64)
        n = int(ids.shape[0])
        if n:
            dtype = self._row_layout()[1]
            if (
                adopt_mmap
                and isinstance(rows, np.memmap)
                and rows.dtype == dtype
                and np.asarray(norms).dtype == self._norm_dtype
            ):
                self._rows = rows
                self._norms = np.asarray(norms)
                self._ids = ids
                self._row_map_deferred = True
                self._mmap_backed = True
            else:
                self._ensure_capacity(n)
                self._rows[:n] = np.asarray(rows, dtype=dtype)
                self._norms[:n] = np.asarray(norms, dtype=self._norm_dtype)
                self._ids[:n] = ids
                self._row_map.set_block(ids, 0)
            self._size = n
        self._next_id = int(state["next_id"])
