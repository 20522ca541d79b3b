"""Internal building blocks of the routed scans and the quantized scan.

The IVF router (:mod:`repro.index.routing`, under
:class:`repro.index.ivf.IVFIndex` and the routed
:class:`repro.index.quantized.QuantizedIndex`) sends a query to a small
subset of the stored rows — the inverted lists of its nearest cells — and
brute-forces only that subset.  Its bookkeeping lives here:

* :class:`Postings` — a growable, swap-deletable ``int64`` id array, the
  representation of one inverted list.  Appends are
  amortized O(1) (capacity doubling, like the index matrix itself), removal
  is swap-with-last, and ``view()`` exposes the live ids as a numpy slice so
  search-side gathers never copy per element.
* :class:`RowMap` — the id → row mapping of every row store (a dense
  ``int64`` array indexed by id, ``-1`` for absent ids).  It answers the
  store's one-at-a-time operations (``get``/``in``/``set``) and the blocks
  an append, a restore or a layout pass writes at once, and the router
  borrows it: candidate gathering in a search needs thousands of
  translations per query, which one fancy-index answers;
* the probe loops, the cell score bounds behind probe pruning, and the
  ranking tail (:func:`det_topk`, :func:`topk_hits`) the quantized flat scan
  shares, plus the :class:`ScratchBuffers` arena every hot path draws from.

All of it is internal: ids handed in must already be validated by the
owning index.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from repro.index.base import IndexHit

_MIN_POSTING_CAPACITY = 8


class Postings:
    """One inverted list's ids: growable int64 array with swap-with-last removal."""

    __slots__ = ("_ids", "_size")

    def __init__(self) -> None:
        self._ids = np.empty(_MIN_POSTING_CAPACITY, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        """Bytes allocated for this list's id storage."""
        return int(self._ids.nbytes)

    def view(self) -> np.ndarray:
        """The live ids as a (read-mostly) numpy slice — no copy."""
        return self._ids[: self._size]

    def _ensure(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._ids.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._size] = self._ids[: self._size]
        self._ids = grown

    def append(self, id: int) -> None:
        """Add one id (amortized O(1))."""
        self._ensure(1)
        self._ids[self._size] = id
        self._size += 1

    def extend(self, ids: np.ndarray) -> None:
        """Add a block of ids in one write."""
        n = int(ids.shape[0])
        if n == 0:
            return
        self._ensure(n)
        self._ids[self._size : self._size + n] = ids
        self._size += n

    def discard(self, id: int) -> bool:
        """Remove ``id`` by scanning the list (lists are small); True if found."""
        live = self._ids[: self._size]
        hits = np.nonzero(live == id)[0]
        if hits.size == 0:
            return False
        pos = int(hits[0])
        last = self._size - 1
        if pos != last:
            self._ids[pos] = self._ids[last]
        self._size -= 1
        return True


class RowMap:
    """Dense id → row translation: scalar lookups and vectorized gathers.

    Storage is an array indexed by ``id − base``.  Cache entry ids grow
    monotonically and are never reused, so without the ``base`` offset a
    bounded cache under eviction churn would grow this table with the
    *lifetime-maximum* id forever; :meth:`maybe_compact` re-anchors the
    table to the live id span (old ids are evicted first, so the span stays
    near the live count).  The owning index calls it on an amortized
    schedule — every id handed to the map after a compaction is ≥ the base
    by the monotonic-id invariant.
    """

    __slots__ = ("_rows", "_base", "_countdown", "_live")

    def __init__(self) -> None:
        self._rows = np.full(64, -1, dtype=np.int64)
        self._base = 0
        self._countdown = 256
        self._live = 0  # mapped ids; lets an empty map re-anchor freely

    def _ensure(self, max_id: int) -> None:
        slot = max_id - self._base
        capacity = self._rows.shape[0]
        if slot < capacity:
            return
        while capacity <= slot:
            capacity *= 2
        grown = np.full(capacity, -1, dtype=np.int64)
        grown[: self._rows.shape[0]] = self._rows
        self._rows = grown

    def _rebase(self, new_base: int) -> None:
        """Lower ``base`` (an explicit id below it was inserted after a
        compaction re-anchored the table), shifting the existing slots up."""
        shift = self._base - new_base
        capacity = self._rows.shape[0]
        while capacity < self._rows.shape[0] + shift:
            capacity *= 2
        grown = np.full(capacity, -1, dtype=np.int64)
        grown[shift : shift + self._rows.shape[0]] = self._rows
        self._rows = grown
        self._base = new_base

    @property
    def nbytes(self) -> int:
        """Bytes allocated for the id → row table."""
        return int(self._rows.nbytes)

    @property
    def slots(self) -> int:
        """Allocated table slots (compaction-trigger input)."""
        return int(self._rows.shape[0])

    def get(self, id: int) -> Optional[int]:
        """The row of ``id``, or None when it is not mapped."""
        slot = id - self._base
        rows = self._rows
        if 0 <= slot < len(rows):
            row = rows.item(slot)
            if row >= 0:
                return row
        return None

    def __contains__(self, id: int) -> bool:
        slot = id - self._base
        return 0 <= slot < len(self._rows) and self._rows.item(slot) >= 0

    def set(self, id: int, row: int) -> None:
        """Map one new ``id`` to ``row``: :meth:`set_block` for a block of one."""
        if self._live == 0:
            self._base = id
        elif id < self._base:
            self._rebase(id)
        if id - self._base >= len(self._rows):
            self._ensure(id)
        self._rows[id - self._base] = row
        self._live += 1

    def set_block(self, ids: np.ndarray, start_row: int) -> None:
        """Map ``ids`` to the consecutive rows starting at ``start_row``.

        Every id in the block must be new to the map (the owning index
        already rejects duplicate ids).
        """
        if ids.size == 0:
            return
        lowest = int(ids.min())
        if self._live == 0:
            # Empty map (fresh, cleared, or fully drained): anchor to the
            # incoming block so allocation tracks the id *span*, not the
            # absolute magnitude monotonic ids have reached.  Every slot is
            # -1 when nothing is live, so moving the base is free.
            self._base = lowest
        elif lowest < self._base:
            self._rebase(lowest)
        self._ensure(int(ids.max()))
        self._rows[ids - self._base] = np.arange(
            start_row, start_row + ids.shape[0], dtype=np.int64
        )
        self._live += int(ids.size)

    def remap_block(self, ids: np.ndarray, start_row: int = 0) -> None:
        """Re-point already-mapped ids at consecutive rows.

        Used by layout compaction, which permutes every live row at once:
        each id stays live (``_live`` is untouched) but moves to the slot the
        cell-major ordering assigns it.
        """
        if ids.size == 0:
            return
        self._rows[ids - self._base] = np.arange(
            start_row, start_row + ids.shape[0], dtype=np.int64
        )

    def swap_remove(
        self, id: int, row: int, moved_id: Optional[int], ids_by_row: np.ndarray
    ) -> None:
        """Upkeep after the owner swap-deleted the mapped ``id`` from ``row``.

        ``moved_id`` is the former last row's id that now occupies ``row``
        (``None`` when the victim itself was last); ``ids_by_row`` is the
        owner's live id column after the delete.  Entry ids grow forever, so
        this also re-anchors the table to the live span on the amortized
        :meth:`compaction_due` schedule — bounded caches don't leak map
        slots under churn.
        """
        rows, base = self._rows, self._base
        rows[id - base] = -1
        self._live -= 1
        if moved_id is not None:
            rows[moved_id - base] = row  # mapped until now, so inside the table
        if self._countdown > 1:
            self._countdown -= 1  # compaction_due's count, without the call
        elif self.compaction_due(ids_by_row.shape[0]):
            self.maybe_compact(ids_by_row)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized translation of an id array to its current rows."""
        return self._rows[ids - self._base]

    def rows_into(self, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free :meth:`rows`: translate ``ids`` into ``out``.

        ``out`` must be an int64 array of the same length; it is used as the
        working buffer for the offset subtraction too, so no temporaries are
        created (the hot-path variant the probe scans use with scratch
        buffers).
        """
        np.subtract(ids, self._base, out=out)
        return self._rows.take(out, out=out)

    def compaction_due(self, live_size: int) -> bool:
        """Amortized O(1) removal-path trigger for :meth:`maybe_compact`.

        Counts down so the O(n) compaction attempt runs at most once per
        ``max(256, live_size)`` removals, and only when the allocation
        exceeds 4× the live count (i.e. is mostly tombstones).
        """
        self._countdown -= 1
        if self._countdown > 0:
            return False
        self._countdown = max(256, live_size)
        return self.slots > 4 * max(64, live_size)

    def maybe_compact(self, ids_by_row: np.ndarray) -> bool:
        """Re-anchor the table to the live id span if that would shrink it.

        ``ids_by_row`` is the owner's live id column (row order); row ``r``
        maps back to ``ids_by_row[r]``.  No-op (returns False) when the
        compacted table would not be smaller than the current allocation.
        """
        if ids_by_row.size == 0:
            if self._rows.shape[0] == 64 and self._base == 0:
                return False
            self.clear()
            return True
        base = int(ids_by_row.min())
        span = int(ids_by_row.max()) - base + 1
        capacity = 64
        while capacity < span:
            capacity *= 2
        if capacity >= self._rows.shape[0]:
            return False
        self._rows = np.full(capacity, -1, dtype=np.int64)
        self._base = base
        self._rows[ids_by_row - base] = np.arange(ids_by_row.shape[0], dtype=np.int64)
        return True

    def clear(self) -> None:
        """Forget every mapping and return to the minimal allocation."""
        self._rows = np.full(64, -1, dtype=np.int64)
        self._base = 0
        self._live = 0


class ScratchBuffers:
    """Grow-only scratch arena killing per-call allocations on hot paths.

    Each key owns one flat buffer that only ever grows (next power of two),
    and :meth:`get` hands back a correctly shaped view into it, so repeated
    searches against an index reuse the same memory instead of allocating
    fresh arrays per call (fresh >128 KiB allocations are mmap-backed and
    page-fault on first touch, which is exactly the tail-latency noise the
    hot path must avoid).  Views are only valid until the next ``get`` with
    the same key; the arena is single-threaded by design.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict = {}

    def get(self, key: str, shape: "tuple[int, ...]", dtype) -> np.ndarray:
        """An uninitialized ``shape``/``dtype`` view backed by reused storage."""
        size = int(math.prod(shape))
        buf = self._bufs.get(key)
        if buf is None or buf.dtype != dtype or buf.size < size:
            capacity = 1 << (max(size, 64) - 1).bit_length()
            buf = self._bufs[key] = np.empty(capacity, dtype=dtype)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the arena (diagnostic only)."""
        return int(sum(buf.nbytes for buf in self._bufs.values()))

    def clear(self) -> None:
        """Release every buffer (e.g. after ``clear()`` on the owning index)."""
        self._bufs.clear()


def det_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Deterministic top-``k`` selection: indices of the ``k`` largest scores.

    ``np.argpartition`` breaks ties at the cut value by internal pivot order,
    which differs between otherwise score-identical scan implementations.
    This helper makes the *set* of selected rows a pure function of the score
    values: every row strictly above the cut is taken, and ties at the cut
    are filled lowest-index-first.  The fused and reference ADC scans rank
    duplicate codes with exactly equal scan scores, so running both through
    this selection yields identical candidate sets — the keystone of the
    decision-invariance parity tests.  Returned indices are sorted ascending.
    """
    n = int(scores.shape[0])
    if k >= n:
        return np.arange(n, dtype=np.int64)
    part = np.argpartition(-scores, kth=k - 1)[:k]
    cut = scores[part].min()
    above = np.nonzero(scores > cut)[0]
    ties = np.nonzero(scores == cut)[0]
    sel = np.concatenate([above, ties[: k - above.shape[0]]])
    sel.sort()
    return sel


# Pruning margin: a cell is skipped only when its score upper bound sits more
# than this below the current keff-th best scan score.  Must strictly exceed
# the float32 scan-score arithmetic error (~1e-5 at d ≤ a few hundred), so a
# pruned row provably cannot enter the deterministic top-keff selection.
_PRUNE_EPS = 1e-4
# Inflates the orthogonal term of the bound against float32 rounding of the
# query·centroid score (without it, qc² > 1 by one ulp would zero the term
# while the true orthogonal component is still ~sqrt(2·ulp)).
_QC_SLACK = 1e-4


def cell_bounds(
    centroid_scores: np.ndarray,
    cell_stats: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    scratch: ScratchBuffers,
    key: str,
) -> np.ndarray:
    """Per-(query, cell) upper bounds on any member row's scan score.

    For a unit query ``q``, unit centroid ``c`` and stored row ``u``
    decomposed as ``u = (u·c)·c + r`` with ``r ⊥ c``::

        q·u = (u·c)(q·c) + q·r
            ≤ max(qc·a_max, qc·a_min) + sqrt(1 − qc²)·b_max

    where ``cell_stats = (a_min, a_max, b_max)`` hold each cell's extremes of
    ``u·c`` and its maximum residual norm ``‖r‖``.  The stats stay
    conservative under removals (a stale extreme only widens the bound) and
    are anchored at 0 for cells never updated.  ``_QC_SLACK`` inflates the
    orthogonal term against float32 rounding of ``qc``; callers must keep an
    additional ``_PRUNE_EPS`` margin when comparing float32 scan scores to
    the bound.  All temporaries live in ``scratch`` under ``key``.
    """
    a_min, a_max, b_max = cell_stats
    q, nlist = centroid_scores.shape
    qc = scratch.get(key + ".qc", (q, nlist), np.float64)
    np.copyto(qc, centroid_scores, casting="same_kind")
    t = scratch.get(key + ".t", (q, nlist), np.float64)
    bounds = scratch.get(key + ".bounds", (q, nlist), np.float64)
    np.multiply(qc, a_max[None, :], out=bounds)
    np.multiply(qc, a_min[None, :], out=t)
    np.maximum(bounds, t, out=bounds)
    np.multiply(qc, qc, out=t)
    np.subtract(1.0 + _QC_SLACK, t, out=t)
    np.clip(t, 0.0, None, out=t)
    np.sqrt(t, out=t)
    np.multiply(t, b_max[None, :], out=t)
    np.add(bounds, t, out=bounds)
    return bounds


def probe_scan(
    probe_cells: np.ndarray,
    lists: List[Postings],
    row_map: RowMap,
    score_rows: Callable[[np.ndarray, np.ndarray], None],
    cand_ids: np.ndarray,
    cand_rows: np.ndarray,
    cand_scores: np.ndarray,
    kth_buf: np.ndarray,
    keff: int,
    bounds_row: Optional[np.ndarray],
    stop_score: Optional[float],
    stats: dict,
) -> int:
    """One query's best-first probe loop (driven by ``routing.Router.search``).

    Iterates ``probe_cells`` (best-first), gathering each cell's ids/rows
    into the caller's scratch segments and scoring them via ``score_rows``.
    Two terminations ride along:

    * **Exact-bound pruning** (``bounds_row`` set): once ``keff`` candidates
      exist, a cell whose upper bound sits ``_PRUNE_EPS`` below the running
      keff-th best scan score is skipped — provably without changing the
      deterministic top-keff selection, because every row it could have
      contributed scores strictly below the (monotonically non-decreasing)
      cut.  Decision-invariant.
    * **Threshold early stop** (``stop_score`` set): stop probing once the
      running best score reaches ``stop_score``.  Lossy by design (further
      probes could still improve ranks below the best hit), so callers only
      enable it when the consumer admits on a score threshold the best hit
      already cleared.

    Returns the number of candidates written.
    """
    filled = 0
    kth = -np.inf
    best = -np.inf
    for li in probe_cells:
        lst = lists[li]
        c = len(lst)
        if c == 0:
            continue
        if bounds_row is not None and filled >= keff and bounds_row[li] < kth - _PRUNE_EPS:
            stats["probes_pruned"] += 1
            continue
        ids_seg = cand_ids[filled : filled + c]
        ids_seg[:] = lst.view()
        # Canonical (ascending-id) order inside each cell: BLAS gemv per-row
        # results are position-dependent at small shapes, so without this a
        # cell's scores would depend on its insertion/deletion history — and a
        # snapshot-restored index (lists rebuilt in row order) would score
        # the same rows a ulp differently from the live one that wrote it.
        ids_seg.sort()
        rows_view = cand_rows[filled : filled + c]
        row_map.rows_into(ids_seg, rows_view)
        scores_view = cand_scores[filled : filled + c]
        score_rows(rows_view, scores_view)
        filled += c
        stats["probes_scanned"] += 1
        stats["rows_scanned"] += c
        m = float(scores_view.max())
        if m > best:
            best = m
        if stop_score is not None and best >= stop_score:
            stats["early_stops"] += 1
            break
        if bounds_row is not None and filled >= keff:
            kb = kth_buf[:filled]
            kb[:] = cand_scores[:filled]
            kb.partition(filled - keff)
            kth = float(kb[filled - keff])
    return filled


def probe_scan_batched(
    probe_cells: np.ndarray,
    lists: List[Postings],
    row_map: RowMap,
    score_rows: Callable[[np.ndarray, np.ndarray], None],
    cand_ids: np.ndarray,
    cand_rows: np.ndarray,
    cand_scores: np.ndarray,
    stats: dict,
) -> int:
    """Single-pass probe scan: every probed cell gathered, then ONE scoring call.

    The routed hot path.  Once cells are small (a few hundred
    rows), :func:`probe_scan`'s per-cell Python/BLAS dispatch — not the
    arithmetic — is the latency floor, at tens of microseconds per probe.
    When neither threshold early termination nor bound pruning is requested
    there is no per-cell control flow to honour, so this variant
    concatenates every probed cell's ids, translates them to rows once, and
    scores the whole block with a single ``score_rows`` call in ascending
    **row** order.  Row order is the canonical scan order here for two
    reasons: it is reproducible (snapshots preserve row order byte-for-byte,
    so a restored index scores the same rows in the same BLAS positions as
    the live one that wrote it), and it is what makes the gather sequential
    once the owning index has compacted its storage cell-major — the
    difference between a DRAM-latency-bound scan and a bandwidth-bound one.
    Candidate identity is carried by ``cand_rows`` (``cand_ids`` is staging
    only); callers map rows back to ids via their row→id array.  Returns
    the number of candidates written.
    """
    filled = 0
    cells = 0
    for li in probe_cells:
        lst = lists[li]
        c = len(lst)
        if c == 0:
            continue
        cand_ids[filled : filled + c] = lst.view()
        filled += c
        cells += 1
    if filled == 0:
        return 0
    rows = cand_rows[:filled]
    row_map.rows_into(cand_ids[:filled], rows)
    rows.sort()
    score_rows(rows, cand_scores[:filled])
    stats["probes_scanned"] += cells
    stats["rows_scanned"] += filled
    return filled


def build_inverted_lists(ids: np.ndarray, assign: np.ndarray, nlist: int) -> List[Postings]:
    """Build per-cell inverted lists from a cell assignment, vectorized.

    ``ids[i]`` belongs to cell ``assign[i]``; returns the ``nlist``
    :class:`Postings` (used by both fitting and snapshot restore).
    """
    lists = [Postings() for _ in range(nlist)]
    order = np.argsort(assign, kind="stable")
    sorted_ids = ids[order]
    sorted_assign = assign[order]
    cells = np.arange(nlist)
    starts = np.searchsorted(sorted_assign, cells, side="left")
    ends = np.searchsorted(sorted_assign, cells, side="right")
    for li in range(nlist):
        lists[li].extend(sorted_ids[starts[li] : ends[li]])
    return lists


def topk_hits(
    candidate_ids: np.ndarray,
    scores: np.ndarray,
    top_k: int,
    score_threshold: Optional[float],
) -> List[IndexHit]:
    """Rank one query's scored candidates into a descending hit list.

    Shared tail of the routed and quantized searches: partial-select the top
    scores, order them, clip float32 rounding back into the valid cosine
    range and apply the optional score floor.
    """
    top = det_topk(scores, min(top_k, scores.shape[0]))
    # Order by (-score, id): exact score ties rank the lower id first, so the
    # final hit list does not depend on candidate order (probe order differs
    # between the fused and reference scan paths).
    sel = top[np.lexsort((candidate_ids[top], -scores[top]))]
    ranked_scores = np.clip(scores[sel], -1.0, 1.0)
    ranked_ids = candidate_ids[sel]
    if score_threshold is not None:
        keep = ranked_scores >= score_threshold
        ranked_scores = ranked_scores[keep]
        ranked_ids = ranked_ids[keep]
    hits: List[IndexHit] = []
    for id, score in zip(ranked_ids.tolist(), ranked_scores.tolist()):
        hits.append(IndexHit(id=id, score=score))
    return hits
