"""Internal building blocks of every scan: exact, routed and quantized.

The IVF router (:mod:`repro.index.routing`, under every routed
:class:`repro.index.body.VectorIndex`) sends a query to a small
subset of the stored rows — the inverted lists of its nearest cells — and
brute-forces only that subset.  Its bookkeeping lives here:

* :class:`Postings` — a growable, swap-deletable ``int64`` id array, the
  representation of one inverted list.  Appends are
  amortized O(1) (capacity doubling, like the index matrix itself), removal
  is swap-with-last, and ``view()`` exposes the live ids as a numpy slice so
  search-side gathers never copy per element.
* :class:`RowMap` — the id → row mapping of every index (a dense
  ``int64`` array indexed by id, ``-1`` for absent ids).  It answers the
  index's one-at-a-time operations (``get``/``in``/``set``) and the blocks
  an append, a restore or a layout pass writes at once, and the router
  borrows it: candidate gathering in a search needs thousands of
  translations per query, which one fancy-index answers;
* the exact scan (:func:`exact_scan`, cut per probe at a block-maximum
  bound lowered by the rank's band), the probe scan's candidate rows
  (through the inverted lists, :func:`posting_rows`, or as a cell-major
  layout's row ranges, :func:`range_rows`), and the one ranking
  rule every search ends in (:func:`topk_hits` over :func:`det_topk`, listing
  :class:`IndexHit` results — the one public type here):
  every row above the k-th score is kept, ties at the cut are filled from
  the lowest row, and hits are listed by ``(-score, id)`` — so which of
  several equal-score entries a search returns is a function of the rows
  and ids alone, the same on every host and backend;
* the :class:`ScratchBuffers` arena every hot path draws from.

Everything else is internal: ids handed in must already be validated by the
owning index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

_MIN_POSTING_CAPACITY = 8
#: Rows per group of the exact scan's cut: a probe's bound is the ``keep``-th
#: largest of its group maxima (see :func:`exact_scan`).
_CUT_GROUP = 128
#: Fewest groups per kept row a scan is cut at; a shorter one ranks every row.
_CUT_MIN_GROUPS = 4

#: ``score(start, stop)``: the scores, shape ``(stop - start, q)`` (rows ×
#: probes), of rows ``[start, stop)`` against the whole query batch; valid
#: until the next call.
ScoreChunk = Callable[[int, int], np.ndarray]
#: ``rank(qi, rows, scores)``: query ``qi``'s hit list from its scored rows,
#: given as ascending row indices or, for every row at once, ``slice(0, n)``.
Rank = Callable[[int, Union[np.ndarray, slice], np.ndarray], List["IndexHit"]]


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
    which differs between otherwise score-identical scan implementations and
    between hosts (numpy's SIMD dispatch).  This helper makes the *set* of
    selected rows a pure function of the score values: every row strictly
    above the cut is taken, and ties at the cut are filled lowest-index-first.
    Only when rows equal to the cut fall on both sides of the partition are
    they re-gathered; otherwise the partition already is that set.  NaN
    scores rank below every number.  Returned indices are sorted ascending.
    """
    n = int(scores.shape[0])
    if k >= n:
        return np.arange(n, dtype=np.int64)
    part = np.argpartition(-scores, kth=k - 1)
    top = part[:k]
    cut = scores[part[k - 1]]
    if np.count_nonzero(scores >= cut) > k:
        above = np.nonzero(scores > cut)[0]
        ties = np.nonzero(scores == cut)[0]
        top = np.concatenate([above, ties[: k - above.shape[0]]])
    top.sort()
    return top


def posting_rows(
    probe_cells: np.ndarray, lists: List[Postings], row_map: RowMap, scratch: ScratchBuffers
) -> Tuple[np.ndarray, int]:
    """One query's candidate rows through the inverted lists: ``(rows, cells)``.

    The routed scan's candidates (``routing.Router.search``) for rows stored
    in any order: float ``ivf`` rows, which keep arrival order, and code rows
    mutated since the owner last grouped them cell-major (a grouped layout
    takes :func:`range_rows`).  With cells of a few hundred rows, per-cell
    Python/BLAS dispatch, not the arithmetic, would be the latency floor, so
    this concatenates every probed cell's ids, translates them to rows once
    and sorts them: the router scores them with a single call in ascending
    **row** order, the order the rank fills ties from.  The rows live in
    scratch (``rt.cand_rows``, staged through ``rt.cand_ids``); ``cells``
    counts the non-empty probed cells.
    """
    total = sum(len(lists[li]) for li in probe_cells)
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    cand_ids = scratch.get("rt.cand_ids", (total,), np.int64)
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
    rows = scratch.get("rt.cand_rows", (total,), np.int64)
    row_map.rows_into(cand_ids, rows)
    rows.sort()
    return rows, cells


def range_rows(
    probe_cells: np.ndarray, cell_bounds: np.ndarray, scratch: ScratchBuffers
) -> Tuple[np.ndarray, int]:
    """One query's candidate rows over a cell-major layout: ``(rows, cells)``.

    Cell ``c`` is rows ``[cell_bounds[c], cell_bounds[c + 1])``, and
    ``probe_cells`` ascend, so their ranges written one after another into
    scratch (``rt.cand_rows``) are the rows :func:`posting_rows` gathers and
    sorts, in the same ascending order, with no id lookup and no sort.
    Empty cells add no row and count no cell.
    """
    starts = cell_bounds[probe_cells]
    sizes = cell_bounds[probe_cells + 1] - starts
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    rows = scratch.get("rt.cand_rows", (total,), np.int64)
    ends = np.cumsum(sizes)
    # Slot i of range j holds starts[j] + (i − the range's first slot, ends[j] − sizes[j]).
    np.add(np.repeat(starts - ends + sizes, sizes), np.arange(total, dtype=np.int64), out=rows)
    return rows, int(np.count_nonzero(sizes))


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


@dataclass(frozen=True)
class IndexHit:
    """One search result: the stored entry's id and its cosine score."""

    id: int
    score: float


def topk_hits(
    candidate_ids: np.ndarray,
    scores: np.ndarray,
    top_k: int,
    score_threshold: Optional[float],
) -> List[IndexHit]:
    """Rank one query's scored candidates into a descending hit list.

    The one ranking rule of every search: the :func:`det_topk` selection
    (ties at the cut go to the lowest candidate position), listed by
    ``(-score, id)`` — exact score ties rank the lower id first, so the hit
    list does not depend on candidate order (probe order differs between
    the fused and reference scan paths).  Scores are clipped back into the
    valid cosine range (float32 rounding can push a self-match a hair past
    1.0), and a hit must score at least ``score_threshold``; a NaN score is
    never a hit.
    """
    top = det_topk(scores, min(top_k, scores.shape[0]))
    sel = top[np.lexsort((candidate_ids[top], -scores[top]))]
    floor = -math.inf if score_threshold is None else score_threshold
    hits: List[IndexHit] = []
    for id, score in zip(candidate_ids[sel].tolist(), scores[sel].tolist()):
        score = 1.0 if score > 1.0 else -1.0 if score < -1.0 else score
        if score >= floor:
            hits.append(IndexHit(id, score))
    return hits


def _cut(
    block: np.ndarray, keep: int, start: int, eps: float
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Each probe's rows of a ``(rows, q)`` score block within ``eps`` of its bound.

    The block's rows fall into groups of ``g`` consecutive rows (``g`` up to
    ``_CUT_GROUP``, fewer in a short block so that it still holds
    ``_CUT_MIN_GROUPS·keep`` groups).  A probe's bound is the ``keep``-th
    largest of its group maxima: ``keep`` distinct rows score at least that,
    so the probe's ``keep``-th best score is never below it, and the rows at
    or above ``bound − eps`` hold every row within ``eps`` of that score,
    ties included.  Returns ``(rows + start, scores)`` per probe, ascending
    by row.  A NaN maximum (an all-NaN group) ranks below every number; a
    probe with fewer than ``keep`` groups holding a number has no bound and
    keeps every row.
    """
    n, q = block.shape
    group = max(1, min(_CUT_GROUP, n // (_CUT_MIN_GROUPS * keep)))
    full = n - n % group
    groups = -(-n // group)
    if groups < keep:
        every = np.arange(start, start + n, dtype=np.int64)
        return [(every, block[:, qi].copy()) for qi in range(q)]
    # Group maxima by pairwise halving (the halves share a row when odd):
    # each fmax runs over long contiguous runs, where one reduce over the
    # group axis would loop over q columns at a time.
    maxima = block[:full].reshape(-1, group, q)
    while maxima.shape[1] > 1:
        size = maxima.shape[1]
        maxima = np.fmax(maxima[:, : size - size // 2], maxima[:, size // 2 :])
    maxima = maxima[:, 0]
    if full < n:
        maxima = np.vstack([maxima, np.fmax.reduce(block[full:], axis=0)])
    # In float64: a float32 ``bound − eps`` could round up past a row.
    bound = -np.partition(-maxima, keep - 1, axis=0)[keep - 1].astype(np.float64) - eps
    # The (probe, group) pairs whose group reaches the bound, probe-major,
    # each with its group's rows and their scores.
    probe, first = np.nonzero(maxima.T >= bound[:, None])
    rows = (first * group)[:, None] + np.arange(group)
    if full < n:  # a short last group: its missing rows read row n - 1, then drop
        inside = rows < n
        np.minimum(rows, n - 1, out=rows)
    scores = block.reshape(-1).take(rows * q + probe[:, None])
    take = scores >= bound[probe, None]
    if full < n:
        take &= inside
    ends = np.zeros(probe.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(take, axis=1), out=ends[1:])
    offsets = ends[np.searchsorted(probe, np.arange(q + 1))].tolist()
    rows, scores = rows[take] + start, scores[take]
    cut = [(rows[a:b], scores[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
    for qi in np.flatnonzero(np.isnan(bound)).tolist():
        cut[qi] = (np.arange(start, start + n, dtype=np.int64), block[:, qi].copy())
    return cut


def exact_scan(
    score: ScoreChunk, n: int, keep: int, chunk_size: int, rank: Rank, band: Callable[[], float]
) -> List[List[IndexHit]]:
    """Exhaustive search of a query batch over rows ``[0, n)``: every unrouted scan.

    ``score`` scores ``chunk_size``-row blocks as rows × probes, so peak
    extra memory is one ``(chunk_size, q)`` score block whatever the corpus
    size.  A corpus that fits one block is a single ``score(0, n)``.  If it
    is also too short to cut usefully (under ``_CUT_MIN_GROUPS·keep`` groups
    of ``_CUT_GROUP`` rows: every device-sized cache), each query ranks every
    row (``slice(0, n)``).  Otherwise each block keeps, per query, its rows
    within ``eps = band()`` of a bound that no :func:`det_topk` ``(keep)``
    pick falls below (:func:`_cut`), and each query ranks its kept rows of
    every block once, in ascending row order.  A ``rank`` that keeps the rows
    within ``eps`` of its ``keep``-th best score then sees every row it would
    keep from the whole corpus, ties included, so neither the cut, the
    chunking nor the batch size changes which rows it keeps.
    """
    if n <= chunk_size:
        block = score(0, n)
        if n < _CUT_MIN_GROUPS * _CUT_GROUP * keep:
            every = slice(0, n)
            return [rank(qi, every, s) for qi, s in enumerate(block.T)]
        return [rank(qi, rows, s) for qi, (rows, s) in enumerate(_cut(block, keep, 0, band()))]
    eps = band()
    blocks = [
        _cut(score(start, min(start + chunk_size, n)), keep, start, eps)
        for start in range(0, n, chunk_size)
    ]
    return [
        rank(
            qi,
            np.concatenate([cut[qi][0] for cut in blocks]),
            np.concatenate([cut[qi][1] for cut in blocks]),
        )
        for qi in range(len(blocks[0]))
    ]
