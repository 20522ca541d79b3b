"""The IVF coarse router shared by every routed backend.

:class:`Router` owns everything that makes a search *routed*: the spherical
k-means centroids, one inverted list of ids per cell, each stored row's
cell (:attr:`Router.cells`, an array aligned with the owner's rows), the
growth-or-churn repartition trigger, the scan counters and the probe loop
itself.  It never sees how rows are stored: the routed index body
(:class:`repro.index.body.IndexBody`, float rows for ``ivf``, uint8 codes
for ``ivf+sq8``) holds one router, hands it float rows to partition, and
supplies a ``score_rows(rows, out)`` callable per query plus a ranking
tail.  The probe scans gather through the owner's id → row
:class:`~repro.index.postings.RowMap`, which the router borrows and never
writes: the owner keeps it, as it keeps the rows.  An owner that stores
its rows cell-major hands :meth:`Router.search` the cells' row offsets
(:meth:`Router.cell_bounds`) instead, and the probes read row ranges.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.index.base import IndexHit
from repro.index.postings import (
    Postings,
    Rank,
    RowMap,
    ScratchBuffers,
    build_inverted_lists,
    posting_rows,
    range_rows,
)

# Rows per assignment-matmul block: bounds the (block × nlist) score matrix
# (a one-shot ``rows @ centroids.T`` is ~16 GB at 10⁶ rows and nlist ≈ 4√n).
_ASSIGN_BLOCK_ELEMS = 4_194_304

#: Scores the stored rows ``rows`` (in ascending row order) against one
#: query, writing one score per row into ``out``.
ScoreRows = Callable[[np.ndarray, np.ndarray], None]


def spherical_kmeans(
    sample: np.ndarray,
    nlist: int,
    iters: int,
    rng: np.random.Generator,
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """Spherical k-means: unit-norm centroids, max-dot assignment.

    Dead cells re-seed onto random sample points.
    """
    n = sample.shape[0]
    nlist = min(nlist, n)
    init = rng.choice(n, size=nlist, replace=False)
    centroids = sample[init].astype(np.float64)
    sample64 = sample.astype(np.float64)
    for _ in range(iters):
        assign = np.argmax(sample64 @ centroids.T, axis=1)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, sample64)
        counts = np.bincount(assign, minlength=nlist)
        empty = counts == 0
        if empty.any():
            sums[empty] = sample64[rng.choice(n, size=int(empty.sum()))]
            counts[empty] = 1
        centroids = sums / counts[:, None]
        norms = np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids /= np.where(norms > 1e-12, norms, 1.0)
    return np.ascontiguousarray(centroids, dtype=dtype)


def best_cells(centroid_scores: np.ndarray, nprobe: int) -> np.ndarray:
    """The ``nprobe`` best cells per query, in no particular order.

    The probe scan sorts what it gathers by row, so the order of the cells
    never reaches a score.
    """
    n_queries, nlist = centroid_scores.shape
    if nprobe < nlist:
        return np.argpartition(-centroid_scores, kth=nprobe - 1, axis=1)[:, :nprobe]
    return np.broadcast_to(np.arange(nlist), (n_queries, nlist))


def training_sample(
    rows: np.ndarray, limit: int, rng: np.random.Generator
) -> np.ndarray:
    """At most ``limit`` of ``rows`` (a uniform draw when there are more)."""
    if rows.shape[0] > limit:
        return rows[rng.choice(rows.shape[0], size=limit, replace=False)]
    return rows


class Router:
    """Coarse quantizer + inverted lists + probe loop over someone else's rows.

    Parameters
    ----------
    dtype:
        Float dtype of the centroids and of the queries :meth:`search` takes.
    scratch:
        The owning index's scratch arena; every probe-loop buffer lives in it.
    nlist:
        Number of k-means cells.  ``None`` picks ``4·⌈√n⌉`` at each fit from
        the live size — deliberately finer than the classical ``√n`` balance
        point, because probing is one vectorized gather while list scans pay
        the matmul.
    nprobe:
        Cells probed per query: the expected scanned fraction of the corpus
        is ``nprobe / nlist``.
    kmeans_iters:
        Lloyd iterations per fit.
    repartition_growth:
        A refit is due when the live size — or the add/remove count since
        the last fit — reaches this multiple of the size at that fit.
    auto_repartition:
        Whether :meth:`note_added` asks for a due refit at once (True) or
        flags it in :attr:`repartition_due` for the owner's ``maintenance()``.
    row_map:
        The owner's id → row map, which the probe scans gather through.
        An owner that never routes passes none and the router keeps an
        empty one of its own.
    """

    def __init__(
        self,
        dtype: np.dtype,
        scratch: ScratchBuffers,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        auto_repartition: bool = True,
        row_map: Optional[RowMap] = None,
    ) -> None:
        if nlist is not None and nlist < 1:
            raise ValueError("nlist must be >= 1")
        if kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if repartition_growth <= 1.0:
            raise ValueError("repartition_growth must be > 1")
        self._dtype = np.dtype(dtype)
        self._scratch = scratch
        self.nlist_config = nlist
        self.nprobe = nprobe
        self.kmeans_iters = int(kmeans_iters)
        self.repartition_growth = float(repartition_growth)
        self.auto_repartition = bool(auto_repartition)
        self.centroids: Optional[np.ndarray] = None  # (nlist, d) unit rows
        self.lists: List[Postings] = []
        #: cell of each of the owner's rows ``[0, size)`` while trained
        #: (over-allocated like the rows; the tail is garbage)
        self.cells = np.zeros(0, dtype=np.int64)
        #: ids held in the inverted lists: the owner's live size once fit
        self.size = 0
        self.row_map = row_map if row_map is not None else RowMap()
        self.trained_size = 0
        self.mutations_since_train = 0
        self.repartition_due = False
        #: fits of the owner's codec or routing so far (never reset): rows
        #: replayed onto a snapshot taken before a fit are encoded or
        #: routed differently from the live ones
        self.trainings = 0
        self.scan_stats: Dict[str, int] = {"probes_scanned": 0, "rows_scanned": 0}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        """Whether centroids exist (False → the owner scans exhaustively)."""
        return self.centroids is not None

    @property
    def nlist(self) -> int:
        """Current number of cells (0 while untrained)."""
        return 0 if self.centroids is None else int(self.centroids.shape[0])

    @property
    def nprobe(self) -> int:
        """Cells probed per query."""
        return self._nprobe

    @nprobe.setter
    def nprobe(self, value: int) -> None:
        """Set the probe count (the recall/throughput dial)."""
        if int(value) < 1:
            raise ValueError("nprobe must be >= 1")
        self._nprobe = int(value)

    @property
    def nbytes(self) -> int:
        """Bytes of the routing structures (centroids + lists + row map).

        :attr:`cells` is not counted: it is upkeep state, not something a
        search reads, and ``routing_nbytes`` is pinned by the index-stream
        fixtures.
        """
        total = self.row_map.nbytes + sum(p.nbytes for p in self.lists)
        if self.centroids is not None:
            total += int(self.centroids.nbytes)
        return int(total)

    def reset_scan_stats(self) -> None:
        """Zero the :attr:`scan_stats` counters."""
        for key in self.scan_stats:
            self.scan_stats[key] = 0

    # ------------------------------------------------------------------ #
    # Fitting / partitioning
    # ------------------------------------------------------------------ #
    def assign(self, rows: np.ndarray) -> np.ndarray:
        """Nearest-centroid (max-dot) cell per row, blocked to bound memory."""
        rows = np.asarray(rows, dtype=self._dtype)
        nlist = self.centroids.shape[0]
        block = max(1, _ASSIGN_BLOCK_ELEMS // nlist)
        out = np.empty(rows.shape[0], dtype=np.int64)
        for start in range(0, rows.shape[0], block):
            chunk = rows[start : start + block]
            out[start : start + chunk.shape[0]] = np.argmax(
                chunk @ self.centroids.T, axis=1
            )
        return out

    def fit(
        self,
        rows: np.ndarray,
        sample: np.ndarray,
        ids: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """(Re)fit centroids on ``sample`` and rebuild every inverted list.

        ``rows`` are all live rows in storage order and ``ids`` their ids;
        ``sample`` is the subset k-means sees (see :func:`training_sample`).
        """
        size = rows.shape[0]
        nlist = self.nlist_config or 4 * int(math.ceil(math.sqrt(size)))
        nlist = max(1, min(nlist, sample.shape[0]))
        self.centroids = spherical_kmeans(
            sample, nlist, self.kmeans_iters, rng, dtype=self._dtype
        )
        self.cells = self.assign(rows)
        self.lists = build_inverted_lists(ids, self.cells, self.centroids.shape[0])
        self.size = size
        self.trained_size = size
        self.mutations_since_train = 0
        self.repartition_due = False
        self.trainings += 1

    # ------------------------------------------------------------------ #
    # Mutation upkeep
    # ------------------------------------------------------------------ #
    def note_added(
        self,
        ids: np.ndarray,
        start_row: int,
        rows: np.ndarray,
    ) -> bool:
        """Route freshly stored ``rows`` (ids ``ids``, from ``start_row`` on).

        Returns True when the owner must refit now: growth (size doubled) or
        churn (the corpus turned over in place) passed the threshold and
        ``auto_repartition`` is on.  With it off the refit is only flagged in
        :attr:`repartition_due`, keeping the O(n) k-means off the add path.
        The owner has already mapped ``ids`` to their rows.
        """
        if self.centroids is None:
            return False
        assign = self.assign(rows)
        stop = start_row + ids.shape[0]
        if stop > self.cells.shape[0]:
            grown = np.empty(max(stop, 2 * self.cells.shape[0]), dtype=np.int64)
            grown[:start_row] = self.cells[:start_row]
            self.cells = grown
        self.cells[start_row:stop] = assign
        for id, li in zip(ids.tolist(), assign.tolist()):
            self.lists[li].append(id)
        self.size += ids.shape[0]
        self.mutations_since_train += ids.shape[0]
        threshold = self.repartition_growth * self.trained_size
        if self.size >= threshold or self.mutations_since_train >= threshold:
            if self.auto_repartition:
                return True
            self.repartition_due = True
        return False

    def note_removed(self, id: int, row: int, last: int) -> None:
        """Unroute ``id`` after the owner swap-deleted it from ``row``.

        ``last`` is the former last row, whose occupant now lives in ``row``
        (``last == row`` when the victim was last): its cell moves along.
        Raises ``RuntimeError`` when the cell :attr:`cells` names for
        ``row`` does not list ``id`` — an internal inconsistency that would
        otherwise leave a stale id in a list for the scans to gather.
        """
        if self.centroids is None:
            return
        cell = int(self.cells[row])
        if not self.lists[cell].discard(id):
            raise RuntimeError(
                f"router out of sync: id {id} (row {row}) is not in its cell {cell}'s list"
            )
        self.cells[row] = self.cells[last]
        self.size -= 1
        self.mutations_since_train += 1

    def cell_bounds(self, n: int) -> Optional[np.ndarray]:
        """Row offsets of the cells of rows ``[0, n)`` stored cell-major.

        Cell ``c`` holds rows ``[b[c], b[c + 1])``: one ``searchsorted`` of
        :attr:`cells`, which the owner has grouped in ascending cell order.
        ``None`` when the cells are not ascending.
        """
        cells = self.cells[:n]
        if np.any(cells[1:] < cells[:-1]):
            return None
        return np.searchsorted(cells, np.arange(self.nlist + 1))

    def clear(self) -> None:
        """Forget the partition and every routed id (counters keep running)."""
        self.centroids = None
        self.lists = []
        self.cells = np.zeros(0, dtype=np.int64)
        self.size = 0
        self.trained_size = 0
        self.mutations_since_train = 0
        self.repartition_due = False

    # ------------------------------------------------------------------ #
    # Snapshot protocol (array names carry the owner's prefix)
    # ------------------------------------------------------------------ #
    def snapshot_params(self) -> Dict[str, object]:
        """The constructor arguments that rebuild this router when empty."""
        return {
            "nlist": self.nlist_config,
            "nprobe": self._nprobe,
            "kmeans_iters": self.kmeans_iters,
            "repartition_growth": self.repartition_growth,
            "auto_repartition": self.auto_repartition,
        }

    def snapshot_state(self) -> Dict[str, object]:
        """The scalar routing state for the owner's snapshot ``state`` block."""
        return {
            "trained_size": self.trained_size,
            "mutations_since_train": self.mutations_since_train,
            "repartition_due": self.repartition_due,
        }

    def snapshot_arrays(self, prefix: str) -> Dict[str, np.ndarray]:
        """``{prefix}centroids`` + ``{prefix}assign`` (empty while untrained).

        ``assign`` is a copy of :attr:`cells` over the live rows: the lists
        and the cells rebuild from it without re-running (rng-consuming)
        k-means on load.
        """
        if self.centroids is None:
            return {}
        return {
            prefix + "centroids": self.centroids,
            prefix + "assign": self.cells[: self.size].copy(),
        }

    def restore(
        self,
        state: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
        ids: np.ndarray,
        prefix: str,
    ) -> None:
        """Reinstate a cleared router from a snapshot; ``ids`` in row order.

        The owner restores (or defers) its row map itself.
        """
        if prefix + "centroids" in arrays:
            self.centroids = np.ascontiguousarray(
                arrays[prefix + "centroids"], dtype=self._dtype
            )
            self.cells = np.array(arrays[prefix + "assign"], dtype=np.int64)
            self.lists = build_inverted_lists(ids, self.cells, self.centroids.shape[0])
            self.size = int(ids.shape[0])
        self.trained_size = int(state["trained_size"])
        self.mutations_since_train = int(state["mutations_since_train"])
        self.repartition_due = bool(state.get("repartition_due", False))

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(
        self,
        queries: np.ndarray,
        scorer: Callable[[int], ScoreRows],
        rank: Rank,
        cell_bounds: Optional[np.ndarray],
    ) -> List[List[IndexHit]]:
        """Probe the ``nprobe`` nearest cells per query and rank their rows.

        ``queries`` is a ``(q, d)`` unit-row matrix in the router dtype.
        ``scorer(qi)`` returns query ``qi``'s ``score_rows(rows, out)``;
        ``rank(qi, rows, scores)`` turns its scored candidate rows into the
        hit list.  Hit lists may hold fewer than ``top_k`` entries when the
        probed cells are sparse — the price of approximate search.

        Every probed cell is scanned in full, with one scoring call over all
        of a query's probed cells in ascending row order, so the ranking
        sees every candidate the probes reach.  The candidate rows come from
        ``cell_bounds`` (:meth:`cell_bounds`) when the owner stores its rows
        cell-major: the probed cells' row ranges, in ascending cell order
        (:func:`~repro.index.postings.range_rows`).  Otherwise they come
        from the inverted lists through the row map, then sorted
        (:func:`~repro.index.postings.posting_rows`).  Both give the same
        rows in the same order.
        """
        n_queries = queries.shape[0]
        nlist = self.centroids.shape[0]
        sc = self._scratch
        centroid_scores = sc.get("rt.cscores", (n_queries, nlist), self._dtype)
        np.matmul(queries, self.centroids.T, out=centroid_scores)
        probes = best_cells(centroid_scores, min(self._nprobe, nlist))
        if cell_bounds is not None:  # np.sort copies: probes may be a read-only view
            probes = np.sort(probes, axis=1)
        results: List[List[IndexHit]] = []
        for qi in range(n_queries):
            if cell_bounds is None:
                rows, cells = posting_rows(probes[qi], self.lists, self.row_map, sc)
            else:
                rows, cells = range_rows(probes[qi], cell_bounds, sc)
            if cells == 0:
                results.append([])
                continue
            scores = sc.get("rt.cand_scores", rows.shape, self._dtype)
            scorer(qi)(rows, scores)
            self.scan_stats["probes_scanned"] += cells
            self.scan_stats["rows_scanned"] += rows.shape[0]
            results.append(rank(qi, rows, scores))
        return results

