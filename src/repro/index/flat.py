"""Flat (exact) incremental cosine index over a contiguous float32 matrix.

The seed implementation of the cache kept embeddings in a plain ``(n, d)``
array that was re-built with ``np.vstack`` on every insert (O(n) copy per
insert, O(n²) enrolment), re-normalized in full on every lookup and compacted
with ``np.delete`` plus an O(n) row re-index on every eviction.
:class:`FlatIndex` replaces all three hot paths.  Appends, swap-with-last
deletes, id addressing and snapshot storage are the shared row store's
(:mod:`repro.index.store`); what this class adds on top of it is

* **pre-normalized rows with cached norms** — vectors are normalized to unit
  length once at insert time and stored as-is in the storage dtype (the
  original norm is kept so the raw vector can be reconstructed), so a lookup
  is one matmul with no corpus pass;
* the exhaustive, chunked top-k **search** over those rows
  (:func:`repro.index.postings.exact_scan`, the ranking rule every backend
  shares).

Scores are exact cosine similarities (this is still an exhaustive search; the
index changes the constants, not the asymptotics of one matmul).  Storage is
``float32`` by default, which halves memory and roughly doubles matmul
throughput at a ~1e-6 score tolerance versus float64 (see ``docs/api.md``).

With ``routed=True`` (registered as ``"ivf"``) the rows are partitioned into
spherical k-means cells once ``min_train_size`` are stored, and a query scans
only its ``nprobe`` nearest cells: sublinear, approximate search (see
:class:`~repro.index.routing.RoutedIndex`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.index.base import IndexHit
from repro.index.postings import exact_scan, topk_hits
from repro.index.routing import RoutedIndex, ScoreRows
from repro.index.store import _MIN_CAPACITY


class FlatIndex(RoutedIndex):
    """Incremental cosine index over contiguous, pre-normalized float rows.

    Parameters
    ----------
    dim:
        Vector dimensionality.  May be omitted; the first added vector then
        fixes it.
    dtype:
        Storage dtype of the matrix (``np.float32`` default; ``np.float64``
        scores are float64 cosines of the float64 unit rows).
    initial_capacity:
        Rows pre-allocated before the first doubling.
    chunk_size:
        Corpus rows per matmul block during search (bounds peak memory).
    routed:
        Route searches through IVF cells (the ``"ivf"`` backend); False
        (``"flat"``) builds no router and ignores the knobs below.
    nlist, nprobe, kmeans_iters, repartition_growth, auto_repartition:
        Routing knobs, see :class:`repro.index.routing.Router`.
    min_train_size, train_sample, seed:
        Training knobs, see :class:`repro.index.routing.RoutedIndex`.
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        dtype: np.dtype = np.float32,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
        routed: bool = False,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        min_train_size: int = 256,
        train_sample: int = 32768,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        seed: int = 0,
        auto_repartition: bool = True,
    ) -> None:
        self._dtype = np.dtype(dtype)
        super().__init__(dim, initial_capacity, chunk_size, norm_dtype=self._dtype)
        if self._dtype.kind != "f":
            raise ValueError("dtype must be a floating-point type")
        if routed:
            self._init_routing(
                self._dtype,
                True,
                min_train_size,
                train_sample,
                seed,
                nlist=nlist,
                nprobe=nprobe,
                kmeans_iters=kmeans_iters,
                repartition_growth=repartition_growth,
                auto_repartition=auto_repartition,
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the matrix."""
        return self._dtype

    @property
    def capacity(self) -> int:
        """Allocated rows (>= len(self))."""
        return 0 if self._rows is None else int(self._rows.shape[0])

    @property
    def matrix_nbytes(self) -> int:
        """Bytes of the live embedding rows alone (no norm/id bookkeeping).

        This is the quantity storage accounting should report as "embedding
        storage" (the paper's Figure 10a axis); :attr:`nbytes` additionally
        counts the cached norms and id column.
        """
        return 0 if self._rows is None else int(self._rows[: self._size].nbytes)

    def vectors(self) -> np.ndarray:
        """Read-only view of the live **unit-norm** rows (internal order)."""
        if self._rows is None:
            d = self._dim or 0
            return np.zeros((0, d), dtype=self._dtype)
        view = self._rows[: self._size]
        view.flags.writeable = False
        return view

    def get(self, id: int) -> np.ndarray:
        """Return the stored (un-normalized) vector for ``id``."""
        row = self._id_to_row.get(int(id))
        if row is None:
            raise KeyError(f"no vector with id {id}")
        return np.asarray(
            self._rows[row], dtype=np.float64
        ) * float(self._norms[row])

    # ------------------------------------------------------------------ #
    # Storage layout and query preparation
    # ------------------------------------------------------------------ #
    def _row_layout(self) -> Tuple[int, np.dtype]:
        """Unit rows in the storage dtype, one column per dimension."""
        return self._dim or 0, self._dtype

    def _prepare_queries(self, Q: np.ndarray, prenormalized: bool) -> np.ndarray:
        """The query batch as a row-contiguous storage-dtype matrix.

        ``prenormalized=True`` is the caller's explicit assertion that the
        rows are already unit-norm: an already-contiguous matrix in the
        storage dtype passes through with **zero copies** (the returned array
        shares memory with the input), and any other layout pays exactly one
        cast into a reused scratch buffer.  The default path performs the
        usual float64 normalization and writes the unit rows into scratch in
        the storage dtype, so repeated lookups allocate nothing query-shaped
        (see :meth:`RowStore._unit_queries`).
        """
        if Q.shape[1] != self._dim:
            raise ValueError(f"query dim {Q.shape[1]} != index dim {self._dim}")
        if prenormalized:
            if Q.dtype == self._dtype and Q.flags.c_contiguous:
                return Q
            out = self._scratch.get("query.cast", Q.shape, self._dtype)
            np.copyto(out, Q, casting="unsafe")
            return out
        return self._unit_queries(Q, self._dtype)

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    @property
    def snapshot_backend(self) -> str:
        """The registry name of this composition: ``flat``, ``ivf`` when routed."""
        return "ivf" if self._routed else "flat"

    def _snapshot_params(self) -> Dict[str, object]:
        params: Dict[str, object] = {
            "dim": self._constructor_dim,
            "dtype": self._dtype.name,
            "initial_capacity": self._initial_capacity,
            "chunk_size": self._chunk_size,
        }
        if self._router is not None:
            params.update(self._router.snapshot_params())
            params["min_train_size"] = self._min_train_size
            params["train_sample"] = self._train_sample
            params["seed"] = self._seed
        return params

    def _snapshot_state(self) -> Dict[str, object]:
        state: Dict[str, object] = {"dim": self._dim, "next_id": self._next_id}
        if self._router is not None:
            state.update(self._router.snapshot_state(), rng_state=self._rng.bit_generator.state)
        return state

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        arrays = self._snapshot_rows("matrix")
        if self._router is not None:
            arrays.update(self._router.snapshot_arrays(""))
        return arrays

    def _restore(
        self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> None:
        self.clear(reset_ids=True)
        self._restore_rows(state, arrays["matrix"], arrays["norms"], arrays["ids"])
        if self._router is not None:
            self._restore_routing(state, arrays, "")

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
        *,
        prenormalized: bool = False,
    ) -> List[List[IndexHit]]:
        """Batched top-k cosine search over the live rows.

        Accepts a single ``(d,)`` query or a ``(q, d)`` batch; returns one
        list of :class:`IndexHit` (by descending score, equal scores by
        ascending id: :func:`~repro.index.postings.topk_hits`) per query.
        The corpus side of the matmul is the pre-normalized matrix, so no
        per-call normalization happens.  ``prenormalized=True`` additionally
        skips the query-side normalization (the caller asserts the rows are
        already unit-norm; an already-contiguous storage-dtype matrix is then
        used without a single copy).  Once the routing is trained, only the
        ``nprobe`` nearest cells' rows are scored (:meth:`_search_routed`).
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        Q = np.asarray(queries, dtype=None if prenormalized else np.float64)
        if Q.ndim != 2:
            Q = np.atleast_2d(Q)
        if self._size == 0:
            return [[] for _ in range(Q.shape[0])]
        queries_n = self._prepare_queries(Q, prenormalized)
        if self._router is not None and self._router.is_trained:
            return self._search_routed(queries_n, top_k, score_threshold)
        n = self._size
        return exact_scan(
            queries_n, self._rows[:n], self._ids[:n], top_k, score_threshold, self._chunk_size
        )

    def _search_routed(
        self, queries_n: np.ndarray, top_k: int, score_threshold: Optional[float]
    ) -> List[List[IndexHit]]:
        """The router's probe loop with a float gather+gemv row scorer;
        every intermediate lives in reused scratch buffers."""
        sc = self._scratch
        matrix = self._rows

        def scorer(qi: int) -> ScoreRows:
            qn = queries_n[qi]

            def score_rows(rows: np.ndarray, out: np.ndarray) -> None:
                rowbuf = sc.get(
                    "ivf.rowgather", (rows.shape[0], matrix.shape[1]), self._dtype
                )
                matrix.take(rows, axis=0, out=rowbuf)
                np.matmul(rowbuf, qn, out=out)

            return score_rows

        def rank(qi: int, rows: np.ndarray, scores: np.ndarray) -> List[IndexHit]:
            ids = sc.get("ivf.hit_ids", rows.shape, np.int64)
            self._ids.take(rows, out=ids)
            return topk_hits(ids, scores, top_k, score_threshold)

        return self._router.search(queries_n, scorer, rank, self._dtype)
