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
* the exhaustive, chunked top-k **search** over those rows.

Scores are exact cosine similarities (this is still an exhaustive search; the
index changes the constants, not the asymptotics of one matmul).  Storage is
``float32`` by default, which halves memory and roughly doubles matmul
throughput at a ~1e-6 score tolerance versus float64 (see ``docs/api.md``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.embeddings.similarity import chunked_topk
from repro.index.base import IndexHit
from repro.index.store import _MIN_CAPACITY, RowStore


class FlatIndex(RowStore):
    """Exact incremental cosine index (contiguous, pre-normalized storage).

    Parameters
    ----------
    dim:
        Vector dimensionality.  May be omitted; the first added vector then
        fixes it.
    dtype:
        Storage dtype of the matrix (``np.float32`` default, ``np.float64``
        for bit-exact parity with :func:`repro.embeddings.similarity.semantic_search`).
    initial_capacity:
        Rows pre-allocated before the first doubling.
    chunk_size:
        Corpus rows per matmul block during search (bounds peak memory).
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        dtype: np.dtype = np.float32,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
    ) -> None:
        self._dtype = np.dtype(dtype)
        super().__init__(dim, initial_capacity, chunk_size, norm_dtype=self._dtype)
        if self._dtype.kind != "f":
            raise ValueError("dtype must be a floating-point type")

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
    snapshot_backend = "flat"

    def _snapshot_params(self) -> Dict[str, object]:
        return {
            "dim": self._constructor_dim,
            "dtype": self._dtype.name,
            "initial_capacity": self._initial_capacity,
            "chunk_size": self._chunk_size,
        }

    def _snapshot_state(self) -> Dict[str, object]:
        return {"dim": self._dim, "next_id": self._next_id}

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        return self._snapshot_rows("matrix")

    def _restore(
        self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> None:
        self.clear(reset_ids=True)
        self._restore_rows(state, arrays["matrix"], arrays["norms"], arrays["ids"])

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
        list of :class:`IndexHit` (sorted by descending score) per query.
        The corpus side of the matmul is the pre-normalized matrix, so no
        per-call normalization happens.  ``prenormalized=True`` additionally
        skips the query-side normalization (the caller asserts the rows are
        already unit-norm; an already-contiguous storage-dtype matrix is then
        used without a single copy).
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        Q = np.asarray(queries, dtype=None if prenormalized else np.float64)
        if Q.ndim != 2:
            Q = np.atleast_2d(Q)
        if self._size == 0:
            return [[] for _ in range(Q.shape[0])]
        queries_n = self._prepare_queries(Q, prenormalized)
        floor = -math.inf if score_threshold is None else score_threshold
        if Q.shape[0] == 1 and self._size <= self._chunk_size:
            return [self._search_one(queries_n, top_k, floor)]
        scores, rows = chunked_topk(
            queries_n,
            self._rows[: self._size],
            top_k=top_k,
            chunk_size=self._chunk_size,
            corpus_prenormalized=True,
        )
        # float32 rounding can push a self-match a hair past 1.0.
        scores.clip(-1.0, 1.0, out=scores)
        # One conversion per array: .tolist() yields the Python floats and
        # ints that float()/int() gave hit by hit.
        return [
            [
                IndexHit(id, score)
                for id, score in zip(id_row, score_row)
                if math.isfinite(score) and not score < floor
            ]
            for id_row, score_row in zip(self._ids[rows].tolist(), scores.tolist())
        ]

    def _search_one(self, query_n: np.ndarray, top_k: int, floor: float) -> List[IndexHit]:
        """:meth:`search` of the one ``(1, d)`` unit probe over a single block.

        :func:`chunked_topk`'s calls on the values it would see for one probe
        and one block — the ``[+inf * k | -scores]`` buffer, the ``(1, d)``
        by ``(d, n)`` product, ``argpartition(k - 1)`` and ``argsort`` — then
        the same clip and finite filter, on vectors and without the merge
        bookkeeping a second block would need.  Hits, scores and the order
        among equal scores are the batched path's, bit for bit.
        """
        n = self._size
        k = min(top_k, n)
        neg = np.empty(k + n, dtype=self._dtype)
        neg[:k] = np.inf
        np.negative(query_n @ self._rows[:n].T, out=neg[np.newaxis, k:])
        top = neg.argpartition(k - 1)[:k]
        best = neg[top]
        order = best.argsort()
        scores = np.negative(best[order])
        scores.clip(-1.0, 1.0, out=scores)
        return [
            IndexHit(id, score)
            for id, score in zip(self._ids[top[order] - k].tolist(), scores.tolist())
            if math.isfinite(score) and not score < floor
        ]
