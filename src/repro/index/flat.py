"""Flat (exact) incremental cosine index over a contiguous float matrix.

The seed implementation of the cache kept embeddings in a plain ``(n, d)``
array that was re-built with ``np.vstack`` on every insert (O(n) copy per
insert, O(n²) enrolment), re-normalized in full on every lookup and compacted
with ``np.delete`` plus an O(n) row re-index on every eviction.
:class:`FlatIndex` replaces all three hot paths: vectors are normalized to
unit length once at insert time and stored as-is in the storage dtype (the
original norm is kept so the raw vector can be reconstructed), so a lookup is
one matmul with no corpus pass.

It is the one index (:class:`~repro.index.body.VectorIndex`) with no
codec: it never leaves the float phase a quantized index starts in, so its
search is the exhaustive, chunked :func:`~repro.index.postings.exact_scan`
of those rows — exact cosine similarities (the index changes the constants,
not the asymptotics of one matmul).  Storage is ``float32`` by default,
which halves memory and roughly doubles matmul throughput at a ~1e-6 score
tolerance versus float64 (see ``docs/api.md``).

With ``routed=True`` (registered as ``"ivf"``) the rows are partitioned into
spherical k-means cells once ``min_train_size`` are stored, and a query scans
only its ``nprobe`` nearest cells: sublinear, approximate search.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index.body import _MIN_CAPACITY, VectorIndex


class FlatIndex(VectorIndex):
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
        Training knobs, see :class:`repro.index.body.VectorIndex`.
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
        super().__init__(
            dim,
            dtype,
            initial_capacity,
            chunk_size,
            codec=None,
            routed=routed,
            min_train_size=min_train_size,
            train_sample=train_sample,
            seed=seed,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            auto_repartition=auto_repartition,
        )

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
