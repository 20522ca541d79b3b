"""Vector codecs: what a quantized row is and how a query scores against it.

A :class:`Codec` turns unit float rows into fixed-width uint8 code rows and
owns everything codec-specific about scanning them — the per-batch query
tables, the contiguous-chunk scorer of the flat scan, the gathered-rows
scorer of the routed probe scan, and any scan structure derived from the
codes (the PQ pair mirror).  :class:`~repro.index.quantized.QuantizedIndex`
composes one codec with the shared row store and the IVF router and never
asks which codec it holds.

* :class:`ScalarQuantizer` (``"sq8"``) — per-dimension affine quantization
  to one uint8 per dimension.  Ranges are learned per dimension from the
  train set, so the 256 levels cover the span the data actually occupies.
  Scoring is asymmetric: the query stays float32 and the affine identity
  ``q · (offset + scale·c) = q·offset + (q·scale) · c`` reduces a chunk to
  one cast plus one matmul.
* :class:`ProductQuantizer` (``"pq"``) — product quantization (Jégou et al.,
  PAMI 2011): ``m`` subspaces, each quantized to the id of its nearest
  per-subspace k-means centroid.  A query is scored with ADC: one
  ``(m, ksub)`` table of query-sub-vector × centroid dot products, after
  which each stored vector's score is ``m`` table lookups.

A codec is trained once and then frozen (the faiss contract); ``reset``
forgets the tables and every derived structure.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.index.postings import ScratchBuffers
from repro.index.routing import ScoreRows

# Rows per encode/assignment block: bounds the temporary float matrices.
_ENCODE_BLOCK = 16384
# Code rows per uint8→float32 cast block in the fused SQ8 scan: large enough
# to amortize the gemm call, small enough that the cast buffer stays resident
# in cache (and well under the mmap threshold for fresh allocations).
_SCAN_BLOCK = 4096
# Rows per gather+cast+gemv block when scoring a scattered row subset (the
# routed probe scan): the gathered uint8 block (128KB) and its float32 cast
# (512KB) both stay L2-resident between the write and the gemv read, which
# measures ~1.4x faster than a single whole-candidate-set pass at 10^6.
_GATHER_BLOCK = 2048

#: ``score(lo, hi, start, stop)``: float32 scores, shape ``(hi-lo, stop-start)``,
#: of queries ``[lo, hi)`` against code rows ``[start, stop)``; the result is
#: only valid until the next call.
ScoreChunk = Callable[[int, int, int, int], np.ndarray]


def _lloyd_kmeans(
    X: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain (euclidean) Lloyd k-means; dead cells re-seed on sample points.

    The update step accumulates per-cluster sums with one ``np.bincount``
    per (low-dimensional) column — the subspaces PQ trains on have a handful
    of dimensions, where this is an order of magnitude faster than a
    scatter-add over the whole sample.
    """
    n, p = X.shape
    k = min(k, n)
    if p == 1:
        # Scalar case: quantile init is near the optimal (Lloyd–Max)
        # quantizer already, where random init needs many iterations to
        # spread 256 centroids over one dimension.
        qs = (np.arange(k, dtype=np.float64) + 0.5) / k
        centroids = np.quantile(X[:, 0], qs).reshape(-1, 1)
    else:
        init = rng.choice(n, size=k, replace=False)
        centroids = X[init].astype(np.float64)
    for _ in range(iters):
        if p == 1:
            # Sorted 1-d centroids: nearest is a bisection on the midpoints
            # (the update below keeps them sorted), not a distance matrix.
            c = np.sort(centroids[:, 0])
            centroids = c.reshape(-1, 1)
            assign = np.searchsorted((c[1:] + c[:-1]) / 2.0, X[:, 0])
        else:
            d2 = -2.0 * (X @ centroids.T) + np.einsum("ij,ij->i", centroids, centroids)
            assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.empty_like(centroids)
        for j in range(p):
            sums[:, j] = np.bincount(assign, weights=X[:, j], minlength=k)
        empty = counts == 0
        if empty.any():
            sums[empty] = X[rng.choice(n, size=int(empty.sum()))]
            counts[empty] = 1
        centroids = sums / counts[:, None]
    return centroids


class Codec(abc.ABC):
    """The surface :class:`~repro.index.quantized.QuantizedIndex` composes with.

    ``name`` is the codec's registry stem: an index over it snapshots as
    backend ``name`` (``"ivf+" + name`` when routed).
    """

    name: str

    @property
    @abc.abstractmethod
    def is_trained(self) -> bool:
        """Whether the codec tables exist."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes of the trained codec tables (0 while untrained)."""

    @property
    def scan_nbytes(self) -> int:
        """Bytes of scan structures derived from the codes (droppable)."""
        return 0

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget the trained tables and every derived scan structure."""

    def validate_dim(self, dim: int) -> None:
        """Raise ``ValueError`` when ``dim``-wide vectors cannot be encoded."""

    @abc.abstractmethod
    def code_width(self, dim: int) -> int:
        """Bytes per stored ``dim``-wide vector."""

    @abc.abstractmethod
    def train(self, rows: np.ndarray, rng: np.random.Generator) -> None:
        """Fit the codec tables on the training rows."""

    @abc.abstractmethod
    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Quantize float rows to ``(n, code_width)`` uint8 codes."""

    @abc.abstractmethod
    def decode(self, codes: np.ndarray, dtype: np.dtype = np.float32) -> np.ndarray:
        """Dequantize codes back to (approximate) float rows."""

    @abc.abstractmethod
    def scores(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Allocating ``(q, n)`` float32 scores: the batched-throughput scan.

        Kept beside :meth:`chunk_scorer` because the two spell the same
        product with different BLAS shapes, which can differ in the last bit.
        """

    @abc.abstractmethod
    def chunk_scorer(
        self, Qf: np.ndarray, codes: np.ndarray, width: int, scratch: ScratchBuffers
    ) -> Tuple[int, ScoreChunk]:
        """``(group, score)`` for the latency-path flat scan of batch ``Qf``.

        Prepares the batch's query tables in ``scratch``; ``score`` then
        scores ``group`` queries at a time against chunks of at most
        ``width`` rows of ``codes``.
        """

    @abc.abstractmethod
    def row_scorers(
        self, Qf: np.ndarray, codes: np.ndarray, scratch: ScratchBuffers
    ) -> Callable[[int], ScoreRows]:
        """Per-query gathered-rows scorers for the routed probe scan.

        Prepares the batch's query tables in ``scratch`` and returns the
        ``scorer`` argument of :meth:`repro.index.routing.Router.search`.
        """

    def sync_scan(self, codes: np.ndarray, start: int, stop: int, size: int) -> None:
        """Bring derived flat-scan structures in line with ``codes[start:stop]``.

        ``codes`` is the whole (capacity-sized) code matrix and ``size`` its
        live prefix; a structure that does not exist yet is built over all
        live rows.  Called for unrouted indexes only.
        """

    def swap_remove(self, row: int, last: int) -> None:
        """Mirror the store's swap-delete: row ``last`` now lives in ``row``."""

    def snapshot_params(self) -> Dict[str, object]:
        """Constructor arguments the index manifest records for this codec."""
        return {}

    @abc.abstractmethod
    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Codec tables for the index snapshot (empty while untrained)."""

    @abc.abstractmethod
    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate codec tables from a snapshot."""


class ScalarQuantizer(Codec):
    """Per-dimension affine uint8 codec: ``x ≈ offset + scale · code``."""

    name = "sq8"

    def __init__(self) -> None:
        self.offset: Optional[np.ndarray] = None  # (d,) float32, per-dim min
        self.scale: Optional[np.ndarray] = None  # (d,) float32, (max-min)/255

    @property
    def is_trained(self) -> bool:
        """Whether the per-dimension ranges exist."""
        return self.scale is not None

    def reset(self) -> None:
        """Forget the ranges."""
        self.offset = None
        self.scale = None

    def code_width(self, dim: int) -> int:
        """Bytes per stored vector: one uint8 code per dimension."""
        return int(dim)

    @property
    def nbytes(self) -> int:
        """Bytes of the trained codec tables (scale + offset)."""
        if self.scale is None:
            return 0
        return int(self.scale.nbytes + self.offset.nbytes)

    def train(self, rows: np.ndarray, rng: np.random.Generator) -> None:
        """Fit per-dimension [min, max] ranges on the training rows."""
        X = np.asarray(rows, dtype=np.float64)
        lo = X.min(axis=0)
        span = X.max(axis=0) - lo
        # A constant dimension still round-trips exactly through code 0.
        span[span < 1e-9] = 1e-9
        self.offset = lo.astype(np.float32)
        self.scale = (span / 255.0).astype(np.float32)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Quantize float rows to uint8 codes (values outside the range clip)."""
        X = np.asarray(rows, dtype=np.float64)
        q = np.rint((X - self.offset.astype(np.float64)) / self.scale.astype(np.float64))
        return np.clip(q, 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray, dtype: np.dtype = np.float32) -> np.ndarray:
        """Dequantize codes back to (approximate) float rows."""
        return codes.astype(dtype) * self.scale.astype(dtype) + self.offset.astype(dtype)

    def scores(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric float32-query × uint8-corpus dot products, ``(q, n)``.

        The affine identity makes the per-chunk work one cast of the codes
        plus one matmul.
        """
        scaled_q = queries * self.scale[None, :]
        return scaled_q @ codes.astype(np.float32).T + (queries @ self.offset)[:, None]

    def _prepare(
        self, Qf: np.ndarray, scratch: ScratchBuffers
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The batch's ``(q·scale, q·offset)`` tables, in scratch."""
        scaled_q = scratch.get("sq8.scaled_q", Qf.shape, np.float32)
        np.multiply(Qf, self.scale[None, :], out=scaled_q)
        q_off = scratch.get("sq8.q_off", (Qf.shape[0],), np.float32)
        np.matmul(Qf, self.offset, out=q_off)
        return scaled_q, q_off

    def chunk_scorer(
        self, Qf: np.ndarray, codes: np.ndarray, width: int, scratch: ScratchBuffers
    ) -> Tuple[int, ScoreChunk]:
        """Single-pass fused variant of :meth:`scores` for the whole batch.

        The uint8→float32 cast happens in ``_SCAN_BLOCK``-row blocks reused
        from ``scratch`` and every intermediate lives in scratch too — no
        chunk-sized float matrix is ever materialized and nothing query- or
        chunk-shaped is allocated per call.
        """
        q, d = Qf.shape
        scaled_q, q_off = self._prepare(Qf, scratch)
        sbuf = scratch.get("sq8.scores", (q, width), np.float32)

        def score(lo: int, hi: int, start: int, stop: int) -> np.ndarray:
            n = stop - start
            out = sbuf[lo:hi, :n]
            block = scratch.get("sq8.cast", (min(_SCAN_BLOCK, n), d), np.float32)
            for s in range(start, stop, _SCAN_BLOCK):
                e = min(s + _SCAN_BLOCK, stop)
                b = block[: e - s]
                np.copyto(b, codes[s:e], casting="unsafe")
                np.matmul(scaled_q[lo:hi], b.T, out=out[:, s - start : e - start])
            np.add(out, q_off[lo:hi, None], out=out)
            return out

        return q, score

    def row_scorers(
        self, Qf: np.ndarray, codes: np.ndarray, scratch: ScratchBuffers
    ) -> Callable[[int], ScoreRows]:
        """Gather+cast+gemv scorers over the batch's scaled-query tables."""
        scaled_q, q_off = self._prepare(Qf, scratch)
        return lambda qi: partial(
            self._score_rows, codes, scratch, scaled_q[qi], float(q_off[qi])
        )

    @staticmethod
    def _score_rows(
        codes: np.ndarray,
        scratch: ScratchBuffers,
        scaled_q: np.ndarray,
        q_off: float,
        rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Fused scoring of a gathered row subset.

        ``rows`` are gathered from ``codes`` into a scratch uint8 block,
        cast and scored with a gemv per ``_GATHER_BLOCK`` rows — no decoded
        float matrix exists, and the cast block stays cache-resident between
        its write (cast) and read (gemv) instead of making two full-DRAM
        passes over the candidate set.
        """
        c = rows.shape[0]
        d = codes.shape[1]
        gathered = scratch.get("sq8.gather", (min(_GATHER_BLOCK, c), d), np.uint8)
        cast = scratch.get("sq8.gcast", (min(_GATHER_BLOCK, c), d), np.float32)
        for start in range(0, c, _GATHER_BLOCK):
            stop = min(start + _GATHER_BLOCK, c)
            g = gathered[: stop - start]
            codes.take(rows[start:stop], axis=0, out=g)
            b = cast[: stop - start]
            np.copyto(b, g, casting="unsafe")
            np.matmul(b, scaled_q, out=out[start:stop])
        np.add(out, q_off, out=out)

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """``sq8_scale`` and ``sq8_offset`` (empty while untrained)."""
        if self.scale is None:
            return {}
        return {"sq8_scale": self.scale, "sq8_offset": self.offset}

    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate the ranges from a snapshot."""
        self.scale = np.asarray(arrays["sq8_scale"], dtype=np.float32)
        self.offset = np.asarray(arrays["sq8_offset"], dtype=np.float32)


class ProductQuantizer(Codec):
    """Per-subspace k-means codec: ``m`` uint8 centroid ids per vector.

    Parameters
    ----------
    m:
        Subspaces (codes per vector).  The vector dim must be divisible by
        ``m``; smaller sub-dimensions quantize more finely (``m=dim``
        degenerates to per-dimension non-uniform scalar quantization).
    ksub:
        Centroids per subspace (≤ 256 so one code fits a uint8).
    kmeans_iters:
        Lloyd iterations per codebook.
    """

    name = "pq"

    def __init__(self, m: int = 16, ksub: int = 256, kmeans_iters: int = 10) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if not 2 <= ksub <= 256:
            raise ValueError("ksub must be in [2, 256] (codes are uint8)")
        if kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        self.m = int(m)
        self.ksub = int(ksub)
        self.kmeans_iters = int(kmeans_iters)
        self.codebooks: Optional[np.ndarray] = None  # (m, ksub_eff, dsub) f32
        self.dsub: Optional[int] = None
        # Column-major uint16 pair-code mirror of the code matrix (even m,
        # unrouted): mirror[p, i] = codes[i, 2p] + ksub_eff · codes[i, 2p+1],
        # halving the ADC gathers of the latency-path flat scan.
        self._mirror: Optional[np.ndarray] = None  # (m//2, capacity) u16

    @property
    def is_trained(self) -> bool:
        """Whether the codebooks exist."""
        return self.codebooks is not None

    @property
    def ksub_eff(self) -> int:
        """Trained centroids per subspace (< ksub when the train set was small)."""
        return 0 if self.codebooks is None else int(self.codebooks.shape[1])

    def reset(self) -> None:
        """Forget the codebooks and drop the pair mirror."""
        self.codebooks = None
        self.dsub = None
        self._mirror = None

    def validate_dim(self, dim: int) -> None:
        """The subspace split must tile the vector exactly."""
        if dim % self.m != 0:
            raise ValueError(
                f"vector dim {dim} is not divisible by m={self.m} subspaces"
            )

    def code_width(self, dim: int) -> int:
        """Bytes per stored vector: one uint8 centroid id per subspace."""
        return self.m

    @property
    def nbytes(self) -> int:
        """Bytes of the trained codebooks."""
        return 0 if self.codebooks is None else int(self.codebooks.nbytes)

    @property
    def scan_nbytes(self) -> int:
        """Bytes of the pair-code mirror (0 when there is none)."""
        return 0 if self._mirror is None else int(self._mirror.nbytes)

    def train(self, rows: np.ndarray, rng: np.random.Generator) -> None:
        """Fit one k-means codebook per subspace on the training rows."""
        X = np.asarray(rows, dtype=np.float64)
        n, d = X.shape
        self.validate_dim(d)
        self.dsub = d // self.m
        ksub = min(self.ksub, n)
        books = np.empty((self.m, ksub, self.dsub), dtype=np.float32)
        for j in range(self.m):
            sub = X[:, j * self.dsub : (j + 1) * self.dsub]
            book = _lloyd_kmeans(sub, ksub, self.kmeans_iters, rng)
            if self.dsub == 1:
                # Sorted scalar codebooks let encode() assign by bisection.
                book = np.sort(book, axis=0)
            books[j] = book
        self.codebooks = books

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Assign each sub-vector to its nearest centroid (blocked, float32)."""
        X = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.float32)
        n = X.shape[0]
        codes = np.empty((n, self.m), dtype=np.uint8)
        if self.dsub == 1:
            # Scalar subspaces: nearest sorted centroid via bisection on the
            # midpoints — O(n log ksub) instead of an (n, ksub) distance
            # matrix per subspace.
            for j in range(self.m):
                cb = self.codebooks[j][:, 0]
                mids = (cb[1:] + cb[:-1]) / 2.0
                codes[:, j] = np.searchsorted(mids, X[:, j])
            return codes
        cb_norms = np.einsum("mkd,mkd->mk", self.codebooks, self.codebooks)
        for start in range(0, n, _ENCODE_BLOCK):
            block = X[start : start + _ENCODE_BLOCK]
            for j in range(self.m):
                sub = block[:, j * self.dsub : (j + 1) * self.dsub]
                d2 = cb_norms[j][None, :] - 2.0 * (sub @ self.codebooks[j].T)
                codes[start : start + block.shape[0], j] = np.argmin(d2, axis=1)
        return codes

    def decode(self, codes: np.ndarray, dtype: np.dtype = np.float32) -> np.ndarray:
        """Reconstruct (approximate) float rows from centroid ids."""
        n = codes.shape[0]
        out = np.empty((n, self.m * self.dsub), dtype=dtype)
        for j in range(self.m):
            out[:, j * self.dsub : (j + 1) * self.dsub] = self.codebooks[j][
                codes[:, j]
            ].astype(dtype)
        return out

    def scores(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC scores ``(q, n)``: per-subspace LUT build plus gather-adds."""
        q = queries.shape[0]
        n = codes.shape[0]
        out = np.zeros((q, n), dtype=np.float32)
        for j in range(self.m):
            lut = queries[:, j * self.dsub : (j + 1) * self.dsub] @ self.codebooks[j].T
            out += lut[:, codes[:, j]]
        return out

    def build_lut(self, query: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One query's per-subspace ADC table, written into ``out`` (m, ksub_eff)."""
        for j in range(self.m):
            np.matmul(
                self.codebooks[j], query[j * self.dsub : (j + 1) * self.dsub], out=out[j]
            )
        return out

    def build_pair_lut(self, lut: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fuse adjacent subspace tables into ``m/2`` pair tables.

        ``out[p][c0 + k·c1] = lut[2p][c0] + lut[2p+1][c1]`` with
        ``k = ksub_eff`` — exactly the packing of the pair-code mirror, so a
        pair of stored codes scores with ONE table gather instead of two.
        ``out`` is ``(m//2, k·k)`` float32.
        """
        k = lut.shape[1]
        for p in range(self.m // 2):
            np.add(
                lut[2 * p][None, :], lut[2 * p + 1][:, None], out=out[p].reshape(k, k)
            )
        return out

    def chunk_scorer(
        self, Qf: np.ndarray, codes: np.ndarray, width: int, scratch: ScratchBuffers
    ) -> Tuple[int, ScoreChunk]:
        """Pair-LUT gathers over the mirror, one query at a time.

        Each of the ``m/2`` gathers reads one contiguous mirror row — half
        the table lookups of :meth:`scores` and no ``(q, c)`` per-table
        gather matrices.  Without a mirror (odd ``m``) the whole batch is
        scored by :meth:`scores`.
        """
        q = Qf.shape[0]
        mirror = self._mirror
        if mirror is None:
            return q, lambda lo, hi, start, stop: self.scores(Qf[lo:hi], codes[start:stop])
        k = self.ksub_eff
        lut = scratch.get("pq.lut", (self.m, k), np.float32)
        pair_luts = scratch.get("pq.pairlut", (q, self.m // 2, k * k), np.float32)
        for qi in range(q):
            self.build_lut(Qf[qi], lut)
            self.build_pair_lut(lut, pair_luts[qi])
        srow = scratch.get("pq.srow", (1, width), np.float32)
        tmp = scratch.get("pq.tmp", (width,), np.float32)

        def score(lo: int, hi: int, start: int, stop: int) -> np.ndarray:
            out = srow[:, : stop - start]
            np.take(pair_luts[lo][0], mirror[0, start:stop], out=out[0])
            for p in range(1, mirror.shape[0]):
                np.take(pair_luts[lo][p], mirror[p, start:stop], out=tmp[: stop - start])
                np.add(out[0], tmp[: stop - start], out=out[0])
            return out

        return 1, score

    def row_scorers(
        self, Qf: np.ndarray, codes: np.ndarray, scratch: ScratchBuffers
    ) -> Callable[[int], ScoreRows]:
        """LUT-gather scorers over one ADC table per query of the batch."""
        luts = scratch.get("pq.luts", (Qf.shape[0], self.m, self.ksub_eff), np.float32)
        for qi in range(Qf.shape[0]):
            self.build_lut(Qf[qi], luts[qi])
        return lambda qi: partial(self._score_rows, codes, scratch, luts[qi])

    def _score_rows(
        self,
        codes: np.ndarray,
        scratch: ScratchBuffers,
        lut: np.ndarray,
        rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """LUT scoring of a gathered row subset."""
        c = rows.shape[0]
        gathered = scratch.get("pq.gather", (c, codes.shape[1]), np.uint8)
        codes.take(rows, axis=0, out=gathered)
        tmp = scratch.get("pq.gtmp", (c,), np.float32)
        np.take(lut[0], gathered[:, 0], out=out)
        for j in range(1, self.m):
            np.take(lut[j], gathered[:, j], out=tmp)
            np.add(out, tmp, out=out)

    def sync_scan(self, codes: np.ndarray, start: int, stop: int, size: int) -> None:
        """Keep the pair-packed mirror consistent with ``codes[start:stop]``.

        Even ``m`` only.  Built lazily on the first sync after training or
        restore; follows the store when it doubles the code matrix.
        """
        if self.codebooks is None or self.m % 2:
            return
        shape = (self.m // 2, codes.shape[0])
        if self._mirror is None:
            self._mirror = np.empty(shape, dtype=np.uint16)
            start, stop = 0, size
        elif self._mirror.shape[1] < shape[1]:
            grown = np.empty(shape, dtype=np.uint16)
            grown[:, :start] = self._mirror[:, :start]
            self._mirror = grown
        if stop <= start:
            return
        block = codes[start:stop]
        pairs = block[:, 0::2].astype(np.uint16)
        pairs += np.uint16(self.ksub_eff) * block[:, 1::2]
        self._mirror[:, start:stop] = pairs.T

    def swap_remove(self, row: int, last: int) -> None:
        """Move mirror column ``last`` into ``row``, as the store did the codes."""
        if self._mirror is not None:
            self._mirror[:, row] = self._mirror[:, last]

    def snapshot_params(self) -> Dict[str, object]:
        """``m`` and ``ksub`` (``kmeans_iters`` is the index's own param)."""
        return {"m": self.m, "ksub": self.ksub}

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """``pq_codebooks`` (empty while untrained)."""
        if self.codebooks is None:
            return {}
        return {"pq_codebooks": self.codebooks}

    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate the codebooks from a snapshot."""
        self.codebooks = np.asarray(arrays["pq_codebooks"], dtype=np.float32)
        self.dsub = int(self.codebooks.shape[2])
