"""Quantized storage backends: int8 scalar quantization and product quantization.

The exact backends keep every embedding as ``d`` float32 values; at the
paper's fleet scale (millions of per-device caches) the embedding matrix is
the cache's dominant memory cost.  The two backends here trade a small amount
of score precision for a 3.5–10x smaller per-entry footprint:

* :class:`SQ8Index` — per-dimension affine **scalar quantization** to one
  uint8 code per dimension.  Ranges are learned per dimension from the first
  ``min_train_size`` vectors (the train set), so the 256 levels cover the
  span the data actually occupies rather than the theoretical [-1, 1] of a
  unit vector.  Scoring is asymmetric: the query stays float32 and is scored
  against the dequantized corpus chunk-by-chunk, so no query-side precision
  is lost.
* :class:`PQIndex` — **product quantization** (Jégou et al., PAMI 2011): the
  vector is split into ``m`` subspaces, each quantized to the id of its
  nearest per-subspace k-means centroid (one uint8 each).  A query is scored
  with ADC (asymmetric distance computation): one ``(m, ksub)`` lookup table
  of query-sub-vector × centroid dot products per query, after which each
  stored vector's score is ``m`` table lookups — no per-entry float math.

Row storage is the shared :class:`~repro.index.store.RowStore`; the payload
changes phase once.  Both backends train lazily like
:class:`~repro.index.IVFIndex`: below ``min_train_size`` vectors the payload
is float32 staging rows, searched exactly; the first add reaching the
threshold trains the quantizer and swaps the payload for the uint8 code rows
of the staged vectors.  The quantizer is trained once and then frozen (the
standard faiss contract); ``clear``/``rebuild`` reset it.

Optional **exact re-ranking**: with ``rescore > 1`` a search first selects
``top_k · rescore`` candidates by the fast quantized scores, then recomputes
those candidates' scores in float64 against the dequantized codes and ranks
the final ``top_k`` from that — tightening the ordering at a per-query cost
proportional to ``top_k · rescore`` instead of ``n``.

Optional **IVF routing** (``routed=True``, registered as ``"ivf+sq8"`` /
``"ivf+pq"``): the same spherical-k-means coarse quantizer as
:class:`~repro.index.IVFIndex` is trained alongside the codec, so a query
scans only the ``nprobe`` nearest cells' codes — compounding the memory win
with sublinear lookups.  Routing retrains (from the *dequantized* rows — the
float originals are gone by design) when size or churn since the last
training passes ``repartition_growth ×`` the trained size; the codec itself
stays frozen.

Determinism: training-sample selection, k-means init and re-seeding all
derive from ``seed``, so a given operation sequence reproduces bit-identical
codes, lists and scores.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.index.base import IndexHit
from repro.index.postings import det_topk, topk_hits
from repro.index.routing import RoutedIndex, Router, ScoreRows, training_sample
from repro.index.store import _MIN_CAPACITY, RowStore

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
# Query-batch ceiling for the latency-engineered flat scan (per-query LUTs,
# deterministic per-chunk selection, early stop).  Larger batches take the
# batched-throughput gemm path, whose per-query cost is already amortized.
_MIRROR_MAX_BATCH = 4


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


# --------------------------------------------------------------------------- #
# Codecs
# --------------------------------------------------------------------------- #
class ScalarQuantizer:
    """Per-dimension affine uint8 codec: ``x ≈ offset + scale · code``."""

    def __init__(self) -> None:
        self.offset: Optional[np.ndarray] = None  # (d,) float32, per-dim min
        self.scale: Optional[np.ndarray] = None  # (d,) float32, (max-min)/255

    @property
    def is_trained(self) -> bool:
        return self.scale is not None

    def reset(self) -> None:
        self.offset = None
        self.scale = None

    def validate_dim(self, dim: int) -> None:
        """Any dimensionality quantizes; nothing to check."""

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

        Uses the affine identity ``q · (offset + scale·c) =
        q·offset + (q·scale) · c`` so the per-chunk work is one cast of the
        codes plus one matmul.
        """
        scaled_q = queries * self.scale[None, :]
        return scaled_q @ codes.astype(np.float32).T + (queries @ self.offset)[:, None]

    def scores_fused(
        self, queries: np.ndarray, codes: np.ndarray, out: np.ndarray, scratch
    ) -> np.ndarray:
        """Single-pass fused variant of :meth:`scores`, written into ``out``.

        Same affine identity, but the uint8→float32 cast happens in
        ``_SCAN_BLOCK``-row blocks reused from ``scratch`` and every
        intermediate (scaled query, query·offset, cast block) lives in
        scratch too — no chunk-sized float matrix is ever materialized and
        nothing query- or chunk-shaped is allocated per call.
        """
        q, d = queries.shape
        n = codes.shape[0]
        scaled_q = scratch.get("sq8.scaled_q", (q, d), np.float32)
        np.multiply(queries, self.scale[None, :], out=scaled_q)
        q_off = scratch.get("sq8.q_off", (q,), np.float32)
        np.matmul(queries, self.offset, out=q_off)
        block = scratch.get("sq8.cast", (min(_SCAN_BLOCK, n), d), np.float32)
        for start in range(0, n, _SCAN_BLOCK):
            stop = min(start + _SCAN_BLOCK, n)
            b = block[: stop - start]
            np.copyto(b, codes[start:stop], casting="unsafe")
            np.matmul(scaled_q, b.T, out=out[:, start:stop])
        np.add(out, q_off[:, None], out=out)
        return out

    def score_rows_fused(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        scaled_q: np.ndarray,
        q_off: float,
        out: np.ndarray,
        scratch,
        key: str,
    ) -> None:
        """Fused scoring of a gathered row subset (the routed probe scan).

        ``rows`` are gathered from ``codes`` into a scratch uint8 block,
        cast and scored with a gemv per ``_SCAN_BLOCK`` rows — the decoded
        float matrix of the old path never exists, and the cast block stays
        cache-resident between its write (cast) and read (gemv) instead of
        making two full-DRAM passes over the candidate set.
        """
        c = rows.shape[0]
        d = codes.shape[1]
        gathered = scratch.get(key + ".gather", (min(_GATHER_BLOCK, c), d), np.uint8)
        cast = scratch.get(key + ".cast", (min(_GATHER_BLOCK, c), d), np.float32)
        for start in range(0, c, _GATHER_BLOCK):
            stop = min(start + _GATHER_BLOCK, c)
            g = gathered[: stop - start]
            codes.take(rows[start:stop], axis=0, out=g)
            b = cast[: stop - start]
            np.copyto(b, g, casting="unsafe")
            np.matmul(b, scaled_q, out=out[start:stop])
        np.add(out, q_off, out=out)

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Codec tables for the index snapshot (empty while untrained)."""
        if self.scale is None:
            return {}
        return {"sq8_scale": self.scale, "sq8_offset": self.offset}

    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate codec tables from a snapshot."""
        self.scale = np.asarray(arrays["sq8_scale"], dtype=np.float32)
        self.offset = np.asarray(arrays["sq8_offset"], dtype=np.float32)


class ProductQuantizer:
    """Per-subspace k-means codec: ``m`` uint8 centroid ids per vector."""

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

    @property
    def is_trained(self) -> bool:
        return self.codebooks is not None

    @property
    def ksub_eff(self) -> int:
        """Trained centroids per subspace (< ksub when the train set was small)."""
        return 0 if self.codebooks is None else int(self.codebooks.shape[1])

    def reset(self) -> None:
        self.codebooks = None
        self.dsub = None

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
        ``k = ksub_eff`` — exactly the packing of the index's pair-code
        mirror, so a pair of stored codes scores with ONE table gather
        instead of two.  ``out`` is ``(m//2, k·k)`` float32.
        """
        k = lut.shape[1]
        for p in range(self.m // 2):
            np.add(
                lut[2 * p][None, :], lut[2 * p + 1][:, None], out=out[p].reshape(k, k)
            )
        return out

    def scores_fused_pairs(
        self,
        pair_lut: np.ndarray,
        mirror_cols: np.ndarray,
        out: np.ndarray,
        tmp: np.ndarray,
    ) -> np.ndarray:
        """Single-query fused ADC over the pair-packed code mirror.

        ``mirror_cols`` is an ``(m//2, c)`` slice of the index's uint16 pair
        mirror; each of the ``m/2`` gathers reads one contiguous mirror row —
        half the table lookups of :meth:`scores` and no ``(q, c)`` per-table
        gather matrices.
        """
        np.take(pair_lut[0], mirror_cols[0], out=out)
        for p in range(1, mirror_cols.shape[0]):
            np.take(pair_lut[p], mirror_cols[p], out=tmp)
            np.add(out, tmp, out=out)
        return out

    def score_rows_lut(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        lut: np.ndarray,
        out: np.ndarray,
        scratch,
        key: str,
    ) -> None:
        """LUT scoring of a gathered row subset (the routed probe scan)."""
        c = rows.shape[0]
        gathered = scratch.get(key + ".gather", (c, codes.shape[1]), np.uint8)
        codes.take(rows, axis=0, out=gathered)
        tmp = scratch.get(key + ".tmp", (c,), np.float32)
        np.take(lut[0], gathered[:, 0], out=out)
        for j in range(1, self.m):
            np.take(lut[j], gathered[:, j], out=tmp)
            np.add(out, tmp, out=out)

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Codec tables for the index snapshot (empty while untrained)."""
        if self.codebooks is None:
            return {}
        return {"pq_codebooks": self.codebooks}

    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate codebooks from a snapshot."""
        self.codebooks = np.asarray(arrays["pq_codebooks"], dtype=np.float32)
        self.dsub = int(self.codebooks.shape[2])


# --------------------------------------------------------------------------- #
# The quantized index
# --------------------------------------------------------------------------- #
class QuantizedIndex(RoutedIndex, RowStore):
    """Codec, training and search machinery of the quantized backends.

    Not registered directly; use :class:`SQ8Index` / :class:`PQIndex` (or the
    registry names ``"sq8"``, ``"pq"``, ``"ivf+sq8"``, ``"ivf+pq"``).
    """

    def __init__(
        self,
        quantizer,
        dim: Optional[int] = None,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
        min_train_size: int = 256,
        train_sample: int = 32768,
        rescore: int = 2,
        routed: bool = False,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        seed: int = 0,
        fused_scan: bool = True,
        auto_repartition: bool = True,
        prune_probes: bool = True,
    ) -> None:
        super().__init__(dim, initial_capacity, chunk_size, norm_dtype=np.float32)
        if min_train_size < 2:
            raise ValueError("min_train_size must be >= 2")
        if train_sample < 2:
            raise ValueError("train_sample must be >= 2")
        if rescore < 1:
            raise ValueError("rescore must be >= 1")
        if dim is not None:
            quantizer.validate_dim(int(dim))
        self._quantizer = quantizer
        self._min_train_size = int(min_train_size)
        self._train_sample = int(train_sample)
        self._rescore = int(rescore)
        self._routed = bool(routed)
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        # Latency engineering state: fused single-pass scans vs the
        # decode-to-float64 reference path and — for even-m PQ — a
        # column-major uint16 pair-code mirror of the code matrix that
        # halves ADC gathers on the single-query path.
        self._fused_scan = bool(fused_scan)
        self._pair_mirror: Optional[np.ndarray] = None  # (m//2, capacity) u16
        self._layout_clustered = False  # rows grouped cell-major on disk?
        # Built for unrouted instances too (it stays untrained and empty):
        # they share the nprobe/prune_probes/scan_stats surface.
        self._router = Router(
            np.float32,
            self._scratch,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            auto_repartition=auto_repartition,
            prune_probes=prune_probes,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        """Whether the codec exists (False → exact float32 staging scans)."""
        return self._quantizer.is_trained

    @property
    def routed(self) -> bool:
        """Whether IVF coarse routing is enabled for this instance."""
        return self._routed

    @property
    def code_width(self) -> Optional[int]:
        """Bytes of quantized payload per stored vector (None while unset)."""
        if self._dim is None:
            return None
        return int(self._quantizer.code_width(self._dim))

    @property
    def rescore(self) -> int:
        """Exact-rescore multiplier R (top-k·R candidates re-ranked in f64)."""
        return self._rescore

    @property
    def codec_nbytes(self) -> int:
        """Bytes of the trained codec tables (scale/offset or codebooks)."""
        return int(self._quantizer.nbytes)

    @property
    def fused_scan(self) -> bool:
        """Fused single-pass ADC scans (True) vs the decode-to-float64
        reference scan (False).  Togglable at runtime so benchmarks and
        parity tests compare both paths on one index."""
        return self._fused_scan

    @fused_scan.setter
    def fused_scan(self, value: bool) -> None:
        """Switch scan paths in place (the acceleration structures are
        maintained regardless of the flag)."""
        self._fused_scan = bool(value)

    @property
    def scan_nbytes(self) -> int:
        """Bytes of the scan-acceleration structures (pair mirror + scratch).

        Deliberately separate from :attr:`nbytes` / :attr:`codec_nbytes` /
        :attr:`routing_nbytes`: those report the storage the paper's memory
        accounting tracks, while these buffers exist purely to keep the hot
        path allocation-free and can be dropped (``clear``) without losing
        any state.
        """
        total = self._scratch.nbytes
        if self._pair_mirror is not None:
            total += int(self._pair_mirror.nbytes)
        return int(total)

    def get(self, id: int) -> np.ndarray:
        """The stored vector for ``id``.

        Exact while the index is untrained (float staging); after training
        the reconstruction is the dequantized code times the cached norm —
        approximate by design.
        """
        row = self._id_to_row.get(int(id))
        if row is None:
            raise KeyError(f"no vector with id {id}")
        if self._quantizer.is_trained:
            unit = self._quantizer.decode(
                self._rows[row : row + 1], dtype=np.float64
            )[0]
        else:
            unit = np.asarray(self._rows[row], dtype=np.float64)
        return unit * float(self._norms[row])

    # ------------------------------------------------------------------ #
    # Storage layout: float32 staging rows, then uint8 code rows
    # ------------------------------------------------------------------ #
    def _row_layout(self) -> Tuple[int, np.dtype]:
        """Code rows once the codec is trained, float32 staging rows before."""
        if self._quantizer.is_trained:
            width = self._quantizer.code_width(self._dim) if self._dim else 0
            return width, np.dtype(np.uint8)
        return self._dim or 0, np.dtype(np.float32)

    def _encode_rows(self, unit: np.ndarray) -> np.ndarray:
        """Quantize once trained; staging rows are stored as-is."""
        return self._quantizer.encode(unit) if self._quantizer.is_trained else unit

    def _check_dim(self, d: int) -> None:
        if self._dim is None:
            self._quantizer.validate_dim(int(d))
        super()._check_dim(d)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _train(self) -> None:
        """Train codec (once) + routing on the staged rows, encode, drop staging."""
        rows = self._rows[: self._size]
        sample = training_sample(rows, self._train_sample, self._rng)
        self._quantizer.train(sample, self._rng)
        codes = np.empty(
            (self._rows.shape[0], self._quantizer.code_width(self._dim)), dtype=np.uint8
        )
        for start in range(0, self._size, _ENCODE_BLOCK):
            block = rows[start : start + _ENCODE_BLOCK]
            codes[start : start + block.shape[0]] = self._quantizer.encode(block)
        if self._routed:
            self._fit_routing(rows, sample)
        else:
            # Snapshots record the codec's training size either way.
            self._router.trained_size = self._size
        self._rows = codes  # the float staging rows are dropped here
        self._mirror_sync(0, self._size)

    def _fit_routing(self, rows: np.ndarray, sample: np.ndarray) -> None:
        """(Re)partition the live rows into the router's cells."""
        self._router.fit(rows, sample, self._ids[: self._size], self._rng)
        # Storage still reflects arrival order until the next maintenance().
        self._layout_clustered = False

    def _retrain_routing(self) -> None:
        """Re-partition from the dequantized rows (the floats are gone)."""
        rows = np.empty((self._size, self._dim), dtype=np.float32)
        for start in range(0, self._size, _ENCODE_BLOCK):
            chunk = self._rows[start : min(start + _ENCODE_BLOCK, self._size)]
            rows[start : start + chunk.shape[0]] = self._quantizer.decode(chunk)
        self._fit_routing(
            rows, training_sample(rows, self._train_sample, self._rng)
        )

    # ------------------------------------------------------------------ #
    # Scan-acceleration structures (pair mirror, probe-pruning bound stats)
    # ------------------------------------------------------------------ #
    def _mirror_eligible(self) -> bool:
        """Whether the PQ pair-code mirror applies to this configuration."""
        return (
            isinstance(self._quantizer, ProductQuantizer)
            and self._quantizer.is_trained
            and not self._routed
            and self._quantizer.m % 2 == 0
        )

    def _mirror_sync(self, start: int, stop: int) -> None:
        """Keep the pair-packed scan mirror consistent with ``codes[start:stop]``.

        The mirror is a ``(m//2, capacity)`` column-major-by-construction
        uint16 matrix with ``mirror[p, i] = codes[i, 2p] + ksub_eff ·
        codes[i, 2p+1]`` — each fused-scan gather then reads one contiguous
        mirror row.  Maintained whenever eligible (regardless of the
        ``fused_scan`` toggle) so flipping the flag on a live index needs no
        rebuild.  Built lazily on the first sync after training or restore.
        """
        if self._rows is None or not self._mirror_eligible():
            return
        k = self._quantizer.ksub_eff
        shape = (self._quantizer.m // 2, self._rows.shape[0])
        if self._pair_mirror is None:
            self._pair_mirror = np.empty(shape, dtype=np.uint16)
            start, stop = 0, self._size
        elif self._pair_mirror.shape[1] < shape[1]:
            # The store doubled the code matrix under this add; follow it.
            grown = np.empty(shape, dtype=np.uint16)
            grown[:, :start] = self._pair_mirror[:, :start]
            self._pair_mirror = grown
        if stop <= start:
            return
        codes = self._rows[start:stop]
        pairs = codes[:, 0::2].astype(np.uint16)
        pairs += np.uint16(k) * codes[:, 1::2]
        self._pair_mirror[:, start:stop] = pairs.T

    def _scored_rows(self, start: int, stop: int) -> np.ndarray:
        """Code rows ``[start, stop)`` decoded: the probe-pruning bound must
        cover the *reconstructed* rows the scan actually scores, not the
        exact originals."""
        return self._quantizer.decode(self._rows[start:stop], dtype=np.float64)

    def _compact_layout(self) -> None:
        """Reorder storage cell-major: each cell's codes become one
        contiguous ascending-row range.

        The routed fused scan scores candidates in ascending row order
        (see :func:`probe_scan_batched`); with arrival-order storage those
        rows are scattered across the whole code matrix — at 10⁶ entries a
        64-probe candidate gather touches one ~64-byte row per 4 KB page and
        the scan is DRAM-latency bound.  After compaction the same gather
        reads ``nprobe`` sequential runs and the scan is bandwidth bound.
        Pure storage permutation: ids, cell assignments, quantized codes and
        all derived stats are unchanged, so recall and ranking semantics are
        identical — only the BLAS summation order (and thus float ulps)
        shifts, which the final-ranking float64 rescore absorbs.
        """
        self._materialize()
        n = self._size
        ids_new = np.empty(n, dtype=np.int64)
        pos = 0
        for lst in self._router.lists:
            view = lst.view()
            c = view.shape[0]
            if c == 0:
                continue
            ids_new[pos : pos + c] = np.sort(view)
            pos += c
        order = self._router.row_map.rows(ids_new)  # new row -> old row
        self._rows[:n] = self._rows[:n].take(order, axis=0)
        self._norms[:n] = self._norms[:n].take(order)
        self._ids[:n] = ids_new
        if self._pair_mirror is not None:
            self._pair_mirror[:, :n] = self._pair_mirror[:, :n].take(order, axis=1)
        self._id_map = dict(zip(ids_new.tolist(), range(n)))
        self._router.row_map.remap_block(ids_new, 0)
        self._layout_clustered = True

    def maintenance(self) -> Dict[str, object]:
        """Run deferred repartitioning, layout compaction and bound-stat
        refreshes off-query.

        With ``auto_repartition=False`` the growth/churn-triggered routing
        retraining is deferred to this hook (the serving fleet calls it
        between batching windows); it also groups code storage cell-major so
        probe gathers read contiguous ranges, and precomputes the
        probe-pruning stats so the first search after a (re)partition
        doesn't pay for them.
        """
        done: Dict[str, object] = {}
        if self._router.repartition_due:
            self._retrain_routing()
            done["repartitioned"] = True
            done["trained_size"] = self._router.trained_size
        if self._router.is_trained and self._size and not self._layout_clustered:
            self._compact_layout()
            done["layout_compacted"] = True
        if self._router.refresh_cell_stats(self._scored_rows):
            done["cell_stats_refreshed"] = True
        return done

    # ------------------------------------------------------------------ #
    # Mutation hooks (the row store calls these after each change)
    # ------------------------------------------------------------------ #
    def _post_add(self, ids: np.ndarray, start_row: int, unit: np.ndarray) -> None:
        refit_due = self._routed and self._router.note_added(
            ids, start_row, unit, self._scored_rows
        )
        if not self._quantizer.is_trained:
            if self._size >= self._min_train_size:
                self._train()
            return
        self._mirror_sync(start_row, start_row + ids.shape[0])
        if self._routed:
            self._layout_clustered = False
            if refit_due:
                self._retrain_routing()

    def _post_remove(self, id: int, row: int, moved_id: Optional[int]) -> None:
        if moved_id is not None and self._pair_mirror is not None:
            self._pair_mirror[:, row] = self._pair_mirror[:, self._size]
        if self._routed:
            self._router.note_removed(id, row, moved_id, self._ids[: self._size])
            self._layout_clustered = False

    def _post_clear(self) -> None:
        self._quantizer.reset()
        self._router.clear()
        self._pair_mirror = None
        self._layout_clustered = False

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    supports_stop_score = True

    def _prepare_queries(
        self, Q: np.ndarray, prenormalized: bool
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(float64 unit rows, float32 contiguous rows)`` from scratch.

        Same contract as :meth:`FlatIndex._prepare_queries` (identical
        normalization ufuncs, zero per-call allocation), but returns both
        precisions: the float32 rows drive the quantized scans and the
        float64 rows the exact rescore.  With ``prenormalized=True`` the
        caller asserts unit rows; a contiguous float32 input is then used
        for scanning without any copy (float32→float64 widening for the
        rescore side is exact).
        """
        if Q.shape[1] != self._dim:
            raise ValueError(f"query dim {Q.shape[1]} != index dim {self._dim}")
        sc = self._scratch
        if prenormalized:
            unit = sc.get("query.unit64", Q.shape, np.float64)
            np.copyto(unit, Q, casting="unsafe")
            if Q.dtype == np.float32 and Q.flags.c_contiguous:
                return unit, Q
            qf = sc.get("query.f32", Q.shape, np.float32)
            np.copyto(qf, Q, casting="unsafe")
            return unit, qf
        unit = self._unit_queries(Q)
        qf = sc.get("query.f32", Q.shape, np.float32)
        np.copyto(qf, unit, casting="unsafe")
        return unit, qf

    def _rank(
        self,
        cand_rows: np.ndarray,
        cand_scores: np.ndarray,
        query64: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
    ) -> List[IndexHit]:
        """Final ranking of one query's candidates, with optional rescore.

        With ``rescore > 1`` the ``top_k·rescore`` best candidates by
        quantized score are re-scored in float64 against the dequantized
        codes before the final top-k cut.  The candidate cut uses the
        deterministic :func:`det_topk` selection, so the scan-score → final
        pipeline is a pure function of the score values — the keystone of
        the fused/reference decision-invariance contract (see
        ``docs/benchmarks.md``; with ``rescore == 1`` the raw scan scores
        are the final scores and the two paths differ within codec error).
        """
        n = cand_scores.shape[0]
        if self._rescore > 1:
            keff = min(top_k * self._rescore, n)
            if keff < n:
                keep = det_topk(cand_scores, keff)
                cand_rows = cand_rows[keep]
                cand_scores = cand_scores[keep]
            decoded = self._quantizer.decode(self._rows[cand_rows], dtype=np.float64)
            cand_scores = decoded @ query64
        return topk_hits(
            self._ids[cand_rows], cand_scores, top_k, score_threshold
        )

    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
        *,
        stop_score: Optional[float] = None,
        prenormalized: bool = False,
    ) -> List[List[IndexHit]]:
        """Batched top-k cosine search over the quantized rows.

        Untrained: exact float32 scan of the staging buffer.  Trained,
        unrouted: chunked quantized scoring of every code row.  Trained and
        routed: the ``nprobe`` nearest cells' lists only.  Scores are cosine
        similarities up to the codec's reconstruction error (see the module
        docstring); ``score_threshold`` filters on those scores.

        ``stop_score`` enables lossy threshold early termination: scanning a
        query stops once its running best scan score reaches the value
        (honored by the routed probe loop per query, and by the flat scan
        for single-query and small-batch PQ lookups; ignored while
        untrained).  ``prenormalized=True`` skips query normalization as in
        :meth:`FlatIndex.search`.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if prenormalized:
            Q = np.atleast_2d(np.asarray(queries))
        else:
            Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = Q.shape[0]
        if self._size == 0:
            return [[] for _ in range(n_queries)]
        unit, Qf = self._prepare_queries(Q, prenormalized)

        if not self._quantizer.is_trained:
            # Staging phase is bounded by min_train_size: one matmul is fine.
            scores = Qf @ self._rows[: self._size].T
            return [
                topk_hits(
                    self._ids[: self._size], scores[qi], top_k, score_threshold
                )
                for qi in range(n_queries)
            ]

        if self._router.is_trained:
            return self._search_routed(Qf, unit, top_k, score_threshold, stop_score)

        if n_queries <= _MIRROR_MAX_BATCH:
            return self._search_flat_small(
                Qf, unit, top_k, score_threshold, stop_score
            )
        return self._search_flat_batch(Qf, unit, top_k, score_threshold)

    def _search_flat_small(
        self,
        Qf: np.ndarray,
        unit64: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
        stop_score: Optional[float],
    ) -> List[List[IndexHit]]:
        """Latency-path flat scan (≤ ``_MIRROR_MAX_BATCH`` queries).

        Fused mode scores each chunk in a single pass (SQ8: blocked
        cast+gemv; even-m PQ: pair-LUT gathers over the code mirror) with
        every intermediate in scratch; reference mode decodes each chunk to
        a materialized float64 matrix first.  Both modes select each chunk's
        ``keff`` survivors with the deterministic :func:`det_topk`, so the
        candidate set is a pure function of the scan scores.
        """
        n = self._size
        n_queries = Qf.shape[0]
        sc = self._scratch
        chunk = self._chunk_size
        keff = min(max(top_k * self._rescore, top_k), n)
        nchunks = -(-n // chunk)
        cap = min(keff * nchunks, n)
        fused = self._fused_scan
        qz = self._quantizer

        if fused and self._pair_mirror is not None:
            # Per-query pair-LUT scan over the mirror, early stop per query.
            k = qz.ksub_eff
            m2 = qz.m // 2
            lut = sc.get("flat.lut", (qz.m, k), np.float32)
            pair_luts = sc.get("flat.pairlut", (n_queries, m2, k * k), np.float32)
            for qi in range(n_queries):
                qz.build_lut(Qf[qi], lut)
                qz.build_pair_lut(lut, pair_luts[qi])
            srow = sc.get("flat.srow", (min(chunk, n),), np.float32)
            tmp = sc.get("flat.tmp", (min(chunk, n),), np.float32)
            acc_rows = sc.get("flat.acc_rows", (cap,), np.int64)
            acc_scores = sc.get("flat.acc_scores", (cap,), np.float64)
            results: List[List[IndexHit]] = []
            for qi in range(n_queries):
                filled = 0
                for start in range(0, n, chunk):
                    stop = min(start + chunk, n)
                    c = stop - start
                    out = srow[:c]
                    qz.scores_fused_pairs(
                        pair_luts[qi], self._pair_mirror[:, start:stop], out, tmp[:c]
                    )
                    sel = det_topk(out, min(keff, c))
                    cnt = sel.shape[0]
                    seg = acc_rows[filled : filled + cnt]
                    seg[:] = sel
                    seg += start
                    acc_scores[filled : filled + cnt] = out[sel]
                    filled += cnt
                    if (
                        stop_score is not None
                        and float(out[sel].max()) >= stop_score
                    ):
                        self._router.scan_stats["early_stops"] += 1
                        break
                results.append(
                    self._rank(
                        acc_rows[:filled],
                        acc_scores[:filled],
                        unit64[qi],
                        top_k,
                        score_threshold,
                    )
                )
            return results

        # SQ8 fused (or PQ without a mirror, or the reference path): chunks
        # are scored for the whole small batch at once; candidates accumulate
        # per query, early stop applies to single-query lookups.
        acc_rows = sc.get("flat.acc_rows_b", (n_queries, cap), np.int64)
        acc_scores = sc.get("flat.acc_scores_b", (n_queries, cap), np.float64)
        fills = [0] * n_queries
        sbuf = (
            sc.get("flat.scores", (n_queries, min(chunk, n)), np.float32)
            if fused and isinstance(qz, ScalarQuantizer)
            else None
        )
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            c = stop - start
            if sbuf is not None:
                S = sbuf[:, :c]
                qz.scores_fused(Qf, self._rows[start:stop], S, sc)
            elif fused:
                S = qz.scores(Qf, self._rows[start:stop])
            else:
                decoded = qz.decode(self._rows[start:stop], dtype=np.float64)
                S = unit64 @ decoded.T
            kk = min(keff, c)
            for qi in range(n_queries):
                sel = det_topk(S[qi], kk)
                cnt = sel.shape[0]
                seg = acc_rows[qi, fills[qi] : fills[qi] + cnt]
                seg[:] = sel
                seg += start
                acc_scores[qi, fills[qi] : fills[qi] + cnt] = S[qi][sel]
                fills[qi] += cnt
            if (
                stop_score is not None
                and n_queries == 1
                and float(acc_scores[0, : fills[0]].max()) >= stop_score
            ):
                self._router.scan_stats["early_stops"] += 1
                break
        return [
            self._rank(
                acc_rows[qi, : fills[qi]],
                acc_scores[qi, : fills[qi]],
                unit64[qi],
                top_k,
                score_threshold,
            )
            for qi in range(n_queries)
        ]

    def _search_flat_batch(
        self,
        Qf: np.ndarray,
        unit64: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
    ) -> List[List[IndexHit]]:
        """Batched-throughput flat scan (> ``_MIRROR_MAX_BATCH`` queries).

        The chunked gemm/LUT structure of the original scan; ``fused_scan``
        only switches the per-chunk scorer (quantized vs decode-to-float64
        reference), and both modes use the same per-chunk selection, so the
        fused/reference comparison conditions identically on batch size.
        """
        n_queries = Qf.shape[0]
        keff = min(max(top_k * self._rescore, top_k), self._size)
        chunk_rows: List[np.ndarray] = []
        chunk_scores: List[np.ndarray] = []
        for start in range(0, self._size, self._chunk_size):
            stop = min(start + self._chunk_size, self._size)
            if self._fused_scan:
                S = self._quantizer.scores(Qf, self._rows[start:stop])
            else:
                decoded = self._quantizer.decode(
                    self._rows[start:stop], dtype=np.float64
                )
                S = unit64 @ decoded.T
            c = stop - start
            kk = min(keff, c)
            if kk < c:
                idx = np.argpartition(-S, kth=kk - 1, axis=1)[:, :kk]
                chunk_scores.append(np.take_along_axis(S, idx, axis=1))
                chunk_rows.append(idx + start)
            else:
                chunk_scores.append(S)
                chunk_rows.append(
                    np.broadcast_to(np.arange(start, stop), (n_queries, c))
                )
        # Joins a handful of fixed-size chunk results once per *batch* (the
        # chunking bounds peak score-matrix memory); per-entry copies were
        # already eliminated by the preallocated code rows.
        rows = np.concatenate(chunk_rows, axis=1)  # repro: ignore[RPL003]
        scores = np.concatenate(chunk_scores, axis=1)  # repro: ignore[RPL003]
        return [
            self._rank(rows[qi], scores[qi], unit64[qi], top_k, score_threshold)
            for qi in range(n_queries)
        ]

    def _search_routed(
        self,
        Qf: np.ndarray,
        unit64: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
        stop_score: Optional[float],
    ) -> List[List[IndexHit]]:
        """Probe the ``nprobe`` nearest cells and rank their lists' codes.

        :meth:`repro.index.routing.Router.search` runs the probe loop; this
        supplies the per-query code scorer — SQ8-fused gather+cast+gemv, PQ
        LUT gathers, or (``fused_scan=False``) the reference path that
        decodes probed rows to a materialized float64 matrix — and ranks
        with :meth:`_rank`.  Candidate gathers, casts and scores all live in
        scratch.  The reference path probes unpruned: it is the oracle
        the pruned fused scan is compared against.
        """
        n_queries = Qf.shape[0]
        sc = self._scratch
        qz = self._quantizer
        fused = self._fused_scan
        sq = isinstance(qz, ScalarQuantizer)
        if fused and sq:
            scaled_q = sc.get("rt.scaled_q", Qf.shape, np.float32)
            np.multiply(Qf, qz.scale[None, :], out=scaled_q)
            q_off = sc.get("rt.q_off", (n_queries,), np.float32)
            np.matmul(Qf, qz.offset, out=q_off)
        elif fused:
            luts = sc.get("rt.lut", (n_queries, qz.m, qz.ksub_eff), np.float32)
            for qi in range(n_queries):
                qz.build_lut(Qf[qi], luts[qi])
        codes = self._rows

        def scorer(qi: int) -> ScoreRows:
            if fused and sq:
                sq_q = scaled_q[qi]
                off_q = float(q_off[qi])

                def score_rows(rows: np.ndarray, out: np.ndarray) -> None:
                    qz.score_rows_fused(codes, rows, sq_q, off_q, out, sc, "rt")

            elif fused:
                lut_q = luts[qi]

                def score_rows(rows: np.ndarray, out: np.ndarray) -> None:
                    qz.score_rows_lut(codes, rows, lut_q, out, sc, "rt")

            else:
                u64 = unit64[qi]

                def score_rows(rows: np.ndarray, out: np.ndarray) -> None:
                    decoded = qz.decode(codes[rows], dtype=np.float64)
                    np.matmul(decoded, u64, out=out)

            return score_rows

        def rank(qi: int, rows: np.ndarray, scores: np.ndarray) -> List[IndexHit]:
            return self._rank(rows, scores, unit64[qi], top_k, score_threshold)

        return self._router.search(
            Qf,
            scorer,
            rank,
            self._scored_rows,
            top_k * self._rescore if self._rescore > 1 else top_k,
            np.float32 if fused else np.float64,
            stop_score=stop_score,
            bounded=fused,
        )

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    @property
    def snapshot_backend(self) -> Optional[str]:
        # Concrete subclasses name their registered backend; the shared base
        # is not registered, so per the VectorIndex contract it reports no
        # snapshot support (save() then raises SnapshotError).
        return None

    def _snapshot_common_params(self) -> Dict[str, object]:
        return {
            "dim": self._constructor_dim,
            "initial_capacity": self._initial_capacity,
            "chunk_size": self._chunk_size,
            "min_train_size": self._min_train_size,
            "train_sample": self._train_sample,
            "rescore": self._rescore,
            "routed": self._routed,
            **self._router.snapshot_params(),
            "seed": self._seed,
            "fused_scan": self._fused_scan,
        }

    def _snapshot_state(self) -> Dict[str, object]:
        return {
            "dim": self._dim,
            "next_id": self._next_id,
            "trained": bool(self._quantizer.is_trained),
            **self._router.snapshot_state(),
            "layout_clustered": self._layout_clustered,
            "rng_state": self._rng.bit_generator.state,
        }

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        if not self._quantizer.is_trained:
            return self._snapshot_rows("staging")
        arrays = self._snapshot_rows("codes")
        arrays.update(self._quantizer.snapshot_arrays())
        arrays.update(self._router.snapshot_arrays(arrays["ids"], "rt_"))
        return arrays

    def _restore(self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> None:
        self.clear(reset_ids=True)
        trained = bool(state["trained"])
        if trained:
            self._quantizer.restore_arrays(arrays)
        # The routed variants rebuild inverted lists anyway, so they always
        # copy; unrouted ones adopt a mapped code (or staging) matrix.
        self._restore_rows(
            state,
            arrays["codes" if trained else "staging"],
            arrays["norms"],
            arrays["ids"],
            adopt_mmap=not self._routed,
        )
        if self._routed:
            self._router.restore(
                state, arrays, np.asarray(arrays["ids"], dtype=np.int64), "rt_"
            )
        else:
            self._router.trained_size = int(state["trained_size"])
        # Snapshots preserve row order byte-for-byte, so cell-major layout
        # survives the round trip and the flag can be restored as-is.
        self._layout_clustered = bool(state.get("layout_clustered", False))
        # Scan-acceleration structures are derived state: rebuild the PQ
        # pair mirror from the restored codes; cell stats recompute lazily.
        self._mirror_sync(0, self._size)
        self._restore_rng(state)


class SQ8Index(QuantizedIndex):
    """Int8 scalar-quantized cosine index (≈3.5x smaller rows than flat).

    Parameters beyond the storage/training knobs shared with
    :class:`QuantizedIndex`:

    rescore:
        Exact-rescore multiplier R — each query's ``top_k·R`` best
        candidates by quantized score are re-ranked in float64 against the
        dequantized codes (1 disables).
    routed, nlist, nprobe:
        Enable IVF coarse routing over the quantized rows (the registry's
        ``"ivf+sq8"``).
    fused_scan, auto_repartition, prune_probes:
        Hot-path scan knobs shared with :class:`QuantizedIndex`.
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
        min_train_size: int = 256,
        train_sample: int = 32768,
        rescore: int = 2,
        routed: bool = False,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        seed: int = 0,
        fused_scan: bool = True,
        auto_repartition: bool = True,
        prune_probes: bool = True,
    ) -> None:
        super().__init__(
            ScalarQuantizer(),
            dim=dim,
            initial_capacity=initial_capacity,
            chunk_size=chunk_size,
            min_train_size=min_train_size,
            train_sample=train_sample,
            rescore=rescore,
            routed=routed,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            seed=seed,
            fused_scan=fused_scan,
            auto_repartition=auto_repartition,
            prune_probes=prune_probes,
        )

    @property
    def snapshot_backend(self) -> str:
        return "ivf+sq8" if self._routed else "sq8"

    def _snapshot_params(self) -> Dict[str, object]:
        return self._snapshot_common_params()


class PQIndex(QuantizedIndex):
    """Product-quantized cosine index (``m`` bytes per vector, ADC scoring).

    Parameters beyond the shared knobs:

    m:
        Subspaces (codes per vector).  ``dim`` must be divisible by ``m``;
        smaller sub-dimensions quantize more finely (``m=dim`` degenerates
        to per-dimension non-uniform scalar quantization).
    ksub:
        Centroids per subspace (≤ 256 so one code fits a uint8).
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        m: int = 16,
        ksub: int = 256,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
        min_train_size: int = 256,
        train_sample: int = 32768,
        rescore: int = 2,
        routed: bool = False,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        seed: int = 0,
        fused_scan: bool = True,
        auto_repartition: bool = True,
        prune_probes: bool = True,
    ) -> None:
        super().__init__(
            ProductQuantizer(m=m, ksub=ksub, kmeans_iters=max(kmeans_iters, 1)),
            dim=dim,
            initial_capacity=initial_capacity,
            chunk_size=chunk_size,
            min_train_size=min_train_size,
            train_sample=train_sample,
            rescore=rescore,
            routed=routed,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            seed=seed,
            fused_scan=fused_scan,
            auto_repartition=auto_repartition,
            prune_probes=prune_probes,
        )
        self._m = int(m)
        self._ksub = int(ksub)

    @property
    def m(self) -> int:
        """Number of subspaces (codes per vector)."""
        return self._m

    @property
    def ksub(self) -> int:
        """Centroids per subspace."""
        return self._ksub

    @property
    def snapshot_backend(self) -> str:
        return "ivf+pq" if self._routed else "pq"

    def _snapshot_params(self) -> Dict[str, object]:
        params = self._snapshot_common_params()
        params["m"] = self._m
        params["ksub"] = self._ksub
        return params
