"""Quantized storage: one index over the int8 codec, a row store and a router.

The exact backends keep every embedding as ``d`` float32 values; at the
paper's fleet scale (millions of per-device caches) the embedding matrix is
the cache's dominant memory cost.  :class:`QuantizedIndex` trades a small
amount of score precision for a ~3.5x smaller per-entry footprint by storing
the uint8 code rows of a :class:`~repro.index.codecs.ScalarQuantizer`
(``"sq8"``); how a code row is built and scored is the codec's business (see
:mod:`repro.index.codecs`).

Row storage is the shared :class:`~repro.index.store.RowStore`; the payload
changes phase once.  The index trains lazily like
:class:`~repro.index.IVFIndex`: below ``min_train_size`` vectors the payload
is float32 staging rows, searched exactly; the first add reaching the
threshold trains the codec and swaps the payload for the uint8 code rows of
the staged vectors.  The codec is trained once and then frozen (the
standard faiss contract); ``clear``/``rebuild`` reset it.

Optional **exact re-ranking**: with ``rescore > 1`` a search first selects
``top_k · rescore`` candidates by the fast quantized scores, then recomputes
those candidates' scores in float64 against the dequantized codes and ranks
the final ``top_k`` from that — tightening the ordering at a per-query cost
proportional to ``top_k · rescore`` instead of ``n``.

Optional **IVF routing** (``routed=True``, registered as ``"ivf+sq8"``):
the same spherical-k-means coarse quantizer as
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
from repro.index.codecs import ScalarQuantizer
from repro.index.postings import det_topk, topk_hits
from repro.index.routing import RoutedIndex, Router, training_sample
from repro.index.store import _MIN_CAPACITY, RowStore

# Rows per encode/decode block: bounds the temporary float matrices.
_ENCODE_BLOCK = 16384
# Query-batch ceiling for the latency-path unrouted scan: the whole batch is
# scored per chunk by one fused cast+gemm into scratch, each chunk's survivors
# are cut by the deterministic ``det_topk``, and a single query may stop
# early.  Larger batches take the batched-throughput gemm path, whose
# per-query cost is already amortized.
_SMALL_BATCH_MAX = 4


class QuantizedIndex(RoutedIndex, RowStore):
    """Cosine index over int8 scalar-quantized code rows.

    Registered as ``"sq8"`` and, with ``routed=True``, ``"ivf+sq8"`` (see
    :mod:`repro.index.registry`).

    Parameters
    ----------
    dim, initial_capacity, chunk_size:
        Storage-layer knobs, identical to :class:`~repro.index.FlatIndex`.
    min_train_size, train_sample:
        The codec (and routing) train on the first ``min_train_size`` rows,
        subsampled to at most ``train_sample``.
    rescore:
        Exact-rescore multiplier R — each query's ``top_k·R`` best
        candidates by quantized score are re-ranked in float64 against the
        dequantized codes (1 disables).
    routed:
        Enable IVF coarse routing over the quantized rows.
    nlist, nprobe, kmeans_iters, repartition_growth, auto_repartition, prune_probes:
        Routing knobs, see :class:`repro.index.routing.Router`.
    seed:
        Seeds training-sample selection and every k-means.
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
        self._codec = ScalarQuantizer()
        self._min_train_size = int(min_train_size)
        self._train_sample = int(train_sample)
        self._rescore = int(rescore)
        self._routed = bool(routed)
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._layout_clustered = False  # rows grouped cell-major on disk?
        # Built for unrouted instances too (it stays untrained and empty, and
        # keeps an empty row map of its own — it never gathers): they share
        # the nprobe/prune_probes/scan_stats surface.
        self._router = Router(
            np.float32,
            self._scratch,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            auto_repartition=auto_repartition,
            prune_probes=prune_probes,
            row_map=self._row_map if self._routed else None,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def codec(self) -> ScalarQuantizer:
        """The codec whose code rows this index stores."""
        return self._codec

    @property
    def is_trained(self) -> bool:
        """Whether the codec exists (False → exact float32 staging scans)."""
        return self._codec.is_trained

    @property
    def routed(self) -> bool:
        """Whether IVF coarse routing is enabled for this instance."""
        return self._routed

    @property
    def code_width(self) -> Optional[int]:
        """Bytes of quantized payload per stored vector (None while unset)."""
        if self._dim is None:
            return None
        return int(self._codec.code_width(self._dim))

    @property
    def rescore(self) -> int:
        """Exact-rescore multiplier R (top-k·R candidates re-ranked in f64)."""
        return self._rescore

    @property
    def codec_nbytes(self) -> int:
        """Bytes of the trained codec tables (scale + offset)."""
        return int(self._codec.nbytes)

    @property
    def scan_nbytes(self) -> int:
        """Bytes of the scan-acceleration structures (the scratch arena).

        Deliberately separate from :attr:`nbytes` / :attr:`codec_nbytes` /
        :attr:`routing_nbytes`: those report the storage the paper's memory
        accounting tracks, while these buffers exist purely to keep the hot
        path allocation-free and can be dropped (``clear``) without losing
        any state.
        """
        return int(self._scratch.nbytes)

    def get(self, id: int) -> np.ndarray:
        """The stored vector for ``id``.

        Exact while the index is untrained (float staging); after training
        the reconstruction is the dequantized code times the cached norm —
        approximate by design.
        """
        row = self._id_to_row.get(int(id))
        if row is None:
            raise KeyError(f"no vector with id {id}")
        if self._codec.is_trained:
            unit = self._codec.decode(self._rows[row : row + 1], dtype=np.float64)[0]
        else:
            unit = np.asarray(self._rows[row], dtype=np.float64)
        return unit * float(self._norms[row])

    # ------------------------------------------------------------------ #
    # Storage layout: float32 staging rows, then uint8 code rows
    # ------------------------------------------------------------------ #
    def _row_layout(self) -> Tuple[int, np.dtype]:
        """Code rows once the codec is trained, float32 staging rows before."""
        if self._codec.is_trained:
            width = self._codec.code_width(self._dim) if self._dim else 0
            return width, np.dtype(np.uint8)
        return self._dim or 0, np.dtype(np.float32)

    def _encode_rows(self, unit: np.ndarray) -> np.ndarray:
        """Quantize once trained; staging rows are stored as-is."""
        return self._codec.encode(unit) if self._codec.is_trained else unit

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _train(self) -> None:
        """Train codec (once) + routing on the staged rows, encode, drop staging."""
        rows = self._rows[: self._size]
        sample = training_sample(rows, self._train_sample, self._rng)
        self._codec.train(sample)
        codes = np.empty(
            (self._rows.shape[0], self._codec.code_width(self._dim)), dtype=np.uint8
        )
        for start in range(0, self._size, _ENCODE_BLOCK):
            block = rows[start : start + _ENCODE_BLOCK]
            codes[start : start + block.shape[0]] = self._codec.encode(block)
        if self._routed:
            self._fit_routing(rows, sample)
        else:
            # Snapshots record the codec's training size either way.
            self._router.trained_size = self._size
        self._rows = codes  # the float staging rows are dropped here

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
            rows[start : start + chunk.shape[0]] = self._codec.decode(chunk)
        self._fit_routing(
            rows, training_sample(rows, self._train_sample, self._rng)
        )

    # ------------------------------------------------------------------ #
    # Scan upkeep (pruning bound stats, cell-major layout)
    # ------------------------------------------------------------------ #
    def _scored_rows(self, start: int, stop: int) -> np.ndarray:
        """Code rows ``[start, stop)`` decoded: the probe-pruning bound must
        cover the *reconstructed* rows the scan actually scores, not the
        exact originals."""
        return self._codec.decode(self._rows[start:stop], dtype=np.float64)

    def _compact_layout(self) -> None:
        """Reorder storage cell-major: each cell's codes become one
        contiguous ascending-row range.

        The routed scan scores candidates in ascending row order (see
        :func:`probe_scan_batched`); with arrival-order storage those rows
        are scattered across the whole code matrix — at 10⁶ entries a
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
        ids, cells = self._ids[:n], self._router.cells[:n]
        # Cell-major, ascending id within a cell: one argsort of a (cell, id)
        # key, which is unique because the ids are.
        base = int(ids.min())
        span = int(ids.max()) - base + 1
        order = np.argsort(cells * span + (ids - base))  # new row -> old row
        self._rows[:n] = self._rows[:n].take(order, axis=0)
        self._norms[:n] = self._norms[:n].take(order)
        ids[:] = ids.take(order)
        cells[:] = cells.take(order)
        self._row_map.remap_block(ids, 0)
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
        if not self._codec.is_trained:
            if self._size >= self._min_train_size:
                self._train()
            return
        if self._routed:
            self._layout_clustered = False
            if refit_due:
                self._retrain_routing()

    def _post_remove(self, id: int, row: int, moved_id: Optional[int]) -> None:
        if self._routed:
            self._router.note_removed(id, row, self._size)
            self._layout_clustered = False

    def _post_clear(self) -> None:
        self._codec.reset()
        self._router.clear()
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
            unit = sc.get("query.unit", Q.shape, np.float64)
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
        pipeline is a pure function of the score values — which is what
        lets ``tests/reference_scan.py`` check a scan against a plain
        decode-and-rescore oracle exactly (with ``rescore == 1`` the raw
        scan scores are the final scores and only agree within codec error).
        """
        n = cand_scores.shape[0]
        if self._rescore > 1:
            keff = min(top_k * self._rescore, n)
            if keff < n:
                keep = det_topk(cand_scores, keff)
                cand_rows = cand_rows[keep]
                cand_scores = cand_scores[keep]
            decoded = self._codec.decode(self._rows[cand_rows], dtype=np.float64)
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
        for a single query; ignored while untrained).  ``prenormalized=True``
        skips query normalization as in :meth:`FlatIndex.search`.
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

        if not self._codec.is_trained:
            # Staging phase is bounded by min_train_size: one matmul is fine.
            scores = Qf @ self._rows[: self._size].T
            return [
                topk_hits(
                    self._ids[: self._size], scores[qi], top_k, score_threshold
                )
                for qi in range(n_queries)
            ]

        if self._router.is_trained:
            # The router runs the probe loop over the codec's per-query
            # gathered-rows scorers (gathers, casts and scores in scratch).
            return self._router.search(
                Qf,
                self._codec.row_scorers(Qf, self._rows, self._scratch),
                lambda qi, rows, scores: self._rank(
                    rows, scores, unit[qi], top_k, score_threshold
                ),
                self._scored_rows,
                top_k * self._rescore if self._rescore > 1 else top_k,
                np.float32,
                stop_score=stop_score,
            )

        if n_queries <= _SMALL_BATCH_MAX:
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
        """Latency-path flat scan (≤ ``_SMALL_BATCH_MAX`` queries).

        The codec scores each chunk for the whole batch in a single blocked
        cast+gemm pass with every intermediate in scratch.  Each chunk's
        ``keff`` survivors are selected with the deterministic
        :func:`det_topk`, so the candidate set is a pure function of the scan
        scores.  Early stop applies to a single query.
        """
        n = self._size
        n_queries = Qf.shape[0]
        sc = self._scratch
        chunk = self._chunk_size
        keff = min(max(top_k * self._rescore, top_k), n)
        cap = min(keff * -(-n // chunk), n)
        score = self._codec.chunk_scorer(Qf, self._rows, min(chunk, n), sc)
        acc_rows = sc.get("flat.acc_rows", (n_queries, cap), np.int64)
        acc_scores = sc.get("flat.acc_scores", (n_queries, cap), np.float64)
        fills = [0] * n_queries
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            S = score(start, stop)
            kk = min(keff, stop - start)
            for j in range(n_queries):
                sel = det_topk(S[j], kk)
                cnt = sel.shape[0]
                seg = acc_rows[j, fills[j] : fills[j] + cnt]
                seg[:] = sel
                seg += start
                acc_scores[j, fills[j] : fills[j] + cnt] = S[j][sel]
                fills[j] += cnt
            if (
                stop_score is not None
                and n_queries == 1
                and float(acc_scores[0, : fills[0]].max()) >= stop_score
            ):
                self._router.scan_stats["early_stops"] += 1
                break
        return [
            self._rank(
                acc_rows[j, : fills[j]],
                acc_scores[j, : fills[j]],
                unit64[j],
                top_k,
                score_threshold,
            )
            for j in range(n_queries)
        ]

    def _search_flat_batch(
        self,
        Qf: np.ndarray,
        unit64: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
    ) -> List[List[IndexHit]]:
        """Batched-throughput flat scan (> ``_SMALL_BATCH_MAX`` queries).

        Chunked :meth:`ScalarQuantizer.scores
        <repro.index.codecs.ScalarQuantizer.scores>` gemms with an
        ``argpartition`` cut per chunk.
        """
        n_queries = Qf.shape[0]
        keff = min(max(top_k * self._rescore, top_k), self._size)
        chunk_rows: List[np.ndarray] = []
        chunk_scores: List[np.ndarray] = []
        for start in range(0, self._size, self._chunk_size):
            stop = min(start + self._chunk_size, self._size)
            S = self._codec.scores(Qf, self._rows[start:stop])
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

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    @property
    def snapshot_backend(self) -> str:
        """The registry name of this composition: ``sq8``, ``ivf+sq8`` when routed."""
        return ("ivf+" if self._routed else "") + self._codec.name

    def _snapshot_params(self) -> Dict[str, object]:
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
        }

    def _snapshot_state(self) -> Dict[str, object]:
        return {
            "dim": self._dim,
            "next_id": self._next_id,
            "trained": bool(self._codec.is_trained),
            **self._router.snapshot_state(),
            "layout_clustered": self._layout_clustered,
            "rng_state": self._rng.bit_generator.state,
        }

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        if not self._codec.is_trained:
            return self._snapshot_rows("staging")
        arrays = self._snapshot_rows("codes")
        arrays.update(self._codec.snapshot_arrays())
        arrays.update(self._router.snapshot_arrays("rt_"))
        return arrays

    def _restore(self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> None:
        self.clear(reset_ids=True)
        trained = bool(state["trained"])
        if trained:
            self._codec.restore_arrays(arrays)
        # The routed variants rebuild inverted lists anyway, so they always
        # copy (which also fills the row map their scans gather through);
        # unrouted ones adopt a mapped code (or staging) matrix.
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
        # survives the round trip and the flag can be restored as-is; cell
        # stats recompute lazily.
        self._layout_clustered = bool(state.get("layout_clustered", False))
        self._restore_rng(state)
