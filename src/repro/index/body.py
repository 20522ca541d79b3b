"""The one index body under every backend: row store × codec × router.

:class:`IndexBody` is the shared :class:`~repro.index.store.RowStore`
(appends, swap-deletes, id addressing), an optional codec and an optional
IVF :class:`~repro.index.routing.Router`.  The four registry names are its
configurations: ``flat``/``ivf`` have no codec, ``sq8``/``ivf+sq8`` the
:class:`~repro.index.codecs.ScalarQuantizer`, and the ``ivf`` ones route.

Every index starts with unit float rows in its ``dtype``, searched exactly.
Once ``min_train_size`` rows are stored it trains on a seeded sample of
them: the codec (if any), whose code rows then replace the float rows, and
the routing (if routed).  A flat index has no codec to train, so it stays
in that float phase forever.  The codec is trained once and frozen (the
faiss contract; ``clear``/``rebuild`` reset it).  The routing refits when
the size, or the adds and removes since the last fit, reach
``repartition_growth ×`` the size at that fit, from the dequantized rows
once the floats are gone.  A search has two branches: routed → the probe
loop over the ``nprobe`` nearest cells, with the codec's gathered-row
scorer or a float gather+gemv; everything else, at every batch size →
:func:`~repro.index.postings.exact_scan`, over rows × probes blocks
(``block @ Qs.T``) of the float rows or the codec's fused chunk scorer, cut
per probe at a block-maximum bound.  Those scan scores only cut: both
branches end in one rank (:meth:`IndexBody._rank`), which rescores the
candidates within a computed ``ε`` of the ``top_k``-th scan score with one
dot per row and lists them with :func:`~repro.index.postings.topk_hits`.
Training-sample selection, k-means init and re-seeding all derive from
``seed``, so an operation sequence reproduces bit-identical results.

:class:`~repro.index.flat.FlatIndex` and
:class:`~repro.index.quantized.QuantizedIndex` are the two registry classes,
each this body behind its own constructor.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.index.base import IndexHit
from repro.index.codecs import ScalarQuantizer
from repro.index.postings import exact_scan, topk_hits
from repro.index.routing import Router, ScoreRows, training_sample
from repro.index.store import RowStore

# Rows per encode/decode block: bounds the temporary float matrices.
_ENCODE_BLOCK = 16384
# Scores per codec scan chunk: the codec scores a whole batch's chunk into
# one float32 block in scratch, so q queries scan chunks of at most
# ``_SCORE_BLOCK // q`` rows and any batch retains at most 512 KB of scores.
_SCORE_BLOCK = 1 << 17
# Up to this many candidates, scoring them all beats finding the band.
_BAND_MIN_ROWS = 64


def _blockwise(
    fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out[:len(rows)] = fn(rows)``, ``_ENCODE_BLOCK`` rows at a time."""
    for start in range(0, rows.shape[0], _ENCODE_BLOCK):
        block = rows[start : start + _ENCODE_BLOCK]
        out[start : start + block.shape[0]] = fn(block)
    return out


class IndexBody(RowStore):
    """Cosine index over unit float rows or a codec's code rows, optionally routed.

    ``dtype`` is the float dtype of the rows (before encoding), the norms and
    the scanned queries; ``codec`` replaces the float rows once trained, or
    is ``None``.  Training starts once ``min_train_size`` rows are stored, on
    at most ``train_sample`` of them, seeded by ``seed``; an unrouted index
    without a codec never trains, builds no router and ignores these and the
    routing ``knobs`` (see :class:`repro.index.routing.Router`).
    """

    def __init__(
        self,
        dim: Optional[int],
        dtype: np.dtype,
        initial_capacity: int,
        chunk_size: int,
        codec: Optional[ScalarQuantizer],
        routed: bool,
        min_train_size: int,
        train_sample: int,
        seed: int,
        **knobs: Any,
    ) -> None:
        self._dtype = np.dtype(dtype)
        super().__init__(dim, initial_capacity, chunk_size, norm_dtype=self._dtype)
        if self._dtype.kind != "f":
            raise ValueError("dtype must be a floating-point type")
        self._codec = codec
        self._routed = bool(routed)
        self._layout_clustered = False  # code rows grouped cell-major?
        self._router: Optional[Router] = None
        if not (self._routed or codec is not None):
            return
        if min_train_size < 2:
            raise ValueError("min_train_size must be >= 2")
        if train_sample < 2:
            raise ValueError("train_sample must be >= 2")
        self._min_train_size = int(min_train_size)
        self._train_sample = int(train_sample)
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        # An unrouted codec index keeps an untrained, empty router: it shares
        # the nprobe/scan_stats surface, and its trained size records the
        # codec's.  Only a routed index gathers through the row map.
        self._router = Router(
            self._dtype,
            self._scratch,
            row_map=self._row_map if self._routed else None,
            **knobs,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        """Whether the codec (without one: the routing) is trained; False → exact scans."""
        if self._codec is not None:
            return self._codec.is_trained
        return self._router is not None and self._router.is_trained

    @property
    def routed(self) -> bool:
        """Whether searches route through IVF cells once trained."""
        return self._routed

    def _live_router(self) -> Router:
        """The router; an index without one has no routing surface at all."""
        if self._router is None:
            raise AttributeError(f"an unrouted {type(self).__name__} has no router")
        return self._router

    @property
    def trainings(self) -> int:
        """How many times this instance fitted its codec or routing."""
        return 0 if self._router is None else self._router.trainings

    @property
    def nlist(self) -> int:
        """Current number of routing cells (0 while unrouted or untrained)."""
        return 0 if self._router is None else self._router.nlist

    @property
    def nprobe(self) -> int:
        """Cells probed per routed query (the recall/throughput dial)."""
        return self._live_router().nprobe

    @nprobe.setter
    def nprobe(self, value: int) -> None:
        """Set the probe count; raise for values below 1."""
        self._live_router().nprobe = value

    @property
    def routing_nbytes(self) -> int:
        """Bytes of the routing structures (centroids + lists + row map).

        Kept separate from ``nbytes``, which across every backend counts
        only the live row storage.
        """
        return 0 if self._router is None else self._router.nbytes

    @property
    def scan_stats(self) -> Dict[str, int]:
        """Cumulative scan counters (probes and rows scanned)."""
        return dict(self._live_router().scan_stats)

    def reset_scan_stats(self) -> None:
        """Zero the :attr:`scan_stats` counters."""
        self._live_router().reset_scan_stats()

    def get(self, id: int) -> np.ndarray:
        """The stored vector for ``id``.

        Exact from the float rows; once a codec is trained, the dequantized
        code times the cached norm — approximate by design.
        """
        row = self._id_to_row.get(int(id))
        if row is None:
            raise KeyError(f"no vector with id {id}")
        if self._coded:
            unit = self._codec.decode(self._rows[row : row + 1], dtype=np.float64)[0]
        else:
            unit = np.asarray(self._rows[row], dtype=np.float64)
        return unit * float(self._norms[row])

    # ------------------------------------------------------------------ #
    # Storage layout: float rows, then (with a codec) code rows
    # ------------------------------------------------------------------ #
    @property
    def _coded(self) -> bool:
        """Whether the payload is code rows (a trained codec)."""
        return self._codec is not None and self._codec.is_trained

    def _row_layout(self) -> Tuple[int, np.dtype]:
        """Code rows once the codec is trained, float rows before (or forever)."""
        if self._coded:
            width = self._codec.code_width(self._dim) if self._dim else 0
            return width, np.dtype(np.uint8)
        return self._dim or 0, self._dtype

    def _encode_rows(self, unit: np.ndarray) -> np.ndarray:
        """Quantize once trained; float rows are stored as-is."""
        return self._codec.encode(unit) if self._coded else unit

    def _float_rows(self) -> np.ndarray:
        """The live rows as float unit rows, in row order: dequantized once coded."""
        rows = self._rows[: self._size]
        if not self._coded:
            return rows
        return _blockwise(self._codec.decode, rows, np.empty((self._size, self._dim), self._dtype))

    # ------------------------------------------------------------------ #
    # Training and routing upkeep
    # ------------------------------------------------------------------ #
    def _train(self) -> None:
        """The first fit on the stored float rows: codec (then encode), then routing."""
        rows = self._rows[: self._size]
        sample = training_sample(rows, self._train_sample, self._rng)
        if self._codec is not None:
            self._codec.train(sample)
            width = self._codec.code_width(self._dim)
            codes = np.empty((self._rows.shape[0], width), dtype=np.uint8)
            self._rows = _blockwise(self._codec.encode, rows, codes)  # the floats go
        if self._routed:
            self._refit_routing(rows, sample)
        else:
            # Snapshots record the codec's training size either way.
            self._router.trained_size = self._size
            self._router.trainings += 1

    def _refit_routing(
        self, rows: Optional[np.ndarray] = None, sample: Optional[np.ndarray] = None
    ) -> None:
        """(Re)partition the live float ``rows`` into cells fitted on ``sample``
        (by default: the live rows, and a fresh sample of them)."""
        if rows is None:
            rows = self._float_rows()
            sample = training_sample(rows, self._train_sample, self._rng)
        self._router.fit(rows, sample, self._ids[: self._size], self._rng)
        # Storage still reflects arrival order until the next maintenance().
        self._layout_clustered = False

    def _compact_layout(self) -> None:
        """Reorder a routed codec index's storage cell-major: each cell's codes
        become one contiguous ascending-row range.

        With arrival-order storage a probe gather at 10⁶ entries touches one
        ~64-byte code row per 4 KB page (DRAM-latency bound); afterwards it
        reads ``nprobe`` sequential runs.  A pure storage permutation: ids,
        cells and codes are unchanged, only the scan's BLAS summation order
        (float ulps) shifts, which the rank's band absorbs.  Float rows
        (``ivf``) keep arrival order, which their snapshots pin.
        """
        self._materialize()
        n = self._size
        ids, cells = self._ids[:n], self._router.cells[:n]
        # Cell-major, ascending id within a cell: one argsort of a (cell, id)
        # key, which is unique because the ids are.
        base = int(ids.min())
        span = int(ids.max()) - base + 1
        order = np.argsort(cells * span + (ids - base), kind="stable")  # new row -> old row
        self._rows[:n] = self._rows[:n].take(order, axis=0)
        self._norms[:n] = self._norms[:n].take(order)
        ids[:] = ids.take(order)
        cells[:] = cells.take(order)
        self._row_map.remap_block(ids, 0)
        self._layout_clustered = True

    def maintenance(self) -> Dict[str, object]:
        """Run deferred repartitioning and layout compaction off-query.

        With ``auto_repartition=False`` the growth/churn-triggered routing
        refit is deferred to this hook (the serving fleet calls it between
        batching windows); a routed codec index also groups its code storage
        cell-major here, so probe gathers read contiguous ranges.
        """
        done: Dict[str, object] = {}
        router = self._router
        if router is None:
            return done
        if router.repartition_due:
            self._refit_routing()
            done["repartitioned"] = True
            done["trained_size"] = router.trained_size
        if self._coded and router.is_trained and self._size and not self._layout_clustered:
            self._compact_layout()
            done["layout_compacted"] = True
        return done

    # ------------------------------------------------------------------ #
    # Mutation hooks (the row store calls these after each change)
    # ------------------------------------------------------------------ #
    def _post_add(self, ids: np.ndarray, start_row: int, unit: np.ndarray) -> None:
        if self._router is None:
            return
        self._layout_clustered = False
        refit_due = self._routed and self._router.note_added(ids, start_row, unit)
        if not self.is_trained:
            if self._size >= self._min_train_size:
                self._train()
        elif refit_due:
            self._refit_routing()

    def _post_remove(self, id: int, row: int, moved_id: Optional[int]) -> None:
        self._layout_clustered = False
        if self._routed:
            self._router.note_removed(id, row, self._size)

    def _post_clear(self) -> None:
        if self._codec is not None:
            self._codec.reset()
        self._layout_clustered = False
        if self._router is not None:
            self._router.clear()

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _prepare_queries(
        self, Q: np.ndarray, prenormalized: bool
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(float64 unit rows or None, unit rows in the scan dtype)``, in scratch.

        Only a trained codec index builds the float64 rows (its rank reads
        them), so a float-row scan makes no query copy it does not use.
        The default path is the store's float64 normalization
        (:meth:`RowStore._unit_queries`).  ``prenormalized=True`` asserts
        unit rows: a contiguous batch in the scan dtype passes through with
        zero copies, any other pays one cast into scratch.
        """
        if Q.shape[1] != self._dim:
            raise ValueError(f"query dim {Q.shape[1]} != index dim {self._dim}")
        coded = self._coded
        if not prenormalized:
            if not coded:
                return None, self._unit_queries(Q, self._dtype)
            unit = self._unit_queries(Q)
            source = unit
        else:
            unit = None
            if coded:
                unit = self._scratch.get("query.unit", Q.shape, np.float64)
                np.copyto(unit, Q, casting="unsafe")
            if Q.dtype == self._dtype and Q.flags.c_contiguous:
                return unit, Q
            source = Q
        out = self._scratch.get("query.cast", Q.shape, self._dtype)
        np.copyto(out, source, casting="unsafe")
        return unit, out

    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
        *,
        prenormalized: bool = False,
    ) -> List[List[IndexHit]]:
        """Batched top-k cosine search over the live rows (see the module docstring).

        Takes one ``(d,)`` query or a ``(q, d)`` batch (more dimensions raise
        ``ValueError``) and an integer ``top_k >= 1`` (``TypeError`` /
        ``ValueError`` otherwise); returns one list of :class:`IndexHit` per
        query, ranked by :func:`~repro.index.postings.topk_hits`.  Code rows
        score up to the codec's error, which ``score_threshold`` then
        filters.  ``prenormalized=True`` skips the query normalization.
        """
        try:
            top_k = operator.index(top_k)
        except TypeError:
            raise TypeError(
                f"top_k must be an integer, not {type(top_k).__name__}"
            ) from None
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        Q = np.asarray(queries, dtype=None if prenormalized else np.float64)
        if Q.ndim != 2:
            if Q.ndim > 2:
                raise ValueError(
                    f"queries must be one vector or a (q, d) batch, not shape {Q.shape}"
                )
            Q = np.atleast_2d(Q)
        if self._size == 0:
            return [[] for _ in range(Q.shape[0])]
        unit, Qs = self._prepare_queries(Q, prenormalized)
        # Decoded code rows rank against the float64 unit rows, float rows as scanned.
        rank = partial(self._rank, Qs if unit is None else unit, top_k, score_threshold)
        n, coded = self._size, self._coded
        if self._router is not None and self._router.is_trained:
            scorers = (
                self._codec.row_scorers(Qs, self._rows, self._scratch)
                if coded
                else self._float_row_scorers(Qs)
            )
            return self._router.search(Qs, scorers, rank)
        if coded:
            chunk = min(self._chunk_size, max(1, _SCORE_BLOCK // Qs.shape[0]))
            score = self._codec.chunk_scorer(Qs, self._rows, min(chunk, n), self._scratch)
        else:  # rows × probes blocks of the live float rows
            rows, chunk = self._rows[:n], self._chunk_size
            score = lambda start, stop: rows[start:stop] @ Qs.T  # noqa: E731
        return exact_scan(score, n, top_k, chunk, rank, self._band)

    def _float_row_scorers(self, Qs: np.ndarray) -> Callable[[int], ScoreRows]:
        """Gather+gemv scorers of the float rows, every buffer in scratch."""
        sc, matrix = self._scratch, self._rows

        def scorer(qi: int) -> ScoreRows:
            qn = Qs[qi]

            def score_rows(rows: np.ndarray, out: np.ndarray) -> None:
                rowbuf = sc.get("ivf.rowgather", (rows.shape[0], matrix.shape[1]), self._dtype)
                matrix.take(rows, axis=0, out=rowbuf)
                np.matmul(rowbuf, qn, out=out)

            return score_rows

        return scorer

    # ε, derived.  A row's scan score s and rank score r round one exact dot
    # product; with unit roundoff u and γ_n = n·u/(1 − n·u), a d-term dot in
    # any order is within γ_d·Σ|x_i·y_i| of it.  Float rows: s and r take the
    # same stored row and scan-dtype query, both unit to within γ_{d+2}, so
    # b = |s − r| ≤ 2·γ_d·(1 + γ_{d+2})².  Code rows (float32 scan): with
    # M = Σ|q_i|·w_i and w = 255·scale + |offset|, the scan's products and sums
    # err by γ_{d+2}·(1 + u)·M, the query's float32 cast by u·M and the float64
    # decode and dot by under u·M, so by γ_{d+4}·M in all; M ≤ ‖q‖·‖w‖ with
    # ‖q‖ ≤ 1 + γ_{d+2}, and a factor 1 + u covers ‖w‖'s rounding:
    # b ≤ γ_{d+4}·(1 + γ_{d+2})·(1 + u)·‖w‖.  With s_k the k-th best s, the k
    # rows at s ≥ s_k have r ≥ s_k − b, so the k-th best r is too, and every
    # row ranking at or above it (ties included) has s ≥ s_k − 2b: ε = 2b.
    def _band(self) -> float:
        """``ε = 2b``: twice the bound ``b`` on any row's ``|s − r|``, derived above."""
        d, u = self._dim, 2.0**-24 if self._coded else float(np.finfo(self._dtype).eps) / 2
        g, g2, g4 = (n * u / (1 - n * u) if n * u < 1 else np.inf for n in (d, d + 2, d + 4))
        if self._coded:
            return 2 * g4 * (1 + g2) * (1 + u) * self._codec.dot_bound
        return 4 * g * (1 + g2) ** 2

    def _rank(
        self,
        query: np.ndarray,
        top_k: int,
        score_threshold: Optional[float],
        qi: int,
        cand_rows: Union[np.ndarray, slice],
        cand_scores: np.ndarray,
    ) -> List[IndexHit]:
        """Query ``qi``'s hits among its scanned candidates: every search's one rank.

        The scan scores only cut.  The candidates within :meth:`_band` of the
        ``top_k``-th best (NaN below every number; all when fewer are numeric)
        are scored one dot per row against ``query[qi]`` (code rows decoded to
        float64) and ranked by :func:`topk_hits`, as a brute force would.
        """
        n = cand_scores.shape[0]
        if n > max(top_k, _BAND_MIN_ROWS):
            kth = -np.partition(-cand_scores, top_k - 1)[top_k - 1]
            if kth == kth:  # NaN: fewer than top_k are numeric, so every row ranks
                # In float64: a float32 ``kth − ε`` could round up past a row.
                band = np.flatnonzero(cand_scores >= np.float64(kth) - self._band())
                cand_rows = band if isinstance(cand_rows, slice) else cand_rows[band]
        rows = self._rows[cand_rows]
        if self._coded:
            rows = self._codec.decode(rows, dtype=np.float64)
        return topk_hits(self._ids[cand_rows], np.vecdot(rows, query[qi]), top_k, score_threshold)

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    # The codec names the arrays: a float index's rows are ``matrix`` and
    # its routing arrays unprefixed; a codec index's rows are ``staging``
    # then ``codes``, beside the codec's tables and ``rt_``-prefixed routing.
    @property
    def snapshot_backend(self) -> str:
        """The registry name of this composition: ``flat``/``ivf``, ``sq8``/``ivf+sq8``."""
        if self._codec is None:
            return "ivf" if self._routed else "flat"
        return ("ivf+" if self._routed else "") + self._codec.name

    def _array_names(self) -> Tuple[str, str]:
        """``(payload array name, routing array prefix)``."""
        if self._codec is None:
            return "matrix", ""
        return ("codes" if self._coded else "staging"), "rt_"

    def _snapshot_params(self) -> Dict[str, object]:
        dim = {"dim": self._constructor_dim}
        storage = {"initial_capacity": self._initial_capacity, "chunk_size": self._chunk_size}
        if self._router is None:
            return {**dim, "dtype": self._dtype.name, **storage}
        training = {"min_train_size": self._min_train_size, "train_sample": self._train_sample}
        routing, seed = self._router.snapshot_params(), {"seed": self._seed}
        if self._codec is None:
            return {**dim, "dtype": self._dtype.name, **storage, **routing, **training, **seed}
        return {**dim, **storage, **training, "routed": self._routed, **routing, **seed}

    def _snapshot_state(self) -> Dict[str, object]:
        state: Dict[str, object] = {"dim": self._dim, "next_id": self._next_id}
        if self._codec is not None:
            state["trained"] = bool(self._codec.is_trained)
        if self._router is not None:
            state.update(self._router.snapshot_state())
            if self._codec is not None:
                state["layout_clustered"] = self._layout_clustered
            state["rng_state"] = self._rng.bit_generator.state
        return state

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        payload, prefix = self._array_names()
        if self._rows is None:
            # Never filled, or drained and reloaded: nothing is allocated.
            width, dtype = self._row_layout()
            arrays = {
                payload: np.zeros((0, width), dtype=dtype),
                "norms": np.zeros(0, dtype=self._norm_dtype),
                "ids": np.zeros(0, dtype=np.int64),
            }
        else:
            n = self._size
            arrays = {payload: self._rows[:n], "norms": self._norms[:n], "ids": self._ids[:n]}
        if self._codec is not None:
            arrays.update(self._codec.snapshot_arrays())
        if self._router is not None:
            arrays.update(self._router.snapshot_arrays(prefix))
        return arrays

    def _restore(self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> None:
        self.clear(reset_ids=True)
        if self._codec is not None and state["trained"]:
            self._codec.restore_arrays(arrays)
        if state["dim"] is not None:
            self._check_dim(int(state["dim"]))
        payload, prefix = self._array_names()
        rows, norms = arrays[payload], np.asarray(arrays["norms"])
        # The snapshot's id column: a trained index drained to empty restores
        # with no storage allocated at all.
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        n = int(ids.shape[0])
        dtype = self._row_layout()[1]
        # A memory-mapped payload in the storage dtypes is adopted without a
        # copy (capacity == size; the id map fills on the first id-keyed
        # call, the first mutation materializes a private copy) — except by
        # a routed codec index, whose maintenance() regroups its rows in
        # place.  Anything else is copied: snapshots store the storage
        # dtypes, so those copies are bit-exact round trips.
        if (
            n
            and not (self._routed and self._codec is not None)
            and isinstance(rows, np.memmap)
            and rows.dtype == dtype
            and norms.dtype == self._norm_dtype
        ):
            self._rows, self._norms, self._ids = rows, norms, ids
            self._row_map_deferred = self._mmap_backed = True
        elif n:
            self._ensure_capacity(n)
            self._rows[:n] = np.asarray(rows, dtype=dtype)
            self._norms[:n] = np.asarray(norms, dtype=self._norm_dtype)
            self._ids[:n] = ids
            self._row_map.set_block(ids, 0)
        self._size = n
        self._next_id = int(state["next_id"])
        if self._router is None:
            return
        if self._routed:
            # The probe scans gather through the row map: fill it now even
            # after a zero-copy (mmap) restore, which defers it.
            self._fill_row_map()
        self._router.restore(state, arrays, ids, prefix)
        rng_state = state.get("rng_state")
        if rng_state is not None:
            self._rng = np.random.default_rng(self._seed)
            self._rng.bit_generator.state = rng_state
        # Snapshots preserve row order byte-for-byte, so cell-major layout
        # survives the round trip and the flag can be restored as-is.
        self._layout_clustered = bool(state.get("layout_clustered", False))
