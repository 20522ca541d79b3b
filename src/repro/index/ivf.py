"""IVF (inverted-file) index: k-means-partitioned sublinear cosine search.

:class:`IVFIndex` keeps the exact same pre-normalized float32 row storage as
:class:`repro.index.FlatIndex` (it *is* a ``FlatIndex`` underneath — same
amortized-O(1) appends, swap-with-last deletes, id-centric API) and adds a
coarse quantizer on top:

* the stored vectors are partitioned into ``nlist`` Voronoi cells by
  spherical k-means over the unit rows (centroids live on the unit sphere,
  assignment is by maximum dot product — i.e. cosine);
* each cell owns an **inverted list** of the ids assigned to it;
* a query scores the ``nlist`` centroids (one small matmul), picks the
  ``nprobe`` nearest cells and brute-forces only their lists.

Per-query work drops from O(n·d) to O(nlist·d + (nprobe/nlist)·n·d) — with
``nlist ≈ √n`` and a fixed ``nprobe`` that is sublinear in n, which is what
lets a cache keep sub-millisecond lookups past 10⁵ entries
(``BENCH_index.json`` tracks the measured recall/throughput trade-off).

Incrementality
--------------
The index trains itself lazily: below ``min_train_size`` entries it searches
exactly (flat scan — small caches lose nothing), and the first add that
reaches the threshold triggers k-means and builds the lists.  Further adds
are assigned to their nearest centroid in O(nlist·d); removals pop the id
from its list in O(list length).  As the corpus changes, cell assignments
drift away from the (stale) centroids, so the index retrains and
repartitions in full when either the *size* or the *mutation count*
(adds + removes) since the last training passes ``repartition_growth ×``
the trained size — the latter covers capacity-bounded caches whose size
plateaus while eviction churn replaces their contents.  Amortized O(d)
per mutation, same as the storage layer's capacity doubling.

Search is approximate: a true neighbour whose cell was not probed is
missed.  Raise ``nprobe`` (recall) or lower it (throughput);
``nprobe = nlist`` degenerates to exact search in list order.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.index.base import IndexHit
from repro.index.flat import FlatIndex
from repro.index.postings import topk_hits
from repro.index.routing import RoutedIndex, Router, ScoreRows, training_sample
from repro.index.store import _MIN_CAPACITY


class IVFIndex(RoutedIndex, FlatIndex):
    """Approximate incremental cosine index over k-means inverted lists.

    Parameters
    ----------
    dim, dtype, initial_capacity, chunk_size:
        Storage-layer knobs, identical to :class:`FlatIndex`.
    nlist, nprobe, kmeans_iters, repartition_growth, auto_repartition, prune_probes:
        Routing knobs, see :class:`repro.index.routing.Router`.
    min_train_size:
        Below this many entries the index stays untrained and searches
        exactly; the first add reaching it triggers k-means.
    train_sample:
        Maximum rows fed to k-means (a uniform sample of the live rows when
        the corpus is larger).
    seed:
        Seeds k-means init and sampling; a given add/remove sequence is
        fully deterministic.
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        dtype: np.dtype = np.float32,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        min_train_size: int = 256,
        train_sample: int = 32768,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        seed: int = 0,
        auto_repartition: bool = True,
        prune_probes: bool = True,
    ) -> None:
        if min_train_size < 2:
            raise ValueError("min_train_size must be >= 2")
        if train_sample < 2:
            raise ValueError("train_sample must be >= 2")
        super().__init__(
            dim=dim, dtype=dtype, initial_capacity=initial_capacity, chunk_size=chunk_size
        )
        self._min_train_size = int(min_train_size)
        self._train_sample = int(train_sample)
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._router = Router(
            self._dtype,
            self._scratch,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            auto_repartition=auto_repartition,
            prune_probes=prune_probes,
            row_map=self._row_map,
        )

    @property
    def is_trained(self) -> bool:
        """Whether the coarse quantizer exists (False → exact flat scans)."""
        return self._router.is_trained

    # ------------------------------------------------------------------ #
    # Training / maintenance
    # ------------------------------------------------------------------ #
    def _scored_rows(self, start: int, stop: int) -> np.ndarray:
        """Storage rows ``[start, stop)`` — what the scan scores, verbatim."""
        return self._rows[start:stop]

    def _train(self) -> None:
        """(Re)fit centroids on the live rows and rebuild every inverted list."""
        rows = self._rows[: self._size]
        self._router.fit(
            rows,
            training_sample(rows, self._train_sample, self._rng),
            self._ids[: self._size],
            self._rng,
        )

    def maintenance(self) -> Dict[str, object]:
        """Run deferred repartitioning and bound-stat refreshes off-query.

        With ``auto_repartition=False`` the growth/churn-triggered retraining
        is deferred to this hook; it also precomputes the probe-pruning
        stats so the first search after a (re)partition doesn't pay for them.
        """
        done: Dict[str, object] = {}
        if self._router.repartition_due:
            self._train()
            done["repartitioned"] = True
            done["trained_size"] = self._router.trained_size
        if self._router.refresh_cell_stats(self._scored_rows):
            done["cell_stats_refreshed"] = True
        return done

    # ------------------------------------------------------------------ #
    # Mutation hooks (storage layer calls these after each change)
    # ------------------------------------------------------------------ #
    def _post_add(self, ids: np.ndarray, start_row: int, unit: np.ndarray) -> None:
        block = self._rows[start_row : start_row + ids.shape[0]]
        refit_due = self._router.note_added(
            ids, start_row, block, self._scored_rows
        )
        if refit_due or (
            not self._router.is_trained and self._size >= self._min_train_size
        ):
            self._train()

    def _post_remove(self, id: int, row: int, moved_id: Optional[int]) -> None:
        self._router.note_removed(id, row, self._size)

    def _post_clear(self) -> None:
        self._router.clear()

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    snapshot_backend = "ivf"

    def _snapshot_params(self) -> Dict[str, object]:
        params = super()._snapshot_params()
        params.update(self._router.snapshot_params())
        params.update(
            {
                "min_train_size": self._min_train_size,
                "train_sample": self._train_sample,
                "seed": self._seed,
            }
        )
        return params

    def _snapshot_state(self) -> Dict[str, object]:
        state = super()._snapshot_state()
        state.update(self._router.snapshot_state())
        state["rng_state"] = self._rng.bit_generator.state
        return state

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        arrays = super()._snapshot_arrays()
        arrays.update(self._router.snapshot_arrays(""))
        return arrays

    def _restore(
        self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> None:
        super()._restore(state, arrays)
        # The probe scans gather through the row map: fill it now even after
        # a zero-copy (mmap) restore, which defers it.
        self._fill_row_map()
        # Use the snapshot's id column, not self._ids — a trained index
        # drained to empty restores with no storage allocated at all.
        self._router.restore(
            state, arrays, np.asarray(arrays["ids"], dtype=np.int64), ""
        )
        self._restore_rng(state)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    supports_stop_score = True

    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
        *,
        stop_score: Optional[float] = None,
        prenormalized: bool = False,
    ) -> List[List[IndexHit]]:
        """Probe the ``nprobe`` nearest cells per query and rank their lists.

        Exact (inherited flat scan) while the index is untrained; afterwards
        each query costs one ``(1, nlist)`` centroid matmul plus a
        brute-force pass over the probed lists only (see
        :meth:`repro.index.routing.Router.search` for the two scan modes and
        what ``stop_score`` trades away).  ``prenormalized=True`` skips query
        normalization as in :meth:`FlatIndex.search`.  All intermediates
        live in reused scratch buffers; the only per-call allocations are
        the returned hit lists.
        """
        if not self._router.is_trained:
            return super().search(
                queries,
                top_k=top_k,
                score_threshold=score_threshold,
                prenormalized=prenormalized,
            )
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if prenormalized:
            Q = np.atleast_2d(np.asarray(queries))
        else:
            Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self._size == 0:
            return [[] for _ in range(Q.shape[0])]
        Qn = self._prepare_queries(Q, prenormalized)
        sc = self._scratch
        matrix = self._rows

        def scorer(qi: int) -> ScoreRows:
            qn = Qn[qi]

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

        return self._router.search(
            Qn,
            scorer,
            rank,
            self._scored_rows,
            top_k,
            self._dtype,
            stop_score=stop_score,
        )
