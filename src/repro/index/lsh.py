"""Random-hyperplane LSH index with multi-table, multi-probe search.

:class:`LSHIndex` shares the flat storage layer (pre-normalized float32
rows, O(1) appends, swap-deletes — it subclasses
:class:`repro.index.FlatIndex`) and routes queries through locality-sensitive
hashing instead of a learned partition:

* each of ``n_tables`` tables draws ``n_bits`` random hyperplanes (Gaussian
  normals); a vector's bucket key in a table is the sign pattern of its
  ``n_bits`` projections, packed into an integer;
* two unit vectors at angle θ agree on one hyperplane with probability
  ``1 − θ/π`` (Goemans–Williamson), so near-duplicates — the traffic a
  semantic cache converts into hits — land in the same bucket with high
  probability while unrelated queries scatter;
* a search hashes the query once per table and brute-forces the union of
  the matched buckets.  With ``multiprobe ≥ 1`` it additionally probes, per
  table, the ``multiprobe`` buckets reached by flipping the query's
  *least-confident* key bits — the ones whose projection lies closest to
  the hyperplane, i.e. the bits most likely to disagree with a true
  neighbour's signature (directed multi-probe, Lv et al., VLDB 2007).
  Each probe is one extra bucket per table, so recall rises steeply for a
  near-constant candidate-set cost — far cheaper than adding tables.

Unlike IVF there is no training step: hashing works from the first insert,
add/remove are O(n_tables) dictionary updates, and the structure never needs
repartitioning.  The trade-off is that recall is workload-dependent — keys
collide by angle only, so queries far from every stored vector can return
fewer than ``top_k`` candidates (or none), which a cache interprets as a
miss anyway.

Determinism: hyperplanes derive from ``seed`` alone, and bucket keys are
computed from the stored (already normalized, storage-dtype) rows at both
insert and remove time, so the table state is reproducible for a given
operation sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.index.base import IndexHit
from repro.index.flat import FlatIndex
from repro.index.postings import Postings, RowMap, topk_hits
from repro.index.store import _MIN_CAPACITY


class LSHIndex(FlatIndex):
    """Approximate incremental cosine index over random-hyperplane buckets.

    Parameters
    ----------
    dim, dtype, initial_capacity, chunk_size:
        Storage-layer knobs, identical to :class:`FlatIndex`.
    n_tables:
        Independent hash tables.  More tables → higher recall, linearly more
        memory and per-op hashing work.
    n_bits:
        Hyperplanes (key bits) per table.  More bits → smaller buckets
        (≈ ``n / 2^n_bits`` ids each) → faster scans but lower per-table
        collision probability; size it so buckets hold a few dozen ids.
    multiprobe:
        Extra buckets probed per table by flipping the query's
        ``multiprobe`` least-confident key bits, one at a time
        (0 = exact buckets only).  Probed buckets per table is
        ``1 + multiprobe``.
    seed:
        Seeds the hyperplane draw.
    """

    def __init__(
        self,
        dim: Optional[int] = None,
        dtype: np.dtype = np.float32,
        initial_capacity: int = _MIN_CAPACITY,
        chunk_size: int = 65536,
        n_tables: int = 8,
        n_bits: int = 13,
        multiprobe: int = 3,
        seed: int = 0,
    ) -> None:
        if n_tables < 1:
            raise ValueError("n_tables must be >= 1")
        if not 1 <= n_bits <= 62:
            raise ValueError("n_bits must be in [1, 62]")
        if not 0 <= multiprobe <= n_bits:
            raise ValueError("multiprobe must be in [0, n_bits]")
        super().__init__(
            dim=dim, dtype=dtype, initial_capacity=initial_capacity, chunk_size=chunk_size
        )
        self._n_tables = int(n_tables)
        self._n_bits = int(n_bits)
        self._multiprobe = int(multiprobe)
        self._seed = int(seed)
        self._planes: Optional[np.ndarray] = None  # (n_tables * n_bits, d)
        self._powers = (1 << np.arange(n_bits, dtype=np.int64))
        # One dict of bucket-key -> Postings per table.
        self._tables: List[Dict[int, Postings]] = [{} for _ in range(n_tables)]
        # Insert-time bucket keys per id, (n_tables,) each — consulted on
        # removal so deletes never depend on recomputing a borderline sign.
        self._keys_of: Dict[int, np.ndarray] = {}
        self._row_of = RowMap()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_tables(self) -> int:
        """Number of independent hash tables."""
        return self._n_tables

    @property
    def n_bits(self) -> int:
        """Key bits (hyperplanes) per table."""
        return self._n_bits

    @property
    def multiprobe(self) -> int:
        """Maximum Hamming distance of additionally probed bucket keys."""
        return self._multiprobe

    @property
    def routing_nbytes(self) -> int:
        """Bytes of the routing structures (planes + buckets + row map).

        Kept separate from :attr:`nbytes`, which across every backend counts
        only the live row storage.
        """
        total = self._row_of.nbytes
        if self._planes is not None:
            total += int(self._planes.nbytes)
        for table in self._tables:
            total += sum(p.nbytes for p in table.values())
        total += sum(k.nbytes for k in self._keys_of.values())
        return int(total)

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    def _ensure_planes(self) -> np.ndarray:
        if self._planes is None:
            rng = np.random.default_rng(self._seed)
            self._planes = np.ascontiguousarray(
                rng.standard_normal((self._n_tables * self._n_bits, self._dim)),
                dtype=self._dtype,
            )
        return self._planes

    def _project(self, unit_rows: np.ndarray) -> np.ndarray:
        """Signed hyperplane projections, shaped ``(n, n_tables, n_bits)``."""
        planes = self._ensure_planes()
        return (unit_rows @ planes.T).reshape(-1, self._n_tables, self._n_bits)

    def _keys(self, projections: np.ndarray) -> np.ndarray:
        """Bucket key per (row, table): sign pattern packed into an int64."""
        return (projections > 0) @ self._powers  # (n, n_tables)

    def _hash(self, unit_rows: np.ndarray) -> np.ndarray:
        """Bucket key per (row, table) for the insert/remove path."""
        return self._keys(self._project(unit_rows))

    # ------------------------------------------------------------------ #
    # Mutation hooks (storage layer calls these after each change)
    # ------------------------------------------------------------------ #
    def _post_add(self, ids: np.ndarray, start_row: int, unit: np.ndarray) -> None:
        # Hashes the *stored* storage-dtype rows, not the float64 ``unit``:
        # restore re-hashes from storage alone and must rebuild equal tables.
        self._row_of.set_block(ids, start_row)
        rows = self._rows[start_row : start_row + ids.shape[0]]
        keys = self._hash(rows)
        for i, id in enumerate(ids.tolist()):
            # copy(): a view of `keys` would pin the whole batch's key
            # matrix in memory for as long as any single id survives.
            id_keys = keys[i].copy()
            self._keys_of[id] = id_keys
            for t in range(self._n_tables):
                bucket = self._tables[t].get(int(id_keys[t]))
                if bucket is None:
                    bucket = self._tables[t][int(id_keys[t])] = Postings()
                bucket.append(id)

    def _post_remove(self, id: int, row: int, moved_id: Optional[int]) -> None:
        self._row_of.swap_remove(id, row, moved_id, self._ids[: self._size])
        id_keys = self._keys_of.pop(id)
        for t in range(self._n_tables):
            key = int(id_keys[t])
            bucket = self._tables[t][key]
            bucket.discard(id)
            if not len(bucket):
                del self._tables[t][key]

    def _post_clear(self) -> None:
        self._tables = [{} for _ in range(self._n_tables)]
        self._keys_of = {}
        self._row_of.clear()
        if self._dim is None:
            # Data-driven dim unpinned: the next corpus may have another
            # dimensionality, so the hyperplanes must be redrawn for it.
            self._planes = None

    # ------------------------------------------------------------------ #
    # Snapshot protocol (see repro.index.snapshot)
    # ------------------------------------------------------------------ #
    # Only the flat storage is serialized: the hyperplanes derive from
    # ``seed`` and bucket keys are computed from the stored storage-dtype
    # rows, so re-hashing on restore rebuilds byte-identical tables.
    snapshot_backend = "lsh"

    def _snapshot_params(self) -> "Dict[str, object]":
        params = super()._snapshot_params()
        params.update(
            {
                "n_tables": self._n_tables,
                "n_bits": self._n_bits,
                "multiprobe": self._multiprobe,
                "seed": self._seed,
            }
        )
        return params

    def _post_restore(self) -> None:
        if self._size:
            self._post_add(
                self._ids[: self._size].copy(), 0, self._rows[: self._size]
            )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _candidates(self, probe_keys: List[List[int]]) -> Optional[np.ndarray]:
        """Union of the probed buckets' ids for one query (None when empty).

        ``probe_keys`` holds, per table, the exact key followed by the
        directed multi-probe keys.
        """
        chunks: List[np.ndarray] = []
        for t, keys in enumerate(probe_keys):
            table = self._tables[t]
            for probe_key in keys:
                bucket = table.get(probe_key)
                if bucket is not None:
                    # Inlined Postings.view(): this runs n_tables ×
                    # (1 + multiprobe) times per query.
                    chunks.append(bucket._ids[: bucket._size])
        if not chunks:
            return None
        # An id can appear in several tables' buckets; the duplicates are
        # NOT removed here — topk_hits dedupes the few winners instead,
        # which is far cheaper than a per-query np.unique over the union.
        # Per-probe, bounded by tables*(1+multiprobe) small bucket views —
        # not a per-entry O(n) rebuild.  # repro: ignore[RPL003]
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
    ) -> List[List[IndexHit]]:
        """Hash each query, brute-force the union of its probed buckets.

        A query costs ``n_tables × n_bits`` projections plus one scoring
        pass over the candidate union; with ``multiprobe`` the buckets of
        the least-confident bit flips are probed as well.  Hit lists may
        hold fewer than ``min(top_k, len(self))`` entries — queries far
        from everything stored may collide with nothing, which callers
        treat as a miss.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = Q.shape[0]
        if self._size == 0:
            return [[] for _ in range(n_queries)]
        Qn = self._prepare_queries(Q, prenormalized=False)
        projections = self._project(Qn)  # (q, n_tables, n_bits)
        exact_keys = self._keys(projections)  # (q, n_tables)
        if self._multiprobe > 0:
            # Directed multi-probe: per table, flip the bits whose
            # projection sits closest to its hyperplane — the likeliest
            # sign disagreements with a true neighbour.
            mp = self._multiprobe
            flip_bits = np.argpartition(np.abs(projections), kth=mp - 1, axis=2)[
                :, :, :mp
            ]
            deltas = self._powers[flip_bits]  # (q, n_tables, mp)
            # One (q, n_tables, 1+mp) key tensor per *batch*, sized by the
            # multiprobe budget, not the index.  # repro: ignore[RPL003]
            probe_keys = np.concatenate(
                [exact_keys[:, :, None], exact_keys[:, :, None] ^ deltas], axis=2
            )
        else:
            probe_keys = exact_keys[:, :, None]
        matrix = self._rows
        results: List[List[IndexHit]] = []
        for qi in range(n_queries):
            cand_ids = self._candidates(probe_keys[qi].tolist())
            if cand_ids is None:
                results.append([])
                continue
            rows = self._row_of.rows(cand_ids)
            scores = matrix[rows] @ Qn[qi]
            results.append(
                topk_hits(
                    cand_ids,
                    scores,
                    top_k,
                    score_threshold,
                    max_duplicates=self._n_tables,
                )
            )
        return results
