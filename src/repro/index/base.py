"""Abstract interface of the incremental vector index.

A vector index owns the embedding matrix of a cache: entries are added one at
a time (or in batches) as queries are enrolled, removed when the eviction
policy picks a victim, and searched on every lookup.  The interface is
deliberately id-centric — callers hand the index stable integer ids and get
those same ids back from :meth:`VectorIndex.search`, so the index is free to
reorder rows internally (e.g. swap-with-last deletion) without the caller
ever tracking row positions.

:class:`repro.index.store.RowStore` implements the storage half of this
contract once for every built-in backend; out-of-tree backends (HNSW, a GPU
matrix, a sharded remote index) only need to honour the contract to slot
underneath :class:`repro.core.cache.MeanCache`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class IndexHit:
    """One search result: the stored entry's id and its cosine score."""

    id: int
    score: float


class VectorIndex(abc.ABC):
    """Contract for incremental cosine-similarity indexes.

    Implementations must keep ``search`` consistent with brute-force cosine
    similarity over the currently stored vectors (up to floating-point
    tolerance; see ``docs/api.md`` for the float32 note).
    """

    @abc.abstractmethod
    def add(self, vector: np.ndarray, id: Optional[int] = None) -> int:
        """Insert one vector; returns its id (auto-assigned when ``id`` is None)."""

    @abc.abstractmethod
    def add_batch(self, vectors: np.ndarray, ids: Optional[Sequence[int]] = None) -> List[int]:
        """Insert many vectors at once; returns their ids in order."""

    @abc.abstractmethod
    def remove(self, id: int) -> None:
        """Delete one vector by id; raises ``KeyError`` for unknown ids."""

    @abc.abstractmethod
    def search(
        self,
        queries: np.ndarray,
        top_k: int = 5,
        score_threshold: Optional[float] = None,
    ) -> List[List[IndexHit]]:
        """Batched top-k cosine search; one hit list per query row."""

    @abc.abstractmethod
    def rebuild(self, vectors: np.ndarray, ids: Sequence[int]) -> None:
        """Replace the whole index contents (e.g. after re-embedding)."""

    @abc.abstractmethod
    def get(self, id: int) -> np.ndarray:
        """Return the stored (un-normalized) vector for ``id``."""

    @abc.abstractmethod
    def clear(self, reset_ids: bool = True) -> None:
        """Drop every vector; ``reset_ids=False`` keeps auto-ids monotonic.

        ``MeanCache`` relies on both forms (``reset_ids=False`` during
        re-embedding), so backends must honour the parameter.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored vectors."""

    @property
    @abc.abstractmethod
    def dim(self) -> Optional[int]:
        """Vector dimensionality, or None while the index is empty and unset."""

    @property
    @abc.abstractmethod
    def ids(self) -> List[int]:
        """Ids of the stored vectors (internal row order)."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes used by the live rows (matrix + cached norms + ids)."""

    def __contains__(self, id: int) -> bool:
        try:
            self.get(id)
        except KeyError:
            return False
        return True

    #: Bytes of trained codec tables / routing structures kept beside the
    #: rows ``nbytes`` counts; backends that have them override with a
    #: property, so storage accounting reads them without probing.
    codec_nbytes: int = 0
    routing_nbytes: int = 0

    @property
    def storage_nbytes(self) -> int:
        """Every byte of vector state: ``nbytes`` + codec + routing tables."""
        return int(self.nbytes) + int(self.codec_nbytes) + int(self.routing_nbytes)

    #: Whether ``search`` accepts the optional ``stop_score`` keyword
    #: (threshold-aware early termination).  Callers such as
    #: :func:`repro.core.pipeline.search_candidates` check this capability flag
    #: instead of the signature, so backends without the feature (and test
    #: doubles) keep working unchanged.
    supports_stop_score: bool = False

    def maintenance(self) -> Dict[str, object]:
        """Run deferred background work (repartitioning, compaction).

        Backends that defer expensive reorganization off the query path
        (e.g. IVF repartition/retraining with ``auto_repartition=False``)
        perform it here; the serving fleet calls this between batching
        windows.  The base implementation is a no-op.  Returns a small
        summary dict of the work performed (empty when nothing was due).
        """
        return {}

    # ------------------------------------------------------------------ #
    # Snapshot protocol (JSON manifest + per-array .npy persistence)
    # ------------------------------------------------------------------ #
    #: The registry name written into snapshot manifests, or None for
    #: backends that do not support persistence.  Concrete backends either
    #: set a class attribute or expose a property (the quantized backends'
    #: name depends on whether routing is enabled).
    snapshot_backend: Optional[str] = None

    def save(self, path: "str | Path") -> Path:
        """Snapshot the live index state to a directory, atomically.

        Stages a versioned ``manifest.json`` (backend name, constructor
        parameters, scalar state) plus raw per-array ``.npy`` files of the
        live numpy state under ``arrays/``, then publishes the directory
        with one rename; :func:`repro.index.load_index` rebuilds an
        identical index from it (``mmap=True`` adopts the storage matrix
        without copying).  Raises
        :class:`repro.index.snapshot.SnapshotError` for backends without
        snapshot support.
        """
        from repro.index.snapshot import save_index

        return save_index(self, path)

    def _snapshot_params(self) -> Dict[str, object]:
        """Constructor kwargs that rebuild an empty equivalent instance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )

    def _snapshot_state(self) -> Dict[str, object]:
        """JSON-serializable scalar state (next id, training counters, …)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )

    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """The live numpy state, keyed for the snapshot's array files."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )

    def _restore(
        self, state: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Reinstate a snapshot into this (freshly constructed) instance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )
