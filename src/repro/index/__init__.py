"""Incremental vector-index subsystem.

The cache-side replacement for "a numpy array we vstack onto": a contiguous,
pre-normalized embedding matrix with amortized-O(1) appends, O(d) swap-delete
and one-matmul batched search — plus sublinear approximate search (IVF inverted
lists) and int8 scalar-quantized storage, unrouted or IVF-routed, behind the
same :class:`VectorIndex` contract, selected by name through
:func:`make_index`.  Every backend snapshots to a crash-safe versioned
directory (JSON manifest + per-array ``.npy``, published atomically) via
``index.save(path)`` / :func:`load_index` — ``mmap=True`` restores without
copying, and :func:`append_delta` / :func:`compact_snapshot` maintain an
append-only mutation log on top.  See
``docs/architecture.md`` for the design, ``docs/api.md`` for the public
surface and ``docs/benchmarks.md`` for the measured recall/throughput/memory
trade-off.

>>> from repro.index import make_index
>>> index = make_index("flat", dim=4)
>>> a = index.add([1.0, 0.0, 0.0, 0.0])
>>> b = index.add([0.0, 1.0, 0.0, 0.0])
>>> [hit.id for hit in index.search([1.0, 0.1, 0.0, 0.0], top_k=1)[0]] == [a]
True
"""

from repro.index.base import IndexHit, VectorIndex
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.quantized import QuantizedIndex
from repro.index.registry import available_backends, make_index, register_index
from repro.index.snapshot import (
    SnapshotError,
    append_delta,
    atomic_snapshot_dir,
    compact_snapshot,
    delta_log_size,
    load_index,
    read_deltas,
    save_index,
)

__all__ = [
    "FlatIndex",
    "IVFIndex",
    "IndexHit",
    "QuantizedIndex",
    "SnapshotError",
    "VectorIndex",
    "append_delta",
    "atomic_snapshot_dir",
    "available_backends",
    "compact_snapshot",
    "delta_log_size",
    "load_index",
    "make_index",
    "read_deltas",
    "register_index",
    "save_index",
]
