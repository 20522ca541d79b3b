"""Byte-level size accounting for cached values.

:func:`object_nbytes` approximates what an entry's texts and metadata cost
in the cache (``CacheEntry.nbytes``, summed by
``MeanCache.total_storage_bytes``).  Cache state persists only through the
snapshot envelope (:meth:`repro.core.cache.MeanCache.save`), which stores
each entry's vector once, as its row in the vector index.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np


def object_nbytes(value: Any) -> int:
    """Approximate in-cache size of a stored value, in bytes.

    NumPy arrays count their buffer size; strings count their UTF-8 length;
    containers count the sum of their members; other objects fall back to the
    pickle length.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if isinstance(value, (list, tuple, set)):
        return sum(object_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(object_nbytes(k) + object_nbytes(v) for k, v in value.items())
    try:
        return len(pickle.dumps(value))
    except Exception:  # pragma: no cover - exotic unpicklable objects
        return 64
