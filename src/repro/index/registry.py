"""The fixed table of vector-index backends, selected by name.

Everything that owns a :class:`~repro.index.body.VectorIndex` — the caches,
the quantized tier, the fleet benchmark — selects its backend
through :func:`make_index`, so swapping exact search for IVF or quantized
storage is a configuration change (``MeanCacheConfig(index_backend="ivf")``) rather than
a code change:

>>> from repro.index import make_index
>>> index = make_index("ivf", dim=64, nprobe=16)
>>> type(index).__name__, index.routed
('FlatIndex', True)

Every backend is the one index (:class:`~repro.index.body.VectorIndex`),
unrouted or IVF-routed, behind one of two registry classes: ``"flat"`` and
``"ivf"`` are :class:`~repro.index.flat.FlatIndex` (no codec: float rows),
``"sq8"`` and ``"ivf+sq8"`` :class:`~repro.index.quantized.QuantizedIndex`
(the int8 codec).  The classes stay distinct so that each backend's methods
can be wrapped (e.g. traced) per class.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.index.body import VectorIndex
from repro.index.flat import FlatIndex
from repro.index.quantized import QuantizedIndex

#: name -> (factory, whether its ``seed`` matters): the float index
#: unrouted and routed, then the quantized index unrouted and routed.
_BACKENDS: Dict[str, Tuple[Callable[..., VectorIndex], bool]] = {
    "flat": (FlatIndex, False),
    "ivf": (functools.partial(FlatIndex, routed=True), True),
    "sq8": (functools.partial(QuantizedIndex, routed=False), True),
    "ivf+sq8": (functools.partial(QuantizedIndex, routed=True), True),
}


def available_backends() -> Tuple[str, ...]:
    """The backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def validate_backend(backend: str) -> str:
    """Normalise a backend name, raising ``ValueError`` for unknown ones.

    Shared by :func:`make_index` and ``MeanCacheConfig`` so the lookup rule
    and the error message cannot drift between them.  Returns the normalised key.
    """
    key = str(backend).strip().lower()
    if key not in _BACKENDS:
        raise ValueError(
            f"unknown index backend {backend!r}; available: "
            + ", ".join(available_backends())
        )
    return key


def make_index(backend: str = "flat", **params) -> VectorIndex:
    """Build a vector index by backend name.

    Parameters
    ----------
    backend:
        A backend name (case-insensitive): ``"flat"``, ``"ivf"``, ``"sq8"``
        or ``"ivf+sq8"``.
    **params:
        Passed through to the backend constructor (``dim``, ``dtype``, and
        the backend's own knobs: ``nlist``/``nprobe`` for IVF,
        ``min_train_size`` for the trained ones, …).

    Raises
    ------
    ValueError
        For an unknown backend name (the message lists what is available).
    """
    return _BACKENDS[validate_backend(backend)][0](**params)


def seeded_params(
    backend: str, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    """Return ``params`` with ``seed`` injected when the backend accepts it.

    Shared by the benchmark harnesses (``run_backend_sweep`` /
    ``run_fleet_bench``) so their determinism rule cannot drift.  An
    explicit ``seed`` in ``params`` always wins.  A backend whose seed
    changes nothing (``flat``, which never trains) comes back unchanged.
    """
    merged = dict(params)
    if _BACKENDS[validate_backend(backend)][1]:
        merged.setdefault("seed", seed)
    return merged


def resolve_index(
    index: Optional[VectorIndex],
    backend: str,
    params: Optional[Mapping[str, object]] = None,
) -> VectorIndex:
    """The caches' index-resolution rule, shared so it cannot drift.

    An explicitly injected ``index`` instance wins over the ``backend``
    name; it must be **empty**, because cache entry ids and index ids are
    one namespace — pre-existing vectors would be unreachable by the
    cache's entry lookups.  With no instance, the backend is built via
    :func:`make_index`.
    """
    if index is not None:
        if len(index) != 0:
            raise ValueError("an explicitly injected index must be empty")
        return index
    return make_index(backend, **dict(params or {}))
