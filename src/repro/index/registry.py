"""String-keyed factory registry for vector-index backends.

Everything that owns a :class:`~repro.index.base.VectorIndex` — the caches,
the quantized tier, the fleet benchmark — selects its backend
through :func:`make_index`, so swapping exact search for IVF or quantized
storage is a configuration change (``MeanCacheConfig(index_backend="ivf")``) rather than
a code change:

>>> from repro.index import make_index
>>> index = make_index("ivf", dim=64, nprobe=16)
>>> type(index).__name__
'IVFIndex'

Built-in backends: ``"flat"`` (exact), ``"ivf"`` (k-means inverted lists),
``"sq8"`` (int8 scalar-quantized storage) and the routed composition
``"ivf+sq8"`` (IVF cells over quantized rows).  Out-of-tree
backends (a GPU matrix, a remote shard) register themselves with
:func:`register_index` and become addressable from every cache config in
the process.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.index.base import VectorIndex
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.quantized import QuantizedIndex

_FACTORIES: Dict[str, Callable[..., VectorIndex]] = {}


def register_index(
    name: str, factory: Callable[..., VectorIndex], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name`` (case-insensitive).

    ``factory`` is any callable returning a :class:`VectorIndex` when called
    with ``dim=...`` plus backend-specific keyword parameters.  Re-registering
    an existing name raises unless ``overwrite=True``.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")
    if key in _FACTORIES and not overwrite:
        raise ValueError(f"index backend {key!r} is already registered")
    _FACTORIES[key] = factory


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def validate_backend(backend: str) -> str:
    """Normalise a backend name, raising ``ValueError`` for unknown ones.

    Shared by :func:`make_index` and ``MeanCacheConfig`` so the lookup rule
    and the error message cannot drift between them.  Returns the normalised key.
    """
    key = str(backend).strip().lower()
    if key not in _FACTORIES:
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
        A registered name (case-insensitive) — out of the box ``"flat"``,
        ``"ivf"``, ``"sq8"`` or ``"ivf+sq8"``.
    **params:
        Passed through to the backend constructor (``dim``, ``dtype``, and
        the backend's own knobs: ``nlist``/``nprobe`` for IVF, ``rescore``
        for the quantized ones, …).

    Raises
    ------
    ValueError
        For an unknown backend name (the message lists what is available).
    """
    return _FACTORIES[validate_backend(backend)](**params)


def seeded_params(
    backend: str, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    """Return ``params`` with ``seed`` injected when the backend accepts it.

    Shared by the benchmark harnesses (``run_backend_sweep`` /
    ``run_fleet_bench``) so their determinism rule cannot drift.  An
    explicit ``seed`` in ``params`` always wins.  Otherwise support is read
    off the factory's signature: every seeded backend names ``seed``
    explicitly (the quantized-composition factories included).  Backends
    without a seed parameter (``flat``, custom registrations) come back
    unchanged.
    """
    merged = dict(params)
    if "seed" in merged:
        return merged
    factory = _FACTORIES[validate_backend(backend)]
    try:
        signature_params = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - C-level callables
        signature_params = {}
    if "seed" in signature_params:
        merged["seed"] = seed
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


def _quantized(routed: bool) -> Callable[..., VectorIndex]:
    """Factory for the unrouted or routed :class:`QuantizedIndex`.

    ``seed`` is an explicit parameter so :func:`seeded_params` can detect
    seed support from the signature.
    """

    def factory(seed: int = 0, **params) -> VectorIndex:
        params.setdefault("routed", routed)
        return QuantizedIndex(seed=seed, **params)

    return factory


#: name -> factory: the exact and routed float backends, then the quantized
#: index unrouted and routed.
_BUILTIN: Dict[str, Callable[..., VectorIndex]] = {
    "flat": FlatIndex,
    "ivf": IVFIndex,
    "sq8": _quantized(routed=False),
    "ivf+sq8": _quantized(routed=True),
}
for _name, _factory in _BUILTIN.items():
    register_index(_name, _factory)
