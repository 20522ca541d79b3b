"""Quantized storage: the index body with the int8 codec.

The exact backends keep every embedding as ``d`` float32 values; at the
paper's fleet scale (millions of per-device caches) the embedding matrix is
the cache's dominant memory cost.  :class:`QuantizedIndex` trades a small
amount of score precision for a ~3.5x smaller per-entry footprint by storing
the uint8 code rows of a :class:`~repro.index.codecs.ScalarQuantizer`
(``"sq8"``); how a code row is built and scored is the codec's business (see
:mod:`repro.index.codecs`).

It is the one index (:class:`~repro.index.body.VectorIndex`) with that
codec.  Below ``min_train_size`` vectors the payload is float32 staging rows,
searched exactly like a float32 :class:`~repro.index.FlatIndex`; the first
add reaching the threshold trains the codec and swaps the payload for the
uint8 code rows of the staged vectors.

Its scores are **exact for the codes**: the fast float32 scan only cuts, and
the rank scores the rows within rounding of its cut in float64 against their
dequantized codes (see :meth:`~repro.index.body.VectorIndex._rank`).

Optional **IVF routing** (``routed=True``, registered as ``"ivf+sq8"``):
trained beside the codec, so a query scans only its ``nprobe`` nearest
cells' codes.  A refit works from the *dequantized* rows (the float
originals are gone by design); the codec stays frozen.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index.body import _MIN_CAPACITY, VectorIndex
from repro.index.codecs import ScalarQuantizer


class QuantizedIndex(VectorIndex):
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
    routed:
        Enable IVF coarse routing over the quantized rows.
    nlist, nprobe, kmeans_iters, repartition_growth, auto_repartition:
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
        routed: bool = False,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        kmeans_iters: int = 8,
        repartition_growth: float = 2.0,
        seed: int = 0,
        auto_repartition: bool = True,
    ) -> None:
        super().__init__(
            dim,
            np.float32,
            initial_capacity,
            chunk_size,
            codec=ScalarQuantizer(),
            routed=routed,
            min_train_size=min_train_size,
            train_sample=train_sample,
            seed=seed,
            nlist=nlist,
            nprobe=nprobe,
            kmeans_iters=kmeans_iters,
            repartition_growth=repartition_growth,
            auto_repartition=auto_repartition,
        )

    @property
    def codec(self) -> ScalarQuantizer:
        """The codec whose code rows this index stores."""
        return self._codec

    @property
    def code_width(self) -> Optional[int]:
        """Bytes of quantized payload per stored vector (None while unset)."""
        if self._dim is None:
            return None
        return int(self._codec.code_width(self._dim))

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
