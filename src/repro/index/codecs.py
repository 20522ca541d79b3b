"""The int8 scalar codec: what a quantized row is and how a query scores against it.

:class:`ScalarQuantizer` (``"sq8"``) quantizes each dimension of a unit float
row affinely to one uint8.  Ranges are learned per dimension from the train
set, so the 256 levels cover the span the data actually occupies.  It owns
everything codec-specific about scanning the code rows — the per-batch query
tables, the contiguous-chunk scorer of the flat scan and the gathered-rows
scorer of the routed probe scan.  Scoring is asymmetric: the query stays
float32 and the affine identity ``q · (offset + scale·c) = q·offset +
(q·scale) · c`` reduces a chunk to one cast plus one matmul.
:class:`~repro.index.quantized.QuantizedIndex` composes the codec with the
shared row store and the IVF router.

The codec is trained once and then frozen (the faiss contract); ``reset``
forgets the ranges.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.index.postings import ScratchBuffers
from repro.index.routing import ScoreRows

# Code rows per uint8→float32 cast block in the fused SQ8 scan: large enough
# to amortize the gemm call, small enough that the cast buffer stays resident
# in cache (and well under the mmap threshold for fresh allocations).
_SCAN_BLOCK = 4096
# Rows per gather+cast+gemv block when scoring a scattered row subset (the
# routed probe scan): the gathered uint8 block (128KB) and its float32 cast
# (512KB) both stay L2-resident between the write and the gemv read, which
# measures ~1.4x faster than a single whole-candidate-set pass at 10^6.
_GATHER_BLOCK = 2048

#: ``score(start, stop)``: float32 scores, shape ``(q, stop-start)``, of the
#: whole query batch against code rows ``[start, stop)``; the result is only
#: valid until the next call.
ScoreChunk = Callable[[int, int], np.ndarray]


class ScalarQuantizer:
    """Per-dimension affine uint8 codec: ``x ≈ offset + scale · code``."""

    name = "sq8"

    def __init__(self) -> None:
        self.offset: Optional[np.ndarray] = None  # (d,) float32, per-dim min
        self.scale: Optional[np.ndarray] = None  # (d,) float32, (max-min)/255

    @property
    def is_trained(self) -> bool:
        """Whether the per-dimension ranges exist."""
        return self.scale is not None

    def reset(self) -> None:
        """Forget the ranges."""
        self.offset = None
        self.scale = None

    def code_width(self, dim: int) -> int:
        """Bytes per stored vector: one uint8 code per dimension."""
        return int(dim)

    @property
    def nbytes(self) -> int:
        """Bytes of the trained codec tables (scale + offset)."""
        if self.scale is None:
            return 0
        return int(self.scale.nbytes + self.offset.nbytes)

    def train(self, rows: np.ndarray) -> None:
        """Fit per-dimension [min, max] ranges on the training rows."""
        X = np.asarray(rows, dtype=np.float64)
        lo = X.min(axis=0)
        span = X.max(axis=0) - lo
        # A constant dimension still round-trips exactly through code 0.
        span[span < 1e-9] = 1e-9
        self.offset = lo.astype(np.float32)
        self.scale = (span / 255.0).astype(np.float32)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Quantize float rows to uint8 codes (values outside the range clip)."""
        X = np.asarray(rows, dtype=np.float64)
        q = np.rint((X - self.offset.astype(np.float64)) / self.scale.astype(np.float64))
        return np.clip(q, 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray, dtype: np.dtype = np.float32) -> np.ndarray:
        """Dequantize codes back to (approximate) float rows."""
        return codes.astype(dtype) * self.scale.astype(dtype) + self.offset.astype(dtype)

    def scores(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric float32-query × uint8-corpus dot products, ``(q, n)``.

        The affine identity makes the per-chunk work one cast of the codes
        plus one matmul.
        """
        scaled_q = queries * self.scale[None, :]
        return scaled_q @ codes.astype(np.float32).T + (queries @ self.offset)[:, None]

    def _prepare(
        self, Qf: np.ndarray, scratch: ScratchBuffers
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The batch's ``(q·scale, q·offset)`` tables, in scratch."""
        scaled_q = scratch.get("sq8.scaled_q", Qf.shape, np.float32)
        np.multiply(Qf, self.scale[None, :], out=scaled_q)
        q_off = scratch.get("sq8.q_off", (Qf.shape[0],), np.float32)
        np.matmul(Qf, self.offset, out=q_off)
        return scaled_q, q_off

    def chunk_scorer(
        self, Qf: np.ndarray, codes: np.ndarray, width: int, scratch: ScratchBuffers
    ) -> ScoreChunk:
        """Single-pass fused variant of :meth:`scores` for the whole batch.

        Prepares the batch's query tables in ``scratch``; the returned
        ``score`` scores chunks of at most ``width`` rows of ``codes``.  The
        uint8→float32 cast happens in ``_SCAN_BLOCK``-row blocks reused from
        ``scratch`` and every intermediate lives in scratch too — no
        chunk-sized float matrix is ever materialized and nothing query- or
        chunk-shaped is allocated per call.
        """
        q, d = Qf.shape
        scaled_q, q_off = self._prepare(Qf, scratch)
        sbuf = scratch.get("sq8.scores", (q, width), np.float32)

        def score(start: int, stop: int) -> np.ndarray:
            n = stop - start
            out = sbuf[:, :n]
            block = scratch.get("sq8.cast", (min(_SCAN_BLOCK, n), d), np.float32)
            for s in range(start, stop, _SCAN_BLOCK):
                e = min(s + _SCAN_BLOCK, stop)
                b = block[: e - s]
                np.copyto(b, codes[s:e], casting="unsafe")
                np.matmul(scaled_q, b.T, out=out[:, s - start : e - start])
            np.add(out, q_off[:, None], out=out)
            return out

        return score

    def row_scorers(
        self, Qf: np.ndarray, codes: np.ndarray, scratch: ScratchBuffers
    ) -> Callable[[int], ScoreRows]:
        """Gather+cast+gemv scorers over the batch's scaled-query tables."""
        scaled_q, q_off = self._prepare(Qf, scratch)
        return lambda qi: partial(
            self._score_rows, codes, scratch, scaled_q[qi], float(q_off[qi])
        )

    @staticmethod
    def _score_rows(
        codes: np.ndarray,
        scratch: ScratchBuffers,
        scaled_q: np.ndarray,
        q_off: float,
        rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Fused scoring of a gathered row subset.

        ``rows`` are gathered from ``codes`` into a scratch uint8 block,
        cast and scored with a gemv per ``_GATHER_BLOCK`` rows — no decoded
        float matrix exists, and the cast block stays cache-resident between
        its write (cast) and read (gemv) instead of making two full-DRAM
        passes over the candidate set.
        """
        c = rows.shape[0]
        d = codes.shape[1]
        gathered = scratch.get("sq8.gather", (min(_GATHER_BLOCK, c), d), np.uint8)
        cast = scratch.get("sq8.gcast", (min(_GATHER_BLOCK, c), d), np.float32)
        for start in range(0, c, _GATHER_BLOCK):
            stop = min(start + _GATHER_BLOCK, c)
            g = gathered[: stop - start]
            codes.take(rows[start:stop], axis=0, out=g)
            b = cast[: stop - start]
            np.copyto(b, g, casting="unsafe")
            np.matmul(b, scaled_q, out=out[start:stop])
        np.add(out, q_off, out=out)

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """``sq8_scale`` and ``sq8_offset`` (empty while untrained)."""
        if self.scale is None:
            return {}
        return {"sq8_scale": self.scale, "sq8_offset": self.offset}

    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Reinstate the ranges from a snapshot."""
        self.scale = np.asarray(arrays["sq8_scale"], dtype=np.float32)
        self.offset = np.asarray(arrays["sq8_offset"], dtype=np.float32)
