"""A reference kernel that measures how fast the host is running right now.

The host this benchmark was sized on is a shared 2-vCPU VM whose effective
speed swings by +-20 % within seconds (the same pure-Python loop takes 0.14 s
or 0.24 s of *CPU* time with zero reported steal), and drifts over minutes, so
two runs of one seed differ by up to 40 % in raw throughput.  No statistic
taken inside a 12-second run removes a drift that outlasts the run.

So every pass is cut into slices, the kernel below runs between slices while
the system under test is idle (``workloads.SliceTimer`` measures that it is,
and the run fails if it is not), and each slice's times are scaled by
``NOMINAL_S / kernel_seconds``: what the slice would have taken on a host
running at the nominal speed.  On a quiet host the factor is 1 and the numbers
are the raw ones; raw values and the factor are always printed beside the
normalised ones.  The kernel mixes what the library's hot path is made of
(str slicing and dict counting as in the tokenizer/featurizer, a small GEMM
and ``tanh`` as in the encoder) and touches no repository code.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel seconds on a quiet core of the sizing host (Xeon @ 2.1 GHz, one
#: BLAS thread); only a scale, so a wrong value shifts every timing alike
NOMINAL_S = 0.0016

_WORDS = [f"w{i:03d}reference{i % 17}" for i in range(300)]
_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((128, 256))
_B = _RNG.standard_normal((256, 256))


def kernel_seconds() -> float:
    """Run the kernel twice and return the faster time (noise only adds)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        counts: dict = {}
        for word in _WORDS:
            for i in range(len(word) - 2):
                gram = word[i : i + 3]
                counts[gram] = counts.get(gram, 0) + 1
        hidden = np.tanh(_A @ _B)
        (hidden @ _B).sum()
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(kernel_s: float) -> float:
    """Below 1 when the host runs slower than nominal."""
    return NOMINAL_S / kernel_s
