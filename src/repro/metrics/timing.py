"""Latency summaries.

Two notions of time coexist in the reproduction:

* **Wall-clock time** (``time.perf_counter_ns``) — used for quantities the
  paper actually measures on real hardware that we *can* also measure here,
  such as embedding-computation time (Fig. 15), semantic-search time
  (Fig. 10b) and the serving layer's queue wait and end-to-end latency;
  :class:`LatencyHistogram` summarizes them.
* **Simulated time** (a trace's event timestamps) — used for quantities
  that depend on hardware we do not have (LLM inference latency in Fig. 5);
  the latency model contributes simulated durations so traces remain
  deterministic.
"""

from __future__ import annotations

from typing import Dict, List

#: Sub-bucket bits of :class:`LatencyHistogram`: values below ``2**(K+1)`` ns
#: get one bucket each, and every higher power-of-two range is split into
#: ``2**K`` equal sub-buckets, so a bucket's width is at most ``2**-K`` of
#: its lower bound.
K = 7


class LatencyHistogram:
    """Percentile summary over ``perf_counter_ns`` samples, in fixed memory.

    Each sample increments one count in a log-bucketed table instead of
    being kept, so the table is bounded by the largest sample's bucket (at
    most 7,424 counts for any 64-bit duration) however many samples
    arrive.  Percentiles use the nearest-rank method (the k-th smallest
    sample with ``k = ceil(q/100 * n)``) and report the lower bound of that
    sample's bucket: exactly the sample below ``2**(K+1)`` ns, and within
    ``2**-K`` (≈ 0.8 %) of it, never above it, everywhere else.  The mean is
    exact, from a running sum.
    """

    def __init__(self) -> None:
        self._counts: List[int] = []
        self._count = 0
        self._sum = 0

    def record(self, duration_ns: int) -> None:
        """Record one duration in nanoseconds."""
        if duration_ns < 0:
            raise ValueError("duration must be >= 0")
        value = int(duration_ns)
        shift = value.bit_length() - K - 1
        bucket = value if shift <= 0 else (shift << K) + (value >> shift)
        counts = self._counts
        if bucket >= len(counts):
            counts.extend([0] * (bucket + 1 - len(counts)))
        counts[bucket] += 1
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in nanoseconds (0.0 if empty)."""
        if not 0.0 < q <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if not self._count:
            return 0.0
        rank = max(1, -(-int(q * self._count) // 100))  # ceil(q*n/100), >= 1
        seen = 0
        for bucket, n in enumerate(self._counts):
            seen += n
            if seen >= rank:
                break
        if bucket < 2 << K:
            return float(bucket)
        shift = (bucket >> K) - 1
        return float((bucket - (shift << K)) << shift)

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile latency."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile latency (the SLO gate's metric)."""
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        """Mean sample in nanoseconds (0.0 if empty)."""
        if not self._count:
            return 0.0
        return float(self._sum) / self._count

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready summary (nanosecond floats plus the sample count)."""
        return {
            "count": float(self.count),
            "p50_ns": self.p50,
            "p95_ns": self.p95,
            "p99_ns": self.p99,
            "mean_ns": self.mean,
        }
