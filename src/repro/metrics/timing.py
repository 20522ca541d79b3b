"""Timing utilities.

Two notions of time coexist in the reproduction:

* **Wall-clock time** (:class:`Timer`) — used for quantities the paper
  actually measures on real hardware that we *can* also measure here, such as
  embedding-computation time (Fig. 15) and semantic-search time (Fig. 10b).
* **Simulated time** (:class:`repro.core.clock.VirtualClock`) — used for
  quantities that depend on hardware we do not have (LLM inference latency
  in Fig. 5); the latency model contributes simulated durations so traces
  remain deterministic.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Timer:
    """A context-manager stopwatch accumulating wall-clock durations."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is None:  # pragma: no cover - defensive
            return
        self.durations.append(time.perf_counter() - self._start)
        self._start = None

    @property
    def last(self) -> float:
        """Most recent recorded duration (0.0 if none)."""
        return self.durations[-1] if self.durations else 0.0

    @property
    def total(self) -> float:
        """Sum of recorded durations."""
        return float(sum(self.durations))

    @property
    def mean(self) -> float:
        """Mean recorded duration (0.0 if none)."""
        return self.total / len(self.durations) if self.durations else 0.0

    def reset(self) -> None:
        """Forget all recorded durations."""
        self.durations.clear()
        self._start = None


class LatencyHistogram:
    """Percentile summary over ``perf_counter_ns`` samples.

    Collects integer nanosecond durations, optionally discards the first
    ``warmup`` recorded samples (cold caches, lazy imports, first-touch page
    faults), and summarizes the rest as p50/p95/p99/mean.  Percentiles use the
    nearest-rank method (the k-th smallest sample with
    ``k = ceil(q/100 * n)``), so every reported value is an actually observed
    latency rather than an interpolation — the convention serving dashboards
    use for tail latency.
    """

    def __init__(self, warmup: int = 0) -> None:
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.warmup = warmup
        self._samples: List[int] = []
        self._skipped = 0

    def record(self, duration_ns: int) -> None:
        """Record one duration in nanoseconds (warmup samples are dropped)."""
        if duration_ns < 0:
            raise ValueError("duration must be >= 0")
        if self._skipped < self.warmup:
            self._skipped += 1
            return
        self._samples.append(int(duration_ns))

    def time(self):
        """Context manager that records one ``perf_counter_ns`` interval."""
        return _HistogramInterval(self)

    @property
    def count(self) -> int:
        """Number of retained (post-warmup) samples."""
        return len(self._samples)

    @property
    def samples(self) -> List[int]:
        """Copy of the retained samples, in recording order."""
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in nanoseconds (0.0 if empty)."""
        if not self._samples:
            return 0.0
        if not 0.0 < q <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        ordered = sorted(self._samples)
        rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil(q*n/100), >= 1
        return float(ordered[min(rank, len(ordered)) - 1])

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
        """Mean retained sample in nanoseconds (0.0 if empty)."""
        if not self._samples:
            return 0.0
        return float(sum(self._samples)) / len(self._samples)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Return a new histogram holding both sets of retained samples.

        Warmup trimming has already happened in each source histogram, so the
        merged histogram performs no further trimming.
        """
        merged = LatencyHistogram(warmup=0)
        merged._samples = self._samples + other._samples
        return merged

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready summary (nanosecond floats plus the sample count)."""
        return {
            "count": float(self.count),
            "p50_ns": self.p50,
            "p95_ns": self.p95,
            "p99_ns": self.p99,
            "mean_ns": self.mean,
        }


class _HistogramInterval:
    """Context manager recording one interval into a LatencyHistogram."""

    def __init__(self, hist: LatencyHistogram) -> None:
        self._hist = hist
        self._start = 0

    def __enter__(self) -> "_HistogramInterval":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._hist.record(time.perf_counter_ns() - self._start)
