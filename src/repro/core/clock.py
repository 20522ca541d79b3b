"""Injectable clocks: the determinism contract's time source.

Library code never calls ``time.time()`` directly (rule RPL002): anything a
cache decision can depend on — entry ``created_at``/``last_accessed``
stamps, TTL expiry, recency introspection — reads time from an injected
``Clock`` callable instead.  Production wiring injects ``time.time``;
replay wiring (:class:`~repro.serving.scheduling.BatchExecutor` with
``stamp_event_time=True``) injects a :class:`VirtualClock` that the server
moves to each flush's latest event timestamp, so replays are independent of
wall-clock speed, event-processing order and shard count.
"""

from __future__ import annotations

import time
from typing import Callable

#: A zero-argument callable returning seconds as a float.  ``time.time``,
#: ``time.monotonic`` and ``VirtualClock`` instances all satisfy it.
Clock = Callable[[], float]

__all__ = ["Clock", "VirtualClock", "WALL_CLOCK"]

#: The production default: real wall time.
WALL_CLOCK: Clock = time.time


class VirtualClock:
    """A monotonic, manually-advanced clock for deterministic replays.

    Calling the instance returns the current virtual time.  ``advance_to``
    is monotone by construction (it ignores regressions), so feeding it
    per-window event timestamps in any order within a window yields the
    same final reading — the property the reorder-independence regression
    test pins down.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        """The current virtual time in seconds."""
        return self._now

    @property
    def now(self) -> float:
        """The current virtual time in seconds (attribute form)."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move forward to ``timestamp`` if it is ahead; never move back."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def advance(self, delta: float) -> float:
        """Move forward by ``delta`` seconds (negative deltas are ignored)."""
        if delta > 0:
            self._now += float(delta)
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now!r})"
