"""Property-based tests for the server's micro-batcher + admission queue.

:class:`~repro.serving.server.MicroBatcher` is deliberately a pure core —
time flows in through arguments, no threads, no event loop — precisely so
Hypothesis can drive it through arbitrary arrival/flush interleavings and
check the batching invariants the live server depends on:

* **conservation** — every admitted request is drained exactly once; no
  request is lost, duplicated, or reordered;
* **FIFO** — drains preserve global offer order (hence per-user order);
* **bounded admission** — pending depth never exceeds ``max_queue_depth``;
  the over-bound offer raises the *typed* :class:`BackpressureError` (with
  the depth and limit attached) and leaves the queue untouched;
* **flush policy** — :meth:`due` fires iff as many requests are pending as
  the last non-empty drain took (``max_batch_size`` before any, never more)
  or the oldest pending request has aged past ``max_wait_s``;
  :meth:`next_deadline` is exactly the oldest offer time plus the wait
  bound, and the batcher is always due by then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.server import BackpressureError, MicroBatcher

# One scripted step of an interleaving: offer request #n from a user, drain
# up to `limit` (None = everything), or advance the clock.
Offer = Tuple[str, str]  # ("offer", user_id)
Drain = Tuple[str, Union[int, None]]  # ("drain", limit)
Advance = Tuple[str, float]  # ("advance", dt)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.sampled_from(["u0", "u1", "u2", "u3"])),
        st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(0, 8))),
        st.tuples(st.just("advance"), st.floats(0.0, 0.5, allow_nan=False)),
    ),
    min_size=1,
    max_size=60,
)

_configs = st.tuples(
    st.integers(1, 8),  # max_batch_size
    st.floats(0.0, 0.2, allow_nan=False),  # max_wait_s
    st.integers(1, 12),  # max_queue_depth
)


@dataclass(frozen=True)
class _Request:
    serial: int
    user_id: str


class TestMicroBatcherProperties:
    @given(ops=_operations, config=_configs)
    @settings(max_examples=200, deadline=None)
    def test_conservation_fifo_and_bound(self, ops, config):
        """The model: an ideal FIFO queue with a hard depth bound."""
        max_batch, max_wait, max_depth = config
        batcher = MicroBatcher(max_batch, max_wait, max_depth)
        model: List[_Request] = []  # pending, oldest first
        drained_real: List[_Request] = []
        drained_model: List[_Request] = []
        now = 0.0
        serial = 0
        for op, arg in ops:
            if op == "offer":
                request = _Request(serial, arg)
                serial += 1
                if len(model) >= max_depth:
                    with pytest.raises(BackpressureError) as exc_info:
                        batcher.offer(request, now=now)
                    # The typed error carries the shed decision's context...
                    assert exc_info.value.queue_depth == len(model)
                    assert exc_info.value.limit == max_depth
                    # ...and the shed request was never stored.
                else:
                    batcher.offer(request, now=now)
                    model.append(request)
            elif op == "drain":
                batch = batcher.drain(limit=arg)
                take = len(model) if arg is None else min(arg, len(model))
                drained_model.extend(model[:take])
                del model[:take]
                drained_real.extend(batch)
            else:
                now += arg
            # Invariants that hold after every step:
            assert batcher.depth == len(model) <= max_depth
            assert drained_real == drained_model  # FIFO, nothing lost/dup'd
        # Full conservation at the end: drain the rest and account for all.
        remainder = batcher.drain(limit=None)
        assert remainder == model
        assert batcher.admitted == len(drained_real) + len(remainder)
        assert batcher.admitted + batcher.shed == serial
        seen = [r.serial for r in drained_real + remainder]
        assert len(seen) == len(set(seen))  # no duplicates anywhere

    @given(ops=_operations, config=_configs)
    @settings(max_examples=200, deadline=None)
    def test_per_user_fifo(self, ops, config):
        """Per-user arrival order survives any drain interleaving."""
        max_batch, max_wait, max_depth = config
        batcher = MicroBatcher(max_batch, max_wait, max_depth)
        offered = {}
        drained = {}
        now = 0.0
        serial = 0
        for op, arg in ops:
            if op == "offer":
                request = _Request(serial, arg)
                serial += 1
                try:
                    batcher.offer(request, now=now)
                    offered.setdefault(arg, []).append(request)
                except BackpressureError:
                    pass
            elif op == "drain":
                for request in batcher.drain(limit=arg):
                    drained.setdefault(request.user_id, []).append(request)
            else:
                now += arg
        for request in batcher.drain(limit=None):
            drained.setdefault(request.user_id, []).append(request)
        assert drained == offered

    @given(ops=_operations, config=_configs)
    @settings(max_examples=300, deadline=None)
    def test_due_iff_target_reached_or_aged(self, ops, config):
        """The model: a flush is due iff the pending depth reaches the last
        non-empty drain's size (``max_batch_size`` before any, and never
        above it) or the oldest pending request is ``max_wait_s`` old."""
        max_batch, max_wait, max_depth = config
        batcher = MicroBatcher(max_batch, max_wait, max_depth)
        offered_at: List[float] = []  # pending offer times, oldest first
        target = max_batch
        now = 0.0
        for op, arg in ops:
            if op == "offer":
                try:
                    batcher.offer(object(), now=now)
                    offered_at.append(now)
                except BackpressureError:
                    pass
            elif op == "drain":
                take = len(offered_at) if arg is None else min(arg, len(offered_at))
                assert len(batcher.drain(limit=arg)) == take
                del offered_at[:take]
                if take:
                    target = take
            else:
                now += arg
            depth = len(offered_at)
            assert batcher.flush_depth == min(max_batch, target)
            if depth >= max_batch:
                expected = "full"
            elif depth and depth >= target:
                expected = "target"
            elif depth and now >= offered_at[0] + max_wait:
                expected = "deadline"
            else:
                expected = None
            assert batcher.fire_reason(now) == expected
            assert batcher.due(now) == (expected is not None)
            if depth:
                deadline = batcher.next_deadline()
                assert deadline == offered_at[0] + max_wait
                # No admitted request is due later than next_deadline().
                assert all(deadline <= t + max_wait for t in offered_at)
                assert batcher.due(deadline)
                assert batcher.oldest_wait(now) == pytest.approx(
                    max(0.0, now - offered_at[0])
                )
            else:
                assert batcher.next_deadline() is None
                assert batcher.oldest_wait(now) == 0.0

    def test_step_down_waits_out_one_deadline_then_follows(self):
        """k clients in a closed loop, then k - 1: the fresh batcher waits out
        the deadline once, flushes the moment all k are back after that, and
        the step down costs exactly one more deadline wait."""
        batcher = MicroBatcher(max_batch_size=64, max_wait_s=0.2, max_queue_depth=64)
        now = 0.0

        def round_of(k):
            """k clients are back; the reason a flush fires right then."""
            for i in range(k):
                assert not batcher.due(now), f"due after {i} of {k} arrivals"
                batcher.offer(object(), now=now)
            return batcher.fire_reason(now)

        reasons = []
        for k in (4, 4, 4, 3, 3, 3):
            reason = round_of(k)
            if reason is None:
                assert batcher.fire_reason(now + 0.1999) is None
                now += 0.2
                reason = batcher.fire_reason(now)
            reasons.append(reason)
            assert len(batcher.drain(limit=64)) == k
            assert batcher.flush_depth == k
            now += 0.001  # the flush runs; its clients resubmit
        assert reasons == ["deadline", "target", "target", "deadline", "target", "target"]

    def test_empty_batcher_is_never_due(self):
        batcher = MicroBatcher(4, 0.0, 8)
        assert not batcher.due(1e9)
        assert batcher.drain(limit=None) == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(0, 0.1, 8)
        with pytest.raises(ValueError):
            MicroBatcher(4, -0.1, 8)
        with pytest.raises(ValueError):
            MicroBatcher(4, 0.1, 0)
