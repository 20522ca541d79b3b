"""Opt-in runtime lock-order and index-ownership checking.

Static rules (RPL001) catch lexically-visible contract breaks; this module
catches the dynamic ones.  When ``REPRO_DEBUG_CONCURRENCY=1`` is set the
serving tier's locks are created as :class:`TrackedLock` instances and
caches handed to the server are wrapped by :func:`guard_cache`, giving two
checks at *test* time with zero overhead in production (the env var is read
once per lock-construction site, and untracked paths keep plain
``threading.Lock`` objects):

* **lock order** — every acquisition records an edge ``held -> acquired``
  in a process-wide graph; an edge that closes a cycle means two threads
  can deadlock, and raises :class:`LockCycleError` immediately instead of
  hanging a test;
* **ownership** — mutating methods of an instrumented index
  (``add``/``add_batch``/``remove``/``clear``/``rebuild``/``search``/
  ``maintenance``) raise
  :class:`LockOwnershipError` when invoked while the owning tracked lock is
  not held by the calling thread.

The thread-hammer suites (``tests/test_serving_concurrency.py``,
``tests/test_tiered.py``) re-run under the flag in CI; see
``docs/analysis.md`` for the contract statements.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = [
    "LockDisciplineError",
    "LockCycleError",
    "LockOwnershipError",
    "TrackedLock",
    "debug_enabled",
    "maybe_tracked_lock",
    "maybe_tracked_rlock",
    "guard_index",
    "guard_cache",
    "reset_registry",
]

ENV_FLAG = "REPRO_DEBUG_CONCURRENCY"

#: Index methods that mutate backend state (or, like ``search``, read state
#: that a concurrent mutation would corrupt) and therefore require the
#: owning lock.  ``maintenance`` rewrites rows, ids and lists (a routing
#: refit, the quantized layout compaction).
GUARDED_INDEX_METHODS: Tuple[str, ...] = (
    "add",
    "add_batch",
    "remove",
    "clear",
    "rebuild",
    "search",
    "maintenance",
)


def debug_enabled() -> bool:
    """Whether runtime concurrency checking is switched on via the env flag."""
    return os.environ.get(ENV_FLAG, "").strip() in ("1", "true", "yes", "on")


class LockDisciplineError(RuntimeError):
    """Base class for runtime concurrency-contract violations."""


class LockCycleError(LockDisciplineError):
    """A lock acquisition closed a cycle in the process-wide order graph."""


class LockOwnershipError(LockDisciplineError):
    """An instrumented index was touched without its owning lock held."""


class _LockRegistry:
    """Process-wide acquisition-order graph shared by all tracked locks.

    Edges are ``held_lock_name -> newly_acquired_lock_name`` pairs observed
    at acquire time.  The graph is tiny (one node per named lock), so a
    fresh DFS per *new* edge is cheap; known edges skip the walk entirely.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}
        self._local = threading.local()

    def _held_stack(self) -> List["TrackedLock"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def held_names(self) -> Tuple[str, ...]:
        """Names of tracked locks currently held by the calling thread."""
        return tuple(lock.name for lock in self._held_stack())

    def notify_acquired(self, lock: "TrackedLock") -> None:
        stack = self._held_stack()
        if stack and stack[-1] is not lock:
            self._record_edge(stack[-1].name, lock.name)
        stack.append(lock)

    def notify_released(self, lock: "TrackedLock") -> None:
        stack = self._held_stack()
        # Releases may interleave out of LIFO order under condition waits;
        # remove the most recent matching entry rather than asserting order.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is lock:
                del stack[i]
                return

    def _record_edge(self, src: str, dst: str) -> None:
        if src == dst:
            return
        with self._graph_lock:
            successors = self._edges.setdefault(src, set())
            if dst in successors:
                return
            cycle = self._find_path(dst, src)
            if cycle is not None:
                raise LockCycleError(
                    "lock-order cycle: acquiring "
                    f"{dst!r} while holding {src!r} inverts the established "
                    "order " + " -> ".join(cycle + [dst]) + " — potential deadlock"
                )
            successors.add(dst)

    def _find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """DFS path src..dst in the edge graph, or None (caller holds _graph_lock)."""
        path: List[str] = []
        seen: Set[str] = set()

        def dfs(node: str) -> bool:
            if node == dst:
                path.append(node)
                return True
            if node in seen:
                return False
            seen.add(node)
            for nxt in self._edges.get(node, ()):
                if dfs(nxt):
                    path.append(node)
                    return True
            return False

        if dfs(src):
            return list(reversed(path))
        return None

    def reset(self) -> None:
        with self._graph_lock:
            self._edges.clear()


_REGISTRY = _LockRegistry()


def reset_registry() -> None:
    """Clear the process-wide acquisition graph (test isolation helper)."""
    _REGISTRY.reset()


class TrackedLock:
    """A named lock recording acquisitions in the process-wide order graph.

    Drop-in for ``threading.Lock``/``threading.RLock`` in the serving
    layer: supports the context-manager protocol plus explicit
    ``acquire``/``release``.  Non-reentrant tracked locks raise
    :class:`LockDisciplineError` on same-thread re-acquisition (a plain
    ``threading.Lock`` would silently deadlock there).
    """

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._owner: Optional[int] = None
        self._depth = 0
        self._meta = threading.Lock()

    def held_by_current_thread(self) -> bool:
        """Whether the calling thread currently owns this lock."""
        with self._meta:
            return self._owner == threading.get_ident()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire, recording the order edge; mirrors ``threading.Lock.acquire``."""
        me = threading.get_ident()
        with self._meta:
            if self._owner == me and not self.reentrant:
                raise LockDisciplineError(
                    f"non-reentrant lock {self.name!r} re-acquired by the "
                    "owning thread — would deadlock under threading.Lock"
                )
        acquired = self._inner.acquire(blocking, timeout)
        if not acquired:
            return False
        with self._meta:
            first = self._depth == 0
            self._owner = me
            self._depth += 1
        if first:
            _REGISTRY.notify_acquired(self)
        return True

    def release(self) -> None:
        """Release; clears ownership bookkeeping on the outermost release."""
        me = threading.get_ident()
        with self._meta:
            if self._owner != me:
                raise LockDisciplineError(
                    f"lock {self.name!r} released by a thread that does not own it"
                )
            self._depth -= 1
            last = self._depth == 0
            if last:
                self._owner = None
        if last:
            _REGISTRY.notify_released(self)
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r}, reentrant={self.reentrant})"


def maybe_tracked_lock(name: str) -> Any:
    """A ``TrackedLock`` under ``REPRO_DEBUG_CONCURRENCY=1``, else ``threading.Lock()``."""
    if debug_enabled():
        return TrackedLock(name, reentrant=False)
    return threading.Lock()


def maybe_tracked_rlock(name: str) -> Any:
    """A reentrant ``TrackedLock`` under the flag, else ``threading.RLock()``."""
    if debug_enabled():
        return TrackedLock(name, reentrant=True)
    return threading.RLock()


def _ownership_wrapper(
    method: Callable[..., Any], lock: TrackedLock, label: str
) -> Callable[..., Any]:
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        if not lock.held_by_current_thread():
            raise LockOwnershipError(
                f"{label} called without holding its owning lock "
                f"{lock.name!r} (held: {list(_REGISTRY.held_names()) or 'none'}) "
                "— serving code must reach indexes inside the shard/tier lock"
            )
        return method(*args, **kwargs)

    wrapped.__name__ = getattr(method, "__name__", label)
    wrapped._repro_guard = True  # type: ignore[attr-defined]
    return wrapped


def guard_index(index: Any, lock: Any, label: str = "index") -> Any:
    """Instrument ``index`` so mutators require ``lock`` to be held.

    Wraps :data:`GUARDED_INDEX_METHODS` as *instance* attributes (bound
    wrappers), leaving the class untouched — other instances of the same
    backend stay unguarded.  No-op (returns ``index`` unchanged) when
    ``lock`` is not a :class:`TrackedLock`, so call sites don't need their
    own env-flag checks.  Idempotent per instance.
    """
    if not isinstance(lock, TrackedLock) or index is None:
        return index
    if getattr(index, "_repro_guarded", False):
        return index
    for name in GUARDED_INDEX_METHODS:
        method = getattr(index, name, None)
        if method is None or getattr(method, "_repro_guard", False):
            continue
        try:
            setattr(index, name, _ownership_wrapper(method, lock, f"{label}.{name}()"))
        except AttributeError:  # __slots__ or frozen instances: skip quietly
            return index
    try:
        index._repro_guarded = True
    except AttributeError:
        pass
    return index


def guard_cache(cache: Any, lock: Any, label: str = "cache") -> Any:
    """Instrument the index backend(s) reachable from ``cache``.

    Covers ``cache.index`` (MeanCache-style) and, for tiered caches, the
    L1's index plus the quantized tier guarded by its *own* lock.  Safe to
    call on any object; attributes that don't exist are skipped.
    """
    if not isinstance(lock, TrackedLock) or cache is None:
        return cache
    index = getattr(cache, "index", None)
    if index is not None:
        guard_index(index, lock, f"{label}.index")
    l1 = getattr(cache, "l1", None)
    if l1 is not None:
        inner = getattr(l1, "index", None)
        if inner is not None:
            guard_index(inner, lock, f"{label}.l1.index")
    l2 = getattr(cache, "l2", None)
    if l2 is not None:
        l2_lock = getattr(l2, "lock", None)
        if isinstance(l2_lock, TrackedLock):
            guard_index(l2, l2_lock, f"{label}.l2")
    return cache
