"""Cache eviction policies.

Figure 1 of the paper shows an eviction-policy column (LRU) in the local
cache.  Three standard policies are provided; they operate on opaque entry
ids so the cache can map them to row indices however it likes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict


class EvictionPolicy:
    """Tracks entry liveness and picks victims when the cache is full."""

    def record_insert(self, entry_id: int) -> None:
        """Register a newly-inserted entry."""
        raise NotImplementedError

    def record_access(self, entry_id: int) -> None:
        """Register a read hit on an entry."""
        raise NotImplementedError

    def record_remove(self, entry_id: int) -> None:
        """Forget an entry that was removed externally."""
        raise NotImplementedError

    def select_victim(self) -> int:
        """Return the entry id to evict next.

        Raises
        ------
        LookupError
            If the policy is tracking no entries.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the policy's ordering state.

        Cache persistence (``MeanCache.save``) stores this so a reloaded
        cache evicts in exactly the order the saved one would have.
        """
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Reinstate a :meth:`state_dict` snapshot (replacing current state)."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least-recently-used eviction (the paper's default)."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def record_insert(self, entry_id: int) -> None:
        """Place the entry at the most-recent end of the order."""
        self._order.pop(entry_id, None)
        self._order[entry_id] = None

    def record_access(self, entry_id: int) -> None:
        """Move a hit entry to the most-recent end of the order."""
        if entry_id in self._order:
            self._order.move_to_end(entry_id)

    def record_remove(self, entry_id: int) -> None:
        """Drop the entry from the order."""
        self._order.pop(entry_id, None)

    def select_victim(self) -> int:
        """The least recently inserted or hit entry."""
        if not self._order:
            raise LookupError("no entries to evict")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def state_dict(self) -> Dict[str, object]:
        """The order, least recently used first."""
        return {"order": [int(i) for i in self._order]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Reinstate the order, least recently used first."""
        self._order = OrderedDict((int(i), None) for i in state["order"])


class LFUPolicy(EvictionPolicy):
    """Least-frequently-used eviction with LRU tie-breaking."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._recency: "OrderedDict[int, None]" = OrderedDict()

    def record_insert(self, entry_id: int) -> None:
        """Start the entry at zero hits, at the most-recent end."""
        self._counts[entry_id] = 0
        self._recency.pop(entry_id, None)
        self._recency[entry_id] = None

    def record_access(self, entry_id: int) -> None:
        """Count a hit and move the entry to the most-recent end."""
        if entry_id in self._counts:
            self._counts[entry_id] += 1
            self._recency.move_to_end(entry_id)

    def record_remove(self, entry_id: int) -> None:
        """Drop the entry's hit count and recency."""
        self._counts.pop(entry_id, None)
        self._recency.pop(entry_id, None)

    def select_victim(self) -> int:
        """The least recently used among the entries with the fewest hits."""
        if not self._counts:
            raise LookupError("no entries to evict")
        min_count = min(self._counts.values())
        # Oldest (least recently used) among the least-frequently used.
        for entry_id in self._recency:
            if self._counts[entry_id] == min_count:
                return entry_id
        return next(iter(self._recency))  # pragma: no cover - unreachable

    def __len__(self) -> int:
        return len(self._counts)

    def state_dict(self) -> Dict[str, object]:
        """The recency order and each entry's hit count."""
        # Counts as [id, count] pairs: JSON object keys would stringify ids.
        return {
            "recency": [int(i) for i in self._recency],
            "counts": [[int(i), int(c)] for i, c in self._counts.items()],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Reinstate the recency order and the hit counts."""
        self._counts = {int(i): int(c) for i, c in state["counts"]}
        self._recency = OrderedDict((int(i), None) for i in state["recency"])


class FIFOPolicy(EvictionPolicy):
    """First-in-first-out eviction (insertion order, accesses ignored)."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def record_insert(self, entry_id: int) -> None:
        """Place the entry at the newest end of the insertion order."""
        self._order.pop(entry_id, None)
        self._order[entry_id] = None

    def record_access(self, entry_id: int) -> None:
        """Nothing: FIFO ignores accesses by definition."""

    def record_remove(self, entry_id: int) -> None:
        """Drop the entry from the insertion order."""
        self._order.pop(entry_id, None)

    def select_victim(self) -> int:
        """The earliest inserted entry."""
        if not self._order:
            raise LookupError("no entries to evict")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def state_dict(self) -> Dict[str, object]:
        """The insertion order, oldest first."""
        return {"order": [int(i) for i in self._order]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Reinstate the insertion order, oldest first."""
        self._order = OrderedDict((int(i), None) for i in state["order"])


_POLICIES = {
    "lru": LRUPolicy,
    "lfu": LFUPolicy,
    "fifo": FIFOPolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a policy by name (``"lru"``, ``"lfu"`` or ``"fifo"``)."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown eviction policy {name!r}; known policies: {known}") from None
