"""The cache's eviction order.

Figure 1 of the paper shows one eviction policy in the local cache, LRU.
The policy operates on opaque entry ids so the cache can map them to row
indices however it likes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List


class LRUPolicy:
    """Least-recently-used eviction: tracks entry recency and picks victims."""

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
        """The least recently inserted or hit entry.

        Raises
        ------
        LookupError
            If the policy is tracking no entries.
        """
        if not self._order:
            raise LookupError("no entries to evict")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def state_dict(self) -> Dict[str, List[int]]:
        """The order, least recently used first (JSON-serializable).

        Cache persistence (``MeanCache.save``) stores this so a reloaded
        cache evicts in exactly the order the saved one would have.
        """
        return {"order": [int(i) for i in self._order]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Reinstate a :meth:`state_dict` order, least recently used first.

        Raises ``ValueError`` when the order lists an id twice.
        """
        order = [int(i) for i in state["order"]]
        self._order = OrderedDict.fromkeys(order)
        if len(self._order) != len(order):
            raise ValueError("the LRU order lists an entry id twice")
