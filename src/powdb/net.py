"""Recently-seen block cache for gossip."""

from __future__ import annotations

from collections import OrderedDict


class RecentSet:
    """Fixed-capacity set of recently seen hashes, evicting the oldest."""

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._entries: OrderedDict[str, None] = OrderedDict()

    def add(self, key: str) -> bool:
        """True if the key was new."""
        if key in self._entries:
            return False
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return True

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
