"""One bounded memo for every long-lived table in the process.

The tester runs beside a live node for as long as the node runs, so its
own tables must stay bounded and inspectable.  A :class:`Memo` built
with a ``name`` is process-global and registers itself: :func:`registry`
lists every such table and :func:`clear_all` empties them, the one
reset a test needs between runs that must not share cached state.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

_REGISTRY: Dict[str, "Memo"] = {}


class Memo:
    """A mapping that evicts oldest first past ``bound`` and counts traffic.

    ``None`` is the miss marker, so it is never a stored value.  ``bound``
    is read on every insert, so a test may shrink it on a live memo.
    """

    __slots__ = ("bound", "_data", "hits", "misses", "evictions")

    def __init__(self, bound: int, name: Optional[str] = None) -> None:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if name in _REGISTRY:
            raise ValueError(f"memo {name!r} is already registered")
        self.bound = bound
        self._data: Dict[Hashable, object] = {}
        self.hits = self.misses = self.evictions = 0
        if name is not None:
            _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable):
        """The value stored under ``key``, or None on a miss."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        data = self._data
        if key not in data:
            while len(data) >= self.bound:
                del data[next(iter(data))]
                self.evictions += 1
        data[key] = value

    def info(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._data),
                "bound": self.bound}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._data.clear()
        self.hits = self.misses = self.evictions = 0


def registry() -> Dict[str, Memo]:
    """Every named (process-global) memo, by name."""
    return dict(_REGISTRY)


def clear_all() -> None:
    for memo in _REGISTRY.values():
        memo.clear()
