"""Tiny LRU page cache used on the read path."""

from collections import OrderedDict
from typing import Optional, Sequence

from .errors import DomainError


class PageCache:
    """LRU cache of page images keyed by page address.

    The replay harness models a RAM-constrained reader, so the default
    capacity is a deliberately small 15 pages.  ``hits`` and ``misses``
    only grow: a store reports each query's cache hits and device reads
    as their change over the query.
    """

    def __init__(self, capacity: int = 15):
        if capacity < 1:
            raise DomainError(f"cache_pages must be at least 1, got {capacity}")
        self.capacity = capacity
        self._pages: "OrderedDict[int, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, addr: int) -> Optional[bytes]:
        page = self._pages.get(addr)
        if page is None:
            self.misses += 1
            return None
        self._pages.move_to_end(addr)
        self.hits += 1
        return page

    def hit_all(self, requests: Sequence[tuple[int, bytes]]) -> bool:
        """``get`` each address of ``requests`` in order, if every one holds its page as that very object.

        Each such ``get`` is then a hit that evicts nothing, so counting
        ``len(requests)`` hits and moving each address to the end in order
        leaves hits, misses and the LRU order exactly as the ``get`` loop
        would.  Otherwise nothing changes and False is returned.
        """
        pages = self._pages
        for addr, page in requests:
            if pages.get(addr) is not page:
                return False
        move = pages.move_to_end
        for addr, _ in requests:
            move(addr)
        self.hits += len(requests)
        return True

    def put(self, addr: int, page: bytes) -> None:
        self._pages[addr] = page
        self._pages.move_to_end(addr)
        while len(self._pages) > self.capacity:
            self._pages.popitem(last=False)

    def invalidate(self, addr: int) -> None:
        self._pages.pop(addr, None)

    def clear(self) -> None:
        self._pages.clear()
