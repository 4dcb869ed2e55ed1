"""Server-side scan filters ("coprocessor push-down").

TraSS pushes global-pruning ranges and local filtering into the HBase
coprocessor so dissimilar trajectories never cross the wire
(Figure 8).  In this substrate a :class:`RowFilter` plays that role: it
runs inside the region scan, sees the raw row, and decides whether the
row is returned to the client.  Rejected rows still count as scanned
I/O — that distinction is the paper's Figure 11(b) versus 11(c).
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence


class RowFilter(abc.ABC):
    """Decides, server-side, whether a scanned row is returned."""

    @abc.abstractmethod
    def accept(self, key: bytes, value: bytes) -> bool:
        """True to return the row to the client."""


class AcceptAllFilter(RowFilter):
    """The identity filter."""

    def accept(self, key: bytes, value: bytes) -> bool:
        return True


class PredicateFilter(RowFilter):
    """Adapts a plain callable ``(key, value) -> bool``."""

    def __init__(self, predicate: Callable[[bytes, bytes], bool]):
        self._predicate = predicate

    def accept(self, key: bytes, value: bytes) -> bool:
        return bool(self._predicate(key, value))


class PrefixFilter(RowFilter):
    """Accepts rows whose key starts with a given prefix."""

    def __init__(self, prefix: bytes):
        self._prefix = bytes(prefix)

    def accept(self, key: bytes, value: bytes) -> bool:
        return key.startswith(self._prefix)


class ConjunctionFilter(RowFilter):
    """All member filters must accept (short-circuits)."""

    def __init__(self, filters: Sequence[RowFilter]):
        self._filters = list(filters)

    def accept(self, key: bytes, value: bytes) -> bool:
        return all(f.accept(key, value) for f in self._filters)
