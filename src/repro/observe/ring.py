"""One bounded ring: the newest rows behind one lock, with drop counts.

Every recorder in the package keeps the newest rows of something --
completed spans, served requests, serving decisions, registry events,
blackbox triggers -- and must say how many older rows it displaced,
never lose them silently.  :class:`BoundedRing` is that ring once: the
lock, the capacity, the counts, snapshots, tails and the JSONL
rendering.  The recorders extend it and keep only what is theirs.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Callable, Generic, List, Optional, Tuple, TypeVar

__all__ = ["BoundedRing"]

T = TypeVar("T")


class BoundedRing(Generic[T]):
    """Thread-safe ring of the newest ``capacity`` rows.

    ``capacity=None`` keeps every row.  An append into a full ring
    displaces the oldest row, which counts once in :attr:`dropped` and,
    when given, in ``dropped_counter`` (anything with ``inc()``, such
    as a registry counter).  :meth:`clear` empties the ring and keeps
    both counts.
    """

    def __init__(self, capacity: Optional[int], *,
                 dropped_counter: Any = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = None if capacity is None else int(capacity)
        self._lock = threading.Lock()
        self._rows: "deque[T]" = deque(maxlen=self.capacity)
        self._appended = 0
        self._dropped = 0
        self._dropped_counter = dropped_counter

    def append(self, row: Optional[T] = None, *,
               build: Optional[Callable[[int], T]] = None) -> T:
        """Append ``row``, or ``build(seq)`` for the row's 1-based
        sequence number, under the lock; returns the appended row."""
        with self._lock:
            if build is not None:
                row = build(self._appended + 1)
            displaced = len(self._rows) == self.capacity
            self._rows.append(row)
            self._appended += 1
            if displaced:
                self._dropped += 1
        if displaced and self._dropped_counter is not None:
            self._dropped_counter.inc()
        return row

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    @property
    def dropped(self) -> int:
        """Rows displaced by the ring so far."""
        with self._lock:
            return self._dropped

    def counts(self) -> Tuple[int, int, int]:
        """``(appended, dropped, size)``, read together under the lock."""
        with self._lock:
            return self._appended, self._dropped, len(self._rows)

    def records(self) -> List[T]:
        """The retained rows, oldest first (a copy)."""
        with self._lock:
            return list(self._rows)

    def tail(self, n: int) -> List[T]:
        """The newest ``n`` retained rows, oldest first."""
        if n <= 0:
            return []
        return self.records()[-n:]

    def clear(self) -> None:
        """Drop the retained rows; the counts survive."""
        with self._lock:
            self._rows.clear()

    def to_jsonl(self, n: Optional[int] = None, *,
                 default: Optional[Callable[[Any], Any]] = None) -> str:
        """One ``json.dumps(row.as_dict())`` line per row, oldest first.

        Renders the newest ``n`` rows, or every retained row when ``n``
        is ``None``; ``default`` is passed to :func:`json.dumps`.
        """
        rows = self.records() if n is None else self.tail(n)
        return "".join(
            json.dumps(r.as_dict(), default=default) + "\n" for r in rows
        )
