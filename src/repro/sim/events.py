"""Event queue primitives for the discrete-event simulator.

The simulator is a classic event-driven design: a priority queue of
timestamped events, each carrying a callback.  Events scheduled for the
same instant are delivered in scheduling order (a monotonically
increasing tie-breaker), which keeps runs fully deterministic for a given
seed.

Performance model & parallel execution
--------------------------------------
This queue is the innermost loop of every experiment: a saturated fig-6
point fires hundreds of thousands of events, so the representation is
chosen for speed, not for ceremony.  Heap entries are plain four-element
lists ``[time, sequence, callback, args]``.  Python compares lists
element-wise in C, and ``sequence`` is unique, so ordering is decided by
the ``(time, sequence)`` prefix without ever invoking user-level
comparison code (the previous design paid ~¾ million Python ``__lt__``
calls per benchmark point).  Cancellation clears the callback slot
in-place (``entry[2] = None``); cancelled entries are skipped lazily when
popped.  :class:`Event` is a ``__slots__`` handle wrapped around the heap
entry — allocated for callers that need cancellation (timers).  The
message paths never cancel, so ``Network.send``/``multicast`` (arrival
events) and ``Process.deliver`` (CPU-completion events) ``heappush`` their
entries onto ``_heap`` themselves, drawing ``sequence`` from ``_counter``,
and ``Process.crash`` re-points callback slots in place: the entry layout
is a contract between the three ``repro.sim`` modules.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]

# Heap-entry layout indices (entries are [time, sequence, callback, args]).
_TIME = 0
_CALLBACK = 2
_ARGS = 3


class Event:
    """A cancellable handle to one scheduled callback.

    The event itself lives in the queue as a ``[time, sequence, callback,
    args]`` list; this wrapper only exposes cancellation and
    introspection.  Ordering is by ``(time, sequence)``; the callback and
    its arguments never participate in comparisons.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether the event can no longer fire (cancelled or already fired).

        Fired events report ``True`` here so that ``Timer.active`` turns
        false once the deadline passed — rolling-timer users re-arm based
        on this, even when the guarded callback body was skipped (e.g.
        the owning process was crashed at fire time).
        """
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        entry = self._entry
        entry[_CALLBACK] = None
        entry[_ARGS] = ()

    def fire(self) -> None:
        """Invoke the callback unless the event was cancelled.

        Firing consumes the event: afterwards it reports ``cancelled``
        (the simulator's run loop marks raw entries the same way).
        """
        entry = self._entry
        callback = entry[_CALLBACK]
        if callback is not None:
            args = entry[_ARGS]
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            callback(*args)


class EventQueue:
    """A min-heap of ``[time, sequence, callback, args]`` entries."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if entry[_CALLBACK] is not None)

    def __bool__(self) -> bool:
        return any(entry[_CALLBACK] is not None for entry in self._heap)

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at simulated ``time``."""
        entry = [time, next(self._counter), callback, args]
        heapq.heappush(self._heap, entry)
        return Event(entry)

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[_CALLBACK] is not None:
                return Event(entry)
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next non-cancelled event, without removing it."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][_TIME]
