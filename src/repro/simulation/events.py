"""Event and event-queue primitives for the discrete-event simulator.

This is the hottest code in the repository: every packet transmission,
pacing gap, RTCP delivery and periodic tick flows through one
:class:`EventQueue`.  Three design points keep it fast without changing
behaviour:

1. The heap stores plain ``(time, seq, callback, arg)`` tuples, so
   ordering is decided by native C tuple comparison (``seq`` is unique,
   so nothing after it is ever compared).  Ties at equal ``time`` break
   by the monotonically increasing sequence number — entries pushed
   earlier run earlier — which keeps simulations deterministic.  Every
   entry draws ``seq`` from the one counter at the moment it is pushed,
   whichever method pushes it.
2. Most entries are fire-and-forget (:meth:`EventQueue.post`): nobody
   will cancel or re-arm a packet's transmit, deliver or pacer-release
   hop, so the tuple is all there is.  An entry somebody may cancel or
   re-arm (:meth:`EventQueue.push`) carries ``callback=None`` and an
   :class:`Event` handle as ``arg``.  :class:`Event` is a ``__slots__``
   class and can be *re-armed* via :meth:`EventQueue.reschedule`, so
   periodic processes reuse one handle instead of allocating a new one
   per tick.
3. Cancellation stays lazy (a flag checked at dispatch), but the queue
   now counts cancelled-but-still-queued entries and compacts the heap
   in place when more than half of it is dead weight, bounding both
   memory and pop-time skipping.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

# Sentinel: "this event's callback takes no argument".  Using a
# dedicated object (not None) lets callbacks legitimately receive None.
_NO_ARG = object()

# ``(time, seq, callback, arg)``; ``callback is None`` marks an entry
# whose ``arg`` is its :class:`Event` handle.
HeapEntry = Tuple[float, int, Optional[Callable[..., None]], Any]

# Compaction policy: rebuild the heap when at least this many entries
# are queued and more than half of them are cancelled.
_COMPACT_MIN_ENTRIES = 64


class Event:
    """A scheduled callback; also the cancellation/re-arm handle.

    ``arg`` is an optional single argument passed to ``callback`` at
    dispatch time, which lets hot paths avoid allocating a closure per
    scheduled packet.
    """

    __slots__ = ("time", "callback", "arg", "cancelled", "_queue", "_queued")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        arg: object = _NO_ARG,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        self._queue = queue
        self._queued = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it at dispatch time."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None and self._queued:
            queue._cancelled += 1
            heap = queue._heap
            if (
                len(heap) >= _COMPACT_MIN_ENTRIES
                and queue._cancelled * 2 > len(heap)
            ):
                queue.compact()

    def dispatch(self) -> None:
        """Invoke the callback (with its bound argument, if any)."""
        arg = self.arg
        if arg is _NO_ARG:
            self.callback()
        else:
            self.callback(arg)


class EventQueue:
    """A min-heap of scheduled callbacks with lazy cancellation.

    ``__len__`` reports raw entries (including cancelled ones) while
    :attr:`live` reports only entries that will actually dispatch.
    """

    __slots__ = ("_heap", "_counter", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._counter = itertools.count()
        # Number of cancelled events still sitting in the heap.
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def live(self) -> int:
        """Number of queued events that are not cancelled."""
        return len(self._heap) - self._cancelled

    def push(
        self, time: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        event = Event(time, callback, arg, self)
        event._queued = True
        heappush(self._heap, (time, next(self._counter), None, event))
        return event

    def post(
        self, time: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> None:
        """Schedule ``callback`` at ``time`` with no handle to cancel it."""
        heappush(self._heap, (time, next(self._counter), callback, arg))

    def reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a previously dispatched (or compacted-away) event.

        Reuses the event object — callback and bound argument included —
        instead of allocating a fresh one.  The re-armed event draws a
        new sequence number, so tie-breaking at equal timestamps is
        identical to pushing a brand-new event at the same point.
        """
        if event._queued:
            raise RuntimeError("cannot reschedule an event still in the queue")
        event.time = time
        event.cancelled = False
        event._queue = self
        event._queued = True
        heappush(self._heap, (time, next(self._counter), None, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``.

        A posted entry comes back wrapped in a fresh :class:`Event`.
        """
        heap = self._heap
        while heap:
            time, _, callback, arg = heappop(heap)
            if callback is not None:
                return Event(time, callback, arg)
            event: Event = arg
            event._queued = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest pending event, or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heappop(heap)
                entry[3]._queued = False
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify in place.

        Entries keep their ``(time, seq)`` keys, so the surviving
        dispatch order is exactly what lazy skipping would have
        produced.  The heap list is mutated in place so aliases held by
        the simulator's run loop stay valid.
        """
        heap = self._heap
        if self._cancelled == 0:
            return
        survivors = []
        for entry in heap:
            if entry[2] is None and entry[3].cancelled:
                entry[3]._queued = False
            else:
                survivors.append(entry)
        heap[:] = survivors
        heapify(heap)
        self._cancelled = 0
