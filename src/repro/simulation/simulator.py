"""The discrete-event simulator driving every experiment."""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable, Optional

from repro.simulation.events import _NO_ARG, Event, EventQueue
from repro.simulation.random import RandomStreams


class Simulator:
    """Dispatches scheduled callbacks in timestamp order.

    Components hold a reference to the simulator, read the clock via
    :attr:`now`, and schedule work with :meth:`post` (fire-and-forget),
    :meth:`schedule` (relative delay, returns a cancellable handle) or
    :meth:`schedule_at` (absolute time).  All of them, and
    :meth:`reschedule`, draw the tie-break sequence number from one
    counter at the moment they are called, so entries due at the same
    instant run in the order they were pushed whichever method pushed
    them.

    :attr:`events_dispatched` counts callbacks actually executed:
    cancelled events are skipped and not counted; a posted entry cannot
    be cancelled, so one whose callback finds nothing left to do (the
    pending release of a pacer lane retired by ``Pacer.drain_path``) is
    dispatched and counted.  ``profile_hook``, when set, is called as
    ``hook(callback, arg)`` in place of the plain dispatch, for posted
    entries and events alike, so a profiler can time and classify each
    callback — the hook is responsible for invoking it (without ``arg``
    when ``arg`` is the no-argument sentinel).  It defaults to ``None``,
    which keeps the run loop on the fast path.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.streams = RandomStreams(seed)
        self._queue = EventQueue()
        self._running = False
        self.events_dispatched: int = 0
        self.profile_hook: Optional[
            Callable[[Callable[..., None], object], None]
        ] = None

    def post(
        self, delay: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> None:
        """Run ``callback`` ``delay`` seconds from now, fire-and-forget.

        No :class:`Event` is built and nothing is returned: the per-packet
        hops (link transmit, delivery, pacer release) are never cancelled
        or re-armed, so a bare heap tuple is all they need.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # Inline of EventQueue.post: one frame less per packet hop.
        queue = self._queue
        heappush(
            queue._heap, (self.now + delay, next(queue._counter), callback, arg)
        )

    def schedule(
        self, delay: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``arg``, when given, is passed to the callback at dispatch time.
        Returns the handle to cancel or re-arm; callers that need
        neither use :meth:`post`.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # Inline of EventQueue.push, with the Event built by direct
        # slot stores: skipping the __init__ frame saves a call per event.
        queue = self._queue
        time = self.now + delay
        event = Event.__new__(Event)
        event.time = time
        event.callback = callback
        event.arg = arg
        event.cancelled = False
        event._queue = queue
        event._queued = True
        heappush(queue._heap, (time, next(queue._counter), None, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self._queue.push(time, callback, arg)

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm a dispatched event ``delay`` seconds from now.

        Equivalent to scheduling the event's callback (and bound
        argument) afresh, but reuses the event object.  Periodic
        processes use this to avoid one allocation per tick.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self._queue.reschedule(event, self.now + delay)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the clock when the run ended: ``until`` if given (events
        scheduled exactly at ``until`` are executed), else the time of
        the last event.  A run ended by :meth:`stop` leaves the clock at
        the stopping callback's time whatever ``until`` says, with
        everything later still queued for the next ``run``.
        """
        # The body below is the hottest loop in the repository, so the
        # queue internals are inlined: heap entries are
        # (time, seq, callback, arg) tuples, callback None marks an
        # Event handle in arg, and cancelled events are skipped lazily,
        # exactly as EventQueue.pop() would.  `queue._heap` is aliased,
        # never rebound — compaction mutates the list in place.
        queue = self._queue
        heap = queue._heap
        no_arg = _NO_ARG
        limit = inf if until is None else until
        hook = self.profile_hook
        dispatched = 0
        self._running = True
        try:
            while self._running and heap:
                entry = heap[0]
                next_time = entry[0]
                if next_time > limit:
                    break
                heappop(heap)
                callback = entry[2]
                arg = entry[3]
                if callback is None:
                    event: Event = arg
                    event._queued = False
                    if event.cancelled:
                        queue._cancelled -= 1
                        continue
                    callback = event.callback
                    arg = event.arg
                self.now = next_time
                dispatched += 1
                if hook is not None:
                    hook(callback, arg)
                elif arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            stopped = not self._running
            self._running = False
            self.events_dispatched += dispatched
        if until is not None and not stopped:
            self.now = max(self.now, until)
        return self.now

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._running = False

    def pending_events(self) -> int:
        """Return the number of live (non-cancelled) events still queued."""
        return self._queue.live
