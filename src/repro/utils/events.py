"""A minimal discrete-event scheduler.

The simulator is event driven, but the high-rate producers no longer pay
one heap entry each: under run-ahead replay (the default) cores execute
their references inline and only *claim* a ``(time, seq)`` key per
reference (:meth:`EventQueue.claim_seq`), and the refresh controllers keep
their timers in a calendar queue (:mod:`repro.utils.wheel`) that holds a
single armed event here.  What still flows through the heap -- wheel
drains, and per-reference callbacks under ``replay="event"`` -- carries a
callback and an arbitrary payload; ties are broken by insertion order so
simulation is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time (cycles) at which the event fires.
        seq: monotonically increasing tie-breaker assigned by the queue.
        callback: callable invoked as ``callback(time, payload)``.
        payload: arbitrary data handed back to the callback.
        cancelled: cancelled events are skipped when popped.

    The heap itself is keyed by plain ``(time, seq, event)`` tuples, so
    ordering is decided by C-level int comparisons and the event object
    never needs rich-comparison methods -- with hundreds of thousands of
    heap operations per simulation, Python-level ``__lt__`` dispatch was a
    measurable share of the event loop.
    """

    __slots__ = ("time", "seq", "callback", "payload", "cancelled", "queue")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.queue = queue

    def cancel(self) -> None:
        """Mark this event so the queue drops it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()
            self.queue = None

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time}, seq={self.seq}, "
            f"cancelled={self.cancelled})"
        )


class EventQueue:
    """Priority queue of events ordered by (time, insertion order).

    Heap entries are ``(time, seq, callback, payload, handle)`` tuples;
    ``handle`` is the :class:`Event` returned by :meth:`schedule` (so it can
    be cancelled) or None for fire-and-forget entries pushed by
    :meth:`schedule_callback`.  ``seq`` is unique, so tuple comparison never
    reaches the non-comparable elements.
    """

    #: Compaction threshold: the heap is rebuilt without its cancelled
    #: entries once they outnumber the live ones (and enough have piled up
    #: for the O(n) rebuild to be worth it).  Producers that cancel on every
    #: reschedule -- the refresh wheel re-arming at an earlier deadline --
    #: would otherwise grow the heap with dead tuples until popped.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._heap: list[Tuple] = []
        self._counter = itertools.count()
        self._now = 0
        self._live = 0
        self._cancelled = 0
        #: Events executed or handed out for execution over this queue's
        #: lifetime (cancelled entries are not counted).  The benchmark
        #: harness reads this to track event-count reduction.
        self.popped_events = 0

    @property
    def now(self) -> int:
        """Current simulation time (time of the last event popped)."""
        return self._now

    def __len__(self) -> int:
        # O(1): a live-event counter is maintained on schedule/cancel/pop
        # instead of scanning the heap for cancelled entries.
        return self._live

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` when a tracked event is cancelled."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled >= self._COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        In place: the drain loops (and the run-ahead driver) hold long-lived
        local aliases to the heap list, so the list object must survive.
        """
        self._heap[:] = [
            entry for entry in self._heap
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def schedule(
        self,
        time: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at ``time``; returns the event handle.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        seq = next(self._counter)
        event = Event(time, seq, callback, payload, queue=self)
        heapq.heappush(self._heap, (time, seq, callback, payload, event))
        self._live += 1
        return event

    def schedule_callback(
        self,
        time: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
    ) -> None:
        """Schedule a fire-and-forget callback (no cancellable handle).

        The hot-path variant of :meth:`schedule` for producers that never
        cancel (cores, refresh controllers): no :class:`Event` object is
        allocated, the entry lives purely in the heap tuple.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        heapq.heappush(
            self._heap, (time, next(self._counter), callback, payload, None)
        )
        self._live += 1

    def schedule_after(
        self,
        delay: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` ``delay`` cycles from the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, payload)

    def pop(self) -> Optional[Event]:
        """Pop and return the next live event, advancing the clock.

        Returns None when the queue is empty.  The event is *not* executed;
        callers decide whether to invoke the callback.
        """
        while self._heap:
            time, seq, callback, payload, handle = heapq.heappop(self._heap)
            if handle is None:
                handle = Event(time, seq, callback, payload)
            elif handle.cancelled:
                self._cancelled -= 1
                continue
            else:
                handle.queue = None
            self._live -= 1
            self._now = time
            self.popped_events += 1
            return handle
        return None

    def claim_seq(self) -> int:
        """Draw the next tie-breaker sequence number without scheduling.

        Claiming a sequence number per inlined unit of work keeps the
        (time, seq) order of everything else -- and therefore the whole
        simulation -- byte-identical to scheduling that work as events.
        This is the sanctioned form of what the run-ahead replay driver
        does per reference (the driver itself draws from the shared
        counter directly, one call per reference being too hot for method
        dispatch; the two must stay equivalent).
        """
        return next(self._counter)

    def claim_seq_bulk(self, n: int) -> int:
        """Claim ``n`` consecutive sequence numbers, returning the last one.

        The batch-replay kernel retires a whole stretch of references in
        one call but must consume exactly the sequence numbers the scalar
        loop would have (one per executed reference with a successor), or
        the (time, seq) order of later events shifts and replay stops
        being byte-identical.  Rebinding the counter skips the n-1
        intermediate draws in O(1); callers must re-read ``_counter``
        afterwards rather than hold an alias across this call.
        """
        first = next(self._counter)
        if n > 1:
            self._counter = itertools.count(first + n)
        return first + n - 1

    def advance_clock(self, time: int) -> None:
        """Advance the clock to ``time`` (inline work executed off-queue).

        Sanctioned equivalent of the run-ahead driver's direct forward
        store of ``_now``; external callers running work off-queue should
        use this checked form.
        """
        if time < self._now:
            raise ValueError(
                f"cannot move the clock back to {time}, current time is {self._now}"
            )
        self._now = time

    def peek_key(self) -> Optional[Tuple[int, int]]:
        """(time, seq) of the earliest live event, or None when empty.

        Cancelled entries encountered at the top are dropped on the way, so
        repeated peeks stay cheap.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            handle = entry[4]
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return (entry[0], entry[1])
        return None

    def run_until_key(self, time: int, seq: int) -> int:
        """Execute every live event ordered strictly before ``(time, seq)``.

        The run-ahead replay driver uses this to let refresh events fire in
        their exact heap order relative to the core reference it is about to
        execute inline.  The clock is left at the last executed event (or
        untouched when nothing ran); returns the number of events executed.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap:
            entry = heap[0]
            handle = entry[4]
            if handle is not None and handle.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if entry[0] > time or (entry[0] == time and entry[1] >= seq):
                break
            pop(heap)
            if handle is not None:
                handle.queue = None
            self._live -= 1
            self._now = entry[0]
            self.popped_events += 1
            entry[2](entry[0], entry[3])
            executed += 1
        return executed

    def drain_until_count(self, done: list, target: int, max_events: int) -> int:
        """Execute events until ``done`` has grown to ``target`` entries.

        This is the simulator's hot drain loop: callbacks append to ``done``
        (one entry per finished core), and the loop runs with direct heap
        access -- no per-event Optional wrapper, no re-dispatch through
        :meth:`pop`.  Returns the number of events executed.

        Raises:
            RuntimeError: if the queue empties before ``done`` reaches
                ``target``, or more than ``max_events`` events execute.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while len(done) < target:
            while True:
                if not heap:
                    raise RuntimeError(
                        "event queue drained before the completion target was "
                        "reached; a producer failed to schedule its next event"
                    )
                time, _, callback, payload, handle = pop(heap)
                if handle is None:
                    break
                if not handle.cancelled:
                    handle.queue = None
                    break
                self._cancelled -= 1
            self._live -= 1
            self._now = time
            self.popped_events += 1
            callback(time, payload)
            executed += 1
            if executed > max_events:
                raise RuntimeError(
                    "event limit exceeded; the simulation appears to be stuck"
                )
        return executed

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events in order.

        Args:
            until: stop (without executing) at the first event later than this
                time; the clock is left at the last executed event.
            max_events: stop after executing this many events.

        Returns:
            The number of events executed.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            time, _, callback, payload, handle = self._heap[0]
            if handle is not None and handle.cancelled:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if handle is not None:
                handle.queue = None
            self._live -= 1
            self._now = time
            self.popped_events += 1
            callback(time, payload)
            executed += 1
        return executed

    def empty(self) -> bool:
        """Return True when no live events remain."""
        return self._live == 0

    def clear(self) -> None:
        """Drop every pending event; the queue's clock is left as it is."""
        for entry in self._heap:
            if entry[4] is not None:
                entry[4].queue = None
        self._heap.clear()
        self._live = 0
        self._cancelled = 0
