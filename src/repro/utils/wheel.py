"""Bucketed calendar queue (timer wheel) for refresh fire times.

The refresh subsystem used to keep one heap event alive per sentry group and
per periodic refresh group -- for the L1s, whose sentry groups are single
lines, that meant one event per line per sentry period, and the simulator's
event queue spent more time on refresh timers than on the workload itself.

:class:`RefreshWheel` replaces those per-group events with a calendar queue:

* An *entry* is ``(ready, deadline, callback, payload)``.  ``ready`` is the
  earliest cycle the entry may be processed (the predicted sentry decay or
  the periodic group's nominal pass time); ``deadline`` is the latest.  A
  periodic pass is exact (``deadline == ready``); a lazy Refrint timer may
  be served up to ``sentry margin - 1`` cycles late, because the margin is
  precisely the headroom between a Sentry bit's decay and the line's own.
* Entries are hashed into fixed-width *buckets* by their deadline.  Because
  a bucket spans ``[b*w, (b+1)*w)``, the earliest non-empty bucket always
  contains the globally earliest deadline, so finding the next required
  service time never scans the whole wheel.
* The wheel keeps exactly **one** event in the :class:`~repro.utils.events.EventQueue`,
  armed at the earliest pending deadline.  When it fires, every entry that
  is *ready* by that cycle -- across all due buckets, and typically across
  many refresh controllers sharing the wheel -- is drained in one callback,
  in deterministic (bucket, insertion) order.  Re-arming happens once per
  drain, so a burst of reschedules costs one heap push instead of one per
  group.

Entries whose deadline forces an earlier service time than the armed event
cause a cancel + re-arm; the queue's heap compaction (see
:meth:`~repro.utils.events.EventQueue._note_cancelled`) keeps those
cancelled entries from accumulating.

An entry may carry a *due probe*: a cheap predicate consulted when the
entry comes up in a drain.  If the probe reports that the entry's group has
no due work (its predicted earliest decay was pushed out by ordinary
accesses recharging the lines) it returns the group's new earliest service
time and the wheel re-buckets the entry without invoking the callback --
the per-group due-time index that lets the Refrint interrupt scans skip
groups with nothing to serve.  A probe must answer exactly as the callback
would have: return None whenever the callback would perform any observable
work at this cycle, and otherwise the same next fire time the callback
would have armed.

Determinism: drains happen at exact deadline cycles, entries are processed
in (bucket index, insertion order) order, and the wheel itself never
consults wall-clock state -- so simulations are reproducible and identical
across cache backends and replay modes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.utils.events import Event, EventQueue

#: Default bucket width in cycles.  Narrow enough that a drain rarely visits
#: entries that are not yet ready, wide enough that simultaneous sentry
#: timers (and the staggered periodic passes of identical controllers)
#: coalesce into one queue event.
DEFAULT_BUCKET_CYCLES = 64

#: An entry: (ready cycle, deadline cycle, callback, payload, probe).
#: ``probe`` is None for always-served entries; otherwise
#: ``probe(cycle, payload)`` returns None to serve the entry now, or the
#: next cycle at which the entry's group can possibly have due work.
WheelEntry = Tuple[
    int, int, Callable[[int, Any], None], Any,
    Optional[Callable[[int, Any], Optional[int]]],
]


class RefreshWheel:
    """Calendar queue of refresh timers, driven by one queue event.

    One wheel is shared by every refresh controller of a simulation (see
    :func:`~repro.refresh.controller.build_refresh_controllers`); a
    controller constructed standalone builds a private one.  Sharing is what
    lets one drain serve many controllers: the 32 L1 controllers of a chip
    arm thousands of single-line sentry timers whose deadlines land in the
    same handful of buckets.
    """

    def __init__(
        self, events: EventQueue, bucket_cycles: int = DEFAULT_BUCKET_CYCLES
    ) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be >= 1")
        self.events = events
        self.bucket_cycles = bucket_cycles
        self._buckets: Dict[int, List[WheelEntry]] = {}
        self._armed: Optional[Event] = None
        self._armed_time: Optional[int] = None
        self._len = 0
        self._draining = False
        #: Number of times the queue event fired (drains), for diagnostics.
        self.drains = 0
        #: Entries re-bucketed by their due probe instead of being served
        #: (group interrupt scans skipped), for diagnostics.
        self.skips = 0
        #: Entries examined by drains (served or probe-skipped).  Every skip
        #: is an examined entry, so ``skips <= scans`` always -- one of the
        #: invariants repro.validate checks per run.
        self.scans = 0

    def __len__(self) -> int:
        return self._len

    def schedule(
        self,
        ready: int,
        deadline: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
        probe: Optional[Callable[[int, Any], Optional[int]]] = None,
    ) -> None:
        """Add a timer servable anywhere in ``[ready, deadline]`` cycles.

        ``callback(cycle, payload)`` runs during some drain at a cycle in
        that window.  Periodic (exact) timers pass ``deadline == ready``.
        ``probe``, if given, is consulted first at service time: returning
        None serves the entry, returning a cycle re-buckets it there (with
        the same slack) without running the callback.
        """
        if deadline < ready:
            raise ValueError(f"deadline {deadline} precedes ready {ready}")
        bucket = deadline // self.bucket_cycles
        entries = self._buckets.get(bucket)
        if entries is None:
            self._buckets[bucket] = [(ready, deadline, callback, payload, probe)]
        else:
            entries.append((ready, deadline, callback, payload, probe))
        self._len += 1
        # During a drain the handler re-arms once at the end; outside one,
        # pull the armed event earlier if this deadline precedes it.
        if not self._draining and (
            self._armed_time is None or deadline < self._armed_time
        ):
            self._arm(deadline)

    def schedule_many(
        self,
        ready: int,
        deadline: int,
        callback: Callable[[int, Any], None],
        payloads: Sequence[Any],
        probe: Optional[Callable[[int, Any], Optional[int]]] = None,
    ) -> None:
        """:meth:`schedule` one timer per payload, all sharing one window.

        Equivalent to calling :meth:`schedule` for each payload in order
        (same bucket, same insertion order, same arming), in one call.
        """
        if not payloads:
            return
        if deadline < ready:
            raise ValueError(f"deadline {deadline} precedes ready {ready}")
        bucket = deadline // self.bucket_cycles
        entries = self._buckets.get(bucket)
        if entries is None:
            entries = self._buckets[bucket] = []
        entries.extend(
            [(ready, deadline, callback, payload, probe) for payload in payloads]
        )
        self._len += len(payloads)
        if not self._draining and (
            self._armed_time is None or deadline < self._armed_time
        ):
            self._arm(deadline)

    def clear(self) -> None:
        """Drop every pending timer and cancel the armed queue event."""
        if self._armed is not None:
            self._armed.cancel()
        self._armed = None
        self._armed_time = None
        self._buckets.clear()
        self._len = 0

    def next_deadline(self) -> Optional[int]:
        """Earliest cycle by which some pending timer must be served."""
        if not self._buckets:
            return None
        earliest_bucket = min(self._buckets)
        return min(entry[1] for entry in self._buckets[earliest_bucket])

    # -- internals -----------------------------------------------------------

    def _arm(self, time: int) -> None:
        if self._armed is not None:
            self._armed.cancel()
        self._armed = self.events.schedule(time, self._drain)
        self._armed_time = time

    def _drain(self, cycle: int, _payload: Any) -> None:
        """Serve every ready entry, then re-arm at the next deadline.

        The armed event fires at the earliest pending deadline, so nothing
        is ever served late(r than its deadline); entries whose ``ready``
        has passed ride along in the same drain even if their deadline lies
        further out (that is the batching).  Buckets are visited in index
        order and entries in insertion order, which keeps the simulation
        deterministic.
        """
        self._armed = None
        self._armed_time = None
        self.drains += 1
        max_bucket = cycle // self.bucket_cycles
        due: List[WheelEntry] = []
        for bucket in sorted(b for b in self._buckets if b <= max_bucket):
            entries = self._buckets[bucket]
            keep = [entry for entry in entries if entry[0] > cycle]
            if len(keep) == len(entries):
                continue
            if keep:
                self._buckets[bucket] = keep
            else:
                del self._buckets[bucket]
            due.extend(entry for entry in entries if entry[0] <= cycle)
        self._len -= len(due)
        self.scans += len(due)
        # Callbacks reschedule their groups through schedule(); defer the
        # re-arm until every handler has run so the whole burst costs one
        # queue operation.  An entry with a due probe is asked first: if
        # its group has nothing due (every predicted-decayed line was
        # recharged by an access since the timer was armed), the entry is
        # re-bucketed at the group's new earliest possible decay and the
        # scan is skipped entirely.
        self._draining = True
        schedule = self.schedule
        try:
            for ready, deadline, callback, payload, probe in due:
                if probe is not None:
                    next_ready = probe(cycle, payload)
                    if next_ready is not None:
                        self.skips += 1
                        schedule(
                            next_ready, next_ready + (deadline - ready),
                            callback, payload, probe,
                        )
                        continue
                callback(cycle, payload)
        finally:
            self._draining = False
        next_deadline = self.next_deadline()
        if next_deadline is not None:
            self._arm(next_deadline)

    def __repr__(self) -> str:
        return (
            f"RefreshWheel(entries={self._len}, "
            f"bucket_cycles={self.bucket_cycles}, "
            f"armed_at={self._armed_time})"
        )
