"""Refrint (Sentry-bit, interrupt-driven) refresh controller.

Each cache line carries a Sentry bit that decays ``sentry_margin`` cycles
before the line itself; its decay raises an interrupt through a priority
encoder, and the cache controller then refreshes, writes back or
invalidates the line according to the data policy (Sections 3.1, 4.1, 4.2).
Because a line is only touched when its Sentry bit says it is about to
decay, Refrint performs the minimum number of refreshes needed to keep a
line alive, and the work is naturally spread out in time instead of
arriving in bulk passes.

Sentry bits are grouped onto shared interrupt lines (group size 1 for the
L1s, 4 for the L2 and 16 for the L3 in the paper's configuration); when a
group's interrupt fires the controller processes the group's due lines one
per cycle, with interrupt requests taking priority over plain reads and
writes.

Simulation strategy: one *lazy* timer per sentry group, kept in the shared
:class:`~repro.utils.wheel.RefreshWheel` rather than as an individual heap
event.  A timer is always armed no later than ``now + sentry retention``
and may be served up to ``margin - 1`` cycles after its predicted decay
(the margin is precisely the headroom the hardware budgets between a
Sentry bit's decay and the line's own), which lets one wheel drain serve
many groups -- and many controllers -- at once.  When a timer is served,
lines whose Sentry bit has actually decayed are processed and the timer is
re-armed for the group's next earliest decay.  A line that was accessed
(and therefore recharged) after the timer was armed is simply not due yet
and is picked up by a later drain, so no per-access cancellation is needed.

A sentry group is a contiguous ``[start, end)`` range of line indices
(mirroring the wired-OR of adjacent sentry outputs in hardware), so the
"which lines have decayed" question and the "when does this group fire
next" question are both answered by compares over the cache's last-refresh
vector (:meth:`~repro.mem.cache.Cache.refresh_due_indices` /
:meth:`~repro.mem.cache.Cache.min_last_refresh`) -- no per-line objects are
touched until a line is actually due.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Tuple

from repro.refresh.controller import RefreshController
from repro.refresh.policies import AllPolicy, PolicyAction
from repro.refresh.sentry import SentryBit


@lru_cache(maxsize=None)
def sentry_groups(num_lines: int, group_size: int) -> Tuple[Tuple[int, int], ...]:
    """``[start, end)`` line ranges of a cache's sentry groups, in order.

    Shared by every controller (and run) over the same geometry, so arming
    a cache's timers builds no per-group range objects.
    """
    return tuple(
        (start, min(start + group_size, num_lines))
        for start in range(0, num_lines, group_size)
    )


class RefrintRefreshController(RefreshController):
    """Sentry-bit-driven refresh of one cache array."""

    def start(self, cycle: int) -> None:
        """Partition the lines into sentry groups and arm one lazy timer each."""
        self._interrupt_counter = f"{self.level}_sentry_interrupts"
        self.sentry = SentryBit(
            retention_cycles=self.config.retention_cycles,
            margin_cycles=self.config.sentry_margin_cycles,
        )
        self._sentry_retention = self.sentry.sentry_retention_cycles
        # A sentry timer may be served after its predicted decay: the margin
        # is exactly the headroom between a Sentry bit's decay and the
        # line's own (the hardware sizes it so the priority-encoder walk
        # finishes in time, Section 4.1), so anything under ``margin``
        # cycles of lateness can never lose data.  The slack is what lets
        # one wheel drain serve whole batches of timers; it is additionally
        # capped at ~3% of the sentry period so the cadence of repeated
        # passes over an idle line -- which is what ages a WB(n, m) Count
        # towards its write-back/invalidate -- stays true to the paper's.
        self._slack = max(
            0,
            min(
                self.config.sentry_margin_cycles - 1,
                self._sentry_retention // 32,
            ),
        )
        self._include_invalid = isinstance(self.policy, AllPolicy)
        self.groups = sentry_groups(
            self.cache.num_lines, self.cache.geometry.sentry_group_size
        )
        # The single-pass handler fuses the due scan, the refresh ticks and
        # the next-fire computation over the raw state vectors -- as masked
        # array operations on the numpy backend, as one int-compare loop on
        # the list backend; the object backend and plugged-in policies keep
        # the generic two-pass walk.
        if self._policy_kind == "custom" or self.cache.arrays is None:
            handler = self._on_group_interrupt
        elif self.cache.numpy_backed:
            handler = self._on_group_interrupt_vector
        else:
            handler = self._on_group_interrupt_fast
        # An empty cache has nothing due before one full sentry retention.
        first = cycle + self._sentry_retention
        self.wheel.schedule_many(
            first, first + self._slack, handler, self.groups,
            probe=self._group_probe,
        )

    # -- event handling --------------------------------------------------------

    def _group_probe(self, cycle: int, payload: Any) -> Any:
        """Per-group due-time check consulted by the wheel before a scan.

        Returns None when the group holds at least one line whose Sentry
        bit has decayed by ``cycle`` -- the interrupt must be served.
        Otherwise every predicted-decayed line was recharged by an access
        since the timer was armed, and the handler would do nothing but
        reschedule; the return value is exactly the fire time the handler
        would have armed (earliest last-refresh plus the sentry retention,
        capped one retention out), so skipping the scan is unobservable.
        Shared by all three handler variants, whose no-due-work reschedule
        logic is identical.
        """
        sentry_retention = self._sentry_retention
        earliest = self.cache.min_last_refresh(
            payload[0], payload[1], self._include_invalid
        )
        horizon = cycle + sentry_retention
        if earliest is None:
            return horizon
        if earliest <= cycle - sentry_retention:
            return None
        next_time = earliest + sentry_retention
        return horizon if next_time > horizon else next_time

    def _on_group_interrupt(self, cycle: int, payload: Any) -> None:
        start, end = payload
        include_invalid = self._include_invalid
        # The controller walks the group's due lines (one per cycle through
        # the priority encoder); a line accessed since the event was armed
        # had its Sentry bit recharged and is simply not due yet.  This is
        # what makes Refrint cheaper than the eager periodic walk.
        due = self.cache.refresh_due_indices(
            start, end, cycle - self._sentry_retention, include_invalid
        )
        processed = self.process_indices(due, cycle)
        if processed:
            self.block_array(cycle, processed)
            self.counters.add(self._interrupt_counter)
        self._reschedule(payload, cycle, include_invalid)

    def _on_group_interrupt_fast(self, cycle: int, payload: Any) -> None:
        """Single-pass group interrupt over the state vectors (array backend).

        One walk of ``[start, end)`` classifies every line: due lines take
        their refresh tick in place (a timestamp store plus, for WB(n, m), a
        Count decrement), lines needing a write-back or invalidation are
        collected for the slow per-view path, and the earliest last-refresh
        among the not-due lines is tracked for the reschedule -- so the
        whole interrupt costs one loop of int compares instead of building
        due lists and re-scanning for the next fire time.  Behaviour is
        identical to :meth:`_on_group_interrupt`; the equivalence suite
        pins the two paths against each other.
        """
        start, end = payload
        arrays = self.cache.arrays
        last_refresh = arrays.last_refresh_cycle
        valid = arrays.valid
        sentry_retention = self._sentry_retention
        cutoff = cycle - sentry_retention
        limit = cycle - self.config.retention_cycles
        kind = self._policy_kind
        processed = 0
        refreshed = 0
        violations = 0
        slow = None
        min_not_due = None
        if kind == "wb":
            counts = arrays.refresh_count
            dirty = arrays.dirty
            dirty_budget = self._dirty_budget
            clean_budget = self._clean_budget
            for i in range(start, end):
                if not valid[i]:
                    continue
                stamp = last_refresh[i]
                if stamp <= cutoff:
                    count = counts[i]
                    if count < 0:
                        count = dirty_budget if dirty[i] else clean_budget
                    if count >= 1:
                        if stamp < limit:
                            violations += 1
                        last_refresh[i] = cycle
                        counts[i] = count - 1
                        refreshed += 1
                    elif slow is None:
                        slow = [i]
                    else:
                        slow.append(i)
                elif min_not_due is None or stamp < min_not_due:
                    min_not_due = stamp
        elif kind == "dirty":
            dirty = arrays.dirty
            for i in range(start, end):
                if not valid[i]:
                    continue
                stamp = last_refresh[i]
                if stamp <= cutoff:
                    if dirty[i]:
                        if stamp < limit:
                            violations += 1
                        last_refresh[i] = cycle
                        refreshed += 1
                    elif slow is None:
                        slow = [i]
                    else:
                        slow.append(i)
                elif min_not_due is None or stamp < min_not_due:
                    min_not_due = stamp
        else:  # valid / all
            include_invalid = self._include_invalid
            for i in range(start, end):
                if not valid[i] and not include_invalid:
                    continue
                stamp = last_refresh[i]
                if stamp <= cutoff:
                    if valid[i] and stamp < limit:
                        violations += 1
                    last_refresh[i] = cycle
                    refreshed += 1
                elif min_not_due is None or stamp < min_not_due:
                    min_not_due = stamp
        processed = refreshed
        if slow:
            cache = self.cache
            assoc = cache.geometry.associativity
            for i in slow:
                action = self.apply_policy(i // assoc, cache.view(i), cycle)
                if action is not PolicyAction.SKIP:
                    processed += 1
        stat_counts = self._raw_counts  # distinct from the WB Count vector
        if refreshed:
            stat_counts[self._refresh_counter] += refreshed
        if violations:
            stat_counts["decay_violations"] += violations
        if processed:
            cache = self.cache
            until = cycle + processed * self._refresh_cycles_per_line
            if until > cache.busy_until:
                cache.busy_until = until
            stat_counts[self._interrupt_counter] += 1
        # Reschedule: lines handled this pass carry last_refresh == cycle,
        # i.e. exactly the horizon; only the not-due lines can fire earlier.
        # The horizon cap matters even so: the protocol's functionally
        # atomic transactions stamp lines at cycle + latency, so a not-due
        # line's refresh timestamp can lie in the future.
        horizon = cycle + sentry_retention
        if min_not_due is None:
            next_time = horizon
        else:
            next_time = min_not_due + sentry_retention
            if next_time > horizon:
                next_time = horizon
            elif next_time <= cycle:
                next_time = cycle + 1
        self.wheel.schedule(
            next_time, next_time + self._slack,
            self._on_group_interrupt_fast, payload=payload,
            probe=self._group_probe,
        )

    def _on_group_interrupt_vector(self, cycle: int, payload: Any) -> None:
        """Group interrupt as masked array operations (numpy backend).

        Delegates the scan, the in-place refresh ticks and the next-fire
        computation to :meth:`~repro.mem.cache.Cache.sentry_scan_range`;
        only write-backs / invalidations walk their line views.  Behaviour
        is identical to :meth:`_on_group_interrupt_fast` (the equivalence
        suite pins all backends against each other).
        """
        start, end = payload
        kind = self._policy_kind
        refreshed, violations, slow, min_not_due = self.cache.sentry_scan_range(
            start,
            end,
            cycle,
            cycle - self._sentry_retention,
            cycle - self.config.retention_cycles,
            kind,
            self._include_invalid,
            self._dirty_budget if kind == "wb" else 0,
            self._clean_budget if kind == "wb" else 0,
        )
        processed = refreshed
        if slow:
            cache = self.cache
            assoc = cache.geometry.associativity
            for i in slow:
                action = self.apply_policy(i // assoc, cache.view(i), cycle)
                if action is not PolicyAction.SKIP:
                    processed += 1
        stat_counts = self._raw_counts
        if refreshed:
            stat_counts[self._refresh_counter] += refreshed
        if violations:
            stat_counts["decay_violations"] += violations
        if processed:
            self.block_array(cycle, processed)
            stat_counts[self._interrupt_counter] += 1
        sentry_retention = self._sentry_retention
        horizon = cycle + sentry_retention
        if min_not_due is None:
            next_time = horizon
        else:
            next_time = min_not_due + sentry_retention
            if next_time > horizon:
                next_time = horizon
            elif next_time <= cycle:
                next_time = cycle + 1
        self.wheel.schedule(
            next_time, next_time + self._slack,
            self._on_group_interrupt_vector, payload=payload,
            probe=self._group_probe,
        )

    def _reschedule(
        self, group: Tuple[int, int], cycle: int, include_invalid: bool
    ) -> None:
        """Arm the group's next event: its earliest future decay, capped at
        one sentry retention from now (so newly filled lines are never
        missed)."""
        horizon = cycle + self._sentry_retention
        earliest_refresh = self.cache.min_last_refresh(
            group[0], group[1], include_invalid
        )
        if earliest_refresh is None:
            earliest = horizon
        else:
            earliest = min(earliest_refresh + self._sentry_retention, horizon)
        next_time = max(cycle + 1, earliest)
        self.wheel.schedule(
            next_time, next_time + self._slack,
            self._on_group_interrupt, payload=group,
            probe=self._group_probe,
        )

    def _refreshes_invalid_lines(self) -> bool:
        """True when the data policy acts on invalid lines too (All only)."""
        return isinstance(self.policy, AllPolicy)
