"""The top-level Refrint simulator.

:class:`RefrintSimulator` assembles one complete simulation point: the cache
hierarchy, the trace-replay cores, the refresh controllers (for eDRAM
configurations) and the energy model, drives the replay loop until every
core drains its trace, performs the end-of-run dirty flush, and returns a
:class:`~repro.core.results.SimulationResult`.  ``replay`` selects the
loop: "runahead" (the default) executes references inline between refresh
disturbances, "event" replays one heap callback per reference; both give
byte-identical results.

Typical use::

    config = SimulationConfig.scaled(retention_us=50.0)
    app = build_application("fft", config)
    result = RefrintSimulator(config).run(app)
    baseline = RefrintSimulator(config.as_sram_baseline()).run(app)
    print(result.normalised_memory_energy(baseline))
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import List, Optional

from repro.config.parameters import SimulationConfig
from repro.core.results import SimulationResult
from repro.cpu.core import Core
from repro.kernels import resolve_kernel
from repro.energy.model import ActivitySummary, SystemEnergyModel
from repro.energy.tables import TechnologyTables
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.refresh.controller import build_refresh_controllers
from repro.utils.events import EventQueue
from repro.workloads.suite import ApplicationWorkload

#: Safety valve on the event loop, in events, to guarantee termination even
#: if a configuration error were to keep cores from finishing.
MAX_EVENTS = 200_000_000

#: Replay modes: "runahead" executes core references inline, yielding to the
#: event queue only when a refresh timer or another core's reference comes
#: first; "event" is the classic one-heap-callback-per-reference loop.  Both
#: produce byte-identical results (pinned by tests/test_backend_equivalence.py).
REPLAY_MODES = ("runahead", "event")


@dataclass(frozen=True)
class ReplayStats:
    """Event-loop and protocol traffic of one simulation run.

    Attributes:
        events_popped: events executed through the queue's heap.  Under
            run-ahead replay this is refresh-wheel drains (plus nothing
            else); under event replay it additionally counts one callback
            per core reference.
        references: data references executed by the cores (identical across
            replay modes; they are inlined, not queued, under run-ahead).
        protocol_calls: access-path protocol invocations -- reads, writes
            and instruction fetches walked individually, plus one per
            committed hit run.  Event replay walks the protocol once per
            reference; run-ahead resolves whole private-hit runs per call,
            so the ratio between the two is the protocol batching factor
            (exact counts, no timing noise; gated by the hot-path CI
            benchmark).
        run_landings: bulk timestamp landings of pending runs (cache-level
            ``access_run`` sweeps before refresh work or a slow access
            reads the arrays).  Reported alongside ``protocol_calls`` so
            the batching factor hides no residual bulk work.
        kernel_batches: columnar kernel scans that retired at least one
            reference (kernel modes only; exact count, CI currency).
        kernel_accesses: references retired through kernel batches
            (scanned stretches plus the seam fills stitched between them).
            The hot-path benchmark gates the ratio of this to the
            private-hit reference count as the kernel's coverage of the
            private-hit stream.
        slow_references: data references that fell off the private fast
            path and took a full protocol walk.  ``references -
            slow_references`` is the private-hit stream the kernel
            coverage gate divides by.
        empty_landings_skipped: per-drain ``land_run`` calls avoided
            because the core had deferred nothing since its last landing
            (the dirty-core registry satellite).
        resolved_hits / resolved_misses: block validations served from /
            missed by the per-core resolved-block cache on the run path.
        wheel_drains / wheel_skips / wheel_scans: refresh-wheel activity of
            the run (queue events fired, probe-skipped scans, entries
            examined).  All zero for SRAM runs, which build no wheel.
            ``wheel_skips <= wheel_scans`` and
            ``wheel_drains <= events_popped`` are invariants checked by
            :func:`repro.validate.invariants.check_replay_stats`.
    """

    events_popped: int
    references: int
    protocol_calls: int = 0
    run_landings: int = 0
    kernel_batches: int = 0
    kernel_accesses: int = 0
    slow_references: int = 0
    empty_landings_skipped: int = 0
    resolved_hits: int = 0
    resolved_misses: int = 0
    wheel_drains: int = 0
    wheel_skips: int = 0
    wheel_scans: int = 0

    @property
    def resolved_hit_rate(self) -> float:
        """Fraction of run-path block validations served by the cache."""
        total = self.resolved_hits + self.resolved_misses
        return self.resolved_hits / total if total else 0.0

    @property
    def private_hit_references(self) -> int:
        """Data references the private hierarchy served without a walk."""
        return self.references - self.slow_references

    @property
    def kernel_coverage(self) -> float:
        """Fraction of private-hit references retired through the kernel."""
        total = self.private_hit_references
        return self.kernel_accesses / total if total else 0.0


class RefrintSimulator:
    """Run one configuration point against one application workload."""

    def __init__(
        self,
        config: SimulationConfig,
        tables: Optional[TechnologyTables] = None,
        cache_backend: str = "array",
        replay: str = "runahead",
        kernel: str = "off",
    ) -> None:
        if replay not in REPLAY_MODES:
            raise ValueError(
                f"unknown replay mode {replay!r}; expected one of {REPLAY_MODES}"
            )
        self.kernel = resolve_kernel(kernel)
        if self.kernel != "off" and replay != "runahead":
            raise ValueError(
                "batch kernels drive the run-ahead replay loop; "
                f"kernel={kernel!r} cannot be combined with replay={replay!r}"
            )
        self.config = config
        self._tables = tables
        self.cache_backend = cache_backend
        self.replay = replay
        #: Event-loop statistics of the most recent :meth:`run`.
        self.last_replay_stats: Optional[ReplayStats] = None

    def run(self, application: ApplicationWorkload) -> SimulationResult:
        """Simulate the application and return the measured result."""
        architecture = self.config.architecture
        if application.num_threads != architecture.num_cores:
            raise ValueError(
                f"workload has {application.num_threads} threads but the chip "
                f"has {architecture.num_cores} cores"
            )

        hierarchy = CacheHierarchy(architecture, cache_backend=self.cache_backend)
        events = EventQueue()
        finished: List[int] = []

        def on_finish(cycle: int, core: Core) -> None:
            finished.append(core.core_id)

        cores = [
            Core(
                core_id=core_id,
                trace=application.traces[core_id],
                hierarchy=hierarchy,
                event_queue=events,
                on_finish=on_finish,
                # Event replay never touches the batched path; skip its
                # per-record precomputation so the per-reference baseline
                # the benchmarks compare against stays undistorted.
                prepare_runs=self.replay == "runahead",
                kernel=self.kernel if self.replay == "runahead" else "off",
            )
            for core_id in range(architecture.num_cores)
        ]

        controllers = build_refresh_controllers(hierarchy, self.config, events)
        for controller in controllers:
            controller.start(0)

        empty_landings_skipped = 0
        if self.replay == "event":
            for core in cores:
                core.start(0)
            self._run_event_loop(events, finished, len(cores))
        elif self.kernel != "off":
            empty_landings_skipped = self._run_ahead_kernel(
                events, cores, finished, hierarchy.protocol
            )
        else:
            empty_landings_skipped = self._run_ahead(
                events, cores, finished, hierarchy.protocol
            )
        wheel = hierarchy.refresh_wheel
        self.last_replay_stats = ReplayStats(
            events_popped=events.popped_events,
            references=sum(core.stats.references_completed for core in cores),
            protocol_calls=hierarchy.protocol_calls,
            run_landings=hierarchy.protocol.run_landings,
            kernel_batches=sum(core._kernel_batches for core in cores),
            kernel_accesses=sum(core._kernel_accesses for core in cores),
            slow_references=sum(core._slow_refs for core in cores),
            empty_landings_skipped=empty_landings_skipped,
            resolved_hits=sum(core._res_hits for core in cores),
            resolved_misses=sum(core._res_misses for core in cores),
            wheel_drains=wheel.drains if wheel is not None else 0,
            wheel_skips=wheel.skips if wheel is not None else 0,
            wheel_scans=wheel.scans if wheel is not None else 0,
        )

        # A core with an empty trace legitimately finishes at cycle 0.
        execution_cycles = max(
            events.now if core.stats.finish_cycle is None
            else core.stats.finish_cycle
            for core in cores
        )
        if self.config.flush_dirty_at_end:
            hierarchy.flush_dirty(execution_cycles)

        busy_core_cycles = sum(core.stats.busy_cycles for core in cores)
        activity = ActivitySummary(
            counters=hierarchy.counters,
            execution_cycles=execution_cycles,
            busy_core_cycles=busy_core_cycles,
        )
        model = SystemEnergyModel(
            architecture=architecture,
            technology=self.config.technology,
            tables=self._tables,
        )
        account = model.account_for(activity)
        # The run's objects reference each other in cycles (pending queue
        # and wheel callbacks are bound to cores and controllers, which hold
        # the hierarchy; the protocol lists cores with pending runs).  Cut
        # them so the whole run is freed on return, not at some later full
        # garbage collection.
        if wheel is not None:
            wheel.clear()
        events.clear()
        hierarchy.protocol.dirty_cores.clear()
        return SimulationResult(
            config=self.config,
            application=application.name,
            execution_cycles=execution_cycles,
            busy_core_cycles=busy_core_cycles,
            counters=hierarchy.counters.as_dict(),
            energy=account.breakdown(),
            per_core_finish_cycles=[
                execution_cycles if core.stats.finish_cycle is None
                else core.stats.finish_cycle
                for core in cores
            ],
        )

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _run_event_loop(
        events: EventQueue, finished: List[int], num_cores: int
    ) -> None:
        """Drain events until every core has finished its trace.

        Refresh controllers keep rescheduling themselves indefinitely, so the
        loop terminates on core completion rather than on queue exhaustion.
        The drain itself runs inside the event queue
        (:meth:`~repro.utils.events.EventQueue.drain_until_count`) so each
        event costs one heap pop and one callback, without re-dispatching
        through the Optional-returning :meth:`~repro.utils.events.EventQueue.pop`
        wrapper.
        """
        events.drain_until_count(finished, num_cores, MAX_EVENTS)

    @staticmethod
    def _run_ahead(
        events: EventQueue, cores: List[Core], finished: List[int], protocol
    ) -> int:
        """Execute references back-to-back, bypassing the heap entirely.

        Per-reference event replay pays one heap push and one pop per data
        reference just to discover what was already known when the previous
        reference completed: *which* core issues next and *when*.  Here the
        pending issue times live in a 16-entry ready list instead, and a
        core executes references in a tight loop up to its *horizon* -- the
        earlier of the next refresh-wheel deadline
        (:meth:`~repro.hierarchy.hierarchy.CacheHierarchy.next_disturbance_cycle`,
        i.e. the queue's next event) and the next other core's issue time.

        Ordering -- and therefore every counter, stall and eviction -- is
        byte-identical to event replay: references execute in the exact
        (time, seq) order the heap would have produced, because each
        reference still claims a sequence number from the queue's shared
        counter at the same point event replay would have scheduled its
        callback.

        On top of the inlining, references ride the *batched access path*
        (:meth:`~repro.cpu.core.Core.step_fast`): private-cache hits defer
        their commutative effects into per-core run buffers that survive
        core switches -- a hit run only ends at the core's own
        state-changing access, a refresh-wheel drain (flushed below, since
        refresh work reads the deferred timestamps), or trace end -- and
        one staged ``hit_run`` call commits each run.  Deferring is safe
        precisely because a private hit touches nothing another core's
        transaction reads: cross-core MESI state stays eagerly maintained,
        only this core's replacement/refresh stamps and globally additive
        counters wait in the buffer.
        """
        # Direct heap / counter access, same rationale as
        # EventQueue.drain_until_count: this loop runs once per data
        # reference and cannot afford wrapper dispatch.
        heap = events._heap
        counter = events._counter
        run_until_key = events.run_until_key
        dirty = protocol.dirty_cores
        num_cores = len(cores)
        empty_landings_skipped = 0
        ready: List = []  # (issue time, seq, core) -- seq unique, so the
        for core in cores:  # core object is never compared.
            issue_time = core.begin(0)
            if issue_time is not None:
                heappush(ready, (issue_time, next(counter), core))
        target = num_cores
        executed = 0
        while len(finished) < target:
            if not ready:
                raise RuntimeError(
                    "all pending references drained before every core "
                    "finished; a core failed to report its next reference"
                )
            time, seq, core = ready[0]
            # Let refresh timers ordered before this reference fire first.
            # (A cancelled entry at the top is handled the same as a live
            # one here: treating its key as a horizon just ends the batch
            # early, and run_until_key discards it on the next pass.)
            if heap:
                head = heap[0]
                if head[0] < time or (head[0] == time and head[1] < seq):
                    # Refresh work reads and rewrites the timestamp vectors
                    # the hit runs defer; land every pending run first.
                    # Only registered (dirty) cores can have pending state
                    # -- an unregistered core's buffer and resolution
                    # caches are provably empty, so its landing is skipped.
                    landed = 0
                    for pending_core in dirty:
                        if pending_core._in_dirty:
                            pending_core.land_run()
                            landed += 1
                    dirty.clear()
                    empty_landings_skipped += num_cores - landed
                    executed += run_until_key(time, seq)
                    if executed > MAX_EVENTS:
                        raise RuntimeError(
                            "event limit exceeded; the simulation appears "
                            "to be stuck"
                        )
            # Horizon: the earliest of the next queue event (the refresh
            # wheel's next disturbance) and the next reference of any
            # *other* core.  Up to there this core runs free.  A freshly
            # claimed seq always exceeds the horizon entry's, so comparing
            # times alone is exact.
            horizon = heap[0][0] if heap else None
            if len(ready) > 1:
                second = ready[1]
                if len(ready) > 2 and ready[2] < second:
                    second = ready[2]
                if horizon is None or second[0] < horizon:
                    horizon = second[0]
            # The clock only needs to be current when queue callbacks run,
            # and none run inside the batch; one forward store per batch
            # suffices (run_until_key above never leaves _now past `time`).
            events._now = time
            step = core.step_fast
            while True:
                next_time = step(time)
                if next_time is None:
                    heappop(ready)
                    break
                next_seq = next(counter)
                if horizon is not None and next_time >= horizon:
                    heapreplace(ready, (next_time, next_seq, core))
                    break
                time = next_time
        # A core whose final reference went down the slow path finished
        # inside step() with its run tallies still pending; commit them
        # before the results are assembled.
        for core in cores:
            core.commit_run()
        return empty_landings_skipped

    @staticmethod
    def _run_ahead_kernel(
        events: EventQueue, cores: List[Core], finished: List[int], protocol
    ) -> int:
        """Run-ahead replay with batched (kernel) reference retirement.

        Same ready-list structure and byte-identical ordering guarantees as
        :meth:`_run_ahead`, but each inner step goes through
        :meth:`~repro.cpu.core.Core.step_batch`, which retires a whole
        kernel-eligible stretch per call, and the horizon is split in two:

        * ``strict`` -- the classic bound (next heap event, next other
          core's pending issue time).  Scalar (possibly state-changing)
          references execute only below it, where this core is provably
          the globally earliest actor.
        * ``relaxed`` -- the kernel bound.  A waiting core whose last scan
          *promised* that its pending references remain pure private hits
          up to some frontier (no directory transaction, no event, no
          shared state) publishes that frontier; pure-hit stretches of the
          running core may retire past such a core's issue time, because
          pure hits of different cores touch disjoint state, claim the
          same total of sequence numbers, and therefore commute
          byte-identically.  The next heap event stays a hard bound, and a
          frontier counts only while its protocol-epoch and
          driver-generation stamps are current (any directory transaction
          bumps the epoch; every wheel drain bumps the generation).

        The batch re-validates the horizons whenever the epoch or the
        queue head moves (a slow reference may have armed or cancelled
        events), so stale promises shrink the bound rather than leak
        through it.  Returns the skipped-empty-landing count.
        """
        heap = events._heap
        run_until_key = events.run_until_key
        peek_key = events.peek_key
        epoch = protocol.run_epoch
        dirty = protocol.dirty_cores
        num_cores = len(cores)
        empty_landings_skipped = 0
        generation = 0
        ready: List = []  # (issue time, seq, core); seq unique.
        for core in cores:
            issue_time = core.begin(0)
            if issue_time is not None:
                heappush(ready, (issue_time, events.claim_seq(), core))
        target = num_cores
        executed = 0

        def horizons():
            """(strict, relaxed) for the core at ready[0]; -1 = unbounded."""
            head = peek_key()
            head_time = head[0] if head is not None else -1
            strict = head_time
            relaxed = head_time
            if len(ready) > 1:
                second = ready[1]
                if len(ready) > 2 and ready[2] < second:
                    second = ready[2]
                if strict < 0 or second[0] < strict:
                    strict = second[0]
                frontier_min = -1
                for entry in ready[1:]:
                    # ``promise`` returns the waiting core's published
                    # private frontier, computing and caching it (against
                    # the current epoch/generation stamps) on first ask;
                    # cores that cannot promise return their entry time.
                    bound = entry[2].promise(entry[0], generation)
                    if frontier_min < 0 or bound < frontier_min:
                        frontier_min = bound
                if frontier_min >= 0 and (relaxed < 0 or frontier_min < relaxed):
                    relaxed = frontier_min
            return strict, relaxed

        while len(finished) < target:
            if not ready:
                raise RuntimeError(
                    "all pending references drained before every core "
                    "finished; a core failed to report its next reference"
                )
            time, seq, core = ready[0]
            head = peek_key()
            if head is not None and head < (time, seq):
                landed = 0
                for pending_core in dirty:
                    if pending_core._in_dirty:
                        pending_core.land_run()
                        landed += 1
                dirty.clear()
                empty_landings_skipped += num_cores - landed
                executed += run_until_key(time, seq)
                generation += 1
                if executed > MAX_EVENTS:
                    raise RuntimeError(
                        "event limit exceeded; the simulation appears "
                        "to be stuck"
                    )
                head = peek_key()
            strict, relaxed = horizons()
            epoch_seen = epoch[0]
            events._now = time
            allow_scalar = True
            while True:
                next_time = core.step_batch(
                    time, strict, relaxed, generation, allow_scalar
                )
                allow_scalar = False
                if next_time is None:
                    heappop(ready)
                    break
                if next_time < 0:
                    # Blocked: nothing retirable below the horizons.  The
                    # pending reference keeps the key it already claimed.
                    heapreplace(ready, (time, core._last_seq, core))
                    break
                if epoch[0] != epoch_seen or peek_key() != head:
                    # A slow reference transacted with the directory or
                    # moved the queue head; promises and bounds are stale.
                    epoch_seen = epoch[0]
                    head = peek_key()
                    strict, relaxed = horizons()
                if 0 <= relaxed <= next_time:
                    heapreplace(ready, (next_time, core._last_seq, core))
                    break
                time = next_time
        for core in cores:
            core.commit_run()
        return empty_landings_skipped
