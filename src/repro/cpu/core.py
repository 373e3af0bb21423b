"""Trace-replay core model.

Each of the 16 cores replays one thread's :class:`~repro.cpu.trace.TraceStream`
against the shared memory hierarchy.  The model is deliberately simple -- the
paper's dual-issue out-of-order MIPS32 core is replaced by an in-order engine
that charges one cycle per non-memory instruction and blocks on every data
reference until the hierarchy answers.  The effects the evaluation cares
about are preserved: periodic refresh passes block the arrays and delay the
accesses behind them, and policies that invalidate useful data early cause
extra misses whose latency lengthens execution time (Section 6.5).

Instruction fetches are modelled in two parts: every instruction is charged
one L1I access for energy purposes, and one real instruction fetch is issued
through the hierarchy per ``ifetch_interval`` instructions (walking a small
per-thread code region) so the instruction working set occupies cache lines
and is subject to refresh like everything else.

Under run-ahead replay the cores drive a *batched* access path
(:meth:`Core.step_fast`): a reference that the private hierarchy can resolve
without a directory transaction -- an L1 hit, an L2-served read, a store to
an M/E line -- only touches the core's own replacement/refresh timestamps
and globally additive counters, so its effects are deferred into a
:class:`~repro.coherence.protocol.RunBuffer` and committed in one staged
:meth:`~repro.coherence.protocol.DirectoryProtocol.hit_run` call.  The run
is validated per *block* (one probe and MESI check when the block or epoch
changes), not per reference, so a core streaming hits out of its L1 pays a
few list appends per reference.  Runs are cut only where someone could
observe the pending state: the core's own slow (state-changing) access, a
refresh-wheel drain, or trace completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cpu.trace import TraceStream
from repro.hierarchy.hierarchy import CacheHierarchy

# After the hierarchy: importing anything under repro.coherence runs that
# package's __init__, whose protocol import needs repro.hierarchy fully
# initialised first.
from repro.coherence.runbuffer import RunBuffer, merge_extend
from repro.mem.line import MESI_EXCLUSIVE, MESI_MODIFIED, MESI_SHARED
from repro.utils.events import EventQueue

# numpy is optional: only a core built with a batch kernel uses it
# (resolve_kernel gates).
from repro.utils.optional import import_numpy

#: Number of instructions represented by one real instruction-fetch access.
DEFAULT_IFETCH_INTERVAL = 16

#: Most references one kernel scan examines.  A longer stretch simply takes
#: several scans; the cap bounds the staging buffers and keeps a scan's
#: columns inside cache.
KERNEL_WINDOW = 2048

#: Staging span of a *promise* scan (a waiting core probed by the driver's
#: horizon computation).  The promise only needs to stretch modestly past
#: the core's pending issue time for the running core's relaxed bound to
#: open up; a short window keeps the per-epoch staging cost of the whole
#: waiting set negligible.  The core's own retiring scans still stage the
#: full :data:`KERNEL_WINDOW`.
PROMISE_WINDOW = 96

#: Capacity of the per-core resolved-block cache (satellite: multi-block
#: LRU).  Small on purpose: it only needs to cover the distinct blocks a
#: core alternates between within one run.
RESOLVED_CACHE_CAPACITY = 64

#: Bytes of the per-thread code region walked by the modelled fetches.  Kept
#: small (an inner-loop sized footprint) so that, on the scaled geometry,
#: code does not crowd data out of the small private caches.
DEFAULT_CODE_REGION_BYTES = 512


@dataclass
class CoreStats:
    """Per-core execution statistics."""

    references_completed: int = 0
    instructions_executed: int = 0
    busy_cycles: int = 0
    stall_cycles: int = 0
    finish_cycle: Optional[int] = None

    @property
    def finished(self) -> bool:
        """True once the core has drained its trace."""
        return self.finish_cycle is not None


class Core:
    """One trace-replay core attached to the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        trace: TraceStream,
        hierarchy: CacheHierarchy,
        event_queue: EventQueue,
        code_base_address: Optional[int] = None,
        ifetch_interval: int = DEFAULT_IFETCH_INTERVAL,
        code_region_bytes: int = DEFAULT_CODE_REGION_BYTES,
        on_finish: Optional[Callable[[int, "Core"], None]] = None,
        prepare_runs: bool = True,
        kernel: str = "off",
    ) -> None:
        if ifetch_interval < 1:
            raise ValueError("ifetch_interval must be >= 1")
        self.core_id = core_id
        self.trace = trace
        self.hierarchy = hierarchy
        self.events = event_queue
        self.stats = CoreStats()
        self.ifetch_interval = ifetch_interval
        self.code_region_bytes = code_region_bytes
        # Each thread executes from its own code region high in the address
        # space so code and data never collide.
        self.code_base_address = (
            code_base_address
            if code_base_address is not None
            else (1 << 40) + core_id * code_region_bytes
        )
        self._on_finish = on_finish
        self._next_index = 0
        self._instructions_since_ifetch = 0
        self._code_offset = 0
        self._line_bytes = hierarchy.architecture.line_bytes
        self._counts = hierarchy.counters.raw
        # Bound-method caches for the per-reference dispatch.
        self._read = hierarchy.read
        self._write = hierarchy.write
        # The trace unpacked into parallel field columns (built once per
        # trace): the replay loop runs once per reference and a plain tuple
        # index is several times cheaper than TraceStream.__getitem__ plus
        # dataclass attribute and property lookups on every record.
        self._num_records = len(trace)
        self._addresses, self._is_write, self._gaps = trace.columns()
        # Batched access path (run-ahead replay only; event replay passes
        # prepare_runs=False and never pays for it).  Block addresses are
        # precomputed so the same-line fast path is one list read and an
        # int compare; the private caches and the hit-run plumbing are
        # bound once.
        block_mask = ~(self._line_bytes - 1)
        self._block_mask = block_mask
        self._blocks = (
            [address & block_mask for address in self._addresses]
            if prepare_runs
            else None
        )
        caches = hierarchy.cores[core_id]
        self._l1i = caches.l1i
        self._l1d = caches.l1d
        self._l2 = caches.l2
        self._l1d_cycles = caches.l1d.access_cycles
        self._l2_cycles = caches.l2.access_cycles
        # A run write always costs the L1D access (write-through) plus the
        # L2 access; a run read served by the L1D costs the L1D alone.
        self._l1d_l2_cycles = caches.l1d.access_cycles + caches.l2.access_cycles
        self._run = RunBuffer()
        self._commit_run = hierarchy.commit_hit_run
        self._protocol = hierarchy.protocol
        self._epoch = hierarchy.protocol.run_epoch
        # Cached resolution of the most recent servable block: its private
        # line indices and permissions, valid only while the protocol epoch
        # is unchanged (a slow transaction anywhere may recall or
        # back-invalidate private lines).
        self._cb = -1
        self._cb_epoch = -1
        self._cb_l1d = -1
        self._cb_l2 = -1
        self._cb_wok = False
        # Deferred CoreStats tallies, applied on flush.
        self._run_refs = 0
        self._run_busy = 0
        self._run_stall = 0
        self._run_instr = 0
        # Multi-block resolution cache: block -> (l1d index, l2 index,
        # write ok) for every block resolved since the last landing.  The
        # same validity rules as the one-entry ``_cb`` cache apply (dropped
        # on epoch change and on every landing); on top of those the cache
        # survives block *switches*, so a core alternating between lines
        # pays one probe per line per run instead of one per switch.
        self._resolved: dict = {}
        self._resolved_epoch = -1
        self._res_hits = 0
        self._res_misses = 0
        # Dirty-core registry: the core adds itself when it first defers
        # run state, and the run-ahead drivers land only registered cores
        # at a wheel drain.  The flag being False guarantees ``_cb == -1``,
        # an empty resolution cache and an empty run buffer (they are
        # cleared wherever the flag is), so skipping ``land_run`` for
        # unregistered cores is exact, not an approximation.
        self._in_dirty = False
        self._dirty_cores = hierarchy.protocol.dirty_cores
        # Batch-replay kernel staging (see repro.kernels): the trace as
        # int64 columns, the scan dispatch, and the per-core coverage
        # counters.  Only built when a kernel mode is selected.
        self.kernel = kernel
        self._kernel_batches = 0
        self._kernel_accesses = 0
        self._slow_refs = 0
        self._last_seq = -1
        self._frontier = -1
        self._frontier_epoch = -1
        self._frontier_gen = -1
        self._staged_lo = -1
        self._staged_end = -1
        self._staged_epoch = -1
        self._staged_gen = -1
        self._read_stall = max(self._l1d_cycles - 1, 0)
        self._write_stall = max(self._l1d_l2_cycles - 1, 0)
        if kernel != "off" and prepare_runs:
            from repro.kernels import scanner_for

            np = import_numpy()
            self._scan = scanner_for(kernel)
            count = self._num_records
            self._blocks_np = np.array(
                self._blocks if self._blocks is not None else [],
                dtype=np.int64,
            )
            self._write_np = np.array(self._is_write, dtype=np.int64)
            gaps_next = np.zeros(count, dtype=np.int64)
            if count > 1:
                gaps_next[: count - 1] = self._gaps[1:]
            self._gaps_next_np = gaps_next
            # The instruction-fetch slot model: the code region as
            # ``nslots`` line-sized slots whose L1I indices are probed per
            # scan.  It only holds when the region tiles into whole lines
            # (the offset walk then cycles through slot-aligned addresses);
            # otherwise crossings simply cap every stretch and fall back to
            # the scalar fetch path.
            self._slots_ok = (
                code_region_bytes % self._line_bytes == 0
                and code_region_bytes >= self._line_bytes
            )
            self._nslots = max(1, code_region_bytes // self._line_bytes)
            self._code_idx = np.empty(self._nslots, dtype=np.int64)
            empty = np.empty(0, dtype=np.int64)
            self._map_blocks = empty
            self._map_l1d = empty
            self._map_l2 = empty
            self._map_wok = empty
        else:
            self._scan = None

    # -- lifecycle -------------------------------------------------------------

    def start(self, cycle: int) -> None:
        """Schedule the core's first reference at ``cycle`` (event replay)."""
        issue_time = self.begin(cycle)
        if issue_time is not None:
            self.events.schedule_callback(issue_time, self._on_reference)

    def begin(self, cycle: int) -> Optional[int]:
        """Charge the leading instruction gap; return the first issue time.

        Returns None when the trace is empty (the core finishes on the
        spot).  Both replay modes call this; only the event mode then puts a
        callback on the queue, the run-ahead driver keeps the issue time in
        its own ready list.
        """
        if self._num_records == 0:
            self._finish(cycle)
            return None
        first_gap = self._gaps[0]
        self.stats.busy_cycles += first_gap
        self._account_instructions(cycle, first_gap)
        return cycle + first_gap

    @property
    def finished(self) -> bool:
        """True once the core has drained its trace."""
        return self.stats.finished

    # -- event handling ---------------------------------------------------------

    def step(self, cycle: int) -> Optional[int]:
        """Execute the reference issued at ``cycle``; return the next issue time.

        This is the per-reference body shared by both replay modes.  Returns
        None when the trace is drained (the core finishes at completion of
        this reference).
        """
        index = self._next_index
        if self._is_write[index]:
            latency = self._write(self.core_id, self._addresses[index], cycle)
        else:
            latency = self._read(self.core_id, self._addresses[index], cycle)
        stats = self.stats
        stats.references_completed += 1
        stats.busy_cycles += 1
        if latency > 1:
            stats.stall_cycles += latency - 1
        index += 1
        self._next_index = index

        if index >= self._num_records:
            self._finish(cycle + latency)
            return None

        gap = self._gaps[index]
        stats.busy_cycles += gap
        issue_time = cycle + latency + gap
        self._account_instructions(cycle + latency, gap)
        return issue_time

    def step_fast(self, cycle: int) -> Optional[int]:
        """Like :meth:`step`, but private hits join the pending run.

        Byte-equivalent to :meth:`step`: a reference the private caches can
        serve without a directory transaction defers its timestamp/counter
        effects into the run buffer (committed later in one
        ``hit_run`` staged call); anything else lands the run and falls
        back to the ordinary protocol walk.  Only the run-ahead driver
        calls this -- event replay keeps the one-call-per-reference path.
        """
        index = self._next_index
        block = self._blocks[index]
        write = self._is_write[index]
        if not self._in_dirty:
            self._in_dirty = True
            self._dirty_cores.append(self)
        if block != self._cb or self._cb_epoch != self._epoch[0]:
            epoch = self._epoch[0]
            resolved = self._resolved
            if self._resolved_epoch != epoch:
                if resolved:
                    resolved.clear()
                self._resolved_epoch = epoch
            entry = resolved.get(block)
            if entry is not None:
                # A block resolved earlier in this run: reload it without
                # re-probing.  Refresh to most-recently-used so eviction
                # drops the coldest resolution (the entry set is unchanged,
                # so the kernel's map arrays stay valid).
                self._res_hits += 1
                del resolved[block]
                resolved[block] = entry
                self._cb = block
                self._cb_epoch = epoch
                self._cb_l1d, self._cb_l2, self._cb_wok = entry
            else:
                self._res_misses += 1
                if not self._resolve_block(block, cycle, write):
                    self._slow_refs += 1
                    self.land_run()
                    return self.step(cycle)
        buf = self._run
        if write:
            if not self._cb_wok and not self._resolve_write(cycle):
                self._slow_refs += 1
                self.land_run()
                return self.step(cycle)
            buf.l1d_writes += 1
            l1d_index = self._cb_l1d
            if l1d_index >= 0:
                buf.l1d_hits += 1
                idxs = buf.l1d_idx
                if idxs and idxs[-1] == l1d_index:
                    buf.l1d_cyc[-1] = cycle
                    buf.l1d_cnt[-1] += 1
                else:
                    idxs.append(l1d_index)
                    buf.l1d_cyc.append(cycle)
                    buf.l1d_cnt.append(1)
            else:
                buf.l1d_misses += 1
            # The store proceeds to the write-back L2 (write-through L1);
            # the L2 is stamped when its access completes.
            latency = self._l1d_l2_cycles
            l2_index = self._cb_l2
            idxs = buf.l2_idx
            if idxs and idxs[-1] == l2_index:
                buf.l2_cyc[-1] = cycle + latency
                buf.l2_cnt[-1] += 1
            else:
                idxs.append(l2_index)
                buf.l2_cyc.append(cycle + latency)
                buf.l2_cnt.append(1)
            buf.l2_writes += 1
            buf.l2_hits += 1
        else:
            buf.l1d_reads += 1
            l1d_index = self._cb_l1d
            if l1d_index >= 0:
                buf.l1d_hits += 1
                idxs = buf.l1d_idx
                if idxs and idxs[-1] == l1d_index:
                    buf.l1d_cyc[-1] = cycle
                    buf.l1d_cnt[-1] += 1
                else:
                    idxs.append(l1d_index)
                    buf.l1d_cyc.append(cycle)
                    buf.l1d_cnt.append(1)
                latency = self._l1d_cycles
            else:
                latency = self._serve_read_from_l2(block, cycle)

        self._run_refs += 1
        if latency > 1:
            self._run_stall += latency - 1
        index += 1
        self._next_index = index
        if index >= self._num_records:
            self._run_busy += 1
            self.commit_run()
            self._finish(cycle + latency)
            return None
        gap = self._gaps[index]
        self._run_busy += 1 + gap
        if gap:
            # Inlined common case of the gap accounting: charge the L1I
            # energy tallies; hand off to _ifetch_run only when a real
            # instruction fetch falls due.
            self._run_instr += gap
            buf.l1i_reads += gap
            buf.instructions += gap
            since = self._instructions_since_ifetch + gap
            if since < self.ifetch_interval:
                self._instructions_since_ifetch = since
            else:
                self._ifetch_run(cycle + latency, since)
        return cycle + latency + gap

    def step_batch(
        self,
        cycle: int,
        strict: int,
        relaxed: int,
        gen: int,
        allow_scalar: bool,
    ) -> Optional[int]:
        """One unit of kernel-mode replay: a batched stretch or one reference.

        Byte-equivalent to the same references through :meth:`step_fast`.
        When the upcoming reference's block is already resolved, a columnar
        scan (:mod:`repro.kernels`) classifies up to :data:`KERNEL_WINDOW`
        references at once and the whole eligible stretch -- bounded by
        ``relaxed``, the kernel horizon -- retires in one call: touch lists
        merge onto the run buffer seam-coalesced, counter tallies add in
        closed form, and the stretch claims its sequence numbers in one
        :meth:`~repro.utils.events.EventQueue.claim_seq_bulk` draw.
        Anything the scan cannot promise falls back to one scalar
        :meth:`step_fast` reference, allowed only below the ``strict``
        horizon (``allow_scalar`` marks the batch's unconditional first
        action).  Horizons of ``-1`` are unbounded.

        Returns the next issue time, None when the trace drained, or -1
        when blocked (nothing retirable below the horizons); the claimed
        sequence number of the pending reference is left in ``_last_seq``.
        The scan's private frontier is published (stamped with the
        protocol epoch and driver generation ``gen``) so the driver can let
        *other* cores run past this core's pending references while they
        are promised to stay core-private operations.

        One call stitches vector segments across *seams*: a read absent
        from the L1D but resident in the private L2 is a structural fill
        -- core-private, commuting with other cores' promised references
        just like a pure hit -- so below the relaxed horizon it executes
        as one :meth:`step_fast` reference between two scans, with the
        staged hit map repaired in place, instead of ending the batch.
        """
        l1d = self._l1d
        l2 = self._l2
        # The kernel never retires the trace's final record: the scalar
        # path owns finish/commit, and every kernel-retired reference must
        # have a successor (it claims that successor's sequence number).
        if (
            self._num_records - 1 - self._next_index > 0
            and cycle >= l1d.busy_horizon
            and cycle >= l2.busy_horizon
        ):
            epoch0 = self._epoch[0]
            probe_d = l1d.probe_index
            probe_2 = l2.probe_index
            state = l2.state_code
            progressed = False
            next_time = cycle
            # ``allow_scalar`` is the driver's proof that this core is the
            # globally earliest actor at (time, seq).  That licence covers
            # more than one scalar step: when the horizon sits at or below
            # the batch start, the reference issuing exactly at ``cycle``
            # may still retire -- as a kernel batch of one -- because every
            # later reference of this stretch issues strictly after it.
            # The boost is consumed by the first action.
            boost = allow_scalar
            while True:
                index = self._next_index
                window = self._num_records - 1 - index
                if window <= 0:
                    break
                if window > KERNEL_WINDOW:
                    window = KERNEL_WINDOW
                # Classify the pending reference with direct probes: a
                # scan-retirable reference (or a horizon-blocked one whose
                # scan still yields a publishable frontier) goes to the
                # scan; a seam fill executes here; anything else ends the
                # batch at the scalar gate.
                block = self._blocks[index]
                seam = False
                if self._is_write[index]:
                    l2_index = probe_2(block)
                    eligible = l2_index >= 0 and state(l2_index) in (
                        MESI_MODIFIED,
                        MESI_EXCLUSIVE,
                    )
                else:
                    eligible = probe_d(block) >= 0
                    seam = not eligible and probe_2(block) >= 0
                if not eligible and not seam:
                    break
                horizon = relaxed
                if boost and 0 <= relaxed <= cycle:
                    horizon = cycle + 1
                if (
                    seam
                    and (horizon < 0 or cycle < horizon)
                    and self._seam_tail_private(index, cycle)
                ):
                    boost = False
                    next_time = self.step_fast(cycle)
                    self._kernel_accesses += 1
                    self._last_seq = self.events.claim_seq()
                    progressed = True
                    if (
                        self._staged_epoch == epoch0
                        and self._staged_gen == gen
                        and self._staged_lo <= index < self._staged_end
                    ):
                        # The fill re-homed one L1D way: drop the map's
                        # claim on whatever that way held and point the
                        # filled block's slot at it.
                        way = self._cb_l1d
                        map_l1d = self._map_l1d
                        map_l1d[map_l1d == way] = -1
                        pos = int(self._map_blocks.searchsorted(block))
                        if (
                            pos < self._map_blocks.size
                            and int(self._map_blocks[pos]) == block
                        ):
                            map_l1d[pos] = way
                    if self._epoch[0] != epoch0 or not self._in_dirty:
                        return next_time
                    cycle = next_time
                    continue
                # Staged maps persist across batches: their probe results
                # only move at a directory transaction (epoch) or a wheel
                # drain (generation), and any scalar-tail step voids them
                # explicitly.  Re-stage only when the pending stretch runs
                # off the staged one.
                if (
                    self._staged_epoch != epoch0
                    or self._staged_gen != gen
                    or index < self._staged_lo
                ):
                    avail = 0
                else:
                    avail = self._staged_end - index
                if avail >= window:
                    w = window
                elif avail > 0:
                    w = avail
                else:
                    self._stage_window(index, window)
                    self._staged_lo = index
                    self._staged_end = index + window
                    self._staged_epoch = epoch0
                    self._staged_gen = gen
                    w = window
                # The scanned span is NOT capped at the horizon: the
                # scan's private frontier -- how far the stretch stays
                # core-private, ignoring the horizon -- is what lets
                # the driver relax the other cores' horizons, so
                # scanning past the cut is the point, not waste.
                result = self._scan(
                    self._blocks_np,
                    self._write_np,
                    self._gaps_next_np,
                    index,
                    w,
                    cycle,
                    horizon,
                    self._map_blocks,
                    self._map_l1d,
                    self._map_l2,
                    self._map_wok,
                    self._l1d_cycles,
                    self._l1d_l2_cycles,
                    self._instructions_since_ifetch,
                    self.ifetch_interval,
                    self._code_offset // self._line_bytes,
                    self._code_slots(cycle),
                )
                if not result[0]:
                    frontier = result[2]
                    if frontier > cycle:
                        # Horizon-blocked with a real private prefix:
                        # publish the promise so other cores may retire
                        # past this core's pending reference.
                        self._frontier = frontier
                        self._frontier_epoch = epoch0
                        self._frontier_gen = gen
                    break
                if not self._in_dirty:
                    self._in_dirty = True
                    self._dirty_cores.append(self)
                boost = False
                next_time = self._apply_scan(result, index, epoch0, gen)
                progressed = True
                if 0 <= relaxed <= next_time:
                    return next_time
                cycle = next_time
            if progressed:
                return next_time
        if not allow_scalar and 0 <= strict <= cycle:
            return -1
        keep = (
            self._frontier_epoch == self._epoch[0]
            and self._frontier_gen == gen
            and cycle < self._frontier
        )
        next_time = self.step_fast(cycle)
        # A scalar step may fill the L1D or change MESI state without
        # moving the epoch: the staged hit maps are no longer trustworthy.
        self._staged_epoch = -1
        # A scalar reference issuing *inside* the published promise is one
        # the scan classified private and the horizon cut: it retires as
        # the same core-private operation, so the frontier stays honest
        # for the references behind it (issue times are strictly
        # increasing, so ``cycle < frontier`` is exactly ``position <
        # first non-private``).  Anything at or past the frontier may
        # change state: void it.
        if not keep:
            self._frontier_epoch = -1
        if next_time is not None:
            self._last_seq = self.events.claim_seq()
        return next_time

    def promise(self, cycle: int, gen: int) -> int:
        """Publish this waiting core's private frontier for the driver.

        Called from the driver's horizon computation on cores that are
        *not* at the head of the ready list and have no current promise:
        stage (or reuse) the hit map, scan with a closed horizon, and
        publish the private frontier so the running core's relaxed bound
        can pass this core's pending issue time ``cycle``.  Entirely
        side-effect free on simulation state.  Returns the frontier when
        one was promised (> ``cycle``), else ``cycle``; the result --
        including "no promise", stored as a zero frontier -- is cached
        against the (epoch, generation) stamps so repeated horizon
        computations cost one dict-free comparison.
        """
        epoch0 = self._epoch[0]
        if self._frontier_epoch == epoch0 and self._frontier_gen == gen:
            frontier = self._frontier
            return frontier if frontier > cycle else cycle
        self._frontier = 0
        self._frontier_epoch = epoch0
        self._frontier_gen = gen
        index = self._next_index
        window = self._num_records - 1 - index
        if window <= 0:
            return cycle
        l1d = self._l1d
        l2 = self._l2
        if cycle < l1d.busy_horizon or cycle < l2.busy_horizon:
            return cycle
        if window > PROMISE_WINDOW:
            window = PROMISE_WINDOW
        block = self._blocks[index]
        if self._is_write[index]:
            l2_index = l2.probe_index(block)
            if l2_index < 0 or l2.state_code(l2_index) not in (
                MESI_MODIFIED,
                MESI_EXCLUSIVE,
            ):
                return cycle
        elif l1d.probe_index(block) < 0 and l2.probe_index(block) < 0:
            return cycle
        if (
            self._staged_epoch != epoch0
            or self._staged_gen != gen
            or index < self._staged_lo
        ):
            avail = 0
        else:
            avail = self._staged_end - index
        if avail >= window:
            w = window
        elif avail > 0:
            w = avail
        else:
            self._stage_window(index, window)
            self._staged_lo = index
            self._staged_end = index + window
            self._staged_epoch = epoch0
            self._staged_gen = gen
            w = window
        result = self._scan(
            self._blocks_np,
            self._write_np,
            self._gaps_next_np,
            index,
            w,
            cycle,
            cycle,
            self._map_blocks,
            self._map_l1d,
            self._map_l2,
            self._map_wok,
            self._l1d_cycles,
            self._l1d_l2_cycles,
            self._instructions_since_ifetch,
            self.ifetch_interval,
            self._code_offset // self._line_bytes,
            self._code_slots(cycle),
        )
        frontier = result[2]
        if frontier > cycle:
            self._frontier = frontier
            return frontier
        return cycle

    def _apply_scan(self, result, index: int, epoch: int, gen: int) -> int:
        """Land one scan's plan: touches, tallies, stats, seqs, frontier.

        Each aggregate below is the closed form of what n iterations of
        :meth:`step_fast` would have accumulated one reference at a time;
        the hypothesis suite pins the equivalence per backend.
        """
        (
            n, next_time, frontier,
            d_idx, d_cyc, d_cnt,
            l2_idx, l2_cyc, l2_cnt,
            i_idx, i_cyc, i_cnt,
            writes, d_hits, gsum, ncross, lat_sum, since_out,
            upgrades,
        ) = result
        if upgrades:
            # First-writes to Exclusive lines retired in-scan: perform the
            # same silent E->M transition the scalar write path does, once
            # per line at batch end (nothing observes the line in between),
            # and mark the map slot writable-as-Modified.
            l2 = self._l2
            map_l2 = self._map_l2
            map_wok = self._map_wok
            for slot in upgrades:
                l2.set_state_code(int(map_l2[slot]), MESI_MODIFIED)
                map_wok[slot] = 1
        buf = self._run
        merge_extend(buf.l1d_idx, buf.l1d_cyc, buf.l1d_cnt, d_idx, d_cyc, d_cnt)
        merge_extend(buf.l2_idx, buf.l2_cyc, buf.l2_cnt, l2_idx, l2_cyc, l2_cnt)
        merge_extend(buf.l1i_idx, buf.l1i_cyc, buf.l1i_cnt, i_idx, i_cyc, i_cnt)
        reads = n - writes
        buf.l1d_reads += reads
        buf.l1d_writes += writes
        buf.l1d_hits += d_hits
        buf.l1d_misses += n - d_hits
        buf.l2_writes += writes
        buf.l2_hits += writes
        buf.l1i_reads += gsum + ncross
        buf.l1i_hits += ncross
        buf.instructions += gsum
        self._run_refs += n
        self._run_stall += reads * self._read_stall + writes * self._write_stall
        self._run_busy += n + gsum
        self._run_instr += gsum
        self._instructions_since_ifetch = since_out
        if ncross:
            self._code_offset = (
                self._code_offset + ncross * self._line_bytes
            ) % self.code_region_bytes
        self._next_index = index + n
        self._kernel_batches += 1
        self._kernel_accesses += n
        self._last_seq = self.events.claim_seq_bulk(n)
        self._frontier = frontier
        self._frontier_epoch = epoch
        self._frontier_gen = gen
        return next_time

    def _stage_window(self, index: int, window: int) -> None:
        """Build the scan's hit map by probing the private caches directly.

        Probes every distinct block of the staged window once -- tags,
        validity and the L2 MESI state -- with no side effects, exactly the
        classification :meth:`_resolve_block` / :meth:`_resolve_write`
        perform minus their caching.  Writability is encoded three-way:
        ``1`` Modified (writes retire as-is), ``2`` Exclusive (writes
        retire with a batch-end upgrade), ``0`` not writable.  Pure
        private hits never move tags or states, and the seams inside one
        batch repair the map in place (an L1D fill re-homes one way, an
        E->M upgrade flips one ``wok``), so one build covers every scan of
        the staged stretch.  The caller has already checked the busy
        horizons; no events run inside a batch, so they cannot move.
        """
        probe_d = self._l1d.probe_index
        probe_2 = self._l2.probe_index
        state = self._l2.state_code
        np = import_numpy()
        blocks_u = np.unique(self._blocks_np[index : index + window])
        m = blocks_u.size
        map_l1d = np.empty(m, dtype=np.int64)
        map_l2 = np.empty(m, dtype=np.int64)
        map_wok = np.empty(m, dtype=np.int64)
        for t, block in enumerate(blocks_u.tolist()):
            map_l1d[t] = probe_d(block)
            l2_index = probe_2(block)
            map_l2[t] = l2_index
            if l2_index >= 0:
                code = state(l2_index)
                map_wok[t] = (
                    1
                    if code == MESI_MODIFIED
                    else (2 if code == MESI_EXCLUSIVE else 0)
                )
            else:
                map_wok[t] = 0
        self._map_blocks = blocks_u
        self._map_l1d = map_l1d
        self._map_l2 = map_l2
        self._map_wok = map_wok

    def _seam_tail_private(self, index: int, cycle: int) -> bool:
        """True when the seam reference's trailing gap stays in-run.

        A seam executes via :meth:`step_fast` *above* the strict horizon,
        which is only sound while every side effect is core-private.  The
        data access is (the caller classified it an L2-served fill); the
        risk is the trailing instruction gap making real fetches due whose
        code lines miss the L1I -- those land the run and walk the
        protocol out of order.  Pre-verify them instead: every crossing's
        slot must be L1I-resident and the L1I unblocked at the fetch cycle
        (``busy_horizon`` is fixed inside a batch).  Conservative failures
        just end the batch at the scalar gate.
        """
        since = self._instructions_since_ifetch + self._gaps[index + 1]
        crossings = since // self.ifetch_interval
        if crossings == 0:
            return True
        if not self._slots_ok:
            return False
        l1i = self._l1i
        if cycle + self._l1d_cycles + self._l2_cycles < l1i.busy_horizon:
            return False
        probe = l1i.probe_index
        base = self.code_base_address
        mask = self._block_mask
        line_bytes = self._line_bytes
        nslots = self._nslots
        slot0 = self._code_offset // line_bytes
        for j in range(min(crossings, nslots)):
            address = base + ((slot0 + j) % nslots) * line_bytes
            if probe(address & mask) < 0:
                return False
        return True

    def _code_slots(self, cycle: int):
        """Per-slot L1I line indices for the scan's crossing checks.

        ``-1`` marks a slot the kernel must not promise: the code line is
        absent, the L1I is refresh-blocked past the batch start, or the
        region does not tile into whole lines.  Conservative by design --
        a ``-1`` only forces the crossing-carrying reference down the
        scalar fetch path, which re-checks everything per fetch.
        """
        code_idx = self._code_idx
        l1i = self._l1i
        if not self._slots_ok or cycle < l1i.busy_horizon:
            code_idx[:] = -1
            return code_idx
        probe = l1i.probe_index
        base = self.code_base_address
        mask = self._block_mask
        line_bytes = self._line_bytes
        for slot in range(self._nslots):
            code_idx[slot] = probe((base + slot * line_bytes) & mask)
        return code_idx

    def land_run(self) -> None:
        """Land the pending timestamp touches; keep the run open.

        Bulk-applies the coalesced per-cache touch lists so the array state
        (replacement stamps, refresh timestamps, WB Counts) is exactly what
        sequential execution would show, then drops the cached block
        resolution.  The counter tallies and per-core statistics stay
        pending -- nothing reads them until the run is committed -- so a
        landing is a cache-level bulk write, not a protocol transaction.

        Called by the run-ahead driver before any queued event executes
        (refresh work reads and rewrites the timestamp vectors), and by the
        core itself before its own slow accesses (whose victim choices read
        the LRU stamps).  Safe and cheap when nothing is pending.
        """
        if self._run.land_touches(self._l1d, self._l1i, self._l2):
            self._protocol.run_landings += 1
        self._cb = -1
        self._cb_epoch = -1
        self._in_dirty = False
        self._frontier_epoch = -1
        if self._resolved:
            self._resolved.clear()

    def commit_run(self) -> None:
        """Commit the whole pending run: touches, tallies and statistics.

        One staged ``hit_run`` call resolves everything the run deferred;
        called when the core drains its trace (and harmless when nothing is
        pending).
        """
        if self._run_refs or self._run_instr:
            stats = self.stats
            stats.references_completed += self._run_refs
            stats.busy_cycles += self._run_busy
            stats.stall_cycles += self._run_stall
            stats.instructions_executed += self._run_instr
            self._run_refs = 0
            self._run_busy = 0
            self._run_stall = 0
            self._run_instr = 0
        buf = self._run
        if not buf.empty():
            self._commit_run(self.core_id, buf)
        self._cb = -1
        self._cb_epoch = -1
        self._in_dirty = False
        self._frontier_epoch = -1
        if self._resolved:
            self._resolved.clear()

    def _store_resolution(self) -> None:
        """Remember the current block's resolution in the multi-block cache.

        Called on every successful resolution (and on permission upgrades
        and L1D fills, which change an existing entry's fields).  Evicts
        the least-recently-refreshed entry at capacity.
        """
        resolved = self._resolved
        block = self._cb
        if block not in resolved and len(resolved) >= RESOLVED_CACHE_CAPACITY:
            del resolved[next(iter(resolved))]
        resolved[block] = (self._cb_l1d, self._cb_l2, self._cb_wok)

    def _resolve_block(self, block: int, cycle: int, write: bool) -> bool:
        """Validate one block for run membership; cache the resolution.

        Returns True when the reference can be served privately: the L1D
        holds the block, or the L2 does (reads fill the L1D; writes
        additionally need M/E, checked by :meth:`_resolve_write`).  Any
        refresh blocking (``busy_horizon``) disqualifies the block so the
        slow path performs the stall accounting.  The resolution stays
        valid until the protocol epoch moves -- one probe and state check
        covers every consecutive reference to the same line.
        """
        self._cb = block
        self._cb_epoch = self._epoch[0]
        self._cb_l1d = -1
        self._cb_l2 = -1
        self._cb_wok = False
        l1d = self._l1d
        if cycle < l1d.busy_horizon:
            return False
        l1d_index = l1d.probe_index(block)
        if l1d_index >= 0:
            self._cb_l1d = l1d_index
            if not write:
                self._store_resolution()
                return True
        else:
            l2 = self._l2
            if cycle < l2.busy_horizon:
                return False
            l2_index = l2.probe_index(block)
            if l2_index < 0:
                return False
            self._cb_l2 = l2_index
            if not write:
                self._store_resolution()
                return True
        return self._resolve_write(cycle)

    def _resolve_write(self, cycle: int) -> bool:
        """Check write permission on the cached block's L2 line.

        M passes as-is; E is silently upgraded to M in place (the same
        local transition the sequential write path performs); S needs a
        directory upgrade and I a fetch, both slow.
        """
        l2 = self._l2
        if cycle < l2.busy_horizon:
            return False
        l2_index = self._cb_l2
        if l2_index < 0:
            l2_index = l2.probe_index(self._cb)
            if l2_index < 0:
                return False
            self._cb_l2 = l2_index
        code = l2.state_code(l2_index)
        if code == MESI_MODIFIED:
            self._cb_wok = True
            self._store_resolution()
            return True
        if code == MESI_EXCLUSIVE:
            l2.set_state_code(l2_index, MESI_MODIFIED)
            self._cb_wok = True
            self._store_resolution()
            return True
        return False

    def _serve_read_from_l2(self, block: int, cycle: int) -> int:
        """An L1D-missing read served by the L2: touch L2, fill the L1D.

        The fill is applied eagerly (after landing the pending L1D touches,
        whose stamps decide the victim) because it changes which blocks the
        L1D holds; the timestamp and counter effects stay deferred.
        Returns the reference's latency.
        """
        buf = self._run
        buf.l1d_misses += 1
        buf.l2_reads += 1
        buf.l2_hits += 1
        # The L2 is stamped when its access completes, the same cycle the
        # L1D fill lands.
        latency = self._l1d_cycles + self._l2_cycles
        l2_index = self._cb_l2
        idxs = buf.l2_idx
        touch_cycle = cycle + latency
        if idxs and idxs[-1] == l2_index:
            buf.l2_cyc[-1] = touch_cycle
            buf.l2_cnt[-1] += 1
        else:
            idxs.append(l2_index)
            buf.l2_cyc.append(touch_cycle)
            buf.l2_cnt.append(1)
        l1d = self._l1d
        if buf.land_touches(l1d, None, None):
            self._protocol.run_landings += 1
        buf.l1d_writes += 1
        self._cb_l1d = l1d.fill_block(block, MESI_SHARED, cycle + latency)
        # The fill repurposed one L1D way: any cached resolution pointing
        # at that way now describes the evicted block and must drop its
        # L1D index (the block usually remains L2-resolvable).
        filled = self._cb_l1d
        resolved = self._resolved
        if resolved:
            for other, entry in resolved.items():
                if entry[0] == filled and other != block:
                    resolved[other] = (-1, entry[1], entry[2])
        self._store_resolution()
        return latency

    def _ifetch_run(self, cycle: int, since: int) -> None:
        """Issue the real instruction fetches a gap has made due.

        The per-instruction energy tallies were already recorded inline;
        this handles only the interval crossings.  A fetch whose code line
        hits the L1I joins the run (its latency is never on the critical
        path); a miss or a refresh-blocked L1I lands the run and walks the
        protocol like any other slow access.
        """
        buf = self._run
        interval = self.ifetch_interval
        while since >= interval:
            since -= interval
            address = self.code_base_address + self._code_offset
            self._code_offset = (
                self._code_offset + self._line_bytes
            ) % self.code_region_bytes
            l1i = self._l1i
            if cycle >= l1i.busy_horizon:
                l1i_index = l1i.probe_index(address & self._block_mask)
                if l1i_index >= 0:
                    buf.l1i_reads += 1
                    buf.l1i_hits += 1
                    idxs = buf.l1i_idx
                    if idxs and idxs[-1] == l1i_index:
                        buf.l1i_cyc[-1] = cycle
                        buf.l1i_cnt[-1] += 1
                    else:
                        idxs.append(l1i_index)
                        buf.l1i_cyc.append(cycle)
                        buf.l1i_cnt.append(1)
                    continue
            # Refresh-stalled or L1I miss: a real protocol walk.
            self._instructions_since_ifetch = since
            self.land_run()
            self.hierarchy.instruction_fetch(self.core_id, address, cycle)
        self._instructions_since_ifetch = since

    def _on_reference(self, cycle: int, _payload: Any) -> None:
        issue_time = self.step(cycle)
        if issue_time is not None:
            self.events.schedule_callback(issue_time, self._on_reference)

    # -- helpers ------------------------------------------------------------------

    def _account_instructions(self, cycle: int, count: int) -> None:
        """Charge instruction-fetch energy and issue periodic real fetches."""
        if count <= 0:
            return
        self.stats.instructions_executed += count
        counts = self._counts
        counts["l1i_reads"] += count
        counts["instructions"] += count
        self._instructions_since_ifetch += count
        while self._instructions_since_ifetch >= self.ifetch_interval:
            self._instructions_since_ifetch -= self.ifetch_interval
            address = self.code_base_address + self._code_offset
            self._code_offset = (
                self._code_offset + self._line_bytes
            ) % self.code_region_bytes
            self.hierarchy.instruction_fetch(self.core_id, address, cycle)

    def _finish(self, cycle: int) -> None:
        self.stats.finish_cycle = cycle
        if self._on_finish is not None:
            self._on_finish(cycle, self)
