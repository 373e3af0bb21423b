"""Directory MESI protocol engine.

This module contains the functional coherence protocol of the simulated CMP:
a directory MESI protocol with the directory held at the shared L3
(Table 5.1), an inclusive hierarchy (an L3 eviction or refresh-policy
invalidation back-invalidates the L2/L1 copies above it), a write-through
data L1 and write-back L2/L3.

The protocol is *functionally atomic*: when a core issues a load, store or
instruction fetch, the complete transaction (lookups, directory actions,
network traversals, DRAM accesses, fills and evictions) is applied in one
call which returns the end-to-end latency in cycles.  Races and transient
states are not modelled; the refresh controllers interleave with accesses in
event order and interact with the protocol only through the well-defined
entry points ``policy_invalidate_l3 / policy_writeback_l3 /
policy_invalidate_l2 / policy_writeback_l2``.

The common-case path (an L1 or L2 hit) is *staged*: it asks the cache for a
packed line index (:meth:`~repro.mem.cache.Cache.access_index`) and reads
the MESI state as an integer code, so a hit costs a handful of list reads
and no allocation.  Misses, fills, evictions and private-cache coherence
actions stay on line indices too; only the directory's sharer/owner updates
(and the refresh-policy callbacks) go through a per-line view, built the
first time its L3 line needs one.

Every cache access, network message and DRAM access is recorded in a shared
:class:`~repro.utils.statistics.Counter`, from which the energy model builds
its account; the hot paths increment the counter's raw dict with
pre-computed keys.
"""

from __future__ import annotations

from typing import Sequence

from repro.coherence.directory import Directory
from repro.coherence.runbuffer import RunBuffer
from repro.coherence.messages import MessageKind
from repro.config.parameters import ArchitectureConfig
from repro.hierarchy.levels import CoreCaches, L3Bank
from repro.mem.cache import Cache
from repro.mem.dram import MainMemory
from repro.mem.line import (
    DirectoryLine,
    L3_CLEAN,
    L3_DIRTY,
    MESI_EXCLUSIVE,
    MESI_MODIFIED,
    MESI_SHARED,
    MESIState,
)
from repro.noc.network import TorusNetwork
from repro.utils.statistics import Counter


class DirectoryProtocol:
    """The full-chip coherence protocol over private caches and L3 banks."""

    def __init__(
        self,
        architecture: ArchitectureConfig,
        cores: Sequence[CoreCaches],
        banks: Sequence[L3Bank],
        network: TorusNetwork,
        dram: MainMemory,
        counters: Counter,
    ) -> None:
        self.architecture = architecture
        self.cores = list(cores)
        self.banks = list(banks)
        self.network = network
        self.dram = dram
        self.counters = counters
        self._counts = counters.raw
        self._line_bytes = architecture.line_bytes
        self._line_shift = architecture.line_bytes.bit_length() - 1
        self._block_mask = ~(architecture.line_bytes - 1)
        self._num_banks = len(self.banks)
        # Counter keys are interned once; building an f-string per access
        # would dominate the staged fast path.
        self._msg_keys = {kind: kind.counter_name for kind in MessageKind}
        #: Access-path protocol invocations: one per read / write /
        #: instruction fetch entered plus one per committed hit run.  Kept
        #: off the :class:`Counter` deliberately -- replay modes resolve
        #: different numbers of references per call, so putting it in the
        #: result counters would break byte-identical equivalence.  The
        #: simulator reports it through ``ReplayStats``.
        self.protocol_calls = 0
        #: Cache-level bulk landings of pending run timestamps (see
        #: :meth:`~repro.cpu.core.Core.land_run`); reported next to
        #: ``protocol_calls`` so the batching factor hides nothing.
        self.run_landings = 0
        #: Generation counter bumped whenever a transaction mutates some
        #: *other* core's private lines (owner recalls, coherence
        #: invalidations, back-invalidations, refresh-policy actions on the
        #: L2).  Any cached hit-run resolution (block -> line index /
        #: writability) made before the bump can no longer be trusted;
        #: everything else -- including other cores' plain misses -- leaves
        #: resolutions valid.  A one-element list so cores can hold a
        #: direct reference.
        self.run_epoch = [0]
        #: Cores holding pending run state (non-empty RunBuffer or staged
        #: touches).  A core appends itself on entering the run path and is
        #: removed when its run lands or commits; the run-ahead drivers
        #: drain this instead of calling ``land_run`` on all cores, so
        #: cores that never ran in a batch cost nothing at the barrier.
        self.dirty_cores: list = []

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def block_of(self, address: int) -> int:
        """Block address containing a byte address."""
        return address & self._block_mask

    def home_bank(self, block: int) -> L3Bank:
        """The statically mapped home L3 bank of a block."""
        return self.banks[(block >> self._line_shift) % self._num_banks]

    # ------------------------------------------------------------------
    # Core-visible operations
    # ------------------------------------------------------------------

    def read(self, core_id: int, address: int, cycle: int) -> int:
        """Data load by ``core_id``; returns the latency in cycles."""
        self.protocol_calls += 1
        return self._load(core_id, address, cycle, instruction=False)

    def instruction_fetch(self, core_id: int, address: int, cycle: int) -> int:
        """Instruction fetch by ``core_id``; returns the latency in cycles."""
        self.protocol_calls += 1
        return self._load(core_id, address, cycle, instruction=True)

    def write(self, core_id: int, address: int, cycle: int) -> int:
        """Data store by ``core_id``; returns the latency in cycles.

        The data L1 is write-through / write-no-allocate: the store updates
        the L1 copy if present and always proceeds to the L2, which must hold
        the line with write permission (M or E).
        """
        self.protocol_calls += 1
        caches = self.cores[core_id]
        counts = self._counts
        block = address & self._block_mask
        l1d = caches.l1d
        latency = self._array_access(
            l1d, "l1d_writes", "l1d_refresh_stall_cycles", cycle, block
        )
        if l1d.access_index(block, cycle) >= 0:
            counts["l1d_hits"] += 1
        else:
            counts["l1d_misses"] += 1

        l2 = caches.l2
        latency += self._array_access(
            l2, "l2_writes", "l2_refresh_stall_cycles", cycle + latency, block
        )
        l2_index = l2.access_index(block, cycle + latency)
        if l2_index >= 0:
            counts["l2_hits"] += 1
            code = l2.state_code(l2_index)
            if code == MESI_MODIFIED:
                return latency
            if code == MESI_EXCLUSIVE:
                l2.set_state_code(l2_index, MESI_MODIFIED)
                return latency
            # SHARED: needs an upgrade from the directory.
            latency += self._upgrade(core_id, block, cycle + latency)
            l2.set_state_code(l2_index, MESI_MODIFIED)
            return latency
        counts["l2_misses"] += 1
        latency += self._fetch_into_l2(
            core_id, block, cycle + latency, for_write=True
        )
        l2_index = l2.probe_index(block)
        assert l2_index >= 0, "fetch_into_l2 must install the block"
        l2.set_state_code(l2_index, MESI_MODIFIED)
        return latency

    def hit_run(self, core_id: int, buf: RunBuffer) -> None:
        """Commit a private-cache hit run in one staged call.

        The run's references were already *validated* when the run-ahead
        driver resolved each distinct block once (L1 presence, L2 MESI
        writability) -- validation per block instead of per reference is
        what makes a same-line streak cheap.  This call applies everything
        the equivalent sequence of :meth:`read` / :meth:`write` /
        :meth:`instruction_fetch` calls would have left behind: bulk
        LRU/timestamp updates on the :class:`~repro.mem.arrays.LineArrays`
        vectors (:meth:`~repro.mem.cache.Cache.access_run`) and counter
        increments by the run's tallies via pre-interned keys.  One call,
        one ``protocol_calls`` tick, however many references the run
        resolved.
        """
        caches = self.cores[core_id]
        buf.land_touches(caches.l1d, caches.l1i, caches.l2)
        counts = self._counts
        if buf.l1d_reads:
            counts["l1d_reads"] += buf.l1d_reads
        if buf.l1d_writes:
            counts["l1d_writes"] += buf.l1d_writes
        if buf.l1d_hits:
            counts["l1d_hits"] += buf.l1d_hits
        if buf.l1d_misses:
            counts["l1d_misses"] += buf.l1d_misses
        if buf.l1i_reads:
            counts["l1i_reads"] += buf.l1i_reads
        if buf.l1i_hits:
            counts["l1i_hits"] += buf.l1i_hits
        if buf.l2_reads:
            counts["l2_reads"] += buf.l2_reads
        if buf.l2_writes:
            counts["l2_writes"] += buf.l2_writes
        if buf.l2_hits:
            counts["l2_hits"] += buf.l2_hits
        if buf.instructions:
            counts["instructions"] += buf.instructions
        buf.clear_tallies()
        self.protocol_calls += 1

    def flush_dirty(self, cycle: int) -> None:
        """Write every dirty line back to DRAM (end-of-run accounting).

        Section 6: at the end of the simulation all dirty data is written
        back to main memory so that policies which push data off chip early
        are compared fairly against those that keep it on chip.
        """
        self.run_epoch[0] += 1
        for caches in self.cores:
            l2 = caches.l2
            for index in l2.dirty_indices():
                block = l2.block_address_at(index)
                bank = self.home_bank(block)
                self._count_message(
                    MessageKind.WRITEBACK, caches.core_id, bank.vertex, data=True
                )
                self._array_access(
                    bank.cache, "l3_writes", "l3_refresh_stall_cycles", cycle, block
                )
                l3 = bank.cache
                l3_index = l3.probe_index(block)
                if l3_index >= 0:
                    l3.set_l3_state_code(l3_index, L3_DIRTY)
                    l3.clear_owner_index(l3_index)
                l2.set_state_code(index, MESI_SHARED)
        for bank in self.banks:
            l3 = bank.cache
            for index in l3.dirty_indices():
                self.dram.write(0)
                l3.set_l3_state_code(index, L3_CLEAN)

    # ------------------------------------------------------------------
    # Refresh-policy entry points
    # ------------------------------------------------------------------

    def policy_invalidate_l3(
        self, bank: L3Bank, set_idx: int, line: DirectoryLine, cycle: int
    ) -> None:
        """Invalidate an L3 line on behalf of a refresh policy.

        Dirty data (at the L3 or in an upper-level M copy) is written back to
        DRAM; all upper-level copies are back-invalidated to preserve
        inclusion.  The extra messages and DRAM accesses are the cost the
        Dirty / WB(n, m) policies pay for letting lines decay (Section 3.1).
        """
        if not line.valid:
            return
        block = bank.cache.block_address_of(set_idx, line)
        self.counters.add("l3_policy_invalidations")
        dirty_above = self._back_invalidate(bank, block, line, cycle)
        if line.dirty or dirty_above:
            self.dram.write(block)
            self.counters.add("l3_policy_writebacks_to_dram")
        line.invalidate()

    def policy_writeback_l3(
        self, bank: L3Bank, set_idx: int, line: DirectoryLine, cycle: int
    ) -> None:
        """Write a dirty L3 line back to DRAM and mark it valid-clean.

        Used by the WB(n, m) policy when a dirty line has exhausted its n
        refreshes: the write-back itself recharges the eDRAM cells, so the
        line stays valid (now clean) for another retention period.
        """
        if not line.dirty:
            return
        block = bank.cache.block_address_of(set_idx, line)
        self.dram.write(block)
        self.counters.add("l3_policy_writebacks")
        line.mark_clean()
        line.refresh(cycle)

    def policy_invalidate_l2(
        self, core_id: int, set_idx: int, line, cycle: int
    ) -> None:
        """Invalidate an L2 line on behalf of a refresh policy."""
        caches = self.cores[core_id]
        if not line.valid:
            return
        self.run_epoch[0] += 1
        block = caches.l2.block_address_of(set_idx, line)
        self.counters.add("l2_policy_invalidations")
        if line.state is MESIState.MODIFIED:
            self._writeback_l2_to_l3(core_id, block, cycle)
        self._notify_clean_eviction(core_id, block, cycle)
        caches.invalidate_l1_copies(block)
        line.invalidate()

    def policy_writeback_l2(
        self, core_id: int, set_idx: int, line, cycle: int
    ) -> None:
        """Write a dirty L2 line back to the L3 and keep it valid-clean."""
        caches = self.cores[core_id]
        if not line.valid or line.state is not MESIState.MODIFIED:
            return
        self.run_epoch[0] += 1
        block = caches.l2.block_address_of(set_idx, line)
        self._writeback_l2_to_l3(core_id, block, cycle)
        self.counters.add("l2_policy_writebacks")
        line.state = MESIState.EXCLUSIVE
        line.refresh(cycle)

    # ------------------------------------------------------------------
    # Load path (data and instruction)
    # ------------------------------------------------------------------

    def _load(
        self, core_id: int, address: int, cycle: int, instruction: bool
    ) -> int:
        caches = self.cores[core_id]
        counts = self._counts
        block = address & self._block_mask
        if instruction:
            l1 = caches.l1i
            access_key, stall_key = "l1i_reads", "l1i_refresh_stall_cycles"
            hit_key, miss_key, fill_key = "l1i_hits", "l1i_misses", "l1i_writes"
        else:
            l1 = caches.l1d
            access_key, stall_key = "l1d_reads", "l1d_refresh_stall_cycles"
            hit_key, miss_key, fill_key = "l1d_hits", "l1d_misses", "l1d_writes"

        latency = self._array_access(l1, access_key, stall_key, cycle, block)
        if l1.access_index(block, cycle) >= 0:
            counts[hit_key] += 1
            return latency
        counts[miss_key] += 1

        l2 = caches.l2
        latency += self._array_access(
            l2, "l2_reads", "l2_refresh_stall_cycles", cycle + latency, block
        )
        if l2.access_index(block, cycle + latency) >= 0:
            counts["l2_hits"] += 1
        else:
            counts["l2_misses"] += 1
            latency += self._fetch_into_l2(
                core_id, block, cycle + latency, for_write=False
            )
        # Fill the L1 (write into the L1 array); the victim is clean
        # (write-through), so no eviction handling is needed.
        l1.fill_block(block, MESI_SHARED, cycle + latency)
        counts[fill_key] += 1
        return latency

    # ------------------------------------------------------------------
    # L2 miss handling (GetS / GetM at the directory)
    # ------------------------------------------------------------------

    def _fetch_into_l2(
        self, core_id: int, block: int, cycle: int, for_write: bool
    ) -> int:
        """Fetch a block into the core's L2 from the L3 / DRAM.

        Returns the latency of the remote part of the transaction (network,
        L3, optional owner fetch, optional DRAM) plus the local fill cost.
        """
        caches = self.cores[core_id]
        bank = self.home_bank(block)
        kind = MessageKind.WRITE_REQUEST if for_write else MessageKind.READ_REQUEST
        latency = self._count_message(kind, core_id, bank.vertex, data=False)
        latency += self._array_access(
            bank.cache, "l3_reads", "l3_refresh_stall_cycles", cycle + latency, block
        )

        l3_index = bank.cache.access_index(block, cycle + latency)
        if l3_index >= 0:
            self._counts["l3_hits"] += 1
            line = bank.cache.view(l3_index)
            assert isinstance(line, DirectoryLine)
            latency += self._serve_from_l3(
                core_id, bank, block, line, cycle, for_write
            )
        else:
            self._counts["l3_misses"] += 1
            line = self._fill_l3_from_dram(bank, block, cycle + latency)
            latency += self.dram.access_cycles
            if for_write:
                Directory.record_writer(line, core_id)
            else:
                Directory.record_reader(line, core_id)
        granted_exclusive = for_write or not Directory.sharers_other_than(
            line, core_id
        )

        # Data reply back to the requesting core.
        latency += self._count_message(
            MessageKind.DATA_REPLY, bank.vertex, core_id, data=True
        )

        # Install in the L2, handling the inclusion victim.
        l2 = caches.l2
        victim_index = l2.choose_victim_index(block)
        if l2.valid_at(victim_index):
            self._handle_l2_eviction(core_id, victim_index, cycle + latency)
        state_code = MESI_EXCLUSIVE if granted_exclusive else MESI_SHARED
        l2.fill_index(victim_index, block, state_code, cycle + latency)
        self._counts["l2_writes"] += 1
        return latency

    def _serve_from_l3(
        self,
        core_id: int,
        bank: L3Bank,
        block: int,
        line: DirectoryLine,
        cycle: int,
        for_write: bool,
    ) -> int:
        """Directory actions for a hit at the home L3 bank."""
        latency = 0
        owner = line.owner
        if owner is not None and owner != core_id:
            latency += self._recall_from_owner(bank, block, line, owner, cycle)
        if for_write:
            # Invalidate every other copy and hand exclusive ownership over.
            for other in sorted(Directory.sharers_other_than(line, core_id)):
                latency += self._invalidate_upper(bank, block, line, other, cycle)
            Directory.record_writer(line, core_id)
        else:
            Directory.record_reader(line, core_id)
        return latency

    def _recall_from_owner(
        self, bank: L3Bank, block: int, line: DirectoryLine, owner: int, cycle: int
    ) -> int:
        """Fetch the latest data from the owning core's L2 (M or E copy)."""
        self.run_epoch[0] += 1
        latency = self._count_message(
            MessageKind.OWNER_FETCH, bank.vertex, owner, data=False
        )
        owner_l2 = self.cores[owner].l2
        latency += self._array_access(
            owner_l2, "l2_reads", "l2_refresh_stall_cycles", cycle + latency, block
        )
        owner_index = owner_l2.probe_index(block)
        dirty = False
        if owner_index >= 0:
            dirty = owner_l2.state_code(owner_index) == MESI_MODIFIED
            owner_l2.set_state_code(owner_index, MESI_SHARED)
        if dirty:
            latency += self._count_message(
                MessageKind.WRITEBACK, owner, bank.vertex, data=True
            )
            self._array_access(
                bank.cache, "l3_writes", "l3_refresh_stall_cycles",
                cycle + latency, block,
            )
            line.mark_dirty()
            line.refresh(cycle + latency)
        else:
            latency += self._count_message(
                MessageKind.ACK, owner, bank.vertex, data=False
            )
        Directory.clear_owner(line)
        return latency

    def _fill_l3_from_dram(
        self, bank: L3Bank, block: int, cycle: int
    ) -> DirectoryLine:
        """Bring a block on chip, evicting (and back-invalidating) a victim."""
        self.dram.read(block)
        l3 = bank.cache
        index = l3.choose_victim_index(block)
        if l3.valid_at(index):
            victim_block = l3.block_address_at(index)
            self.counters.add("l3_evictions")
            dirty_above = self._back_invalidate(
                bank, victim_block, l3.view(index), cycle
            )
            if l3.dirty_at(index) or dirty_above:
                self.dram.write(victim_block)
                self.counters.add("l3_eviction_writebacks")
        l3.fill_index(index, block, MESI_SHARED, cycle)
        self.counters.add("l3_writes")
        line = l3.view(index)
        assert isinstance(line, DirectoryLine)
        return line

    # ------------------------------------------------------------------
    # Upgrades, write-backs, invalidations
    # ------------------------------------------------------------------

    def _upgrade(self, core_id: int, block: int, cycle: int) -> int:
        """Obtain write permission for a block the core already shares."""
        bank = self.home_bank(block)
        latency = self._count_message(
            MessageKind.UPGRADE_REQUEST, core_id, bank.vertex, data=False
        )
        latency += self._array_access(
            bank.cache, "l3_reads", "l3_refresh_stall_cycles", cycle + latency, block
        )
        line = bank.cache.probe(block)
        if isinstance(line, DirectoryLine) and line.valid:
            line.touch(cycle + latency)
            for other in sorted(Directory.sharers_other_than(line, core_id)):
                latency += self._invalidate_upper(bank, block, line, other, cycle)
            Directory.record_writer(line, core_id)
        latency += self._count_message(
            MessageKind.ACK, bank.vertex, core_id, data=False
        )
        return latency

    def _writeback_l2_to_l3(self, core_id: int, block: int, cycle: int) -> None:
        """Send a dirty L2 line to its home bank (off the critical path)."""
        bank = self.home_bank(block)
        self._count_message(MessageKind.WRITEBACK, core_id, bank.vertex, data=True)
        self._array_access(
            bank.cache, "l3_writes", "l3_refresh_stall_cycles", cycle, block
        )
        line = bank.cache.probe(block)
        if isinstance(line, DirectoryLine) and line.valid:
            line.mark_dirty()
            line.refresh(cycle)
            Directory.clear_owner(line)
        else:
            # Inclusion means the block should be present; if the refresh
            # policy already discarded it, the data goes straight to DRAM.
            self.dram.write(block)
            self.counters.add("l2_writebacks_bypassing_l3")

    def _notify_clean_eviction(self, core_id: int, block: int, cycle: int) -> None:
        """Tell the directory a clean private copy was dropped."""
        bank = self.home_bank(block)
        self._count_message(
            MessageKind.EVICTION_NOTICE, core_id, bank.vertex, data=False
        )
        line = bank.cache.probe(block)
        if isinstance(line, DirectoryLine) and line.valid:
            Directory.remove_core(line, core_id)

    def _handle_l2_eviction(
        self, core_id: int, victim_index: int, cycle: int
    ) -> None:
        """Handle the displacement of a valid L2 line (inclusion with L1)."""
        caches = self.cores[core_id]
        l2 = caches.l2
        block = l2.block_address_at(victim_index)
        self._counts["l2_evictions"] += 1
        if l2.dirty_at(victim_index):
            self._writeback_l2_to_l3(core_id, block, cycle)
        else:
            self._notify_clean_eviction(core_id, block, cycle)
        caches.invalidate_l1_copies(block)

    def _invalidate_upper(
        self, bank: L3Bank, block: int, line: DirectoryLine, core_id: int, cycle: int
    ) -> int:
        """Invalidate one core's private copies of a block (coherence)."""
        self.run_epoch[0] += 1
        latency = self._count_message(
            MessageKind.INVALIDATE, bank.vertex, core_id, data=False
        )
        caches = self.cores[core_id]
        l2 = caches.l2
        l2_index = l2.probe_index(block)
        if l2_index >= 0:
            if l2.state_code(l2_index) == MESI_MODIFIED:
                latency += self._count_message(
                    MessageKind.WRITEBACK, core_id, bank.vertex, data=True
                )
                self._array_access(
                    bank.cache, "l3_writes", "l3_refresh_stall_cycles",
                    cycle + latency, block,
                )
                line.mark_dirty()
                line.refresh(cycle + latency)
            l2.invalidate_index(l2_index)
        caches.invalidate_l1_copies(block)
        latency += self._count_message(
            MessageKind.ACK, core_id, bank.vertex, data=False
        )
        Directory.remove_core(line, core_id)
        self.counters.add("coherence_invalidations")
        return latency

    def _back_invalidate(
        self, bank: L3Bank, block: int, line: DirectoryLine, cycle: int
    ) -> bool:
        """Invalidate every upper-level copy of a block leaving the L3.

        Returns True if any upper-level copy was dirty (its data must then be
        written back to DRAM by the caller, since the L3 line is going away).
        """
        dirty_above = False
        holders = sorted(Directory.sharers_other_than(line, -1))
        if holders:
            self.run_epoch[0] += 1
        for core_id in holders:
            self._count_message(MessageKind.INVALIDATE, bank.vertex, core_id, data=False)
            caches = self.cores[core_id]
            l2 = caches.l2
            l2_index = l2.probe_index(block)
            if l2_index >= 0:
                if l2.state_code(l2_index) == MESI_MODIFIED:
                    dirty_above = True
                    self._count_message(
                        MessageKind.WRITEBACK, core_id, bank.vertex, data=True
                    )
                l2.invalidate_index(l2_index)
            caches.invalidate_l1_copies(block)
            self._count_message(MessageKind.ACK, core_id, bank.vertex, data=False)
            self.counters.add("back_invalidations")
        Directory.reset(line)
        return dirty_above

    # ------------------------------------------------------------------
    # Low-level accounting helpers
    # ------------------------------------------------------------------

    def _array_access(
        self,
        cache: Cache,
        access_key: str,
        stall_key: str,
        cycle: int,
        block: int = 0,
    ) -> int:
        """Charge one array access: energy counter plus latency.

        If the sub-array the block maps to (or the whole array) is busy with
        refresh work, the access waits until that work completes; the wait
        is recorded as refresh stall cycles.  ``cache.busy_horizon`` lets
        the common unblocked case skip the wait computation entirely.
        """
        self._counts[access_key] += 1
        if cycle < cache.busy_horizon:
            wait = cache.wait_cycles(block, cycle)
            if wait:
                self._counts[stall_key] += wait
            return wait + cache.access_cycles
        return cache.access_cycles

    def _count_message(self, kind: MessageKind, src: int, dst: int, data: bool) -> int:
        """Record one network message and return its latency."""
        self._counts[self._msg_keys[kind]] += 1
        if data:
            return self.network.send_data(src, dst, self._line_bytes)
        return self.network.send_control(src, dst)
