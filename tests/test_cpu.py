"""Unit tests for traces and the trace-replay core model."""

from __future__ import annotations

import pytest

from repro.cpu.core import Core
from repro.cpu.trace import MemoryOperation, TraceRecord, TraceStream
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.utils.events import EventQueue


class TestTraceRecord:
    def test_fields(self):
        record = TraceRecord(address=0x100, operation=MemoryOperation.WRITE, gap_instructions=3)
        assert record.is_write
        assert record.gap_instructions == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(address=-1, operation=MemoryOperation.READ)
        with pytest.raises(ValueError):
            TraceRecord(address=0, operation=MemoryOperation.READ, gap_instructions=-1)


class TestTraceStream:
    def make_stream(self) -> TraceStream:
        records = [
            TraceRecord(0x000, MemoryOperation.READ, 2),
            TraceRecord(0x040, MemoryOperation.WRITE, 1),
            TraceRecord(0x000, MemoryOperation.READ, 0),
        ]
        return TraceStream(records, thread_id=5)

    def test_len_and_iteration(self):
        stream = self.make_stream()
        assert len(stream) == 3
        assert [record.address for record in stream] == [0x000, 0x040, 0x000]
        assert stream[1].is_write

    def test_statistics(self):
        stream = self.make_stream()
        assert stream.total_instructions() == 3 + 3
        assert stream.read_fraction() == pytest.approx(2 / 3)
        assert stream.footprint_bytes(64) == 2 * 64

    def test_columns_are_built_once(self):
        stream = self.make_stream()
        columns = stream.columns()
        assert columns == ((0x000, 0x040, 0x000), (False, True, False), (2, 1, 0))
        assert stream.columns() is columns

    def test_empty_stream(self):
        stream = TraceStream([])
        assert len(stream) == 0
        assert stream.read_fraction() == 0.0


class TestCore:
    def run_core(self, architecture, records):
        hierarchy = CacheHierarchy(architecture)
        events = EventQueue()
        core = Core(0, TraceStream(records), hierarchy, events)
        core.start(0)
        events.run()
        return core, hierarchy

    def test_core_completes_its_trace(self, tiny_architecture):
        records = [
            TraceRecord(0x1000 + i * 64, MemoryOperation.READ, 2) for i in range(10)
        ]
        core, _ = self.run_core(tiny_architecture, records)
        assert core.finished
        assert core.stats.references_completed == 10
        assert core.stats.finish_cycle > 0

    def test_gap_instructions_advance_time(self, tiny_architecture):
        fast = [TraceRecord(0x1000, MemoryOperation.READ, 0) for _ in range(5)]
        slow = [TraceRecord(0x1000, MemoryOperation.READ, 50) for _ in range(5)]
        fast_core, _ = self.run_core(tiny_architecture, fast)
        slow_core, _ = self.run_core(tiny_architecture, slow)
        assert slow_core.stats.finish_cycle > fast_core.stats.finish_cycle
        assert slow_core.stats.instructions_executed == 250

    def test_instruction_fetch_energy_accounted(self, tiny_architecture):
        records = [TraceRecord(0x1000, MemoryOperation.READ, 10) for _ in range(20)]
        _, hierarchy = self.run_core(tiny_architecture, records)
        assert hierarchy.counters["l1i_reads"] >= 200
        assert hierarchy.counters["instructions"] == 200

    def test_writes_reach_the_l2(self, tiny_architecture):
        records = [TraceRecord(0x2000, MemoryOperation.WRITE, 0)]
        _, hierarchy = self.run_core(tiny_architecture, records)
        assert hierarchy.counters["l2_writes"] >= 1

    def test_stall_cycles_grow_with_misses(self, tiny_architecture):
        # Strided reads spanning far more than the L2 capacity.
        records = [
            TraceRecord(0x10000 + i * 4096, MemoryOperation.READ, 0) for i in range(50)
        ]
        core, _ = self.run_core(tiny_architecture, records)
        assert core.stats.stall_cycles > 50  # misses cost far more than hits

    def test_empty_trace_finishes_immediately(self, tiny_architecture):
        core, _ = self.run_core(tiny_architecture, [])
        assert core.finished
        assert core.stats.references_completed == 0

    def test_on_finish_callback(self, tiny_architecture):
        hierarchy = CacheHierarchy(tiny_architecture)
        events = EventQueue()
        seen = []
        core = Core(
            3,
            TraceStream([TraceRecord(0x40, MemoryOperation.READ, 0)]),
            hierarchy,
            events,
            on_finish=lambda cycle, c: seen.append((cycle, c.core_id)),
        )
        core.start(0)
        events.run()
        assert seen and seen[0][1] == 3

    def test_invalid_ifetch_interval_rejected(self, tiny_architecture):
        hierarchy = CacheHierarchy(tiny_architecture)
        with pytest.raises(ValueError):
            Core(0, TraceStream([]), hierarchy, EventQueue(), ifetch_interval=0)
