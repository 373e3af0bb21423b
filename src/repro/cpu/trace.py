"""Memory reference traces.

The paper drives its evaluation with 16-threaded SPLASH-2 / PARSEC binaries
executed by the SESC simulator.  Here a thread's execution is represented by
a :class:`TraceStream`: an ordered sequence of :class:`TraceRecord` entries,
each describing one data reference (read or write) plus the number of
non-memory instructions executed since the previous reference.  The core
model replays the stream, charging a fixed number of cycles per non-memory
instruction and blocking on the memory system for each reference.

Traces are ordinary Python iterables, so they can come from the synthetic
generators in :mod:`repro.workloads`, from files, or from tests that need a
precisely controlled access sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class MemoryOperation(enum.Enum):
    """Kind of one data reference."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class TraceRecord:
    """One data reference in a thread's trace.

    Attributes:
        address: byte address referenced.
        operation: read or write.
        gap_instructions: non-memory instructions executed since the
            previous record (each costs one pipeline cycle and one
            instruction fetch).
    """

    address: int
    operation: MemoryOperation
    gap_instructions: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("addresses must be non-negative")
        if self.gap_instructions < 0:
            raise ValueError("gap_instructions must be non-negative")

    @property
    def is_write(self) -> bool:
        """True for a store."""
        return self.operation is MemoryOperation.WRITE


class TraceStream:
    """A finite, replayable sequence of trace records for one thread."""

    def __init__(self, records: Iterable[TraceRecord], thread_id: int = 0) -> None:
        self._records: List[TraceRecord] = list(records)
        self.thread_id = thread_id
        self._columns: Optional[
            Tuple[Tuple[int, ...], Tuple[bool, ...], Tuple[int, ...]]
        ] = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> Sequence[TraceRecord]:
        """The underlying records (read-only view)."""
        return tuple(self._records)

    def columns(self) -> Tuple[Tuple[int, ...], Tuple[bool, ...], Tuple[int, ...]]:
        """``(addresses, is_write, gap_instructions)`` as parallel tuples.

        Built on the first call and shared by every later caller (every run
        replaying this trace).
        """
        if self._columns is None:
            records = self._records
            self._columns = (
                tuple([record.address for record in records]),
                tuple([record.is_write for record in records]),
                tuple([record.gap_instructions for record in records]),
            )
        return self._columns

    def total_instructions(self) -> int:
        """Total instructions represented (memory ops plus gaps)."""
        return sum(record.gap_instructions + 1 for record in self._records)

    def read_fraction(self) -> float:
        """Fraction of data references that are reads."""
        if not self._records:
            return 0.0
        reads = sum(1 for record in self._records if not record.is_write)
        return reads / len(self._records)

    def footprint_bytes(self, line_bytes: int = 64) -> int:
        """Number of distinct cache blocks touched, times the block size."""
        blocks = {record.address // line_bytes for record in self._records}
        return len(blocks) * line_bytes
