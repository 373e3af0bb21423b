"""Synthetic multi-threaded memory-trace generation.

The paper's workloads are 16-threaded SPLASH-2 and PARSEC applications run
under SESC.  What its refresh policies respond to is not the instruction
semantics of those programs but the *statistics of the reference stream*
arriving at the cache hierarchy -- most importantly the two axes of
Fig. 3.1:

* the application footprint relative to the last-level cache, and
* the "visibility" the last-level cache has of upper-level activity
  (data sharing between threads and dirty evictions from the private
  caches versus working sets that sit quietly in the L1/L2).

:class:`SyntheticTraceGenerator` produces per-thread traces from knobs that
directly control those statistics.  Every thread draws each reference from
one of four pools:

* a small per-thread **hot buffer** (stack/scalars/innermost data) that fits
  in the L1 and provides temporal locality;
* a per-thread **private region** sized relative to the L2 (the part of the
  working set that overflows the L1 but usually not the private hierarchy);
* the **shared region** sized relative to the aggregate L3, accessed either
  as a word-granular streaming sweep (large-footprint applications) or
  uniformly at random;
* a small **migratory pool** inside the shared region, written by one thread
  and read by its neighbour, producing the dirty-to-shared directory
  transitions that give the L3 "visibility" of upper-level activity.

References are word (8-byte) granular, so sequential streams enjoy spatial
locality within a cache line exactly as compiled code does.  Generation is
deterministic given the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.utils.optional import HAVE_NUMPY, import_numpy

#: Which trace generator this environment runs: the vectorised PCG64 path
#: ("numpy") or the scalar Mersenne-Twister fallback ("scalar").  Both are
#: deterministic in (seed, thread id) but draw *different* (equally valid)
#: streams, so anything keyed by a workload recipe -- campaign job hashes,
#: persistent result stores -- must carry this tag to keep results from the
#: two environments apart.
TRACE_GENERATOR_PROVENANCE = "numpy" if HAVE_NUMPY else "scalar"

from repro.cpu.trace import MemoryOperation, TraceRecord, TraceStream

#: Base of the shared data region in the simulated address space.
SHARED_REGION_BASE = 0x1000_0000

#: Base of the per-thread private regions.  Consecutive threads' regions are
#: packed back to back (like a real allocator would lay them out) rather
#: than at large power-of-two strides, so they spread over all L3 banks and
#: sets instead of aliasing onto the same few.
PRIVATE_REGION_BASE = 0x8000_0000

#: Base of the per-thread hot buffers (stack-like, always near the thread),
#: likewise packed back to back.
HOT_REGION_BASE = 0x4000_0000

#: Access granularity in bytes (one machine word).
WORD_BYTES = 8

#: Number of blocks in the migratory (producer-consumer) pool.
MIGRATORY_POOL_BLOCKS = 64


@dataclass(frozen=True)
class TraceParameters:
    """Knobs describing one application's reference stream.

    Attributes:
        num_threads: number of threads (one per core).
        references_per_thread: data references generated per thread.
        shared_footprint_bytes: size of the region shared by all threads.
        private_footprint_bytes: size of each thread's private region.
        hot_footprint_bytes: size of each thread's hot buffer.
        hot_fraction: probability a reference targets the hot buffer.
        shared_fraction: probability a *non-hot* reference targets the shared
            region (the rest go to the private region).
        sequential_fraction: probability a shared reference continues the
            thread's streaming sweep instead of being drawn at random.
        migration_fraction: probability a shared reference targets the
            migratory producer-consumer pool.
        write_fraction: probability a reference is a store.
        mean_gap_instructions: mean non-memory instructions between
            references.
        line_bytes: cache-line size (for pool sizing only).
        seed: base RNG seed; each thread derives its own stream from it.
    """

    num_threads: int
    references_per_thread: int
    shared_footprint_bytes: int
    private_footprint_bytes: int
    hot_footprint_bytes: int
    hot_fraction: float
    shared_fraction: float
    sequential_fraction: float = 0.0
    migration_fraction: float = 0.0
    write_fraction: float = 0.3
    mean_gap_instructions: float = 3.0
    line_bytes: int = 64
    seed: int = 2013

    def __post_init__(self) -> None:
        for name in (
            "hot_fraction", "shared_fraction", "write_fraction",
            "sequential_fraction", "migration_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.sequential_fraction + self.migration_fraction > 1.0:
            raise ValueError(
                "sequential_fraction + migration_fraction must not exceed 1"
            )
        if self.num_threads < 1:
            raise ValueError("need at least one thread")
        if self.references_per_thread < 0:
            raise ValueError("references_per_thread must be non-negative")
        for name in (
            "shared_footprint_bytes", "private_footprint_bytes",
            "hot_footprint_bytes",
        ):
            if getattr(self, name) < WORD_BYTES:
                raise ValueError(f"{name} must hold at least one word")
        if self.mean_gap_instructions < 0:
            raise ValueError("mean_gap_instructions must be non-negative")

    @property
    def shared_words(self) -> int:
        """Number of words in the shared region."""
        return max(1, self.shared_footprint_bytes // WORD_BYTES)

    @property
    def private_words(self) -> int:
        """Number of words in each thread's private region."""
        return max(1, self.private_footprint_bytes // WORD_BYTES)

    @property
    def hot_words(self) -> int:
        """Number of words in each thread's hot buffer."""
        return max(1, self.hot_footprint_bytes // WORD_BYTES)


class SyntheticTraceGenerator:
    """Deterministic generator of per-thread traces from trace parameters."""

    def __init__(self, parameters: TraceParameters) -> None:
        self.parameters = parameters

    # -- public API -----------------------------------------------------------

    def generate(self) -> List[TraceStream]:
        """Generate one trace per thread."""
        return [
            self.generate_thread(thread)
            for thread in range(self.parameters.num_threads)
        ]

    def generate_thread(self, thread_id: int) -> TraceStream:
        """Generate the trace of one thread.

        With numpy installed the stream is drawn with vectorised PCG64
        sampling; without it a scalar Mersenne-Twister walk draws the same
        distributions.  Both are fully deterministic in (seed, thread id),
        but they produce *different* streams -- an environment must not mix
        results generated with and without numpy.
        """
        params = self.parameters
        count = params.references_per_thread
        if count == 0:
            return TraceStream([], thread_id=thread_id)
        if not HAVE_NUMPY:
            return self._generate_thread_scalar(thread_id, count)
        np = import_numpy()
        rng = np.random.default_rng((params.seed, thread_id))

        addresses = self._draw_addresses(rng, thread_id, count)
        writes = rng.random(count) < params.write_fraction
        gaps = rng.poisson(params.mean_gap_instructions, size=count)

        records = [
            TraceRecord(
                address=int(addresses[i]),
                operation=MemoryOperation.WRITE if writes[i] else MemoryOperation.READ,
                gap_instructions=int(gaps[i]),
            )
            for i in range(count)
        ]
        return TraceStream(records, thread_id=thread_id)

    # -- address stream construction -------------------------------------------

    def _draw_addresses(self, rng, thread_id: int, count: int):
        """Vectorised construction of the thread's address stream."""
        np = import_numpy()
        params = self.parameters

        hot_base = HOT_REGION_BASE + thread_id * params.hot_footprint_bytes
        private_base = PRIVATE_REGION_BASE + thread_id * params.private_footprint_bytes

        # Which pool does each reference use?
        pool_draw = rng.random(count)
        is_hot = pool_draw < params.hot_fraction
        shared_draw = rng.random(count) < params.shared_fraction
        is_shared = (~is_hot) & shared_draw
        is_private = (~is_hot) & (~shared_draw)

        # Sub-kind of shared references.
        kind_draw = rng.random(count)
        is_sequential = is_shared & (kind_draw < params.sequential_fraction)
        is_migratory = is_shared & (
            (kind_draw >= params.sequential_fraction)
            & (kind_draw < params.sequential_fraction + params.migration_fraction)
        )
        is_shared_random = is_shared & ~is_sequential & ~is_migratory

        addresses = np.zeros(count, dtype=np.int64)

        # Hot buffer: uniform over a region that fits in the L1.
        hot_idx = rng.integers(0, params.hot_words, size=count)
        addresses[is_hot] = hot_base + hot_idx[is_hot] * WORD_BYTES

        # Private region: uniform over the per-thread slice.
        private_idx = rng.integers(0, params.private_words, size=count)
        addresses[is_private] = private_base + private_idx[is_private] * WORD_BYTES

        # Shared streaming sweep: each thread walks its own contiguous slice
        # of the shared region word by word, wrapping around, so consecutive
        # references usually fall in the same cache line (spatial locality)
        # while the slice itself is far larger than the caches.
        slice_words = max(1, params.shared_words // params.num_threads)
        slice_start_word = thread_id * slice_words
        seq_positions = np.cumsum(is_sequential.astype(np.int64))
        seq_start = int(rng.integers(0, slice_words))
        seq_word = slice_start_word + (seq_start + seq_positions) % slice_words
        addresses[is_sequential] = (
            SHARED_REGION_BASE + seq_word[is_sequential] * WORD_BYTES
        )

        # Migratory pool: a handful of blocks handed between neighbouring
        # threads in phases, generating dirty-to-shared transitions at the
        # directory.  The block choice depends on the phase so ownership
        # really moves from thread to thread over time.
        pool_blocks = min(
            MIGRATORY_POOL_BLOCKS,
            max(1, params.shared_footprint_bytes // params.line_bytes),
        )
        phase = np.arange(count) // 64
        migratory_block = (
            rng.integers(0, pool_blocks, size=count) + thread_id + phase
        ) % pool_blocks
        word_in_block = rng.integers(0, params.line_bytes // WORD_BYTES, size=count)
        addresses[is_migratory] = (
            SHARED_REGION_BASE
            + migratory_block[is_migratory] * params.line_bytes
            + word_in_block[is_migratory] * WORD_BYTES
        )

        # Shared random: uniform over the whole shared region.
        shared_idx = rng.integers(0, params.shared_words, size=count)
        addresses[is_shared_random] = (
            SHARED_REGION_BASE + shared_idx[is_shared_random] * WORD_BYTES
        )

        return addresses

    # -- pure-Python fallback ---------------------------------------------------

    def _generate_thread_scalar(self, thread_id: int, count: int) -> TraceStream:
        """Scalar (no-numpy) generation: same pools, same distributions.

        One reference at a time through :class:`random.Random` -- slower
        than the vectorised path but dependency-free, and deterministic in
        (seed, thread id) because only integers are fed to the seeder.
        """
        params = self.parameters
        rng = random.Random(params.seed * 1_000_003 + thread_id)
        uniform = rng.random
        randrange = rng.randrange

        hot_base = HOT_REGION_BASE + thread_id * params.hot_footprint_bytes
        private_base = (
            PRIVATE_REGION_BASE + thread_id * params.private_footprint_bytes
        )
        slice_words = max(1, params.shared_words // params.num_threads)
        slice_start_word = thread_id * slice_words
        seq_word = randrange(slice_words)
        pool_blocks = min(
            MIGRATORY_POOL_BLOCKS,
            max(1, params.shared_footprint_bytes // params.line_bytes),
        )
        words_per_line = params.line_bytes // WORD_BYTES
        # Knuth's product-of-uniforms Poisson sampler; the mean gap is a
        # handful of instructions, so the expected iteration count is tiny.
        poisson_floor = math.exp(-params.mean_gap_instructions)

        records = []
        for i in range(count):
            if uniform() < params.hot_fraction:
                address = hot_base + randrange(params.hot_words) * WORD_BYTES
            elif uniform() >= params.shared_fraction:
                address = (
                    private_base + randrange(params.private_words) * WORD_BYTES
                )
            else:
                kind = uniform()
                if kind < params.sequential_fraction:
                    seq_word = (seq_word + 1) % slice_words
                    address = (
                        SHARED_REGION_BASE
                        + (slice_start_word + seq_word) * WORD_BYTES
                    )
                elif kind < params.sequential_fraction + params.migration_fraction:
                    block = (
                        randrange(pool_blocks) + thread_id + i // 64
                    ) % pool_blocks
                    address = (
                        SHARED_REGION_BASE
                        + block * params.line_bytes
                        + randrange(words_per_line) * WORD_BYTES
                    )
                else:
                    address = (
                        SHARED_REGION_BASE
                        + randrange(params.shared_words) * WORD_BYTES
                    )
            gap = 0
            if params.mean_gap_instructions > 0:
                product = uniform()
                while product >= poisson_floor:
                    gap += 1
                    product *= uniform()
            records.append(
                TraceRecord(
                    address=address,
                    operation=(
                        MemoryOperation.WRITE
                        if uniform() < params.write_fraction
                        else MemoryOperation.READ
                    ),
                    gap_instructions=gap,
                )
            )
        return TraceStream(records, thread_id=thread_id)
