"""The staged cache fast path must not allocate per access.

The original ``Cache.lookup`` returned a frozen ``LookupResult`` dataclass
on every access -- hit *and* miss -- and ``choose_victim`` allocated an
``EvictionResult`` per fill.  The staged index API replaces both with plain
ints.  Two independent checks pin that down:

* a tripwire: the result dataclasses are monkeypatched to explode, and the
  staged access/fill/evict cycle is driven through anyway;
* a GC-churn bound: with the gen-0 threshold squeezed, a hundred thousand
  staged accesses must not trigger collections (ints are untracked; one
  tracked container per access would force thousands of gen-0 passes).

The same holds one level up: building a hierarchy allocates per cache, not
per line (line views and sharer sets are materialised on first use), the
protocol's L3 miss / eviction / end-of-run flush path stays on line
indices, and a finished run leaves no cyclic garbage behind.
"""

from __future__ import annotations

import gc

import pytest

from repro.config.parameters import (
    CacheGeometry,
    DataPolicySpec,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture
from repro.core.simulator import RefrintSimulator
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.mem import cache as cache_module
from repro.mem.cache import Cache
from repro.mem.line import MESI_MODIFIED, MESI_SHARED
from tests.conftest import make_tiny_architecture


def geometry() -> CacheGeometry:
    return CacheGeometry(
        name="test", size_bytes=4096, associativity=4, line_bytes=64,
        access_cycles=1, write_back=True, num_refresh_groups=4,
        sentry_group_size=4,
    )


class _Exploding:
    def __init__(self, *args, **kwargs):
        raise AssertionError(
            "result dataclass constructed on the staged fast path"
        )


@pytest.fixture
def no_result_objects(monkeypatch):
    monkeypatch.setattr(cache_module, "LookupResult", _Exploding)
    monkeypatch.setattr(cache_module, "EvictionResult", _Exploding)


def test_staged_path_builds_no_result_objects(no_result_objects):
    cache = Cache(geometry())
    # Misses, fills, hits, victim choice, invalidation -- the complete
    # per-access repertoire of the protocol's hot path.
    for block in range(0, 64 * 64, 64):
        assert cache.probe_index(block) == -1
        assert cache.access_index(block, cycle=0) == -1
        index = cache.fill_block(block, MESI_SHARED, cycle=0)
        assert isinstance(index, int)
        assert cache.access_index(block, cycle=1) == index
        assert isinstance(cache.choose_victim_index(block), int)
        cache.set_state_code(index, MESI_MODIFIED)
        assert cache.dirty_at(index)
    cache.invalidate_index(cache.probe_index(0))
    assert cache.probe_index(0) == -1


def test_l3_miss_and_eviction_path_builds_no_result_objects(no_result_objects):
    hierarchy = CacheHierarchy(make_tiny_architecture())
    # Far more blocks than the tiny L3 bank holds, read and written by
    # several cores: L3 misses, clean and dirty L3 evictions with
    # back-invalidation, L2 evictions; then a few blocks shared by several
    # cores: owner recalls and coherence invalidations.
    for i in range(4096):
        core = i % 5
        address = 0x10000 + (i % 1024) * 64 * 16  # all homed on bank 0
        if i % 3 == 0:
            hierarchy.write(core, address, cycle=i * 10)
        else:
            hierarchy.read(core, address, cycle=i * 10)
    for i in range(64):
        address = 0x900000 + (i % 4) * 64
        if i % 3 == 0:
            hierarchy.write(i % 4, address, cycle=50_000 + i * 10)
        else:
            hierarchy.read(i % 5, address, cycle=50_000 + i * 10)
    hierarchy.flush_dirty(cycle=60_000)
    counters = hierarchy.counters
    assert counters["l3_misses"] > 0
    assert counters["l3_evictions"] > 0
    assert counters["l3_eviction_writebacks"] > 0
    assert counters["back_invalidations"] > 0
    assert counters["coherence_invalidations"] > 0
    assert counters["msg_owner_fetch"] > 0
    assert hierarchy.dirty_lines() == {"l1i": 0, "l1d": 0, "l2": 0, "l3": 0}
    # Private caches are reached through line indices only.
    for caches in hierarchy.cores:
        for cache in (caches.l1i, caches.l1d, caches.l2):
            assert len(cache._views) == 0, cache.name


def test_hierarchy_construction_allocates_per_cache_not_per_line():
    architecture = scaled_architecture()
    CacheHierarchy(architecture)  # warm imports and interned state
    gc.collect()
    before = len(gc.get_objects())
    hierarchy = CacheHierarchy(architecture)
    after = len(gc.get_objects())
    caches = [cache for _, _, cache in hierarchy.all_caches()]
    lines = sum(cache.num_lines for cache in caches)
    assert all(len(cache._views) == 0 for cache in caches)
    assert all(
        cache.arrays.sharers.count(None) == cache.num_lines
        for cache in caches
        if cache.directory
    )
    # A small constant per cache (the cache, its vectors, its view map);
    # one view or sharer set per line would add tens of thousands.
    assert after - before <= 20 * len(caches) + 100 < lines


@pytest.mark.parametrize("replay", ["runahead", "event"])
@pytest.mark.parametrize(
    "config",
    [
        SimulationConfig.sram(scaled_architecture()),
        SimulationConfig.scaled(50.0, TimingPolicyKind.PERIODIC),
        SimulationConfig.scaled(
            50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(4, 4)
        ),
    ],
    ids=["sram", "periodic-valid", "refrint-wb"],
)
def test_finished_run_leaves_no_cyclic_garbage(config, replay):
    from repro.workloads.suite import build_application

    workload = build_application("fft", config.architecture, length_scale=0.02)
    simulator = RefrintSimulator(config, replay=replay)
    simulator.run(workload)
    gc.collect()
    gc.disable()
    try:
        simulator.run(workload)
        # Everything the run built was freed by reference counting; a
        # cycle left behind would keep the whole hierarchy (every cache's
        # state vectors) alive until a full collection.
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_staged_hits_cause_no_gc_churn():
    cache = Cache(geometry())
    cache.fill_block(0x1000, MESI_SHARED, cycle=0)
    access_index = cache.access_index
    # Warm up any lazy state, then squeeze gen-0 so that even modest
    # per-access container allocation would force collections.
    for cycle in range(1000):
        access_index(0x1000, cycle)
    old_threshold = gc.get_threshold()
    gc.collect()
    try:
        gc.set_threshold(50, 2, 2)
        before = gc.get_stats()[0]["collections"]
        for cycle in range(100_000):
            access_index(0x1000, cycle)
        after = gc.get_stats()[0]["collections"]
    finally:
        gc.set_threshold(*old_threshold)
    # One tracked object per access would mean ~2000 gen-0 collections.
    assert after - before < 50


def test_object_path_allocates_per_access(monkeypatch):
    """Sanity: the preserved object backend does build a result per access.

    This is the allocation the refactor eliminates; counting it here keeps
    the tripwire above honest (if the object path stopped constructing
    ``LookupResult``, the no-allocation tests would be vacuous).
    """
    constructed = []
    real = cache_module.LookupResult

    def counting(*args, **kwargs):
        constructed.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_module, "LookupResult", counting)
    cache = Cache(geometry(), backend="object")
    cache.fill_block(0x1000, MESI_SHARED, cycle=0)
    for cycle in range(100):
        cache.access_index(0x1000, cycle)
    assert len(constructed) >= 100
