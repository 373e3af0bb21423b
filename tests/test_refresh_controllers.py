"""Unit tests for the Periodic and Refrint refresh controllers."""

from __future__ import annotations

import pytest

from repro.config.parameters import (
    DataPolicySpec,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.refresh.controller import build_refresh_controllers, level_refresh_config
from repro.refresh.periodic import PeriodicRefreshController
from repro.refresh.policies import ValidPolicy
from repro.refresh.refrint import RefrintRefreshController
from repro.utils.events import EventQueue
from tests.conftest import make_refresh_config

ADDR = 0x0002_0000


def build(hierarchy_config, timing, data=None, retention=1000):
    """Helper: hierarchy + event queue + controllers for a config."""
    architecture = hierarchy_config
    refresh = make_refresh_config(
        architecture, timing=timing, data=data, retention_cycles=retention
    )
    config = SimulationConfig.edram(refresh, architecture)
    hierarchy = CacheHierarchy(architecture)
    events = EventQueue()
    controllers = build_refresh_controllers(hierarchy, config, events)
    return hierarchy, events, controllers, config


class TestControllerConstruction:
    def test_one_controller_per_cache_instance(self, tiny_architecture):
        _, _, controllers, _ = build(tiny_architecture, TimingPolicyKind.REFRINT)
        # 16 cores x (l1i, l1d, l2) + 16 L3 banks
        assert len(controllers) == 16 * 3 + 16
        assert all(isinstance(c, RefrintRefreshController) for c in controllers)

    def test_periodic_controllers_built_for_periodic_timing(self, tiny_architecture):
        _, _, controllers, _ = build(tiny_architecture, TimingPolicyKind.PERIODIC)
        assert all(isinstance(c, PeriodicRefreshController) for c in controllers)

    def test_sram_builds_no_controllers(self, tiny_architecture):
        config = SimulationConfig.sram(tiny_architecture)
        hierarchy = CacheHierarchy(tiny_architecture)
        assert build_refresh_controllers(hierarchy, config, EventQueue()) == []

    def test_l1_l2_use_valid_policy_and_l3_uses_configured(self, tiny_architecture):
        _, _, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.REFRINT,
            data=DataPolicySpec.writeback(4, 4),
        )
        by_level = {}
        for controller in controllers:
            by_level.setdefault(controller.level, controller)
        assert type(by_level["l1d"].policy).__name__ == "ValidPolicy"
        assert type(by_level["l2"].policy).__name__ == "ValidPolicy"
        assert type(by_level["l3"].policy).__name__ == "WritebackPolicy"

    def test_paper_geometry_keeps_one_retention_for_all_levels(self):
        from repro.config.presets import paper_architecture

        arch = paper_architecture()
        refresh = make_refresh_config(arch, retention_cycles=50_000)
        config = SimulationConfig.edram(refresh, arch)
        hierarchy = CacheHierarchy(arch)
        for level, _, cache in hierarchy.all_caches():
            level_config = level_refresh_config(config, level, cache)
            assert level_config.retention_cycles == 50_000

    def test_scaled_geometry_stretches_l1_l2_retention(self, scaled_arch):
        refresh = make_refresh_config(scaled_arch, retention_cycles=1562)
        config = SimulationConfig.edram(refresh, scaled_arch)
        hierarchy = CacheHierarchy(scaled_arch)
        rates = {}
        for level, _, cache in hierarchy.all_caches():
            level_config = level_refresh_config(config, level, cache)
            rates[level] = cache.num_lines / level_config.retention_cycles
        # Refresh rate (lines/cycle) per instance must match the paper
        # geometry at 50 us: L3 bank 16384/50000, L2 4096/50000, L1D 512/50000.
        assert rates["l3"] == pytest.approx(16384 / 50_000, rel=0.05)
        assert rates["l2"] == pytest.approx(4096 / 50_000, rel=0.10)
        assert rates["l1d"] == pytest.approx(512 / 50_000, rel=0.10)


class TestPeriodicController:
    def test_all_policy_refreshes_every_line_once_per_period(self, tiny_architecture):
        hierarchy, events, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.PERIODIC,
            data=DataPolicySpec.all_lines(), retention=400,
        )
        l3_controllers = [c for c in controllers if c.level == "l3"]
        for controller in l3_controllers:
            controller.start(0)
        events.run(until=399)
        total_l3_lines = sum(c.cache.num_lines for c in l3_controllers)
        assert hierarchy.counters["l3_refreshes"] == total_l3_lines

    def test_valid_policy_skips_invalid_lines(self, tiny_architecture):
        hierarchy, events, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.PERIODIC,
            data=DataPolicySpec.valid(), retention=400,
        )
        hierarchy.read(0, ADDR, cycle=0)
        for controller in controllers:
            if controller.level == "l3":
                controller.start(0)
        events.run(until=399)
        # Only the single valid L3 line is refreshed.
        assert hierarchy.counters["l3_refreshes"] == 1

    def test_periodic_pass_blocks_its_refresh_group(self, tiny_architecture):
        hierarchy, events, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.PERIODIC,
            data=DataPolicySpec.all_lines(), retention=400,
        )
        bank_controller = next(c for c in controllers if c.level == "l3")
        bank_controller.start(0)
        events.run(until=0)
        cache = bank_controller.cache
        assert max(cache.group_busy_until) > 0

    def test_dirty_policy_invalidates_clean_lines(self, tiny_architecture):
        hierarchy, events, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.PERIODIC,
            data=DataPolicySpec.dirty(), retention=400,
        )
        hierarchy.read(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        for controller in controllers:
            if controller.level == "l3":
                controller.start(0)
        events.run(until=399)
        line = bank.cache.probe(block)
        assert line is None or not line.valid
        assert hierarchy.counters["l3_policy_invalidations"] >= 1
        assert hierarchy.check_inclusion() == []


class TestSubclassedPolicies:
    """Plugged-in (subclassed) policies must keep the generic decide() walk.

    The staged fast paths dispatch on exact policy types; a downstream
    subclass with an overridden decide() has to see every line of a
    periodic group (valid or not) and must not be routed through the bulk
    slice path that never consults the policy.
    """

    class CountingValidPolicy(ValidPolicy):
        def __init__(self):
            self.calls = 0

        def decide(self, line):
            self.calls += 1
            return super().decide(line)

    def test_periodic_walk_consults_subclassed_policy_per_line(self, tiny_architecture):
        from repro.hierarchy.hierarchy import CacheHierarchy
        from repro.refresh.periodic import PeriodicRefreshController
        from repro.utils.events import EventQueue

        hierarchy = CacheHierarchy(tiny_architecture)
        events = EventQueue()
        bank = hierarchy.banks[0]
        policy = self.CountingValidPolicy()
        refresh = make_refresh_config(tiny_architecture, retention_cycles=400)
        controller = PeriodicRefreshController(
            "l3", 0, bank.cache, policy, refresh, hierarchy, events
        )
        assert controller._policy_kind == "custom"
        controller.start(0)
        events.run(until=399)
        # One decide() per line per retention period, invalid lines included.
        assert policy.calls == bank.cache.num_lines

    def test_refrint_uses_generic_handler_for_subclassed_policy(self, tiny_architecture):
        from repro.hierarchy.hierarchy import CacheHierarchy
        from repro.refresh.refrint import RefrintRefreshController
        from repro.utils.events import EventQueue

        hierarchy = CacheHierarchy(tiny_architecture)
        events = EventQueue()
        bank = hierarchy.banks[0]
        refresh = make_refresh_config(tiny_architecture, retention_cycles=400)
        controller = RefrintRefreshController(
            "l3", 0, bank.cache, self.CountingValidPolicy(), refresh,
            hierarchy, events,
        )
        controller.start(0)
        armed = {
            entry[2] for entries in controller.wheel._buckets.values()
            for entry in entries
        }
        assert armed == {controller._on_group_interrupt}


class TestRefrintController:
    def test_valid_line_is_refreshed_before_it_expires(self, tiny_architecture):
        hierarchy, events, controllers, config = build(
            tiny_architecture, TimingPolicyKind.REFRINT,
            data=DataPolicySpec.valid(), retention=500,
        )
        hierarchy.read(0, ADDR, cycle=0)
        for controller in controllers:
            controller.start(0)
        events.run(until=5000)
        assert hierarchy.counters.get("decay_violations") == 0
        assert hierarchy.counters["l3_refreshes"] >= 5

    def test_refrint_refreshes_fewer_lines_than_periodic_all(self, tiny_architecture):
        # One valid line in the whole L3: Refrint-Valid refreshes only it,
        # Periodic-All refreshes every line in every bank.
        results = {}
        for timing, data in (
            (TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
            (TimingPolicyKind.REFRINT, DataPolicySpec.valid()),
        ):
            hierarchy, events, controllers, _ = build(
                tiny_architecture, timing, data=data, retention=500,
            )
            hierarchy.read(0, ADDR, cycle=0)
            for controller in controllers:
                if controller.level == "l3":
                    controller.start(0)
            events.run(until=2000)
            results[timing] = hierarchy.counters["l3_refreshes"]
        assert results[TimingPolicyKind.REFRINT] < results[TimingPolicyKind.PERIODIC]

    def test_wb_policy_eventually_invalidates_idle_line(self, tiny_architecture):
        hierarchy, events, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.REFRINT,
            data=DataPolicySpec.writeback(1, 1), retention=500,
        )
        hierarchy.write(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        for controller in controllers:
            if controller.level == "l3":
                controller.start(0)
        # After enough sentry periods the dirty line is written back and
        # then invalidated (1 refresh in each state).
        events.run(until=5000)
        line = bank.cache.probe(block)
        assert line is None or not line.valid
        assert hierarchy.counters["dram_writes"] >= 1
        assert hierarchy.check_inclusion() == []

    def test_accessed_line_is_not_invalidated(self, tiny_architecture):
        hierarchy, events, controllers, _ = build(
            tiny_architecture, TimingPolicyKind.REFRINT,
            data=DataPolicySpec.writeback(1, 1), retention=500,
        )
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        for controller in controllers:
            if controller.level == "l3":
                controller.start(0)
        # Touch the line at the L3 every 300 cycles (each miss reaches the
        # bank because a different core reads it each time).
        for step in range(20):
            hierarchy.read(step % 16, ADDR, cycle=events.now)
            events.run(until=(step + 1) * 300)
        line = bank.cache.probe(block)
        assert line is not None and line.valid
