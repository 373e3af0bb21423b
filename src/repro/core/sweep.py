"""The parameter sweep of Table 5.4.

For every application, the paper simulates 43 configurations: the full-SRAM
baseline plus the cartesian product of 3 retention times x 2 timing policies
x 7 data policies on the full-eDRAM hierarchy.  :func:`run_sweep` runs that
grid (or any subset) and returns a :class:`SweepResult` from which the
figures of Chapter 6 are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config.parameters import (
    ArchitectureConfig,
    DataPolicySpec,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import (
    paper_data_policies,
    scaled_architecture,
    scaled_retention_cycles,
)
from repro.core.results import SimulationResult
from repro.core.simulator import RefrintSimulator
from repro.workloads.suite import ApplicationWorkload, WorkloadRequest

#: The retention times of Table 5.4, in microseconds.
DEFAULT_RETENTION_TIMES_US: Tuple[float, ...] = (50.0, 100.0, 200.0)


@dataclass(frozen=True)
class PolicyPoint:
    """One eDRAM configuration of the sweep grid."""

    retention_us: float
    timing_policy: TimingPolicyKind
    data_policy: DataPolicySpec

    # The labels are cached_property: the point is frozen, and rendering a
    # report asks for the same few dozen labels thousands of times.
    @cached_property
    def policy_label(self) -> str:
        """Label within one retention group, e.g. ``R.WB(32,32)``."""
        return f"{self.timing_policy.short_name}.{self.data_policy.label}"

    @cached_property
    def label(self) -> str:
        """Fully qualified label, e.g. ``50us/R.WB(32,32)``.

        The retention is rendered with ``%g`` (matching the paper's axis
        labels) unless that would lose precision -- labels identify points
        in JSON summaries, so :meth:`from_label` must recover the exact
        retention value.
        """
        text = f"{self.retention_us:g}"
        if float(text) != self.retention_us:
            text = repr(self.retention_us)
        return f"{text}us/{self.policy_label}"

    @classmethod
    def from_label(cls, label: str) -> "PolicyPoint":
        """Parse a fully qualified label back into a point.

        Inverse of :attr:`label`; used when reloading a sweep summary from
        JSON, which stores points by label only.
        """
        import re

        # The retention is rendered with %g, which may use scientific
        # notation (e.g. ``1e+06us``) for very large or small values.
        match = re.fullmatch(
            r"([0-9.]+(?:[eE][+-]?[0-9]+)?)us/([PR])\.(all|valid|dirty|WB\((\d+),(\d+)\))",
            label,
        )
        if not match:
            raise ValueError(f"unparseable policy-point label {label!r}")
        retention = float(match.group(1))
        timing = (
            TimingPolicyKind.PERIODIC
            if match.group(2) == "P"
            else TimingPolicyKind.REFRINT
        )
        policy_text = match.group(3)
        if policy_text == "all":
            data = DataPolicySpec.all_lines()
        elif policy_text == "valid":
            data = DataPolicySpec.valid()
        elif policy_text == "dirty":
            data = DataPolicySpec.dirty()
        else:
            data = DataPolicySpec.writeback(int(match.group(4)), int(match.group(5)))
        return cls(retention, timing, data)

    def refresh_config(self, architecture: ArchitectureConfig) -> RefreshConfig:
        """Materialise the refresh configuration for an architecture."""
        retention_cycles = scaled_retention_cycles(self.retention_us)
        if architecture.l3_bank.size_bytes >= 1024 * 1024:
            # Paper-sized geometry: use the unscaled retention period.
            retention_cycles = architecture.cycles_from_seconds(
                self.retention_us * 1e-6
            )
        margin = RefreshConfig.derive_sentry_margin(
            architecture.l3_bank.num_lines, retention_cycles
        )
        return RefreshConfig(
            retention_cycles=retention_cycles,
            sentry_margin_cycles=margin,
            timing_policy=self.timing_policy,
            l3_data_policy=self.data_policy,
        )

    def simulation_config(self, architecture: ArchitectureConfig) -> SimulationConfig:
        """Materialise the full simulation configuration."""
        return SimulationConfig.edram(self.refresh_config(architecture), architecture)


def default_policy_points(
    retention_times_us: Sequence[float] = DEFAULT_RETENTION_TIMES_US,
    timing_policies: Sequence[TimingPolicyKind] = (
        TimingPolicyKind.PERIODIC,
        TimingPolicyKind.REFRINT,
    ),
    data_policies: Sequence[DataPolicySpec] | None = None,
) -> List[PolicyPoint]:
    """The 42 eDRAM points of Table 5.4 (or a restriction of them)."""
    policies = (
        list(data_policies) if data_policies is not None else list(paper_data_policies())
    )
    points: List[PolicyPoint] = []
    for retention in retention_times_us:
        for timing in timing_policies:
            for data in policies:
                points.append(PolicyPoint(retention, timing, data))
    return points


@dataclass
class SweepResult:
    """Results of a sweep: per application, the baseline and every point.

    Attributes:
        baselines: application name -> full-SRAM result.
        results: application name -> point label -> eDRAM result.
        points: the points that were simulated, in order.
    """

    baselines: Dict[str, SimulationResult] = field(default_factory=dict)
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    points: List[PolicyPoint] = field(default_factory=list)

    # -- access helpers -----------------------------------------------------------

    @property
    def applications(self) -> List[str]:
        """Applications present in the sweep, in insertion order."""
        return list(self.baselines.keys())

    def result(self, application: str, point: PolicyPoint) -> SimulationResult:
        """The result of one application at one sweep point."""
        return self.results[application][point.label]

    def baseline(self, application: str) -> SimulationResult:
        """The full-SRAM result of one application."""
        return self.baselines[application]

    def points_for_retention(self, retention_us: float) -> List[PolicyPoint]:
        """The sweep points at one retention time, in policy order."""
        return [p for p in self.points if p.retention_us == retention_us]

    def retention_times(self) -> List[float]:
        """Distinct retention times in the sweep, in order."""
        seen: List[float] = []
        for point in self.points:
            if point.retention_us not in seen:
                seen.append(point.retention_us)
        return seen

    # -- normalised metrics ----------------------------------------------------------

    def normalised_metric(
        self,
        metric: Callable[[SimulationResult, SimulationResult], float],
        point: PolicyPoint,
        applications: Iterable[str] | None = None,
    ) -> Dict[str, float]:
        """Apply a (result, baseline) -> float metric per application."""
        names = list(applications) if applications is not None else self.applications
        values: Dict[str, float] = {}
        for name in names:
            values[name] = metric(self.result(name, point), self.baseline(name))
        return values

    def normalised_memory_energy(
        self, point: PolicyPoint, applications: Iterable[str] | None = None
    ) -> Dict[str, float]:
        """Per-application memory energy relative to SRAM."""
        return self.normalised_metric(
            lambda r, b: r.normalised_memory_energy(b), point, applications
        )

    def normalised_system_energy(
        self, point: PolicyPoint, applications: Iterable[str] | None = None
    ) -> Dict[str, float]:
        """Per-application system energy relative to SRAM."""
        return self.normalised_metric(
            lambda r, b: r.normalised_system_energy(b), point, applications
        )

    def normalised_execution_time(
        self, point: PolicyPoint, applications: Iterable[str] | None = None
    ) -> Dict[str, float]:
        """Per-application execution time relative to SRAM."""
        return self.normalised_metric(
            lambda r, b: r.normalised_execution_time(b), point, applications
        )

    # -- serialisation ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary of the whole sweep.

        ``applications`` records the insertion order explicitly so the
        summary survives ``json.dump(..., sort_keys=True)`` (which
        alphabetises the ``baselines``/``results`` mappings).
        """
        return {
            "applications": list(self.baselines.keys()),
            "points": [point.label for point in self.points],
            "baselines": {
                name: result.to_dict() for name, result in self.baselines.items()
            },
            "results": {
                name: {label: res.to_dict() for label, res in by_point.items()}
                for name, by_point in self.results.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepResult":
        """Rebuild a sweep from a :meth:`to_dict` summary.

        Points are reconstructed by parsing their labels
        (:meth:`PolicyPoint.from_label`); individual results come back via
        :meth:`SimulationResult.from_dict`, so
        ``SweepResult.from_dict(s.to_dict()).to_dict() == s.to_dict()``.
        """
        sweep = cls(
            points=[PolicyPoint.from_label(label) for label in data["points"]]
        )
        baselines = dict(data["baselines"])
        results = dict(data["results"])
        # Older summaries predate the explicit order key; fall back to the
        # (possibly alphabetised) mapping order.
        names = list(data.get("applications", baselines.keys()))
        for name in names:
            sweep.baselines[name] = SimulationResult.from_dict(baselines[name])
            sweep.results[name] = {
                label: SimulationResult.from_dict(result_data)
                for label, result_data in dict(results.get(name, {})).items()
            }
        return sweep


def run_point(
    point: PolicyPoint,
    application: ApplicationWorkload,
    architecture: Optional[ArchitectureConfig] = None,
) -> SimulationResult:
    """Simulate one application at one eDRAM sweep point."""
    arch = architecture if architecture is not None else scaled_architecture()
    return RefrintSimulator(point.simulation_config(arch)).run(application)


def run_sweep(
    applications: Mapping[str, ApplicationWorkload],
    architecture: Optional[ArchitectureConfig] = None,
    points: Optional[Sequence[PolicyPoint]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the full-SRAM baseline plus every sweep point for each application.

    This is a thin wrapper over the campaign engine
    (:func:`repro.campaign.engine.run_campaign`) using a serial executor
    seeded with the pre-built workloads; use the engine directly for
    parallel execution, persistence and resume.

    Args:
        applications: workloads keyed by application name.
        architecture: chip geometry (defaults to the scaled preset).
        points: sweep points (defaults to the full Table 5.4 grid).
        progress: optional callback invoked with a human-readable message
            before each simulation (useful for long sweeps).
    """
    # Imported here: the campaign package builds on this module's classes.
    from repro.campaign.engine import run_campaign
    from repro.campaign.executors import SerialExecutor

    arch = architecture if architecture is not None else scaled_architecture()
    grid = list(points) if points is not None else default_policy_points()
    requests = [WorkloadRequest(name) for name in applications]
    executor = SerialExecutor(workloads=applications)
    sweep, _ = run_campaign(
        requests,
        points=grid,
        architecture=arch,
        executor=executor,
        progress=progress,
    )
    return sweep
