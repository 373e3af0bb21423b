"""Content-addressed campaign jobs.

A :class:`Job` is the unit of work of a campaign: one simulation of one
workload under one configuration.  Its identity is a SHA-256 digest of the
canonical JSON form of the workload recipe and the simulation configuration,
so two jobs with the same hash are guaranteed to produce the same
:class:`~repro.core.results.SimulationResult` (the simulator is
deterministic), and a persisted result can be reused by any later campaign
that enumerates the same point -- the basis of ``--resume`` and incremental
grid extension.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

from repro.config.parameters import ArchitectureConfig, SimulationConfig
from repro.core.sweep import PolicyPoint
from repro.workloads.suite import WorkloadRequest
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

#: Display label used for the full-SRAM baseline job.
BASELINE_LABEL = "SRAM baseline"


def canonical_value(obj: object) -> object:
    """Recursively convert dataclasses/enums/sequences to JSON-able values.

    The conversion is *canonical*: the same logical object always produces
    the same nested structure, independent of dict ordering or identity, so
    the JSON dump (with sorted keys) is a stable hashing payload.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: canonical_value(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical_value(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing")


def canonical_json(obj: object) -> str:
    """Compact sorted-key JSON text of ``canonical_value(obj)``.

    ``obj`` is a frozen dataclass instance.  The text is built once and kept
    on that very object (in its ``__dict__``, which the frozen setattr guard
    does not cover), so every job sharing one config canonicalises it once.
    The cache is per object, never per value: dataclass equality treats
    ``1 == 1.0`` and ``0.0 == -0.0``, whose JSON differs.
    """
    text = obj.__dict__.get("_canonical_json")
    if text is None:
        text = json.dumps(canonical_value(obj), sort_keys=True, separators=(",", ":"))
        obj.__dict__["_canonical_json"] = text
    return text


@dataclass(frozen=True)
class Job:
    """One content-addressed simulation of a campaign.

    Attributes:
        workload: seeded recipe for regenerating the workload (picklable, so
            parallel workers rebuild the trace instead of receiving it).
        config: the full simulation configuration for this point.
        point_label: the sweep-point label (``50us/R.WB(32,32)``), or None
            for the full-SRAM baseline.
    """

    workload: WorkloadRequest
    config: SimulationConfig
    point_label: Optional[str] = None

    @property
    def application(self) -> str:
        """Application name this job simulates."""
        return self.workload.name

    @property
    def is_baseline(self) -> bool:
        """True for the full-SRAM baseline job of an application."""
        return self.point_label is None

    @property
    def label(self) -> str:
        """Human-readable label for progress messages."""
        return BASELINE_LABEL if self.is_baseline else self.point_label

    def key(self) -> str:
        """Content hash identifying this job (and its result) forever.

        The digest covers everything that influences the simulation output:
        the workload recipe (name, length scale, seed), the complete
        configuration (architecture geometry, cell technology, refresh
        policy, simulator seed), and the trace-generator provenance of this
        environment (numpy vs scalar fallback -- the two draw different,
        equally valid streams from the same recipe, so their results must
        never alias).
        """
        return self._digest

    def hash_payload(self) -> dict:
        """The canonical nested structure the job key is a digest of.

        Persisted alongside stored results so ``store verify`` can re-derive
        the content hash of an entry without reconstructing the original
        :class:`Job` objects.
        """
        return {
            "workload": canonical_value(self.workload),
            "config": canonical_value(self.config),
            "trace_generator": TRACE_GENERATOR_PROVENANCE,
        }

    @cached_property
    def _digest(self) -> str:
        # Memoised (cached_property writes straight into __dict__, bypassing
        # the frozen-dataclass setattr guard).  The blob is the JSON dump of
        # hash_payload() spelled out in sorted-key order, assembled from the
        # per-object canonical text of the config and workload so jobs that
        # share a config canonicalise it once.
        blob = '{"config":%s,"trace_generator":%s,"workload":%s}' % (
            canonical_json(self.config),
            json.dumps(TRACE_GENERATOR_PROVENANCE),
            canonical_json(self.workload),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def hash_payload_digest(payload: dict) -> str:
    """SHA-256 digest of a canonical job payload (the store's file key)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def enumerate_jobs(
    requests: Sequence[WorkloadRequest],
    points: Sequence[PolicyPoint],
    architecture: ArchitectureConfig,
) -> List[Job]:
    """Flatten a sweep into jobs: per application, the baseline then each point.

    The order matches the original serial ``run_sweep`` loop so progress
    output and result-dict insertion order are unchanged.
    """
    jobs: List[Job] = []
    baseline_config = SimulationConfig.sram(architecture)
    # One config object per point, shared by every application's job, so
    # its canonical hash text is built once (see canonical_json).
    point_configs = [
        (point.label, point.simulation_config(architecture)) for point in points
    ]
    for request in requests:
        jobs.append(Job(workload=request, config=baseline_config))
        for label, config in point_configs:
            jobs.append(Job(workload=request, config=config, point_label=label))
    return jobs
