"""The versioned, typed query layer: one request surface for every front end.

A :class:`QueryRequest` describes a (workload, config-grid) question --
which applications, which retention times, which timing and data policies,
at what trace length and seed -- exactly once, in one canonical form.  The
CLI, the HTTP service (:mod:`repro.service`) and the Python facade
(:func:`repro.api.answer_query`) all parse into this class, so their
argument handling cannot drift: the same text is accepted, the same
mistakes are rejected with the same message, and -- crucially -- the same
logical question always normalises to the same content-addressed
:class:`~repro.campaign.jobs.Job` hashes, which is what makes memoisation
across front ends sound.

The JSON form round-trips exactly (``QueryRequest.from_dict(r.to_dict())
== r``) and is described by :func:`QueryRequest.json_schema`; malformed
payloads raise :class:`QueryValidationError` with a message naming the
offending field, which the HTTP layer maps to a 4xx response.

A :class:`QueryResponse` carries one :class:`PointAnswer` per normalised
job.  Every answer is stamped ``exact=True`` (a simulator result, from the
store or freshly computed) or ``exact=False`` (a surrogate interpolation,
with its bounds), plus a :class:`Provenance` record naming the job hash,
the source, the trace generator and -- for surrogates -- the corner
results it was interpolated from.  An approximation can therefore never
masquerade as simulator ground truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.jobs import Job, enumerate_jobs
from repro.config.parameters import (
    ArchitectureConfig,
    DataPolicySpec,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture
from repro.core.sweep import PolicyPoint, default_policy_points
from repro.workloads.suite import APPLICATION_NAMES, DEFAULT_SEED, WorkloadRequest
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

#: The one request-schema version this release understands.
API_VERSION = 1

#: Answer sources an exact answer may carry.
EXACT_SOURCES = ("store", "simulated")

#: The scalar metrics every answer carries (the Table 5.4 energy/time
#: surface); surrogate answers interpolate exactly these.
ANSWER_METRICS = (
    "execution_cycles",
    "busy_core_cycles",
    "memory_energy_j",
    "system_energy_j",
)


def metrics_from_result(result) -> Dict[str, float]:
    """Extract the served metric surface from a simulation result.

    This is the one mapping between :class:`SimulationResult` and the
    :data:`ANSWER_METRICS` every answer (exact or surrogate) carries; the
    surrogate layer interpolates exactly these values.
    """
    return {
        "execution_cycles": float(result.execution_cycles),
        "busy_core_cycles": float(result.busy_core_cycles),
        "memory_energy_j": float(result.memory_energy()),
        "system_energy_j": float(result.system_energy()),
    }


class QueryValidationError(ValueError):
    """A request (or one of its fields) failed validation.

    Raised by the parsers and by :meth:`QueryRequest.from_dict`; the HTTP
    layer maps it to a 400 response carrying the message verbatim.
    """


def _text_items(value: Union[str, Sequence], what: str) -> List[str]:
    """Split a comma-separated string (or pass a sequence through) to items."""
    if isinstance(value, str):
        return [item.strip() for item in value.split(",") if item.strip()]
    if isinstance(value, (list, tuple)):
        return [str(item).strip() for item in value]
    raise QueryValidationError(
        f"{what} must be a comma-separated string or a list, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class QueryRequest:
    """One typed sweep query: a workload set times a configuration grid.

    Attributes:
        applications: application names (validated, duplicate-free).
        retentions_us: eDRAM retention times in microseconds.
        timing_policies: Periodic / Refrint (any subset).
        data_policies: All / Valid / Dirty / WB(n, m) (any subset).
        length_scale: trace-length multiplier of the workload recipes.
        seed: base RNG seed of the synthetic traces.
        include_baseline: also answer the full-SRAM baseline per application
            (needed for the paper's normalised metrics).
        allow_surrogate: permit interpolated (``exact=False``) answers for
            configurations whose exact result is not yet stored.
        api_version: request-schema version (this release: 1).
    """

    applications: Tuple[str, ...]
    retentions_us: Tuple[float, ...] = (50.0,)
    timing_policies: Tuple[TimingPolicyKind, ...] = (TimingPolicyKind.REFRINT,)
    data_policies: Tuple[DataPolicySpec, ...] = field(
        default_factory=lambda: (DataPolicySpec.writeback(32, 32),)
    )
    length_scale: float = 0.5
    seed: int = DEFAULT_SEED
    include_baseline: bool = True
    allow_surrogate: bool = True
    api_version: int = API_VERSION

    def __post_init__(self) -> None:
        # Canonicalise sequences to tuples so requests built with lists
        # compare and hash like requests parsed from JSON.
        object.__setattr__(
            self, "applications", self.parse_applications(self.applications)
        )
        object.__setattr__(
            self, "retentions_us", self.parse_retentions(self.retentions_us)
        )
        timings = tuple(
            self.parse_timing_policy(t) if not isinstance(t, TimingPolicyKind) else t
            for t in _as_sequence(self.timing_policies, "timing_policies")
        )
        if not timings:
            raise QueryValidationError("timing_policies must not be empty")
        if len(set(timings)) != len(timings):
            raise QueryValidationError("duplicate timing policies in query")
        object.__setattr__(self, "timing_policies", timings)
        datas = tuple(
            self.parse_data_policy(d) if not isinstance(d, DataPolicySpec) else d
            for d in _as_sequence(self.data_policies, "data_policies")
        )
        if not datas:
            raise QueryValidationError("data_policies must not be empty")
        if len(set(datas)) != len(datas):
            raise QueryValidationError("duplicate data policies in query")
        object.__setattr__(self, "data_policies", datas)
        if not isinstance(self.length_scale, (int, float)) or isinstance(
            self.length_scale, bool
        ):
            raise QueryValidationError("length_scale must be a number")
        if self.length_scale <= 0:
            raise QueryValidationError("length_scale must be positive")
        object.__setattr__(self, "length_scale", float(self.length_scale))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise QueryValidationError("seed must be an integer")
        if not isinstance(self.include_baseline, bool):
            raise QueryValidationError("include_baseline must be a boolean")
        if not isinstance(self.allow_surrogate, bool):
            raise QueryValidationError("allow_surrogate must be a boolean")
        if self.api_version != API_VERSION:
            raise QueryValidationError(
                f"unsupported api_version {self.api_version!r}; this release "
                f"speaks version {API_VERSION}"
            )

    # -- field parsers (the single source of argument-handling truth) ------------

    @staticmethod
    def parse_applications(value: Union[str, Sequence[str]]) -> Tuple[str, ...]:
        """Parse an application list: ``all``, a comma string or a sequence.

        Unknown names are rejected, and so are duplicates: a duplicated name
        would silently double-run (and double-weight) that application in
        every averaged metric.
        """
        if isinstance(value, str) and value.strip().lower() == "all":
            return tuple(APPLICATION_NAMES)
        names = _text_items(value, "applications")
        if not names:
            raise QueryValidationError("applications must not be empty")
        unknown = [name for name in names if name not in APPLICATION_NAMES]
        if unknown:
            raise QueryValidationError(
                f"unknown applications: {', '.join(unknown)} "
                f"(known: {', '.join(APPLICATION_NAMES)})"
            )
        seen = set()
        duplicates = []
        for name in names:
            if name in seen and name not in duplicates:
                duplicates.append(name)
            seen.add(name)
        if duplicates:
            raise QueryValidationError(
                f"duplicate applications: {', '.join(duplicates)}; each "
                f"application is answered once per query -- list each name once"
            )
        return tuple(names)

    @staticmethod
    def parse_timing_policy(value: Union[str, TimingPolicyKind]) -> TimingPolicyKind:
        """Parse one timing-policy name: periodic/p or refrint/r."""
        if isinstance(value, TimingPolicyKind):
            return value
        label = str(value).strip().lower()
        if label in ("periodic", "p"):
            return TimingPolicyKind.PERIODIC
        if label in ("refrint", "r"):
            return TimingPolicyKind.REFRINT
        raise QueryValidationError(
            f"unknown timing policy {value!r}; expected periodic or refrint"
        )

    @staticmethod
    def parse_data_policy(value: Union[str, DataPolicySpec]) -> DataPolicySpec:
        """Parse one data-policy label: all, valid, dirty or WB(n,m)."""
        if isinstance(value, DataPolicySpec):
            return value
        label = str(value).strip().lower()
        if label == "all":
            return DataPolicySpec.all_lines()
        if label == "valid":
            return DataPolicySpec.valid()
        if label == "dirty":
            return DataPolicySpec.dirty()
        match = re.fullmatch(r"wb\((\d+),\s*(\d+)\)", label)
        if match:
            return DataPolicySpec.writeback(int(match.group(1)), int(match.group(2)))
        raise QueryValidationError(
            f"unknown data policy {value!r}; expected all, valid, dirty or WB(n,m)"
        )

    @staticmethod
    def parse_retentions(
        value: Union[str, float, Sequence]
    ) -> Tuple[float, ...]:
        """Parse retention times: a number, comma string or sequence of us."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = (value,)
        items = _text_items(value, "retentions_us")
        if not items:
            raise QueryValidationError("retentions_us must not be empty")
        retentions: List[float] = []
        for item in items:
            try:
                retention = float(item)
            except (TypeError, ValueError):
                raise QueryValidationError(
                    f"retention {item!r} is not a number of microseconds"
                ) from None
            if retention <= 0:
                raise QueryValidationError(
                    f"retention must be positive, got {retention!r}"
                )
            retentions.append(retention)
        if len(set(retentions)) != len(retentions):
            raise QueryValidationError("duplicate retention times in query")
        return tuple(retentions)

    # -- JSON round-trip ----------------------------------------------------------

    #: Every key :meth:`from_dict` accepts (anything else is rejected loudly).
    _FIELDS = (
        "applications",
        "retentions_us",
        "timing_policies",
        "data_policies",
        "length_scale",
        "seed",
        "include_baseline",
        "allow_surrogate",
        "api_version",
    )

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON form; inverse of :meth:`from_dict`."""
        return {
            "api_version": self.api_version,
            "applications": list(self.applications),
            "retentions_us": list(self.retentions_us),
            "timing_policies": [t.value for t in self.timing_policies],
            "data_policies": [d.label for d in self.data_policies],
            "length_scale": self.length_scale,
            "seed": self.seed,
            "include_baseline": self.include_baseline,
            "allow_surrogate": self.allow_surrogate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QueryRequest":
        """Parse (and fully validate) a JSON request payload.

        Raises:
            QueryValidationError: on a non-mapping payload, unknown keys,
                missing ``applications`` or any field that fails parsing.
        """
        if not isinstance(data, Mapping):
            raise QueryValidationError(
                f"query must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(cls._FIELDS))
        if unknown:
            raise QueryValidationError(
                f"unknown query fields: {', '.join(unknown)} "
                f"(accepted: {', '.join(cls._FIELDS)})"
            )
        if "applications" not in data:
            raise QueryValidationError("query is missing 'applications'")
        kwargs: Dict[str, object] = {"applications": data["applications"]}
        for name in cls._FIELDS:
            if name != "applications" and name in data:
                kwargs[name] = data[name]
        return cls(**kwargs)

    @staticmethod
    def json_schema() -> Dict[str, object]:
        """JSON Schema of the v1 request payload (served at ``/v1/schema``)."""
        return {
            "$schema": "http://json-schema.org/draft-07/schema#",
            "title": "QueryRequest",
            "description": (
                "A sweep query: applications x (retention, timing policy, "
                "data policy) grid, normalised into content-addressed jobs."
            ),
            "type": "object",
            "required": ["applications"],
            "additionalProperties": False,
            "properties": {
                "api_version": {"type": "integer", "const": API_VERSION},
                "applications": {
                    "description": "'all', a comma-separated string, or a list "
                                   "of application names (duplicates rejected)",
                    "oneOf": [
                        {"type": "string"},
                        {
                            "type": "array",
                            "items": {"enum": list(APPLICATION_NAMES)},
                            "minItems": 1,
                            "uniqueItems": True,
                        },
                    ],
                },
                "retentions_us": {
                    "description": "retention times in microseconds",
                    "oneOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {"type": "string"},
                        {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1,
                            "uniqueItems": True,
                        },
                    ],
                },
                "timing_policies": {
                    "type": "array",
                    "items": {"enum": ["periodic", "refrint"]},
                    "minItems": 1,
                    "uniqueItems": True,
                },
                "data_policies": {
                    "description": "all, valid, dirty or WB(n,m) labels",
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 1,
                    "uniqueItems": True,
                },
                "length_scale": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer"},
                "include_baseline": {"type": "boolean"},
                "allow_surrogate": {"type": "boolean"},
            },
        }

    # -- normalisation into content-addressed jobs --------------------------------

    def policy_points(self) -> List[PolicyPoint]:
        """The eDRAM grid this request spans, in canonical sweep order."""
        return default_policy_points(
            retention_times_us=self.retentions_us,
            timing_policies=self.timing_policies,
            data_policies=self.data_policies,
        )

    def workload_requests(self) -> List[WorkloadRequest]:
        """The seeded workload recipes, one per application."""
        return [
            WorkloadRequest(name, length_scale=self.length_scale, seed=self.seed)
            for name in self.applications
        ]

    def normalise(
        self, architecture: Optional[ArchitectureConfig] = None
    ) -> "NormalisedQuery":
        """Canonicalise into content-addressed jobs (the *only* request form
        the answering layers see).

        Per application: the full-SRAM baseline (when ``include_baseline``),
        then every grid point in retention x timing x data order.  The jobs
        come from the campaign's own :func:`enumerate_jobs`, so a query and
        a sweep of the same grid produce identical job hashes and share the
        store by construction.
        """
        arch = architecture if architecture is not None else scaled_architecture()
        points = self.policy_points()
        jobs = enumerate_jobs(self.workload_requests(), points, arch)
        stride = len(points) + 1
        query_points: List[QueryPoint] = []
        for start in range(0, len(jobs), stride):
            baseline = jobs[start]
            if self.include_baseline:
                query_points.append(QueryPoint(baseline.application, None, baseline))
            query_points.extend(
                QueryPoint(job.application, point, job)
                for point, job in zip(points, jobs[start + 1 : start + stride])
            )
        return NormalisedQuery(
            request=self, architecture=arch, points=query_points,
            policy_points=points,
        )

    def with_options(self, **changes) -> "QueryRequest":
        """A copy of this request with some fields replaced."""
        return replace(self, **changes)


def _as_sequence(value, what: str) -> Sequence:
    """Accept a bare item, comma string or sequence; return a sequence."""
    if isinstance(value, str):
        return _text_items(value, what)
    if isinstance(value, (list, tuple)):
        return value
    return (value,)


@dataclass(frozen=True)
class QueryPoint:
    """One normalised cell of a query: an application at one configuration.

    ``point`` is None for the full-SRAM baseline; ``job`` is the
    content-addressed unit of work whose hash keys memoisation, coalescing
    and the result store alike.
    """

    application: str
    point: Optional[PolicyPoint]
    job: Job

    @property
    def key(self) -> str:
        """The job's content hash."""
        return self.job.key()

    @property
    def label(self) -> str:
        """Human-readable cell label (``SRAM baseline`` or the point label)."""
        return self.job.label

    @property
    def is_baseline(self) -> bool:
        """True for the full-SRAM baseline cell."""
        return self.point is None

    @property
    def retention_us(self) -> Optional[float]:
        """Retention time of the cell (None for the baseline)."""
        return None if self.point is None else self.point.retention_us


@dataclass(frozen=True)
class NormalisedQuery:
    """A request reduced to its canonical job list (duplicates collapsed)."""

    request: QueryRequest
    architecture: ArchitectureConfig
    points: List[QueryPoint]
    policy_points: List[PolicyPoint]

    def unique_points(self) -> List[QueryPoint]:
        """The points with duplicate job hashes collapsed (first wins)."""
        seen = set()
        unique: List[QueryPoint] = []
        for query_point in self.points:
            key = query_point.key
            if key not in seen:
                seen.add(key)
                unique.append(query_point)
        return unique


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """Where an answer came from, stamped onto every served value.

    Attributes:
        job_key: the content hash of the (workload, config) the answer is
            about -- exact answers are stored under it; surrogate answers
            will be, once backfilled.
        source: ``store`` (memoised), ``simulated`` (computed for this
            query) or ``surrogate`` (interpolated, never exact).
        trace_generator: the trace-generator environment of the answering
            process (results from different environments never mix).
        store_backend / store_root: the result store the answer was read
            from or committed to (None when serving storeless).
        corner_keys: for surrogates, the job hashes of the exact results
            the interpolation used.
    """

    job_key: str
    source: str
    trace_generator: str = TRACE_GENERATOR_PROVENANCE
    store_backend: Optional[str] = None
    store_root: Optional[str] = None
    corner_keys: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """JSON form."""
        data: Dict[str, object] = {
            "job_key": self.job_key,
            "source": self.source,
            "trace_generator": self.trace_generator,
        }
        if self.store_backend is not None:
            data["store_backend"] = self.store_backend
        if self.store_root is not None:
            data["store_root"] = self.store_root
        if self.corner_keys:
            data["corner_keys"] = list(self.corner_keys)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Provenance":
        """Rebuild from the JSON form."""
        return cls(
            job_key=str(data["job_key"]),
            source=str(data["source"]),
            trace_generator=str(data.get("trace_generator", "")),
            store_backend=data.get("store_backend"),
            store_root=data.get("store_root"),
            corner_keys=tuple(data.get("corner_keys", ())),
        )


@dataclass
class PointAnswer:
    """The served answer for one normalised query point.

    Attributes:
        application / label / retention_us: which cell this answers.
        exact: True for simulator ground truth (store or fresh run); False
            for a surrogate interpolation.
        metrics: the energy/time surface values (:data:`ANSWER_METRICS`).
        provenance: where the values came from.
        bounds: for surrogates, the interpolation interval per axis, e.g.
            ``{"retention_us": [50.0, 200.0]}``; None for exact answers.
        normalised: memory/system/time relative to the application's SRAM
            baseline, when the query included the baseline.
        result: the full result payload for exact answers (everything
            :meth:`SimulationResult.to_dict` records); None for surrogates.
    """

    application: str
    label: str
    retention_us: Optional[float]
    exact: bool
    metrics: Dict[str, float]
    provenance: Provenance
    bounds: Optional[Dict[str, List[float]]] = None
    normalised: Optional[Dict[str, float]] = None
    result: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON form."""
        data: Dict[str, object] = {
            "application": self.application,
            "label": self.label,
            "retention_us": self.retention_us,
            "exact": self.exact,
            "metrics": dict(self.metrics),
            "provenance": self.provenance.to_dict(),
        }
        if self.bounds is not None:
            data["bounds"] = {k: list(v) for k, v in self.bounds.items()}
        if self.normalised is not None:
            data["normalised"] = dict(self.normalised)
        if self.result is not None:
            data["result"] = self.result
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PointAnswer":
        """Rebuild from the JSON form."""
        retention = data.get("retention_us")
        return cls(
            application=str(data["application"]),
            label=str(data["label"]),
            retention_us=None if retention is None else float(retention),
            exact=bool(data["exact"]),
            metrics={k: float(v) for k, v in dict(data["metrics"]).items()},
            provenance=Provenance.from_dict(data["provenance"]),
            bounds=(
                {k: [float(x) for x in v] for k, v in dict(data["bounds"]).items()}
                if data.get("bounds") is not None
                else None
            ),
            normalised=(
                {k: float(v) for k, v in dict(data["normalised"]).items()}
                if data.get("normalised") is not None
                else None
            ),
            result=data.get("result"),
        )


@dataclass
class QueryResponse:
    """Everything served back for one query.

    Attributes:
        request: the (validated) request being answered.
        answers: one :class:`PointAnswer` per unique normalised job, in
            normalisation order.
        aggregates: per-point-label averages of the normalised metrics
            across the requested applications (the Table 5.4 grid view),
            present when every answer is exact and baselines were included.
    """

    request: QueryRequest
    answers: List[PointAnswer] = field(default_factory=list)
    aggregates: Optional[Dict[str, Dict[str, float]]] = None
    api_version: int = API_VERSION

    @property
    def exact(self) -> bool:
        """True when every served answer is simulator ground truth."""
        return all(answer.exact for answer in self.answers)

    def answer_for(
        self, application: str, label: str
    ) -> Optional[PointAnswer]:
        """The answer of one (application, cell-label) pair, if present."""
        for answer in self.answers:
            if answer.application == application and answer.label == label:
                return answer
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON form; inverse of :meth:`from_dict`."""
        data: Dict[str, object] = {
            "api_version": self.api_version,
            "exact": self.exact,
            "request": self.request.to_dict(),
            "answers": [answer.to_dict() for answer in self.answers],
        }
        if self.aggregates is not None:
            data["aggregates"] = {
                label: dict(values) for label, values in self.aggregates.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QueryResponse":
        """Rebuild from the JSON form (used by clients and tests)."""
        return cls(
            request=QueryRequest.from_dict(data["request"]),
            answers=[PointAnswer.from_dict(a) for a in data.get("answers", [])],
            aggregates=data.get("aggregates"),
            api_version=int(data.get("api_version", API_VERSION)),
        )
