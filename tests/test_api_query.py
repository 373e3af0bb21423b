"""Tests for the typed query layer: parsers, round-trip, normalisation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.query import (
    API_VERSION,
    QueryRequest,
    QueryResponse,
    QueryValidationError,
)
from repro.campaign.jobs import enumerate_jobs
from repro.config.parameters import DataPolicyKind, TimingPolicyKind
from repro.config.presets import scaled_architecture
from repro.workloads.suite import APPLICATION_NAMES


class TestParsers:
    def test_applications_all_and_lists(self):
        assert QueryRequest.parse_applications("all") == tuple(APPLICATION_NAMES)
        assert QueryRequest.parse_applications("fft, lu") == ("fft", "lu")
        assert QueryRequest.parse_applications(["fft", "lu"]) == ("fft", "lu")

    def test_applications_reject_unknown(self):
        with pytest.raises(QueryValidationError, match="unknown applications: doom"):
            QueryRequest.parse_applications("fft,doom")

    def test_applications_reject_duplicates(self):
        with pytest.raises(QueryValidationError, match="duplicate applications: fft"):
            QueryRequest.parse_applications("fft,lu,fft")

    def test_applications_reject_empty(self):
        with pytest.raises(QueryValidationError, match="must not be empty"):
            QueryRequest.parse_applications("")

    def test_timing_policy(self):
        assert QueryRequest.parse_timing_policy("periodic") is TimingPolicyKind.PERIODIC
        assert QueryRequest.parse_timing_policy("P") is TimingPolicyKind.PERIODIC
        assert QueryRequest.parse_timing_policy("R") is TimingPolicyKind.REFRINT
        with pytest.raises(QueryValidationError, match="unknown timing policy"):
            QueryRequest.parse_timing_policy("lazy")

    def test_data_policy(self):
        assert QueryRequest.parse_data_policy("valid").kind is DataPolicyKind.VALID
        wb = QueryRequest.parse_data_policy("WB(16,8)")
        assert (wb.dirty_refreshes, wb.clean_refreshes) == (16, 8)
        with pytest.raises(QueryValidationError, match="unknown data policy"):
            QueryRequest.parse_data_policy("smart")

    def test_retentions(self):
        assert QueryRequest.parse_retentions("50, 125") == (50.0, 125.0)
        assert QueryRequest.parse_retentions(50) == (50.0,)
        with pytest.raises(QueryValidationError, match="not a number"):
            QueryRequest.parse_retentions("50,soon")
        with pytest.raises(QueryValidationError, match="positive"):
            QueryRequest.parse_retentions("-50")
        with pytest.raises(QueryValidationError, match="duplicate"):
            QueryRequest.parse_retentions("50,50")


class TestRequestValidation:
    def test_defaults_are_canonical(self):
        request = QueryRequest(applications="fft")
        assert request.retentions_us == (50.0,)
        assert request.timing_policies == (TimingPolicyKind.REFRINT,)
        assert [d.label for d in request.data_policies] == ["WB(32,32)"]
        assert request.api_version == API_VERSION

    def test_rejects_bad_scalars(self):
        with pytest.raises(QueryValidationError, match="length_scale"):
            QueryRequest(applications="fft", length_scale=0)
        with pytest.raises(QueryValidationError, match="seed"):
            QueryRequest(applications="fft", seed="yes")
        with pytest.raises(QueryValidationError, match="api_version"):
            QueryRequest(applications="fft", api_version=99)

    def test_rejects_duplicate_policies(self):
        with pytest.raises(QueryValidationError, match="duplicate timing"):
            QueryRequest(applications="fft", timing_policies=("r", "refrint"))
        with pytest.raises(QueryValidationError, match="duplicate data"):
            QueryRequest(applications="fft", data_policies=("valid", "valid"))

    def test_from_dict_is_strict(self):
        with pytest.raises(QueryValidationError, match="JSON object"):
            QueryRequest.from_dict(["fft"])
        with pytest.raises(QueryValidationError, match="missing 'applications'"):
            QueryRequest.from_dict({})
        with pytest.raises(QueryValidationError, match="unknown query fields: bogus"):
            QueryRequest.from_dict({"applications": ["fft"], "bogus": 1})

    def test_schema_names_every_field(self):
        schema = QueryRequest.json_schema()
        assert schema["required"] == ["applications"]
        assert schema["additionalProperties"] is False
        assert set(schema["properties"]) == set(QueryRequest._FIELDS)


# Round-trip property: any constructible request survives
# to_dict -> JSON -> from_dict exactly.
_requests = st.builds(
    QueryRequest,
    applications=st.lists(
        st.sampled_from(list(APPLICATION_NAMES)), min_size=1, max_size=4, unique=True
    ),
    retentions_us=st.lists(
        st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    timing_policies=st.sampled_from(
        [("periodic",), ("refrint",), ("periodic", "refrint")]
    ),
    data_policies=st.lists(
        st.sampled_from(["all", "valid", "dirty", "WB(8,8)", "WB(32,32)"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    length_scale=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
    include_baseline=st.booleans(),
    allow_surrogate=st.booleans(),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(request=_requests)
    def test_json_round_trip(self, request):
        wire = json.loads(json.dumps(request.to_dict()))
        assert QueryRequest.from_dict(wire) == request

    def test_response_round_trip(self):
        request = QueryRequest(applications="fft", retentions_us=(50.0,))
        response = QueryResponse(request=request)
        wire = json.loads(json.dumps(response.to_dict()))
        restored = QueryResponse.from_dict(wire)
        assert restored.request == request
        assert restored.answers == []


class TestNormalisation:
    def test_order_and_baselines(self):
        request = QueryRequest(
            applications=("fft", "lu"),
            retentions_us=(50.0, 100.0),
            timing_policies=("refrint",),
            data_policies=("WB(32,32)",),
        )
        normalised = request.normalise()
        labels = [(p.application, p.label) for p in normalised.points]
        assert labels == [
            ("fft", "SRAM baseline"),
            ("fft", "50us/R.WB(32,32)"),
            ("fft", "100us/R.WB(32,32)"),
            ("lu", "SRAM baseline"),
            ("lu", "50us/R.WB(32,32)"),
            ("lu", "100us/R.WB(32,32)"),
        ]
        assert all(p.is_baseline == (p.point is None) for p in normalised.points)
        for p in normalised.points:
            assert p.job.application == p.application
            assert p.job.point_label == (None if p.point is None else p.point.label)

    def test_no_baseline_when_excluded(self):
        request = QueryRequest(applications=("fft", "lu"), include_baseline=False)
        normalised = request.normalise()
        assert all(not p.is_baseline for p in normalised.points)
        per_app = len(normalised.policy_points)
        applications = [p.application for p in normalised.points]
        assert applications == ["fft"] * per_app + ["lu"] * per_app
        for p in normalised.points:
            assert p.job.point_label == p.point.label

    def test_job_hashes_match_campaign_enumeration(self):
        # The acceptance criterion behind memoisation: a query and a CLI
        # sweep of the same grid must normalise to identical job hashes,
        # or they could never share a store.
        arch = scaled_architecture()
        request = QueryRequest(
            applications=("fft",),
            retentions_us=(50.0,),
            timing_policies=("periodic", "refrint"),
            data_policies=("all", "WB(32,32)"),
            length_scale=0.25,
        )
        normalised = request.normalise(arch)
        campaign_jobs = enumerate_jobs(
            request.workload_requests(), request.policy_points(), arch
        )
        assert [p.key for p in normalised.points] == [
            job.key() for job in campaign_jobs
        ]

    def test_unique_points_collapse_duplicates(self):
        request = QueryRequest(applications="fft", retentions_us=(50.0,))
        normalised = request.normalise()
        assert [p.key for p in normalised.unique_points()] == [
            p.key for p in normalised.points
        ]
