"""Tests for the campaign engine: jobs, store, executors, resume, reload."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaign.engine import CampaignStats, make_executor, run_campaign
from repro.campaign.executors import ParallelExecutor, SerialExecutor, execute_job
from repro.campaign.jobs import (
    Job,
    canonical_value,
    enumerate_jobs,
    hash_payload_digest,
)
from repro.campaign.store import ResultStore
from repro.config.parameters import DataPolicySpec, SimulationConfig, TimingPolicyKind
from repro.config.presets import scaled_architecture
from repro.core.sweep import (
    PolicyPoint,
    SweepResult,
    default_policy_points,
    run_sweep,
)
from repro.core.results import SimulationResult
from repro.experiments.runner import ExperimentRunner, ExperimentScale
from repro.workloads.suite import APPLICATION_NAMES, WorkloadRequest, build_suite
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

#: A deliberately tiny grid so every test in this module runs in seconds.
POINTS = [
    PolicyPoint(50.0, TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
    PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(32, 32)),
]

LENGTH_SCALE = 0.05


@pytest.fixture(scope="module")
def arch():
    return scaled_architecture()


@pytest.fixture(scope="module")
def requests():
    return [WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE)]


@pytest.fixture(scope="module")
def serial_sweep(arch, requests):
    sweep, stats = run_campaign(requests, points=POINTS, architecture=arch)
    return sweep, stats


class TestJobs:
    def test_enumeration_order_and_labels(self, arch, requests):
        jobs = enumerate_jobs(requests, POINTS, arch)
        assert len(jobs) == 1 + len(POINTS)
        assert jobs[0].is_baseline and jobs[0].label == "SRAM baseline"
        assert [job.point_label for job in jobs[1:]] == [p.label for p in POINTS]
        assert all(job.application == "blackscholes" for job in jobs)

    def test_keys_are_content_addressed(self, arch, requests):
        jobs = enumerate_jobs(requests, POINTS, arch)
        keys = [job.key() for job in jobs]
        assert len(set(keys)) == len(keys)  # distinct configs -> distinct keys
        # Re-enumerating yields the same hashes (stable content addressing).
        again = enumerate_jobs(requests, POINTS, arch)
        assert [job.key() for job in again] == keys

    def test_key_changes_with_workload_recipe(self, arch):
        base = Job(WorkloadRequest("fft"), SimulationConfig.sram(arch))
        rescaled = Job(
            WorkloadRequest("fft", length_scale=2.0), SimulationConfig.sram(arch)
        )
        reseeded = Job(WorkloadRequest("fft", seed=7), SimulationConfig.sram(arch))
        assert len({base.key(), rescaled.key(), reseeded.key()}) == 3

    def test_jobs_are_picklable(self, arch, requests):
        for job in enumerate_jobs(requests, POINTS, arch):
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert clone.key() == job.key()

    def test_canonical_value_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_value(object())


#: Keys of fft (length scale 0.02, seed 5, scaled architecture), per trace
#: generator, as hashing the whole canonical payload in one json.dumps gave
#: them.  Stored campaigns are filed under these: they must never move.
PINNED_KEYS = {
    "numpy": {
        None: "abd7a3ccd7542101c8ffdead92b0c697eb3f4d10edecf00c1432ce97baef9a23",
        "50us/R.WB(32,32)": (
            "f5ca7e9e7e39b0eb48375783469059578faecb8cc007387da88045160e0526d7"
        ),
    },
    "scalar": {
        None: "61031d92c2418e0d77b394cfcee08ba0ce9226fcc89d507776887d1347aad581",
        "50us/R.WB(32,32)": (
            "f24904a4b4a697dba05269917da8e59be21f3cb8fb9b7329e64b0f6c4d987702"
        ),
    },
}


class TestKeyStability:
    def test_every_key_of_the_full_grid_digests_its_payload(self, arch):
        requests = [
            WorkloadRequest(name, length_scale=0.02) for name in APPLICATION_NAMES
        ]
        jobs = enumerate_jobs(requests, default_policy_points(), arch)
        assert len(jobs) == len(APPLICATION_NAMES) * 43
        for job in jobs:
            assert job.key() == hash_payload_digest(job.hash_payload())

    def test_points_share_one_config_across_applications(self, arch):
        requests = [WorkloadRequest("fft"), WorkloadRequest("lu")]
        jobs = enumerate_jobs(requests, POINTS, arch)
        per_app = len(POINTS) + 1
        for first, second in zip(jobs[:per_app], jobs[per_app:]):
            assert first.config is second.config

    def test_int_and_float_length_scale_keep_distinct_keys(self, arch):
        config = SimulationConfig.sram(arch)
        as_int = Job(WorkloadRequest("fft", length_scale=1), config)
        as_float = Job(WorkloadRequest("fft", length_scale=1.0), config)
        # Equal as values, but their canonical JSON differs ("1" vs "1.0").
        assert as_int.workload == as_float.workload
        assert as_int.key() != as_float.key()
        assert as_int.key() == hash_payload_digest(as_int.hash_payload())
        assert as_float.key() == hash_payload_digest(as_float.hash_payload())

    def test_pinned_keys(self, arch):
        jobs = enumerate_jobs(
            [WorkloadRequest("fft", length_scale=0.02, seed=5)],
            default_policy_points(),
            arch,
        )
        keys = {job.point_label: job.key() for job in jobs}
        for label, key in PINNED_KEYS[TRACE_GENERATOR_PROVENANCE].items():
            assert keys[label] == key


class TestWorkloadRequest:
    def test_build_is_deterministic(self, arch):
        request = WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE)
        first = request.build(arch)
        second = request.build(arch)
        assert first.total_references() == second.total_references()
        for a, b in zip(first.traces, second.traces):
            assert a.records == b.records

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            WorkloadRequest("fft", length_scale=0.0)


class TestResultStore:
    def test_round_trip(self, tmp_path, arch, requests, serial_sweep):
        sweep, _ = serial_sweep
        store = ResultStore(tmp_path / "store")
        jobs = enumerate_jobs(requests, POINTS, arch)
        baseline = sweep.baseline("blackscholes")
        store.put(jobs[0], baseline)
        assert jobs[0].key() in store
        loaded = store.get(jobs[0].key())
        assert loaded is not None
        assert loaded.to_dict() == baseline.to_dict()
        assert loaded.label == "SRAM"

    def test_missing_and_corrupt_entries_are_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("deadbeef") is None
        store.path_for("deadbeef").write_text("{not json")
        assert store.get("deadbeef") is None

    def test_len_and_keys(self, tmp_path, arch, requests, serial_sweep):
        sweep, _ = serial_sweep
        store = ResultStore(tmp_path / "store")
        assert len(store) == 0
        jobs = enumerate_jobs(requests, POINTS, arch)
        store.put(jobs[0], sweep.baseline("blackscholes"))
        assert list(store.keys()) == [jobs[0].key()]


class TestExecutors:
    def test_parallel_matches_serial_bit_for_bit(self, arch, requests, serial_sweep):
        serial, _ = serial_sweep
        parallel, stats = run_campaign(
            requests,
            points=POINTS,
            architecture=arch,
            executor=ParallelExecutor(4),
        )
        assert stats.executed == stats.total
        assert parallel.to_dict() == serial.to_dict()

    def test_run_sweep_matches_campaign(self, arch, requests, serial_sweep):
        serial, _ = serial_sweep
        workloads = build_suite(
            arch, length_scale=LENGTH_SCALE, names=["blackscholes"]
        )
        legacy = run_sweep(workloads, architecture=arch, points=POINTS)
        assert legacy.to_dict() == serial.to_dict()

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        with pytest.raises(ValueError):
            make_executor(0)

    def test_execute_job_runs_baseline(self, arch, requests):
        job = enumerate_jobs(requests, POINTS, arch)[0]
        result = execute_job(job)
        assert result.label == "SRAM"
        assert result.execution_cycles > 0

    def test_batches_group_jobs_by_workload(self, arch):
        from repro.campaign.executors import batch_jobs_by_workload

        requests = [
            WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE),
            WorkloadRequest("fft", length_scale=LENGTH_SCALE),
        ]
        jobs = enumerate_jobs(requests, POINTS, arch)
        batches = batch_jobs_by_workload(jobs, max_workers=2)
        # Every batch regenerates at most one workload...
        for batch in batches:
            assert len({(job.workload, job.config.architecture) for job in batch}) == 1
        # ...no job is lost or duplicated, and order within an application
        # is preserved.
        flattened = [job for batch in batches for job in batch]
        assert sorted(job.key() for job in flattened) == sorted(job.key() for job in jobs)
        per_app = {}
        for job in flattened:
            per_app.setdefault(job.application, []).append(job.key())
        for app, keys in per_app.items():
            assert keys == [job.key() for job in jobs if job.application == app]

    def test_large_single_application_grid_spreads_over_workers(self, arch):
        from repro.campaign.executors import batch_jobs_by_workload

        requests = [WorkloadRequest("fft", length_scale=LENGTH_SCALE)]
        jobs = enumerate_jobs(requests, POINTS * 4, arch)
        batches = batch_jobs_by_workload(jobs, max_workers=4)
        # 9 jobs over <= 4 batches (ceil split), never one giant batch.
        assert 1 < len(batches) <= 4
        assert sum(len(batch) for batch in batches) == len(jobs)


class TestResume:
    def test_resume_executes_zero_new_simulations(self, tmp_path, arch, requests):
        store_dir = tmp_path / "store"
        first, stats1 = run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        assert stats1.executed == stats1.total and stats1.reused == 0
        second, stats2 = run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        assert stats2.executed == 0 and stats2.reused == stats2.total
        assert second.to_dict() == first.to_dict()

    def test_grid_extension_only_runs_new_points(self, tmp_path, arch, requests):
        store_dir = tmp_path / "store"
        run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        extended = POINTS + [
            PolicyPoint(100.0, TimingPolicyKind.REFRINT, DataPolicySpec.valid())
        ]
        _, stats = run_campaign(
            requests, points=extended, architecture=arch, store=store_dir, resume=True
        )
        assert stats.reused == 1 + len(POINTS)
        assert stats.executed == 1  # only the new retention point

    def test_without_resume_store_is_write_only(self, tmp_path, arch, requests):
        store_dir = tmp_path / "store"
        run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        _, stats = run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=False
        )
        assert stats.executed == stats.total

    def test_store_refused_for_prebuilt_workloads(self, tmp_path, arch, requests):
        # Pre-built traces are not described by the jobs' recipes, so
        # persisting their results would poison the content-addressed store.
        workloads = build_suite(arch, length_scale=0.01, names=["blackscholes"])
        with pytest.raises(ValueError, match="pre-built"):
            run_campaign(
                requests,
                points=POINTS,
                architecture=arch,
                executor=SerialExecutor(workloads=workloads),
                store=tmp_path / "store",
            )

    def test_duplicate_requests_simulate_once(self, arch):
        reqs = [
            WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE),
            WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE),
        ]
        sweep, stats = run_campaign(reqs, points=POINTS, architecture=arch)
        assert stats.executed == 1 + len(POINTS)
        assert stats.duplicates == 1 + len(POINTS)
        assert sweep.applications == ["blackscholes"]

    def test_stats_summary_text(self):
        stats = CampaignStats(total=5, executed=2, reused=3)
        assert "2 simulated" in stats.summary()
        assert "3 reused" in stats.summary()
        assert "duplicates" not in stats.summary()
        assert "4 duplicates" in CampaignStats(5, 1, 0, 4).summary()


class TestSerialisationRoundTrips:
    def test_simulation_result_round_trip(self, serial_sweep):
        sweep, _ = serial_sweep
        for result in [sweep.baseline("blackscholes")] + list(
            sweep.results["blackscholes"].values()
        ):
            data = json.loads(json.dumps(result.to_dict()))
            restored = SimulationResult.from_dict(data)
            assert restored.to_dict() == result.to_dict()
            assert restored.label == result.label

    def test_sweep_result_round_trip(self, serial_sweep):
        sweep, _ = serial_sweep
        data = json.loads(json.dumps(sweep.to_dict()))
        restored = SweepResult.from_dict(data)
        assert restored.to_dict() == sweep.to_dict()
        assert restored.applications == sweep.applications
        assert [p.label for p in restored.points] == [p.label for p in sweep.points]

    def test_policy_point_label_round_trip(self):
        for point in default_policy_points():
            assert PolicyPoint.from_label(point.label) == point
        with pytest.raises(ValueError):
            PolicyPoint.from_label("50us/Q.sometimes")

    def test_policy_point_labels_are_computed_once(self):
        point = default_policy_points()[-1]
        assert point.label is point.label
        assert point.policy_label is point.policy_label
        assert PolicyPoint.from_label(point.label) == point

    def test_policy_point_label_round_trip_awkward_retentions(self):
        # %g renders >= 1e6 us in scientific notation and truncates values
        # with more than 6 significant digits; both must round-trip exactly.
        for retention in (1e6, 2.5e-5, 123456.7, 1 / 3):
            point = PolicyPoint(
                retention, TimingPolicyKind.REFRINT, DataPolicySpec.valid()
            )
            assert PolicyPoint.from_label(point.label) == point

    def test_application_order_survives_sorted_json(self, arch):
        # json.dump(..., sort_keys=True) alphabetises the mappings; the
        # explicit "applications" key must preserve insertion order.
        reqs = [
            WorkloadRequest(name, length_scale=LENGTH_SCALE)
            for name in ("fft", "barnes")
        ]
        sweep, _ = run_campaign(reqs, points=POINTS[:1], architecture=arch)
        assert sweep.applications == ["fft", "barnes"]
        sorted_json = json.dumps(sweep.to_dict(), sort_keys=True)
        restored = SweepResult.from_dict(json.loads(sorted_json))
        assert restored.applications == ["fft", "barnes"]

    def test_restored_result_supports_normalisation(self, serial_sweep):
        sweep, _ = serial_sweep
        restored = SweepResult.from_dict(sweep.to_dict())
        for point in POINTS:
            expected = sweep.normalised_memory_energy(point)
            assert restored.normalised_memory_energy(point) == expected


class TestRunnerReload:
    SCALE = ExperimentScale(
        applications=("blackscholes",),
        length_scale=LENGTH_SCALE,
        retention_times_us=(50.0,),
        include_all_data_policies=False,
    )

    def test_reloads_matching_cache(self, tmp_path):
        cache = tmp_path / "sweep.json"
        first = ExperimentRunner(scale=self.SCALE, cache_path=cache)
        sweep = first.sweep()
        assert cache.exists() and not first.reloaded_from_cache
        second = ExperimentRunner(scale=self.SCALE, cache_path=cache)
        reloaded = second.sweep()
        assert second.reloaded_from_cache
        assert reloaded.to_dict() == sweep.to_dict()

    def test_ignores_mismatched_cache(self, tmp_path):
        cache = tmp_path / "sweep.json"
        ExperimentRunner(scale=self.SCALE, cache_path=cache).sweep()
        other_scale = ExperimentScale(
            applications=("blackscholes",),
            length_scale=LENGTH_SCALE * 2,
            retention_times_us=(50.0,),
            include_all_data_policies=False,
        )
        runner = ExperimentRunner(scale=other_scale, cache_path=cache)
        runner.sweep()
        assert not runner.reloaded_from_cache

    def test_ignores_cache_from_different_architecture(self, tmp_path):
        from repro.config.presets import paper_architecture

        cache = tmp_path / "sweep.json"
        ExperimentRunner(scale=self.SCALE, cache_path=cache).sweep()
        runner = ExperimentRunner(
            scale=self.SCALE, architecture=paper_architecture(), cache_path=cache
        )
        # Only the reload decision is under test; don't run the (slow)
        # paper-sized sweep itself.
        assert runner._reload_summary() is None

    def test_ignores_corrupt_cache(self, tmp_path):
        cache = tmp_path / "sweep.json"
        cache.write_text("{broken")
        runner = ExperimentRunner(scale=self.SCALE, cache_path=cache)
        runner.sweep()
        assert not runner.reloaded_from_cache
