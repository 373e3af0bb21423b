"""The three workloads: cold Table 5.4 sweep, CLI resume, live query mix.

Each function runs its workload untraced for the measured window, checks
every output, and -- when the context asks for a trace -- repeats the
window with every layer entry point traced and fills ``Outcome.layers``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench import (
    MAX_PARALLEL,
    SETUP_REPEATS,
    STORE_LENGTH,
    CHILD_TIMEOUT_S,
    Context,
    Outcome,
    clock,
    derive_seed,
    digest_text,
    median,
    peak_rss_mb,
    percentile,
    result_json,
)
from tracer import Tracer, install_layers

#: One application per paper class -- the ``repro.cli sweep`` defaults.
COLD_APPLICATIONS = ("fft", "barnes", "blackscholes")

#: Long enough that every retention column refreshes (fft at 200 us still
#: scans the wheel), short enough that a whole 129-job campaign (8-16 s on
#: a 2-vCPU host) ends inside an 18 s window.
COLD_LENGTH = 0.03

#: The sampled oracle cell per application.
ORACLE_LABEL = "50us/R.WB(32,32)"

#: Least share of a traced wall time, measured by the caller's own clock,
#: that root spans must cover: nearly all of a cold campaign is simulation,
#: store and trace-build calls; a resume also parses arguments, enumerates
#: jobs and prints outside any span.
COVERAGE = {"table54-cold": 0.95, "table54-resume": 0.85}

RETENTIONS = ("50us", "100us", "200us")

COHERENCE_SPANS = tuple(
    f"coherence.{method}" for method in ("read", "write", "instruction_fetch", "hit_run")
)

#: ``/v1/stats`` counters reported per query-mix run.
SERVICE_COUNTERS = (
    "store_hits", "coalesced", "jobs_executed", "surrogate_answers", "backfills_completed",
)


def _window(ctx: Context, op: Callable[[], object]) -> List[object]:
    """Repeat a whole unit of work for ``--seconds``: another unit starts
    only while one as long as the last would still end in the window."""
    reps: List[object] = []
    start = clock()
    last = 0.0
    while not reps or clock() - start + last <= ctx.seconds:
        began = clock()
        reps.append(op())
        last = clock() - began
    return reps


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(snapshot: dict, per: int = 1) -> Dict[str, float]:
    """Per-layer metrics from a tracer snapshot, divided by ``per`` units."""
    spans = snapshot.get("spans", {})
    counters = snapshot.get("counters", {})

    def incl(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0, 0.0))[1] / per

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0, 0.0))[2] / per

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0, 0.0))[0] / per

    references = counters.get("core.references", 0) / per
    metrics = {
        "workloads.build_s": incl("workloads.build"),
        "core.run_s": incl("core.run"),
        "core.host_us_per_ref": incl("core.run") / references * 1e6 if references else 0.0,
        "core.references": references,
        "cpu.self_s": self_s("cpu.step_fast") + self_s("cpu.land_run"),
        "coherence.self_s": sum(self_s(name) for name in COHERENCE_SPANS),
        "coherence.protocol_calls": counters.get("coherence.protocol_calls", 0) / per,
    }
    for retention in RETENTIONS:
        metrics[f"refresh.drain_s.{retention}"] = incl(f"refresh.drain.{retention}")
    metrics.update({
        "refresh.wheel_scans": counters.get("refresh.wheel_scans", 0) / per,
        "refresh.wheel_skips": counters.get("refresh.wheel_skips", 0) / per,
        "utils.events_popped": counters.get("utils.events_popped", 0) / per,
        "energy.account_s": incl("energy.account"),
        "campaign.put_s": incl("campaign.put") + incl("campaign.flush"),
        "campaign.puts": calls("campaign.put"),
        "campaign.open_s": incl("campaign.open"),
        "campaign.hash_s": incl("campaign.hash"),
        "campaign.get_s": incl("campaign.get"),
        "campaign.gets": calls("campaign.get"),
        "cli.import_s": incl("cli.import"),
        "experiments.report_s": incl("experiments.report"),
        "api.parse_s": incl("api.parse"),
        "api.normalise_s": incl("api.normalise"),
        "api.surrogate_s": incl("api.surrogate"),
        "service.self_s": self_s("service.answer"),
        "service.wait_s": spans.get("service.answer", (0, 0.0, 0.0, 0.0))[3] / per,
        "service.http_s": 0.0,
    })
    for name in SERVICE_COUNTERS:
        metrics[f"service.{name}"] = 0
    return metrics


def check_coverage(outcome: Outcome, covered_s: float, wall_s: float, where: str) -> float:
    """Root spans must cover at least ``COVERAGE[where]`` of a wall time
    measured outside the tracer, and never more than all of it: a missing
    wrapper leaves a gap, overlapping spans over-cover.  Returns the gap."""
    least = COVERAGE[where]
    if covered_s > wall_s:
        outcome.problem(f"{where}: spans cover {covered_s:.4f}s of a {wall_s:.4f}s wall")
    elif covered_s < least * wall_s:
        outcome.problem(
            f"{where}: spans cover {covered_s:.4f}s of a {wall_s:.4f}s wall "
            f"(less than {least:.0%})"
        )
    return max(0.0, wall_s - covered_s)


def check_calls(outcome: Outcome, where: str, expected: Dict[str, Tuple[float, float]]) -> None:
    """Span call counts against counts the program or the benchmark keeps
    itself: each entry is ``what -> (counted by spans, expected)``."""
    for what, (counted, wanted) in expected.items():
        if counted != wanted:
            outcome.problem(f"{where}: {what}: spans counted {counted:g}, expected {wanted:g}")


def span_calls(snapshot: dict, *names: str) -> float:
    return sum(snapshot["spans"].get(name, (0,))[0] for name in names)


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    merged = {"spans": {}, "counters": {}, "main_covered_s": 0.0}
    for snap in snapshots:
        for name, rec in snap["spans"].items():
            into = merged["spans"].setdefault(name, [0, 0.0, 0.0, 0.0])
            for i in range(4):
                into[i] += rec[i]
        for name, value in snap["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["main_covered_s"] += snap["main_covered_s"]
    return merged


def op_ms(seconds: Sequence[float]) -> float:
    """The gated latency of one-at-a-time ops: the median, in ms."""
    return median(seconds) * 1e3


def mean_ms(seconds: Sequence[float]) -> float:
    return sum(seconds) / len(seconds) * 1e3


def _overhead(outcome: Outcome, traced_op_ms: float, traced_ops_per_s: float) -> None:
    outcome.layers["trace.overhead.ref_op_ms"] = traced_op_ms - outcome.e2e["ref_op_ms"]
    outcome.layers["trace.overhead.ref_ops_per_s"] = (
        outcome.e2e["ref_ops_per_s"] - traced_ops_per_s
    )


# -- table54-cold -----------------------------------------------------------------


@dataclass
class _ColdRep:
    """One whole cold campaign: its store, results and timings."""

    store_dir: Path
    jobs: list
    results: list
    job_spans: List[Tuple[float, float]]
    wall_s: float
    counters: Dict[str, int]
    run_s: float

    def digest(self) -> str:
        return digest_text(*(job.key() + result_json(result) for job, result in self.results))


def _cold_rep(ctx: Context, tracer: Tracer, requests, points) -> _ColdRep:
    from repro.campaign.engine import stream_campaign
    from repro.campaign.executors import SerialExecutor

    before = dict(tracer.counters)
    run_before = tracer.snapshot()["spans"].get("core.run", (0, 0.0))[1]
    store_dir = ctx.fresh_dir("cold-store")
    ctx.speed.sample()
    start = clock()
    stream = stream_campaign(
        requests, points=points, executor=SerialExecutor(), store=store_dir,
        store_backend="segment",
    )
    results = []
    job_spans = []
    probing = 0.0
    last = clock()
    for job, result in stream:
        now = clock()
        job_spans.append((last, now))
        results.append((job, result))
        # Host speed is sampled between jobs, on the CPU that runs them, and
        # kept out of both the job spans and the campaign's wall time.
        ctx.speed.sample()
        last = clock()
        probing += last - now
    wall = clock() - start - probing
    stream.store.close()
    counters = {
        name: value - before.get(name, 0) for name, value in tracer.counters.items()
    }
    run_s = tracer.snapshot()["spans"]["core.run"][1] - run_before
    return _ColdRep(store_dir, stream.jobs, results, job_spans, wall, counters, run_s)


def _check_cold(outcome: Outcome, reps: List[_ColdRep], points, architecture) -> List[str]:
    from repro.campaign.store import open_store
    from repro.campaign.view import StoreSweep
    from repro.validate.invariants import check_result
    from repro.validate.report import validate_sweep

    for rep in reps:
        for job, result in rep.results:
            run = check_result(result, config=job.config)
            if not run.ok:
                outcome.failed += 1
                outcome.problem(
                    f"{job.application} {job.label}: "
                    + "; ".join(f"{c.name}: {c.detail}" for c in run.violations[:3])
                )
        if rep.digest() != reps[0].digest() or rep.counters != reps[0].counters:
            outcome.problem("results or exact counters differ between repetitions")
    store = open_store(reps[0].store_dir, backend="segment")
    validation = validate_sweep(StoreSweep(store, reps[0].jobs, points), architecture=architecture)
    store.close()
    if validation.violation_count:
        outcome.problem(f"validate_sweep: {validation.violation_count} invariant violations")
    if validation.anomalies.missing:
        outcome.problem(f"validate_sweep: {len(validation.anomalies.missing)} cells missing")
    # Perf-pattern anomalies of short traces are model behaviour, not
    # benchmark failures: they are reported and must repeat exactly.
    return [
        f"anomaly {a.application} {a.label} {a.rule}: {a.detail}"
        for a in validation.anomalies.anomalies
    ]


def _check_cold_oracle(outcome: Outcome, rep: _ColdRep) -> None:
    """Byte-identity of one cell per application against the object+event oracle."""
    from repro.core.simulator import RefrintSimulator

    for job, result in rep.results:
        if job.label != ORACLE_LABEL:
            continue
        workload = job.workload.build(job.config.architecture)
        oracle = RefrintSimulator(job.config, cache_backend="object", replay="event").run(workload)
        if result_json(oracle) != result_json(result):
            outcome.failed += 1
            outcome.problem(f"{job.application} {job.label}: differs from the object+event oracle")


def table54_cold(ctx: Context, tracer: Tracer) -> Outcome:
    """Cold serial Table 5.4 campaign (3 apps x (42 points + SRAM)) into a
    fresh segment store; one op is one job."""
    from repro.config.presets import scaled_architecture
    from repro.core.sweep import default_policy_points
    from repro.workloads.suite import WorkloadRequest

    outcome = Outcome()
    trace_seed = derive_seed(ctx.seed, "table54-cold")
    requests = [
        WorkloadRequest(name, length_scale=COLD_LENGTH, seed=trace_seed)
        for name in COLD_APPLICATIONS
    ]
    points = default_policy_points()
    architecture = scaled_architecture()
    setup_spans = [
        ctx.timed_setup(ctx.fresh_dir("setup"), ",".join(COLD_APPLICATIONS), COLD_LENGTH, trace_seed)
        for _ in range(SETUP_REPEATS)
    ]

    reps = _window(ctx, lambda: _cold_rep(ctx, tracer, requests, points))
    rss = peak_rss_mb()
    setup = ctx.speed.ref_durations(setup_spans)
    jobs = sum(len(rep.results) for rep in reps)
    wall = sum(rep.wall_s for rep in reps)
    spans = [span for rep in reps for span in rep.job_spans]
    job_s = [t1 - t0 for t0, t1 in spans]
    job_ref = ctx.speed.ref_durations(spans)
    references = sum(rep.counters.get("core.references", 0) for rep in reps)
    run_s = sum(rep.run_s for rep in reps)
    outcome.attempted = jobs
    outcome.e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": rss,
        "ref_ops_per_s": jobs / sum(job_ref),
        "ref_op_ms": op_ms(job_ref),
    }
    outcome.table += [
        ("setup_s", median(setup), "ref s", len(setup)),
        ("peak_rss_mb", rss, "MB", 1),
        ("ref_ops_per_s", jobs / sum(job_ref), "jobs/ref s", jobs),
        ("ref_op_ms", op_ms(job_ref), "ref ms", len(job_ref)),
        ("sweep_jobs_per_s", jobs / wall, "jobs/s", jobs),
        ("sim_refs_per_s", references / run_s, "refs/s", jobs),
        ("job_p25_ms", percentile(job_s, 25) * 1e3, "ms", len(job_s)),
        ("job_p50_ms", median(job_s) * 1e3, "ms", len(job_s)),
        ("job_p90_ms", percentile(job_s, 90) * 1e3, "ms", len(job_s)),
        ("campaign_s", median([rep.wall_s for rep in reps]), "s", len(reps)),
    ]

    outcome.notes = _check_cold(outcome, reps, points, architecture)
    _check_cold_oracle(outcome, reps[0])
    outcome.digest = digest_text(reps[0].digest(), *outcome.notes)
    outcome.counters = dict(reps[0].counters)

    if ctx.trace:
        install_layers(tracer)
        tracer.reset()
        traced = _window(ctx, lambda: _cold_rep(ctx, tracer, requests, points))
        snapshot = tracer.snapshot()
        for rep in traced:
            if rep.digest() != reps[0].digest() or rep.counters != outcome.counters:
                outcome.problem("traced run changed results or exact counters")
        traced_jobs = sum(len(rep.results) for rep in traced)
        check_calls(outcome, "table54-cold", {
            "simulations": (span_calls(snapshot, "core.run"), traced_jobs),
            "store puts": (span_calls(snapshot, "campaign.put"), traced_jobs),
            "trace builds": (span_calls(snapshot, "workloads.build"), len(requests) * len(traced)),
            "protocol calls": (
                span_calls(snapshot, *COHERENCE_SPANS),
                snapshot["counters"].get("coherence.protocol_calls", 0),
            ),
        })
        gap = check_coverage(
            outcome, snapshot["main_covered_s"], sum(rep.wall_s for rep in traced), "table54-cold"
        )
        outcome.layers = layer_metrics(snapshot, per=len(traced))
        outcome.layers["trace.gap_s"] = gap / len(traced)
        traced_ref = ctx.speed.ref_durations([span for rep in traced for span in rep.job_spans])
        _overhead(outcome, op_ms(traced_ref), traced_jobs / sum(traced_ref))
        outcome.spans = snapshot["spans"]
    return outcome


# -- table54-resume ---------------------------------------------------------------


def _resume_once(ctx: Context, seeded: Path, args: Sequence[str], traced: bool):
    store = ctx.copy_store(seeded)
    trace_out = ctx.fresh_dir("trace") if traced else None
    child = ctx.spawn(ctx.repro_argv([*args, "--store", str(store)], trace_out)).wait()
    trace = json.loads(trace_out.read_text()) if traced and trace_out.exists() else None
    return child, trace


def _child_ref_walls(ctx: Context, runs) -> List[float]:
    """Reference seconds of each resume invocation, from spawn to reap."""
    return ctx.speed.ref_durations(
        [(child.started, child.started + child.wall_s) for child, _ in runs]
    )


def _check_resume(outcome: Outcome, child, expected_jobs: int, digest: Optional[str]) -> str:
    text = child.output()
    expected = f"campaign: {expected_jobs} jobs: 0 simulated, {expected_jobs} reused from store"
    if child.status != 0:
        outcome.failed += 1
        outcome.problem(f"resume exited {child.status}: {child.errors()[-500:]}")
    elif expected not in text:
        outcome.failed += 1
        outcome.problem(f"resume did not report '{expected}'")
    elif digest is not None and digest_text(text) != digest:
        outcome.failed += 1
        outcome.problem("resume output differs between repetitions")
    return digest_text(text)


def table54_resume(ctx: Context, tracer: Tracer) -> Outcome:
    """``repro.cli sweep --resume`` over the full seeded campaign; one op is
    one CLI invocation, import included."""
    from repro.core.sweep import default_policy_points
    from repro.workloads.suite import APPLICATION_NAMES

    outcome = Outcome()
    seeded, store_seed, store_digest, seed_s = ctx.seeded_store()
    # An invocation runs on one CPU at a time, and the host's CPUs change
    # speed independently: pinned to one CPU with it, the host-speed sampler
    # sees the speed of the CPU the invocation runs on.
    ctx.pin_one_cpu()
    ctx.speed.start()
    expected_jobs = len(APPLICATION_NAMES) * (len(default_policy_points()) + 1)
    args = [
        "sweep", "--applications", "all", "--length-scale", str(STORE_LENGTH),
        "--seed", str(store_seed), "--store-backend", "segment", "--resume",
    ]
    setup_spans = [
        ctx.timed_setup(ctx.fresh_dir("setup"), "all", STORE_LENGTH, store_seed, copy_from=seeded)
        for _ in range(SETUP_REPEATS)
    ]
    runs = _window(ctx, lambda: _resume_once(ctx, seeded, args, traced=False))
    setup = ctx.speed.ref_durations(setup_spans)
    walls = [child.wall_s for child, _ in runs]
    walls_ref = _child_ref_walls(ctx, runs)
    outcome.attempted = len(runs)
    digest = None
    for child, _ in runs:
        digest = _check_resume(outcome, child, expected_jobs, digest)
    outcome.e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": max(child.maxrss_mb for child, _ in runs),
        "ref_ops_per_s": len(walls_ref) / sum(walls_ref),
        "ref_op_ms": op_ms(walls_ref),
    }
    outcome.table += [
        ("setup_s", median(setup), "ref s", len(setup)),
        ("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB", len(runs)),
        ("ref_ops_per_s", len(walls_ref) / sum(walls_ref), "1/ref s", len(walls_ref)),
        ("ref_op_ms", op_ms(walls_ref), "ref ms", len(walls_ref)),
        ("resume_s", median(walls), "s", len(walls)),
        ("resume_p25_s", percentile(walls, 25), "s", len(walls)),
        ("resume_p90_s", percentile(walls, 90), "s", len(walls)),
        ("seed_store_s", seed_s, "s", 1),
    ]
    outcome.digest = digest_text(store_digest, digest or "")

    if ctx.trace:
        traced = _window(ctx, lambda: _resume_once(ctx, seeded, args, traced=True))
        snapshots = []
        for child, trace in traced:
            _check_resume(outcome, child, expected_jobs, digest)
            if trace is None:
                outcome.problem("traced resume wrote no trace")
                continue
            check_calls(outcome, "table54-resume", {
                "imports": (span_calls(trace, "cli.import"), 1),
                "store opens": (span_calls(trace, "campaign.open"), 1),
                "job hashes": (span_calls(trace, "campaign.hash"), expected_jobs),
                "store gets": (span_calls(trace, "campaign.get"), expected_jobs),
            })
            check_coverage(outcome, trace["main_covered_s"], trace["wall_s"], "table54-resume")
            snapshots.append(trace)
        if snapshots:
            merged = merge_snapshots(snapshots)
            outcome.layers = layer_metrics(merged, per=len(snapshots))
            walls_traced = _child_ref_walls(ctx, traced)
            gap = sum(t["wall_s"] - t["main_covered_s"] for t in snapshots)
            outcome.layers["trace.gap_s"] = gap / len(snapshots)
            _overhead(outcome, op_ms(walls_traced), len(walls_traced) / sum(walls_traced))
            outcome.spans = merged["spans"]
    return outcome


# -- query-mix --------------------------------------------------------------------

#: One block of the query mix (a ``dup`` unit is two identical misses sent
#: back to back).  The proportions are assumed, not observed: one of each
#: non-hit kind the service serves, and store hits as the smallest majority
#: of the block (6 of 11 queries).  See ``perfbench/README.md``.
MIX_BLOCK = ("hit",) * 6 + ("grid", "surrogate", "miss", "dup")

MIX_BLOCKS = 400


def query_draws(seed: int, store_seed: int) -> List[Tuple[str, dict]]:
    """The seeded query sequence both clients draw from, in order."""
    from repro.api.query import QueryRequest
    from repro.config.presets import paper_data_policies
    from repro.workloads.suite import APPLICATION_NAMES

    rng = random.Random(f"query-mix:{seed}")
    datas = [policy.label for policy in paper_data_policies()]
    timings = ["periodic", "refrint"]
    grid = (50.0, 100.0, 200.0)
    seen_offgrid = set()
    seen_seeds = {store_seed}
    draws: List[Tuple[str, dict]] = []

    rotations: Dict[str, List[str]] = {}

    def next_app(kind: str) -> str:
        """Applications cycle per kind, so every prefix covers them evenly."""
        rotation = rotations.setdefault(kind, [])
        if not rotation:
            rotation.extend(APPLICATION_NAMES)
            rng.shuffle(rotation)
        return rotation.pop()

    def point(kind: str, retention: float, trace_seed: int) -> dict:
        return QueryRequest(
            applications=(next_app(kind),),
            retentions_us=(retention,),
            timing_policies=(rng.choice(timings),),
            data_policies=(rng.choice(datas),),
            length_scale=STORE_LENGTH,
            seed=trace_seed,
        ).to_dict()

    def fresh_seed() -> int:
        seed_value = store_seed
        while seed_value in seen_seeds:
            seed_value = rng.randrange(1, 2**31)
        seen_seeds.add(seed_value)
        return seed_value

    for _ in range(MIX_BLOCKS):
        block = list(MIX_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "hit":
                draws.append((kind, point(kind, rng.choice(grid), store_seed)))
            elif kind == "grid":
                pair: List[str] = []
                while len(pair) < 2:
                    app = next_app(kind)
                    if app not in pair:
                        pair.append(app)
                draws.append((kind, QueryRequest(
                    applications=tuple(pair),
                    retentions_us=grid,
                    timing_policies=tuple(timings),
                    data_policies=tuple(datas),
                    length_scale=STORE_LENGTH,
                    seed=store_seed,
                ).to_dict()))
            elif kind == "surrogate":
                payload = point(kind, round(rng.uniform(50.5, 199.5), 1), store_seed)
                cell = json.dumps(payload, sort_keys=True)
                while payload["retentions_us"][0] in grid or cell in seen_offgrid:
                    payload = point(kind, round(rng.uniform(50.5, 199.5), 1), store_seed)
                    cell = json.dumps(payload, sort_keys=True)
                seen_offgrid.add(cell)
                draws.append((kind, payload))
            elif kind == "miss":
                draws.append((kind, point(kind, rng.choice(grid), fresh_seed())))
            else:
                payload = point(kind, rng.choice(grid), fresh_seed())
                draws.extend([(kind, payload), (kind, payload)])
    return draws


class _Service:
    """A ``repro.cli serve`` child over a fresh copy of the seeded store."""

    def __init__(self, ctx: Context, seeded: Path, traced: bool) -> None:
        self.store = ctx.copy_store(seeded)
        self.trace_out = ctx.fresh_dir("trace") if traced else None
        self.child = ctx.spawn(ctx.repro_argv([
            "serve", "--store", str(self.store), "--store-backend", "segment",
            "--port", "0", "--surrogate-retentions", "50,100,200",
        ], self.trace_out))
        self.port = self._wait_port()
        while _get(self.port, "/v1/health")[0] != 200:
            self._check_alive()
            threading.Event().wait(0.01)

    def _check_alive(self) -> None:
        if os.waitpid(self.child.proc.pid, os.WNOHANG)[0]:
            self.child.proc.returncode = -1
            raise RuntimeError(f"service exited: {self.child.errors()[-2000:]}")

    def _wait_port(self) -> int:
        deadline = clock() + CHILD_TIMEOUT_S
        marker = "serving sweep queries on http://"
        while clock() < deadline:
            for line in self.child.output().splitlines():
                if line.startswith(marker):
                    return int(line[len(marker):].split()[0].rsplit(":", 1)[1])
            self._check_alive()
            threading.Event().wait(0.01)
        raise RuntimeError("service did not announce its port")

    def settle(self) -> dict:
        """Wait for background backfills, then read the service's counters."""
        deadline = clock() + CHILD_TIMEOUT_S
        while True:
            status, stats = _get(self.port, "/v1/stats")
            if status == 200 and stats["backfills_completed"] >= stats["backfills_scheduled"]:
                return stats
            if clock() > deadline:
                raise RuntimeError("service backfills did not finish")
            threading.Event().wait(0.05)

    def stop(self) -> Optional[dict]:
        self.child.interrupt()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text())
        return None


def _request(port: int, method: str, path: str, body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(port: int, path: str):
    try:
        status, body = _request(port, "GET", path)
    except OSError:
        return 0, None
    return status, json.loads(body) if status == 200 else None


def _closed_loop(ctx: Context, port: int, draws: List[Tuple[str, dict]]):
    """Clients that each wait for their answer before sending the next query.

    Returns the records ``(index, kind, latency in reference s, status,
    body)`` in draw order, the raw latencies, and the window in reference
    and in raw seconds."""
    lock = threading.Lock()
    queue = iter(enumerate(draws))
    records: List[tuple] = []
    start = clock()
    deadline = start + ctx.seconds

    def client() -> None:
        while clock() < deadline:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            index, (kind, payload) = item
            body = json.dumps(payload).encode("utf-8")
            sent = clock()
            try:
                status, answer = _request(port, "POST", "/v1/query", body)
            except OSError as error:
                status, answer = 0, str(error).encode("utf-8")
            records.append((index, kind, (sent, clock()), status, answer))

    clients = [threading.Thread(target=client) for _ in range(MAX_PARALLEL)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(ctx.seconds + CHILD_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a query client did not finish")
    end = clock()
    records.sort(key=lambda record: record[0])
    spans = [record[2] for record in records]
    latencies = ctx.speed.ref_durations(spans)
    records = [
        (index, kind, latency, status, answer)
        for (index, kind, _, status, answer), latency in zip(records, latencies)
    ]
    return records, [t1 - t0 for t0, t1 in spans], ctx.speed.ref_s(start, end), end - start


def _check_answers(outcome: Outcome, records, store_root: Path) -> None:
    from repro.api.query import QueryResponse
    from repro.campaign.store import open_store
    from repro.validate.service import check_response

    store = open_store(store_root, backend="segment")
    expect_source = {"hit": "store", "grid": "store", "miss": "simulated"}
    for index, kind, _, status, body in records:
        where = f"query {index} ({kind})"
        if status != 200:
            outcome.failed += 1
            outcome.problem(f"{where}: HTTP {status}: {body[:200]!r}")
            continue
        try:
            response = QueryResponse.from_dict(json.loads(body))
        except (ValueError, KeyError, TypeError) as error:
            outcome.failed += 1
            outcome.problem(f"{where}: unreadable response: {error}")
            continue
        violations = check_response(response, store=store)
        answers = response.answers
        if kind == "surrogate":
            if sum(1 for a in answers if not a.exact) != 1:
                violations.append("expected exactly one surrogate answer")
        elif kind in expect_source and any(
            not a.exact or a.provenance.source != expect_source[kind] for a in answers
        ):
            violations.append(f"expected exact answers from {expect_source[kind]}")
        if violations:
            outcome.failed += 1
            outcome.problem(f"{where}: {'; '.join(violations[:3])}")
    store.close()


def query_mix(ctx: Context, tracer: Tracer) -> Outcome:
    """A closed loop of clients against ``repro.cli serve`` over live HTTP;
    one op is one query."""
    outcome = Outcome()
    ctx.speed.start()
    seeded, store_seed, store_digest, seed_s = ctx.seeded_store()
    draws = query_draws(ctx.seed, store_seed)

    setup_spans = []
    service = None
    for attempt in range(SETUP_REPEATS):
        start = clock()
        service = _Service(ctx, seeded, traced=False)
        setup_spans.append((start, clock()))
        if attempt < SETUP_REPEATS - 1:
            service.stop()
    records, raw, window_ref, wall = _closed_loop(ctx, service.port, draws)
    stats = service.settle()
    service.stop()
    setup = ctx.speed.ref_durations(setup_spans)
    _check_answers(outcome, records, service.store)
    latencies = [latency for _, _, latency, _, _ in records]
    raw_hits = [t for (_, kind, _, _, _), t in zip(records, raw) if kind == "hit"]
    outcome.attempted = len(records)
    # The gated latency is the mean over every query, waits behind
    # simulations included: the kinds' percentiles are too few per window,
    # and the hits' too bimodal, to hold steady (see README).
    outcome.e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": service.child.maxrss_mb,
        "ref_ops_per_s": len(records) / window_ref,
        "ref_op_ms": mean_ms(latencies),
    }
    outcome.table += [
        ("setup_s", median(setup), "ref s", len(setup)),
        ("peak_rss_mb", service.child.maxrss_mb, "MB", 1),
        ("ref_ops_per_s", len(records) / window_ref, "queries/ref s", len(records)),
        ("ref_op_ms", mean_ms(latencies), "ref ms", len(latencies)),
        ("query_qps", len(records) / wall, "queries/s", len(records)),
        ("query_p50_ms", median(raw) * 1e3, "ms", len(raw)),
        ("query_mean_ms", sum(raw) / len(raw) * 1e3, "ms", len(raw)),
        ("hit_p25_ms", percentile(raw_hits, 25) * 1e3, "ms", len(raw_hits)),
        ("hit_p50_ms", median(raw_hits) * 1e3, "ms", len(raw_hits)),
        ("hit_p90_ms", percentile(raw_hits, 90) * 1e3, "ms", len(raw_hits)),
        ("hit_p99_ms", percentile(raw_hits, 99) * 1e3, "ms", len(raw_hits)),
    ]
    for kind in ("grid", "surrogate", "miss", "dup"):
        values = [t for (_, k, _, _, _), t in zip(records, raw) if k == kind]
        if values:
            outcome.table.append((f"{kind}_p50_ms", median(values) * 1e3, "ms", len(values)))
    outcome.table.append(("seed_store_s", seed_s, "s", 1))
    for name in SERVICE_COUNTERS:
        outcome.table.append((f"service.{name}", stats[name], "count", 1))
    outcome.digest = store_digest

    if ctx.trace:
        service = _Service(ctx, seeded, traced=True)
        traced_records, traced_raw, traced_window_ref, _ = _closed_loop(ctx, service.port, draws)
        traced_stats = service.settle()
        trace = service.stop()
        _check_answers(outcome, traced_records, service.store)
        if trace is None:
            outcome.problem("traced service wrote no trace")
        else:
            check_calls(outcome, "query-mix", {
                "answers": (span_calls(trace, "service.answer"), len(traced_records)),
                "parsed queries": (span_calls(trace, "api.parse"), len(traced_records)),
                "simulations": (span_calls(trace, "core.run"), traced_stats["jobs_executed"]),
                "store puts": (span_calls(trace, "campaign.put"), traced_stats["jobs_executed"]),
            })
            outcome.layers = layer_metrics(trace)
            answer_s = trace["spans"].get("service.answer", (0, 0.0))[1]
            client_s = sum(traced_raw)
            # Each answer runs inside one client round trip.
            if answer_s > client_s:
                outcome.problem(
                    f"query-mix: answers took {answer_s:.4f}s, more than the "
                    f"{client_s:.4f}s the clients waited"
                )
            outcome.layers["service.http_s"] = client_s - answer_s
            outcome.layers["trace.gap_s"] = trace["wall_s"] - trace["main_covered_s"]
            outcome.spans = trace["spans"]
        for name in SERVICE_COUNTERS:
            outcome.layers[f"service.{name}"] = traced_stats[name]
        traced_latencies = [latency for _, _, latency, _, _ in traced_records]
        _overhead(outcome, mean_ms(traced_latencies), len(traced_records) / traced_window_ref)
    return outcome


WORKLOADS: Dict[str, Callable[[Context, Tracer], Outcome]] = {
    "table54-cold": table54_cold,
    "table54-resume": table54_resume,
    "query-mix": query_mix,
}
