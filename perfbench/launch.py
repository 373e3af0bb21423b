"""Child-process entry points of the benchmark.

``launch.py setup --store DIR --applications A --length-scale L --seed S``
    One set-up of a workload, as a fresh interpreter pays it: import the
    package, enumerate (and hash) the campaign's jobs, open the result store
    and load its index.

``launch.py cli --trace-out FILE -- ARGS...``
    ``python -m repro.cli ARGS...`` with every layer entry point traced; the
    span totals, the import time and the process wall time are written to
    FILE as JSON when the command returns (for ``serve``: after SIGINT).

Both expect ``PYTHONPATH`` to name the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

START = time.perf_counter()


def _setup(args: argparse.Namespace) -> int:
    from repro.api.query import QueryRequest
    from repro.campaign.jobs import enumerate_jobs
    from repro.campaign.store import open_store
    from repro.config.presets import scaled_architecture
    from repro.core.sweep import default_policy_points
    from repro.workloads.suite import WorkloadRequest

    requests = [
        WorkloadRequest(name, length_scale=args.length_scale, seed=args.seed)
        for name in QueryRequest.parse_applications(args.applications)
    ]
    jobs = enumerate_jobs(requests, default_policy_points(), scaled_architecture())
    store = open_store(args.store, backend="segment")
    store.check_provenance()
    present = sum(1 for job in jobs if job.key() in store)
    print(f"setup: {len(jobs)} jobs, {present} in store")
    return 0


def _traced_cli(args: argparse.Namespace) -> int:
    from tracer import Tracer, install_layers, install_run

    tracer = Tracer()
    import_start = time.perf_counter()
    from repro import cli

    tracer.record("cli.import", time.perf_counter() - import_start)
    install_run(tracer)
    install_layers(tracer)
    status = 1
    try:
        status = cli.main(args.argv)
    finally:
        snapshot = tracer.snapshot()
        snapshot["wall_s"] = time.perf_counter() - START
        Path(args.trace_out).write_text(json.dumps(snapshot))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    setup = modes.add_parser("setup")
    setup.add_argument("--store", required=True)
    setup.add_argument("--applications", required=True)
    setup.add_argument("--length-scale", type=float, required=True)
    setup.add_argument("--seed", type=int, required=True)
    traced = modes.add_parser("cli")
    traced.add_argument("--trace-out", required=True)
    traced.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        return _setup(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return _traced_cli(args)


if __name__ == "__main__":
    sys.exit(main())
