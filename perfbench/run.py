"""Benchmark of the Refrint reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table54-cold --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Workloads (see ``perfbench/README.md``): ``table54-cold``, ``table54-resume``
and ``query-mix``; ``all`` runs the three in turn.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` additionally repeats the window with
every layer entry point traced and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; metric names and units are
the ones ``BENCHMARK.json`` declares.  Exits non-zero, without that line,
when the program cannot be imported from ``src/`` or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

from bench import REF_PROBE_S, ROOT, SRC, Context, check_record, env_stamp
from workloads import WORKLOADS

#: The seed used when none is given, and the one held out for checking claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def _print_report(name: str, ctx, outcome, stamp: dict, note: str) -> None:
    print(f"== {name}  seed {ctx.seed}  seconds {ctx.seconds:g}  trace {int(ctx.trace)}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"record: {note}")
    print(
        f"host probe: median {ctx.speed.probe_ms():.3f} ms over {len(ctx.speed.samples)} "
        f"samples (reference host: {REF_PROBE_S * 1e3:g} ms)"
    )
    print(f"{'metric':28s} {'value':>14s}  {'unit':10s} samples")
    for metric, value, unit, samples in outcome.table:
        print(f"{metric:28s} {value:14.6g}  {unit:10s} {samples}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'error_rate':28s} {error_rate:14.6g}  {'ratio':10s} {outcome.attempted}")
    if outcome.spans:
        print(f"{'span':28s} {'calls':>10s} {'incl_s':>10s} {'self_s':>10s} {'wait_s':>10s}")
        for span in sorted(outcome.spans):
            calls, incl, own, wait = outcome.spans[span]
            print(f"{span:28s} {int(calls):10d} {incl:10.4f} {own:10.4f} {wait:10.4f}")
    for note in outcome.notes:
        print(f"note: {note}")
    for problem in outcome.problems[:20]:
        print(f"FAILED CHECK: {problem}")


def run_one(name: str, args, spec: dict, tracer) -> dict:
    ctx = Context(args.seed, args.seconds, bool(args.trace))
    try:
        outcome = WORKLOADS[name](ctx, tracer)
    finally:
        ctx.close()
    stamp = env_stamp()
    note = check_record(f"{name}:{args.seed}", stamp, outcome)
    _print_report(name, ctx, outcome, stamp, note)
    section = "per_layer" if args.trace else "end_to_end"
    measured = outcome.layers if args.trace else outcome.e2e
    metrics = {}
    for metric in spec[section]:
        if metric["name"] not in measured:
            raise RuntimeError(f"{name} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=(*WORKLOADS, "all"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Children stop on SIGINT; a caught disposition here makes exec reset it
    # to the default in them even when this process was started with it
    # ignored (as background jobs are).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # SIGTERM unwinds like an error, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, install_run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = Tracer()
    install_run(tracer)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_one(name, args, spec, tracer))
    except Exception:
        traceback.print_exc()
        return 1
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
