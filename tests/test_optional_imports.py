"""numpy loads on first use, never at import: checked in fresh interpreters.

A resumed sweep reads stored results and never builds a trace, so it must
not pay for importing numpy.  Trace generation imports numpy inside the
first call that needs it -- safely from several threads at once -- and an
installed-but-broken numpy must fail that call loudly rather than fall back
to the scalar generator under job keys stamped with the numpy provenance.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SWEEP = ["sweep", "--applications", "fft", "--length-scale", "0.02", "--retentions", "50"]


def run_python(code: str, *path_entries: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``path_entries`` + src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (*path_entries, SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_resumed_sweep_never_imports_numpy(tmp_path):
    store = tmp_path / "store"
    # Seeded in a fresh interpreter too, so both runs share one environment
    # (and one trace-generator provenance).
    seed_argv = [*SWEEP, "--store", str(store)]
    seeded = run_python(
        f"from repro.cli import main; raise SystemExit(main({seed_argv!r}))"
    )
    assert seeded.returncode == 0, seeded.stdout + seeded.stderr
    argv = [*seed_argv, "--resume"]
    child = run_python(f"""
        import sys
        from repro.cli import main
        status = main({argv!r})
        print("numpy modules:", sorted(m for m in sys.modules if m.startswith("numpy")))
        sys.exit(status)
    """)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "0 simulated, 15 reused from store" in child.stdout
    assert "numpy modules: []" in child.stdout


def test_concurrent_first_trace_builds_match_serial_builds():
    child = run_python("""
        import threading
        from repro.config.presets import scaled_architecture
        from repro.workloads.suite import WorkloadRequest

        arch = scaled_architecture()
        requests = [
            WorkloadRequest(name, length_scale=0.02)
            for name in ("fft", "lu", "radix", "blackscholes")
        ]
        barrier = threading.Barrier(len(requests))
        built = [None] * len(requests)
        errors = []

        def build(slot):
            barrier.wait()
            try:
                built[slot] = requests[slot].build(arch)
            except BaseException as exc:
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=build, args=(slot,))
            for slot in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for request, workload in zip(requests, built):
            serial = request.build(arch)
            got = [trace.records for trace in workload.traces]
            assert got == [trace.records for trace in serial.traces]
        print("ok")
    """)
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.strip() == "ok"


def test_broken_numpy_fails_trace_generation_loudly(tmp_path):
    fake = tmp_path / "fake" / "numpy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text('raise ImportError("this numpy is broken")\n')
    child = run_python("""
        from repro.cli import main  # importing never touches numpy
        from repro.config.presets import scaled_architecture
        from repro.workloads.suite import WorkloadRequest
        from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

        print("provenance:", TRACE_GENERATOR_PROVENANCE, flush=True)
        WorkloadRequest("fft", length_scale=0.02).build(scaled_architecture())
        print("built a trace")
    """, fake.parent)
    assert child.returncode != 0
    assert "provenance: numpy" in child.stdout
    assert "built a trace" not in child.stdout
    assert "RuntimeError" in child.stderr
    assert "this numpy is broken" in child.stderr
    assert "provenance is 'numpy'" in child.stderr
