"""Shared plumbing of the benchmark: run context, children, statistics, stamps.

Everything the benchmark writes goes under ``.perfbench/`` at the root of
the checkout: one scratch directory per invocation (removed on exit) and
``records.json``, which remembers each (workload, seed)'s result digest and
exact counters so a later run of the same code can be checked against it.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
WORK_ROOT = ROOT / ".perfbench"
RECORDS = WORK_ROOT / "records.json"

clock = time.perf_counter

#: Worker processes, threads and client connections never exceed this.
MAX_PARALLEL = min(2, os.cpu_count() or 1)

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5

#: The host-speed probe: this many steps of an integer loop (interpreter
#: dispatch) plus this many random lookups in a dict of this many entries
#: (memory traffic).  Together they track both the simulator and the HTTP
#: and store paths on a shared host better than either part alone.
PROBE_STEPS = 10_000
PROBE_LOOKUPS = 2_000
PROBE_TABLE = 100_000
#: The background sampler times the probe this often ...
PROBE_EVERY_S = 0.1
#: ... and a sample counts for an interval it lies within this far of.
PROBE_PAD_S = 0.5
#: The reference host: the probe takes exactly this long on it.
REF_PROBE_S = 1e-3

#: Seconds a child process may take to start serving or to exit.
CHILD_TIMEOUT_S = 120.0

#: Trace length of the seeded store behind ``table54-resume`` and
#: ``query-mix``: short, because those workloads measure everything but
#: simulation.
STORE_LENGTH = 0.02

#: Stamp fields that decide job hashes and trace streams; runs whose
#: values differ are never compared.
PROVENANCE_FIELDS = ("trace_generator", "numba", "python", "nproc")


def derive_seed(seed: int, purpose: str) -> int:
    """A trace or draw seed for one purpose, generated from the workload seed."""
    return random.Random(f"{purpose}:{seed}").randrange(1, 2**31)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest_text(*parts: str) -> str:
    blob = hashlib.sha256()
    for part in parts:
        blob.update(part.encode("utf-8"))
        blob.update(b"\0")
    return blob.hexdigest()


def result_json(result) -> str:
    """Canonical text of one simulation result (byte-identity currency)."""
    return json.dumps(result.to_dict(), sort_keys=True)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` holds the gated end-to-end metrics, ``layers`` the per-layer
    metrics of the traced pass, ``table`` the human-readable rows
    ``(name, value, unit, samples)``, ``notes`` findings that are reported
    but are not failures, and ``problems`` every failed check.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    table: List[Tuple[str, float, str, int]] = field(default_factory=list)
    spans: Dict[str, list] = field(default_factory=dict)
    digest: str = ""
    counters: Dict[str, int] = field(default_factory=dict)

    def problem(self, text: str) -> None:
        self.problems.append(text)


@dataclass
class Child:
    """A child process with its output in files (no pipe can fill up)."""

    proc: subprocess.Popen
    stdout: Path
    stderr: Path
    started: float
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    status: Optional[int] = None

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> "Child":
        """Reap the child, recording its wall time and peak RSS.

        The peak is the child's own ``VmHWM``, polled until it exits:
        ``ru_maxrss`` of a child also counts the parent's RSS at fork time.
        """
        deadline = clock() + timeout
        while True:
            self.maxrss_mb = max(self.maxrss_mb, peak_rss_mb(self.proc.pid))
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if clock() > deadline:
                self.proc.kill()
                os.waitpid(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.wall_s = clock() - self.started
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status
        return self

    def interrupt(self) -> "Child":
        """SIGINT (a served process shuts down cleanly), then reap."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGINT)
            self.wait(timeout=30.0)
        return self

    def kill(self) -> None:
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGKILL)
            self.wait()

    def output(self) -> str:
        return self.stdout.read_text(encoding="utf-8", errors="replace")

    def errors(self) -> str:
        return self.stderr.read_text(encoding="utf-8", errors="replace")


class Context:
    """One benchmark invocation: arguments, scratch space, children."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.children: List[Child] = []
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = str(SRC)
        self.child_env["PYTHONUNBUFFERED"] = "1"
        self._serial = 0
        self._seeded: Optional[Tuple[Path, int, str, float]] = None
        self.speed = HostSpeed()
        self._affinity: Optional[set] = None

    def fresh_dir(self, stem: str) -> Path:
        self._serial += 1
        return self.workdir / f"{stem}-{self._serial}"

    def copy_store(self, source: Path) -> Path:
        target = self.fresh_dir("store")
        shutil.copytree(source, target)
        return target

    def spawn(self, argv: Sequence[str]) -> Child:
        self._serial += 1
        out = self.workdir / f"child-{self._serial}.out"
        err = self.workdir / f"child-{self._serial}.err"
        with out.open("wb") as stdout, err.open("wb") as stderr:
            started = clock()
            proc = subprocess.Popen(
                list(argv), stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
                env=self.child_env, cwd=self.workdir,
            )
        child = Child(proc=proc, stdout=out, stderr=err, started=started)
        self.children.append(child)
        return child

    def repro_argv(self, args: Sequence[str], trace_out: Optional[Path]) -> List[str]:
        """``python -m repro.cli ARGS`` -- through the tracing launcher when
        ``trace_out`` is given."""
        if trace_out is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(LAUNCH), "cli", "--trace-out", str(trace_out), "--", *args]

    def timed_setup(
        self, store: Path, applications: str, length_scale: float, seed: int,
        copy_from: Optional[Path] = None,
    ) -> Tuple[float, float]:
        """One set-up in a fresh interpreter (plus the store copy, if any);
        returns its ``(start, end)`` on ``clock()``."""
        self.speed.sample()
        start = clock()
        if copy_from is not None:
            shutil.copytree(copy_from, store)
        child = self.spawn([
            sys.executable, str(LAUNCH), "setup", "--store", str(store),
            "--applications", applications, "--length-scale", str(length_scale),
            "--seed", str(seed),
        ]).wait()
        end = clock()
        self.speed.sample()
        if child.status != 0:
            raise RuntimeError(f"set-up failed: {child.errors()[-2000:]}")
        return start, end

    def seeded_store(self) -> Tuple[Path, int, str, float]:
        """The paper's full campaign at a short trace length, simulated once
        per invocation: ``(root, trace seed, digest, seconds taken)``."""
        if self._seeded is None:
            from repro.campaign.engine import stream_campaign
            from repro.campaign.executors import ParallelExecutor, SerialExecutor
            from repro.workloads.suite import APPLICATION_NAMES, WorkloadRequest

            seed = derive_seed(self.seed, "store")
            requests = [
                WorkloadRequest(name, length_scale=STORE_LENGTH, seed=seed)
                for name in APPLICATION_NAMES
            ]
            root = self.fresh_dir("seeded")
            start = clock()
            executor = ParallelExecutor(MAX_PARALLEL) if MAX_PARALLEL > 1 else SerialExecutor()
            try:
                stream = stream_campaign(
                    requests, executor=executor, store=root, store_backend="segment"
                )
                for _ in stream:
                    pass
                stream.store.close()
            finally:
                if isinstance(executor, ParallelExecutor):
                    executor.shutdown()
            elapsed = clock() - start
            self._seeded = (root, seed, store_digest(root), elapsed)
        return self._seeded

    def pin_one_cpu(self) -> None:
        """Run this thread, and every thread and child it starts from now on,
        on one CPU (until :meth:`close`)."""
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})

    def close(self) -> None:
        self.speed.stop()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
        for child in self.children:
            child.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)


def store_digest(root: Path) -> str:
    """Digest of every record of a store, independent of its file layout."""
    from repro.campaign.store import open_store

    store = open_store(root, backend="segment")
    blob = hashlib.sha256()
    for key, payload in store.iter_records():
        blob.update(key.encode("ascii"))
        blob.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
    store.close()
    return blob.hexdigest()


@functools.lru_cache(maxsize=None)
def _probe_data() -> Tuple[Dict[int, int], List[int]]:
    table = {key * 7919: key for key in range(PROBE_TABLE)}
    rng = random.Random(0)
    return table, [rng.randrange(PROBE_TABLE) * 7919 for _ in range(PROBE_LOOKUPS)]


def probe_s() -> float:
    """CPU time of the fixed host-speed probe on the calling thread.  It
    uses nothing of the program, so a change to the program never moves it."""
    table, keys = _probe_data()
    start = time.thread_time()
    total = 0
    for step in range(PROBE_STEPS):
        total += step * step
    for key in keys:
        total += table[key]
    return time.thread_time() - start


class HostSpeed:
    """How fast the host runs, sampled through the invocation, so that
    measured times can be stated at a reference speed.

    A sample times the fixed probe in its thread's own CPU time (waits for
    the GIL or for a CPU do not count).  A workload whose work runs in its
    own thread samples between its ops, on the CPU that runs them
    (:meth:`sample`); one whose work runs in children and client threads
    starts a background sampler (:meth:`start`).  A duration ``t1 - t0`` in
    *reference seconds* is ``(t1 - t0) * REF_PROBE_S / p``, where ``p`` is
    the median probe time within ``PROBE_PAD_S`` of the interval: the time
    the same work would take on a host where the probe takes exactly
    ``REF_PROBE_S``.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (clock(), probe s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        began = clock()
        took = probe_s()
        self.samples.append(((began + clock()) / 2, took))

    def start(self) -> None:
        def run() -> None:
            while not self._stop.wait(PROBE_EVERY_S):
                self.sample()

        self._thread = threading.Thread(target=run, name="host-speed", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def probe_ms(self) -> float:
        """Median probe time of the invocation so far, in ms."""
        return median([took for _, took in self.samples]) * 1e3 if self.samples else 0.0

    def ref_durations(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Reference seconds of each ``(t0, t1)`` interval of ``clock()``."""
        if not spans:
            return []
        latest = max(t1 for _, t1 in spans) + PROBE_PAD_S
        while self._thread is not None and self.samples[-1:] and self.samples[-1][0] < latest:
            time.sleep(PROBE_EVERY_S)
        if not self.samples:
            self.sample()
        samples = sorted(self.samples)  # the sampler and set-ups interleave
        times = [t for t, _ in samples]
        durations = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(times, t0 - PROBE_PAD_S)
            hi = bisect.bisect_right(times, t1 + PROBE_PAD_S)
            if lo == hi:  # no sample near: the next one, or the last
                lo = min(lo, len(times) - 1)
                hi = lo + 1
            took = median([p for _, p in samples[lo:hi]])
            durations.append((t1 - t0) * REF_PROBE_S / took)
        return durations

    def ref_s(self, t0: float, t1: float) -> float:
        return self.ref_durations([(t0, t1)])[0]


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB; 0 once gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- environment stamp and the cross-run record ---------------------------------


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    blob = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            blob.update(str(path.relative_to(base)).encode("utf-8"))
            blob.update(path.read_bytes())
    return blob.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def env_stamp() -> Dict[str, object]:
    """Everything that makes two runs comparable (or not)."""
    from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

    return {
        "trace_generator": TRACE_GENERATOR_PROVENANCE,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source": source_digest(),
    }


def check_record(key: str, stamp: Dict[str, object], outcome: Outcome) -> str:
    """Compare this run's digest and exact counters with the last run of the
    same (workload, seed); returns a note for the report.

    Runs whose provenance differs are refused (job hashes and trace streams
    depend on it); a run of changed sources replaces the record.
    """
    records: Dict[str, dict] = {}
    if RECORDS.exists():
        try:
            records = json.loads(RECORDS.read_text(encoding="utf-8"))
        except ValueError:
            records = {}
    mine = {"stamp": stamp, "digest": outcome.digest, "counters": outcome.counters}
    previous = records.get(key)
    note = "first run of this seed here; recorded"
    if previous is not None:
        before = previous.get("stamp", {})
        differs = [f for f in PROVENANCE_FIELDS if before.get(f) != stamp.get(f)]
        if differs:
            note = f"not compared: provenance differs in {', '.join(differs)}"
        elif before.get("source") != stamp.get("source"):
            note = "not compared: program sources changed; recorded"
        else:
            note = "matches the previous run of this seed"
            if previous.get("digest") != outcome.digest:
                outcome.problem("result digest differs from the previous run of this seed")
                note = "MISMATCH with the previous run of this seed"
            if previous.get("counters") != outcome.counters:
                outcome.problem("exact counters differ from the previous run of this seed")
                note = "MISMATCH with the previous run of this seed"
    if not outcome.problems:
        records[key] = mine
        tmp = RECORDS.with_suffix(".tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, RECORDS)
    return note
