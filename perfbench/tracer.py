"""In-memory span tracer installed around the public entry points of each layer.

Spans are recorded from the benchmark's own files: :func:`install_run` and
:func:`install_layers` replace methods such as ``Core.step_fast`` or ``SweepService.answer`` with timing
wrappers at run time, so no file of the program changes.  Every thread keeps
its own span stack; a span's *self* time is its duration minus the part its
child spans cover.  Coroutines are timed per step (each ``send`` into the
coroutine is one synchronous slice), so the time a coroutine spends suspended
-- waiting for an executor batch, a coalesced future or its turn on the loop
-- is reported as ``wait`` instead of being charged to whatever other task
ran on the same thread meanwhile.

Spans live in memory only; :meth:`Tracer.snapshot` returns their totals for
the caller to report or write out.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class _ThreadState:
    """Span bookkeeping of one thread: open-span stack and per-name totals."""

    __slots__ = ("stack", "records", "covered", "tag")

    def __init__(self) -> None:
        self.stack: List[float] = []  # child time accumulated per open span
        # name -> [calls, inclusive s, self s, wait s]
        self.records: Dict[str, List[float]] = {}
        self.covered = 0.0  # time under root spans of this thread
        self.tag = ""


class Tracer:
    """Collects span totals and exact counters across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._main = self.state()
        self.counters: Dict[str, int] = {}

    def state(self) -> _ThreadState:
        """The calling thread's bookkeeping (created on first use)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, value: int) -> None:
        """Add to an exact counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def record(self, name: str, seconds: float) -> None:
        """Record a root span measured by the caller (e.g. an import)."""
        state = self.state()
        rec = state.records.setdefault(name, [0, 0.0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds
        state.covered += seconds

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        with self._lock:
            for state in self._states:
                state.records.clear()
                state.covered = 0.0
            self.counters.clear()

    def snapshot(self) -> dict:
        """Span totals merged over threads, plus main-thread coverage."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, rec in state.records.items():
                into = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i in range(4):
                    into[i] += rec[i]
        return {
            "spans": merged,
            "counters": dict(self.counters),
            "main_covered_s": self._main.covered,
            "threads": len(states),
        }

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, tagged: bool = False) -> Callable:
        """A synchronous span around ``fn``; ``tagged`` appends the thread tag."""
        local = self._local
        get_state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or get_state()
            stack = state.stack
            stack.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                child = stack.pop()
                key = f"{name}.{state.tag}" if tagged else name
                rec = state.records.get(key)
                if rec is None:
                    rec = state.records[key] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    state.covered += duration

        return wrapper

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A span around a coroutine function, timed step by step."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = _clock()
            stepper = _Stepper(fn(*args, **kwargs), tracer)
            try:
                return await stepper
            finally:
                wall = _clock() - start
                state = tracer.state()
                rec = state.records.setdefault(name, [0, 0.0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += wall
                rec[2] += stepper.self_s
                rec[3] += wall - stepper.active_s

        return wrapper


class _Stepper:
    """Drives a coroutine, timing each synchronous step as a span slice."""

    def __init__(self, coro, tracer: Tracer) -> None:
        self._coro = coro
        self._tracer = tracer
        self.active_s = 0.0
        self.self_s = 0.0

    def __await__(self):
        coro = self._coro
        value: object = None
        error: Optional[BaseException] = None
        while True:
            state = self._tracer.state()
            stack = state.stack
            stack.append(0.0)
            start = _clock()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                self._close_step(state, start)
                return stop.value
            except BaseException:
                self._close_step(state, start)
                raise
            self._close_step(state, start)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine next step
                value, error = None, exc

    def _close_step(self, state: _ThreadState, start: float) -> None:
        duration = _clock() - start
        child = state.stack.pop()
        self.active_s += duration
        self.self_s += duration - child
        if state.stack:
            state.stack[-1] += duration
        else:
            state.covered += duration


def _patch(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.attr`` (a plain function, classmethod or cached_property)."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, functools.cached_property):
        replacement = functools.cached_property(make(raw.func))
        replacement.__set_name__(cls, attr)
        setattr(cls, attr, replacement)
    else:
        setattr(cls, attr, make(raw))


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are built from.

    Must run before the first simulator, store or service object is built:
    hot loops bind methods once per run, so later patches would be missed.
    """
    from repro import cli
    from repro.api.query import QueryRequest
    from repro.api.surrogate import SurrogateLattice
    from repro.campaign.jobs import Job
    from repro.campaign.segments import SegmentResultStore
    from repro.campaign.store import BaseResultStore
    from repro.coherence.protocol import DirectoryProtocol
    from repro.cpu.core import Core
    from repro.energy.model import SystemEnergyModel
    from repro.experiments import figures
    from repro.service.core import SweepService
    from repro.utils.events import EventQueue
    from repro.workloads.suite import WorkloadRequest

    def span(name: str, tagged: bool = False):
        return lambda fn: tracer.wrap(fn, name, tagged)

    _patch(WorkloadRequest, "build", span("workloads.build"))
    _patch(Core, "step_fast", span("cpu.step_fast"))
    _patch(Core, "land_run", span("cpu.land_run"))
    for method in ("read", "write", "instruction_fetch", "hit_run"):
        _patch(DirectoryProtocol, method, span(f"coherence.{method}"))
    _patch(EventQueue, "run_until_key", span("refresh.drain", tagged=True))
    _patch(SystemEnergyModel, "account_for", span("energy.account"))
    _patch(Job, "_digest", span("campaign.hash"))
    _patch(BaseResultStore, "put", span("campaign.put"))
    # Every workload stores results in the segment layout.
    _patch(SegmentResultStore, "get", span("campaign.get"))
    _patch(SegmentResultStore, "flush", span("campaign.flush"))
    _patch(SegmentResultStore, "_recover", span("campaign.open"))
    _patch(QueryRequest, "from_dict", span("api.parse"))
    _patch(QueryRequest, "normalise", span("api.normalise"))
    _patch(SurrogateLattice, "interpolate", span("api.surrogate"))
    SweepService.answer = tracer.wrap_async(SweepService.answer, "service.answer")
    for fn_name in ("figure_6_1", "figure_6_2", "figure_6_3", "figure_6_4", "render_figure"):
        setattr(figures, fn_name, tracer.wrap(getattr(figures, fn_name), "experiments.report"))
    cli.headline_summary = tracer.wrap(cli.headline_summary, "experiments.report")


def install_run(tracer: Tracer) -> None:
    """Wrap ``RefrintSimulator.run`` alone: one span and the exact replay
    counters per simulation, cheap enough for the untraced runs."""
    from repro.core.simulator import RefrintSimulator

    def run(fn):
        @functools.wraps(fn)
        def traced_run(self, application):
            state = tracer.state()
            outer, state.tag = state.tag, retention_tag(self.config)
            try:
                return fn(self, application)
            finally:
                state.tag = outer
                add_replay_counters(tracer, self.last_replay_stats)

        return tracer.wrap(traced_run, "core.run")

    _patch(RefrintSimulator, "run", run)


def retention_tag(config) -> str:
    """``50us``-style label of a grid retention time (``sram``, ``other``)."""
    from repro.config.presets import scaled_retention_cycles
    from repro.core.sweep import DEFAULT_RETENTION_TIMES_US

    if not config.is_edram:
        return "sram"
    for retention_us in DEFAULT_RETENTION_TIMES_US:
        if scaled_retention_cycles(retention_us) == config.refresh.retention_cycles:
            return f"{retention_us:g}us"
    return "other"


def add_replay_counters(tracer: Tracer, stats) -> None:
    """Fold one run's exact event-loop counters into the tracer."""
    if stats is None:
        return
    tracer.count("core.references", stats.references)
    tracer.count("coherence.protocol_calls", stats.protocol_calls)
    tracer.count("refresh.wheel_scans", stats.wheel_scans)
    tracer.count("refresh.wheel_skips", stats.wheel_skips)
    tracer.count("utils.events_popped", stats.events_popped)
