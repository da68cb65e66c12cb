"""Per-layer tracing of qexec from outside the package.

Every span comes from wrapping a public entry point of one qexec module:
subclasses of VirtualProvider, QuantumExecutor, ResultCollector and
PolicyRegistry, wrappers around the module-level functions qexec calls by
name, and ``requests.Session.request`` for HTTP. ``src/qexec`` is not edited,
so queue wait inside the providers and the server, and time per gate inside
the kernels, stay invisible until the program records spans of its own.

Spans and counters live in memory and are written once, at the end of a
benchmark run. Only calls made inside ``Tracer.iteration`` are recorded.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from urllib.parse import urlsplit

import numpy as np
import requests

import qexec.circuit
import qexec.cli
import qexec.dispatch
import qexec.executor
import qexec.providers
from qexec import PolicyRegistry, QuantumExecutor, ResultCollector, VirtualProvider
from qexec.providers import JobState


class _DispatchPhases:
    """Wall-clock marks of one run_dispatch call, on the collector's clock."""

    __slots__ = ("entered", "last_submit", "collector")

    def __init__(self):
        self.entered = time.time()
        self.last_submit: float | None = None
        self.collector: ResultCollector | None = None


class Tracer:
    """Spans, counters and samples of the traced iterations of one run."""

    def __init__(self):
        # (span id, parent id, name, start, end, iteration id); perf_counter times
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        # iteration id -> [(submit phase, drain)] per run_dispatch call
        self.phases: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.run: str | None = None
        self._root: int | None = None
        self._dispatches: list[_DispatchPhases] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = self._build_patches()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        run = self.run
        if run is None:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        # A span opened on a lane thread has no caller on its own stack; it
        # belongs to the iteration that started the lane.
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, run))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str) -> None:
        if self.run is not None:
            with self._lock:
                self.counts[self.run, name] += 1

    def sample(self, name: str, value: float) -> None:
        if self.run is not None:
            with self._lock:
                self.samples[self.run, name].append(value)

    def begin_dispatch(self) -> _DispatchPhases:
        phases = _DispatchPhases()
        with self._lock:
            self._dispatches.append(phases)
        return phases

    def submitted(self) -> None:
        now = time.time()
        with self._lock:
            if self._dispatches:
                current = self._dispatches[-1]
                current.last_submit = max(now, current.last_submit or now)

    @contextmanager
    def iteration(self, run: str):
        """Trace one iteration: install the wrappers and open its root span."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, replacement in self._patches:
            setattr(owner, attr, replacement)
        self.run = run
        try:
            with self.span("iteration") as root:
                self._root = root
                yield
        finally:
            self.run = None
            self._root = None
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            self._close_dispatches(run)

    def _close_dispatches(self, run: str) -> None:
        for d in self._dispatches:
            finished = d.collector.finished_at if d.collector is not None else None
            if d.last_submit is not None and finished is not None:
                self.phases[run].append((d.last_submit - d.entered, finished - d.last_submit))
        self._dispatches = []

    def _build_patches(self) -> list[tuple[object, str, object]]:
        """Names qexec looks up at call time, and what a traced iteration puts there."""
        wrap = self.wrap
        original_request = requests.Session.request
        tracer = self

        def traced_request(session, method, url, *args, **kwargs):
            with tracer.span(f"http.{_route(method, url)}"):
                return original_request(session, method, url, *args, **kwargs)

        return [
            (qexec.cli, "main", wrap("cli.main", qexec.cli.main)),
            (qexec.cli, "QuantumExecutor", functools.partial(TracedExecutor, tracer=self)),
            (qexec.cli, "parse_qasm", wrap("circuit.parse", qexec.cli.parse_qasm)),
            (qexec.circuit, "parse_qasm", wrap("circuit.parse", qexec.circuit.parse_qasm)),
            (qexec.cli, "tree_to_json", wrap("collector.tree_to_json", qexec.cli.tree_to_json)),
            (qexec.providers, "serialize_qasm", wrap("circuit.serialize", qexec.providers.serialize_qasm)),
            (qexec.dispatch, "serialize_qasm", wrap("circuit.serialize", qexec.dispatch.serialize_qasm)),
            (qexec.executor, "ResultCollector", functools.partial(TracedCollector, tracer=self)),
            (requests.Session, "request", traced_request),
        ]

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, start, end, run in self.spans:
                f.write(json.dumps([span_id, parent, name, start, end, run]) + "\n")


def _route(method: str, url: str) -> str:
    parts = [p for p in urlsplit(url).path.split("/") if p]
    if parts == ["backends"]:
        return "get_backends"
    if parts == ["jobs"] and method.upper() == "POST":
        return "post_jobs"
    if len(parts) == 2 and parts[0] == "jobs":
        return "get_job"
    if len(parts) == 3 and parts[2] == "result":
        return "get_result"
    return "other"


# --------------------------------------------------------------------------
# Traced subclasses of the public qexec types
# --------------------------------------------------------------------------


class TracedVirtualProvider(VirtualProvider):
    """Times and counts every provider call; measures submit-to-DONE latency."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer
        self._submitted_at: dict[str, float] = {}

    def find_backend(self, provider_id, backend_name):
        with self._tracer.span("providers.find_backend"):
            return super().find_backend(provider_id, backend_name)

    def submit(self, provider_id, backend_name, circuit, shots, options=None):
        with self._tracer.span("providers.submit"):
            handle = super().submit(provider_id, backend_name, circuit, shots, options)
        self._submitted_at[handle.job_id] = perf_counter()
        self._tracer.submitted()
        return handle

    def status(self, handle):
        with self._tracer.span("providers.status"):
            status = super().status(handle)
        if status.state.terminal:
            self._tracer.count("providers.status_terminal")
            submitted = self._submitted_at.pop(handle.job_id, None)
            if submitted is not None and status.state is JobState.DONE:
                self._tracer.sample("providers.job_latency_s", perf_counter() - submitted)
        return status

    def result(self, handle):
        with self._tracer.span("providers.result"):
            return super().result(handle)


class TracedPolicyRegistry(PolicyRegistry):
    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def resolve_split(self, name):
        return self._tracer.wrap("policies.split", super().resolve_split(name))

    def resolve_merge(self, name):
        return self._tracer.wrap("policies.merge", super().resolve_merge(name))


class TracedExecutor(QuantumExecutor):
    """QuantumExecutor over a TracedVirtualProvider and traced policies."""

    def __init__(self, providers=None, *, tracer: Tracer):
        super().__init__(providers, TracedVirtualProvider(tracer))
        self.policies = TracedPolicyRegistry(tracer)
        self._tracer = tracer

    def run_experiment(self, spec=None, **kwargs):
        with self._tracer.span("executor.run_experiment"):
            return super().run_experiment(spec, **kwargs)

    def run_dispatch(self, dispatch, *args, **kwargs):
        tracer = self._tracer
        dispatch.validate_against = tracer.wrap("dispatch.validate", dispatch.validate_against)
        dispatch.to_json = tracer.wrap("dispatch.to_json", dispatch.to_json)
        phases = tracer.begin_dispatch()
        with tracer.span("executor.run_dispatch"):
            collector = super().run_dispatch(dispatch, *args, **kwargs)
        phases.collector = collector
        return collector


class TracedCollector(ResultCollector):
    """Times the collector's readers, its wait and its merge."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def wait(self, timeout=None):
        with self._tracer.span("collector.wait"):
            return super().wait(timeout)

    def status(self):
        with self._tracer.span("collector.read"):
            return super().status()

    def get_results(self, block=True, timeout=None):
        with self._tracer.span("collector.read"):
            return super().get_results(block, timeout)

    def failed_jobs(self):
        with self._tracer.span("collector.read"):
            return super().failed_jobs()

    def get_merged_results(self):
        with self._tracer.span("collector.merge"):
            return super().get_merged_results()


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

HTTP_ROUTES = ("get_backends", "post_jobs", "get_job", "get_result")

# name -> unit, for every metric layer_metrics() returns, in print order
LAYER_UNITS = {
    "circuit.parse_s": "s",
    "circuit.serialize_s": "s",
    "policies.split_s": "s",
    "policies.merge_s": "s",
    "dispatch.validate_s": "s",
    "dispatch.to_json_s": "s",
    "providers.find_backend_calls": "count",
    "providers.find_backend_s": "s",
    "providers.submit_calls": "count",
    "providers.submit_s": "s",
    "providers.status_calls": "count",
    "providers.status_s": "s",
    "providers.result_s": "s",
    "providers.polls_per_job": "count",
    "providers.poll_hit_ratio": "ratio",
    "providers.job_latency_s.p50": "s",
    "providers.job_latency_s.p99": "s",
    "executor.submit_phase_s": "s",
    "executor.drain_s": "s",
    "collector.wait_s": "s",
    "collector.read_calls": "count",
    "collector.read_s.p50": "s",
    "collector.read_s.p99": "s",
    "collector.merge_s": "s",
    "http.requests.get_backends": "count",
    "http.requests.post_jobs": "count",
    "http.requests.get_job": "count",
    "http.requests.get_result": "count",
    "http.request_s.p50": "s",
    "http.request_s.p99": "s",
    "http_requests_per_job": "count",
    "cli.overhead_s": "s",
}


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, runs: list[str], remote_jobs: int) -> dict[str, tuple[float, int]]:
    """Per-layer metric -> (value, sample count) over the traced iterations.

    Totals are summed per iteration, over all threads, then the median over
    iterations is taken. Latency percentiles pool every call of every traced
    iteration. Layer times include the traced calls nested inside them (a
    validate includes its find_backend calls, which include GET /backends).
    """
    by_run: dict[str, list[tuple]] = defaultdict(list)
    child_time: Counter = Counter()
    for span in tracer.spans:
        by_run[span[5]].append(span)
        child_time[span[1]] += span[4] - span[3]

    per_run: dict[str, list[float]] = defaultdict(list)
    read_self: list[float] = []
    http_times: list[float] = []
    for run in runs:
        total: Counter = Counter()
        calls: Counter = Counter()
        for span_id, _, name, start, end, _ in by_run[run]:
            total[name] += end - start
            calls[name] += 1
            if name == "collector.read":
                read_self.append(end - start - child_time[span_id])
            elif name.startswith("http."):
                http_times.append(end - start)
        submits = calls["providers.submit"]
        statuses = calls["providers.status"]
        http_total = sum(calls[f"http.{route}"] for route in HTTP_ROUTES)
        values = {
            "circuit.parse_s": total["circuit.parse"],
            "circuit.serialize_s": total["circuit.serialize"],
            "policies.split_s": total["policies.split"],
            "policies.merge_s": total["policies.merge"],
            "dispatch.validate_s": total["dispatch.validate"],
            "dispatch.to_json_s": total["dispatch.to_json"],
            "providers.find_backend_calls": calls["providers.find_backend"],
            "providers.find_backend_s": total["providers.find_backend"],
            "providers.submit_calls": submits,
            "providers.submit_s": total["providers.submit"],
            "providers.status_calls": statuses,
            "providers.status_s": total["providers.status"],
            "providers.result_s": total["providers.result"],
            "providers.polls_per_job": statuses / submits if submits else 0.0,
            "providers.poll_hit_ratio": (
                tracer.counts[run, "providers.status_terminal"] / statuses if statuses else 0.0
            ),
            "executor.submit_phase_s": sum(p[0] for p in tracer.phases[run]),
            "executor.drain_s": sum(p[1] for p in tracer.phases[run]),
            "collector.wait_s": total["collector.wait"],
            "collector.read_calls": calls["collector.read"],
            "collector.merge_s": total["collector.merge"],
            "http_requests_per_job": http_total / remote_jobs if remote_jobs else 0.0,
            "cli.overhead_s": (
                total["cli.main"]
                - total["executor.run_experiment"]
                - total["collector.wait"]
                - total["collector.merge"]
                if calls["cli.main"]
                else 0.0
            ),
        }
        for route in HTTP_ROUTES:
            values[f"http.requests.{route}"] = calls[f"http.{route}"]
        for name, value in values.items():
            per_run[name].append(value)

    latencies = [v for run in runs for v in tracer.samples[run, "providers.job_latency_s"]]
    metrics = {name: (_median(vals), len(vals)) for name, vals in per_run.items()}
    metrics["providers.job_latency_s.p50"] = (_pct(latencies, 50), len(latencies))
    metrics["providers.job_latency_s.p99"] = (_pct(latencies, 99), len(latencies))
    metrics["collector.read_s.p50"] = (_pct(read_self, 50), len(read_self))
    metrics["collector.read_s.p99"] = (_pct(read_self, 99), len(read_self))
    metrics["http.request_s.p50"] = (_pct(http_times, 50), len(http_times))
    metrics["http.request_s.p99"] = (_pct(http_times, 99), len(http_times))
    return {name: metrics[name] for name in LAYER_UNITS}
