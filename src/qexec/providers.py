"""Virtual provider: one registry over heterogeneous execution backends.

Backend discovery, credential/config handling, and job submission live
behind a single API so the executor never touches provider-specific quirks.
Four provider kinds ship built-in:

* ``local_ideal``   - in-process ideal statevector simulator
* ``local_noisy``   - in-process depolarizing-noise simulator (needs ``noise``):
  exact density matrices for small circuits, trajectories for wide ones
* ``mock_delay``    - in-process ideal simulator; each job starts no earlier
  than ``delay`` seconds after submission (async testing)
* ``remote_http``   - client for the qexec remote job service wire protocol;
  it lives in ``qexec.remote``, the one module that imports requests, and is
  loaded when the first such provider is built

Each local kind is a JobRunner hosting its one backend, the same runner
that hosts the job service's backends. This module alone decides which
jobs may overlap: the jobs of every runner with no delay run on one kernel
worker per process, one at a time, in submission order, and a runner with a
delay waits on a worker of its own. Every adapter takes a backend's jobs as
one list of ``(circuit, shots, seed)`` tuples, the shape the kernel's
sample_batch takes, and reads a list of job ids, of any of its backends, in
one call; the registry's submit_batch and status_batch are those calls, and
its one way to submit and one way to read a job. A run's one driver thread
(see executor.QuantumExecutor._drive) makes one status_batch call per
provider per poll, and between two polls waits through the registry's wait
on one provider, which a runner spends blocked on its job table and a
remote adapter spends asleep. A runner's job table takes a batch's new
jobs, a chunk's RUNNING marks and a chunk's outcomes each under one hold
of its lock. Submission is non-blocking for every kind:
jobs enter QUEUED immediately and progress QUEUED -> RUNNING -> DONE/FAILED,
observable through the status calls, the one way to read a job: a DONE
status carries the job's counts. A job that cannot be submitted, such as
one whose shots or seed is not an integer, gets its error in place of an
id, so one bad job never fails the jobs submitted with it. The registry
holds its adapters and is safe for concurrent use; a job is known by
(provider_id, job_id), the id that provider's adapter issued. A provider's
settings are checked when it is registered, so a providers file and a
ProviderConfig built in Python meet the same checks.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Hashable, Iterable, Mapping, Sequence

# serialize_qasm is not called here: qexec.remote looks it up on this module,
# so a wrapper installed on this name (as perfbench/tracing.py does) also
# sees the circuits a remote submission serializes.
from .circuit import Circuit, serialize_qasm
from .errors import (
    BackendOfflineError,
    CircuitError,
    DispatchError,
    DuplicateProviderError,
    ProviderConfigError,
    ProviderError,
    QExecError,
    UnknownBackendError,
    UnknownJobError,
)
from .simulator import MAX_WIDTH_DEFAULT, NoiseSpec, batch_chunks, sample_batch

__all__ = [
    "MAX_BATCH_JOBS",
    "MAX_WAIT",
    "JobState",
    "JobStatus",
    "BackendDescriptor",
    "ProviderConfig",
    "JobTable",
    "JobRunner",
    "VirtualProvider",
]

logger = logging.getLogger(__name__)

_JOB_COUNTER = itertools.count(1)  # never reused within the process

# The most jobs one request to the job service may submit or read; a client
# splits a longer list into requests of at most this many.
MAX_BATCH_JOBS = 256

# The longest a runner's wait blocks, in seconds, whatever interval it is
# given: its table wakes it sooner when its last pending job ends.
MAX_WAIT = 0.05


class JobState(str, Enum):
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


_STATE_RANK = {JobState.QUEUED: 0, JobState.RUNNING: 1, JobState.DONE: 2, JobState.FAILED: 2}
_TERMINAL_RANK = 2


@dataclass(frozen=True)
class JobStatus:
    """A job's state; ``counts`` holds its histogram once DONE, else None."""

    state: JobState
    error_message: str | None = None
    counts: dict[str, int] | None = field(default=None, hash=False)


# The statuses that carry nothing of their job: one instance serves every job.
_QUEUED = JobStatus(JobState.QUEUED)
_RUNNING = JobStatus(JobState.RUNNING)


@dataclass(frozen=True)
class BackendDescriptor:
    provider_id: str
    backend_name: str
    online: bool
    max_qubits: int
    is_ideal_simulator: bool

    def check(self, circuit: Circuit) -> None:
        """Raise BackendOfflineError or CircuitError unless circuit can run here."""
        if not self.online:
            raise BackendOfflineError(f"backend {self.provider_id}/{self.backend_name} is offline")
        if circuit.width > self.max_qubits:
            raise CircuitError(
                f"circuit {circuit.name!r} width {circuit.width} exceeds "
                f"{self.provider_id}/{self.backend_name} limit {self.max_qubits}"
            )


@dataclass(frozen=True)
class ProviderConfig:
    """Declarative provider configuration, ingestible from the providers file.

    from_dict checks only the file's form: its keys and the noise mapping.
    The settings themselves, read from a file or built in Python, are checked
    when the provider is registered (_build_adapter).
    """

    provider_id: str
    kind: str
    credentials: dict[str, str] = field(default_factory=dict)
    endpoint: str | None = None
    noise: NoiseSpec | None = None
    delay: float | None = None
    max_qubits: int = MAX_WIDTH_DEFAULT
    online: bool = True

    @classmethod
    def from_dict(cls, provider_id: str, data: Mapping[str, Any]) -> "ProviderConfig":
        known = {"kind", "endpoint", "api_key", "noise", "delay", "max_qubits", "online"}
        unknown = set(data) - known
        if unknown:
            raise ProviderConfigError(
                f"provider {provider_id!r}: unknown keys {sorted(unknown)}"
            )
        noise = data.get("noise")
        if isinstance(noise, Mapping):
            if set(noise) != {"p_depolarizing"}:
                raise ProviderConfigError(
                    f"provider {provider_id!r}: noise mapping must hold exactly p_depolarizing"
                )
            noise = noise["p_depolarizing"]
        if noise is not None:
            noise = NoiseSpec(noise)
        credentials = {"api_key": data["api_key"]} if "api_key" in data else {}
        return cls(
            provider_id=provider_id,
            kind=str(data.get("kind", "")),
            credentials=credentials,
            endpoint=data.get("endpoint"),
            noise=noise,
            delay=data.get("delay"),
            max_qubits=data.get("max_qubits", MAX_WIDTH_DEFAULT),
            online=data.get("online", True),
        )


# --------------------------------------------------------------------------
# Job table and job runner (local providers, job service, collector)
# --------------------------------------------------------------------------


class JobTable:
    """Thread-safe job store enforcing QUEUED -> RUNNING -> DONE/FAILED.

    A transition that would move a job backwards, or out of a terminal
    state, is ignored: the first terminal state recorded wins. Jobs are
    created, and their transitions applied, many under one hold of the
    lock: set_statuses, the one way to change a job, returns the jobs it
    ended. A DONE status holds counts that no one edits once recorded. Only
    statuses() and counts() return counts, and each returns copies;
    states() returns none. The table counts its pending (non-terminal) jobs. ``finished_at`` is the
    wall-clock time at which the last pending job became terminal, and None
    exactly while a job is pending; wait() blocks until no job is pending.
    """

    def __init__(self, keys: Iterable[Hashable] = ()):
        self._statuses: dict[Hashable, JobStatus] = {}
        self._pending = 0
        self._cond = threading.Condition()
        self.finished_at: float | None = time.time()
        self.create(keys)

    def create(self, keys: Iterable[Hashable]) -> None:
        """Add each key as a QUEUED job, under one hold of the lock;
        ValueError, and no key added, if one is already a job or repeats."""
        with self._cond:
            fresh = {}
            for key in keys:
                if key in fresh or key in self._statuses:
                    raise ValueError(f"job {key!r} already exists")
                fresh[key] = _QUEUED
            if fresh:
                self._statuses.update(fresh)
                self._pending += len(fresh)
                self.finished_at = None

    def set_statuses(self, updates: Iterable[tuple[Hashable, JobStatus]]) -> list[Hashable]:
        """Apply each ``(key, status)`` transition, in order, under one hold of
        the lock; the keys of the jobs it ended. KeyError for a key the table
        never created, once the transitions before it are applied. Each status
        is kept as given, so a caller hands over a DONE status's counts and
        edits them no more. If the last pending job ends among them, even in a
        batch that raises, ``finished_at`` is set and every wait() returns."""
        ended = []
        with self._cond:
            statuses = self._statuses
            try:
                for key, status in updates:
                    rank = _STATE_RANK[status.state]
                    if rank > _STATE_RANK[statuses[key].state]:
                        statuses[key] = status
                        if rank == _TERMINAL_RANK:
                            ended.append(key)
            finally:
                self._pending -= len(ended)
                if not self._pending and self.finished_at is None:
                    self.finished_at = time.time()
                    self._cond.notify_all()
        return ended

    def wait(self, timeout: float | None = None) -> bool:
        """Block until no job is pending; returns False on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._pending, timeout)

    def statuses(self, keys: Iterable[Hashable]) -> list[JobStatus | None]:
        """Each key's status, read under one hold of the lock; None for a key
        the table never saw."""
        with self._cond:
            statuses = [self._statuses.get(key) for key in keys]
        return [None if status is None else _copied(status) for status in statuses]

    def counts(self) -> dict[Hashable, dict[str, int]]:
        """A copy of the counts of every DONE job, and nothing else."""
        with self._cond:
            done = [(key, s.counts) for key, s in self._statuses.items() if s.counts is not None]
        # The table's counts are never edited once recorded, so they are
        # copied outside the lock.
        return {key: dict(counts) for key, counts in done}

    def states(self) -> dict[Hashable, tuple[JobState, str | None]]:
        """Every job's state and error message, read under one hold of the
        lock; no counts are copied."""
        with self._cond:
            return {key: (s.state, s.error_message) for key, s in self._statuses.items()}


def _copied(status: JobStatus) -> JobStatus:
    """A status to hand a reader: its counts are a copy, never the table's own,
    so a reader that edits them cannot change what the table holds."""
    if status.counts is None:
        return status
    return JobStatus(status.state, status.error_message, dict(status.counts))


# The one worker that runs the jobs of every runner with no delay, whichever
# runner queued them: CPU-bound kernels that overlap in threads only contend
# for the interpreter lock. Its thread starts with the first job queued.
_KERNELS = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qexec-kernel")


class JobRunner:
    """Hosts simulator backends and runs their jobs, tracked in a JobTable.

    Each local provider is one runner with one backend, and the job service
    is one runner with all of its backends. A runner's jobs run in
    submission order. Each submit call creates the jobs it accepted in one
    call to the table and queues one work item that runs them in chunks of
    consecutive jobs, each chunk in one sample_batch call, within the
    kernel's 16 MB budget of amplitudes. A chunk's jobs are marked RUNNING
    in one table call, with one shared status, and its outcomes recorded in
    another. With no delay that item goes to
    the shared kernel worker, so the jobs of all such runners run one at a
    time. With a delay, the batch runs no earlier than ``delay`` seconds
    after its submission, on a worker of the runner's own that waits once
    until the batch is due, or until shutdown(), and so holds up no other
    runner's kernels. Every batch gets the same delay, so N jobs submitted
    together finish about one delay later, not N delays. The delay must be
    finite and not negative.
    """

    def __init__(
        self,
        name: str,
        backends: Iterable[tuple[BackendDescriptor, NoiseSpec | None]],
        delay: float = 0.0,
    ):
        # No lock can wait an infinite delay, so its jobs would stay QUEUED.
        if not 0 <= delay < float("inf"):  # NaN fails too
            raise ProviderConfigError(f"{name!r}: delay must be finite and >= 0, got {delay!r}")
        self._table = JobTable()
        self._name = name
        self._delay = delay
        self._backends = {d.backend_name: (d, noise) for d, noise in backends}
        self._stopped = threading.Event()
        if delay > 0:
            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"{name}-worker")
        else:
            self._pool = _KERNELS

    def backends(self) -> list[BackendDescriptor]:
        return [descriptor for descriptor, _ in self._backends.values()]

    def submit(self, backend_name: str, jobs: Sequence[tuple]) -> list[str | QExecError]:
        """Queue each ``(circuit, shots, seed)`` job and return its id, or
        the error that kept it from the queue; the jobs run under the
        backend's noise, if it has any. Every job of a backend this runner
        does not host gets UnknownBackendError."""
        if backend_name not in self._backends:
            return [UnknownBackendError(f"unknown backend {self._name}/{backend_name}")] * len(jobs)
        descriptor, noise = self._backends[backend_name]
        due = time.monotonic() + self._delay
        job_ids: list[str | QExecError] = []
        accepted = []
        for job in jobs:
            try:
                descriptor.check(job[0])
            except QExecError as exc:
                job_ids.append(exc)
                continue
            job_id = f"{self._name}-{next(_JOB_COUNTER)}"
            accepted.append((job_id, job))
            job_ids.append(job_id)
        if accepted:
            self._table.create([job_id for job_id, _ in accepted])
            self._pool.submit(self._run, due, descriptor, noise, accepted)
        return job_ids

    def _run(self, due, descriptor, noise, jobs) -> None:
        wait = due - time.monotonic()
        if wait > 0 and self._stopped.wait(wait):
            return
        for chunk in batch_chunks([circuit.width for _, (circuit, _, _) in jobs], noise):
            if self._stopped.is_set():
                return
            job_ids = [job_id for job_id, _ in jobs[chunk]]
            self._table.set_statuses([(job_id, _RUNNING) for job_id in job_ids])
            try:
                results = sample_batch([job for _, job in jobs[chunk]], noise, descriptor.max_qubits)
            except Exception as exc:
                results = [exc] * len(job_ids)
            outcomes = [(job_id, _outcome(job_id, result)) for job_id, result in zip(job_ids, results)]
            self._table.set_statuses(outcomes)

    def status(self, job_ids: Sequence[str]) -> list[JobStatus | None]:
        """Each job's status; None for an id this runner never issued."""
        return self._table.statuses(job_ids)

    def wait(self, interval: float) -> None:
        """Block until none of this runner's jobs is pending, for at most
        MAX_WAIT, whatever the interval: the table wakes the caller the
        moment its last pending job ends."""
        self._table.wait(MAX_WAIT)

    def shutdown(self) -> None:
        """Stop running jobs; jobs not yet started stay QUEUED. The shared
        kernel worker skips them and goes on with other runners' jobs, and a
        runner's own worker that waits out a delay stops waiting and ends."""
        self._stopped.set()
        if self._pool is not _KERNELS:
            self._pool.shutdown(wait=False, cancel_futures=True)


def _outcome(job_id: str, result: dict[str, int] | Exception) -> JobStatus:
    """The terminal status of a job the kernel ran: DONE with the counts it
    returned, which no one else holds, or FAILED with its error's message."""
    if isinstance(result, Exception):
        logger.debug("job %s failed", job_id, exc_info=result)
        return JobStatus(JobState.FAILED, str(result))
    return JobStatus(JobState.DONE, counts=result)


# --------------------------------------------------------------------------
# Adapters
# --------------------------------------------------------------------------

# local provider kind -> (backend name, is_ideal_simulator)
_LOCAL_BACKENDS = {
    "local_ideal": ("statevector", True),
    "local_noisy": ("noisy_statevector", False),
    "mock_delay": ("delayed_statevector", False),
}
_KINDS = frozenset({*_LOCAL_BACKENDS, "remote_http"})


def submit_checked(jobs: Sequence, submit) -> list:
    """One ``submit`` call for the jobs that are not exceptions; each result
    goes in its job's place, and each exception, a refused job, stays in its own."""
    checked = [job for job in jobs if not isinstance(job, Exception)]
    issued = iter(submit(checked) if checked else [])
    return [job if isinstance(job, Exception) else next(issued) for job in jobs]


def _build_adapter(config: ProviderConfig):
    """The adapter for a provider, once its settings pass the checks that every
    ProviderConfig meets: a known kind, the settings that kind needs and only
    those, and endpoint, api_key, max_qubits, delay and online of their
    types; an api_key of None is no key. The JobRunner of a local kind checks
    its delay."""
    if config.kind not in _KINDS:
        raise ProviderConfigError(
            f"unknown provider kind {config.kind!r} (expected one of {sorted(_KINDS)})"
        )
    if config.kind == "remote_http" and not config.endpoint:
        raise ProviderConfigError(f"provider {config.provider_id!r}: remote_http requires endpoint")
    if config.kind == "local_noisy" and config.noise is None:
        raise ProviderConfigError(f"provider {config.provider_id!r}: local_noisy requires noise")
    for setting, value, kind in (
        ("noise", config.noise, "local_noisy"),
        ("delay", config.delay, "mock_delay"),
        ("endpoint", config.endpoint, "remote_http"),
        ("api_key", config.credentials.get("api_key"), "remote_http"),
    ):
        if value is not None and config.kind != kind:
            raise ProviderConfigError(
                f"provider {config.provider_id!r}: {setting} applies only to {kind}, not {config.kind}"
            )
    for setting, value, types, what in (
        ("endpoint", config.endpoint, (str, type(None)), "a string"),
        ("api_key", config.credentials.get("api_key"), (str, type(None)), "a string"),
        ("max_qubits", config.max_qubits, int, "an integer"),
        ("delay", config.delay, (int, float, type(None)), "a number"),
        ("online", config.online, bool, "a boolean"),
    ):
        # A bool is an int to Python, but only online may be one.
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            raise ProviderConfigError(f"provider {config.provider_id!r}: {setting} must be {what}")
    if config.kind == "remote_http":
        from .remote import RemoteHttpAdapter  # imports requests: only when needed

        return RemoteHttpAdapter(config)
    backend_name, is_ideal = _LOCAL_BACKENDS[config.kind]
    descriptor = BackendDescriptor(
        config.provider_id, backend_name, config.online, config.max_qubits, is_ideal
    )
    return JobRunner(config.provider_id, [(descriptor, config.noise)], config.delay or 0.0)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


def check_shots(shots: int) -> None:
    """Raise DispatchError unless shots is an integer >= 1; a bool is an int
    to Python, but True is not a shot count."""
    if not isinstance(shots, int) or isinstance(shots, bool):
        raise DispatchError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise DispatchError(f"shots must be >= 1, got {shots}")


def _checked(job: tuple) -> tuple | DispatchError:
    """The ``(circuit, shots, seed)`` job, or the error that refuses it:
    shots or a seed that are not integers would fail it only in the kernel."""
    _, shots, seed = job
    try:
        check_shots(shots)
    except DispatchError as exc:
        return exc
    if not isinstance(seed, int) or isinstance(seed, bool):
        return DispatchError(f"seed must be an integer, got {seed!r}")
    return job


class VirtualProvider:
    """Registry of provider adapters; routes each job to its provider's adapter."""

    def __init__(self):
        self._adapters: dict[str, Any] = {}
        self._lock = threading.Lock()

    def register_provider(self, config: ProviderConfig) -> str:
        """Make a provider's backends discoverable; credentials live for the session only."""
        with self._lock:
            if config.provider_id in self._adapters:
                raise DuplicateProviderError(f"provider {config.provider_id!r} already registered")
            self._adapters[config.provider_id] = _build_adapter(config)
        return config.provider_id

    def providers(self) -> list[str]:
        with self._lock:
            return sorted(self._adapters)

    def get_backends(self, online_only: bool = False) -> dict[str, list[BackendDescriptor]]:
        """Discover backends across all providers, deterministically ordered.

        Providers with no (matching) backends are omitted from the map.
        """
        out: dict[str, list[BackendDescriptor]] = {}
        with self._lock:
            adapters = dict(self._adapters)
        for provider_id in sorted(adapters):
            descriptors = sorted(adapters[provider_id].backends(), key=lambda d: d.backend_name)
            if online_only:
                descriptors = [d for d in descriptors if d.online]
            if descriptors:
                out[provider_id] = descriptors
        return out

    def list_backends(self, provider_id: str) -> list[BackendDescriptor]:
        """One provider's backends, in one adapter listing (a remote provider's
        is one GET /backends); none for a provider not registered."""
        with self._lock:
            adapter = self._adapters.get(provider_id)
        return adapter.backends() if adapter is not None else []

    def find_backend(self, provider_id: str, backend_name: str) -> BackendDescriptor | None:
        backends = self.list_backends(provider_id)
        return next((d for d in backends if d.backend_name == backend_name), None)

    def submit_batch(
        self, provider_id: str, backend_name: str, jobs: Sequence[tuple]
    ) -> list[str | QExecError]:
        """Submit a backend's ``(circuit, shots, seed)`` jobs in one adapter
        call, with no discovery call. Returns, in order, the id the adapter
        issued each job or the error that refused it: bad shots or seed, a
        backend the adapter does not host, a circuit that cannot run there.
        Nothing raises for one job, so each job's outcome is recorded once;
        ProviderError if the adapter issued more or fewer ids than it was given
        jobs, since no id could then be matched to its job."""
        with self._lock:
            adapter = self._adapters.get(provider_id)
        if adapter is None:
            unknown = UnknownBackendError(f"unknown backend {provider_id}/{backend_name}")
            return [unknown] * len(jobs)

        def submit(batch: list[tuple]) -> list[str | QExecError]:
            issued = adapter.submit(backend_name, batch)
            if len(issued) != len(batch):
                raise ProviderError(
                    f"provider {provider_id!r} issued {len(issued)} job ids, not {len(batch)}"
                )
            return issued

        return submit_checked([_checked(job) for job in jobs], submit)

    def status_batch(self, provider_id: str, job_ids: Sequence[str]) -> list[JobStatus]:
        """The statuses of jobs that ``provider_id`` issued, on any of its
        backends, read in one adapter call; once DONE a status carries the
        job's counts. UnknownJobError if the provider issued none of that id,
        and ProviderError if its adapter read more or fewer statuses than ids."""
        with self._lock:
            adapter = self._adapters.get(provider_id)
        statuses = adapter.status(job_ids) if adapter is not None else [None] * len(job_ids)
        if len(statuses) != len(job_ids):
            raise ProviderError(
                f"provider {provider_id!r} read {len(statuses)} statuses, not {len(job_ids)}"
            )
        for job_id, status in zip(job_ids, statuses):
            if status is None:
                raise UnknownJobError(f"no provider {provider_id!r} issued job {job_id!r}")
        return statuses

    def wait(self, provider_id: str, interval: float) -> None:
        """Wait before the next status_batch on ``provider_id``, as its adapter
        decides: a runner returns once none of its jobs is pending, or after
        MAX_WAIT, and a remote adapter sleeps for ``interval`` seconds."""
        with self._lock:
            adapter = self._adapters.get(provider_id)
        if adapter is not None:  # else the next status_batch raises UnknownJobError
            adapter.wait(interval)
