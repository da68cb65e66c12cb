"""The principal orchestrator: wires registry, policies, dispatch, collector.

Runs are declarative (run_experiment with an ExperimentSpec) or explicit
(run_dispatch with a pre-built Dispatch). Either way, one driver thread per
run submits every backend's jobs and polls them (see QuantumExecutor._drive),
and records each poll in the run's collector under one hold of its lock.
Which jobs overlap is the providers' decision, not the driver's: in-process
simulators run every kernel on one worker per process, one at a time. Job
k's seed is base_seed + ordinal(k), making serial and parallel runs of the
same plan bit-identical on local simulators regardless of scheduling.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .circuit import Circuit
from .collector import ResultCollector
from .dispatch import Dispatch
from .errors import DispatchValidationError, ExperimentError, ProviderError, UnknownBackendError
from .policies import PolicyRegistry
from .providers import (
    MAX_WAIT,
    BackendDescriptor,
    JobState,
    JobStatus,
    ProviderConfig,
    VirtualProvider,
)

__all__ = ["ExperimentSpec", "QuantumExecutor"]

logger = logging.getLogger(__name__)

_POLL_INITIAL = 0.002


@dataclass
class ExperimentSpec:
    """Declarative experiment: what to run, where, and under which policies.

    The one check of an experiment's fields: a field of the wrong form
    raises ExperimentError when the spec is built. ``backends`` maps each
    provider id to a list of backend names, or is the literal
    ``"all_online"``, every backend that a run lists as online."""

    circuits: list[Circuit] | Circuit
    shots: int
    backends: Mapping[str, list[str]] | str
    split_policy: str = "multiplier"
    merge_policy: str | None = None
    parallel: bool = True
    wait: bool = True
    base_seed: int = 0
    policy_context: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        circuits = [self.circuits] if isinstance(self.circuits, Circuit) else self.circuits
        if not (isinstance(circuits, list) and circuits and all(isinstance(c, Circuit) for c in circuits)):
            raise ExperimentError("circuits must be a Circuit or a non-empty list of Circuits")
        self.circuits = list(circuits)
        if not _is_int(self.shots) or self.shots < 1:
            raise ExperimentError("shots must be a positive integer")
        if self.backends != "all_online":
            if not isinstance(self.backends, Mapping):
                raise ExperimentError("backends must be a mapping or the literal 'all_online'")
            for provider_id, names in self.backends.items():
                if not isinstance(provider_id, str):
                    raise ExperimentError(f"backends key {provider_id!r} must be a string")
                if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                    raise ExperimentError(f"backends[{provider_id!r}] must be a list of names")
        if not isinstance(self.split_policy, str):
            raise ExperimentError("split_policy must be a string")
        if self.merge_policy is not None and not isinstance(self.merge_policy, str):
            raise ExperimentError("merge_policy must be a string")
        for key in ("parallel", "wait"):
            if not isinstance(getattr(self, key), bool):
                raise ExperimentError(f"{key} must be a boolean")
        if not _is_int(self.base_seed):
            raise ExperimentError("base_seed must be an integer")
        if not isinstance(self.policy_context, Mapping):
            raise ExperimentError("policy_context must be a mapping")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class QuantumExecutor:
    """User-facing entry point: provider configuration, policies, runs."""

    def __init__(
        self,
        providers: Iterable[ProviderConfig] | None = None,
        virtual_provider: VirtualProvider | None = None,
    ):
        self.virtual_provider = virtual_provider or VirtualProvider()
        self.policies = PolicyRegistry()
        for config in providers or ():
            self.virtual_provider.register_provider(config)

    # -- provider passthroughs ----------------------------------------------

    def register_provider(self, config: ProviderConfig) -> str:
        return self.virtual_provider.register_provider(config)

    def get_backends(self, online_only: bool = False):
        return self.virtual_provider.get_backends(online_only=online_only)

    # -- policies -------------------------------------------------------------

    def add_policy(
        self,
        name: str,
        *,
        split_policy: Callable | None = None,
        merge_policy: Callable | None = None,
    ) -> None:
        """Register a split policy, a merge policy or both under one name;
        see PolicyRegistry.register, which takes the same keywords."""
        self.policies.register(name, split_policy=split_policy, merge_policy=merge_policy)

    # -- runs -----------------------------------------------------------------

    def run_experiment(self, spec: ExperimentSpec | None = None, **kwargs) -> ResultCollector:
        """Resolve targets, build the dispatch via the split policy, execute.

        Accepts an ExperimentSpec or the same fields as keywords. All policy
        and backend resolution happens before anything is submitted: each
        provider the spec names, or every provider for ``"all_online"``, is
        listed once, and its descriptors serve both the check here and
        run_dispatch's pre-flight.
        """
        if spec is None:
            spec = ExperimentSpec(**kwargs)
        split_fn = self.policies.resolve_split(spec.split_policy)

        if spec.backends == "all_online":
            descriptors = {
                (provider_id, d.backend_name): d
                for provider_id, listed in self.get_backends(online_only=True).items()
                for d in listed
            }
            targets = list(descriptors)
        else:
            targets = [(p, b) for p in sorted(spec.backends) for b in sorted(spec.backends[p])]
            descriptors = self._list(targets)
        for provider_id, backend_name in targets:
            if descriptors[provider_id, backend_name] is None:
                raise UnknownBackendError(f"unknown backend {provider_id}/{backend_name}")

        dispatch = split_fn(spec.circuits, spec.shots, targets, spec.policy_context)
        foreign = set(dispatch.backends()) - set(targets)
        if foreign:
            names = ", ".join(f"{p}/{b}" for p, b in sorted(foreign))
            raise ExperimentError(
                f"split policy {spec.split_policy!r} referenced targets outside the experiment: {names}"
            )

        return self.run_dispatch(
            dispatch,
            parallel=spec.parallel,
            wait=spec.wait,
            merge_policy=spec.merge_policy,
            base_seed=spec.base_seed,
            policy_context=spec.policy_context,
            descriptors=descriptors,
        )

    def run_dispatch(
        self,
        dispatch: Dispatch,
        parallel: bool = True,
        wait: bool = True,
        merge_policy: str | None = None,
        base_seed: int = 0,
        policy_context: Mapping[str, Any] | None = None,
        *,
        descriptors: Mapping[tuple[str, str], BackendDescriptor | None] | None = None,
    ) -> ResultCollector:
        """Submit every job of a dispatch that passes pre-flight and return the
        collector. Pre-flight and ``backend_info`` share one listing per
        provider per run: ``descriptors`` maps each (provider_id, backend_name)
        target to the descriptor a caller listed this run, as run_experiment
        does, and None lists each provider the dispatch names once. A target
        it does not map is an unknown backend.

        parallel=True submits every backend's jobs at once, so that one
        backend's waits do not hold up another's; parallel=False submits each
        backend once the one before is done. In-process kernels run one at a
        time either way (see providers.JobRunner). wait=True blocks until the
        run is terminal, wait=False returns a live collector whose completion
        progresses in the background. merge_policy names a registered merge
        policy; None or "" means no merge.
        """
        merge_fn = self.policies.resolve_merge(merge_policy) if merge_policy else None
        if dispatch.total_jobs() > 0 and not self.virtual_provider.providers():
            raise ProviderError("no providers registered")
        listed = self._list(dispatch.backends()) if descriptors is None else descriptors
        descriptors = {site: listed.get(site) for site in dispatch.backends()}
        violations = dispatch.validate_against(descriptors)
        if violations:
            raise DispatchValidationError(violations)

        # Pre-flight passed, so every backend has a descriptor.
        context = dict(policy_context or {})
        context.setdefault("backend_info", {}).update(
            {
                f"{provider_id}/{backend_name}": {
                    "is_ideal_simulator": d.is_ideal_simulator,
                    "online": d.online,
                    "max_qubits": d.max_qubits,
                }
                for (provider_id, backend_name), d in descriptors.items()
            }
        )
        collector = ResultCollector(
            dispatch, merge_policy=merge_policy or None, merge_fn=merge_fn, policy_context=context
        )

        specs = {site: dispatch.jobs_for(*site) for site in dispatch.backends()}
        if specs:
            args = (specs, parallel, base_seed, collector)
            threading.Thread(target=self._drive, args=args, name="qexec-run").start()
        if wait:
            collector.wait()
        return collector

    def _list(self, sites: list[tuple[str, str]]) -> dict[tuple[str, str], BackendDescriptor | None]:
        """Each (provider_id, backend_name) site's descriptor, or None if its
        provider does not list it; each provider is listed once."""
        listed = {
            (provider_id, d.backend_name): d
            for provider_id in dict.fromkeys(provider_id for provider_id, _ in sites)
            for d in self.virtual_provider.list_backends(provider_id)
        }
        return {site: listed.get(site) for site in sites}

    def _drive(self, specs: dict, parallel: bool, base_seed: int, collector: ResultCollector) -> None:
        """Submit each backend's jobs in canonical order: all at once when
        parallel, else each once every job of the one before is terminal.
        Pending jobs are kept by provider, in submission order. Each poll reads
        a provider's pending jobs in one status_batch call and hands its RUNNING
        and DONE statuses to the collector in one call (see _record). Between
        polls the driver waits through VirtualProvider.wait on the
        earliest-submitted provider with pending jobs, with an interval that
        restarts after progress and otherwise grows to MAX_WAIT. A fault fails the jobs of the call that raised, once
        each: a backend's jobs if its submit raised, and a provider's pending
        jobs if its read, the recording of that read, or its wait raised."""
        queued = list(specs)
        pending: dict[str, dict[int, str]] = {}  # provider id -> {ordinal: job id}
        interval = _POLL_INITIAL
        while queued or pending:
            progress = False
            while queued and (parallel or not pending):
                site, progress = queued.pop(0), True
                try:
                    if jobs := self._submit(site, specs[site], base_seed, collector):
                        pending.setdefault(site[0], {}).update(jobs)
                except Exception as exc:
                    _fail(collector, [spec.ordinal for spec in specs[site]], exc)
            for provider_id, jobs in pending.items():
                try:
                    statuses = self.virtual_provider.status_batch(provider_id, list(jobs.values()))
                    progress |= _record(collector, jobs, statuses)
                except Exception as exc:
                    _fail(collector, jobs, exc)
                    jobs.clear()
            pending = {provider_id: jobs for provider_id, jobs in pending.items() if jobs}
            if pending:
                interval = _POLL_INITIAL if progress else min(interval * 1.5, MAX_WAIT)
                provider_id = next(iter(pending))
                try:
                    self.virtual_provider.wait(provider_id, interval)
                except Exception as exc:  # none of this provider's jobs can end
                    _fail(collector, pending.pop(provider_id), exc)

    def _submit(self, site, specs, base_seed: int, collector: ResultCollector) -> dict[int, str]:
        """Submit a backend's ``(circuit, shots, seed)`` jobs in one batch and
        record each outcome; returns the job id of each job accepted, by
        ordinal. A fault in the batch call, or a base_seed that cannot be added
        to an ordinal, raises, and the driver fails the backend's jobs with
        its message."""
        jobs = [(spec.circuit, spec.shots, base_seed + spec.ordinal) for spec in specs]
        outcomes = self.virtual_provider.submit_batch(*site, jobs)
        accepted: dict[int, str] = {}
        for spec, outcome in zip(specs, outcomes):
            if isinstance(outcome, Exception):
                collector.record_failed(spec.ordinal, str(outcome))
            else:
                accepted[spec.ordinal] = outcome
        return accepted


def _record(collector: ResultCollector, jobs: dict[int, str], statuses: list) -> bool:
    """Record a poll's status of each of a provider's pending jobs, in order:
    the RUNNING and DONE ones in one record_statuses call, and each failure
    through record_failed. A malformed status raises once every status
    before it is recorded. A job leaves ``jobs`` only once its terminal
    state is recorded; True if one did."""
    updates: list[tuple[int, JobStatus]] = []
    ended: list[int] = []
    try:
        for ordinal, status in zip(jobs, statuses):
            state = status.state
            if state is JobState.RUNNING:
                updates.append((ordinal, status))
            elif state is JobState.DONE and status.counts is not None:
                updates.append((ordinal, status))
                ended.append(ordinal)
            elif state.terminal:
                if state is JobState.FAILED:
                    message = status.error_message or "job failed"
                else:
                    message = "adapter reported DONE without counts"
                collector.record_failed(ordinal, message)
                ended.append(ordinal)
    finally:
        collector.record_statuses(updates)
        for ordinal in ended:
            del jobs[ordinal]
    return bool(ended)


def _fail(collector: ResultCollector, ordinals: Iterable[int], exc: Exception) -> None:
    """Record each of ``ordinals``, jobs with no terminal record, as failed
    with the fault's message."""
    logger.debug("jobs of run %s failed", collector.run_id, exc_info=exc)
    for ordinal in ordinals:
        collector.record_failed(ordinal, str(exc))
