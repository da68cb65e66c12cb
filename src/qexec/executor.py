"""The principal orchestrator: wires registry, policies, dispatch, collector.

Runs are declarative (run_experiment with an ExperimentSpec) or explicit
(run_dispatch with a pre-built Dispatch). Either way, execution runs in
lanes. A lane is a worker thread that takes its backends in canonical order
and, for each, submits all its jobs in one batch call and then reads all its
pending jobs in one call per poll until none is pending. Between two polls
the lane waits through the registry, and the provider's adapter decides
how: an in-process provider's runner blocks on its job table until its last
pending job ends, so the lane wakes once its jobs are done, and a remote
adapter sleeps for the lane's poll interval. Parallel runs give each backend
a lane of its own; serial runs use one lane for all. Which jobs actually
overlap is the providers' decision, not the lanes': the in-process
simulators run every kernel on one worker per process, one at a time.
Job k's seed is base_seed + ordinal(k), making serial and parallel runs of
the same plan bit-identical on local simulators regardless of scheduling.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .circuit import Circuit
from .collector import ResultCollector
from .dispatch import Dispatch
from .errors import DispatchValidationError, ExperimentError, ProviderError, UnknownBackendError
from .policies import PolicyRegistry
from .providers import MAX_WAIT, JobState, JobStatus, ProviderConfig, VirtualProvider

__all__ = ["ExperimentSpec", "QuantumExecutor"]

logger = logging.getLogger(__name__)

_POLL_INITIAL = 0.002


@dataclass
class ExperimentSpec:
    """Declarative experiment: what to run, where, and under which policies."""

    circuits: list[Circuit] | Circuit
    shots: int
    backends: Mapping[str, list[str]]
    split_policy: str = "multiplier"
    merge_policy: str | None = None
    parallel: bool = True
    wait: bool = True
    base_seed: int = 0
    policy_context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.circuits, Circuit):
            self.circuits = [self.circuits]
        self.circuits = list(self.circuits)


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
        and backend resolution happens before anything is submitted.
        """
        if spec is None:
            spec = ExperimentSpec(**kwargs)
        split_fn = self.policies.resolve_split(spec.split_policy)

        targets: list[tuple[str, str]] = []
        for provider_id in sorted(spec.backends):
            for backend_name in sorted(spec.backends[provider_id]):
                if self.virtual_provider.find_backend(provider_id, backend_name) is None:
                    raise UnknownBackendError(f"unknown backend {provider_id}/{backend_name}")
                targets.append((provider_id, backend_name))

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
        )

    def run_dispatch(
        self,
        dispatch: Dispatch,
        parallel: bool = True,
        wait: bool = True,
        merge_policy: str | None = None,
        base_seed: int = 0,
        policy_context: Mapping[str, Any] | None = None,
    ) -> ResultCollector:
        """Submit every job of a dispatch that passes pre-flight and return the
        collector. Pre-flight and ``backend_info`` share one look-up per backend.

        parallel=True gives each backend a lane of its own, so that one
        backend's waits do not hold up another's; parallel=False runs every
        backend in one lane, one after another. In-process kernels run one
        at a time either way (see providers.JobRunner). wait=True blocks
        until the run is terminal, wait=False returns a live collector whose
        completion progresses in the background. merge_policy names a
        registered merge policy; None or "" means no merge.
        """
        merge_fn = self.policies.resolve_merge(merge_policy) if merge_policy else None
        if dispatch.total_jobs() > 0 and not self.virtual_provider.providers():
            raise ProviderError("no providers registered")
        descriptors = {t: self.virtual_provider.find_backend(*t) for t in dispatch.backends()}
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

        backends = [(p, b, dispatch.jobs_for(p, b)) for p, b in dispatch.backends()]
        lanes = [[b] for b in backends] if parallel else [backends]
        if backends:
            pool = ThreadPoolExecutor(max_workers=len(lanes), thread_name_prefix="qexec-lane")
            for lane in lanes:
                pool.submit(self._run_lane, lane, base_seed, collector)
            pool.shutdown(wait=False)
        if wait:
            collector.wait()
        return collector

    def _run_lane(self, backends: list[tuple], base_seed: int, collector: ResultCollector) -> None:
        """Run each backend's jobs to completion before the next backend's.

        The pool drops this method's result, so a fault that escapes a
        backend, such as an adapter status that is not a JobStatus, fails
        that backend's jobs not yet terminal, with the fault's message, rather
        than leave the run pending for ever; the lane goes on to the next."""
        for provider_id, backend_name, specs in backends:
            try:
                self._run_backend(provider_id, backend_name, specs, base_seed, collector)
            except Exception as exc:
                logger.debug("backend %s/%s of run %s failed", provider_id, backend_name,
                             collector.run_id, exc_info=True)
                statuses = collector.status()
                for spec in specs:
                    if not statuses[spec.ordinal].state.terminal:
                        collector.record_failed(spec.ordinal, str(exc))

    def _run_backend(
        self,
        provider_id: str,
        backend_name: str,
        specs: list,
        base_seed: int,
        collector: ResultCollector,
    ) -> None:
        """Submit this backend's jobs in one batch, then read every pending job
        in one call per poll and record each job's terminal status, counts and
        all, once. Between polls the lane waits through VirtualProvider.wait.
        The interval it passes restarts whenever a poll finds a job newly
        terminal, and otherwise grows; a remote adapter sleeps for it, while
        an in-process runner ignores it and returns once none of its jobs is
        pending, or after MAX_WAIT. A fault fails only the jobs it touched."""
        ordinals, jobs = [], []
        for spec in specs:
            try:
                options = {**spec.options, "seed": base_seed + spec.ordinal}
            except Exception as exc:
                collector.record_failed(spec.ordinal, str(exc))
                continue
            jobs.append((spec.circuit, spec.shots, options))
            ordinals.append(spec.ordinal)
        try:
            outcomes = self.virtual_provider.submit_batch(provider_id, backend_name, jobs)
        except Exception as exc:
            outcomes = [exc] * len(jobs)
        pending: dict[int, str] = {}
        for ordinal, outcome in zip(ordinals, outcomes):
            if isinstance(outcome, Exception):
                collector.record_failed(ordinal, str(outcome))
            else:
                collector.record_submitted(ordinal, outcome)
                pending[ordinal] = outcome.job_id

        interval = _POLL_INITIAL
        while pending:
            try:
                statuses = self.virtual_provider.status_batch(provider_id, list(pending.values()))
            except Exception as exc:
                statuses = [JobStatus(JobState.FAILED, str(exc))] * len(pending)
            finished = False
            for ordinal, status in zip(list(pending), statuses):
                if status.state.terminal:
                    del pending[ordinal]
                    finished = True
                    _record_terminal(collector, ordinal, status)
                else:
                    collector.record_status(ordinal, status)
            if pending:
                if finished:
                    interval = _POLL_INITIAL
                try:
                    self.virtual_provider.wait(provider_id, interval)
                except Exception as exc:  # the lane cannot wait, so no job of it ends
                    for ordinal in pending:
                        collector.record_failed(ordinal, str(exc))
                    return
                interval = min(interval * 1.5, MAX_WAIT)


def _record_terminal(collector: ResultCollector, ordinal: int, status: JobStatus) -> None:
    if status.state is JobState.FAILED:
        collector.record_failed(ordinal, status.error_message or "job failed")
    elif status.counts is None:
        collector.record_failed(ordinal, "adapter reported DONE without counts")
    else:
        collector.record_result(ordinal, status.counts)
