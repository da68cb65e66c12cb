"""Run-lifecycle tracking and result aggregation.

The collector is the live handle a run returns: executor workers write job
completions into it while user threads poll status(), fetch partial or
blocking result trees, and (once terminal) apply the run's merge policy.

A ResultTree is the plain nested dict {provider: {backend: [counts, ...]}}
with list order equal to dispatch job order for that backend. Partial trees
simply omit unfinished jobs (no placeholders): consumers distinguish
"pending" via status(). FAILED jobs never contribute counts and never abort
the run; they surface in status() and in merge metadata under "failed_jobs".
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass

from .dispatch import Dispatch
from .errors import CollectorError, MergeError, ResultTimeoutError
from .providers import JobHandle, JobState, JobStatus, JobTable

__all__ = ["ResultCollector", "RunState", "to_table", "tree_to_json"]


@dataclass(frozen=True)
class RunState:
    """Snapshot of a run: identity, per-job lifecycle, wall-clock bounds."""

    run_id: str
    jobs: tuple[tuple[int, JobHandle | None, JobStatus], ...]
    started_at: float
    finished_at: float | None

    @property
    def terminal(self) -> bool:
        return all(status.state.terminal for _, _, status in self.jobs)


class ResultCollector:
    """Tracks every job of one run and aggregates outputs.

    Writers (executor lanes) call the record_* methods; readers may call
    status()/get_results() from any thread at any time. Blocking retrieval
    parks on a condition variable, never busy-waits.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        merge_policy: str | None = None,
        merge_fn=None,
        policy_context: dict | None = None,
    ):
        self.run_id = uuid.uuid4().hex[:12]
        self.dispatch = dispatch
        self.merge_policy = merge_policy
        self._merge_fn = merge_fn
        self.policy_context = dict(policy_context or {})

        self._merge_lock = threading.Lock()
        self._handles: dict[int, JobHandle] = {}  # each ordinal written once, by its lane
        self._job_site: dict[int, tuple[str, str]] = {}
        for provider_id, backend_name, spec in dispatch.jobs():
            self._job_site[spec.ordinal] = (provider_id, backend_name)
        self._table = JobTable(self._job_site)
        self.started_at = time.time()
        self._merged: tuple | None = None

    @property
    def finished_at(self) -> float | None:
        """Wall-clock time the last job became terminal; None while any is pending."""
        return self._table.finished_at

    # -- writer side -------------------------------------------------------

    def record_submitted(self, ordinal: int, handle: JobHandle) -> None:
        self._handles[ordinal] = handle

    def record_status(self, ordinal: int, status: JobStatus) -> None:
        """Upgrade a job's observed non-terminal status; terminal states only
        ever enter through record_result/record_failed."""
        if status.state is JobState.RUNNING:
            self._table.set_running(ordinal)

    def record_result(self, ordinal: int, counts: dict[str, int]) -> None:
        self._table.set_done(ordinal, counts)

    def record_failed(self, ordinal: int, message: str) -> None:
        self._table.set_failed(ordinal, message)

    # -- reader side -------------------------------------------------------

    def is_terminal(self) -> bool:
        return self.finished_at is not None

    def status(self) -> dict[int, JobStatus]:
        """Non-blocking snapshot, ordinal -> JobStatus."""
        statuses, _ = self._table.snapshot()
        return statuses

    def states(self) -> dict[int, tuple[JobState, str | None]]:
        """Non-blocking snapshot, ordinal -> (state, error message): status()
        without the counts, so nothing is copied."""
        return self._table.states()

    def run_state(self) -> RunState:
        statuses, finished_at = self._table.snapshot()
        jobs = tuple(
            (ordinal, self._handles.get(ordinal), statuses[ordinal]) for ordinal in sorted(statuses)
        )
        return RunState(self.run_id, jobs, self.started_at, finished_at)

    def job_site(self, ordinal: int) -> tuple[str, str]:
        return self._job_site[ordinal]

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the run is terminal; returns False on timeout."""
        return self._table.wait(timeout)

    def get_results(self, block: bool = True, timeout: float | None = None) -> dict:
        """The result tree; blocking waits for the run to finish first.

        Non-blocking returns immediately with only DONE jobs' counts. On
        timeout the partial tree rides on the ResultTimeoutError.
        """
        if block:
            if not self.wait(timeout):
                raise ResultTimeoutError(
                    f"run {self.run_id} not terminal after {timeout}s", self._build_tree()
                )
        return self._build_tree()

    def _build_tree(self) -> dict:
        done = self._table.counts()
        tree: dict[str, dict[str, list[dict[str, int]]]] = {}
        for provider_id, backend_name, spec in self.dispatch.jobs():
            counts = done.get(spec.ordinal)
            if counts is not None:
                tree.setdefault(provider_id, {}).setdefault(backend_name, []).append(counts)
        return tree

    def failed_jobs(self) -> list[dict]:
        return [
            {
                "ordinal": ordinal,
                "provider": self._job_site[ordinal][0],
                "backend": self._job_site[ordinal][1],
                "error": error or "",
            }
            for ordinal, (state, error) in sorted(self._table.states().items())
            if state is JobState.FAILED
        ]

    def get_merged_results(self) -> tuple:
        """Apply the run's merge policy to the complete tree, exactly once."""
        with self._merge_lock:
            if self._merged is not None:
                return self._merged
            if not self.is_terminal():
                raise CollectorError("run is not terminal; merged results unavailable")
            if self._merge_fn is None:
                raise CollectorError("no merge policy configured for this run")
            tree = self._build_tree()
            try:
                merged, metadata = self._merge_fn(tree, self.policy_context)
            except MergeError:
                raise
            except Exception as exc:
                raise MergeError(f"merge policy {self.merge_policy!r} raised: {exc}") from exc
            metadata = dict(metadata or {})
            metadata["failed_jobs"] = self.failed_jobs()
            self._merged = (merged, metadata)
            return self._merged


def to_table(tree: dict) -> list[tuple[str, str, int, str, int]]:
    """Flatten a result tree to (provider, backend, job, bitstring, count) rows.

    Rows follow canonical dispatch order; bitstrings sort lexicographically
    within a job. The job column is the index within that backend's list.
    """
    rows: list[tuple[str, str, int, str, int]] = []
    for provider_id in sorted(tree):
        for backend_name in sorted(tree[provider_id]):
            for job_index, counts in enumerate(tree[provider_id][backend_name]):
                for bitstring in sorted(counts):
                    rows.append((provider_id, backend_name, job_index, bitstring, counts[bitstring]))
    return rows


def tree_to_json(tree: dict) -> str:
    """Canonical JSON form of a result tree: compact, with sorted keys."""
    return json.dumps(tree, sort_keys=True)
