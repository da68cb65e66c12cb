"""Run-lifecycle tracking and result aggregation.

The collector is the live handle a run returns: the run's driver thread
writes job completions into it while user threads poll status(), fetch
partial or blocking result trees, and (once terminal) apply the run's merge
policy.

A ResultTree is the plain nested dict {provider: {backend: [counts, ...]}}
with list order equal to dispatch job order for that backend. Partial trees
simply omit unfinished jobs (no placeholders): consumers distinguish
"pending" via status(), which maps each ordinal to its state and error
message and copies no counts; only get_results() returns counts, and each
call returns copies. FAILED jobs never contribute counts and never abort
the run; they surface in status() and in merge metadata under "failed_jobs".
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Iterable

from .dispatch import Dispatch
from .errors import CollectorError, MergeError, ResultTimeoutError
from .providers import JobState, JobStatus, JobTable

__all__ = ["ResultCollector", "to_table", "tree_to_json"]


class ResultCollector:
    """Tracks every job of one run and aggregates outputs.

    The run's driver thread records every change of a job's state through
    record_statuses, many jobs under one hold of the lock; a job's first
    terminal state wins. Readers may call status() for each job's state
    and get_results() for the counts, from any thread at any time. Blocking
    retrieval parks on a condition variable, never busy-waits.
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

    def record_statuses(self, updates: Iterable[tuple[int, JobStatus]]) -> list[int]:
        """Record each ``(ordinal, status)``, in order, under one hold of the
        table's lock, and return the ordinals of the jobs it ended: a RUNNING
        status upgrades its job, and a terminal one ends it unless it has
        already ended. A DONE status must carry counts, which the collector
        keeps as given."""
        return self._table.set_statuses(updates)

    # -- reader side -------------------------------------------------------

    def is_terminal(self) -> bool:
        return self.finished_at is not None

    def status(self) -> dict[int, tuple[JobState, str | None]]:
        """Non-blocking snapshot, ordinal -> (state, error message or None),
        read under one hold of the lock; no counts are copied."""
        return self._table.states()

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
