"""Client for the qexec remote job service: the ``remote_http`` provider kind.

This is the only module that imports requests. providers._build_adapter
imports it when it builds the first ``remote_http`` provider, so the job
service, ``import qexec`` and a run whose providers are all local never load
an HTTP client.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import replace
from typing import Any, Sequence

import requests
from requests.adapters import HTTPAdapter, Retry

from . import providers
from .errors import ProviderError, QExecError, UnknownBackendError
from .providers import (
    MAX_BATCH_JOBS,
    BackendDescriptor,
    JobState,
    JobStatus,
    ProviderConfig,
)
from .simulator import MAX_WIDTH_DEFAULT

__all__ = ["RemoteHttpAdapter"]

logger = logging.getLogger(__name__)

# A request that never reached the service (a connect error) is retried
# whatever its method. Once a request may have arrived, only a GET is resent:
# a resent POST /jobs could run its job twice.
_RETRY = Retry(total=2, backoff_factor=0.05, allowed_methods={"GET"})
_TIMEOUT = 10.0  # seconds, for each request to the service


class RemoteHttpAdapter:
    """Client for the qexec remote job service wire protocol.

    One session keeps its connections to the service open. The proxies for
    the endpoint, the CA bundle and netrc auth are read from the environment
    once, here, rather than by requests on every call.
    """

    def __init__(self, config: ProviderConfig):
        self.provider_id = config.provider_id
        self._endpoint = (config.endpoint or "").rstrip("/")
        self._session = requests.Session()
        retrying = HTTPAdapter(max_retries=_RETRY)
        self._session.mount("http://", retrying)
        self._session.mount("https://", retrying)
        settings = self._session.merge_environment_settings(self._endpoint, {}, None, None, None)
        self._session.proxies = settings["proxies"]
        self._session.verify = settings["verify"]
        self._session.auth = requests.utils.get_netrc_auth(self._endpoint)
        self._session.trust_env = False
        api_key = config.credentials.get("api_key")
        if api_key:
            self._session.headers["X-API-Key"] = api_key
        self._lock = threading.Lock()
        self._last_known: list[BackendDescriptor] = []

    def backends(self) -> list[BackendDescriptor]:
        try:
            response = self._session.get(f"{self._endpoint}/backends", timeout=_TIMEOUT)
            response.raise_for_status()
            descriptors = [_wire_descriptor(self.provider_id, entry) for entry in response.json()]
        except Exception as exc:
            # A failed or malformed discovery degrades to offline instead of
            # raising, so one dead provider cannot break an all-backends sweep.
            logger.debug("discovery failed for %s: %s", self.provider_id, exc)
            with self._lock:
                return [replace(d, online=False) for d in self._last_known]
        with self._lock:
            self._last_known = descriptors
        return descriptors

    def submit(self, backend_name: str, jobs: Sequence[tuple]) -> list[str | QExecError]:
        """Post the ``(circuit, shots, seed)`` jobs, at most MAX_BATCH_JOBS a
        request, and return each job's id or the error that refused it. A
        fault of a whole request fails each of its jobs once, with its message."""
        return _in_batches(jobs, lambda batch: self._post_jobs(backend_name, batch))

    def _post_jobs(self, backend_name: str, jobs: Sequence[tuple]) -> list[str | QExecError]:
        # Looked up through providers, where a tracer may wrap the name.
        serialize_qasm = providers.serialize_qasm
        body = {
            "backend": backend_name,
            "jobs": [
                {"qasm": serialize_qasm(circuit), "shots": shots, "seed": seed}
                for circuit, shots, seed in jobs
            ],
        }
        try:
            response = self._session.post(f"{self._endpoint}/jobs", json=body, timeout=_TIMEOUT)
        except requests.RequestException as exc:
            return [ProviderError(f"remote submission failed: {exc}")] * len(jobs)
        if response.status_code == 404:
            return [UnknownBackendError(f"remote backend {backend_name!r} not found")] * len(jobs)
        if response.status_code != 201:
            code, text = response.status_code, response.text
            return [ProviderError(f"remote submission rejected ({code}): {text}")] * len(jobs)
        try:
            entries = _wire_list(response.json(), len(jobs))
            return [
                str(entry["job_id"])
                if "job_id" in entry
                else ProviderError(f"remote submission rejected: {entry['error']}")
                for entry in entries
            ]
        except (ValueError, KeyError, TypeError) as exc:
            return [ProviderError(f"malformed submission response: {exc}")] * len(jobs)

    def status(self, job_ids: Sequence[str]) -> list[JobStatus]:
        """Each job's status, read with GET /jobs?ids=, at most MAX_BATCH_JOBS
        ids a request. A job the service does not know is FAILED."""
        return _in_batches(job_ids, self._get_jobs)

    def wait(self, interval: float) -> None:
        """Sleep for the interval: only a poll tells what the service has done."""
        time.sleep(interval)

    def _get_jobs(self, job_ids: Sequence[str]) -> list[JobStatus]:
        try:
            response = self._session.get(
                f"{self._endpoint}/jobs", params={"ids": ",".join(job_ids)}, timeout=_TIMEOUT
            )
            response.raise_for_status()
        except requests.RequestException as exc:
            return [JobStatus(JobState.FAILED, f"remote status check failed: {exc}")] * len(job_ids)
        try:
            entries = _wire_list(response.json(), len(job_ids))
        except (ValueError, KeyError, TypeError) as exc:
            return [JobStatus(JobState.FAILED, f"malformed status response: {exc}")] * len(job_ids)
        return [_wire_status(entry) for entry in entries]


def _in_batches(items: Sequence, call) -> list:
    """``call`` on each run of at most MAX_BATCH_JOBS items, its results joined."""
    step = MAX_BATCH_JOBS
    return [out for start in range(0, len(items), step) for out in call(items[start : start + step])]


def _wire_list(payload: Any, n: int) -> list[dict]:
    """The ``jobs`` list of a reply: one JSON object per job asked about."""
    entries = payload["jobs"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f"expected {n} job entries, got {entries!r}")
    if not all(isinstance(entry, dict) for entry in entries):
        raise ValueError(f"job entries must be JSON objects, got {entries!r}")
    return entries


def _wire_status(entry: dict) -> JobStatus:
    """One job's entry of GET /jobs?ids=; one with no state is a job the
    service does not know: it restarted and lost it."""
    if "state" not in entry:
        return JobStatus(JobState.FAILED, "remote job not found")
    try:
        state = JobState(entry["state"])
        counts = _wire_counts(entry["counts"]) if state is JobState.DONE else None
        return JobStatus(state, entry.get("error"), counts)
    except (ValueError, KeyError, TypeError) as exc:
        return JobStatus(JobState.FAILED, f"malformed status response: {exc}")


def _wire_counts(counts: Any) -> dict[str, int]:
    """A DONE job's counts as the service sent them: bitstring -> integer."""
    if not isinstance(counts, dict) or not all(
        isinstance(n, int) and not isinstance(n, bool) for n in counts.values()
    ):
        raise ValueError(f"counts must map bitstrings to integers, got {counts!r}")
    return counts


def _wire_descriptor(provider_id: str, entry: Any) -> BackendDescriptor:
    """One GET /backends entry; a field of the wrong JSON type makes it malformed."""
    name, online = entry["name"], entry.get("online", True)
    max_qubits = entry.get("max_qubits", MAX_WIDTH_DEFAULT)
    is_ideal = entry.get("is_ideal_simulator", False)
    # type(), not isinstance(): a JSON true decodes to a bool, and a bool is an int.
    if (type(name), type(online), type(max_qubits), type(is_ideal)) != (str, bool, int, bool):
        raise ValueError(f"listing entry has a field of the wrong type: {entry!r}")
    return BackendDescriptor(provider_id, name, online, max_qubits, is_ideal)
