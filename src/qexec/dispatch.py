"""The dispatch plan: an ordered assignment of circuits to targets.

A Dispatch is a value, not a live run: it separates planning from execution,
does no provider I/O and serializes to JSON for the CLI run store. Canonical
iteration order is providers lexicographic, backends lexicographic, jobs by
insertion; every module that flattens a dispatch (seeding, result trees,
tables) uses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping

from .circuit import Circuit, parse_qasm, serialize_qasm
from .errors import BackendOfflineError, CircuitError, DispatchError
from .providers import BackendDescriptor, check_shots

__all__ = ["JobSpec", "Dispatch"]


@dataclass
class JobSpec:
    """One planned job: its circuit and shot count.

    ``ordinal`` is the job's 0-based position in the canonical flattened
    order over the whole dispatch; the first jobs() or jobs_for() after an
    add_job renumbers, so ordinals read through them are exactly 0..N-1.
    The run gives the job the seed base_seed + ordinal.
    """

    circuit: Circuit
    shots: int
    ordinal: int = -1


class Dispatch:
    """Ordered assignment provider_id -> backend_name -> list of JobSpec."""

    def __init__(self):
        self._assignments: dict[str, dict[str, list[JobSpec]]] = {}
        self._numbered = True

    def add_job(self, provider_id: str, backend_name: str, circuit: Circuit, shots: int) -> "Dispatch":
        """Append a job to that backend's list; duplicates are legal (repeat runs)."""
        check_shots(shots)
        backend_jobs = self._assignments.setdefault(provider_id, {}).setdefault(backend_name, [])
        backend_jobs.append(JobSpec(circuit, shots))
        self._numbered = False
        return self

    def _number(self) -> None:
        if not self._numbered:
            self._numbered = True  # first, so the jobs() below does not recurse
            for ordinal, (_, _, spec) in enumerate(self.jobs()):
                spec.ordinal = ordinal

    def jobs(self) -> Iterator[tuple[str, str, JobSpec]]:
        """(provider_id, backend_name, spec) in canonical order."""
        self._number()
        return (
            (provider_id, backend_name, spec)
            for provider_id, backend_name in self.backends()
            for spec in self._assignments[provider_id][backend_name]
        )

    def backends(self) -> list[tuple[str, str]]:
        """Distinct (provider_id, backend_name) targets in canonical order."""
        return [
            (provider_id, backend_name)
            for provider_id in sorted(self._assignments)
            for backend_name in sorted(self._assignments[provider_id])
        ]

    def jobs_for(self, provider_id: str, backend_name: str) -> list[JobSpec]:
        self._number()
        return list(self._assignments.get(provider_id, {}).get(backend_name, []))

    def total_jobs(self) -> int:
        return sum(1 for _ in self.jobs())

    def total_shots(self) -> int:
        return sum(spec.shots for _, _, spec in self.jobs())

    def validate_against(
        self, descriptors: Mapping[tuple[str, str], BackendDescriptor | None]
    ) -> list[str]:
        """Pre-flight check against the descriptors a run looked up, keyed by
        (provider_id, backend_name); nothing is submitted.

        Reports each distinct backend once if it has no descriptor, else each
        job's BackendDescriptor.check failure, as readable strings.
        """
        violations: list[str] = []
        for provider_id, backend_name in self.backends():
            descriptor = descriptors.get((provider_id, backend_name))
            if descriptor is None:
                violations.append(f"unknown backend {provider_id}/{backend_name}")
                continue
            for spec in self._assignments[provider_id][backend_name]:
                try:
                    descriptor.check(spec.circuit)
                except (BackendOfflineError, CircuitError) as exc:
                    violations.append(str(exc))
        return violations

    def to_dict(self) -> dict:
        """JSON-ready form {"circuits": [qasm, ...], "jobs": {provider: {backend:
        [{circuit, shots}]}}}, canonically ordered. ``circuit`` indexes
        ``circuits``, which holds each Circuit object once, in first-use order,
        however many jobs run it."""
        circuits: list[str] = []
        index: dict[int, int] = {}  # id(circuit) -> position; every circuit outlives the loop
        jobs: dict[str, dict[str, list[dict]]] = {}
        for provider_id, backend_name, spec in self.jobs():
            key = id(spec.circuit)
            if key not in index:
                index[key] = len(circuits)
                circuits.append(serialize_qasm(spec.circuit))
            jobs.setdefault(provider_id, {}).setdefault(backend_name, []).append(
                {"circuit": index[key], "shots": spec.shots}
            )
        return {"circuits": circuits, "jobs": jobs}

    def to_json(self) -> str:
        """to_dict as compact JSON with sorted keys, which CPython's C encoder writes."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Dispatch":
        """The dispatch of a to_dict form; the jobs that share a circuit index
        share one parsed Circuit. DispatchError for an index that is not a
        position in ``circuits``. A job entry's other keys, such as the
        ``options`` that older records hold, are not read."""
        circuits = [parse_qasm(text) for text in data["circuits"]]
        jobs = data["jobs"]
        dispatch = cls()
        for provider_id in sorted(jobs):
            for backend_name in sorted(jobs[provider_id]):
                for entry in jobs[provider_id][backend_name]:
                    index = entry["circuit"]
                    # A bool is an int to Python, and a negative index would
                    # count from the end.
                    if type(index) is not int or not 0 <= index < len(circuits):
                        raise DispatchError(
                            f"job of {provider_id}/{backend_name}: circuit {index!r} is not "
                            f"an index into the {len(circuits)} circuits"
                        )
                    dispatch.add_job(provider_id, backend_name, circuits[index], entry["shots"])
        return dispatch

    @classmethod
    def from_json(cls, text: str) -> "Dispatch":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dispatch):
            return NotImplemented
        mine = [(p, b, s.circuit, s.shots, s.ordinal) for p, b, s in self.jobs()]
        theirs = [(p, b, s.circuit, s.shots, s.ordinal) for p, b, s in other.jobs()]
        return mine == theirs

    def __repr__(self) -> str:
        return f"Dispatch(jobs={self.total_jobs()}, shots={self.total_shots()})"
