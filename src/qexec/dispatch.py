"""The dispatch plan: an ordered assignment of circuits to targets.

A Dispatch is a value, not a live run: it separates planning from execution,
does no provider I/O and serializes to JSON for the CLI run store. Canonical
iteration order is providers lexicographic, backends lexicographic, jobs by
insertion; every module that flattens a dispatch (seeding, result trees,
tables) uses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from .circuit import Circuit, parse_qasm, serialize_qasm
from .errors import BackendOfflineError, CircuitError
from .providers import BackendDescriptor, check_shots

__all__ = ["JobSpec", "Dispatch"]


@dataclass
class JobSpec:
    """One planned job: circuit, shot count, backend-specific options.

    ``ordinal`` is the job's 0-based position in the canonical flattened
    order over the whole dispatch; the first jobs() or jobs_for() after an
    add_job renumbers, so ordinals read through them are exactly 0..N-1.
    """

    circuit: Circuit
    shots: int
    options: dict[str, Any] = field(default_factory=dict)
    ordinal: int = -1


class Dispatch:
    """Ordered assignment provider_id -> backend_name -> list of JobSpec."""

    def __init__(self):
        self._assignments: dict[str, dict[str, list[JobSpec]]] = {}
        self._numbered = True

    def add_job(
        self,
        provider_id: str,
        backend_name: str,
        circuit: Circuit,
        shots: int,
        options: dict[str, Any] | None = None,
    ) -> "Dispatch":
        """Append a job to that backend's list; duplicates are legal (repeat runs)."""
        check_shots(shots)
        backend_jobs = self._assignments.setdefault(provider_id, {}).setdefault(backend_name, [])
        backend_jobs.append(JobSpec(circuit=circuit, shots=shots, options=dict(options or {})))
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
        """JSON-ready form {provider: {backend: [{qasm, shots, options}]}}, canonically
        ordered. Each Circuit object is serialized once, however many jobs run it."""
        out: dict[str, dict[str, list[dict]]] = {}
        qasm: dict[int, str] = {}  # id(circuit) -> text; every circuit outlives the loop
        for provider_id, backend_name, spec in self.jobs():
            key = id(spec.circuit)
            if key not in qasm:
                qasm[key] = serialize_qasm(spec.circuit)
            out.setdefault(provider_id, {}).setdefault(backend_name, []).append(
                {
                    "qasm": qasm[key],
                    "shots": spec.shots,
                    "options": dict(spec.options),
                }
            )
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Dispatch":
        dispatch = cls()
        for provider_id in sorted(data):
            for backend_name in sorted(data[provider_id]):
                for entry in data[provider_id][backend_name]:
                    dispatch.add_job(
                        provider_id,
                        backend_name,
                        parse_qasm(entry["qasm"]),
                        entry["shots"],
                        entry.get("options") or {},
                    )
        return dispatch

    @classmethod
    def from_json(cls, text: str) -> "Dispatch":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dispatch):
            return NotImplemented
        mine = [(p, b, s.circuit, s.shots, s.options, s.ordinal) for p, b, s in self.jobs()]
        theirs = [(p, b, s.circuit, s.shots, s.options, s.ordinal) for p, b, s in other.jobs()]
        return mine == theirs

    def __repr__(self) -> str:
        return f"Dispatch(jobs={self.total_jobs()}, shots={self.total_shots()})"
