"""Split and merge policies, plus the runtime policy registry.

Split policies turn (circuits, shots, targets) into a Dispatch; merge
policies reduce a completed result tree to an experiment-level value.
Policies are plain in-process callables registered by name, so users can
encode domain logic without touching the engine. Built-ins: split
{multiplier, even}, merge {sum, tvd}.

Merge policy contract: ``fn(results, context) -> (merged, metadata)`` where
``results`` is the plain nested dict {provider: {backend: [counts, ...]}}
and ``context`` is a key/value map (the run's policy context, enriched by
the executor with "backend_info" descriptor data).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

from .circuit import Circuit
from .dispatch import Dispatch
from .errors import DuplicatePolicyError, MergeError, PolicyError, UnknownPolicyError

__all__ = [
    "split_multiplier",
    "split_even",
    "merge_sum",
    "tvd",
    "merge_tvd",
    "PolicyRegistry",
]

SplitPolicyFn = Callable[[list, int, list, Any], Dispatch]
MergePolicyFn = Callable[[dict, Mapping[str, Any]], tuple[Any, dict]]


# --------------------------------------------------------------------------
# Built-in split policies
# --------------------------------------------------------------------------


def split_multiplier(
    circuits: list[Circuit],
    shots: int,
    targets: list[tuple[str, str]],
    options: Mapping[str, Any] | None = None,
) -> Dispatch:
    """Every circuit runs with the full shot count on every target.

    total_jobs = len(circuits) * len(targets); total_shots multiplies the same way.
    """
    if shots < 1:
        raise PolicyError(f"shots must be >= 1, got {shots}")
    if circuits and not targets:
        raise PolicyError("multiplier split has circuits but no targets")
    dispatch = Dispatch()
    for circuit in circuits:
        for provider_id, backend_name in targets:
            dispatch.add_job(provider_id, backend_name, circuit, shots)
    return dispatch


def split_even(
    circuits: list[Circuit],
    shots: int,
    targets: list[tuple[str, str]],
    options: Mapping[str, Any] | None = None,
) -> Dispatch:
    """Partition each circuit's shots evenly across the targets.

    Each target gets floor(shots/n); the remainder r goes one extra shot to
    the first r targets in canonical (provider, backend) order. Targets
    allotted 0 shots get no job, so per-circuit totals are conserved exactly.
    """
    if shots < 1:
        raise PolicyError(f"shots must be >= 1, got {shots}")
    if not targets:
        raise PolicyError("even split requires at least one target")
    ordered = sorted(targets)
    base, remainder = divmod(shots, len(ordered))
    dispatch = Dispatch()
    for circuit in circuits:
        for i, (provider_id, backend_name) in enumerate(ordered):
            allotted = base + (1 if i < remainder else 0)
            if allotted > 0:
                dispatch.add_job(provider_id, backend_name, circuit, allotted)
    return dispatch


# --------------------------------------------------------------------------
# Built-in merge policies
# --------------------------------------------------------------------------


def merge_sum(
    results: dict, context: Mapping[str, Any] | None = None
) -> tuple[dict[str, int], dict]:
    """Element-wise sum of every counts histogram in the tree."""
    merged: dict[str, int] = {}
    jobs = 0
    key_width: int | None = None
    for provider_id in sorted(results):
        for backend_name in sorted(results[provider_id]):
            for counts in results[provider_id][backend_name]:
                jobs += 1
                for bitstring, count in counts.items():
                    if key_width is None:
                        key_width = len(bitstring)
                    elif len(bitstring) != key_width:
                        raise MergeError(
                            f"inconsistent bitstring widths: {len(bitstring)} vs {key_width}"
                        )
                    merged[bitstring] = merged.get(bitstring, 0) + count
    return merged, {"jobs": jobs}


def tvd(p: dict[str, int], q: dict[str, int]) -> float:
    """Total variation distance between two count histograms.

    Each histogram is normalized to a probability distribution over the
    union of keys; the result is half the L1 distance, in [0, 1].
    """
    p_total = sum(p.values()) if p else 0
    q_total = sum(q.values()) if q else 0
    if p_total <= 0 or q_total <= 0:
        raise MergeError("tvd requires two non-empty histograms")
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0) / p_total - q.get(k, 0) / q_total) for k in keys)


def merge_tvd(results: dict, context: Mapping[str, Any] | None = None) -> tuple[dict[str, float], dict]:
    """TVD of every backend's counts against a reference backend's.

    The reference is context["reference"] = "provider/backend" when given;
    otherwise the unique backend flagged is_ideal_simulator in
    context["backend_info"]. Output keys are "provider/backend". Each
    backend must hold exactly one run: a tree with several circuits per
    backend raises MergeError rather than comparing only the first.
    """
    context = context or {}
    for provider_id in sorted(results):
        for backend_name in sorted(results[provider_id]):
            runs = len(results[provider_id][backend_name])
            if runs > 1:
                raise MergeError(
                    f"tvd merge compares one run per backend; {provider_id}/{backend_name} has {runs}"
                )
    ref_provider, ref_backend = _resolve_reference(results, context)
    reference_counts = results[ref_provider][ref_backend][0]

    distances: dict[str, float] = {}
    for provider_id in sorted(results):
        for backend_name in sorted(results[provider_id]):
            if (provider_id, backend_name) == (ref_provider, ref_backend):
                continue
            runs = results[provider_id][backend_name]
            distances[f"{provider_id}/{backend_name}"] = tvd(runs[0], reference_counts)
    return distances, {"reference": f"{ref_provider}/{ref_backend}"}


def _resolve_reference(results: dict, context: Mapping[str, Any]) -> tuple[str, str]:
    explicit = context.get("reference")
    if explicit:
        provider_id, _, backend_name = str(explicit).partition("/")
        if not results.get(provider_id, {}).get(backend_name):
            raise MergeError(f"reference backend {explicit!r} has no results")
        return provider_id, backend_name

    backend_info = context.get("backend_info", {})
    ideal = [
        (provider_id, backend_name)
        for provider_id in sorted(results)
        for backend_name in sorted(results[provider_id])
        if backend_info.get(f"{provider_id}/{backend_name}", {}).get("is_ideal_simulator")
    ]
    if not ideal:
        raise MergeError("no reference: set context['reference'] or include an ideal simulator")
    if len(ideal) > 1:
        names = ", ".join(f"{p}/{b}" for p, b in ideal)
        raise MergeError(f"ambiguous reference, multiple ideal simulators: {names}")
    return ideal[0]


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


class PolicyRegistry:
    """Named split and merge policies; built-ins are pre-registered.

    register(name, *, split_policy=None, merge_policy=None) is the one way
    to add a policy, and QuantumExecutor.add_policy calls it. Reads are
    concurrent. register checks the name against the table of each policy
    given and inserts under one hold of the lock, so a name taken for either
    leaves neither registered.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._split: dict[str, SplitPolicyFn] = {
            "multiplier": split_multiplier,
            "even": split_even,
        }
        self._merge: dict[str, MergePolicyFn] = {
            "sum": merge_sum,
            "tvd": merge_tvd,
        }

    def register(
        self,
        name: str,
        *,
        split_policy: SplitPolicyFn | None = None,
        merge_policy: MergePolicyFn | None = None,
    ) -> "PolicyRegistry":
        """Register a split policy, a merge policy or both under one name:
        register("spread", split_policy=fn), register("median", merge_policy=fn)."""
        tables = (("split", self._split, split_policy), ("merge", self._merge, merge_policy))
        given = [(label, table, fn) for label, table, fn in tables if fn is not None]
        if not given:
            raise PolicyError("register needs split_policy=, merge_policy= or both")
        with self._lock:
            for label, table, _ in given:
                if name in table:
                    raise DuplicatePolicyError(f"{label} policy {name!r} already registered")
            for _, table, fn in given:
                table[name] = fn
        return self

    def resolve_split(self, name: str) -> SplitPolicyFn:
        try:
            return self._split[name]
        except KeyError:
            raise UnknownPolicyError(f"unknown split policy {name!r}") from None

    def resolve_merge(self, name: str) -> MergePolicyFn:
        try:
            return self._merge[name]
        except KeyError:
            raise UnknownPolicyError(f"unknown merge policy {name!r}") from None

    def split_names(self) -> list[str]:
        return sorted(self._split)

    def merge_names(self) -> list[str]:
        return sorted(self._merge)
