"""qexec: backend-agnostic execution engine for quantum experiments.

Declare an experiment once; the engine splits it into jobs via pluggable
split policies, runs them synchronously or asynchronously across local
simulators, mock devices, and remote services, and aggregates the results
via pluggable merge policies behind one result interface.
"""

import importlib

# Each public name and the submodule that defines it. A name is imported
# from its submodule the first time it is read (PEP 562), so importing one
# submodule, such as qexec.server, loads only what that submodule needs.
_EXPORTS = {
    "Circuit": "circuit",
    "Gate": "circuit",
    "GateOp": "circuit",
    "parse_qasm": "circuit",
    "serialize_qasm": "circuit",
    "NoiseSpec": "simulator",
    "Statevector": "simulator",
    "statevector": "simulator",
    "sample": "simulator",
    "sample_noisy": "simulator",
    "Dispatch": "dispatch",
    "JobSpec": "dispatch",
    "PolicyRegistry": "policies",
    "split_multiplier": "policies",
    "split_even": "policies",
    "merge_sum": "policies",
    "merge_tvd": "policies",
    "tvd": "policies",
    "BackendDescriptor": "providers",
    "ProviderConfig": "providers",
    "VirtualProvider": "providers",
    "JobState": "providers",
    "JobStatus": "providers",
    "ResultCollector": "collector",
    "to_table": "collector",
    "tree_to_json": "collector",
    "ExperimentSpec": "executor",
    "QuantumExecutor": "executor",
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
