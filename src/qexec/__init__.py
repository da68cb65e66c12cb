"""qexec: backend-agnostic execution engine for quantum experiments.

Declare an experiment once; the engine splits it into jobs via pluggable
split policies, runs them synchronously or asynchronously across local
simulators, mock devices, and remote services, and aggregates the results
via pluggable merge policies behind one result interface.
"""

from .circuit import Circuit, Gate, GateOp, parse_qasm, serialize_qasm
from .collector import ResultCollector, RunState, to_table, tree_to_json
from .dispatch import Dispatch, JobSpec
from .executor import ExperimentSpec, QuantumExecutor
from .policies import (
    PolicyRegistry,
    merge_sum,
    merge_tvd,
    split_even,
    split_multiplier,
    tvd,
)
from .providers import (
    BackendDescriptor,
    JobHandle,
    JobState,
    JobStatus,
    ProviderConfig,
    VirtualProvider,
)
from .simulator import NoiseSpec, Statevector, sample, sample_noisy, statevector

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Gate",
    "GateOp",
    "parse_qasm",
    "serialize_qasm",
    "NoiseSpec",
    "Statevector",
    "statevector",
    "sample",
    "sample_noisy",
    "Dispatch",
    "JobSpec",
    "PolicyRegistry",
    "split_multiplier",
    "split_even",
    "merge_sum",
    "merge_tvd",
    "tvd",
    "BackendDescriptor",
    "ProviderConfig",
    "VirtualProvider",
    "JobHandle",
    "JobState",
    "JobStatus",
    "ResultCollector",
    "RunState",
    "to_table",
    "tree_to_json",
    "ExperimentSpec",
    "QuantumExecutor",
]
