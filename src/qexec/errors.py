"""Exception hierarchy for qexec.

Everything raised on purpose by this package derives from QExecError, so
callers can catch one type at the orchestration boundary. A Circuit raises
CircuitError when it is built; the pre-flight check
(dispatch.validate_against) reports violations as values instead of raising.
"""

from __future__ import annotations


class QExecError(Exception):
    """Base class for all qexec errors."""


class QasmError(QExecError):
    """OpenQASM parse failure, with 1-based source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.message = message
        self.line = line
        self.column = column


class CircuitError(QExecError):
    """A circuit violates its invariants or a resource guard (e.g. width limit)."""


class ProviderError(QExecError):
    """Base for virtual-provider registry errors."""


class DuplicateProviderError(ProviderError):
    """A provider_id was registered twice."""


class ProviderConfigError(ProviderError):
    """ProviderConfig is malformed for its kind (missing endpoint, noise, ...)."""


class UnknownBackendError(ProviderError):
    """Provider or backend name does not resolve in the registry."""


class BackendOfflineError(ProviderError):
    """The target backend is currently offline (BackendDescriptor.check)."""


class UnknownJobError(ProviderError):
    """No adapter issued this job: unknown provider_id or job_id."""


class PolicyError(QExecError):
    """Base for policy registry and policy execution errors."""


class DuplicatePolicyError(PolicyError):
    """Policy name already registered for that kind (built-ins included)."""


class UnknownPolicyError(PolicyError):
    """No policy registered under the requested name."""


class MergeError(PolicyError):
    """A merge policy cannot be applied (bad reference, empty histogram, ...)."""


class DispatchError(QExecError):
    """A job whose shots are not an integer >= 1, added to a dispatch or submitted,
    or a stored dispatch job whose circuit index names no circuit."""


class DispatchValidationError(QExecError):
    """Pre-flight dispatch validation failed; nothing was submitted."""

    def __init__(self, violations: list[str]):
        super().__init__("dispatch validation failed: " + "; ".join(violations))
        self.violations = violations


class CollectorError(QExecError):
    """Result collector misuse (merge before terminal, no merge policy, ...)."""


class ResultTimeoutError(CollectorError):
    """Blocking retrieval timed out; .partial holds the tree collected so far."""

    def __init__(self, message: str, partial: dict):
        super().__init__(message)
        self.partial = partial


class ExperimentError(QExecError):
    """Invalid experiment specification (unknown policy, foreign targets, ...)."""
