"""Local execution kernels: ideal statevector simulation and a noisy variant.

Bitstring convention (used everywhere in this package): qubit 0 is the
LEFTMOST character of a bitstring key, so basis-state index ``i`` of a
width-``w`` register corresponds to ``format(i, f"0{w}b")``.

The noisy kernel is Monte-Carlo trajectory sampling: per shot, after each
gate, each qubit the gate touched suffers with probability ``p`` a uniformly
random non-identity Pauli (X, Y, or Z). Both kernels are pure functions of
(circuit, shots, noise, seed) and stateless, so jobs can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateOp
from .errors import CircuitError

__all__ = ["MAX_WIDTH_DEFAULT", "NoiseSpec", "Statevector", "statevector", "sample", "sample_noisy"]

# ~16 MB of complex amplitudes; a desk-scale resource guard, overridable per call.
MAX_WIDTH_DEFAULT = 20

_SEED_SPACE = 1 << 64


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing noise strength applied after each gate, per touched qubit."""

    p_depolarizing: float

    def __post_init__(self):
        p = self.p_depolarizing
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ValueError(f"p_depolarizing must be a number, got {p!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_depolarizing must be in [0, 1], got {p}")


@dataclass(frozen=True)
class Statevector:
    """Exact amplitudes of a width-qubit register; length is 2**width."""

    width: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_FIXED_MATRICES = {
    Gate.H: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Gate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Gate.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    Gate.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
_PAULIS = (_FIXED_MATRICES[Gate.X], _FIXED_MATRICES[Gate.Y], _FIXED_MATRICES[Gate.Z])


def _rotation_matrix(gate: Gate, angle: float) -> np.ndarray:
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if gate is Gate.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate is Gate.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)


def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int, width: int) -> np.ndarray:
    left = 1 << qubit
    right = 1 << (width - qubit - 1)
    view = state.reshape(left, 2, right)
    return np.einsum("ab,ibj->iaj", matrix, view).reshape(-1)


def _apply_cx(state: np.ndarray, control: int, target: int, width: int) -> np.ndarray:
    arr = state.reshape((2,) * width).copy()
    idx: list = [slice(None)] * width
    idx[control] = 1
    target_axis = target - 1 if target > control else target
    arr[tuple(idx)] = np.flip(arr[tuple(idx)], axis=target_axis)
    return arr.reshape(-1)


def _apply_cz(state: np.ndarray, control: int, target: int, width: int) -> np.ndarray:
    arr = state.reshape((2,) * width).copy()
    idx: list = [slice(None)] * width
    idx[control] = 1
    idx[target] = 1
    arr[tuple(idx)] = -arr[tuple(idx)]
    return arr.reshape(-1)


def _apply_gate(state: np.ndarray, op: GateOp, width: int) -> np.ndarray:
    if op.gate is Gate.CX:
        return _apply_cx(state, op.qubits[0], op.qubits[1], width)
    if op.gate is Gate.CZ:
        return _apply_cz(state, op.qubits[0], op.qubits[1], width)
    if op.gate.takes_angle:
        matrix = _rotation_matrix(op.gate, op.angle)  # type: ignore[arg-type]
    else:
        matrix = _FIXED_MATRICES[op.gate]
    return _apply_single(state, matrix, op.qubits[0], width)


def _require_runnable(circuit: Circuit, max_width: int) -> None:
    if circuit.width > max_width:
        raise CircuitError(
            f"circuit {circuit.name!r} width {circuit.width} exceeds limit {max_width}"
        )


def _initial_state(width: int) -> np.ndarray:
    state = np.zeros(1 << width, dtype=complex)
    state[0] = 1.0
    return state


def _bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed) % _SEED_SPACE)


def statevector(circuit: Circuit, max_width: int = MAX_WIDTH_DEFAULT) -> Statevector:
    """Exact unitary evolution of |0...0> under the circuit's gate list."""
    _require_runnable(circuit, max_width)
    state = _initial_state(circuit.width)
    for op in circuit.gates:
        state = _apply_gate(state, op, circuit.width)
    return Statevector(width=circuit.width, amplitudes=state)


def sample(
    circuit: Circuit, shots: int, seed: int = 0, max_width: int = MAX_WIDTH_DEFAULT
) -> dict[str, int]:
    """Draw ``shots`` independent measure-all samples from the exact distribution.

    Returns a histogram bitstring -> count with counts summing to ``shots``;
    identical (circuit, shots, seed) always yields identical counts.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = statevector(circuit, max_width).probabilities()
    outcomes = _rng(seed).choice(probs.size, size=shots, p=probs)
    values, tallies = np.unique(outcomes, return_counts=True)
    return {_bitstring(int(v), circuit.width): int(t) for v, t in zip(values, tallies)}


def sample_noisy(
    circuit: Circuit,
    shots: int,
    noise: NoiseSpec,
    seed: int = 0,
    max_width: int = MAX_WIDTH_DEFAULT,
) -> dict[str, int]:
    """Monte-Carlo trajectory sampling under per-gate depolarizing injections.

    Per shot, after each gate, every qubit the gate touched suffers with
    probability ``noise.p_depolarizing`` a uniformly random Pauli from
    {X, Y, Z}. Deterministic under a fixed seed; a p=0 run matches the ideal
    distribution but not the ideal sampler's exact RNG stream.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    _require_runnable(circuit, max_width)
    p = noise.p_depolarizing
    width = circuit.width
    rng = _rng(seed)

    # Ideal state after each gate prefix; trajectories fast-forward along this
    # until their first injection, which keeps the per-shot cost proportional
    # to the noisy suffix only.
    prefixes = [_initial_state(width)]
    for op in circuit.gates:
        prefixes.append(_apply_gate(prefixes[-1], op, width))
    ideal_cumulative = np.cumsum(np.abs(prefixes[-1]) ** 2)

    # One injection slot per (gate, touched qubit), in execution order.
    n_slots = sum(len(op.qubits) for op in circuit.gates)

    tally = np.zeros(1 << width, dtype=np.int64)
    for _ in range(shots):
        hits = rng.random(n_slots) < p
        if not hits.any():
            cumulative = ideal_cumulative
        else:
            paulis = rng.integers(0, 3, size=int(hits.sum()))
            state: np.ndarray | None = None  # None = still on the ideal prefix
            slot = 0
            drawn = 0
            for gi, op in enumerate(circuit.gates):
                if state is not None:
                    state = _apply_gate(state, op, width)
                for q in op.qubits:
                    if hits[slot]:
                        if state is None:
                            state = prefixes[gi + 1].copy()
                        state = _apply_single(state, _PAULIS[paulis[drawn]], q, width)
                        drawn += 1
                    slot += 1
            probs = np.abs(state) ** 2
            cumulative = np.cumsum(probs / probs.sum())
        outcome = int(np.searchsorted(cumulative, rng.random(), side="right"))
        tally[min(outcome, tally.size - 1)] += 1

    return {_bitstring(i, width): int(c) for i, c in enumerate(tally) if c}
