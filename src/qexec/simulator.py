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

# A noisy replay holds at most this many amplitudes at once (16 MB), the
# same budget as one statevector of MAX_WIDTH_DEFAULT qubits.
_CHUNK_AMPLITUDES = 1 << MAX_WIDTH_DEFAULT

_DIAGONAL = frozenset({Gate.Z, Gate.S, Gate.T, Gate.RZ})
_ANTI_DIAGONAL = frozenset({Gate.X, Gate.Y})

# Injected Pauli codes: X and Y flip the qubit's bit, Y and Z flip the sign
# of its 1 half. Y = iXZ, and the global phase i changes no probability.
_X, _Y, _Z = 1, 2, 3


def _rotation_matrix(gate: Gate, angle: float) -> np.ndarray:
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if gate is Gate.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate is Gate.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)


# Every gate function updates a (rows, 2**width) array in place: one
# statevector per row. A statevector run is the one-row case.


def _qubit_view(states: np.ndarray, qubit: int) -> np.ndarray:
    """(rows, left, 2, right): axis 2 is the qubit's bit."""
    return states.reshape(states.shape[0], 1 << qubit, 2, -1)


def _apply_single(states: np.ndarray, gate: Gate, matrix: np.ndarray, qubit: int) -> None:
    view = _qubit_view(states, qubit)
    if gate in _ANTI_DIAGONAL:  # X, Y: swap the halves, then a phase on each
        view[...] = view[:, :, ::-1]  # numpy copies an overlapping source first
        phases = (matrix[0, 1], matrix[1, 0])
    elif gate in _DIAGONAL:  # Z, S, T, RZ: a phase on each half
        phases = (matrix[0, 0], matrix[1, 1])
    else:
        # H, RX, RY: bring the qubit's axis to the front and make one
        # (2 x 2) @ (2 x n) product, so the cost does not depend on where the
        # qubit sits; the result goes back in place.
        rows = states.shape[0] << qubit
        front = states.reshape(rows, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        product = (matrix @ front).reshape(2, rows, -1).transpose(1, 0, 2)
        np.copyto(states.reshape(rows, 2, -1), product)
        return
    for half, phase in enumerate(phases):
        if phase != 1:
            view[:, :, half] *= phase


def _pair_view(states: np.ndarray, a: int, b: int) -> tuple[np.ndarray, int, int]:
    """A view with one axis per qubit of the pair, and those two axes."""
    lo, hi = sorted((a, b))
    view = states.reshape(states.shape[0], 1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    return view, (2 if a == lo else 4), (2 if b == lo else 4)


def _apply_cx(states: np.ndarray, control: int, target: int) -> None:
    view, c_axis, t_axis = _pair_view(states, control, target)
    index = [slice(None)] * 6
    index[c_axis] = 1
    # Fixing the control's axis moves the target's down by one if it came after.
    view[tuple(index)] = np.flip(view[tuple(index)], axis=t_axis - (t_axis > c_axis))


def _apply_cz(states: np.ndarray, control: int, target: int) -> None:
    view, c_axis, t_axis = _pair_view(states, control, target)
    index = [slice(None)] * 6
    index[c_axis] = index[t_axis] = 1
    view[tuple(index)] *= -1


def _apply_gate(states: np.ndarray, op: GateOp) -> None:
    if op.gate is Gate.CX:
        _apply_cx(states, op.qubits[0], op.qubits[1])
    elif op.gate is Gate.CZ:
        _apply_cz(states, op.qubits[0], op.qubits[1])
    elif op.gate.takes_angle:
        _apply_single(states, op.gate, _rotation_matrix(op.gate, op.angle), op.qubits[0])
    else:
        _apply_single(states, op.gate, _FIXED_MATRICES[op.gate], op.qubits[0])


def _require_runnable(circuit: Circuit, max_width: int) -> None:
    if circuit.width > max_width:
        raise CircuitError(
            f"circuit {circuit.name!r} width {circuit.width} exceeds limit {max_width}"
        )


def _initial_state(width: int) -> np.ndarray:
    state = np.zeros((1, 1 << width), dtype=complex)
    state[0, 0] = 1.0
    return state


def _histogram(tally: np.ndarray, width: int) -> dict[str, int]:
    """bitstring -> count for the nonzero entries of a tally over basis states."""
    hit = np.flatnonzero(tally)
    return dict(zip((format(i, f"0{width}b") for i in hit.tolist()), tally[hit].tolist()))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed) % _SEED_SPACE)


def statevector(circuit: Circuit, max_width: int = MAX_WIDTH_DEFAULT) -> Statevector:
    """Exact unitary evolution of |0...0> under the circuit's gate list."""
    _require_runnable(circuit, max_width)
    state = _initial_state(circuit.width)
    for op in circuit.gates:
        _apply_gate(state, op)
    return Statevector(width=circuit.width, amplitudes=state[0])


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
    return _histogram(_rng(seed).multinomial(shots, probs), circuit.width)


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

    The shots that draw no injection are drawn together, from the ideal
    distribution. The others are replayed together, one row each, joining
    the ideal state's row at their first injection.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    _require_runnable(circuit, max_width)
    width = circuit.width
    rng = _rng(seed)

    # One injection slot per (gate, touched qubit), in execution order.
    slot_gate = np.array([g for g, op in enumerate(circuit.gates) for _ in op.qubits], dtype=int)
    tally = np.zeros(1 << width, dtype=np.int64)
    clean = 0
    # The hit matrix takes a byte per (shot, slot) and its draw eight more, so
    # shots are drawn in blocks that keep it within the replay budget. A
    # replay holds the ideal row as well as its chunk of shots.
    block = max(1, _CHUNK_AMPLITUDES // max(1, slot_gate.size))
    rows_per_chunk = max(1, (_CHUNK_AMPLITUDES >> width) - 1)
    for start in range(0, shots, block):
        hits = rng.random((min(block, shots - start), slot_gate.size)) < noise.p_depolarizing
        hits = hits[hits.any(axis=1)]
        clean += min(block, shots - start) - hits.shape[0]
        if not hits.shape[0]:
            continue
        paulis = np.zeros(hits.shape, dtype=np.int8)
        paulis[hits] = rng.integers(_X, _Z + 1, size=int(hits.sum()), dtype=np.int8)
        first_gate = slot_gate[hits.argmax(axis=1)]
        order = np.argsort(first_gate, kind="stable")
        paulis, first_gate = paulis[order], first_gate[order]
        for row in range(0, len(order), rows_per_chunk):
            chunk = slice(row, row + rows_per_chunk)
            states = _replay(circuit, paulis[chunk], first_gate[chunk])
            cumulative = np.cumsum(states.real**2 + states.imag**2, axis=1)
            draws = rng.random(states.shape[0]) * cumulative[:, -1]
            outcomes = np.minimum((cumulative <= draws[:, None]).sum(axis=1), tally.size - 1)
            tally += np.bincount(outcomes, minlength=tally.size)
    tally += rng.multinomial(clean, statevector(circuit, max_width).probabilities())
    return _histogram(tally, width)


def _replay(circuit: Circuit, paulis: np.ndarray, first_gate: np.ndarray) -> np.ndarray:
    """The final state of each hit shot, one row each.

    ``paulis`` holds a row per shot and a column per slot (0 where the slot
    drew nothing), and the rows are sorted by the gate of their first
    injection. Row 0 of the work array evolves the ideal state; a shot's
    row joins as a copy of it at the gate of its first injection, so the
    rows that have joined by any gate are a prefix of the array, and each
    gate is applied to them all at once. A Pauli touches only the rows it
    hit, and a shot's row pays only for the gates from its first injection on.
    """
    n_slots = paulis.shape[1]
    # Per slot, the shots whose bit it flips and the shots whose sign it flips.
    flip_slot, flip_row = np.nonzero(((paulis == _X) | (paulis == _Y)).T)
    sign_slot, sign_row = np.nonzero(((paulis == _Y) | (paulis == _Z)).T)
    flip_at = np.searchsorted(flip_slot, np.arange(n_slots + 1)).tolist()
    sign_at = np.searchsorted(sign_slot, np.arange(n_slots + 1)).tolist()
    joined = np.searchsorted(first_gate, np.arange(len(circuit.gates)), side="right").tolist()

    states = np.empty((len(first_gate) + 1, 1 << circuit.width), dtype=complex)
    states[:1] = _initial_state(circuit.width)
    shots = states[1:]
    active = 0  # shots that have joined
    slot = 0
    for g, op in enumerate(circuit.gates):
        # The ideal row is needed only until the last shot has joined.
        _apply_gate(states[int(active == len(shots)) : active + 1], op)
        if joined[g] > active:
            shots[active : joined[g]] = states[0]
            active = joined[g]
        for qubit in op.qubits:
            flips = flip_row[flip_at[slot] : flip_at[slot + 1]]
            signs = sign_row[sign_at[slot] : sign_at[slot + 1]]
            if flips.size or signs.size:
                view = _qubit_view(shots, qubit)
                view[flips] = view[flips][:, :, ::-1]
                view[signs, :, 1] *= -1
            slot += 1
    return shots
