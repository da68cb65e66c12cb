"""Local execution kernels: ideal statevector simulation and a noisy variant.

Bitstring convention (used everywhere in this package): qubit 0 is the
LEFTMOST character of a bitstring key, so basis-state index ``i`` of a
width-``w`` register corresponds to ``format(i, f"0{w}b")``.

``sample_batch`` is the one kernel entry point: it runs a batch of jobs,
each ``(circuit, shots, seed)``, and returns each job's counts or the
exception that failed it alone. ``sample`` and ``sample_noisy`` are its
one-job case. The circuits of one width evolve together, one row each, and
a row's arithmetic does not depend on the other rows, so a job's counts do
not depend on the batch it runs in.

Noise is depolarizing: after each gate, each qubit the gate touched suffers
with probability ``p`` a uniformly random non-identity Pauli (X, Y, or Z).
Up to ``DENSITY_MAX_WIDTH`` qubits the noisy kernel evolves the exact density
matrix under that channel; wider circuits are sampled by Monte-Carlo
trajectories, which draw from the same distribution. The kernels are pure
functions of (circuit, shots, noise, seed) and stateless, so jobs can run
concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, GateOp
from .errors import CircuitError

__all__ = [
    "DENSITY_MAX_WIDTH",
    "MAX_WIDTH_DEFAULT",
    "NoiseSpec",
    "Statevector",
    "batch_chunks",
    "sample",
    "sample_batch",
    "sample_noisy",
    "statevector",
]

# ~16 MB of complex amplitudes; a desk-scale resource guard, overridable per call.
MAX_WIDTH_DEFAULT = 20

# Noisy circuits of at most this many qubits evolve as exact density
# matrices; wider ones as trajectories. A density matrix costs 4**width
# amplitudes however many shots its job draws, and trajectories cost about
# 2**width per shot that draws an injection, so the crossover moves up with
# the shots. In 100-job batches of random 4w-gate circuits at p=0.05 on a
# shared 2-vCPU host, a 16-shot job took 1,036 us as a density matrix
# against 1,102 us as trajectories at 5 qubits and 2,590 against 1,245 us at
# 6; a 1,000-shot job took 1,816 against 5,707 us at 6 and 7,963 against
# 12,424 us at 7. The limit is the 16-shot crossover. No benchmark workload
# has a noisy job of 4 to 11 qubits, so none shows where the limit sits.
DENSITY_MAX_WIDTH = 5

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
# Each one-qubit gate's matrix, as its entries (u00, u01, u10, u11).
_FIXED_MATRICES = {
    Gate.H: (_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2),
    Gate.X: (0, 1, 1, 0),
    Gate.Y: (0, -1j, 1j, 0),
    Gate.Z: (1, 0, 0, -1),
    Gate.S: (1, 0, 0, 1j),
    Gate.T: (1, 0, 0, complex(_INV_SQRT2, _INV_SQRT2)),
}

# A batch, or a noisy replay, holds at most this many amplitudes at once
# (16 MB), the same budget as one statevector of MAX_WIDTH_DEFAULT qubits.
_CHUNK_AMPLITUDES = 1 << MAX_WIDTH_DEFAULT

# Injected Pauli codes: X and Y flip the qubit's bit, Y and Z flip the sign
# of its 1 half. Y = iXZ, and the global phase i changes no probability.
_X, _Y, _Z = 1, 2, 3


def _rotation_matrix(gate: Gate, angle: float) -> tuple[complex, ...]:
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if gate is Gate.RX:
        return (c, -1j * s, -1j * s, c)
    if gate is Gate.RY:
        return (c, -s, s, c)
    return (cmath.exp(-1j * half), 0, 0, cmath.exp(1j * half))


# Every gate function updates a (rows, 2**n) array in place: one state per
# row. An exact update keeps the rows independent, bit for bit. numpy may or
# may not fuse a complex product's multiplies and adds, depending on an
# operand's shape and strides, so every complex factor of an exact update is
# real, imaginary or 1 +- i: each of its real products is then exact or an
# exact zero, and it rounds the same fused or not. So T's phase is taken as
# (1 + i) times 1/sqrt(2), and RZ's c -+ is as c times the amplitude plus
# -+ is times it. A matrix product would not do: its rounding depends on
# its shape. The trajectory replay, whose rows are the shots of one job and
# whose array no other job shares, multiplies by T's or RZ's phases in one
# pass each (``exact=False``): the exact RZ takes three passes and a copy,
# and at 12 qubits, 1,000 shots and p=0.05, a 40-gate circuit with four T
# and four RZ sampled 2,161 shots/s with exact updates against 2,431 with
# one-pass phases (interleaved calls, medians of 30, shared 2-vCPU host).


def _qubit_view(states: np.ndarray, qubit: int) -> np.ndarray:
    """(rows, left, 2, right): axis 2 is the qubit's bit."""
    return states.reshape(states.shape[0], 1 << qubit, 2, -1)


def _apply_single(states: np.ndarray, gate: Gate, matrix: tuple, qubit: int, exact: bool) -> None:
    u00, u01, u10, u11 = matrix
    view = _qubit_view(states, qubit)
    zero, one = view[:, :, 0], view[:, :, 1]
    if u00 == 0 == u11:  # X, Y: swap the halves, then a phase on each
        view[...] = view[:, :, ::-1]  # numpy copies an overlapping source first
        phases = ((zero, u01), (one, u10))
    elif u01 == 0 == u10:  # Z, S, T, RZ: a phase on each half
        if exact and u00 != 1 and u00 == u11.conjugate():  # RZ: c - is and c + is
            turned = _qubit_view(states * complex(0, u11.imag), qubit)
            states *= u11.real
            zero -= turned[:, :, 0]
            one += turned[:, :, 1]
            return
        phases = ((zero, u00), (one, u11))
    elif gate is Gate.H:  # (a + b, a - b), then every amplitude times 1/sqrt(2)
        difference = zero - one
        zero += one
        one[...] = difference
        states *= u00
        return
    else:  # RX, RY and their conjugates: every entry is real or imaginary
        lower = zero * u10
        zero *= u00
        zero += one * u01
        one *= u11
        one += lower
        return
    for half, phase in phases:
        if phase == 1:
            continue
        if exact and phase.real and phase.imag:  # T: 1 + i or 1 - i, then a real
            half *= complex(1, phase.imag / phase.real)
            half *= phase.real
        else:
            half *= phase


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


def _apply_gate(
    states: np.ndarray, op: GateOp, shift: int = 0, conjugate: bool = False, exact: bool = True
) -> None:
    """Apply ``op``, or its complex conjugate, to qubits ``shift`` higher than its own."""
    gate = op.gate
    if gate is Gate.CX:
        _apply_cx(states, op.qubits[0] + shift, op.qubits[1] + shift)
    elif gate is Gate.CZ:
        _apply_cz(states, op.qubits[0] + shift, op.qubits[1] + shift)
    else:
        matrix = _rotation_matrix(gate, op.angle) if gate.takes_angle else _FIXED_MATRICES[gate]
        if conjugate:
            matrix = tuple(u.conjugate() for u in matrix)
        _apply_single(states, gate, matrix, op.qubits[0] + shift, exact)


def _depolarize(rho: np.ndarray, width: int, qubit: int, p: float) -> None:
    """The depolarizing channel of strength ``p`` on ``qubit`` of each row's
    density matrix: rho -> (1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_qubit rho).

    Each 2 x 2 block of the qubit's ket and bra bits is scaled by 1 - 4p/3,
    and 2p/3 of the block's trace is added to both diagonal entries, which
    moves 2p/3 of each diagonal entry to the other."""
    view = rho.reshape(rho.shape[0], 1 << qubit, 2, 1 << (width - 1), 2, -1)
    moved = view[:, :, 0, :, 0] + view[:, :, 1, :, 1]
    moved *= 2.0 * p / 3.0
    rho *= 1.0 - 4.0 * p / 3.0
    view[:, :, 0, :, 0] += moved
    view[:, :, 1, :, 1] += moved


def _evolve(circuits: Sequence[Circuit], states: np.ndarray, apply) -> None:
    """Run each circuit on its row of ``states``: at each gate position the
    rows that share a gate get it together, through ``apply(rows, op)``, in
    place when they are the whole array and on a gathered copy otherwise."""
    if len(circuits) == 1:  # one group per position, the whole array
        for op in circuits[0].gates:
            apply(states, op)
        return
    for g in range(max(len(c.gates) for c in circuits)):
        # Keyed by the op's plain fields, not by the GateOp, whose generated
        # __hash__ and __eq__ (and the Gate enum's __hash__) run in Python.
        groups: dict[tuple, tuple[GateOp, list[int]]] = {}
        for row, circuit in enumerate(circuits):
            if g < len(circuit.gates):
                op = circuit.gates[g]
                groups.setdefault((op.gate.value, op.qubits, op.angle), (op, []))[1].append(row)
        for op, rows in groups.values():
            if len(rows) == len(states):
                apply(states, op)
            else:
                part = states[rows]
                apply(part, op)
                states[rows] = part


def _ground(rows: int, amplitudes: int) -> np.ndarray:
    """``rows`` copies of |0...0>, each of ``amplitudes`` amplitudes."""
    states = np.zeros((rows, amplitudes), dtype=complex)
    states[:, 0] = 1.0
    return states


def _ideal_states(circuits: Sequence[Circuit]) -> np.ndarray:
    states = _ground(len(circuits), 1 << circuits[0].width)
    _evolve(circuits, states, _apply_gate)
    return states


def _ideal_probabilities(circuits: Sequence[Circuit]) -> list[np.ndarray]:
    probabilities = []
    for row in _ideal_states(circuits):
        p = np.abs(row) ** 2
        probabilities.append(p / p.sum())
    return probabilities


def _noisy_probabilities(circuits: Sequence[Circuit], p: float) -> list[np.ndarray]:
    """The exact outcome distribution of each circuit under the noise, from
    its density matrix, held as a 2*width-qubit vector: qubit q of the
    circuit is qubit q (the ket) and qubit width+q (the bra) of the vector,
    and a gate U on q is U on the ket and its conjugate on the bra."""
    width = circuits[0].width

    def apply(rho: np.ndarray, op: GateOp) -> None:
        _apply_gate(rho, op)
        _apply_gate(rho, op, width, conjugate=True)
        for qubit in op.qubits:
            _depolarize(rho, width, qubit, p)

    rho = _ground(len(circuits), 1 << 2 * width)
    _evolve(circuits, rho, apply)
    probabilities = []
    for row in rho:
        diagonal = np.maximum(row[:: (1 << width) + 1].real, 0.0)
        probabilities.append(diagonal / diagonal.sum())
    return probabilities


def _too_wide(circuit: Circuit, max_width: int) -> CircuitError | None:
    if circuit.width > max_width:
        return CircuitError(
            f"circuit {circuit.name!r} width {circuit.width} exceeds limit {max_width}"
        )
    return None


def _histogram(tally: np.ndarray, width: int) -> dict[str, int]:
    """bitstring -> count for the nonzero entries of a tally over basis states."""
    hit = np.flatnonzero(tally)
    return dict(zip((format(i, f"0{width}b") for i in hit.tolist()), tally[hit].tolist()))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed) % _SEED_SPACE)


def batch_chunks(widths: Sequence[int], noise: NoiseSpec | None) -> list[slice]:
    """Split a batch of jobs of these circuit widths into runs of consecutive
    jobs that together hold at most 16 MB of amplitudes, 4**width for a
    density matrix and 2**width for a state; a job that alone holds more is
    a run of its own."""
    chunks, start, held = [], 0, 0
    for end, width in enumerate(widths):
        size = 1 << (2 * width if noise is not None and width <= DENSITY_MAX_WIDTH else width)
        if end > start and held + size > _CHUNK_AMPLITUDES:
            chunks.append(slice(start, end))
            start, held = end, 0
        held += size
    if start < len(widths):
        chunks.append(slice(start, len(widths)))
    return chunks


def sample_batch(
    jobs: Sequence[tuple[Circuit, int, int]],
    noise: NoiseSpec | None = None,
    max_width: int = MAX_WIDTH_DEFAULT,
) -> list[dict[str, int] | Exception]:
    """Run each ``(circuit, shots, seed)`` job, ideal or under ``noise``, and
    return, in job order, its histogram bitstring -> count or the exception
    that failed it.

    A job fails alone: shots below 1 and a circuit wider than ``max_width``
    fail only their own job, and if the circuits of one width cannot run
    together, each of them runs again alone. Each job draws its shots as one
    multinomial from a generator seeded with its own seed, so its counts are
    those of the same job run alone.
    """
    results: list = [None] * len(jobs)
    by_width: dict[int, list[int]] = {}
    for k, (circuit, shots, seed) in enumerate(jobs):
        if shots < 1:
            results[k] = ValueError(f"shots must be >= 1, got {shots}")
        else:
            results[k] = _too_wide(circuit, max_width)
        if results[k] is not None:
            continue
        if noise is not None and circuit.width > DENSITY_MAX_WIDTH:
            try:
                results[k] = _sample_trajectories(circuit, shots, noise, seed)
            except Exception as exc:
                results[k] = exc
        else:
            by_width.setdefault(circuit.width, []).append(k)
    for ks in by_width.values():
        for k, probabilities in zip(ks, _batch_probabilities([jobs[k][0] for k in ks], noise)):
            if isinstance(probabilities, Exception):
                results[k] = probabilities
                continue
            circuit, shots, seed = jobs[k]
            try:  # this job's draw only: a seed numpy refuses fails no other job
                results[k] = _histogram(_rng(seed).multinomial(shots, probabilities), circuit.width)
            except Exception as exc:
                results[k] = exc
    return results


def _batch_probabilities(
    circuits: Sequence[Circuit], noise: NoiseSpec | None
) -> list[np.ndarray | Exception]:
    """Each circuit's outcome distribution, or, if the circuits cannot run
    together, each one's run alone or the exception that stopped it."""

    def run(part: Sequence[Circuit]) -> list[np.ndarray]:
        if noise is None:
            return _ideal_probabilities(part)
        return _noisy_probabilities(part, noise.p_depolarizing)

    try:
        return run(circuits)
    except Exception as exc:
        if len(circuits) == 1:
            return [exc]
    alone: list[np.ndarray | Exception] = []
    for circuit in circuits:
        alone += _batch_probabilities([circuit], noise)
    return alone


def _one(results: list[dict[str, int] | Exception]) -> dict[str, int]:
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def statevector(circuit: Circuit, max_width: int = MAX_WIDTH_DEFAULT) -> Statevector:
    """Exact unitary evolution of |0...0> under the circuit's gate list."""
    error = _too_wide(circuit, max_width)
    if error is not None:
        raise error
    return Statevector(width=circuit.width, amplitudes=_ideal_states([circuit])[0])


def sample(
    circuit: Circuit, shots: int, seed: int = 0, max_width: int = MAX_WIDTH_DEFAULT
) -> dict[str, int]:
    """Draw ``shots`` independent measure-all samples from the exact distribution.

    Returns a histogram bitstring -> count with counts summing to ``shots``;
    identical (circuit, shots, seed) always yields identical counts. This is
    the one-job case of :func:`sample_batch`.
    """
    return _one(sample_batch([(circuit, shots, seed)], None, max_width))


def sample_noisy(
    circuit: Circuit,
    shots: int,
    noise: NoiseSpec,
    seed: int = 0,
    max_width: int = MAX_WIDTH_DEFAULT,
) -> dict[str, int]:
    """Sample ``shots`` outcomes under per-gate depolarizing noise.

    After each gate, every qubit the gate touched suffers with probability
    ``noise.p_depolarizing`` a uniformly random Pauli from {X, Y, Z}.
    Deterministic under a fixed seed; the one-job case of :func:`sample_batch`.

    Up to ``DENSITY_MAX_WIDTH`` qubits the shots are one multinomial draw
    from the exact distribution, read off the circuit's density matrix under
    the equivalent channel rho -> (1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_q rho)
    on each touched qubit q. Wider circuits are sampled by trajectories.
    """
    return _one(sample_batch([(circuit, shots, seed)], noise, max_width))


def _sample_trajectories(circuit: Circuit, shots: int, noise: NoiseSpec, seed: int) -> dict[str, int]:
    """Monte-Carlo trajectory sampling of the noise, for circuits too wide
    for a density matrix; a p=0 run matches the ideal distribution but not
    the ideal sampler's exact RNG stream.

    Per shot, each (gate, touched qubit) slot draws an injection with
    probability p. The shots that draw none are drawn together, from the
    ideal distribution. The others are replayed together, one row each,
    joining the ideal state's row at their first injection. The clean
    shots' distribution comes from the exact updates and the replay from
    one-pass phases; the two differ in the last bit at most, and each is
    fixed by the job alone.
    """
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
    tally += rng.multinomial(clean, statevector(circuit).probabilities())
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
    states[:1] = _ground(1, states.shape[1])
    shots = states[1:]
    active = 0  # shots that have joined
    slot = 0
    for g, op in enumerate(circuit.gates):
        # The ideal row is needed only until the last shot has joined.
        _apply_gate(states[int(active == len(shots)) : active + 1], op, exact=False)
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
