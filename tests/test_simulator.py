import hashlib
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qexec.simulator
from qexec import Circuit, Gate, GateOp, NoiseSpec, parse_qasm, sample, sample_noisy, statevector, tvd
from qexec.errors import CircuitError

INV_SQRT2 = 1 / math.sqrt(2)


def counts_tvd_from_probs(counts: dict, exact: dict) -> float:
    """Independent check: TVD of an empirical histogram against exact probabilities."""
    total = sum(counts.values())
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / total - exact.get(k, 0.0)) for k in keys)


# --------------------------------------------------------------------------
# statevector
# --------------------------------------------------------------------------


def test_statevector_empty_width1():
    sv = statevector(Circuit(width=1))
    assert np.allclose(sv.amplitudes, [1, 0], atol=1e-12)


def test_statevector_hadamard():
    sv = statevector(Circuit(width=1, gates=(GateOp(Gate.H, (0,)),)))
    assert np.allclose(sv.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-9)


def test_statevector_bell(bell):
    sv = statevector(bell)
    assert np.allclose(sv.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-9)


def test_statevector_x():
    sv = statevector(Circuit(width=1, gates=(GateOp(Gate.X, (0,)),)))
    assert np.allclose(sv.amplitudes, [0, 1], atol=1e-9)


def test_statevector_ghz3(ghz3):
    expected = np.zeros(8)
    expected[0] = expected[7] = INV_SQRT2
    assert np.allclose(statevector(ghz3).amplitudes, expected, atol=1e-9)


def test_statevector_qubit0_is_leftmost_bit():
    # X on qubit 0 of a 2-qubit register flips the left character: "10".
    sv = statevector(Circuit(width=2, gates=(GateOp(Gate.X, (0,)),)))
    assert np.allclose(sv.amplitudes, [0, 0, 1, 0], atol=1e-12)
    assert sample(Circuit(width=2, gates=(GateOp(Gate.X, (0,)),)), 10, seed=0) == {"10": 10}


def test_statevector_width_guard():
    with pytest.raises(CircuitError, match="exceeds limit"):
        statevector(Circuit(width=25))
    # configurable
    sv = statevector(Circuit(width=5), max_width=5)
    assert sv.amplitudes.size == 32


def test_statevector_rejects_invalid_circuit():
    with pytest.raises(CircuitError, match="out of range"):
        statevector(Circuit(width=1, gates=(GateOp(Gate.H, (3,)),)))


@pytest.mark.parametrize(
    "ops",
    [
        (GateOp(Gate.X, (0,)), GateOp(Gate.X, (0,))),
        (GateOp(Gate.H, (0,)), GateOp(Gate.H, (0,))),
        (GateOp(Gate.CX, (0, 1)), GateOp(Gate.CX, (0, 1))),
    ],
)
def test_gate_then_inverse_restores_state(ops):
    before = statevector(Circuit(width=2, gates=(GateOp(Gate.H, (1,)),))).amplitudes
    after = statevector(Circuit(width=2, gates=(GateOp(Gate.H, (1,)),) + ops)).amplitudes
    assert np.allclose(before, after, atol=1e-9)


def test_rotation_gates_match_closed_forms():
    theta = 0.7
    rx = statevector(Circuit(width=1, gates=(GateOp(Gate.RX, (0,), theta),))).amplitudes
    assert np.allclose(rx, [math.cos(theta / 2), -1j * math.sin(theta / 2)], atol=1e-9)
    ry = statevector(Circuit(width=1, gates=(GateOp(Gate.RY, (0,), theta),))).amplitudes
    assert np.allclose(ry, [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-9)
    rz = statevector(Circuit(width=1, gates=(GateOp(Gate.RZ, (0,), theta),))).amplitudes
    assert np.allclose(rz, [np.exp(-1j * theta / 2), 0], atol=1e-9)


def test_cz_phase():
    plus_plus = (GateOp(Gate.H, (0,)), GateOp(Gate.H, (1,)))
    sv = statevector(Circuit(width=2, gates=plus_plus + (GateOp(Gate.CZ, (0, 1)),)))
    assert np.allclose(sv.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-9)


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------


def test_sample_deterministic_outcome():
    counts = sample(Circuit(width=1, gates=(GateOp(Gate.X, (0,)),)), 100, seed=123)
    assert counts == {"1": 100}


def test_sample_empty_circuit():
    assert sample(Circuit(width=2), 10, seed=0) == {"00": 10}


def test_sample_bell_support_and_total(bell):
    counts = sample(bell, 2048, seed=77)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 2048


def test_sample_rejects_zero_shots(bell):
    with pytest.raises(ValueError, match="shots"):
        sample(bell, 0, seed=0)


def test_sample_determinism(bell):
    assert sample(bell, 1000, seed=42) == sample(bell, 1000, seed=42)
    assert sample(bell, 1000, seed=42) != sample(bell, 1000, seed=43)


def test_sampling_consistency_100k(bell, ghz3):
    # Empirical frequencies at 100k shots within TVD 0.01 of |amplitude|^2.
    for circuit in (bell, ghz3):
        probs = statevector(circuit).probabilities()
        exact = {
            format(i, f"0{circuit.width}b"): float(p) for i, p in enumerate(probs) if p > 0
        }
        counts = sample(circuit, 100_000, seed=5)
        assert counts_tvd_from_probs(counts, exact) < 0.01


# --------------------------------------------------------------------------
# sample_noisy
# --------------------------------------------------------------------------


def test_noise_spec_range():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(1.5)
    assert NoiseSpec(0.0).p_depolarizing == 0.0


def test_noisy_p0_matches_ideal_distribution(bell):
    counts = sample_noisy(bell, 20_000, NoiseSpec(0.0), seed=9)
    assert sum(counts.values()) == 20_000
    assert counts_tvd_from_probs(counts, {"00": 0.5, "11": 0.5}) < 0.02


def test_noisy_bell_leaks_odd_parity(bell):
    counts = sample_noisy(bell, 10_000, NoiseSpec(0.05), seed=13)
    assert sum(counts.values()) == 10_000
    assert counts.get("01", 0) + counts.get("10", 0) > 0


def test_noisy_x_full_depolarizing_matches_enumeration():
    # Independent oracle: enumerate the 3 equally-likely Pauli injections
    # after X|0> = |1>:  X -> |0>, Y -> -i|0>, Z -> -|1>. P("1") = 1/3.
    x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
    y_mat = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z_mat = np.array([[1, 0], [0, -1]], dtype=complex)
    after_x = x_mat @ np.array([1, 0], dtype=complex)
    expected_p1 = sum(abs((pauli @ after_x)[1]) ** 2 for pauli in (x_mat, y_mat, z_mat)) / 3
    assert expected_p1 == pytest.approx(1 / 3, abs=1e-12)

    circuit = Circuit(width=1, gates=(GateOp(Gate.X, (0,)),))
    counts = sample_noisy(circuit, 30_000, NoiseSpec(1.0), seed=21)
    assert counts.get("1", 0) / 30_000 == pytest.approx(expected_p1, abs=0.05)


def test_noisy_determinism(bell):
    kwargs = dict(shots=500, noise=NoiseSpec(0.1), seed=99)
    assert sample_noisy(bell, **kwargs) == sample_noisy(bell, **kwargs)


def test_noisy_rejects_zero_shots(bell):
    with pytest.raises(ValueError, match="shots"):
        sample_noisy(bell, 0, NoiseSpec(0.1), seed=0)


def test_noisy_more_noise_more_distance(bell):
    # TVD against the exact Bell distribution grows with p.
    exact = {"00": 1, "11": 1}
    low = np.mean([tvd(sample_noisy(bell, 2048, NoiseSpec(0.02), seed=s), exact) for s in range(5)])
    high = np.mean([tvd(sample_noisy(bell, 2048, NoiseSpec(0.10), seed=s), exact) for s in range(5)])
    assert high > low


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


@st.composite
def runnable_circuits(draw, max_width=4):
    width = draw(st.integers(min_value=1, max_value=max_width))
    n_gates = draw(st.integers(min_value=0, max_value=10))
    gates = []
    for _ in range(n_gates):
        gate = draw(st.sampled_from(list(Gate)))
        if gate.n_qubits == 2 and width < 2:
            gate = Gate.X
        qubits = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=width - 1),
                    min_size=gate.n_qubits,
                    max_size=gate.n_qubits,
                    unique=True,
                )
            )
        )
        angle = draw(st.floats(-7, 7, allow_nan=False)) if gate.takes_angle else None
        gates.append(GateOp(gate, qubits, angle))
    return Circuit(width=width, gates=tuple(gates))


@given(runnable_circuits())
@settings(max_examples=150, deadline=None)
def test_statevector_normalized(circuit):
    amplitudes = statevector(circuit).amplitudes
    assert abs(np.sum(np.abs(amplitudes) ** 2) - 1.0) < 1e-9


@given(runnable_circuits(), st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_sample_totals_conserved(circuit, shots):
    counts = sample(circuit, shots, seed=3)
    assert sum(counts.values()) == shots
    assert all(len(k) == circuit.width for k in counts)


@given(
    runnable_circuits(),
    st.integers(min_value=1, max_value=100),
    st.floats(0.0, 1.0),
    st.integers(min_value=0, max_value=2**70),
)
@settings(max_examples=60, deadline=None)
def test_noisy_totals_conserved_and_seeded_calls_repeat(circuit, shots, p, seed):
    counts = sample_noisy(circuit, shots, NoiseSpec(p), seed=seed)
    assert sum(counts.values()) == shots
    assert all(len(k) == circuit.width and v > 0 for k, v in counts.items())
    assert sample_noisy(circuit, shots, NoiseSpec(p), seed=seed) == counts


# --------------------------------------------------------------------------
# sample_noisy against exact enumeration
# --------------------------------------------------------------------------

_ORACLE_1Q = {
    Gate.H: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    Gate.T: np.diag([1, np.exp(1j * math.pi / 4)]),
}
_ORACLE_PAULIS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0 + 0j, -1.0]),
]


def _oracle_operator(width: int, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` on ``qubit`` of a register, as a full 2**width matrix (qubit 0 leftmost)."""
    out = np.eye(1)
    for q in range(width):
        out = np.kron(out, matrix if q == qubit else np.eye(2))
    return out


def _oracle_cx(width: int, control: int, target: int) -> np.ndarray:
    dim = 1 << width
    out = np.zeros((dim, dim))
    for i in range(dim):
        j = i ^ (1 << (width - 1 - target)) if i >> (width - 1 - control) & 1 else i
        out[j, i] = 1
    return out


def exact_noisy_distribution(circuit: Circuit, p: float) -> dict[str, float]:
    """Sum over every injection pattern (none, X, Y or Z at each slot) of its
    probability times its final distribution, with dense matrices."""
    width = circuit.width
    steps = []  # per gate: (its full matrix, its slots' qubits)
    for op in circuit.gates:
        if op.gate is Gate.CX:
            unitary = _oracle_cx(width, *op.qubits)
        elif op.gate is Gate.RY:
            c, s = math.cos(op.angle / 2), math.sin(op.angle / 2)
            unitary = _oracle_operator(width, op.qubits[0], np.array([[c, -s], [s, c]]))
        else:
            unitary = _oracle_operator(width, op.qubits[0], _ORACLE_1Q[op.gate])
        steps.append((unitary, op.qubits))
    slots = [q for _, qubits in steps for q in qubits]
    exact = np.zeros(1 << width)
    for pattern in itertools.product(range(4), repeat=len(slots)):
        weight = math.prod(1 - p if k == 0 else p / 3 for k in pattern)
        state = np.zeros(1 << width, dtype=complex)
        state[0] = 1
        choices = iter(pattern)
        for unitary, qubits in steps:
            state = unitary @ state
            for q in qubits:
                k = next(choices)
                if k:
                    state = _oracle_operator(width, q, _ORACLE_PAULIS[k - 1]) @ state
        exact += weight * np.abs(state) ** 2
    return {format(i, f"0{width}b"): float(v) for i, v in enumerate(exact) if v > 1e-15}


def test_noisy_matches_exact_enumeration_non_clifford():
    # 6 slots, so 4**6 injection patterns; T and RY keep it non-Clifford, and
    # the last H makes the sign of an injected Z show in the counts.
    circuit = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; h q[0]; t q[0]; cx q[0],q[1]; ry(0.7) q[1]; h q[0];"
    )
    exact = exact_noisy_distribution(circuit, 0.2)
    assert sum(exact.values()) == pytest.approx(1.0)
    counts = sample_noisy(circuit, 40_000, NoiseSpec(0.2), seed=17)
    assert counts_tvd_from_probs(counts, exact) < 0.015


NON_CLIFFORD_GATES = "h q[0]; t q[0]; cx q[0],q[{last}]; ry(0.7) q[{last}]; h q[0];"


def probabilities_by_key(probabilities: np.ndarray, width: int) -> dict[str, float]:
    return {format(i, f"0{width}b"): float(v) for i, v in enumerate(probabilities)}


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
def test_density_matrix_matches_exact_enumeration(p):
    # At p=1, 1 - 4p/3 < 0, yet the channel is still the average over X, Y and Z.
    circuit = parse_qasm(f"OPENQASM 2.0; qreg q[2]; {NON_CLIFFORD_GATES.format(last=1)}")
    [probabilities] = qexec.simulator._noisy_probabilities([circuit], p)
    exact = exact_noisy_distribution(circuit, p)
    got = probabilities_by_key(probabilities, 2)
    assert set(got) >= set(exact)
    for key, value in got.items():
        assert value == pytest.approx(exact.get(key, 0.0), abs=1e-12)


def test_trajectories_above_the_density_limit_match_exact_enumeration():
    # The same circuit on qubits 0 and the last of a register one qubit too
    # wide for a density matrix: the qubits between stay 0, and the two
    # outer bits follow the two-qubit circuit's exact noisy distribution.
    width = qexec.simulator.DENSITY_MAX_WIDTH + 1
    gates = NON_CLIFFORD_GATES.format(last=width - 1)
    wide = parse_qasm(f"OPENQASM 2.0; qreg q[{width}]; {gates}")
    narrow = parse_qasm(f"OPENQASM 2.0; qreg q[2]; {NON_CLIFFORD_GATES.format(last=1)}")
    counts = sample_noisy(wide, 40_000, NoiseSpec(0.2), seed=17)
    assert set(k[1:-1] for k in counts) == {"0" * (width - 2)}
    folded = {}
    for key, count in counts.items():
        folded[key[0] + key[-1]] = folded.get(key[0] + key[-1], 0) + count
    assert counts_tvd_from_probs(folded, exact_noisy_distribution(narrow, 0.2)) < 0.015


def test_noisy_replay_crosses_chunk_boundaries(monkeypatch):
    # At 14 qubits one 16 MB chunk holds 64 rows, the ideal row and 63 shots,
    # and about 875 of the 1,000 shots draw an injection, so their replay
    # spans 14 chunks. The noise touches only qubits 0 and 13, so the outcome
    # is "b0 0...0 b13" with the distribution of the same circuit on two qubits.
    wide = parse_qasm("OPENQASM 2.0; qreg q[14]; h q[0]; cx q[0],q[13];")
    narrow = parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];")
    assert qexec.simulator._CHUNK_AMPLITUDES >> 14 == 64
    counts = sample_noisy(wide, 1000, NoiseSpec(0.5), seed=3)
    assert sum(counts.values()) == 1000
    folded = {k[0] + k[-1]: v for k, v in counts.items()}
    assert set(k[1:-1] for k in counts) == {"0" * 12}
    assert counts_tvd_from_probs(folded, exact_noisy_distribution(narrow, 0.5)) < 0.08
    # Chunks of 15 shots draw the same numbers in the same order.
    monkeypatch.setattr(qexec.simulator, "_CHUNK_AMPLITUDES", 1 << 18)
    assert sample_noisy(wide, 1000, NoiseSpec(0.5), seed=3) == counts


def test_noisy_memory_stays_within_the_replay_budget():
    # At p=0 no shot is replayed, so the kernel holds a few states of 256 kB,
    # not one per gate (61 of them for this 14-qubit, 60-gate circuit).
    qasm = "".join(f"h q[{i % 14}]; cx q[{i % 14}],q[{(i + 1) % 14}];" for i in range(30))
    circuit = parse_qasm(f"OPENQASM 2.0; qreg q[14]; {qasm}")
    assert len(circuit.gates) == 60
    tracemalloc.start()
    try:
        counts = sample_noisy(circuit, 200, NoiseSpec(0), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 200
    assert peak < 4 << 20


# --------------------------------------------------------------------------
# Seeded counts that batching must keep
# --------------------------------------------------------------------------


def sweep_shaped_circuit(rng: random.Random, width: int) -> Circuit:
    """A circuit shaped like the benchmark's tiny sweep: 8 gates in random
    order, one CX, one CZ, one T and five one-qubit Cliffords; at width 4 an
    RX, RY and RZ of random angle replace three of the Cliffords."""
    kinds = [Gate.CX, Gate.CZ, Gate.T] + ([Gate.RX, Gate.RY, Gate.RZ] if width == 4 else [])
    kinds += [None] * (8 - len(kinds))
    rng.shuffle(kinds)
    gates = []
    for gate in kinds:
        if gate is None:
            gate = rng.choice((Gate.H, Gate.S, Gate.X, Gate.Y, Gate.Z))
        qubits = tuple(rng.sample(range(width), gate.n_qubits))
        angle = rng.uniform(0.0, 2.0 * math.pi) if gate.takes_angle else None
        gates.append(GateOp(gate, qubits, angle))
    return Circuit(width=width, gates=tuple(gates), measured=True)


def test_ideal_counts_of_sweep_shaped_circuits_are_pinned():
    # Seeded ideal counts of 50 circuits, 16 shots each at seed 1000 + k as
    # the k-th job of a run gets, hashed. A change to the arithmetic of the
    # ideal kernel, or to how a job's rows are batched, shows here.
    rng = random.Random("pinned-ideal-counts")
    circuits = [sweep_shaped_circuit(rng, width) for width in (3, 4) for _ in range(25)]
    counts = [sample(c, 16, seed=1000 + k) for k, c in enumerate(circuits)]
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    assert digest == "e07fa126975ebc85f24f4d38791e19a9787ad675f50fd713c90c5fa25a08c216"


# --------------------------------------------------------------------------
# sample_batch
# --------------------------------------------------------------------------


def one_job(job, noise, max_width=qexec.simulator.MAX_WIDTH_DEFAULT):
    """The job run alone through sample or sample_noisy: its counts or its error."""
    circuit, shots, seed = job
    try:
        if noise is None:
            return sample(circuit, shots, seed=seed, max_width=max_width)
        return sample_noisy(circuit, shots, noise, seed=seed, max_width=max_width)
    except (ValueError, CircuitError) as exc:
        return exc


@st.composite
def batches(draw):
    """Jobs of 1 to 6 qubits and mixed shots and seeds; some circuits repeat,
    and some jobs have no shots."""
    circuits = draw(st.lists(runnable_circuits(max_width=6), min_size=1, max_size=6))
    job = st.tuples(
        st.sampled_from(circuits),
        st.one_of(st.integers(1, 64), st.just(0)),
        st.integers(0, 2**70),
    )
    return draw(st.lists(job, min_size=1, max_size=12))


@given(batches(), st.sampled_from([None, 0.0, 0.05, 1.0]), st.sampled_from([5, 6]))
@settings(max_examples=80, deadline=None)
def test_each_job_of_a_batch_runs_as_it_would_alone(jobs, p, max_width):
    # With a limit of 5 the kernel refuses the 6-qubit jobs; with 6, noisy
    # 6-qubit jobs run as trajectories, beside density matrices.
    noise = None if p is None else NoiseSpec(p)
    results = qexec.simulator.sample_batch(jobs, noise, max_width)
    assert len(results) == len(jobs)
    for job, result in zip(jobs, results):
        alone = one_job(job, noise, max_width)
        if isinstance(alone, Exception):
            assert type(result) is type(alone) and str(result) == str(alone)
        else:
            assert result == alone
    # The distributions agree bit for bit, not only the counts drawn from them.
    for width in range(1, qexec.simulator.DENSITY_MAX_WIDTH + 1):
        circuits = [c for c, shots, _ in jobs if shots and c.width == width]
        if circuits:
            together = qexec.simulator._batch_probabilities(circuits, noise)
            for circuit, probabilities in zip(circuits, together):
                [alone] = qexec.simulator._batch_probabilities([circuit], noise)
                assert np.array_equal(probabilities, alone)


def test_a_job_whose_kernel_raises_fails_alone(monkeypatch):
    # Circuits of one width evolve together; when that raises, each runs
    # again alone, so only the job whose circuit raises fails.
    original = qexec.simulator._apply_gate

    def poisoned(states, op, *args, **kwargs):
        if op.angle == 0.5:
            raise FloatingPointError("poisoned angle")
        original(states, op, *args, **kwargs)

    monkeypatch.setattr(qexec.simulator, "_apply_gate", poisoned)
    good = parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];")
    bad = parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; rx(0.5) q[1];")
    for noise in (None, NoiseSpec(0.1)):
        jobs = [(good, 32, 1), (bad, 32, 2), (good, 32, 3)]
        results = qexec.simulator.sample_batch(jobs, noise)
        assert [str(r) for r in results if isinstance(r, Exception)] == ["poisoned angle"]
        assert isinstance(results[1], FloatingPointError)
        assert results[0] == one_job(jobs[0], noise) and results[2] == one_job(jobs[2], noise)


def test_batch_chunks_keep_within_the_budget_and_in_order():
    budget = qexec.simulator._CHUNK_AMPLITUDES
    ideal = qexec.simulator.batch_chunks([20, 3, 3, 19, 19, 19, 21], None)
    assert ideal == [slice(0, 1), slice(1, 4), slice(4, 6), slice(6, 7)]
    # A density matrix holds 4**width amplitudes, so at most 1,024 of width 5
    # fit; a wider noisy job runs as trajectories, within a budget of its own.
    noisy = qexec.simulator.batch_chunks([5] * 2000 + [12], NoiseSpec(0.1))
    assert noisy == [slice(0, 1024), slice(1024, 2001)]
    assert 1024 * 4**5 == budget
