"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a PASS line with the measured quantities on success
(visible with ``pytest tests/test_acceptance.py -v -s``); a failing
criterion fails its test.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qexec import (
    Circuit,
    Dispatch,
    NoiseSpec,
    ProviderConfig,
    QuantumExecutor,
    parse_qasm,
    sample,
    sample_noisy,
    split_even,
    split_multiplier,
    statevector,
    to_table,
    tree_to_json,
    tvd,
)
from qexec.server import RemoteServer, ServerConfig

from conftest import BELL_QASM, GHZ3_QASM, post_job, read_jobs

EXPERIMENTS_DIR = Path(__file__).parent.parent / "scripts" / "experiments"
INV_SQRT2 = 1 / math.sqrt(2)


def _pass(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}", flush=True)


def _bell() -> Circuit:
    return parse_qasm(BELL_QASM, name="bell")


# --------------------------------------------------------------------------
# A1: Scenario 1 — same shot count on every backend of every provider kind
# --------------------------------------------------------------------------


def test_a1_all_backends_multiplier_sweep():
    circuits = [
        _bell(),
        parse_qasm(GHZ3_QASM, name="ghz3"),
        parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; h q[1];", name="superposition"),
    ]
    with RemoteServer(ServerConfig()) as server:
        qe = QuantumExecutor(
            providers=[
                ProviderConfig("local_ideal", "local_ideal"),
                ProviderConfig("local_noisy", "local_noisy", noise=NoiseSpec(0.05)),
                ProviderConfig("mock_device", "mock_delay", delay=0.2),
                ProviderConfig("remote", "remote_http", endpoint=server.endpoint),
            ]
        )
        listing = qe.get_backends(online_only=True)
        backends = {prov: [d.backend_name for d in descs] for prov, descs in listing.items()}
        n_backends = sum(len(names) for names in backends.values())
        assert n_backends >= 4  # all four provider kinds contribute

        start = time.monotonic()
        collector = qe.run_experiment(
            circuits=circuits,
            shots=1024,
            backends=backends,
            split_policy="multiplier",
            parallel=True,
            wait=True,
            base_seed=1,
        )
        wall = time.monotonic() - start

    assert wall < 10.0
    assert collector.dispatch.total_jobs() == 3 * n_backends
    assert not collector.failed_jobs()

    tree = collector.get_results()
    total_counts = 0
    for provider_id, provider_backends in tree.items():
        assert isinstance(provider_id, str) and isinstance(provider_backends, dict)
        for backend_name, runs in provider_backends.items():
            assert isinstance(backend_name, str) and isinstance(runs, list)
            for counts in runs:
                assert isinstance(counts, dict)
                assert sum(counts.values()) == 1024
                total_counts += 1
    assert total_counts == 3 * n_backends
    # JSON shape round-trips: {provider: {backend: [counts...]}}
    assert json.loads(tree_to_json(tree)) == tree
    _pass("A1", f"{3 * n_backends} jobs on {n_backends} backends, all sums 1024, {wall:.2f}s")


# --------------------------------------------------------------------------
# A2: Scenario 2 — TVD benchmarking, desk-scale substituted properties
# --------------------------------------------------------------------------


def test_a2_tvd_benchmark():
    start = time.monotonic()
    qe = QuantumExecutor(
        providers=[
            ProviderConfig("local_ideal", "local_ideal"),
            ProviderConfig("local_noisy", "local_noisy", noise=NoiseSpec(0.05)),
        ]
    )
    collector = qe.run_experiment(
        circuits=_bell(),
        shots=2048,
        backends={"local_ideal": ["statevector"], "local_noisy": ["noisy_statevector"]},
        split_policy="multiplier",
        merge_policy="tvd",
        parallel=True,
        wait=True,
        base_seed=3,
    )
    merged, _ = collector.get_merged_results()
    assert list(merged) == ["local_noisy/noisy_statevector"]
    value = merged["local_noisy/noisy_statevector"]
    assert 0.0 < value < 1.0

    bell = _bell()
    resample_floor = tvd(sample(bell, 2048, seed=100), sample(bell, 2048, seed=200))
    assert resample_floor < 0.05

    def mean_noisy_tvd(p: float) -> float:
        exact = {"00": 1, "11": 1}
        return float(
            np.mean(
                [tvd(sample_noisy(bell, 2048, NoiseSpec(p), seed=s), exact) for s in range(10)]
            )
        )

    low, high = mean_noisy_tvd(0.02), mean_noisy_tvd(0.10)
    assert high > low
    wall = time.monotonic() - start
    assert wall < 30.0
    _pass(
        "A2",
        f"merged tvd={value:.4f}, resample floor={resample_floor:.4f} < 0.05, "
        f"tvd(p=0.10)={high:.4f} > tvd(p=0.02)={low:.4f}, {wall:.1f}s",
    )


# --------------------------------------------------------------------------
# A3: TVD unit oracle
# --------------------------------------------------------------------------


def test_a3_tvd_unit_oracle():
    assert tvd({"0": 100}, {"0": 100}) == 0.0
    assert tvd({"0": 100}, {"1": 100}) == 1.0
    quarter = tvd({"0": 75, "1": 25}, {"0": 50, "1": 50})
    assert abs(quarter - 0.25) <= 1e-12
    _pass("A3", f"identical=0, disjoint=1, quarter={quarter!r} within 1e-12")


# --------------------------------------------------------------------------
# A4: simulator fidelity
# --------------------------------------------------------------------------


def test_a4_simulator_fidelity():
    bell = _bell()
    counts = sample(bell, 100_000, seed=8)
    empirical_tvd = tvd(counts, {"00": 1, "11": 1})
    assert empirical_tvd < 0.01

    h_state = statevector(parse_qasm("OPENQASM 2.0; qreg q[1]; h q[0];"))
    assert np.allclose(h_state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-9)
    x_state = statevector(parse_qasm("OPENQASM 2.0; qreg q[1]; x q[0];"))
    assert np.allclose(x_state.amplitudes, [0, 1], atol=1e-9)
    bell_state = statevector(bell)
    assert np.allclose(bell_state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-9)
    ghz = statevector(parse_qasm(GHZ3_QASM))
    expected = np.zeros(8)
    expected[0] = expected[7] = INV_SQRT2
    assert np.allclose(ghz.amplitudes, expected, atol=1e-9)
    _pass("A4", f"bell empirical TVD at 100k shots = {empirical_tvd:.5f} < 0.01; H/X/Bell/GHZ-3 closed forms within 1e-9")


# --------------------------------------------------------------------------
# A5: split policy properties
# --------------------------------------------------------------------------


@given(
    shots=st.integers(min_value=1, max_value=1_000_000),
    n_targets=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=300, deadline=None)
def test_a5_split_policy_properties(shots, n_targets):
    targets = [("prov", f"b{i:02d}") for i in range(n_targets)]
    circuit = parse_qasm("OPENQASM 2.0; qreg q[1]; h q[0];", name="h")

    even = split_even([circuit], shots, targets)
    allocation = [spec.shots for _, _, spec in even.jobs()]
    base, remainder = divmod(shots, n_targets)
    expected = [s for s in [base + 1] * remainder + [base] * (n_targets - remainder) if s > 0]
    assert allocation == expected
    assert sum(allocation) == shots

    multiplier = split_multiplier([circuit, circuit], shots, targets)
    assert multiplier.total_jobs() == 2 * n_targets
    assert multiplier.total_shots() == shots * 2 * n_targets


def test_a5_pass_line():
    # The property above ran across the random (shots, targets) grid.
    _pass("A5", "even split conserves shots with 4,3,3-style remainder; multiplier totals exact")


# --------------------------------------------------------------------------
# A6: async contract
# --------------------------------------------------------------------------


def test_a6_async_contract():
    qe = QuantumExecutor(providers=[ProviderConfig("mock", "mock_delay", delay=0.5)])
    dispatch = Dispatch()
    for _ in range(4):
        dispatch.add_job("mock", "delayed_statevector", _bell(), 64)
    start = time.monotonic()
    collector = qe.run_dispatch(dispatch, parallel=True, wait=False, base_seed=0)
    immediate = collector.get_results(block=False)
    assert immediate == {}  # delayed leaves missing from the partial tree
    full = collector.get_results(block=True, timeout=10)
    wall = time.monotonic() - start
    assert len(full["mock"]["delayed_statevector"]) == 4
    assert wall < 3 * 0.5
    _pass("A6", f"partial tree empty at t=0, 4 leaves after blocking, wall={wall:.2f}s < 1.5s")


# --------------------------------------------------------------------------
# A7: determinism
# --------------------------------------------------------------------------


def test_a7_determinism_parallel_vs_serial():
    def run(parallel: bool) -> str:
        qe = QuantumExecutor(
            providers=[
                ProviderConfig("local_ideal", "local_ideal"),
                ProviderConfig("local_noisy", "local_noisy", noise=NoiseSpec(0.05)),
            ]
        )
        collector = qe.run_experiment(
            circuits=[_bell(), parse_qasm(GHZ3_QASM, name="ghz3")],
            shots=1024,
            backends={"local_ideal": ["statevector"], "local_noisy": ["noisy_statevector"]},
            split_policy="multiplier",
            parallel=parallel,
            wait=True,
            base_seed=77,
        )
        return tree_to_json(collector.get_results())

    parallel_json = run(parallel=True)
    serial_json = run(parallel=False)
    assert parallel_json.encode() == serial_json.encode()
    _pass("A7", f"parallel and serial result-tree JSON byte-identical ({len(parallel_json)} bytes)")


# --------------------------------------------------------------------------
# A8: remote equivalence
# --------------------------------------------------------------------------


def test_a8_remote_equivalence():
    bell = _bell()
    with RemoteServer(ServerConfig()) as server:
        qe = QuantumExecutor(
            providers=[
                ProviderConfig("local_ideal", "local_ideal"),
                ProviderConfig("remote", "remote_http", endpoint=server.endpoint),
            ]
        )
        seed = 998877
        registry = qe.virtual_provider
        job = (bell, 777, seed)
        jobs = {p: registry.submit_batch(p, "statevector", [job]) for p in ("remote", "local_ideal")}
        deadline = time.time() + 10
        while time.time() < deadline:
            statuses = {p: registry.status_batch(p, job_ids)[0] for p, job_ids in jobs.items()}
            if all(status.state.terminal for status in statuses.values()):
                break
            time.sleep(0.01)
        remote_counts = statuses["remote"].counts
        local_counts = statuses["local_ideal"].counts
        assert remote_counts is not None and remote_counts == local_counts

    with RemoteServer(ServerConfig(delay=0.5)) as server:
        job_id = post_job(server.endpoint, qasm=BELL_QASM, shots=32, seed=0)
        [early] = read_jobs(server.endpoint, job_id)
        assert early["state"] == "QUEUED" and "counts" not in early
        deadline = time.time() + 10
        while time.time() < deadline:
            [late] = read_jobs(server.endpoint, job_id)
            if late["state"] == "DONE":
                break
            time.sleep(0.02)
        assert late["state"] == "DONE" and sum(late["counts"].values()) == 32
    _pass("A8", f"remote == local counts for seed {seed}; delayed job showed counts only once DONE")


# --------------------------------------------------------------------------
# A9: CLI end-to-end with the documented experiment files
# --------------------------------------------------------------------------


def _run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "qexec.cli", *args], capture_output=True, text=True, timeout=timeout
    )


def test_a9_cli_end_to_end(tmp_path):
    store = tmp_path / "runs"
    providers = EXPERIMENTS_DIR / "providers_local.yaml"

    scenario1 = EXPERIMENTS_DIR / "scenario1_all_backends.yaml"
    result1 = _run_cli("--store", str(store), "--providers", str(providers), "run", str(scenario1))
    assert result1.returncode == 0, result1.stderr
    run1 = result1.stdout.splitlines()[0].strip()

    scenario2 = EXPERIMENTS_DIR / "scenario2_tvd.yaml"
    result2 = _run_cli("--store", str(store), "--providers", str(providers), "run", str(scenario2))
    assert result2.returncode == 0, result2.stderr
    run2 = result2.stdout.splitlines()[0].strip()
    merged = json.loads((store / run2 / "merged.json").read_text())
    assert list(merged["merged"]) == ["local_noisy/noisy_statevector"]

    # results --csv ordering matches the canonical table contract
    csv_out = _run_cli("--store", str(store), "results", run1, "--csv")
    stored_tree = json.loads((store / run1 / "results.json").read_text())
    expected_rows = [f"{p},{b},{j},{k},{c}" for p, b, j, k, c in to_table(stored_tree)]
    lines = csv_out.stdout.strip().splitlines()
    assert lines[0] == "provider,backend,job,bitstring,count"
    assert lines[1:] == expected_rows

    # the scenario-2 pair differs ONLY in the backends stanza, and both run
    scenario2_alt = EXPERIMENTS_DIR / "scenario2_tvd_alt.yaml"
    doc_a = yaml.safe_load(scenario2.read_text())
    doc_b = yaml.safe_load(scenario2_alt.read_text())
    assert doc_a["backends"] != doc_b["backends"]
    doc_a.pop("backends")
    doc_b.pop("backends")
    assert doc_a == doc_b
    result3 = _run_cli(
        "--store", str(store), "--providers", str(providers), "run", str(scenario2_alt)
    )
    assert result3.returncode == 0, result3.stderr
    run3 = result3.stdout.splitlines()[0].strip()
    merged_alt = json.loads((store / run3 / "merged.json").read_text())
    assert list(merged_alt["merged"]) == ["local_noisy_hot/noisy_statevector"]
    _pass(
        "A9",
        f"scenario1 ({run1}) and scenario2 ({run2}) exit 0; csv matches table contract; "
        f"backends-only swap reran clean ({run3})",
    )
