import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import qexec.policies
import qexec.providers
from qexec import cli
from qexec.collector import to_table
from conftest import BELL_QASM, MALFORMED_LISTINGS, serve_listing

INLINE_EXPERIMENT = {
    "name": "inline-bell",
    "circuits": [BELL_QASM],
    "shots": 256,
    "backends": {"local_ideal": ["statevector"], "local_noisy": ["noisy_statevector"]},
    "split_policy": "multiplier",
    "merge_policy": "sum",
    "seed": 5,
}


def run_cli(*args, cwd=None, env_extra=None, timeout=60):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qexec.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


def write_experiment(tmp_path: Path, payload: dict, name="exp.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


@pytest.fixture
def store(tmp_path):
    return tmp_path / "runs"


def test_backends_default_local_pair():
    result = run_cli("backends")
    assert result.returncode == 0
    assert "local_ideal" in result.stdout
    assert "local_noisy" in result.stdout
    assert "statevector" in result.stdout


def test_backends_online_filters_offline_provider(tmp_path):
    providers = tmp_path / "providers.yaml"
    providers.write_text(
        "local_ideal: {kind: local_ideal}\n"
        "sleepy: {kind: mock_delay, delay: 0.1, online: false}\n"
    )
    everything = run_cli("--providers", str(providers), "backends")
    assert "sleepy" in everything.stdout
    online = run_cli("--providers", str(providers), "backends", "--online")
    assert online.returncode == 0
    assert "sleepy" not in online.stdout


def test_backends_no_providers_empty_table(tmp_path):
    providers = tmp_path / "providers.yaml"
    providers.write_text("{}\n")
    result = run_cli("--providers", str(providers), "backends")
    assert result.returncode == 0
    assert "PROVIDER" in result.stdout  # header only
    assert "local_ideal" not in result.stdout


@pytest.mark.parametrize("listing", MALFORMED_LISTINGS)
def test_backends_survives_a_malformed_listing(
    tmp_path, remote_server, monkeypatch, capsys, listing
):
    serve_listing(monkeypatch, listing)
    providers = tmp_path / "providers.yaml"
    providers.write_text(
        "local_ideal: {kind: local_ideal}\n"
        f"remote: {{kind: remote_http, endpoint: '{remote_server.endpoint}'}}\n"
    )
    assert cli.main(["--providers", str(providers), "backends"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # Never discovered, so the remote provider lists nothing.
    assert [row.split()[0] for row in rows] == ["local_ideal"]


def test_run_persists_record_and_results_replay(tmp_path, store):
    exp = write_experiment(tmp_path, INLINE_EXPERIMENT)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 0, result.stderr
    run_id = result.stdout.splitlines()[0].strip()
    run_dir = store / run_id
    assert {p.name for p in run_dir.iterdir()} == {
        "experiment.yaml",
        "dispatch.json",
        "status.json",
        "results.json",
        "merged.json",
        "meta.json",
    }

    # results replay straight from disk, no providers needed
    shown = run_cli("--store", str(store), "results", run_id)
    assert shown.returncode == 0
    tree = json.loads(shown.stdout)
    assert sum(tree["local_ideal"]["statevector"][0].values()) == 256

    csv_out = run_cli("--store", str(store), "results", run_id, "--csv")
    lines = csv_out.stdout.strip().splitlines()
    assert lines[0] == "provider,backend,job,bitstring,count"
    expected = [
        f"{p},{b},{j},{k},{c}" for p, b, j, k, c in to_table(tree)
    ]
    assert lines[1:] == expected

    merged = run_cli("--store", str(store), "results", run_id, "--merged")
    assert merged.returncode == 0
    assert json.loads(merged.stdout)["merged"]

    status = run_cli("--store", str(store), "status", run_id)
    assert status.returncode == 0
    assert status.stdout.count("DONE") == 2


def test_run_meta_keeps_experiment_file(tmp_path, store):
    exp = write_experiment(tmp_path, INLINE_EXPERIMENT)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 0, result.stderr
    run_id = result.stdout.splitlines()[0].strip()
    meta = json.loads((store / run_id / "meta.json").read_text())
    assert meta["experiment_file"] == str(exp)
    assert meta["run_id"] == run_id
    assert meta["merge_policy"] == "sum"
    assert meta["started_at"] is not None
    assert meta["finished_at"] is not None


def test_run_unknown_policy_exit2_no_run_dir(tmp_path, store):
    payload = dict(INLINE_EXPERIMENT, split_policy="does_not_exist")
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 2
    assert not store.exists()


def test_run_merge_failure_leaves_complete_record(tmp_path, store):
    # tvd compares one run per backend, so two circuits on one backend make
    # the merge raise after every job is done.
    providers = tmp_path / "providers.yaml"
    providers.write_text("slow: {kind: mock_delay, delay: 0.3}\n")
    payload = {
        "circuits": [BELL_QASM, BELL_QASM],
        "shots": 16,
        "backends": {"slow": ["delayed_statevector"]},
        "merge_policy": "tvd",
    }
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "--providers", str(providers), "run", str(exp))
    assert result.returncode == 2
    assert "one run per backend" in result.stderr
    run_dir = store / result.stdout.splitlines()[0].strip()
    statuses = json.loads((run_dir / "status.json").read_text())
    assert [entry["state"] for entry in statuses.values()] == ["DONE", "DONE"]
    assert json.loads((run_dir / "meta.json").read_text())["finished_at"] is not None
    assert (run_dir / "results.json").exists()
    assert not (run_dir / "merged.json").exists()


@st.composite
def run_outcomes(draw):
    """A run of 1-2 Bell circuits on the default local pair (2-4 jobs): which
    job ordinals fail, its base seed, its merge policy and whether that raises."""
    n_circuits = draw(st.integers(1, 2))
    failing = draw(st.sets(st.integers(0, 2 * n_circuits - 1)))
    merge_policy = draw(st.sampled_from([None, "sum"]))
    merge_raises = merge_policy is not None and draw(st.booleans())
    return n_circuits, failing, draw(st.integers(0, 1000)), merge_policy, merge_raises


@given(run_outcomes())
@settings(max_examples=25, deadline=None)
def test_run_exit_code_agrees_with_saved_record(outcome):
    n_circuits, failing, seed, merge_policy, merge_raises = outcome
    failing_seeds = {seed + ordinal for ordinal in failing}  # job k gets seed + k

    def failing_kernel(kernel):
        def run(jobs, *args):  # each job is (circuit, shots, seed)
            results = kernel(jobs, *args)
            fault = RuntimeError("injected kernel fault")
            return [fault if seed in failing_seeds else r for (_, _, seed), r in zip(jobs, results)]

        return run

    def raising_merge(results, context=None):
        raise RuntimeError("injected merge fault")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(qexec.providers, "sample_batch", failing_kernel(qexec.providers.sample_batch))
        if merge_raises:
            mp.setattr(qexec.policies, "merge_sum", raising_merge)
        payload = dict(
            INLINE_EXPERIMENT, circuits=[BELL_QASM] * n_circuits, shots=8, seed=seed,
            merge_policy=merge_policy,
        )
        exp = write_experiment(Path(tmp), payload)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--store", f"{tmp}/runs", "run", str(exp)])

        run_dir = Path(tmp) / "runs" / out.getvalue().splitlines()[0].strip()
        statuses = json.loads((run_dir / "status.json").read_text())
        failed = {int(k) for k, entry in statuses.items() if entry["state"] == "FAILED"}
        merged_saved = (run_dir / "merged.json").exists()
        assert (run_dir / "results.json").exists()

    assert failed == failing
    assert merged_saved == (merge_policy is not None and not merge_raises)
    if merge_policy is not None and not merged_saved:
        assert code == 2
    elif failed:
        assert code == 3
    else:
        assert code == 0


def test_run_null_split_policy_exit1(tmp_path, store):
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, split_policy=None))
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 1
    assert "split_policy must be a string" in result.stderr
    assert not store.exists()


def test_run_null_merge_policy_and_name_allowed(tmp_path, store):
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, merge_policy=None, name=None))
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 0, result.stderr


def test_run_bad_providers_file_exit1(tmp_path, store):
    providers = tmp_path / "providers.yaml"
    providers.write_text("local_noisy: {kind: local_noisy, noise: {p: 0.05}}\n")
    payload = dict(INLINE_EXPERIMENT, backends={"local_noisy": ["noisy_statevector"]})
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "--providers", str(providers), "run", str(exp))
    assert result.returncode == 1
    assert "p_depolarizing" in result.stderr
    assert not store.exists()


def test_run_fractional_max_qubits_exit1(tmp_path, store):
    providers = tmp_path / "providers.yaml"
    providers.write_text("local_ideal: {kind: local_ideal, max_qubits: 3.7}\n")
    payload = dict(INLINE_EXPERIMENT, backends={"local_ideal": ["statevector"]})
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "--providers", str(providers), "run", str(exp))
    assert result.returncode == 1
    assert "max_qubits must be an integer" in result.stderr
    assert not store.exists()


@pytest.mark.parametrize("key, value", [("shots", True), ("seed", False)])
def test_run_boolean_shots_or_seed_exit1(tmp_path, store, key, value):
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, **{key: value}))
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 1
    assert f"{key} must be" in result.stderr
    assert not store.exists()


def test_run_unknown_key_exit1(tmp_path, store):
    payload = dict(INLINE_EXPERIMENT, frobnicate=True)
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 1
    assert "unknown keys" in result.stderr


@pytest.mark.parametrize("inline", [False, True])
def test_run_bad_circuit_names_its_source(tmp_path, store, inline):
    bad = BELL_QASM.replace("h q[0];", "h q[5];")
    if inline:
        circuits, source = [BELL_QASM, bad], "circuit1"
    else:
        (tmp_path / "good.qasm").write_text(BELL_QASM)
        (tmp_path / "bad.qasm").write_text(bad)
        circuits, source = ["good.qasm", "bad.qasm"], str(tmp_path / "bad.qasm")
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, circuits=circuits))
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 1
    message = f"error: {source}: qubit index out of range: 5 >= 2 (line 5, column 3)"
    assert message in result.stderr
    assert not store.exists()


def test_run_missing_file_exit1(store):
    result = run_cli("--store", str(store), "run", "no-such-file.yaml")
    assert result.returncode == 1


EXPERIMENTS_DIR = Path(__file__).resolve().parent.parent / "scripts" / "experiments"


@pytest.mark.parametrize("path", sorted(EXPERIMENTS_DIR.rglob("*.yaml")), ids=lambda p: p.name)
def test_loaders_read_the_same_values_without_libyaml(path, monkeypatch):
    # The loaders use libyaml's CSafeLoader when PyYAML has it; the values
    # they return must not depend on it.
    load = cli.load_providers_file if path.name.startswith("providers") else cli.load_experiment_file
    with_default_loader = load(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load(path) == with_default_loader


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("bad_file", ["experiment", "providers"])
def test_run_invalid_yaml_exit1(tmp_path, store, monkeypatch, capsys, libyaml, bad_file):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    bad = tmp_path / "bad.yaml"
    bad.write_text("circuits: [unclosed\n")
    exp = bad if bad_file == "experiment" else write_experiment(tmp_path, INLINE_EXPERIMENT)
    providers = ["--providers", str(bad)] if bad_file == "providers" else []
    assert cli.main(["--store", str(store), *providers, "run", str(exp)]) == 1
    assert "invalid YAML" in capsys.readouterr().err
    assert not store.exists()


def test_run_unknown_backend_exit2(tmp_path, store):
    payload = dict(INLINE_EXPERIMENT, backends={"local_ideal": ["warp_drive"]})
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 2
    assert not store.exists()


def test_run_all_online_sugar(tmp_path, store):
    payload = dict(INLINE_EXPERIMENT, backends="all_online", merge_policy=None)
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 0, result.stderr
    run_id = result.stdout.splitlines()[0].strip()
    tree = json.loads((store / run_id / "results.json").read_text())
    assert set(tree) == {"local_ideal", "local_noisy"}


def test_run_no_wait_prints_run_id_immediately(tmp_path, store):
    providers = tmp_path / "providers.yaml"
    providers.write_text("slow: {kind: mock_delay, delay: 1.5}\n")
    payload = {
        "circuits": [BELL_QASM],
        "shots": 64,
        "backends": {"slow": ["delayed_statevector"]},
        "seed": 1,
    }
    exp = write_experiment(tmp_path, payload)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "qexec.cli",
            "--store",
            str(store),
            "--providers",
            str(providers),
            "run",
            str(exp),
            "--no-wait",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        run_id = proc.stdout.readline().strip()
        assert run_id
        # The run is still in flight; the stored record already answers status.
        in_flight = run_cli("--store", str(store), "status", run_id)
        assert in_flight.returncode == 0
        assert "QUEUED" in in_flight.stdout or "RUNNING" in in_flight.stdout
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    final = run_cli("--store", str(store), "status", run_id)
    assert "DONE" in final.stdout
    assert (store / run_id / "results.json").exists()


def test_merged_without_merge_policy_exit1(tmp_path, store):
    payload = dict(INLINE_EXPERIMENT)
    payload.pop("merge_policy")
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "run", str(exp))
    run_id = result.stdout.splitlines()[0].strip()
    merged = run_cli("--store", str(store), "results", run_id, "--merged")
    assert merged.returncode == 1
    assert "no merge policy" in merged.stderr


def test_merged_after_a_merge_that_raised_names_the_policy(tmp_path, store):
    # tvd compares one run per backend, so two circuits on one backend make
    # the merge raise: the run has a merge policy, and no merged output.
    payload = dict(INLINE_EXPERIMENT, circuits=[BELL_QASM, BELL_QASM], merge_policy="tvd")
    payload["backends"] = {"local_ideal": ["statevector"]}
    exp = write_experiment(tmp_path, payload)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 2
    run_id = result.stdout.splitlines()[0].strip()
    merged = run_cli("--store", str(store), "results", run_id, "--merged")
    assert merged.returncode == 1
    assert "merge policy 'tvd' gave no merged output" in merged.stderr


def test_merged_of_a_run_not_finalized(tmp_path, store):
    # A run whose process ended before it finalized the record: meta.json
    # names its merge policy, and there is no results.json yet.
    exp = write_experiment(tmp_path, INLINE_EXPERIMENT)
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 0
    run_id = result.stdout.splitlines()[0].strip()
    (store / run_id / "merged.json").unlink()
    (store / run_id / "results.json").unlink()
    merged = run_cli("--store", str(store), "results", run_id, "--merged")
    assert merged.returncode == 1
    assert "not finalized yet" in merged.stderr


def test_status_unknown_run(store):
    result = run_cli("--store", str(store), "status", "nope")
    assert result.returncode == 1


def test_store_env_var(tmp_path):
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, merge_policy=None))
    env_store = tmp_path / "env-store"
    result = run_cli("run", str(exp), env_extra={"QEXEC_HOME": str(env_store)})
    assert result.returncode == 0
    run_id = result.stdout.splitlines()[0].strip()
    assert (env_store / run_id / "results.json").exists()


def test_reruns_append_new_directories(tmp_path, store):
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, merge_policy=None))
    first = run_cli("--store", str(store), "run", str(exp))
    second = run_cli("--store", str(store), "run", str(exp))
    id1 = first.stdout.splitlines()[0].strip()
    id2 = second.stdout.splitlines()[0].strip()
    assert id1 != id2
    assert (store / id1).exists() and (store / id2).exists()
    # Prior record untouched: identical bytes before and after the rerun.
    assert json.loads((store / id1 / "results.json").read_text()) == json.loads(
        (store / id2 / "results.json").read_text()
    )  # same seed, same experiment -> reproducible
