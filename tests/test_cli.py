import contextlib
import hashlib
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
from qexec import cli, record
from qexec.circuit import parse_qasm
from qexec.collector import to_table
from qexec.errors import QasmError
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
    assert f"error: {exp}: " in result.stderr
    assert f"{key} must be" in result.stderr
    assert not store.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("policy_context", None, "policy_context must be a mapping"),
        ("parallel", "no", "parallel must be a boolean"),
        ("shots", 1.5, "shots must be a positive integer"),
        ("backends", ["local_ideal"], "backends must be a mapping or the literal 'all_online'"),
        ("backends", {"local_ideal": "statevector"}, "backends['local_ideal'] must be a list of names"),
        ("merge_policy", 3, "merge_policy must be a string"),
        ("name", 3, "name must be a string"),
        ("wait", True, "unknown keys ['wait']"),
    ],
)
def test_run_malformed_value_exit1_names_the_file(tmp_path, store, capsys, key, value, message):
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, **{key: value}))
    assert cli.main(["--store", str(store), "run", str(exp)]) == 1
    assert capsys.readouterr().err == f"error: {exp}: {message}\n"
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
    # qexec run has no --no-wait: it prints the run id once the record
    # exists, before it waits for the jobs.
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


# The circuits of the pinned record: rz(0) and rz(-0) compare equal but
# print apart, so each file's circuit is written as its own text.
PINNED_CIRCUITS = {
    "zero.qasm": (
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\nrz(0) q[0];\ncx q[0],q[2];\nmeasure q -> c;\n"
    ),
    "minus.qasm": (
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\nrz(-0) q[0];\ncx q[0],q[2];\nmeasure q -> c;\n"
    ),
    "two.dots.qasm": (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nry(pi/3) q[1]; cz q[1],q[2];\nt q[2]; h q[0]; // last\n'
    ),
    "absolute.qasm": "OPENQASM 2.0;\nqreg r[3];\nx r[2];\nrx(-0.25) r[0];\ncx r[2],r[1];\n",
}
PINNED_INLINE = "OPENQASM 2.0; qreg q[3]; h q[1]; s q[1]; cx q[1],q[0]; rz(-pi/4) q[2];"
# sha256 of each record file a seeded run of the pinned experiment writes.
PINNED_DIGESTS = {
    "dispatch.json": "13159fc84544ee00b82760285157d31cef0b05d24e57f6cf09b36ac5bf545482",
    "status.json": "d88d4fc698f42da4ef452934d718ebb87196085ed45b7089eeaab3d46f48b5b6",
    "results.json": "9bfb3eae6a1b2ebc7fbf211205f6fdd14be91544cbcbbbd332966d50fb15df0f",
    "merged.json": "dfb538604add9cdd9e52632deeaef1aa1ff9d3064d15ee64979f9ef9505b77c5",
}


def _pinned_experiment(tmp_path: Path) -> Path:
    (tmp_path / "sub").mkdir()
    for name, text in PINNED_CIRCUITS.items():
        (tmp_path / ("sub" if name == "absolute.qasm" else "") / name).write_text(text, encoding="utf-8")
    absolute = str(tmp_path / "sub" / "absolute.qasm")
    circuits = ["zero.qasm", "minus.qasm", "two.dots.qasm", absolute, PINNED_INLINE, "zero.qasm"]
    return write_experiment(tmp_path, dict(INLINE_EXPERIMENT, circuits=circuits, shots=64, seed=29))


def test_run_writes_the_pinned_record_bytes(tmp_path, store, capsys):
    # Every statement kind, equal ops that print apart, a file name of two
    # dots, an absolute path, inline QASM and a repeated file, merged by sum.
    exp = _pinned_experiment(tmp_path)
    assert cli.main(["--store", str(store), "run", str(exp)]) == 0
    run_dir = store / capsys.readouterr().out.split()[0]
    digests = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in ("dispatch.json", "status.json", "results.json", "merged.json")
    }
    assert digests == PINNED_DIGESTS


class _StubCollector:
    """The two reads that status.json is written from."""

    def __init__(self, states, sites):
        self._states, self._sites = states, sites

    def status(self):
        return dict(self._states)

    def job_site(self, ordinal):
        return self._sites[ordinal]


@pytest.mark.parametrize("failed", [False, True])
def test_status_json_is_what_json_dumps_writes(tmp_path, failed):
    # Ordinals past 9 sort as strings ("10" before "2"), jobs share some
    # entries and not others, and error texts need escaping.
    JobState = qexec.providers.JobState
    errors = [None, 'quote " and \\ backslash', "caf\u00e9\nline", None]
    states, sites = {}, {}
    for ordinal in reversed(range(23)):
        state = JobState.FAILED if failed and ordinal % 5 == 3 else JobState.DONE
        states[ordinal] = (state, errors[ordinal % 4] if state is JobState.FAILED else None)
        sites[ordinal] = ("p" + str(ordinal % 2), "b" + str(ordinal % 3))
    assert record.write_status(tmp_path, _StubCollector(states, sites)) is failed
    expected = {
        str(ordinal): {"provider": sites[ordinal][0], "backend": sites[ordinal][1],
                       "state": state.value, "error": error}
        for ordinal, (state, error) in states.items()
    }
    written = (tmp_path / "status.json").read_text(encoding="utf-8")
    assert written == json.dumps(expected, sort_keys=True) + "\n"


@pytest.mark.parametrize("scenario", sorted(p.name for p in EXPERIMENTS_DIR.glob("scenario*.yaml")))
def test_a_finished_record_reads_back_as_its_run(tmp_path, store, capsys, monkeypatch, scenario):
    collectors = []

    class KeepingExecutor(cli.QuantumExecutor):
        def run_experiment(self, spec=None, **kwargs):
            collectors.append(super().run_experiment(spec, **kwargs))
            return collectors[-1]

    monkeypatch.setattr(cli, "QuantumExecutor", KeepingExecutor)
    providers = EXPERIMENTS_DIR / "providers_local.yaml"
    argv = ["--store", str(store), "--providers", str(providers), "run", str(EXPERIMENTS_DIR / scenario)]
    assert cli.main(argv) == 0
    [collector] = collectors
    run_dir = store / collector.run_id
    assert record.read_dispatch(run_dir) == collector.dispatch
    assert record.read_statuses(run_dir) == {
        ordinal: (*collector.job_site(ordinal), state, error)
        for ordinal, (state, error) in sorted(collector.status().items())
    }
    assert record.read_tree(run_dir) == collector.get_results()
    assert record.read_meta(run_dir)["finished_at"] == collector.finished_at
    merged = record.read_merged(run_dir)
    assert (merged is None) == (collector.merge_policy is None)
    # run prints the merged text that it wrote, after its summary line.
    assert capsys.readouterr().out.endswith(merged or "jobs finished\n")


NEWLINE_EXPERIMENT = """\
# A comment line, an inline circuit as a block scalar, and a circuit file.
name: newlines
circuits:
  - |
    OPENQASM 2.0;
    qreg q[2];
    h q[0];
    cx q[0],q[1];
  - bell.qasm
shots: 64
backends: {local_ideal: [statevector]}
merge_policy: sum
seed: 3
"""


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_the_record_holds_the_experiment_file_byte_for_byte(tmp_path, store, capsys, newline):
    # experiment.yaml is the file as given, whatever its line ends, and the
    # file runs as its LF form does.
    (tmp_path / "bell.qasm").write_text(BELL_QASM, encoding="utf-8")
    run_dirs = []
    for name, ends in (("lf.yaml", "\n"), ("given.yaml", newline)):
        exp = tmp_path / name
        exp.write_bytes(NEWLINE_EXPERIMENT.replace("\n", ends).encode("utf-8"))
        assert cli.main(["--store", str(store), "run", str(exp)]) == 0
        run_dirs.append(store / capsys.readouterr().out.split()[0])
        assert (run_dirs[-1] / "experiment.yaml").read_bytes() == exp.read_bytes()
    for name in ("dispatch.json", "results.json", "merged.json"):
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()


def test_run_into_a_reader_that_leaves_after_the_run_id(tmp_path, store):
    # As `qexec run ... | head -n 1` does: the reader takes the run id and
    # closes the pipe while the jobs are in flight. The summary then has
    # nowhere to go, and the run still finalizes its record and exits 0.
    providers = tmp_path / "providers.yaml"
    providers.write_text("slow: {kind: mock_delay, delay: 0.5}\n")
    payload = {"circuits": [BELL_QASM], "shots": 64, "backends": {"slow": ["delayed_statevector"]},
               "merge_policy": "sum"}
    exp = write_experiment(tmp_path, payload)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qexec.cli", "--store", str(store), "--providers", str(providers), "run", str(exp)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        run_id = proc.stdout.readline().strip()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=30) == 0, stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert record.read_meta(store / run_id)["finished_at"] is not None
    assert (store / run_id / "results.json").exists()


def test_run_names_a_circuit_too_wide_for_its_backend(tmp_path, store, capsys):
    exp = _pinned_experiment(tmp_path)
    providers = tmp_path / "providers.yaml"
    providers.write_text("local_ideal: {kind: local_ideal, max_qubits: 2}\n")
    payload = yaml.safe_load(exp.read_text())
    exp.write_text(yaml.safe_dump(dict(payload, backends={"local_ideal": ["statevector"]})))
    assert cli.main(["--store", str(store), "--providers", str(providers), "run", str(exp)]) == 2
    err = capsys.readouterr().err
    for name in ("zero", "minus", "two.dots", "absolute", "circuit4"):
        assert f"circuit {name!r} width 3 exceeds local_ideal/statevector limit 2" in err
    assert not store.exists()


def test_run_circuit_file_not_utf8_exit1(tmp_path, store):
    (tmp_path / "cafe.qasm").write_bytes(BELL_QASM.encode() + b"// caf\xe9\n")
    exp = write_experiment(tmp_path, dict(INLINE_EXPERIMENT, circuits=["cafe.qasm"]))
    result = run_cli("--store", str(store), "run", str(exp))
    assert result.returncode == 1
    assert f"error: cannot read circuit file {tmp_path / 'cafe.qasm'}: 'utf-8' codec" in result.stderr
    assert "Traceback" not in result.stderr
    assert not store.exists()


@pytest.mark.parametrize("bad_file", ["experiment", "providers"])
def test_run_yaml_file_not_utf8_exit1(tmp_path, store, capsys, bad_file):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: caf\xe9\n")
    exp = bad if bad_file == "experiment" else write_experiment(tmp_path, INLINE_EXPERIMENT)
    providers = ["--providers", str(bad)] if bad_file == "providers" else []
    assert cli.main(["--store", str(store), *providers, "run", str(exp)]) == 1
    assert f"error: cannot read {bad}: 'utf-8' codec" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("broken", [False, True])
def test_circuit_files_read_as_text_mode_reads_them(tmp_path, newline, broken):
    # Each line break of a circuit file, "\r\n" and a lone "\r" too, reads as
    # one, so an error's line and column are those of its text read as text.
    text = BELL_QASM.replace("h q[0];", "h q[5];" if broken else "h q[0];\r\nx q[1];")
    path = tmp_path / "c.qasm"
    path.write_bytes(text.replace("\n", newline).encode())
    try:
        expected = parse_qasm(path.read_text(encoding="utf-8"), name="c")
    except QasmError as exc:
        expected = f"{path}: {exc.message}", exc.line, exc.column
    try:
        [got] = cli.resolve_circuits(["c.qasm"], tmp_path)
    except QasmError as exc:
        got = exc.message, exc.line, exc.column
    assert got == expected
    assert broken or [op.gate.value for op in got.gates][:2] == ["h", "x"]


@pytest.mark.parametrize("entry", ["c.qasm", "two.dots.qasm", ".hidden", "trail.", "trail..", "sub/c.qasm/"])
def test_a_circuit_file_is_named_by_its_path_stem(tmp_path, entry):
    (tmp_path / "sub").mkdir()
    (tmp_path / entry.rstrip("/")).write_text(BELL_QASM)
    [circuit] = cli.resolve_circuits([entry], tmp_path)
    assert circuit.name == Path(entry).stem
    assert circuit == parse_qasm(BELL_QASM)
