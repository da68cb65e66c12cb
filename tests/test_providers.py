import threading
import time

import pytest
import requests

import qexec.providers
import qexec.simulator
from qexec import (
    Circuit,
    Dispatch,
    NoiseSpec,
    ProviderConfig,
    QuantumExecutor,
    ResultCollector,
    Gate,
    GateOp,
    VirtualProvider,
    sample,
    sample_noisy,
)
from qexec.errors import (
    BackendOfflineError,
    CircuitError,
    DispatchError,
    DuplicateProviderError,
    ProviderConfigError,
    ProviderError,
    UnknownBackendError,
    UnknownJobError,
)
from qexec.providers import BackendDescriptor, JobRunner, JobState, JobStatus, JobTable
from qexec.server import RemoteServer, ServerConfig, _Handler

from conftest import (
    MALFORMED_JOB_REPLIES,
    MALFORMED_LISTINGS,
    drop_always,
    drop_once,
    serve_jobs_reply,
    serve_listing,
)


def submit_one(registry, provider_id, backend_name, circuit, shots, seed=0):
    """A one-job submit_batch: the id the adapter issued, or the error that
    refused the job."""
    [outcome] = registry.submit_batch(provider_id, backend_name, [(circuit, shots, seed)])
    return outcome


def status_of(registry, provider_id, job_id):
    [status] = registry.status_batch(provider_id, [job_id])
    return status


def wait_terminal(registry, provider_id, job_id, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = status_of(registry, provider_id, job_id)
        if status.state.terminal:
            return status
        time.sleep(0.005)
    pytest.fail("job did not reach a terminal state")


# --------------------------------------------------------------------------
# register_provider
# --------------------------------------------------------------------------


def test_register_builtin_discoverable():
    registry = VirtualProvider()
    provider_id = registry.register_provider(ProviderConfig("local_ideal", "local_ideal"))
    assert provider_id == "local_ideal"
    listing = registry.get_backends()
    assert [d.backend_name for d in listing["local_ideal"]] == ["statevector"]


def test_register_duplicate_rejected():
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("local_ideal", "local_ideal"))
    with pytest.raises(DuplicateProviderError):
        registry.register_provider(ProviderConfig("local_ideal", "local_ideal"))


def test_register_remote_requires_endpoint():
    with pytest.raises(ProviderConfigError, match="endpoint"):
        VirtualProvider().register_provider(ProviderConfig("r1", "remote_http"))


def test_register_noisy_requires_noise():
    with pytest.raises(ProviderConfigError, match="noise"):
        VirtualProvider().register_provider(ProviderConfig("n1", "local_noisy"))


def test_register_noise_only_on_local_noisy():
    with pytest.raises(ProviderConfigError, match="noise applies only to local_noisy"):
        VirtualProvider().register_provider(
            ProviderConfig.from_dict("i1", {"kind": "local_ideal", "noise": 0.3})
        )


def test_register_delay_only_on_mock_delay():
    with pytest.raises(ProviderConfigError, match="delay applies only to mock_delay"):
        VirtualProvider().register_provider(ProviderConfig("i1", "local_ideal", delay=0.5))


def test_register_unknown_kind():
    with pytest.raises(ProviderConfigError, match="unknown provider kind"):
        VirtualProvider().register_provider(ProviderConfig("x", "quantum_cloud"))


def test_provider_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ProviderConfigError, match="unknown keys"):
        ProviderConfig.from_dict("p", {"kind": "local_ideal", "color": "red"})


def test_provider_config_from_dict_reads_noise():
    for noise in (0.05, {"p_depolarizing": 0.05}):
        config = ProviderConfig.from_dict("n", {"kind": "local_noisy", "noise": noise})
        assert config.noise == NoiseSpec(0.05)


@pytest.mark.parametrize("noise", [{"p": 0.05}, {}, {"p_depolarizing": 0.05, "p": 0.1}])
def test_provider_config_from_dict_rejects_other_noise_mappings(noise):
    with pytest.raises(ProviderConfigError, match="exactly p_depolarizing"):
        ProviderConfig.from_dict("n", {"kind": "local_noisy", "noise": noise})


def test_provider_config_from_dict_online_must_be_boolean():
    assert ProviderConfig.from_dict("m", {"kind": "mock_delay", "online": False}).online is False
    with pytest.raises(ProviderConfigError, match="online must be a boolean"):
        VirtualProvider().register_provider(
            ProviderConfig.from_dict("m", {"kind": "mock_delay", "online": "false"})
        )


@pytest.mark.parametrize("online", ["false", 0, None])
def test_provider_config_built_in_python_online_must_be_boolean(online):
    # Truthy or not, a non-boolean online never reaches a descriptor.
    with pytest.raises(ProviderConfigError, match="online must be a boolean"):
        VirtualProvider().register_provider(ProviderConfig("x", "local_ideal", online=online))


@pytest.mark.parametrize(
    "key, value", [("max_qubits", 3.7), ("max_qubits", True), ("delay", True), ("delay", "0.2")]
)
def test_provider_config_from_dict_rejects_loose_numbers(key, value):
    with pytest.raises(ProviderConfigError, match=f"{key} must be"):
        VirtualProvider().register_provider(
            ProviderConfig.from_dict("m", {"kind": "mock_delay", key: value})
        )


def test_provider_config_from_dict_reads_numbers():
    assert ProviderConfig.from_dict("m", {"kind": "mock_delay", "max_qubits": 5}).max_qubits == 5
    for delay in (1, 0.2):
        config = ProviderConfig.from_dict("m", {"kind": "mock_delay", "delay": delay})
        assert config.delay == delay
        VirtualProvider().register_provider(config)


@pytest.mark.parametrize(
    "key, value", [("max_qubits", 3.7), ("max_qubits", True), ("delay", True), ("delay", "0.2")]
)
def test_register_provider_rejects_loose_numbers(key, value):
    # A ProviderConfig built in Python meets the same checks as a providers file.
    with pytest.raises(ProviderConfigError, match=f"{key} must be"):
        VirtualProvider().register_provider(ProviderConfig("m", "mock_delay", **{key: value}))


@pytest.mark.parametrize("noise", [True, {"p_depolarizing": True}, "0.05"])
def test_provider_config_from_dict_rejects_loose_noise(noise):
    with pytest.raises(ValueError, match="p_depolarizing must be a number"):
        ProviderConfig.from_dict("n", {"kind": "local_noisy", "noise": noise})


@pytest.mark.parametrize("p", [True, False, "0.05", None])
def test_noise_spec_rejects_non_numbers(p):
    with pytest.raises(ValueError, match="p_depolarizing must be a number"):
        NoiseSpec(p)
    assert NoiseSpec(0).p_depolarizing == 0 and NoiseSpec(0.05).p_depolarizing == 0.05


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "remote_http", "endpoint": 123}, "endpoint must be a string"),
        ({"kind": "local_ideal", "endpoint": "http://h"}, "endpoint applies only to remote_http"),
        ({"kind": "mock_delay", "api_key": "k"}, "api_key applies only to remote_http"),
        ({"kind": "local_noisy", "noise": 0.1, "api_key": "k"}, "api_key applies only to remote_http"),
        ({"kind": "mock_delay", "delay": -0.5}, "delay must be finite and >= 0"),
        ({"kind": "mock_delay", "delay": float("nan")}, "delay must be finite and >= 0"),
        # time.sleep cannot wait that long, so its jobs would stay QUEUED.
        ({"kind": "mock_delay", "delay": float("inf")}, "delay must be finite and >= 0"),
        ({"kind": "remote_http", "endpoint": "http://h", "api_key": True}, "api_key must be a string"),
        ({"kind": "remote_http", "endpoint": "http://h", "api_key": 123}, "api_key must be a string"),
    ],
)
def test_register_rejects_settings_that_would_crash_or_be_ignored(entry, message):
    # Each is refused when the providers file is read, not ignored and not
    # left to fail later with an error that is not a ProviderConfigError.
    with pytest.raises(ProviderConfigError, match=message):
        VirtualProvider().register_provider(ProviderConfig.from_dict("p", entry))


def test_a_null_api_key_is_no_key(remote_server, monkeypatch):
    # Not the text "None": a local provider takes it, and a remote_http
    # provider sends no X-API-Key header.
    VirtualProvider().register_provider(
        ProviderConfig.from_dict("i", {"kind": "local_ideal", "api_key": None})
    )
    keys = []
    original = _Handler.do_GET

    def recording_get(self):
        keys.append(self.headers.get("X-API-Key"))
        return original(self)

    monkeypatch.setattr(_Handler, "do_GET", recording_get)
    registry = VirtualProvider()
    entry = {"kind": "remote_http", "endpoint": remote_server.endpoint, "api_key": None}
    registry.register_provider(ProviderConfig.from_dict("remote", entry))
    assert registry.find_backend("remote", "statevector") is not None
    assert keys == [None]


# --------------------------------------------------------------------------
# get_backends
# --------------------------------------------------------------------------


def test_get_backends_builtins_always_online(local_registry):
    listing = local_registry.get_backends(online_only=True)
    assert {p: [d.backend_name for d in ds] for p, ds in listing.items()} == {
        "local_ideal": ["statevector"],
        "local_noisy": ["noisy_statevector"],
    }
    assert listing["local_ideal"][0].is_ideal_simulator
    assert not listing["local_noisy"][0].is_ideal_simulator


def test_get_backends_offline_mock_filtered():
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("local_ideal", "local_ideal"))
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.1, online=False))
    online = registry.get_backends(online_only=True)
    assert "mock" not in online
    everything = registry.get_backends(online_only=False)
    assert everything["mock"][0].online is False


def test_get_backends_empty_registry():
    assert VirtualProvider().get_backends() == {}


def test_get_backends_deterministic(local_registry):
    assert local_registry.get_backends() == local_registry.get_backends()


# --------------------------------------------------------------------------
# submit_batch / status_batch
# --------------------------------------------------------------------------


def test_submit_returns_live_handle(local_registry, bell):
    # The handle of a job is the id its provider's adapter issued.
    job_id = submit_one(local_registry, "local_ideal", "statevector", bell, 1024, 1)
    assert isinstance(job_id, str)
    status = status_of(local_registry, "local_ideal", job_id)
    assert status.state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE)


def test_submit_circuit_too_wide(local_registry):
    refused = submit_one(local_registry, "local_ideal", "statevector", Circuit(width=25), 10)
    assert isinstance(refused, CircuitError) and "exceeds" in str(refused)


def test_submit_unknown_provider(local_registry, bell):
    assert isinstance(submit_one(local_registry, "nope", "statevector", bell, 10), UnknownBackendError)


def test_submit_unknown_local_backend(local_registry, bell):
    refused = submit_one(local_registry, "local_ideal", "teleporter", bell, 10)
    assert isinstance(refused, UnknownBackendError) and "teleporter" in str(refused)


def test_remote_submit_rejections_come_from_the_service(remote_server, bell):
    registry = VirtualProvider()
    registry.register_provider(
        ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)
    )
    assert isinstance(submit_one(registry, "remote", "teleporter", bell, 10), UnknownBackendError)
    refused = submit_one(registry, "remote", "statevector", Circuit(width=25), 10)
    assert isinstance(refused, ProviderError) and "exceeds" in str(refused)


def test_submit_offline_backend_rejected(bell):
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.1, online=False))
    assert isinstance(submit_one(registry, "mock", "delayed_statevector", bell, 10), BackendOfflineError)


def test_submit_zero_shots(local_registry, bell):
    refused = submit_one(local_registry, "local_ideal", "statevector", bell, 0)
    assert isinstance(refused, DispatchError) and "shots must be >= 1" in str(refused)


@pytest.mark.parametrize("shots", [2.5, 3.0, True, "8"])
def test_submit_rejects_non_integer_shots(local_registry, bell, shots):
    # Refused before a job is queued, with the error Dispatch.add_job raises.
    refused = submit_one(local_registry, "local_ideal", "statevector", bell, shots)
    assert isinstance(refused, DispatchError) and "shots must be an integer" in str(refused)


@pytest.mark.parametrize("seed", [1.5, True, "3", None])
def test_submit_batch_refuses_a_seed_that_is_not_an_integer(local_registry, bell, seed):
    # Refused in its job's place before it is queued; the batch's other jobs run.
    jobs = [(bell, 8, 1), (bell, 8, seed), (bell, 8, 2)]
    first, refused, last = local_registry.submit_batch("local_ideal", "statevector", jobs)
    assert isinstance(refused, DispatchError)
    assert str(refused) == f"seed must be an integer, got {seed!r}"
    statuses = [wait_terminal(local_registry, "local_ideal", j) for j in (first, last)]
    assert [s.counts for s in statuses] == [sample(bell, 8, seed=1), sample(bell, 8, seed=2)]


def test_local_job_completes(local_registry, bell):
    job_id = submit_one(local_registry, "local_ideal", "statevector", bell, 1024, 3)
    status = wait_terminal(local_registry, "local_ideal", job_id)
    assert status.state is JobState.DONE
    counts = status_of(local_registry, "local_ideal", job_id).counts
    assert sum(counts.values()) == 1024
    assert set(counts) <= {"00", "11"}


def test_mock_delay_polled_immediately(bell):
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.5))
    job_id = submit_one(registry, "mock", "delayed_statevector", bell, 16)
    status = status_of(registry, "mock", job_id)
    assert status.state in (JobState.QUEUED, JobState.RUNNING)
    assert status.counts is None
    assert wait_terminal(registry, "mock", job_id).state is JobState.DONE


def _runner(name):
    descriptor = BackendDescriptor(name, "statevector", True, 20, True)
    return JobRunner(name, [(descriptor, None)])


def test_stopped_runner_leaves_the_shared_kernel_worker_to_the_others(bell, monkeypatch):
    # Runners with no delay queue their jobs on one kernel worker. Stopping
    # one while the worker is busy leaves its queued jobs QUEUED, and the
    # worker goes on to the other runner's jobs queued after them.
    started, release = threading.Event(), threading.Event()
    original = qexec.providers.sample_batch

    def blocked_kernel(*args, **kwargs):
        started.set()
        release.wait(10)
        return original(*args, **kwargs)

    monkeypatch.setattr(qexec.providers, "sample_batch", blocked_kernel)
    kept, stopped = _runner("kept"), _runner("stopped")
    job = (bell, 16, 0)
    kept_ids = kept.submit("statevector", [job])
    try:
        assert started.wait(5), "the kernel worker never started the first job"
        stopped_ids = stopped.submit("statevector", [job, job])
        kept_ids += kept.submit("statevector", [job, job])
        stopped.shutdown()
    finally:
        release.set()
    deadline = time.monotonic() + 5
    while not all(s.state.terminal for s in kept.status(kept_ids)):
        assert time.monotonic() < deadline, "the kept runner's jobs never finished"
        time.sleep(0.005)
    assert [s.state for s in kept.status(kept_ids)] == [JobState.DONE] * 3
    assert [s.state for s in stopped.status(stopped_ids)] == [JobState.QUEUED] * 2


def test_shutdown_ends_a_worker_that_waits_out_its_delay(bell):
    # A delayed batch waits on its runner's own worker. shutdown() cuts that
    # wait short: the worker ends at once, and the batch's job stays QUEUED.
    descriptor = BackendDescriptor("waiting", "statevector", True, 20, True)
    runner = JobRunner("waiting", [(descriptor, None)], delay=3.0)
    [job_id] = runner.submit("statevector", [(bell, 16, 0)])
    time.sleep(0.1)
    workers = [t for t in threading.enumerate() if t.name.startswith("waiting-worker")]
    assert len(workers) == 1
    runner.shutdown()
    workers[0].join(0.5)
    assert not workers[0].is_alive()
    assert [s.state for s in runner.status([job_id])] == [JobState.QUEUED]


def test_mock_delay_threads_bounded(bell):
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.2))
    before = threading.active_count()
    job_ids = [submit_one(registry, "mock", "delayed_statevector", bell, 8) for _ in range(50)]
    assert threading.active_count() - before <= 2
    assert all(wait_terminal(registry, "mock", j).state is JobState.DONE for j in job_ids)


def test_foreign_handle_rejected(local_registry):
    with pytest.raises(UnknownJobError, match="job-999999"):
        local_registry.status_batch("local_ideal", ["job-999999"])
    with pytest.raises(UnknownJobError, match="'ghost'"):
        local_registry.status_batch("ghost", ["job-1"])


def test_handle_carries_the_adapter_job_id(local_registry, bell):
    job_id = submit_one(local_registry, "local_noisy", "noisy_statevector", bell, 4)
    wait_terminal(local_registry, "local_noisy", job_id)
    # The id is the adapter's own, so it resolves only under its own provider.
    with pytest.raises(UnknownJobError):
        local_registry.status_batch("local_ideal", [job_id])


def test_failed_job_carries_message(local_registry, bell, monkeypatch):
    # A job that passes submission checks but whose kernel raises surfaces
    # as FAILED with the reason.
    def broken_kernel(*args):
        raise RuntimeError("kernel out of range")

    monkeypatch.setattr(qexec.providers, "sample_batch", broken_kernel)
    job_id = submit_one(local_registry, "local_ideal", "statevector", bell, 10)
    status = wait_terminal(local_registry, "local_ideal", job_id)
    assert status.state is JobState.FAILED
    assert "out of range" in (status.error_message or "")
    assert status.counts is None


@pytest.mark.parametrize("noise", [None, NoiseSpec(0.1)], ids=["ideal", "noisy"])
def test_runner_fails_each_faulty_job_of_a_batch_alone(bell, monkeypatch, noise):
    # One submission holds good jobs, a job with no shots, a circuit wider
    # than the backend and one whose kernel raises. Each faulty job fails
    # with its own message; the others finish with the counts they get
    # alone. Every job of the runner moves QUEUED -> RUNNING -> terminal,
    # each state recorded once.
    transitions = []
    original_transition = JobTable._transition

    def recording_transition(self, key, status):
        transitions.append((key, status.state))
        original_transition(self, key, status)

    original_apply = qexec.simulator._apply_gate

    def poisoned(states, op, *args, **kwargs):
        if op.angle == 0.5:
            raise FloatingPointError("poisoned angle")
        original_apply(states, op, *args, **kwargs)

    monkeypatch.setattr(JobTable, "_transition", recording_transition)
    monkeypatch.setattr(qexec.simulator, "_apply_gate", poisoned)
    raising = Circuit(width=2, gates=bell.gates + (GateOp(Gate.RX, (1,), 0.5),))
    runner = JobRunner("batch", [(BackendDescriptor("batch", "sv", True, 2, noise is None), noise)])
    jobs = [(bell, 16, 1), (bell, 0, 2), (Circuit(width=3), 16, 0),
            (raising, 16, 4), (bell, 16, 5)]
    ids = runner.submit("sv", jobs)
    assert isinstance(ids[2], CircuitError) and "limit 2" in str(ids[2])
    ids = [ids[0], ids[1], ids[3], ids[4]]
    deadline = time.monotonic() + 5
    while not all(s.state.terminal for s in runner.status(ids)):
        assert time.monotonic() < deadline, "the batch never finished"
        time.sleep(0.005)
    statuses = runner.status(ids)
    assert [s.state for s in statuses] == [JobState.DONE, JobState.FAILED, JobState.FAILED, JobState.DONE]
    assert statuses[1].error_message == "shots must be >= 1, got 0"
    assert statuses[2].error_message == "poisoned angle"
    for status, seed in ((statuses[0], 1), (statuses[3], 5)):
        alone = sample(bell, 16, seed) if noise is None else sample_noisy(bell, 16, noise, seed)
        assert status.counts == alone
    for job_id, status in zip(ids, statuses):
        assert [s for key, s in transitions if key == job_id] == [JobState.RUNNING, status.state]


def test_job_table_status_hands_out_a_copy_of_counts():
    table = JobTable(["pending", "done", "failed"])
    counts = {"00": 3, "11": 5}
    table.set_done("done", counts)
    table.set_failed("failed", "boom")
    counts["00"] = 99  # the caller's dict is not the table's
    [read] = table.statuses(["done"])
    assert read.state is JobState.DONE and read.counts == {"00": 3, "11": 5}
    read.counts["11"] = 0  # nor is the dict a reader gets back
    table.counts()["done"]["11"] = 0
    assert table.statuses(["done"])[0].counts == {"00": 3, "11": 5}
    assert len(set(table.statuses(["done", "done"]))) == 1  # still hashable
    assert [s.counts for s in table.statuses(["pending", "failed"])] == [None, None]
    assert table.statuses(["never"]) == [None]
    assert table.counts() == {"done": {"00": 3, "11": 5}}


def test_status_monotonic_sequence(bell):
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.15))
    job_id = submit_one(registry, "mock", "delayed_statevector", bell, 8)
    rank = {JobState.QUEUED: 0, JobState.RUNNING: 1, JobState.DONE: 2, JobState.FAILED: 2}
    observed = []
    deadline = time.time() + 3
    while time.time() < deadline:
        observed.append(status_of(registry, "mock", job_id).state)
        if observed[-1].terminal:
            break
        time.sleep(0.01)
    ranks = [rank[s] for s in observed]
    assert ranks == sorted(ranks)
    assert observed[-1] is JobState.DONE


def test_submission_isolation_distinct_ids(local_registry, bell):
    jobs = [(bell, 4, i) for i in range(10)]
    job_ids = local_registry.submit_batch("local_ideal", "statevector", jobs)
    job_ids += [submit_one(local_registry, "local_ideal", "statevector", bell, 4) for _ in range(10)]
    assert all(isinstance(job_id, str) for job_id in job_ids)
    assert len(set(job_ids)) == 20


def test_noisy_backend_executes_with_noise(local_registry, bell):
    job_id = submit_one(local_registry, "local_noisy", "noisy_statevector", bell, 4096, 7)
    counts = wait_terminal(local_registry, "local_noisy", job_id).counts
    assert sum(counts.values()) == 4096


# --------------------------------------------------------------------------
# remote discovery degradation
# --------------------------------------------------------------------------


def test_remote_discovery_failure_degrades_to_absent():
    registry = VirtualProvider()
    registry.register_provider(
        ProviderConfig("dead", "remote_http", endpoint="http://127.0.0.1:1")
    )
    # Never discovered: provider contributes nothing rather than raising.
    assert registry.get_backends() == {}
    assert registry.get_backends(online_only=True) == {}


def test_remote_discovery_failure_marks_known_backends_offline(remote_server, bell):
    registry = VirtualProvider()
    registry.register_provider(
        ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)
    )
    online = registry.get_backends(online_only=True)
    assert [d.backend_name for d in online["remote"]] == ["noisy_statevector", "statevector"]
    remote_server.stop()
    after = registry.get_backends()
    assert all(not d.online for d in after["remote"])
    assert registry.get_backends(online_only=True) == {}


@pytest.mark.parametrize("listing", MALFORMED_LISTINGS)
def test_remote_malformed_listing_marks_known_backends_offline(
    remote_server, monkeypatch, listing
):
    registry = remote_registry(remote_server.endpoint)
    assert len(registry.get_backends(online_only=True)["remote"]) == 2
    serve_listing(monkeypatch, listing)
    after = registry.get_backends()
    assert [d.backend_name for d in after["remote"]] == ["noisy_statevector", "statevector"]
    assert all(not d.online for d in after["remote"])
    assert registry.find_backend("remote", "statevector").online is False


# --------------------------------------------------------------------------
# remote connections: kept open, retried, configured once
# --------------------------------------------------------------------------


def record_requests(monkeypatch) -> list[tuple[str, dict | None]]:
    """(method, query params) of every request a client sends in the test."""
    sent = []
    original_request = requests.Session.request

    def recording_request(session, method, url, *args, **kwargs):
        sent.append((method, kwargs.get("params")))
        return original_request(session, method, url, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "request", recording_request)
    return sent


def remote_registry(endpoint: str, provider_id: str = "remote") -> VirtualProvider:
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig(provider_id, "remote_http", endpoint=endpoint))
    return registry


def test_remote_adapter_keeps_one_connection(remote_server, bell, accepted_connections):
    registry = remote_registry(remote_server.endpoint)
    assert registry.find_backend("remote", "statevector") is not None
    job_ids = [submit_one(registry, "remote", "statevector", bell, 16, k) for k in range(10)]
    assert all(wait_terminal(registry, "remote", j).state is JobState.DONE for j in job_ids)
    assert len(accepted_connections) == 1


def test_remote_status_survives_a_dropped_connection(remote_server, bell, monkeypatch):
    # The service closes the connection of the first GET /jobs?ids= without
    # replying; the GET is resent on a new connection and the job still ends DONE.
    polls = drop_once(monkeypatch, "_get_jobs")
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch().add_job("remote", "statevector", bell, 64)
    collector = executor.run_dispatch(dispatch, wait=True, base_seed=5)
    assert collector.failed_jobs() == []
    assert collector.get_results()["remote"]["statevector"] == [sample(bell, 64, seed=5)]
    assert len(polls) >= 2


def test_remote_submit_is_not_resent_after_a_dropped_connection(remote_server, bell, monkeypatch):
    # The POST may have reached the service, so resending it could run its
    # jobs twice: each job of the batch fails once instead.
    posts = drop_once(monkeypatch, "do_POST")
    registry = remote_registry(remote_server.endpoint)
    jobs = [(bell, 16, k) for k in range(3)]
    outcomes = registry.submit_batch("remote", "statevector", jobs)
    assert len(outcomes) == 3
    assert all(isinstance(o, ProviderError) for o in outcomes)
    assert all(str(o).startswith("remote submission failed") for o in outcomes)
    assert posts == ["/jobs"]


def test_remote_submit_goes_out_once_after_the_service_closed_an_idle_connection(
    remote_server, bell, monkeypatch, handler_threads
):
    # The client sees the kept connection closed before it reuses it, so the
    # POST goes out once, on a new connection, and is not lost.
    posts = []
    original_post = _Handler.do_POST

    def counting_post(self):
        posts.append(self.path)
        return original_post(self)

    monkeypatch.setattr(_Handler, "do_POST", counting_post)
    registry = remote_registry(remote_server.endpoint)
    assert registry.find_backend("remote", "statevector") is not None
    [idle] = handler_threads
    idle.join(5)
    assert not idle.is_alive(), "the service kept the idle connection"
    job_id = submit_one(registry, "remote", "statevector", bell, 16, 3)
    assert wait_terminal(registry, "remote", job_id).counts == sample(bell, 16, seed=3)
    assert posts == ["/jobs"]


def test_remote_batch_refuses_only_the_bad_jobs(remote_server, bell):
    registry = remote_registry(remote_server.endpoint)
    wide = Circuit(width=25, name="wide")
    jobs = [(bell, 8, 1), (wide, 8, 0), (bell, 2.5, 0), (bell, 8, 2)]
    first, too_wide, bad_shots, last = registry.submit_batch("remote", "statevector", jobs)
    assert isinstance(too_wide, ProviderError) and "width 25 exceeds" in str(too_wide)
    assert isinstance(bad_shots, DispatchError)
    statuses = [wait_terminal(registry, "remote", job_id) for job_id in (first, last)]
    assert [s.counts for s in statuses] == [sample(bell, 8, seed=1), sample(bell, 8, seed=2)]


def test_remote_request_fault_fails_each_job_once(bell, monkeypatch):
    # A 401 answers the whole POST: every job of it gets the one message.
    posts = []
    original_post = requests.Session.post

    def counting_post(session, url, *args, **kwargs):
        posts.append(url)
        return original_post(session, url, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "post", counting_post)
    with RemoteServer(ServerConfig(api_key="sesame")) as server:
        registry = VirtualProvider()
        wrong_key = {"api_key": "x"}
        registry.register_provider(
            ProviderConfig("remote", "remote_http", endpoint=server.endpoint, credentials=wrong_key)
        )
        outcomes = registry.submit_batch("remote", "statevector", [(bell, 8, 0)] * 3)
    assert len(posts) == 1
    assert [type(o) for o in outcomes] == [ProviderError] * 3
    assert len({str(o) for o in outcomes}) == 1
    assert "(401)" in str(outcomes[0]) and "invalid api key" in str(outcomes[0])


def test_remote_unknown_id_reads_as_failed_not_found(remote_server, bell):
    registry = remote_registry(remote_server.endpoint)
    known = submit_one(registry, "remote", "statevector", bell, 8)
    wait_terminal(registry, "remote", known)
    lost, found = registry.status_batch("remote", ["rjob-999999", known])
    assert lost == JobStatus(JobState.FAILED, "remote job not found")
    assert found.state is JobState.DONE


def test_remote_unknown_backend_fails_each_job_of_its_batch_once(remote_server, bell, monkeypatch):
    # A stale listing names a backend the service does not host, so pre-flight
    # passes and the one POST of the batch gets 404.
    serve_listing(monkeypatch, [{"name": "ghost"}])
    failures = []
    original_record_failed = ResultCollector.record_failed

    def counting_record_failed(collector, ordinal, message):
        failures.append((ordinal, message))
        original_record_failed(collector, ordinal, message)

    monkeypatch.setattr(ResultCollector, "record_failed", counting_record_failed)
    sent = record_requests(monkeypatch)
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch()
    for _ in range(3):
        dispatch.add_job("remote", "ghost", bell, 8)
    collector = executor.run_dispatch(dispatch)
    assert sorted(failures) == [(k, "remote backend 'ghost' not found") for k in range(3)]
    assert [job["ordinal"] for job in collector.failed_jobs()] == [0, 1, 2]
    assert [method for method, _ in sent].count("POST") == 1


def recorded_failures(monkeypatch) -> list[tuple[int, str]]:
    """(ordinal, message) of every ResultCollector.record_failed call in the test."""
    failures = []
    original_record_failed = ResultCollector.record_failed

    def counting_record_failed(collector, ordinal, message):
        failures.append((ordinal, message))
        original_record_failed(collector, ordinal, message)

    monkeypatch.setattr(ResultCollector, "record_failed", counting_record_failed)
    return failures


def start_remote_run(endpoint: str, circuit, n_jobs: int) -> ResultCollector:
    """The live collector of a run of ``n_jobs`` jobs on the service's statevector."""
    executor = QuantumExecutor(providers=[ProviderConfig("remote", "remote_http", endpoint=endpoint)])
    dispatch = Dispatch()
    for _ in range(n_jobs):
        dispatch.add_job("remote", "statevector", circuit, 8)
    return executor.run_dispatch(dispatch, wait=False)


def test_remote_status_read_dropped_on_every_try_fails_each_job_once(
    remote_server, bell, monkeypatch
):
    # The GET /jobs?ids= is sent, then resent twice, and each time the service
    # closes the connection without replying.
    polls = drop_always(monkeypatch, "_get_jobs")
    failures = recorded_failures(monkeypatch)
    collector = start_remote_run(remote_server.endpoint, bell, 3)
    assert collector.wait(10), "the run never ended"
    assert sorted(ordinal for ordinal, _ in failures) == [0, 1, 2]
    assert all(message.startswith("remote status check failed") for _, message in failures)
    assert len(polls) == 3


@pytest.mark.parametrize("reply", MALFORMED_JOB_REPLIES.values(), ids=MALFORMED_JOB_REPLIES)
def test_remote_malformed_status_reply_fails_each_job_once(remote_server, bell, monkeypatch, reply):
    serve_jobs_reply(monkeypatch, "_get_jobs", 200, reply)
    failures = recorded_failures(monkeypatch)
    collector = start_remote_run(remote_server.endpoint, bell, 3)
    assert collector.wait(10), "the run never ended"
    assert sorted(ordinal for ordinal, _ in failures) == [0, 1, 2]
    assert all(message.startswith("malformed status response") for _, message in failures)


MALFORMED_SUBMISSION_REPLIES = {**MALFORMED_JOB_REPLIES, "no-id-or-error": lambda n: {"jobs": [{}] * n}}


@pytest.mark.parametrize(
    "reply", MALFORMED_SUBMISSION_REPLIES.values(), ids=MALFORMED_SUBMISSION_REPLIES
)
def test_remote_malformed_submission_reply_fails_each_job_once(
    remote_server, bell, monkeypatch, reply
):
    # The POST /jobs answers 201, with a body that names no job's outcome.
    serve_jobs_reply(monkeypatch, "_post_jobs", 201, reply)
    failures = recorded_failures(monkeypatch)
    collector = start_remote_run(remote_server.endpoint, bell, 3)
    assert collector.wait(10), "the run never ended"
    assert sorted(ordinal for ordinal, _ in failures) == [0, 1, 2]
    assert all(message.startswith("malformed submission response") for _, message in failures)


def test_remote_backend_of_257_jobs_sends_two_posts(remote_server, bell, monkeypatch):
    sent = record_requests(monkeypatch)
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch()
    for _ in range(257):
        dispatch.add_job("remote", "statevector", bell, 4)
    collector = executor.run_dispatch(dispatch, base_seed=9)
    assert collector.failed_jobs() == []
    runs = collector.get_results()["remote"]["statevector"]
    assert len(runs) == 257
    assert runs[256] == sample(bell, 4, seed=9 + 256)
    assert [method for method, _ in sent].count("POST") == 2
    reads = [params for method, params in sent if method == "GET" and params]
    assert reads and max(len(params["ids"].split(",")) for params in reads) <= 256


def test_remote_proxy_is_read_from_the_environment_at_registration(
    remote_server, monkeypatch, accepted_connections
):
    for name in ("http_proxy", "ALL_PROXY", "all_proxy", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")  # nothing listens there
    proxied = remote_registry(remote_server.endpoint)
    assert proxied.get_backends() == {}
    assert accepted_connections == []
    monkeypatch.delenv("HTTP_PROXY")
    direct = remote_registry(remote_server.endpoint)
    assert proxied.get_backends() == {}  # still through the proxy it read when registered
    assert [d.backend_name for d in direct.get_backends()["remote"]] == [
        "noisy_statevector",
        "statevector",
    ]
