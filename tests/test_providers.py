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
from qexec.providers import BackendDescriptor, JobHandle, JobRunner, JobState, JobStatus, JobTable
from qexec.server import RemoteServer, ServerConfig

from conftest import MALFORMED_LISTINGS, drop_once, serve_listing


def wait_terminal(registry, handle, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = registry.status(handle)
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
    ],
)
def test_register_rejects_settings_that_would_crash_or_be_ignored(entry, message):
    # Each is refused when the providers file is read, not ignored and not
    # left to fail later with an error that is not a ProviderConfigError.
    with pytest.raises(ProviderConfigError, match=message):
        VirtualProvider().register_provider(ProviderConfig.from_dict("p", entry))


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
# submit / status / result
# --------------------------------------------------------------------------


def test_submit_returns_live_handle(local_registry, bell):
    handle = local_registry.submit("local_ideal", "statevector", bell, 1024, {"seed": 1})
    assert isinstance(handle, JobHandle)
    assert handle.provider_id == "local_ideal"
    status = local_registry.status(handle)
    assert status.state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE)


def test_submit_circuit_too_wide(local_registry):
    with pytest.raises(CircuitError, match="exceeds"):
        local_registry.submit("local_ideal", "statevector", Circuit(width=25), 10)


def test_submit_unknown_provider(local_registry, bell):
    with pytest.raises(UnknownBackendError):
        local_registry.submit("nope", "statevector", bell, 10)


def test_submit_unknown_local_backend(local_registry, bell):
    with pytest.raises(UnknownBackendError, match="teleporter"):
        local_registry.submit("local_ideal", "teleporter", bell, 10)


def test_remote_submit_rejections_come_from_the_service(remote_server, bell):
    registry = VirtualProvider()
    registry.register_provider(
        ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)
    )
    with pytest.raises(UnknownBackendError):
        registry.submit("remote", "teleporter", bell, 10)
    with pytest.raises(ProviderError, match="exceeds"):
        registry.submit("remote", "statevector", Circuit(width=25), 10)


def test_submit_offline_backend_rejected(bell):
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.1, online=False))
    with pytest.raises(BackendOfflineError):
        registry.submit("mock", "delayed_statevector", bell, 10)


def test_submit_zero_shots(local_registry, bell):
    with pytest.raises(DispatchError, match="shots must be >= 1"):
        local_registry.submit("local_ideal", "statevector", bell, 0)


@pytest.mark.parametrize("shots", [2.5, 3.0, True, "8"])
def test_submit_rejects_non_integer_shots(local_registry, bell, shots):
    # Rejected before a job is queued, as Dispatch.add_job rejects it.
    with pytest.raises(DispatchError, match="shots must be an integer"):
        local_registry.submit("local_ideal", "statevector", bell, shots)


def test_local_job_completes(local_registry, bell):
    handle = local_registry.submit("local_ideal", "statevector", bell, 1024, {"seed": 3})
    status = wait_terminal(local_registry, handle)
    assert status.state is JobState.DONE
    counts = local_registry.status(handle).counts
    assert sum(counts.values()) == 1024
    assert set(counts) <= {"00", "11"}


def test_mock_delay_polled_immediately(bell):
    registry = VirtualProvider()
    registry.register_provider(ProviderConfig("mock", "mock_delay", delay=0.5))
    handle = registry.submit("mock", "delayed_statevector", bell, 16)
    status = registry.status(handle)
    assert status.state in (JobState.QUEUED, JobState.RUNNING)
    assert status.counts is None
    assert wait_terminal(registry, handle).state is JobState.DONE


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
    job = (bell, 16, {})
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
    [job_id] = runner.submit("statevector", [(bell, 16, {})])
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
    handles = [registry.submit("mock", "delayed_statevector", bell, 8) for _ in range(50)]
    assert threading.active_count() - before <= 2
    assert all(wait_terminal(registry, h).state is JobState.DONE for h in handles)


def test_foreign_handle_rejected(local_registry):
    foreign = JobHandle("job-999999", "local_ideal", "statevector", time.time())
    with pytest.raises(UnknownJobError):
        local_registry.status(foreign)
    unregistered = JobHandle("job-1", "ghost", "statevector", time.time())
    with pytest.raises(UnknownJobError):
        local_registry.status(unregistered)


def test_handle_carries_the_adapter_job_id(local_registry, bell):
    handle = local_registry.submit("local_noisy", "noisy_statevector", bell, 4)
    wait_terminal(local_registry, handle)
    # The id is the adapter's own, so it resolves only under its own provider.
    moved = JobHandle(handle.job_id, "local_ideal", "statevector", handle.submitted_at)
    with pytest.raises(UnknownJobError):
        local_registry.status(moved)


def test_failed_job_carries_message(local_registry, bell, monkeypatch):
    # A job that passes submission checks but whose kernel raises surfaces
    # as FAILED with the reason.
    def broken_kernel(*args):
        raise RuntimeError("kernel out of range")

    monkeypatch.setattr(qexec.providers, "sample_batch", broken_kernel)
    handle = local_registry.submit("local_ideal", "statevector", bell, 10)
    status = wait_terminal(local_registry, handle)
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
    jobs = [(bell, 16, {"seed": 1}), (bell, 0, {"seed": 2}), (Circuit(width=3), 16, {}),
            (raising, 16, {"seed": 4}), (bell, 16, {"seed": 5})]
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
    handle = registry.submit("mock", "delayed_statevector", bell, 8)
    rank = {JobState.QUEUED: 0, JobState.RUNNING: 1, JobState.DONE: 2, JobState.FAILED: 2}
    observed = []
    deadline = time.time() + 3
    while time.time() < deadline:
        observed.append(registry.status(handle).state)
        if observed[-1].terminal:
            break
        time.sleep(0.01)
    ranks = [rank[s] for s in observed]
    assert ranks == sorted(ranks)
    assert observed[-1] is JobState.DONE


def test_submission_isolation_distinct_ids(local_registry, bell):
    handles = [
        local_registry.submit("local_ideal", "statevector", bell, 4, {"seed": i})
        for i in range(10)
    ]
    assert len({h.job_id for h in handles}) == 10


def test_noisy_backend_executes_with_noise(local_registry, bell):
    handle = local_registry.submit("local_noisy", "noisy_statevector", bell, 4096, {"seed": 7})
    wait_terminal(local_registry, handle)
    counts = local_registry.status(handle).counts
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
    handles = [registry.submit("remote", "statevector", bell, 16, {"seed": k}) for k in range(10)]
    assert all(wait_terminal(registry, h).state is JobState.DONE for h in handles)
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
    jobs = [(bell, 16, {"seed": k}) for k in range(3)]
    outcomes = registry.submit_batch("remote", "statevector", jobs)
    assert len(outcomes) == 3
    assert all(isinstance(o, ProviderError) for o in outcomes)
    assert all(str(o).startswith("remote submission failed") for o in outcomes)
    assert posts == ["/jobs"]


def test_remote_batch_refuses_only_the_bad_jobs(remote_server, bell):
    registry = remote_registry(remote_server.endpoint)
    wide = Circuit(width=25, name="wide")
    jobs = [(bell, 8, {"seed": 1}), (wide, 8, {}), (bell, 2.5, {}), (bell, 8, {"seed": 2})]
    first, too_wide, bad_shots, last = registry.submit_batch("remote", "statevector", jobs)
    assert isinstance(too_wide, ProviderError) and "width 25 exceeds" in str(too_wide)
    assert isinstance(bad_shots, DispatchError)
    statuses = [wait_terminal(registry, handle) for handle in (first, last)]
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
        outcomes = registry.submit_batch("remote", "statevector", [(bell, 8, {})] * 3)
    assert len(posts) == 1
    assert [type(o) for o in outcomes] == [ProviderError] * 3
    assert len({str(o) for o in outcomes}) == 1
    assert "(401)" in str(outcomes[0]) and "invalid api key" in str(outcomes[0])


def test_remote_unknown_id_reads_as_failed_not_found(remote_server, bell):
    registry = remote_registry(remote_server.endpoint)
    known = registry.submit("remote", "statevector", bell, 8)
    wait_terminal(registry, known)
    lost, found = registry.status_batch("remote", ["rjob-999999", known.job_id])
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
