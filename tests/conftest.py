import faulthandler
import json
import os
import sys
import threading
import time
import traceback

import pytest
import requests

import qexec.providers
from qexec import NoiseSpec, ProviderConfig, QuantumExecutor, ResultCollector, VirtualProvider, parse_qasm
from qexec.server import RemoteServer, ServerConfig, _Handler

BELL_QASM = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""

GHZ3_QASM = """\
OPENQASM 2.0;
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[0],q[2];
measure q -> c;
"""


# A test that runs this long is taken to hang: every thread's stack is
# printed and the process exits with status 1.
HANG_TIMEOUT = 60.0
# How long after its test a run's driver thread (named qexec-run) may take to end.
RUN_THREAD_GRACE = 2.0
# Where the stacks go: a copy of the stderr that pytest does not capture,
# made while it captures nothing.
_stderr = 2


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


def _run_threads() -> set[threading.Thread]:
    return {thread for thread in threading.enumerate() if thread.name == "qexec-run"}


@pytest.fixture(autouse=True)
def no_hang():
    """Fail a test that hangs, or that leaves a run's driver thread running.

    Set up before, and torn down after, every other fixture of the test. A
    driver thread the test started that is still running RUN_THREAD_GRACE
    seconds after it fails the test, with the thread's stack."""
    before = _run_threads()
    faulthandler.dump_traceback_later(HANG_TIMEOUT, exit=True, file=_stderr)
    yield
    deadline = time.monotonic() + RUN_THREAD_GRACE
    stuck = []
    for thread in _run_threads() - before:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            stuck.append(thread)
    faulthandler.cancel_dump_traceback_later()
    if stuck:
        frames = sys._current_frames()
        stacks = "\n".join(
            f"thread {thread.name} ({thread.ident}):\n"
            + "".join(traceback.format_stack(frames[thread.ident]))
            for thread in stuck
            if thread.ident in frames
        )
        pytest.fail(
            f"{len(stuck)} qexec-run thread(s) still running {RUN_THREAD_GRACE} s "
            f"after the test:\n{stacks}",
            pytrace=False,
        )


def pytest_unconfigure(config):
    """A driver thread that never ends keeps the interpreter from exiting once
    the tests are done: if one is left, the process prints every thread's
    stack and exits with status 1 after RUN_THREAD_GRACE seconds."""
    if any(thread.is_alive() for thread in _run_threads()):
        faulthandler.dump_traceback_later(RUN_THREAD_GRACE, exit=True, file=_stderr)


@pytest.fixture
def bell():
    return parse_qasm(BELL_QASM, name="bell")


@pytest.fixture
def ghz3():
    return parse_qasm(GHZ3_QASM, name="ghz3")


def local_provider_configs(p_noise: float = 0.05) -> list[ProviderConfig]:
    return [
        ProviderConfig(provider_id="local_ideal", kind="local_ideal"),
        ProviderConfig(provider_id="local_noisy", kind="local_noisy", noise=NoiseSpec(p_noise)),
    ]


@pytest.fixture
def local_registry():
    registry = VirtualProvider()
    for config in local_provider_configs():
        registry.register_provider(config)
    return registry


@pytest.fixture
def local_executor():
    return QuantumExecutor(providers=local_provider_configs())


@pytest.fixture
def remote_server():
    server = RemoteServer(ServerConfig()).start()
    yield server
    server.stop()


@pytest.fixture
def delayed_server():
    server = RemoteServer(ServerConfig(delay=0.5)).start()
    yield server
    server.stop()


@pytest.fixture
def accepted_connections(monkeypatch):
    """The client address of every connection a job service accepts during
    the test: _Handler.setup runs once per connection."""
    accepted = []
    original = _Handler.setup

    def counting_setup(self):
        accepted.append(self.client_address)
        original(self)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return accepted


@pytest.fixture
def handler_threads(monkeypatch):
    """The thread of every connection a job service accepts during the test,
    each of which idles out after 0.2 s instead of the service's own timeout."""
    threads = []
    original = _Handler.setup

    def recording_setup(self):
        threads.append(threading.current_thread())
        original(self)

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    return threads


def count_kernels_in_flight(monkeypatch) -> list[int]:
    """Wrap the simulator kernels that job runners call so that each call
    lasts at least 2 ms and is counted while it runs; returns [now, most seen]."""
    lock = threading.Lock()
    in_flight = [0, 0]

    def counted(kernel):
        def wrapper(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight[1], in_flight[0])
            try:
                time.sleep(0.002)
                return kernel(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        return wrapper

    monkeypatch.setattr(qexec.providers, "sample_batch", counted(qexec.providers.sample_batch))
    return in_flight


def recorded_ends(monkeypatch) -> list[list[tuple[int, str | None]]]:
    """Spy on ResultCollector.record_statuses: for each call that ended a
    job, in call order, the (ordinal, error message) of every job the call
    returned as ended."""
    calls = []
    original = ResultCollector.record_statuses

    def recording(collector, updates):
        ended = original(collector, updates)
        if ended:
            states = collector.status()
            calls.append([(ordinal, states[ordinal][1]) for ordinal in ended])
        return ended

    monkeypatch.setattr(ResultCollector, "record_statuses", recording)
    return calls


def post_jobs(endpoint: str, backend: str, *jobs: dict, session=requests):
    """POST /jobs of one batch of ``{qasm, shots, seed}`` entries; the reply."""
    body = {"backend": backend, "jobs": list(jobs)}
    return session.post(f"{endpoint}/jobs", json=body, timeout=5)


def post_job(endpoint: str, backend: str = "statevector", **job) -> str:
    """The id of one job posted alone: ``job`` holds its qasm, shots and seed."""
    response = post_jobs(endpoint, backend, job)
    assert response.status_code == 201, response.text
    return response.json()["jobs"][0]["job_id"]


def read_jobs(endpoint: str, *job_ids: str) -> list[dict]:
    """Each job's entry of GET /jobs?ids=, in the order asked."""
    response = requests.get(f"{endpoint}/jobs", params={"ids": ",".join(job_ids)}, timeout=5)
    assert response.status_code == 200, response.text
    return response.json()["jobs"]


def wait_done(endpoint: str, *job_ids: str, timeout=5.0) -> list[str]:
    """Poll the jobs until every one is DONE or FAILED; their final states."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        states = [entry["state"] for entry in read_jobs(endpoint, *job_ids)]
        if all(state in ("DONE", "FAILED") for state in states):
            return states
        time.sleep(0.01)
    pytest.fail("remote jobs never finished")


def drop_once(monkeypatch, route: str) -> list[str]:
    """Make _Handler.<route> close its connection without replying the first
    time it runs, then behave as before; returns the path of every call."""
    seen = []
    original = getattr(_Handler, route)

    def dropping(self, *args):
        seen.append(self.path)
        if len(seen) == 1:
            self.close_connection = True
            return None
        return original(self, *args)

    monkeypatch.setattr(_Handler, route, dropping)
    return seen


def drop_always(monkeypatch, route: str) -> list[str]:
    """Make _Handler.<route> close its connection without replying every time
    it runs; returns the path of every call."""
    seen = []

    def dropping(self, *args):
        seen.append(self.path)
        self.close_connection = True

    monkeypatch.setattr(_Handler, route, dropping)
    return seen


def serve_jobs_reply(monkeypatch, route: str, code: int, reply) -> None:
    """Make _Handler.<route>, ``_get_jobs`` or ``_post_jobs``, answer a request
    about n jobs with ``code`` and the body ``reply(n)``: bytes as they are,
    anything else as JSON."""

    def replying(self, arg):
        if route == "_get_jobs":  # arg is the ids values of the query
            n = sum(1 for value in arg for job_id in value.split(",") if job_id)
        else:  # arg is the raw body of a POST /jobs
            n = len(json.loads(arg)["jobs"])
        body = reply(n)
        if not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    monkeypatch.setattr(_Handler, route, replying)


# Replies to a request about n jobs that no client can read as one entry per job
MALFORMED_JOB_REPLIES = {
    "too-few": lambda n: {"jobs": [{"job_id": "x", "state": "DONE"}] * (n - 1)},
    "too-many": lambda n: {"jobs": [{"job_id": "x", "state": "DONE"}] * (n + 1)},
    "not-objects": lambda n: {"jobs": ["DONE"] * n},
    "no-jobs": lambda n: {"entries": []},
    "not-json": lambda n: b"<html>busy</html>",
}


# GET /backends bodies that no client can read as a backend listing
MALFORMED_LISTINGS = [
    [{"nom": "statevector"}],
    {"name": "statevector"},
    [{"name": "statevector", "max_qubits": "many"}],
    [{"name": "statevector", "online": "false", "max_qubits": "12", "is_ideal_simulator": "no"}],
    [{"name": "statevector", "max_qubits": True}],
]


def serve_listing(monkeypatch, listing) -> None:
    """Make _Handler answer GET /backends with ``listing``, and every other
    GET as before."""
    original = _Handler.do_GET

    def listing_get(self):
        if self.path != "/backends":
            return original(self)
        self._read_body()
        self._send(200, listing)

    monkeypatch.setattr(_Handler, "do_GET", listing_get)
