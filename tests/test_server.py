import socket
import threading
import time

import pytest
import requests

import qexec.providers
import qexec.server
from qexec import sample
from qexec.errors import ProviderConfigError
from qexec.server import RemoteServer, ServerConfig

from conftest import BELL_QASM, count_kernels_in_flight, post_job, post_jobs, read_jobs, wait_done


def bell_job(**changes) -> dict:
    return {"qasm": BELL_QASM, "shots": 8, "seed": 0, **changes}


# --------------------------------------------------------------------------
# discovery
# --------------------------------------------------------------------------


def test_backends_default_pair(remote_server):
    listing = requests.get(f"{remote_server.endpoint}/backends", timeout=5).json()
    assert [b["name"] for b in listing] == ["noisy_statevector", "statevector"]
    by_name = {b["name"]: b for b in listing}
    assert by_name["statevector"]["is_ideal_simulator"] is True
    assert by_name["noisy_statevector"]["is_ideal_simulator"] is False
    assert all(b["online"] for b in listing)


@pytest.mark.parametrize("delay", [float("inf"), float("nan"), -1.0])
def test_service_refuses_a_delay_it_cannot_keep(delay):
    # An infinite delay would answer 201 and then leave every job QUEUED.
    with pytest.raises(ProviderConfigError, match="delay must be finite and >= 0"):
        RemoteServer(ServerConfig(delay=delay))


@pytest.mark.parametrize("delay", ["inf", "nan", "-1"])
def test_service_main_exits_on_a_bad_delay_before_binding(delay, monkeypatch, capsys):
    bound = []
    monkeypatch.setattr(qexec.server, "_Server", lambda *args: bound.append(args))
    with pytest.raises(SystemExit) as exit_info:
        qexec.server.main(["--port", "0", "--delay", delay])
    assert exit_info.value.code != 0
    assert "delay must be finite and >= 0" in capsys.readouterr().err
    assert bound == []


def test_malformed_path_404(remote_server):
    assert requests.get(f"{remote_server.endpoint}/nope", timeout=5).status_code == 404
    assert requests.post(f"{remote_server.endpoint}/jobs/extra", json={}, timeout=5).status_code == 404


# --------------------------------------------------------------------------
# submission
# --------------------------------------------------------------------------


def test_submit_bell(remote_server):
    response = post_jobs(remote_server.endpoint, "statevector", bell_job(shots=1024))
    assert response.status_code == 201
    [entry] = response.json()["jobs"]
    assert list(entry) == ["job_id"] and entry["job_id"]


def test_submit_unknown_backend(remote_server):
    # An unknown backend fails the whole request, bad entries or not.
    for job in (bell_job(), bell_job(shots=0)):
        response = post_jobs(remote_server.endpoint, "warp_core", job, job)
        assert response.status_code == 404
        assert response.json() == {"error": "unknown backend 'warp_core'"}


def test_submit_zero_shots(remote_server):
    response = post_jobs(remote_server.endpoint, "statevector", bell_job(shots=0))
    assert response.status_code == 201
    assert response.json() == {"jobs": [{"error": "shots must be >= 1, got 0"}]}


@pytest.mark.parametrize("field", ["shots", "seed"])
@pytest.mark.parametrize("value", [1.9, True, "12"])
def test_submit_non_integer_shots_or_seed_400(remote_server, field, value):
    # The bad entry gets its own error; the good one beside it is queued.
    jobs = [bell_job(), bell_job(**{field: value})]
    response = post_jobs(remote_server.endpoint, "statevector", *jobs)
    assert response.status_code == 201
    good, bad = response.json()["jobs"]
    assert "job_id" in good
    assert bad == {"error": "shots and seed must be integers"}


def test_submit_bad_qasm(remote_server):
    response = post_jobs(remote_server.endpoint, "statevector", bell_job(qasm="not qasm at all"))
    assert response.status_code == 201
    error = response.json()["jobs"][0]["error"]
    assert error.startswith("bad qasm") and "(line " in error


def test_one_bad_entry_fails_only_its_own_job(remote_server, bell):
    wide = "OPENQASM 2.0; qreg q[25];"
    no_qasm = {"shots": 8, "seed": 0}
    jobs = [bell_job(seed=1), bell_job(qasm="nope"), bell_job(qasm=wide), bell_job(shots=2.5), 7]
    response = post_jobs(remote_server.endpoint, "statevector", *jobs, no_qasm, bell_job(seed=2))
    assert response.status_code == 201
    entries = response.json()["jobs"]
    assert [sorted(entry) for entry in entries] == [["job_id"]] + [["error"]] * 5 + [["job_id"]]
    assert "exceeds" in entries[2]["error"]
    assert entries[4] == {"error": "a job must be a JSON object"}
    assert entries[5] == {"error": "missing qasm"}
    ids = [entries[0]["job_id"], entries[6]["job_id"]]
    assert wait_done(remote_server.endpoint, *ids) == ["DONE", "DONE"]
    counts = [entry["counts"] for entry in read_jobs(remote_server.endpoint, *ids)]
    assert counts == [sample(bell, 8, seed=1), sample(bell, 8, seed=2)]


def test_submit_malformed_body(remote_server):
    response = requests.post(
        f"{remote_server.endpoint}/jobs",
        data=b"{{{",
        headers={"Content-Type": "application/json"},
        timeout=5,
    )
    assert response.status_code == 400


@pytest.mark.parametrize("body", [b"[1,2]", b'"x"', b"null"])
def test_submit_body_not_an_object(remote_server, body):
    response = requests.post(
        f"{remote_server.endpoint}/jobs",
        data=body,
        headers={"Content-Type": "application/json"},
        timeout=5,
    )
    assert response.status_code == 400
    assert response.json() == {"error": "body must be a JSON object"}


@pytest.mark.parametrize(
    "jobs",
    [None, {"qasm": BELL_QASM}, [bell_job()] * 257, "one-job body"],
    ids=["missing", "object", "257", "string"],
)
def test_submit_jobs_must_be_a_list_of_at_most_256(remote_server, jobs):
    body = {"backend": "statevector", "qasm": BELL_QASM, "shots": 8}
    if jobs != "one-job body":  # the single-job form is gone
        body = {"backend": "statevector", "jobs": jobs}
    response = requests.post(f"{remote_server.endpoint}/jobs", json=body, timeout=5)
    assert response.status_code == 400
    assert response.json() == {"error": "jobs must be a list of at most 256 jobs"}


def test_submit_width_overflow(remote_server):
    wide = "OPENQASM 2.0; qreg q[25];"
    response = post_jobs(remote_server.endpoint, "statevector", bell_job(qasm=wide))
    assert response.status_code == 201
    error = response.json()["jobs"][0]["error"]
    assert "width 25 exceeds" in error
    assert "limit 20" in error


# --------------------------------------------------------------------------
# lifecycle and results
# --------------------------------------------------------------------------


def test_job_lifecycle_and_result(remote_server):
    endpoint = remote_server.endpoint
    job_id = post_job(endpoint, qasm=BELL_QASM, shots=512, seed=7)
    assert wait_done(endpoint, job_id) == ["DONE"]
    [entry] = read_jobs(endpoint, job_id)
    assert sum(entry["counts"].values()) == 512
    assert set(entry["counts"]) <= {"00", "11"}


def test_read_answers_each_id_in_the_order_asked(remote_server):
    endpoint = remote_server.endpoint
    ids = [post_job(endpoint, qasm=BELL_QASM, shots=8, seed=k) for k in range(3)]
    wait_done(endpoint, *ids)
    asked = [ids[2], "rjob-404", ids[0], ids[2]]
    entries = read_jobs(endpoint, *asked)
    assert [entry["job_id"] for entry in entries] == asked
    assert entries[1] == {"job_id": "rjob-404", "error": "unknown job"}
    assert [entries[i]["state"] for i in (0, 2, 3)] == ["DONE"] * 3
    assert read_jobs(endpoint) == []
    too_many = requests.get(f"{endpoint}/jobs", params={"ids": ",".join(["x"] * 257)}, timeout=5)
    assert too_many.status_code == 400


def test_jobs_run_one_at_a_time(remote_server, monkeypatch):
    # Two clients post to both backends at once; one worker runs every job.
    in_flight = count_kernels_in_flight(monkeypatch)
    endpoint = remote_server.endpoint
    job_ids = []

    def client():
        with requests.Session() as session:
            for seed in range(10):
                for backend in ("statevector", "noisy_statevector"):
                    jobs = [bell_job(shots=16, seed=seed)] * 2
                    response = post_jobs(endpoint, backend, *jobs, session=session)
                    job_ids.extend(entry["job_id"] for entry in response.json()["jobs"])

    clients = [threading.Thread(target=client) for _ in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert wait_done(endpoint, *job_ids) == ["DONE"] * 80
    assert in_flight[1] == 1


def test_delayed_job_409_then_200(delayed_server, bell):
    # A delayed job shows no counts until it is DONE.
    endpoint = delayed_server.endpoint
    job_id = post_job(endpoint, qasm=BELL_QASM, shots=64, seed=1)
    assert read_jobs(endpoint, job_id) == [{"job_id": job_id, "state": "QUEUED"}]
    assert wait_done(endpoint, job_id) == ["DONE"]
    [late] = read_jobs(endpoint, job_id)
    assert sum(late["counts"].values()) == 64


def test_unknown_job_404(remote_server):
    # GET /jobs/{id} and /result are no routes: they get the 404 of any unknown
    # path, for any id. An unknown id in a read gets an entry of its own.
    job_id = post_job(remote_server.endpoint, qasm=BELL_QASM, shots=8, seed=0)
    for path in (f"/jobs/{job_id}", "/jobs/rjob-404", "/jobs/rjob-404/result"):
        response = requests.get(f"{remote_server.endpoint}{path}", timeout=5)
        assert response.status_code == 404
        assert response.json() == {"error": "unknown path"}
    assert read_jobs(remote_server.endpoint, "rjob-404") == [
        {"job_id": "rjob-404", "error": "unknown job"}
    ]


def test_failed_job_410(remote_server, monkeypatch):
    # Submission already validated the input, so only a kernel fault can
    # fail a job: make the ideal kernel raise.
    def broken_kernel(*args, **kwargs):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(qexec.providers, "sample_batch", broken_kernel)
    endpoint = remote_server.endpoint
    job_id = post_job(endpoint, qasm=BELL_QASM, shots=8, seed=0)
    assert wait_done(endpoint, job_id) == ["FAILED"]
    assert read_jobs(endpoint, job_id) == [
        {"job_id": job_id, "state": "FAILED", "error": "induced failure"}
    ]


# --------------------------------------------------------------------------
# auth and equivalence
# --------------------------------------------------------------------------


def test_api_key_enforced():
    with RemoteServer(ServerConfig(api_key="sesame")) as server:
        denied = requests.get(f"{server.endpoint}/backends", timeout=5)
        assert denied.status_code == 401
        allowed = requests.get(
            f"{server.endpoint}/backends", headers={"X-API-Key": "sesame"}, timeout=5
        )
        assert allowed.status_code == 200


def test_remote_counts_equal_local_seeded(remote_server, bell):
    endpoint = remote_server.endpoint
    job_id = post_job(endpoint, qasm=BELL_QASM, shots=999, seed=4242)
    wait_done(endpoint, job_id)
    assert read_jobs(endpoint, job_id)[0]["counts"] == sample(bell, 999, seed=4242)


# --------------------------------------------------------------------------
# kept connections
# --------------------------------------------------------------------------


def read_to_eof(sock: socket.socket) -> bytes:
    """Everything the service sends until it closes the connection; a
    connection it keeps open fails the test by the socket's timeout."""
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


@pytest.mark.parametrize(
    "api_key, path, code",
    [(None, "/jobs/extra", 404), ("sesame", "/jobs", 401)],
)
def test_early_reply_leaves_the_connection_in_step(api_key, path, code, accepted_connections):
    # The reply comes before the body is used; the body must still be read, or
    # it would be parsed as the next request on this connection.
    headers = {"X-API-Key": api_key} if api_key else {}
    with RemoteServer(ServerConfig(api_key=api_key)) as server, requests.Session() as session:
        body = {"backend": "statevector", "qasm": BELL_QASM, "shots": 8}
        assert session.post(f"{server.endpoint}{path}", json=body, timeout=5).status_code == code
        listing = session.get(f"{server.endpoint}/backends", headers=headers, timeout=5)
        assert listing.status_code == 200
        assert [b["name"] for b in listing.json()] == ["noisy_statevector", "statevector"]
    assert len(accepted_connections) == 1


@pytest.mark.parametrize("length", ["abc", "-1", "1.5", ""])
def test_content_length_not_an_integer_gets_400_and_closes(remote_server, length):
    with socket.create_connection(("127.0.0.1", remote_server.port), timeout=5) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: qexec\r\nContent-Length: {length}\r\n\r\n".encode()
        )
        reply = read_to_eof(sock)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in reply


def test_stop_closes_kept_connections(remote_server):
    with socket.create_connection(("127.0.0.1", remote_server.port), timeout=5) as sock:
        sock.sendall(b"GET /backends HTTP/1.1\r\nHost: qexec\r\n\r\n")
        assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
        remote_server.stop()
        read_to_eof(sock)  # returns only once the service has closed the connection


def test_an_idle_service_stops_at_once():
    server = RemoteServer(ServerConfig()).start()
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.25


def test_stop_on_a_service_never_started_returns():
    # shutdown() waits for a serve loop to end, and none ever began; run on a
    # daemon thread so that a stop() that hangs fails the test, not the suite.
    server = RemoteServer(ServerConfig())
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive(), "stop() never returned"
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=1).close()
    assert server._runner._stopped.is_set()


def test_idle_connections_are_closed_and_their_threads_end(remote_server, handler_threads):
    sockets = [socket.create_connection(("127.0.0.1", remote_server.port), timeout=5) for _ in range(3)]
    try:
        for sock in sockets:
            sock.sendall(b"GET /backends HTTP/1.1\r\nHost: qexec\r\n\r\n")
        for sock in sockets:
            assert read_to_eof(sock).startswith(b"HTTP/1.1 200 ")  # then the service closed it
    finally:
        for sock in sockets:
            sock.close()
    assert len(handler_threads) == 3
    for thread in handler_threads:
        thread.join(5)
        assert not thread.is_alive()
