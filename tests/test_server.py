import socket
import threading
import time

import pytest
import requests

import qexec.providers
from qexec import sample
from qexec.server import RemoteServer, ServerBackend, ServerConfig

from conftest import BELL_QASM, count_kernels_in_flight


def wait_done(endpoint: str, job_id: str, headers=None, timeout=5.0) -> str:
    deadline = time.time() + timeout
    while time.time() < deadline:
        state = requests.get(f"{endpoint}/jobs/{job_id}", headers=headers, timeout=5).json()[
            "state"
        ]
        if state in ("DONE", "FAILED"):
            return state
        time.sleep(0.01)
    pytest.fail("remote job never finished")


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


def test_backends_ideal_only():
    with RemoteServer(ServerConfig(backends=[ServerBackend("statevector")])) as server:
        listing = requests.get(f"{server.endpoint}/backends", timeout=5).json()
        assert len(listing) == 1


def test_malformed_path_404(remote_server):
    assert requests.get(f"{remote_server.endpoint}/nope", timeout=5).status_code == 404
    assert requests.post(f"{remote_server.endpoint}/jobs/extra", json={}, timeout=5).status_code == 404


# --------------------------------------------------------------------------
# submission
# --------------------------------------------------------------------------


def test_submit_bell(remote_server):
    response = requests.post(
        f"{remote_server.endpoint}/jobs",
        json={"backend": "statevector", "qasm": BELL_QASM, "shots": 1024, "seed": 0},
        timeout=5,
    )
    assert response.status_code == 201
    payload = response.json()
    assert payload["state"] == "QUEUED"
    assert payload["job_id"]


def test_submit_unknown_backend(remote_server):
    body = {"backend": "warp_core", "qasm": BELL_QASM, "shots": 8, "seed": 0}
    response = requests.post(f"{remote_server.endpoint}/jobs", json=body, timeout=5)
    assert response.status_code == 404
    assert response.json() == {"error": "unknown backend 'warp_core'"}
    # The body is checked before the backend is looked up.
    response = requests.post(f"{remote_server.endpoint}/jobs", json=dict(body, shots=0), timeout=5)
    assert response.status_code == 400


def test_submit_zero_shots(remote_server):
    response = requests.post(
        f"{remote_server.endpoint}/jobs",
        json={"backend": "statevector", "qasm": BELL_QASM, "shots": 0, "seed": 0},
        timeout=5,
    )
    assert response.status_code == 400


@pytest.mark.parametrize("field", ["shots", "seed"])
@pytest.mark.parametrize("value", [1.9, True, "12"])
def test_submit_non_integer_shots_or_seed_400(remote_server, field, value):
    body = {"backend": "statevector", "qasm": BELL_QASM, "shots": 3, "seed": 0}
    response = requests.post(f"{remote_server.endpoint}/jobs", json=body, timeout=5)
    assert response.status_code == 201
    response = requests.post(
        f"{remote_server.endpoint}/jobs", json=dict(body, **{field: value}), timeout=5
    )
    assert response.status_code == 400
    assert response.json() == {"error": "shots and seed must be integers"}


def test_submit_bad_qasm(remote_server):
    response = requests.post(
        f"{remote_server.endpoint}/jobs",
        json={"backend": "statevector", "qasm": "not qasm at all", "shots": 8, "seed": 0},
        timeout=5,
    )
    assert response.status_code == 400
    assert "bad qasm" in response.json()["error"]


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


def test_submit_width_overflow(remote_server):
    wide = "OPENQASM 2.0; qreg q[25];"
    response = requests.post(
        f"{remote_server.endpoint}/jobs",
        json={"backend": "statevector", "qasm": wide, "shots": 8, "seed": 0},
        timeout=5,
    )
    assert response.status_code == 400
    assert "width 25 exceeds" in response.json()["error"]
    assert "limit 20" in response.json()["error"]


# --------------------------------------------------------------------------
# lifecycle and results
# --------------------------------------------------------------------------


def test_job_lifecycle_and_result(remote_server):
    endpoint = remote_server.endpoint
    job_id = requests.post(
        f"{endpoint}/jobs",
        json={"backend": "statevector", "qasm": BELL_QASM, "shots": 512, "seed": 7},
        timeout=5,
    ).json()["job_id"]
    assert wait_done(endpoint, job_id) == "DONE"
    counts = requests.get(f"{endpoint}/jobs/{job_id}", timeout=5).json()["counts"]
    assert sum(counts.values()) == 512
    assert set(counts) <= {"00", "11"}


def test_jobs_run_one_at_a_time(remote_server, monkeypatch):
    # Two clients post to both backends at once; one worker runs every job.
    in_flight = count_kernels_in_flight(monkeypatch)
    endpoint = remote_server.endpoint
    job_ids = []

    def client():
        with requests.Session() as session:
            for seed in range(10):
                for backend in ("statevector", "noisy_statevector"):
                    body = {"backend": backend, "qasm": BELL_QASM, "shots": 16, "seed": seed}
                    response = session.post(f"{endpoint}/jobs", json=body, timeout=5)
                    job_ids.append(response.json()["job_id"])

    clients = [threading.Thread(target=client) for _ in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert [wait_done(endpoint, job_id) for job_id in job_ids] == ["DONE"] * 40
    assert in_flight[1] == 1


def test_delayed_job_409_then_200(delayed_server, bell):
    # A delayed job shows no counts until it is DONE.
    endpoint = delayed_server.endpoint
    job_id = requests.post(
        f"{endpoint}/jobs",
        json={"backend": "statevector", "qasm": BELL_QASM, "shots": 64, "seed": 1},
        timeout=5,
    ).json()["job_id"]
    early = requests.get(f"{endpoint}/jobs/{job_id}", timeout=5)
    assert early.status_code == 200
    assert early.json() == {"job_id": job_id, "state": "QUEUED"}
    assert wait_done(endpoint, job_id) == "DONE"
    late = requests.get(f"{endpoint}/jobs/{job_id}", timeout=5)
    assert late.status_code == 200
    assert sum(late.json()["counts"].values()) == 64


def test_unknown_job_404(remote_server):
    # /result is no route: it gets the same 404 as any unknown path.
    assert requests.get(f"{remote_server.endpoint}/jobs/rjob-404", timeout=5).status_code == 404
    assert (
        requests.get(f"{remote_server.endpoint}/jobs/rjob-404/result", timeout=5).status_code
        == 404
    )


def test_failed_job_410(remote_server, monkeypatch):
    # Submission already validated the input, so only a kernel fault can
    # fail a job: make the ideal kernel raise.
    def broken_sample(*args, **kwargs):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(qexec.providers, "sample", broken_sample)
    endpoint = remote_server.endpoint
    job_id = requests.post(
        f"{endpoint}/jobs",
        json={"backend": "statevector", "qasm": BELL_QASM, "shots": 8, "seed": 0},
        timeout=5,
    ).json()["job_id"]
    assert wait_done(endpoint, job_id) == "FAILED"
    status = requests.get(f"{endpoint}/jobs/{job_id}", timeout=5).json()
    assert status == {"job_id": job_id, "state": "FAILED", "error": "induced failure"}


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
    job_id = requests.post(
        f"{endpoint}/jobs",
        json={"backend": "statevector", "qasm": BELL_QASM, "shots": 999, "seed": 4242},
        timeout=5,
    ).json()["job_id"]
    wait_done(endpoint, job_id)
    remote_counts = requests.get(f"{endpoint}/jobs/{job_id}", timeout=5).json()["counts"]
    assert remote_counts == sample(bell, 999, seed=4242)


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
