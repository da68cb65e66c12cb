"""Minimal HTTP job service exposing the simulator over a wire protocol.

This is the network leg the remote_http provider speaks against, so the
distributed and asynchronous paths are exercised across a real socket:

* ``GET /backends``         -> [{name, online, max_qubits, is_ideal_simulator}]
* ``POST /jobs``            {backend, jobs: [{qasm, shots, seed}, ...]}
                            -> 201 {jobs: [{job_id} or {error}, ...]}
* ``GET /jobs?ids=a,b,...`` -> 200 {jobs: [{job_id, state, error?, counts?}
                            or {job_id, error: "unknown job"}, ...]}; error
  once FAILED, counts once DONE. This is the one way to read a job.

Both job routes answer one entry per job, in request order, and take at most
MAX_BATCH_JOBS jobs a request. An entry that cannot run (bad QASM, a circuit
wider than its backend, shots or seed that are not integers) gets its own
error and the others are queued. A fault of the whole request answers for
all its jobs at once: 401 without the api key, 400 for a malformed body and
404 for an unknown backend.

JSON bodies, UTF-8, no auth unless an api_key is configured (then every
request must carry a matching X-API-Key header). The service speaks HTTP/1.1
and keeps each connection open for the client's next request. It reads a
request's whole body, framed by Content-Length, before it replies, so an
early 401 or 404 leaves the connection in step; a Content-Length that is not
an integer gets 400 and the connection is closed. A kept connection idle for
_IDLE_TIMEOUT seconds is closed. stop() ends the serve loop within
_SHUTDOWN_POLL seconds and closes the kept connections too, so nothing is
served after it. The service hosts ``statevector``, ideal, and
``noisy_statevector``, depolarizing at p=0.05, on one JobRunner, the runner
each in-process provider uses: it checks a job against its backend and runs its
jobs in submission order, each starting no earlier than ``delay`` seconds
after its submission. With no delay they run on the process's one kernel
worker, one at a time with every other in-process kernel; with a delay, on a
worker of the service's own. A delay that is negative, infinite or NaN is
refused when the service is built. Jobs live in memory only; a restart loses
them and clients see 404.

Run standalone with ``python -m qexec.server --port 8748``.
"""

from __future__ import annotations

import argparse
import json
import logging
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .circuit import parse_qasm
from .errors import ProviderConfigError, QExecError
from .providers import MAX_BATCH_JOBS, BackendDescriptor, JobRunner, JobStatus, submit_checked
from .simulator import MAX_WIDTH_DEFAULT, NoiseSpec

__all__ = ["ServerConfig", "RemoteServer", "main"]

logger = logging.getLogger(__name__)

# How often the serve loop checks whether stop() asked it to end, in seconds.
_SHUTDOWN_POLL = 0.05
# How long a kept connection may sit idle before the service closes it, in
# seconds: long enough for a client's next poll, short enough that a client
# that never closes its connection does not hold a service thread for ever.
_IDLE_TIMEOUT = 30.0
# The hosted backends, by name, each with its noise; None is ideal.
_BACKENDS = (("statevector", None), ("noisy_statevector", NoiseSpec(0.05)))


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port
    delay: float = 0.0  # each job starts no earlier than this many seconds after submission
    api_key: str | None = None


class _Handler(BaseHTTPRequestHandler):
    # bound per server via type()
    config: ServerConfig
    runner: JobRunner

    # Keep connections open. The headers and the body go out in two sends, so
    # with Nagle's algorithm on the body would wait for the client's delayed ACK.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = _IDLE_TIMEOUT

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):
        logger.debug("%s - %s", self.address_string(), fmt % args)

    def _send(self, code: int, payload, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also ends the connection after this reply
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        """The whole request body, read before any reply so that a kept
        connection is never left mid-request. None once a body framed other
        than by an integer Content-Length has been answered with 400."""
        length = self.headers.get("Content-Length", "0")
        if "Transfer-Encoding" in self.headers or not (length.isascii() and length.isdigit()):
            error = "the body must be framed by an integer Content-Length"
            self._send(400, {"error": error}, close=True)
            return None
        return self.rfile.read(int(length))

    def _authorized(self) -> bool:
        expected = self.config.api_key
        if expected is None:
            return True
        if self.headers.get("X-API-Key") == expected:
            return True
        self._send(401, {"error": "missing or invalid api key"})
        return False

    # -- routes ----------------------------------------------------------------

    def do_GET(self):
        if self._read_body() is None or not self._authorized():
            return
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["backends"]:
            self._send(
                200,
                [
                    {
                        "name": d.backend_name,
                        "online": d.online,
                        "max_qubits": d.max_qubits,
                        "is_ideal_simulator": d.is_ideal_simulator,
                    }
                    for d in sorted(self.runner.backends(), key=lambda d: d.backend_name)
                ],
            )
        elif parts == ["jobs"]:
            self._get_jobs(parse_qs(url.query).get("ids", []))
        else:
            self._send(404, {"error": "unknown path"})

    def do_POST(self):
        raw = self._read_body()
        if raw is None or not self._authorized():
            return
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts != ["jobs"]:
            self._send(404, {"error": "unknown path"})
            return
        self._post_jobs(raw)

    def _post_jobs(self, raw: bytes) -> None:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send(400, {"error": "malformed JSON body"})
            return
        if not isinstance(body, dict):
            self._send(400, {"error": "body must be a JSON object"})
            return
        entries = body.get("jobs")
        if not isinstance(entries, list) or len(entries) > MAX_BATCH_JOBS:
            self._send(400, {"error": f"jobs must be a list of at most {MAX_BATCH_JOBS} jobs"})
            return
        backend = body.get("backend")
        names = {d.backend_name for d in self.runner.backends()}
        if not isinstance(backend, str) or backend not in names:
            self._send(404, {"error": f"unknown backend {backend!r}"})
            return

        jobs = []
        for entry in entries:
            try:
                jobs.append(_wire_job(entry))
            except ValueError as exc:
                jobs.append(exc)
        # The runner refuses a circuit wider than the backend's limit.
        job_ids = submit_checked(jobs, lambda batch: self.runner.submit(backend, batch))
        replies = [
            {"error": str(job_id)} if isinstance(job_id, Exception) else {"job_id": job_id}
            for job_id in job_ids
        ]
        self._send(201, {"jobs": replies})

    def _get_jobs(self, ids_values: list[str]) -> None:
        job_ids = [job_id for value in ids_values for job_id in value.split(",") if job_id]
        if len(job_ids) > MAX_BATCH_JOBS:
            self._send(400, {"error": f"ids must name at most {MAX_BATCH_JOBS} jobs"})
            return
        statuses = self.runner.status(job_ids)
        self._send(200, {"jobs": [_job_entry(i, s) for i, s in zip(job_ids, statuses)]})


def _wire_job(entry) -> tuple:
    """One entry of a POST /jobs body as a runner's ``(circuit, shots, seed)``
    job; ValueError names what is wrong with it."""
    if not isinstance(entry, dict):
        raise ValueError("a job must be a JSON object")
    shots, seed = entry.get("shots", 0), entry.get("seed", 0)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (shots, seed)):
        raise ValueError("shots and seed must be integers")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    qasm = entry.get("qasm")
    if not isinstance(qasm, str):
        raise ValueError("missing qasm")
    try:
        circuit = parse_qasm(qasm)
    except QExecError as exc:
        raise ValueError(f"bad qasm: {exc}") from exc
    return circuit, shots, seed


def _job_entry(job_id: str, status: JobStatus | None) -> dict:
    """One job's entry of GET /jobs?ids=: its state, error and counts, or
    ``unknown job`` for an id the service never issued or has lost."""
    if status is None:
        return {"job_id": job_id, "error": "unknown job"}
    entry = {"job_id": job_id, "state": status.state.value}
    if status.error_message is not None:
        entry["error"] = status.error_message
    if status.counts is not None:
        entry["counts"] = status.counts
    return entry


class _Server(ThreadingHTTPServer):
    """A threading HTTP server that records the connections it accepts, so
    that close_connections() can end the kept ones that shutdown() leaves."""

    daemon_threads = True

    def __init__(self, address, handler):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        # Under the lock, so no connection in the set has been closed yet:
        # shutdown_request takes it out before closing it.
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)  # its handler then reads EOF and ends
                except OSError:
                    pass  # the client has gone already
            self._connections.clear()


class RemoteServer:
    """Owns the HTTP server thread and the JobRunner of the hosted backends,
    each MAX_WIDTH_DEFAULT qubits wide."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self._runner = JobRunner(
            "rjob",
            [
                (BackendDescriptor("rjob", name, True, MAX_WIDTH_DEFAULT, noise is None), noise)
                for name, noise in _BACKENDS
            ],
            self.config.delay,
        )
        handler = type("BoundHandler", (_Handler,), {"config": self.config, "runner": self._runner})
        self._httpd = _Server((self.config.host, self.config.port), handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "RemoteServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_SHUTDOWN_POLL,), daemon=True
        )
        self._thread.start()
        logger.info("remote service listening on %s", self.endpoint)
        return self

    def stop(self) -> None:
        if self._thread is not None:  # shutdown() waits for a serve loop that started
            self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._runner.shutdown()

    def __enter__(self) -> "RemoteServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qexec remote job service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8748)
    parser.add_argument("--delay", type=float, default=0.0, help="seconds after submission before a job may run")
    parser.add_argument("--api-key", default=None)
    args = parser.parse_args(argv)

    config = ServerConfig(host=args.host, port=args.port, delay=args.delay, api_key=args.api_key)
    try:
        server = RemoteServer(config)  # checks the delay before it binds the port
    except ProviderConfigError as exc:
        parser.error(f"argument --delay: {exc}")
    server.start()
    print(f"serving on {server.endpoint} (backends: {', '.join(name for name, _ in _BACKENDS)})")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
