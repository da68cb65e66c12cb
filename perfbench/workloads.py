"""The qexec benchmark workloads and their seeded inputs.

Each workload is built from a seed. ``prepare`` generates its inputs,
untimed; ``setup`` does the set-up work that qexec does before a run, and is
timed as ``setup_s``; ``run_once`` is the timed iteration, ``check``
verifies its outputs and ``final_checks`` runs the checks that need one
extra, untimed run. qexec receives only the generated inputs: OpenQASM text,
experiment and providers files. Workloads call ``qexec.cli.main`` and
``qexec.circuit.parse_qasm`` through their modules so that a traced
iteration sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import requests
import yaml

import qexec.circuit
import qexec.cli
from qexec import ExperimentSpec, NoiseSpec, ProviderConfig, QuantumExecutor, tree_to_json
from qexec.simulator import sample, sample_noisy

from tracing import TracedExecutor, Tracer

CLIFFORD_1Q = ("h", "s", "x", "y", "z")
NOISE_P = 0.05
KERNEL_SHOTS = 1000
KERNEL_NOISY_CALLS = 5  # per circuit
KERNEL_IDEAL_CALLS = 20


@dataclass
class Context:
    seed: int
    workdir: Path
    src: Path  # the checkout's src directory, for the job service subprocess
    tracer: Tracer | None
    sample_threads: Callable[[], None]


@dataclass
class Outcome:
    digest: str  # sha256 over the result trees and merged outputs
    failed: int  # FAILED jobs
    problems: list[str] = field(default_factory=list)
    record_bytes: int = 0


# --------------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------------


def random_qasm(rng: random.Random, width: int, n_gates: int, two_qubit: int, extra=()) -> str:
    """Random measured circuit of ``n_gates`` gates in random order: exactly
    ``two_qubit`` CX and CZ (half each), ``count`` of each ``(gate, count)`` in ``extra``,
    and one-qubit Clifford gates for the rest.

    Fixing how many gates of each arity and kind a circuit has keeps the
    simulators' work per circuit the same from one seed to the next.
    """
    kinds = ["cx"] * (two_qubit // 2) + ["cz"] * (two_qubit - two_qubit // 2)
    kinds += [gate for gate, count in extra for _ in range(count)]
    kinds += ["1q"] * (n_gates - len(kinds))
    rng.shuffle(kinds)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{width}];", f"creg c[{width}];"]
    for kind in kinds:
        if kind in ("cx", "cz"):
            a, b = rng.sample(range(width), 2)
            lines.append(f"{kind} q[{a}],q[{b}];")
        elif kind == "rz":
            lines.append(f"rz({rng.uniform(0.0, 2.0 * math.pi)!r}) q[{rng.randrange(width)}];")
        else:
            gate = rng.choice(CLIFFORD_1Q) if kind == "1q" else kind
            lines.append(f"{gate} q[{rng.randrange(width)}];")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def ghz_qasm(width: int) -> str:
    lines = ["OPENQASM 2.0;", f"qreg q[{width}];", f"creg c[{width}];", "h q[0];"]
    lines += [f"cx q[{i}],q[{i + 1}];" for i in range(width - 1)]
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def noisy_wide_circuits(seed: int) -> dict[str, str]:
    rng = random.Random(f"noisy_wide:{seed}")
    return {
        "ghz14": ghz_qasm(14),
        "cliff12": random_qasm(rng, 12, 40, two_qubit=12),
        "nonclif12": random_qasm(rng, 12, 40, two_qubit=12, extra=(("t", 4), ("rz", 4))),
    }


def kernel_rates(seed: int) -> dict[str, tuple[float, int]]:
    """Shots per second of direct kernel calls on the noisy_wide circuits,
    each the median of several timed calls, with its number of calls.

    The noisy calls go round the three circuits in turn, so that a change in
    the host's speed during the measurement touches all three alike.
    """
    circuits = {
        name: qexec.circuit.parse_qasm(text, name=name)
        for name, text in noisy_wide_circuits(seed).items()
    }
    durations: dict[str, list[float]] = {name: [] for name in circuits}
    for i in range(KERNEL_NOISY_CALLS):
        for name, circuit in circuits.items():
            start = time.perf_counter()
            sample_noisy(circuit, KERNEL_SHOTS, NoiseSpec(NOISE_P), seed + i)
            durations[name].append(time.perf_counter() - start)
    rates = {
        f"simulator.noisy_shots_per_s.{name}": (KERNEL_SHOTS / statistics.median(d), len(d))
        for name, d in durations.items()
    }
    ideal = []
    for i in range(KERNEL_IDEAL_CALLS):
        start = time.perf_counter()
        sample(circuits["nonclif12"], KERNEL_SHOTS, seed + i)
        ideal.append(time.perf_counter() - start)
    rates["simulator.ideal_shots_per_s.w12"] = (KERNEL_SHOTS / statistics.median(ideal), len(ideal))
    return rates


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def check_counts(tree: dict, expected: dict[tuple[str, str], tuple[int, int]]) -> list[str]:
    """Every backend has all its jobs, and every job's counts sum to its shots."""
    problems = []
    for (provider_id, backend_name), (jobs, shots) in expected.items():
        runs = tree.get(provider_id, {}).get(backend_name, [])
        if len(runs) != jobs:
            problems.append(f"{provider_id}/{backend_name}: {len(runs)} results, expected {jobs}")
        bad = [i for i, counts in enumerate(runs) if sum(counts.values()) != shots]
        if bad:
            problems.append(
                f"{provider_id}/{backend_name}: counts of job {bad[0]} do not sum to {shots}"
            )
    return problems


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class SweepTiny:
    """500 tiny circuits x 4 local targets through one in-process `qexec run`."""

    CIRCUITS, WIDTH, GATES, SHOTS = 500, 3, 8, 16
    PROVIDERS = {
        "ideal_a": {"kind": "local_ideal"},
        "ideal_b": {"kind": "local_ideal"},
        "noisy_01": {"kind": "local_noisy", "noise": 0.01},
        "noisy_05": {"kind": "local_noisy", "noise": NOISE_P},
    }
    BACKEND = {"local_ideal": "statevector", "local_noisy": "noisy_statevector"}
    JOBS = CIRCUITS * len(PROVIDERS)
    REMOTE_JOBS = 0
    THROUGHPUT = ("jobs_per_s", JOBS)

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.store = ctx.workdir / "store"
        self.targets = {
            pid: [self.BACKEND[entry["kind"]]] for pid, entry in self.PROVIDERS.items()
        }

    def prepare(self) -> None:
        rng = random.Random(f"sweep_tiny:{self.ctx.seed}")
        circuit_dir = self.ctx.workdir / "circuits"
        circuit_dir.mkdir(parents=True)
        names = []
        for i in range(self.CIRCUITS):
            name = f"c{i:03d}.qasm"
            text = random_qasm(rng, self.WIDTH, self.GATES, two_qubit=2, extra=(("t", 1),))
            (circuit_dir / name).write_text(text, encoding="utf-8")
            names.append(f"circuits/{name}")
        self.providers = self.ctx.workdir / "providers.yaml"
        self.providers.write_text(yaml.safe_dump(self.PROVIDERS), encoding="utf-8")
        experiment = {
            "name": "sweep_tiny",
            "circuits": names,
            "shots": self.SHOTS,
            "backends": self.targets,
            "split_policy": "multiplier",
            "merge_policy": "sum",
            "seed": self.ctx.seed,
        }
        self.experiment = self.ctx.workdir / "experiment.yaml"
        self.experiment.write_text(yaml.safe_dump(experiment), encoding="utf-8")
        self.serial_experiment = self.ctx.workdir / "experiment_serial.yaml"
        self.serial_experiment.write_text(
            yaml.safe_dump({**experiment, "parallel": False}), encoding="utf-8"
        )

    def setup(self) -> None:
        """What `qexec run` does before it runs: load and check the
        experiment file, load the providers file and build the executor.
        Each iteration's `qexec run` does this again, inside run_s."""
        qexec.cli.load_experiment_file(self.experiment)
        QuantumExecutor(providers=qexec.cli.load_providers_file(self.providers))

    def run_once(self, traced: bool, experiment: Path | None = None):
        argv = ["--store", str(self.store), "--providers", str(self.providers), "run"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = qexec.cli.main(argv + [str(experiment or self.experiment)])
        return code, stdout.getvalue()

    def check(self, raw) -> Outcome:
        code, stdout = raw
        problems = [] if code == 0 else [f"qexec run exited {code}"]
        run_dir = self.store / (stdout.split() or ["missing"])[0]
        results, merged = run_dir / "results.json", run_dir / "merged.json"
        if not (results.is_file() and merged.is_file()):
            return Outcome("", self.JOBS, problems + ["qexec run wrote no results.json/merged.json"])
        tree = json.loads(results.read_text(encoding="utf-8"))
        statuses = json.loads((run_dir / "status.json").read_text(encoding="utf-8"))
        failed = sum(1 for entry in statuses.values() if entry["state"] == "FAILED")
        expected = {(p, b[0]): (self.CIRCUITS, self.SHOTS) for p, b in self.targets.items()}
        problems += check_counts(tree, expected)
        # meta.json holds only the run id and wall-clock stamps, whose printed
        # length varies; the rest of the record is a pure function of the seed.
        record_bytes = sum(p.stat().st_size for p in run_dir.iterdir() if p.name != "meta.json")
        digest = _digest(results.read_text(encoding="utf-8"), merged.read_text(encoding="utf-8"))
        shutil.rmtree(run_dir)
        return Outcome(digest, failed, problems, record_bytes)

    def final_checks(self, raw, outcome: Outcome) -> list[str]:
        serial = self.check(self.run_once(False, self.serial_experiment))
        problems = [f"serial run: {p}" for p in serial.problems]
        if serial.digest != outcome.digest:
            problems.append("parallel: false gives a different result tree than the parallel run")
        return problems

    def close(self) -> None:
        pass


class NoisyWide:
    """Three one-circuit TVD experiments whose time is almost all in sample_noisy."""

    SHOTS = 1000
    BACKENDS = {"ideal": ["statevector"], "noisy": ["noisy_statevector"]}
    JOBS = 3 * 2
    REMOTE_JOBS = 0
    THROUGHPUT = ("shots_per_s", JOBS * SHOTS)

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> None:
        self.qasm = noisy_wide_circuits(self.ctx.seed)

    def setup(self) -> None:
        providers = [
            ProviderConfig(provider_id="ideal", kind="local_ideal"),
            ProviderConfig(provider_id="noisy", kind="local_noisy", noise=NoiseSpec(NOISE_P)),
        ]
        self.executors = {False: QuantumExecutor(providers=providers)}
        if self.ctx.tracer is not None:
            self.executors[True] = TracedExecutor(providers=providers, tracer=self.ctx.tracer)

    def run_once(self, traced: bool):
        executor = self.executors[traced]
        outputs = []
        for name, text in self.qasm.items():
            spec = ExperimentSpec(
                circuits=qexec.circuit.parse_qasm(text, name=name),
                shots=self.SHOTS,
                backends=self.BACKENDS,
                merge_policy="tvd",
                base_seed=self.ctx.seed,
            )
            collector = executor.run_experiment(spec)
            outputs.append((name, collector))
        return [
            (name, c.get_results(), c.get_merged_results(), c.failed_jobs()) for name, c in outputs
        ]

    def check(self, raw) -> Outcome:
        problems, failed, parts = [], 0, []
        expected = {("ideal", "statevector"): (1, self.SHOTS), ("noisy", "noisy_statevector"): (1, self.SHOTS)}
        for name, tree, (merged, metadata), failed_jobs in raw:
            failed += len(failed_jobs)
            if name == "ghz14":
                outcomes = set().union(*tree.get("ideal", {}).get("statevector", []))
                if outcomes - {"0" * 14, "1" * 14}:
                    problems.append("ideal GHZ-14 gave outcomes other than all-0 and all-1")
            problems += [f"{name}: {p}" for p in check_counts(tree, expected)]
            if not all(0.0 <= v <= 1.0 for v in merged.values()):
                problems.append(f"{name}: TVD outside [0, 1]: {merged}")
            parts += [tree_to_json(tree), json.dumps([merged, metadata], sort_keys=True)]
        return Outcome(_digest(*parts), failed, problems)

    def final_checks(self, raw, outcome: Outcome) -> list[str]:
        return []

    def close(self) -> None:
        pass


class RemoteAsync:
    """100 circuits on two remote backends and a mock_delay target, watched
    by a dashboard loop while the lanes run."""

    CIRCUITS, WIDTH, GATES, SHOTS = 100, 4, 12, 64
    DELAY = 0.2
    DASHBOARD_PERIOD = 0.01
    BACKENDS = {"mock": ["delayed_statevector"], "remote": ["noisy_statevector", "statevector"]}
    JOBS = CIRCUITS * 3
    TOTAL_SHOTS = JOBS * SHOTS
    REMOTE_JOBS = CIRCUITS * 2
    THROUGHPUT = ("jobs_per_s", JOBS)
    SERVER_START_TIMEOUT = 60.0

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.server: subprocess.Popen | None = None

    def prepare(self) -> None:
        rng = random.Random(f"remote_async:{self.ctx.seed}")
        self.qasm = [
            random_qasm(rng, self.WIDTH, self.GATES, two_qubit=3, extra=(("t", 2),))
            for _ in range(self.CIRCUITS)
        ]

    def setup(self) -> None:
        endpoint = self._start_server()
        providers = [
            ProviderConfig(provider_id="remote", kind="remote_http", endpoint=endpoint),
            ProviderConfig(provider_id="mock", kind="mock_delay", delay=self.DELAY),
        ]
        self.executors = {False: QuantumExecutor(providers=providers)}
        if self.ctx.tracer is not None:
            self.executors[True] = TracedExecutor(providers=providers, tracer=self.ctx.tracer)

    def _start_server(self) -> str:
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "qexec.server", "--port", "0"],
            cwd=self.ctx.workdir,
            env={**os.environ, "PYTHONPATH": str(self.ctx.src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.server.stdout.readline()  # "serving on http://host:port (backends: ...)"
        if not line.startswith("serving on "):
            raise RuntimeError(f"job service did not start: {line!r}")
        endpoint = line.split()[2]
        deadline = time.monotonic() + self.SERVER_START_TIMEOUT
        while True:
            try:
                if requests.get(f"{endpoint}/backends", timeout=1.0).status_code == 200:
                    return endpoint
            except requests.RequestException:
                pass
            if time.monotonic() > deadline or self.server.poll() is not None:
                raise RuntimeError("job service never answered GET /backends")
            time.sleep(0.01)

    def run_once(self, traced: bool):
        circuits = [
            qexec.circuit.parse_qasm(text, name=f"r{i:03d}") for i, text in enumerate(self.qasm)
        ]
        spec = ExperimentSpec(
            circuits=circuits,
            shots=self.SHOTS,
            backends=self.BACKENDS,
            merge_policy="sum",
            wait=False,
            base_seed=self.ctx.seed,
        )
        collector = self.executors[traced].run_experiment(spec)
        while True:  # a dashboard refreshing every DASHBOARD_PERIOD until the run is terminal
            self.ctx.sample_threads()
            collector.status()
            collector.get_results(block=False)
            if collector.wait(self.DASHBOARD_PERIOD):
                break
        return collector, collector.get_merged_results()

    def check(self, raw) -> Outcome:
        collector, (merged, metadata) = raw
        tree = collector.get_results()
        expected = {
            (provider_id, backend): (self.CIRCUITS, self.SHOTS)
            for provider_id, backends in self.BACKENDS.items()
            for backend in backends
        }
        problems = check_counts(tree, expected)
        if sum(merged.values()) != self.TOTAL_SHOTS:
            problems.append(f"sum merge counts {sum(merged.values())} shots, expected {self.TOTAL_SHOTS}")
        digest = _digest(tree_to_json(tree), json.dumps([merged, metadata], sort_keys=True))
        return Outcome(digest, len(collector.failed_jobs()), problems)

    def final_checks(self, raw, outcome: Outcome) -> list[str]:
        """The remote ideal backend matches the local sampler bit for bit."""
        collector, _ = raw
        remote = collector.get_results().get("remote", {}).get("statevector", [])
        specs = collector.dispatch.jobs_for("remote", "statevector")
        mismatched = [
            spec.ordinal
            for spec, counts in zip(specs, remote)
            if counts != sample(spec.circuit, spec.shots, self.ctx.seed + spec.ordinal)
        ]
        if len(remote) != len(specs) or mismatched:
            return [f"remote statevector differs from qexec.simulator.sample on jobs {mismatched}"]
        return []

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None


WORKLOADS = {"sweep_tiny": SweepTiny, "noisy_wide": NoisyWide, "remote_async": RemoteAsync}
