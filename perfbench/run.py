#!/usr/bin/env python3
"""qexec benchmark: seeded workloads measured end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_tiny --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

One invocation runs one workload in this process. It generates the
workload's inputs and sets it up, then repeats iterations for ``--seconds``,
checking every output against that of the first iteration. Before each
iteration it sets up a spare copy of the workload and closes it again.
``setup_s`` is the median of all set-ups and ``run_s`` that of the
iterations; generating the inputs is not part of ``setup_s``.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced iterations, reports the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``.
``--workload all`` runs every workload both ways, each in a fresh process.
Readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# BENCHMARK.json gates sweep_tiny and remote_async; noisy_wide varies too much
# from run to run on a shared host to be gated (see baseline.json) but runs
# and checks the same way.
WORKLOAD_NAMES = ("sweep_tiny", "noisy_wide", "remote_async")

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
SAMPLE_PERIOD = 0.01  # seconds between thread-count samples
SETTLE_TIMEOUT = 2.0

class ThreadPeak:
    """Highest threading.active_count() seen while active.

    A SIGALRM timer samples it, so the main thread keeps sampling while it
    blocks inside qexec; callers may also sample explicitly.
    """

    def __init__(self):
        self.peak = 0

    def sample(self, *_):
        # active_count() takes threading's registry lock, and a signal can
        # arrive while this very thread holds it (inside Thread.start). Where
        # that lock is not reentrant (before Python 3.11), skip the sample
        # rather than wait on a lock that can never be released.
        locked = getattr(threading._active_limbo_lock, "locked", None)
        if locked is None or not locked():
            self.peak = max(self.peak, threading.active_count())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def settle() -> None:
    """Start an iteration as a fresh process would: with the garbage of
    earlier iterations collected, so that no collection of it lands inside
    the timed region, and with their leftover threads gone."""
    gc.collect()
    deadline = perf_counter() + SETTLE_TIMEOUT
    count = threading.active_count()
    while perf_counter() < deadline:
        time.sleep(0.005)
        now = threading.active_count()
        if now >= count:
            return
        count = now


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles; with fewer than two values all three are equal."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def report(metrics: dict[str, tuple[float, str, int]], notes: dict[str, str]) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n} {notes.get(name, '')}".rstrip())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    threads = ThreadPeak()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    workload = cls(workloads.Context(seed, tmp, SRC, tracer, threads.sample))
    setup_times = []

    def set_up(instance):
        gc.collect()  # so that no collection of earlier garbage lands inside
        start = perf_counter()
        instance.setup()
        setup_times.append(perf_counter() - start)

    try:
        workload.prepare()
        prepared = copy.copy(workload)  # inputs made, nothing set up: the spares' template
        set_up(workload)

        times: dict[bool, list[float]] = {False: [], True: []}
        record_bytes, problems, failed, iterations = [], [], 0, 0
        reference = reference_raw = None
        start = perf_counter()
        last_pass = 0.0
        with threads:
            # Start another iteration only if one more like the last still
            # ends within --seconds, so a run never measures much longer.
            while (
                len(times[False]) < MIN_ITERATIONS
                or (trace and len(times[True]) < MIN_TRACED_ITERATIONS)
                or perf_counter() - start + last_pass <= seconds
            ):
                pass_start = perf_counter()
                # Time a set-up before every iteration, not all of them in
                # one burst: the host's speed drifts over seconds, and
                # set-ups spread over the run see that drift as the
                # iterations do. The iterations keep the first set-up: a
                # fresh job service slows the iteration that follows it.
                spare = copy.copy(prepared)
                try:
                    set_up(spare)
                finally:
                    spare.close()
                traced = trace and iterations % 2 == 1
                settle()
                with tracer.iteration(f"it{iterations}") if traced else nullcontext():
                    t0 = perf_counter()
                    raw = workload.run_once(traced)
                    times[traced].append(perf_counter() - t0)
                outcome = workload.check(raw)
                problems += [f"iteration {iterations}: {p}" for p in outcome.problems]
                if reference is None:
                    reference, reference_raw = outcome, raw
                elif outcome.digest != reference.digest:
                    problems.append(f"iteration {iterations}: results differ from iteration 0")
                failed += outcome.failed
                record_bytes.append(outcome.record_bytes)
                iterations += 1
                last_pass = perf_counter() - pass_start
        problems += workload.final_checks(reference_raw, reference)

        print(f"workload {name}  seed {seed}  trace {int(trace)}  iterations {iterations}")
        print(f"  reference digest {reference.digest}")
        attempted = cls.JOBS * iterations
        run_s, q1, q3 = summary(times[False])
        notes = {"run_s": f"q1={q1:.6g} q3={q3:.6g}"}
        if trace:
            traced_runs = [f"it{i}" for i in range(1, iterations, 2)]
            layer = tracing.layer_metrics(tracer, traced_runs, cls.REMOTE_JOBS)
            metrics = {k: (v, tracing.LAYER_UNITS[k], n) for k, (v, n) in layer.items()}
            rates = workloads.kernel_rates(seed)
            metrics.update({k: (v, "1/s", n) for k, (v, n) in rates.items()})
            for k in rates:
                notes[k] = "direct kernel calls on the noisy_wide circuits"
            traced_s = summary(times[True])[0]
            metrics["cli.record_bytes"] = (summary(record_bytes)[0], "bytes", len(record_bytes))
            metrics["failed_ratio"] = (failed / attempted, "ratio", attempted)
            metrics["trace.run_s"] = (traced_s, "s", len(times[True]))
            metrics["trace.overhead_s"] = (traced_s - run_s, "s", len(times[True]))
            notes["trace.overhead_s"] = f"untraced median {run_s:.6g} s of {len(times[False])}"
            spans_path = OUT / f"spans-{name}-seed{seed}-{os.getpid()}.jsonl"
            tracer.write_spans(spans_path, {"workload": name, "seed": seed, "runs": traced_runs})
            print(f"  spans written to {spans_path.relative_to(ROOT)}")
        else:
            throughput, per_iteration = cls.THROUGHPUT
            metrics = {
                "setup_s": (summary(setup_times)[0], "s", len(setup_times)),
                "run_s": (run_s, "s", len(times[False])),
                throughput: (per_iteration / run_s, "1/s", len(times[False])),
                "peak_threads": (threads.peak, "count", iterations),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
                ),
            }
        report(metrics, notes)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0 if not problems else 1
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, end to end then traced, each in a fresh process."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
            argv += ["--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 or not lines:
                status = 1
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                correct = False
                continue
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return status if correct else 1


def on_sigterm(*_) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qexec" / "__init__.py").is_file():
        print(f"error: no qexec package under {SRC}; run from a qexec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Exit through finally blocks on SIGTERM, so the job service and the
    # temporary run stores are removed even when the run is cut short. A
    # second SIGTERM (a process group signalled as well as the process) is
    # ignored, so that it cannot cut the clean-up short.
    signal.signal(signal.SIGTERM, on_sigterm)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
