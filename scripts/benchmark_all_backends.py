"""Benchmark a reference workload on every reachable backend.

Spins up a throwaway remote service so all four provider kinds take part,
dispatches the same three circuits with the exact same shot count to every
online backend (multiplier split), and prints the per-backend histograms.

Run: python scripts/benchmark_all_backends.py [--shots N]
"""

import argparse
import pathlib
import sys
import time

from qexec import NoiseSpec, ProviderConfig, QuantumExecutor, parse_qasm, to_table
from qexec.server import RemoteServer, ServerConfig

CIRCUIT_DIR = pathlib.Path(__file__).parent / "experiments" / "circuits"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    circuits = [
        parse_qasm(path.read_text(), name=path.stem)
        for path in sorted(CIRCUIT_DIR.glob("*.qasm"))
    ]

    server = RemoteServer(ServerConfig()).start()
    try:
        qe = QuantumExecutor(
            providers=[
                ProviderConfig("local_ideal", "local_ideal"),
                ProviderConfig("local_noisy", "local_noisy", noise=NoiseSpec(0.05)),
                ProviderConfig("mock_device", "mock_delay", delay=0.25),
                ProviderConfig("remote", "remote_http", endpoint=server.endpoint),
            ]
        )
        start = time.monotonic()
        collector = qe.run_experiment(
            circuits=circuits,
            shots=args.shots,
            backends="all_online",
            split_policy="multiplier",
            parallel=True,
            wait=True,
            base_seed=args.seed,
        )
        wall = time.monotonic() - start

        tree = collector.get_results()
        n_targets = len(collector.dispatch.backends())
        print(f"dispatched {len(circuits)} circuits x {n_targets} backends, {args.shots} shots each")
        print(f"finished {collector.dispatch.total_jobs()} jobs in {wall:.2f}s\n")
        print(f"{'PROVIDER':<14} {'BACKEND':<22} {'JOB':<4} {'BITSTRING':<10} COUNT")
        for provider, backend, job, bitstring, count in to_table(tree):
            print(f"{provider:<14} {backend:<22} {job:<4} {bitstring:<10} {count}")
        failed = collector.failed_jobs()
        if failed:
            print(f"\n{len(failed)} job(s) failed:")
            for entry in failed:
                print(f"  {entry['provider']}/{entry['backend']}: {entry['error']}")
        return 1 if failed else 0
    finally:
        server.stop()


if __name__ == "__main__":
    sys.exit(main())
