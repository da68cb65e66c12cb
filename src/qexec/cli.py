"""Declarative command-line surface: experiment files, providers file, run store.

Commands:

* ``qexec backends [--online]``                 list discoverable backends
* ``qexec run <experiment.yaml>``               execute and persist a run record
* ``qexec status <run_id>``                     per-job states of a stored run
* ``qexec results <run_id> [--merged] [--csv]`` replay stored results

Experiment files are YAML; provider credentials live in a separate providers
file, never in experiment files. This module checks an experiment file's
form: its keys, and its circuits as a list of QASM paths or inline QASM.
Each other value becomes the ExperimentSpec field of its name (``seed`` is
``base_seed``), which checks it: ``backends`` is a mapping of provider to
backend names, or ``all_online``. The run store is ``--store``, else
``$QEXEC_HOME``, else ``./qexec-runs``. This module keeps the arguments, the
loading of those files, the exit codes and the printing: qexec.record writes
each run's record there and reads it back, so ``status`` and ``results``
replay from disk only and need no providers to be reachable.

``run`` prints the run_id once the record exists, while the jobs are in
flight, and a summary once the record is finalized. A reader that goes away,
as ``qexec run ... | head -n 1`` does, ends the printing, not the run. Its
exit codes: 0 success, 1 schema error (in the experiment or the providers
file; the error names the file), 2 pre-flight validation failure (nothing
submitted, no run directory) or a merge policy that raised after the run
(the record then holds everything but the merged output), 3 at least one
job FAILED.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from pathlib import Path
from typing import Any, Mapping

import yaml

from . import record
from .circuit import Circuit, parse_qasm
from .collector import to_table, tree_to_json
from .errors import ExperimentError, ProviderConfigError, QasmError, QExecError
from .executor import ExperimentSpec, QuantumExecutor
from .providers import ProviderConfig
from .simulator import NoiseSpec

__all__ = ["main"]

DEFAULT_STORE = "qexec-runs"
STORE_ENV_VAR = "QEXEC_HOME"

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_PREFLIGHT = 2
EXIT_JOB_FAILED = 3

_EXPERIMENT_KEYS = {
    "name",
    "circuits",
    "shots",
    "backends",
    "split_policy",
    "merge_policy",
    "parallel",
    "seed",
    "policy_context",
}


class SchemaError(Exception):
    """Experiment or providers file failed validation."""


# --------------------------------------------------------------------------
# File loading
# --------------------------------------------------------------------------


def _read_yaml(path: Path) -> tuple[bytes, Any]:
    """The file's bytes, read once, and its YAML document, read by libyaml's
    safe loader when PyYAML was built with it, else by the pure-Python one;
    SchemaError if it cannot."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        raw = path.read_bytes()
        return raw, yaml.load(raw.decode("utf-8"), Loader=loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: invalid YAML: {exc}") from exc


def load_experiment_file(path: Path) -> dict[str, Any]:
    """Parse an experiment file and check its form: a mapping with no unknown
    keys, the required keys, ``circuits`` a non-empty list of strings and
    ``name`` a string or null. ExperimentSpec checks the other values."""
    return _load_experiment(path)[1]


def _load_experiment(path: Path) -> tuple[bytes, dict[str, Any]]:
    """The experiment file's bytes, as given, and its checked fields."""
    raw, data = _read_yaml(path)
    if not isinstance(data, Mapping):
        raise SchemaError(f"{path}: experiment file must be a mapping")

    unknown = set(data) - _EXPERIMENT_KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("circuits", "shots", "backends"):
        if key not in data:
            raise SchemaError(f"{path}: missing required key {key!r}")

    if not isinstance(data["circuits"], list) or not data["circuits"]:
        raise SchemaError(f"{path}: circuits must be a non-empty list")
    if not all(isinstance(c, str) for c in data["circuits"]):
        raise SchemaError(f"{path}: circuits entries must be strings (path or inline QASM)")
    if data.get("name") is not None and not isinstance(data["name"], str):
        raise SchemaError(f"{path}: name must be a string")
    return raw, dict(data)


def load_providers_file(path: Path | None) -> list[ProviderConfig]:
    """Providers file {provider_id: {kind, endpoint?, api_key?, noise?, delay?}}.

    Without a file, the default local pair (ideal + noisy p=0.05) is used.
    """
    if path is None:
        return [
            ProviderConfig(provider_id="local_ideal", kind="local_ideal"),
            ProviderConfig(provider_id="local_noisy", kind="local_noisy", noise=NoiseSpec(0.05)),
        ]
    _, data = _read_yaml(path)
    if data is None:
        return []
    if not isinstance(data, Mapping):
        raise SchemaError(f"{path}: providers file must be a mapping")
    configs = []
    for provider_id, entry in data.items():
        if not isinstance(entry, Mapping):
            raise SchemaError(f"{path}: provider {provider_id!r} must map to settings")
        try:
            configs.append(ProviderConfig.from_dict(str(provider_id), entry))
        except (QExecError, ValueError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    return configs


def resolve_circuits(entries: list[str], base_dir: Path) -> list[Circuit]:
    """Each entry is inline QASM (contains 'OPENQASM') or a path relative to the file,
    named by its stem. A QasmError names its file, or ``circuit{i}`` for inline QASM,
    before its message."""
    circuits = []
    for i, entry in enumerate(entries):
        inline = "OPENQASM" in entry
        if inline:
            text, name = entry, f"circuit{i}"
        else:
            text, name = _read_circuit(entry, base_dir), _stem(entry)
        try:
            circuits.append(parse_qasm(text, name=name))
        except QasmError as exc:
            source = name if inline else _source(entry, base_dir)
            raise QasmError(f"{source}: {exc.message}", exc.line, exc.column) from exc
    return circuits


def _read_circuit(entry: str, base_dir: Path) -> str:
    """The text of the circuit file ``entry``. It is decoded without text mode's
    newline translation: the parser reads "\\r\\n" and a lone "\\r" as one line
    break each. Only when its joined name cannot be read is it read again as the
    Path that messages name, whose normal form may still read (``c.qasm/``) and
    else fails with the message it gives."""
    try:
        with open(os.path.join(base_dir, entry), "rb", buffering=0) as file:
            return file.readall().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        source = _source(entry, base_dir)
        try:
            return source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read circuit file {source}: {exc}") from exc


def _source(entry: str, base_dir: Path) -> Path:
    """The circuit file ``entry`` as messages name it."""
    source = Path(entry)
    return source if source.is_absolute() else base_dir / source


def _stem(entry: str) -> str:
    """``Path(entry).stem``, without building a Path for a name of the form ``stem.suffix``."""
    name = os.path.basename(entry)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else Path(entry).stem


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def store_root(override: str | None = None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(STORE_ENV_VAR, DEFAULT_STORE))


def cmd_backends(args) -> int:
    executor = QuantumExecutor(providers=load_providers_file(args.providers))
    listing = executor.get_backends(online_only=args.online)
    print(f"{'PROVIDER':<16} {'BACKEND':<24} {'ONLINE':<7} {'MAX_QUBITS':<11} IDEAL")
    for provider_id in sorted(listing):
        for d in listing[provider_id]:
            print(
                f"{d.provider_id:<16} {d.backend_name:<24} "
                f"{str(d.online).lower():<7} {d.max_qubits:<11} {str(d.is_ideal_simulator).lower()}"
            )
    return EXIT_OK


def cmd_run(args) -> int:
    source = Path(args.experiment)
    raw, data = _load_experiment(source)
    fields = {("base_seed" if key == "seed" else key): value for key, value in data.items() if key != "name"}
    fields["circuits"] = resolve_circuits(data["circuits"], source.parent)
    try:
        # Not waiting here lets the record exist while the run is in flight.
        spec = ExperimentSpec(wait=False, **fields)
    except ExperimentError as exc:
        raise SchemaError(f"{source}: {exc}") from exc

    executor = QuantumExecutor(providers=load_providers_file(args.providers))
    collector = executor.run_experiment(spec)

    run_dir = store_root(args.store) / collector.run_id
    record.create(run_dir, source, raw, collector)
    _print_out(collector.run_id + "\n")

    failed, merged = record.finalize(run_dir, source, collector)
    summary = f"run {collector.run_id}: {collector.dispatch.total_jobs()} jobs finished\n"
    _print_out(summary + (merged or ""))
    return EXIT_JOB_FAILED if failed else EXIT_OK


def _print_out(text: str) -> None:
    """Write text to stdout and flush it. A reader that has gone away ends
    the printing, not the run: stdout is pointed at os.devnull, so later
    output and the flush at exit are dropped instead of raising."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        stdout = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)


def cmd_status(args) -> int:
    statuses = record.read_statuses(store_root(args.store) / args.run_id)
    if statuses is None:
        print(f"unknown run {args.run_id!r}", file=sys.stderr)
        return EXIT_SCHEMA
    print(f"{'JOB':<5} {'PROVIDER':<16} {'BACKEND':<24} {'STATE':<8} ERROR")
    for ordinal, (provider, backend, state, error) in statuses.items():
        print(f"{ordinal:<5} {provider:<16} {backend:<24} {state.value:<8} {error or ''}")
    return EXIT_OK


def cmd_results(args) -> int:
    run_dir = store_root(args.store) / args.run_id
    if not run_dir.exists():
        print(f"unknown run {args.run_id!r}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.merged and (merged := record.read_merged(run_dir)) is not None:
        print(merged, end="")
        return EXIT_OK
    tree = record.read_tree(run_dir)
    if tree is None:
        print(f"run {args.run_id} is not finalized yet", file=sys.stderr)
        return EXIT_SCHEMA
    if args.merged:
        # A finalized record has its final meta.
        policy = record.read_meta(run_dir)["merge_policy"]
        if policy is None:
            print(f"run {args.run_id} has no merge policy", file=sys.stderr)
        else:
            print(f"run {args.run_id}: merge policy {policy!r} gave no merged output", file=sys.stderr)
        return EXIT_SCHEMA
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["provider", "backend", "job", "bitstring", "count"])
        writer.writerows(to_table(tree))
    else:
        print(tree_to_json(tree))
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qexec", description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", default=None, help=f"run store root (default ${STORE_ENV_VAR} or ./{DEFAULT_STORE})")
    parser.add_argument("--providers", type=Path, default=None, help="providers YAML file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backends", help="list discoverable backends")
    p.add_argument("--online", action="store_true", help="only online backends")
    p.set_defaults(handler=cmd_backends)

    p = sub.add_parser("run", help="run an experiment file")
    p.add_argument("experiment", help="experiment YAML file")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("status", help="per-job states of a stored run")
    p.add_argument("run_id")
    p.set_defaults(handler=cmd_status)

    p = sub.add_parser("results", help="results of a stored run")
    p.add_argument("run_id")
    p.add_argument("--merged", action="store_true", help="print the merged output")
    p.add_argument("--csv", action="store_true", help="emit the canonical result table as CSV")
    p.set_defaults(handler=cmd_results)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG)
    try:
        return args.handler(args)
    except (SchemaError, QasmError, ProviderConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except QExecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PREFLIGHT


if __name__ == "__main__":
    raise SystemExit(main())
