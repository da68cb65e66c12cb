"""Declarative command-line surface: experiment files, providers file, run store.

Commands:

* ``qexec backends [--online]``                 list discoverable backends
* ``qexec run <experiment.yaml> [--no-wait]``   execute and persist a run record
* ``qexec status <run_id>``                     per-job states of a stored run
* ``qexec results <run_id> [--merged] [--csv]`` replay stored results

Experiment files are YAML; provider credentials live in a separate providers
file, never in experiment files. Run records are JSON under the run store
(``./qexec-runs`` or ``$QEXEC_HOME``), one append-only directory per run:
re-running never mutates a prior record. ``status`` and ``results`` replay
from disk only and need no providers to be reachable.

Exit codes for ``run``: 0 success, 1 schema error (in the experiment or the
providers file), 2 pre-flight validation failure (nothing submitted, no run
directory) or a merge policy that raised after the run (the record then
holds everything but ``merged.json``), 3 at least one job FAILED.
With ``--no-wait`` the run_id prints immediately and the process stays alive
until the background run finalizes the record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Mapping

import yaml

from .circuit import Circuit, parse_qasm
from .collector import ResultCollector, to_table, tree_to_json
from .errors import ProviderConfigError, QasmError, QExecError
from .executor import ExperimentSpec, QuantumExecutor
from .providers import JobState, ProviderConfig
from .simulator import NoiseSpec

__all__ = ["main"]

logger = logging.getLogger(__name__)

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
    "wait",
    "seed",
    "policy_context",
}


class SchemaError(Exception):
    """Experiment or providers file failed validation."""


# --------------------------------------------------------------------------
# File loading
# --------------------------------------------------------------------------


def _read_yaml(path: Path) -> Any:
    """The file's YAML document, read by libyaml's safe loader when PyYAML
    was built with it, else by the pure-Python one; SchemaError if it cannot."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(path.read_text(encoding="utf-8"), Loader=loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: invalid YAML: {exc}") from exc


def load_experiment_file(path: Path) -> dict[str, Any]:
    """Parse and schema-validate an experiment file; unknown keys are rejected."""
    data = _read_yaml(path)
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
    if isinstance(data["shots"], bool) or not isinstance(data["shots"], int) or data["shots"] < 1:
        raise SchemaError(f"{path}: shots must be a positive integer")
    backends = data["backends"]
    if backends != "all_online" and not isinstance(backends, Mapping):
        raise SchemaError(f"{path}: backends must be a mapping or the literal 'all_online'")
    if isinstance(backends, Mapping):
        for provider_id, names in backends.items():
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise SchemaError(f"{path}: backends[{provider_id!r}] must be a list of names")
    if "split_policy" in data and not isinstance(data["split_policy"], str):
        raise SchemaError(f"{path}: split_policy must be a string")
    for key in ("merge_policy", "name"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise SchemaError(f"{path}: {key} must be a string")
    for key in ("parallel", "wait"):
        if key in data and not isinstance(data[key], bool):
            raise SchemaError(f"{path}: {key} must be a boolean")
    if "seed" in data and (isinstance(data["seed"], bool) or not isinstance(data["seed"], int)):
        raise SchemaError(f"{path}: seed must be an integer")
    if "policy_context" in data and not isinstance(data["policy_context"], Mapping):
        raise SchemaError(f"{path}: policy_context must be a mapping")
    return dict(data)


def load_providers_file(path: Path | None) -> list[ProviderConfig]:
    """Providers file {provider_id: {kind, endpoint?, api_key?, noise?, delay?}}.

    Without a file, the default local pair (ideal + noisy p=0.05) is used.
    """
    if path is None:
        return [
            ProviderConfig(provider_id="local_ideal", kind="local_ideal"),
            ProviderConfig(provider_id="local_noisy", kind="local_noisy", noise=NoiseSpec(0.05)),
        ]
    data = _read_yaml(path)
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
# Run store
# --------------------------------------------------------------------------


def store_root(override: str | None = None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(STORE_ENV_VAR, DEFAULT_STORE))


def _write_json(path: Path, payload) -> None:
    """Compact JSON with sorted keys: without indent, CPython's C encoder writes it."""
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _write_status(run_dir: Path, collector: ResultCollector) -> bool:
    """Write status.json, the bytes that _write_json writes of its {ordinal:
    {provider, backend, state, error}} mapping; whether any job has FAILED.
    Each distinct entry is encoded once, and the ordinals are sorted as the
    strings they are written as, as sort_keys sorts them."""
    encoded: dict[tuple, str] = {}
    items = []
    for ordinal, (state, error) in collector.status().items():
        site = collector.job_site(ordinal)
        text = encoded.get((site, state, error))
        if text is None:
            entry = {"provider": site[0], "backend": site[1], "state": state.value, "error": error}
            text = encoded[site, state, error] = json.dumps(entry, sort_keys=True)
        items.append((str(ordinal), text))
    items.sort()  # the ordinals are distinct, so no two texts are compared
    body = ", ".join([f'"{ordinal}": {text}' for ordinal, text in items])
    (run_dir / "status.json").write_text("{" + body + "}\n", encoding="utf-8")
    return any(state is JobState.FAILED for _, state, _ in encoded)


def _write_initial_record(run_dir: Path, source: Path, collector: ResultCollector) -> None:
    run_dir.mkdir(parents=True)
    (run_dir / "experiment.yaml").write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    (run_dir / "dispatch.json").write_text(collector.dispatch.to_json() + "\n", encoding="utf-8")
    _write_status(run_dir, collector)
    _write_meta(run_dir, source, collector)


def _write_meta(run_dir: Path, source: Path, collector: ResultCollector) -> None:
    """meta.json, written when the record is created and again when it is finalized."""
    _write_json(
        run_dir / "meta.json",
        {
            "run_id": collector.run_id,
            "experiment_file": str(source),
            "merge_policy": collector.merge_policy,
            "started_at": collector.started_at,
            "finished_at": collector.finished_at,
        },
    )


def _finalize_record(run_dir: Path, source: Path, collector: ResultCollector) -> int:
    """Write the final files, merged.json last: a merge that raises leaves the rest."""
    tree = collector.get_results(block=True)
    (run_dir / "results.json").write_text(tree_to_json(tree) + "\n", encoding="utf-8")
    failed = _write_status(run_dir, collector)
    _write_meta(run_dir, source, collector)
    if collector.merge_policy is not None:
        merged, metadata = collector.get_merged_results()
        _write_json(run_dir / "merged.json", {"merged": merged, "metadata": metadata})
    return EXIT_JOB_FAILED if failed else EXIT_OK


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


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
    data = load_experiment_file(source)
    circuits = resolve_circuits(data["circuits"], source.parent)

    executor = QuantumExecutor(providers=load_providers_file(args.providers))
    backends = data["backends"]
    if backends == "all_online":
        backends = {
            provider_id: [d.backend_name for d in descriptors]
            for provider_id, descriptors in executor.get_backends(online_only=True).items()
        }

    spec = ExperimentSpec(
        circuits=circuits,
        shots=data["shots"],
        backends=backends,
        split_policy=data.get("split_policy", "multiplier"),
        merge_policy=data.get("merge_policy"),
        parallel=data.get("parallel", True),
        wait=False,  # waiting handled below so the record exists while in flight
        base_seed=data.get("seed", 0),
        policy_context=dict(data.get("policy_context") or {}),
    )
    collector = executor.run_experiment(spec)

    run_dir = store_root(args.store) / collector.run_id
    _write_initial_record(run_dir, source, collector)
    print(collector.run_id, flush=True)

    # Both modes finalize in this process; --no-wait just reported the run_id
    # immediately while the run progresses in the background.
    exit_code = _finalize_record(run_dir, source, collector)
    effective_wait = data.get("wait", True) and not args.no_wait
    if effective_wait:
        merged_path = run_dir / "merged.json"
        print(f"run {collector.run_id}: {collector.dispatch.total_jobs()} jobs finished")
        if merged_path.exists():
            print(merged_path.read_text(encoding="utf-8"), end="")
    return exit_code


def cmd_status(args) -> int:
    status_path = store_root(args.store) / args.run_id / "status.json"
    if not status_path.exists():
        print(f"unknown run {args.run_id!r}", file=sys.stderr)
        return EXIT_SCHEMA
    statuses = json.loads(status_path.read_text(encoding="utf-8"))
    print(f"{'JOB':<5} {'PROVIDER':<16} {'BACKEND':<24} {'STATE':<8} ERROR")
    for ordinal in sorted(statuses, key=int):
        entry = statuses[ordinal]
        print(
            f"{ordinal:<5} {entry['provider']:<16} {entry['backend']:<24} "
            f"{entry['state']:<8} {entry.get('error') or ''}"
        )
    return EXIT_OK


def cmd_results(args) -> int:
    run_dir = store_root(args.store) / args.run_id
    if not run_dir.exists():
        print(f"unknown run {args.run_id!r}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.merged:
        merged_path = run_dir / "merged.json"
        if not merged_path.exists():
            # A finalized record, one with results.json, has its final meta.json.
            if not (run_dir / "results.json").exists():
                print(f"run {args.run_id} is not finalized yet", file=sys.stderr)
                return EXIT_SCHEMA
            policy = json.loads((run_dir / "meta.json").read_text(encoding="utf-8"))["merge_policy"]
            if policy is None:
                print(f"run {args.run_id} has no merge policy", file=sys.stderr)
            else:
                message = f"merge policy {policy!r} gave no merged output"
                print(f"run {args.run_id}: {message}", file=sys.stderr)
            return EXIT_SCHEMA
        print(merged_path.read_text(encoding="utf-8"), end="")
        return EXIT_OK
    results_path = run_dir / "results.json"
    if not results_path.exists():
        print(f"run {args.run_id} is not finalized yet", file=sys.stderr)
        return EXIT_SCHEMA
    tree = json.loads(results_path.read_text(encoding="utf-8"))
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["provider", "backend", "job", "bitstring", "count"])
        for row in to_table(tree):
            writer.writerow(row)
        print(buffer.getvalue(), end="")
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
    p.add_argument("--no-wait", action="store_true", help="print run_id immediately")
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
