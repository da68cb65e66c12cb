"""The run record, one append-only directory per run: written and read here only.

Its files, each JSON one compact with sorted keys and a closing newline:
``experiment.yaml`` (the experiment file as given, byte for byte),
``dispatch.json`` (``Dispatch.to_json``), ``status.json`` ({ordinal:
{provider, backend, state, error}}), ``meta.json`` ({run_id, experiment_file,
merge_policy, started_at, finished_at}), ``results.json`` (``tree_to_json`` of
the result tree) and, for a run with a merge policy, ``merged.json``
({merged, metadata}). create() writes the first four while the jobs are in
flight. finalize() writes results.json, then status.json and meta.json
again, and merged.json last: a merge that raises leaves the rest. A record
with results.json is finalized. create() refuses a directory that exists, so no run touches a prior record.
"""

from __future__ import annotations

import json
from pathlib import Path

from .collector import ResultCollector, tree_to_json
from .dispatch import Dispatch
from .providers import JobState

__all__ = ["create", "write_status", "finalize", "read_statuses", "read_tree", "read_merged",
           "read_meta", "read_dispatch"]


def _write_json(path: Path, payload) -> str:
    """Write compact JSON with sorted keys, which CPython's C encoder writes
    when there is no indent; the text written."""
    text = json.dumps(payload, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return text


def create(run_dir: Path, source: Path, experiment: bytes, collector: ResultCollector) -> None:
    run_dir.mkdir(parents=True)
    (run_dir / "experiment.yaml").write_bytes(experiment)
    (run_dir / "dispatch.json").write_text(collector.dispatch.to_json() + "\n", encoding="utf-8")
    write_status(run_dir, collector)
    _write_meta(run_dir, source, collector)


def write_status(run_dir: Path, collector: ResultCollector) -> bool:
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


def finalize(run_dir: Path, source: Path, collector: ResultCollector) -> tuple[bool, str | None]:
    """Wait for the run and write the final files; whether any job has FAILED,
    and the text of merged.json, None for a run with no merge policy."""
    tree = collector.get_results(block=True)
    (run_dir / "results.json").write_text(tree_to_json(tree) + "\n", encoding="utf-8")
    failed = write_status(run_dir, collector)
    _write_meta(run_dir, source, collector)
    if collector.merge_policy is None:
        return failed, None
    merged, metadata = collector.get_merged_results()
    return failed, _write_json(run_dir / "merged.json", {"merged": merged, "metadata": metadata})


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def read_statuses(run_dir: Path) -> dict[int, tuple[str, str, JobState, str | None]] | None:
    """Each job's (provider, backend, state, error), in ordinal order; None
    for a directory that holds no record."""
    text = _read(run_dir / "status.json")
    if text is None:
        return None
    entries = sorted(json.loads(text).items(), key=lambda item: int(item[0]))
    return {int(key): (e["provider"], e["backend"], JobState(e["state"]), e.get("error")) for key, e in entries}


def read_tree(run_dir: Path) -> dict | None:
    """The result tree; None while the record is not finalized."""
    text = _read(run_dir / "results.json")
    return None if text is None else json.loads(text)


def read_merged(run_dir: Path) -> str | None:
    """The text of merged.json; None if the run has no merge policy, is not
    finalized, or its merge raised."""
    return _read(run_dir / "merged.json")


def read_meta(run_dir: Path) -> dict:
    return json.loads((run_dir / "meta.json").read_text(encoding="utf-8"))


def read_dispatch(run_dir: Path) -> Dispatch:
    return Dispatch.from_json((run_dir / "dispatch.json").read_text(encoding="utf-8"))
