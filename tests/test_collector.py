import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexec import Dispatch, ResultCollector, merge_sum, parse_qasm, to_table, tvd
from qexec.collector import tree_to_json
from qexec.errors import CollectorError, MergeError, ResultTimeoutError
from qexec.providers import JobState, JobStatus

from conftest import BELL_QASM


def two_backend_dispatch(bell):
    dispatch = Dispatch()
    dispatch.add_job("p1", "b1", bell, 10)
    dispatch.add_job("p2", "b1", bell, 10)
    return dispatch


def test_initial_statuses_queued(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    assert all(state is JobState.QUEUED for state, _ in collector.status().values())
    assert not collector.is_terminal()


def test_record_result_builds_tree(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    collector.record_result(0, {"00": 6, "11": 4})
    partial = collector.get_results(block=False)
    assert partial == {"p1": {"b1": [{"00": 6, "11": 4}]}}
    collector.record_result(1, {"00": 10})
    assert collector.is_terminal()
    assert collector.get_results(block=True) == {
        "p1": {"b1": [{"00": 6, "11": 4}]},
        "p2": {"b1": [{"00": 10}]},
    }


def test_monotone_completion(bell):
    dispatch = Dispatch()
    for _ in range(4):
        dispatch.add_job("p", "b", bell, 10)
    collector = ResultCollector(dispatch)

    def leaves():
        tree = collector.get_results(block=False)
        return sum(len(runs) for backends in tree.values() for runs in backends.values())

    seen = [leaves()]
    for ordinal in range(4):
        collector.record_result(ordinal, {"00": 10})
        seen.append(leaves())
    assert seen == sorted(seen)
    assert seen[-1] == 4


def test_nonblocking_terminal_agrees_with_blocking(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    collector.record_result(0, {"00": 10})
    collector.record_failed(1, "boom")
    assert tree_to_json(collector.get_results(block=False)) == tree_to_json(
        collector.get_results(block=True)
    )


def test_blocking_timeout_carries_partial(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    collector.record_result(0, {"00": 10})
    with pytest.raises(ResultTimeoutError) as info:
        collector.get_results(block=True, timeout=0.05)
    assert info.value.partial == {"p1": {"b1": [{"00": 10}]}}


def test_empty_dispatch_terminal_immediately():
    collector = ResultCollector(Dispatch())
    assert collector.is_terminal()
    assert collector.get_results(block=True) == {}
    assert collector.finished_at is not None


def test_failed_jobs_contribute_no_counts(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    collector.record_failed(0, "backend exploded")
    collector.record_result(1, {"00": 10})
    tree = collector.get_results(block=True)
    assert "p1" not in tree
    assert collector.status()[0] == (JobState.FAILED, "backend exploded")


def test_record_status_upgrades_only(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    collector.record_status(0, JobStatus(JobState.RUNNING))
    assert collector.status()[0] == (JobState.RUNNING, None)
    # Terminal states never enter through record_status.
    collector.record_status(0, JobStatus(JobState.DONE))
    assert collector.status()[0] == (JobState.RUNNING, None)
    collector.record_result(0, {"00": 10})
    # Terminal is sticky.
    collector.record_failed(0, "late failure ignored")
    assert collector.status()[0] == (JobState.DONE, None)


def test_merged_sum_over_two_backends(bell):
    collector = ResultCollector(
        two_backend_dispatch(bell), merge_policy="sum", merge_fn=merge_sum
    )
    collector.record_result(0, {"00": 6, "11": 4})
    collector.record_result(1, {"00": 10})
    merged, metadata = collector.get_merged_results()
    assert merged == {"00": 16, "11": 4}
    assert metadata["jobs"] == 2
    assert metadata["failed_jobs"] == []


def test_merged_tvd_matches_direct_oracle(bell):
    from qexec import merge_tvd

    collector = ResultCollector(
        two_backend_dispatch(bell),
        merge_policy="tvd",
        merge_fn=merge_tvd,
        policy_context={"reference": "p1/b1"},
    )
    ref = {"00": 6, "11": 4}
    other = {"00": 3, "11": 7}
    collector.record_result(0, ref)
    collector.record_result(1, other)
    merged, _ = collector.get_merged_results()
    assert merged == {"p2/b1": pytest.approx(tvd(other, ref), abs=1e-12)}


def test_merged_requires_terminal(bell):
    collector = ResultCollector(
        two_backend_dispatch(bell), merge_policy="sum", merge_fn=merge_sum
    )
    with pytest.raises(CollectorError, match="not terminal"):
        collector.get_merged_results()


def test_merged_requires_policy(bell):
    collector = ResultCollector(two_backend_dispatch(bell))
    collector.record_result(0, {"00": 10})
    collector.record_result(1, {"00": 10})
    with pytest.raises(CollectorError, match="no merge policy"):
        collector.get_merged_results()


def test_readers_get_copies_of_the_counts(bell):
    # Editing the counts a job was recorded with, or the counts get_results()
    # returned, leaves the run's own counts as they were; status() returns
    # no counts at all.
    collector = ResultCollector(
        two_backend_dispatch(bell), merge_policy="sum", merge_fn=merge_sum
    )
    recorded = {"00": 6, "11": 4}
    collector.record_result(0, recorded)
    collector.record_result(1, {"00": 10})
    recorded["11"] = 999
    tree = collector.get_results()
    tree["p1"]["b1"][0]["00"] = 999
    assert collector.status() == {0: (JobState.DONE, None), 1: (JobState.DONE, None)}
    assert collector.get_results() == {"p1": {"b1": [{"00": 6, "11": 4}]}, "p2": {"b1": [{"00": 10}]}}
    assert collector.get_merged_results()[0] == {"00": 16, "11": 4}


def test_merged_memoized(bell):
    calls = []

    def counting_merge(results, context):
        calls.append(1)
        return merge_sum(results, context)

    collector = ResultCollector(
        two_backend_dispatch(bell), merge_policy="count", merge_fn=counting_merge
    )
    collector.record_result(0, {"00": 10})
    collector.record_result(1, {"00": 10})
    first = collector.get_merged_results()
    second = collector.get_merged_results()
    assert first == second
    assert len(calls) == 1


def test_merged_failure_reported_with_policy_name(bell):
    def broken(results, context):
        raise RuntimeError("kaput")

    collector = ResultCollector(
        two_backend_dispatch(bell), merge_policy="broken", merge_fn=broken
    )
    collector.record_result(0, {"00": 10})
    collector.record_result(1, {"00": 10})
    with pytest.raises(MergeError, match="'broken'.*kaput"):
        collector.get_merged_results()


def test_merged_metadata_records_failures(bell):
    collector = ResultCollector(
        two_backend_dispatch(bell), merge_policy="sum", merge_fn=merge_sum
    )
    collector.record_failed(0, "device offline")
    collector.record_result(1, {"00": 10})
    merged, metadata = collector.get_merged_results()
    assert merged == {"00": 10}
    assert metadata["failed_jobs"] == [
        {"ordinal": 0, "provider": "p1", "backend": "b1", "error": "device offline"}
    ]


def test_run_state_snapshot(bell):
    # status() holds every job of the run, terminal or not.
    collector = ResultCollector(two_backend_dispatch(bell))
    assert collector.status() == {0: (JobState.QUEUED, None), 1: (JobState.QUEUED, None)}
    collector.record_result(0, {"00": 10})
    assert [state.terminal for state, _ in collector.status().values()] == [True, False]
    collector.record_failed(1, "boom")
    assert collector.status() == {0: (JobState.DONE, None), 1: (JobState.FAILED, "boom")}
    assert collector.is_terminal()


# --------------------------------------------------------------------------
# interleavings and concurrency
# --------------------------------------------------------------------------


@given(
    n_jobs=st.integers(1, 6),
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["queued", "running", "done", "failed"])),
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_record_interleavings_property(n_jobs, ops):
    bell = parse_qasm(BELL_QASM, name="bell")
    dispatch = Dispatch()
    for i in range(n_jobs):
        dispatch.add_job("p", f"b{i % 2}", bell, 10)
    collector = ResultCollector(dispatch)
    first_terminal: dict[int, tuple[JobState, object]] = {}
    running: set[int] = set()
    partials = []
    finished_at = None

    def record(step, ordinal, kind):
        if kind == "queued":
            collector.record_status(ordinal, JobStatus(JobState.QUEUED))
        elif kind == "running":
            collector.record_status(ordinal, JobStatus(JobState.RUNNING))
            running.add(ordinal)
        elif kind == "done":
            collector.record_result(ordinal, {"0": step + 1})
            first_terminal.setdefault(ordinal, (JobState.DONE, {"0": step + 1}))
        else:
            collector.record_failed(ordinal, f"failure {step}")
            first_terminal.setdefault(ordinal, (JobState.FAILED, f"failure {step}"))

    def check():
        all_terminal = len(first_terminal) == n_jobs
        assert collector.is_terminal() is all_terminal
        assert (collector.finished_at is not None) is all_terminal
        for ordinal, (state, error) in collector.status().items():
            if ordinal in first_terminal:
                expected, payload = first_terminal[ordinal]
                assert state is expected
                assert error == (payload if expected is JobState.FAILED else None)
            else:
                expected = JobState.RUNNING if ordinal in running else JobState.QUEUED
                assert (state, error) == (expected, None)
        done = {o for o, (state, _) in first_terminal.items() if state is JobState.DONE}
        partials.append((collector.get_results(block=False), done))

    for step, (index, kind) in enumerate(ops):
        record(step, index % n_jobs, kind)
        check()
        if finished_at is None:
            finished_at = collector.finished_at
    for ordinal in range(n_jobs):
        record(len(ops) + ordinal, ordinal, "done")
        check()
    if finished_at is not None:
        assert collector.finished_at == finished_at  # later records change nothing

    counts = {o: payload for o, (state, payload) in first_terminal.items() if state is JobState.DONE}

    def tree_of(done):
        tree: dict = {}
        for provider_id, backend_name, spec in dispatch.jobs():
            if spec.ordinal in done:
                tree.setdefault(provider_id, {}).setdefault(backend_name, []).append(
                    counts[spec.ordinal]
                )
        return tree

    assert collector.get_results(block=True, timeout=1) == tree_of(counts)
    # Each partial tree is the final tree with the jobs not yet DONE left
    # out, so a prefix of it when jobs finish in dispatch order.
    for partial, done in partials:
        assert partial == tree_of(done)
    assert [job["error"] for job in collector.failed_jobs()] == [
        payload
        for _, (state, payload) in sorted(first_terminal.items())
        if state is JobState.FAILED
    ]


def test_concurrent_records_finish_exactly_once(bell):
    jobs, writers = 200, 8
    dispatch = Dispatch()
    for _ in range(jobs):
        dispatch.add_job("p", "b", bell, 10)
    collector = ResultCollector(dispatch)
    start = threading.Barrier(writers)

    def writer(index):
        start.wait()
        for ordinal in range(jobs):
            collector.record_status(ordinal, JobStatus(JobState.RUNNING))
            if index % 2:
                collector.record_failed(ordinal, f"writer {index}")
            else:
                collector.record_result(ordinal, {"0": 10})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    inconsistent = 0
    try:
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            # finished_at is set exactly while no job is pending, and a
            # terminal job stays terminal: so once finished_at reads set,
            # every job reads terminal, and once every job reads terminal,
            # finished_at reads set. A doubled pending-count update sets
            # finished_at early.
            before = collector.finished_at
            terminal = all(state.terminal for state, _ in collector.status().values())
            after = collector.finished_at
            inconsistent += (before is not None and not terminal) or (terminal and after is None)
        for thread in threads:
            thread.join(timeout=1)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert inconsistent == 0
    # A lost pending-count update leaves the run non-terminal.
    assert collector.wait(timeout=0)
    assert all(state.terminal for state, _ in collector.status().values())


# --------------------------------------------------------------------------
# to_table
# --------------------------------------------------------------------------


def test_to_table_single_job():
    rows = to_table({"p": {"b": [{"1": 1, "0": 3}]}})
    assert rows == [("p", "b", 0, "0", 3), ("p", "b", 0, "1", 1)]


def test_to_table_empty():
    assert to_table({}) == []


def test_to_table_backend_boundary_ordering():
    tree = {
        "p2": {"a": [{"0": 1}]},
        "p1": {"z": [{"1": 2}], "a": [{"0": 5}, {"1": 6}]},
    }
    rows = to_table(tree)
    assert rows == [
        ("p1", "a", 0, "0", 5),
        ("p1", "a", 1, "1", 6),
        ("p1", "z", 0, "1", 2),
        ("p2", "a", 0, "0", 1),
    ]
