import threading
import time
from urllib.parse import urlsplit

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qexec.providers
import qexec.server
from qexec import (
    Dispatch,
    ExperimentSpec,
    NoiseSpec,
    ProviderConfig,
    QuantumExecutor,
    ResultCollector,
    VirtualProvider,
    merge_sum,
    parse_qasm,
    tree_to_json,
)
from qexec.errors import (
    DispatchValidationError,
    DuplicatePolicyError,
    ExperimentError,
    PolicyError,
    ProviderError,
    UnknownBackendError,
    UnknownPolicyError,
)
from qexec.providers import BackendDescriptor, JobState, JobStatus

from conftest import BELL_QASM, count_kernels_in_flight, local_provider_configs, serve_listing

LOCAL_PAIR = {"local_ideal": ["statevector"], "local_noisy": ["noisy_statevector"]}


class _BrokenAdapter:
    """Quacks like a provider adapter; every job fails at execution."""

    def __init__(self, provider_id="flaky", fail_on_submit=False):
        self.provider_id = provider_id
        self.fail_on_submit = fail_on_submit
        self._n = 0

    def backends(self):
        from qexec.providers import BackendDescriptor

        return [
            BackendDescriptor(
                provider_id=self.provider_id,
                backend_name="device",
                online=True,
                max_qubits=20,
                is_ideal_simulator=False,
            )
        ]

    def submit(self, backend_name, jobs):
        if self.fail_on_submit:
            raise ProviderError("submission refused")
        job_ids = [f"{self.provider_id}-{self._n + k}" for k in range(1, len(jobs) + 1)]
        self._n += len(jobs)
        return job_ids

    def status(self, job_ids):
        return [JobStatus(JobState.FAILED, "device melted")] * len(job_ids)

    def wait(self, interval):
        time.sleep(interval)


class _StatusRaisingAdapter(_BrokenAdapter):
    """Every job is DONE with all shots on "00" at the first read, except the
    second job, which is still QUEUED; every later read raises."""

    reads = 0

    def status(self, job_ids):
        self.reads += 1
        if self.reads > 1:
            raise ProviderError("status check exploded")
        return [
            JobStatus(JobState.QUEUED)
            if job_id == f"{self.provider_id}-2"
            else JobStatus(JobState.DONE, counts={"00": 8})
            for job_id in job_ids
        ]


class _CountlessAdapter(_BrokenAdapter):
    """Every job reports DONE but carries no counts."""

    def status(self, job_ids):
        return [JobStatus(JobState.DONE)] * len(job_ids)


class _StuckAdapter(_BrokenAdapter):
    """Every job stays QUEUED, and waiting for it raises."""

    def status(self, job_ids):
        return [JobStatus(JobState.QUEUED)] * len(job_ids)

    def wait(self, interval):
        raise ProviderError("clock stopped")


class _MalformedStatusAdapter(_BrokenAdapter):
    """Every status it reports is a string, not a JobStatus."""

    def status(self, job_ids):
        return ["DONE"] * len(job_ids)


@pytest.fixture
def submit_calls(monkeypatch):
    """(provider, backend, job) for every job submitted in the test."""
    calls = []
    original = VirtualProvider.submit_batch

    def counting_submit(self, provider_id, backend_name, jobs):
        calls.extend((provider_id, backend_name, job) for job in jobs)
        return original(self, provider_id, backend_name, jobs)

    monkeypatch.setattr(VirtualProvider, "submit_batch", counting_submit)
    return calls


def executor_with_broken(broken: _BrokenAdapter, local_executor) -> QuantumExecutor:
    local_executor.virtual_provider._adapters[broken.provider_id] = broken
    return local_executor


# --------------------------------------------------------------------------
# run_dispatch
# --------------------------------------------------------------------------


def test_run_dispatch_single_job_wait(local_executor, bell):
    dispatch = Dispatch().add_job("local_ideal", "statevector", bell, 128)
    collector = local_executor.run_dispatch(dispatch, wait=True)
    assert collector.is_terminal()
    tree = collector.get_results(block=False)
    assert sum(tree["local_ideal"]["statevector"][0].values()) == 128


def test_run_dispatch_parallel_mock_delay_wall_time(bell):
    executor = QuantumExecutor(
        providers=[ProviderConfig("mock", "mock_delay", delay=0.5)]
    )
    dispatch = Dispatch()
    for _ in range(6):
        dispatch.add_job("mock", "delayed_statevector", bell, 32)
    start = time.monotonic()
    collector = executor.run_dispatch(dispatch, parallel=True, wait=True)
    wall = time.monotonic() - start
    assert collector.is_terminal()
    assert len(collector.get_results()["mock"]["delayed_statevector"]) == 6
    assert wall < 1.5  # ~one delay, generously bounded at 3x


def test_run_dispatch_preflight_unknown_backend(local_executor, bell, submit_calls):
    dispatch = Dispatch().add_job("ghost", "nowhere", bell, 10)
    with pytest.raises(DispatchValidationError) as info:
        local_executor.run_dispatch(dispatch)
    assert any("unknown backend" in v for v in info.value.violations)
    assert submit_calls == []  # nothing submitted


def test_submit_counter_sees_submissions(local_executor, bell, submit_calls):
    local_executor.run_dispatch(Dispatch().add_job("local_ideal", "statevector", bell, 8))
    assert len(submit_calls) == 1


def test_run_dispatch_empty_registry(bell):
    executor = QuantumExecutor()
    dispatch = Dispatch().add_job("p", "b", bell, 10)
    with pytest.raises(ProviderError, match="no providers"):
        executor.run_dispatch(dispatch)


def test_run_dispatch_empty_dispatch(local_executor):
    collector = local_executor.run_dispatch(Dispatch(), wait=True)
    assert collector.is_terminal()
    assert collector.get_results() == {}


def test_run_dispatch_wait_false_progresses_in_background(bell):
    executor = QuantumExecutor(providers=[ProviderConfig("mock", "mock_delay", delay=0.3)])
    dispatch = Dispatch().add_job("mock", "delayed_statevector", bell, 16)
    collector = executor.run_dispatch(dispatch, wait=False)
    assert not collector.is_terminal()
    assert collector.get_results(block=False) == {}
    assert collector.wait(timeout=3)
    assert len(collector.get_results(block=False)["mock"]["delayed_statevector"]) == 1


# --------------------------------------------------------------------------
# the driver: waiting for jobs
# --------------------------------------------------------------------------


def test_lane_polls_jobs_in_order_not_in_rounds(bell, monkeypatch):
    # Each poll reads every pending job of the backend in one call, so the 20
    # jobs of one delay take about ten reads, not one read per job per poll.
    calls = []
    original = VirtualProvider.status_batch

    def counting_status(self, provider_id, job_ids):
        calls.append(list(job_ids))
        return original(self, provider_id, job_ids)

    monkeypatch.setattr(VirtualProvider, "status_batch", counting_status)
    executor = QuantumExecutor(providers=[ProviderConfig("mock", "mock_delay", delay=0.1)])
    dispatch = Dispatch()
    for _ in range(20):
        dispatch.add_job("mock", "delayed_statevector", bell, 16)
    collector = executor.run_dispatch(dispatch, wait=True)
    assert collector.failed_jobs() == []
    assert len(collector.get_results()["mock"]["delayed_statevector"]) == 20
    assert len(calls[0]) == 20
    assert all(set(later) <= set(earlier) for earlier, later in zip(calls, calls[1:]))
    assert len(calls) <= 20


def test_in_process_lane_waits_for_its_jobs_instead_of_polling(bell, monkeypatch):
    # 200 jobs of about 1 ms each: a driver that sleep-polls every few
    # milliseconds finds a job newly done at each poll and reads them more
    # than 100 times; a driver that waits on the runner's table wakes when
    # its last job ends, or every MAX_WAIT (50 ms) until then.
    calls = []
    original_status = VirtualProvider.status_batch
    original_kernel = qexec.providers.sample_batch

    def counting_status(self, provider_id, job_ids):
        calls.append(len(job_ids))
        return original_status(self, provider_id, job_ids)

    def slow_kernel(jobs, *args, **kwargs):
        time.sleep(0.001 * len(jobs))
        return original_kernel(jobs, *args, **kwargs)

    monkeypatch.setattr(VirtualProvider, "status_batch", counting_status)
    monkeypatch.setattr(qexec.providers, "sample_batch", slow_kernel)
    executor = QuantumExecutor(providers=[ProviderConfig("local_ideal", "local_ideal")])
    dispatch = Dispatch()
    for _ in range(200):
        dispatch.add_job("local_ideal", "statevector", bell, 16)
    collector = executor.run_dispatch(dispatch, wait=True)
    assert collector.failed_jobs() == []
    assert len(collector.get_results()["local_ideal"]["statevector"]) == 200
    assert calls[0] == 200
    assert len(calls) <= 30, calls


def test_lane_that_cannot_wait_fails_its_pending_jobs(local_executor, bell):
    # A fault while waiting ends that backend's pending jobs with its message
    # instead of leaving the run pending for ever.
    executor = executor_with_broken(_StuckAdapter(), local_executor)
    dispatch = Dispatch().add_job("flaky", "device", bell, 8).add_job("local_ideal", "statevector", bell, 8)
    collector = executor.run_dispatch(dispatch, wait=False)
    assert collector.wait(timeout=5)
    assert [job["error"] for job in collector.failed_jobs()] == ["clock stopped"]
    assert sum(collector.get_results()["local_ideal"]["statevector"][0].values()) == 8


class _TwoBackendsAdapter(_BrokenAdapter):
    """Hosts backends d0 and d1."""

    def backends(self):
        return [BackendDescriptor(self.provider_id, name, True, 20, False) for name in ("d0", "d1")]


class _TwoBackendsWaitRaisingOnce(_TwoBackendsAdapter):
    """Its jobs stay QUEUED until its first wait, which raises; from then on
    every job it is read for is DONE."""

    waited = False

    def status(self, job_ids):
        if self.waited:
            return [JobStatus(JobState.DONE, counts={"00": 8})] * len(job_ids)
        return [JobStatus(JobState.QUEUED)] * len(job_ids)

    def wait(self, interval):
        if not self.waited:
            self.waited = True
            raise ProviderError("clock stopped")


def test_a_wait_that_raises_fails_every_pending_job_of_its_provider_once(
    local_executor, bell, monkeypatch
):
    # The wait was on the provider, so none of its pending jobs, on either
    # backend, can be trusted to end; the other provider's jobs run on.
    executor = executor_with_broken(_TwoBackendsWaitRaisingOnce(), local_executor)
    records = []
    original = ResultCollector.record_failed

    def counting_record_failed(collector, ordinal, message):
        records.append(ordinal)
        original(collector, ordinal, message)

    monkeypatch.setattr(ResultCollector, "record_failed", counting_record_failed)
    dispatch = Dispatch()
    for backend_name in ("d0", "d0", "d1", "d1"):
        dispatch.add_job("flaky", backend_name, bell, 8)
    dispatch.add_job("local_ideal", "statevector", bell, 8).add_job("local_ideal", "statevector", bell, 8)
    collector = executor.run_dispatch(dispatch, wait=False)
    assert collector.wait(timeout=5), "the run never ended"
    assert sorted(records) == [0, 1, 2, 3]
    assert [(job["ordinal"], job["error"]) for job in collector.failed_jobs()] == [
        (ordinal, "clock stopped") for ordinal in range(4)
    ]
    assert [sum(c.values()) for c in collector.get_results()["local_ideal"]["statevector"]] == [8, 8]


class _TwoBackendsMisreadingOne(_TwoBackendsAdapter):
    """Every job is DONE at its first read, except that the second status of
    each read is a string, not a JobStatus."""

    def status(self, job_ids):
        statuses = [JobStatus(JobState.DONE, counts={"00": 8})] * len(job_ids)
        return [statuses[0], "DONE", *statuses[2:]][: len(job_ids)]


def test_a_malformed_status_fails_every_job_its_read_had_not_recorded(local_executor, bell):
    # The read is one call for the provider's jobs on both backends: the job
    # before the malformed entry is recorded DONE, and every job from it on
    # fails once with the fault's message.
    executor = executor_with_broken(_TwoBackendsMisreadingOne(), local_executor)
    dispatch = Dispatch()
    for backend_name in ("d0", "d0", "d1", "d1"):
        dispatch.add_job("flaky", backend_name, bell, 8)
    collector = executor.run_dispatch(dispatch, wait=False)
    assert collector.wait(timeout=5), "the run never ended"
    assert collector.get_results()["flaky"] == {"d0": [{"00": 8}]}
    failed = collector.failed_jobs()
    assert [job["ordinal"] for job in failed] == [1, 2, 3]
    assert all("has no attribute 'state'" in job["error"] for job in failed)


@pytest.mark.parametrize("parallel", [True, False], ids=["lane-per-backend", "one-lane"])
def test_backend_fault_fails_its_jobs_instead_of_hanging_the_run(local_executor, bell, parallel):
    # A fault in reading a poll, here a status without .state, fails that
    # backend's jobs once. The other backend's job is untouched, also when
    # it is submitted only after the faulty backend has ended.
    executor = executor_with_broken(_MalformedStatusAdapter(), local_executor)
    dispatch = Dispatch().add_job("flaky", "device", bell, 8).add_job("flaky", "device", bell, 8)
    dispatch.add_job("local_ideal", "statevector", bell, 8)
    assert [p for p, _ in dispatch.backends()] == ["flaky", "local_ideal"]
    collector = executor.run_dispatch(dispatch, wait=False, parallel=parallel)
    assert collector.wait(timeout=5), "the run never became terminal"
    failed = collector.failed_jobs()
    assert [job["ordinal"] for job in failed] == [0, 1]
    assert all("has no attribute 'state'" in job["error"] for job in failed)
    assert sum(collector.get_results()["local_ideal"]["statevector"][0].values()) == 8


def test_lane_records_running_status(local_executor, bell, monkeypatch):
    release = threading.Event()
    original = qexec.providers.sample_batch

    def blocked_kernel(*args, **kwargs):
        release.wait(10)
        return original(*args, **kwargs)

    monkeypatch.setattr(qexec.providers, "sample_batch", blocked_kernel)
    dispatch = Dispatch().add_job("local_ideal", "statevector", bell, 32)
    try:
        collector = local_executor.run_dispatch(dispatch, wait=False)
        deadline = time.monotonic() + 5
        while collector.status()[0][0] is not JobState.RUNNING:
            assert time.monotonic() < deadline, "job never showed RUNNING"
            time.sleep(0.005)
    finally:
        release.set()
    assert collector.wait(timeout=5)
    assert sum(collector.get_results()["local_ideal"]["statevector"][0].values()) == 32


def test_lane_status_error_fails_only_that_job(local_executor, bell):
    executor = executor_with_broken(_StatusRaisingAdapter(), local_executor)
    dispatch = Dispatch()
    for _ in range(3):
        dispatch.add_job("flaky", "device", bell, 8)
    collector = executor.run_dispatch(dispatch, wait=True)
    assert collector.status() == {
        0: (JobState.DONE, None),
        1: (JobState.FAILED, "status check exploded"),
        2: (JobState.DONE, None),
    }
    assert collector.get_results()["flaky"]["device"] == [{"00": 8}, {"00": 8}]


def test_done_without_counts_fails_the_job_with_a_reason(local_executor, bell):
    executor = executor_with_broken(_CountlessAdapter(), local_executor)
    collector = executor.run_dispatch(Dispatch().add_job("flaky", "device", bell, 8), wait=True)
    assert collector.failed_jobs() == [
        {
            "ordinal": 0,
            "provider": "flaky",
            "backend": "device",
            "error": "adapter reported DONE without counts",
        }
    ]


class _MiscountingAdapter(_BrokenAdapter):
    """Reads ``extra`` more statuses than it is asked for, or fewer if
    negative, each DONE; with ``extra`` set to 0 it reads them all."""

    def __init__(self, extra):
        super().__init__()
        self.extra = extra

    def status(self, job_ids):
        return [JobStatus(JobState.DONE, counts={"00": 8})] * max(0, len(job_ids) + self.extra)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_status_list_of_the_wrong_length_fails_its_jobs_once(local_executor, bell, extra):
    # A short list would leave the jobs it missed pending for ever, and a long
    # one is matched to the ids by guesswork: either fails the jobs it was read
    # for, with the provider and both lengths.
    adapter = _MiscountingAdapter(extra)
    executor = executor_with_broken(adapter, local_executor)
    try:
        collector = executor.run_dispatch(Dispatch().add_job("flaky", "device", bell, 8), wait=False)
        assert collector.wait(5), "the run never ended"
    finally:
        adapter.extra = 0  # a driver that still polls the job reads it and ends
    error = f"provider 'flaky' read {1 + extra} statuses, not 1"
    assert collector.failed_jobs() == [
        {"ordinal": 0, "provider": "flaky", "backend": "device", "error": error}
    ]


class _MisissuingAdapter(_BrokenAdapter):
    """Issues ``extra`` more job ids than it is given jobs, or fewer if
    negative; each job it issued is DONE."""

    def __init__(self, extra):
        super().__init__()
        self.extra = extra

    def submit(self, backend_name, jobs):
        return super().submit(backend_name, [*jobs, *jobs][: max(0, len(jobs) + self.extra)])

    def status(self, job_ids):
        return [JobStatus(JobState.DONE, counts={"00": 8})] * len(job_ids)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_an_id_list_of_the_wrong_length_fails_each_job_with_both_lengths(local_executor, bell, extra):
    # No id of such a list can be matched to its job: a short one once failed
    # the jobs with an empty message, and a long one ran them on guesswork.
    executor = executor_with_broken(_MisissuingAdapter(extra), local_executor)
    dispatch = Dispatch().add_job("flaky", "device", bell, 8).add_job("flaky", "device", bell, 8)
    collector = executor.run_dispatch(dispatch, wait=False)
    assert collector.wait(5), "the run never ended"
    error = f"provider 'flaky' issued {2 + extra} job ids, not 2"
    assert collector.failed_jobs() == [
        {"ordinal": ordinal, "provider": "flaky", "backend": "device", "error": error}
        for ordinal in (0, 1)
    ]


# --------------------------------------------------------------------------
# the driver against scripted adapters
# --------------------------------------------------------------------------

# A job's script: the status it reads at each poll, the last one from then
# on. The non-terminal states repeat and go backwards as they please.
_SCRIPTS = st.tuples(
    st.lists(st.sampled_from([JobState.QUEUED, JobState.RUNNING]).map(JobStatus), max_size=4),
    st.sampled_from(
        [
            JobStatus(JobState.DONE, counts={"00": 8}),
            JobStatus(JobState.DONE, counts={"11": 8}),
            JobStatus(JobState.DONE),
            JobStatus(JobState.FAILED, "device melted"),
            JobStatus(JobState.FAILED),
        ]
    ),
).map(lambda script: [*script[0], script[1]])

_PROVIDERS = st.lists(
    st.fixed_dictionaries(
        {
            # per backend: its jobs' scripts, and whether its submit raises
            "backends": st.lists(
                st.tuples(st.lists(_SCRIPTS, max_size=5), st.booleans()), min_size=1, max_size=3
            ),
            "status_fault": st.sampled_from([None, "raise", "short", "long", "none", "string"]),
            "wait": st.sampled_from(["return", "sleep", "raise"]),
            "fault_at": st.integers(0, 3),  # the first status or wait call that faults
        }
    ),
    min_size=1,
    max_size=3,
)


class _ScriptedAdapter:
    """Plays a drawn plan: each job's script, looked up by its seed (the run's
    base seed is 0, so a job's seed is its ordinal), and the faults of its
    submit, status and wait calls, each status or wait call faulting from
    the plan's ``fault_at`` on. Once ``mended`` it plays no fault, so a
    driver that still polls it ends."""

    def __init__(self, provider_id, plan, scripts, events):
        self.provider_id, self.plan, self.scripts, self.events = provider_id, plan, scripts, events
        self.mended = self.faulted = False
        self.misread = set()  # the ordinals of every job a whole read failed for
        self._polls = {}  # job id -> [ordinal, polls so far]
        self._status_calls = self._wait_calls = 0

    def backends(self):
        return [
            BackendDescriptor(self.provider_id, f"b{k}", True, 20, False)
            for k in range(len(self.plan["backends"]))
        ]

    def submit(self, backend_name, jobs):
        ordinals = [seed for _, _, seed in jobs]
        self.events.append(("submit", ordinals))
        if self.plan["backends"][int(backend_name[1:])][1] and not self.mended:
            raise ProviderError("submission refused")
        job_ids = [f"{self.provider_id}-{len(self._polls) + k}" for k in range(len(jobs))]
        self._polls.update((job_id, [ordinal, 0]) for job_id, ordinal in zip(job_ids, ordinals))
        return job_ids

    def status(self, job_ids):
        fault = None if self.mended else self._fault("status", self._status_calls)
        self._status_calls += 1
        if fault in ("raise", "short", "long", "none"):
            self.misread.update(self._polls[job_id][0] for job_id in job_ids)
        if fault == "raise":
            raise ProviderError("status check exploded")
        statuses = []
        for job_id in job_ids:
            ordinal, polls = self._polls[job_id]
            script = self.scripts[ordinal]
            statuses.append(script[min(polls, len(script) - 1)])
            self._polls[job_id][1] += 1
        if fault == "short":
            return statuses[:-1]
        if fault == "long":
            return statuses + statuses[:1]
        if fault in ("none", "string"):
            statuses[0] = None if fault == "none" else "DONE"
        return statuses

    def wait(self, interval):
        fault = None if self.mended else self._fault("wait", self._wait_calls)
        self._wait_calls += 1
        if fault == "raise":
            raise ProviderError("clock stopped")
        if self.plan["wait"] == "sleep":
            time.sleep(min(interval, 0.001))

    def _fault(self, call, index):
        fault = self.plan["status_fault"] if call == "status" else self.plan["wait"]
        if fault not in (None, "return", "sleep") and index >= self.plan["fault_at"]:
            self.faulted = True
            return fault
        return None


def _expected(script) -> tuple[JobState, str | None]:
    """The state and error message a job's script should end the run with."""
    last = script[-1]
    if last.state is JobState.FAILED:
        return JobState.FAILED, last.error_message or "job failed"
    if last.counts is None:
        return JobState.FAILED, "adapter reported DONE without counts"
    return JobState.DONE, None


@given(plans=_PROVIDERS, parallel=st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_driver_ends_every_scripted_run_with_one_record_per_job(plans, parallel):
    circuit = parse_qasm(BELL_QASM, name="bell")
    events = []
    dispatch = Dispatch()
    for p, plan in enumerate(plans):
        for b, (scripts, _) in enumerate(plan["backends"]):
            for _ in scripts:
                dispatch.add_job(f"p{p}", f"b{b}", circuit, 8)
    scripts = {}
    for provider_id, backend_name in dispatch.backends():
        drawn = plans[int(provider_id[1:])]["backends"][int(backend_name[1:])][0]
        specs = dispatch.jobs_for(provider_id, backend_name)
        scripts.update((spec.ordinal, script) for spec, script in zip(specs, drawn))
    adapters = [_ScriptedAdapter(f"p{p}", plan, scripts, events) for p, plan in enumerate(plans)]
    executor = QuantumExecutor()
    for adapter in adapters:
        executor_with_broken(adapter, executor)

    original = ResultCollector.record_statuses

    def record_statuses(collector, updates):
        updates = list(updates)
        events.extend(("terminal", ordinal) for ordinal, status in updates if status.state.terminal)
        original(collector, updates)

    before = set(threading.enumerate())
    ResultCollector.record_statuses = record_statuses
    try:
        collector = executor.run_dispatch(dispatch, parallel=parallel, wait=False)
        ended = collector.wait(5)
    finally:
        for adapter in adapters:
            adapter.mended = True
        for thread in set(threading.enumerate()) - before:
            thread.join(5)
        ResultCollector.record_statuses = original
    assert ended, "the run never ended"
    assert threading.active_count() == len(before)

    terminal = [ordinal for kind, ordinal in events if kind == "terminal"]
    assert sorted(terminal) == sorted(scripts)  # one terminal record each
    submitted = [o for kind, ordinals in events if kind == "submit" for o in ordinals]
    assert sorted(submitted) == sorted(scripts)  # each job once

    status, tree = collector.status(), collector.get_results()
    for adapter in adapters:
        # A read that raised, read the wrong number of statuses or a None
        # fails every job it was asked about.
        assert all(status[o][0] is JobState.FAILED for o in adapter.misread)
    for p, (plan, adapter) in enumerate(zip(plans, adapters)):
        for b, (backend_scripts, submit_raises) in enumerate(plan["backends"]):
            if adapter.faulted or submit_raises or not backend_scripts:
                continue
            ordinals = [spec.ordinal for spec in dispatch.jobs_for(f"p{p}", f"b{b}")]
            assert [status[o] for o in ordinals] == [_expected(scripts[o]) for o in ordinals]
            done = [scripts[o][-1].counts for o in ordinals if _expected(scripts[o])[0] is JobState.DONE]
            assert tree.get(f"p{p}", {}).get(f"b{b}", []) == done

    if not parallel:
        # Each backend is submitted once every job submitted before it has
        # had its terminal record.
        for index, event in enumerate(events):
            if event[0] == "submit":
                earlier = {o for kind, ordinals in events[:index] if kind == "submit" for o in ordinals}
                recorded = {o for kind, o in events[:index] if kind == "terminal"}
                assert earlier <= recorded


# --------------------------------------------------------------------------
# which backends overlap
# --------------------------------------------------------------------------


def test_in_process_backends_run_one_at_a_time(bell, monkeypatch):
    # The three in-process backends are submitted together, but their
    # kernels all run on the one kernel worker: one kernel call at a time.
    in_flight = count_kernels_in_flight(monkeypatch)
    targets = [("ideal_a", "statevector"), ("ideal_b", "statevector"), ("noisy", "noisy_statevector")]
    executor = QuantumExecutor(
        providers=[
            ProviderConfig("ideal_a", "local_ideal"),
            ProviderConfig("ideal_b", "local_ideal"),
            ProviderConfig("noisy", "local_noisy", noise=NoiseSpec(0.05)),
        ]
    )
    dispatch = Dispatch()
    for provider_id, backend_name in targets:
        for _ in range(10):
            dispatch.add_job(provider_id, backend_name, bell, 16)
    collector = executor.run_dispatch(dispatch, parallel=True, wait=True)
    assert collector.failed_jobs() == []
    assert in_flight[1] == 1


def test_waiting_backends_keep_lanes_of_their_own(bell):
    # Each mock_delay backend is submitted at once and has a worker of its own
    # that waits on its clock, so the two overlap and the run takes about one
    # delay, not two.
    executor = QuantumExecutor(
        providers=[
            ProviderConfig("mock_a", "mock_delay", delay=0.4),
            ProviderConfig("mock_b", "mock_delay", delay=0.4),
        ]
    )
    dispatch = Dispatch()
    for provider_id in ("mock_a", "mock_b"):
        for _ in range(3):
            dispatch.add_job(provider_id, "delayed_statevector", bell, 16)
    start = time.monotonic()
    collector = executor.run_dispatch(dispatch, parallel=True, wait=True)
    assert time.monotonic() - start < 0.7
    assert collector.failed_jobs() == []


def test_a_run_holds_one_thread_however_many_backends(bell, monkeypatch):
    # Twelve in-process backends, their kernels held: the run adds its one
    # driver thread and, if it has not started yet, the kernel worker, not a
    # thread per backend.
    release, entered = threading.Event(), threading.Event()
    original = qexec.providers.sample_batch

    def held_kernel(*args, **kwargs):
        entered.set()
        release.wait(10)
        return original(*args, **kwargs)

    monkeypatch.setattr(qexec.providers, "sample_batch", held_kernel)
    submitted = []
    original_submit = VirtualProvider.submit_batch

    def recording_submit(self, provider_id, backend_name, jobs):
        outcomes = original_submit(self, provider_id, backend_name, jobs)
        submitted.append(provider_id)
        return outcomes

    monkeypatch.setattr(VirtualProvider, "submit_batch", recording_submit)
    ids = [f"p{i}" for i in range(12)]
    executor = QuantumExecutor(providers=[ProviderConfig(p, "local_ideal") for p in ids])
    dispatch = Dispatch()
    for provider_id in ids:
        dispatch.add_job(provider_id, "statevector", bell, 16)
    before = threading.active_count()
    try:
        collector = executor.run_dispatch(dispatch, wait=False)
        deadline = time.monotonic() + 5
        while len(submitted) < len(ids):
            assert time.monotonic() < deadline, "not every backend was submitted"
            time.sleep(0.005)
        assert entered.wait(5), "the kernel never ran"
        during = threading.active_count()
    finally:
        release.set()
    assert collector.wait(timeout=10)
    assert collector.failed_jobs() == []
    assert during - before <= 2


def test_each_poll_reads_all_of_a_providers_backends_in_one_call(remote_server, bell, monkeypatch):
    # The job service hosts two backends. Each poll reads the pending jobs of
    # both in one call, so the first read holds every job and later reads
    # only shrink.
    calls = []
    original = VirtualProvider.status_batch

    def counting_status(self, provider_id, job_ids):
        calls.append(list(job_ids))
        return original(self, provider_id, job_ids)

    monkeypatch.setattr(VirtualProvider, "status_batch", counting_status)
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch()
    for backend_name in ("noisy_statevector", "statevector"):
        for _ in range(3):
            dispatch.add_job("remote", backend_name, bell, 16)
    collector = executor.run_dispatch(dispatch, wait=True)
    assert collector.failed_jobs() == []
    assert len(calls[0]) == 6
    assert all(set(later) <= set(earlier) for earlier, later in zip(calls, calls[1:]))


def test_serial_run_submits_a_backend_once_the_one_before_has_ended(bell, monkeypatch):
    # parallel=False: at each submission, every job submitted before it is
    # terminal.
    submitted, states_at_submit = [], []
    original = VirtualProvider.submit_batch

    def checking_submit(self, provider_id, backend_name, jobs):
        states_at_submit.append([self.status_batch(p, [j])[0].state for p, j in submitted])
        outcomes = original(self, provider_id, backend_name, jobs)
        submitted.extend((provider_id, job_id) for job_id in outcomes)
        return outcomes

    monkeypatch.setattr(VirtualProvider, "submit_batch", checking_submit)
    ids = ("mock_a", "mock_b", "mock_c")
    executor = QuantumExecutor(providers=[ProviderConfig(p, "mock_delay", delay=0.05) for p in ids])
    dispatch = Dispatch()
    for provider_id in ids:
        for _ in range(2):
            dispatch.add_job(provider_id, "delayed_statevector", bell, 16)
    collector = executor.run_dispatch(dispatch, parallel=False, wait=True)
    assert collector.failed_jobs() == []
    assert [len(states) for states in states_at_submit] == [0, 2, 4]
    assert all(state.terminal for states in states_at_submit for state in states)


def test_local_providers_share_one_kernel_worker(bell):
    # Eight in-process providers run in one run, and leave behind the one
    # kernel worker of the process, not a worker each.
    ids = [f"p{i}" for i in range(8)]
    executor = QuantumExecutor(providers=[ProviderConfig(p, "local_ideal") for p in ids])
    dispatch = Dispatch()
    for provider_id in ids:
        dispatch.add_job(provider_id, "statevector", bell, 16)
    collector = executor.run_dispatch(dispatch, parallel=True, wait=True)
    assert collector.failed_jobs() == []
    names = [thread.name for thread in threading.enumerate()]
    assert sum(name.startswith("qexec-kernel") for name in names) == 1
    assert [name for name in names if name.startswith(tuple(f"{p}-worker" for p in ids))] == []


# --------------------------------------------------------------------------
# run_experiment
# --------------------------------------------------------------------------


def test_run_experiment_multiplier_shape(local_executor, bell, ghz3):
    collector = local_executor.run_experiment(
        circuits=[bell, ghz3, bell],
        shots=1024,
        backends=LOCAL_PAIR,
        split_policy="multiplier",
        parallel=True,
        wait=True,
        base_seed=1,
    )
    tree = collector.get_results()
    for provider_id, backends in tree.items():
        for backend_name, runs in backends.items():
            assert len(runs) == 3
            assert all(sum(counts.values()) == 1024 for counts in runs)


def test_run_experiment_tvd_merge(local_executor, bell):
    collector = local_executor.run_experiment(
        circuits=bell,
        shots=2048,
        backends=LOCAL_PAIR,
        split_policy="multiplier",
        merge_policy="tvd",
        wait=True,
        base_seed=4,
    )
    merged, metadata = collector.get_merged_results()
    assert list(merged) == ["local_noisy/noisy_statevector"]
    assert 0 < merged["local_noisy/noisy_statevector"] < 1
    assert metadata["reference"] == "local_ideal/statevector"


def test_run_experiment_unknown_policy(local_executor, bell, submit_calls):
    with pytest.raises(UnknownPolicyError):
        local_executor.run_experiment(
            circuits=bell, shots=10, backends=LOCAL_PAIR, split_policy="nonexistent"
        )
    assert submit_calls == []


def test_run_experiment_unresolvable_backend(local_executor, bell, submit_calls):
    with pytest.raises(UnknownBackendError):
        local_executor.run_experiment(
            circuits=bell, shots=10, backends={"local_ideal": ["teleporter"]}
        )
    assert submit_calls == []


class _SubmitCountingProvider(VirtualProvider):
    def __init__(self):
        super().__init__()
        self.submit_batch_calls = 0

    def submit_batch(self, *args):
        self.submit_batch_calls += 1
        return super().submit_batch(*args)


_NOT_BOOL = st.none() | st.integers() | st.text() | st.floats()
# For each ExperimentSpec field, values of a form that field does not take.
_WRONG_FORMS = {
    "circuits": st.none() | st.just([]) | st.text() | st.lists(st.text(), min_size=1),
    "shots": st.integers(max_value=0) | st.booleans() | st.floats() | st.text() | st.none(),
    "backends": (
        st.lists(st.text())
        | st.text().filter(lambda text: text != "all_online")
        | st.dictionaries(st.text(), st.text() | st.none() | st.integers(), min_size=1)
        | st.dictionaries(st.text(), st.lists(st.integers(), min_size=1), min_size=1)
        | st.dictionaries(st.integers(), st.lists(st.text()), min_size=1)
    ),
    "split_policy": st.none() | st.integers() | st.booleans(),
    "merge_policy": st.integers() | st.booleans() | st.lists(st.text()),
    "parallel": _NOT_BOOL,
    "wait": _NOT_BOOL,
    "base_seed": st.booleans() | st.floats() | st.text() | st.none(),
    "policy_context": st.none() | st.lists(st.integers()) | st.text() | st.integers(),
}


@st.composite
def wrong_field(draw):
    key = draw(st.sampled_from(sorted(_WRONG_FORMS)))
    return key, draw(_WRONG_FORMS[key])


@given(wrong_field())
@example(("circuits", [BELL_QASM]))
@example(("circuits", []))
@example(("backends", ["local_ideal"]))
@example(("backends", {"local_ideal": "statevector"}))
@example(("parallel", "no"))
@example(("base_seed", True))
@example(("shots", 0))
@example(("shots", True))
@example(("shots", 1.5))
@example(("policy_context", []))
@settings(max_examples=60, deadline=None)
def test_run_experiment_refuses_a_field_of_the_wrong_form(case):
    # One valid spec with one field swapped for a value of the wrong form:
    # ExperimentSpec refuses it before anything is submitted.
    key, value = case
    fields = dict(
        circuits=[parse_qasm(BELL_QASM, name="bell")], shots=8, backends=LOCAL_PAIR, base_seed=3
    )
    provider = _SubmitCountingProvider()
    executor = QuantumExecutor(local_provider_configs(), provider)
    with pytest.raises(ExperimentError):
        executor.run_experiment(**{**fields, key: value})
    assert provider.submit_batch_calls == 0


def test_all_online_run_lists_each_provider_once(local_executor, bell):
    local_executor.register_provider(
        ProviderConfig(provider_id="sleepy", kind="mock_delay", delay=0.1, online=False)
    )
    listings = []
    for provider_id, adapter in local_executor.virtual_provider._adapters.items():

        def counting_backends(original=adapter.backends, provider_id=provider_id):
            listings.append(provider_id)
            return original()

        adapter.backends = counting_backends
    collector = local_executor.run_experiment(circuits=bell, shots=16, backends="all_online")
    assert sorted(listings) == ["local_ideal", "local_noisy", "sleepy"]
    assert sorted(collector.dispatch.backends()) == [
        ("local_ideal", "statevector"),
        ("local_noisy", "noisy_statevector"),
    ]
    assert not collector.failed_jobs()


def test_run_experiment_discovers_per_backend_not_per_job(local_executor, bell):
    discoveries = {}
    for provider_id, adapter in local_executor.virtual_provider._adapters.items():

        def counting_backends(original=adapter.backends, provider_id=provider_id):
            discoveries[provider_id] = discoveries.get(provider_id, 0) + 1
            return original()

        adapter.backends = counting_backends
    collector = local_executor.run_experiment(
        circuits=[bell] * 20, shots=8, backends=LOCAL_PAIR, wait=True
    )
    assert collector.dispatch.total_jobs() == 40
    assert collector.failed_jobs() == []
    assert discoveries == dict.fromkeys(LOCAL_PAIR, 1)


REMOTE_PAIR = {"remote": ["noisy_statevector", "statevector"]}


@pytest.fixture
def sent(monkeypatch):
    """(method, path) of every request a client session sends in the test."""
    sent = []
    original_request = requests.Session.request

    def recording_request(session, method, url, *args, **kwargs):
        sent.append((method, urlsplit(url).path))
        return original_request(session, method, url, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "request", recording_request)
    return sent


def remote_executor(server) -> QuantumExecutor:
    return QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=server.endpoint)]
    )


def test_run_experiment_lists_a_remote_provider_once(remote_server, bell, ghz3, sent):
    collector = remote_executor(remote_server).run_experiment(
        circuits=[bell, ghz3], shots=8, backends=REMOTE_PAIR
    )
    assert collector.failed_jobs() == []
    assert collector.dispatch.total_jobs() == 4
    assert sent.count(("GET", "/backends")) == 1
    assert sent.index(("GET", "/backends")) < sent.index(("POST", "/jobs"))
    info = collector.policy_context["backend_info"]
    assert sorted(info) == ["remote/noisy_statevector", "remote/statevector"]


def test_run_dispatch_lists_a_remote_provider_once(remote_server, bell, sent):
    dispatch = Dispatch()
    for backend in REMOTE_PAIR["remote"]:
        dispatch.add_job("remote", backend, bell, 8).add_job("remote", backend, bell, 8)
    collector = remote_executor(remote_server).run_dispatch(dispatch)
    assert collector.failed_jobs() == []
    assert sent.count(("GET", "/backends")) == 1
    assert sent.count(("POST", "/jobs")) == 2


@pytest.mark.parametrize(
    "listed, refused",
    [({"online": False}, "is offline"), ({"max_qubits": 2}, "width 3 exceeds")],
    ids=["offline", "too-wide"],
)
@pytest.mark.parametrize("entry", ["experiment", "dispatch"])
def test_preflight_refuses_from_the_one_listing_before_posting(
    remote_server, bell, ghz3, sent, monkeypatch, listed, refused, entry
):
    serve_listing(
        monkeypatch,
        [{"name": "noisy_statevector"}, {"name": "statevector", **listed}],
    )
    executor = remote_executor(remote_server)
    with pytest.raises(DispatchValidationError, match=refused):
        if entry == "experiment":
            executor.run_experiment(circuits=[bell, ghz3], shots=8, backends=REMOTE_PAIR)
        else:
            dispatch = Dispatch().add_job("remote", "noisy_statevector", bell, 8)
            executor.run_dispatch(dispatch.add_job("remote", "statevector", ghz3, 8))
    assert sent == [("GET", "/backends")]


def test_run_experiment_refuses_an_unknown_remote_backend_before_the_split(
    remote_server, bell, sent
):
    def split(*args):
        pytest.fail("the split ran for an unknown backend")

    executor = remote_executor(remote_server)
    executor.add_policy("never", split_policy=split)
    with pytest.raises(UnknownBackendError, match="unknown backend remote/teleporter"):
        executor.run_experiment(
            circuits=bell,
            shots=8,
            backends={"remote": ["statevector", "teleporter"]},
            split_policy="never",
        )
    assert sent == [("GET", "/backends")]


def test_run_dispatch_rejects_wide_remote_job_before_posting(remote_server, monkeypatch):
    from qexec import Circuit

    posts = []
    original_post = requests.Session.post

    def counting_post(session, url, *args, **kwargs):
        posts.append(url)
        return original_post(session, url, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "post", counting_post)
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch().add_job("remote", "statevector", Circuit(width=25, name="wide"), 10)
    with pytest.raises(DispatchValidationError, match="exceeds"):
        executor.run_dispatch(dispatch)
    assert posts == []


def test_remote_run_reads_each_job_through_its_status_only(remote_server, bell, monkeypatch):
    # A DONE status carries the counts, so a backend's jobs cost one POST and
    # one batch read per poll, and /result is never asked for.
    sent = []
    original_request = requests.Session.request

    def recording_request(session, method, url, *args, **kwargs):
        sent.append((method, url[len(remote_server.endpoint):], kwargs.get("params")))
        return original_request(session, method, url, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "request", recording_request)
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch()
    for _ in range(4):
        dispatch.add_job("remote", "statevector", bell, 16)
    collector = executor.run_dispatch(dispatch)
    assert [state for state, _ in collector.status().values()] == [JobState.DONE] * 4
    assert [sum(c.values()) for c in collector.get_results()["remote"]["statevector"]] == [16] * 4
    assert sent.count(("POST", "/jobs", None)) == 1
    reads = [params for method, path, params in sent if (method, path) == ("GET", "/jobs")]
    assert reads and all(len(params["ids"].split(",")) <= 4 for params in reads)
    assert len(sent) == 2 + len(reads)  # the run's one GET /backends and its POST


@pytest.mark.parametrize(
    "bad",
    [{}, {"counts": None}, {"counts": [8]}, {"counts": {"00": "8"}}, {"counts": {"00": True}}],
    ids=["missing", "null", "list", "string", "boolean"],
)
def test_remote_done_without_counts_fails_only_that_job(remote_server, bell, monkeypatch, bad):
    # The service answers DONE for the first job it is asked about, with
    # missing or malformed counts; it answers the other jobs truthfully.
    asked = []
    original_job_entry = qexec.server._job_entry

    def job_entry(job_id, status):
        asked.append(job_id)
        if job_id != asked[0]:
            return original_job_entry(job_id, status)
        return {"job_id": job_id, "state": "DONE", **bad}

    monkeypatch.setattr(qexec.server, "_job_entry", job_entry)
    executor = QuantumExecutor(
        providers=[ProviderConfig("remote", "remote_http", endpoint=remote_server.endpoint)]
    )
    dispatch = Dispatch()
    for _ in range(3):
        dispatch.add_job("remote", "statevector", bell, 16)
    collector = executor.run_dispatch(dispatch)
    statuses = collector.status()
    assert [statuses[o][0] for o in range(3)] == [JobState.FAILED, JobState.DONE, JobState.DONE]
    assert statuses[0][1].startswith("malformed status response")
    assert [sum(c.values()) for c in collector.get_results()["remote"]["statevector"]] == [16, 16]


def test_run_experiment_foreign_target_policy_bug_surfaced(local_executor, bell):
    def rogue_split(circuits, shots, targets, options=None):
        from qexec import Dispatch

        dispatch = Dispatch()
        for circuit in circuits:
            dispatch.add_job("local_noisy", "noisy_statevector", circuit, shots)
        return dispatch

    local_executor.add_policy("rogue", split_policy=rogue_split)
    with pytest.raises(ExperimentError, match="outside the experiment"):
        local_executor.run_experiment(
            circuits=bell,
            shots=10,
            backends={"local_ideal": ["statevector"]},
            split_policy="rogue",
        )


def test_run_experiment_accepts_spec_object(local_executor, bell):
    spec = ExperimentSpec(circuits=bell, shots=64, backends={"local_ideal": ["statevector"]})
    collector = local_executor.run_experiment(spec)
    counts = collector.get_results()["local_ideal"]["statevector"][0]
    assert sum(counts.values()) == 64


def test_seed_determinism_parallel_vs_serial(local_executor, bell, ghz3):
    kwargs = dict(
        circuits=[bell, ghz3],
        shots=512,
        backends=LOCAL_PAIR,
        split_policy="multiplier",
        wait=True,
        base_seed=2024,
    )
    first = local_executor.run_experiment(parallel=True, **kwargs).get_results()
    second = local_executor.run_experiment(parallel=False, **kwargs).get_results()
    assert tree_to_json(first) == tree_to_json(second)


def test_failed_backend_does_not_alter_others(local_executor, bell):
    broken = _BrokenAdapter()
    executor = executor_with_broken(broken, local_executor)
    baseline = executor.run_dispatch(
        Dispatch().add_job("local_ideal", "statevector", bell, 256), wait=True, base_seed=0
    ).get_results()["local_ideal"]["statevector"][0]

    dispatch = Dispatch()
    dispatch.add_job("flaky", "device", bell, 256)
    dispatch.add_job("local_ideal", "statevector", bell, 256)
    collector = executor.run_dispatch(dispatch, wait=True, base_seed=0)
    tree = collector.get_results()
    assert "flaky" not in tree
    statuses = collector.status()
    flaky_ordinal = next(
        o for o, (p, _) in ((o, collector.job_site(o)) for o in statuses) if p == "flaky"
    )
    assert statuses[flaky_ordinal] == (JobState.FAILED, "device melted")
    ideal_ordinal = 1 - flaky_ordinal
    # The healthy backend's counts match a solo run seeded with the same ordinal.
    solo = executor.run_dispatch(
        Dispatch().add_job("local_ideal", "statevector", bell, 256),
        wait=True,
        base_seed=ideal_ordinal,
    ).get_results()["local_ideal"]["statevector"][0]
    assert tree["local_ideal"]["statevector"][0] == solo
    assert baseline  # sanity: the healthy path produced counts at all


def test_submit_failure_recorded_not_raised(local_executor, bell):
    broken = _BrokenAdapter(fail_on_submit=True)
    executor = executor_with_broken(broken, local_executor)
    dispatch = Dispatch()
    dispatch.add_job("flaky", "device", bell, 8)
    dispatch.add_job("local_ideal", "statevector", bell, 8)
    collector = executor.run_dispatch(dispatch, wait=True)
    failed = collector.failed_jobs()
    assert len(failed) == 1
    assert "submission refused" in failed[0]["error"]
    assert sum(collector.get_results()["local_ideal"]["statevector"][0].values()) == 8


def test_run_dispatch_merges_by_name(local_executor, bell):
    dispatch = Dispatch()
    dispatch.add_job("local_ideal", "statevector", bell, 16)
    dispatch.add_job("local_noisy", "noisy_statevector", bell, 16)
    collector = local_executor.run_dispatch(dispatch, merge_policy="sum")
    assert collector.merge_policy == "sum"
    merged, metadata = collector.get_merged_results()
    assert sum(merged.values()) == 32
    assert metadata["jobs"] == 2


def test_run_dispatch_unknown_merge_name_submits_nothing(local_executor, bell, submit_calls):
    dispatch = Dispatch().add_job("local_ideal", "statevector", bell, 16)
    with pytest.raises(UnknownPolicyError, match="nope"):
        local_executor.run_dispatch(dispatch, merge_policy="nope")
    assert submit_calls == []


def test_lane_error_fails_only_its_own_job(local_executor, bell):
    # base_seed=None makes building every job's seed raise inside the driver.
    dispatch = Dispatch()
    dispatch.add_job("local_ideal", "statevector", bell, 8)
    dispatch.add_job("local_ideal", "statevector", bell, 8)
    dispatch.add_job("local_noisy", "noisy_statevector", bell, 8)
    collector = local_executor.run_dispatch(dispatch, base_seed=None)
    assert collector.is_terminal()
    failed = collector.failed_jobs()
    assert [job["ordinal"] for job in failed] == [0, 1, 2]
    for job in failed:
        assert "NoneType" in job["error"]
        assert not job["error"].startswith("lane failure:")


def test_policy_boundary_integrity(local_executor, bell):
    # multiplier + sum over the full experiment == leaf-for-leaf sum of
    # individually dispatched (circuit, backend) runs with matching seeds.
    from qexec import parse_qasm

    rotated = parse_qasm("OPENQASM 2.0; qreg q[2]; rx(pi/3) q[0]; cx q[0],q[1];", name="rot")
    base_seed = 31
    collector = local_executor.run_experiment(
        circuits=[bell, rotated],
        shots=128,
        backends=LOCAL_PAIR,
        split_policy="multiplier",
        merge_policy="sum",
        wait=True,
        base_seed=base_seed,
    )
    merged, _ = collector.get_merged_results()

    partial_sum: dict[str, int] = {}
    for _, _, spec in collector.dispatch.jobs():
        provider_id, backend_name = collector.job_site(spec.ordinal)
        solo = local_executor.run_dispatch(
            Dispatch().add_job(provider_id, backend_name, spec.circuit, spec.shots),
            wait=True,
            base_seed=base_seed + spec.ordinal,
        ).get_results()[provider_id][backend_name][0]
        for bitstring, count in solo.items():
            partial_sum[bitstring] = partial_sum.get(bitstring, 0) + count
    assert merged == partial_sum


# --------------------------------------------------------------------------
# add_policy
# --------------------------------------------------------------------------


def test_add_policy_keyword_form_and_use(local_executor, bell):
    calls = []

    def tagging_merge(results, context):
        calls.append(context.get("tag"))
        return merge_sum(results, context)

    local_executor.add_policy(name="tagged_sum", merge_policy=tagging_merge)
    collector = local_executor.run_experiment(
        circuits=bell,
        shots=32,
        backends={"local_ideal": ["statevector"]},
        merge_policy="tagged_sum",
        policy_context={"tag": "hello"},
        wait=True,
    )
    merged, _ = collector.get_merged_results()
    assert sum(merged.values()) == 32
    assert calls == ["hello"]


def test_add_policy_duplicate(local_executor):
    local_executor.add_policy("mine", merge_policy=lambda r, c: ({}, {}))
    with pytest.raises(DuplicatePolicyError):
        local_executor.add_policy("mine", merge_policy=lambda r, c: ({}, {}))


def test_add_policy_duplicate_registers_neither(local_executor):
    # "sum" is a built-in merge policy, so the split half must not stay behind.
    with pytest.raises(DuplicatePolicyError, match="merge policy 'sum'"):
        local_executor.add_policy(
            "sum", split_policy=lambda *args: Dispatch(), merge_policy=lambda r, c: ({}, {})
        )
    assert "sum" not in local_executor.policies.split_names()


def test_add_policy_registers_split_and_merge_together(local_executor):
    def split(circuits, shots, targets, options=None):
        return Dispatch()

    def merge(results, context):
        return {}, {}

    local_executor.add_policy("both", split_policy=split, merge_policy=merge)
    assert local_executor.policies.resolve_split("both") is split
    assert local_executor.policies.resolve_merge("both") is merge


def test_add_policy_needs_a_policy(local_executor):
    with pytest.raises(PolicyError, match="split_policy=, merge_policy= or both"):
        local_executor.add_policy("none")


def test_add_policy_custom_split_used(local_executor, bell):
    def first_target_only(circuits, shots, targets, options=None):
        from qexec import Dispatch

        dispatch = Dispatch()
        for circuit in circuits:
            dispatch.add_job(targets[0][0], targets[0][1], circuit, shots)
        return dispatch

    local_executor.add_policy("first_only", split_policy=first_target_only)
    collector = local_executor.run_experiment(
        circuits=bell, shots=16, backends=LOCAL_PAIR, split_policy="first_only", wait=True
    )
    tree = collector.get_results()
    assert list(tree) == ["local_ideal"]
