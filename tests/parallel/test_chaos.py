"""Resilience-layer tests: chaos plans and the supervisor.

The acceptance pin for the resilience PR lives here: under a chaos plan
that kills one worker mid-stream and hangs another past its deadline
(``kill-and-hang``), the stream completes, the pool returns to its full
worker count (restarts counted), no job is lost, and ``finding_keys()``
is identical to the plain serial loop in ``reference.py``.  The
federation-level parity suite in
``tests/core/test_federation_chaos.py`` repeats the parity half on the
line-3 and tiered-8 topologies.
"""

import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concolic.engine import ExplorationBudget
from repro.parallel import (
    CHAOS_PLANS,
    ChaosEvent,
    ChaosPlan,
    StreamingExplorer,
    WorkerSupervisor,
    get_chaos_plan,
    list_chaos_plans,
)
from repro.parallel.chaos import CHAOS_KINDS
from repro.parallel.jobs import StreamJob
from repro.parallel.options import EngineOptions
from repro.parallel.transport import MSG_JOB, _ProcessWorker

from reference import serial_batch

BUDGET = ExplorationBudget(max_executions=10)


def finding_keys(report):
    return frozenset(f.dedup_key() for f in report.findings())


def open_stream(router, seeds, chaos=None, **kwargs):
    """Start a stream, submit every seed, return it *undrained*."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("restart_backoff", 0.01)
    stream = StreamingExplorer(
        budget=BUDGET,
        queue_capacity=max(16, len(seeds)),
        chaos=chaos,
        **kwargs,
    )
    stream.start(router)
    for peer, observed in seeds:
        stream.submit(peer, observed)
    return stream


@pytest.fixture(scope="module")
def seeds(erroneous_scenario):
    return erroneous_scenario.dice.batch_seeds(all_seeds=True)[:6]


@pytest.fixture(scope="module")
def serial_keys(erroneous_scenario, seeds):
    # The reference is the plain in-process loop, not the engine run
    # inline: chaos parity then compares the pool against independent code.
    report = serial_batch(erroneous_scenario.provider, seeds, budget=BUDGET)
    assert not report.errors
    return finding_keys(report)


class TestChaosPlanRegistry:
    def test_registered_plans_resolve(self):
        for name in CHAOS_PLANS:
            plan = get_chaos_plan(name)
            assert plan.name == name
            assert plan.events
            assert plan.description

    def test_unknown_plan_names_the_known_ones(self):
        with pytest.raises(ValueError, match="kill-one-worker"):
            get_chaos_plan("no-such-plan")

    def test_list_is_sorted_name_description_pairs(self):
        listed = list_chaos_plans()
        assert [name for name, _ in listed] == sorted(CHAOS_PLANS)
        assert all(desc for _, desc in listed)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosEvent(kind="set-on-fire", at_job=1)
        with pytest.raises(ValueError, match="1-based"):
            ChaosEvent(kind="kill-worker", at_job=0)
        with pytest.raises(ValueError, match="seconds > 0"):
            ChaosEvent(kind="hang-job", at_job=1, seconds=0.0)
        with pytest.raises(ValueError, match="worker slot"):
            ChaosEvent(kind="kill-worker", at_job=1, worker=-2)
        # -1 is HIGHEST_SLOT: "whichever live slot is highest at fire time".
        elastic = ChaosEvent(kind="kill-worker", at_job=1, worker=-1)
        assert "highest live worker" in elastic.describe()

    def test_plan_override_validation(self):
        event = ChaosEvent(kind="kill-worker", at_job=1)
        with pytest.raises(ValueError, match="job_deadline"):
            ChaosPlan(name="p", events=(event,), job_deadline=0.0)
        with pytest.raises(ValueError, match="retry_budget"):
            ChaosPlan(name="p", events=(event,), retry_budget=-1)
        with pytest.raises(ValueError, match="needs a name"):
            ChaosPlan(name="", events=(event,))

    def test_attached_vs_dispatch_events(self):
        hang = ChaosEvent(kind="hang-job", at_job=3, seconds=5.0)
        drop = ChaosEvent(kind="drop-result", at_job=2)
        kill = ChaosEvent(kind="kill-worker", at_job=2)
        assert hang.attaches and drop.attaches and not kill.attaches
        assert hang.directive().hang_seconds == 5.0
        assert drop.directive().drop_result
        with pytest.raises(ValueError, match="do not attach"):
            kill.directive()

    def test_events_at_matches_dispatch_clock(self):
        plan = get_chaos_plan("kill-and-hang")
        assert [e.kind for e in plan.events_at(2)] == ["kill-worker"]
        assert [e.kind for e in plan.events_at(4)] == ["hang-job"]
        assert plan.events_at(3) == []

    def test_only_sticky_plans_quarantine(self):
        assert get_chaos_plan("poison-job").quarantines
        for name in CHAOS_PLANS:
            if name != "poison-job":
                assert not get_chaos_plan(name).quarantines, name

    def test_every_kind_is_covered_by_a_registered_plan(self):
        covered = {e.kind for plan in CHAOS_PLANS.values() for e in plan.events}
        assert covered == set(CHAOS_KINDS)


class TestWorkerSupervisor:
    @given(
        seed=st.integers(0, 2**32 - 1),
        slot=st.integers(0, 7),
        attempt=st.integers(0, 12),
    )
    @settings(deadline=None, max_examples=60)
    def test_backoff_deterministic_and_jitter_bounded(self, seed, slot, attempt):
        sup = WorkerSupervisor(seed=seed)
        delay = sup.backoff_delay(slot, attempt)
        # Same (seed, slot, attempt) -> bit-identical schedule.
        assert delay == WorkerSupervisor(seed=seed).backoff_delay(slot, attempt)
        base = min(sup.backoff_cap, sup.backoff * 2.0**attempt)
        assert 0.5 * base <= delay <= 1.5 * base

    @given(seed=st.integers(0, 2**32 - 1), slot=st.integers(0, 7))
    @settings(deadline=None, max_examples=30)
    def test_backoff_never_exceeds_cap(self, seed, slot):
        sup = WorkerSupervisor(backoff=0.5, backoff_cap=2.0, seed=seed)
        for attempt in range(10):
            assert sup.backoff_delay(slot, attempt) <= 2.0 * 1.5

    def test_note_death_schedules_then_respawn_clears(self):
        sup = WorkerSupervisor(max_restarts=3, backoff=0.05, seed=7)
        assert sup.note_death(0, now=100.0)
        assert sup.pending
        assert sup.due_slots(100.0) == []          # jittered delay > 0
        assert sup.due_slots(100.0 + 1.0) == [0]   # well past 1.5 * backoff
        assert sup.note_death(0, now=100.0)        # idempotent while pending
        sup.respawned(0)
        assert not sup.pending
        assert not sup.exhausted

    def test_restart_budget_exhausts(self):
        sup = WorkerSupervisor(max_restarts=1, seed=7)
        assert sup.note_death(0, now=0.0)
        sup.respawned(0)
        assert not sup.note_death(0, now=1.0)
        assert 0 in sup.exhausted
        assert not sup.pending

    def test_zero_restarts_means_immediately_exhausted(self):
        sup = WorkerSupervisor(max_restarts=0, seed=7)
        assert not sup.note_death(0, now=0.0)
        assert 0 in sup.exhausted

    def test_failed_spawn_burns_the_attempt(self):
        sup = WorkerSupervisor(max_restarts=2, seed=7)
        assert sup.note_death(0, now=0.0)
        assert sup.respawn_failed(0, now=0.0)      # attempt 1 booked
        assert not sup.respawn_failed(0, now=0.0)  # attempt 2 -> exhausted
        assert 0 in sup.exhausted

    def test_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            WorkerSupervisor(max_restarts=-1)
        with pytest.raises(ValueError, match="backoff"):
            WorkerSupervisor(backoff=0.0)
        with pytest.raises(ValueError, match="backoff"):
            WorkerSupervisor(backoff=1.0, backoff_cap=0.5)


def _require_processes(stream):
    if not stream.report.used_processes:
        stream.close()
        pytest.skip("no process workers on this host")


class TestSupervisedRecovery:
    def test_kill_one_worker_respawns_and_keeps_parity(
        self, erroneous_scenario, seeds, serial_keys
    ):
        stream = open_stream(
            erroneous_scenario.provider, seeds, chaos=get_chaos_plan("kill-one-worker")
        )
        _require_processes(stream)
        stream.drain()
        # The pool is back at full strength before close, not shrunk.
        assert len(stream._pool.alive()) == 2
        report = stream.close()
        assert report.workers_restarted >= 1
        assert report.jobs_completed == len(seeds)
        assert not report.quarantined
        assert report.chaos_events
        assert finding_keys(report) == serial_keys

    def test_hang_detection_kills_and_retries(
        self, erroneous_scenario, seeds, serial_keys
    ):
        stream = open_stream(
            erroneous_scenario.provider, seeds, chaos=get_chaos_plan("hang-one-worker")
        )
        _require_processes(stream)
        report = stream.close()
        assert report.hangs_detected >= 1
        assert report.jobs_retried >= 1
        assert report.jobs_completed == len(seeds)
        assert not report.quarantined
        assert finding_keys(report) == serial_keys

    def test_dropped_result_redispatched_by_deadline_sweep(
        self, erroneous_scenario, seeds, serial_keys
    ):
        stream = open_stream(
            erroneous_scenario.provider, seeds, chaos=get_chaos_plan("drop-result")
        )
        _require_processes(stream)
        report = stream.close()
        assert report.hangs_detected >= 1   # idle-worker, missing-result case
        assert report.jobs_retried >= 1
        assert report.jobs_completed == len(seeds)
        assert finding_keys(report) == serial_keys

    def test_poison_job_quarantined_without_wedging(
        self, erroneous_scenario, seeds, serial_keys
    ):
        stream = open_stream(
            erroneous_scenario.provider, seeds, chaos=get_chaos_plan("poison-job")
        )
        _require_processes(stream)
        report = stream.close(timeout=120.0)  # a wedge fails loudly, not forever
        assert len(report.quarantined) == 1
        poisoned = report.quarantined[0]
        # retries counts hang detections: budget-many retries, then the
        # final over-budget detection that tips the job into quarantine.
        assert poisoned.retries == get_chaos_plan("poison-job").retry_budget + 1
        assert "retry budget" in poisoned.reason
        assert report.jobs_completed == len(seeds) - 1
        # The quarantined job is a hole, never an invention.
        assert finding_keys(report) <= serial_keys

    def test_kill_and_hang_acceptance(
        self, erroneous_scenario, seeds, serial_keys
    ):
        """The PR's acceptance criterion, end to end: one worker killed
        mid-stream and another hung past its deadline — the stream still
        completes, the pool returns to full strength, no job is lost,
        and the finding set is identical to the serial run."""
        stream = open_stream(
            erroneous_scenario.provider, seeds, chaos=get_chaos_plan("kill-and-hang")
        )
        _require_processes(stream)
        stream.drain()
        # drain() returns once every job is harvested, which can come
        # before the supervisor brings the killed and the hung worker's
        # slots back: wait for that respawn event itself.
        pool = stream._pool

        def at_full_strength():
            return (
                stream.report.workers_restarted >= 1
                and not pool.supervisor.pending
                and len(pool.alive()) == 2
            )

        deadline = time.monotonic() + 60
        while not at_full_strength() and time.monotonic() < deadline:
            stream.harvest(timeout=0.05)
            pool.wait(0.05)
        assert at_full_strength()
        report = stream.close()
        assert report.hangs_detected >= 1
        assert report.jobs_retried >= 1
        assert not report.quarantined
        assert report.jobs_completed == len(seeds)      # no job lost
        assert len(report.chaos_events) >= 2
        assert finding_keys(report) == serial_keys
        summary = report.summary()
        assert summary["workers_restarted"] == report.workers_restarted
        assert summary["jobs_quarantined"] == 0

    def test_chaos_disabled_without_process_workers(
        self, erroneous_scenario, seeds, serial_keys
    ):
        """Inline fallback can't host worker faults: the plan is dropped
        (recorded, not silently) and the run stays a plain serial one."""
        stream = open_stream(
            erroneous_scenario.provider, seeds,
            workers=1, force_serial=True,
            chaos=get_chaos_plan("kill-one-worker"),
        )
        report = stream.close()
        assert stream.pool_options.chaos is None
        assert any("disabled" in event for event in report.chaos_events)
        assert report.jobs_completed == len(seeds)
        assert finding_keys(report) == serial_keys


def test_result_cut_off_by_worker_death_reads_as_end_of_channel():
    """A worker killed halfway through writing a result leaves a partial
    frame in its own pipe; reading that channel ends instead of waiting
    for bytes no process is left to write."""
    worker = _ProcessWorker(
        0, multiprocessing.Pipe(duplex=False), None,
        engine=EngineOptions(), templates={},
    )
    try:
        # A job naming no resident epoch is answered with an error that
        # quotes its node: 8 MiB of it cannot fit in the pipe, so the
        # worker blocks partway through the frame.
        worker.send((MSG_JOB, StreamJob(
            index=0, epoch=0, peer="p", observed=None, node="x" * (8 << 20),
        )))
        assert worker.results.poll(30)
        worker.crash()
        assert not worker.alive
        assert worker.recv() == []
    finally:
        worker.kill()
