"""Epochs travel by fork: workers inherit checkpoint templates.

A worker is built holding every retained template, so epoch 0 ships
nothing; later epochs travel as key-level patches between templates,
and a node added to a running pool as its template's state bytes.
Every stream here is checked against the serial engine's
``finding_keys()``.
"""

import pickle
import time

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import ExplorationBudget
from repro.parallel import StreamingExplorer
from repro.parallel.chaos import ChaosEvent, ChaosPlan
from repro.parallel.images import ImageStore
from repro.parallel.jobs import JobTable, StreamJob, scoped_node
from repro.parallel.options import EngineOptions
from repro.parallel.reports import StreamReport
from repro.parallel.transport import MSG_EPOCH, MSG_JOB, RES_REPORT, _WorkerState
from repro.util.ip import Prefix, ip_to_int

from reference import serial_batch

BUDGET = ExplorationBudget(max_executions=10)


def seed_update(prefix):
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([65020]), next_hop=ip_to_int("10.0.0.2")
        ),
        nlri=[NlriEntry.from_prefix(Prefix.parse(prefix))],
    )


def finding_keys(report):
    return frozenset(f.dedup_key() for f in report.findings())


def session_keys(reports):
    return [frozenset(f.dedup_key() for f in r.findings) for r in reports]


def serial_keys(router, seeds):
    """The serial engine's findings over ``router`` as it stands now."""
    return finding_keys(serial_batch(router, seeds, budget=BUDGET))


def serial_tail(router, seeds, skip):
    """The serial engine's per-seed findings for ``seeds[skip:]``, run at
    the positions a node's later epochs give them in a stream."""
    batch = serial_batch(router, seeds, budget=BUDGET)
    return session_keys(batch.reports[skip:])


def require_processes(stream):
    if not stream.report.used_processes:
        stream.close()
        pytest.skip("no process workers on this host")


def test_two_worker_stream_ships_no_epoch_zero_bytes(erroneous_scenario):
    router = erroneous_scenario.provider
    seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
    stream = StreamingExplorer(workers=2, budget=BUDGET, queue_capacity=16)
    stream.start(router)
    require_processes(stream)
    for peer, observed in seeds:
        stream.submit(peer, observed)
    report = stream.close()
    assert not report.errors, report.errors
    summary = report.summary()
    assert summary["checkpoint_bytes_shipped"] == 0
    assert summary["images_inherited"] == 2
    # Nothing on the coordinator was ever serialized.
    assert stream._images.current[""].template._state_bytes is None
    assert finding_keys(report) == serial_keys(router, seeds)


def assert_same_template(built, captured):
    """Two templates of one node state: every table iterates in the same
    key order over equal values, every other component pickles to the
    same bytes."""
    ours, theirs = built.frozen_state(), captured.frozen_state()
    assert list(ours) == list(theirs)
    for name, value in theirs.items():
        if hasattr(value, "delta_items"):
            assert list(ours[name].delta_items().items()) == list(
                value.delta_items().items()
            ), name
        else:
            assert pickle.dumps(ours[name]) == pickle.dumps(value), name


def test_delta_on_inherited_template_equals_fresh_capture(mutable_scenario):
    """A worker holding only the template it inherited builds the next
    epoch from it and the pickled patch; the template it builds is the
    coordinator's, and explores to the serial engine's findings."""
    router = mutable_scenario.provider
    store = ImageStore(StreamReport(), JobTable())
    store.register("", router)
    state = _WorkerState(None, EngineOptions(budget=BUDGET), store.templates())

    router.handle_update("customer", seed_update("96.1.0.0/16"))
    candidate, patch = store.capture_next("")
    assert patch.dirty > 0
    store.commit(candidate, patch)
    shipped = pickle.loads(pickle.dumps(patch))
    assert state.handle((MSG_EPOCH, ("", 1), shipped, frozenset({1}))) is None

    assert_same_template(state.checkpoints[("", 1)], candidate.template)
    assert_same_template(
        state.checkpoints[("", 1)], Checkpoint.capture(router, "fresh")
    )
    # The superseded epoch-0 template went with the patch's ``keep``.
    assert set(state.checkpoints) == {("", 1)}

    peer, observed = "customer", seed_update("96.1.4.0/24")
    kind, _, session = state.handle(
        (MSG_JOB, StreamJob(index=0, epoch=1, peer=peer, observed=observed))
    )
    assert kind == RES_REPORT
    assert frozenset(f.dedup_key() for f in session.findings) == serial_keys(
        router, [(peer, observed)]
    )


def test_respawn_after_epoch_advance_keeps_parity(mutable_scenario):
    """A worker killed after an epoch boundary comes back holding the
    current template — nothing is shipped to it — and the stream keeps
    the serial engine's findings on both sides of the boundary."""
    router = mutable_scenario.provider
    early = mutable_scenario.dice.batch_seeds(all_seeds=True)[:2]
    late = [("customer", seed_update(f"96.1.{i}.0/24")) for i in range(4)]
    plan = ChaosPlan(
        name="kill-after-epoch",
        events=(ChaosEvent(kind="kill-worker", at_job=len(early) + 1),),
    )
    stream = StreamingExplorer(
        workers=2, budget=BUDGET, queue_capacity=16, restart_backoff=0.01,
        chaos=plan,
    )
    stream.start(router)
    require_processes(stream)
    for peer, observed in early:
        stream.submit(peer, observed)
    stream.drain()
    early_keys = serial_keys(router, early)
    router.handle_update("customer", seed_update("96.1.0.0/16"))
    stream.advance_epoch()
    shipped = stream.report.checkpoint_bytes_shipped
    assert shipped > 0
    for peer, observed in late[:2]:
        stream.submit(peer, observed)
    deadline = time.monotonic() + 30
    while not stream.report.workers_restarted and time.monotonic() < deadline:
        stream.harvest(timeout=0.1)
    assert stream.report.workers_restarted == 1
    assert {w.slot: w.images for w in stream._pool.workers} == {
        0: {("", 1)}, 1: {("", 1)},
    }
    for peer, observed in late[2:]:
        stream.submit(peer, observed)
    report = stream.close()
    assert not report.errors, report.errors
    # The respawned worker inherited epoch 1: only the delta ever shipped.
    assert report.checkpoint_bytes_shipped == shipped
    ordered = session_keys(report.reports_in_index_order())
    assert len(ordered) == len(early) + len(late)
    assert frozenset().union(*ordered[:len(early)]) == early_keys
    assert ordered[len(early):] == serial_tail(router, early + late, len(early))


def test_autoscale_grow_inherits_templates_and_keeps_parity(erroneous_scenario):
    router = erroneous_scenario.provider
    seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
    stream = StreamingExplorer(
        workers=2, budget=BUDGET, queue_capacity=16, autoscale=True,
    )
    stream.start(router)
    require_processes(stream)
    assert stream._pool.grow(time.monotonic())
    assert [w.images for w in stream._pool.workers] == [{("", 0)}] * 2
    for peer, observed in seeds:
        stream.submit(peer, observed)
    report = stream.close()
    assert not report.errors, report.errors
    assert report.checkpoint_bytes_shipped == 0
    assert report.images_inherited == 2
    assert finding_keys(report) == serial_keys(router, seeds)


def test_add_tenant_on_running_pool_ships_materialized_images(
    erroneous_scenario,
):
    """A running process cannot inherit a template: the new tenant's
    template pickles to its state bytes once and ships to every worker."""
    router = erroneous_scenario.provider
    seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:3]
    stream = StreamingExplorer(workers=2, budget=BUDGET, queue_capacity=16)
    stream.start_nodes({"prov": router}, tenant="a")
    require_processes(stream)
    stream.add_tenant("b", {"prov": router})
    full = Checkpoint.capture(router, "b").size_bytes
    assert stream.report.checkpoint_bytes_shipped == 2 * full
    keys = {(scoped_node(t, "prov"), 0) for t in ("a", "b")}
    assert [w.images for w in stream._pool.workers] == [keys] * 2
    for tenant in ("a", "b"):
        for peer, observed in seeds:
            stream.submit(peer, observed, node="prov", tenant=tenant)
    report = stream.close()
    assert not report.errors, report.errors
    expected = serial_keys(router, seeds)
    for tenant in ("a", "b"):
        assert finding_keys(stream.tenant_report(tenant)) == expected, tenant


@pytest.mark.parametrize("force_serial", [False, True])
def test_no_superseded_template_outlives_close(mutable_scenario, force_serial):
    """Both sides of the ledger drop a superseded epoch with the ship
    that supersedes it."""
    router = mutable_scenario.provider
    early = mutable_scenario.dice.batch_seeds(all_seeds=True)[:2]
    probe = ("customer", seed_update("96.2.4.0/24"))
    stream = StreamingExplorer(
        workers=2, budget=BUDGET, queue_capacity=16, force_serial=force_serial,
    )
    stream.start(router)
    if not force_serial:
        require_processes(stream)
    for peer, observed in early:
        stream.submit(peer, observed)
    stream.drain()
    early_keys = serial_keys(router, early)
    for prefix in ("96.1.0.0/16", "96.2.0.0/16"):
        router.handle_update("customer", seed_update(prefix))
        stream.advance_epoch()
    stream.submit(*probe)
    report = stream.close()
    assert not report.errors, report.errors

    ordered = session_keys(report.reports_in_index_order())
    assert frozenset().union(*ordered[:len(early)]) == early_keys
    assert ordered[len(early):] == serial_tail(router, early + [probe], len(early))

    assert set(stream._images.retained) == {("", 2)}
    assert set(stream._images.templates()) == {("", 2)}
    for worker in stream._pool.workers:
        assert worker.images == {("", 2)}
        if force_serial:
            state = worker._state
            assert set(state.checkpoints) == {("", 2)}
