"""Exactly-once job accounting, as a property of a closed stream.

Whatever happened in between — every registered chaos plan, an elastic
grow-then-shrink, coalescing, an unpicklable seed, epochs advancing
under queued work — after ``close()``:

* every submitted seed ended exactly one way (completed, coalesced,
  dropped, quarantined, or a per-job error);
* the job table is empty (nothing queued, in flight, or claiming);
* the only images still retained are the nodes' current epochs.
"""

import re
import time

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.concolic.engine import ExplorationBudget
from repro.parallel import CHAOS_PLANS, StreamingExplorer
from repro.util.ip import Prefix, ip_to_int

BUDGET = ExplorationBudget(max_executions=10)

#: A worker's error for one job — not a dropped seed's, not the pool's.
JOB_ERROR = re.compile(r"job \d+ \([^)]*\): ")


def seed_update(prefix="10.10.1.0/24"):
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([65020]), next_hop=ip_to_int("10.0.0.2")
        ),
        nlri=[NlriEntry.from_prefix(Prefix.parse(prefix))],
    )


def assert_exactly_once(stream, report):
    job_errors = [e for e in report.errors if JOB_ERROR.match(e)]
    assert report.seeds_submitted == (
        report.jobs_completed
        + report.seeds_coalesced
        + report.jobs_dropped
        + len(report.quarantined)
        + len(job_errors)
    ), report.summary()
    # Completed means harvested once: no index reported twice.
    assert len(set(report.indices)) == len(report.indices)
    table = stream._jobs
    assert (len(table), table.queued, table.in_flight) == (0, 0, 0)
    assert table.next_retry() is None
    images = stream._images
    assert not any(table.claimed_epochs(node) for node in images.current)
    assert set(images.retained) == {
        image.image_key for image in images.current.values()
    }


def require_processes(stream):
    if not stream.report.used_processes:
        stream.close()
        pytest.skip("no process workers on this host")


@pytest.mark.parametrize("plan", sorted(CHAOS_PLANS))
def test_every_chaos_plan_accounts_for_every_seed(erroneous_scenario, plan):
    seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:5]
    stream = StreamingExplorer(
        workers=2, budget=BUDGET, queue_capacity=16, restart_backoff=0.01,
        chaos=CHAOS_PLANS[plan],
    )
    stream.start(erroneous_scenario.provider)
    require_processes(stream)
    for peer, observed in seeds:
        stream.submit(peer, observed)
    # An epoch boundary under in-flight (and possibly lost) epoch-0 work.
    stream.advance_epoch()
    report = stream.close()
    assert report.chaos_events
    assert len(report.quarantined) == int(CHAOS_PLANS[plan].quarantines)
    assert report.jobs_completed == len(seeds) - len(report.quarantined)
    assert_exactly_once(stream, report)


def test_grow_then_shrink_accounts_for_every_seed(erroneous_scenario):
    seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
    stream = StreamingExplorer(
        workers=2, budget=BUDGET, queue_capacity=16, autoscale=True,
        restart_backoff=0.01,
    )
    stream.start(erroneous_scenario.provider)
    require_processes(stream)
    assert stream._pool.grow(time.monotonic())
    for peer, observed in seeds:
        stream.submit(peer, observed)
    # Retire the grown worker with its share of the jobs still queued on
    # it, and cross an epoch while it drains.
    assert stream._pool.shrink(time.monotonic())
    stream.advance_epoch()
    report = stream.close()
    assert not report.errors, report.errors
    assert report.jobs_completed == len(seeds)
    assert_exactly_once(stream, report)


def test_coalesced_and_dropped_seeds_are_accounted(erroneous_scenario):
    class UnpicklableUpdate(UpdateMessage):
        def __reduce__(self):
            raise TypeError("deliberately unpicklable")

    good = seed_update()
    bad = UnpicklableUpdate(attributes=good.attributes, nlri=list(good.nlri))
    stream = StreamingExplorer(
        workers=1, budget=BUDGET, queue_capacity=2, max_inflight=1
    )
    stream.start(erroneous_scenario.provider)
    require_processes(stream)
    stream.submit("customer", good)          # dispatched at once
    stream.submit("customer", seed_update("10.10.2.0/24"))
    stream.submit("customer", bad)
    stream.advance_epoch()                   # epoch-0 seeds still queued
    stream.submit("customer", seed_update("10.10.3.0/24"))   # supersedes one
    stream.submit("customer", seed_update("10.10.4.0/24"))   # and another
    report = stream.close(timeout=60)
    assert report.seeds_submitted == 5
    # The bad seed was superseded in the queue or refused at dispatch.
    assert report.seeds_coalesced + report.jobs_dropped >= 1
    assert_exactly_once(stream, report)
