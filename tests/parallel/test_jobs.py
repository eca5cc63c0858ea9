"""The job lifecycle table, process-free.

Every arrow of the diagram in ``repro.parallel.jobs`` is walked once,
everything the diagram lacks is refused, and "first result wins" is
checked as what it now is: a property of :meth:`JobTable.finish`.
"""

import itertools

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.parallel.jobs import JobState, JobTable, StreamJob

S = JobState
OBSERVED = UpdateMessage(attributes=PathAttributes(as_path=AsPath.sequence([65020])))

#: Every legal walk from submission to a terminal state.
LIFECYCLES = [
    [S.DISPATCHED, S.DONE],
    [S.DISPATCHED, S.FAILED],
    [S.DISPATCHED, S.QUARANTINED],
    [S.DISPATCHED, S.SALVAGED, S.DONE],
    [S.DISPATCHED, S.SALVAGED, S.FAILED],
    [S.DISPATCHED, S.RETRY, S.DISPATCHED, S.DONE],
    [S.DISPATCHED, S.RETRY, S.SALVAGED, S.DONE],
    [S.DISPATCHED, S.RETRY, S.QUARANTINED],
    [S.DISPATCHED, S.RETRY, S.DONE],      # late result beat the retry
    [S.DISPATCHED, S.RETRY, S.FAILED],
    [S.COALESCED],
    [S.DROPPED],
]
TERMINAL = {S.DONE, S.FAILED, S.QUARANTINED, S.COALESCED, S.DROPPED}


def job(index=0, epoch=0, node=""):
    return StreamJob(index=index, epoch=epoch, peer="customer",
                     observed=OBSERVED, node=node)


def walk(table, record, states):
    for state in states:
        table.move(record, state, slot=0, at=1.0)


class TestLifecycle:
    @pytest.mark.parametrize(
        "states", LIFECYCLES, ids=lambda s: ">".join(x.value for x in s)
    )
    def test_every_legal_walk_ends_with_an_empty_table(self, states):
        table = JobTable()
        record = table.add(job())
        assert (len(table), table.queued, table.in_flight) == (1, 1, 0)
        assert table.claimed_epochs("") == {0}
        walk(table, record, states)
        assert record.state is states[-1] and not record.live
        assert (len(table), table.queued, table.in_flight) == (0, 0, 0)
        assert table.claimed_epochs("") == set()
        assert table.next_retry() is None

    def test_the_walks_cover_every_legal_transition_and_no_other(self):
        """Whatever LIFECYCLES does not walk, the table refuses."""
        walked = set()
        for states in LIFECYCLES:
            walked.update(zip([S.QUEUED] + states, states))
        for before, after in itertools.product(S, S):
            table = JobTable()
            record = table.add(job())
            path = next(
                ([S.QUEUED] + states for states in LIFECYCLES
                 if before in [S.QUEUED] + states),
            )
            walk(table, record, path[1:path.index(before) + 1])
            assert record.state is before
            if (before, after) in walked:
                table.move(record, after, slot=0, at=2.0)
                assert record.state is after
            else:
                with pytest.raises(ValueError, match="illegal transition"):
                    table.move(record, after, slot=0, at=2.0)
                assert record.state is before

    def test_a_finished_job_cannot_be_dispatched_again(self):
        table = JobTable()
        record = table.add(job())
        walk(table, record, [S.DISPATCHED, S.DONE])
        with pytest.raises(ValueError, match="done -> dispatched"):
            table.move(record, S.DISPATCHED, slot=1, at=3.0)
        assert table.in_flight == 0

    def test_first_result_wins(self):
        table = JobTable()
        record = table.add(job(index=7))
        assert table.finish(("", 7), S.DONE) is None      # never dispatched
        assert record.state is S.QUEUED
        table.move(record, S.DISPATCHED, slot=0, at=1.0)
        assert table.finish(("", 7), S.DONE) is record
        assert table.finish(("", 7), S.DONE) is None      # the late duplicate
        assert table.finish(("", 7), S.FAILED) is None
        assert record.state is S.DONE
        assert table.finish(("", 8), S.DONE) is None      # unknown key

    def test_a_finished_record_keeps_its_last_attempt(self):
        table = JobTable()
        record = table.add(job())
        table.move(record, S.DISPATCHED, slot=3, at=5.0)
        table.finish(record.job.key, S.DONE)
        assert (record.slot, record.dispatched_at) == (3, 5.0)


class TestIndexes:
    def test_retry_queue_is_ordered_and_holds_only_retries(self):
        table = JobTable()
        records = [table.add(job(index=i)) for i in range(3)]
        for record in records:
            table.move(record, S.DISPATCHED, slot=0, at=1.0)
        for record in (records[2], records[0]):
            table.move(record, S.RETRY)
        assert (records[2].slot, records[2].dispatched_at) == (None, None)
        assert table.next_retry() is records[2]
        table.finish(records[2].job.key, S.DONE)          # late result
        assert table.next_retry() is records[0]
        table.move(records[0], S.DISPATCHED, slot=1, at=2.0)
        assert table.next_retry() is None
        assert table.in_flight == 2

    def test_on_slot_and_oldest_attempt(self):
        table = JobTable()
        a, b, c = (table.add(job(index=i, node="as1")) for i in (2, 0, 1))
        table.move(a, S.DISPATCHED, slot=0, at=3.0)
        table.move(b, S.DISPATCHED, slot=0, at=1.0)
        table.move(c, S.DISPATCHED, slot=1, at=2.0)
        assert table.on_slot(0) == [b, a]                 # key order
        assert table.on_slot(1) == [c]
        assert table.oldest_attempt() == 1.0
        table.move(b, S.RETRY)                            # no clock, no slot
        assert table.on_slot(0) == [a]
        assert table.oldest_attempt() == 2.0
        assert table.queued == 0 and table.in_flight == 3

    def test_claims_count_live_records_per_node_and_epoch(self):
        table = JobTable()
        old = [table.add(job(index=i, epoch=0, node="as1")) for i in range(2)]
        new = table.add(job(index=2, epoch=1, node="as1"))
        other = table.add(job(index=0, epoch=4, node="as2"))
        assert table.claimed_epochs("as1") == {0, 1}
        assert table.claimed_epochs("as2") == {4}
        table.move(old[0], S.COALESCED)                   # releases a claim…
        assert table.claimed_epochs("as1") == {0, 1}      # …not the last one
        walk(table, old[1], [S.DISPATCHED, S.RETRY])
        assert table.claimed_epochs("as1") == {0, 1}      # retry still claims
        table.move(old[1], S.QUARANTINED)
        assert table.claimed_epochs("as1") == {1}
        walk(table, new, [S.DISPATCHED, S.DONE])
        table.move(other, S.DROPPED)
        assert table.claimed_epochs("as1") == table.claimed_epochs("as2") == set()
        assert len(table) == 0
