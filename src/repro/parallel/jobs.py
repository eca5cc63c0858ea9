"""Streamed jobs and their lifecycle: one record per seed, one table.

A submitted seed becomes a :class:`JobRecord` at once — index, tenant
and **epoch bound at submission**, so which checkpoint a seed explores
is decided by the coordinator's inputs alone, never by when a worker
had a free slot — and the record carries its own state to the end::

    queued ──► dispatched ──► done
      │          │  ▲  │  ├──► failed        (the worker returned an error)
      │          │  │  │  └──► quarantined   (hang-retry budget exhausted)
      │          ▼  │  └──► salvaged ──► done | failed
      │         retry ────►  (re-run in process: its worker died, or
      │      (worker hung)    hung and none is left or coming back)
      ├──► coalesced   (superseded in a full per-peer queue)
      └──► dropped     (payload cannot cross the process boundary)

(a record in ``retry`` can also be quarantined, or finished by a late
result from its killed worker's queue.)

:class:`JobTable` is the only place that state changes.  It refuses
transitions the diagram lacks, keeps the ordered retry queue (of
records, not a second truth), and counts every live record's claim on
its ``(node, epoch)`` image — what retention on both sides of the pipe
is computed from.  "First result wins" is :meth:`JobTable.finish`
answering ``None`` for a key that is not in flight.

Determinism matches the serial loop: the per-job strategy RNG derives
from the per-node arrival index exactly as the loop's jobs derive from
their batch position, and a retried or salvaged job re-derives the same
RNG — recovery never changes a finding set.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.bgp.messages import UpdateMessage
from repro.parallel.chaos import ChaosDirective

Seed = Tuple[str, UpdateMessage]

#: ``(node, index)`` — the globally unique identity of one streamed job.
#: Indices are assigned per node so each AS's sessions derive the same
#: strategy RNG as that AS's jobs in the serial loop, whatever else
#: shares the pool.
JobKey = Tuple[str, int]

#: ``(node, epoch)`` — the identity of one checkpoint image.
ImageKey = Tuple[str, int]

#: The node key of a single-node stream (``start(live_router)``).
DEFAULT_NODE = ""

#: The implicit tenant of a single-federation stream.  Tenancy is pure
#: namespacing: with the default tenant every key reduces to the plain
#: node name and the stream behaves exactly as before service mode.
DEFAULT_TENANT = ""

#: Separator between tenant and node inside a scoped node key.  A
#: control character no topology generator or scenario name uses, so
#: scoped keys cannot collide with plain ones.
TENANT_SEP = "\x1f"


def scoped_node(tenant: str, node: str) -> str:
    """The internal node key: plain for the default tenant."""
    return f"{tenant}{TENANT_SEP}{node}" if tenant else node


def tenant_of(scoped: str) -> str:
    return scoped.split(TENANT_SEP, 1)[0] if TENANT_SEP in scoped else ""


def plain_node(scoped: str) -> str:
    return scoped.split(TENANT_SEP, 1)[1] if TENANT_SEP in scoped else scoped


def display_node(scoped: str) -> str:
    """Human-readable form of a scoped node key (reports, errors)."""
    return scoped.replace(TENANT_SEP, ":", 1)


@dataclass
class StreamJob:
    """One seed's exploration session, shipped *without* its checkpoint.

    The checkpoint is resident in the worker (a template inherited when
    it was built, or shipped at an epoch boundary), as are the engine
    options (given when it was built); the job
    names the ``(node, epoch)`` image it runs against.
    ``index`` is the seed's arrival number *within its node* — the
    strategy RNG derives from it exactly as a serial-loop job derives
    from its batch position, which is what makes the stream's finding
    set equal the loop's, per AS, even when many ASes share the pool.
    """

    index: int
    epoch: int
    peer: str
    observed: UpdateMessage
    node: str = DEFAULT_NODE
    #: Dispatch sequence number, reassigned fresh on every (re)dispatch;
    #: the value workers stamp into their progress beacon, mapping a
    #: "busy since t" observation back to one job.  Never feeds the
    #: strategy RNG — retries stay bit-identical to the first attempt.
    seq: int = 0
    #: Injected fault (chaos harness only); ``None`` in production.
    chaos: Optional[ChaosDirective] = None

    @property
    def key(self) -> JobKey:
        return (self.node, self.index)

    @property
    def image_key(self) -> ImageKey:
        return (self.node, self.epoch)

    def describe(self) -> str:
        where = f"{display_node(self.node)}:{self.peer}" if self.node else self.peer
        return f"job {self.index} ({where})"


class JobState(enum.Enum):
    QUEUED = "queued"
    DISPATCHED = "dispatched"
    RETRY = "retry"
    SALVAGED = "salvaged"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"
    COALESCED = "coalesced"
    DROPPED = "dropped"


_S = JobState
_LEGAL = {
    _S.QUEUED: {_S.DISPATCHED, _S.COALESCED, _S.DROPPED},
    _S.DISPATCHED: {_S.DONE, _S.FAILED, _S.RETRY, _S.SALVAGED, _S.QUARANTINED},
    _S.RETRY: {_S.DISPATCHED, _S.SALVAGED, _S.QUARANTINED, _S.DONE, _S.FAILED},
    _S.SALVAGED: {_S.DONE, _S.FAILED},
}
#: States that hold an in-flight slot: handed to a worker at least once
#: and not finished.  Retries wait here, not in the pending queues, so
#: ``idle`` stays False and ``max_inflight`` is not spent twice.
_IN_FLIGHT = (_S.DISPATCHED, _S.RETRY, _S.SALVAGED)


@dataclass(eq=False)
class JobRecord:
    """One submitted seed and everything the coordinator knows about it."""

    job: StreamJob
    state: JobState = JobState.QUEUED
    #: Worker slot of the current attempt (-1 is the in-process worker).
    slot: Optional[int] = None
    #: Coordinator clock at the *latest* attempt's dispatch.
    dispatched_at: Optional[float] = None
    #: Hang kills this job was the suspect of (the retry budget's meter).
    hang_retries: int = 0

    @property
    def live(self) -> bool:
        return self.state in _LEGAL


class JobTable:
    """Every live record — in-flight ones by key, queued ones (held by
    the pending queues) by count; the one writer of ``JobRecord.state``."""

    def __init__(self) -> None:
        self.queued = 0
        self._in_flight: Dict[JobKey, JobRecord] = {}
        self._retries: Deque[JobRecord] = deque()
        #: node -> epoch -> live records that will run against that image.
        self._claims: Dict[str, Counter] = {}

    def __len__(self) -> int:
        return self.queued + len(self._in_flight)

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def add(self, job: StreamJob) -> JobRecord:
        """A seed enters the stream: queued, claiming its bound image."""
        record = JobRecord(job)
        self.queued += 1
        self._claims.setdefault(job.node, Counter())[job.epoch] += 1
        return record

    def claimed_epochs(self, node: str) -> Set[int]:
        """Epochs of ``node`` that some live record is bound to."""
        return set(self._claims.get(node, ()))

    def move(
        self,
        record: JobRecord,
        state: JobState,
        slot: Optional[int] = None,
        at: Optional[float] = None,
    ) -> None:
        """The only state change there is; refuses what the diagram lacks."""
        if state not in _LEGAL.get(record.state, ()):
            raise ValueError(
                f"{record.job.describe()}: illegal transition "
                f"{record.state.value} -> {state.value}"
            )
        if record.state is _S.RETRY:
            self._retries.remove(record)
        self.queued -= record.state is _S.QUEUED
        record.state = state
        if record.live:
            # A finished record keeps its last attempt's slot and clock.
            record.slot, record.dispatched_at = slot, at
        if state is _S.RETRY:
            self._retries.append(record)
        if state in _IN_FLIGHT:
            self._in_flight[record.job.key] = record
        else:  # finished: the record and its image claim leave the table
            self._in_flight.pop(record.job.key, None)
            claims = self._claims[record.job.node]
            claims[record.job.epoch] -= 1
            if not claims[record.job.epoch]:
                del claims[record.job.epoch]

    def finish(self, key: JobKey, state: JobState) -> Optional[JobRecord]:
        """A worker answered for ``key``.  First result wins: a key that
        is not in flight (finished already, or never dispatched) is
        ``None`` and the answer is to be ignored."""
        record = self._in_flight.get(key)
        if record is not None:
            self.move(record, state)
        return record

    def on_slot(self, slot: int) -> List[JobRecord]:
        """Records whose current attempt sits on ``slot``, in key order."""
        return sorted(
            (r for r in self._in_flight.values() if r.slot == slot),
            key=lambda record: record.job.key,
        )

    def next_retry(self) -> Optional[JobRecord]:
        """The oldest record waiting for re-dispatch (not removed)."""
        return self._retries[0] if self._retries else None

    def oldest_attempt(self) -> Optional[float]:
        """Dispatch time of the longest-running attempt, if any."""
        attempts = [r.dispatched_at for r in self._in_flight.values()]
        return min((at for at in attempts if at is not None), default=None)
