"""A deterministic discrete-event simulator.

The paper's testbed runs three BIRD instances over virtual interfaces on
one machine; our equivalent executes router nodes inside a single-threaded
event loop with explicit simulated time.  Determinism matters more than
wall-clock fidelity here — every experiment must replay identically from a
seed — so events at equal timestamps are ordered by insertion sequence,
and nothing ever reads the host clock.

The queue is sized for federation-scale waves (a 1000-AS exploratory
wave schedules hundreds of thousands of deliveries), so the internal
representation is deliberately flat: each heap entry is a plain list
``[time, seq, callback, state, payload]`` — no per-event object, and
comparison never reaches the callback because ``seq`` is unique.
:meth:`schedule_batch` is the bulk fast path: it enqueues many
deliveries for one shared handler without allocating an
:class:`EventHandle` (batch deliveries are uncancellable by contract);
:meth:`schedule_payload_at` is the same entry shape for one message at
an absolute time, the live network's send path.  :attr:`pending` is a
maintained live-event counter rather than a scan over the heap's
cancellation tombstones.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, List, Optional, Tuple

from repro.util.errors import SimulationError

EventCallback = Callable[[], None]

#: ``entry[3]`` lifecycle states.
_LIVE = 0
_CANCELLED = 1
_DONE = 2

#: ``entry[4]`` marker for classic no-argument callbacks; batch entries
#: carry their payload there instead and are invoked as ``callback(payload)``.
_NO_PAYLOAD = None

# Entry layout indices (entries are lists, not objects — see module doc).
_TIME, _SEQ, _CALLBACK, _STATE, _PAYLOAD = range(5)


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim

    def cancel(self) -> None:
        # Only a still-live event can be cancelled: cancelling twice, or
        # cancelling after the event fired, must not corrupt the live
        # counter.
        if self._entry[_STATE] == _LIVE:
            self._entry[_STATE] = _CANCELLED
            self._sim._live -= 1

    @property
    def cancelled(self) -> bool:
        return self._entry[_STATE] == _CANCELLED

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class Simulator:
    """Single-threaded priority-queue event loop with simulated time."""

    def __init__(self) -> None:
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        #: Scheduled-but-not-yet-executed events, cancellations excluded.
        #: Maintained incrementally so :attr:`pending` is O(1) — the old
        #: implementation scanned the whole heap (tombstones included)
        #: on every call, which convergence loops pay per wave.
        self._live = 0
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Run ``callback`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        entry = [self._now + delay, next(self._sequence), callback, _LIVE,
                 _NO_PAYLOAD]
        heapq.heappush(self._queue, entry)
        self._live += 1
        return EventHandle(entry, self)

    def schedule_at(self, when: float, callback: EventCallback) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        entry = [when, next(self._sequence), callback, _LIVE, _NO_PAYLOAD]
        heapq.heappush(self._queue, entry)
        self._live += 1
        return EventHandle(entry, self)

    def schedule_payload_at(
        self, when: float, handler: Callable[[object], None], payload: object
    ) -> None:
        """Run ``handler(payload)`` at absolute simulated time ``when``.

        The single-message form of :meth:`schedule_batch`: a shared
        handler and a flat payload instead of a closure, and no
        :class:`EventHandle`, so the delivery cannot be cancelled.  It is
        how :meth:`repro.net.channel.Network.transmit` puts a message on
        the wire.  ``payload`` must not be None: that slot value marks a
        no-argument callback.
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        heapq.heappush(
            self._queue, [when, next(self._sequence), handler, _LIVE, payload]
        )
        self._live += 1

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, object]],
        handler: Callable[[object], None],
    ) -> int:
        """Bulk-schedule ``handler(payload)`` for every ``(delay, payload)``.

        The fast path for fabric waves: one shared handler, one flat
        payload per delivery, no closure and no :class:`EventHandle`
        per message.  Batch deliveries cannot be cancelled — the fabric
        models a message already on the wire, and the only consumer that
        ever needed cancellation (timer re-arming) goes through
        :meth:`schedule`.  Returns the number of events enqueued.
        """
        queue = self._queue
        sequence = self._sequence
        now = self._now
        count = 0
        for delay, payload in entries:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay}s in the past")
            heapq.heappush(
                queue, [now + delay, next(sequence), handler, _LIVE, payload]
            )
            count += 1
        self._live += count
        return count

    def schedule_repeating(
        self, start: float, interval: float, count: int, callback: Callable[[int], None]
    ) -> List[EventHandle]:
        """Schedule ``count`` firings of ``callback(i)`` every ``interval``s.

        All occurrences are enqueued up front (not re-armed from the
        callback), so cancelling the returned handles reliably stops the
        train — the shape fault workloads (flap storms, rolling
        reconfigurations) need.
        """
        if interval <= 0:
            raise SimulationError(f"repeating interval must be > 0, got {interval}")
        if count < 0:
            raise SimulationError(f"repeat count must be >= 0, got {count}")
        return [
            self.schedule_at(
                start + i * interval, (lambda i=i: callback(i))
            )
            for i in range(count)
        ]

    def _pop_live(self) -> Optional[list]:
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            if entry[_STATE] == _LIVE:
                entry[_STATE] = _DONE
                self._live -= 1
                return entry
        return None

    def step(self) -> bool:
        """Execute the next pending event; False if the queue is empty."""
        entry = self._pop_live()
        if entry is None:
            return False
        self._now = entry[_TIME]
        self.events_executed += 1
        if entry[_PAYLOAD] is _NO_PAYLOAD:
            entry[_CALLBACK]()
        else:
            entry[_CALLBACK](entry[_PAYLOAD])
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (up to ``max_events``); returns events executed."""
        if self._running:
            raise SimulationError("simulator re-entered from within an event")
        self._running = True
        executed = 0
        # Hot loop: bind once, pop inline.  Equivalent to repeated
        # step() calls but without the per-event method dispatch.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue if max_events is None else (
                queue and executed < max_events
            ):
                entry = heappop(queue)
                if entry[_STATE] != _LIVE:
                    continue
                entry[_STATE] = _DONE
                self._live -= 1
                self._now = entry[_TIME]
                payload = entry[_PAYLOAD]
                if payload is _NO_PAYLOAD:
                    entry[_CALLBACK]()
                else:
                    entry[_CALLBACK](payload)
                executed += 1
        finally:
            self.events_executed += executed
            self._running = False
        return executed

    def run_until(self, deadline: float) -> int:
        """Execute events with time <= ``deadline``; clock ends at deadline."""
        if deadline < self._now:
            raise SimulationError(f"deadline {deadline} is in the past")
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head[_STATE] != _LIVE:
                heapq.heappop(self._queue)
                continue
            if head[_TIME] > deadline:
                break
            self.step()
            executed += 1
        self._now = max(self._now, deadline)
        return executed

    @property
    def pending(self) -> int:
        """Events scheduled and not yet executed (cancellations excluded)."""
        return self._live

    def idle(self) -> bool:
        return self._live == 0
