"""Online scheduling: exploration rounds alongside the running system.

The paper's deployment model pins the live BIRD process and the explorer
on separate cores, with the explorer sharing one core with its clones and
exploration happening "off the critical path" (section 3.2, 4.1).  In the
single-threaded simulator the analogue is interleaving: the scheduler
fires an exploration round every ``interval`` simulated seconds, between
message deliveries.  The live node is paused exactly for the duration of
each round — which is what the CPU benchmark measures as overhead, the
same way the paper measures updates/second with exploration on and off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.concolic.engine import ExplorationBudget
from repro.core.dice import DiCE
from repro.net.node import NodeHost

if TYPE_CHECKING:  # avoids the runtime core <-> parallel import cycle
    from repro.parallel.options import PoolOptions


@dataclass
class ScheduleConfig:
    """When and how much to explore."""

    interval: float = 60.0            # simulated seconds between rounds
    budget: ExplorationBudget = field(
        default_factory=lambda: ExplorationBudget(max_executions=48)
    )
    peer: Optional[str] = None        # restrict seeds to one peer
    max_rounds: Optional[int] = None  # stop after this many rounds
    start_after: float = 0.0          # delay before the first round
    all_seeds: bool = False           # explore every buffered seed, not one
    #: The pool the stream runs on; batch rounds take its ``workers``
    #: (spare cores per round).  ``None``: the DiCE's defaults — one
    #: worker, and stream queues as deep as its observation buffers.
    pool: Optional[PoolOptions] = None
    #: Streaming mode: the scheduler opens a DiCE stream on start() and
    #: each round becomes an *epoch boundary* (re-checkpoint shipping
    #: only the delta, then harvest) instead of a batch fan-out — seeds
    #: flow to the persistent workers continuously via observe().
    stream: bool = False
    #: Re-arm delay multiplier per *consecutive* failed round.  After k
    #: failures in a row the next round is scheduled
    #: ``min(cap, interval * failure_backoff ** k)`` seconds out, so a
    #: persistently broken checkpoint (dead solver, full disk) stops
    #: hammering the live node every interval.  One success resets the
    #: streak and the cadence.
    failure_backoff: float = 2.0
    #: Cap on the backed-off delay, in simulated seconds.  ``0.0`` means
    #: auto: ``interval * 16`` (four doublings at the default factor).
    failure_backoff_cap: float = 0.0


@dataclass
class ScheduleStats:
    rounds_fired: int = 0
    rounds_skipped: int = 0           # fired with no observed seed yet
    rounds_failed: int = 0            # round raised; scheduler kept running
    wall_seconds: float = 0.0
    last_fired_at: float = 0.0
    last_error: str = ""              # message of the most recent failure
    #: Extra delay applied to the *next* round after the most recent
    #: failure (the full backed-off interval); 0.0 while rounds succeed.
    backoff_seconds: float = 0.0


class OnlineScheduler:
    """Drives periodic DiCE rounds on the simulator's clock."""

    def __init__(self, host: NodeHost, dice: DiCE, config: Optional[ScheduleConfig] = None):
        self.host = host
        self.dice = dice
        self.config = config or ScheduleConfig()
        self.stats = ScheduleStats()
        self._stopped = False
        self._handle = None
        self._consecutive_failures = 0

    def start(self) -> None:
        """Arm the first round (and open the stream, in streaming mode)."""
        self._stopped = False
        self._consecutive_failures = 0
        if self.config.stream:
            self.dice.stream_start(self.config.pool, budget=self.config.budget)
        delay = self.config.start_after or self.config.interval
        self._handle = self.host.set_timer(delay, self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self.config.stream:
            # Drains in-flight work and folds the remaining findings
            # into dice.rounds; a no-op if no stream is active.
            self.dice.stream_stop()

    @property
    def running(self) -> bool:
        return not self._stopped

    def _run_round(self):
        """One scheduled unit of work: a round, a batch, or an epoch."""
        if self.config.stream:
            # Streaming: seeds flow to the workers continuously through
            # observe(); the scheduled tick is the *epoch boundary* —
            # re-checkpoint the live node (shipping only the changed
            # segments) and harvest whatever completed since last tick.
            info = self.dice.stream_epoch()
            return info if info.get("harvested") else None
        # Parallel knobs are passed only when set, so DiCE-compatible
        # stand-ins with the original run_round signature keep working.
        kwargs = {}
        workers = self.config.pool.workers if self.config.pool else 1
        if workers > 1 or self.config.all_seeds:
            kwargs = {"parallel": workers, "all_seeds": self.config.all_seeds}
        return self.dice.run_round(
            peer=self.config.peer, budget=self.config.budget, **kwargs
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        started = time.perf_counter()
        failed = False
        report = None
        try:
            report = self._run_round()
        except Exception as exc:  # noqa: BLE001 - containment is the point
            # A failed round must not kill the scheduler: before this
            # guard an exception escaping run_round left the timer
            # permanently un-armed and online testing silently stopped.
            # That holds for ExplorationError/CheckpointError and just
            # as much for a PicklingError out of a worker pool — so the
            # net is deliberately wide.  Count it, remember it, re-arm;
            # the next round gets a fresh checkpoint and usually
            # succeeds.
            failed = True
            self.stats.rounds_failed += 1
            self.stats.last_error = f"{type(exc).__name__}: {exc}"
        self.stats.wall_seconds += time.perf_counter() - started
        self.stats.last_fired_at = self.host.sim.now
        if not failed:
            self._consecutive_failures = 0
            self.stats.backoff_seconds = 0.0
            if report is None:
                self.stats.rounds_skipped += 1
            else:
                self.stats.rounds_fired += 1
        else:
            self._consecutive_failures += 1
        if (
            self.config.max_rounds is not None
            and self.stats.rounds_fired >= self.config.max_rounds
        ):
            self.stop()
            return
        delay = self.config.interval
        if self._consecutive_failures:
            # Exponential backoff with a cap: k straight failures push
            # the next attempt interval * factor**k out (capped), so a
            # wedged round source degrades to a slow probe instead of a
            # hot loop.  The applied delay is surfaced in the stats.
            delay = self._backoff_delay(self._consecutive_failures)
            self.stats.backoff_seconds = delay
        self._handle = self.host.set_timer(delay, self._fire)

    def _backoff_delay(self, failures: int) -> float:
        cap = self.config.failure_backoff_cap or self.config.interval * 16.0
        factor = max(1.0, self.config.failure_backoff)
        return min(cap, self.config.interval * factor**failures)


@dataclass
class ThroughputProbe:
    """Measures live update throughput in wall-clock terms.

    The CPU benchmark wraps a replay with one probe per configuration
    (exploration on / off) and compares ``updates_per_second`` — the
    paper's "number of BGP update messages the DiCE-enabled router
    handles per second".
    """

    updates_processed: int = 0
    wall_seconds: float = 0.0
    _started: float = 0.0

    def __enter__(self) -> "ThroughputProbe":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_seconds = time.perf_counter() - self._started

    @property
    def updates_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.updates_processed / self.wall_seconds


def measure_throughput(
    host: NodeHost,
    router_counters,
    run_until: Optional[float] = None,
) -> ThroughputProbe:
    """Drain the host's event queue, counting the router's update intake."""
    before = router_counters["updates_received"]
    probe = ThroughputProbe()
    with probe:
        if run_until is None:
            host.run()
        else:
            host.run_until(run_until)
    probe.updates_processed = router_counters["updates_received"] - before
    return probe
