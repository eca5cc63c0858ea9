"""Pool policy and membership: who works, who comes back, how many.

A *service* cannot let its pool shrink monotonically, so beyond salvage
(a dead worker's jobs are re-run elsewhere; a host that cannot fork
runs on one in-process worker):

* a :class:`WorkerSupervisor` **respawns** dead workers at their slot
  with exponential backoff, deterministic jitter and a per-slot restart
  cap (``max_restarts=0``: the pool only shrinks), and the replacement
  inherits every retained checkpoint template when it forks;
* a :class:`PoolAutoscaler` grows and shrinks the pool between
  ``min_workers`` and ``max_workers`` on observed backlog and drain
  rate.  A shrink retires the *highest* slot gracefully — STOP queues
  behind its in-flight work — while a slot lost to a crash still
  respawns;
* the wait is **event-driven**: :meth:`WorkerPool.wait` blocks on the
  workers' result pipes and sentinels, so neither harvest latency nor
  crash detection has a polling floor.

Both policies are pure bookkeeping; :class:`WorkerPool` owns the
processes.  Every one is created in :meth:`WorkerPool._spawn`, through
the ``spawn`` callable the pool was given, and every ``now`` is the
coordinator's — the seams a deterministic simulation substitutes.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Set

from repro.checkpoint.snapshot import Checkpoint
from repro.parallel.jobs import ImageKey
from repro.parallel.options import EngineOptions
from repro.parallel.reports import StreamReport
from repro.parallel.transport import (
    MSG_STOP,
    _InlineWorker,
    _WorkerHandle,
)
from repro.util.rng import derive_rng

#: Minimum seconds between supervision sweeps (progress-beacon reads).
HEARTBEAT_INTERVAL = 0.05

#: Ceiling of the exponential respawn backoff, in seconds.
RESTART_BACKOFF_CAP = 2.0

#: What a host that cannot start a worker process raises.
SPAWN_ERRORS = (OSError, PermissionError, ValueError)


class WorkerSupervisor:
    """Respawn policy for dead worker slots: backoff, jitter, restart caps.

    Pure bookkeeping — the coordinator owns the actual process
    spawning; the supervisor decides *whether* a slot may
    come back and *when*.  The backoff schedule is deterministic: the
    jitter for (slot, attempt) derives from the stream's strategy seed,
    so two runs of the same chaos plan respawn at the same offsets and
    the schedule is unit-testable as a pure function.

    Jitter matters even single-host: N workers killed by one cause (an
    OOM sweep, a chaos plan) would otherwise respawn in lockstep and
    re-fork N processes in the same instant — the thundering herd the
    backoff exists to avoid.
    """

    def __init__(
        self,
        max_restarts: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = RESTART_BACKOFF_CAP,
        seed: int = 0,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if backoff <= 0 or backoff_cap < backoff:
            raise ValueError(
                f"need 0 < backoff <= backoff_cap, got {backoff}/{backoff_cap}"
            )
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.seed = seed
        #: Restart attempts consumed per slot (successful or failed).
        self._attempts: Dict[int, int] = {}
        #: Slots awaiting respawn, by due time.
        self._due: Dict[int, float] = {}
        #: Slots that burned through their restart budget; stay dead.
        self.exhausted: Set[int] = set()

    def backoff_delay(self, slot: int, attempt: int) -> float:
        """Delay before restart ``attempt`` of ``slot`` (deterministic).

        Exponential base capped at ``backoff_cap``, then jittered into
        ``[0.5x, 1.5x]`` so the expected delay equals the base.
        """
        base = min(self.backoff_cap, self.backoff * (2.0 ** attempt))
        rng = derive_rng(self.seed, "supervisor", slot, attempt)
        return base * (0.5 + rng.random())

    def note_death(self, slot: int, now: float) -> bool:
        """A worker at ``slot`` died; schedule its respawn if budget allows.

        Returns True when a respawn is (or already was) scheduled;
        idempotent for a slot already pending.
        """
        if slot in self._due:
            return True
        attempt = self._attempts.get(slot, 0)
        if attempt >= self.max_restarts:
            self.exhausted.add(slot)
            return False
        self._due[slot] = now + self.backoff_delay(slot, attempt)
        return True

    def due_slots(self, now: float) -> List[int]:
        return sorted(slot for slot, due in self._due.items() if due <= now)

    def respawned(self, slot: int) -> None:
        self._due.pop(slot, None)
        self._attempts[slot] = self._attempts.get(slot, 0) + 1

    def respawn_failed(self, slot: int, now: float) -> bool:
        """The spawn itself failed; burn the attempt and rebook or give up."""
        self.respawned(slot)
        return self.note_death(slot, now)

    @property
    def pending(self) -> bool:
        """Is any slot scheduled to come back?"""
        return bool(self._due)

    def next_due(self) -> Optional[float]:
        return min(self._due.values()) if self._due else None

    def reset_slot(self, slot: int) -> None:
        """Forget a slot's restart history (retire/re-create boundary).

        A slot number names a *position*, not a worker: when a shrink
        retires the worker at a slot and a later grow creates a fresh
        one there, the replacement is a new logical worker and must get
        the full restart budget.  Without this, attempts accrued by the
        retired worker (or by a crash-looping predecessor) would leak
        into its unrelated successor and could exhaust it on its first
        real death.
        """
        self._attempts.pop(slot, None)
        self._due.pop(slot, None)
        self.exhausted.discard(slot)


class PoolAutoscaler:
    """Grow/shrink policy for an elastic streaming pool.

    Pure bookkeeping, like :class:`WorkerSupervisor`: the coordinator
    owns spawning and retiring; the autoscaler decides *whether* the
    pool should change size, from the observed backlog and drain-rate
    series alone.  Decisions are deterministic for a given observation
    series — tick-interval jitter derives from the strategy seed — so a
    replayed workload produces the same resize sequence.

    The signal is **backlog per worker** (pending seeds plus in-flight
    jobs, over the dispatchable pool), folded through an EWMA so one
    bursty submit cannot flap the pool.  Hysteresis requires the signal
    to hold above ``grow_threshold`` (or below ``shrink_threshold``)
    for ``hysteresis`` consecutive ticks before a resize, and every
    decision resets the streaks, so the pool moves one worker per
    settled observation window — never a thundering resize.
    """

    def __init__(
        self,
        min_workers: int = 1,
        max_workers: int = 1,
        interval: float = 0.05,
        grow_threshold: float = 3.0,
        shrink_threshold: float = 0.5,
        hysteresis: int = 2,
        decay: float = 0.5,
        seed: int = 0,
    ) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"need min_workers <= max_workers, got "
                f"{min_workers}/{max_workers}"
            )
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if shrink_threshold < 0 or grow_threshold <= shrink_threshold:
            raise ValueError(
                f"need 0 <= shrink_threshold < grow_threshold, got "
                f"{shrink_threshold}/{grow_threshold}"
            )
        if hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.interval = interval
        self.grow_threshold = grow_threshold
        self.shrink_threshold = shrink_threshold
        self.hysteresis = hysteresis
        self.decay = decay
        self.seed = seed
        self._ewma: Optional[float] = None
        self._drain_rate = 0.0
        self._high_streak = 0
        self._low_streak = 0
        self._ticks = 0
        self._last_tick: Optional[float] = None
        self._last_completed = 0

    def _jittered_interval(self, tick: int) -> float:
        """The tick period, jittered into [0.75x, 1.25x] (deterministic).

        Same rationale as the supervisor's backoff jitter: many streams
        on one host should not all re-evaluate (and possibly fork) in
        the same instant.
        """
        rng = derive_rng(self.seed, "autoscaler", tick)
        return self.interval * (0.75 + 0.5 * rng.random())

    def next_tick(self) -> Optional[float]:
        """When the next observation is due (None before the first)."""
        if self._last_tick is None:
            return None
        return self._last_tick + self._jittered_interval(self._ticks)

    @property
    def drain_rate(self) -> float:
        """EWMA of completed jobs per second (reports/benchmarks)."""
        return self._drain_rate

    def observe(
        self,
        now: float,
        pending: int,
        inflight: int,
        completed: int,
        alive: int,
    ) -> Optional[str]:
        """Fold one observation; returns ``"grow"``, ``"shrink"`` or None.

        Rate-limited to the jittered tick interval: calls between ticks
        are free (one comparison).  The caller re-validates the decision
        against the live pool — the autoscaler's ``alive`` is a snapshot
        that a chaos kill may have outdated by the time the resize runs.
        """
        if self._last_tick is None:
            # First call establishes the baseline; no decision yet.
            self._last_tick = now
            self._last_completed = completed
            return None
        due = self.next_tick()
        if due is not None and now < due:
            return None
        elapsed = max(now - self._last_tick, 1e-9)
        self._ticks += 1
        self._last_tick = now
        drained = (completed - self._last_completed) / elapsed
        self._last_completed = completed
        self._drain_rate += self.decay * (drained - self._drain_rate)
        load = (pending + inflight) / max(1, alive)
        if self._ewma is None:
            self._ewma = load
        else:
            self._ewma += self.decay * (load - self._ewma)
        if self._ewma > self.grow_threshold:
            self._high_streak += 1
            self._low_streak = 0
        elif self._ewma < self.shrink_threshold:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0
        if self._high_streak >= self.hysteresis and alive < self.max_workers:
            self._high_streak = 0
            self._low_streak = 0
            return "grow"
        if self._low_streak >= self.hysteresis and alive > self.min_workers:
            self._high_streak = 0
            self._low_streak = 0
            return "shrink"
        return None


class WorkerPool:
    """The workers themselves: start, respawn, grow, shrink, reap, stop.

    ``workers`` is homogeneous — process workers, or one in-process
    worker — plus, on demand, ``fallback``: the in-process worker dead
    workers' jobs are re-run on.  Every one of them is built with
    ``engine``, the cache (a forked worker keeps its own copy) and — but
    for ``fallback``, to which each salvaged job brings its own —
    whatever ``templates`` returns: the retained checkpoint templates,
    inherited by a forked worker.
    """

    def __init__(
        self,
        report: StreamReport,
        supervisor: WorkerSupervisor,
        autoscaler: Optional[PoolAutoscaler],
        templates: Callable[[], Dict[ImageKey, Checkpoint]],
        spawn: Callable[..., _WorkerHandle],
        engine: EngineOptions,
    ) -> None:
        self.report = report
        self.engine = engine
        self.supervisor = supervisor
        self.autoscaler = autoscaler
        self._templates = templates
        self._spawn_worker = spawn
        self.workers: List[_WorkerHandle] = []
        self.fallback: Optional[_InlineWorker] = None
        self.cache: Optional[object] = None
        #: Started as a process pool (its wait blocks even while every
        #: worker is down awaiting a respawn).
        self._processes = False
        self._started = 0.0

    # -- membership ----------------------------------------------------------

    def _spawn(self, slot: int) -> _WorkerHandle:
        """The one place a worker process is created: it forks holding
        every retained template, so its ledger needs no ship."""
        templates = self._templates()
        reader, writer = multiprocessing.Pipe(duplex=False)
        try:
            worker = self._spawn_worker(
                slot, (reader, writer), self.cache,
                engine=self.engine, templates=templates,
            )
        except BaseException:
            reader.close()
            writer.close()
            raise
        self.report.images_inherited += len(templates)
        return worker

    def start(
        self, count: int, cache: Optional[object], inline: bool, now: float
    ) -> None:
        """Bring up ``count`` process workers, or one in-process worker
        when ``inline`` is asked for or the host cannot start a process
        (the reason lands in ``report.fallback_reason``)."""
        self.cache = cache
        self._started = now
        if not inline:
            try:
                for slot in range(count):
                    self.workers.append(self._spawn(slot))
            except SPAWN_ERRORS as exc:
                for worker in self.workers:
                    worker.stop(grace=0.1)
                self.workers = []
                self.report.fallback_reason = f"{type(exc).__name__}: {exc}"
        self.report.used_processes = self._processes = bool(self.workers)
        if not self.workers:
            # An in-process pool cannot grow: nothing to autoscale.
            self.autoscaler = None
            templates = self._templates()
            self.workers = [_InlineWorker(cache, self.engine, templates)]
            self.report.images_inherited += len(templates)
        self._sync_metrics()

    def alive(self) -> List[_WorkerHandle]:
        return [worker for worker in self.workers if worker.alive]

    def dispatchable(self) -> List[_WorkerHandle]:
        """Live workers that still take jobs — and epochs: one shipped to
        a retiring worker would sit unread behind its STOP message."""
        return [worker for worker in self.alive() if not worker.retiring]

    def dead(self) -> List[_WorkerHandle]:
        """Workers that exited and whose jobs nobody has re-homed yet."""
        return [w for w in self.workers if not w.lost and not w.alive]

    def ensure_fallback(self) -> _InlineWorker:
        """The in-process salvage worker, created on demand.  It is sent
        no epochs: each salvaged job brings the template it names."""
        if self.fallback is None:
            self.fallback = _InlineWorker(self.cache, self.engine)
        return self.fallback

    def pick(self, turn: int) -> _WorkerHandle:
        """Rotate by dispatch count so load spreads without per-worker
        bookkeeping; job placement does not affect results."""
        ready = self.dispatchable()
        return ready[turn % len(ready)] if ready else self.ensure_fallback()

    def account(self, worker: _WorkerHandle) -> None:
        """Fold one worker's lifetime into ``worker_seconds`` (once)."""
        if not worker.accounted:
            worker.accounted = True
            self.report.worker_seconds += time.monotonic() - worker.started_at

    def note_lost(self, worker: _WorkerHandle, now: float) -> None:
        """``worker`` is gone, its jobs re-homed: book the respawn or —
        for a retiring worker — prune the slot and its restart history."""
        self.account(worker)
        if worker.retiring:
            self.workers.remove(worker)
            self.supervisor.reset_slot(worker.slot)
            self.report.workers_retired += 1
            self._record_resize("retired", worker.slot, now)
        else:
            self.supervisor.note_death(worker.slot, now)
        if not self.alive() and not self.supervisor.pending:
            # Gone for good (restart caps exhausted).  With a respawn
            # booked the flag stays up: the stream is still a process
            # pool, just momentarily short.
            self.report.used_processes = False

    def respawn_due(self, now: float) -> bool:
        """Bring booked slots back: fresh process, retained templates
        inherited."""
        progressed = False
        for slot in self.supervisor.due_slots(now):
            try:
                replacement = self._spawn(slot)
            except SPAWN_ERRORS as exc:
                if not self.supervisor.respawn_failed(slot, now):
                    self.report.errors.append(
                        f"worker {slot} respawn abandoned: "
                        f"{type(exc).__name__}: {exc}"
                    )
                continue
            self.workers = [w for w in self.workers if w.slot != slot]
            self.workers.append(replacement)
            self.workers.sort(key=lambda worker: worker.slot)
            self.supervisor.respawned(slot)
            self.report.workers_restarted += 1
            self.report.used_processes = True
            progressed = True
        return progressed

    # -- elastic sizing ------------------------------------------------------

    def _sync_metrics(self) -> None:
        size = len(self.dispatchable())
        self.report.pool_size = size
        self.report.pool_high_water = max(self.report.pool_high_water, size)
        self.report.pool_low_water = min(self.report.pool_low_water or size, size)

    def _record_resize(self, kind: str, slot: int, now: float) -> None:
        self._sync_metrics()
        self.report.resize_events.append(
            f"t+{now - self._started:.2f}s {kind}(worker {slot}) "
            f"pool={self.report.pool_size}"
        )

    def autoscale(self, now: float, **backlog: int) -> bool:
        """Feed the autoscaler one observation (``pending``, ``inflight``,
        ``completed``); act on its decision."""
        if self.autoscaler is None:
            return False
        decision = self.autoscaler.observe(
            now, alive=len(self.dispatchable()), **backlog
        )
        if decision == "grow":
            return self.grow(now)
        return decision == "shrink" and self.shrink(now)

    def grow(self, now: float) -> bool:
        """Add one worker at the lowest free slot, holding every retained
        template."""
        if len(self.dispatchable()) >= self.autoscaler.max_workers:
            return False
        occupied = {worker.slot for worker in self.workers}
        slot = 0
        while slot in occupied:
            slot += 1
        # A fresh logical worker at this position: no restart history.
        self.supervisor.reset_slot(slot)
        try:
            worker = self._spawn(slot)
        except SPAWN_ERRORS as exc:
            self.report.errors.append(
                f"autoscale grow at slot {slot} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            return False
        self.workers.append(worker)
        self._record_resize("grow", slot, now)
        return True

    def shrink(self, now: float) -> bool:
        """Retire the highest dispatchable slot, gracefully.

        The STOP message queues *behind* anything already on the
        worker's FIFO, so its in-flight jobs finish and their results
        are harvested normally; the worker then exits and is reaped as
        a lost worker with nothing to re-home.  The highest slot is the
        deterministic victim — under grow-then-shrink the pool returns
        to exactly the workers it started with.
        """
        candidates = self.dispatchable()
        if len(candidates) <= self.autoscaler.min_workers:
            return False
        worker = max(candidates, key=lambda w: w.slot)
        worker.retiring = True
        try:
            worker.send((MSG_STOP,))
        except Exception:  # pragma: no cover - queue already broken
            pass
        self._record_resize("shrink", worker.slot, now)
        return True

    # -- results -------------------------------------------------------------

    def wait(self, timeout: float) -> None:
        """Block until a result can arrive, a worker dies, or ``timeout``:
        ``multiprocessing.connection.wait`` over every live worker's
        result pipe and sentinel.  Nothing can happen to an in-process
        pool while it waits."""
        if timeout <= 0 or not self._processes:
            return
        handles = [handle for w in self.alive() for handle in w.waitables()]
        if not handles:
            # Every worker is down and a respawn is booked.
            time.sleep(timeout)
            return
        try:
            mp_connection.wait(handles, timeout)
        except OSError:  # pragma: no cover - handle closed mid-wait
            pass

    def recv(self) -> List[tuple]:
        """Every result the process workers have written."""
        return [msg for worker in self.workers for msg in worker.recv()]

    def pump(self) -> List[tuple]:
        """Run the in-process workers' mailboxes; their results."""
        inline = self.workers + ([self.fallback] if self.fallback else [])
        return [result for worker in inline for result in worker.pump()]

    def stop(self) -> None:
        self._sync_metrics()
        for worker in self.workers:
            worker.stop()
            self.account(worker)
        if self.fallback is not None:
            self.fallback.stop()
