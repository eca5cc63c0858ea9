"""The streaming exploration pipeline's coordinator.

The paper's deployment is *continuous* — "DiCE runs in the Provider's
router" — so exploration is a pipeline, not a per-round fan-out with a
barrier, and this is the repo's one engine.  A batch is this pipeline
fed a finite corpus and closed (:func:`explore_batch`, over
:meth:`StreamingExplorer.explore_corpus`): on an inline worker for one
worker, on the process pool past it.

:class:`StreamingExplorer` only coordinates; each concern is documented
where it is implemented: job records and their lifecycle
(:mod:`~repro.parallel.jobs`), seed queues and rotation
(:mod:`~repro.parallel.dispatch`), image retention and epoch shipping
(:mod:`~repro.parallel.images`), the worker protocol and its two
carriers (:mod:`~repro.parallel.transport`), respawn/autoscale policy
and the processes (:mod:`~repro.parallel.pool`), and what comes back
(:mod:`~repro.parallel.reports`).

What stays here needs all of them at once: accepting a seed, handing
records to workers, absorbing results, and **the worker-lost path**.  A
worker is lost by hanging past ``job_deadline`` (``None``: no hang
sweep), by dying (a crash, a chaos kill), or by exiting while retiring;
all three go through :meth:`StreamingExplorer._worker_lost`.  Every
recovery is injectable on purpose via a deterministic
:class:`~repro.parallel.chaos.ChaosPlan`, and none bends determinism:
the drained finding set under any non-quarantining fault schedule is
identical to the fault-free (and serial) run.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.messages import UpdateMessage
from repro.bgp.router import BgpRouter
from repro.concolic.solver.cache import DictConstraintCache
from repro.core.report import SessionReport
from repro.parallel.chaos import HIGHEST_SLOT, ChaosDirective
from repro.parallel.dispatch import SeedRotation
from repro.parallel.images import ImageStore
from repro.parallel.jobs import (
    DEFAULT_NODE,
    DEFAULT_TENANT,
    TENANT_SEP,
    JobRecord,
    JobState,
    JobTable,
    Seed,
    StreamJob,
    display_node,
    plain_node,
    scoped_node,
    tenant_of,
)
from repro.parallel.options import EngineOptions, PoolOptions, resolve_options
from repro.parallel.pool import (
    HEARTBEAT_INTERVAL,
    PoolAutoscaler,
    WorkerPool,
    WorkerSupervisor,
)
from repro.parallel.reports import QuarantinedJob, StreamReport
from repro.parallel.transport import (
    NO_JOB,
    RES_REPORT,
    _ProcessWorker,
    _WorkerHandle,
)
from repro.util.errors import ExplorationError

#: A finite corpus, one tenant or many:
#: ``{tenant: (live routers by node, seeds by node)}``.
Corpus = Dict[str, Tuple[Dict[str, BgpRouter], Dict[str, Sequence[Seed]]]]


def split_chunks(items: Sequence, count: int) -> List[list]:
    """``items`` in ``count`` contiguous chunks (early chunks larger).

    Chunking only moves *when* a seed enters the stream relative to the
    epoch boundaries — per-node arrival order (and thus every job index)
    is unchanged, which is why epoch-chunked streamed runs keep finding
    parity with serial ones.
    """
    base, extra = divmod(len(items), count)
    starts = [i * base + min(i, extra) for i in range(count + 1)]
    return [list(items[a:b]) for a, b in zip(starts, starts[1:])]


class StreamingExplorer:
    """Continuous exploration: observed seeds in, findings out, no barrier.

    Lifecycle::

        explorer = StreamingExplorer(workers=4)
        explorer.start(live_router)            # epoch 0: workers fork holding it
        explorer.submit(peer, update)          # as traffic is observed
        explorer.poll()                        # non-blocking harvest
        explorer.advance_epoch()               # re-checkpoint: ships the patch
        report = explorer.close()              # drain, stop workers, final report

    or, bound to a DiCE facade, ``with dice.stream(workers=4): ...`` —
    which routes every observed UPDATE into :meth:`submit` automatically.

    For a federation, :meth:`start_nodes` registers many live routers on
    the *same* pool::

        explorer = StreamingExplorer(workers=4)
        explorer.start_nodes({"as0": r0, "as1": r1, ...})
        explorer.submit(peer, update, node="as1")
        explorer.advance_epoch(node="as1")     # per-node patch base
        report = explorer.close()

    Every worker holds a ``{(node, epoch): template}`` table, so the
    federation costs one pool of ``workers`` processes total; dispatch
    rotates across ASes by recent finding yield (``as_rotation``).

    Configured by the two records of :mod:`repro.parallel.options`, or
    by their field names as keywords.
    """

    #: Seams for a deterministic simulation (set on a subclass; they are
    #: not options): the clock every deadline is read from, and what
    #: creates the worker for a slot.
    _clock = staticmethod(time.monotonic)
    _spawn = _ProcessWorker

    def __init__(
        self,
        engine: Optional[EngineOptions] = None,
        pool: Optional[PoolOptions] = None,
        **options: object,
    ):
        engine, pool = resolve_options(engine, pool, **options)
        chaos = pool.chaos
        if chaos is not None:
            # A plan may carry knob overrides (hang plans ship a short
            # deadline so detection takes ~1s in tests, not 5 minutes).
            pool = replace(
                pool,
                job_deadline=chaos.job_deadline or pool.job_deadline,
                retry_budget=(
                    pool.retry_budget if chaos.retry_budget is None
                    else chaos.retry_budget
                ),
            )
        #: What every session runs with; each worker gets it when built.
        self.engine_options = engine
        self.pool_options = pool
        workers = pool.workers
        #: Dispatched-but-unfinished bound; keeps seeds in the pending
        #: queues (where they can still coalesce) instead of piling up
        #: inside worker queues where they cannot.
        self.max_inflight = (
            2 * workers if pool.max_inflight is None else pool.max_inflight
        )
        # Elastic service mode.  ``workers`` becomes the pool's
        # *capacity* (max unless overridden) and the pool starts at
        # ``min_workers`` — a fresh service has no load, so starting
        # small and growing on demand is the elastic behavior itself.
        autoscaler = PoolAutoscaler(
            min_workers=1 if pool.min_workers is None else pool.min_workers,
            max_workers=(
                workers if pool.max_workers is None else pool.max_workers
            ),
            interval=pool.autoscale_interval,
            seed=engine.strategy_seed,
        ) if pool.autoscale else None

        self.report = StreamReport(workers=workers)
        #: The named tenants' private reports (the default tenant, ``""``,
        #: has only the pool's).
        self._tenant_reports: Dict[str, StreamReport] = {}
        self._jobs = JobTable()
        self._images = ImageStore(self.report, self._jobs)
        self._rotation = SeedRotation(pool.coverage_guided, pool.as_rotation)
        self._pool = WorkerPool(
            self.report,
            WorkerSupervisor(
                max_restarts=pool.max_restarts, backoff=pool.restart_backoff,
                seed=engine.strategy_seed,
            ),
            autoscaler,
            templates=self._images.templates,
            spawn=self._spawn,
            engine=engine,
        )
        self._next_index: Dict[str, int] = {}
        self._next_seq = 0
        self._last_sweep = 0.0
        #: First-dispatch counter driving the chaos clock (retries and
        #: salvage re-runs do not advance it).
        self._chaos_clock = 0
        self._started = False
        self._closed = False
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self, live_router: BgpRouter) -> "StreamingExplorer":
        """Capture epoch 0, spin up the worker pool holding it."""
        return self.start_nodes({DEFAULT_NODE: live_router})

    def start_nodes(
        self, live_routers: Dict[str, BgpRouter], tenant: str = DEFAULT_TENANT
    ) -> "StreamingExplorer":
        """Register a whole federation on one pool.

        Captures every node's epoch-0 template, then starts the (single)
        worker pool: every worker is built holding every template — a
        forked one inherits them, nothing is shipped.
        With ``tenant`` given the federation's keys are tenant-scoped;
        further federations join the running pool via :meth:`add_tenant`.
        """
        if self._started:
            raise ExplorationError("stream already started")
        if not live_routers:
            raise ExplorationError("start_nodes needs at least one live router")
        options = self.pool_options
        if not options.force_serial:
            # Process workers receive the engine options once, when they
            # are built: refuse what cannot cross a process boundary here
            # rather than fail every job inside the workers.
            try:
                pickle.dumps(self.engine_options)
            except Exception as exc:
                raise ExplorationError(
                    f"engine options are not picklable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        self._started_at = time.perf_counter()
        self._register_tenant(tenant, live_routers)
        # Each worker keeps its own memo: a forked worker inherits a copy
        # of this empty cache.  A query another worker already solved is
        # solved again, which is safe, since a hit equals a local solve.
        cache = DictConstraintCache() if options.constraint_cache else None
        initial = options.workers
        if self._pool.autoscaler is not None:
            initial = min(initial, self._pool.autoscaler.min_workers)
        self._pool.start(
            initial, cache, inline=options.force_serial, now=self._clock()
        )
        if options.chaos is not None and not self.report.used_processes:
            # An inline pool would execute injected hangs for real (the
            # sleep runs on the coordinator thread); chaos only makes
            # sense against process workers.
            self.report.chaos_events.append(
                f"chaos plan {options.chaos.name!r} disabled: no process workers"
            )
            self.pool_options = replace(options, chaos=None)
        self._started = True
        self._fit_window()
        return self

    def _register_tenant(
        self, tenant: str, live_routers: Dict[str, BgpRouter]
    ) -> None:
        """Capture and retain a federation's epoch-0 templates, scoped."""
        if TENANT_SEP in tenant:
            raise ExplorationError(f"invalid tenant name {tenant!r}")
        if tenant in self._tenant_reports:
            raise ExplorationError(f"tenant {tenant!r} already registered")
        for node, router in live_routers.items():
            if TENANT_SEP in node:
                raise ExplorationError(f"invalid node name {node!r}")
            scoped = scoped_node(tenant, node)
            if scoped in self._images.routers:
                raise ExplorationError(
                    f"node {display_node(scoped)!r} already registered"
                )
            self._images.register(scoped, router)
        if tenant:
            self._tenant_reports[tenant] = StreamReport(
                workers=self.pool_options.workers
            )

    def add_tenant(
        self, tenant: str, live_routers: Dict[str, BgpRouter]
    ) -> "StreamingExplorer":
        """Register another federation on the *running* pool.

        Captures the new tenant's epoch-0 templates and makes them
        resident on every dispatchable worker — a running process can
        inherit nothing more, so it is shipped each node's template as
        its state's bytes — so the new tenant's jobs can dispatch
        anywhere the existing tenants' can.  Keys, templates, scheduler
        state, and the constraint cache are all tenant-scoped — the
        federations share capacity, nothing else.
        """
        self._require_open()
        if not tenant:
            raise ExplorationError("add_tenant needs a non-empty tenant name")
        if not live_routers:
            raise ExplorationError("add_tenant needs at least one live router")
        self._register_tenant(tenant, live_routers)
        fresh = [scoped_node(tenant, node) for node in live_routers]
        for worker in self._pool.dispatchable():
            self._images.prime(worker, fresh)
        return self

    def explore_corpus(
        self,
        corpus: Corpus,
        epochs: int = 1,
        churn_threshold: Optional[int] = None,
    ) -> StreamReport:
        """The whole lifecycle over a finite corpus, one tenant or many:
        ``{tenant: (live routers by node, seeds by node)}``.

        Starts the pool on the first tenant's routers, admits the rest,
        and feeds each node's seeds in ``epochs`` chunks — every
        boundary re-checkpoints each node and ships its patch (or, with
        ``churn_threshold``, only for nodes churned past it; quiet nodes
        keep their epoch) — then closes.  This is what a batch, a
        streamed federated exploration and a multi-tenant service run
        all are (see :func:`explore_batch`).  A finite corpus is explored
        in full, so the pending queues are sized to hold it: nothing
        coalesces.
        """
        self.pool_options = replace(self.pool_options, queue_capacity=max(
            [self.pool_options.queue_capacity]
            + [len(seeds) for _, by_node in corpus.values()
               for seeds in by_node.values()]
        ))
        tenants = list(corpus)
        self.start_nodes(corpus[tenants[0]][0], tenant=tenants[0])
        try:
            for tenant in tenants[1:]:
                self.add_tenant(tenant, corpus[tenant][0])
            chunks = {
                (tenant, node): split_chunks(seeds, epochs)
                for tenant, (_, by_node) in corpus.items()
                for node, seeds in by_node.items()
            }
            for chunk_index in range(epochs):
                if chunk_index > 0:
                    for tenant, (_, by_node) in corpus.items():
                        for node in sorted(by_node):
                            self.advance_epoch(
                                node, tenant=tenant,
                                churn_threshold=churn_threshold,
                            )
                # Tenants interleave within each chunk so the fair-
                # dispatch rotation has real contention to arbitrate.
                for (tenant, node), node_chunks in chunks.items():
                    for peer, update in node_chunks[chunk_index]:
                        self.submit(peer, update, node=node, tenant=tenant)
        finally:
            # close() drains by default, so the report is complete even
            # when a submit raises mid-corpus.
            report = self.close()
        return report

    def __enter__(self) -> "StreamingExplorer":
        if not self._started:
            raise ExplorationError("start(live_router) the stream before entering it")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- seed intake ---------------------------------------------------------

    def _registered(self, node: str, what: str) -> str:
        if node not in self._images.routers:
            raise ExplorationError(
                f"{what} unregistered node {display_node(node)!r} "
                f"(stream serves "
                f"{sorted(display_node(n) for n in self._images.routers)})"
            )
        return node

    def submit(
        self,
        peer: str,
        update: UpdateMessage,
        node: str = DEFAULT_NODE,
        tenant: str = DEFAULT_TENANT,
    ) -> int:
        """Enqueue an observed seed; returns its per-node arrival index.

        The seed's job record is born here, bound to the node's
        *current* epoch — settled by the order of ``submit`` and
        ``advance_epoch`` calls, not by worker timing.  Non-blocking: if
        the ``(node, peer)`` pending queue is full, the oldest
        unscheduled seed from that queue is superseded (coalescing
        backpressure) — mirroring the DiCE ring buffers — rather than
        blocking the observer, which sits on the live message path.
        Indices count per *scoped* node, so each tenant's sessions
        derive the same strategy RNGs as running that tenant alone.
        """
        self._require_open()
        node = self._registered(scoped_node(tenant, node), "seed for")
        index = self._next_index.get(node, 0)
        self._next_index[node] = index + 1
        record = self._jobs.add(
            StreamJob(
                index=index,
                epoch=self._images.current[node].epoch,
                peer=peer,
                observed=update,
                node=node,
            )
        )
        superseded = self._rotation.push(
            record, self.pool_options.queue_capacity
        )
        if superseded is not None:
            self._finish(superseded, JobState.COALESCED)
            self.report.seeds_coalesced += 1
        self.report.seeds_submitted += 1
        # Opportunistically harvest finished work (frees in-flight slots)
        # and top the workers up; inline workers do NOT execute here —
        # submit must stay cheap on the observation path.
        self._collect(pump_inline=False)
        self._dispatch()
        return index

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def nodes(self) -> List[str]:
        """The registered federation nodes (``[""]`` for single-node)."""
        return sorted(self._images.routers)

    @property
    def pending_seeds(self) -> int:
        return self._jobs.queued

    @property
    def inflight_jobs(self) -> int:
        return self._jobs.in_flight

    @property
    def idle(self) -> bool:
        """No seed waiting and no job running."""
        return not len(self._jobs)

    def federation_yields(
        self, tenant: Optional[str] = None
    ) -> Dict[str, float]:
        """Per-AS finding-yield EWMAs driving cross-AS dispatch rotation.

        With ``tenant`` given, only that tenant's nodes are returned,
        unscoped — the view a federation running alone would see.
        """
        return self._rotation.federation_yields(tenant)

    @property
    def tenants(self) -> List[str]:
        """Registered named tenants (the default tenant is not listed)."""
        return sorted(self._tenant_reports)

    def tenant_report(self, tenant: str) -> StreamReport:
        """One tenant's private report (plain node keys, own findings)."""
        report = self._tenant_reports.get(tenant)
        if report is None:
            raise ExplorationError(
                f"unknown tenant {tenant!r} (registered: {self.tenants})"
            )
        return report

    def tenant_yields(self) -> Dict[str, float]:
        """Per-tenant finding-yield EWMAs behind cross-tenant fairness."""
        return self._rotation.tenant_yields()

    # -- the job lifecycle ---------------------------------------------------

    def _finish(self, record: JobRecord, state: JobState) -> None:
        """Move a record to a terminal state; its image claim goes with it."""
        self._jobs.move(record, state)
        self._images.release(record.job.image_key)

    def _note_failure(self, record: JobRecord, detail: object) -> None:
        message = f"{record.job.describe()}: {detail}"
        self.report.errors.append(message)
        tenant = tenant_of(record.job.node)
        if tenant:
            self._tenant_reports[tenant].errors.append(message)

    def _quarantine(self, record: JobRecord, reason: str) -> None:
        """Give up on a poison job; record it and keep the stream alive."""
        self._finish(record, JobState.QUARANTINED)
        self.report.quarantined.append(
            QuarantinedJob(
                node=record.job.node,
                index=record.job.index,
                peer=record.job.peer,
                retries=record.hang_retries,
                reason=reason,
            )
        )

    def _send(
        self, worker: _WorkerHandle, record: JobRecord, state: JobState
    ) -> None:
        """One attempt: fresh beacon sequence, record moved onto the
        worker's slot, job (and its image, if missing there) on the wire."""
        self._next_seq += 1
        record.job.seq = self._next_seq
        self._jobs.move(record, state, slot=worker.slot, at=self._clock())
        self._images.send_job(worker, record.job)

    def _dispatch(self) -> int:
        dispatched = self._dispatch_retries()
        while self._jobs.in_flight < self.max_inflight:
            if not self._pool.dispatchable() and self._pool.supervisor.pending:
                # The whole pool is momentarily dead but respawns are
                # booked: hold fresh seeds in the pending queues (where
                # they still coalesce) rather than burning them inline.
                break
            record = self._rotation.pop()
            if record is None:
                break
            worker = self._pool.pick(self.report.jobs_dispatched)
            try:
                worker.check(record.job)
            except Exception as exc:
                # The seed's index is consumed: account the hole so the
                # exactly-once sum adds up, and leave the scheduler
                # untouched — the signature was never marked scheduled,
                # so its novelty bookkeeping cannot leak a seed no
                # worker ever ran.
                self._finish(record, JobState.DROPPED)
                self.report.jobs_dropped += 1
                self.report.errors.append(
                    f"{record.job.describe()} is not "
                    f"picklable: {type(exc).__name__}: {exc}"
                )
                continue
            # The chaos clock ticks on *first* dispatches only; retries
            # and salvage re-runs never advance it, so a plan's later
            # events land on the same seeds whatever recovery happened.
            self._chaos_clock += 1
            self._apply_chaos_attach(record.job)
            self._send(worker, record, JobState.DISPATCHED)
            self._rotation.mark_scheduled(record)
            self.report.jobs_dispatched += 1
            dispatched += 1
            self._fire_chaos_dispatch_events()
        return dispatched

    def _dispatch_retries(self) -> int:
        """Re-dispatch records recovered from hang-killed workers.

        Not bounded by ``max_inflight``: a record in ``retry`` already
        holds its in-flight slot.  Retries go to live process workers,
        wait out a pending respawn, and only when the pool is gone for
        good (restart caps exhausted) take the in-process way out.
        """
        sent = 0
        while True:
            record = self._jobs.next_retry()
            if record is None:
                break
            ready = self._pool.dispatchable()
            if ready:
                self._send(ready[sent % len(ready)], record, JobState.DISPATCHED)
                sent += 1
            elif self._pool.supervisor.pending:
                break  # the pool is coming back; hold the retries
            else:
                sent += self._salvage(record)
        return sent

    def _salvage(self, record: JobRecord) -> bool:
        """Re-run a lost job on the in-process worker — unless it was
        ever a hang suspect: a genuine hang on the coordinator thread
        would wedge the exact loop hang detection protects."""
        if record.hang_retries:
            self._quarantine(
                record, "no process worker left to retry a hang suspect"
            )
            return False
        self.report.jobs_recovered += 1
        self._send(self._pool.ensure_fallback(), record, JobState.SALVAGED)
        return True

    def _worker_lost(
        self,
        worker: _WorkerHandle,
        hang: str = "",
        suspect: Optional[JobRecord] = None,
    ) -> None:
        """The one path the jobs of a lost worker take, whatever lost it.

        A worker that died on its own (a crash, a chaos kill, a retiring
        worker killed mid-drain) has its jobs re-run in process at once.
        One being killed for a ``hang`` (the sweep's finding, as text)
        has them wait in ``retry`` for a *process* worker, the
        ``suspect`` first metered against the retry budget: quarantined
        past it, else stripped of one-shot chaos so the retry runs
        clean.  The handle is marked first, so nothing is re-homed
        twice; the pool then books the respawn or, for a retiring
        worker, prunes the slot — the shrink stands.
        """
        worker.lost = True
        # What it finished before it was lost is harvested, not re-run.
        for msg in worker.recv():
            self._handle_result(msg)
        worker.kill()
        budget = self.pool_options.retry_budget
        for record in self._jobs.on_slot(worker.slot):
            if not hang:
                self._salvage(record)
                continue
            if record is suspect:
                record.hang_retries += 1
                if record.hang_retries > budget:
                    self._quarantine(
                        record, f"{hang}; retry budget ({budget}) exhausted",
                    )
                    continue
                if record.job.chaos is not None and not record.job.chaos.sticky:
                    record.job.chaos = None
            self._jobs.move(record, JobState.RETRY)
            self.report.jobs_retried += 1
        if hang:
            self.report.hangs_detected += 1
        elif not worker.retiring and not self.report.fallback_reason:
            self.report.fallback_reason = (
                f"worker {worker.slot} died; in-flight jobs re-run in-process"
            )
        self._pool.note_lost(worker, self._clock())

    # -- chaos injection -----------------------------------------------------

    def _apply_chaos_attach(self, job: StreamJob) -> None:
        """Attach any job-riding faults scheduled for this dispatch."""
        if self.pool_options.chaos is None:
            return
        hang, drop, sticky = 0.0, False, False
        for event in self.pool_options.chaos.events_at(self._chaos_clock):
            if not event.attaches:
                continue
            directive = event.directive()
            hang = max(hang, directive.hang_seconds)
            drop = drop or directive.drop_result
            sticky = sticky or directive.sticky
            self.report.chaos_events.append(event.describe())
        if hang > 0 or drop:
            job.chaos = ChaosDirective(
                hang_seconds=hang, drop_result=drop, sticky=sticky
            )

    def _fire_chaos_dispatch_events(self) -> None:
        """Fire coordinator-side faults scheduled right after this dispatch."""
        if self.pool_options.chaos is None:
            return
        for event in self.pool_options.chaos.events_at(self._chaos_clock):
            if event.attaches:
                continue
            if event.kind == "kill-worker":
                # HIGHEST_SLOT is "whatever slot is highest right now" —
                # under an elastic pool the most recently grown or
                # currently retiring worker.  Retiring workers are
                # deliberately eligible: killing one mid-drain is the
                # shrink/chaos interplay this mode exists for.
                live = {worker.slot: worker for worker in self._pool.alive()}
                target = event.worker
                if target == HIGHEST_SLOT and live:
                    target = max(live)
                if target in live:
                    live[target].crash()
                    self.report.chaos_events.append(event.describe())

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> bool:
        """Exits, then (on the heartbeat) hangs and due respawns, then size."""
        progressed = False
        for worker in self._pool.dead():
            self._worker_lost(worker)
            progressed = True
        now = self._clock()
        if now - self._last_sweep >= HEARTBEAT_INTERVAL:
            self._last_sweep = now
            progressed |= self._sweep_hangs(now)
            progressed |= self._pool.respawn_due(now)
        progressed |= self._pool.autoscale(
            now,
            pending=self.pending_seeds,
            inflight=self._jobs.in_flight,
            completed=self.report.jobs_completed,
        )
        self._fit_window()
        return progressed

    def _sweep_hangs(self, now: float) -> bool:
        deadline = self.pool_options.job_deadline
        if deadline is None:
            return False
        progressed = False
        for worker in self._pool.alive():
            reading = worker.progress()
            if reading is None:
                continue
            stamp, seq = reading
            records = self._jobs.on_slot(worker.slot)
            if seq >= 0:
                # Busy on a known job: hung if it has run past the
                # deadline by the worker's own stamp.
                if stamp > 0 and now - stamp > deadline:
                    running = [r for r in records if r.job.seq == seq]
                    self._worker_lost(
                        worker,
                        f"ran past its {deadline:g}s deadline",
                        running[0] if running else None,
                    )
                    progressed = True
                continue
            # Idle, yet a job dispatched to this worker a full deadline
            # ago never produced a result: the result was lost (dropped,
            # or died in the queue).  Require the worker to have been
            # idle for a deadline too, so a job merely queued behind a
            # long-running predecessor is never mistaken for a lost one.
            if stamp != 0.0 and now - stamp <= deadline:
                continue
            overdue = [r for r in records if now - r.dispatched_at > deadline]
            if overdue:
                self._worker_lost(
                    worker,
                    f"result missing {deadline:g}s past its deadline",
                    overdue[0],
                )
                progressed = True
        return progressed

    def _fit_window(self) -> None:
        """Elastic pools re-derive the in-flight window from the live
        size, so a grown pool is actually fed and a shrunk one keeps
        seeds in the (coalescing) pending queues."""
        auto = self.pool_options.max_inflight is None
        if auto and self._pool.autoscaler is not None:
            self.max_inflight = max(2, 2 * self.report.pool_size)

    def _next_wakeup(self, now: float, cap: float = 0.25) -> float:
        """Seconds until the soonest coordinator deadline, capped.

        The event-driven wait must return in time for whatever the
        coordinator owes next: a due respawn, the next hang sweep, an
        overdue-job deadline, the next autoscale tick.
        """
        deadlines = [
            self._last_sweep + HEARTBEAT_INTERVAL,
            self._pool.supervisor.next_due(),
        ]
        oldest = self._jobs.oldest_attempt()
        if self.pool_options.job_deadline is not None and oldest is not None:
            deadlines.append(oldest + self.pool_options.job_deadline)
        if self._pool.autoscaler is not None:
            deadlines.append(self._pool.autoscaler.next_tick())
        soonest = min(due for due in deadlines if due is not None)
        return max(0.0, min(soonest - now, cap))

    def _collect(self, pump_inline: bool, block_seconds: float = 0.0) -> bool:
        """Drain ready results; returns True if anything progressed."""
        # Keep the report's wall clock live so mid-stream summaries work.
        self.report.wall_seconds = time.perf_counter() - self._started_at
        if block_seconds > 0.0:
            self._pool.wait(
                min(block_seconds, self._next_wakeup(self._clock()))
            )
        results = self._pool.recv()
        for msg in results:
            self._handle_result(msg)
        progressed = bool(results) | self._supervise()
        if pump_inline:
            for msg in self._pool.pump():
                self._handle_result(msg)
                progressed = True
        return progressed

    def _handle_result(self, msg: tuple) -> None:
        kind, key, body = msg
        if key == NO_JOB:
            self.report.errors.append(str(body))
            return
        done = kind == RES_REPORT
        record = self._jobs.finish(
            key, JobState.DONE if done else JobState.FAILED
        )
        if record is None:
            return  # re-homed and answered elsewhere: first result won
        self._images.release(record.job.image_key)
        if not done:
            self._note_failure(record, body)
            return
        session: SessionReport = body
        if record.dispatched_at is not None:  # None: answered while in retry
            latency = self._clock() - record.dispatched_at
            self.report.harvest_latency_total += latency
            self.report.harvest_latency_count += 1
            if latency > self.report.harvest_latency_max:
                self.report.harvest_latency_max = latency
        self.report.add_stream_report(key, session)
        tenant = tenant_of(key[0])
        if tenant:
            # Tenant reports carry *plain* node keys — the view the
            # federation would have running alone, which is what the
            # per-tenant parity checks compare against.
            self._tenant_reports[tenant].add_stream_report(
                (plain_node(key[0]), key[1]), session
            )
            self.report.jobs_by_tenant[tenant] = (
                self.report.jobs_by_tenant.get(tenant, 0) + 1
            )
        self._rotation.note_session(key[0], session)

    # -- epochs --------------------------------------------------------------

    def advance_epoch(
        self,
        node: str = DEFAULT_NODE,
        tenant: str = DEFAULT_TENANT,
        churn_threshold: Optional[int] = None,
    ) -> Dict[str, object]:
        """Epoch boundary for one node: re-checkpoint, ship only the diff.

        The fresh template is diffed against the node's current one key
        by key (:class:`~repro.checkpoint.delta.TemplatePatch`): every
        dispatchable process worker gets the patch, pickled once, and
        builds the new template from the one it holds; an in-process
        worker gets the new template itself.  Seeds for this node
        *submitted* from here on are bound to the new epoch, seeds
        already queued keep the one they were born with.  Other nodes'
        templates and epochs are untouched — per-node patch bases are
        the whole point of the ``(node, epoch)`` keying.  Returns the
        shipping economics for logging/benchmarks: ``dirty_segments`` is
        the patch's churn in entries (changed, removed or re-ordered
        table entries plus changed components), ``segments_shipped`` the
        entries and components it carries out of ``segments_total``, and
        ``bytes_shipped`` its pickled size.

        ``churn_threshold`` makes the advance *churn-driven*: below the
        threshold nothing ships — the epoch stands, the capture is
        discarded, and the skip is counted (``epochs_skipped_quiet``).
        Because the base template is unchanged, churn accumulates across
        skipped boundaries: a node quiet for five boundaries then
        suddenly busy ships one patch carrying all five boundaries'
        worth of change.
        """
        self._require_open()
        node = self._registered(scoped_node(tenant, node), "advance_epoch for")
        candidate, patch = self._images.capture_next(node)
        info: Dict[str, object] = {
            "node": plain_node(node),
            "tenant": tenant,
            "epoch": self._images.current[node].epoch,
            "skipped": True,
            "dirty_segments": patch.dirty,
            "segments_shipped": 0,
            "bytes_shipped": 0,
        }
        if churn_threshold is not None and patch.dirty < churn_threshold:
            self.report.epochs_skipped_quiet += 1
            info["churn_threshold"] = churn_threshold
            return info
        self._images.commit(candidate, patch)
        for worker in self._pool.dispatchable():
            self._images.ship(worker, candidate, patch)
        self.report.epochs += 1
        display = display_node(node)
        self.report.deltas_by_node[display] = (
            self.report.deltas_by_node.get(display, 0) + 1
        )
        info.update(
            epoch=candidate.epoch,
            skipped=False,
            segments_shipped=patch.entries_shipped,
            segments_total=patch.entries_total,
            bytes_shipped=patch.bytes_shipped,
        )
        return info

    # -- harvest -------------------------------------------------------------

    def poll(self) -> List[SessionReport]:
        """Dispatch whatever fits, harvest whatever is ready; no blocking.

        Under the inline fallback this executes all dispatchable work
        (serial semantics); with process workers it only drains the
        result queue.  Returns every report harvested so far.
        """
        self._require_open()
        while True:
            progressed = self._collect(pump_inline=True)
            progressed |= self._dispatch() > 0
            if not progressed:
                break
        return list(self.report.reports)

    def harvest(self, timeout: Optional[float] = None) -> List[SessionReport]:
        """Event-driven harvest: block until new results, return them.

        The service loop's primitive.  Where :meth:`poll` returns
        immediately (forcing callers into a poll-plus-sleep loop whose
        sleep is a latency floor on every result), ``harvest`` blocks on
        the workers' result pipes and sentinels — waking the instant
        a result lands — while still honoring supervision and autoscale
        deadlines.  Returns the reports harvested by this call; an empty
        list means the stream went idle (or the timeout expired) with
        nothing new.
        """
        self._require_open()
        before = self.report.jobs_completed
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            progressed = self._collect(pump_inline=True)
            progressed |= self._dispatch() > 0
            if self.report.jobs_completed > before or self.idle:
                break
            if progressed:
                # An inline pool never gets past here: it executes during
                # the collect, so it has nothing to wait for.
                continue
            now = self._clock()
            if deadline is not None and now >= deadline:
                break
            wakeup = self._next_wakeup(now)
            self._pool.wait(
                wakeup if deadline is None else min(wakeup, deadline - now)
            )
        return list(self.report.reports[before:])

    def drain(
        self,
        timeout: Optional[float] = None,
        progress=None,
        progress_interval: float = 1.0,
    ) -> StreamReport:
        """Block until every pending seed and in-flight job completes.

        ``progress`` (optional) is called with the live report at most
        every ``progress_interval`` seconds — the CLI uses it for its
        periodic status line.
        """
        self._require_open()
        deadline = None if timeout is None else self._clock() + timeout
        last_progress = self._clock()
        while not self.idle:
            progressed = self._collect(pump_inline=True)
            progressed |= self._dispatch() > 0
            if not progressed and (
                self._jobs.in_flight or self._pool.supervisor.pending
            ):
                # Stuck until something external happens: block on the
                # result pipe/worker sentinels up to the next computed
                # deadline.
                self._collect(pump_inline=True, block_seconds=0.25)
            if progress is not None and (
                self._clock() - last_progress >= progress_interval
            ):
                progress(self.report)
                last_progress = self._clock()
            if deadline is not None and self._clock() > deadline:
                raise ExplorationError(
                    f"stream drain timed out with {self._jobs.in_flight} jobs "
                    f"in flight and {self.pending_seeds} seeds pending"
                )
        if progress is not None:
            progress(self.report)
        return self.report

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> StreamReport:
        """Drain (by default) and stop the workers."""
        if self._closed:
            return self.report
        if self._started and drain:
            self.drain(timeout=timeout)
        self._pool.stop()
        if self._started:
            self.report.wall_seconds = time.perf_counter() - self._started_at
        for treport in self._tenant_reports.values():
            treport.wall_seconds = self.report.wall_seconds
            treport.used_processes = self.report.used_processes
            treport.fallback_reason = self.report.fallback_reason
        self._closed = True
        return self.report

    def _require_open(self) -> None:
        if not self._started:
            raise ExplorationError("stream not started (call start(live_router))")
        if self._closed:
            raise ExplorationError("stream already closed")


def explore_batch(
    corpus: Corpus,
    engine: Optional[EngineOptions] = None,
    pool: Optional[PoolOptions] = None,
    *,
    stream: bool = False,
    epochs: int = 1,
    churn_threshold: Optional[int] = None,
    **options: object,
) -> StreamingExplorer:
    """Explore a finite corpus in full on a pool built for it; returns
    the closed pipeline, whose ``report`` holds every session.

    Seeds dispatch in per-node arrival order: coverage-guided reordering
    pays on an open-ended stream, but every seed of a corpus is explored
    anyway, and job indices are fixed at submission, so dispatch order
    could not change a session.  A corpus without a single seed starts
    no pool and reports wall time 0.

    A batch (the default) keeps the promises of a batch: at most one
    worker runs inline, on the coordinator, with no process to start;
    each node's reports come back in submission order; and a failed or
    quarantined job raises :class:`ExplorationError` where a stream
    would record it and move on.  With ``stream=True`` the pool runs as
    configured and a hole stays in the report.
    """
    engine, pool = resolve_options(engine, pool, **options)
    if not stream and pool.workers <= 1:
        pool = replace(pool, force_serial=True)
    pipeline = StreamingExplorer(engine, replace(pool, coverage_guided=False))
    if not any(
        seeds for _, by_node in corpus.values() for seeds in by_node.values()
    ):
        pipeline.close()
        return pipeline
    report = pipeline.explore_corpus(
        corpus, epochs=epochs, churn_threshold=churn_threshold
    )
    if stream:
        return pipeline
    failed = report.errors + [job.describe() for job in report.quarantined]
    if failed:
        raise ExplorationError(
            f"{len(failed)} job(s) of the batch failed: {failed[0]}"
        )
    order = sorted(range(len(report.indices)), key=report.indices.__getitem__)
    report.indices = [report.indices[i] for i in order]
    report.reports = [report.reports[i] for i in order]
    return pipeline
