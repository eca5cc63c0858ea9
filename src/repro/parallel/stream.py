"""The streaming exploration pipeline: persistent workers fed by a seed stream.

This module is the repo's one process pool.  The paper's deployment is
*continuous* — "DiCE runs in the Provider's router" — so exploration is
a pipeline, not a per-round fan-out with a barrier (a multi-process
batch, :class:`repro.parallel.ParallelExplorer`, is this pipeline fed a
finite corpus and closed — :meth:`StreamingExplorer.explore_corpus`):

* **persistent workers** — long-lived processes pull jobs from
  per-worker FIFO queues and push reports to a shared result queue; the
  pool survives across epochs instead of being rebuilt per round;
* **incremental checkpoint shipping** — each worker receives the full
  :class:`~repro.checkpoint.delta.CheckpointImage` once, and every
  re-checkpoint thereafter ships a :class:`CheckpointDelta` carrying
  only the segments whose page digests changed (a small RIB change
  ships kilobytes, not the whole table);
* **bounded per-peer seed queues with coalescing backpressure** — seeds
  are enqueued as observed; when a peer's queue is full the *oldest*
  unscheduled seed is superseded by the newest (the same ring-buffer
  discipline as the DiCE observation buffers) and counted, so a chatty
  peer can neither grow memory nor starve the stream;
* **asynchronous harvest** — completed session reports are absorbed into
  a :class:`StreamReport` as they arrive (``BatchReport.add_report``);
  aggregate views are valid mid-stream, with no barrier;
* **sharded constraint cache** — workers share a
  :class:`~repro.parallel.cache.ShardedConstraintCache` so solver IPC
  spreads across manager processes instead of serializing through one.

**Federation-wide sharing.**  The worker protocol is node-aware: every
:class:`StreamJob` names the federation node it explores and workers
hold a ``{(node, epoch): image}`` table, so *one* persistent pool can
serve every AS of a federation — :meth:`StreamingExplorer.start_nodes`
ships each node's epoch-0 image once, :meth:`advance_epoch` ships
per-node deltas against per-node bases, and dispatch budget rotates
across ASes by recent finding yield
(:class:`~repro.concolic.coverage.FederationScheduler`).  An 8-AS
federation therefore runs on ``workers`` processes total, not
``8 * workers`` pools fighting for the same cores.

Determinism matches the serial loop: each seed gets a per-node arrival
index, the per-job strategy RNG derives from that index exactly as the
loop's jobs derive from their batch position, sessions are independent,
and cache hits are bit-identical to local solves.  For a fixed
observed-seed sequence within one epoch, the harvested finding set
equals ``ParallelExplorer(force_serial=True).explore_batch`` over the
same seeds — with one worker, N workers, or the inline fallback
(``tests/parallel/test_streaming.py`` asserts all three).

Failure containment starts with salvage — a worker process that dies
has its in-flight jobs re-run on an in-process fallback worker (per-job
determinism makes the salvage exact); a host that cannot fork at all
runs the whole stream inline — and then goes further, because a
*service* cannot let its pool shrink monotonically:

* a :class:`WorkerSupervisor` **respawns** dead workers at their slot
  with exponential backoff, deterministic jitter, and a per-slot restart
  cap (``max_restarts=0`` means no respawn: the pool shrinks and the
  inline fallback finishes), re-shipping every node's current image to
  the replacement;
* workers stamp a shared :class:`~repro.parallel.worker.ProgressBeacon`
  per job, so the coordinator's supervision sweep detects **hangs**: a
  job running past ``job_deadline`` (``None`` means no hang sweep) gets
  its worker killed and the job re-dispatched under a bounded
  ``retry_budget``; past the budget it lands in **quarantine**
  (recorded on the report) instead of wedging the drain loop;
* the shared constraint cache **degrades gracefully** — dead shard
  managers are marked, skipped, and counted
  (:meth:`ShardedConstraintCache.info`), never raised through a solve;
* every recovery path is injectable on purpose via a deterministic
  :class:`~repro.parallel.chaos.ChaosPlan` (kill worker k after job n,
  hang job n for t seconds, drop a result, kill the cache managers), so
  tests and CI replay the exact same fault sequence every run.

Recovery never bends determinism: a retried or salvaged job re-derives
the same strategy RNG from its per-node index, so the drained finding
set under any non-quarantining fault schedule is identical to the
fault-free (and serial) run.

**Service mode.**  A long-lived deployment is a *service*, not a batch
job sized at launch, so the pool can be elastic and shared:

* a :class:`PoolAutoscaler` grows and shrinks the pool between
  ``min_workers`` and ``max_workers`` on observed backlog and drain
  rate (EWMA-smoothed, hysteresis-gated, deterministic jitter from the
  strategy seed).  A shrink retires the *highest* slot gracefully — a
  STOP message queues behind the slot's in-flight work, and the reap
  prunes its images and resets its restart budget — while a slot lost
  to a crash or chaos kill still respawns through the supervisor;
* epoch advance can be **churn-driven**: ``advance_epoch(node,
  churn_threshold=k)`` captures a candidate image, counts dirty
  segments against the node's current one, and ships nothing when
  fewer than ``k`` segments moved — quiet nodes stop re-shipping
  deltas entirely;
* the coordinator's wait loop is **event-driven**: instead of a fixed
  sleep it blocks on the result-queue pipe and the worker process
  sentinels with a timeout computed from the next supervision,
  hang-sweep, or autoscale deadline, so harvest latency tracks result
  arrival rather than a polling interval (:meth:`harvest` exposes the
  same wait to service callers);
* one pool serves many federations: a ``tenant`` key namespaces node
  registration, image tables, scheduler state, and the shared
  constraint cache (:class:`~repro.parallel.cache.TenantCacheView`),
  with per-tenant :class:`StreamReport`\\s and a
  :class:`~repro.concolic.coverage.TenantScheduler` keeping the
  dispatch budget fair across tenants.  Per-tenant job indices and
  cache scoping keep each tenant's finding set byte-identical to
  running it alone.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.messages import UpdateMessage
from repro.bgp.router import BgpRouter
from repro.checkpoint.delta import CheckpointDelta, CheckpointImage
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.coverage import (
    CoverageScheduler,
    FederationScheduler,
    TenantScheduler,
)
from repro.concolic.engine import ExplorationBudget, ExplorationReport
from repro.concolic.solver.cache import DictConstraintCache
from repro.core.inputs import seed_signature
from repro.core.checkers import FaultChecker
from repro.core.report import SessionReport
from repro.parallel.cache import (
    ShardedConstraintCache,
    TenantCacheView,
    shutdown_cache_managers,
    start_sharded_cache,
)
from repro.parallel.chaos import HIGHEST_SLOT, ChaosDirective, ChaosPlan
from repro.parallel.explorer import BatchReport
from repro.parallel.worker import ProgressBeacon, SessionJob, run_session_job
from repro.util.errors import CheckpointError, ExplorationError
from repro.util.ip import Prefix
from repro.util.rng import derive_rng

Seed = Tuple[str, UpdateMessage]

#: ``(node, index)`` — the globally unique identity of one streamed job.
#: Indices are assigned per node so each AS's sessions derive the same
#: strategy RNG as that AS's jobs in the serial loop, whatever else
#: shares the pool.
JobKey = Tuple[str, int]

# Worker-bound messages and worker-emitted results are small tagged
# tuples: cheap to pickle, trivially version-free within one process
# tree.
_MSG_EPOCH = "epoch"
_MSG_JOB = "job"
_MSG_STOP = "stop"
_RES_REPORT = "report"
_RES_ERROR = "error"

#: Sentinel job key for errors not attributable to a single job
#: (e.g. a delta arriving before its base image).
_NO_JOB = ("", -1)

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


def split_chunks(items: Sequence, count: int) -> List[list]:
    """``items`` in ``count`` contiguous chunks (early chunks larger).

    Chunking only moves *when* a seed enters the stream relative to the
    epoch boundaries — per-node arrival order (and thus every job index)
    is unchanged, which is why epoch-chunked streamed runs keep finding
    parity with serial ones.
    """
    base, extra = divmod(len(items), count)
    chunks: List[list] = []
    cursor = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[cursor:cursor + size]))
        cursor += size
    return chunks


@dataclass
class StreamJob:
    """One seed's exploration session, shipped *without* its checkpoint.

    The checkpoint is resident in the worker (shipped once per epoch per
    node); the job names the ``(node, epoch)`` image it runs against.
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
    policy: str = "selective"
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    budget: Optional[ExplorationBudget] = None
    strategy: str = "generational"
    strategy_seed: int = 0
    anycast_whitelist: Tuple[Prefix, ...] = ()
    checkers: Optional[Sequence[FaultChecker]] = None
    #: Dispatch sequence number, reassigned fresh on every (re)dispatch;
    #: the value workers stamp into their progress beacon, mapping a
    #: "busy since t" observation back to one JobKey.  Never feeds the
    #: strategy RNG — retries stay bit-identical to the first attempt.
    seq: int = 0
    #: Injected fault (chaos harness only); ``None`` in production.
    chaos: Optional[ChaosDirective] = None
    #: Owning tenant (service mode); ``node`` is then the tenant-scoped
    #: key.  Workers use this to scope their constraint-cache view.
    tenant: str = DEFAULT_TENANT

    @property
    def key(self) -> JobKey:
        return (self.node, self.index)

    @property
    def image_key(self) -> Tuple[str, int]:
        return (self.node, self.epoch)

    @property
    def plain_node(self) -> str:
        """The node name without its tenant scope (session provenance)."""
        if self.tenant and self.node.startswith(self.tenant + TENANT_SEP):
            return self.node[len(self.tenant) + 1:]
        return self.node


@dataclass(frozen=True)
class QuarantinedJob:
    """A job that exhausted its hang-retry budget and was set aside.

    Quarantine is the bounded alternative to wedging: the job's index
    stays a hole in the harvest (like a dropped job), but the stream
    keeps draining and the report records exactly what was given up on
    — enough to re-run the seed offline under a debugger.
    """

    node: str
    index: int
    peer: str
    retries: int
    reason: str

    def describe(self) -> str:
        where = f"{self.node}:{self.peer}" if self.node else self.peer
        return (
            f"job {self.index} ({where}) quarantined after "
            f"{self.retries} retries: {self.reason}"
        )


@dataclass
class StreamReport(BatchReport):
    """A :class:`BatchReport` grown incrementally, plus stream provenance.

    Reports land in *arrival* order; ``indices`` records each report's
    ``(node, index)`` job key so :meth:`reports_in_index_order` can
    reconstruct each node's submission ordering — what a batch hands
    back, and what the serial loop is compared on.
    """

    indices: List[JobKey] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    epochs: int = 0
    seeds_submitted: int = 0
    seeds_coalesced: int = 0
    jobs_dispatched: int = 0
    jobs_recovered: int = 0
    #: Seeds popped from the pending queues but never handed to a worker
    #: (unpicklable payloads); their per-node index is a hole the harvest
    #: will never fill, so ``jobs_completed + jobs_dropped`` — not
    #: ``jobs_completed`` alone — is what accounts for every dispatch
    #: attempt.
    jobs_dropped: int = 0
    checkpoint_bytes_shipped: int = 0
    checkpoint_segments_shipped: int = 0
    full_checkpoint_bytes: int = 0
    #: Epoch boundaries crossed per federation node: how many deltas have
    #: been shipped against each node's image chain.
    deltas_by_node: Dict[str, int] = field(default_factory=dict)
    #: Dead workers respawned at their slot by the supervisor.
    workers_restarted: int = 0
    #: Jobs caught running (or lost) past ``job_deadline`` by the
    #: heartbeat sweep; each one cost its worker its life.
    hangs_detected: int = 0
    #: Re-dispatches of in-flight jobs after a hang kill (both the hung
    #: job and innocent jobs queued behind it on the killed worker).
    jobs_retried: int = 0
    #: Jobs that exhausted their hang-retry budget; like dropped jobs,
    #: their indices are holes the harvest never fills, so
    #: ``jobs_completed + jobs_dropped + len(quarantined)`` accounts for
    #: every dispatch attempt.
    quarantined: List[QuarantinedJob] = field(default_factory=list)
    #: Human-readable log of injected chaos faults as they fired.
    chaos_events: List[str] = field(default_factory=list)
    #: Shared-cache shard liveness, refreshed by the coordinator's probe
    #: (0 shards means no sharded cache was in play).
    cache_shards: int = 0
    degraded_shards: int = 0
    cache_degraded_ops: int = 0
    #: Service mode: the pool-size timeline.  ``pool_size`` is the
    #: current dispatchable worker count; high/low water track the
    #: extremes over the stream's life; ``resize_events`` is the
    #: human-readable log of every grow/shrink/retire transition.
    pool_size: int = 0
    pool_high_water: int = 0
    pool_low_water: int = 0
    resize_events: List[str] = field(default_factory=list)
    #: Workers retired gracefully by a shrink (drained, reaped).
    workers_retired: int = 0
    #: Accumulated worker lifetime — the bursty-workload economics an
    #: elastic pool is judged by (fewer worker-seconds, same findings).
    worker_seconds: float = 0.0
    #: advance_epoch calls that shipped nothing because the node's table
    #: churn stayed below the threshold.
    epochs_skipped_quiet: int = 0
    #: Dispatch→harvest latency of completed jobs (includes execution;
    #: the event-driven loop is judged by the queue-wait share).
    harvest_latency_total: float = 0.0
    harvest_latency_max: float = 0.0
    harvest_latency_count: int = 0
    #: Completed jobs per tenant (service mode; empty when single-tenant).
    jobs_by_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def jobs_completed(self) -> int:
        return len(self.reports)

    @property
    def harvest_latency_mean(self) -> float:
        """Mean dispatch→harvest latency over completed jobs (seconds)."""
        if not self.harvest_latency_count:
            return 0.0
        return self.harvest_latency_total / self.harvest_latency_count

    @property
    def node_count(self) -> int:
        """Distinct federation nodes that have harvested sessions."""
        return len({node for node, _ in self.indices})

    @property
    def checkpoint_bytes_per_job(self) -> float:
        """Average checkpoint transport cost per completed job.

        Shipping the checkpoint inside every job would cost the full
        pickle each time, so this is the number to hold against
        ``full_checkpoint_bytes`` when judging image shipping.
        """
        if not self.reports:
            return float(self.checkpoint_bytes_shipped)
        return self.checkpoint_bytes_shipped / len(self.reports)

    def add_stream_report(self, key: JobKey, report: SessionReport) -> None:
        self.add_report(report)
        self.indices.append(key)

    def reports_in_index_order(
        self, node: Optional[str] = None
    ) -> List[SessionReport]:
        """Harvested reports re-sorted into submission order.

        With ``node`` given, only that federation node's reports are
        returned (in that node's arrival-index order) — the exact list a
        per-AS batch over the same seeds would produce.  Index holes
        (dropped jobs) are tolerated: ordering needs only relative
        positions, not density.
        """
        pairs = sorted(
            (key, report)
            for key, report in zip(self.indices, self.reports)
            if node is None or key[0] == node
        )
        return [report for _, report in pairs]

    def exploration_totals(self) -> ExplorationReport:
        """Merged cross-session exploration counters (incremental-style)."""
        total = ExplorationReport()
        for report in self.reports:
            total.absorb(report.exploration)
        return total

    def summary(self) -> Dict[str, object]:
        base = super().summary()
        base.update(
            {
                "epochs": self.epochs,
                "nodes": self.node_count,
                "seeds_submitted": self.seeds_submitted,
                "seeds_coalesced": self.seeds_coalesced,
                "jobs_completed": self.jobs_completed,
                "jobs_recovered": self.jobs_recovered,
                "jobs_dropped": self.jobs_dropped,
                "workers_restarted": self.workers_restarted,
                "hangs_detected": self.hangs_detected,
                "jobs_retried": self.jobs_retried,
                "jobs_quarantined": len(self.quarantined),
                "quarantined": [q.describe() for q in self.quarantined],
                "chaos_events": list(self.chaos_events),
                "cache_shards": self.cache_shards,
                "degraded_shards": self.degraded_shards,
                "errors": len(self.errors),
                "checkpoint_bytes_shipped": self.checkpoint_bytes_shipped,
                "checkpoint_bytes_per_job": round(self.checkpoint_bytes_per_job),
                "full_checkpoint_bytes": self.full_checkpoint_bytes,
                "deltas_by_node": dict(self.deltas_by_node),
                "pool_size": self.pool_size,
                "pool_high_water": self.pool_high_water,
                "pool_low_water": self.pool_low_water,
                "resize_events": list(self.resize_events),
                "workers_retired": self.workers_retired,
                "worker_seconds": round(self.worker_seconds, 3),
                "epochs_skipped_quiet": self.epochs_skipped_quiet,
                "harvest_latency_mean": round(self.harvest_latency_mean, 6),
                "harvest_latency_max": round(self.harvest_latency_max, 6),
                "jobs_by_tenant": dict(self.jobs_by_tenant),
            }
        )
        return base


class _WorkerState:
    """Per-``(node, epoch)`` images, rebuilt checkpoints, job execution.

    Shared by the process worker loop and the in-process fallback so the
    two transports cannot drift.  The image table is keyed by
    ``(node, epoch)`` — one worker holds every federation member's chain
    side by side.  ``prune`` is safe only for process workers, whose
    single FIFO queue guarantees that by the time a node's epoch message
    is handled every earlier job *of that node* is done; pruning is
    strictly per node, so advancing one AS's epoch never drops another
    AS's resident image.  The inline fallback receives salvaged jobs out
    of band and keeps everything it was given.
    """

    def __init__(self, cache: Optional[object], prune: bool) -> None:
        self.cache = cache
        self.prune = prune
        self.images: Dict[Tuple[str, int], CheckpointImage] = {}
        self.checkpoints: Dict[Tuple[str, int], Checkpoint] = {}
        #: Tenant-scoped cache views, built once per tenant per worker.
        self._tenant_caches: Dict[str, TenantCacheView] = {}

    def _cache_for(self, tenant: str) -> Optional[object]:
        if not tenant or self.cache is None:
            return self.cache
        view = self._tenant_caches.get(tenant)
        if view is None:
            view = TenantCacheView(self.cache, tenant)
            self._tenant_caches[tenant] = view
        return view

    def handle(self, msg: tuple) -> Optional[tuple]:
        """Process one coordinator message; job messages return a result."""
        kind = msg[0]
        if kind == _MSG_EPOCH:
            try:
                self._apply_epoch(msg[1])
            except Exception as exc:
                return (_RES_ERROR, _NO_JOB, f"{type(exc).__name__}: {exc}")
            return None
        if kind == _MSG_JOB:
            job: StreamJob = msg[1]
            # Chaos faults execute *around* the session, never inside it:
            # the hang is a pre-run sleep (a wedged solver as seen from
            # outside) and the drop swallows a finished result — so a
            # recovered job's report is bit-identical to a clean run.
            if job.chaos is not None and job.chaos.hang_seconds > 0:
                time.sleep(job.chaos.hang_seconds)
            try:
                result = (_RES_REPORT, job.key, self._run(job))
            except Exception as exc:
                return (_RES_ERROR, job.key, f"{type(exc).__name__}: {exc}")
            if job.chaos is not None and job.chaos.drop_result:
                return None
            return result
        return None

    def _apply_epoch(self, payload) -> None:
        if isinstance(payload, CheckpointDelta):
            base = self.images.get(payload.base_key)
            if base is None:
                raise CheckpointError(
                    f"delta for node {payload.node!r} epoch {payload.epoch} "
                    f"arrived before its base image "
                    f"(epoch {payload.base_epoch})"
                )
            image = payload.apply(base)
        else:
            image = payload
        key = image.image_key
        self.images[key] = image
        if self.prune:
            stale = [
                k for k in self.images if k[0] == key[0] and k[1] < key[1]
            ]
            for k in stale:
                del self.images[k]
                self.checkpoints.pop(k, None)

    def _run(self, job: StreamJob) -> SessionReport:
        checkpoint = self.checkpoints.get(job.image_key)
        if checkpoint is None:
            image = self.images.get(job.image_key)
            if image is None:
                raise CheckpointError(
                    f"job {job.index} references node {job.node!r} epoch "
                    f"{job.epoch}, but no image for it is resident"
                )
            # Assembled once per (node, epoch) per worker: the clone-per-
            # execution loop forks the checkpoint's resident template, so
            # no segment is unpickled again after this.
            checkpoint = image.as_checkpoint()
            self.checkpoints[job.image_key] = checkpoint
        return run_session_job(
            SessionJob(
                index=job.index,
                checkpoint=checkpoint,
                peer=job.peer,
                observed=job.observed,
                policy=job.policy,
                model_kwargs=dict(job.model_kwargs),
                budget=job.budget,
                strategy=job.strategy,
                strategy_seed=job.strategy_seed,
                anycast_whitelist=job.anycast_whitelist,
                checkers=job.checkers,
                cache=self._cache_for(job.tenant),
                node=job.plain_node,
            )
        )


def stream_worker_main(job_queue, result_queue, cache, beacon) -> None:
    """Entry point of one persistent streaming worker process.

    ``beacon`` (a :class:`~repro.parallel.worker.ProgressBeacon`) is
    stamped with the job's dispatch sequence before the session runs and
    cleared after the result is queued — the worker's half of the hang-
    detection protocol.  Stamping brackets the *whole* handle, including
    result pickling: a job is only "done" once its result is safely in
    the queue, so a worker dying mid-put still reads as busy.
    """
    state = _WorkerState(cache, prune=True)
    while True:
        try:
            msg = job_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if msg[0] == _MSG_STOP:
            break
        stamped = msg[0] == _MSG_JOB
        if stamped:
            beacon.stamp(msg[1].seq)
        result = state.handle(msg)
        if result is not None:
            try:
                result_queue.put(result)
            except Exception:  # pragma: no cover - coordinator gone
                break
        if stamped:
            beacon.clear()


class _ProcessWorker:
    """A persistent worker process and its dedicated FIFO job queue.

    ``beacon`` is the :class:`ProgressBeacon` the supervision sweep
    reads for hang detection.  ``images`` tracks which ``(node, epoch)``
    images the coordinator has shipped down this worker's queue —
    mirroring the worker-side prune rule — so a retry referencing an
    older epoch can be preceded by its retained base image instead of
    failing.
    """

    def __init__(self, slot: int, result_queue, cache) -> None:
        self.slot = slot
        self.salvaged = False
        #: Graceful-shrink flag: a retiring worker takes no new jobs, and
        #: its death is a reap (clean retire or salvage) — never a
        #: supervisor respawn.
        self.retiring = False
        #: Lifetime accounting for the worker-seconds economics.
        self.started_at = time.monotonic()
        self.accounted = False
        self.beacon = ProgressBeacon()
        self.images: Set[Tuple[str, int]] = set()
        self.queue: multiprocessing.Queue = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=stream_worker_main,
            args=(self.queue, result_queue, cache, self.beacon),
            daemon=True,
            name=f"repro-stream-worker-{slot}",
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, msg: tuple) -> None:
        self.queue.put(msg)

    def _release_queue(self) -> None:
        try:
            # The worker is gone either way; anything still buffered in
            # the queue has no reader.  Without cancel_join_thread a
            # feeder thread wedged mid-send (worker killed with a full
            # pipe) deadlocks interpreter exit in the queue finalizer.
            self.queue.cancel_join_thread()
            self.queue.close()
        except Exception:  # pragma: no cover
            pass

    def kill(self) -> None:
        """Hard-stop a hung (or already dead) worker; no stop handshake.

        A hung worker will never read a STOP message — its queue is
        behind the job it is stuck on — so the handshake would just
        stall the supervisor for the grace period.
        """
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        self._release_queue()

    def stop(self, grace: float = 2.0) -> None:
        if self.process.is_alive():
            try:
                self.queue.put((_MSG_STOP,))
            except Exception:
                pass
            self.process.join(grace)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(1.0)
        self._release_queue()


class _InlineWorker:
    """In-process stand-in: same message protocol, executed on pump().

    Messages accumulate in a mailbox and run only when the coordinator
    pumps (``poll``/``drain``), never at submit time — preserving the
    stream's enqueue-now-explore-later shape so backpressure and
    coalescing behave identically under the serial fallback.

    ``prune`` follows the process workers' rule when the inline worker
    *is* the pool (the no-fork fallback): its FIFO mailbox gives the
    same ordering guarantee, so superseded epochs drop per node and a
    long-lived serial stream does not retain every epoch's image.  The
    salvage fallback keeps ``prune=False``: it receives re-run jobs out
    of band, possibly referencing epochs its mailbox already advanced
    past (the coordinator re-ships a missing base via
    ``_fallback_images``, but only for images *it* still retains).
    """

    slot = -1
    retiring = False
    started_at = None

    def __init__(self, cache: Optional[object], prune: bool = False) -> None:
        self._state = _WorkerState(cache, prune=prune)
        self._mailbox: Deque[tuple] = deque()
        self.alive = True
        self.salvaged = False

    def send(self, msg: tuple) -> None:
        self._mailbox.append(msg)

    def pump(self) -> List[tuple]:
        results = []
        while self._mailbox:
            result = self._state.handle(self._mailbox.popleft())
            if result is not None:
                results.append(result)
        return results

    def stop(self, grace: float = 0.0) -> None:
        self.alive = False


class WorkerSupervisor:
    """Respawn policy for dead worker slots: backoff, jitter, restart caps.

    Pure bookkeeping — the coordinator owns the actual process spawning
    and image re-shipping; the supervisor decides *whether* a slot may
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
        backoff_cap: float = 2.0,
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
        self._due.pop(slot, None)
        self._attempts[slot] = self._attempts.get(slot, 0) + 1
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


class StreamingExplorer:
    """Continuous exploration: observed seeds in, findings out, no barrier.

    Lifecycle::

        explorer = StreamingExplorer(workers=4)
        explorer.start(live_router)            # epoch 0: full image to workers
        explorer.submit(peer, update)          # as traffic is observed
        explorer.poll()                        # non-blocking harvest
        explorer.advance_epoch()               # re-checkpoint: ships the delta
        report = explorer.close()              # drain, stop workers, final report

    or, bound to a DiCE facade, ``with dice.stream(workers=4): ...`` —
    which routes every observed UPDATE into :meth:`submit` automatically.

    For a federation, :meth:`start_nodes` registers many live routers on
    the *same* pool::

        explorer = StreamingExplorer(workers=4)
        explorer.start_nodes({"as0": r0, "as1": r1, ...})
        explorer.submit(peer, update, node="as1")
        explorer.advance_epoch(node="as1")     # per-node delta base
        report = explorer.close()

    Every worker holds a ``{(node, epoch): image}`` table, so the
    federation costs one pool of ``workers`` processes total; dispatch
    rotates across ASes by recent finding yield (``as_rotation``).
    """

    def __init__(
        self,
        workers: int = 1,
        policy: str = "selective",
        model_kwargs: Optional[dict] = None,
        checkers: Optional[Sequence[FaultChecker]] = None,
        anycast_whitelist: Optional[Sequence[Prefix]] = None,
        strategy: str = "generational",
        strategy_seed: int = 0,
        constraint_cache: bool = True,
        force_serial: bool = False,
        budget: Optional[ExplorationBudget] = None,
        queue_capacity: int = 32,
        max_inflight: Optional[int] = None,
        cache_shards: int = 0,
        coverage_guided: bool = True,
        as_rotation: str = "yield",
        heartbeat_interval: float = 0.05,
        job_deadline: Optional[float] = 300.0,
        retry_budget: int = 2,
        max_restarts: int = 3,
        restart_backoff: float = 0.05,
        restart_backoff_cap: float = 2.0,
        chaos: Optional[ChaosPlan] = None,
        autoscale: bool = False,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        autoscale_interval: float = 0.05,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if as_rotation not in ("yield", "round-robin"):
            raise ValueError(
                f"as_rotation must be 'yield' or 'round-robin', got {as_rotation!r}"
            )
        if job_deadline is not None and job_deadline <= 0:
            raise ValueError(f"job_deadline must be > 0 or None, got {job_deadline}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.workers = workers
        self.policy = policy
        self.model_kwargs = dict(model_kwargs or {})
        self.checkers = list(checkers) if checkers is not None else None
        self.anycast_whitelist = tuple(anycast_whitelist or ())
        self.strategy = strategy
        self.strategy_seed = strategy_seed
        self.constraint_cache = constraint_cache
        self.force_serial = force_serial
        self.budget = budget
        #: Per-(node, peer) pending-seed bound; overflowing coalesces the
        #: oldest.
        self.queue_capacity = queue_capacity
        #: Dispatched-but-unfinished bound; keeps seeds in the pending
        #: queues (where they can still coalesce) instead of piling up
        #: inside worker queues where they cannot.
        self.max_inflight = max_inflight if max_inflight is not None else 2 * workers
        #: 0 = auto (min(4, workers)); shards of the shared solver cache.
        self.cache_shards = cache_shards
        #: Coverage-guided dispatch: score pending seeds by predicted
        #: new-branch coverage (novelty-weighted rotation) instead of
        #: blind per-peer round-robin.  Job indices are assigned at
        #: *submission*, so dispatch order never changes what any single
        #: session computes — the drained finding set stays identical to
        #: the serial loop's whatever order the scheduler picks.
        self.coverage_guided = coverage_guided
        #: Cross-AS dispatch policy for multi-node streams: "yield"
        #: rotates budget toward ASes whose recent sessions produced
        #: findings (FederationScheduler); "round-robin" is blind
        #: rotation.  Single-node streams never consult it.
        self.as_rotation = as_rotation
        self._scheduler = CoverageScheduler() if coverage_guided else None
        self._fed_scheduler = (
            FederationScheduler() if as_rotation == "yield" else None
        )
        #: Minimum seconds between supervision sweeps (beacon reads).
        self.heartbeat_interval = heartbeat_interval
        #: Seconds a single job may run (or its result may be missing)
        #: before its worker is presumed hung and killed; None disables
        #: hang detection.  Must comfortably exceed the slowest honest
        #: session under the configured budget.
        self.job_deadline = job_deadline
        #: Hang-kill retries per job before quarantine.
        self.retry_budget = retry_budget
        self.chaos = chaos
        if chaos is not None:
            # A plan may carry knob overrides (hang plans ship a short
            # deadline so detection takes ~1s in tests, not 5 minutes).
            if chaos.job_deadline is not None:
                self.job_deadline = chaos.job_deadline
            if chaos.retry_budget is not None:
                self.retry_budget = chaos.retry_budget
        self._supervisor = WorkerSupervisor(
            max_restarts=max_restarts,
            backoff=restart_backoff,
            backoff_cap=restart_backoff_cap,
            seed=strategy_seed,
        )
        #: Elastic service mode.  ``workers`` becomes the pool's
        #: *capacity* (max unless overridden) and the pool starts at
        #: ``min_workers`` — a fresh service has no load, so starting
        #: small and growing on demand is the elastic behavior itself.
        self.autoscale = autoscale
        self._auto_inflight = max_inflight is None
        self._autoscaler: Optional[PoolAutoscaler] = None
        if autoscale:
            self._autoscaler = PoolAutoscaler(
                min_workers=min_workers if min_workers is not None else 1,
                max_workers=max_workers if max_workers is not None else workers,
                interval=autoscale_interval,
                seed=strategy_seed,
            )
        elif min_workers is not None or max_workers is not None:
            raise ValueError(
                "min_workers/max_workers require autoscale=True"
            )
        #: Dispatch seq -> JobKey, the beacon protocol's reverse map.
        self._seq_keys: Dict[int, JobKey] = {}
        self._next_seq = 0
        #: JobKey -> monotonic dispatch time of the *latest* attempt.
        self._dispatched_at: Dict[JobKey, float] = {}
        #: JobKey -> hang-kills survived so far (the retry budget's meter).
        self._hang_retries: Dict[JobKey, int] = {}
        #: Jobs awaiting re-dispatch after a hang kill; still in
        #: ``_inflight`` (their images stay retained, ``idle`` stays
        #: False), so this queue is not bounded by ``max_inflight``.
        self._retry_queue: Deque[StreamJob] = deque()
        self._last_sweep = 0.0
        #: First-dispatch counter driving the chaos clock (retries and
        #: salvage re-runs do not advance it).
        self._chaos_clock = 0

        self.report = StreamReport(workers=workers)
        self._pending: Dict[Tuple[str, str], Deque[Tuple[int, UpdateMessage]]] = {}
        self._last_peer: Optional[str] = None
        self._last_node: Optional[str] = None
        #: Service mode: registered tenants, their private reports, and
        #: the cross-tenant fairness layer (yield rotation only).
        self._tenants: Set[str] = set()
        self._tenant_reports: Dict[str, StreamReport] = {}
        self._tenant_scheduler = (
            TenantScheduler() if as_rotation == "yield" else None
        )
        self._last_tenant: Optional[str] = None
        self._started_mono = 0.0
        self._next_index: Dict[str, int] = {}
        self._inflight: Dict[JobKey, StreamJob] = {}
        self._assignment: Dict[JobKey, int] = {}
        self._workers: List[object] = []
        self._fallback: Optional[_InlineWorker] = None
        #: ``(node, epoch)`` images already delivered to the fallback, so
        #: salvage can ship a missing base instead of failing the re-run.
        self._fallback_images: Set[Tuple[str, int]] = set()
        self._result_queue = None
        #: Retained images by ``(node, epoch)``: each node's current
        #: epoch plus any epoch an in-flight job still references.
        self._images: Dict[Tuple[str, int], CheckpointImage] = {}
        #: Each node's latest image — the delta base for the next epoch.
        self._current: Dict[str, CheckpointImage] = {}
        self._epochs: Dict[str, int] = {}
        self._routers: Dict[str, BgpRouter] = {}
        self._cache = None
        self._cache_managers: list = []
        self._started = False
        self._closed = False
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------

    @staticmethod
    def _scoped(tenant: str, node: str) -> str:
        """The internal node key: plain for the default tenant."""
        return f"{tenant}{TENANT_SEP}{node}" if tenant else node

    @staticmethod
    def _tenant_of(scoped: str) -> str:
        return scoped.split(TENANT_SEP, 1)[0] if TENANT_SEP in scoped else ""

    @staticmethod
    def _plain(scoped: str) -> str:
        return scoped.split(TENANT_SEP, 1)[1] if TENANT_SEP in scoped else scoped

    @staticmethod
    def _display(scoped: str) -> str:
        """Human-readable form of a scoped node key (reports, errors)."""
        if TENANT_SEP in scoped:
            tenant, node = scoped.split(TENANT_SEP, 1)
            return f"{tenant}:{node}"
        return scoped

    def start(self, live_router: BgpRouter) -> "StreamingExplorer":
        """Capture epoch 0, spin up the worker pool, ship the full image."""
        return self.start_nodes({DEFAULT_NODE: live_router})

    def start_nodes(
        self, live_routers: Dict[str, BgpRouter], tenant: str = DEFAULT_TENANT
    ) -> "StreamingExplorer":
        """Register a whole federation on one pool.

        Captures every node's epoch-0 image, starts the (single) worker
        pool, and ships each image — node-tagged — to every worker.
        With ``tenant`` given the federation's keys are tenant-scoped;
        further federations join the running pool via :meth:`add_tenant`.
        """
        if self._started:
            raise ExplorationError("stream already started")
        if not live_routers:
            raise ExplorationError("start_nodes needs at least one live router")
        self._started_at = time.perf_counter()
        self._started_mono = time.monotonic()
        self._register_tenant(tenant, live_routers)

        multiprocess = not self.force_serial
        self._setup_cache(multiprocess)
        initial = self.workers
        if self._autoscaler is not None:
            initial = min(self.workers, self._autoscaler.min_workers)
        if multiprocess:
            try:
                self._result_queue = multiprocessing.Queue()
                for slot in range(initial):
                    self._workers.append(
                        _ProcessWorker(slot, self._result_queue, self._cache)
                    )
                self.report.used_processes = True
            except (OSError, PermissionError, ValueError) as exc:
                for worker in self._workers:
                    worker.stop(grace=0.1)
                self._workers = []
                self._result_queue = None
                self.report.fallback_reason = f"{type(exc).__name__}: {exc}"
        if not self._workers:
            self._workers = [_InlineWorker(self._cache, prune=True)]
            self.report.used_processes = False
        if self.chaos is not None and self._result_queue is None:
            # An inline pool would execute injected hangs for real (the
            # sleep runs on the coordinator thread); chaos only makes
            # sense against process workers.
            self.report.chaos_events.append(
                f"chaos plan {self.chaos.name!r} disabled: no process workers"
            )
            self.chaos = None
        for worker in self._workers:
            for node in sorted(self._current):
                self._ship(worker, self._current[node])
        self._started = True
        self._sync_pool_metrics()
        return self

    def _register_tenant(
        self, tenant: str, live_routers: Dict[str, BgpRouter]
    ) -> None:
        """Capture and retain a federation's epoch-0 images, scoped."""
        if TENANT_SEP in tenant:
            raise ExplorationError(f"invalid tenant name {tenant!r}")
        if tenant and tenant in self._tenants:
            raise ExplorationError(f"tenant {tenant!r} already registered")
        capture_started = time.perf_counter()
        for node, router in live_routers.items():
            if TENANT_SEP in node:
                raise ExplorationError(f"invalid node name {node!r}")
            scoped = self._scoped(tenant, node)
            if scoped in self._routers:
                raise ExplorationError(
                    f"node {self._display(scoped)!r} already registered"
                )
            label = (
                f"stream-ckpt-{self._display(scoped)}" if scoped
                else "stream-ckpt"
            )
            image = CheckpointImage.capture(
                router, label, epoch=0, node_id=scoped
            )
            self._routers[scoped] = router
            self._epochs[scoped] = 0
            self._current[scoped] = image
            self._images[(scoped, 0)] = image
        self.report.checkpoint_seconds += time.perf_counter() - capture_started
        self._tenants.add(tenant)
        if tenant:
            self._tenant_reports[tenant] = StreamReport(workers=self.workers)
        self._refresh_image_economics()

    def add_tenant(
        self, tenant: str, live_routers: Dict[str, BgpRouter]
    ) -> "StreamingExplorer":
        """Register another federation on the *running* pool.

        Captures the new tenant's epoch-0 images and ships them to every
        live worker (and the salvage fallback, if one exists), so the
        new tenant's jobs can dispatch anywhere the existing tenants'
        can.  Keys, images, scheduler state, and the constraint cache
        are all tenant-scoped — the federations share capacity, nothing
        else.
        """
        self._require_open()
        if not tenant:
            raise ExplorationError("add_tenant needs a non-empty tenant name")
        if not live_routers:
            raise ExplorationError("add_tenant needs at least one live router")
        self._register_tenant(tenant, live_routers)
        fresh = [
            self._scoped(tenant, node) for node in sorted(live_routers)
        ]
        for worker in self._workers:
            if worker.alive and not worker.salvaged:
                for scoped in fresh:
                    self._ship(worker, self._current[scoped])
        if self._fallback is not None:
            for scoped in fresh:
                self._ship(self._fallback, self._current[scoped])
                self._fallback_images.add((scoped, 0))
        return self

    def explore_corpus(
        self,
        live_routers: Dict[str, BgpRouter],
        corpus: Dict[str, Sequence[Seed]],
        epochs: int = 1,
        churn_threshold: Optional[int] = None,
    ) -> StreamReport:
        """The whole lifecycle over a finite per-node corpus.

        Starts the pool on ``live_routers``, feeds each node's seeds in
        ``epochs`` chunks — every boundary re-checkpoints each node and
        ships its delta (or, with ``churn_threshold``, only for nodes
        churned past it; quiet nodes keep their epoch) — and closes.
        This is what a multi-process batch and a streamed federated
        exploration both are.  A finite corpus is explored in full, so
        the pending queues are sized to hold it: nothing coalesces.
        """
        self.queue_capacity = max(
            [self.queue_capacity, *(len(seeds) for seeds in corpus.values())]
        )
        self.start_nodes(live_routers)
        try:
            chunks = {
                node: split_chunks(seeds, epochs)
                for node, seeds in corpus.items()
            }
            for chunk_index in range(epochs):
                if chunk_index > 0:
                    for node in sorted(corpus):
                        self.advance_epoch(
                            node, churn_threshold=churn_threshold
                        )
                for node in corpus:
                    for peer, update in chunks[node][chunk_index]:
                        self.submit(peer, update, node=node)
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

    def _setup_cache(self, multiprocess: bool) -> None:
        if not self.constraint_cache:
            return
        if multiprocess:
            shards = self.cache_shards or min(4, self.workers)
            try:
                self._cache, self._cache_managers = start_sharded_cache(shards)
                self.report.cache_shards = shards
                return
            except (OSError, PermissionError):
                # No manager processes available: per-process L1-only is
                # still correct (a miss is always safe), so degrade to a
                # local dict each worker deep-copies at spawn.
                self._cache_managers = []
        self._cache = DictConstraintCache()

    def _refresh_image_economics(self) -> None:
        """Report-side view of what a full re-ship of every node costs."""
        self.report.full_checkpoint_bytes = sum(
            image.total_bytes for image in self._current.values()
        )
        self.report.checkpoint_pages = sum(
            len(image.pages) for image in self._current.values()
        )

    # -- seed intake ---------------------------------------------------------

    def submit(
        self,
        peer: str,
        update: UpdateMessage,
        node: str = DEFAULT_NODE,
        tenant: str = DEFAULT_TENANT,
    ) -> int:
        """Enqueue an observed seed; returns its per-node arrival index.

        Non-blocking: if the ``(node, peer)`` pending queue is full, the
        oldest unscheduled seed from that queue is superseded (coalescing
        backpressure) — mirroring the DiCE ring buffers — rather than
        blocking the observer, which sits on the live message path.
        Indices count per *scoped* node, so each tenant's sessions derive
        the same strategy RNGs as running that tenant alone.
        """
        self._require_open()
        node = self._scoped(tenant, node)
        if node not in self._routers:
            raise ExplorationError(
                f"seed for unregistered node {self._display(node)!r} "
                f"(stream serves "
                f"{sorted(self._display(n) for n in self._routers)})"
            )
        index = self._next_index.get(node, 0)
        self._next_index[node] = index + 1
        buffer = self._pending.setdefault((node, peer), deque())
        if len(buffer) >= self.queue_capacity:
            buffer.popleft()
            self.report.seeds_coalesced += 1
        buffer.append((index, update))
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
        return sorted(self._routers)

    @property
    def pending_seeds(self) -> int:
        return sum(len(buffer) for buffer in self._pending.values())

    @property
    def inflight_jobs(self) -> int:
        return len(self._inflight)

    @property
    def idle(self) -> bool:
        """No seed waiting and no job running."""
        return not self.pending_seeds and not self._inflight

    def federation_yields(
        self, tenant: Optional[str] = None
    ) -> Dict[str, float]:
        """Per-AS finding-yield EWMAs driving cross-AS dispatch rotation.

        With ``tenant`` given, only that tenant's nodes are returned,
        unscoped — the view a federation running alone would see.
        """
        if self._fed_scheduler is None:
            return {}
        yields = self._fed_scheduler.yields()
        if tenant is None:
            return yields
        prefix = tenant + TENANT_SEP
        return {
            key[len(prefix):]: value
            for key, value in yields.items()
            if key.startswith(prefix)
        }

    @property
    def tenants(self) -> List[str]:
        """Registered named tenants (the default tenant is not listed)."""
        return sorted(tenant for tenant in self._tenants if tenant)

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
        if self._tenant_scheduler is None:
            return {}
        return self._tenant_scheduler.yields()

    # -- dispatch / harvest --------------------------------------------------

    @staticmethod
    def _scheduler_key(node: str, peer: str) -> str:
        """Coverage-scheduler identity for one (node, peer) seed source.

        Qualified by node so two ASes' same-named peers (every generated
        topology names neighbors by AS id) keep separate EWMAs.
        """
        return f"{node}\x00{peer}" if node else peer

    def _pick_node(self) -> Optional[str]:
        """Which federation node's queues to serve next.

        Single-node streams short-circuit.  Multi-node dispatch rotates
        by recent finding yield (:class:`FederationScheduler`) or blind
        round-robin, per ``as_rotation``; either way job results are
        placement-independent, so this only shapes latency.
        """
        nodes = sorted({node for (node, _), buf in self._pending.items() if buf})
        if not nodes:
            return None
        if self._tenant_scheduler is not None and len(self._tenants) > 1:
            # Tenant first: the fairness layer picks which federation's
            # turn it is (yield-weighted deficit rotation), then the
            # regular per-AS rotation runs within that tenant's nodes.
            tenants = sorted({self._tenant_of(node) for node in nodes})
            if len(tenants) > 1:
                picked = self._tenant_scheduler.pick(
                    [(tenant, None) for tenant in tenants],
                    after=self._last_tenant,
                )
                tenant = tenants[picked]
                self._last_tenant = tenant
                nodes = [n for n in nodes if self._tenant_of(n) == tenant]
        if len(nodes) == 1:
            choice = nodes[0]
        elif self._fed_scheduler is not None:
            picked = self._fed_scheduler.pick(
                [(node, None) for node in nodes], after=self._last_node
            )
            choice = nodes[picked]
        else:
            start = 0
            if self._last_node in nodes:
                start = (nodes.index(self._last_node) + 1) % len(nodes)
            choice = nodes[start]
        self._last_node = choice
        return choice

    def _next_seed(self) -> Optional[Tuple[str, int, str, UpdateMessage]]:
        """The most promising pending seed (coverage-guided), else rotation.

        Node first (finding-yield rotation across ASes), then peer within
        the node: candidates are each peer's oldest unscheduled seed,
        scored by the peer's recent new-coverage EWMA and the seed's
        novelty, falling back to the original per-peer round-robin on
        ties (and exactly reproducing it until the first harvested
        report arrives).  The scheduler's ``mark_scheduled`` is *not*
        called here — dispatch marks a seed only once a worker actually
        accepted it, so a dropped job never leaks a permanently-
        "scheduled" signature.
        """
        node = self._pick_node()
        if node is None:
            return None
        peers = [
            peer for (n, peer), buffer in self._pending.items()
            if n == node and buffer
        ]
        if self._scheduler is not None:
            candidates = [
                (
                    self._scheduler_key(node, peer),
                    seed_signature(self._pending[(node, peer)][0][1]),
                )
                for peer in peers
            ]
            choice = self._scheduler.pick(candidates, after=self._last_peer)
            peer = peers[choice]
        else:
            start = 0
            scoped = [self._scheduler_key(node, peer) for peer in peers]
            if self._last_peer in scoped:
                start = (scoped.index(self._last_peer) + 1) % len(peers)
            peer = peers[start]
        self._last_peer = self._scheduler_key(node, peer)
        index, update = self._pending[(node, peer)].popleft()
        return node, index, peer, update

    def _pick_worker(self):
        alive = [
            worker
            for worker in self._workers
            if worker.alive and not worker.retiring
        ]
        if not alive:
            return self._ensure_fallback()
        # Rotate by dispatch count so load spreads without bookkeeping
        # per worker; job placement does not affect results.
        return alive[self.report.jobs_dispatched % len(alive)]

    def _alive_process_workers(self) -> List["_ProcessWorker"]:
        return [
            worker
            for worker in self._workers
            if isinstance(worker, _ProcessWorker) and worker.alive
        ]

    def _dispatchable_process_workers(self) -> List["_ProcessWorker"]:
        """Live process workers that may still take new jobs."""
        return [
            worker
            for worker in self._alive_process_workers()
            if not worker.retiring
        ]

    def _assign_seq(self, job: StreamJob) -> None:
        """Give this dispatch attempt a fresh beacon sequence number."""
        self._seq_keys.pop(job.seq, None)
        self._next_seq += 1
        job.seq = self._next_seq
        self._seq_keys[job.seq] = job.key
        self._dispatched_at[job.key] = time.monotonic()

    def _dispatch(self) -> int:
        dispatched = self._dispatch_retries()
        while len(self._inflight) < self.max_inflight:
            if (
                self._result_queue is not None
                and not self._dispatchable_process_workers()
                and self._supervisor.pending
            ):
                # The whole pool is momentarily dead but respawns are
                # booked: hold fresh seeds in the pending queues (where
                # they still coalesce) rather than burning them inline.
                break
            seed = self._next_seed()
            if seed is None:
                break
            node, index, peer, update = seed
            job = StreamJob(
                index=index,
                epoch=self._epochs[node],
                peer=peer,
                observed=update,
                node=node,
                policy=self.policy,
                model_kwargs=dict(self.model_kwargs),
                budget=self.budget,
                strategy=self.strategy,
                strategy_seed=self.strategy_seed,
                anycast_whitelist=self.anycast_whitelist,
                checkers=self.checkers,
                tenant=self._tenant_of(node),
            )
            worker = self._pick_worker()
            if isinstance(worker, _ProcessWorker):
                # Fail loudly *here*: an unpicklable payload handed to
                # mp.Queue is dropped by the feeder thread with only a
                # stderr traceback, leaving the job in-flight forever
                # and drain() spinning.  The job is small (no checkpoint
                # inside), so the validation pickle is cheap.
                try:
                    pickle.dumps(job)
                except Exception as exc:
                    # The seed was already popped and its index consumed:
                    # account the hole so completed+dropped adds up, and
                    # leave the scheduler untouched — the signature was
                    # never marked scheduled, so its novelty bookkeeping
                    # cannot leak a seed no worker ever ran.
                    self.report.jobs_dropped += 1
                    self.report.errors.append(
                        f"job {index} ({self._describe(node, peer)}) is not "
                        f"picklable: {type(exc).__name__}: {exc}"
                    )
                    continue
            # The chaos clock ticks on *first* dispatches only; retries
            # and salvage re-runs never advance it, so a plan's later
            # events land on the same seeds whatever recovery happened.
            self._chaos_clock += 1
            self._apply_chaos_attach(job)
            self._assign_seq(job)
            worker.send((_MSG_JOB, job))
            if self._scheduler is not None:
                self._scheduler.mark_scheduled(seed_signature(update))
            self._inflight[job.key] = job
            self._assignment[job.key] = worker.slot
            self.report.jobs_dispatched += 1
            dispatched += 1
            self._fire_chaos_dispatch_events()
        return dispatched

    def _dispatch_retries(self) -> int:
        """Re-dispatch jobs recovered from hang-killed workers.

        Not bounded by ``max_inflight``: retried jobs are already
        in-flight (their images stay retained and ``idle`` stays False
        while they wait).  Retries prefer live process workers, wait out
        a pending respawn, and only fall back inline for jobs that were
        never themselves hang suspects — an inline hang would wedge the
        coordinator, which is the exact failure this layer removes.
        """
        sent = 0
        while self._retry_queue:
            job = self._retry_queue[0]
            if job.key not in self._inflight:
                # A late result from the killed worker's queue beat the
                # retry; the job is done — drop the duplicate attempt.
                self._retry_queue.popleft()
                continue
            alive = self._dispatchable_process_workers()
            if alive:
                self._retry_queue.popleft()
                worker = alive[sent % len(alive)]
                if job.image_key not in worker.images:
                    image = self._images.get(job.image_key)
                    if image is None:  # pragma: no cover - invariant broken
                        self._quarantine(job, "base image evicted before retry")
                        continue
                    self._ship(worker, image)
                self._assign_seq(job)
                worker.send((_MSG_JOB, job))
                self._assignment[job.key] = worker.slot
                sent += 1
                continue
            if self._supervisor.pending:
                break  # the pool is coming back; hold the retries
            # Pool permanently gone (restart caps exhausted):
            # quarantine hang suspects, run the innocent bystanders
            # inline like any other salvage.
            self._retry_queue.popleft()
            if self._hang_retries.get(job.key, 0) > 0:
                self._quarantine(
                    job, "no process worker left to retry a hang suspect"
                )
                continue
            fallback = self._ensure_fallback()
            if job.image_key not in self._fallback_images:
                image = self._images.get(job.image_key)
                if image is None:  # pragma: no cover - invariant broken
                    self._quarantine(job, "base image evicted before retry")
                    continue
                fallback.send((_MSG_EPOCH, image))
                self._fallback_images.add(job.image_key)
            fallback.send((_MSG_JOB, job))
            self._assignment[job.key] = fallback.slot
            sent += 1
        return sent

    def _quarantine(self, job: StreamJob, reason: str) -> None:
        """Give up on a poison job; record it and keep the stream alive."""
        key = job.key
        self._inflight.pop(key, None)
        self._assignment.pop(key, None)
        self._dispatched_at.pop(key, None)
        self._seq_keys.pop(job.seq, None)
        retries = self._hang_retries.pop(key, 0)
        self.report.quarantined.append(
            QuarantinedJob(
                node=job.node,
                index=job.index,
                peer=job.peer,
                retries=retries,
                reason=reason,
            )
        )
        self._prune_images()

    # -- chaos injection -----------------------------------------------------

    def _apply_chaos_attach(self, job: StreamJob) -> None:
        """Attach any job-riding faults scheduled for this dispatch."""
        if self.chaos is None:
            return
        hang, drop, sticky = 0.0, False, False
        for event in self.chaos.events_at(self._chaos_clock):
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
        if self.chaos is None:
            return
        for event in self.chaos.events_at(self._chaos_clock):
            if event.attaches:
                continue
            if event.kind == "kill-worker":
                target = event.worker
                if target == HIGHEST_SLOT:
                    # "Whatever slot is highest right now" — under an
                    # elastic pool that is the most recently grown or
                    # currently retiring worker.  Retiring workers are
                    # deliberately eligible: killing one mid-drain is
                    # the shrink/chaos interplay this mode exists for.
                    live = self._alive_process_workers()
                    if not live:
                        continue
                    target = max(worker.slot for worker in live)
                for worker in self._workers:
                    if (
                        isinstance(worker, _ProcessWorker)
                        and worker.slot == target
                        and worker.alive
                    ):
                        # SIGTERM with no cleanup: indistinguishable from
                        # an OOM kill as far as the coordinator can see.
                        worker.process.terminate()
                        worker.process.join(1.0)
                        self.report.chaos_events.append(event.describe())
                        break
            elif event.kind == "kill-cache":
                self._kill_cache_managers()
                self.report.chaos_events.append(event.describe())
                self._refresh_cache_health()

    def _kill_cache_managers(self) -> None:
        """Abruptly kill the shard manager processes (chaos only)."""
        for manager in self._cache_managers:
            process = getattr(manager, "_process", None)
            try:
                if process is not None:
                    process.terminate()
                    process.join(1.0)
                else:  # pragma: no cover - manager without a process
                    manager.shutdown()
            except Exception:  # pragma: no cover
                pass

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> bool:
        """One supervision sweep: hang detection, then due respawns.

        Rate-limited to ``heartbeat_interval`` so the per-collect cost
        is a clock read on the hot path.
        """
        if self._result_queue is None:
            return False
        now = time.monotonic()
        if now - self._last_sweep < self.heartbeat_interval:
            return False
        self._last_sweep = now
        progressed = self._sweep_hangs(now)
        progressed |= self._respawn_due(now)
        return progressed

    def _sweep_hangs(self, now: float) -> bool:
        if self.job_deadline is None:
            return False
        deadline = self.job_deadline
        progressed = False
        for worker in list(self._workers):
            if not isinstance(worker, _ProcessWorker):
                continue
            if not worker.alive or worker.salvaged:
                continue
            stamp, seq = worker.beacon.read()
            if seq >= 0:
                # Busy on a known job: hung if it has run past the
                # deadline by the worker's own stamp.
                if stamp > 0 and now - stamp > deadline:
                    key = self._seq_keys.get(seq)
                    self._handle_hang(
                        worker,
                        key,
                        f"ran past its {deadline:g}s deadline",
                    )
                    progressed = True
            else:
                # Idle, yet a job dispatched to this worker a full
                # deadline ago never produced a result: the result was
                # lost (dropped, or died in the queue).  Require the
                # worker to have been idle for a deadline too, so a job
                # merely queued behind a long-running predecessor is
                # never mistaken for a lost one.
                idle_long = stamp == 0.0 or now - stamp > deadline
                if not idle_long:
                    continue
                overdue = [
                    key
                    for key, slot in self._assignment.items()
                    if slot == worker.slot
                    and key in self._inflight
                    and now - self._dispatched_at.get(key, now) > deadline
                ]
                if overdue:
                    self._handle_hang(
                        worker,
                        min(overdue),
                        f"result missing {deadline:g}s past its deadline",
                    )
                    progressed = True
        return progressed

    def _handle_hang(
        self, worker: "_ProcessWorker", key: Optional[JobKey], reason: str
    ) -> None:
        """Kill a hung worker; meter the hung job, requeue the innocent.

        ``salvaged`` is set *before* the kill so the generic crash
        salvage never inline-runs a hang suspect — re-running a genuine
        hang on the coordinator thread would wedge the exact loop this
        detection protects.
        """
        self.report.hangs_detected += 1
        worker.salvaged = True
        worker.kill()
        self._account_worker(worker)
        lost = [
            k
            for k, slot in self._assignment.items()
            if slot == worker.slot and k in self._inflight
        ]
        for k in sorted(lost):
            job = self._inflight[k]
            self._assignment.pop(k, None)
            self._dispatched_at.pop(k, None)
            if k == key:
                count = self._hang_retries.get(k, 0) + 1
                self._hang_retries[k] = count
                if count > self.retry_budget:
                    self._quarantine(
                        job,
                        f"{reason}; retry budget ({self.retry_budget}) exhausted",
                    )
                    continue
                if job.chaos is not None and not job.chaos.sticky:
                    job.chaos = None  # one-shot fault: the retry runs clean
            self._retry_queue.append(job)
            self.report.jobs_retried += 1
        if not worker.retiring:
            # A retiring worker's death is the reap's business (clean
            # retire or salvage); booking a respawn would undo the
            # shrink the autoscaler just decided on.
            self._supervisor.note_death(worker.slot, time.monotonic())
        if not self._alive_process_workers() and not self._supervisor.pending:
            self.report.used_processes = False

    def _respawn_due(self, now: float) -> bool:
        """Bring booked slots back: fresh process, current images re-shipped."""
        progressed = False
        for slot in self._supervisor.due_slots(now):
            try:
                replacement = _ProcessWorker(
                    slot, self._result_queue, self._cache
                )
            except (OSError, PermissionError, ValueError) as exc:
                if not self._supervisor.respawn_failed(slot, now):
                    self.report.errors.append(
                        f"worker {slot} respawn abandoned: "
                        f"{type(exc).__name__}: {exc}"
                    )
                continue
            for position, worker in enumerate(self._workers):
                if isinstance(worker, _ProcessWorker) and worker.slot == slot:
                    worker.kill()  # release the dead predecessor's queue
                    self._workers[position] = replacement
                    break
            else:  # pragma: no cover - slot vanished from the pool
                self._workers.append(replacement)
            for node in sorted(self._current):
                self._ship(replacement, self._current[node])
            self._supervisor.respawned(slot)
            self.report.workers_restarted += 1
            self.report.used_processes = True
            progressed = True
        return progressed

    # -- elastic pool --------------------------------------------------------

    def _pool_size(self) -> int:
        """Current dispatchable pool size (inline pools count as 1)."""
        if self._result_queue is None:
            return len([w for w in self._workers if w.alive])
        return len(self._dispatchable_process_workers())

    def _account_worker(self, worker) -> None:
        """Fold one worker's lifetime into ``worker_seconds`` (once)."""
        started = getattr(worker, "started_at", None)
        if started is None or getattr(worker, "accounted", True):
            return
        worker.accounted = True
        self.report.worker_seconds += time.monotonic() - started

    def _sync_pool_metrics(self) -> None:
        size = self._pool_size()
        self.report.pool_size = size
        if size > self.report.pool_high_water:
            self.report.pool_high_water = size
        if self.report.pool_low_water == 0 or size < self.report.pool_low_water:
            self.report.pool_low_water = size
        if (
            self._auto_inflight
            and self._autoscaler is not None
            and self._result_queue is not None
        ):
            # Elastic pools re-derive the in-flight window from the live
            # size, so a grown pool is actually fed and a shrunk one
            # keeps seeds in the (coalescing) pending queues.
            self.max_inflight = max(2, 2 * size)

    def _record_resize(self, kind: str, slot: int, now: float) -> None:
        self._sync_pool_metrics()
        self.report.resize_events.append(
            f"t+{now - self._started_mono:.2f}s {kind}(worker {slot}) "
            f"pool={self.report.pool_size}"
        )

    def _autoscale_tick(self) -> bool:
        """Feed the autoscaler one observation; act on its decision."""
        if self._autoscaler is None or self._result_queue is None:
            return False
        now = time.monotonic()
        alive = len(self._dispatchable_process_workers())
        decision = self._autoscaler.observe(
            now,
            pending=self.pending_seeds,
            inflight=len(self._inflight),
            completed=self.report.jobs_completed,
            alive=alive,
        )
        if decision == "grow":
            return self._grow_one(now)
        if decision == "shrink":
            return self._shrink_one(now)
        return False

    def _grow_one(self, now: float) -> bool:
        """Add one worker at the lowest free slot; ship current images."""
        if len(self._dispatchable_process_workers()) >= self._autoscaler.max_workers:
            return False
        occupied = {
            worker.slot
            for worker in self._workers
            if isinstance(worker, _ProcessWorker)
        }
        slot = 0
        while slot in occupied:
            slot += 1
        # A fresh logical worker at this position: no restart history.
        self._supervisor.reset_slot(slot)
        try:
            worker = _ProcessWorker(slot, self._result_queue, self._cache)
        except (OSError, PermissionError, ValueError) as exc:
            self.report.errors.append(
                f"autoscale grow at slot {slot} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            return False
        for node in sorted(self._current):
            self._ship(worker, self._current[node])
        self._workers.append(worker)
        self._record_resize("grow", slot, now)
        return True

    def _shrink_one(self, now: float) -> bool:
        """Retire the highest dispatchable slot, gracefully.

        The STOP message queues *behind* anything already on the
        worker's FIFO, so its in-flight jobs finish and their results
        are harvested normally; the worker then exits and
        :meth:`_reap_retired` prunes it.  The highest slot is the
        deterministic victim — under grow-then-shrink the pool returns
        to exactly the workers it started with.
        """
        candidates = self._dispatchable_process_workers()
        if len(candidates) <= self._autoscaler.min_workers:
            return False
        worker = max(candidates, key=lambda w: w.slot)
        worker.retiring = True
        try:
            worker.send((_MSG_STOP,))
        except Exception:  # pragma: no cover - queue already broken
            pass
        self._record_resize("shrink", worker.slot, now)
        return True

    def _reap_retired(self) -> bool:
        """Collect retired workers that have exited; salvage chaos kills.

        A retiring worker that died *with* jobs still assigned did not
        drain — a crash or chaos kill beat the STOP message — so its
        in-flight work is salvaged to the inline fallback exactly like
        any dead worker's.  Either way the slot is pruned (worker list,
        queue, supervisor history) rather than respawned: the shrink
        decision stands.
        """
        progressed = False
        now = time.monotonic()
        for worker in list(self._workers):
            if not isinstance(worker, _ProcessWorker) or not worker.retiring:
                continue
            if worker.alive:
                continue
            lost = [
                key
                for key, slot in self._assignment.items()
                if slot == worker.slot and key in self._inflight
            ]
            if lost and not worker.salvaged:
                worker.salvaged = True
                fallback = self._ensure_fallback()
                for key in sorted(lost):
                    job = self._inflight[key]
                    if job.image_key not in self._fallback_images:
                        image = self._images.get(job.image_key)
                        if image is None:  # pragma: no cover - invariant broken
                            self.report.errors.append(
                                f"job {job.index} "
                                f"({self._describe(job.node, job.peer)}): "
                                f"salvage impossible, image for epoch "
                                f"{job.epoch} evicted"
                            )
                            del self._inflight[key]
                            self._assignment.pop(key, None)
                            continue
                        fallback.send((_MSG_EPOCH, image))
                        self._fallback_images.add(job.image_key)
                    fallback.send((_MSG_JOB, job))
                    self._assignment[key] = fallback.slot
                    self.report.jobs_recovered += 1
            worker.kill()  # releases the queue; the process is gone
            self._workers.remove(worker)
            self._supervisor.reset_slot(worker.slot)
            self._account_worker(worker)
            self.report.workers_retired += 1
            self._record_resize("retired", worker.slot, now)
            progressed = True
        return progressed

    def _refresh_cache_health(self) -> None:
        """Pull shard liveness from the cache into the report."""
        info_fn = getattr(self._cache, "info", None)
        if info_fn is None:
            return
        try:
            info = info_fn()
        except Exception:  # pragma: no cover - cache wholly unreachable
            return
        if "shards" not in info:
            return  # in-process dict cache: nothing shard-shaped to report
        self.report.cache_shards = int(info.get("shards", 0))
        self.report.degraded_shards = int(info.get("degraded_shards", 0))
        self.report.cache_degraded_ops = int(info.get("degraded_ops", 0))

    @classmethod
    def _describe(cls, node: str, peer: str) -> str:
        return f"{cls._display(node)}:{peer}" if node else peer

    def _touch_wall(self) -> None:
        """Keep the report's wall clock live so mid-stream summaries work."""
        if self._started and not self._closed:
            self.report.wall_seconds = time.perf_counter() - self._started_at

    def _next_wakeup(self, now: float, cap: float = 0.25) -> float:
        """Seconds until the soonest coordinator deadline, capped.

        The event-driven wait must return in time for whatever the
        coordinator owes next: a due respawn, the next hang sweep, an
        overdue-job deadline, the next autoscale tick.
        """
        deadlines = [self._last_sweep + self.heartbeat_interval]
        due = self._supervisor.next_due()
        if due is not None:
            deadlines.append(due)
        if self.job_deadline is not None and self._dispatched_at:
            deadlines.append(
                min(self._dispatched_at.values()) + self.job_deadline
            )
        if self._autoscaler is not None:
            tick = self._autoscaler.next_tick()
            if tick is not None:
                deadlines.append(tick)
        return max(0.0, min(min(deadlines) - now, cap))

    def _wait_events(self, max_wait: float) -> None:
        """Block until a result can arrive, a worker dies, or a deadline.

        ``multiprocessing.connection.wait`` over the result queue's
        reader pipe and every live worker's process sentinel: a result
        in the pipe *or* a worker death wakes the coordinator
        immediately, so neither harvest latency nor crash detection has
        a polling floor.  The timeout is the next computed deadline, so
        supervision and autoscale still run on time with no results
        flowing.
        """
        timeout = min(max_wait, self._next_wakeup(time.monotonic()))
        if timeout <= 0:
            return
        reader = getattr(self._result_queue, "_reader", None)
        if reader is None:  # pragma: no cover - exotic queue implementation
            time.sleep(min(timeout, 0.005))
            return
        conns = [reader]
        for worker in self._workers:
            if isinstance(worker, _ProcessWorker) and worker.alive:
                try:
                    conns.append(worker.process.sentinel)
                except Exception:  # pragma: no cover - process torn down
                    pass
        try:
            mp_connection.wait(conns, timeout)
        except OSError:  # pragma: no cover - sentinel closed mid-wait
            pass

    def _collect(self, pump_inline: bool, block_seconds: float = 0.0) -> bool:
        """Drain ready results; returns True if anything progressed."""
        progressed = False
        self._touch_wall()
        if self._result_queue is not None:
            if block_seconds > 0.0:
                self._wait_events(block_seconds)
                # The wait already slept; take whatever landed with a
                # tiny grace for the queue's feeder latency.
                block_seconds = 0.01
            while True:
                try:
                    if block_seconds > 0.0:
                        msg = self._result_queue.get(timeout=block_seconds)
                        block_seconds = 0.0
                    else:
                        msg = self._result_queue.get_nowait()
                except (queue_module.Empty, EOFError, OSError):
                    break
                self._handle_result(msg)
                progressed = True
            progressed |= self._reap_retired()
            progressed |= self._salvage_dead_workers()
            progressed |= self._supervise()
            progressed |= self._autoscale_tick()
        if pump_inline:
            for worker in self._inline_workers():
                for msg in worker.pump():
                    self._handle_result(msg)
                    progressed = True
        return progressed

    def _inline_workers(self) -> List[_InlineWorker]:
        inline = [w for w in self._workers if isinstance(w, _InlineWorker)]
        if self._fallback is not None:
            inline.append(self._fallback)
        return inline

    def _handle_result(self, msg: tuple) -> None:
        kind, key = msg[0], msg[1]
        if kind == _RES_REPORT:
            if key not in self._inflight:
                # Already salvaged/retried elsewhere; first result won.
                # Clear any bookkeeping a late duplicate left behind.
                self._assignment.pop(key, None)
                self._dispatched_at.pop(key, None)
                return
            job = self._inflight[key]
            del self._inflight[key]
            self._assignment.pop(key, None)
            dispatched = self._dispatched_at.pop(key, None)
            self._hang_retries.pop(key, None)
            self._seq_keys.pop(job.seq, None)
            if dispatched is not None:
                latency = time.monotonic() - dispatched
                self.report.harvest_latency_total += latency
                self.report.harvest_latency_count += 1
                if latency > self.report.harvest_latency_max:
                    self.report.harvest_latency_max = latency
            self.report.add_stream_report(key, msg[2])
            session = msg[2]
            tenant = self._tenant_of(key[0])
            if tenant:
                treport = self._tenant_reports.get(tenant)
                if treport is not None:
                    # Tenant reports carry *plain* node keys — the view
                    # the federation would have running alone, which is
                    # what the per-tenant parity checks compare against.
                    treport.add_stream_report(
                        (self._plain(key[0]), key[1]), session
                    )
                self.report.jobs_by_tenant[tenant] = (
                    self.report.jobs_by_tenant.get(tenant, 0) + 1
                )
            if self._scheduler is not None:
                self._scheduler.note_session(
                    self._scheduler_key(key[0], session.peer),
                    session.exploration.coverage,
                )
            if self._fed_scheduler is not None:
                self._fed_scheduler.note_findings(key[0], len(session.findings))
            if self._tenant_scheduler is not None and tenant:
                self._tenant_scheduler.note_findings(
                    tenant, len(session.findings)
                )
        elif kind == _RES_ERROR:
            if key == _NO_JOB:
                self.report.errors.append(str(msg[2]))
                return
            job = self._inflight.pop(key, None)
            self._assignment.pop(key, None)
            self._dispatched_at.pop(key, None)
            self._hang_retries.pop(key, None)
            if job is not None:
                self._seq_keys.pop(job.seq, None)
                message = (
                    f"job {job.index} ({self._describe(job.node, job.peer)}): "
                    f"{msg[2]}"
                )
                self.report.errors.append(message)
                if job.tenant:
                    treport = self._tenant_reports.get(job.tenant)
                    if treport is not None:
                        treport.errors.append(message)
        self._prune_images()

    def _ensure_fallback(self) -> _InlineWorker:
        """The in-process salvage worker, created (and primed) on demand."""
        if self._fallback is None:
            cache = self._cache if self._cache is not None else None
            self._fallback = _InlineWorker(cache)
            # Prime it with full images for every (node, epoch) still
            # retained; deltas are useless to a worker with no base
            # image.  _fallback_images records what it holds so a later
            # salvage can ship any base the retention table has that the
            # fallback missed.
            for key in sorted(self._images):
                self._fallback.send((_MSG_EPOCH, self._images[key]))
                self._fallback_images.add(key)
        return self._fallback

    def _salvage_dead_workers(self) -> bool:
        """Re-run a dead worker's in-flight jobs on the inline fallback."""
        salvaged = False
        for worker in self._workers:
            if not isinstance(worker, _ProcessWorker):
                continue
            if worker.alive or worker.salvaged or worker.retiring:
                # Retiring workers are handled by _reap_retired: their
                # death is expected (STOP) or salvaged there, and never
                # books a respawn.
                continue
            worker.salvaged = True
            lost = [
                key
                for key, slot in self._assignment.items()
                if slot == worker.slot and key in self._inflight
            ]
            fallback = self._ensure_fallback()
            for key in lost:
                job = self._inflight[key]
                # The retention invariant (_prune_images keeps every
                # in-flight job's (node, epoch)) guarantees the base is
                # still here; ship it if the fallback predates it or was
                # primed before this epoch existed.
                if job.image_key not in self._fallback_images:
                    image = self._images.get(job.image_key)
                    if image is None:  # pragma: no cover - invariant broken
                        self.report.errors.append(
                            f"job {job.index} "
                            f"({self._describe(job.node, job.peer)}): salvage "
                            f"impossible, image for epoch {job.epoch} evicted"
                        )
                        del self._inflight[key]
                        self._assignment.pop(key, None)
                        continue
                    fallback.send((_MSG_EPOCH, image))
                    self._fallback_images.add(job.image_key)
                fallback.send((_MSG_JOB, job))
                self._assignment[key] = fallback.slot
                self.report.jobs_recovered += 1
            if not self.report.fallback_reason:
                self.report.fallback_reason = (
                    f"worker {worker.slot} died; in-flight jobs re-run in-process"
                )
            self._account_worker(worker)
            self._supervisor.note_death(worker.slot, time.monotonic())
            salvaged = True
        if (
            salvaged
            and not self._alive_process_workers()
            and not self._supervisor.pending
        ):
            # The pool is gone for good (restart caps exhausted).  With
            # a respawn booked the flag stays up: the stream is still a
            # process pool, just momentarily short.
            self.report.used_processes = False
        return salvaged

    def _prune_images(self) -> None:
        """Drop retained images nothing references.

        Retained = each node's current epoch (the next delta's base)
        plus every ``(node, epoch)`` an *in-flight* job still names — a
        dead-worker salvage may need to prime the fallback with exactly
        that base image, so eviction must wait for the job to finish,
        not merely for its epoch to be superseded.
        """
        needed = {(node, epoch) for node, epoch in self._epochs.items()}
        needed |= {job.image_key for job in self._inflight.values()}
        for key in [k for k in self._images if k not in needed]:
            del self._images[key]

    # -- epochs --------------------------------------------------------------

    def _ship(self, worker, payload) -> None:
        worker.send((_MSG_EPOCH, payload))
        if isinstance(payload, CheckpointDelta):
            self.report.checkpoint_bytes_shipped += payload.bytes_shipped
            self.report.checkpoint_segments_shipped += payload.segments_shipped
            shipped_key = (payload.node, payload.epoch)
        else:
            self.report.checkpoint_bytes_shipped += payload.total_bytes
            self.report.checkpoint_segments_shipped += len(payload.segments)
            shipped_key = payload.image_key
        images = getattr(worker, "images", None)
        if images is not None:
            # Mirror the worker-side prune: a new epoch supersedes the
            # node's older images *unless* the ship is itself an older
            # full image (a retry's base), which prunes nothing.
            images.add(shipped_key)
            stale = {
                key
                for key in images
                if key[0] == shipped_key[0] and key[1] < shipped_key[1]
            }
            images.difference_update(stale)

    def advance_epoch(
        self,
        node: str = DEFAULT_NODE,
        tenant: str = DEFAULT_TENANT,
        churn_threshold: Optional[int] = None,
    ) -> Dict[str, object]:
        """Epoch boundary for one node: re-checkpoint, ship only the diff.

        Every live worker gets the node-tagged delta (its resident image
        for that node plus the changed segments reassemble the new epoch
        byte-identically); jobs for this node dispatched from here on
        reference the new epoch.  Other nodes' images and epochs are
        untouched — per-node delta bases are the whole point of the
        ``(node, epoch)`` keying.  Returns the shipping economics for
        logging/benchmarks.

        ``churn_threshold`` makes the advance *churn-driven*: the fresh
        capture's dirty-segment count against the node's current image
        is measured first, and below the threshold nothing ships — the
        epoch stands, the capture is discarded, and the skip is counted
        (``epochs_skipped_quiet``).  Because the base image is unchanged,
        churn accumulates across skipped boundaries: a node quiet for
        five boundaries then suddenly busy ships one delta carrying all
        five boundaries' worth of change.
        """
        self._require_open()
        node = self._scoped(tenant, node)
        if node not in self._routers:
            raise ExplorationError(
                f"advance_epoch for unregistered node "
                f"{self._display(node)!r} (stream serves "
                f"{sorted(self._display(n) for n in self._routers)})"
            )
        capture_started = time.perf_counter()
        next_epoch = self._epochs[node] + 1
        display = self._display(node)
        label = f"stream-ckpt-{display}-{next_epoch}" if node else (
            f"stream-ckpt-{next_epoch}"
        )
        image = CheckpointImage.capture(
            self._routers[node], label, epoch=next_epoch, node_id=node
        )
        dirty = image.dirty_segments_since(self._current[node])
        self.report.checkpoint_seconds += time.perf_counter() - capture_started
        if churn_threshold is not None and dirty < churn_threshold:
            self.report.epochs_skipped_quiet += 1
            return {
                "node": self._plain(node),
                "tenant": tenant,
                "epoch": self._epochs[node],
                "skipped": True,
                "dirty_segments": dirty,
                "churn_threshold": churn_threshold,
                "segments_shipped": 0,
                "bytes_shipped": 0,
            }
        delta = image.diff(self._current[node])
        self._epochs[node] = image.epoch
        self._current[node] = image
        self._images[image.image_key] = image
        for worker in self._workers:
            # Retiring workers take no new jobs, so the new epoch would
            # sit unread behind their STOP message — skip the pickle.
            if worker.alive and not worker.salvaged and not worker.retiring:
                self._ship(worker, delta)
        if self._fallback is not None:
            self._ship(self._fallback, delta)
            self._fallback_images.add(image.image_key)
        self.report.epochs += 1
        self.report.deltas_by_node[display] = (
            self.report.deltas_by_node.get(display, 0) + 1
        )
        self._refresh_image_economics()
        self._prune_images()
        return {
            "node": self._plain(node),
            "tenant": tenant,
            "epoch": image.epoch,
            "skipped": False,
            "dirty_segments": dirty,
            "segments_shipped": delta.segments_shipped,
            "segments_total": len(image.segments),
            "bytes_shipped": delta.bytes_shipped,
            "bytes_full": image.total_bytes,
        }

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
        the result-queue pipe and worker sentinels — waking the instant
        a result lands — while still honoring supervision and autoscale
        deadlines.  Returns the reports harvested by this call; an empty
        list means the stream went idle (or the timeout expired) with
        nothing new.
        """
        self._require_open()
        before = self.report.jobs_completed
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            progressed = self._collect(pump_inline=True)
            progressed |= self._dispatch() > 0
            if self.report.jobs_completed > before:
                break
            if self.idle or self._result_queue is None:
                # Inline pools execute during the collect above, so a
                # still-incomplete harvest means there is nothing to
                # wait for.
                break
            if progressed:
                continue
            now = time.monotonic()
            remaining = None if deadline is None else deadline - now
            if remaining is not None and remaining <= 0:
                break
            budget = 0.25 if remaining is None else min(0.25, remaining)
            self._wait_events(budget)
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
        deadline = None if timeout is None else time.monotonic() + timeout
        last_progress = time.monotonic()
        while not self.idle:
            progressed = self._collect(pump_inline=True)
            progressed |= self._dispatch() > 0
            if (
                not progressed
                and self._result_queue is not None
                and (self._inflight or self._supervisor.pending)
            ):
                # Stuck until something external happens: block on the
                # result pipe/worker sentinels up to the next computed
                # deadline.
                self._collect(pump_inline=True, block_seconds=0.25)
            if progress is not None and (
                time.monotonic() - last_progress >= progress_interval
            ):
                self._refresh_cache_health()
                progress(self.report)
                last_progress = time.monotonic()
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationError(
                    f"stream drain timed out with {len(self._inflight)} jobs "
                    f"in flight and {self.pending_seeds} seeds pending"
                )
        if progress is not None:
            self._refresh_cache_health()
            progress(self.report)
        return self.report

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> StreamReport:
        """Drain (by default), stop the workers, release the cache managers."""
        if self._closed:
            return self.report
        if self._started and drain:
            self.drain(timeout=timeout)
        self._refresh_cache_health()
        self._sync_pool_metrics()
        for worker in self._workers:
            worker.stop()
            self._account_worker(worker)
        if self._fallback is not None:
            self._fallback.stop()
        shutdown_cache_managers(self._cache_managers)
        self._cache_managers = []
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
