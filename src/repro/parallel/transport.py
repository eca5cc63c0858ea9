"""Worker transport: the message protocol and the two ways to carry it.

A :class:`_ProcessWorker` is a **persistent** process pulling messages
from its own FIFO queue and writing results into its own result pipe,
whose write end only the child holds: a worker that dies — even halfway
through a result — reads as the end of its channel, never as a frame
the coordinator waits on forever.  An :class:`_InlineWorker` runs the
identical :class:`_WorkerState` from a mailbox when the coordinator pumps it: it
*is* the pool where processes are unavailable (or ``force_serial``),
and it is where a dead worker's jobs are re-run.  Both are a
:class:`_WorkerHandle`; the coordinator never asks which one it holds.

A worker is built with the run's
:class:`~repro.parallel.options.EngineOptions`, a constraint cache and
the coordinator's retained checkpoint templates — a process worker
receives all three as process arguments, so under ``fork`` it inherits
them copy-on-write and nothing is serialized.  The cache is then the
worker's own memo: entries it solves stay in its process, and a query
another worker already solved is simply solved again (a miss is always
safe, and a hit equals a local solve).  From then on its only inputs
are messages.

The protocol is node-aware: every job names its federation node and a
worker holds a ``{(node, epoch): template}`` table, so *one* pool serves
every AS of every tenant (a job's tenant scopes the worker's view
of its constraint cache, :class:`TenantCacheView`).

**One image ledger.**  ``handle.images`` is what the coordinator knows
to be resident behind a handle: it starts as the keys of the templates
the worker was built with.  An epoch message makes one more resident,
carrying a :class:`~repro.checkpoint.delta.TemplatePatch` against a
resident template — the worker builds the new template from it — or a
template itself: by reference in process, as its state's bytes to a
process.  Which epochs survive is decided by the coordinator alone:
every epoch message carries ``keep``, and both sides apply
:func:`_superseded` to the same arguments in the same (FIFO) order, so
the ledger cannot drift from the worker's table.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from collections import deque
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.checkpoint.delta import TemplatePatch
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.solver.cache import CacheEntry
from repro.concolic.solver.intervals import Interval
from repro.core.report import SessionReport
from repro.parallel.jobs import ImageKey, StreamJob, plain_node, tenant_of
from repro.parallel.options import EngineOptions
from repro.parallel.worker import ProgressBeacon, SessionJob, run_session_job
from repro.util.errors import CheckpointError

# Worker-bound messages and worker-emitted results are small tagged
# tuples: cheap to pickle, trivially version-free within one process
# tree.
MSG_EPOCH = "epoch"
MSG_JOB = "job"
MSG_STOP = "stop"
RES_REPORT = "report"
RES_ERROR = "error"

#: Sentinel job key for errors not attributable to a single job
#: (e.g. a patch arriving before its base template).
NO_JOB = ("", -1)


def _superseded(
    resident: Iterable[ImageKey], shipped: ImageKey, keep: FrozenSet[int]
) -> List[ImageKey]:
    """Images of ``shipped``'s node that its arrival lets go of."""
    node = shipped[0]
    return [
        key for key in resident
        if key[0] == node and key != shipped and key[1] not in keep
    ]


class TenantCacheView:
    """A tenant-scoped facade over a worker's constraint cache.

    When one streaming pool serves several federations (service mode),
    one worker runs every tenant's jobs against its one cache, but two
    tenants exploring different topologies must never read each other's
    entries, even if a query key happens to collide.  The view appends a
    per-tenant digest to every key before delegating, so each tenant
    sees a disjoint slice of the same store.

    Everything that is not a keyed operation (``hits``, ``info()``)
    passes through to the underlying cache.
    """

    def __init__(self, cache, tenant: str) -> None:
        if not tenant:
            raise ValueError("tenant must be a non-empty string")
        self._cache = cache
        self.tenant = tenant
        self._suffix = hashlib.blake2b(
            tenant.encode("utf-8"), digest_size=8
        ).digest()

    def _scoped(self, key: bytes) -> bytes:
        return key + self._suffix

    def get(self, key: bytes) -> Optional[CacheEntry]:
        return self._cache.get(self._scoped(key))

    def put(self, key: bytes, entry: CacheEntry) -> None:
        self._cache.put(self._scoped(key), entry)

    def get_semantic(self, key: bytes) -> Sequence:
        return self._cache.get_semantic(self._scoped(key))

    def put_semantic(
        self, key: bytes, domains: Dict[str, Interval], entry: CacheEntry
    ) -> None:
        self._cache.put_semantic(self._scoped(key), domains, entry)

    def __getattr__(self, name: str):
        # Counters and anything else unkeyed come from the cache
        # underneath.  Dunder lookups (pickle protocol probes) must
        # resolve on the view itself, never the delegate.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        return getattr(self._cache, name)


class _WorkerState:
    """Per-``(node, epoch)`` checkpoint templates, job execution.

    Shared by the process worker loop and the in-process worker so the
    two transports cannot drift.  The table is keyed by
    ``(node, epoch)`` — one worker holds every federation member's chain
    side by side, and dropping is strictly per node: advancing one AS's
    epoch never touches another AS's resident epoch.
    """

    def __init__(
        self,
        cache: Optional[object],
        engine: EngineOptions,
        templates: Optional[Dict[ImageKey, Checkpoint]] = None,
    ) -> None:
        self.cache = cache
        #: The configuration of every session this worker runs, fixed
        #: when the worker is built.
        self.engine = engine
        #: What sessions restore from: the templates the worker was built
        #: with or handed, and one built per patch it applied.
        self.checkpoints: Dict[ImageKey, Checkpoint] = dict(templates or {})
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
        if kind == MSG_EPOCH:
            try:
                self._apply_epoch(*msg[1:])
            except Exception as exc:
                return (RES_ERROR, NO_JOB, f"{type(exc).__name__}: {exc}")
            return None
        if kind == MSG_JOB:
            job: StreamJob = msg[1]
            # Chaos faults execute *around* the session, never inside it:
            # the hang is a pre-run sleep (a wedged solver as seen from
            # outside) and the drop swallows a finished result — so a
            # recovered job's report is bit-identical to a clean run.
            if job.chaos is not None and job.chaos.hang_seconds > 0:
                time.sleep(job.chaos.hang_seconds)
            try:
                result = (RES_REPORT, job.key, self._run(job))
            except Exception as exc:
                return (RES_ERROR, job.key, f"{type(exc).__name__}: {exc}")
            if job.chaos is not None and job.chaos.drop_result:
                return None
            return result
        return None

    def _apply_epoch(self, key: ImageKey, payload, keep: FrozenSet[int]) -> None:
        if isinstance(payload, TemplatePatch):
            base = self.checkpoints.get(payload.base_key)
            if base is None:
                raise CheckpointError(
                    f"patch for node {payload.node!r} epoch {payload.epoch} "
                    f"arrived before its base (epoch {payload.base_epoch})"
                )
            payload = payload.apply(base)
        self.checkpoints[key] = payload
        for old in _superseded(self.checkpoints, key, keep):
            del self.checkpoints[old]

    def _run(self, job: StreamJob) -> SessionReport:
        checkpoint = self.checkpoints.get(job.image_key)
        if checkpoint is None:
            raise CheckpointError(
                f"job {job.index} references node {job.node!r} epoch "
                f"{job.epoch}, but no image for it is resident"
            )
        cache = self._cache_for(tenant_of(job.node))
        return run_session_job(SessionJob(
            job.index, checkpoint, job.peer, job.observed, self.engine, cache,
            plain_node(job.node),
        ))


def stream_worker_main(
    job_queue, results, cache, beacon, engine, templates
) -> None:
    """Entry point of one persistent streaming worker process.

    ``cache``, ``engine`` and ``templates`` arrive once, as process
    arguments (a forked child inherits them; under ``spawn`` or
    ``forkserver`` a template pickles to its state's bytes).
    ``beacon`` (a :class:`~repro.parallel.worker.ProgressBeacon`) is
    stamped with the job's dispatch sequence before the session runs and
    cleared after the result is written — the worker's half of the hang-
    detection protocol.  Stamping brackets the *whole* handle, including
    result pickling: a job is only "done" once its result is safely in
    the pipe, so a worker dying mid-write still reads as busy.
    """
    state = _WorkerState(cache, engine, templates)
    while True:
        try:
            msg = job_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if msg[0] == MSG_STOP:
            break
        stamped = msg[0] == MSG_JOB
        if stamped:
            beacon.stamp(msg[1].seq)
        result = state.handle(msg)
        if result is not None:
            try:
                results.send(result)
            except Exception:  # pragma: no cover - coordinator gone
                break
        if stamped:
            beacon.clear()


class _WorkerHandle:
    """The coordinator's end of one worker, whatever carries it."""

    slot = -1
    #: Shares the coordinator's memory: takes templates by reference.
    in_process = False

    def __init__(self, resident: Iterable[ImageKey] = ()) -> None:
        #: Its jobs have been re-homed: never salvage this handle twice.
        self.lost = False
        #: Graceful-shrink flag: a retiring worker takes no new jobs, and
        #: its death is a reap — never a supervisor respawn.
        self.retiring = False
        #: Lifetime accounting for the worker-seconds economics.
        self.started_at = time.monotonic()
        self.accounted = False
        #: The ledger: ``(node, epoch)`` epochs resident behind this handle.
        self.images: Set[ImageKey] = set(resident)

    def ship(self, key: ImageKey, payload, keep: FrozenSet[int]) -> None:
        """Make ``key`` resident; the ledger follows the worker."""
        self.send((MSG_EPOCH, key, payload, keep))
        self.images.add(key)
        self.images.difference_update(_superseded(self.images, key, keep))

    def check(self, job: StreamJob) -> None:
        """Raise if ``job`` cannot be carried to this worker."""

    def recv(self) -> List[tuple]:
        """Every result the worker has written.  One it is still writing
        is waited for; one cut off by its death is dropped."""
        return []

    def waitables(self) -> list:
        """What :func:`multiprocessing.connection.wait` can block on for
        this worker: its result channel and its death."""
        return []

    def progress(self) -> Optional[Tuple[float, int]]:
        """``(stamp, seq)`` of the job being run, ``seq`` < 0 when idle;
        None for a worker that cannot hang behind the coordinator's back."""
        return None

    def pump(self) -> List[tuple]:
        """Results produced by running queued messages on this thread."""
        return []


class _ProcessWorker(_WorkerHandle):
    """A persistent worker process, its FIFO job queue and result pipe.

    ``results`` is the ``multiprocessing.Pipe(duplex=False)`` pair the
    worker writes its results into; the handle keeps the read end and
    closes its copy of the write end once the child holds it.
    """

    def __init__(
        self,
        slot: int,
        results,
        cache,
        *,
        engine: EngineOptions,
        templates: Dict[ImageKey, Checkpoint],
    ) -> None:
        super().__init__(templates)
        self.slot = slot
        self.beacon = ProgressBeacon()
        self.queue: multiprocessing.Queue = multiprocessing.Queue()
        self.results, writer = results
        self.process = multiprocessing.Process(
            target=stream_worker_main,
            args=(self.queue, writer, cache, self.beacon, engine, templates),
            daemon=True,
            name=f"repro-stream-worker-{slot}",
        )
        self.process.start()
        writer.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def recv(self) -> List[tuple]:
        results: List[tuple] = []
        try:
            while self.results.poll():
                results.append(self.results.recv())
        except (EOFError, OSError):
            pass  # the worker is gone, and so is any frame it cut off
        return results

    def waitables(self) -> list:
        return [self.results, self.process.sentinel]

    def send(self, msg: tuple) -> None:
        self.queue.put(msg)

    def check(self, job: StreamJob) -> None:
        # Fail loudly *here*: an unpicklable payload handed to mp.Queue
        # is dropped by the feeder thread with only a stderr traceback,
        # leaving the job in flight forever and drain() spinning.  The
        # job is small (no checkpoint inside), so this pickle is cheap.
        pickle.dumps(job)

    def progress(self) -> Tuple[float, int]:
        return self.beacon.read()

    def _release_queue(self) -> None:
        try:
            # The worker is gone either way; anything still buffered in
            # the queue has no reader.  Without cancel_join_thread a
            # feeder thread wedged mid-send (worker killed with a full
            # pipe) deadlocks interpreter exit in the queue finalizer.
            self.results.close()
            self.queue.cancel_join_thread()
            self.queue.close()
        except Exception:  # pragma: no cover
            pass

    def crash(self) -> None:
        """SIGTERM with no cleanup (chaos only): indistinguishable from
        an OOM kill as far as the coordinator can see."""
        self.process.terminate()
        self.process.join(1.0)

    def kill(self) -> None:
        """Hard-stop a hung (or already dead) worker; no stop handshake.

        A hung worker will never read a STOP message — its queue is
        behind the job it is stuck on — so the handshake would just
        stall the supervisor for the grace period.
        """
        if self.process.is_alive():
            self.crash()
        self._release_queue()

    def stop(self, grace: float = 2.0) -> None:
        if self.process.is_alive():
            try:
                self.queue.put((MSG_STOP,))
            except Exception:
                pass
            self.process.join(grace)
        self.kill()


class _InlineWorker(_WorkerHandle):
    """In-process stand-in: same message protocol, executed on pump().

    Messages accumulate in a mailbox and run only when the coordinator
    pumps (``poll``/``drain``), never at submit time — preserving the
    stream's enqueue-now-explore-later shape so backpressure and
    coalescing behave identically under the serial fallback.
    """

    in_process = True

    def __init__(
        self,
        cache: Optional[object],
        engine: EngineOptions,
        templates: Optional[Dict[ImageKey, Checkpoint]] = None,
    ) -> None:
        super().__init__(templates or ())
        self._state = _WorkerState(cache, engine, templates)
        self._mailbox: Deque[tuple] = deque()
        self.alive = True
        #: ``worker_seconds`` bills process lifetimes only.
        self.accounted = True

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

    kill = stop
