"""Parallel multi-seed exploration: DiCE off the critical path, at scale.

The paper's deployment model runs exploration on spare cores while the
live system keeps serving traffic (sections 3.2, 4.1).  This package
supplies the throughput half of that story — one engine, the stream:

* :class:`StreamingExplorer` (:mod:`repro.parallel.stream`) is the pool:
  persistent, supervised workers pull jobs continuously, fork holding
  the checkpoint templates (epoch 0 ships nothing), receive only a
  key-level patch of the changed entries on re-checkpoint, and
  findings harvest asynchronously — exploration overlaps live traffic
  instead of pausing for rounds;
* :func:`explore_batch` explores a *batch* of observed seeds — all
  peers' ring buffers, not just the latest input — as a finite corpus
  fed to that pool and closed: on one inline worker for one worker, on
  worker processes past it; it hands the reports back in submission
  order and raises if any seed went unexplored;
* each worker keeps its own constraint-result memo
  (:class:`~repro.concolic.solver.cache.DictConstraintCache`), keyed by
  canonicalized path condition, so a worker never re-solves a negation
  it already solved; one worker's view is scoped per tenant
  (:class:`TenantCacheView`) when the pool serves several federations;
* the stream's inline worker stands in for worker processes on hosts
  where subprocesses are unavailable, producing bit-identical results;
* every entry point is configured by the same two frozen records
  (:mod:`repro.parallel.options`): :class:`EngineOptions`, what every
  session runs with — handed to each worker once, when it is built —
  and :class:`PoolOptions`, how the pool behaves.

Determinism is a design invariant, not an accident: worker sessions are
independent (private engine, solver, and strategy per job), the cache
key covers the *entire* solver query including the hint, and worker
solvers derive their search RNG from that key — so the deduped finding
set is the same with 1 worker, N workers, or the inline worker, and
the same again whether the seeds arrived as a batch or a stream.
"""

from repro.parallel.chaos import (
    CHAOS_PLANS,
    ChaosDirective,
    ChaosEvent,
    ChaosPlan,
    get_chaos_plan,
    list_chaos_plans,
)
from repro.parallel.jobs import DEFAULT_TENANT, StreamJob
from repro.parallel.options import EngineOptions, PoolOptions
from repro.parallel.pool import PoolAutoscaler, WorkerSupervisor
from repro.parallel.reports import QuarantinedJob, StreamReport
from repro.parallel.stream import StreamingExplorer, explore_batch
from repro.parallel.transport import TenantCacheView, stream_worker_main
from repro.parallel.worker import ProgressBeacon, SessionJob, run_session_job

__all__ = [
    "CHAOS_PLANS",
    "ChaosDirective",
    "ChaosEvent",
    "ChaosPlan",
    "DEFAULT_TENANT",
    "EngineOptions",
    "PoolAutoscaler",
    "PoolOptions",
    "ProgressBeacon",
    "QuarantinedJob",
    "SessionJob",
    "StreamJob",
    "StreamReport",
    "StreamingExplorer",
    "TenantCacheView",
    "WorkerSupervisor",
    "explore_batch",
    "get_chaos_plan",
    "list_chaos_plans",
    "run_session_job",
    "stream_worker_main",
]
