"""Parallel multi-seed exploration: DiCE off the critical path, at scale.

The paper's deployment model runs exploration on spare cores while the
live system keeps serving traffic (sections 3.2, 4.1).  This package
supplies the throughput half of that story — one process pool, two ways
in:

* :class:`StreamingExplorer` (:mod:`repro.parallel.stream`) is the pool:
  persistent, supervised workers pull jobs continuously, fork holding
  the checkpoint templates (epoch 0 ships nothing), receive only a
  key-level patch of the changed entries on re-checkpoint, and
  findings harvest asynchronously — exploration overlaps live traffic
  instead of pausing for rounds;
* :class:`ParallelExplorer` explores a *batch* of observed seeds — all
  peers' ring buffers, not just the latest input — and hands the reports
  back in submission order: a plain in-process loop for one worker (the
  serial reference every parity test compares against), the pool fed a
  finite corpus and closed for more;
* a shared constraint-result cache (:mod:`repro.parallel.cache`) keyed
  by canonicalized path condition avoids re-solving identical negations
  across workers — a plain dict in process, sharded across manager
  processes for the pool;
* the stream's inline worker stands in for worker processes on hosts
  where subprocesses are unavailable, producing bit-identical results;
* both are configured by the same two frozen records
  (:mod:`repro.parallel.options`): :class:`EngineOptions`, what every
  session runs with — handed to each worker once, when it is built —
  and :class:`PoolOptions`, how the pool behaves.

Determinism is a design invariant, not an accident: worker sessions are
independent (private engine, solver, and strategy per job), the cache
key covers the *entire* solver query including the hint, and worker
solvers derive their search RNG from that key — so the deduped finding
set is the same with 1 worker, N workers, or the serial fallback, and
the same again whether the seeds arrived as a batch or a stream.
"""

from repro.parallel.cache import (
    ShardedConstraintCache,
    TenantCacheView,
    shutdown_cache_managers,
    start_sharded_cache,
)
from repro.parallel.chaos import (
    CHAOS_PLANS,
    ChaosDirective,
    ChaosEvent,
    ChaosPlan,
    get_chaos_plan,
    list_chaos_plans,
)
from repro.parallel.explorer import ParallelExplorer
from repro.parallel.jobs import DEFAULT_TENANT, StreamJob
from repro.parallel.options import EngineOptions, PoolOptions
from repro.parallel.pool import PoolAutoscaler, WorkerSupervisor
from repro.parallel.reports import BatchReport, QuarantinedJob, StreamReport
from repro.parallel.stream import StreamingExplorer
from repro.parallel.transport import stream_worker_main
from repro.parallel.worker import ProgressBeacon, SessionJob, run_session_job

__all__ = [
    "BatchReport",
    "CHAOS_PLANS",
    "ChaosDirective",
    "ChaosEvent",
    "ChaosPlan",
    "DEFAULT_TENANT",
    "EngineOptions",
    "ParallelExplorer",
    "PoolAutoscaler",
    "PoolOptions",
    "ProgressBeacon",
    "QuarantinedJob",
    "SessionJob",
    "ShardedConstraintCache",
    "StreamJob",
    "StreamReport",
    "StreamingExplorer",
    "TenantCacheView",
    "WorkerSupervisor",
    "get_chaos_plan",
    "list_chaos_plans",
    "run_session_job",
    "shutdown_cache_managers",
    "start_sharded_cache",
    "stream_worker_main",
]
