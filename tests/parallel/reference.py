"""The serial reference loop the engine's parity tests compare against.

No pool and no stream: capture each node once, then run every seed's
session in turn, in this process, with
:func:`~repro.parallel.worker.run_session_job`.  Jobs are indexed by
position in their node's seed list and share one constraint cache,
exactly as the engine indexes them, so the engine must reproduce this
loop's sessions whatever its worker count.

:func:`engine_batch` is the engine side of the same comparison: the
same seeds run through :func:`repro.parallel.explore_batch`.  Benchmarks
import both from here (``tests.parallel.reference``).
"""

import time
from typing import Dict, Iterable, Sequence

from repro.bgp.router import BgpRouter
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.solver.cache import DictConstraintCache
from repro.parallel import StreamReport, explore_batch, run_session_job
from repro.parallel.jobs import DEFAULT_NODE, DEFAULT_TENANT, Seed
from repro.parallel.options import resolve_options
from repro.parallel.worker import SessionJob


def serial_loop(
    routers: Dict[str, BgpRouter],
    seeds: Dict[str, Sequence[Seed]],
    **options: object,
) -> StreamReport:
    """Every node's seeds explored one after another, in process.

    ``options`` are :class:`~repro.parallel.options.EngineOptions` and
    :class:`~repro.parallel.options.PoolOptions` field names; of the
    pool's, only ``constraint_cache`` means anything here.
    """
    engine, pool = resolve_options(None, None, **options)
    started = time.perf_counter()
    checkpoints = {
        node: Checkpoint.capture(router, f"fed-{node}")
        for node, router in routers.items()
    }
    cache = DictConstraintCache() if pool.constraint_cache else None
    report = StreamReport(workers=1)
    for node, node_seeds in seeds.items():
        for index, (peer, observed) in enumerate(node_seeds):
            job = SessionJob(
                index, checkpoints[node], peer, observed, engine, cache, node
            )
            report.add_stream_report((node, index), run_session_job(job))
    report.wall_seconds = time.perf_counter() - started
    return report


def engine_batch(
    routers: Dict[str, BgpRouter],
    seeds: Dict[str, Sequence[Seed]],
    **options: object,
) -> StreamReport:
    """The same seeds as one batch on the engine."""
    return explore_batch({DEFAULT_TENANT: (routers, seeds)}, **options).report


def serial_batch(
    router: BgpRouter, seeds: Sequence[Seed], **options: object
) -> StreamReport:
    """:func:`serial_loop` over one router: its reports in seed order."""
    return serial_loop({DEFAULT_NODE: router}, {DEFAULT_NODE: seeds}, **options)


def batch(
    router: BgpRouter, seeds: Sequence[Seed], **options: object
) -> StreamReport:
    """:func:`engine_batch` over one router: its reports in seed order."""
    return engine_batch({DEFAULT_NODE: router}, {DEFAULT_NODE: seeds}, **options)


def per_node(report: StreamReport, nodes: Iterable[str]) -> Dict[str, StreamReport]:
    """``report`` split by node, each part holding that node's sessions
    in index order and the run's provenance."""
    return {
        node: StreamReport(
            reports=report.reports_in_index_order(node),
            workers=report.workers,
            used_processes=report.used_processes,
        )
        for node in nodes
    }
