"""The parallel exploration coordinator.

:class:`ParallelExplorer` turns the one-seed-per-round demo loop into a
throughput engine: checkpoint the live node(s) once per batch (the paper
re-checkpoints on a period, not per input), explore every observed seed
from an isolated clone, and aggregate the session reports.  The live
router is paused only for the capture, never for exploration.

It is a facade with one decision.  ``workers <= 1 or force_serial`` runs
the batch as a plain in-process loop over
:func:`~repro.parallel.worker.run_session_job` — the reference every
parity test compares against, and the cheapest way to run a batch that
gets no second core.  Anything else rides the one process pool the repo
has: a :class:`~repro.parallel.stream.StreamingExplorer` built from the
batch's own two option records, fed the finite corpus and closed, so a
batch gets the stream's supervision, hang
detection and respawn for free, and a host that cannot fork degrades to
the stream's inline worker with ``used_processes=False`` and the reason
recorded instead of losing the round.

Results come back in submission order and findings dedup by their
``dedup_key`` — both order-independent operations — so the outcome of a
batch does not depend on worker count or scheduling (see the package
docstring for the full determinism argument).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.router import BgpRouter
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import ExplorationBudget
from repro.concolic.solver.cache import DictConstraintCache
from repro.core.report import SessionReport
from repro.parallel.jobs import DEFAULT_NODE, DEFAULT_TENANT, Seed
from repro.parallel.options import EngineOptions, PoolOptions, resolve_options
from repro.parallel.reports import BatchReport
from repro.parallel.stream import StreamingExplorer
from repro.parallel.worker import SessionJob, run_session_job
from repro.util.errors import ExplorationError


class ParallelExplorer:
    """Fans batches of observed seeds out to checkpoint-clone workers.

    Configured like the stream it rides: one
    :class:`~repro.parallel.options.EngineOptions` and one
    :class:`~repro.parallel.options.PoolOptions`, or their field names
    as keywords.  A ``budget`` given per batch overrides the engine's.
    """

    def __init__(
        self,
        engine: Optional[EngineOptions] = None,
        pool: Optional[PoolOptions] = None,
        **options: object,
    ):
        self.engine_options, self.pool_options = resolve_options(
            engine, pool, **options
        )

    def _engine(self, budget: Optional[ExplorationBudget]) -> EngineOptions:
        if budget is None:
            return self.engine_options
        return replace(self.engine_options, budget=budget)

    # -- batch construction ---------------------------------------------------

    def build_jobs(
        self,
        checkpoint: Checkpoint,
        seeds: Sequence[Seed],
        budget: Optional[ExplorationBudget] = None,
        cache: Optional[object] = None,
        node: str = "",
    ) -> List[SessionJob]:
        """One job per seed, indexed in batch order."""
        engine = self._engine(budget)
        return [
            SessionJob(index, checkpoint, peer, observed, engine, cache, node)
            for index, (peer, observed) in enumerate(seeds)
        ]

    # -- execution ------------------------------------------------------------

    def explore_batch(
        self,
        live_router: BgpRouter,
        seeds: Sequence[Seed],
        budget: Optional[ExplorationBudget] = None,
    ) -> BatchReport:
        """Checkpoint once, explore every seed, aggregate the reports."""
        return self.explore_nodes(
            [(DEFAULT_NODE, live_router, seeds)], budget=budget
        )[DEFAULT_NODE]

    def explore_nodes(
        self,
        node_batches: Sequence[Tuple[str, BgpRouter, Sequence[Seed]]],
        budget: Optional[ExplorationBudget] = None,
    ) -> Dict[str, BatchReport]:
        """One batch spanning many routers: the federated fan-out.

        Each ``(node_id, router, seeds)`` entry is checkpointed once and
        contributes one job per seed; all jobs share one constraint
        cache and — past one worker — one process pool, so an 8-AS
        federation pays one pool start-up instead of eight.  Job indices
        are assigned *per node* (position within that node's seed list),
        in the loop and in the stream alike, which is what keeps serial,
        batch, and streamed federated runs finding-set identical.

        Returns one :class:`BatchReport` per node, in input order.  The
        wall clock and checkpoint time on each are the whole fan-out's
        (sessions interleave across nodes) — do not add them across the
        returned reports.
        """
        started = time.perf_counter()
        workers = self.pool_options.workers
        if not any(seeds for _, _, seeds in node_batches):
            return {
                node_id: BatchReport(workers=workers)
                for node_id, _, _ in node_batches
            }
        explore = (
            self._explore_in_process
            if workers <= 1 or self.pool_options.force_serial
            else self._explore_pooled
        )
        per_node, checkpoint_seconds, used_processes, fallback_reason = explore(
            node_batches, budget
        )
        wall = time.perf_counter() - started
        return {
            node_id: BatchReport(
                reports=reports,
                workers=workers,
                used_processes=used_processes,
                fallback_reason=fallback_reason,
                wall_seconds=wall,
                checkpoint_seconds=checkpoint_seconds,
            )
            for node_id, reports in per_node.items()
        }

    def _explore_in_process(
        self,
        node_batches: Sequence[Tuple[str, BgpRouter, Sequence[Seed]]],
        budget: Optional[ExplorationBudget],
    ) -> Tuple[Dict[str, List[SessionReport]], float, bool, str]:
        """The serial loop: capture every node, then run job after job."""
        capture_started = time.perf_counter()
        checkpoints = {
            node_id: Checkpoint.capture(router, f"fed-{node_id}")
            for node_id, router, _ in node_batches
        }
        checkpoint_seconds = time.perf_counter() - capture_started
        cache = (
            DictConstraintCache() if self.pool_options.constraint_cache else None
        )
        per_node = {
            node_id: [
                run_session_job(job)
                for job in self.build_jobs(
                    checkpoints[node_id], seeds, budget=budget, cache=cache,
                    node=node_id,
                )
            ]
            for node_id, _, seeds in node_batches
        }
        return per_node, checkpoint_seconds, False, ""

    def _explore_pooled(
        self,
        node_batches: Sequence[Tuple[str, BgpRouter, Sequence[Seed]]],
        budget: Optional[ExplorationBudget],
    ) -> Tuple[Dict[str, List[SessionReport]], float, bool, str]:
        """The batch as a stream with a finite corpus and one epoch."""
        pipeline = StreamingExplorer(
            self._engine(budget),
            # Indices are fixed at submission, so dispatch order cannot
            # change a session; arrival order keeps the scheduler out of
            # a corpus that is explored in full anyway.
            replace(self.pool_options, coverage_guided=False),
        )
        report = pipeline.explore_corpus({DEFAULT_TENANT: (
            {node_id: router for node_id, router, _ in node_batches},
            {node_id: seeds for node_id, _, seeds in node_batches},
        )})
        # A stream records a failed job and moves on; a batch promises a
        # report per seed, so a hole fails it — as a raising session
        # fails the serial loop.
        failed = report.errors + [job.describe() for job in report.quarantined]
        if failed:
            raise ExplorationError(
                f"{len(failed)} job(s) of the batch failed: {failed[0]}"
            )
        per_node = {
            node_id: report.reports_in_index_order(node_id)
            for node_id, _, _ in node_batches
        }
        return (
            per_node,
            report.checkpoint_seconds,
            report.used_processes,
            report.fallback_reason,
        )
