"""What the pool hands back: session reports, aggregated.

:class:`StreamReport` is the one report every run produces, a batch or
a stream alike.  It grows **asynchronously** — session reports are
absorbed as they arrive, every view valid mid-stream — and carries the
pool's account of itself.  Exactly-once accounting is a sum over it:
each submitted seed ends as a completed job, a coalesced seed, a dropped
job, a quarantined job or a per-job error.

A leaf module, so the coordinator and the federation layer import
reports from here and not from each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.concolic.engine import ExplorationReport
from repro.concolic.solver import merge_stats_dict
from repro.core.report import Finding, SessionReport
from repro.parallel.jobs import JobKey
from repro.util.ip import Prefix


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
class StreamReport:
    """Aggregate outcome of one pool run: its sessions plus provenance.

    Reports land in *arrival* order; ``indices`` records each report's
    ``(node, index)`` job key so :meth:`reports_in_index_order` can
    reconstruct each node's submission ordering — what a batch hands
    back, and what the serial loop is compared on.  The aggregate views
    (``findings``, ``cache_stats``, ``summary``) are order-independent.
    """

    reports: List[SessionReport] = field(default_factory=list)
    workers: int = 1
    used_processes: bool = False
    fallback_reason: str = ""
    wall_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    indices: List[JobKey] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    epochs: int = 0
    seeds_submitted: int = 0
    seeds_coalesced: int = 0
    jobs_dispatched: int = 0
    jobs_recovered: int = 0
    #: Seeds popped from the pending queues but never handed to a worker
    #: (unpicklable payloads); their per-node index is a hole the harvest
    #: never fills — one term of the module docstring's exactly-once sum.
    jobs_dropped: int = 0
    checkpoint_bytes_shipped: int = 0
    #: Epochs workers came to hold with nothing serialized: templates a
    #: worker was built with (a forked one inherits them) or handed by
    #: reference in process.
    images_inherited: int = 0
    #: Epoch boundaries crossed per federation node: how many patches
    #: have been committed against each node's template chain.
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
    #: holes in the harvest and a term of that sum.
    quarantined: List[QuarantinedJob] = field(default_factory=list)
    #: Human-readable log of injected chaos faults as they fired.
    chaos_events: List[str] = field(default_factory=list)
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
    def total_executions(self) -> int:
        return sum(r.exploration.executions for r in self.reports)

    @property
    def executions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_executions / self.wall_seconds

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
        pickle each time, so this is the number to hold against a
        checkpoint's ``size_bytes`` when judging image shipping.
        """
        if not self.reports:
            return float(self.checkpoint_bytes_shipped)
        return self.checkpoint_bytes_shipped / len(self.reports)

    def add_stream_report(self, key: JobKey, report: SessionReport) -> None:
        """Absorb one session report on arrival; every aggregate view is
        valid after each call — there is no finalize step."""
        self.reports.append(report)
        self.indices.append(key)

    def findings(self) -> List[Finding]:
        """Unique findings across every session (order-independent)."""
        seen: Dict[tuple, Finding] = {}
        for report in self.reports:
            for finding in report.findings:
                seen.setdefault(finding.dedup_key(), finding)
        return list(seen.values())

    def leaked_prefixes(self) -> List[Prefix]:
        prefixes = set()
        for report in self.reports:
            prefixes.update(report.leaked_prefixes())
        return sorted(prefixes)

    def cache_stats(self) -> Dict[str, int]:
        """Summed per-worker solver cache counters, across all three layers.

        Exact-key hits/misses, semantic (subsumption) probe counters, and
        propagate-memo counters from each session's solver, summed.
        """
        keys = (
            "cache_hits",
            "cache_misses",
            "semantic_lookups",
            "semantic_hits",
            "propagate_memo_hits",
            "propagate_memo_misses",
        )
        return {
            key: sum(int(r.solver_stats.get(key, 0)) for r in self.reports)
            for key in keys
        }

    def solver_totals(self) -> Dict[str, float]:
        """Summed per-worker solver counters, with derived rates recomputed.

        Each session ships its private solver's ``SolverStats.as_dict()``
        home; this folds them into one cross-session view (the CLI's
        streaming progress line prints the stage-timing slice of it).
        Ratio keys (``*_rate``) are recomputed from the summed counters
        rather than summed themselves.
        """
        totals: Dict[str, float] = {}
        for report in self.reports:
            merge_stats_dict(totals, report.solver_stats)
        totals.setdefault("cache_hit_rate", 0.0)
        return totals

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
        base = {
            "sessions": len(self.reports),
            "workers": self.workers,
            "used_processes": self.used_processes,
            "total_executions": self.total_executions,
            "executions_per_second": round(self.executions_per_second, 2),
            "findings": len(self.findings()),
            "leaked_prefixes": len(self.leaked_prefixes()),
            "wall_seconds": round(self.wall_seconds, 4),
            **self.cache_stats(),
        }
        if self.fallback_reason:
            base["fallback_reason"] = self.fallback_reason
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
                "errors": len(self.errors),
                "checkpoint_bytes_shipped": self.checkpoint_bytes_shipped,
                "checkpoint_bytes_per_job": round(self.checkpoint_bytes_per_job),
                "images_inherited": self.images_inherited,
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
