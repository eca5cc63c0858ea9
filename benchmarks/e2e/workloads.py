"""The four benchmark workloads, as run inside one round process.

Each workload is a function of a :class:`Round`: it builds its inputs
from ``rnd.seed``, brackets set-up and exploration with
``rnd.setup()`` / ``rnd.explore()`` (the two end-to-end phases), and
hands every report it gets back to ``rnd.absorb_*`` so counts and the
finding-set digest come from the program's own public reports.

``rnd.serial`` selects the reference flavour of the pool workloads —
the serial in-process engine (``force_serial=True`` / ``stream=False``)
whose finding set the measured flavour must reproduce.  ``fig2-solo``
and ``hier100-wave`` already *are* that engine.

Sizes: table sizes and AS counts are the issue's; seed, window and
session counts are shrunk so one round fits the driver's time cap
(see README.md, "Sizes").
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, Set

from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.core.federation import FederatedExploration
from repro.core.inputs import model_for
from repro.core.scenario import synthesize_hijack_corpus
from repro.core.workload import get_workload
from repro.topology import generators
from repro.topology.graph import build_routers

from definitions import (
    EXACT_COUNTS, POOL_WORKERS, SIZES, SMOKE_SIZES, TOPOLOGY_SEED,
)


class Round:
    """What one round accumulates: phase clocks, counters, finding keys."""

    def __init__(self, tracer, seed: int, sizes: Dict[str, object], serial: bool):
        self.tracer = tracer
        self.seed = seed
        self.sizes = sizes
        self.serial = serial
        self.setup_seconds = 0.0
        self.explore_seconds = 0.0
        self.counters: Dict[str, float] = {}
        self.keys: Set[str] = set()
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def setup(self) -> Iterator[None]:
        started = time.perf_counter()
        with self.tracer.span("setup"):
            yield
        self.setup_seconds += time.perf_counter() - started

    @contextmanager
    def explore(self) -> Iterator[None]:
        started = time.perf_counter()
        with self.tracer.span("explore"):
            yield
        self.explore_seconds += time.perf_counter() - started

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def budget(self) -> ExplorationBudget:
        return ExplorationBudget(max_executions=int(self.sizes["budget"]))

    # -- reading the program's reports ---------------------------------

    def absorb_sessions(self, reports: Iterable) -> None:
        for report in reports:
            exploration = report.exploration
            self.add("concolic.executions", exploration.executions)
            self.add("unique_paths", exploration.unique_paths)
            self.add("core.explorer.sessions")
            self.add("core.checkers.findings_raw", len(report.findings))
            self.add("parallel.worker_busy_s", exploration.wall_seconds)
            self.absorb_solver(report.solver_stats)

    def absorb_solver(self, stats: Dict[str, float]) -> None:
        for source, name in (
            ("queries", "concolic.solver_queries"),
            ("propagate_time", "concolic.solver_propagate_s"),
            ("unknown", "solver_unknown"),
            ("cache_hits", "solver_cache_hits"),
            ("cache_misses", "solver_cache_misses"),
            ("propagate_memo_hits", "solver_memo_hits"),
            ("propagate_memo_misses", "solver_memo_misses"),
        ):
            self.add(name, stats.get(source, 0))

    def absorb_stream(self, summary: Dict[str, object]) -> None:
        """Pool economics from ``StreamReport.summary()``."""
        self.attempted += int(summary["seeds_submitted"])
        self.failed += (
            int(summary["errors"]) + int(summary["jobs_dropped"])
            + int(summary["jobs_quarantined"])
        )
        self.add("seeds_submitted", int(summary["seeds_submitted"]))
        self.add("seeds_coalesced", int(summary["seeds_coalesced"]))
        self.add("parallel.jobs_completed", int(summary["jobs_completed"]))
        self.add("parallel.jobs_retried", int(summary["jobs_retried"]))
        self.add("parallel.bytes_shipped", int(summary["checkpoint_bytes_shipped"]))
        # Mean over the round's pools, weighted by jobs.
        self.add("harvest_latency_total",
                 float(summary["harvest_latency_mean"]) * int(summary["jobs_completed"]))
        self.peak("parallel.harvest_latency_max_s",
                  float(summary["harvest_latency_max"]))

    def absorb_federated(self, label: str, report) -> None:
        self.absorb_sessions(report.sessions)
        self.keys.update(f"{label}|{key!r}" for key in report.finding_keys())
        self.add("core.federation.delivered_msgs", report.stats.delivered)
        self.peak("core.federation.wave_rounds", report.stats.rounds)
        self.add("core.privacy.conflicts", len(report.global_findings))
        if report.workload_stats is not None:
            self.add("core.checkers.findings_raw", len(report.workload_findings))
            self.add("core.federation.delivered_msgs", report.workload_stats.delivered)
            self.peak("core.federation.wave_rounds", report.workload_stats.rounds)
            self.add("core.workload.injected_events",
                     report.workload_stats.injected_events)

    def absorb_topology(self, built_graph, sim) -> None:
        shape = built_graph.summary()
        self.add("topology.nodes", shape["nodes"])
        self.add("topology.edges", shape["edges"])
        self.add("net.events", sim.events_executed)

    # -- results --------------------------------------------------------

    def digest(self) -> str:
        joined = "\n".join(sorted(self.keys))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def exact_counts(self) -> Dict[str, int]:
        counters = {**self.counters, "findings": len(self.keys)}
        return {
            name: int(counters.get(source, 0))
            for name, source in EXACT_COUNTS.items()
        }

    def layer_counters(self, children_cpu_s: float) -> Dict[str, float]:
        out = dict(self.counters)
        out["findings"] = len(self.keys)
        # Every child this process reaped is a pool worker or a cache manager.
        out["parallel.worker_cpu_s"] = children_cpu_s
        jobs = out.get("parallel.jobs_completed", 0)
        out["parallel.harvest_latency_mean_s"] = (
            out.get("harvest_latency_total", 0.0) / jobs if jobs else 0.0
        )
        if not jobs:
            # Serial engines report session wall time too, but no pool ran.
            out["parallel.worker_busy_s"] = 0.0
        return out


# ---------------------------------------------------------------------------
# fig2-solo: the paper's testbed on the serial engine.
# ---------------------------------------------------------------------------


def fig2_solo(rnd: Round) -> None:
    sizes = rnd.sizes
    with rnd.setup():
        built = get_scenario("fig2").build(
            seed=rnd.seed, filter_mode="erroneous",
            prefix_count=sizes["prefix_count"], update_count=sizes["update_count"],
        )
        built.converge()
    rnd.absorb_topology(built.graph, built.host.sim)
    explorer = built.dice.explorer
    reports = []
    # Observed seeds in order, each under both marking policies (selective
    # is checkpoint/checker-bound, whole-message is where the solver
    # works), until a fixed number of executions is spent: how many a seed
    # yields depends on the trace, and the work must not.
    remaining = sizes["executions"]
    sessions = (
        (peer, observed, policy)
        for peer, observed in built.dice.batch_seeds(all_seeds=True)
        for policy in ("selective", "whole-message")
    )
    with rnd.explore():
        for peer, observed, policy in sessions:
            if remaining <= 0:
                break
            rnd.attempted += 1
            budget = ExplorationBudget(
                max_executions=min(sizes["budget"], remaining)
            )
            try:
                report = explorer.explore_update(
                    built.provider, peer, observed,
                    model=model_for(observed, policy), budget=budget,
                )
            except Exception as exc:  # a failed session is a counted op
                rnd.failed += 1
                print(f"session failed: {type(exc).__name__}: {exc}")
                continue
            remaining -= report.exploration.executions
            reports.append(report)
    rnd.absorb_sessions(reports)
    rnd.absorb_solver(explorer.engine.solver.stats.as_dict())
    for report in reports:
        rnd.keys.update(repr(f.dedup_key()) for f in report.findings)


# ---------------------------------------------------------------------------
# fig2-online: live node + long-lived pool, epochs shipped as deltas.
# ---------------------------------------------------------------------------


def fig2_online(rnd: Round) -> None:
    sizes = rnd.sizes
    with rnd.setup():
        built = get_scenario("fig2").build(
            seed=rnd.seed, filter_mode="erroneous",
            prefix_count=sizes["prefix_count"], update_count=sizes["update_count"],
            replay_compression=1.0,
        )
        built.converge(run_until=1.0)  # the table dump
    dice, sim = built.dice, built.host.sim
    with rnd.explore():
        stream = dice.stream_start(
            workers=POOL_WORKERS, budget=rnd.budget(), coverage_guided=False,
            strategy_seed=rnd.seed, force_serial=rnd.serial,
        )
        for window in range(1, sizes["windows"] + 1):
            target = window * sizes["seeds_per_window"]
            # A window is a fixed number of observed announcements, not a
            # fixed span of trace time, so every seed does the same work.
            with rnd.tracer.span("net.converge"):
                while stream.report.seeds_submitted < target and sim.step():
                    pass
            # Epochs bind to jobs at dispatch: without draining first, which
            # image a queued seed runs against depends on worker timing and
            # the finding set stops matching the serial engine.
            stream.drain()
            with rnd.tracer.span("checkpoint.epoch_stall"):
                info = dice.stream_epoch()
            rnd.add("checkpoint.delta_bytes", info["bytes_shipped"])
            rnd.add("dirty_segments", info["dirty_segments"])
            rnd.add("segments_total", info["segments_total"])
        report = dice.stream_stop()
    rnd.absorb_topology(built.graph, sim)
    rnd.absorb_sessions(report.reports)
    rnd.absorb_stream(report.summary())
    for session in dice.rounds:
        rnd.keys.update(repr(f.dedup_key()) for f in session.findings)


# ---------------------------------------------------------------------------
# hier100-wave: scale shape — convergence, fabric clone, quiescent wave.
# ---------------------------------------------------------------------------


def hier100_wave(rnd: Round) -> None:
    sizes = rnd.sizes
    with rnd.setup():
        with rnd.tracer.span("topology.build"):
            graph = generators.hierarchical(
                sizes["ases"], seed=TOPOLOGY_SEED, filter_mode="missing"
            )
            host, routers = build_routers(graph, seed=TOPOLOGY_SEED)
        with rnd.tracer.span("net.converge"):
            host.run()
    rnd.absorb_topology(graph, host.sim)
    names = list(graph.nodes)
    step = max(1, -(-len(names) // sizes["targets"]))
    corpus = synthesize_hijack_corpus(graph, rnd.seed, targets=names[::step])
    rnd.attempted += 1
    with rnd.explore():
        report = FederatedExploration(routers, graph=graph).explore(
            corpus, budget=rnd.budget(), strategy_seed=rnd.seed,
        )
    rnd.absorb_federated("wave", report)


# ---------------------------------------------------------------------------
# hier50-faults: `repro explore --scenario hierarchical-50 --workload W
# --stream --workers 2` sessions, back to back.
# ---------------------------------------------------------------------------


def hier50_faults(rnd: Round) -> None:
    for name in rnd.sizes["sessions"]:
        workload = get_workload(name)
        with rnd.setup():
            built = get_scenario("hierarchical-50").build(
                seed=TOPOLOGY_SEED, **dict(workload.build_overrides)
            )
            built.converge()
        rnd.absorb_topology(built.graph, built.host.sim)
        rnd.attempted += 1
        with rnd.explore():
            plan = workload.plan(built)
            corpus = synthesize_hijack_corpus(built.graph, rnd.seed)
            report = built.federation().explore(
                corpus, budget=rnd.budget(), workers=POOL_WORKERS,
                stream=not rnd.serial, force_serial=rnd.serial,
                strategy_seed=rnd.seed, workload=plan,
            )
        rnd.absorb_federated(name, report)
        if report.stream_summary is not None:
            rnd.absorb_stream(report.stream_summary)


WORKLOADS: Dict[str, Callable[[Round], None]] = {
    "fig2-solo": fig2_solo,
    "fig2-online": fig2_online,
    "hier100-wave": hier100_wave,
    "hier50-faults": hier50_faults,
}
