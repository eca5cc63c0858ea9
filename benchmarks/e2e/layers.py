"""The layer vocabulary: what is timed, and which metric each span feeds.

Layer names are the modules under ``src/repro``.  ``*_s`` metrics are
span *self* times (so they add up to the root span); ``*_wall_s`` and
``checkpoint.epoch_stall_s`` are inclusive wall times of one kind of
call; everything else is a count or ratio read from the program's own
public reports.  Every later perf issue names its claim in these terms.
"""

from __future__ import annotations

from typing import Dict, List

from definitions import PER_LAYER, POOL_WORKERS


# Span name -> the ``*_s`` metric its self time is charged to.  Spans
# the workloads open themselves (lower-case names) sit beside the
# wrapped callables; anything unmapped is harness glue.
SPAN_LAYER: Dict[str, str] = {
    "python.import": "python.import_s",
    "topology.build": "topology.build_s",
    "Scenario.build": "topology.build_s",
    "RouteViewsGenerator.generate": "trace.generate_s",
    "net.converge": "net.converge_s",
    "BuiltScenario.converge": "net.converge_s",
    "BgpRouter.handle_update": "bgp.handle_update_s",
    "Checkpoint.capture": "checkpoint.capture_s",
    "Checkpoint.restore": "checkpoint.restore_s",
    "CheckpointImage.capture": "checkpoint.image_capture_s",
    "CheckpointImage.diff": "checkpoint.diff_s",
    "CheckpointDelta.apply": "checkpoint.diff_s",
    "ConcolicEngine.explore": "concolic.engine_self_s",
    "ConstraintSolver.solve": "concolic.solver_s",
    "ConstraintSolver.solve_batch": "concolic.solver_s",
    "DiceExplorer.explore_handler": "core.explorer.session_s",
    "FaultChecker.check": "core.checkers.check_s",
    "IsolatedFabric.__init__": "core.federation.fabric_clone_s",
    "IsolatedFabric.inject": "core.federation.inject_s",
    "IsolatedFabric.propagate": "core.federation.propagate_s",
    "IsolatedFabric.digest_tables": "core.privacy.digest_s",
    "conflict_pairs": "core.privacy.digest_s",
    "FederatedExploration.explore": "core.federation.explore_s",
    "FederatedExploration.run_workload": "core.workload.wave_s",
    "Workload.plan": "core.workload.plan_s",
    "WaveChecker.check": "core.checkers.wave_check_s",
    "StreamingExplorer.start_nodes": "parallel.pool_start_s",
    "StreamingExplorer.submit": "parallel.submit_s",
    "StreamingExplorer.advance_epoch": "parallel.advance_epoch_s",
    "StreamingExplorer.poll": "parallel.drain_s",
    "StreamingExplorer.harvest": "parallel.drain_s",
    "StreamingExplorer.drain": "parallel.drain_s",
    "StreamingExplorer.close": "parallel.drain_s",
    "bench.verify": "bench.verify_s",
}

#: Coordinator calls during which pool workers can be busy.
POOL_WINDOW = (
    "StreamingExplorer.submit",
    "StreamingExplorer.poll",
    "StreamingExplorer.harvest",
    "StreamingExplorer.drain",
    "StreamingExplorer.close",
)

def pins() -> List[tuple]:
    """``(owner, attr, span name[, measure])`` for every pinned callable.

    Imported lazily: resolving the owners imports ``repro``, which the
    import span of a round has to see.
    """
    from repro.bgp.router import BgpRouter
    from repro.checkpoint.delta import CheckpointDelta, CheckpointImage
    from repro.checkpoint.snapshot import Checkpoint
    from repro.concolic.engine import ConcolicEngine
    from repro.concolic.solver.solver import ConstraintSolver
    from repro.core import checkers, federation, privacy
    from repro.core.explorer import DiceExplorer
    from repro.core.federation import FederatedExploration, IsolatedFabric
    from repro.core.scenario import BuiltScenario, Scenario
    from repro.core.workload import Workload
    from repro.parallel.stream import StreamingExplorer
    from repro.trace.routeviews import RouteViewsGenerator

    found: List[tuple] = [
        (Scenario, "build", "Scenario.build"),
        (RouteViewsGenerator, "generate", "RouteViewsGenerator.generate"),
        (BuiltScenario, "converge", "BuiltScenario.converge"),
        (BgpRouter, "handle_update", "BgpRouter.handle_update"),
        (Checkpoint, "capture", "Checkpoint.capture",
         lambda checkpoint: checkpoint.size_bytes),
        (Checkpoint, "restore", "Checkpoint.restore"),
        (CheckpointImage, "capture", "CheckpointImage.capture"),
        (CheckpointImage, "diff", "CheckpointImage.diff"),
        (CheckpointDelta, "apply", "CheckpointDelta.apply"),
        (ConcolicEngine, "explore", "ConcolicEngine.explore"),
        (ConstraintSolver, "solve", "ConstraintSolver.solve"),
        (ConstraintSolver, "solve_batch", "ConstraintSolver.solve_batch"),
        (DiceExplorer, "explore_handler", "DiceExplorer.explore_handler"),
        (IsolatedFabric, "__init__", "IsolatedFabric.__init__"),
        (IsolatedFabric, "inject", "IsolatedFabric.inject"),
        (IsolatedFabric, "propagate", "IsolatedFabric.propagate"),
        (IsolatedFabric, "digest_tables", "IsolatedFabric.digest_tables"),
        # federation.py binds the function by name at import time.
        (privacy, "conflict_pairs", "conflict_pairs"),
        (federation, "conflict_pairs", "conflict_pairs"),
        (FederatedExploration, "explore", "FederatedExploration.explore"),
        (FederatedExploration, "run_workload",
         "FederatedExploration.run_workload"),
        (Workload, "plan", "Workload.plan"),
    ]
    for method in ("start_nodes", "submit", "advance_epoch", "poll",
                   "harvest", "drain", "close"):
        found.append((StreamingExplorer, method, f"StreamingExplorer.{method}"))
    fault_classes = {type(checker) for checker in checkers.default_checkers()}
    for cls in sorted(fault_classes, key=lambda c: c.__name__):
        found.append((cls, "check", "FaultChecker.check"))
    for cls in checkers.WAVE_CHECKERS.values():
        found.append((cls, "check", "WaveChecker.check"))
    return found


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, counters: Dict[str, float]) -> Dict[str, float]:
    """Every ``PER_LAYER`` value except ``trace.overhead_share``.

    ``tracer`` is the round's :class:`trace.Tracer`; ``counters`` are the
    workload's reads of the program's own reports
    (see ``workloads.py``); span-derived numbers come from ``tracer``.
    Layers a workload never enters report 0.
    """
    own = tracer.self_times()
    calls = tracer.calls()
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    glue = 0.0
    for span_name, seconds in own.items():
        metric = SPAN_LAYER.get(span_name)
        if metric is None:
            glue += seconds
        else:
            out[metric] += seconds
    root = tracer.spans[0]
    root_s = root[2] - root[1]
    out["bench.glue_s"] = glue
    out["trace.root_s"] = root_s
    out["trace.spans"] = len(tracer.spans)
    out["trace.top_level_cover"] = tracer.child_cover(0)
    out["trace.layer_sum_share"] = _ratio(root_s - glue, root_s)

    out["bgp.updates_handled"] = calls.get("BgpRouter.handle_update", 0)
    out["checkpoint.capture_calls"] = calls.get("Checkpoint.capture", 0)
    out["checkpoint.capture_bytes"] = tracer.values.get("Checkpoint.capture", 0)
    out["checkpoint.restore_calls"] = calls.get("Checkpoint.restore", 0)
    out["checkpoint.epoch_stall_s"] = tracer.inclusive(["checkpoint.epoch_stall"])
    out["core.federation.fabric_clones"] = calls.get("IsolatedFabric.__init__", 0)
    out["core.federation.fabric_clone_wall_s"] = tracer.inclusive(
        ["IsolatedFabric.__init__"]
    )
    converge_wall = tracer.inclusive(["net.converge", "BuiltScenario.converge"])
    propagate_wall = tracer.inclusive(["IsolatedFabric.propagate"])

    # Counters named like a layer metric are that metric.
    out.update((name, counters[name]) for name in out if name in counters)
    out["net.events_per_s"] = _ratio(out["net.events"], converge_wall)
    out["core.federation.msgs_per_s"] = _ratio(
        out["core.federation.delivered_msgs"], propagate_wall
    )
    out["checkpoint.dirty_segment_ratio"] = _ratio(
        counters.get("dirty_segments", 0), counters.get("segments_total", 0)
    )
    out["concolic.unique_path_ratio"] = _ratio(
        counters.get("unique_paths", 0), out["concolic.executions"]
    )
    out["concolic.solver_cache_hit_rate"] = _ratio(
        counters.get("solver_cache_hits", 0),
        counters.get("solver_cache_hits", 0) + counters.get("solver_cache_misses", 0),
    )
    out["concolic.solver_memo_hit_rate"] = _ratio(
        counters.get("solver_memo_hits", 0),
        counters.get("solver_memo_hits", 0) + counters.get("solver_memo_misses", 0),
    )
    out["concolic.solver_unknown_ratio"] = _ratio(
        counters.get("solver_unknown", 0), out["concolic.solver_queries"]
    )
    out["core.checkers.unique_finding_ratio"] = _ratio(
        counters.get("findings", 0), out["core.checkers.findings_raw"]
    )
    out["parallel.coalesce_ratio"] = _ratio(
        counters.get("seeds_coalesced", 0), counters.get("seeds_submitted", 0)
    )
    out["parallel.bytes_per_job"] = _ratio(
        out["parallel.bytes_shipped"], out["parallel.jobs_completed"]
    )
    # With both workers busy, a faster in-worker layer saves at most its
    # share of worker time / 2; a faster coordinator saves its self time
    # only while workers wait on it, which is what utilization < 1 shows.
    # Worker CPU, not the shipped engine wall time (worker_busy_s), is the
    # numerator: the per-job clone restore happens outside the engine.
    window = tracer.inclusive(POOL_WINDOW)
    worker_cpu = out["parallel.worker_cpu_s"]
    out["parallel.utilization"] = _ratio(worker_cpu, POOL_WORKERS * window)
    out["parallel.overhead_s"] = (
        window - worker_cpu / POOL_WORKERS if window else 0.0
    )
    return out
