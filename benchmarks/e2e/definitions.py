"""What the benchmark runs and reports: the single source ``BENCHMARK.json``
is written from (``tests/test_contract.py`` holds the two together).

Nothing here imports the program, so the runner and ``compare.py`` can
read names, sizes and bounds without paying for ``repro``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS = [
    ("fig2-solo",
     "paper's Fig. 2 testbed on the serial engine: checkpoint restore per "
     "execution, bgp, concolic and checkers do the work; no pool, no fabric"),
    ("fig2-online",
     "live node feeding a long-lived 2-worker pool across epochs: incremental "
     "image capture + delta shipping and dispatch/harvest are on the path"),
    ("hier100-wave",
     "100-AS federation, serial: net+bgp convergence, fabric clone, privacy "
     "digests and the quiescent wave dominate; concolic and the pool are idle"),
    ("hier50-faults",
     "streamed fault-workload session over 50 node images: pool start, image "
     "shipping and per-job restores offset what 2 workers save; timed "
     "injections and wave checkers only run here"),
]

# (name, unit, better, bound).  Bounds are as wide as the contract allows
# because of this box and the inputs, not the program: the box runs
# 10-15 % slower for a minute at a time, and the Fig. 2 trace moves peak
# RSS by 7 % from seed to seed (README.md, "Noise").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("explore_wall_s", "s", "lower", 0.25),
    ("time_to_findings_s", "s", "lower", 0.25),
    ("execs_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# (name, unit, better).  Counts of work done use "lower" when less work
# for the same findings is the win, "higher" when they measure output.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("python.import_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.nodes", "count", "lower"),
    ("topology.edges", "count", "lower"),
    ("trace.generate_s", "s", "lower"),
    ("net.converge_s", "s", "lower"),
    ("net.events", "count", "lower"),
    ("net.events_per_s", "1/s", "higher"),
    ("bgp.handle_update_s", "s", "lower"),
    ("bgp.updates_handled", "count", "lower"),
    ("checkpoint.capture_s", "s", "lower"),
    ("checkpoint.capture_calls", "count", "lower"),
    ("checkpoint.capture_bytes", "bytes", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("checkpoint.restore_calls", "count", "lower"),
    ("checkpoint.image_capture_s", "s", "lower"),
    ("checkpoint.diff_s", "s", "lower"),
    ("checkpoint.delta_bytes", "bytes", "lower"),
    ("checkpoint.dirty_segment_ratio", "ratio", "lower"),
    ("checkpoint.epoch_stall_s", "s", "lower"),
    ("concolic.engine_self_s", "s", "lower"),
    ("concolic.executions", "count", "higher"),
    ("concolic.unique_path_ratio", "ratio", "higher"),
    ("concolic.solver_s", "s", "lower"),
    ("concolic.solver_queries", "count", "lower"),
    ("concolic.solver_propagate_s", "s", "lower"),
    ("concolic.solver_cache_hit_rate", "ratio", "higher"),
    ("concolic.solver_memo_hit_rate", "ratio", "higher"),
    ("concolic.solver_unknown_ratio", "ratio", "lower"),
    ("core.explorer.session_s", "s", "lower"),
    ("core.explorer.sessions", "count", "higher"),
    ("core.checkers.check_s", "s", "lower"),
    ("core.checkers.findings_raw", "count", "lower"),
    ("core.checkers.unique_finding_ratio", "ratio", "higher"),
    ("core.federation.fabric_clone_s", "s", "lower"),
    ("core.federation.fabric_clone_wall_s", "s", "lower"),
    ("core.federation.fabric_clones", "count", "lower"),
    ("core.federation.inject_s", "s", "lower"),
    ("core.federation.propagate_s", "s", "lower"),
    ("core.federation.delivered_msgs", "count", "lower"),
    ("core.federation.wave_rounds", "count", "lower"),
    ("core.federation.msgs_per_s", "1/s", "higher"),
    ("core.federation.explore_s", "s", "lower"),
    ("core.privacy.digest_s", "s", "lower"),
    ("core.privacy.conflicts", "count", "lower"),
    ("core.workload.plan_s", "s", "lower"),
    ("core.workload.wave_s", "s", "lower"),
    ("core.workload.injected_events", "count", "lower"),
    ("core.checkers.wave_check_s", "s", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.submit_s", "s", "lower"),
    ("parallel.advance_epoch_s", "s", "lower"),
    ("parallel.drain_s", "s", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.utilization", "ratio", "higher"),
    ("parallel.overhead_s", "s", "lower"),
    ("parallel.jobs_completed", "count", "higher"),
    ("parallel.jobs_retried", "count", "lower"),
    ("parallel.coalesce_ratio", "ratio", "lower"),
    ("parallel.bytes_shipped", "bytes", "lower"),
    ("parallel.bytes_per_job", "bytes", "lower"),
    ("parallel.harvest_latency_mean_s", "s", "lower"),
    ("parallel.harvest_latency_max_s", "s", "lower"),
    ("bench.verify_s", "s", "lower"),
    ("bench.glue_s", "s", "lower"),
    ("trace.root_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.top_level_cover", "ratio", "higher"),
    ("trace.layer_sum_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
]

SIZES: Dict[str, Dict[str, object]] = {
    "fig2-solo": {
        "prefix_count": 2000, "update_count": 200, "executions": 16, "budget": 48,
    },
    "fig2-online": {
        "prefix_count": 1000, "update_count": 120, "windows": 2,
        "seeds_per_window": 8, "budget": 16,
    },
    "hier100-wave": {"ases": 100, "targets": 16, "budget": 8},
    "hier50-faults": {"sessions": ("session-reset",), "budget": 8},
}

SMOKE_SIZES: Dict[str, Dict[str, object]] = {
    "fig2-solo": {**SIZES["fig2-solo"], "executions": 6},
    "fig2-online": {**SIZES["fig2-online"], "windows": 1, "seeds_per_window": 6},
    "hier100-wave": {**SIZES["hier100-wave"], "ases": 50},
    "hier50-faults": dict(SIZES["hier50-faults"]),
}

#: Counts that must repeat exactly between rounds of one (workload, seed),
#: and the round counter each is read from ("findings" is the number of
#: distinct finding keys, which is not a counter).
EXACT_COUNTS: Dict[str, str] = {
    "executions": "concolic.executions",
    "sessions": "core.explorer.sessions",
    "jobs_completed": "parallel.jobs_completed",
    "seeds_coalesced": "seeds_coalesced",
    "delivered_msgs": "core.federation.delivered_msgs",
    "bytes_shipped": "parallel.bytes_shipped",
    "findings": "findings",
}

#: The generated federations are pinned: hierarchical(n, seed) draws 4 %
#: more or fewer edges and +-10 % convergence work from one seed to the
#: next, which would swamp a 10-25 % regression bound.  ``--seed`` picks
#: the exploration corpus (targets, injectors, victims) and the strategy
#: seed instead; the Fig. 2 workloads build their trace from it.
TOPOLOGY_SEED = 2010_04_01

#: Pool width of the streamed workloads (this box has 2 cores).
POOL_WORKERS = 2

#: Workloads whose measured flavour runs a worker pool and therefore
#: needs the serial engine's digest as its reference.
POOLED = ("fig2-online", "hier50-faults")

#: How long one driver run measures (``--seconds``), in BENCHMARK.json.
#: Three rounds of every workload take at least this long, so a driver
#: run is exactly ``MIN_ROUNDS`` rounds and 92 of them fit its 3420 s cap.
RUN_SECONDS = 16


def benchmark_json() -> dict:
    """``BENCHMARK.json`` as the driver's contract wants it."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":  # python3 benchmarks/e2e/definitions.py > BENCHMARK.json
    import json

    print(json.dumps(benchmark_json(), indent=2))
