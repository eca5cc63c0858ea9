"""One benchmark round: one workload, one seed, one fresh process.

``run.py`` starts this file once per round because the solver's intern
table, propagate memo and semantic index are process-global: a second
exploration in the same interpreter would start warm.  The round prints
one JSON object on its last line — phase times, resource use, exact
counts, the finding-set digest and, when traced, the per-layer metrics.
"""

import time

_STARTED_WALL = time.time()
_STARTED = time.perf_counter()

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from trace import NAME, START, Tracer  # benchmarks/e2e/trace.py, not the stdlib's


def _resources() -> tuple:
    """``(cpu_s, children_cpu_s, peak_rss_mb)`` of this process and its pool.

    ``RUSAGE_CHILDREN`` covers the reaped children — pool workers and
    cache managers, all joined when their pool closed — and reports the
    *largest* one's peak RSS, so the memory figure is coordinator peak +
    largest worker peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    kids_cpu = kids.ru_utime + kids.ru_stime
    cpu = own.ru_utime + own.ru_stime + kids_cpu
    return cpu, kids_cpu, (own.ru_maxrss + kids.ru_maxrss) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=_STARTED_WALL,
                        help="time.time() in the parent just before it "
                             "started this process")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--serial", action="store_true",
                        help="run the pool workloads on the serial engine")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = Tracer(run_id=f"{args.workload}.{args.seed}")
    with tracer.span("round"):
        with tracer.span("python.import"):
            import layers
            import workloads

            pins = layers.pins() if args.traced else []
        sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
        rnd = workloads.Round(tracer, args.seed, sizes[args.workload], args.serial)
        with tracer.installed(pins):
            workloads.WORKLOADS[args.workload](rnd)
        with tracer.span("bench.verify"):
            digest = rnd.digest()
    cpu_s, children_cpu_s, peak_rss_mb = _resources()

    # Everything before the first set-up phase opened is start-up: the
    # interpreter (parent's stamp to our first line) and the imports.
    first_setup = next(span for span in tracer.spans if span[NAME] == "setup")
    startup = (_STARTED_WALL - args.spawned_at) + (first_setup[START] - _STARTED)
    setup_s = startup + rnd.setup_seconds
    executions = rnd.counters.get("concolic.executions", 0)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "serial": args.serial,
        "wall_s": time.perf_counter() - _STARTED,
        "metrics": {
            "setup_s": setup_s,
            "explore_wall_s": rnd.explore_seconds,
            "time_to_findings_s": setup_s + rnd.explore_seconds,
            "execs_per_s": executions / rnd.explore_seconds,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "digest": digest,
        "counts": rnd.exact_counts(),
    }
    if args.traced:
        result["layers"] = layers.layer_metrics(
            tracer, rnd.layer_counters(children_cpu_s)
        )
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    status = main()
    # Every pool is closed and reaped by now; tearing down the interpreter
    # would spend ~2 s freeing 100 routers' tables that nobody measures.
    sys.stdout.flush()
    os._exit(status)
