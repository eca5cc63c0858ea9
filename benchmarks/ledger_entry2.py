"""Perf ledger entry 2: the last numbers of the baselines PR 15 deleted.

Every comparison here has one side that no longer exists (the
``ProcessPoolExecutor`` batch, per-AS pools, an unsupervised stream), so
this script only runs against the **parent** commit's sources:

    git clone . /tmp/parent && git -C /tmp/parent checkout 35f9892
    PYTHONPATH=/tmp/parent/src python3 benchmarks/ledger_entry2.py [group ...]

Each group runs ten alternating pairs (which side goes first flips per
pair), checks the two sides' finding keys agree, and prints one JSON
line with every run.  The root README's "Perf ledger, entry 2" is this
script's output on a 2-core box.  Its ``batch_vs_stream_single`` and
``serial_vs_inline_stream`` rows came from two groups since retired:
once a batch became a finite stream, each compared one code path with
itself.
"""

import json
import statistics
import sys
import time

from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.core.scenario import synthesize_hijack_corpus
from repro.parallel import StreamingExplorer

PAIRS = 10
TOPOLOGY_SEED = 2010_04_01


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return {"median": round(statistics.median(xs), 4), "q1": round(q[0], 4),
            "q3": round(q[2], 4), "runs": [round(x, 4) for x in xs]}


def alternate(a, b, pairs=PAIRS):
    """Run a() and b() in alternating order; returns (a values, b values)."""
    av, bv = [], []
    for i in range(pairs):
        if i % 2 == 0:
            av.append(a())
            bv.append(b())
        else:
            bv.append(b())
            av.append(a())
    return av, bv


def fig2(prefixes=400, updates=80):
    built = get_scenario("fig2").build(
        filter_mode="erroneous", prefix_count=prefixes, update_count=updates
    )
    built.converge()
    return built


def observed(built, count):
    seeds = built.dice.batch_seeds(all_seeds=True)
    return [seeds[i % len(seeds)] for i in range(count)]


def keys(report):
    return frozenset(f.dedup_key() for f in report.findings())


def group_supervise():
    built = fig2()
    seeds = observed(built, 16)
    budget = ExplorationBudget(max_executions=16)

    def run(supervise):
        def go():
            s = StreamingExplorer(workers=2, budget=budget, queue_capacity=len(seeds),
                                  supervise=supervise, restart_backoff=0.01)
            s.start(built.provider)
            for peer, upd in seeds:
                s.submit(peer, upd)
            r = s.close()
            assert r.used_processes
            return r.total_executions / r.wall_seconds
        return go

    sup, unsup = alternate(run(True), run(False))
    return {"metric": "exec/s (higher better), fig2 400/80, 16 seeds x 16 execs, 2 workers",
            "supervised": quartiles(sup), "unsupervised": quartiles(unsup)}


def group_batch_vs_stream_fed50():
    built = get_scenario("hierarchical-50").build(seed=TOPOLOGY_SEED)
    built.converge()
    corpus = synthesize_hijack_corpus(built.graph, 1)
    budget = ExplorationBudget(max_executions=8)
    fed = built.federation()
    found = {}

    def run(stream):
        def go():
            started = time.perf_counter()
            r = fed.explore(corpus, budget=budget, workers=2, stream=stream, strategy_seed=1)
            wall = time.perf_counter() - started
            assert r.used_processes
            found[stream] = r.finding_keys()
            return wall
        return go

    b, s = alternate(run(False), run(True))
    assert found[False] == found[True]
    return {"metric": f"FederatedExploration.explore wall s (lower better), hierarchical-50, "
                      f"{len(corpus)} seeds over {len({n for n, _, _ in corpus})} nodes x 8 execs, 2 workers",
            "executor_batch": quartiles(b), "stream": quartiles(s),
            "finding_keys_equal": True}


def group_per_as_vs_shared():
    built = get_scenario("tiered-8").build(seed=42)
    built.converge()
    corpus = built.seed_corpus()
    fed = built.federation()
    budget = ExplorationBudget(max_executions=16)
    found = {}

    def run(shared):
        def go():
            r = fed.explore(corpus, budget=budget, workers=2, stream=True, shared_pool=shared)
            assert r.used_processes
            found[shared] = r.finding_keys()
            return r.wall_seconds
        return go

    shared, per_as = alternate(run(True), run(False))
    assert found[True] == found[False]
    return {"metric": f"FederatedExploration.explore(stream=True) wall s (lower better), tiered-8, "
                      f"{len(corpus)} seeds x 16 execs, 2 workers per pool",
            "shared_pool": quartiles(shared), "per_as_pools": quartiles(per_as),
            "finding_keys_equal": True}


GROUPS = {
    "supervise": group_supervise,
    "batch_vs_stream_fed50": group_batch_vs_stream_fed50,
    "per_as_vs_shared": group_per_as_vs_shared,
}

if __name__ == "__main__":
    names = sys.argv[1:] or list(GROUPS)
    out = {}
    for name in names:
        started = time.perf_counter()
        out[name] = GROUPS[name]()
        out[name]["group_wall_s"] = round(time.perf_counter() - started, 1)
        print(json.dumps({name: out[name]}), flush=True)
