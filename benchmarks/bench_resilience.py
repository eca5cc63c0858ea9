"""RESILIENCE — supervision must stay cheap, recovery must pay off.

The streaming pool's resilience layer (worker supervision, heartbeat
hang sweeps, retry bookkeeping) runs on the hot dispatch/collect path of
every stream — faulted or not.  This benchmark keeps it honest:

* **throughput floor** — a healthy stream's throughput (executions/sec,
  best of N runs) is recorded in ``baseline_hotpath.json`` and
  floor-gated like the other hot-path figures (the last comparison
  against an unsupervised pool is frozen in the README's perf ledger,
  entry 2);
* **recovery economics** — a stream that loses a worker to a chaos kill
  must still complete every job with the same finding set, and finish
  in bounded time (recovery, not graceful degradation into a crawl).

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-budget smoke run (used by CI to
keep this script from rotting without paying the full measurement).
``REPRO_BENCH_WRITE_BASELINE=1`` recalibrates the recorded figure after
an intentional perf change.
"""

import os

import pytest

from baseline_gate import WRITE_BASELINE, gate_floor, write_baseline
from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.parallel import StreamingExplorer, get_chaos_plan

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

WORKERS = 2
SEEDS = 8 if SMOKE else 16
ROUNDS = 2 if SMOKE else 3
BUDGET = ExplorationBudget(max_executions=6 if SMOKE else 16)


@pytest.fixture(scope="module")
def scenario():
    built = get_scenario("fig2").build(
        filter_mode="erroneous",
        prefix_count=150 if SMOKE else 400,
        update_count=30 if SMOKE else 80,
    )
    built.converge()
    return built


def observed_seeds(scenario, count):
    seeds = scenario.dice.batch_seeds(all_seeds=True)
    assert len(seeds) >= min(count, 4)
    return [seeds[i % len(seeds)] for i in range(count)]


def run_stream(scenario, seeds, chaos=None):
    stream = StreamingExplorer(
        workers=WORKERS,
        budget=BUDGET,
        queue_capacity=len(seeds),
        chaos=chaos,
        restart_backoff=0.01,
    )
    stream.start(scenario.provider)
    for peer, observed in seeds:
        stream.submit(peer, observed)
    return stream.close()


def _rate(report):
    return report.total_executions / max(report.wall_seconds, 1e-9)


def finding_keys(report):
    return frozenset(f.dedup_key() for f in report.findings())


@pytest.mark.benchmark(group="resilience")
def test_supervised_stream_throughput_floor(paper_rows, scenario):
    """Heartbeats + supervision ride every stream; gate what it delivers."""
    seeds = observed_seeds(scenario, SEEDS)
    # Best-of-N discards scheduling noise.
    reports = [run_stream(scenario, seeds) for _ in range(ROUNDS)]
    if not all(report.used_processes for report in reports):
        pytest.skip("no process workers on this host")
    rate = max(_rate(report) for report in reports)
    paper_rows.add(
        "resilience",
        "supervised-pool throughput",
        "above the recorded floor",
        f"{rate:.1f} exec/s",
        note=f"best of {ROUNDS} runs",
    )
    if WRITE_BASELINE:
        write_baseline(stream_supervised_execs_per_sec=rate)
        return
    floor = gate_floor("stream_supervised_execs_per_sec")
    assert rate >= floor, (
        f"supervised stream throughput {rate:.1f} exec/s fell below "
        f"the baseline floor {floor:.1f}"
    )


@pytest.mark.benchmark(group="resilience")
def test_recovery_completes_without_collapsing(paper_rows, scenario):
    """Losing a worker mid-stream costs a respawn, not the run: every
    job completes, findings match the unfaulted stream, and the wall
    clock stays within a small multiple of the healthy run's."""
    seeds = observed_seeds(scenario, SEEDS)
    healthy = run_stream(scenario, seeds)
    if not healthy.used_processes:
        pytest.skip("no process workers on this host")
    chaotic = run_stream(scenario, seeds, chaos=get_chaos_plan("kill-one-worker"))
    assert chaotic.jobs_completed == len(seeds)
    assert not chaotic.quarantined
    assert finding_keys(chaotic) == finding_keys(healthy)
    # Generous bound: the kill costs one respawn backoff and some
    # re-shipped images, never a serial re-run of the whole corpus.
    assert chaotic.wall_seconds < max(healthy.wall_seconds * 3.0, 5.0)
    paper_rows.add(
        "resilience",
        "worker-kill recovery slowdown",
        "< 3x healthy wall clock",
        f"{chaotic.wall_seconds / max(healthy.wall_seconds, 1e-9):.2f}x "
        f"(restarts {chaotic.workers_restarted})",
    )
