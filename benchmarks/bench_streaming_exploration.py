"""STREAM — shipping economics of the streaming pipeline.

Shipping the checkpoint inside every job would pickle the full state
once per seed; the streaming pipeline (``repro.parallel.stream``) forks
persistent workers holding every epoch-0 checkpoint template and, on
re-checkpoint, ships only a key-level patch between two templates (the
changed entries, removed keys and changed small components).  This
benchmark measures what that buys:

* **checkpoint bytes per job** — the acceptance metric: streaming's
  average transport cost per explored seed must be strictly below a
  full checkpoint pickle per job;
* **patch vs. full re-ship** — after a small RIB change, the epoch
  patch must be a sliver of the full state pickle;
* **per-worker cache** — a worker handed a duplicate seed resolves its
  negations from its own constraint memo instead of re-solving them.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-budget smoke run (used by CI to
keep this script from rotting without paying the full measurement).
"""

import os
import pickle

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.checkpoint.delta import TemplatePatch
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.parallel import StreamingExplorer
from repro.util.ip import Prefix, ip_to_int

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

WORKERS = 2
SEEDS = 8 if SMOKE else 24
BUDGET = ExplorationBudget(max_executions=6 if SMOKE else 24)


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
    # Cycle if the scenario observed fewer distinct seeds than asked.
    return [seeds[i % len(seeds)] for i in range(count)]


def run_stream(scenario, seeds, epoch_every=0):
    stream = StreamingExplorer(
        workers=WORKERS, budget=BUDGET, queue_capacity=len(seeds)
    )
    stream.start(scenario.provider)
    for position, (peer, observed) in enumerate(seeds, start=1):
        stream.submit(peer, observed)
        if epoch_every and position % epoch_every == 0:
            stream.advance_epoch()
    return stream.close()


@pytest.mark.benchmark(group="streaming")
def test_checkpoint_bytes_per_job_below_batch_baseline(benchmark, paper_rows, scenario):
    """The acceptance metric: transport bytes per explored seed."""
    seeds = observed_seeds(scenario, SEEDS)
    baseline = len(pickle.dumps(Checkpoint.capture(scenario.provider, "baseline")))

    report = benchmark.pedantic(
        run_stream, args=(scenario, seeds), kwargs={"epoch_every": max(2, SEEDS // 3)},
        rounds=1, iterations=1,
    )
    assert report.jobs_completed == len(seeds), report.errors
    per_job = report.checkpoint_bytes_per_job
    paper_rows.add(
        "STREAM", "checkpoint bytes shipped per job",
        f"batch baseline: {baseline} (full pickle per job)",
        f"{per_job:.0f} ({per_job / baseline:.1%} of baseline, "
        f"{report.epochs} epochs, {WORKERS} workers)",
        note="smoke budget" if SMOKE else "",
    )
    assert per_job < baseline, (
        f"streaming shipped {per_job:.0f} B/job, batch baseline {baseline} B/job"
    )


@pytest.mark.benchmark(group="streaming")
def test_epoch_delta_is_sliver_of_full_image(benchmark, paper_rows, scenario):
    """A small RIB change ships only the changed entries."""
    router = scenario.provider

    def capture_and_diff():
        base = Checkpoint.capture(router, "base")
        router.handle_update(
            "customer",
            UpdateMessage(
                attributes=PathAttributes(
                    as_path=AsPath.sequence([65020]), next_hop=ip_to_int("10.0.0.2")
                ),
                nlri=[NlriEntry.from_prefix(Prefix.parse("98.76.0.0/16"))],
            ),
        )
        after = Checkpoint.capture(router, "after")
        patch = TemplatePatch.between(base, after, epoch=1)
        patch.seal()
        return patch, after

    patch, after = benchmark.pedantic(capture_and_diff, rounds=1, iterations=1)
    full = after.size_bytes
    fraction = patch.bytes_shipped / full
    paper_rows.add(
        "STREAM", "epoch patch after one-route change",
        "ship only changed entries (design goal)",
        f"{patch.bytes_shipped}/{full} B ({fraction:.1%}), "
        f"{patch.dirty}/{patch.entries_total} entries",
    )
    assert patch.bytes_shipped < full / 4
    assert patch.dirty < patch.entries_total


@pytest.mark.benchmark(group="streaming")
def test_per_worker_cache_hits_on_duplicate_seeds(benchmark, paper_rows, scenario):
    """A worker that receives a duplicate seed hits its own memo."""
    seed = observed_seeds(scenario, 1)[0]
    duplicates = [seed] * (4 if SMOKE else 8)

    report = benchmark.pedantic(
        run_stream, args=(scenario, duplicates), rounds=1, iterations=1
    )
    stats = report.cache_stats()
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    assert hits > 0, "identical sessions produced no cache hits"
    paper_rows.add(
        "STREAM", "per-worker cache hit rate on duplicate seeds",
        "identical negations solved once per worker (design goal)",
        f"{hits}/{hits + misses} ({hits / (hits + misses):.0%}, "
        f"{WORKERS} workers)",
    )
