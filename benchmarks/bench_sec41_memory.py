"""MEM (section 4.1) — memory overhead of checkpoints and clones.

Paper: "We perform measurements that quantify the memory overhead on a
BIRD router that has a full routing table loaded.  We then run the
exploration while the router is processing a 15 minute trace replay ...
The checkpoint process has 3.45% unique memory pages.  The processes
forked for exploring from the checkpoint process consume on average
36.93% pages more (maximum of 39%)."

Reproduction: load the full (scaled) table, let the live router process
part of the update trace *after* the fork (so the parent diverges, giving
the checkpoint its unique pages), then run an exploration round with
page tracking and report the same three numbers.
"""

import pytest

from repro.checkpoint.manager import CheckpointManager, snapshot_pages
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import ExplorationBudget
from repro.core import DiceExplorer, get_scenario

SCALE = 4_000


def run_memory_experiment():
    scenario = get_scenario("fig2").build(
        filter_mode="erroneous",
        prefix_count=SCALE,
        update_count=400,
        replay_compression=1.0,  # real-time pacing, like the paper
    )
    # Converge the dump, then advance partway into the 15-minute window.
    scenario.converge(run_until=1.0)
    manager = CheckpointManager()
    manager.register_live(scenario.provider)
    checkpoint = manager.checkpoint(scenario.provider, "sec41")

    # The live router keeps processing the replay after the fork; its
    # image diverges from the checkpoint (the paper's unique pages).
    scenario.converge(run_until=400.0)
    manager.register_live(scenario.provider)

    explorer = DiceExplorer(checkpoint_manager=manager, track_clone_limit=12)
    peer, update = scenario.dice.pick_seed("customer")
    explorer.explore_update(
        scenario.provider, peer, update,
        budget=ExplorationBudget(max_executions=12),
        checkpoint=checkpoint,
    )
    return manager.memory_report()


@pytest.mark.benchmark(group="sec41-memory")
def test_sec41_memory_overhead(benchmark, paper_rows):
    report = benchmark.pedantic(run_memory_experiment, rounds=1, iterations=1)

    assert 0.0 < report.checkpoint_unique_fraction < 0.60
    assert 0.0 < report.clone_growth_mean < 1.0
    assert report.clone_growth_max >= report.clone_growth_mean
    assert report.sharing_ratio > 1.5

    paper_rows.add(
        "MEM", "checkpoint unique pages vs parent",
        "3.45%",
        f"{report.checkpoint_unique_fraction:.2%}",
        note="parent diverges during continued replay",
    )
    paper_rows.add(
        "MEM", "exploration clone page growth (mean)",
        "36.93%",
        f"{report.clone_growth_mean:.2%}",
    )
    paper_rows.add(
        "MEM", "exploration clone page growth (max)",
        "39%",
        f"{report.clone_growth_max:.2%}",
    )
    paper_rows.add(
        "MEM", "COW sharing ratio (virtual/resident)",
        "n/a (implied >1 by fork)",
        f"{report.sharing_ratio:.2f}x across {report.clone_count} clones",
    )


@pytest.mark.benchmark(group="sec41-memory")
def test_sec41_checkpoint_capture_cost(benchmark, paper_rows):
    """Fork cost: capturing a full-table router's state."""
    scenario = get_scenario("fig2").build(
        filter_mode="correct", prefix_count=SCALE, update_count=0
    )
    scenario.converge()

    counter = {"n": 0}

    def capture():
        counter["n"] += 1
        return Checkpoint.capture(scenario.provider, f"cost-{counter['n']}")

    benchmark.pedantic(capture, rounds=5, iterations=1)
    paper_rows.add(
        "MEM", "checkpoint capture latency (full table)",
        "n/a (fork syscall)",
        f"{benchmark.stats.stats.mean * 1000:.1f} ms for "
        f"{len(snapshot_pages(scenario.provider))} pages ({SCALE} prefixes)",
    )
