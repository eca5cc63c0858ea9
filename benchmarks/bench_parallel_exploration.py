"""PAR — a multi-seed session batch through the worker pool.

The paper's deployment model runs exploration "off the critical path" on
spare cores (sections 3.2, 4.1) and notes the engine "can execute
multiple explorations in parallel"; the sequential prototype explored
one seed per round in-process.  This benchmark runs a full
checkpoint-clone-explore batch over the Figure 2 scenario's observed
seed buffers on two pool workers and holds it against the serial
reference loop (``tests/parallel/reference.py``, every session run in
turn in process): the finding set must be identical, and the
two throughputs are reported side by side (no speedup is asserted: the
pool only pays off with spare cores and a budget that amortizes its
start-up).

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-budget smoke run (used by CI to
keep perf scripts from rotting without paying the full measurement).
"""

import os

import pytest

from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from tests.parallel.reference import batch as explore_batch, serial_batch

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CPUS = os.cpu_count() or 1


@pytest.mark.benchmark(group="parallel")
def test_parallel_session_batch_end_to_end(benchmark, paper_rows):
    """Checkpoint-clone-explore across all observed seed buffers (fig2)."""
    scenario = get_scenario("fig2").build(
        filter_mode="erroneous",
        prefix_count=150 if SMOKE else 400,
        update_count=30 if SMOKE else 60,
    )
    scenario.converge()
    seeds = scenario.dice.batch_seeds(all_seeds=True)
    budget = ExplorationBudget(max_executions=8 if SMOKE else 16)

    def run():
        return explore_batch(scenario.provider, seeds, budget=budget, workers=2)

    serial = serial_batch(scenario.provider, seeds, budget=budget)
    batch = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(batch.reports) == len(seeds)
    assert batch.leaked_prefixes(), "erroneous filter produced no leak findings"
    # Same seeds, same budget: the pool must not change the outcome.
    assert batch.total_executions == serial.total_executions
    assert {f.dedup_key() for f in batch.findings()} == {
        f.dedup_key() for f in serial.findings()
    }
    paper_rows.add(
        "PAR", "multi-seed session batch (all ring buffers)",
        "one seed per round in the prototype",
        f"{len(batch.reports)} sessions, {batch.total_executions} executions, "
        f"{batch.executions_per_second:.0f} exec/s on 2 workers vs "
        f"{serial.executions_per_second:.0f} in process ({CPUS} cores), "
        f"{len(batch.leaked_prefixes())} leakable prefixes",
        note="smoke budget" if SMOKE else batch.fallback_reason,
    )
