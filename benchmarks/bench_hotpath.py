"""HOTPATH — expression interning, incremental query keys, seed scheduling.

The exploration loop's solver-facing costs, measured head-to-head:

* **key-computation throughput** — the cache key for negating branch i
  of an n-branch path used to re-canonicalize the whole conjunction
  (O(n²) per session); the rolling per-prefix digests make it O(n).
  Acceptance: >=3x reduction on paths of >=200 branches, plus a
  regression gate against ``baseline_hotpath.json``;
* **interning hit rate** — re-running a trace rebuilds structurally
  identical constraints; hash consing must serve them from the intern
  table instead of fresh allocations;
* **propagate-stage throughput** — a fig1-style negation sweep is one
  shared-prefix conjunction per branch; the batched sibling path
  (:meth:`ConstraintSolver.solve_batch`) propagates the prefix once and
  forks per negation, and the domain-box memo replays repeated
  ``narrow`` steps.  Acceptance: >=2x propagate-stage reduction vs the
  per-branch unmemoized sweep, plus a solves/s regression gate;
* **stream-vs-batch findings/s** — the coverage-guided streaming
  pipeline must find the same faults as the serial reference loop
  (``tests/parallel/reference.py``) over the same seeds (both rates are
  reported);
* **checkpoint captures/s and restores/s** — a checkpoint of the
  2000-prefix fig2 router is a fork (per-table dict copies sharing the
  routes), three orders of magnitude above what a pickle round trip of
  the same state manages; the gate fails a change that puts
  serialization back on the clone path.

The regression gates compare measured throughput against checked-in
baselines (``baseline_hotpath.json``) recorded on the development
machine, scaled by 0.25 to absorb slower CI hardware, then require
measurements to stay within 30% of that floor.  Recalibrate with
``REPRO_BENCH_WRITE_BASELINE=1`` after an intentional perf change
(read-modify-write: only the keys a run measures are rewritten).

Set ``REPRO_BENCH_SMOKE=1`` for the tiny-budget CI smoke run.
"""

import os
import time

import pytest

from baseline_gate import WRITE_BASELINE, gate_floor, load_baseline, write_baseline
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic import ExplorationBudget
from repro.concolic.expr import (
    Const,
    Var,
    intern_info,
    make_binary,
    reset_intern_counters,
)
from repro.concolic.path import PathCondition
from repro.concolic.solver import ConstraintSolver
from repro.concolic.solver.cache import canonical_query_key, query_key_tail
from repro.concolic.solver.intervals import propagate_memo_disabled
from repro.concolic.tracer import BranchSite
from repro.core import get_scenario
from repro.core.isolation import restore_isolated
from repro.parallel import StreamingExplorer
from tests.parallel.reference import serial_batch

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

PATH_BRANCHES = 200 if SMOKE else 400
VAR_POOL = 8


def build_path(branches: int) -> PathCondition:
    """An engine-shaped path: comparison constraints over a variable pool."""
    path = PathCondition()
    variables = [Var(f"x{i}", 32) for i in range(VAR_POOL)]
    for i in range(branches):
        constraint = make_binary(
            "lt",
            make_binary(
                "add",
                make_binary("mul", variables[i % VAR_POOL], Const(3)),
                variables[(i + 1) % VAR_POOL],
            ),
            Const(10_000 + i),
        )
        path.append(BranchSite("handler.py", 100 + i), constraint, bool(i % 2))
    return path


def measure_key_throughput(branches: int):
    """(from-scratch seconds, rolling seconds, keys) over one full sweep."""
    domains = {f"x{i}": (0, 2**32 - 1) for i in range(VAR_POOL)}
    hint = {f"x{i}": i * 17 for i in range(VAR_POOL)}

    scratch_path = build_path(branches)
    started = time.perf_counter()
    scratch_keys = [
        canonical_query_key(scratch_path.constraints_to_negate(i), domains, hint)
        for i in range(branches)
    ]
    scratch_seconds = time.perf_counter() - started

    rolling_path = build_path(branches)
    started = time.perf_counter()
    tail = query_key_tail(domains, hint)
    rolling_keys = [rolling_path.negation_key(i, tail) for i in range(branches)]
    rolling_seconds = time.perf_counter() - started

    assert rolling_keys == scratch_keys, "incremental keys diverged"
    return scratch_seconds, rolling_seconds, branches


@pytest.mark.benchmark(group="hotpath")
def test_incremental_keys_at_least_3x_faster(benchmark, paper_rows):
    """Acceptance: >=3x key-computation reduction on >=200-branch paths."""
    # Warm once so node-level canonical renderings exist in both arms.
    measure_key_throughput(PATH_BRANCHES)
    scratch, rolling, keys = benchmark.pedantic(
        measure_key_throughput, args=(PATH_BRANCHES,), rounds=3, iterations=1
    )
    speedup = scratch / rolling if rolling else float("inf")
    paper_rows.add(
        "HOTPATH", f"query-key time, {keys}-branch path",
        ">=3x reduction (acceptance)",
        f"{scratch * 1e3:.1f}ms -> {rolling * 1e3:.1f}ms ({speedup:.1f}x, "
        f"{keys / rolling:.0f} keys/s)",
        note="smoke" if SMOKE else "",
    )
    assert speedup >= 3.0, (
        f"incremental keys only {speedup:.2f}x faster "
        f"({scratch * 1e3:.2f}ms vs {rolling * 1e3:.2f}ms)"
    )


@pytest.mark.benchmark(group="hotpath")
def test_key_throughput_regression_gate(benchmark, paper_rows):
    """Fail CI when rolling keys/s regresses >30% against the baseline."""
    measure_key_throughput(PATH_BRANCHES)  # warm renderings
    _, rolling, keys = benchmark.pedantic(
        measure_key_throughput, args=(PATH_BRANCHES,), rounds=3, iterations=1
    )
    measured = keys / rolling if rolling else float("inf")

    if WRITE_BASELINE:
        write_baseline(rolling_keys_per_sec=measured, branches=keys)
        pytest.skip(f"baseline rewritten: {measured:.0f} keys/s")

    recorded = load_baseline().get("rolling_keys_per_sec", 0.0)
    floor = gate_floor("rolling_keys_per_sec")
    paper_rows.add(
        "HOTPATH", "rolling keys/s vs regression floor",
        f">= {floor:.0f} (baseline {recorded:.0f} scaled, 30% tolerance)",
        f"{measured:.0f}",
        note="smoke" if SMOKE else "",
    )
    assert measured >= floor, (
        f"key throughput {measured:.0f}/s regressed below floor {floor:.0f}/s "
        f"(baseline {recorded:.0f}/s)"
    )


PROPAGATE_BRANCHES = 100 if SMOKE else 200
PROPAGATE_HI = 2**20


def build_propagate_profile(branches: int):
    """A fig1-style negation sweep: tightening bounds over a variable pool.

    ``prefix[i]`` is the held constraint of branch i (``3x + c <=
    bound``, bounds decreasing per round over the pool); negating branch
    i asks for ``prefix[:i] ∧ 3x + c > bound_i`` — satisfiable in the
    gap below the previous round's bound on the same variable, so every
    query is SAT and propagate-dominated (the hint misses, linear
    inversion finishes).
    """
    variables = [Var(f"p{i}", 32) for i in range(VAR_POOL)]
    prefix, negations = [], []
    for i in range(branches):
        var = variables[i % VAR_POOL]
        expr = make_binary(
            "add", make_binary("mul", var, Const(3)), Const(7 + i % 5)
        )
        bound = Const(PROPAGATE_HI - i * 37)
        prefix.append(make_binary("le", expr, bound))
        negations.append((i, make_binary("gt", expr, bound)))
    domains = {var.name: (0, 2**32 - 1) for var in variables}
    hint = {var.name: 0 for var in variables}
    return prefix, negations, domains, hint


def measure_propagate_throughput(branches: int):
    """Per-branch unmemoized sweep vs batched+memoized, with model parity."""
    prefix, negations, domains, hint = build_propagate_profile(branches)

    serial = ConstraintSolver(deterministic_rng=True)
    with propagate_memo_disabled():
        started = time.perf_counter()
        serial_models = [
            serial.solve(list(prefix[:length]) + [negation], domains, hint=hint)
            for length, negation in negations
        ]
        serial_seconds = time.perf_counter() - started

    batched = ConstraintSolver(deterministic_rng=True)
    started = time.perf_counter()
    batch_models = batched.solve_batch(prefix, negations, domains, hint=hint)
    batched_seconds = time.perf_counter() - started

    assert batch_models == serial_models, "batched negation sweep diverged"
    assert all(model is not None for model in batch_models), "sweep went UNSAT"
    return {
        "serial_seconds": serial_seconds,
        "batched_seconds": batched_seconds,
        "serial_propagate": serial.stats.propagate_time,
        "batched_propagate": batched.stats.propagate_time,
        "solves": branches,
    }


@pytest.mark.benchmark(group="hotpath")
def test_batched_propagate_at_least_2x_faster(benchmark, paper_rows):
    """Acceptance: >=2x propagate-stage reduction on a fig1-style sweep."""
    measure_propagate_throughput(PROPAGATE_BRANCHES)  # warm renderings + memo
    timing = benchmark.pedantic(
        measure_propagate_throughput,
        args=(PROPAGATE_BRANCHES,),
        rounds=3,
        iterations=1,
    )
    speedup = (
        timing["serial_propagate"] / timing["batched_propagate"]
        if timing["batched_propagate"]
        else float("inf")
    )
    paper_rows.add(
        "HOTPATH", f"propagate time, {timing['solves']}-branch sweep",
        ">=2x reduction (acceptance)",
        f"{timing['serial_propagate'] * 1e3:.1f}ms -> "
        f"{timing['batched_propagate'] * 1e3:.1f}ms ({speedup:.1f}x, "
        f"{timing['solves'] / timing['batched_seconds']:.0f} solves/s)",
        note="smoke" if SMOKE else "",
    )
    assert speedup >= 2.0, (
        f"batched propagate only {speedup:.2f}x faster "
        f"({timing['serial_propagate'] * 1e3:.2f}ms vs "
        f"{timing['batched_propagate'] * 1e3:.2f}ms)"
    )


@pytest.mark.benchmark(group="hotpath")
def test_propagate_throughput_regression_gate(benchmark, paper_rows):
    """Fail CI when batched solves/s regresses >30% against the baseline."""
    measure_propagate_throughput(PROPAGATE_BRANCHES)  # warm renderings + memo
    timing = benchmark.pedantic(
        measure_propagate_throughput,
        args=(PROPAGATE_BRANCHES,),
        rounds=3,
        iterations=1,
    )
    measured = (
        timing["solves"] / timing["batched_seconds"]
        if timing["batched_seconds"]
        else float("inf")
    )

    if WRITE_BASELINE:
        write_baseline(propagate_solves_per_sec=measured)
        pytest.skip(f"baseline rewritten: {measured:.0f} solves/s")

    recorded = load_baseline().get("propagate_solves_per_sec", 0.0)
    floor = gate_floor("propagate_solves_per_sec")
    paper_rows.add(
        "HOTPATH", "batched solves/s vs regression floor",
        f">= {floor:.0f} (baseline {recorded:.0f} scaled, 30% tolerance)",
        f"{measured:.0f}",
        note="smoke" if SMOKE else "",
    )
    assert measured >= floor, (
        f"propagate throughput {measured:.0f}/s regressed below floor "
        f"{floor:.0f}/s (baseline {recorded:.0f}/s)"
    )


def graded_handler(inputs):
    masklen = inputs.masklen
    network = inputs.network
    if masklen > 32:
        return "invalid-length"
    if masklen < 8:
        return "too-coarse"
    if (network >> 24) == 10:
        if masklen >= 24:
            return "private-specific"
        return "private-coarse"
    if masklen == 32:
        return "host-route"
    return "accepted"


@pytest.mark.benchmark(group="hotpath")
def test_interning_hit_rate_on_repeated_traces(benchmark, paper_rows):
    """Re-executing a trace must hit the intern table, not re-allocate."""
    from repro.concolic import ConcolicEngine, InputSpec, VarSpec

    def explore_twice():
        spec = InputSpec([
            VarSpec("network", bits=32, initial=0x0A0A0100),
            VarSpec("masklen", bits=6, initial=24),
        ])
        engine = ConcolicEngine()
        engine.explore(graded_handler, spec,
                       budget=ExplorationBudget(max_executions=32))
        reset_intern_counters()
        engine2 = ConcolicEngine()
        engine2.explore(graded_handler, spec,
                        budget=ExplorationBudget(max_executions=32))
        return intern_info()

    info = benchmark.pedantic(explore_twice, rounds=1, iterations=1)
    lookups = info["hits"] + info["misses"]
    rate = info["hits"] / lookups if lookups else 0.0
    paper_rows.add(
        "HOTPATH", "intern-table hit rate, repeated exploration",
        "structurally identical nodes shared (design goal)",
        f"{info['hits']}/{lookups} ({rate:.0%}), {info['entries']} live entries",
    )
    assert rate > 0.5, f"interning hit rate {rate:.0%} on an identical re-run"


@pytest.mark.benchmark(group="hotpath")
def test_stream_vs_batch_findings_rate(benchmark, paper_rows):
    """Coverage-guided stream: same finding set as the serial loop."""
    scenario = get_scenario("fig2").build(
        filter_mode="erroneous",
        prefix_count=150 if SMOKE else 400,
        update_count=30 if SMOKE else 80,
    )
    scenario.converge()
    seeds = scenario.dice.batch_seeds(all_seeds=True)[: (6 if SMOKE else 16)]
    budget = ExplorationBudget(max_executions=6 if SMOKE else 24)

    batch = serial_batch(scenario.provider, seeds, budget=budget)
    batch_rate = (
        len(batch.findings()) / batch.wall_seconds if batch.wall_seconds else 0.0
    )

    def run_stream():
        stream = StreamingExplorer(
            workers=2, budget=budget, queue_capacity=len(seeds)
        )
        stream.start(scenario.provider)
        for peer, observed in seeds:
            stream.submit(peer, observed)
        return stream.close()

    report = benchmark.pedantic(run_stream, rounds=1, iterations=1)
    stream_rate = (
        len(report.findings()) / report.wall_seconds if report.wall_seconds else 0.0
    )
    assert {f.dedup_key() for f in report.findings()} == {
        f.dedup_key() for f in batch.findings()
    }, "coverage-guided stream changed the finding set"
    paper_rows.add(
        "HOTPATH", "findings/s, coverage-guided stream vs serial loop",
        "same finding set",
        f"{stream_rate:.2f} vs {batch_rate:.2f} "
        f"({len(report.findings())} findings)",
        note="smoke" if SMOKE else "",
    )


CHECKPOINT_ROUNDS = 50 if SMOKE else 200


def measure_checkpoint_rates(router, rounds: int):
    """(captures/s, restores/s) of in-process checkpoints of ``router``."""
    started = time.perf_counter()
    for _ in range(rounds):
        checkpoint = Checkpoint.capture(router, "gate")
    capture_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(rounds):
        clone, _env = restore_isolated(checkpoint)
    restore_seconds = time.perf_counter() - started
    assert clone.table_size() == router.table_size()
    return rounds / capture_seconds, rounds / restore_seconds


@pytest.mark.benchmark(group="hotpath")
def test_checkpoint_fork_regression_gate(benchmark, paper_rows):
    """Fail CI when capture or restore of a 2000-prefix router regresses >30%."""
    scenario = get_scenario("fig2").build(
        filter_mode="erroneous", prefix_count=2000, update_count=200
    )
    scenario.converge()
    router = scenario.provider
    measure_checkpoint_rates(router, 5)  # warm allocator and imports
    captures, restores = benchmark.pedantic(
        measure_checkpoint_rates, args=(router, CHECKPOINT_ROUNDS),
        rounds=3, iterations=1,
    )

    if WRITE_BASELINE:
        write_baseline(
            checkpoint_captures_per_sec=captures,
            checkpoint_restores_per_sec=restores,
        )
        pytest.skip(
            f"baseline rewritten: {captures:.0f} captures/s, {restores:.0f} restores/s"
        )

    for key, measured in (
        ("checkpoint_captures_per_sec", captures),
        ("checkpoint_restores_per_sec", restores),
    ):
        recorded = load_baseline().get(key, 0.0)
        floor = gate_floor(key)
        paper_rows.add(
            "HOTPATH", f"{key} ({router.table_size()}-route router) vs floor",
            f">= {floor:.0f} (baseline {recorded:.0f} scaled, 30% tolerance)",
            f"{measured:.0f}",
            note="smoke" if SMOKE else "",
        )
        assert measured >= floor, (
            f"{key} {measured:.0f}/s regressed below floor {floor:.0f}/s "
            f"(baseline {recorded:.0f}/s): is serialization back on the clone path?"
        )
