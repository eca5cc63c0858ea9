"""Command-line interface: ``python -m repro <command>``.

Operator-facing entry points over the library:

* ``leak-check`` — build the Figure 2 testbed with a chosen filter mode
  (or a user-supplied provider config) and run DiCE rounds, printing the
  leakable prefix report;
* ``explore`` — run the concolic engine over the provider's UPDATE
  handler with explicit budgets/strategy and dump exploration stats;
  with ``--scenario NAME`` (any registry entry except ``fig2``) the
  exploration runs *federated* over the scenario's generated topology,
  composing with ``--workers`` and ``--stream``;
* ``scenarios`` — list all three matrix axes: topologies with node/edge
  counts, fault/churn workloads, and wave-level invariant checkers;
* ``matrix`` — run a (topology × workload × checker) scenario matrix and
  print one line per cell; ``--smoke`` runs a small fixed slice for CI;
* ``trace-gen`` — synthesize a RouteViews-style trace to a file;
* ``trace-info`` — summarize a trace file;
* ``check-config`` — parse and validate a router configuration file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.concolic import ExplorationBudget, make_strategy
from repro.core import get_scenario, list_scenarios
from repro.core.checkers import list_wave_checkers
from repro.core.workload import ScenarioMatrix, get_workload, list_workloads
from repro.trace.mrt import Trace
from repro.trace.routeviews import TraceConfig, RouteViewsGenerator
from repro.util.errors import ConfigError, ReproError, WorkloadNotApplicable


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--filter-mode", choices=("correct", "erroneous", "missing"),
        default=None,
        help="customer-filter configuration (default: erroneous for fig2; "
             "generated scenarios keep their registered default, unless a "
             "--workload demands its own — an explicit flag always wins)",
    )
    parser.add_argument("--prefixes", type=int, default=2_000,
                        help="synthetic table size (paper: 319355)")
    parser.add_argument("--updates", type=int, default=200,
                        help="length of the update trace")
    parser.add_argument("--seed", type=int, default=2010_04_01,
                        help="deterministic experiment seed")


def _build(args: argparse.Namespace):
    scenario = get_scenario("fig2").build(
        seed=args.seed,
        filter_mode=args.filter_mode or "erroneous",
        prefix_count=args.prefixes,
        update_count=args.updates,
    )
    scenario.converge()
    return scenario


def cmd_leak_check(args: argparse.Namespace) -> int:
    scenario = _build(args)
    print(f"provider table: {scenario.provider_table_size} prefixes; "
          f"peers: {scenario.provider.established_peers()}")
    budget = ExplorationBudget(
        max_executions=args.executions, max_solver_queries=args.executions * 16
    )
    for round_index in range(args.rounds):
        report = scenario.dice.run_round(peer="customer", budget=budget)
        if report is None:
            print("no observed inputs to explore")
            return 1
        print(f"round {round_index + 1}: {report.exploration.executions} "
              f"executions, {len(report.unique_findings())} findings")
    leaked = scenario.dice.leaked_prefixes()
    print(f"\nleakable prefixes: {len(leaked)}")
    for finding in scenario.dice.findings()[:args.show]:
        print(f"  {finding.describe()}")
    if len(leaked) > args.show:
        print(f"  ... and {len(leaked) - args.show} more")
    return 0 if not leaked else 2  # nonzero exit signals findings, like linters


def cmd_explore(args: argparse.Namespace) -> int:
    if args.workers < 1:
        # Caught here rather than deep in the explorer, where a bad
        # value used to surface as an opaque ValueError traceback.
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    pool_flags = (
        args.chaos or args.autoscale or args.epoch_churn is not None
        or args.stream_epochs != 1
    )
    if pool_flags and not args.stream:
        print("error: --chaos/--autoscale/--epoch-churn/--stream-epochs "
              "configure the shared streaming pool; add --stream with a "
              "generated --scenario", file=sys.stderr)
        return 2
    scenario_names = _csv(args.scenario)
    if len(scenario_names) > 1 or args.scenario != "fig2":
        options = _explore_options(args)
        if options is None:
            return 2
        if len(scenario_names) > 1:
            return _explore_tenants(args, scenario_names, *options)
        return _explore_federated(args, *options)
    if pool_flags:
        print("error: --chaos/--autoscale/--epoch-churn/--stream-epochs "
              "require a generated --scenario (see 'repro scenarios')",
              file=sys.stderr)
        return 2
    if args.workload:
        print("error: --workload requires a generated --scenario "
              "(see 'repro scenarios')", file=sys.stderr)
        return 2
    scenario = _build(args)
    if args.stream or args.workers > 1 or args.all_seeds:
        return _explore_stream(scenario, args)
    seed = scenario.dice.pick_seed("customer")
    if seed is None:
        print("no observed inputs")
        return 1
    peer, observed = seed
    from repro.core.inputs import model_for

    model = model_for(observed, args.policy)
    report = scenario.dice.explorer.explore_update(
        scenario.provider, peer, observed, model=model,
        budget=ExplorationBudget(max_executions=args.executions),
        strategy=make_strategy(args.strategy, seed=args.seed),
    )
    print("exploration summary:")
    for key, value in report.summary().items():
        print(f"  {key}: {value}")
    print("engine coverage:",
          f"{report.exploration.coverage.covered_outcomes} outcomes over",
          f"{report.exploration.coverage.covered_sites} sites")
    stats = scenario.dice.explorer.engine.solver.stats
    print("solver:", stats.as_dict())
    return 0


def _stream_progress(report) -> None:
    """The periodic streaming status line.

    Seeds drained / findings, plus the solver view summed over workers: hit
    rates for all three cache layers (exact-key, semantic subsumption,
    propagate memo) and the per-stage time split (key computation,
    screening, interval propagation, hint check, linear inversion,
    enumeration, local search) so a slow stream shows *where* solver
    time goes.
    """
    solver = report.solver_totals()
    # Stage names derive from SolverStats's *_time counters, so a stage
    # added there shows up here without a second hand-kept list.
    stages = {
        name[: -len("_time")]: seconds
        for name, seconds in solver.items()
        if name.endswith("_time") and name != "total_time"
    }
    busiest = ", ".join(
        f"{name} {seconds * 1e3:.0f}ms"
        for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1])[:3]
        if seconds > 0
    )
    # Resilience counters appear only once something went wrong (and was
    # survived): restarts/hangs/retries/quarantines from the supervisor.
    resilience = ""
    recoveries = (
        report.workers_restarted
        + report.hangs_detected
        + report.jobs_retried
        + len(report.quarantined)
    )
    if recoveries:
        resilience += (
            f" | resilience restarts {report.workers_restarted}"
            f" hangs {report.hangs_detected}"
            f" retries {report.jobs_retried}"
            f" quarantined {len(report.quarantined)}"
        )
    # Pool size is live under autoscale (peak shown once it diverges).
    pool = ""
    if report.pool_size:
        pool = f" | pool {report.pool_size}"
        if report.pool_high_water > report.pool_size:
            pool += f" (peak {report.pool_high_water})"
    print(
        f"  [stream] seeds drained {report.jobs_completed}/"
        f"{report.seeds_submitted - report.seeds_coalesced}"
        + pool
        + f" | findings {len(report.findings())}"
        f" | cache hit rate {solver['cache_hit_rate']:.0%}"
        f" (semantic {solver.get('semantic_hit_rate', 0.0):.0%},"
        f" memo {solver.get('propagate_memo_hit_rate', 0.0):.0%})"
        f" | solver {solver.get('total_time', 0.0):.2f}s"
        + (f" ({busiest})" if busiest else "")
        + resilience
    )


def _explore_stream(scenario, args: argparse.Namespace) -> int:
    """Explore every observed seed on the pool: streamed and harvested
    live with ``--stream``, else as one batch (inline for one worker)."""
    dice = scenario.dice
    # The explorer comes from the scenario's DiCE so its checkers and
    # anycast whitelist apply here exactly as in sequential rounds.
    options = dict(
        workers=args.workers, policy=args.policy, strategy=args.strategy,
        strategy_seed=args.seed,
        budget=ExplorationBudget(max_executions=args.executions),
    )
    seeds = dice.observed if args.stream else dice.batch_seeds(all_seeds=True)
    if not seeds:
        print("no observed inputs")
        return 1
    if args.stream:
        with dice.stream(**options) as stream:
            # The scenario's traffic was already observed during
            # convergence; replay those buffers into the stream the way
            # live operation would feed them through DiCE.observe.
            for peer, observed in seeds:
                stream.submit(peer, observed)
            stream.drain(progress=_stream_progress, progress_interval=1.0)
        report, mode = stream.report, "streaming"
    else:
        report, mode = dice.explore_batch(seeds, **options), "parallel"
    print(f"{mode} exploration ({args.workers} workers, "
          f"{report.jobs_completed} sessions):")
    for key, value in report.summary().items():
        print(f"  {key}: {value}")
    if report.fallback_reason:
        print(f"  note: {report.fallback_reason}")
    return 0


def _explore_options(args: argparse.Namespace):
    """The explore flags as the two option records — built once, for the
    single-federation and the multi-tenant path alike; None (after
    saying why) for an unknown ``--chaos`` plan."""
    from repro.parallel.chaos import get_chaos_plan, list_chaos_plans
    from repro.parallel.options import EngineOptions, PoolOptions

    chaos = None
    if args.chaos:
        try:
            chaos = get_chaos_plan(args.chaos)
        except ValueError:
            print(f"error: unknown chaos plan {args.chaos!r}; known plans:",
                  file=sys.stderr)
            for name, description in list_chaos_plans():
                print(f"  {name:18} {description}", file=sys.stderr)
            return None
    engine = EngineOptions(
        policy=args.policy,
        strategy=args.strategy,
        strategy_seed=args.seed,
        budget=ExplorationBudget(max_executions=args.executions),
    )
    pool = PoolOptions(
        workers=args.workers,
        as_rotation=args.as_rotation,
        chaos=chaos,
        autoscale=args.autoscale,
        autoscale_interval=args.autoscale_interval,
    )
    return engine, pool


def _explore_federated(args: argparse.Namespace, engine, pool) -> int:
    """Federated exploration over a registry scenario's generated topology."""
    scenario = get_scenario(args.scenario)
    workload = get_workload(args.workload) if args.workload else None
    # An explicit --filter-mode overrides the scenario's registered
    # customer-filtering default; left unset, the CLI builds exactly
    # what get_scenario(name).build(seed=...) builds, so a finding
    # reproduces from (scenario, seed) alone.  --prefixes/--updates are
    # trace knobs and do not apply to generated federations.  A workload
    # may demand its own build overrides (e.g. route-leak needs the
    # erroneous customer filter); an explicit flag still wins.
    overrides = dict(workload.build_overrides) if workload else {}
    if args.filter_mode is not None:
        overrides["filter_mode"] = args.filter_mode
    built = scenario.build(seed=args.seed, **overrides)
    built.converge()
    shape = built.graph.summary() if built.graph is not None else {}
    print(
        f"scenario {built.name!r}: {shape.get('nodes', len(built.routers))} ASes, "
        f"{shape.get('edges', '?')} edges, built in "
        f"{built.construction_seconds:.3f}s"
    )
    violations = built.check_invariants()
    if violations:
        for violation in violations:
            print(f"  invariant violated: {violation.describe()}", file=sys.stderr)
        return 1
    plan = None
    if workload is not None:
        try:
            plan = workload.plan(built)
        except WorkloadNotApplicable as exc:
            print(f"workload {workload.name!r} not applicable: {exc}",
                  file=sys.stderr)
            return 1
        if args.checker:
            from dataclasses import replace

            plan = replace(plan, checkers=tuple(args.checker))
    corpus = built.seed_corpus()
    if not corpus:
        print("scenario declares no exploration seeds")
        return 1
    report = built.federation().explore(
        corpus, engine, pool,
        stream=args.stream,
        stream_epochs=args.stream_epochs,
        epoch_churn=args.epoch_churn,
        workload=plan,
    )
    mode = "streamed" if args.stream else "batch"
    shape = (
        f"1 shared pool × {args.workers} workers" if args.stream
        else f"{args.workers} workers"
    )
    print(f"federated exploration ({mode}, {shape}, {len(corpus)} seeds):")
    for key, value in report.summary().items():
        print(f"  {key}: {value}")
    for node, sessions in report.per_as_sessions.items():
        findings = {
            key for session in sessions for key in
            (finding.dedup_key() for finding in session.findings)
        }
        print(f"  AS {node}: {len(sessions)} sessions, {len(findings)} findings")
    stats = report.stats
    # Top scheduler yields: which ASes the federation scheduler is
    # steering dispatch budget toward (finding-yield EWMA, descending).
    yields = sorted(
        report.scheduler_yield.items(), key=lambda kv: -kv[1]
    )[:3]
    yield_note = (
        " | yield " + " ".join(f"{node}:{gain:.2f}" for node, gain in yields)
        if yields else ""
    )
    print(
        f"  [federated] wave delivered {stats.delivered} msgs over "
        f"{stats.rounds} hops in {stats.sim_seconds * 1e3:.1f}ms sim time"
        f" | global findings {len(report.global_findings)}"
        f" | converged={stats.converged}"
        + yield_note
    )
    if not stats.converged:
        print("  warning: wave hit its hop/event budget before quiescing; "
              "post-propagation comparisons ran on a federation still in motion")
    summary = report.stream_summary or {}
    recoveries = (
        summary.get("workers_restarted", 0)
        + summary.get("hangs_detected", 0)
        + summary.get("jobs_retried", 0)
        + summary.get("jobs_quarantined", 0)
    )
    if pool.chaos is not None or recoveries:
        _print_resilience(summary, pool.chaos)
    if args.autoscale or summary.get("resize_events"):
        _print_service_summary(summary)
    if plan is not None:
        wstats = report.workload_stats
        print(
            f"  [workload] {report.workload}: {wstats.injected_events} events "
            f"injected, {len(report.workload_findings)} findings, "
            f"converged={wstats.converged}"
        )
        for finding in report.workload_findings:
            print(f"    {finding.describe()}")
    return 2 if (report.findings() or report.global_findings
                 or report.workload_findings) else 0


def _print_resilience(summary: dict, chaos) -> None:
    """The pool's recovery counters, the faults injected and what was
    quarantined."""
    plan_note = f" plan={chaos.name!r}" if chaos is not None else ""
    print(
        f"  [resilience]{plan_note} restarts "
        f"{summary.get('workers_restarted', 0)}"
        f" | hangs {summary.get('hangs_detected', 0)}"
        f" | retries {summary.get('jobs_retried', 0)}"
        f" | quarantined {summary.get('jobs_quarantined', 0)}"
    )
    for event in summary.get("chaos_events", []):
        print(f"    chaos: {event}")
    for entry in summary.get("quarantined", []):
        print(f"    {entry}")


def _print_service_summary(summary: dict) -> None:
    """The elastic-pool counters: sizing, retirement, epoch skips."""
    print(
        f"  [service] pool {summary.get('pool_size', 0)}"
        f" (peak {summary.get('pool_high_water', 0)},"
        f" low {summary.get('pool_low_water', 0)})"
        f" | retired {summary.get('workers_retired', 0)}"
        f" | worker-seconds {summary.get('worker_seconds', 0.0)}"
        f" | epochs skipped quiet {summary.get('epochs_skipped_quiet', 0)}"
        f" | harvest latency mean "
        f"{summary.get('harvest_latency_mean', 0.0) * 1e3:.1f}ms"
    )
    for event in summary.get("resize_events", []):
        print(f"    resize: {event}")


def _explore_tenants(
    args: argparse.Namespace, names: List[str], engine, pool
) -> int:
    """Service mode: several scenarios as tenants of ONE streaming pool."""
    if not args.stream:
        print("error: multiple --scenario values run as tenants of one "
              "shared streaming pool; add --stream", file=sys.stderr)
        return 2
    if args.workload:
        print("error: --workload composes with a single --scenario, not "
              "the multi-tenant service path", file=sys.stderr)
        return 2
    if "fig2" in names:
        print("error: fig2 is the single-node trace scenario; tenants must "
              "be generated federations (see 'repro scenarios')",
              file=sys.stderr)
        return 2
    from repro.core.federation import explore_tenants

    # Duplicate scenario names are legal (the isolation benchmark runs
    # the same scenario twice); tenant labels disambiguate as name#N.
    labels: List[str] = []
    counts = {name: names.count(name) for name in names}
    seen: dict = {}
    tenants = {}
    for name in names:
        label = name
        if counts[name] > 1:
            seen[name] = seen.get(name, 0) + 1
            label = f"{name}#{seen[name]}"
        overrides = (
            {"filter_mode": args.filter_mode}
            if args.filter_mode is not None else {}
        )
        built = get_scenario(name).build(seed=args.seed, **overrides)
        built.converge()
        violations = built.check_invariants()
        if violations:
            for violation in violations:
                print(f"  invariant violated ({label}): "
                      f"{violation.describe()}", file=sys.stderr)
            return 1
        corpus = built.seed_corpus()
        if not corpus:
            print(f"scenario {name!r} declares no exploration seeds")
            return 1
        tenants[label] = (built.federation(), corpus)
        labels.append(label)
    reports, summary = explore_tenants(
        tenants, engine, pool,
        stream_epochs=args.stream_epochs, epoch_churn=args.epoch_churn,
    )
    shape = f"1 shared pool × {args.workers} workers"
    if args.autoscale:
        shape += " (autoscaled)"
    total_seeds = sum(len(corpus) for _, corpus in tenants.values())
    print(f"service exploration ({len(tenants)} tenants, {shape}, "
          f"{total_seeds} seeds):")
    any_findings = False
    for label in labels:
        report = reports[label]
        findings = report.findings()
        any_findings = any_findings or bool(findings or report.global_findings)
        stats = report.stats
        print(
            f"  tenant {label}: {len(report.sessions)} sessions"
            f" | findings {len(findings)}"
            f" | global findings {len(report.global_findings)}"
            f" | wave delivered {stats.delivered} msgs"
            f" converged={stats.converged}"
        )
    by_tenant = summary.get("jobs_by_tenant", {})
    if by_tenant:
        jobs = " ".join(
            f"{tenant}:{count}" for tenant, count in sorted(by_tenant.items())
        )
        print(f"  [service] jobs by tenant: {jobs}")
    _print_resilience(summary, pool.chaos)
    _print_service_summary(summary)
    return 2 if any_findings else 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the three matrix axes: topologies, workloads, checkers."""
    scenarios = list_scenarios()
    print(f"topologies ({len(scenarios)}):")
    for scenario in scenarios:
        shape = scenario.shape()
        if shape:
            size = f"{shape['nodes']:>3} ASes / {shape['edges']:>3} edges"
        else:
            size = " " * 20
        print(f"{scenario.name:14} {size}  {scenario.description}")
    workloads = list_workloads()
    print(f"\nworkloads ({len(workloads)}):")
    for workload in workloads:
        checkers = ",".join(workload.paired_checkers)
        print(f"{workload.name:14} [{checkers}]  {workload.description}")
    checkers = list_wave_checkers()
    print(f"\nwave checkers ({len(checkers)}):")
    for name, description in checkers:
        print(f"{name:22} {description}")
    print("\ncompose axes with 'repro explore --scenario NAME --workload NAME "
          "[--checker NAME ...]' or sweep them with 'repro matrix'")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    """Run a (topology × workload × checker) slice of the scenario matrix.

    Exit code 0 means every cell ran (or was honestly skipped as
    not-applicable); 1 means at least one cell *errored*.  Cells whose
    checkers fired are expected output — the matrix exists to surface
    pathologies — so findings alone never fail the run.
    """
    if args.smoke:
        # The fixed CI slice: two small topologies, every workload, one
        # exploration seed per cell under a tiny budget.
        topologies = ["line-3", "star-6"]
        workloads = [workload.name for workload in list_workloads()]
        max_seeds = 1
        budget = ExplorationBudget(max_executions=4)
    else:
        # Scale-tier scenarios (hierarchical-200/1000) are benchmark
        # material, not matrix cells — name them explicitly to run one.
        topologies = _csv(args.topologies) or [
            scenario.name for scenario in list_scenarios()
            if scenario.name != "fig2" and scenario.kind != "scale"
        ]
        workloads = _csv(args.workloads) or [
            workload.name for workload in list_workloads()
        ]
        max_seeds = args.max_seeds
        budget = ExplorationBudget(max_executions=args.executions)
    matrix = ScenarioMatrix(
        topologies,
        workloads,
        checkers=_csv(args.checkers) or None,
        seed=args.seed,
        budget=budget,
        workers=args.workers,
        stream=args.stream,
        max_seeds=max_seeds,
    )
    cells = matrix.cells()
    print(f"scenario matrix: {len(topologies)} topologies × "
          f"{len(workloads)} workloads = {len(cells)} cells"
          + (" (smoke slice)" if args.smoke else ""))
    results = matrix.run(progress=lambda result: print(
        f"  {result.cell.key():28} {result.status:8} "
        f"findings={len(result.findings)} "
        f"({result.wall_seconds:.2f}s"
        + (f"; {result.skip_reason}" if result.status == "skipped" else "")
        + (f"; {result.error}" if result.status == "error" else "")
        + ")"
    ))
    ok = sum(1 for result in results if result.status == "ok")
    skipped = sum(1 for result in results if result.status == "skipped")
    errored = [result for result in results if result.status == "error"]
    fired = sum(1 for result in results if result.fired)
    print(f"matrix done: {ok} ok, {skipped} skipped, {len(errored)} errored; "
          f"checkers fired in {fired} cells")
    for result in errored:
        print(f"  error in {result.cell.key()}: {result.error}", file=sys.stderr)
    return 1 if errored else 0


def _csv(value: Optional[str]) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()] if value else []


def cmd_trace_gen(args: argparse.Namespace) -> int:
    trace = RouteViewsGenerator(
        TraceConfig(
            prefix_count=args.prefixes,
            update_count=args.updates,
            duration=args.duration,
            seed=args.seed,
        )
    ).generate()
    data = trace.serialize()
    with open(args.output, "wb") as handle:
        handle.write(data)
    print(f"wrote {args.output}: {len(trace.dump)} dump records, "
          f"{len(trace.updates)} updates, {len(data)} bytes")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    with open(args.trace, "rb") as handle:
        trace = Trace.deserialize(handle.read())
    origins = {r.origin_as() for r in trace.dump if r.origin_as() is not None}
    lengths = {}
    for record in trace.dump:
        lengths[record.prefix.length] = lengths.get(record.prefix.length, 0) + 1
    print(f"dump: {len(trace.dump)} prefixes, {len(origins)} origin ASes")
    print(f"updates: {len(trace.updates)} over {trace.duration:.0f}s")
    print("masklen mix:", ", ".join(
        f"/{length}:{count}" for length, count in sorted(lengths.items())
    ))
    return 0


def cmd_check_config(args: argparse.Namespace) -> int:
    from repro.bgp.config import parse_config

    with open(args.config) as handle:
        text = handle.read()
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 1
    print(f"ok: AS{config.asn}, {len(config.neighbors)} neighbors, "
          f"{len(config.filters)} filters, {len(config.prefix_sets)} prefix sets, "
          f"{len(config.networks)} originated networks")
    for name, neighbor in config.neighbors.items():
        print(f"  neighbor {name}: AS{neighbor.remote_as} "
              f"import={neighbor.import_filter} export={neighbor.export_filter}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiCE: online testing of federated distributed systems",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    leak = commands.add_parser("leak-check", help="run DiCE route-leak detection")
    _add_scenario_arguments(leak)
    leak.add_argument("--rounds", type=int, default=1)
    leak.add_argument("--executions", type=int, default=32,
                      help="exploration budget per round")
    leak.add_argument("--show", type=int, default=10,
                      help="findings to print")
    leak.set_defaults(func=cmd_leak_check)

    explore = commands.add_parser("explore", help="raw exploration statistics")
    _add_scenario_arguments(explore)
    explore.add_argument("--scenario", default="fig2",
                         help="registry scenario to explore (see 'repro "
                              "scenarios'); anything but fig2 runs a "
                              "federated exploration over the generated "
                              "topology (--filter-mode sets its customer "
                              "filtering; --prefixes/--updates are "
                              "fig2-only trace knobs); a comma-separated "
                              "list runs each scenario as a TENANT of one "
                              "shared streaming pool (requires --stream)")
    explore.add_argument("--executions", type=int, default=48)
    explore.add_argument("--strategy", default="generational",
                         choices=("generational", "dfs", "bfs", "random"))
    explore.add_argument("--policy", default="selective",
                         choices=("selective", "whole-message"))
    explore.add_argument("--workers", type=int, default=1,
                         help="worker processes; >1 fans the observed seed "
                              "buffers out in parallel")
    explore.add_argument("--all-seeds", action="store_true",
                         help="explore every buffered seed (implied by "
                              "--workers > 1)")
    explore.add_argument("--stream", action="store_true",
                         help="streaming pipeline: persistent workers, "
                              "incremental checkpoint shipping, continuous "
                              "harvest (prints a periodic progress line); "
                              "with --scenario, the whole federation shares "
                              "ONE pool via (node, epoch)-keyed images")
    explore.add_argument("--as-rotation", default="yield",
                         choices=("yield", "round-robin"),
                         help="federated streaming only: how the shared "
                              "pool rotates dispatch budget across ASes — "
                              "'yield' favors ASes whose recent sessions "
                              "produced findings (FederationScheduler "
                              "EWMA), 'round-robin' is blind rotation")
    explore.add_argument("--workload", default=None,
                         help="inject a fault/churn workload (see 'repro "
                              "scenarios' for the list) on a fresh clone "
                              "after the exploration wave and run its "
                              "paired wave checkers; requires a generated "
                              "--scenario (not fig2)")
    explore.add_argument("--checker", action="append", default=None,
                         help="override the workload's paired wave "
                              "checkers (repeatable; see 'repro scenarios' "
                              "for the list)")
    explore.add_argument("--chaos", default=None,
                         help="inject a deterministic fault plan into the "
                              "shared streaming pool (kill/hang/drop/"
                              "cache-kill; e.g. 'kill-one-worker') and "
                              "report the recovery counters; requires a "
                              "generated --scenario with --stream")
    explore.add_argument("--autoscale", action="store_true",
                         help="elastic shared pool: start at one worker, "
                              "grow toward --workers on observed backlog, "
                              "shrink (graceful drain) when load falls; "
                              "requires --stream with a generated "
                              "--scenario")
    explore.add_argument("--autoscale-interval", type=float, default=0.05,
                         metavar="SECONDS",
                         help="autoscaler tick interval (default 0.05s); "
                              "smoke runs use a smaller value so short "
                              "bursts still trigger observable resizes")
    explore.add_argument("--epoch-churn", type=int, default=None,
                         metavar="ENTRIES",
                         help="churn-driven epochs: a --stream-epochs "
                              "boundary re-checkpoints a node but ships a "
                              "patch only when at least ENTRIES table "
                              "entries or state components changed since "
                              "its current epoch; quiet nodes keep their "
                              "epoch (counted as epochs_skipped_quiet)")
    explore.add_argument("--stream-epochs", type=int, default=1,
                         help="split each node's seed corpus into this "
                              "many re-checkpoint epochs (federated "
                              "--stream only)")
    explore.set_defaults(func=cmd_explore)

    scenarios = commands.add_parser(
        "scenarios", help="list the matrix axes: topologies, workloads, "
                          "wave checkers"
    )
    scenarios.set_defaults(func=cmd_scenarios)

    matrix = commands.add_parser(
        "matrix", help="sweep a (topology × workload × checker) matrix"
    )
    matrix.add_argument("--topologies", default=None,
                        help="comma-separated topology names (default: every "
                             "registered generated topology)")
    matrix.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default: all)")
    matrix.add_argument("--checkers", default=None,
                        help="comma-separated wave-checker names applied to "
                             "EVERY cell (default: each workload's paired "
                             "checkers)")
    matrix.add_argument("--seed", type=int, default=2010_04_01)
    matrix.add_argument("--executions", type=int, default=4,
                        help="exploration budget per cell")
    matrix.add_argument("--max-seeds", type=int, default=1,
                        help="exploration seeds per cell (0 skips the "
                             "exploration wave and runs the workload only)")
    matrix.add_argument("--workers", type=int, default=1)
    matrix.add_argument("--stream", action="store_true",
                        help="run each cell's exploration wave through the "
                             "streaming pipeline (finding sets match the "
                             "serial run)")
    matrix.add_argument("--smoke", action="store_true",
                        help="fixed CI slice: line-3 and star-6 across every "
                             "workload, 1 seed per cell, tiny budget")
    matrix.set_defaults(func=cmd_matrix)

    gen = commands.add_parser("trace-gen", help="synthesize a RouteViews-style trace")
    gen.add_argument("output", help="output file")
    gen.add_argument("--prefixes", type=int, default=20_000)
    gen.add_argument("--updates", type=int, default=2_000)
    gen.add_argument("--duration", type=float, default=900.0)
    gen.add_argument("--seed", type=int, default=2010_04_01)
    gen.set_defaults(func=cmd_trace_gen)

    info = commands.add_parser("trace-info", help="summarize a trace file")
    info.add_argument("trace", help="trace file")
    info.set_defaults(func=cmd_trace_info)

    check = commands.add_parser("check-config", help="validate a router config")
    check.add_argument("config", help="configuration file")
    check.set_defaults(func=cmd_check_config)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
