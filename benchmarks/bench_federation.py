"""FED — scenario construction cost and fabric propagation throughput.

The declarative scenario layer must stay cheap in both dimensions that
gate federated exploration at scale:

* **construction** — ``Scenario.build`` + convergence for the registry
  topologies (clique-4, tiered-8); generated federations carry no trace
  replay, so building one should cost milliseconds, and the content-hash
  config parse cache must actually absorb repeated builds;
* **convergence** — cold first convergence of a generated federation,
  in UPDATEs handled per wall second: the bill every federated workload
  pays before its first finding;
* **propagation** — the :class:`IsolatedFabric` event queue: exploratory
  waves over the clone ensemble, measured in delivered messages and
  simulator events per wall second;
* **end-to-end** — a full federated exploration (per-AS concolic fan-out
  + wave + digest comparison) at smoke scale, asserting serial/streamed
  finding parity so the benchmark doubles as a determinism gate.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-budget smoke run (used by CI to
keep this script from rotting without paying the full measurement).
"""

import gc
import hashlib
import os
import time

import pytest

from baseline_gate import WRITE_BASELINE, gate_floor, write_baseline
from repro.bgp.wire import as_concrete_int
from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.core.federation import IsolatedFabric
from repro.core.privacy import (
    DIGEST_SIZE,
    OriginDigest,
    conflict_pairs,
    digest_conflicts,
)
from repro.topology import generators
from repro.topology.graph import build_routers
from repro.util.memo import registry

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SCENARIO_NAMES = ("clique-4", "tiered-8")
SEED = 42
BUDGET = ExplorationBudget(max_executions=4 if SMOKE else 16)
WAVE_REPEATS = 2 if SMOKE else 10

#: The events/s-vs-AS-count curve; the 1000-AS point is full-run only
#: (its convergence alone is minutes of single-core wall time).
SCALE_SIZES = (50, 200) if SMOKE else (50, 200, 1000)


def build_converged(name):
    built = get_scenario(name).build(seed=SEED)
    built.converge()
    return built


@pytest.mark.benchmark(group="federation")
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_construction_time(benchmark, paper_rows, name):
    built = benchmark.pedantic(build_converged, args=(name,), rounds=1, iterations=1)
    shape = built.graph.summary()
    assert built.check_invariants() == []
    paper_rows.add(
        "FED", f"{name} construction + convergence",
        "n/a (paper hand-built one 3-node testbed)",
        f"{built.construction_seconds * 1e3:.1f}ms build, "
        f"{shape['nodes']} ASes / {shape['edges']} edges",
        note="smoke budget" if SMOKE else "",
    )


@pytest.mark.benchmark(group="federation")
def test_parse_cache_absorbs_repeated_builds(paper_rows):
    """A rebuild is absorbed by the layered config caches.

    The structural template cache serves structurally identical nodes;
    its misses and ineligible nodes fall through to the content-hash
    parse cache.  Between the two, a rebuild costs zero new parses.
    """
    parsed = registry()["bgp.config.parse"]
    structural = registry()["topology.structural"]
    parsed.clear()
    structural.clear()
    build_converged("tiered-8")
    cold, structural_cold = parsed.info(), structural.info()
    build_converged("tiered-8")
    warm, structural_warm = parsed.info(), structural.info()
    hits = (warm["hits"] - cold["hits"]) + (
        structural_warm["hits"] - structural_cold["hits"]
    )
    assert hits >= 8, f"rebuild should hit a config cache per AS, got {hits}"
    assert warm["misses"] == cold["misses"]
    assert structural_warm["misses"] == structural_cold["misses"]
    paper_rows.add(
        "FED", "layered config caches on scenario rebuild",
        "n/a",
        f"{hits} cache hits / 0 new parses for 8 ASes",
    )


@pytest.mark.benchmark(group="federation")
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_fabric_propagation_throughput(benchmark, paper_rows, name):
    """Handler executions per wall second through the isolated wave.

    Throughput counts every exploratory handler run the fabric drives —
    the injections plus each latency-delayed clone-to-clone delivery.
    The split matters per topology: tiered-8 relays hijacks down its
    transit tree (transit deliveries dominate), while clique-4's pure
    peering relays *nothing* — zero transit events is the no-valley
    property holding on the clone ensemble, and the wave cost is all
    checkpoint + clone + injection.
    """
    built = build_converged(name)
    corpus = built.seed_corpus()
    federation = built.federation()

    def wave():
        delivered = handlers = 0
        started = time.perf_counter()
        for _ in range(WAVE_REPEATS):
            fabric = federation._fabric()
            for node, peer, update in corpus:
                fabric.inject(node, peer, update)
            stats = fabric.propagate()
            assert stats.converged
            delivered += stats.delivered
            handlers += len(corpus) + stats.delivered
        return delivered, handlers, time.perf_counter() - started

    delivered, handlers, wall = benchmark.pedantic(wave, rounds=1, iterations=1)
    assert handlers >= len(corpus) * WAVE_REPEATS and wall > 0
    if name == "clique-4":
        assert delivered == 0, "peer-learned routes must not transit a clique"
    else:
        assert delivered > 0, "a transit hierarchy must relay the wave"
    rate = handlers / wall
    paper_rows.add(
        "FED", f"{name} fabric propagation",
        "n/a (sketch only in section 2.4)",
        f"{rate:,.0f} handler-events/s ({delivered} transit deliveries over "
        f"{WAVE_REPEATS} waves, checkpoint+clone included)",
        note="smoke budget" if SMOKE else "",
    )


@pytest.mark.benchmark(group="federation-scale")
def test_bgp_convergence_updates_per_sec(benchmark, paper_rows):
    """Cold convergence of hierarchical-100, CI-gated in UPDATEs/s.

    Routers are built outside the timer; the timer covers ``host.run()``
    from session start to quiescence.  The decode memo starts empty, so
    the figure is a first convergence, not a rebuild absorbed by it.
    """
    graph = generators.hierarchical(100, seed=SEED, filter_mode="missing")

    def converge():
        registry()["bgp.decode"].clear()
        host, routers = build_routers(graph, seed=SEED)
        started = time.perf_counter()
        host.run()
        wall = time.perf_counter() - started
        updates = sum(r.counters["updates_received"] for r in routers.values())
        return updates, wall

    updates, wall = benchmark.pedantic(converge, rounds=1, iterations=1)
    memo = registry()["bgp.decode"].info()
    rate = updates / wall
    figure = "bgp_convergence_updates_per_sec_hierarchical_100"
    if WRITE_BASELINE:
        write_baseline(**{figure: rate})
    floor = gate_floor(figure)
    assert rate >= floor, (
        f"hierarchical-100 convergence at {rate:,.0f} UPDATEs/s fell below "
        f"the gated floor {floor:,.0f}"
    )
    paper_rows.add(
        "FED", "hierarchical-100 cold convergence",
        "n/a (paper's testbed converges one BIRD table)",
        f"{rate:,.0f} UPDATEs/s ({updates} UPDATEs in {wall:.2f}s; decode "
        f"memo {memo['hits']} hits / {memo['misses']} misses)",
    )


# ---------------------------------------------------------------------------
# Internet-scale curve: hierarchical federations, vectorized wave.
# ---------------------------------------------------------------------------


def _digest_tables(fabric, salt):
    """The production path: per-clone digests cached on the fabric."""
    return fabric.digest_tables(salt)


def _uncached_hash(salt, *parts):
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    digest.update(salt)
    for part in parts:
        digest.update(b"\x00")
        digest.update(part)
    return digest.digest()


def _uncached_digest_tables(fabric, salt):
    """The pre-change digest build, kept verbatim as the naive baseline.

    Two blake2b calls per Loc-RIB entry per node, no memo — the same
    few hundred (prefix, origin) values re-hashed once per domain per
    wave stage, which is exactly the cost the production memo removes.
    """
    tables = {}
    for node_id, clone in fabric.clones.items():
        table = OriginDigest(salt)
        local_asn = clone.config.asn
        for prefix, route in clone.loc_rib.items():
            origin = route.origin_as()
            origin_asn = local_asn if origin is None else as_concrete_int(origin)
            network = prefix.network.to_bytes(4, "big")
            length = bytes((prefix.length,))
            table.entries[_uncached_hash(salt, network, length)] = _uncached_hash(
                salt, network, length, origin_asn.to_bytes(4, "big")
            )
        tables[node_id] = table
    return tables


def _pairwise_conflicts(digests):
    """The pre-change all-pairs comparison, kept as the naive baseline."""
    conflicts = []
    node_ids = sorted(digests)
    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1:]:
            conflicts.extend(
                (a, b, key)
                for key in digest_conflicts(digests[a], digests[b])
            )
    return conflicts


def _indexed_conflicts(digests):
    return [
        (a, b, key)
        for (a, b), keys in conflict_pairs(digests).items()
        for key in keys
    ]


def _timed_wave(built, corpus, vectorized, compare, tables=_digest_tables):
    """One wave — inject, pre-compare, propagate, post-compare — timed.

    Fabric construction (checkpoint + clone of every router) stays
    outside the timer: both paths share it unchanged, and the wave is
    the unit a long-lived federation pays per corpus.  The cyclic
    garbage collector is run before the timer and paused inside it, as
    ``timeit`` does: a 200-AS federation holds about a million objects,
    so one full collection costs more than the wave itself, and whether
    it lands inside the timer depends on the heap's allocation history,
    not on the wave.  Returns ``(stats, wall, pre_conflicts,
    post_conflicts)``.
    """
    federation = built.federation()
    fabric = IsolatedFabric(
        federation.routers,
        max_rounds=federation.max_rounds,
        graph=federation.graph,
        default_latency=federation.default_latency,
        vectorized=vectorized,
    )
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for node, peer, update in corpus:
            fabric.inject(node, peer, update)
        pre = compare(tables(fabric, federation.salt))
        stats = fabric.propagate()
        post = compare(tables(fabric, federation.salt))
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    return stats, wall, pre, post


@pytest.mark.benchmark(group="federation-scale")
def test_fabric_events_per_sec_curve(benchmark, paper_rows):
    """events/s vs AS count for the vectorized wave, CI-gated at n=200.

    The figure counts every handler the wave drives (injections plus
    clone-to-clone deliveries) against the wall clock of the full wave
    path — inject, both digest comparisons, propagation.  The 1000-AS
    point doubles as the completes-at-all gate: the wave must quiesce,
    and on the full run must land under a minute.
    """

    def curve():
        rates = {}
        for n in SCALE_SIZES:
            built = build_converged(f"hierarchical-{n}")
            corpus = built.seed_corpus()
            stats, wall, _, _ = _timed_wave(
                built, corpus, vectorized=True, compare=_indexed_conflicts
            )
            assert stats.converged, f"the {n}-AS wave must quiesce"
            if n == 1000:
                assert wall < 60.0, (
                    f"1000-AS wave took {wall:.1f}s; the scale target is <60s"
                )
            rates[n] = (len(corpus) + stats.delivered) / wall
        return rates

    rates = benchmark.pedantic(curve, rounds=1, iterations=1)
    figure = "fabric_events_per_sec_hierarchical_200"
    if WRITE_BASELINE:
        write_baseline(**{figure: rates[200]})
    floor = gate_floor(figure)
    assert rates[200] >= floor, (
        f"hierarchical-200 wave throughput {rates[200]:,.0f} events/s fell "
        f"below the gated floor {floor:,.0f}"
    )
    paper_rows.add(
        "FED", "fabric events/s vs AS count (vectorized wave)",
        "n/a (3-node BIRD testbed in the paper)",
        " | ".join(f"n={n}: {rate:,.0f}/s" for n, rate in rates.items()),
        note="smoke budget (no 1000-AS point)" if SMOKE else "",
    )


@pytest.mark.benchmark(group="federation-scale")
def test_vectorized_wave_speedup_vs_naive(benchmark, paper_rows):
    """Vectorized wave + indexed digests vs the pre-change path.

    The naive side is the genuine pre-change configuration:
    ``vectorized=False`` restores per-delivery closure scheduling
    verbatim, the digest tables are rebuilt with the old unmemoized
    per-entry hashing, and the digest check runs the old all-pairs
    walk.  The two sides must agree exactly — same deliveries, same
    conflicts — and the full run enforces the >=5x throughput target
    at 200 ASes.
    """
    n = 50 if SMOKE else 200
    built = build_converged(f"hierarchical-{n}")
    corpus = built.seed_corpus()

    def fast():
        return _timed_wave(
            built, corpus, vectorized=True, compare=_indexed_conflicts
        )

    def naive():
        return _timed_wave(
            built, corpus, vectorized=False, compare=_pairwise_conflicts,
            tables=_uncached_digest_tables,
        )

    stats, wall, pre, post = benchmark.pedantic(fast, rounds=1, iterations=1)
    naive_stats, naive_wall, naive_pre, naive_post = naive()
    assert sorted(pre) == sorted(naive_pre)
    assert sorted(post) == sorted(naive_post)
    assert (stats.delivered, stats.rounds, stats.converged) == (
        naive_stats.delivered, naive_stats.rounds, naive_stats.converged
    ), "vectorized wave diverged from the per-closure baseline"
    if not SMOKE:
        # Single-core walls jitter; the ratio gate compares best-of-two
        # so a GC pause or scheduler blip on one rep can't fail it.
        wall = min(wall, fast()[1])
        naive_wall = min(naive_wall, naive()[1])
    speedup = naive_wall / wall
    if not SMOKE:
        assert speedup >= 5.0, (
            f"vectorized wave at {n} ASes is only {speedup:.1f}x the naive "
            f"path ({wall:.2f}s vs {naive_wall:.2f}s); target is >=5x"
        )
    paper_rows.add(
        "FED", f"hierarchical-{n} wave: vectorized vs naive path",
        "n/a",
        f"{speedup:.1f}x ({wall:.2f}s vs {naive_wall:.2f}s, "
        f"{stats.delivered} deliveries, identical conflict sets)",
        note="smoke budget (50 ASes, ratio not gated)" if SMOKE else "",
    )


@pytest.mark.benchmark(group="federation-scale")
@pytest.mark.parametrize("name", ("caida-sample", "hierarchical-50"))
def test_scale_scenario_serial_stream_parity(benchmark, paper_rows, name):
    """Serial vs streamed finding parity on the new topology sources."""
    built = build_converged(name)
    corpus = built.seed_corpus()[:12]

    def serial():
        return built.federation().explore(
            corpus, budget=BUDGET, workers=1, force_serial=True
        )

    report = benchmark.pedantic(serial, rounds=1, iterations=1)
    assert report.converged
    streamed = built.federation().explore(
        corpus, budget=BUDGET, workers=2, stream=True, force_serial=True
    )
    assert streamed.finding_keys() == report.finding_keys(), (
        f"streamed exploration diverged from the serial finding set on {name}"
    )
    paper_rows.add(
        "FED", f"{name} serial vs streamed parity",
        "n/a",
        f"identical {len(report.finding_keys())}-key finding set over "
        f"{len(corpus)} seeds",
        note="smoke budget" if SMOKE else "",
    )


@pytest.mark.benchmark(group="federation")
def test_federated_exploration_end_to_end(benchmark, paper_rows):
    """Full pipeline: per-AS fan-out, wave, digests — with parity gate."""
    built = build_converged("tiered-8")
    corpus = built.seed_corpus()

    def run():
        return built.federation().explore(
            corpus, budget=BUDGET, workers=1, force_serial=True
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.sessions and report.converged
    streamed = built.federation().explore(
        corpus, budget=BUDGET, workers=2, stream=True, force_serial=True
    )
    assert streamed.finding_keys() == report.finding_keys(), (
        "streamed federated exploration diverged from the serial finding set"
    )
    paper_rows.add(
        "FED", "tiered-8 federated exploration",
        "sketched in section 2.4, never built",
        f"{len(report.sessions)} per-AS sessions, "
        f"{len(report.findings())} findings, "
        f"{len(report.global_findings)} cross-AS digest conflicts in "
        f"{report.wall_seconds:.2f}s",
        note="smoke budget" if SMOKE else "",
    )
