"""Tests for the scenario registry, federated exploration, and parse cache."""

import pytest

from repro.bgp.config import parse_config_cached
from repro.concolic import ExplorationBudget
from repro.core import (
    BuiltScenario,
    FederatedExploration,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    synthesize_hijack_corpus,
)
from repro.core.scenario import provider_config
from repro.util.memo import registry
from repro.util.errors import ConfigError

SMALL_BUDGET = ExplorationBudget(max_executions=6)


def corpus_signature(corpus):
    return [
        (node, peer, tuple(e.to_prefix() for e in update.nlri))
        for node, peer, update in corpus
    ]


@pytest.fixture(scope="module")
def tiered_built():
    built = get_scenario("tiered-8").build(seed=42)
    built.converge()
    return built


class TestRegistry:
    def test_expected_scenarios_registered(self):
        names = {scenario.name for scenario in list_scenarios()}
        assert {"fig1", "fig2", "clique-4", "tiered-8", "routeviews-3"} <= names

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(ConfigError, match="tiered-8"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        existing = get_scenario("fig1")
        with pytest.raises(ConfigError):
            register_scenario(existing)
        # replace=True is the explicit override path.
        register_scenario(existing, replace=True)

    def test_shapes_are_cheap_and_sized(self):
        assert get_scenario("tiered-8").shape()["nodes"] == 8
        assert get_scenario("clique-4").shape() == {
            "nodes": 4, "edges": 6, "transit_edges": 0, "peer_edges": 6,
        }
        assert get_scenario("fig2").shape()["nodes"] == 3

    def test_fig2_scenario_builds_through_registry(self):
        built = get_scenario("fig2").build(seed=7, prefix_count=120, update_count=10)
        built.converge()
        assert built.provider_table_size > 100
        assert built.seed_corpus()  # observed customer announcements
        assert built.check_invariants() == []


class TestGeneratedScenarios:
    def test_build_converge_and_invariants(self, tiered_built):
        assert len(tiered_built.routers) == 8
        assert tiered_built.check_invariants() == []
        assert tiered_built.construction_seconds > 0

    def test_corpus_is_deterministic_in_the_seed(self, tiered_built):
        again = get_scenario("tiered-8").build(seed=42)
        assert corpus_signature(tiered_built.seed_corpus()) == corpus_signature(
            again.seed_corpus()
        )
        other = get_scenario("tiered-8").build(seed=43)
        assert corpus_signature(other.seed_corpus()) != corpus_signature(
            tiered_built.seed_corpus()
        )

    def test_corpus_targets_every_connected_as(self, tiered_built):
        nodes = {node for node, _, _ in tiered_built.seed_corpus()}
        assert nodes == set(tiered_built.routers)

    def test_hijack_corpus_announces_installed_prefixes(self, tiered_built):
        graph = tiered_built.graph
        for node, peer, update in tiered_built.seed_corpus():
            prefix = update.nlri[0].to_prefix()
            owner = graph.origin_of(prefix)
            assert owner is not None and owner not in (node, peer)
            # The claimed origin is the injecting neighbor, not the owner.
            assert int(update.attributes.as_path.origin_as()) == graph.nodes[peer].asn

    def test_routeviews_corpus_comes_from_the_trace(self):
        built = get_scenario("routeviews-3").build(seed=11)
        corpus = built.seed_corpus()
        assert corpus
        # Injection happens at a relay-capable node (>= 2 neighbors),
        # from one of its customers.
        targets = {node for node, _, _ in corpus}
        assert len(targets) == 1
        target = targets.pop()
        assert len(built.graph.neighbors(target)) >= 2
        assert all(peer in built.graph.customers_of(target) for _, peer, _ in corpus)
        # Trace attributes: realistic paths, not single-hop rogue ones.
        assert any(
            len(update.attributes.as_path.as_list()) > 1 for _, _, update in corpus
        )


class TestFederatedExploration:
    def test_serial_and_streamed_find_the_same_set(self, tiered_built):
        corpus = tiered_built.seed_corpus()
        serial = tiered_built.federation().explore(
            corpus, budget=SMALL_BUDGET, workers=1, force_serial=True
        )
        streamed = tiered_built.federation().explore(
            corpus, budget=SMALL_BUDGET, workers=2, stream=True, force_serial=True
        )
        assert serial.finding_keys() == streamed.finding_keys()
        assert serial.findings()
        assert streamed.streamed and not serial.streamed

    def test_per_as_sessions_cover_the_corpus(self, tiered_built):
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(), budget=SMALL_BUDGET, force_serial=True
        )
        assert set(report.per_as_sessions) == set(tiered_built.routers)
        assert len(report.sessions) == len(tiered_built.seed_corpus())
        assert report.summary()["ases_explored"] == 8

    def test_wave_detects_cross_as_origin_conflicts(self, tiered_built):
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(), budget=SMALL_BUDGET, force_serial=True
        )
        assert report.global_findings
        stages = {finding.stage for finding in report.global_findings}
        assert "pre-propagation" in stages

    def test_hop_starved_wave_reports_non_convergence(self, tiered_built):
        federation = FederatedExploration(
            dict(tiered_built.routers), graph=tiered_built.graph, max_rounds=1
        )
        report = federation.explore(
            tiered_built.seed_corpus(), budget=SMALL_BUDGET, force_serial=True
        )
        assert report.converged is False
        assert report.stats.suppressed_hop_budget > 0
        assert report.summary()["converged"] is False

    def test_live_routers_untouched_by_federated_waves(self, tiered_built):
        sizes = {n: r.table_size() for n, r in tiered_built.routers.items()}
        tiered_built.federation().explore(
            tiered_built.seed_corpus(), budget=SMALL_BUDGET, force_serial=True
        )
        assert {n: r.table_size() for n, r in tiered_built.routers.items()} == sizes
        assert tiered_built.check_invariants() == []

    def test_empty_or_unknown_seeds_rejected(self, tiered_built):
        from repro.util.errors import ExplorationError

        federation = tiered_built.federation()
        with pytest.raises(ExplorationError):
            federation.explore([])
        bad = [("nowhere", "as0", tiered_built.seed_corpus()[0][2])]
        with pytest.raises(ExplorationError, match="nowhere"):
            federation.explore(bad)


class TestParseCache:
    def test_identical_text_parsed_once(self):
        parsed = registry()["bgp.config.parse"]
        parsed.clear()
        text = provider_config("erroneous")
        first = parse_config_cached(text)
        second = parse_config_cached(text)
        info = parsed.info()
        assert info["misses"] == 1 and info["hits"] == 1
        # Callers get private instances, never a shared one.
        assert first is not second
        first.networks.append(first.networks[0])
        assert len(second.networks) == 1

    def test_cache_hits_during_scenario_builds(self):
        # The build path layers two caches: the structural template
        # cache absorbs structurally identical nodes, and its misses /
        # ineligible nodes fall through to the content-hash parse
        # cache.  A rebuild must be absorbed one way or the other —
        # one cache hit per AS, zero new parses.
        parsed = registry()["bgp.config.parse"]
        structural = registry()["topology.structural"]
        parsed.clear()
        structural.clear()
        get_scenario("clique-4").build(seed=1)
        baseline = parsed.info()
        structural_baseline = structural.info()
        get_scenario("clique-4").build(seed=1)
        after = parsed.info()
        structural_after = structural.info()
        absorbed = (
            (after["hits"] - baseline["hits"])
            + (structural_after["hits"] - structural_baseline["hits"])
        )
        assert absorbed >= 4  # one per AS on rebuild
        assert after["misses"] == baseline["misses"]
        assert structural_after["misses"] == structural_baseline["misses"]

    def test_parse_errors_are_not_cached(self):
        parsed = registry()["bgp.config.parse"]
        parsed.clear()
        with pytest.raises(ConfigError):
            parse_config_cached("router bgp nonsense")
        assert len(parsed) == 0


class TestCli:
    def test_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "tiered-8" in out and "8 ASes" in out

    def test_stream_epochs_without_stream_exits_like_autoscale(self, capsys):
        from repro.cli import main

        assert main(["explore", "--scenario", "line-3", "--autoscale"]) == 2
        autoscale_error = capsys.readouterr().err
        assert "add --stream" in autoscale_error
        code = main(["explore", "--scenario", "line-3", "--stream-epochs", "3"])
        assert code == 2
        assert capsys.readouterr().err == autoscale_error

    def test_multi_tenant_cli_honours_as_rotation(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.core import federation

        seen = {}
        explore_tenants = federation.explore_tenants

        def spy(*args, **kwargs):
            reports, summary = explore_tenants(*args, **kwargs)
            seen.update(reports)
            return reports, summary

        monkeypatch.setattr(federation, "explore_tenants", spy)
        code = main([
            "explore", "--scenario", "line-3,star-6", "--stream",
            "--as-rotation", "round-robin", "--executions", "2",
        ])
        assert code in (0, 2)
        assert set(seen) == {"line-3", "star-6"}
        assert all(report.scheduler_yield == {} for report in seen.values())

    def test_explore_scenario_composes_with_stream_and_workers(self, capsys):
        from repro.cli import main

        code = main([
            "explore", "--scenario", "fig1", "--stream", "--workers", "1",
            "--executions", "4",
        ])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "federated exploration (streamed" in out
        assert "converged=" in out
