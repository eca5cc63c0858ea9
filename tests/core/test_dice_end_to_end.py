"""Tests for the DiCE explorer, facade, scheduler, federation, and privacy."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.checkpoint.manager import CheckpointManager
from repro.concolic.engine import ExplorationBudget
from repro.core.dice import DiCE, DiceEnabledRouter
from repro.core.explorer import DiceExplorer
from repro.core.federation import FederatedExploration, IsolatedFabric
from repro.core.inputs import SelectiveUpdateModel
from repro.core.privacy import (
    OriginDigest,
    PrivacyGuard,
    digest_conflicts,
    prefix_digest,
    resolve_digest,
)
from repro.core.report import FindingKind
from repro.core.schedule import OnlineScheduler, ScheduleConfig
from repro.util.errors import ExplorationError, PrivacyViolation
from repro.util.ip import Prefix, ip_to_int

P = Prefix.parse

SMALL_BUDGET = ExplorationBudget(max_executions=24)


def seed_update(prefix="10.10.1.0/24"):
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([65020]), next_hop=ip_to_int("10.0.0.2")
        ),
        nlri=[NlriEntry.from_prefix(P(prefix))],
    )


class TestDiceExplorer:
    def test_session_report_shape(self, erroneous_scenario):
        explorer = DiceExplorer()
        report = explorer.explore_update(
            erroneous_scenario.provider, "customer", seed_update(),
            budget=SMALL_BUDGET,
        )
        assert report.peer == "customer"
        assert report.model_name == "selective"
        assert report.exploration.executions >= 2
        assert report.clone_count == report.exploration.executions
        summary = report.summary()
        assert {"executions", "findings", "hijacks", "stop_reason"} <= set(summary)

    def test_erroneous_filter_leaks_detected(self, erroneous_scenario):
        explorer = DiceExplorer()
        report = explorer.explore_update(
            erroneous_scenario.provider, "customer", seed_update(),
            budget=SMALL_BUDGET,
        )
        leaked = report.leaked_prefixes()
        assert len(leaked) > 0
        # Leaks through the /16../24 hole only.
        assert all(16 <= p.length <= 24 for p in leaked)

    def test_correct_filter_no_leaks(self, correct_scenario):
        explorer = DiceExplorer()
        report = explorer.explore_update(
            correct_scenario.provider, "customer", seed_update(),
            budget=SMALL_BUDGET,
        )
        assert report.leaked_prefixes() == []

    def test_live_router_untouched(self, erroneous_scenario):
        provider = erroneous_scenario.provider
        table_before = provider.table_size()
        counters_before = provider.counters.snapshot()
        DiceExplorer().explore_update(
            provider, "customer", seed_update(), budget=SMALL_BUDGET
        )
        assert provider.table_size() == table_before
        assert provider.counters.snapshot() == counters_before

    def test_unknown_peer_rejected(self, correct_scenario):
        with pytest.raises(ExplorationError):
            DiceExplorer().explore_update(
                correct_scenario.provider, "nobody", seed_update()
            )

    def test_checkpoint_reuse(self, correct_scenario):
        from repro.checkpoint.snapshot import Checkpoint

        explorer = DiceExplorer()
        checkpoint = Checkpoint.capture(correct_scenario.provider, "reused")
        report = explorer.explore_update(
            correct_scenario.provider, "customer", seed_update(),
            budget=SMALL_BUDGET, checkpoint=checkpoint,
        )
        assert report.exploration.executions >= 1

    def test_with_checkpoint_manager_tracks_pages(self, correct_scenario):
        manager = CheckpointManager()
        manager.register_live(correct_scenario.provider)
        explorer = DiceExplorer(checkpoint_manager=manager, track_clone_limit=4)
        explorer.explore_update(
            correct_scenario.provider, "customer", seed_update(),
            budget=SMALL_BUDGET,
        )
        report = manager.memory_report()
        assert 0 < report.clone_count <= 4
        assert report.sharing_ratio > 1.0

    def test_findings_have_reproducible_inputs(self, missing_scenario):
        explorer = DiceExplorer()
        report = explorer.explore_update(
            missing_scenario.provider, "customer", seed_update(),
            budget=SMALL_BUDGET,
        )
        hijacks = report.hijack_findings()
        assert hijacks
        finding = hijacks[0]
        assert dict(finding.assignment)  # concrete input attached


class TestDiceFacade:
    def test_observation_hook_fires(self, erroneous_scenario):
        dice = erroneous_scenario.dice
        assert len(dice.observed) > 0
        peer, update = dice.pick_seed("customer")
        assert peer == "customer"
        assert update.nlri

    def test_run_round_aggregates(self, erroneous_scenario):
        dice = erroneous_scenario.dice
        rounds_before = len(dice.rounds)
        report = dice.run_round(peer="customer", budget=SMALL_BUDGET)
        assert report is not None
        assert len(dice.rounds) == rounds_before + 1
        assert dice.summary()["rounds"] == rounds_before + 1
        assert dice.exploration_wall_seconds > 0

    def test_round_without_seed_returns_none(self, correct_scenario):
        router = DiceEnabledRouter.__new__(DiceEnabledRouter)
        # A fresh DiCE over a router that never observed inputs:
        dice = DiCE(correct_scenario.provider)
        dice.clear_observed()
        assert dice.run_round() is None

    def test_withdrawal_only_updates_not_observed(self, correct_scenario):
        dice = DiCE(correct_scenario.provider)
        dice.clear_observed()
        dice.observe("customer", UpdateMessage(
            withdrawn=[NlriEntry.from_prefix(P("10.10.1.0/24"))]
        ))
        assert len(dice.observed) == 0

    def test_pick_seed_round_robins_across_peers(self, correct_scenario):
        """A chatty peer must not starve quiet peers of exploration."""
        dice = DiCE(correct_scenario.provider)
        dice.clear_observed()
        # "chatty" floods its buffer; "quiet" says one thing, once, first.
        dice.observe("quiet", seed_update("10.10.1.0/24"))
        for i in range(10):
            dice.observe("chatty", seed_update(f"10.20.{i}.0/24"))
        served = [dice.pick_seed()[0] for _ in range(6)]
        assert served.count("quiet") == 3
        assert served.count("chatty") == 3
        # Strict alternation, not just eventual fairness.
        assert served[0] != served[1] and served[:2] * 3 == served

    def test_pick_seed_rotation_skips_empty_buffers(self, correct_scenario):
        dice = DiCE(correct_scenario.provider)
        dice.clear_observed()
        dice.observe("a", seed_update())
        dice.observe("b", seed_update("10.20.5.0/24"))
        assert dice.pick_seed()[0] == "a"
        dice._observed["b"].clear()
        # "b" would be next in rotation but has nothing buffered.
        assert dice.pick_seed()[0] == "a"

    def test_pick_seed_explicit_peer_bypasses_rotation(self, correct_scenario):
        dice = DiCE(correct_scenario.provider)
        dice.clear_observed()
        dice.observe("a", seed_update())
        dice.observe("b", seed_update("10.20.5.0/24"))
        for _ in range(3):
            assert dice.pick_seed("b")[0] == "b"

    def test_findings_deduplicated_across_rounds(self, missing_scenario):
        dice = DiCE(missing_scenario.provider)
        dice.observe("customer", seed_update())
        dice.run_round(budget=SMALL_BUDGET)
        first = len(dice.findings())
        dice.run_round(budget=SMALL_BUDGET)
        assert len(dice.findings()) == first  # same faults, not double-counted

    def test_clones_do_not_reenter_dice(self, erroneous_scenario):
        """A checkpoint clone of a DiceEnabledRouter has no observer hook."""
        from repro.checkpoint.snapshot import Checkpoint
        from repro.core.isolation import restore_isolated

        checkpoint = Checkpoint.capture(erroneous_scenario.provider, "obs")
        clone, _ = restore_isolated(checkpoint)
        assert clone.observer is None


class TestOnlineScheduler:
    def test_scheduler_fires_rounds(self, erroneous_scenario):
        scenario = erroneous_scenario
        scheduler = OnlineScheduler(
            scenario.host, scenario.dice,
            ScheduleConfig(interval=10.0, budget=SMALL_BUDGET, max_rounds=2),
        )
        scheduler.start()
        scenario.host.run_until(scenario.host.sim.now + 50.0)
        assert scheduler.stats.rounds_fired == 2
        assert not scheduler.running
        assert scheduler.stats.wall_seconds > 0

    def test_stop_cancels(self, correct_scenario):
        scenario = correct_scenario
        scheduler = OnlineScheduler(
            scenario.host, scenario.dice, ScheduleConfig(interval=5.0)
        )
        scheduler.start()
        scheduler.stop()
        fired_before = scheduler.stats.rounds_fired
        scenario.host.run_until(scenario.host.sim.now + 20.0)
        assert scheduler.stats.rounds_fired == fired_before


class TestFederation:
    def test_fabric_propagates_between_clones(self, missing_scenario):
        scenario = missing_scenario
        routers = {"provider": scenario.provider, "customer": scenario.customer}
        fabric = IsolatedFabric(routers)
        customer_before = scenario.customer.table_size()
        # An exploratory announcement arriving from the internet side gets
        # re-exported to the customer — crossing a clone-to-clone channel.
        internet_update = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.sequence([64999, 4242]), next_hop=ip_to_int("10.0.0.3")
            ),
            nlri=[NlriEntry.from_prefix(P("66.1.0.0/16"))],
        )
        fabric.inject("provider", "internet", internet_update)
        stats = fabric.propagate()
        assert stats.delivered >= 1
        # Both clones installed the exploratory route...
        assert P("66.1.0.0/16") in fabric.clone_of("provider").loc_rib
        assert P("66.1.0.0/16") in fabric.clone_of("customer").loc_rib
        # ...and the live routers never saw any of it.
        assert scenario.customer.table_size() == customer_before
        assert P("66.1.0.0/16") not in scenario.provider.loc_rib
        assert P("66.1.0.0/16") not in scenario.customer.loc_rib

    def test_loop_rejection_propagates_withdrawal_to_customer_clone(
        self, missing_scenario
    ):
        """Cross-node consequence observed in isolation (section 2.4).

        The customer clone sees its own AS in the re-exported path, so per
        RFC 7606 it treats the announcement as a withdrawal — a system-wide
        consequence single-node exploration could not observe.
        """
        scenario = missing_scenario
        victim = next(
            p for p, r in scenario.provider.loc_rib.items()
            if r.origin_as() is not None and int(r.origin_as()) not in (65010, 65020)
        )
        fabric = IsolatedFabric(
            {"provider": scenario.provider, "customer": scenario.customer}
        )
        assert victim in fabric.clone_of("customer").loc_rib
        fabric.inject("provider", "customer", seed_update(str(victim)))
        fabric.propagate()
        # The hijack reached the customer clone as a loop -> withdrawal.
        assert victim not in fabric.clone_of("customer").loc_rib
        assert victim in scenario.customer.loc_rib  # live world intact

    def test_messages_to_outside_dropped(self, missing_scenario):
        scenario = missing_scenario
        fabric = IsolatedFabric({"provider": scenario.provider})
        fabric.inject("provider", "customer", seed_update("10.10.43.0/24"))
        stats = fabric.propagate()
        assert stats.dropped_no_target >= 1  # internet/customer not in fabric

    @staticmethod
    def _origin_conflict_pair():
        """Two domains that both originate 50.0.0.0/8 — a MOAS conflict."""
        from repro.bgp.router import BgpRouter
        from repro.net.node import NodeHost

        host = NodeHost()
        config_a = """
router bgp 100;
router-id 1.1.1.1;
network 50.0.0.0/8;
neighbor b { remote-as 200; }
"""
        config_b = """
router bgp 200;
router-id 2.2.2.2;
network 50.0.0.0/8;
neighbor a { remote-as 100; passive; }
"""
        a = host.add_node("a", lambda n, e: BgpRouter(n, e, config_a))
        b = host.add_node("b", lambda n, e: BgpRouter(n, e, config_b))
        host.add_link("a", "b")
        host.start()
        host.run()
        return a, b

    def test_federated_origin_conflict_detected(self):
        a, b = self._origin_conflict_pair()
        federated = FederatedExploration({"a": a, "b": b})
        # Even a no-op wave surfaces the standing MOAS disagreement.
        report = federated.run("a", "b", seed_update("50.1.0.0/16"))
        assert len(report.global_findings) >= 1
        nodes = {tuple(sorted(f.nodes)) for f in report.global_findings}
        assert ("a", "b") in nodes
        summary = report.global_findings[0].summary
        assert "disagree on the origin" in summary

    def test_no_conflict_when_views_agree(self, correct_scenario):
        federated = FederatedExploration(
            {"provider": correct_scenario.provider,
             "customer": correct_scenario.customer}
        )
        report = federated.run("provider", "customer", seed_update("10.10.1.0/24"))
        assert report.global_findings == []


class TestPrivacy:
    def test_digest_excludes_raw_state(self, correct_scenario):
        digest = OriginDigest.from_router(correct_scenario.provider, b"salt")
        assert len(digest) == correct_scenario.provider.table_size()
        for key, value in digest.entries.items():
            assert isinstance(key, bytes) and isinstance(value, bytes)
            assert len(key) == 16 and len(value) == 16

    def test_conflicts_require_same_salt(self, correct_scenario):
        a = OriginDigest.from_router(correct_scenario.provider, b"salt-a")
        b = OriginDigest.from_router(correct_scenario.provider, b"salt-b")
        with pytest.raises(PrivacyViolation):
            list(digest_conflicts(a, b))

    def test_identical_views_no_conflicts(self, correct_scenario):
        a = OriginDigest.from_router(correct_scenario.provider, b"s")
        b = OriginDigest.from_router(correct_scenario.provider, b"s")
        assert list(digest_conflicts(a, b)) == []

    def test_resolve_digest_over_own_table(self, correct_scenario):
        provider = correct_scenario.provider
        target = prefix_digest(b"s", P("203.0.113.0/24"))
        assert resolve_digest(provider, b"s", target) == P("203.0.113.0/24")
        assert resolve_digest(provider, b"s", b"\x00" * 16) is None

    def test_guard_blocks_raw_exports(self, correct_scenario):
        guard = PrivacyGuard(correct_scenario.provider, "provider-domain")
        for forbidden in ("config", "loc_rib", "adj_rib_in", "sessions"):
            with pytest.raises(PrivacyViolation):
                guard.export(forbidden)
        with pytest.raises(PrivacyViolation):
            guard.export("anything-else")
        digest = guard.publish_digest(b"round-1")
        assert len(digest) > 0
