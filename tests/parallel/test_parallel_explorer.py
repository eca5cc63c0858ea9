"""Tests for batches on the one engine and the DiCE/schedule wiring.

A batch is a finite corpus fed to the streaming pool and closed.  The
determinism tests hold it to the serial reference loop
(``reference.py``): the same seeds + budget produce the same deduped
finding set with 1 worker, 4 workers, and the forced inline worker.
"""

import pickle

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.concolic.engine import ExplorationBudget
from repro.core.dice import DiCE
from repro.core.report import SessionReport
from repro.core.schedule import OnlineScheduler, ScheduleConfig
from repro.core import get_scenario
from repro.core.scenario import synthesize_hijack_corpus
from repro.parallel import PoolOptions, StreamingExplorer, StreamReport
from repro.parallel import transport
from repro.util.errors import ExplorationError
from repro.util.ip import Prefix, ip_to_int

from reference import batch as explore_batch, engine_batch, per_node, serial_loop

P = Prefix.parse

BUDGET = ExplorationBudget(max_executions=10)


def seed_update(prefix="10.10.1.0/24", asn=65020):
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([asn]), next_hop=ip_to_int("10.0.0.2")
        ),
        nlri=[NlriEntry.from_prefix(P(prefix))],
    )


def finding_keys(batch):
    return frozenset(f.dedup_key() for f in batch.findings())


def batch_seeds(scenario, count=6):
    seeds = scenario.dice.batch_seeds(all_seeds=True)
    assert len(seeds) >= count
    return seeds[:count]


class TestBatchDeterminism:
    def test_same_findings_1_worker_4_workers_and_fallback(self, erroneous_scenario):
        """The PR's determinism contract, verified across all three modes."""
        seeds = batch_seeds(erroneous_scenario)
        outcomes = {}
        for label, workers, force_serial in (
            ("one-worker", 1, False),
            ("four-workers", 4, False),
            ("fallback", 4, True),
        ):
            batch = explore_batch(
                erroneous_scenario.provider, seeds, budget=BUDGET,
                workers=workers, force_serial=force_serial,
            )
            outcomes[label] = (
                finding_keys(batch),
                batch.total_executions,
                [r.exploration.unique_paths for r in batch.reports],
            )
        assert outcomes["one-worker"] == outcomes["four-workers"]
        assert outcomes["four-workers"] == outcomes["fallback"]

    def test_cache_does_not_change_findings(self, erroneous_scenario):
        seeds = batch_seeds(erroneous_scenario, count=4)
        with_cache = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET,
            workers=1, constraint_cache=True,
        )
        without = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET,
            workers=1, constraint_cache=False,
        )
        assert finding_keys(with_cache) == finding_keys(without)
        assert with_cache.total_executions == without.total_executions


class TestBatchReports:
    def test_reports_in_submission_order(self, erroneous_scenario):
        seeds = batch_seeds(erroneous_scenario)
        batch = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET, workers=2
        )
        assert [r.peer for r in batch.reports] == [peer for peer, _ in seeds]
        assert all(isinstance(r, SessionReport) for r in batch.reports)

    def test_batch_report_aggregates_and_pickles(self, erroneous_scenario):
        seeds = batch_seeds(erroneous_scenario, count=4)
        batch = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET, workers=1
        )
        summary = batch.summary()
        assert summary["sessions"] == 4
        assert summary["total_executions"] == batch.total_executions > 0
        assert summary["executions_per_second"] > 0
        # The whole aggregate must survive a process boundary.
        clone = pickle.loads(pickle.dumps(batch))
        assert finding_keys(clone) == finding_keys(batch)

    def test_worker_reports_carry_solver_stats(self, erroneous_scenario):
        seeds = batch_seeds(erroneous_scenario, count=2)
        batch = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET, workers=2
        )
        for report in batch.reports:
            assert report.solver_stats.get("queries", 0) >= 0
        assert set(batch.cache_stats()) == {
            "cache_hits",
            "cache_misses",
            "semantic_lookups",
            "semantic_hits",
            "propagate_memo_hits",
            "propagate_memo_misses",
        }

    def test_empty_seed_batch(self, erroneous_scenario):
        batch = explore_batch(
            erroneous_scenario.provider, [], budget=BUDGET, workers=2
        )
        assert batch.reports == []
        assert batch.total_executions == 0
        assert batch.findings() == []

    def test_all_empty_seed_lists_start_no_pool(
        self, erroneous_scenario, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("an empty batch started a pool")

        monkeypatch.setattr(StreamingExplorer, "start_nodes", refuse)
        router = erroneous_scenario.provider
        report = engine_batch(
            {"as1": router, "as2": router}, {"as1": [], "as2": []},
            budget=BUDGET, workers=2,
        )
        assert per_node(report, ["as1", "as2"]) == {
            "as1": StreamReport(workers=2), "as2": StreamReport(workers=2),
        }
        assert report.wall_seconds == 0.0

    def test_never_started_stream_reports_zero_wall_time(self):
        assert StreamingExplorer(workers=1).close().wall_seconds == 0.0

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            explore_batch(None, [], workers=0)


class TestDiceParallelRound:
    def test_parallel_round_lands_in_rounds(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        dice.observe("customer", seed_update())
        dice.observe("customer", seed_update("10.10.2.0/24"))
        batch = dice.run_round(budget=BUDGET, parallel=2, all_seeds=True)
        assert batch is not None
        assert len(batch.reports) == 2
        assert len(dice.rounds) == 2
        # Facade-level aggregation sees the batch findings.
        assert {f.dedup_key() for f in dice.findings()} == set(
            f.dedup_key() for f in batch.findings()
        )
        assert dice.exploration_wall_seconds > 0

    def test_all_seeds_false_takes_newest_per_peer(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        dice.clear_observed()
        dice.observe("customer", seed_update())
        dice.observe("customer", seed_update("10.10.2.0/24"))
        assert len(dice.batch_seeds(all_seeds=True)) == 2
        newest = dice.batch_seeds(all_seeds=False)
        assert len(newest) == 1
        assert newest[0][1].nlri[0].to_prefix() == P("10.10.2.0/24")

    def test_parallel_round_without_seeds_returns_none(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        dice.clear_observed()
        assert dice.run_round(parallel=4, all_seeds=True) is None

    def test_parallel_round_rejects_explicit_strategy(self, erroneous_scenario):
        from repro.concolic.strategies import GenerationalStrategy

        dice = DiCE(erroneous_scenario.provider)
        dice.observe("customer", seed_update())
        with pytest.raises(ExplorationError):
            dice.run_round(parallel=2, strategy=GenerationalStrategy())

    def test_peer_filter_restricts_batch(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        dice.clear_observed()
        dice.observe("customer", seed_update())
        dice.observe("internet", seed_update("20.0.0.0/16", asn=64999))
        batch = dice.run_round(peer="customer", budget=BUDGET, all_seeds=True)
        assert [r.peer for r in batch.reports] == ["customer"]


class TestSchedulerParallel:
    def test_scheduler_fires_parallel_batches(self, erroneous_scenario):
        scenario = erroneous_scenario
        dice = DiCE(scenario.provider)
        dice.observe("customer", seed_update())
        scheduler = OnlineScheduler(
            scenario.host, dice,
            ScheduleConfig(
                interval=10.0, budget=BUDGET, max_rounds=1,
                pool=PoolOptions(workers=2), all_seeds=True,
            ),
        )
        scheduler.start()
        scenario.host.run_until(scenario.host.sim.now + 15.0)
        scheduler.stop()
        assert scheduler.stats.rounds_fired == 1
        assert len(dice.rounds) >= 1


class TestPoolFacade:
    """One engine: a batch is a finite corpus on the streaming pool —
    one inline worker for one worker or ``force_serial``, worker
    processes otherwise — and it finds what the serial loop finds."""

    @staticmethod
    def sessions(reports):
        return [
            (
                report.node,
                report.peer,
                report.exploration.unique_paths,
                frozenset(f.dedup_key() for f in report.findings),
            )
            for report in reports
        ]

    @pytest.mark.parametrize("shape", ["single", "federated"])
    def test_three_way_parity(self, erroneous_scenario, shape):
        """Serial loop ≡ inline stream ≡ 2-process stream, session by
        session, on the same seeds."""
        if shape == "single":
            seeds = batch_seeds(erroneous_scenario, count=3)
            routers = {"": erroneous_scenario.provider}
            by_node = {"": seeds * 2}
        else:
            built = get_scenario("line-3").build(seed=7)
            built.converge()
            by_node = {}
            for node, peer, update in synthesize_hijack_corpus(
                built.graph, 7, per_as=2
            ):
                by_node.setdefault(node, []).append((peer, update))
            routers = {node: built.routers[node] for node in by_node}
        loop = serial_loop(routers, by_node, budget=BUDGET)
        inline = engine_batch(routers, by_node, budget=BUDGET, workers=1)
        pooled = engine_batch(routers, by_node, budget=BUDGET, workers=2)
        assert not inline.used_processes
        assert inline.fallback_reason == ""
        if not pooled.used_processes:
            pytest.skip("no process workers on this host")
        for node, seeds in by_node.items():
            expected = self.sessions(loop.reports_in_index_order(node))
            assert len(expected) == len(seeds)
            for report in (inline, pooled):
                assert self.sessions(report.reports_in_index_order(node)) == expected
        assert finding_keys(loop) == finding_keys(inline) == finding_keys(pooled)
        if shape == "single":
            # One inline worker's sessions share one constraint cache: a
            # repeated seed replays the first run's queries from it.
            assert inline.reports[3].solver_stats["cache_hits"] > 0

    def test_unforkable_host_falls_back_inline(self, erroneous_scenario, monkeypatch):
        """No worker process can start: the batch still completes, says
        why it ran in process, and finds what the serial loop finds."""

        def refuse(self, *args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(transport._ProcessWorker, "__init__", refuse)
        seeds = batch_seeds(erroneous_scenario, count=4)
        batch = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET, workers=2
        )
        serial = explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET,
            workers=2, force_serial=True,
        )
        assert not batch.used_processes
        assert "fork refused" in batch.fallback_reason
        assert len(batch.reports) == len(seeds)
        assert finding_keys(batch) == finding_keys(serial)

    def test_failed_job_fails_the_batch(self, erroneous_scenario):
        """A stream records a lost job and moves on; a batch must not
        hand back fewer reports than seeds without saying so."""

        class UnpicklableChecker:
            def __getstate__(self):
                raise TypeError("deliberately unpicklable")

            def check(self, ctx):
                return []

        with pytest.raises(ExplorationError, match="picklable"):
            explore_batch(
                erroneous_scenario.provider,
                batch_seeds(erroneous_scenario, count=2),
                budget=BUDGET,
                workers=2, checkers=[UnpicklableChecker()],
            )

    def test_explore_nodes_shares_one_two_worker_pool(self, monkeypatch):
        """8 ASes, workers=2 → 2 worker processes, per-node reports in
        index order, identical to the serial loop's."""
        built = get_scenario("tiered-8").build(seed=7)
        built.converge()
        by_node = {}
        for node, peer, update in synthesize_hijack_corpus(built.graph, 7, per_as=2):
            by_node.setdefault(node, []).append((peer, update))
        routers = {node: built.routers[node] for node in by_node}

        spawned = []
        original = transport._ProcessWorker.__init__

        def counting_init(self, *args, **kwargs):
            spawned.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(transport._ProcessWorker, "__init__", counting_init)
        pooled = per_node(
            engine_batch(routers, by_node, budget=BUDGET, workers=2), by_node
        )
        serial = per_node(serial_loop(routers, by_node, budget=BUDGET), by_node)
        if not all(batch.used_processes for batch in pooled.values()):
            pytest.skip("no process workers on this host")
        assert len(spawned) == 2
        assert list(pooled) == list(serial) == list(by_node)

        for node, seeds in by_node.items():
            assert [r.peer for r in pooled[node].reports] == [p for p, _ in seeds]
            assert self.sessions(pooled[node].reports) == self.sessions(
                serial[node].reports
            )
