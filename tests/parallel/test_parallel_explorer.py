"""Tests for ParallelExplorer and the DiCE/schedule wiring.

The determinism tests implement the PR's acceptance requirement: the
same seeds + budget produce the same deduped finding set with 1 worker,
4 workers, and the forced in-process loop.
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
from repro.parallel import ParallelExplorer, PoolOptions
from repro.parallel import stream as stream_module
from repro.parallel import transport
from repro.util.errors import ExplorationError
from repro.util.ip import Prefix, ip_to_int

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
            explorer = ParallelExplorer(workers=workers, force_serial=force_serial)
            batch = explorer.explore_batch(
                erroneous_scenario.provider, seeds, budget=BUDGET
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
        with_cache = ParallelExplorer(workers=1, constraint_cache=True).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
        )
        without = ParallelExplorer(workers=1, constraint_cache=False).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
        )
        assert finding_keys(with_cache) == finding_keys(without)
        assert with_cache.total_executions == without.total_executions


class TestBatchReports:
    def test_reports_in_submission_order(self, erroneous_scenario):
        seeds = batch_seeds(erroneous_scenario)
        batch = ParallelExplorer(workers=2).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
        )
        assert [r.peer for r in batch.reports] == [peer for peer, _ in seeds]
        assert all(isinstance(r, SessionReport) for r in batch.reports)

    def test_batch_report_aggregates_and_pickles(self, erroneous_scenario):
        seeds = batch_seeds(erroneous_scenario, count=4)
        batch = ParallelExplorer(workers=1).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
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
        batch = ParallelExplorer(workers=2).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
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
        batch = ParallelExplorer(workers=2).explore_batch(
            erroneous_scenario.provider, [], budget=BUDGET
        )
        assert batch.reports == []
        assert batch.total_executions == 0
        assert batch.findings() == []

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ParallelExplorer(workers=0)


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
    """One decision: in process for one worker or ``force_serial``, else
    the batch rides the streaming pool."""

    @pytest.mark.parametrize("workers, force_serial", [(1, False), (4, True)])
    def test_in_process_loop_never_touches_the_pool(
        self, erroneous_scenario, monkeypatch, workers, force_serial
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the in-process loop built a pool")

        monkeypatch.setattr(stream_module.StreamingExplorer, "__init__", refuse)
        seed = batch_seeds(erroneous_scenario, count=1)
        batch = ParallelExplorer(
            workers=workers, force_serial=force_serial
        ).explore_batch(erroneous_scenario.provider, seed * 3, budget=BUDGET)
        assert not batch.used_processes
        assert batch.fallback_reason == ""
        # The loop's sessions share one constraint cache: an identical
        # later session replays the first one's queries from it.
        assert batch.reports[1].solver_stats["cache_hits"] > 0

    def test_unforkable_host_falls_back_inline(self, erroneous_scenario, monkeypatch):
        """No worker process can start: the batch still completes, says
        why it ran in process, and finds what the serial loop finds."""

        def refuse(self, *args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(transport._ProcessWorker, "__init__", refuse)
        seeds = batch_seeds(erroneous_scenario, count=4)
        batch = ParallelExplorer(workers=2).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
        )
        serial = ParallelExplorer(workers=2, force_serial=True).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
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

        explorer = ParallelExplorer(workers=2, checkers=[UnpicklableChecker()])
        with pytest.raises(ExplorationError, match="picklable"):
            explorer.explore_batch(
                erroneous_scenario.provider,
                batch_seeds(erroneous_scenario, count=2),
                budget=BUDGET,
            )

    def test_explore_nodes_shares_one_two_worker_pool(self, monkeypatch):
        """8 ASes, workers=2 → 2 worker processes, per-node reports in
        index order, identical to the serial loop's."""
        built = get_scenario("tiered-8").build(seed=7)
        built.converge()
        by_node = {}
        for node, peer, update in synthesize_hijack_corpus(built.graph, 7, per_as=2):
            by_node.setdefault(node, []).append((peer, update))
        node_batches = [
            (node, built.routers[node], seeds) for node, seeds in by_node.items()
        ]

        spawned = []
        original = transport._ProcessWorker.__init__

        def counting_init(self, *args, **kwargs):
            spawned.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(transport._ProcessWorker, "__init__", counting_init)
        pooled = ParallelExplorer(workers=2).explore_nodes(node_batches, budget=BUDGET)
        serial = ParallelExplorer(workers=2, force_serial=True).explore_nodes(
            node_batches, budget=BUDGET
        )
        if not all(batch.used_processes for batch in pooled.values()):
            pytest.skip("no process workers on this host")
        assert len(spawned) == 2
        assert list(pooled) == list(serial) == list(by_node)

        def sessions(batch):
            return [
                (
                    report.node,
                    report.peer,
                    report.exploration.unique_paths,
                    frozenset(f.dedup_key() for f in report.findings),
                )
                for report in batch.reports
            ]

        for node, seeds in by_node.items():
            assert [r.peer for r in pooled[node].reports] == [p for p, _ in seeds]
            assert sessions(pooled[node]) == sessions(serial[node])
