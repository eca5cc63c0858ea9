"""Tests for the streaming exploration pipeline.

The determinism tests implement the PR's acceptance requirement: for a
fixed observed-seed sequence, the stream's harvested finding set equals
``ParallelExplorer.explore_batch`` over the same seeds — with 1 worker,
N workers, and the in-process serial fallback.
"""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import ExplorationBudget
from repro.core.dice import DiCE
from repro.core.schedule import OnlineScheduler, ScheduleConfig
from repro.parallel import ParallelExplorer, PoolOptions, StreamingExplorer
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


def finding_keys(report):
    return frozenset(f.dedup_key() for f in report.findings())


def run_stream(router, seeds, workers, force_serial, **kwargs):
    stream = StreamingExplorer(
        workers=workers,
        force_serial=force_serial,
        budget=BUDGET,
        queue_capacity=max(16, len(seeds)),
        **kwargs,
    )
    stream.start(router)
    for peer, observed in seeds:
        stream.submit(peer, observed)
    return stream.close()


class TestStreamDeterminism:
    def test_stream_equals_batch_all_modes(self, erroneous_scenario):
        """The acceptance contract: stream == batch, across all three modes."""
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:6]
        batch = ParallelExplorer(workers=1).explore_batch(
            erroneous_scenario.provider, seeds, budget=BUDGET
        )
        batch_outcome = (
            finding_keys(batch),
            batch.total_executions,
            [r.exploration.unique_paths for r in batch.reports],
        )
        for label, workers, force_serial in (
            ("one-worker", 1, False),
            ("four-workers", 4, False),
            ("fallback", 4, True),
        ):
            report = run_stream(
                erroneous_scenario.provider, seeds, workers, force_serial
            )
            assert not report.errors, (label, report.errors)
            ordered = report.reports_in_index_order()
            outcome = (
                finding_keys(report),
                report.total_executions,
                [r.exploration.unique_paths for r in ordered],
            )
            assert outcome == batch_outcome, label

    def test_cache_does_not_change_findings(self, erroneous_scenario):
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
        with_cache = run_stream(
            erroneous_scenario.provider, seeds, 1, True, constraint_cache=True
        )
        without = run_stream(
            erroneous_scenario.provider, seeds, 1, True, constraint_cache=False
        )
        assert finding_keys(with_cache) == finding_keys(without)
        assert with_cache.total_executions == without.total_executions


class TestBackpressure:
    def test_full_peer_queue_coalesces_oldest(self, erroneous_scenario):
        stream = StreamingExplorer(
            workers=1,
            force_serial=True,
            budget=BUDGET,
            queue_capacity=2,
            max_inflight=2,
        )
        stream.start(erroneous_scenario.provider)
        for _ in range(6):
            stream.submit("customer", seed_update())
        # 2 dispatched (inflight cap), 4 queue up, capacity 2 -> 2 coalesced.
        assert stream.report.seeds_submitted == 6
        assert stream.report.seeds_coalesced == 2
        assert stream.pending_seeds == 2
        report = stream.close()
        assert report.jobs_completed == 4

    def test_queues_are_per_peer(self, erroneous_scenario):
        stream = StreamingExplorer(
            workers=1,
            force_serial=True,
            budget=BUDGET,
            queue_capacity=2,
            max_inflight=1,
        )
        stream.start(erroneous_scenario.provider)
        for _ in range(4):
            stream.submit("customer", seed_update())
        # A chatty customer must not evict the quiet peer's seed.
        stream.submit("internet", seed_update("20.1.0.0/16", asn=64999))
        assert stream.report.seeds_coalesced == 1  # all from "customer"
        report = stream.close()
        assert "internet" in {r.peer for r in report.reports}

    def test_submit_validates_lifecycle(self, erroneous_scenario):
        stream = StreamingExplorer(workers=1, force_serial=True)
        with pytest.raises(ExplorationError):
            stream.submit("customer", seed_update())
        stream.start(erroneous_scenario.provider)
        stream.close()
        with pytest.raises(ExplorationError):
            stream.submit("customer", seed_update())

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StreamingExplorer(workers=0)
        with pytest.raises(ValueError):
            StreamingExplorer(queue_capacity=0)


class TestEpochShipping:
    def test_epoch_ships_delta_smaller_than_full(self, mutable_scenario):
        scenario = mutable_scenario
        seeds = scenario.dice.batch_seeds(all_seeds=True)[:2]
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(scenario.provider)
        for peer, observed in seeds:
            stream.submit(peer, observed)
        stream.drain()
        # Mutate the live node, then re-checkpoint at the epoch boundary.
        scenario.provider.handle_update("customer", seed_update("99.1.0.0/16"))
        info = stream.advance_epoch()
        assert info["epoch"] == 1
        full = Checkpoint.capture(scenario.provider, "full").size_bytes
        assert 0 < info["bytes_shipped"] < full
        assert info["segments_shipped"] < info["segments_total"]
        # Jobs after the boundary explore the *new* state.
        stream.submit("customer", seed_update("99.1.0.0/16"))
        report = stream.close()
        assert not report.errors, report.errors
        assert report.jobs_completed == len(seeds) + 1
        assert report.epochs == 1

    def test_epoch_delta_preserves_determinism(self, mutable_scenario):
        """Post-epoch stream results equal a fresh batch over the new state.

        The worker's image was reassembled base+delta; if that restore
        were not faithful, findings would diverge from a batch whose
        checkpoint was captured directly from the mutated router.
        """
        scenario = mutable_scenario
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(scenario.provider)
        warm = scenario.dice.batch_seeds(all_seeds=True)[:1]
        for peer, observed in warm:
            stream.submit(peer, observed)
        stream.drain()
        scenario.provider.handle_update("customer", seed_update("88.2.0.0/16"))
        stream.advance_epoch()
        probe = ("customer", seed_update("88.2.4.0/24"))
        stream.submit(*probe)
        report = stream.close()
        assert not report.errors, report.errors
        stream_probe = report.reports_in_index_order()[-1]

        # The batch equivalent over the mutated router, same job index.
        from repro.parallel.worker import run_session_job

        explorer = ParallelExplorer(workers=1)
        jobs = explorer.build_jobs(
            Checkpoint.capture(scenario.provider, "probe"), [probe], budget=BUDGET
        )
        jobs[0].index = 1  # align the per-job RNG derivation with the stream's
        batch_probe = run_session_job(jobs[0])
        assert {f.dedup_key() for f in stream_probe.findings} == {
            f.dedup_key() for f in batch_probe.findings
        }
        assert (
            stream_probe.exploration.unique_paths
            == batch_probe.exploration.unique_paths
        )


class TestEpochBoundAtSubmit:
    @pytest.mark.parametrize("max_inflight", [1, 8])
    def test_queued_seeds_explore_the_epoch_they_were_submitted_in(
        self, mutable_scenario, monkeypatch, max_inflight
    ):
        """Which checkpoint a seed explores is decided by the order of
        submit() and advance_epoch() alone — not by how many jobs fit in
        flight when the boundary arrives.  No timing involved: an inline
        pool executes nothing until it is pumped."""
        from repro.parallel import transport

        scenario = mutable_scenario
        seeds = scenario.dice.batch_seeds(all_seeds=True)[:4]
        baseline = run_stream(scenario.provider, seeds, 1, True)

        ran_against = {}
        run = transport._WorkerState._run

        def recording(state, job):
            ran_against[job.index] = job.epoch
            return run(state, job)

        monkeypatch.setattr(transport._WorkerState, "_run", recording)
        stream = StreamingExplorer(
            workers=1, force_serial=True, budget=BUDGET,
            max_inflight=max_inflight,
        )
        stream.start(scenario.provider)
        for peer, observed in seeds:
            stream.submit(peer, observed)
        scenario.provider.handle_update("customer", seed_update("96.1.0.0/16"))
        stream.advance_epoch()
        # Both epochs stay retained while queued records name the old one.
        assert stream._jobs.claimed_epochs("") == {0}
        assert set(stream._images.retained) == {("", 0), ("", 1)}
        late = stream.submit(*seeds[0])
        report = stream.close()

        assert not report.errors, report.errors
        assert [ran_against[i] for i in range(len(seeds))] == [0, 0, 0, 0]
        assert ran_against[late] == 1
        assert set(stream._images.retained) == {("", 1)}
        # The four early sessions are the ones a stream with no epoch
        # boundary at all produces.
        early = report.reports_in_index_order()[:len(seeds)]
        assert [
            frozenset(f.dedup_key() for f in r.findings) for r in early
        ] == [
            frozenset(f.dedup_key() for f in r.findings)
            for r in baseline.reports_in_index_order()
        ]
        # Resident where it was bound, whatever max_inflight was: an
        # in-process pool takes every template by reference.
        assert report.checkpoint_bytes_shipped == 0


class TestStreamReport:
    def test_incremental_aggregation_mid_stream(self, erroneous_scenario):
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:3]
        stream = StreamingExplorer(
            workers=1, force_serial=True, budget=BUDGET, max_inflight=1
        )
        stream.start(erroneous_scenario.provider)
        for peer, observed in seeds:
            stream.submit(peer, observed)
        harvested = stream.poll()  # inline fallback: executes everything
        assert len(harvested) == len(seeds)
        # Aggregate views must be valid before close().
        assert stream.report.total_executions > 0
        assert stream.report.summary()["jobs_completed"] == len(seeds)
        totals = stream.report.exploration_totals()
        assert totals.executions == stream.report.total_executions
        stream.close()

    def test_bytes_shipped_below_batch_baseline(self, erroneous_scenario):
        """The shipping economics the refactor exists for."""
        import pickle

        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:6]
        full_pickle = len(
            pickle.dumps(Checkpoint.capture(erroneous_scenario.provider, "base"))
        )
        report = run_stream(erroneous_scenario.provider, seeds, 1, True)
        assert report.jobs_completed == len(seeds)
        assert report.checkpoint_bytes_per_job < full_pickle


class TestFailureSurfacing:
    def test_unpicklable_job_reports_error_instead_of_hanging(
        self, erroneous_scenario
    ):
        """Engine options that cannot cross a process boundary must fail
        loudly, once, when the pool starts — not job by job inside the
        workers, and never by hanging."""

        class UnpicklableChecker:
            def __getstate__(self):
                raise TypeError("deliberately unpicklable")

            def check(self, ctx):
                return []

        stream = StreamingExplorer(
            workers=1, budget=BUDGET, checkers=[UnpicklableChecker()]
        )
        with pytest.raises(ExplorationError, match="not picklable"):
            stream.start(erroneous_scenario.provider)
        assert not stream.report.used_processes

    def test_observe_after_external_close_detaches(self, erroneous_scenario):
        """Closing the explorer directly (not via stream_stop) must not
        turn the next observed UPDATE into an exception on the live
        message path."""
        dice = DiCE(erroneous_scenario.provider)
        explorer = dice.stream_start(workers=1, budget=BUDGET, force_serial=True)
        dice.observe("customer", seed_update())
        explorer.close()
        dice.observe("customer", seed_update("10.10.7.0/24"))  # must not raise
        assert len(dice.observed) >= 2
        assert dice.stream_stop() is None  # already detached


class TestWorkerSalvage:
    def test_dead_worker_jobs_rerun_inline(self, erroneous_scenario):
        """Per-job determinism makes the salvage exact: killing a worker
        mid-stream loses no seeds and changes no findings.

        ``max_restarts=0`` books no respawn — the pool shrinks
        permanently and the inline fallback finishes the stream; the
        respawning flavor (pool restored, ``used_processes`` stays True)
        lives in ``tests/parallel/test_chaos.py``."""
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
        baseline = run_stream(erroneous_scenario.provider, seeds, 1, True)

        stream = StreamingExplorer(
            workers=1, budget=BUDGET, queue_capacity=len(seeds), max_restarts=0
        )
        stream.start(erroneous_scenario.provider)
        if not stream.report.used_processes:
            stream.close()
            pytest.skip("no process workers on this host")
        for peer, observed in seeds:
            stream.submit(peer, observed)
        # Kill the worker out from under its queue.
        stream._pool.workers[0].process.terminate()
        stream._pool.workers[0].process.join(2.0)
        report = stream.close()
        assert report.jobs_completed == len(seeds)
        assert report.jobs_recovered > 0
        assert "died" in report.fallback_reason
        assert not report.used_processes  # every process worker is gone
        assert finding_keys(report) == finding_keys(baseline)


class TestFederatedStreamPool:
    """The (node, epoch)-keyed image table: one pool, many live routers."""

    @staticmethod
    def _nodes(scenario):
        return {"prov": scenario.provider, "cust": scenario.customer}

    @staticmethod
    def _node_seeds(scenario):
        """An interleaved two-node corpus: provider traffic as observed,
        plus announcements arriving at the customer from its provider
        session (fig2's only customer-side peer)."""
        prov = [
            ("prov", peer, observed)
            for peer, observed in scenario.dice.batch_seeds(all_seeds=True)[:2]
        ]
        cust = [
            ("cust", "provider", seed_update("44.1.0.0/16", asn=65010)),
            ("cust", "provider", seed_update("44.2.0.0/16", asn=65010)),
        ]
        interleaved = []
        for pair in zip(prov, cust):
            interleaved.extend(pair)
        return interleaved

    def _baseline(self, scenario, fed_seeds):
        """Per-node serial streams — the pre-shared-pool finding sets."""
        per_node = {}
        for node, router in self._nodes(scenario).items():
            node_seeds = [(p, o) for n, p, o in fed_seeds if n == node]
            report = run_stream(router, node_seeds, 1, True)
            per_node[node] = report
        return per_node

    def run_shared(self, scenario, fed_seeds, workers, force_serial, **kwargs):
        stream = StreamingExplorer(
            workers=workers,
            force_serial=force_serial,
            budget=BUDGET,
            queue_capacity=max(16, len(fed_seeds)),
            **kwargs,
        )
        stream.start_nodes(self._nodes(scenario))
        for node, peer, observed in fed_seeds:
            stream.submit(peer, observed, node=node)
        return stream

    @pytest.mark.parametrize("as_rotation", ["yield", "round-robin"])
    def test_shared_pool_matches_per_node_streams(
        self, erroneous_scenario, as_rotation
    ):
        """Per-AS finding sets are identical whether each AS had its own
        pool or every AS shared one — under either cross-AS rotation."""
        fed_seeds = self._node_seeds(erroneous_scenario)
        baseline = self._baseline(erroneous_scenario, fed_seeds)
        stream = self.run_shared(
            erroneous_scenario, fed_seeds, 2, True, as_rotation=as_rotation
        )
        report = stream.close()
        assert not report.errors, report.errors
        assert report.node_count == 2
        for node, node_report in baseline.items():
            shared_keys = {
                f.dedup_key()
                for r in report.reports_in_index_order(node)
                for f in r.findings
            }
            assert shared_keys == finding_keys(node_report), node
            assert [
                r.exploration.unique_paths
                for r in report.reports_in_index_order(node)
            ] == [
                r.exploration.unique_paths
                for r in node_report.reports_in_index_order()
            ], node
        # Provenance: every harvested session is stamped with its node.
        assert {r.node for r in report.reports} == {"prov", "cust"}

    def test_yield_rotation_tracks_findings_per_node(self, erroneous_scenario):
        fed_seeds = self._node_seeds(erroneous_scenario)
        stream = self.run_shared(erroneous_scenario, fed_seeds, 1, True)
        report = stream.close()
        yields = stream.federation_yields()
        assert set(yields) <= {"prov", "cust"}
        # The erroneous provider yields findings; its EWMA must be > 0.
        assert report.findings()
        assert any(gain > 0 for gain in yields.values())

    def test_per_node_epoch_advance_ships_only_that_nodes_delta(
        self, mutable_scenario
    ):
        """Mutating one AS re-ships one AS's dirty segments; the other
        AS's resident image (and its jobs) are untouched."""
        scenario = mutable_scenario
        nodes = self._nodes(scenario)
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start_nodes(nodes)
        stream.submit("customer", seed_update(), node="prov")
        stream.drain()
        scenario.provider.handle_update("customer", seed_update("97.1.0.0/16"))
        info = stream.advance_epoch(node="prov")
        assert info["node"] == "prov"
        assert info["epoch"] == 1
        full = Checkpoint.capture(scenario.provider, "full").size_bytes
        assert 0 < info["bytes_shipped"] < full
        # The customer node never advanced: no delta recorded for it,
        # and its epoch-0 image still serves new jobs.
        assert stream.report.deltas_by_node == {"prov": 1}
        stream.submit("customer", seed_update("97.1.4.0/24"), node="prov")
        stream.submit("provider", seed_update("98.1.0.0/16", asn=65010), node="cust")
        report = stream.close()
        assert not report.errors, report.errors
        assert report.jobs_completed == 3
        assert report.summary()["deltas_by_node"] == {"prov": 1}

    def test_unregistered_node_rejected(self, erroneous_scenario):
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(erroneous_scenario.provider)
        with pytest.raises(ExplorationError, match="unregistered node"):
            stream.submit("customer", seed_update(), node="nowhere")
        with pytest.raises(ExplorationError, match="unregistered node"):
            stream.advance_epoch(node="nowhere")
        stream.close()

    def test_as_rotation_validation(self):
        with pytest.raises(ValueError, match="as_rotation"):
            StreamingExplorer(as_rotation="florp")

    def test_dead_worker_mid_federation_stream_salvages_exactly(
        self, erroneous_scenario
    ):
        """Kill one process worker while a shared multi-node stream is in
        flight: the salvage path must rebuild from the (node, epoch)
        image table and preserve per-AS finding parity with the
        per-node serial baseline."""
        fed_seeds = self._node_seeds(erroneous_scenario)
        baseline = self._baseline(erroneous_scenario, fed_seeds)
        stream = self.run_shared(erroneous_scenario, fed_seeds, 2, False)
        if not stream.report.used_processes:
            stream.close()
            pytest.skip("no process workers on this host")
        # Kill a worker out from under its queue mid-stream.
        stream._pool.workers[0].process.terminate()
        stream._pool.workers[0].process.join(2.0)
        report = stream.close()
        assert not report.errors, report.errors
        assert report.jobs_completed == len(fed_seeds)
        for node, node_report in baseline.items():
            shared_keys = {
                f.dedup_key()
                for r in report.reports_in_index_order(node)
                for f in r.findings
            }
            assert shared_keys == finding_keys(node_report), node

    def test_salvage_of_old_epoch_job_keeps_base_image(self, mutable_scenario):
        """An in-flight job pins its (node, epoch) image: advancing the
        epoch twice and then losing the worker must still salvage the
        job against the *old* base, not fail on an evicted image."""
        scenario = mutable_scenario
        seeds = scenario.dice.batch_seeds(all_seeds=True)[:2]
        baseline = run_stream(scenario.provider, seeds, 1, True)
        stream = StreamingExplorer(
            workers=1, budget=BUDGET, queue_capacity=len(seeds)
        )
        stream.start(scenario.provider)
        if not stream.report.used_processes:
            stream.close()
            pytest.skip("no process workers on this host")
        for peer, observed in seeds:
            stream.submit(peer, observed)
        # Two epoch boundaries while the epoch-0 jobs are (likely) still
        # in flight; the retained-image invariant must keep their base.
        scenario.provider.handle_update("customer", seed_update("96.1.0.0/16"))
        stream.advance_epoch()
        scenario.provider.handle_update("customer", seed_update("96.2.0.0/16"))
        stream.advance_epoch()
        stream._pool.workers[0].process.terminate()
        stream._pool.workers[0].process.join(2.0)
        report = stream.close()
        assert not report.errors, report.errors
        assert report.jobs_completed == len(seeds)
        assert finding_keys(report) == finding_keys(baseline)


class TestDispatchDropBookkeeping:
    def test_dropped_job_unwinds_scheduler_and_accounts_the_hole(
        self, erroneous_scenario
    ):
        """An unpicklable seed is dropped at dispatch *after* its index
        was consumed: the drop must be counted (jobs_dropped), the
        coverage scheduler must not keep a permanently-'scheduled'
        novelty signature for a seed no worker ran, and the index hole
        must not disturb reports_in_index_order."""
        from repro.core.inputs import seed_signature

        class UnpicklableUpdate(UpdateMessage):
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        good = seed_update()
        bad = UnpicklableUpdate(
            attributes=good.attributes, nlri=list(good.nlri)
        )
        assert seed_signature(bad) is not None  # body() encodes fine
        stream = StreamingExplorer(
            workers=1, budget=BUDGET, coverage_guided=True, max_inflight=1
        )
        stream.start(erroneous_scenario.provider)
        if not stream.report.used_processes:
            stream.close()
            pytest.skip("no process workers on this host")
        stream.submit("customer", seed_update("10.10.3.0/24"))
        stream.submit("customer", bad)
        stream.submit("customer", seed_update("10.10.5.0/24"))
        report = stream.close(timeout=30)
        assert report.jobs_dropped == 1
        assert report.errors and "not picklable" in report.errors[0]
        assert report.jobs_completed == 2
        assert report.summary()["jobs_dropped"] == 1
        # The hole (index of the dropped job) leaves ordering intact.
        ordered = report.reports_in_index_order()
        assert len(ordered) == 2
        assert sorted(report.indices) == report.indices
        # The dropped seed's signature never leaked into the scheduler's
        # scheduled set: it still scores as novel.
        assert stream._rotation.coverage.is_novel(seed_signature(bad))


class TestDiceStreamWiring:
    def test_observe_auto_enqueues_and_aggregates(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        with dice.stream(workers=1, budget=BUDGET, force_serial=True) as stream:
            dice.observe("customer", seed_update())
            dice.observe("customer", seed_update("10.10.2.0/24"))
            assert stream.report.seeds_submitted == 2
        assert len(dice.rounds) == 2
        assert dice.findings()
        assert dice.exploration_wall_seconds > 0

    def test_stream_poll_returns_only_fresh_reports(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        dice.stream_start(workers=1, budget=BUDGET, force_serial=True)
        dice.observe("customer", seed_update())
        first = dice.stream_poll()
        assert len(first) == 1
        assert dice.stream_poll() == []  # nothing new
        dice.observe("customer", seed_update("10.10.9.0/24"))
        assert len(dice.stream_poll()) == 1
        report = dice.stream_stop()
        assert report is not None
        assert len(dice.rounds) == 2  # no double-aggregation on stop

    def test_double_start_rejected_and_stop_idempotent(self, erroneous_scenario):
        dice = DiCE(erroneous_scenario.provider)
        dice.stream_start(workers=1, force_serial=True)
        with pytest.raises(ExplorationError):
            dice.stream_start(workers=1, force_serial=True)
        assert dice.stream_stop() is not None
        assert dice.stream_stop() is None  # second stop is a no-op


class TestSchedulerStreaming:
    def test_rounds_become_epoch_boundaries(self, erroneous_scenario):
        scenario = erroneous_scenario
        dice = DiCE(scenario.provider)
        scheduler = OnlineScheduler(
            scenario.host,
            dice,
            ScheduleConfig(
                interval=10.0,
                budget=BUDGET,
                max_rounds=1,
                pool=PoolOptions(force_serial=True),
                stream=True,
            ),
        )
        scheduler.start()
        dice.observe("customer", seed_update())
        scenario.host.run_until(scenario.host.sim.now + 25.0)
        scheduler.stop()
        assert scheduler.stats.rounds_fired == 1
        assert len(dice.rounds) >= 1
        assert dice.findings()

    def test_stop_drains_pending_stream_work(self, erroneous_scenario):
        scenario = erroneous_scenario
        dice = DiCE(scenario.provider)
        scheduler = OnlineScheduler(
            scenario.host,
            dice,
            ScheduleConfig(
                interval=1000.0,  # no epoch boundary will fire
                budget=BUDGET,
                stream=True,
                pool=PoolOptions(force_serial=True),
            ),
        )
        scheduler.start()
        dice.observe("customer", seed_update())
        scheduler.stop()  # must drain + aggregate, not drop the seed
        assert len(dice.rounds) == 1
