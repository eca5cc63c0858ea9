"""Service-mode tests: elastic pool, churn-driven epochs, tenancy, harvest.

The acceptance shape mirrors the resilience suite's: every elastic
transition (grow, graceful shrink, chaos kill racing a shrink-drain)
must leave the finding set byte-identical to a serial run of the same
seeds, and every tenant of a shared pool must see exactly the findings
it would see running the pool alone.
"""

import multiprocessing
import time

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.concolic.engine import ExplorationBudget
from repro.core import get_scenario
from repro.parallel import StreamingExplorer, TenantCacheView
from repro.parallel.chaos import get_chaos_plan
from repro.parallel.stream import (
    PoolAutoscaler,
    TENANT_SEP,
    WorkerSupervisor,
)
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


class TestPoolAutoscaler:
    """The resize policy as a pure function of the observation series."""

    def test_validation(self):
        with pytest.raises(ValueError, match="min_workers"):
            PoolAutoscaler(min_workers=0, max_workers=2)
        with pytest.raises(ValueError, match="min_workers <= max_workers"):
            PoolAutoscaler(min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="interval"):
            PoolAutoscaler(max_workers=2, interval=0.0)
        with pytest.raises(ValueError, match="shrink_threshold"):
            PoolAutoscaler(max_workers=2, grow_threshold=0.5,
                           shrink_threshold=0.5)
        with pytest.raises(ValueError, match="hysteresis"):
            PoolAutoscaler(max_workers=2, hysteresis=0)
        with pytest.raises(ValueError, match="decay"):
            PoolAutoscaler(max_workers=2, decay=0.0)

    def test_first_observation_only_baselines(self):
        scaler = PoolAutoscaler(min_workers=1, max_workers=4)
        assert scaler.next_tick() is None
        assert scaler.observe(0.0, pending=100, inflight=2,
                              completed=0, alive=1) is None
        assert scaler.next_tick() is not None

    def test_hysteresis_gates_growth(self):
        scaler = PoolAutoscaler(min_workers=1, max_workers=4, interval=0.05,
                                hysteresis=2)
        scaler.observe(0.0, pending=50, inflight=2, completed=0, alive=1)
        # One high tick is not enough; the second consecutive one grows.
        assert scaler.observe(1.0, pending=50, inflight=2,
                              completed=1, alive=1) is None
        assert scaler.observe(2.0, pending=50, inflight=2,
                              completed=2, alive=1) == "grow"
        # The decision resets the streak: the next tick starts over.
        assert scaler.observe(3.0, pending=50, inflight=2,
                              completed=3, alive=2) is None

    def test_bounds_respected(self):
        scaler = PoolAutoscaler(min_workers=1, max_workers=2, interval=0.05)
        scaler.observe(0.0, pending=50, inflight=2, completed=0, alive=2)
        for tick in range(1, 6):
            # Saturated load, but the pool is already at max.
            assert scaler.observe(float(tick), pending=50, inflight=2,
                                  completed=tick, alive=2) is None
        scaler = PoolAutoscaler(min_workers=1, max_workers=2, interval=0.05)
        scaler.observe(0.0, pending=0, inflight=0, completed=0, alive=1)
        for tick in range(1, 6):
            # Fully drained, but the pool is already at min.
            assert scaler.observe(float(tick), pending=0, inflight=0,
                                  completed=0, alive=1) is None

    def test_shrink_when_drained(self):
        scaler = PoolAutoscaler(min_workers=1, max_workers=4, interval=0.05,
                                hysteresis=2)
        scaler.observe(0.0, pending=0, inflight=0, completed=0, alive=3)
        assert scaler.observe(1.0, pending=0, inflight=0,
                              completed=0, alive=3) is None
        assert scaler.observe(2.0, pending=0, inflight=0,
                              completed=0, alive=3) == "shrink"

    def test_tick_jitter_is_deterministic_per_seed(self):
        a = PoolAutoscaler(min_workers=1, max_workers=4, seed=7)
        b = PoolAutoscaler(min_workers=1, max_workers=4, seed=7)
        ticks_a, ticks_b = [], []
        for t, (scaler, ticks) in enumerate(
            [(a, ticks_a), (b, ticks_b)] * 4
        ):
            scaler.observe(float(t // 2), pending=10, inflight=1,
                           completed=t, alive=1)
            ticks.append(scaler.next_tick())
        assert ticks_a == ticks_b

    def test_drain_rate_tracks_completions(self):
        scaler = PoolAutoscaler(min_workers=1, max_workers=4, interval=0.05,
                                decay=1.0)
        scaler.observe(0.0, pending=5, inflight=1, completed=0, alive=1)
        scaler.observe(1.0, pending=5, inflight=1, completed=8, alive=1)
        assert scaler.drain_rate == pytest.approx(8.0)


class TestSupervisorSlotReset:
    """S2: a slot names a position, not a worker — retire clears history."""

    def test_reset_restores_the_full_restart_budget(self):
        supervisor = WorkerSupervisor(max_restarts=1, backoff=0.01)
        assert supervisor.note_death(0, now=0.0)
        supervisor.respawned(0)
        # Budget burned: the next death exhausts the slot.
        assert not supervisor.note_death(0, now=1.0)
        assert 0 in supervisor.exhausted
        # Retire/re-create boundary: the replacement is a new logical
        # worker and must not inherit its predecessor's attempts.
        supervisor.reset_slot(0)
        assert 0 not in supervisor.exhausted
        assert supervisor.note_death(0, now=2.0)
        assert supervisor.pending

    def test_reset_cancels_a_pending_respawn(self):
        supervisor = WorkerSupervisor(max_restarts=3, backoff=0.05)
        supervisor.note_death(2, now=0.0)
        assert supervisor.pending
        supervisor.reset_slot(2)
        assert not supervisor.pending
        assert supervisor.next_due() is None


class _FakeCache:
    def __init__(self):
        self.data = {}
        self.semantic = {}
        self.hits = 41

    def get(self, key):
        return self.data.get(key)

    def put(self, key, entry):
        self.data[key] = entry

    def get_semantic(self, key):
        return self.semantic.get(key, [])

    def put_semantic(self, key, domains, entry):
        self.semantic.setdefault(key, []).append((domains, entry))


class TestTenantCacheView:
    def test_tenants_see_disjoint_slices(self):
        cache = _FakeCache()
        alpha = TenantCacheView(cache, "alpha")
        beta = TenantCacheView(cache, "beta")
        alpha.put(b"k", "alpha-entry")
        assert alpha.get(b"k") == "alpha-entry"
        assert beta.get(b"k") is None
        beta.put(b"k", "beta-entry")
        assert alpha.get(b"k") == "alpha-entry"
        assert beta.get(b"k") == "beta-entry"
        # Both live in the one underlying store, under scoped keys.
        assert len(cache.data) == 2

    def test_scope_is_a_suffix_to_preserve_shard_balance(self):
        cache = _FakeCache()
        view = TenantCacheView(cache, "alpha")
        view.put(b"\x07key", "entry")
        (stored,) = cache.data
        assert stored.startswith(b"\x07key")
        assert len(stored) > len(b"\x07key")

    def test_unkeyed_attributes_pass_through(self):
        cache = _FakeCache()
        view = TenantCacheView(cache, "alpha")
        assert view.hits == 41
        assert view.tenant == "alpha"

    def test_dunder_lookups_never_delegate(self):
        # Protocol probes (__fspath__, __getstate__, ...) must resolve on
        # the view itself, never the wrapped cache — a delegate that
        # happens to define one would silently hijack the protocol.
        cache = _FakeCache()
        cache.__fspath__ = lambda: "bogus"
        view = TenantCacheView(cache, "alpha")
        with pytest.raises(AttributeError):
            view.__fspath__  # noqa: B018

    def test_empty_tenant_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            TenantCacheView(_FakeCache(), "")


class TestElasticPool:
    """Grow/shrink against a live process pool, with findings parity."""

    def _elastic(self, seeds, **kwargs):
        stream = StreamingExplorer(
            workers=2,
            budget=BUDGET,
            queue_capacity=max(16, len(seeds)),
            autoscale=True,
            restart_backoff=0.01,
            **kwargs,
        )
        return stream

    def _drain_until(self, stream, predicate, timeout=20.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            stream.poll()
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_grow_then_shrink_roundtrip(self, erroneous_scenario):
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
        baseline = run_stream(erroneous_scenario.provider, seeds, 1, True)

        stream = self._elastic(seeds)
        stream.start(erroneous_scenario.provider)
        if stream.report.fallback_reason:
            stream.close()
            pytest.skip("process pool unavailable on this host")
        # Autoscaled pools start at min_workers, not workers.
        assert stream.report.pool_size == 1
        grown = stream._pool.grow(time.monotonic())
        assert grown
        assert stream.report.pool_size == 2
        assert stream.report.pool_high_water == 2
        assert any("grow" in event for event in stream.report.resize_events)

        for peer, observed in seeds:
            stream.submit(peer, observed)
        stream.drain()

        # Graceful shrink: STOP queues behind the FIFO, the worker exits,
        # the reaper prunes the slot.
        assert stream._pool.shrink(time.monotonic())
        assert self._drain_until(
            stream, lambda: stream.report.workers_retired == 1
        ), stream.report.resize_events
        assert stream.report.pool_size == 1
        report = stream.close()
        assert not report.errors, report.errors
        assert report.jobs_completed == len(seeds)
        assert finding_keys(report) == finding_keys(baseline)
        kinds = [event.split(" ", 1)[1].split("(")[0]
                 for event in report.resize_events]
        assert kinds == ["grow", "shrink", "retired"]
        assert report.worker_seconds > 0.0

    def test_workers_are_the_only_child_processes(self, erroneous_scenario):
        """``workers=N`` means N child processes: the pool starts no
        process beside its workers, and ``close()`` leaves none behind."""
        before = {p.pid for p in multiprocessing.active_children()}

        def children():
            return {p.pid for p in multiprocessing.active_children()} - before

        stream = self._elastic([], min_workers=2, max_workers=3)
        stream.start_nodes({"provider": erroneous_scenario.provider})
        if stream.report.fallback_reason:
            stream.close()
            pytest.skip("process pool unavailable on this host")

        def workers():
            return {worker.process.pid for worker in stream._pool.workers}

        assert len(workers()) == 2
        assert children() == workers()
        assert stream._pool.grow(time.monotonic())
        assert len(workers()) == 3
        assert children() == workers()
        stream.close()
        assert children() == set()

    def test_chaos_kill_during_grown_pool(self, erroneous_scenario):
        """kill-elastic-worker: the freshest (highest) slot dies mid-run."""
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
        baseline = run_stream(erroneous_scenario.provider, seeds, 1, True)
        stream = self._elastic(
            seeds,
            min_workers=2,  # both slots up: the plan targets the highest
            chaos=get_chaos_plan("kill-elastic-worker"),
        )
        stream.start(erroneous_scenario.provider)
        if stream.report.fallback_reason:
            stream.close()
            pytest.skip("process pool unavailable on this host")
        for peer, observed in seeds:
            stream.submit(peer, observed)
        report = stream.close()
        assert not report.errors, report.errors
        assert report.chaos_events
        assert report.jobs_completed == len(seeds)
        assert report.workers_restarted >= 1 or report.jobs_recovered >= 0
        assert finding_keys(report) == finding_keys(baseline)

    def test_kill_racing_a_shrink_drain_salvages(self, erroneous_scenario):
        """A retiring worker killed before its STOP drains: salvage, not
        respawn — the shrink decision stands and no job is lost."""
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:4]
        baseline = run_stream(erroneous_scenario.provider, seeds, 1, True)
        stream = self._elastic(seeds)
        stream.start(erroneous_scenario.provider)
        if stream.report.fallback_reason:
            stream.close()
            pytest.skip("process pool unavailable on this host")
        # Grow above min so a shrink is legal, then load both workers.
        assert stream._pool.grow(time.monotonic())
        for peer, observed in seeds:
            stream.submit(peer, observed)
        # Retire the highest slot while its jobs are still queued, then
        # kill it before the STOP message can drain.
        victim = max(stream._pool.workers, key=lambda w: w.slot)
        assert stream._pool.shrink(time.monotonic())
        assert victim.retiring
        victim.process.kill()
        report = stream.close()
        assert not report.errors, report.errors
        assert report.workers_retired == 1
        # Retired is retired: the supervisor never respawned the slot.
        assert report.workers_restarted == 0
        assert report.jobs_completed == len(seeds)
        assert finding_keys(report) == finding_keys(baseline)


class TestChurnEpochs:
    def test_quiet_boundary_skips_the_ship(self, mutable_scenario):
        scenario = mutable_scenario
        seeds = scenario.dice.batch_seeds(all_seeds=True)[:2]
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(scenario.provider)
        for peer, observed in seeds:
            stream.submit(peer, observed)
        stream.drain()
        info = stream.advance_epoch(churn_threshold=1)
        assert info["skipped"] is True
        assert info["epoch"] == 0
        assert info["dirty_segments"] == 0
        assert info["segments_shipped"] == 0
        report = stream.close()
        assert report.epochs == 0
        assert report.epochs_skipped_quiet == 1

    def test_churn_past_threshold_ships(self, mutable_scenario):
        scenario = mutable_scenario
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(scenario.provider)
        scenario.provider.handle_update("customer", seed_update("99.1.0.0/16"))
        info = stream.advance_epoch(churn_threshold=1)
        assert info["skipped"] is False
        assert info["epoch"] == 1
        assert info["dirty_segments"] >= 1
        report = stream.close()
        assert report.epochs == 1
        assert report.epochs_skipped_quiet == 0

    def test_churn_accumulates_across_skipped_boundaries(
        self, mutable_scenario
    ):
        scenario = mutable_scenario
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(scenario.provider)
        scenario.provider.handle_update("customer", seed_update("97.1.0.0/16"))
        quiet = stream.advance_epoch(churn_threshold=10_000)
        assert quiet["skipped"] is True
        first_dirty = quiet["dirty_segments"]
        # The base image did not move, so the next boundary sees the
        # earlier churn *plus* the new mutation.
        scenario.provider.handle_update("customer", seed_update("98.1.0.0/16"))
        shipped = stream.advance_epoch(churn_threshold=1)
        assert shipped["skipped"] is False
        assert shipped["dirty_segments"] >= first_dirty
        assert shipped["epoch"] == 1
        stream.close()

    def test_churn_epoch_parity_serial_vs_autoscaled(self):
        """Serial inline and autoscaled process runs of the same churned
        stream produce the same finding set (S3 parity)."""

        def run(**kwargs):
            scenario = get_scenario("fig2").build(
                filter_mode="erroneous", prefix_count=200, update_count=20
            )
            scenario.converge()
            seeds = scenario.dice.batch_seeds(all_seeds=True)[:2]
            stream = StreamingExplorer(
                budget=BUDGET, queue_capacity=16, **kwargs
            )
            stream.start(scenario.provider)
            for peer, observed in seeds:
                stream.submit(peer, observed)
            stream.drain()
            scenario.provider.handle_update(
                "customer", seed_update("99.5.0.0/16")
            )
            stream.advance_epoch(churn_threshold=1)
            stream.submit("customer", seed_update("99.5.4.0/24"))
            report = stream.close()
            assert not report.errors, report.errors
            return report

        serial = run(workers=1, force_serial=True)
        elastic = run(
            workers=2, autoscale=True, autoscale_interval=0.005,
            restart_backoff=0.01,
        )
        assert serial.epochs == elastic.epochs == 1
        assert finding_keys(serial) == finding_keys(elastic)
        assert serial.jobs_completed == elastic.jobs_completed


class TestTenancy:
    @staticmethod
    def _tenant_seeds(scenario):
        alpha = scenario.dice.batch_seeds(all_seeds=True)[:2]
        beta = [
            ("provider", seed_update("44.1.0.0/16", asn=65010)),
            ("provider", seed_update("44.2.0.0/16", asn=65010)),
        ]
        return alpha, beta

    def _run_shared(self, scenario, alpha, beta, **kwargs):
        stream = StreamingExplorer(
            budget=BUDGET, queue_capacity=16, **kwargs
        )
        stream.start_nodes({"prov": scenario.provider}, tenant="alpha")
        stream.add_tenant("beta", {"cust": scenario.customer})
        # Interleave the tenants so fair dispatch has contention.
        for (peer_a, seed_a), (peer_b, seed_b) in zip(alpha, beta):
            stream.submit(peer_a, seed_a, node="prov", tenant="alpha")
            stream.submit(peer_b, seed_b, node="cust", tenant="beta")
        return stream

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_two_tenants_match_their_solo_runs(self, erroneous_scenario, mode):
        alpha, beta = self._tenant_seeds(erroneous_scenario)
        solo_alpha = run_stream(erroneous_scenario.provider, alpha, 1, True)
        solo_beta = run_stream(erroneous_scenario.customer, beta, 1, True)

        kwargs = (
            {"workers": 1, "force_serial": True} if mode == "inline"
            else {"workers": 2, "autoscale": True,
                  "autoscale_interval": 0.005, "restart_backoff": 0.01}
        )
        stream = self._run_shared(erroneous_scenario, alpha, beta, **kwargs)
        report = stream.close()
        assert not report.errors, report.errors
        assert stream.tenants == ["alpha", "beta"]
        report_a = stream.tenant_report("alpha")
        report_b = stream.tenant_report("beta")
        # Isolation: each tenant harvested exactly its solo finding set.
        assert finding_keys(report_a) == finding_keys(solo_alpha)
        assert finding_keys(report_b) == finding_keys(solo_beta)
        assert report_a.jobs_completed == len(alpha)
        assert report_b.jobs_completed == len(beta)
        # Tenant reports carry plain node keys, like a solo run's.
        assert {key[0] for key in report_a.indices} == {"prov"}
        assert {key[0] for key in report_b.indices} == {"cust"}
        # The pool-wide report accounts for everyone.
        assert report.jobs_completed == len(alpha) + len(beta)
        assert report.jobs_by_tenant == {
            "alpha": len(alpha), "beta": len(beta),
        }

    def test_tenant_yields_and_scoped_federation_yields(
        self, erroneous_scenario
    ):
        alpha, beta = self._tenant_seeds(erroneous_scenario)
        stream = self._run_shared(
            erroneous_scenario, alpha, beta, workers=1, force_serial=True
        )
        stream.drain()
        assert set(stream.tenant_yields()) <= {"alpha", "beta"}
        assert set(stream.federation_yields(tenant="alpha")) <= {"prov"}
        assert set(stream.federation_yields(tenant="beta")) <= {"cust"}
        stream.close()

    def test_tenant_validation(self, erroneous_scenario):
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        with pytest.raises(ExplorationError):
            stream.add_tenant("alpha", {"prov": erroneous_scenario.provider})
        stream.start_nodes(
            {"prov": erroneous_scenario.provider}, tenant="alpha"
        )
        with pytest.raises(ExplorationError):
            stream.add_tenant("", {"cust": erroneous_scenario.customer})
        with pytest.raises(ExplorationError):
            stream.add_tenant(
                f"bad{TENANT_SEP}name",
                {"cust": erroneous_scenario.customer},
            )
        with pytest.raises(ExplorationError):
            stream.add_tenant(
                "alpha", {"cust": erroneous_scenario.customer}
            )
        with pytest.raises(ExplorationError):
            stream.tenant_report("nobody")
        stream.close()


class TestHarvest:
    def test_harvest_returns_only_new_reports(self, erroneous_scenario):
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:3]
        stream = StreamingExplorer(workers=1, force_serial=True, budget=BUDGET)
        stream.start(erroneous_scenario.provider)
        for peer, observed in seeds[:2]:
            stream.submit(peer, observed)
        first = stream.harvest()
        assert len(first) == 2
        stream.submit(*seeds[2])
        second = stream.harvest()
        assert len(second) == 1
        # Idle harvest returns immediately with nothing.
        assert stream.harvest(timeout=0.05) == []
        report = stream.close()
        assert report.jobs_completed == 3

    def test_harvest_blocks_on_results_not_a_sleep(self, erroneous_scenario):
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:2]
        stream = StreamingExplorer(
            workers=1, budget=BUDGET, queue_capacity=16
        )
        stream.start(erroneous_scenario.provider)
        if stream.report.fallback_reason:
            stream.close()
            pytest.skip("process pool unavailable on this host")
        for peer, observed in seeds:
            stream.submit(peer, observed)
        harvested = []
        deadline = time.monotonic() + 30.0
        while len(harvested) < len(seeds) and time.monotonic() < deadline:
            harvested.extend(stream.harvest(timeout=5.0))
        report = stream.close()
        assert len(harvested) == len(seeds)
        assert report.harvest_latency_count == len(seeds)
        assert report.harvest_latency_max >= report.harvest_latency_mean > 0.0

    def test_summary_carries_the_service_counters(self, erroneous_scenario):
        seeds = erroneous_scenario.dice.batch_seeds(all_seeds=True)[:1]
        report = run_stream(erroneous_scenario.provider, seeds, 1, True)
        summary = report.summary()
        for key in (
            "pool_size", "pool_high_water", "pool_low_water",
            "resize_events", "workers_retired", "worker_seconds",
            "epochs_skipped_quiet", "harvest_latency_mean",
            "harvest_latency_max", "jobs_by_tenant",
        ):
            assert key in summary, key
