"""The federation-wide shared streaming pool and per-wave fabric stats.

Acceptance pins for the single-pool refactor:

* ``FederatedExploration.explore(stream=True, workers=N)`` on tiered-8
  creates exactly **one** worker pool (process count asserted), ships
  per-node deltas after the first epoch, and keeps its ``finding_keys``
  equal to the serial run's;
* two consecutive :meth:`IsolatedFabric.propagate` waves on one fabric
  report independent per-wave ``converged``/``rounds``/``sim_seconds``
  (cumulative totals live in ``fabric.stats``).
"""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.core.federation import FabricStats, IsolatedFabric
from repro.util.ip import Prefix, ip_to_int

P = Prefix.parse

BUDGET = ExplorationBudget(max_executions=4)


@pytest.fixture(scope="module")
def tiered_built():
    built = get_scenario("tiered-8").build(seed=42)
    built.converge()
    return built


@pytest.fixture(scope="module")
def serial_report(tiered_built):
    return tiered_built.federation().explore(
        tiered_built.seed_corpus(), budget=BUDGET, workers=1, force_serial=True
    )


class TestSharedFederationPool:
    def test_exactly_one_pool_serves_the_whole_federation(
        self, tiered_built, serial_report, monkeypatch
    ):
        """8 ASes, workers=2 → 2 worker processes total, not 8 pools."""
        from repro.parallel import transport

        spawned = []
        original = transport._ProcessWorker.__init__

        def counting_init(self, slot, result_queue, cache, **kwargs):
            spawned.append(self)
            original(self, slot, result_queue, cache, **kwargs)

        monkeypatch.setattr(
            transport._ProcessWorker, "__init__", counting_init
        )
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(), budget=BUDGET, workers=2, stream=True
        )
        if not report.used_processes:
            pytest.skip("no process workers on this host")
        assert len(spawned) == 2
        assert report.pools == 1
        assert report.finding_keys() == serial_report.finding_keys()

    def test_epoch_boundaries_ship_per_node_deltas(
        self, tiered_built, serial_report
    ):
        """stream_epochs=2: after the first epoch every AS crosses a
        boundary and ships a delta against its own base — without
        disturbing finding parity."""
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(),
            budget=BUDGET,
            workers=2,
            stream=True,
            force_serial=True,
            stream_epochs=2,
        )
        assert report.finding_keys() == serial_report.finding_keys()
        deltas = report.stream_summary["deltas_by_node"]
        assert set(deltas) == set(tiered_built.routers)
        assert all(count == 1 for count in deltas.values())
        assert report.stream_summary["epochs"] == len(tiered_built.routers)

    def test_round_robin_rotation_keeps_parity(self, tiered_built, serial_report):
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(),
            budget=BUDGET,
            workers=2,
            stream=True,
            force_serial=True,
            as_rotation="round-robin",
        )
        assert report.finding_keys() == serial_report.finding_keys()
        assert report.scheduler_yield == {}  # blind rotation keeps no EWMA

    def test_yield_rotation_reports_per_as_ewma(self, tiered_built):
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(),
            budget=BUDGET,
            workers=2,
            stream=True,
            force_serial=True,
        )
        assert set(report.scheduler_yield) == set(tiered_built.routers)
        # The unfiltered tiered federation yields findings everywhere.
        assert any(gain > 0 for gain in report.scheduler_yield.values())

    def test_sessions_carry_node_provenance(self, tiered_built):
        report = tiered_built.federation().explore(
            tiered_built.seed_corpus(),
            budget=BUDGET,
            workers=1,
            stream=True,
            force_serial=True,
        )
        for node, sessions in report.per_as_sessions.items():
            assert sessions and all(s.node == node for s in sessions)

    def test_a_batch_raises_on_a_lost_job_and_a_stream_keeps_the_hole(
        self, tiered_built
    ):
        """``stream=`` decides what a job lost at dispatch does: a batch
        promises every seed's session, a stream records the hole."""
        from repro.util.errors import ExplorationError

        class UnpicklableUpdate(UpdateMessage):
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        corpus = list(tiered_built.seed_corpus())
        node, peer, update = corpus[0]
        corpus[0] = (node, peer, UnpicklableUpdate(
            attributes=update.attributes, nlri=list(update.nlri)
        ))
        federation = tiered_built.federation()
        streamed = federation.explore(corpus, budget=BUDGET, workers=2, stream=True)
        if not streamed.used_processes:
            pytest.skip("no process workers on this host")
        assert streamed.stream_summary["errors"] == 1
        assert len(streamed.sessions) == len(corpus) - 1
        with pytest.raises(ExplorationError, match="1 job"):
            federation.explore(corpus, budget=BUDGET, workers=2)

    def test_stream_epochs_validation(self, tiered_built):
        from repro.util.errors import ExplorationError

        with pytest.raises(ExplorationError, match="stream_epochs"):
            tiered_built.federation().explore(
                tiered_built.seed_corpus(), stream=True, stream_epochs=0
            )

    def test_stream_epochs_require_the_stream(self, tiered_built):
        """Epochs act on the shared pool: asking for them on a batch run
        is an error, as it is for chaos, epoch_churn and autoscale."""
        from repro.util.errors import ExplorationError

        with pytest.raises(ExplorationError, match="requires stream=True"):
            tiered_built.federation().explore(
                tiered_built.seed_corpus(), budget=BUDGET, force_serial=True,
                stream_epochs=3,
            )


def two_tenants():
    tenants = {}
    for name in ("line-3", "star-6"):
        built = get_scenario(name).build(seed=7)
        built.converge()
        tenants[name] = (built.federation(), built.seed_corpus())
    return tenants


@pytest.mark.parametrize("rotation", ["yield", "round-robin"])
def test_multi_tenant_run_honours_as_rotation(rotation):
    """Round-robin rotation keeps no yield EWMAs, so each tenant reports
    an empty ``scheduler_yield``; yield rotation reports them."""
    from repro.core.federation import explore_tenants

    reports, _ = explore_tenants(
        two_tenants(), budget=BUDGET, force_serial=True, as_rotation=rotation
    )
    assert set(reports) == {"line-3", "star-6"}
    for report in reports.values():
        assert bool(report.scheduler_yield) == (rotation == "yield")


def hijack(prefix, asn):
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([asn]), next_hop=ip_to_int("10.0.0.9")
        ),
        nlri=[NlriEntry.from_prefix(P(prefix))],
    )


class TestPerWaveFabricStats:
    def test_second_wave_reports_its_own_counters(self, tiered_built):
        """A reused fabric must not bleed wave 1's stats into wave 2."""
        fabric = IsolatedFabric(
            dict(tiered_built.routers), graph=tiered_built.graph
        )
        node, peer, update = tiered_built.seed_corpus()[0]
        fabric.inject(node, peer, update)
        first = fabric.propagate()
        assert first.events > 0 and first.sim_seconds > 0

        # Wave 2: nothing injected — a quiescent federation.
        second = fabric.propagate()
        assert second is not first
        assert second.delivered == 0
        assert second.events == 0
        assert second.sim_seconds == 0.0
        assert second.converged is True
        # Cumulative totals live on the fabric, not in the wave report.
        assert fabric.stats.delivered == first.delivered
        assert fabric.stats.events == first.events
        assert fabric.stats.sim_seconds == pytest.approx(first.sim_seconds)

    def test_budget_cut_wave_does_not_poison_the_next(self, tiered_built):
        """converged=False is a per-wave verdict; only the cumulative
        view remembers that some wave was cut short."""
        fabric = IsolatedFabric(
            dict(tiered_built.routers), graph=tiered_built.graph, max_rounds=0
        )
        node, peer, update = tiered_built.seed_corpus()[0]
        fabric.inject(node, peer, update)
        first = fabric.propagate()
        assert first.converged is False
        assert first.suppressed_hop_budget > 0

        second = fabric.propagate()
        assert second.converged is True
        assert second.suppressed_hop_budget == 0
        assert second.rounds == 1  # floor, as before
        # The fabric's history keeps the non-convergence on record.
        assert fabric.stats.converged is False
        assert fabric.stats.suppressed_hop_budget == first.suppressed_hop_budget

    def test_merge_accumulates_and_conjuncts(self):
        total = FabricStats()
        total.merge(FabricStats(delivered=3, rounds=2, events=5, sim_seconds=0.5))
        total.merge(
            FabricStats(
                delivered=1, rounds=4, events=2, sim_seconds=0.25,
                converged=False, suppressed_hop_budget=1,
            )
        )
        assert total.delivered == 4
        assert total.rounds == 4
        assert total.events == 7
        assert total.sim_seconds == pytest.approx(0.75)
        assert total.converged is False
        assert total.suppressed_hop_budget == 1
