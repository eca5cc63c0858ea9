"""Edge-case tests for online scheduling and throughput measurement."""

import pytest

from repro.concolic.engine import ExplorationBudget
from repro.core.dice import DiCE
from repro.core.schedule import (
    OnlineScheduler,
    ScheduleConfig,
    ThroughputProbe,
    measure_throughput,
)
from repro.net.node import NodeHost


class _StubDice:
    """A DiCE stand-in that counts rounds and optionally returns None."""

    def __init__(self, has_seed=True):
        self.calls = 0
        self.has_seed = has_seed

    def run_round(self, peer=None, budget=None):
        self.calls += 1
        if not self.has_seed:
            return None
        return object()


class _FlakyDice:
    """Raises on chosen rounds — the failure mode that used to kill the
    scheduler permanently (no re-armed timer, silent stop)."""

    def __init__(self, failing_calls=(1,), error=None):
        from repro.util.errors import ExplorationError

        self.calls = 0
        self.failing_calls = set(failing_calls)
        self.error = error or ExplorationError("round blew up")

    def run_round(self, peer=None, budget=None):
        self.calls += 1
        if self.calls in self.failing_calls:
            raise self.error
        return object()


class TestScheduler:
    def test_start_after_delays_first_round(self):
        host = NodeHost()
        dice = _StubDice()
        scheduler = OnlineScheduler(
            host, dice, ScheduleConfig(interval=100.0, start_after=5.0)
        )
        scheduler.start()
        host.run_until(4.0)
        assert dice.calls == 0
        host.run_until(6.0)
        assert dice.calls == 1
        scheduler.stop()

    def test_default_first_round_at_interval(self):
        host = NodeHost()
        dice = _StubDice()
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=30.0))
        scheduler.start()
        host.run_until(29.0)
        assert dice.calls == 0
        host.run_until(31.0)
        assert dice.calls == 1
        scheduler.stop()

    def test_rounds_without_seed_counted_skipped(self):
        host = NodeHost()
        dice = _StubDice(has_seed=False)
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        host.run_until(35.0)
        scheduler.stop()
        assert scheduler.stats.rounds_skipped == 3
        assert scheduler.stats.rounds_fired == 0

    def test_max_rounds_stops(self):
        host = NodeHost()
        dice = _StubDice()
        scheduler = OnlineScheduler(
            host, dice, ScheduleConfig(interval=10.0, max_rounds=3)
        )
        scheduler.start()
        host.run_until(200.0)
        assert scheduler.stats.rounds_fired == 3
        assert not scheduler.running

    def test_restart_after_stop(self):
        host = NodeHost()
        dice = _StubDice()
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        host.run_until(15.0)
        scheduler.stop()
        fired = scheduler.stats.rounds_fired
        scheduler.start()
        host.run_until(40.0)
        scheduler.stop()
        assert scheduler.stats.rounds_fired > fired

    def test_last_fired_at_tracks_sim_time(self):
        host = NodeHost()
        dice = _StubDice()
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=7.0))
        scheduler.start()
        host.run_until(8.0)
        scheduler.stop()
        assert scheduler.stats.last_fired_at == pytest.approx(7.0)

    def test_misspelt_pool_option_fails_when_the_config_is_built(self):
        """A typo in the pool options is caught building the config, not
        when the scheduler starts its stream inside a live simulator."""
        from repro.parallel import PoolOptions

        with pytest.raises(TypeError, match="force_seral"):
            ScheduleConfig(stream=True, pool=PoolOptions(force_seral=True))


class TestSchedulerFailureContainment:
    def test_failed_round_rearms_the_timer(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=(1,))
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        host.run_until(45.0)
        scheduler.stop()
        # Round 1 raised at t=10; backoff pushes round 2 to t=30, which
        # succeeds and restores the 10s cadence (round 3 at t=40).
        assert dice.calls == 3
        assert scheduler.stats.rounds_failed == 1
        assert scheduler.stats.rounds_fired == 2
        assert "round blew up" in scheduler.stats.last_error

    def test_failures_not_counted_as_fired_or_skipped(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=(1, 2, 3))
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        # Failures at t=10, 30 (10+20), 70 (30+40): each one doubles the
        # re-arm delay, so reaching three failures takes until t=70.
        host.run_until(75.0)
        scheduler.stop()
        assert scheduler.stats.rounds_failed == 3
        assert scheduler.stats.rounds_fired == 0
        assert scheduler.stats.rounds_skipped == 0

    def test_max_rounds_counts_only_successes(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=(2,))
        scheduler = OnlineScheduler(
            host, dice, ScheduleConfig(interval=10.0, max_rounds=2)
        )
        scheduler.start()
        host.run_until(100.0)
        # calls: 1 ok, 2 failed, 3 ok -> max_rounds=2 reached at call 3.
        assert dice.calls == 3
        assert scheduler.stats.rounds_fired == 2
        assert not scheduler.running

    def test_checkpoint_errors_contained_too(self):
        from repro.util.errors import CheckpointError

        host = NodeHost()
        dice = _FlakyDice(failing_calls=(1,), error=CheckpointError("no fork"))
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        host.run_until(35.0)
        scheduler.stop()
        assert scheduler.stats.rounds_failed == 1
        assert scheduler.stats.rounds_fired == 1

    def test_non_library_errors_contained_too(self):
        # A worker-pool PicklingError (or any other stdlib exception) is
        # just as fatal to an un-guarded timer as a ReproError.
        import pickle

        host = NodeHost()
        dice = _FlakyDice(
            failing_calls=(1,), error=pickle.PicklingError("bad payload")
        )
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        host.run_until(35.0)
        scheduler.stop()
        assert scheduler.stats.rounds_failed == 1
        assert scheduler.stats.rounds_fired == 1
        assert "PicklingError" in scheduler.stats.last_error


class TestSchedulerFailureBackoff:
    def test_backoff_doubles_per_consecutive_failure(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=(1, 2, 3, 4))
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        host.run_until(15.0)          # failure 1 at t=10
        assert scheduler.stats.backoff_seconds == pytest.approx(20.0)
        assert dice.calls == 1
        host.run_until(35.0)          # failure 2 at t=30
        assert scheduler.stats.backoff_seconds == pytest.approx(40.0)
        assert dice.calls == 2
        host.run_until(75.0)          # failure 3 at t=70
        assert scheduler.stats.backoff_seconds == pytest.approx(80.0)
        assert dice.calls == 3
        scheduler.stop()

    def test_backoff_capped(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=tuple(range(1, 20)))
        scheduler = OnlineScheduler(
            host,
            dice,
            ScheduleConfig(interval=10.0, failure_backoff_cap=25.0),
        )
        scheduler.start()
        # Delays: 20 (min(25, 20)), then 25 forever after.
        host.run_until(150.0)
        scheduler.stop()
        assert scheduler.stats.backoff_seconds == pytest.approx(25.0)
        # t=10, 30, 55, 80, 105, 130 -> six failures by t=150.
        assert scheduler.stats.rounds_failed == 6

    def test_default_cap_is_sixteen_intervals(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=tuple(range(1, 20)))
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        # 20, 40, 80, 160, then pinned at 160 (= interval * 16).
        host.run_until(500.0)
        scheduler.stop()
        assert scheduler.stats.backoff_seconds == pytest.approx(160.0)

    def test_success_resets_backoff(self):
        host = NodeHost()
        dice = _FlakyDice(failing_calls=(1, 2))
        scheduler = OnlineScheduler(host, dice, ScheduleConfig(interval=10.0))
        scheduler.start()
        # Failures at t=10, 30; success at t=70 clears the streak and
        # restores the plain interval (next round fires at t=80).
        host.run_until(75.0)
        assert scheduler.stats.rounds_fired == 1
        assert scheduler.stats.backoff_seconds == 0.0
        host.run_until(85.0)
        scheduler.stop()
        assert scheduler.stats.rounds_fired == 2


class TestThroughputProbe:
    def test_probe_measures(self):
        with ThroughputProbe() as probe:
            total = sum(range(10_000))
        probe.updates_processed = 100
        assert probe.wall_seconds > 0
        assert probe.updates_per_second > 0

    def test_zero_wall_time(self):
        probe = ThroughputProbe()
        assert probe.updates_per_second == 0.0

    def test_measure_throughput_counts_router_updates(self):
        from repro.core import get_scenario

        scenario = get_scenario("fig2").build(
            filter_mode="correct", prefix_count=200, update_count=20
        )
        probe = measure_throughput(scenario.host, scenario.provider.counters)
        assert probe.updates_processed > 0
        assert probe.updates_per_second > 0
