"""Finding-set parity under chaos, at federation scale.

Satellite pin for the resilience PR: ``finding_keys()`` is identical
across serial / stream / stream-with-{worker-kill, worker-hang} on the
line-3 and tiered-8 topologies.  Every registered non-quarantining plan
must be recovery-lossless — the chaos harness exists precisely so this
invariant is *executed*, not assumed.
"""

import pytest

from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.parallel import get_chaos_plan
from repro.util.errors import ExplorationError

BUDGET = ExplorationBudget(max_executions=4)

#: The non-quarantining plans the satellite names: kill, hang.
PARITY_PLANS = ("kill-one-worker", "hang-one-worker")


def _built(name):
    built = get_scenario(name).build(seed=42)
    built.converge()
    return built


@pytest.fixture(scope="module")
def line3_built():
    return _built("line-3")


@pytest.fixture(scope="module")
def tiered_built():
    return _built("tiered-8")


@pytest.fixture(scope="module")
def line3_serial(line3_built):
    return line3_built.federation().explore(
        line3_built.seed_corpus(), budget=BUDGET, workers=1, force_serial=True
    )


@pytest.fixture(scope="module")
def tiered_serial(tiered_built):
    return tiered_built.federation().explore(
        tiered_built.seed_corpus(), budget=BUDGET, workers=1, force_serial=True
    )


def _explore_with_chaos(built, plan_name):
    report = built.federation().explore(
        built.seed_corpus(),
        budget=BUDGET,
        workers=2,
        stream=True,
        chaos=get_chaos_plan(plan_name),
    )
    if not report.used_processes:
        pytest.skip("no process workers on this host")
    return report


class TestLine3ChaosParity:
    @pytest.mark.parametrize("plan_name", PARITY_PLANS)
    def test_parity_under_chaos(self, line3_built, line3_serial, plan_name):
        report = _explore_with_chaos(line3_built, plan_name)
        assert report.finding_keys() == line3_serial.finding_keys()
        summary = report.stream_summary
        assert summary["jobs_quarantined"] == 0
        assert summary["chaos_events"]  # the plan actually fired

    def test_plain_stream_parity_still_holds(self, line3_built, line3_serial):
        report = line3_built.federation().explore(
            line3_built.seed_corpus(),
            budget=BUDGET,
            workers=2,
            stream=True,
            force_serial=True,
        )
        assert report.finding_keys() == line3_serial.finding_keys()


class TestTiered8ChaosParity:
    @pytest.mark.parametrize("plan_name", PARITY_PLANS)
    def test_parity_under_chaos(self, tiered_built, tiered_serial, plan_name):
        report = _explore_with_chaos(tiered_built, plan_name)
        assert report.finding_keys() == tiered_serial.finding_keys()
        summary = report.stream_summary
        assert summary["jobs_quarantined"] == 0
        assert summary["chaos_events"]


class TestChaosRequiresTheSharedStreamPool:
    def test_batch_mode_rejected(self, line3_built):
        with pytest.raises(ExplorationError, match="requires stream=True"):
            line3_built.federation().explore(
                line3_built.seed_corpus(),
                budget=BUDGET,
                chaos=get_chaos_plan("kill-one-worker"),
            )
