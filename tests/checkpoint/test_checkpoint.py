"""Tests for fork-style checkpoints and the checkpoint manager."""

import pickle

import pytest

from repro.bgp.router import BgpRouter
from repro.checkpoint.manager import CheckpointManager, snapshot_pages
from repro.checkpoint.snapshot import Checkpoint, default_segments
from repro.concolic.engine import ExplorationBudget
from repro.concolic.env import Environment, ExplorationEnvironment
from repro.core import DiceExplorer, get_scenario
from repro.parallel.images import ImageStore
from repro.parallel.jobs import JobTable
from repro.parallel.reports import StreamReport
from repro.parallel.worker import SessionJob
from repro.util.errors import CheckpointError


class ToyNode:
    """A minimal Checkpointable node with two state segments."""

    def __init__(self, counter=0, table=None, env=None):
        self.counter = counter
        self.table = dict(table or {})
        self.env = env
        self.now = 0.0

    def checkpoint_state(self):
        return {"counter": self.counter, "table": self.table, "now": self.now}

    def snapshot_segments(self):
        return {
            "counter": pickle.dumps(self.counter),
            "table": pickle.dumps(sorted(self.table.items())),
        }

    @classmethod
    def restore_from_state(cls, state, env):
        node = cls(state["counter"], state["table"], env)
        node.now = state["now"]
        return node


class Unpicklable:
    def checkpoint_state(self):
        return lambda: None  # lambdas cannot pickle

    def snapshot_segments(self):
        return {}


class TestCheckpoint:
    def test_capture_restore_roundtrip(self):
        node = ToyNode(counter=7, table={"a": 1})
        checkpoint = Checkpoint.capture(node, "test")
        clone = checkpoint.restore(ExplorationEnvironment())
        assert clone.counter == 7
        assert clone.table == {"a": 1}
        assert clone is not node

    def test_clone_mutations_do_not_touch_parent(self):
        node = ToyNode(counter=1, table={"k": "v"})
        checkpoint = Checkpoint.capture(node, "test")
        clone = checkpoint.restore(ExplorationEnvironment())
        clone.counter = 999
        clone.table["k"] = "changed"
        assert node.counter == 1
        assert node.table["k"] == "v"

    def test_checkpoint_is_point_in_time(self):
        node = ToyNode(counter=1)
        checkpoint = Checkpoint.capture(node, "t")
        node.counter = 2  # parent keeps running after the fork
        clone = checkpoint.restore(ExplorationEnvironment())
        assert clone.counter == 1

    def test_node_time_captured(self):
        node = ToyNode()
        node.now = 42.5
        checkpoint = Checkpoint.capture(node, "t")
        assert checkpoint.node_time == 42.5

    def test_unpicklable_state_rejected(self):
        with pytest.raises(CheckpointError):
            Checkpoint.capture(Unpicklable(), "bad")

    def test_page_count_positive(self):
        node = ToyNode(table={i: i for i in range(100)})
        checkpoint = Checkpoint.capture(node, "t")
        assert len(snapshot_pages(checkpoint.restore(ExplorationEnvironment()))) >= 1
        assert checkpoint.size_bytes > 0

    def test_default_segments_helper(self):
        segments = default_segments({"a": 1})
        assert set(segments) == {"state"}
        assert pickle.loads(segments["state"]) == {"a": 1}

    def test_snapshot_pages(self):
        node = ToyNode(table={i: "x" * 50 for i in range(200)})
        pages = snapshot_pages(node)
        assert len(pages) >= 2


class TestCheckpointManager:
    def test_checkpoint_registers_pages(self):
        manager = CheckpointManager()
        node = ToyNode(table={i: i for i in range(50)})
        manager.checkpoint(node, "c1")
        assert "c1" in manager.checkpoints
        assert manager.memory_report().resident_pages > 0

    def test_duplicate_name_rejected(self):
        manager = CheckpointManager()
        node = ToyNode()
        manager.checkpoint(node, "c1")
        with pytest.raises(CheckpointError):
            manager.checkpoint(node, "c1")

    def test_clone_lifecycle(self):
        manager = CheckpointManager()
        node = ToyNode(counter=3)
        checkpoint = manager.checkpoint(node)
        record = manager.clone(checkpoint)
        assert record.node.counter == 3
        assert record.env.is_isolated
        manager.release(record.name)
        assert record.name not in manager.clones

    def test_clone_of_foreign_checkpoint_rejected(self):
        manager = CheckpointManager()
        foreign = Checkpoint.capture(ToyNode(), "foreign")
        with pytest.raises(CheckpointError):
            manager.clone(foreign)

    def test_release_unknown_clone(self):
        with pytest.raises(CheckpointError):
            CheckpointManager().release("ghost")

    def test_refresh_tracks_dirty_pages(self):
        manager = CheckpointManager()
        node = ToyNode(table={i: "data" * 100 for i in range(200)})
        checkpoint = manager.checkpoint(node)
        record = manager.clone(checkpoint)
        # Fresh clone shares everything with the checkpoint.
        assert manager.memory_report().clone_growth_max == pytest.approx(0.0)
        # Dirty a chunk of the clone's table; the next report sees it.
        for i in range(50):
            record.node.table[i] = "mutated" * 100
        assert manager.memory_report().clone_growth_max > 0

    def test_memory_report_shape(self):
        manager = CheckpointManager()
        node = ToyNode(table={i: "v" * 64 for i in range(300)})
        checkpoint = manager.checkpoint(node)
        for _ in range(3):
            manager.clone(checkpoint)
        report = manager.memory_report()
        assert report.clone_count == 3
        assert report.live_pages > 0
        assert report.checkpoint_unique_fraction == pytest.approx(0.0)
        assert report.sharing_ratio > 1.0  # clones share pages
        assert set(report.as_dict()) >= {
            "live_pages", "checkpoint_unique_fraction", "clone_growth_mean"
        }

    def test_memory_report_requires_live(self):
        with pytest.raises(CheckpointError):
            CheckpointManager().memory_report()

    def test_release_all_clones(self):
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(ToyNode())
        for _ in range(4):
            manager.clone(checkpoint)
        manager.release_all_clones()
        assert not manager.clones

    def test_clone_pages_measured_lazily(self, monkeypatch):
        # Paging a clone's image is the dominant clone cost; callers that
        # only need the node (streaming clone churn) must not pay it.
        paged = []
        real = ToyNode.snapshot_segments
        monkeypatch.setattr(
            ToyNode, "snapshot_segments",
            lambda node: paged.append(node) or real(node),
        )
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(ToyNode(table={i: "x" * 80 for i in range(100)}))
        paged.clear()  # the live image, recorded at the first checkpoint
        record = manager.clone(checkpoint)
        assert paged == []
        manager.memory_report()
        assert record.node in paged

    def test_unmeasured_clone_releases_cleanly(self):
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(ToyNode())
        record = manager.clone(checkpoint)
        manager.release(record.name)  # never reported on
        assert record.name not in manager.clones

    def test_memory_report_forces_measurement(self):
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(ToyNode(table={i: i for i in range(50)}))
        records = [manager.clone(checkpoint) for _ in range(2)]
        records[1].node.table[1000] = "x" * 5000
        report = manager.memory_report()
        assert report.clone_count == 2
        # Measured as they stand at the report: only the grown clone grew.
        assert report.clone_growth_mean == pytest.approx(report.clone_growth_max / 2)
        assert report.clone_growth_max > 0

    def test_checkpoint_unique_fraction_grows_as_parent_diverges(self):
        manager = CheckpointManager()
        node = ToyNode(table={i: "v" * 64 for i in range(300)})
        manager.checkpoint(node)
        # Parent keeps processing after the fork: its image diverges.
        for i in range(150):
            node.table[i] = "post-fork" * 32
        manager.register_live(node)
        report = manager.memory_report()
        assert 0.0 < report.checkpoint_unique_fraction <= 1.0


# The section 4.1 page image is built by the memory report and nowhere
# else: paging a router serializes every RIB segment, which costs more
# than the exploration it would account for.


def fig2_scenario():
    """A small fig2 testbed one second into a real-time-paced replay."""
    scenario = get_scenario("fig2").build(
        filter_mode="erroneous", prefix_count=300, update_count=40,
        replay_compression=1.0,
    )
    scenario.converge(run_until=1.0)
    return scenario


def test_sessions_pickles_and_pool_images_never_page_the_router(monkeypatch):
    scenario = fig2_scenario()
    router = scenario.provider
    peer, update = scenario.dice.pick_seed("customer")

    def refuse(self):
        raise AssertionError("page image built outside the memory report")

    monkeypatch.setattr(BgpRouter, "snapshot_segments", refuse)

    report = DiceExplorer().explore_update(
        router, peer, update, budget=ExplorationBudget(max_executions=4)
    )
    assert report.exploration.executions > 0

    checkpoint = Checkpoint.capture(router, "shipped")
    pickle.dumps(checkpoint)
    pickle.dumps(SessionJob(index=0, checkpoint=checkpoint, peer=peer, observed=update))

    images = ImageStore(StreamReport(), JobTable())
    images.register("", router)
    image, patch = images.capture_next("")
    images.commit(image, patch)


# Computed with the page accounting as it stood before the page image
# left sessions, pickles and pool images: the report must not move.
TOY_REPORT = {
    "live_pages": 16,
    "checkpoint_unique_fraction": 17 / 18,
    "clone_growth_mean": 13 / 54,
    "clone_growth_max": 2 / 3,
    "clone_count": 3,
    "resident_pages": 46,
    "virtual_pages": 86,
    "sharing_ratio": 86 / 46,
}

FIG2_REPORT = {
    "live_pages": 344,
    "checkpoint_unique_fraction": 40 / 343,
    "clone_growth_mean": 10 / 1372,
    "clone_growth_max": 4 / 343,
    "clone_count": 4,
    "resident_pages": 389,
    "virtual_pages": 2059,
    "sharing_ratio": 2059 / 389,
}


def test_toy_memory_report_is_pinned():
    manager = CheckpointManager()
    node = ToyNode(table={i: "v%03d" % i * 40 for i in range(400)})
    manager.register_live(node)
    checkpoint = manager.checkpoint(node, "fork")
    for i in range(0, 400, 7):  # the parent keeps running after the fork
        node.table[i] = "post-fork" * 30
    manager.register_live(node)
    clean, dirty, grown = (manager.clone(checkpoint) for _ in range(3))
    for i in range(100, 160):
        dirty.node.table[i] = "dirty" * 50
    grown.node.table[1000] = "grown" * 200
    assert manager.memory_report().as_dict() == pytest.approx(TOY_REPORT)


def test_fig2_session_memory_report_is_pinned():
    scenario = fig2_scenario()
    manager = CheckpointManager()
    manager.register_live(scenario.provider)
    checkpoint = manager.checkpoint(scenario.provider, "pinned")
    scenario.converge(run_until=400.0)
    manager.register_live(scenario.provider)
    explorer = DiceExplorer(checkpoint_manager=manager, track_clone_limit=4)
    peer, update = scenario.dice.pick_seed("customer")
    explorer.explore_update(
        scenario.provider, peer, update,
        budget=ExplorationBudget(max_executions=6), checkpoint=checkpoint,
    )
    assert manager.memory_report().as_dict() == pytest.approx(FIG2_REPORT)
