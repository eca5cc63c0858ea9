"""Tests for the discrete-event simulator and the network fabric."""

import pytest

from repro.net.channel import Network
from repro.net.node import LiveEnvironment, NodeHost, SimNode
from repro.net.sim import Simulator
from repro.util.errors import SimulationError


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fifo(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda lab=label: order.append(lab))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        executed = sim.run_until(2.0)
        assert executed == 1
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("chained"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "chained"]
        assert sim.now == 2.0

    def test_max_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending == 6

    def test_idle(self):
        sim = Simulator()
        assert sim.idle()
        handle = sim.schedule(1.0, lambda: None)
        assert not sim.idle()
        handle.cancel()
        assert sim.idle()

    def test_cancel_twice_keeps_pending_consistent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()  # double-cancel must not decrement twice
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        other.cancel()  # cancel-after-fire must not go negative
        assert sim.pending == 0

    def test_schedule_batch_orders_with_classic_events(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("classic"))
        count = sim.schedule_batch(
            [(1.0, "early"), (3.0, "late")], lambda p: order.append(p)
        )
        assert count == 2
        assert sim.pending == 3
        sim.run()
        assert order == ["early", "classic", "late"]
        assert sim.pending == 0

    def test_schedule_batch_equal_times_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule_batch([(1.0, p) for p in "abc"], order.append)
        sim.schedule(1.0, lambda: order.append("d"))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_schedule_batch_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([(1.0, "ok"), (-0.5, "bad")], lambda p: None)

    def test_schedule_payload_at_orders_by_time_then_sequence(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("classic"))
        sim.schedule_payload_at(1.0, order.append, "payload")
        sim.schedule_payload_at(0.5, order.append, "early")
        assert sim.pending == 3
        sim.run()
        assert order == ["early", "classic", "payload"]
        with pytest.raises(SimulationError):
            sim.schedule_payload_at(0.5, order.append, "past")

    def test_schedule_batch_payloads_survive_step(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch([(1.0, ("tuple", 7))], seen.append)
        assert sim.step()
        assert seen == [("tuple", 7)]
        assert sim.events_executed == 1


class Echo(SimNode):
    """Replies 'ack:<payload>' to every message."""

    def __init__(self, node_id, env):
        super().__init__(node_id, env)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))
        if not payload.startswith(b"ack:"):
            self.send(src, b"ack:" + payload)


class TestNetwork:
    def make_pair(self, latency=0.5, loss_rate=0.0):
        host = NodeHost()
        a = host.add_node("a", Echo)
        b = host.add_node("b", Echo)
        host.add_link("a", "b", latency=latency, loss_rate=loss_rate)
        return host, a, b

    def test_delivery_with_latency(self):
        host, a, b = self.make_pair(latency=0.5)
        a.send("b", b"ping")
        host.run()
        assert b.received == [("a", b"ping")]
        assert a.received == [("b", b"ack:ping")]
        assert host.sim.now == pytest.approx(1.0)

    def test_in_order_delivery_per_pair(self):
        host, a, b = self.make_pair(latency=0.1)
        for i in range(5):
            a.send("b", bytes([i]))
        host.run()
        assert [payload[0] for _, payload in b.received] == [0, 1, 2, 3, 4]

    def test_no_link_raises(self):
        host = NodeHost()
        host.add_node("a", Echo)
        host.add_node("c", Echo)
        with pytest.raises(SimulationError):
            host.network.transmit("a", "c", b"x")

    def test_link_down_drops(self):
        host, a, b = self.make_pair()
        host.network.set_link_state("a", "b", up=False)
        assert not host.network.transmit("a", "b", b"x")
        host.run()
        assert b.received == []
        link = host.network.link_between("a", "b")
        assert link.stats.dropped == 1

    def test_link_recovers(self):
        host, a, b = self.make_pair()
        host.network.set_link_state("a", "b", up=False)
        host.network.transmit("a", "b", b"lost")
        host.network.set_link_state("a", "b", up=True)
        host.network.transmit("a", "b", b"delivered")
        host.run()
        assert [p for _, p in b.received] == [b"delivered"]

    def test_lossy_link_drops_some(self):
        host, a, b = self.make_pair(loss_rate=0.5)
        for i in range(100):
            host.network.transmit("a", "b", bytes([i % 250]))
        host.run()
        delivered = len([m for m in b.received])
        assert 10 < delivered < 90  # seeded rng; roughly half

    def test_duplicate_node_id_rejected(self):
        host = NodeHost()
        host.add_node("a", Echo)
        with pytest.raises(SimulationError):
            host.network.attach("a", lambda s, p: None)

    def test_duplicate_link_rejected(self):
        host, _, _ = self.make_pair()
        with pytest.raises(SimulationError):
            host.add_link("b", "a")

    def test_self_link_rejected(self):
        host = NodeHost()
        host.add_node("a", Echo)
        with pytest.raises(SimulationError):
            host.add_link("a", "a")

    def test_neighbors(self):
        host = NodeHost()
        for name in "abc":
            host.add_node(name, Echo)
        host.add_link("a", "b")
        host.add_link("a", "c")
        assert sorted(host.network.neighbors("a")) == ["b", "c"]
        assert host.network.neighbors("b") == ["a"]

    def test_stats_counted(self):
        host, a, b = self.make_pair()
        a.send("b", b"12345")
        host.run()
        assert host.network.total_messages == 2  # ping + ack
        assert host.network.total_bytes == len(b"12345") + len(b"ack:12345")


class TestLiveEnvironment:
    def test_now_tracks_simulator(self):
        host = NodeHost()
        node = host.add_node("a", Echo)
        host.add_node("b", Echo)
        host.add_link("a", "b")
        assert node.now == 0.0
        host.sim.schedule(2.0, lambda: None)
        host.run()
        assert node.now == 2.0

    def test_files_are_per_node(self):
        env_a = LiveEnvironment("a", Network(Simulator()))
        env_a.write_file("state", b"abc")
        assert env_a.read_file("state") == b"abc"
        with pytest.raises(FileNotFoundError):
            env_a.read_file("other")

    def test_not_isolated(self):
        env = LiveEnvironment("a", Network(Simulator()))
        assert not env.is_isolated


class TestNodeHost:
    def test_on_start_runs_in_event_loop(self):
        class Starter(SimNode):
            started_at = None

            def on_start(self):
                Starter.started_at = self.now

            def on_message(self, src, payload):
                pass

        host = NodeHost()
        host.add_node("s", Starter)
        host.start()
        host.run()
        assert Starter.started_at == 0.0

    def test_set_timer(self):
        host = NodeHost()
        fired = []
        host.set_timer(1.5, lambda: fired.append(host.sim.now))
        host.run()
        assert fired == [1.5]
