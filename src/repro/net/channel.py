"""Links and the message fabric connecting simulated nodes.

A :class:`Network` owns the links and performs delivery: a node's
environment calls ``network.transmit(src, dst, payload)``, and the payload
arrives at the destination's ``on_message`` after the link latency.  Links
can be taken down (session loss experiments) and can drop or reorder
messages under a seeded RNG, but defaults are reliable in-order delivery —
matching BGP-over-TCP semantics on the paper's testbed.

Every UPDATE of a convergence crosses :meth:`Network.transmit`, so a
send does no more than it must: the link is found under its directed
``(src, dst)`` key, and the delivery is queued as a plain record for one
shared handler (:meth:`repro.net.sim.Simulator.schedule_payload_at`),
with no closure and no cancellable handle per message.  Deliveries run
in the simulator's ``(time, sequence)`` order like any other event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.sim import Simulator
from repro.util.errors import SimulationError
from repro.util.rng import derive_rng


@dataclass
class LinkStats:
    """Per-link delivery counters."""

    messages: int = 0
    bytes: int = 0
    dropped: int = 0


@dataclass
class Link:
    """A duplex link between two nodes."""

    a: str
    b: str
    latency: float = 0.001
    loss_rate: float = 0.0
    up: bool = True
    stats: LinkStats = field(default_factory=LinkStats)

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def connects(self, x: str, y: str) -> bool:
        return {self.a, self.b} == {x, y}


MessageHandler = Callable[[str, bytes], None]


class Network:
    """The message fabric: nodes, links, and latency-delayed delivery.

    Delivery per (src, dst) pair is in order: each directed pair carries a
    "last scheduled arrival" watermark and later sends never arrive before
    earlier ones, which models the TCP stream BGP sessions run over.
    """

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self._handlers: Dict[str, MessageHandler] = {}
        self._links: List[Link] = []
        #: Each link under both of its directed ``(src, dst)`` keys, so a
        #: send looks it up with the tuple it already has.
        self._link_index: Dict[Tuple[str, str], Link] = {}
        self._watermark: Dict[Tuple[str, str], float] = {}
        self._rng = derive_rng(seed, "network-loss")
        self.total_messages = 0
        self.total_bytes = 0

    # -- membership ---------------------------------------------------------

    def attach(self, node_id: str, handler: MessageHandler) -> None:
        """Register a node's message handler under its id."""
        if node_id in self._handlers:
            raise SimulationError(f"node id {node_id!r} already attached")
        self._handlers[node_id] = handler

    def detach(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    def node_ids(self) -> List[str]:
        return list(self._handlers)

    def add_link(
        self, a: str, b: str, latency: float = 0.001, loss_rate: float = 0.0
    ) -> Link:
        if a == b:
            raise SimulationError("self-links are not supported")
        if (a, b) in self._link_index:
            raise SimulationError(f"link {a}<->{b} already exists")
        link = Link(a, b, latency, loss_rate)
        self._links.append(link)
        self._link_index[(a, b)] = self._link_index[(b, a)] = link
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        return self._link_index.get((a, b))

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        link = self.link_between(a, b)
        if link is None:
            raise SimulationError(f"no link {a}<->{b}")
        link.up = up

    # -- delivery --------------------------------------------------------------

    def transmit(self, src: str, dst: str, payload: bytes) -> bool:
        """Send ``payload`` from ``src`` to ``dst``; False if undeliverable.

        Undeliverable means no link, link down, or (probabilistically) a
        configured loss — the caller treats all three as the network
        eating the message, as a real UDP/broken-TCP send would look.
        A delivered message is one flat ``(src, dst, payload)`` record
        for the shared :meth:`_deliver`.
        """
        key = (src, dst)
        link = self._link_index.get(key)
        if link is None:
            raise SimulationError(f"no link between {src!r} and {dst!r}")
        if not link.up:
            link.stats.dropped += 1
            return False
        if link.loss_rate > 0 and self._rng.random() < link.loss_rate:
            link.stats.dropped += 1
            return False
        if dst not in self._handlers:
            raise SimulationError(f"destination {dst!r} not attached")
        size = len(payload)
        stats = link.stats
        stats.messages += 1
        stats.bytes += size
        self.total_messages += 1
        self.total_bytes += size

        sim = self.sim
        arrival = sim.now + link.latency
        watermark = self._watermark.get(key, 0.0)
        if watermark > arrival:
            arrival = watermark
        self._watermark[key] = arrival
        sim.schedule_payload_at(arrival, self._deliver, (src, dst, bytes(payload)))
        return True

    def _deliver(self, record: Tuple[str, str, bytes]) -> None:
        """The one delivery handler every in-flight message shares."""
        src, dst, data = record
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, data)

    def neighbors(self, node_id: str) -> List[str]:
        """Ids of nodes sharing a link with ``node_id``."""
        found = []
        for link in self._links:
            if link.a == node_id:
                found.append(link.b)
            elif link.b == node_id:
                found.append(link.a)
        return found
