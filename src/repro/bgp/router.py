"""The BGP router node: BIRD's role in the paper's testbed.

A :class:`BgpRouter` speaks the wire protocol over the simulated network,
maintains the three RIBs, runs import/export policy and the decision
process, and originates configured networks.  Two properties matter for
DiCE integration (paper section 3.2):

* **the message handler is an explicit entry point** —
  :meth:`handle_update` takes a peer id and a parsed
  :class:`UpdateMessage` whose fields may be symbolic.  DiCE invokes it
  directly on checkpoint clones ("we rely on the programmer to identify
  message handlers");
* **all environment interaction goes through ``self.env``** — on a clone
  wired to an :class:`ExplorationEnvironment`, every message the handler
  generates is captured instead of transmitted, and the live system never
  observes the exploration.

The router is :class:`Checkpointable`: logical state (config, RIBs,
sessions, counters) is forked into checkpoints by structural sharing
(:meth:`BgpRouter.fork_state`); :meth:`BgpRouter.snapshot_segments`
serializes it into independently paged segments for the section 4.1
page accounting; runtime state (the environment) is reinjected on
restore.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.attributes import (
    NO_ADVERTISE,
    NO_EXPORT,
    ORIGIN_IGP,
    AsPath,
    PathAttributes,
    encode_attributes,
)
from repro.bgp.config import NeighborConfig, RouterConfig, parse_config_cached
from repro.bgp.decision import best_route, routes_equal
from repro.bgp.fsm import Session, SessionFsm, SessionState
from repro.bgp.messages import (
    ERR_UPDATE_MESSAGE,
    KeepaliveMessage,
    Message,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.nlri import NlriEntry
from repro.bgp.policy import FilterInterpreter, RouteView
from repro.bgp.rib import AdjRibIn, AdjRibOut, ChangeKind, LocRib, RibChange, Route, RouteSource
from repro.bgp.wire import as_concrete_int
from repro.concolic.env import Environment
from repro.net.node import SimNode
from repro.util.errors import ConfigError, WireFormatError
from repro.util.ip import Prefix
from repro.util.stats import CounterRegistry

import hashlib
import pickle

#: LOCAL_PREF given to locally originated (static) routes so they win the
#: decision process against learned paths, like BIRD's static preference.
STATIC_LOCAL_PREF = 200

#: NLRI entries packed into one outgoing UPDATE (wire-size conservative).
MAX_NLRI_PER_UPDATE = 200

#: Target RIB entries per snapshot bucket; ~1 page of pickled routes.
SNAPSHOT_BUCKET_ENTRIES = 4


def _bucketized(label: str, items: list) -> list:
    """Split (key, value) items into hash-stable, separately pickled buckets.

    The bucket index depends only on the entry's key, so an insert or
    update relocates nothing: exactly the touched bucket re-serializes
    differently, which is what makes the page-sharing numbers meaningful.
    It is a digest of the key's ``repr`` (ints and peer strings), not the
    builtin ``hash`` — that one is salted per process for ``str``, and
    page sets from two processes must be comparable.
    """
    if not items:
        return [(f"{label}/empty", b"")]
    # Power-of-two bucket count: small size drift (a clone adding a few
    # routes) must not reshuffle every bucket assignment.
    target = max(32, len(items) // SNAPSHOT_BUCKET_ENTRIES)
    bucket_count = 1 << (target - 1).bit_length()
    buckets: Dict[int, list] = {}
    for key, value in items:
        digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
        index = int.from_bytes(digest, "big") % bucket_count
        buckets.setdefault(index, []).append((key, value))
    protocol = pickle.HIGHEST_PROTOCOL
    segments = []
    for index, bucket in sorted(buckets.items()):
        bucket.sort(key=lambda item: repr(item[0]))
        segments.append((f"{label}/{index}", pickle.dumps(bucket, protocol)))
    return segments


class BgpRouter(SimNode):
    """A BGP-4 speaker attached to the simulated network."""

    def __init__(self, node_id: str, env: Environment, config: Union[RouterConfig, str]):
        super().__init__(node_id, env)
        if isinstance(config, str):
            config = parse_config_cached(config)
        self.config = config
        self.interpreter = FilterInterpreter(config.prefix_sets)
        self.sessions: Dict[str, Session] = {
            peer_id: Session(neighbor, hold_time=neighbor.hold_time)
            for peer_id, neighbor in config.neighbors.items()
        }
        self.adj_rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        self.adj_rib_out = AdjRibOut()
        self.counters = CounterRegistry()
        self.static_routes: Dict[Prefix, Route] = {}
        for network in config.networks:
            self._originate(network)

    # -- local origination ------------------------------------------------------

    def _originate(self, prefix: Prefix) -> None:
        route = Route(
            prefix=prefix,
            attributes=PathAttributes(
                origin=ORIGIN_IGP,
                as_path=AsPath(),
                next_hop=self.config.router_id,
                local_pref=STATIC_LOCAL_PREF,
            ),
            peer=None,
            source=RouteSource.STATIC,
        )
        self.static_routes[prefix] = route
        self.loc_rib.install(route)

    # -- lifecycle -----------------------------------------------------------------

    def on_start(self) -> None:
        for peer_id, session in self.sessions.items():
            fsm = self._fsm(session)
            for message in fsm.start(self.now):
                self._transmit(peer_id, message)

    def _fsm(self, session: Session) -> SessionFsm:
        return SessionFsm(session, self.config.asn, self.config.router_id)

    def _transmit(self, peer_id: str, message: Message) -> None:
        self._send(peer_id, type(message).__name__, message.encode())

    def _send(self, peer_id: str, kind: str, payload: bytes) -> None:
        """Transmit an encoded ``kind`` message (an update group's shared bytes)."""
        session = self.sessions.get(peer_id)
        if session is not None:
            session.messages_out += 1
        self.counters.increment(f"sent_{kind}")
        self.env.send(peer_id, payload)

    # -- message dispatch -------------------------------------------------------------

    def on_message(self, src: str, payload: bytes) -> None:
        try:
            message = decode_message(payload)
        except WireFormatError as exc:
            self.counters.increment("decode_errors")
            self._transmit(src, NotificationMessage(exc.code or 1, exc.subcode))
            return
        self.handle_message(src, message)

    def handle_message(self, src: str, message: Message) -> None:
        """Dispatch a parsed message to the appropriate handler."""
        session = self.sessions.get(src)
        if session is None:
            self.counters.increment("messages_from_unknown_peer")
            return
        if isinstance(message, OpenMessage):
            self.handle_open(src, message)
        elif isinstance(message, KeepaliveMessage):
            self.handle_keepalive(src)
        elif isinstance(message, UpdateMessage):
            self.handle_update(src, message)
        elif isinstance(message, NotificationMessage):
            self.handle_notification(src, message)

    def handle_open(self, peer_id: str, message: OpenMessage) -> None:
        session = self.sessions[peer_id]
        replies, _ = self._fsm(session).on_open(message, self.now)
        for reply in replies:
            self._transmit(peer_id, reply)

    def handle_keepalive(self, peer_id: str) -> None:
        session = self.sessions[peer_id]
        replies, established = self._fsm(session).on_keepalive(self.now)
        for reply in replies:
            self._transmit(peer_id, reply)
        if established:
            self.counters.increment("sessions_established")
            self._send_full_table(peer_id)

    def handle_notification(self, peer_id: str, message: NotificationMessage) -> None:
        session = self.sessions[peer_id]
        self._fsm(session).on_notification(message)
        self.counters.increment("notifications_received")
        self._drop_peer_routes(peer_id)

    # -- UPDATE processing: the DiCE-explored handler ------------------------------------

    def handle_update(self, peer_id: str, update: UpdateMessage) -> None:
        """Process one UPDATE from ``peer_id``.

        This is the handler DiCE explores: invoked on a clone with
        symbolic NLRI/attribute fields, every branch below — including the
        interpreted import filter — lands in the recorded path condition.
        """
        session = self.sessions.get(peer_id)
        if session is None:
            self.counters.increment("messages_from_unknown_peer")
            return
        now = self.now
        if not self._fsm(session).on_update_allowed(now):
            self.counters.increment("updates_out_of_establish")
            self._transmit(peer_id, NotificationMessage(5, 0))
            return
        self.counters.increment("updates_received")
        changed: List[Prefix] = []

        for entry in update.withdrawn:
            prefix = entry.to_prefix()
            if self.adj_rib_in.withdraw(peer_id, prefix) is not None:
                self.counters.increment("withdrawals_processed")
                changed.append(prefix)

        if update.nlri:
            try:
                self._validate_update(update)
            except WireFormatError as exc:
                self.counters.increment("update_errors")
                self._transmit(peer_id, NotificationMessage(exc.code, exc.subcode))
                return
            if update.attributes.as_path.contains(self.config.asn):
                # AS-path loop: RFC 4271 says treat as withdrawn.
                self.counters.increment("loop_rejected")
                for entry in update.nlri:
                    prefix = entry.to_prefix()
                    if self.adj_rib_in.withdraw(peer_id, prefix) is not None:
                        changed.append(prefix)
            else:
                for entry in update.nlri:
                    changed.extend(self._import_route(peer_id, entry, update, now))

        if changed:
            self._reconverge(changed)

    def _validate_update(self, update: UpdateMessage) -> None:
        attrs = update.attributes
        if attrs.next_hop is None:
            raise WireFormatError("missing NEXT_HOP", code=ERR_UPDATE_MESSAGE, subcode=3)
        if not attrs.as_path.segments:
            raise WireFormatError("missing AS_PATH", code=ERR_UPDATE_MESSAGE, subcode=3)

    def _import_route(
        self, peer_id: str, entry: NlriEntry, update: UpdateMessage, now: float
    ) -> List[Prefix]:
        """Run import policy on one NLRI received at ``now``; returns changed prefixes."""
        view = RouteView.of(entry.network, entry.length, update.attributes)
        program = self.config.filter_named(self.sessions[peer_id].peer.import_filter)
        result = self.interpreter.run(program, view)
        prefix = entry.to_prefix()
        if result.accepted:
            self.counters.increment("routes_accepted")
            route = Route(
                prefix=prefix,
                attributes=result.attributes,
                peer=peer_id,
                source=RouteSource.EBGP,
                learned_at=now,
            )
            self.adj_rib_in.install(peer_id, route)
            return [prefix]
        self.counters.increment("routes_filtered")
        # A rejected (re)announcement implicitly withdraws the old entry.
        if self.adj_rib_in.withdraw(peer_id, prefix) is not None:
            return [prefix]
        return []

    # -- decision and export --------------------------------------------------------------

    def _reconverge(self, prefixes: List[Prefix]) -> None:
        """Re-run the decision process for ``prefixes`` and export changes."""
        changes: List[RibChange] = []
        for prefix in dict.fromkeys(prefixes):  # dedupe, keep order
            candidates = self.adj_rib_in.candidates(prefix)
            static = self.static_routes.get(prefix)
            if static is not None:
                candidates = candidates + [static]
            best = best_route(candidates)
            current = self.loc_rib.get(prefix)
            if best is None:
                change = self.loc_rib.withdraw(prefix)
                if change is not None:
                    changes.append(change)
            elif not routes_equal(best, current):
                changes.append(self.loc_rib.install(best))
        for change in changes:
            self.counters.increment("locrib_changes")
            self._export_change(change)

    def _export_change(self, change: RibChange) -> None:
        """Advertise or withdraw one Loc-RIB change toward every established peer.

        Peers sharing an export filter form an update group: the filter
        and the eBGP rewrite run once per group, and the UPDATE is encoded
        once and sent as the same bytes to each member.  Only the
        Adj-RIB-Out record, the already-advertised check and the counters
        are per peer.  Peers are still visited in ``self.sessions`` order,
        so the event schedule is that of a per-peer export.
        """
        route = change.new
        groups: Dict[str, Optional[PathAttributes]] = {}
        payloads: Dict[str, bytes] = {}
        withdrawal: Optional[bytes] = None
        for peer_id, session in self.sessions.items():
            if not session.established:
                continue
            if route is not None and route.peer != peer_id:
                group = session.peer.export_filter
                if group not in groups:
                    groups[group] = self._export_attributes(group, route)
                attributes = groups[group]
                if attributes is not None:
                    exported = Route(
                        prefix=route.prefix,
                        attributes=attributes,
                        peer=peer_id,
                        source=route.source,
                        learned_at=route.learned_at,
                    )
                    previous = self.adj_rib_out.advertised(peer_id, change.prefix)
                    if previous is None or not routes_equal(previous, exported):
                        self.adj_rib_out.record(peer_id, exported)
                        if group not in payloads:
                            payloads[group] = UpdateMessage(
                                attributes=attributes,
                                nlri=[NlriEntry.from_prefix(change.prefix)],
                            ).encode()
                        self._send(peer_id, "UpdateMessage", payloads[group])
                        self.counters.increment("updates_sent")
                    continue
            # Route gone, learned from this peer, or export-rejected:
            # withdraw if it had been advertised.
            if self.adj_rib_out.remove(peer_id, change.prefix) is not None:
                if withdrawal is None:
                    withdrawal = UpdateMessage(
                        withdrawn=[NlriEntry.from_prefix(change.prefix)]
                    ).encode()
                self._send(peer_id, "UpdateMessage", withdrawal)
                self.counters.increment("withdrawals_sent")

    def _export_attributes(
        self, export_filter: str, route: Route
    ) -> Optional[PathAttributes]:
        """Export filter + eBGP attribute rewriting; None when rejected.

        A function of the filter name and the route alone: a filter sees
        no peer (:class:`RouteView` has none) and the rewrite uses only
        this router's identity, so one result serves a whole update group.
        """
        # RFC 1997 well-known communities: NO_ADVERTISE blocks every peer,
        # NO_EXPORT blocks eBGP peers (all sessions here are eBGP).  The
        # membership test runs before the filter so a symbolic community
        # value makes this a recorded, negatable branch.
        if route.attributes.has_community(NO_ADVERTISE):
            return None
        if route.attributes.has_community(NO_EXPORT):
            return None
        view = RouteView.of(route.prefix.network, route.prefix.length, route.attributes)
        result = self.interpreter.run(self.config.filter_named(export_filter), view)
        if not result.accepted:
            return None
        attrs = result.attributes
        return replace(
            attrs,
            as_path=attrs.as_path.prepend(self.config.asn),
            next_hop=self.config.router_id,
            local_pref=None,  # LOCAL_PREF is not sent on eBGP sessions
        )

    def _send_full_table(self, peer_id: str) -> None:
        """Advertise the whole Loc-RIB to a newly established peer.

        Routes sharing identical exported attributes are batched into
        UPDATEs carrying up to :data:`MAX_NLRI_PER_UPDATE` NLRI entries —
        how real speakers dump tables without one message per prefix.
        """
        export_filter = self.sessions[peer_id].peer.export_filter
        batches: Dict[bytes, Tuple[PathAttributes, List[NlriEntry]]] = {}
        for prefix, route in self.loc_rib.items():
            if route.peer == peer_id:
                continue
            attributes = self._export_attributes(export_filter, route)
            if attributes is None:
                continue
            self.adj_rib_out.record(peer_id, Route(
                prefix=route.prefix,
                attributes=attributes,
                peer=peer_id,
                source=route.source,
                learned_at=route.learned_at,
            ))
            key = encode_attributes(attributes)
            if key not in batches:
                batches[key] = (attributes, [])
            batches[key][1].append(NlriEntry.from_prefix(prefix))
        for attributes, entries in batches.values():
            for start in range(0, len(entries), MAX_NLRI_PER_UPDATE):
                chunk = entries[start:start + MAX_NLRI_PER_UPDATE]
                self._transmit(
                    peer_id,
                    UpdateMessage(attributes=attributes, nlri=chunk),
                )
                self.counters.increment("updates_sent")

    def _drop_peer_routes(self, peer_id: str) -> None:
        """Session died: flush its routes and reconverge."""
        prefixes = self.adj_rib_in.drop_peer(peer_id)
        self.adj_rib_out.drop_peer(peer_id)
        if prefixes:
            self._reconverge(prefixes)

    # -- operator actions (the fault-workload injection surface) ------------------------------

    def originate(self, prefix: Prefix) -> None:
        """Start locally originating ``prefix`` and advertise it.

        Unlike the constructor-time origination this runs the decision
        process immediately, so established peers receive the
        announcement — the MOAS-conflict workload drives this on a clone
        to make two domains claim the same space.
        """
        self._originate(prefix)
        self._reconverge([prefix])

    def withdraw_origination(self, prefix: Prefix) -> bool:
        """Stop originating ``prefix``; withdraws it from peers if it was best.

        Returns False when the prefix was not locally originated.
        """
        if self.static_routes.pop(prefix, None) is None:
            return False
        self._reconverge([prefix])
        return True

    def apply_config(self, config: Union[RouterConfig, str]) -> None:
        """Hot-swap policy configuration without touching session state.

        The neighbor set must be unchanged (this models a policy edit,
        not a re-provisioning).  Sessions keep their FSM state; imports
        and exports from now on run the new filters.  Deliberately *no*
        revalidation of Adj-RIB-In happens — like a router without
        route-refresh, previously accepted routes linger until the peer
        re-announces, which is exactly the transient the rolling
        reconfiguration workload probes.
        """
        if isinstance(config, str):
            config = parse_config_cached(config)
        if set(config.neighbors) != set(self.sessions):
            raise ConfigError(
                f"apply_config on {self.node_id!r} changes the neighbor set "
                f"({sorted(self.sessions)} -> {sorted(config.neighbors)}); "
                "only policy edits are hot-swappable"
            )
        self.config = config
        self.interpreter = FilterInterpreter(config.prefix_sets)
        for peer_id, session in self.sessions.items():
            session.peer = config.neighbors[peer_id]

    # -- timers -----------------------------------------------------------------------------

    def tick(self) -> None:
        """Periodic maintenance: hold timers and keepalives."""
        for peer_id, session in self.sessions.items():
            fsm = self._fsm(session)
            for message in fsm.check_hold_timer(self.now):
                self._transmit(peer_id, message)
                self._drop_peer_routes(peer_id)
            for message in fsm.keepalive_tick(self.now):
                self._transmit(peer_id, message)

    # -- checkpointing (Checkpointable protocol) ----------------------------------------------

    def checkpoint_state(self) -> dict:
        return {
            "node_id": self.node_id,
            "config": self.config,
            "sessions": self.sessions,
            "adj_rib_in": self.adj_rib_in,
            "loc_rib": self.loc_rib,
            "adj_rib_out": self.adj_rib_out,
            "static_routes": self.static_routes,
            "counters": self.counters,
        }

    def snapshot_segments(self) -> Dict[str, bytes]:
        """Serialized state as independently paged memory regions.

        RIB contents are split into hash-stable buckets serialized
        separately, modeling heap objects at stable addresses: a change to
        one route dirties only its bucket's page(s), so copy-on-write page
        accounting (section 4.1) behaves like it would for a forked C
        process, instead of every page changing whenever one pickle byte
        shifts.  A clone's exploration buffers (captured outbound
        messages) are part of its image — they are memory the forked
        explorer process would own.
        """
        protocol = pickle.HIGHEST_PROTOCOL
        segments = {
            "config": pickle.dumps(self.config, protocol),
            "sessions": pickle.dumps(self.sessions, protocol),
            "counters": pickle.dumps(self.counters, protocol),
        }
        loc_items = [
            (prefix.key(), route) for prefix, route in self.loc_rib.items()
        ]
        for name, blob in _bucketized("loc_rib", loc_items):
            segments[name] = blob
        in_items = [
            ((peer, prefix.key()), route)
            for peer in self.adj_rib_in.peers()
            for prefix in self.adj_rib_in.peer_prefixes(peer)
            for route in (self.adj_rib_in.get(peer, prefix),)
        ]
        for name, blob in _bucketized("adj_rib_in", in_items):
            segments[name] = blob
        out_items = []
        for peer in list(self.sessions):
            for prefix in self.adj_rib_out.peer_prefixes(peer):
                out_items.append(((peer, prefix.key()), self.adj_rib_out.advertised(peer, prefix)))
        for name, blob in _bucketized("adj_rib_out", out_items):
            segments[name] = blob
        captured = getattr(self.env, "captured", None)
        if captured:
            segments["exploration_buffers"] = pickle.dumps(captured, protocol)
        return segments

    @staticmethod
    def fork_state(state: dict) -> dict:
        """A private copy of a ``checkpoint_state()`` dict: the fork.

        RIB tables are copied per peer at C speed and share their
        :class:`Route` values (never mutated once in a RIB); the small
        mutable parts are copied structurally.  Every shared ``str`` /
        ``Route`` keeps its identity, so a fork serializes — whole or per
        snapshot segment — to exactly the bytes the original does.
        """
        config = state["config"].fork()
        return {
            "node_id": state["node_id"],
            "config": config,
            "sessions": {
                peer_id: replace(session, peer=config.neighbors[peer_id])
                for peer_id, session in state["sessions"].items()
            },
            "adj_rib_in": state["adj_rib_in"].fork(),
            "loc_rib": state["loc_rib"].fork(),
            "adj_rib_out": state["adj_rib_out"].fork(),
            "static_routes": dict(state["static_routes"]),
            "counters": state["counters"].fork(),
        }

    @classmethod
    def restore_from_state(cls, state: dict, env: Environment) -> "BgpRouter":
        router = cls.__new__(cls)
        SimNode.__init__(router, state["node_id"], env)
        router.config = state["config"]
        router.interpreter = FilterInterpreter(router.config.prefix_sets)
        router.sessions = state["sessions"]
        router.adj_rib_in = state["adj_rib_in"]
        router.loc_rib = state["loc_rib"]
        router.adj_rib_out = state["adj_rib_out"]
        router.static_routes = state["static_routes"]
        router.counters = state["counters"]
        return router

    # -- introspection ---------------------------------------------------------------------------

    def established_peers(self) -> List[str]:
        return [pid for pid, s in self.sessions.items() if s.established]

    def table_size(self) -> int:
        return len(self.loc_rib)

    def describe(self) -> str:
        return (
            f"BgpRouter({self.node_id}, AS{self.config.asn}, "
            f"{len(self.loc_rib)} routes, peers={self.established_peers()})"
        )
