"""Update groups export exactly what per-peer export would.

The router runs each export filter once per Loc-RIB change and sends
one encoding to every established peer sharing that filter.  The
reference here is the per-peer export it replaced, written out
independently: for every established peer, run the peer's filter on a
fresh view, rewrite for eBGP, and advertise or withdraw against what
that peer was last sent.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import NO_ADVERTISE, NO_EXPORT, AsPath, PathAttributes
from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.decision import routes_equal
from repro.bgp.fsm import SessionState
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.bgp.policy import (
    AddCommunity,
    AsPathContains,
    AttrCompare,
    CommunityHas,
    FilterAction,
    FilterInterpreter,
    FilterProgram,
    If,
    Prepend,
    RouteView,
    SetAttr,
    Terminal,
)
from repro.bgp.router import BgpRouter
from repro.bgp.wire import as_concrete_int
from repro.concolic.env import RecordingEnvironment
from repro.util.ip import Prefix

ASN = 65010
ASNS = (65001, 65002, 65003, 777)
COMMUNITIES = (100, 200, NO_EXPORT)
PREFIXES = tuple(Prefix.parse(text) for text in ("10.1.0.0/16", "10.2.3.0/24", "10.4.0.0/22"))

_terminals = st.builds(Terminal, st.sampled_from(list(FilterAction)))
_conditions = st.one_of(
    st.builds(
        AttrCompare,
        st.sampled_from(["net.len", "local-pref", "med", "as-path.len"]),
        st.sampled_from(["==", "<", ">="]),
        st.integers(0, 200),
    ),
    st.builds(CommunityHas, st.sampled_from(COMMUNITIES)),
    st.builds(AsPathContains, st.sampled_from(ASNS)),
)
_actions = st.one_of(
    st.builds(SetAttr, st.sampled_from(["local-pref", "med"]), st.integers(0, 300)),
    st.builds(AddCommunity, st.sampled_from(COMMUNITIES)),
    st.builds(Prepend, st.sampled_from(ASNS), st.integers(1, 2)),
)
_statements = st.one_of(
    _actions,
    st.builds(
        If,
        _conditions,
        st.lists(st.one_of(_actions, _terminals), min_size=1, max_size=2).map(tuple),
    ),
)
export_programs = st.builds(
    lambda name, body, last: FilterProgram(name, tuple(body) + (last,)),
    st.just("<gen>"),
    st.lists(_statements, max_size=3),
    _terminals,
)

#: Each group peer's export filter, in session order; three to five per filter.
peer_layouts = st.tuples(st.integers(3, 5), st.integers(3, 5)).flatmap(
    lambda counts: st.permutations(["down"] * counts[0] + ["up"] * counts[1])
)

steps = st.lists(
    st.tuples(
        st.integers(0, len(PREFIXES) - 1),   # prefix
        st.integers(0, 7),                   # announcing peer (index, 0 = src)
        st.one_of(                           # None = withdraw
            st.none(),
            st.tuples(
                st.lists(st.sampled_from(ASNS), min_size=1, max_size=3),
                st.one_of(st.none(), st.integers(0, 300)),
                st.one_of(st.none(), st.integers(0, 300)),
                st.lists(st.sampled_from(COMMUNITIES), max_size=2, unique=True),
            ),
        ),
    ),
    min_size=1,
    max_size=6,
)


def build_router(layout, established, down, up):
    neighbors = {"src": NeighborConfig("src", 64999, export_filter="down")}
    for index, name in enumerate(layout):
        neighbors[f"p{index}"] = NeighborConfig(f"p{index}", 64000 + index, export_filter=name)
    config = RouterConfig(
        asn=ASN,
        router_id=0x0A0000FE,
        filters={"down": replace(down, name="down"), "up": replace(up, name="up")},
        neighbors=neighbors,
    )
    config.validate()
    env = RecordingEnvironment()
    router = BgpRouter("r", env, config)
    for peer, session in router.sessions.items():
        if peer == "src" or established[int(peer[1:]) % len(established)]:
            session.state = SessionState.ESTABLISHED
    return router, env


def reference_export(router, peer_id, route):
    """What a per-peer export advertises to ``peer_id`` (None: nothing)."""
    if route is None or route.peer == peer_id:
        return None
    communities = [as_concrete_int(c) for c in route.attributes.communities]
    if NO_ADVERTISE in communities or NO_EXPORT in communities:
        return None
    config = router.config
    view = RouteView.of(route.prefix.network, route.prefix.length, route.attributes)
    program = config.filter_named(config.neighbors[peer_id].export_filter)
    result = FilterInterpreter(config.prefix_sets).run(program, view)
    if not result.accepted:
        return None
    attrs = replace(
        result.attributes,
        as_path=result.attributes.as_path.prepend(ASN),
        next_hop=config.router_id,
        local_pref=None,
    )
    return replace(route, attributes=attrs, peer=peer_id)


@settings(max_examples=150, deadline=None)
@given(
    peer_layouts,
    st.lists(st.booleans(), min_size=1, max_size=8),
    export_programs,
    export_programs,
    steps,
)
def test_grouped_export_equals_per_peer_export(layout, established, down, up, script):
    router, env = build_router(layout, established, down, up)
    live = [peer for peer, session in router.sessions.items() if session.established]
    sent_total = dict.fromkeys(router.sessions, 0)
    for prefix_index, speaker_index, announcement in script:
        prefix = PREFIXES[prefix_index]
        speaker = live[speaker_index % len(live)]
        before = {peer: router.adj_rib_out.advertised(peer, prefix) for peer in live}
        env.sent.clear()
        if announcement is None:
            update = UpdateMessage(withdrawn=[NlriEntry.from_prefix(prefix)])
        else:
            asns, med, local_pref, communities = announcement
            update = UpdateMessage(
                attributes=PathAttributes(
                    as_path=AsPath.sequence(list(asns)),
                    next_hop=7,
                    med=med,
                    local_pref=local_pref,
                    communities=tuple(communities),
                ),
                nlri=[NlriEntry.from_prefix(prefix)],
            )
        router.handle_update(speaker, update)

        best = router.loc_rib.get(prefix)
        announce_payloads = set()
        for peer in router.sessions:
            sent = [m.payload for m in env.sent if m.destination == peer]
            sent_total[peer] += len(sent)
            if peer not in live:
                assert sent == [] and router.adj_rib_out.peer_prefixes(peer) == []
                continue
            expected = reference_export(router, peer, best)
            assert router.adj_rib_out.advertised(peer, prefix) == expected
            previous = before[peer]
            if expected is None:
                wire = [] if previous is None else [
                    UpdateMessage(withdrawn=[NlriEntry.from_prefix(prefix)]).encode()
                ]
            elif previous is None or not routes_equal(previous, expected):
                wire = [UpdateMessage(
                    attributes=expected.attributes,
                    nlri=[NlriEntry.from_prefix(prefix)],
                ).encode()]
                announce_payloads.update(id(payload) for payload in sent)
            else:
                wire = []
            assert sent == wire
        # One encoding per export filter, shared by the group's members.
        assert len(announce_payloads) <= 2
    for peer, session in router.sessions.items():
        assert session.messages_out == sent_total[peer]
    assert router.counters["sent_UpdateMessage"] == sum(sent_total.values())
