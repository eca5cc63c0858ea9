"""First convergence is pinned byte for byte, not assumed.

The digests below were computed before update groups and the decode
memo existed, from the one-export-per-peer, decode-every-delivery
router.  They cover every router's Loc-RIB and Adj-RIB-Out (each route
pickled on its own, exactly as checkpoint segments ship it), its
counters and per-session message counts, plus the simulator's event
count and the network's message and byte totals.  An optimisation of
the convergence path must leave all of it unchanged.
"""

import hashlib
import pickle

import pytest

from repro.core import get_scenario

#: scenario name, build overrides -> sha256 of :func:`convergence_digest`.
PINNED = {
    ("hierarchical-50", ()):
        "6aa3d2fcb699b29a5250b99bda76ccdb6a65aea135cdf8e505d8f7510fcceca2",
    ("tiered-8", ()):
        "ac0072919474df761217a2abcd330df893ea8582b9eea7cf498eccac8ce32751",
    ("fig2", (("prefix_count", 2000), ("update_count", 200))):
        "4df3bffe1260da63f36f16f648d4e4891d05f6d8be916ba6287aa6b91c78415a",
}


def convergence_digest(built) -> str:
    digest = hashlib.sha256()
    for name in sorted(built.routers):
        router = built.routers[name]
        digest.update(name.encode())
        for prefix, route in router.loc_rib.items():
            digest.update(pickle.dumps(route, pickle.HIGHEST_PROTOCOL))
        for (peer, prefix), route in router.adj_rib_out.delta_items().items():
            digest.update(peer.encode())
            digest.update(pickle.dumps(route, pickle.HIGHEST_PROTOCOL))
        digest.update(repr(sorted(router.counters.snapshot().items())).encode())
        digest.update(repr([
            (peer, session.state.name, session.messages_out)
            for peer, session in router.sessions.items()
        ]).encode())
    digest.update(repr((
        built.host.sim.events_executed,
        built.host.network.total_messages,
        built.host.network.total_bytes,
    )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: key[0])
def test_convergence_matches_pinned_digest(key):
    name, overrides = key
    built = get_scenario(name).build(**dict(overrides))
    built.converge()
    assert convergence_digest(built) == PINNED[key]
