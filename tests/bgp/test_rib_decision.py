"""Tests for the RIBs and the decision process."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import (
    AsPath,
    ORIGIN_EGP,
    ORIGIN_IGP,
    ORIGIN_INCOMPLETE,
    PathAttributes,
)
from repro.bgp.decision import best_route, prefer, rank_routes, routes_equal
from repro.bgp.rib import (
    AdjRibIn,
    AdjRibOut,
    ChangeKind,
    LocRib,
    Route,
    RouteSource,
)
from repro.util.ip import Prefix, PrefixTrie, ip_to_int

P = Prefix.parse


def route(
    prefix="10.0.0.0/8",
    peer="peer1",
    path=(65001,),
    local_pref=None,
    med=None,
    origin=ORIGIN_IGP,
    source=RouteSource.EBGP,
    learned_at=0.0,
):
    return Route(
        prefix=P(prefix),
        attributes=PathAttributes(
            origin=origin,
            as_path=AsPath.sequence(list(path)),
            next_hop=1,
            med=med,
            local_pref=local_pref,
        ),
        peer=peer,
        source=source,
        learned_at=learned_at,
    )


class TestAdjRibIn:
    def test_install_and_replace(self):
        rib = AdjRibIn()
        first = route()
        assert rib.install("p1", first) is None
        second = route(path=(65001, 65002))
        assert rib.install("p1", second) is first
        assert rib.get("p1", P("10.0.0.0/8")) is second

    def test_candidates_across_peers(self):
        rib = AdjRibIn()
        rib.install("p1", route(peer="p1"))
        rib.install("p2", route(peer="p2"))
        rib.install("p2", route(prefix="11.0.0.0/8", peer="p2"))
        assert len(rib.candidates(P("10.0.0.0/8"))) == 2

    def test_withdraw(self):
        rib = AdjRibIn()
        rib.install("p1", route())
        assert rib.withdraw("p1", P("10.0.0.0/8")) is not None
        assert rib.withdraw("p1", P("10.0.0.0/8")) is None
        assert rib.withdraw("ghost", P("10.0.0.0/8")) is None

    def test_drop_peer(self):
        rib = AdjRibIn()
        rib.install("p1", route())
        rib.install("p1", route(prefix="11.0.0.0/8"))
        dropped = rib.drop_peer("p1")
        assert sorted(str(p) for p in dropped) == ["10.0.0.0/8", "11.0.0.0/8"]
        assert rib.route_count() == 0

    def test_len(self):
        rib = AdjRibIn()
        rib.install("p1", route())
        rib.install("p2", route(peer="p2"))
        assert len(rib) == 2


class TestLocRib:
    def test_install_kinds(self):
        rib = LocRib()
        change = rib.install(route())
        assert change.kind == ChangeKind.INSTALL and change.old is None
        change = rib.install(route(path=(65009,)))
        assert change.kind == ChangeKind.REPLACE and change.old is not None

    def test_withdraw(self):
        rib = LocRib()
        rib.install(route())
        change = rib.withdraw(P("10.0.0.0/8"))
        assert change.kind == ChangeKind.WITHDRAW
        assert rib.withdraw(P("10.0.0.0/8")) is None
        assert len(rib) == 0

    def test_longest_match(self):
        rib = LocRib()
        rib.install(route(prefix="10.0.0.0/8"))
        rib.install(route(prefix="10.1.0.0/16", path=(65002,)))
        best = rib.longest_match(ip_to_int("10.1.2.3"))
        assert best.prefix == P("10.1.0.0/16")
        assert rib.longest_match(ip_to_int("11.0.0.0")) is None

    def test_covering_and_covered(self):
        rib = LocRib()
        rib.install(route(prefix="10.0.0.0/8"))
        rib.install(route(prefix="10.1.0.0/16"))
        covering = rib.covering(P("10.1.2.0/24"))
        assert [str(p) for p, _ in covering] == ["10.0.0.0/8", "10.1.0.0/16"]
        covered = rib.covered_by(P("10.0.0.0/8"))
        assert {str(p) for p, _ in covered} == {"10.0.0.0/8", "10.1.0.0/16"}

    def test_origin_of(self):
        rib = LocRib()
        rib.install(route(path=(65001, 65077)))
        assert rib.origin_of(P("10.0.0.0/8")) == 65077
        assert rib.origin_of(P("99.0.0.0/8")) is None

    def test_contains(self):
        rib = LocRib()
        rib.install(route())
        assert P("10.0.0.0/8") in rib
        assert P("11.0.0.0/8") not in rib


class TestAdjRibOut:
    def test_record_and_remove(self):
        rib = AdjRibOut()
        rib.record("p1", route())
        assert rib.advertised("p1", P("10.0.0.0/8")) is not None
        assert rib.remove("p1", P("10.0.0.0/8")) is not None
        assert rib.remove("p1", P("10.0.0.0/8")) is None

    def test_drop_peer(self):
        rib = AdjRibOut()
        rib.record("p1", route())
        rib.drop_peer("p1")
        assert rib.route_count() == 0


class TestDecisionProcess:
    def test_local_pref_wins(self):
        low = route(peer="a", local_pref=100, path=(1, 2, 3))
        high = route(peer="b", local_pref=200, path=(1, 2, 3, 4, 5))
        assert prefer(low, high) is high

    def test_default_local_pref_is_100(self):
        explicit = route(peer="a", local_pref=99)
        default = route(peer="b")  # None -> 100
        assert prefer(explicit, default) is default

    def test_shorter_path_wins(self):
        short = route(peer="a", path=(1, 2))
        long = route(peer="b", path=(1, 2, 3))
        assert prefer(long, short) is short

    def test_origin_code_wins(self):
        igp = route(peer="a", origin=ORIGIN_IGP)
        egp = route(peer="b", origin=ORIGIN_EGP)
        incomplete = route(peer="c", origin=ORIGIN_INCOMPLETE)
        assert prefer(egp, igp) is igp
        assert prefer(incomplete, egp) is egp

    def test_med_compared_same_neighbor_only(self):
        low_med = route(peer="a", path=(65001, 9), med=10)
        high_med = route(peer="b", path=(65001, 9), med=50)
        assert prefer(high_med, low_med) is low_med
        # Different neighbor AS: MED ignored, falls through to peer id.
        other = route(peer="a", path=(65002, 9), med=99)
        same = route(peer="b", path=(65001, 9), med=1)
        assert prefer(other, same) is other  # tie-break on peer id a < b

    def test_missing_med_treated_as_zero(self):
        no_med = route(peer="a", path=(65001, 9))
        with_med = route(peer="b", path=(65001, 9), med=5)
        assert prefer(with_med, no_med) is no_med

    def test_ebgp_over_ibgp(self):
        ebgp = route(peer="b", source=RouteSource.EBGP)
        ibgp = route(peer="a", source=RouteSource.IBGP)
        assert prefer(ibgp, ebgp) is ebgp

    def test_peer_id_tiebreak(self):
        first = route(peer="alpha")
        second = route(peer="beta")
        assert prefer(second, first) is first

    def test_best_route_empty(self):
        assert best_route([]) is None

    def test_best_route_single(self):
        only = route()
        assert best_route([only]) is only

    def test_rank_routes_orders_strictly(self):
        candidates = [
            route(peer="c", local_pref=50),
            route(peer="a", local_pref=300),
            route(peer="b", local_pref=200),
        ]
        ranked = rank_routes(candidates)
        assert [r.peer for r in ranked] == ["a", "b", "c"]

    def test_routes_equal(self):
        assert routes_equal(route(), route())
        assert not routes_equal(route(), route(path=(9,)))
        assert not routes_equal(route(), None)
        assert routes_equal(None, None)
        assert not routes_equal(route(med=None), route(med=5))
        # Missing MED compares equal to explicit zero.
        assert routes_equal(route(med=None), route(med=0))


# -- the Loc-RIB's prefix index is lazy, derived, and never travels -------------

#: A small prefix space with nesting, so covering/covered-by have answers.
_POOL = [
    P(text) for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25",
        "10.2.0.0/16", "11.0.0.0/8", "192.168.0.0/16", "192.168.7.0/24",
    )
]
_prefix = st.sampled_from(_POOL)
_mutation = st.one_of(
    st.tuples(st.just("install"), _prefix, st.integers(1, 65000)),
    st.tuples(st.just("withdraw"), _prefix, st.just(0)),
)


def mutate(rib, table, steps):
    """Apply ``steps`` to the Loc-RIB and to the plain-dict model."""
    for kind, prefix, asn in steps:
        if kind == "install":
            entry = route(prefix=str(prefix), path=(asn,))
            rib.install(entry)
            table[prefix] = entry
        else:
            rib.withdraw(prefix)
            table.pop(prefix, None)


def assert_index_matches(rib, table):
    """Every index query equals an eagerly built trie over the same routes."""
    eager = PrefixTrie(table.items())
    for prefix in _POOL:
        assert rib.covering(prefix) == list(eager.covering(prefix))
        assert rib.covered_by(prefix) == list(eager.covered_by(prefix))
        hit = eager.longest_match(prefix.network | 1)
        assert rib.longest_match(prefix.network | 1) == (hit and hit[1])
    assert dict(rib.items()) == table


class TestLazyLocRibIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_mutation, max_size=12), st.lists(_mutation, max_size=12))
    def test_first_query_before_between_or_after_mutations(self, first, second):
        for query_at in (0, 1, 2):
            rib, table = LocRib(), {}
            if query_at == 0:
                assert_index_matches(rib, table)
            mutate(rib, table, first)
            if query_at == 1:
                assert_index_matches(rib, table)
            mutate(rib, table, second)
            assert_index_matches(rib, table)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_mutation, max_size=12), st.lists(_mutation, max_size=8),
           st.booleans())
    def test_index_survives_pickle_and_delta_items(self, first, second, built):
        rib, table = LocRib(), {}
        mutate(rib, table, first)
        if built:
            rib.covering(_POOL[0])
        blob = pickle.dumps(rib, pickle.HIGHEST_PROTOCOL)
        assert b"_TrieNode" not in blob and b"PrefixTrie" not in blob
        for copy in (pickle.loads(blob), LocRib.from_delta_items(rib.delta_items())):
            model = dict(table)
            assert copy._trie is None
            mutate(copy, model, second)
            assert_index_matches(copy, model)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_mutation, max_size=12), st.lists(_mutation, max_size=8),
           st.lists(_mutation, max_size=8), st.booleans())
    def test_fork_then_divergent_writes(self, shared, ours, theirs, built):
        rib, table = LocRib(), {}
        mutate(rib, table, shared)
        if built:
            rib.covered_by(_POOL[0])
        fork, fork_table = rib.fork(), dict(table)
        assert fork._trie is None
        mutate(rib, table, ours)
        mutate(fork, fork_table, theirs)
        assert_index_matches(rib, table)
        assert_index_matches(fork, fork_table)

    def test_index_is_not_built_by_the_update_path(self):
        rib = LocRib()
        rib.install(route())
        rib.withdraw(P("10.0.0.0/8"))
        rib.install(route())
        assert rib.get(P("10.0.0.0/8")) is not None and P("10.0.0.0/8") in rib
        assert rib._trie is None


class TestRouteIsAValue:
    def test_route_fields_cannot_be_assigned(self):
        entry = route()
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.peer = "someone-else"
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.attributes = PathAttributes()
        rebuilt = entry.with_attributes(PathAttributes(local_pref=7))
        assert rebuilt.local_pref() == 7 and entry.local_pref() == 100

    def test_adj_rib_forks_share_routes_not_tables(self):
        for rib_type, write in (
            (AdjRibIn, lambda rib, entry: rib.install("p1", entry)),
            (AdjRibOut, lambda rib, entry: rib.record("p1", entry)),
        ):
            rib = rib_type()
            first = route()
            write(rib, first)
            fork = rib.fork()
            assert type(fork) is rib_type
            write(fork, route(prefix="10.9.0.0/16"))
            write(fork, route(path=(65444,)))
            assert rib.delta_items() == {("p1", P("10.0.0.0/8")): first}
            assert fork.delta_items()[("p1", P("10.0.0.0/8"))] is not first
            assert fork.route_count() == 2
