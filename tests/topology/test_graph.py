"""Tests for the AS-graph model, policy synthesis, and materialization."""

import pytest

from repro.bgp.config import parse_config
from repro.topology import AsGraph, TAG, build_routers, render_config
from repro.topology.generators import line, ring, star, tiered
from repro.util.errors import TopologyError
from repro.util.ip import Prefix
from repro.util.memo import registry

P = Prefix.parse


def small_hierarchy() -> AsGraph:
    """provider -> (left, right) -> stub: a diamond-free 2-level tree."""
    graph = AsGraph("tree")
    graph.add_as("top", role="tier1", networks=(P("10.1.0.0/16"),))
    graph.add_as("left", role="tier2", networks=(P("10.2.0.0/16"),))
    graph.add_as("right", role="tier2", networks=(P("10.3.0.0/16"),))
    graph.add_as("leaf", networks=(P("10.4.0.0/16"),))
    graph.transit("top", "left")
    graph.transit("top", "right")
    graph.transit("left", "leaf")
    graph.peer("left", "right")
    return graph


class TestGraphModel:
    def test_relations_and_neighbors(self):
        graph = small_hierarchy()
        assert graph.customers_of("top") == ["left", "right"]
        assert graph.providers_of("leaf") == ["left"]
        assert graph.peers_of("left") == ["right"]
        relations = {peer: rel for peer, rel, _ in graph.neighbors("left")}
        assert relations == {"top": "provider", "leaf": "customer", "right": "peer"}

    def test_customer_cone_is_recursive(self):
        graph = small_hierarchy()
        assert graph.customer_cone("leaf") == [P("10.4.0.0/16")]
        assert set(graph.customer_cone("left")) == {P("10.2.0.0/16"), P("10.4.0.0/16")}
        assert len(graph.customer_cone("top")) == 4

    def test_validate_accepts_well_formed(self):
        small_hierarchy().validate()

    def test_validate_rejects_transit_cycle(self):
        graph = AsGraph("cycle")
        for name in ("a", "b", "c"):
            graph.add_as(name, networks=(P(f"10.{ord(name) - 96}.0.0/16"),))
        graph.transit("a", "b")
        graph.transit("b", "c")
        graph.transit("c", "a")
        with pytest.raises(TopologyError, match="cycle"):
            graph.validate()

    def test_validate_rejects_disconnected(self):
        graph = AsGraph("islands")
        graph.add_as("a", networks=(P("10.1.0.0/16"),))
        graph.add_as("b", networks=(P("10.2.0.0/16"),))
        graph.add_as("c", networks=(P("10.3.0.0/16"),))
        graph.transit("a", "b")
        with pytest.raises(TopologyError, match="disconnected"):
            graph.validate()

    def test_validate_rejects_duplicate_asn_and_prefix(self):
        graph = AsGraph("dup-asn")
        graph.add_as("a", asn=65001)
        graph.add_as("b", asn=65001)
        graph.transit("a", "b")
        with pytest.raises(TopologyError, match="ASN"):
            graph.validate()
        moas = AsGraph("dup-prefix")
        moas.add_as("a", networks=(P("10.1.0.0/16"),))
        moas.add_as("b", networks=(P("10.1.0.0/16"),))
        moas.transit("a", "b")
        with pytest.raises(TopologyError, match="originated by both"):
            moas.validate()

    def test_edge_bookkeeping(self):
        graph = small_hierarchy()
        edge = graph.edge_between("left", "top")
        assert edge is not None and edge.relation_of("top") == "customer"
        assert graph.latency("left", "top") == edge.latency
        assert graph.latency("top", "leaf", default=0.5) == 0.5  # no edge
        with pytest.raises(TopologyError):
            graph.transit("top", "left")  # duplicate pair
        with pytest.raises(TopologyError):
            graph.peer("top", "top")

    def test_origin_lookup(self):
        graph = small_hierarchy()
        assert graph.origin_of(P("10.3.0.0/16")) == "right"
        assert graph.origin_of(P("10.99.0.0/16")) is None


class TestConfigSynthesis:
    def test_rendered_config_parses_and_references_resolve(self):
        graph = small_hierarchy()
        for name in graph.nodes:
            config = parse_config(render_config(graph, name))
            assert config.asn == graph.nodes[name].asn
            assert set(config.neighbors) == {
                peer for peer, _, _ in graph.neighbors(name)
            }

    def test_correct_mode_renders_cone_prefix_set(self):
        graph = small_hierarchy()
        graph.nodes["left"].filter_mode = "correct"
        text = render_config(graph, "left")
        assert "prefix-set CONE-leaf" in text
        assert "10.4.0.0/16 le 24;" in text
        config = parse_config(text)
        assert config.neighbors["leaf"].import_filter == "cust-in-leaf"

    def test_erroneous_mode_renders_the_length_hole(self):
        graph = small_hierarchy()
        graph.nodes["left"].filter_mode = "erroneous"
        text = render_config(graph, "left")
        assert "net.len >= 16 and net.len <= 24" in text

    def test_gao_rexford_tags_present(self):
        text = render_config(small_hierarchy(), "left")
        for tag in TAG.values():
            assert str(tag) in text
        config = parse_config(text)
        assert config.neighbors["top"].export_filter == "export-up"
        assert config.neighbors["leaf"].export_filter == "export-down"

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            render_config(small_hierarchy(), "nobody")


class TestMaterialization:
    def test_line_converges_full_visibility(self):
        graph = line(3, seed=1)
        host, routers = build_routers(graph)
        host.run()
        total = sum(len(node.networks) for node in graph.nodes.values())
        for name, router in routers.items():
            assert router.table_size() == total, name
            assert sorted(router.established_peers()) == sorted(
                peer for peer, _, _ in graph.neighbors(name)
            )

    def test_peering_ring_is_valley_free(self):
        """A peer's routes must not transit another peer (no valleys)."""
        graph = ring(4, seed=3)
        host, routers = build_routers(graph)
        host.run()
        # as0 peers with as1 and as3; as2 is two peer hops away, and
        # peer-learned routes are never re-exported to peers.
        as2_net = graph.nodes["as2"].networks[0]
        assert as2_net in routers["as1"].loc_rib
        assert as2_net not in routers["as0"].loc_rib

    def test_tiered_stub_sees_everything_through_providers(self):
        graph = tiered(2, 2, 2, seed=9)
        host, routers = build_routers(graph)
        host.run()
        total = sum(len(node.networks) for node in graph.nodes.values())
        stubs = [n.name for n in graph.nodes.values() if n.role == "stub"]
        for stub in stubs:
            assert routers[stub].table_size() == total

    def test_customer_routes_preferred_over_peer(self):
        """The local-pref ladder: a customer path beats a peer path."""
        graph = AsGraph("pref")
        graph.add_as("x", networks=(P("10.1.0.0/16"),))
        graph.add_as("y", networks=(P("10.2.0.0/16"),))
        graph.add_as("z", networks=(P("10.3.0.0/16"),))
        graph.transit("x", "z")   # z is x's customer
        graph.peer("x", "y")
        graph.peer("y", "z")
        host, routers = build_routers(graph)
        host.run()
        route = routers["x"].loc_rib.get(P("10.3.0.0/16"))
        assert route is not None
        assert route.peer == "z"  # direct customer path, not via peer y

    def test_star_validation_runs_on_build(self):
        graph = star(4, seed=0)
        graph.nodes["as1"].asn = graph.nodes["as2"].asn  # corrupt
        with pytest.raises(TopologyError):
            build_routers(graph)


class TestTransitAcyclicAtScale:
    def test_deep_transit_chain_validates_without_recursion(self):
        """A 1500-deep provider chain must not hit the recursion limit."""
        graph = AsGraph("deep-chain")
        graph.add_as("as0", networks=(P("10.1.0.0/16"),))
        for index in range(1, 1500):
            graph.add_as(f"as{index}", asn=1000 + index)
            graph.transit(f"as{index - 1}", f"as{index}")
        graph.validate()

    def test_cycle_trail_reported_from_iterative_walk(self):
        graph = AsGraph("trail")
        for name in ("a", "b", "c", "d"):
            graph.add_as(name, networks=(P(f"10.{ord(name) - 96}.0.0/16"),))
        graph.transit("a", "b")
        graph.transit("b", "c")
        graph.transit("c", "d")
        graph.transit("d", "b")
        with pytest.raises(TopologyError, match="b -> c -> d -> b"):
            graph.validate()


class TestStructuralConfigCache:
    def test_cached_config_equals_fresh_parse(self):
        """Template-patched configs are indistinguishable from parsed ones."""
        from repro.bgp.config import parse_config
        from repro.topology.generators import hierarchical
        from repro.topology.graph import render_structured

        registry()["topology.structural"].clear()
        graph = hierarchical(30, seed=9)
        for name in graph.nodes:
            structured = render_structured(graph, name)
            parsed = parse_config(render_config(graph, name))
            assert structured == parsed, name

    def test_hits_accumulate_on_identical_stubs(self):
        from repro.topology.generators import hierarchical
        from repro.topology.graph import render_structured

        structural = registry()["topology.structural"]
        structural.clear()
        graph = hierarchical(40, seed=3)
        for name in graph.nodes:
            render_structured(graph, name)
        info = structural.info()
        # Transit providers (cust-in filters) are ineligible; the stub
        # majority shares a handful of templates.
        assert info["hits"] > len(graph.nodes) // 2
        assert info["misses"] <= 8

    def test_customer_bearing_nodes_bypass_the_template_cache(self):
        from repro.topology.graph import _structural_key

        graph = star(4, seed=0)
        assert _structural_key(graph, "as0") is None      # has customers
        assert _structural_key(graph, "as1") is not None  # pure stub

    def test_build_routers_converges_through_the_cache(self):
        from repro.topology.generators import hierarchical

        registry()["topology.structural"].clear()
        graph = hierarchical(12, seed=4)
        host, routers = build_routers(graph)
        host.run()
        for node_name, router in routers.items():
            expected = {peer for peer, _, _ in graph.neighbors(node_name)}
            assert set(router.established_peers()) == expected, node_name
