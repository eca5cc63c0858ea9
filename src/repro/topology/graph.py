"""AS-level topology model with Gao–Rexford policy synthesis.

The paper's subject is a *federation*: many autonomous systems, each with
private policy, jointly producing global behavior.  The seed reproduction
hardcoded exactly one such federation (the Figure 2
customer/provider/internet triangle); this module is the declarative
replacement — an :class:`AsGraph` describes ASes (nodes with roles and
originated address space) and their business relationships
(provider→customer transit edges and settlement-free peering), and
:func:`render_config` synthesizes each AS's full router configuration
from the graph:

* **import policy** tags every learned route with the relationship it
  arrived over (customer/peer/provider communities) and sets the
  conventional local-pref ladder (customer > peer > provider), so the
  decision process prefers routes that earn money;
* **export policy** implements the Gao–Rexford stability conditions:
  routes learned from a peer or provider are never re-exported to
  another peer or provider (no valleys), everything goes to customers;
* **customer filtering** is a per-node knob replaying the paper's route
  leak study: ``correct`` accepts exactly the customer's cone,
  ``erroneous`` adds the sloppy length-based disjunct of section 4.2,
  ``missing`` accepts anything (the PCCW/YouTube misconfiguration).

:func:`build_routers` materializes the graph onto the simulated network:
one :class:`~repro.bgp.router.BgpRouter` per AS, one latency-annotated
link per edge, sessions established by running the event loop.  Every
scenario in :mod:`repro.core.scenario` is one of these graphs plus a
seed corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.errors import TopologyError
from repro.util.ip import Prefix, int_to_ip
from repro.util.memo import Memo

#: Business relationships an edge can encode.
TRANSIT = "transit"      # edge.a sells transit to edge.b (a = provider)
PEER = "peer"            # settlement-free peering

#: Customer-import filtering modes (the paper's route-leak knob).
FILTER_MODES = ("correct", "missing", "erroneous")

#: Local-pref ladder: prefer customer routes over peers over providers,
#: all strictly below locally originated routes (STATIC_LOCAL_PREF=200).
LOCAL_PREF = {"customer": 120, "peer": 110, "provider": 100}

#: Internal provenance communities ("from a customer/peer/provider"),
#: allocated from the private-AS tail so they cannot collide with the
#: synthetic traces' transit-AS communities.
TAG_BASE = 65500 << 16
TAG = {"customer": TAG_BASE | 1, "peer": TAG_BASE | 2, "provider": TAG_BASE | 3}


@dataclass
class AsNode:
    """One autonomous system: identity, role, and originated space."""

    name: str
    asn: int
    role: str = "stub"                     # tier1 | tier2 | stub | ...
    networks: Tuple[Prefix, ...] = ()
    router_id: int = 0
    #: Customer-import filtering applied by *this* AS on its customers.
    filter_mode: str = "missing"
    #: Raw config snippets (prefix-sets, extra filters) appended verbatim;
    #: the Figure 2 scenario injects its hand-tuned customer filter here.
    extra_config: str = ""

    def __post_init__(self) -> None:
        if self.filter_mode not in FILTER_MODES:
            raise TopologyError(
                f"AS {self.name!r}: unknown filter mode {self.filter_mode!r}; "
                f"use one of {FILTER_MODES}"
            )


@dataclass
class AsEdge:
    """A business relationship between two ASes (one simulated link).

    For ``kind=TRANSIT``, ``a`` is the provider and ``b`` the customer.
    ``passive`` names the side that waits for the OPEN (defaults to the
    customer, or the lexicographically larger peer); per-direction filter
    overrides let a scenario splice in a hand-written policy while the
    rest of the graph keeps the synthesized one.
    """

    a: str
    b: str
    kind: str = TRANSIT
    latency: float = 0.001
    passive: Optional[str] = None
    #: Explicit filter names per direction; None = synthesize.
    a_import: Optional[str] = None
    a_export: Optional[str] = None
    b_import: Optional[str] = None
    b_export: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (TRANSIT, PEER):
            raise TopologyError(f"unknown edge kind {self.kind!r}")
        if self.a == self.b:
            raise TopologyError(f"self-edge on {self.a!r}")
        if self.passive is None:
            self.passive = self.b if self.kind == TRANSIT else max(self.a, self.b)

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def relation_of(self, node: str) -> str:
        """What the *other* endpoint is, from ``node``'s point of view."""
        if self.kind == PEER:
            return "peer"
        if node == self.a:
            return "customer"     # a is the provider, so b is its customer
        return "provider"

    def other(self, node: str) -> str:
        return self.b if node == self.a else self.a


class AsGraph:
    """The AS-level topology: nodes, relationship edges, and validation."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self.nodes: Dict[str, AsNode] = {}
        self.edges: List[AsEdge] = []
        self._by_pair: Dict[frozenset, AsEdge] = {}

    # -- construction --------------------------------------------------------

    def add_as(
        self,
        name: str,
        asn: Optional[int] = None,
        role: str = "stub",
        networks: Sequence[Prefix] = (),
        router_id: Optional[int] = None,
        filter_mode: str = "missing",
        extra_config: str = "",
    ) -> AsNode:
        if name in self.nodes:
            raise TopologyError(f"AS {name!r} already declared")
        index = len(self.nodes) + 1
        node = AsNode(
            name=name,
            asn=asn if asn is not None else 65000 + index,
            role=role,
            networks=tuple(networks),
            # Deterministic distinct router ids: 10.255.<index>.1.
            router_id=router_id if router_id is not None
            else (10 << 24) | (255 << 16) | (index << 8) | 1,
            filter_mode=filter_mode,
            extra_config=extra_config,
        )
        self.nodes[name] = node
        return node

    def _add_edge(self, edge: AsEdge) -> AsEdge:
        for end in edge.endpoints():
            if end not in self.nodes:
                raise TopologyError(f"edge references undeclared AS {end!r}")
        key = frozenset(edge.endpoints())
        if key in self._by_pair:
            raise TopologyError(f"edge {edge.a!r}<->{edge.b!r} already exists")
        self.edges.append(edge)
        self._by_pair[key] = edge
        return edge

    def transit(self, provider: str, customer: str, **kwargs) -> AsEdge:
        """Declare that ``provider`` sells transit to ``customer``."""
        return self._add_edge(AsEdge(provider, customer, TRANSIT, **kwargs))

    def peer(self, a: str, b: str, **kwargs) -> AsEdge:
        """Declare settlement-free peering between ``a`` and ``b``."""
        return self._add_edge(AsEdge(a, b, PEER, **kwargs))

    # -- queries -------------------------------------------------------------

    def edge_between(self, a: str, b: str) -> Optional[AsEdge]:
        return self._by_pair.get(frozenset((a, b)))

    def latency(self, a: str, b: str, default: float = 0.001) -> float:
        edge = self.edge_between(a, b)
        return edge.latency if edge is not None else default

    def neighbors(self, name: str) -> List[Tuple[str, str, AsEdge]]:
        """(peer name, relation from ``name``'s view, edge), declaration order."""
        found = []
        for edge in self.edges:
            if name in edge.endpoints():
                found.append((edge.other(name), edge.relation_of(name), edge))
        return found

    def customers_of(self, name: str) -> List[str]:
        return [peer for peer, rel, _ in self.neighbors(name) if rel == "customer"]

    def providers_of(self, name: str) -> List[str]:
        return [peer for peer, rel, _ in self.neighbors(name) if rel == "provider"]

    def peers_of(self, name: str) -> List[str]:
        return [peer for peer, rel, _ in self.neighbors(name) if rel == "peer"]

    def customer_cone(self, name: str) -> List[Prefix]:
        """Prefixes reachable through ``name``'s customer branch (own included).

        The cone is what a *correct* provider filter accepts from this AS
        as a customer: its own networks plus, recursively, everything its
        customers could legitimately announce upward.
        """
        cone: List[Prefix] = []
        seen_nodes = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen_nodes:
                continue
            seen_nodes.add(current)
            cone.extend(self.nodes[current].networks)
            stack.extend(reversed(self.customers_of(current)))
        # Stable dedupe: a diamond in the customer hierarchy must not
        # repeat prefixes in the rendered prefix-set.
        return list(dict.fromkeys(cone))

    def origin_of(self, prefix: Prefix) -> Optional[str]:
        for node in self.nodes.values():
            if prefix in node.networks:
                return node.name
        return None

    def summary(self) -> Dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "transit_edges": sum(1 for e in self.edges if e.kind == TRANSIT),
            "peer_edges": sum(1 for e in self.edges if e.kind == PEER),
        }

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Structural and policy well-formedness; raises :class:`TopologyError`.

        Checks the properties Gao–Rexford convergence arguments rest on:
        the provider→customer relation is acyclic (no AS is, transitively,
        its own provider), the graph is connected, ASNs are unique, and
        no two ASes originate the same prefix (a MOAS conflict is a
        *workload*, injected by a scenario, never a baseline).
        """
        if not self.nodes:
            raise TopologyError(f"topology {self.name!r} has no ASes")
        asns: Dict[int, str] = {}
        origins: Dict[Prefix, str] = {}
        for node in self.nodes.values():
            if node.asn in asns:
                raise TopologyError(
                    f"ASN {node.asn} used by both {asns[node.asn]!r} and {node.name!r}"
                )
            asns[node.asn] = node.name
            for prefix in node.networks:
                if prefix in origins:
                    raise TopologyError(
                        f"prefix {prefix} originated by both "
                        f"{origins[prefix]!r} and {node.name!r}"
                    )
                origins[prefix] = node.name
        self._check_transit_acyclic()
        self._check_connected()

    def _check_transit_acyclic(self) -> None:
        # Iterative DFS with an explicit stack: measured-Internet transit
        # chains run deep enough that the old recursive walk could hit
        # Python's recursion limit, and building the customer adjacency
        # once avoids the O(nodes * edges) repeated neighbor scans.
        customers: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for edge in self.edges:
            if edge.kind == TRANSIT:
                customers[edge.a].append(edge.b)
        state: Dict[str, int] = {}  # 0 on the current path, 1 done
        for root in self.nodes:
            if state.get(root) == 1:
                continue
            state[root] = 0
            trail = [root]
            stack: List[Tuple[str, Iterator[str]]] = [
                (root, iter(customers[root]))
            ]
            while stack:
                name, children = stack[-1]
                descended = False
                for customer in children:
                    if state.get(customer) == 1:
                        continue
                    if state.get(customer) == 0:
                        cycle = " -> ".join(
                            trail[trail.index(customer):] + [customer]
                        )
                        raise TopologyError(
                            f"transit hierarchy has a cycle: {cycle}"
                        )
                    state[customer] = 0
                    trail.append(customer)
                    stack.append((customer, iter(customers[customer])))
                    descended = True
                    break
                if not descended:
                    state[name] = 1
                    trail.pop()
                    stack.pop()

    def _check_connected(self) -> None:
        if len(self.nodes) <= 1:
            return
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(peer for peer, _, _ in self.neighbors(current))
        unreachable = sorted(set(self.nodes) - seen)
        if unreachable:
            raise TopologyError(
                f"topology {self.name!r} is disconnected; unreachable: {unreachable}"
            )


# ---------------------------------------------------------------------------
# Config synthesis.
# ---------------------------------------------------------------------------


def _cone_set_name(customer: str) -> str:
    return f"CONE-{customer}"


def _customer_import_filter(
    graph: AsGraph, node: AsNode, customer: str
) -> Tuple[str, str]:
    """(prefix-set text or '', filter text) for importing from ``customer``."""
    mode = node.filter_mode
    tag = TAG["customer"]
    pref = LOCAL_PREF["customer"]
    accept_block = f"""{{
        set local-pref {pref};
        add-community {tag};
        accept;
    }}"""
    if mode == "missing":
        # No validation at all — the PCCW mistake.
        body = f"filter cust-in-{customer} {accept_block}\n"
        return "", body
    cone = graph.customer_cone(customer)
    specs = "\n".join(f"    {prefix} le 24;" for prefix in cone)
    prefix_set = f"prefix-set {_cone_set_name(customer)} {{\n{specs}\n}}\n"
    if mode == "correct":
        condition = f"net in {_cone_set_name(customer)}"
    else:  # erroneous: the sloppy length-based disjunct of section 4.2
        condition = (
            f"net in {_cone_set_name(customer)} "
            f"or (net.len >= 16 and net.len <= 24)"
        )
    body = f"""filter cust-in-{customer} {{
    if {condition} then {accept_block}
    reject;
}}
"""
    return prefix_set, body


def _relation_filters() -> str:
    """The shared (customer-independent) Gao–Rexford filters."""
    return f"""
filter peer-in {{
    set local-pref {LOCAL_PREF['peer']};
    add-community {TAG['peer']};
    accept;
}}

filter prov-in {{
    set local-pref {LOCAL_PREF['provider']};
    add-community {TAG['provider']};
    accept;
}}

# To customers: everything (they pay for the full table).
filter export-down {{
    remove-community {TAG['customer']};
    remove-community {TAG['peer']};
    remove-community {TAG['provider']};
    accept;
}}

# To peers and providers: only routes we originate or learned from a
# customer — never peer/provider routes (the no-valley condition).
filter export-up {{
    if community has {TAG['peer']} then reject;
    if community has {TAG['provider']} then reject;
    remove-community {TAG['customer']};
    accept;
}}
"""


def render_config(graph: AsGraph, name: str) -> str:
    """Synthesize ``name``'s full router configuration from the graph."""
    node = graph.nodes.get(name)
    if node is None:
        raise TopologyError(f"no AS named {name!r} in topology {graph.name!r}")
    lines = [
        f"# synthesized from topology {graph.name!r} (AS {node.name}, role {node.role})",
        f"router bgp {node.asn};",
        f"router-id {int_to_ip(node.router_id)};",
    ]
    lines.extend(f"network {prefix};" for prefix in node.networks)
    lines.append("")
    if node.extra_config:
        lines.append(node.extra_config.strip())
        lines.append("")

    neighbors = graph.neighbors(name)
    prefix_sets: List[str] = []
    filters: List[str] = []
    neighbor_blocks: List[str] = []
    emitted_shared = False
    for peer_name, relation, edge in neighbors:
        import_name, export_name = _direction_filters(edge, name)
        if import_name is None or export_name is None:
            if not emitted_shared:
                filters.append(_relation_filters())
                emitted_shared = True
        if import_name is None:
            if relation == "customer":
                prefix_set, body = _customer_import_filter(graph, node, peer_name)
                if prefix_set:
                    prefix_sets.append(prefix_set)
                filters.append(body)
                import_name = f"cust-in-{peer_name}"
            elif relation == "peer":
                import_name = "peer-in"
            else:
                import_name = "prov-in"
        if export_name is None:
            export_name = "export-down" if relation == "customer" else "export-up"
        passive = "\n    passive;" if edge.passive == name else ""
        neighbor_blocks.append(
            f"""neighbor {peer_name} {{
    remote-as {graph.nodes[peer_name].asn};{passive}
    import filter {import_name};
    export filter {export_name};
}}"""
        )
    lines.extend(prefix_sets)
    lines.extend(filters)
    lines.extend(neighbor_blocks)
    return "\n".join(lines) + "\n"


def _direction_filters(edge: AsEdge, name: str) -> Tuple[Optional[str], Optional[str]]:
    if name == edge.a:
        return edge.a_import, edge.a_export
    return edge.b_import, edge.b_export


# ---------------------------------------------------------------------------
# Structural config cache.
#
# A generated hierarchy is made of a handful of *shapes*: every
# single-homed stub renders the same configuration up to its ASN,
# router id, networks, and neighbor identities.  The content-hash parse
# cache can't see that (the identity fields make every text distinct),
# so materializing hierarchical(1000) would still parse ~1000 texts.
# This layer keys a parsed template by the node's *structure* — neighbor
# relations and passive sides, in declaration order — and revives +
# patches the template for every structurally identical node, skipping
# render and parse entirely.  Nodes with customers are ineligible (their
# cust-in-<peer> filters embed peer names), as are nodes with explicit
# per-edge filters or extra_config; those fall back to the parse cache.
# Templates are kept pickled, evicted oldest first.
# ---------------------------------------------------------------------------

_TEMPLATES = Memo(256, "topology.structural")


def _structural_key(graph: AsGraph, name: str) -> Optional[tuple]:
    """Template-cache key for ``name``, or None when ineligible."""
    node = graph.nodes[name]
    if node.extra_config:
        return None
    entries = []
    for peer_name, relation, edge in graph.neighbors(name):
        if relation == "customer":
            # Customer import filters are named after the peer and embed
            # its cone — node-specific, never template-shareable.
            return None
        if _direction_filters(edge, name) != (None, None):
            return None
        entries.append((relation, edge.passive == name))
    return (len(node.networks), tuple(entries))


def render_structured(graph: AsGraph, name: str):
    """``name``'s :class:`RouterConfig`, via the structural template cache.

    Equivalent to ``parse_config_cached(render_config(graph, name))`` —
    and falls back to exactly that for ineligible nodes — but
    structurally identical nodes share one parsed template, patched with
    the node's identity fields.  Always returns a fresh, freely mutable
    config instance.
    """
    import pickle
    from dataclasses import replace

    from repro.bgp.config import parse_config_cached

    node = graph.nodes[name]
    key = _structural_key(graph, name)
    if key is None:
        return parse_config_cached(render_config(graph, name))
    blob = _TEMPLATES.get(key)
    if blob is None:
        config = parse_config_cached(render_config(graph, name))
        _TEMPLATES.put(key, pickle.dumps(config, pickle.HIGHEST_PROTOCOL))
        return config
    config = pickle.loads(blob)
    config.asn = node.asn
    config.router_id = node.router_id
    config.networks = list(node.networks)
    # The template's neighbor blocks line up with this node's neighbor
    # list (both follow edge declaration order — that's what the key
    # encodes), so only the identities need replacing.
    config.neighbors = {
        peer: replace(template, peer_id=peer, remote_as=graph.nodes[peer].asn)
        for template, (peer, _, _) in zip(
            config.neighbors.values(), graph.neighbors(name)
        )
    }
    return config


# ---------------------------------------------------------------------------
# Materialization onto the simulated network.
# ---------------------------------------------------------------------------


def build_routers(
    graph: AsGraph,
    host: Optional[object] = None,
    seed: int = 0,
    router_factory: Optional[Callable] = None,
    validate: bool = True,
):
    """Materialize the graph: one router per AS, one link per edge.

    Returns ``(host, routers)``.  Sessions are not yet established —
    call ``host.run()`` (or :meth:`BuiltScenario.converge`) to let the
    OPEN/KEEPALIVE exchanges and initial table transfers play out.

    ``router_factory(node_id, env, config_text)`` defaults to a plain
    :class:`BgpRouter`; scenarios that want DiCE observation on some
    node pass a factory returning :class:`DiceEnabledRouter` there.
    """
    from repro.bgp.router import BgpRouter
    from repro.net.node import NodeHost

    if validate:
        graph.validate()
    if host is None:
        host = NodeHost(seed=seed)
    # The default factory takes parsed configs straight from the
    # structural template cache (BgpRouter accepts both forms); custom
    # factories keep receiving rendered text, since their third argument
    # is config *text* by documented contract.
    structured = router_factory is None
    if router_factory is None:
        router_factory = lambda nid, env, config: BgpRouter(nid, env, config)

    routers = {}
    for name in graph.nodes:
        config = (
            render_structured(graph, name) if structured
            else render_config(graph, name)
        )
        routers[name] = host.add_node(
            name, lambda nid, env, _config=config: router_factory(nid, env, _config)
        )
    for edge in graph.edges:
        host.add_link(edge.a, edge.b, latency=edge.latency)
    host.start()
    return host, routers
