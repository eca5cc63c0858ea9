"""Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out (RFC 4271 3.2).

The Loc-RIB can index itself with a prefix trie so the DiCE fault checkers
can ask the questions hijack detection needs: "which installed route does
this exploratory announcement override?" (exact match) and "which installed
routes does it cover or puncture?" (covering / covered-by queries).  The
trie is derived data, built by the first such query.

Every RIB offers ``fork()``: a private copy of its tables that *shares*
the :class:`Route` values.  That is what a checkpoint clone is made of
(:meth:`repro.bgp.router.BgpRouter.fork_state`), and it is sound because
a route is a value: nothing mutates a :class:`Route`, its
:class:`~repro.bgp.attributes.PathAttributes` or its ``AsPath`` once it
is in a RIB — changes build a new route and replace the table entry.

Routes learned during exploration may carry symbolic attribute values;
RIB keys are always the *concrete* canonical prefix (symbolic prefixes
hash by their concrete value), which matches how the paper's prototype
checks exploratory routes against the table loaded before exploration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.bgp.attributes import PathAttributes
from repro.bgp.wire import as_concrete_int
from repro.concolic.symbolic import SymInt
from repro.util.ip import Prefix, PrefixTrie

IntLike = Union[int, SymInt]


class RouteSource(enum.Enum):
    """How a route entered the RIB."""

    EBGP = "ebgp"
    IBGP = "ibgp"
    STATIC = "static"


@dataclass(frozen=True)
class Route:
    """One candidate path to a prefix.

    A value: never mutated once it is in a RIB (rebuild with
    :meth:`with_attributes` / ``dataclasses.replace``).  Checkpoint
    clones share route objects with the live node and with each other,
    so clone isolation rests on this — hence ``frozen``.
    """

    prefix: Prefix
    attributes: PathAttributes
    peer: Optional[str] = None
    source: RouteSource = RouteSource.EBGP
    learned_at: float = 0.0

    def origin_as(self) -> Optional[IntLike]:
        """The AS that originated this route (None when unknown)."""
        return self.attributes.as_path.origin_as()

    def local_pref(self, default: int = 100) -> IntLike:
        value = self.attributes.local_pref
        return default if value is None else value

    def med(self) -> IntLike:
        """Missing MED is treated as 0 (BIRD's default behavior)."""
        value = self.attributes.med
        return 0 if value is None else value

    def with_attributes(self, attributes: PathAttributes) -> "Route":
        return replace(self, attributes=attributes)

    def describe(self) -> str:
        return (
            f"{self.prefix} via {self.peer or self.source.value} "
            f"[{self.attributes.describe()}]"
        )


class ChangeKind(enum.Enum):
    INSTALL = "install"
    REPLACE = "replace"
    WITHDRAW = "withdraw"


@dataclass(frozen=True)
class RibChange:
    """One best-route transition in the Loc-RIB, for export processing."""

    kind: ChangeKind
    prefix: Prefix
    old: Optional[Route]
    new: Optional[Route]


class _PerPeerRib:
    """``peer -> prefix -> route`` tables: the shape both Adj-RIBs share."""

    def __init__(self) -> None:
        self._by_peer: Dict[str, Dict[Prefix, Route]] = {}

    def fork(self):
        """A private copy of the tables that shares the route values."""
        rib = type(self)()
        rib._by_peer = {peer: dict(table) for peer, table in self._by_peer.items()}
        return rib

    def peer_prefixes(self, peer: str) -> List[Prefix]:
        return list(self._by_peer.get(peer, {}))

    def route_count(self) -> int:
        return sum(len(table) for table in self._by_peer.values())

    # -- checkpoint delta decomposition (repro.checkpoint.delta) ---------------

    def delta_items(self) -> Dict[Tuple[str, Prefix], Route]:
        """The tables as independently shippable ``(peer, prefix) -> route`` items.

        Iteration order is peer insertion order then per-peer prefix
        insertion order, so a restore rebuilds the same ordering.  Peers
        whose table is empty are canonicalized away.
        """
        return {
            (peer, prefix): route
            for peer, table in self._by_peer.items()
            for prefix, route in table.items()
        }

    @classmethod
    def from_delta_items(cls, items: Dict[Tuple[str, Prefix], Route]):
        rib = cls()
        for (peer, prefix), route in items.items():
            rib._by_peer.setdefault(peer, {})[prefix] = route
        return rib


class AdjRibIn(_PerPeerRib):
    """Per-peer incoming routes, post-import-policy."""

    def install(self, peer: str, route: Route) -> Optional[Route]:
        """Store ``route``; returns the entry it replaced, if any."""
        table = self._by_peer.setdefault(peer, {})
        previous = table.get(route.prefix)
        table[route.prefix] = route
        return previous

    def withdraw(self, peer: str, prefix: Prefix) -> Optional[Route]:
        table = self._by_peer.get(peer)
        if not table:
            return None
        return table.pop(prefix, None)

    def drop_peer(self, peer: str) -> List[Prefix]:
        """Remove every route from ``peer`` (session teardown)."""
        table = self._by_peer.pop(peer, None)
        if not table:
            return []
        return list(table)

    def get(self, peer: str, prefix: Prefix) -> Optional[Route]:
        return self._by_peer.get(peer, {}).get(prefix)

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All peers' routes for ``prefix`` — decision-process input."""
        found = []
        for table in self._by_peer.values():
            route = table.get(prefix)
            if route is not None:
                found.append(route)
        return found

    def peers(self) -> List[str]:
        return list(self._by_peer)

    def __len__(self) -> int:
        return self.route_count()


class LocRib:
    """The router's chosen best routes, trie-indexed on demand.

    The trie is a derived index over ``_routes``: built by the first
    :meth:`covering` / :meth:`covered_by` / :meth:`longest_match`, kept
    in step by :meth:`install` / :meth:`withdraw` only once built, never
    pickled and never copied by :meth:`fork` — the update path and the
    checkpoint path pay for it only if someone queries it.
    """

    def __init__(self) -> None:
        self._routes: Dict[Prefix, Route] = {}
        self._trie: Optional[PrefixTrie] = None

    def _index(self) -> PrefixTrie:
        if self._trie is None:
            self._trie = PrefixTrie(self._routes.items())
        return self._trie

    def __getstate__(self) -> dict:
        return {"_routes": self._routes}

    def __setstate__(self, state: dict) -> None:
        self._routes = state["_routes"]
        self._trie = None

    def fork(self) -> "LocRib":
        """A private copy of the table that shares the route values."""
        return self.from_delta_items(self._routes)

    def install(self, route: Route) -> RibChange:
        previous = self._routes.get(route.prefix)
        self._routes[route.prefix] = route
        if self._trie is not None:
            self._trie.insert(route.prefix, route)
        kind = ChangeKind.REPLACE if previous is not None else ChangeKind.INSTALL
        return RibChange(kind, route.prefix, previous, route)

    def withdraw(self, prefix: Prefix) -> Optional[RibChange]:
        previous = self._routes.pop(prefix, None)
        if previous is None:
            return None
        if self._trie is not None:
            self._trie.remove(prefix)
        return RibChange(ChangeKind.WITHDRAW, prefix, previous, None)

    def get(self, prefix: Prefix) -> Optional[Route]:
        return self._routes.get(prefix)

    def longest_match(self, address: int) -> Optional[Route]:
        hit = self._index().longest_match(address)
        if hit is None:
            return None
        __, route = hit
        return route  # type: ignore[return-value]

    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, Route]]:
        """Installed routes at or above ``prefix`` (would be punctured by it)."""
        return list(self._index().covering(prefix))  # type: ignore[return-value]

    def covered_by(self, prefix: Prefix) -> List[Tuple[Prefix, Route]]:
        """Installed routes at or below ``prefix`` (would be overridden)."""
        return list(self._index().covered_by(prefix))  # type: ignore[return-value]

    def origin_of(self, prefix: Prefix) -> Optional[int]:
        """Concrete origin AS of the installed exact route, if any."""
        route = self.get(prefix)
        if route is None:
            return None
        origin = route.origin_as()
        return None if origin is None else as_concrete_int(origin)

    def items(self) -> Iterator[Tuple[Prefix, Route]]:
        return iter(self._routes.items())

    def prefixes(self) -> List[Prefix]:
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    # -- checkpoint delta decomposition (repro.checkpoint.delta) ---------------

    def delta_items(self) -> Dict[Prefix, Route]:
        """The route table as independently shippable items."""
        return dict(self._routes)

    @classmethod
    def from_delta_items(cls, items: Dict[Prefix, Route]) -> "LocRib":
        rib = cls()
        rib._routes = dict(items)
        return rib


class AdjRibOut(_PerPeerRib):
    """What has been advertised to each peer (for withdraw-on-change)."""

    def record(self, peer: str, route: Route) -> None:
        self._by_peer.setdefault(peer, {})[route.prefix] = route

    def advertised(self, peer: str, prefix: Prefix) -> Optional[Route]:
        return self._by_peer.get(peer, {}).get(prefix)

    def remove(self, peer: str, prefix: Prefix) -> Optional[Route]:
        return self._by_peer.get(peer, {}).pop(prefix, None)

    def drop_peer(self, peer: str) -> None:
        self._by_peer.pop(peer, None)
