"""The BGP decision process (RFC 4271 section 9.1.2, simplified like BIRD's).

Given the candidate routes for one prefix, pick the best by the standard
tie-breaking ladder.  Every comparison is written as a plain ``if`` over
possibly-symbolic attribute values, so when DiCE explores an UPDATE with a
symbolic LOCAL_PREF or AS path, the decision points themselves become
recorded, negatable branches — route preference is part of the explored
behavior, exactly as the instrumented BIRD decision code is in the paper.

The tie-break ladder implemented:

1. highest LOCAL_PREF (default 100),
2. shortest AS_PATH (hop count; AS_SET counts 1),
3. lowest ORIGIN (IGP < EGP < INCOMPLETE),
4. lowest MED, compared only between routes from the same neighbor AS,
5. eBGP-learned preferred over iBGP-learned,
6. lowest peer identifier (deterministic final tie-break).

IGP-metric comparison (step f of the RFC) is skipped — the simulator has
no IGP — matching single-hop testbed behavior.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.rib import Route, RouteSource
from repro.bgp.wire import as_concrete_int

#: LOCAL_PREF assumed when a route carries none.
DEFAULT_LOCAL_PREF = 100


def prefer(a: Route, b: Route) -> Route:
    """The better of two candidate routes for the same prefix."""
    # 1. Highest LOCAL_PREF.
    a_pref = a.local_pref(DEFAULT_LOCAL_PREF)
    b_pref = b.local_pref(DEFAULT_LOCAL_PREF)
    if a_pref > b_pref:
        return a
    if b_pref > a_pref:
        return b

    # 2. Shortest AS path.
    a_len = a.attributes.as_path.hop_count()
    b_len = b.attributes.as_path.hop_count()
    if a_len < b_len:
        return a
    if b_len < a_len:
        return b

    # 3. Lowest ORIGIN code.
    if a.attributes.origin < b.attributes.origin:
        return a
    if b.attributes.origin < a.attributes.origin:
        return b

    # 4. Lowest MED, only when learned from the same neighboring AS.
    a_neighbor = a.attributes.as_path.first_as()
    b_neighbor = b.attributes.as_path.first_as()
    if (
        a_neighbor is not None
        and b_neighbor is not None
        and a_neighbor == b_neighbor
    ):
        if a.med() < b.med():
            return a
        if b.med() < a.med():
            return b

    # 5. eBGP over iBGP.
    if a.source == RouteSource.EBGP and b.source == RouteSource.IBGP:
        return a
    if b.source == RouteSource.EBGP and a.source == RouteSource.IBGP:
        return b

    # 6. Deterministic tie-break on peer identifier.
    a_key = a.peer or ""
    b_key = b.peer or ""
    if a_key <= b_key:
        return a
    return b


def best_route(candidates: List[Route]) -> Optional[Route]:
    """The decision-process winner among ``candidates`` (None if empty).

    Static/locally-originated routes participate like any candidate; in
    BIRD they win through a high default preference, which callers model
    by assigning static routes a LOCAL_PREF above eBGP defaults.
    """
    best: Optional[Route] = None
    for candidate in candidates:
        if best is None:
            best = candidate
        else:
            best = prefer(best, candidate)
    return best


def rank_routes(candidates: List[Route]) -> List[Route]:
    """Candidates ordered best-first by repeated selection.

    Quadratic, used only by diagnostics and tests; the router itself only
    ever needs :func:`best_route`.
    """
    remaining = list(candidates)
    ranked: List[Route] = []
    while remaining:
        winner = best_route(remaining)
        assert winner is not None
        ranked.append(winner)
        remaining = [
            route for route in remaining if route is not winner
        ]
    return ranked


def routes_equal(a: Optional[Route], b: Optional[Route]) -> bool:
    """Equality for export purposes: same prefix, attributes, and peer.

    Compared on concrete values — two routes differing only in symbolic
    expressions but agreeing concretely count as equal.
    """
    if a is None or b is None:
        return a is b
    if a.prefix != b.prefix or a.peer != b.peer or a.source != b.source:
        return False
    attrs_a, attrs_b = a.attributes, b.attributes
    if attrs_a is attrs_b:
        return True
    return (
        _concrete(attrs_a.origin) == _concrete(attrs_b.origin)
        and attrs_a.as_path == attrs_b.as_path
        and _concrete(attrs_a.next_hop) == _concrete(attrs_b.next_hop)
        and _concrete(attrs_a.med, 0) == _concrete(attrs_b.med, 0)
        and _concrete(attrs_a.local_pref, DEFAULT_LOCAL_PREF)
        == _concrete(attrs_b.local_pref, DEFAULT_LOCAL_PREF)
        and tuple(as_concrete_int(c) for c in attrs_a.communities)
        == tuple(as_concrete_int(c) for c in attrs_b.communities)
    )


def _concrete(value, default=None):
    return default if value is None else as_concrete_int(value)
