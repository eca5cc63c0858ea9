"""Which queued seed goes next: bounded queues and three nested rotations.

**Bounded per-peer queues with coalescing backpressure.**  When a
``(node, peer)`` queue is full the *oldest* unscheduled seed is
superseded by the newest (the DiCE observation buffers' ring
discipline), so a chatty peer can neither grow memory nor starve the
stream.

**Rotation**, outermost first: across tenants by yield-weighted deficit
(:class:`~repro.concolic.coverage.TenantScheduler` — a busy federation
wins more slots but cannot starve a quiet one); across the chosen
tenant's ASes by recent finding yield
(:class:`~repro.concolic.coverage.FederationScheduler`) or blind
round-robin (``as_rotation``); across that AS's peers by predicted new
coverage and seed novelty
(:class:`~repro.concolic.coverage.CoverageScheduler`) or round-robin
(``coverage_guided``).

Indices and epochs are fixed at *submission*, so the order picked here
changes no session — it only shapes latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.concolic.coverage import (
    CoverageScheduler,
    FederationScheduler,
    TenantScheduler,
)
from repro.core.inputs import seed_signature
from repro.core.report import SessionReport
from repro.parallel.jobs import JobRecord, plain_node, tenant_of


def _after(items: List[str], last: Optional[str]) -> int:
    """Round-robin: the position following ``last`` (0 if it is gone)."""
    return (items.index(last) + 1) % len(items) if last in items else 0


class SeedRotation:
    """The pending queues and the policy that empties them."""

    def __init__(self, coverage_guided: bool, as_rotation: str) -> None:
        self._pending: Dict[Tuple[str, str], Deque[JobRecord]] = {}
        self.coverage = CoverageScheduler() if coverage_guided else None
        self._federation = (
            FederationScheduler() if as_rotation == "yield" else None
        )
        self._tenants = TenantScheduler() if as_rotation == "yield" else None
        #: Tenants ever enqueued; one means there is nothing to arbitrate.
        self._seen_tenants: Set[str] = set()
        self._last_peer: Optional[str] = None
        self._last_node: Optional[str] = None
        self._last_tenant: Optional[str] = None

    @staticmethod
    def _peer_key(node: str, peer: str) -> str:
        """Coverage-scheduler identity for one (node, peer) seed source.

        Qualified by node so two ASes' same-named peers (every generated
        topology names neighbors by AS id) keep separate EWMAs.
        """
        return f"{node}\x00{peer}" if node else peer

    def push(self, record: JobRecord, capacity: int) -> Optional[JobRecord]:
        """Enqueue a record; the oldest one it superseded, if any."""
        buffer = self._pending.setdefault(
            (record.job.node, record.job.peer), deque()
        )
        victim = buffer.popleft() if len(buffer) >= capacity else None
        buffer.append(record)
        self._seen_tenants.add(tenant_of(record.job.node))
        return victim

    def _pick_node(self) -> Optional[str]:
        nodes = sorted({node for (node, _), buf in self._pending.items() if buf})
        if not nodes:
            return None
        if self._tenants is not None and len(self._seen_tenants) > 1:
            tenants = sorted({tenant_of(node) for node in nodes})
            if len(tenants) > 1:
                picked = self._tenants.pick(
                    [(tenant, None) for tenant in tenants],
                    after=self._last_tenant,
                )
                self._last_tenant = tenants[picked]
                nodes = [n for n in nodes if tenant_of(n) == self._last_tenant]
        if len(nodes) == 1:
            choice = nodes[0]
        elif self._federation is not None:
            choice = nodes[self._federation.pick(
                [(node, None) for node in nodes], after=self._last_node
            )]
        else:
            choice = nodes[_after(nodes, self._last_node)]
        self._last_node = choice
        return choice

    def pop(self) -> Optional[JobRecord]:
        """The most promising pending record, else plain rotation.

        Candidates within the chosen node are each peer's oldest
        unscheduled seed, scored by the peer's recent new-coverage EWMA
        and the seed's novelty, falling back to per-peer round-robin on
        ties (and exactly reproducing it until the first harvested
        report arrives).  ``mark_scheduled`` is *not* called here — the
        coordinator marks a seed only once a worker actually accepted
        it, so a dropped job never leaks a permanently-"scheduled"
        signature.
        """
        node = self._pick_node()
        if node is None:
            return None
        peers = [
            peer for (n, peer), buffer in self._pending.items()
            if n == node and buffer
        ]
        keys = [self._peer_key(node, peer) for peer in peers]
        if self.coverage is not None:
            choice = self.coverage.pick(
                [
                    (key, seed_signature(self._pending[(node, peer)][0].job.observed))
                    for key, peer in zip(keys, peers)
                ],
                after=self._last_peer,
            )
        else:
            choice = _after(keys, self._last_peer)
        self._last_peer = keys[choice]
        return self._pending[(node, peers[choice])].popleft()

    def mark_scheduled(self, record: JobRecord) -> None:
        if self.coverage is not None:
            self.coverage.mark_scheduled(seed_signature(record.job.observed))

    def note_session(self, node: str, session: SessionReport) -> None:
        """Fold one harvested session into every rotation's yield EWMA."""
        if self.coverage is not None:
            self.coverage.note_session(
                self._peer_key(node, session.peer), session.exploration.coverage
            )
        if self._federation is not None:
            self._federation.note_findings(node, len(session.findings))
        if self._tenants is not None and tenant_of(node):
            self._tenants.note_findings(tenant_of(node), len(session.findings))

    def federation_yields(self, tenant: Optional[str] = None) -> Dict[str, float]:
        """Per-AS finding-yield EWMAs; with ``tenant``, that tenant's
        nodes only, unscoped — the view it would see running alone."""
        yields = {} if self._federation is None else self._federation.yields()
        if tenant is None:
            return yields
        return {
            plain_node(node): value
            for node, value in yields.items() if tenant_of(node) == tenant
        }

    def tenant_yields(self) -> Dict[str, float]:
        return self._tenants.yields() if self._tenants is not None else {}
