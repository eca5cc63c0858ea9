"""Privacy-preserving cross-domain state checking (paper section 2.4).

Federated systems will not share raw state: "competitive concerns are
likely to induce individual providers to keep private much of their
current state and configuration ... we would want to control the
information shared across domains and ensure that nodes only communicate
state information through a narrow interface yet capable to allow us to
detect faults."

The narrow interface implemented here is the **origin digest**: for each
Loc-RIB entry a node publishes ``H(salt || prefix) -> H(salt || prefix ||
origin_as)``.  Two domains using the same per-check salt can find the
prefixes on which their origin views *disagree* (same prefix digest,
different origin digest) while learning nothing about prefixes the other
side doesn't also carry, and nothing about each other's policies.  Only
the domain that owns a prefix can map a digest back to it (it can just
re-hash its own table), which is exactly who needs to act on a finding.

:class:`PrivacyGuard` is the enforcement half: it wraps a router and
refuses any attempt to export raw configuration or RIB contents across a
domain boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.router import BgpRouter
from repro.bgp.wire import as_concrete_int
from repro.util.errors import PrivacyViolation
from repro.util.ip import Prefix
from repro.util.memo import Memo

DIGEST_SIZE = 16

# Digest memos: a federation-wide compare hashes the same few hundred
# (prefix, origin) pairs once per *node* per wave stage — at 200 domains
# that is ~160k blake2b calls for ~800 distinct values.  Both functions
# are pure in (salt, prefix[, origin]), so the memos are transparent and
# an evicted digest is recomputed identically; they evict oldest first
# (salts rotate rarely in practice, so eviction pressure is negligible).
_PREFIX_DIGESTS = Memo(1 << 16, "privacy.prefix_digest")
_ORIGIN_DIGESTS = Memo(1 << 16, "privacy.origin_digest")


def _hash(salt: bytes, *parts: bytes) -> bytes:
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    digest.update(salt)
    for part in parts:
        digest.update(b"\x00")
        digest.update(part)
    return digest.digest()


def prefix_digest(salt: bytes, prefix: Prefix) -> bytes:
    key = (salt, prefix.network, prefix.length)
    digest = _PREFIX_DIGESTS.get(key)
    if digest is None:
        digest = _hash(
            salt, prefix.network.to_bytes(4, "big"), bytes((prefix.length,))
        )
        _PREFIX_DIGESTS.put(key, digest)
    return digest


def origin_digest(salt: bytes, prefix: Prefix, origin_asn: int) -> bytes:
    key = (salt, prefix.network, prefix.length, origin_asn)
    digest = _ORIGIN_DIGESTS.get(key)
    if digest is None:
        digest = _hash(
            salt,
            prefix.network.to_bytes(4, "big"),
            bytes((prefix.length,)),
            origin_asn.to_bytes(4, "big"),
        )
        _ORIGIN_DIGESTS.put(key, digest)
    return digest


@dataclass
class OriginDigest:
    """One domain's publishable view: prefix digest -> origin digest."""

    salt: bytes
    entries: Dict[bytes, bytes] = field(default_factory=dict)

    @classmethod
    def from_router(cls, router: BgpRouter, salt: bytes) -> "OriginDigest":
        digest = cls(salt)
        local_asn = router.config.asn
        for prefix, route in router.loc_rib.items():
            origin = route.origin_as()
            origin_asn = local_asn if origin is None else as_concrete_int(origin)
            digest.entries[prefix_digest(salt, prefix)] = origin_digest(
                salt, prefix, origin_asn
            )
        return digest

    def __len__(self) -> int:
        return len(self.entries)


def digest_conflicts(a: OriginDigest, b: OriginDigest) -> Iterator[bytes]:
    """Prefix digests on which the two domains disagree about the origin."""
    if a.salt != b.salt:
        raise PrivacyViolation("digest comparison requires a shared per-check salt")
    for key, value in a.entries.items():
        other = b.entries.get(key)
        if other is not None and other != value:
            yield key


def conflict_pairs(
    digests: Dict[str, OriginDigest]
) -> Dict[Tuple[str, str], List[bytes]]:
    """All pairwise origin disagreements across many domains, via one index.

    Equivalent to running :func:`digest_conflicts` over every pair of
    domains — the same ``(a, b) -> conflicting prefix digests`` result,
    with ``a < b`` lexicographically — but built from a single inverted
    ``prefix digest -> origin digest -> carriers`` index, so the cost is
    O(total table entries + conflicts) instead of O(domains² · table).
    At federation scale the pairwise walk is what turned a 1000-AS check
    into a timeout: ~500k pair comparisons, each iterating a full table,
    for the common case of *zero* disagreement.

    Deterministic: pairs come back sorted, and each pair's digest list
    follows the first carrier's table order.
    """
    salts = {digest.salt for digest in digests.values()}
    if len(salts) > 1:
        raise PrivacyViolation("digest comparison requires a shared per-check salt")
    index: Dict[bytes, Dict[bytes, List[str]]] = {}
    for node in sorted(digests):
        for key, value in digests[node].entries.items():
            index.setdefault(key, {}).setdefault(value, []).append(node)
    per_pair: Dict[Tuple[str, str], List[bytes]] = {}
    for key, groups in index.items():
        if len(groups) < 2:
            continue
        carriers = list(groups.values())
        for i, group in enumerate(carriers):
            for other in carriers[i + 1:]:
                for a in group:
                    for b in other:
                        pair = (a, b) if a < b else (b, a)
                        per_pair.setdefault(pair, []).append(key)
    return dict(sorted(per_pair.items()))


def resolve_digest(
    router: BgpRouter, salt: bytes, target: bytes
) -> Optional[Prefix]:
    """Map a prefix digest back to a prefix — only over one's *own* table.

    This is the owning domain's decode step for acting on a finding; it
    cannot reveal anything about another domain's table.
    """
    for prefix, _ in router.loc_rib.items():
        if prefix_digest(salt, prefix) == target:
            return prefix
    return None


class PrivacyGuard:
    """Enforces that only digests leave an administrative domain.

    The guard exposes the narrow interface (:meth:`publish_digest`) and
    hard-fails on anything that would export raw private state, making
    the boundary auditable in tests.
    """

    #: Attribute names that constitute raw private state.
    _FORBIDDEN = ("config", "loc_rib", "adj_rib_in", "adj_rib_out", "sessions")

    def __init__(self, router: BgpRouter, domain: str):
        self._router = router
        self.domain = domain

    def publish_digest(self, salt: bytes) -> OriginDigest:
        """The only cross-domain export: the salted origin digest."""
        return OriginDigest.from_router(self._router, salt)

    def export(self, what: str):
        """Any raw-state export attempt is a privacy violation."""
        if what in self._FORBIDDEN:
            raise PrivacyViolation(
                f"domain {self.domain!r} refuses to export raw {what!r}; "
                f"use publish_digest() instead"
            )
        raise PrivacyViolation(f"unknown export {what!r} refused by default")

    def local_router(self) -> BgpRouter:
        """Full access for the domain's own tooling (not cross-domain)."""
        return self._router
