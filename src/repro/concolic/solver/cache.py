"""Constraint-query result caching for the exploration loop.

Negating branch *i* of a path condition asks the solver for a model of
the conjunction ``held(0..i-1) ∧ ¬branch(i)``.  When exploration fans a
batch of observed seeds out to workers (``repro.parallel``), many of
those conjunctions are *identical* across sessions — duplicate seeds in
the observed ring buffers reproduce the same path conditions branch for
branch — so solving each query once and sharing the result is pure
profit.

The cache key canonicalizes the whole query: the constraint conjunction
(structural, via the expressions' canonical renderings), the variable
domains, and the solver hint.  Including the hint makes a cache hit
*bit-identical* to what the session would have computed locally (the
hint seeds stages 3-6 of the solver pipeline), which is what keeps
multi-worker exploration deterministic: a session cannot observe a
different model merely because another worker solved the query first.

Cached entries record the outcome category, so stats stay faithful:

* ``("sat", ((name, value), ...))`` — a model, as sorted items;
* ``("unsat",)`` — proved unsatisfiable;
* ``("unknown",)`` — every pipeline stage gave up.

**Semantic (subsumption) lookups.**  Exact keys only hit when the whole
query — constraints, domains, *and* hint — recurs bit-for-bit.  Near
misses in practice share the constraint conjunction but differ in hint
or box: the same negation reached from a different seed.  The
:class:`SemanticIndex` maps a *constraints-only* digest
(:func:`semantic_query_key`) to the domain boxes the conjunction has
been solved under; on an exact miss the solver probes it and can reuse

* an **UNSAT** proof cached under a box that subsumes (covers) the
  query box — always sound *and* deterministic, since a fresh solve of
  the narrower query must also return None;
* a **SAT model** cached under a subsuming box, after re-checking that
  the model lies inside the query box and satisfies the conjunction —
  sound, but the *particular* model can depend on which worker populated
  the index first, so the solver only does this when its results are not
  required to be schedule-independent (see
  ``ConstraintSolver.semantic_model_reuse``).

This module defines the *hook* (key functions, protocol) and the one
implementation, :class:`DictConstraintCache`: every session runs against
an in-process memo, and each pool worker keeps its own (a forked worker
inherits an empty one), so the solver layer has no multiprocessing
concerns.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.concolic.expr import Expr
from repro.concolic.solver.intervals import Interval
from repro.util.memo import Memo

Assignment = Dict[str, int]

#: Exact results an in-process cache or a worker's L1 keeps (FIFO): far
#: above the few dozen distinct queries a benchmark workload solves.
EXACT_ENTRIES = 1 << 16
#: Constraint digests the semantic index keeps, oldest evicted first.
SEMANTIC_KEYS = 4096
#: Domain boxes kept per constraint digest, oldest dropped first.
SEMANTIC_BOXES = 8

#: ("sat", sorted model items) | ("unsat",) | ("unknown",)
CacheEntry = Tuple


def query_key_tail(
    domains: Dict[str, Interval], hint: Optional[Assignment] = None
) -> bytes:
    """The domains+hint suffix of a query key, as one reusable blob.

    Within one execution's negation sweep the domains and the hint (the
    run's concrete assignment) are fixed while the constraint prefix
    grows branch by branch; folding them once into a byte string lets
    :meth:`repro.concolic.path.PathCondition.negation_key` finish each
    per-branch key with a single ``update`` instead of re-walking both
    dicts per branch.
    """
    parts = [b"\x01"]
    for name, (lo, hi) in sorted(domains.items()):
        parts.append(name.encode())
        parts.append(b"\x00")
        parts.append(str(lo).encode())
        parts.append(b"\x00")
        parts.append(str(hi).encode())
        parts.append(b"\x00")
    parts.append(b"\x02")
    for name, value in sorted((hint or {}).items()):
        parts.append(name.encode())
        parts.append(b"\x00")
        parts.append(str(value).encode())
        parts.append(b"\x00")
    return b"".join(parts)


def canonical_query_key(
    constraints: Sequence[Expr],
    domains: Dict[str, Interval],
    hint: Optional[Assignment] = None,
) -> bytes:
    """A digest identifying a solver query up to structural equality.

    Expression rendering is deterministic (every node type defines a
    canonical rendering, cached on the hash-consed node), and
    domains/hint are folded in sorted order, so the key is stable across
    processes and sessions.

    Compatibility: the byte layout is unchanged from the original
    whole-conjunction implementation, so keys computed incrementally by
    the engine (rolling per-prefix digests in
    :meth:`~repro.concolic.path.PathCondition.negation_key`), keys
    computed from scratch here, and keys recorded by older runs all
    address the same cache entries — no shim or cache flush is needed
    across the incremental-digest migration.
    """
    digest = hashlib.blake2b(digest_size=16)
    for constraint in constraints:
        digest.update(constraint.canonical_bytes())
        digest.update(b"\x00")
    digest.update(query_key_tail(domains, hint))
    return digest.digest()


def semantic_query_key(constraints: Sequence[Expr]) -> bytes:
    """A digest of the constraint conjunction alone (no domains, no hint).

    This is the constraint-prefix slice of :func:`canonical_query_key`:
    byte-identical to calling :meth:`PathCondition.negation_key` with an
    empty tail, so the engine's rolling prefix digests yield semantic
    keys in O(1) per branch exactly as they do exact keys.
    """
    digest = hashlib.blake2b(digest_size=16)
    for constraint in constraints:
        digest.update(constraint.canonical_bytes())
        digest.update(b"\x00")
    return digest.digest()


#: A domain box as hashable sorted items, the form the semantic index stores.
BoxItems = Tuple[Tuple[str, Interval], ...]


def box_items(domains: Dict[str, Interval]) -> BoxItems:
    return tuple(sorted(domains.items()))


def box_subsumes(wider: BoxItems, domains: Dict[str, Interval]) -> bool:
    """True when the cached box covers the query box, var for var.

    The variable *sets* must match exactly: a cached result over a
    different variable population answers a different question (and a
    reused model must cover exactly the query's domain variables).
    """
    if len(wider) != len(domains):
        return False
    for name, (lo, hi) in wider:
        current = domains.get(name)
        if current is None or current[0] < lo or current[1] > hi:
            return False
    return True


class SemanticIndex:
    """Constraint digest → the domain boxes it has been solved under.

    A bounded, insertion-ordered two-level map: ``SEMANTIC_KEYS``
    conjunctions (FIFO-evicted), each holding at most ``SEMANTIC_BOXES``
    distinct ``(box, entry)`` candidates (oldest dropped first).
    ``unknown`` outcomes are never indexed — they assert nothing about
    other boxes.
    """

    def __init__(self) -> None:
        self._index = Memo(SEMANTIC_KEYS)
        self._box_evictions = 0

    def __len__(self) -> int:
        return len(self._index)

    @property
    def evictions(self) -> int:
        """Keys and boxes dropped to hold the bounds."""
        return self._index.evictions + self._box_evictions

    def get(self, key: bytes) -> Sequence[Tuple[BoxItems, CacheEntry]]:
        """The cached (box, entry) candidates for a constraint digest."""
        return self._index.get(key) or ()

    def put(self, key: bytes, domains: Dict[str, Interval], entry: CacheEntry) -> None:
        if entry[0] == "unknown":
            return
        bucket = self._index.get(key)
        if bucket is None:
            bucket = []
            self._index.put(key, bucket)
        box = box_items(domains)
        for position, (existing, _) in enumerate(bucket):
            if existing == box:
                bucket[position] = (box, entry)
                return
        if len(bucket) >= SEMANTIC_BOXES:
            del bucket[0]
            self._box_evictions += 1
        bucket.append((box, entry))


def entry_for_model(model: Optional[Assignment], proved_unsat: bool) -> CacheEntry:
    """Encode a solver outcome as a cache entry."""
    if model is not None:
        return ("sat", tuple(sorted(model.items())))
    return ("unsat",) if proved_unsat else ("unknown",)


def model_from_entry(entry: CacheEntry) -> Optional[Assignment]:
    """Decode a cache entry back into a solver result."""
    if entry[0] == "sat":
        return dict(entry[1])
    return None


@runtime_checkable
class ConstraintCache(Protocol):
    """What the solver needs from a constraint-result cache."""

    def get(self, key: bytes) -> Optional[CacheEntry]:
        """The cached entry for ``key``, or None on a miss."""

    def put(self, key: bytes, entry: CacheEntry) -> None:
        """Record the solved entry for ``key``."""


class DictConstraintCache(Memo):
    """An in-process cache (single worker / serial fallback).

    A memo of ``EXACT_ENTRIES`` exact-key results, oldest evicted first,
    beside a :class:`SemanticIndex`.  Evicting an exact entry only loses
    a shortcut, so eviction never affects correctness, only hit rate.
    """

    __slots__ = ("_semantic",)

    def __init__(self) -> None:
        super().__init__(EXACT_ENTRIES)
        self._semantic = SemanticIndex()

    def get_semantic(self, key: bytes) -> Sequence[Tuple[BoxItems, CacheEntry]]:
        return self._semantic.get(key)

    def put_semantic(
        self, key: bytes, domains: Dict[str, Interval], entry: CacheEntry
    ) -> None:
        self._semantic.put(key, domains, entry)

    def info(self) -> Dict[str, int]:
        return {
            **super().info(),
            "entries": len(self),
            "semantic_keys": len(self._semantic),
            "semantic_evictions": self._semantic.evictions,
        }
