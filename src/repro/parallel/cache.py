"""The cross-worker constraint-result cache.

Builds on the solver-layer hook (:mod:`repro.concolic.solver.cache`):
entries live in ``multiprocessing.Manager`` dicts shared by every worker
process, with a bounded per-process memo in front so each unique query
pays at most one IPC round-trip per worker.

A proxy lookup is ~100µs while many solver queries resolve in ~10µs, so
the L1 matters: without it a cache could make exploration *slower* than
just re-solving.  Writes go through to the shared layer so other workers
benefit; reads fill the L1.

:class:`ShardedConstraintCache` partitions the key space across N
manager *processes* (key-hash → shard; :func:`start_sharded_cache`
starts them).  Cache keys are uniform blake2b digests, so
``key[0] % shards`` balances load and solver IPC does not funnel through
one process — a single manager shows up in profiles at higher worker
counts.

The cache is picklable (workers receive it at spawn); only the proxies
travel — the local layer starts empty in each process.  Proxy operations
can fail when the owning manager has shut down (a worker outliving its
pool, or a manager process killed under it); the cache degrades to
L1-only rather than erroring, since a cache miss is always safe.
Degradation is *tracked*, not silent: a failing
shard is marked dead (no further IPC attempts against it), the
``degraded`` flag and ``degraded_ops`` counter record the loss, and
:meth:`ShardedConstraintCache.info` reports per-shard liveness so the
streaming progress line can surface "cache degraded 2/4 shards" instead
of dead shards quietly counting zero entries.
"""

from __future__ import annotations

import hashlib
from multiprocessing.managers import SyncManager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.concolic.solver.cache import EXACT_ENTRIES, CacheEntry, SemanticIndex
from repro.concolic.solver.intervals import Interval
from repro.util.memo import Memo


class ShardedConstraintCache:
    """Two-level cache: per-process L1 over hash-partitioned shared dicts.

    Shard choice is a pure function of the key (``key[0] % shards``), so
    every process agrees where an entry lives without coordination, and
    determinism is untouched: a hit returns exactly the entry a local
    solve would have produced (the solver-layer invariant), wherever it
    was stored.

    The **semantic (subsumption) index** is deliberately L1-only: a
    probe on every exact miss would double the manager IPC it exists to
    avoid, and a miss is always safe.  Each worker builds its own view
    from the queries it solves; exact entries still cross processes.
    Workers gate semantic *model* reuse off anyway (they run with
    ``deterministic_rng``), so per-process indexes cannot introduce
    schedule dependence — only per-process UNSAT shortcuts.
    """

    def __init__(self, shards: Sequence) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("at least one cache shard is required")
        self._shards = shards
        self._local = Memo(EXACT_ENTRIES)
        self._semantic = SemanticIndex()
        self.hits = 0
        self.misses = 0
        #: Shard indices whose manager has failed a proxy operation.
        #: Marked once, skipped thereafter: retrying a dead manager costs
        #: a connect timeout per call, which would turn one lost process
        #: into a per-solve latency tax.
        self._dead: Set[int] = set()
        #: Operations that would have reached a dead shard (failed or
        #: skipped) — the size of the degradation, for reports.
        self.degraded_ops = 0

    def _shard_index(self, key: bytes) -> int:
        if len(self._shards) == 1:
            return 0
        return key[0] % len(self._shards)

    def _shard_for(self, key: bytes):
        return self._shards[self._shard_index(key)]

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def degraded(self) -> bool:
        """Has any shard's manager died under this process's view?"""
        return bool(self._dead)

    @property
    def degraded_shards(self) -> int:
        return len(self._dead)

    def _mark_dead(self, index: int) -> None:
        self._dead.add(index)

    def get(self, key: bytes) -> Optional[CacheEntry]:
        entry = self._local.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        index = self._shard_index(key)
        if index in self._dead:
            self.degraded_ops += 1
            self.misses += 1
            return None
        try:
            entry = self._shards[index].get(key)
        except Exception:  # manager gone: degrade to L1-only
            self._mark_dead(index)
            self.degraded_ops += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._local.put(key, entry)
        return entry

    def put(self, key: bytes, entry: CacheEntry) -> None:
        self._local.put(key, entry)
        index = self._shard_index(key)
        if index in self._dead:
            self.degraded_ops += 1
            return
        try:
            self._shards[index][key] = entry
        except Exception:
            self._mark_dead(index)
            self.degraded_ops += 1

    def get_semantic(self, key: bytes) -> Sequence:
        """Candidate ``(box_items, entry)`` pairs from this process's index."""
        return self._semantic.get(key)

    def put_semantic(
        self, key: bytes, domains: Dict[str, Interval], entry: CacheEntry
    ) -> None:
        self._semantic.put(key, domains, entry)

    def shared_size(self) -> int:
        """Entries visible across the *live* shards.

        Dead shards contribute nothing — and get marked, so the probe
        itself keeps the liveness view honest rather than letting a dead
        shard masquerade as merely empty.
        """
        total = 0
        for index, shard in enumerate(self._shards):
            if index in self._dead:
                continue
            try:
                total += len(shard)
            except Exception:
                self._mark_dead(index)
        return total

    def info(self) -> Dict[str, object]:
        """Per-shard liveness and entry counts, plus the L1 view.

        Probes every shard not already known dead (one ``len`` each) and
        marks the ones that fail, so the returned ``degraded_shards``
        reflects managers that died since the last operation — not just
        ones a get/put happened to trip over.  A dead shard reports
        ``entries: None``, never a misleading 0.
        """
        per_shard: List[Dict[str, object]] = []
        for index, shard in enumerate(self._shards):
            entries: Optional[int] = None
            if index not in self._dead:
                try:
                    entries = len(shard)
                except Exception:
                    self._mark_dead(index)
            per_shard.append(
                {"alive": index not in self._dead, "entries": entries}
            )
        return {
            "shards": len(self._shards),
            "alive_shards": len(self._shards) - len(self._dead),
            "degraded_shards": len(self._dead),
            "degraded": bool(self._dead),
            "degraded_ops": self.degraded_ops,
            "l1_entries": len(self._local),
            "hits": self.hits,
            "misses": self.misses,
            "per_shard": per_shard,
        }

    def __getstate__(self) -> dict:
        # Only the proxies cross the process boundary; the L1 and its
        # counters are per-process state.
        return {"_shards": self._shards}

    def __setstate__(self, state: dict) -> None:
        self._shards = state["_shards"]
        self._local = Memo(EXACT_ENTRIES)
        self._semantic = SemanticIndex()
        self.hits = 0
        self.misses = 0
        self._dead = set()
        self.degraded_ops = 0


class TenantCacheView:
    """A tenant-scoped facade over a shared constraint cache.

    When one streaming pool serves several federations (service mode),
    their workers share one sharded cache — but two tenants exploring
    different topologies must never read each other's entries, even if a
    query key happens to collide.  The view appends a per-tenant digest
    to every key before delegating, so each tenant sees a disjoint slice
    of the same shards.

    The scope is a *suffix*, not a prefix, on purpose: the sharded cache
    routes by ``key[0]``, so a common prefix would funnel a whole tenant
    into one shard and re-create the single-manager bottleneck the
    shards exist to avoid.  Keys are uniform solver digests, so the
    suffix preserves balance.

    Everything that is not a keyed operation (``hits``, ``info()``,
    ``shared_size()``) passes through to the underlying cache — the
    counters are per-process observations, shared fate is the point.
    """

    def __init__(self, cache, tenant: str) -> None:
        if not tenant:
            raise ValueError("tenant must be a non-empty string")
        self._cache = cache
        self.tenant = tenant
        self._suffix = hashlib.blake2b(
            tenant.encode("utf-8"), digest_size=8
        ).digest()

    def _scoped(self, key: bytes) -> bytes:
        return key + self._suffix

    def get(self, key: bytes) -> Optional[CacheEntry]:
        return self._cache.get(self._scoped(key))

    def put(self, key: bytes, entry: CacheEntry) -> None:
        self._cache.put(self._scoped(key), entry)

    def get_semantic(self, key: bytes) -> Sequence:
        return self._cache.get_semantic(self._scoped(key))

    def put_semantic(
        self, key: bytes, domains: Dict[str, Interval], entry: CacheEntry
    ) -> None:
        self._cache.put_semantic(self._scoped(key), domains, entry)

    def __getattr__(self, name: str):
        # Counters, liveness probes, anything unkeyed: shared fate with
        # the cache underneath.  Dunder lookups (pickle protocol probes)
        # must resolve on the view itself, never the delegate.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        return getattr(self._cache, name)


def start_sharded_cache(
    shards: int = 4,
) -> Tuple[ShardedConstraintCache, List[SyncManager]]:
    """Start ``shards`` manager processes and build the cache over them.

    The caller owns the manager handles: the streaming coordinator keeps
    them to shut down at ``close()``, to probe liveness, and (under the
    chaos harness) to kill mid-run.  A startup failure partway
    through (fork refused under memory pressure) shuts down the managers
    already started and propagates, so the caller can fall back to a
    smaller configuration or an in-process cache.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    managers: List[SyncManager] = []
    proxies = []
    try:
        for _ in range(shards):
            manager = SyncManager()
            manager.start()
            managers.append(manager)
            proxies.append(manager.dict())
    except BaseException:
        shutdown_cache_managers(managers)
        raise
    return ShardedConstraintCache(proxies), managers


def shutdown_cache_managers(managers: Sequence[SyncManager]) -> None:
    """Best-effort shutdown of shard managers (idempotent, never raises)."""
    for manager in managers:
        try:
            manager.shutdown()
        except Exception:
            pass
