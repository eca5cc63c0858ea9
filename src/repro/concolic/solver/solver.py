"""The composite constraint solver used by the exploration loop.

A query is a conjunction of boolean expressions over bounded integer
variables, plus a *hint* assignment (the concrete input of the run whose
branch is being negated).  The pipeline, cheapest first:

1. **constant screening** — a constraint folded to ``false`` proves UNSAT;
2. **interval propagation** — narrows variable domains, may prove UNSAT;
3. **hint check** — the clipped hint may already satisfy the query (the
   negated branch can flip "for free" when domains were narrowed);
4. **linear inversion** — solve the atoms of the negated constraint for
   one variable at a time (exact, handles the vast majority of queries);
5. **bounded enumeration** — exhaustive scan of one small-domain variable;
6. **guided local search** — hill climbing on branch distance.

Failures are reported as *unknown* (not UNSAT) unless step 1/2 proved
unsatisfiability; the explorer counts both, and EXPERIMENTS.md reports the
observed solver success rates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.concolic.expr import BinOp, Const, Expr, UnaryOp
from repro.concolic.solver import search
from repro.concolic.solver.cache import (
    ConstraintCache,
    box_subsumes,
    canonical_query_key,
    entry_for_model,
    model_from_entry,
    semantic_query_key,
)
from repro.concolic.solver.intervals import (
    Interval,
    memo_counters,
    narrow,
    propagate,
)
from repro.concolic.solver.linear import solve_atom

Assignment = Dict[str, int]


@dataclass
class SolverStats:
    """Counters describing how queries were dispatched and resolved.

    The ``*_time`` fields break ``total_time`` down by pipeline stage
    (key computation and cache lookups are the remainder), so profiles
    can tell "slow because local search runs" from "slow because every
    query re-keys a long conjunction".
    """

    queries: int = 0
    sat: int = 0
    unsat_proved: int = 0
    unknown: int = 0
    hint_hits: int = 0
    linear_hits: int = 0
    enumeration_hits: int = 0
    search_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    semantic_lookups: int = 0
    semantic_hits: int = 0
    semantic_model_hits: int = 0
    propagate_memo_hits: int = 0
    propagate_memo_misses: int = 0
    total_time: float = 0.0
    key_time: float = 0.0
    screen_time: float = 0.0
    propagate_time: float = 0.0
    hint_time: float = 0.0
    linear_time: float = 0.0
    enum_time: float = 0.0
    search_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "sat": self.sat,
            "unsat_proved": self.unsat_proved,
            "unknown": self.unknown,
            "hint_hits": self.hint_hits,
            "linear_hits": self.linear_hits,
            "enumeration_hits": self.enumeration_hits,
            "search_hits": self.search_hits,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "semantic_lookups": self.semantic_lookups,
            "semantic_hits": self.semantic_hits,
            "semantic_model_hits": self.semantic_model_hits,
            "propagate_memo_hits": self.propagate_memo_hits,
            "propagate_memo_misses": self.propagate_memo_misses,
            "total_time": self.total_time,
            "key_time": self.key_time,
            "screen_time": self.screen_time,
            "propagate_time": self.propagate_time,
            "hint_time": self.hint_time,
            "linear_time": self.linear_time,
            "enum_time": self.enum_time,
            "search_time": self.search_time,
            "cache_hit_rate": self.cache_hit_rate,
            "semantic_hit_rate": self.semantic_hit_rate,
            "propagate_memo_hit_rate": self.propagate_memo_hit_rate,
        }

    @property
    def sat_rate(self) -> float:
        return self.sat / self.queries if self.queries else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def semantic_hit_rate(self) -> float:
        """Subsumption-probe hits over probes (probes run on exact misses)."""
        if not self.semantic_lookups:
            return 0.0
        return self.semantic_hits / self.semantic_lookups

    @property
    def propagate_memo_hit_rate(self) -> float:
        """Per-(node, box) memo hits over all interval memo lookups."""
        lookups = self.propagate_memo_hits + self.propagate_memo_misses
        return self.propagate_memo_hits / lookups if lookups else 0.0

    def stage_times(self) -> Dict[str, float]:
        """The per-stage breakdown alone, for compact progress displays."""
        return {
            "key": self.key_time,
            "screen": self.screen_time,
            "propagate": self.propagate_time,
            "hint": self.hint_time,
            "linear": self.linear_time,
            "enum": self.enum_time,
            "search": self.search_time,
        }


def merge_stats_dict(
    totals: Dict[str, float], other: Dict[str, float]
) -> Dict[str, float]:
    """Fold one :meth:`SolverStats.as_dict` into a running total, in place.

    The single definition of the aggregation rule every cross-session
    view uses (``ExplorationReport.absorb``, ``StreamReport.solver_totals``):
    plain counters sum; derived ratios (``*_rate`` keys) are skipped and
    ``cache_hit_rate`` is recomputed from the summed counters, so adding
    a stage or ratio to ``SolverStats`` cannot silently be summed wrong
    in one consumer.
    """
    for key, value in other.items():
        if key.endswith("_rate") or not isinstance(value, (int, float)):
            continue
        totals[key] = totals.get(key, 0) + value
    lookups = totals.get("cache_hits", 0) + totals.get("cache_misses", 0)
    if lookups:
        totals["cache_hit_rate"] = totals["cache_hits"] / lookups
    probes = totals.get("semantic_lookups", 0)
    if probes:
        totals["semantic_hit_rate"] = totals.get("semantic_hits", 0) / probes
    memo_lookups = totals.get("propagate_memo_hits", 0) + totals.get(
        "propagate_memo_misses", 0
    )
    if memo_lookups:
        totals["propagate_memo_hit_rate"] = (
            totals["propagate_memo_hits"] / memo_lookups
        )
    return totals


@dataclass
class ConstraintSolver:
    """Facade combining screening, intervals, linear solving and search.

    ``cache`` (optional) short-circuits queries whose canonical form —
    constraints, domains, *and* hint — has been solved before, anywhere
    the cache is shared (see :mod:`repro.concolic.solver.cache`).
    ``deterministic_rng`` makes the local-search stage a pure function of
    the query (its RNG is derived from the canonical key instead of a
    shared stream), so a cached entry is exactly what a fresh solve would
    produce; parallel exploration workers enable both.

    ``semantic`` enables subsumption probes of the cache's semantic
    index on exact-key misses.  UNSAT proofs borrowed this way are
    always result-deterministic (a fresh solve of a query subsumed by a
    proved-UNSAT one must also return None), so they are safe under any
    scheduling.  Borrowed SAT *models* are re-checked before reuse and
    therefore sound, but which model the index happens to hold depends
    on solve order — so model reuse defaults to ``not
    deterministic_rng``: on for solo engines, off for parallel workers
    whose results must be worker-count-independent
    (``semantic_model_reuse`` overrides explicitly).
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0x51CE))
    max_search_iters: int = 2000
    enum_limit: int = 4096
    stats: SolverStats = field(default_factory=SolverStats)
    cache: Optional[ConstraintCache] = None
    deterministic_rng: bool = False
    semantic: bool = True
    semantic_model_reuse: Optional[bool] = None

    @property
    def wants_key(self) -> bool:
        """True when :meth:`solve` would compute a query key anyway.

        Callers that can derive the key incrementally (the engine's
        rolling per-prefix digests) check this before paying for one; a
        solver with neither cache nor deterministic RNG never looks at
        keys at all.
        """
        return self.cache is not None or self.deterministic_rng

    @property
    def wants_semantic(self) -> bool:
        """True when :meth:`solve` would probe the semantic index.

        Mirrors :attr:`wants_key` for the constraints-only digest: the
        engine derives semantic keys incrementally too, and checks this
        before paying for them.
        """
        return (
            self.semantic
            and self.cache is not None
            and hasattr(self.cache, "get_semantic")
        )

    @property
    def _semantic_models_allowed(self) -> bool:
        if self.semantic_model_reuse is not None:
            return self.semantic_model_reuse
        return not self.deterministic_rng

    def solve(
        self,
        constraints: Sequence[Expr],
        domains: Dict[str, Interval],
        hint: Optional[Assignment] = None,
        key: Optional[bytes] = None,
        semantic_key: Optional[bytes] = None,
    ) -> Optional[Assignment]:
        """Find an assignment satisfying every constraint, or None.

        ``domains`` maps every variable to its inclusive value range; the
        returned assignment covers exactly the domain variables.  ``key``
        (optional) is a precomputed :func:`canonical_query_key` for this
        exact query — the engine passes one derived incrementally from
        the path's rolling prefix digests; when omitted and needed it is
        computed from scratch here, with byte-identical results.
        ``semantic_key`` is the analogous precomputed
        :func:`semantic_query_key`.
        """
        constraints = list(constraints)
        hint_map = dict(hint or {})
        return self._run_query(
            lambda: constraints,
            domains,
            hint_map,
            key,
            semantic_key,
            lambda rng: self._solve(
                list(constraints), dict(domains), hint_map, rng
            ),
        )

    def _run_query(
        self,
        constraints_fn,
        domains: Dict[str, Interval],
        hint: Assignment,
        key: Optional[bytes],
        semantic_key: Optional[bytes],
        solve_fn,
    ) -> Optional[Assignment]:
        """The key/cache/RNG ceremony shared by :meth:`solve` and
        :meth:`solve_batch`.

        ``constraints_fn`` materializes the query conjunction on demand
        (the batch path avoids building it for exact-key hits);
        ``solve_fn`` runs the actual pipeline under the derived RNG.
        Interval-memo counter deltas are attributed to this query's
        stats here so both entry points account them identically.
        """
        started = time.perf_counter()
        stats = self.stats
        stats.queries += 1
        memo_hits_before, memo_misses_before = memo_counters()
        try:
            if key is None and self.wants_key:
                key = canonical_query_key(constraints_fn(), domains, hint)
                stats.key_time += time.perf_counter() - started
            semantic = self.wants_semantic
            if self.cache is not None:
                entry = self.cache.get(key)
                if entry is not None:
                    return self._replay_entry(entry)
                stats.cache_misses += 1
                if semantic:
                    if semantic_key is None:
                        semantic_key = semantic_query_key(constraints_fn())
                    hit, model = self._semantic_probe(
                        constraints_fn(), domains, semantic_key
                    )
                    if hit:
                        return model
            rng = self.rng
            if self.deterministic_rng:
                rng = random.Random(int.from_bytes(key[:8], "big"))
            unsat_before = stats.unsat_proved
            model = solve_fn(rng)
            if self.cache is not None:
                entry = entry_for_model(model, stats.unsat_proved > unsat_before)
                self.cache.put(key, entry)
                if semantic:
                    self.cache.put_semantic(semantic_key, domains, entry)
            return model
        finally:
            memo_hits, memo_misses = memo_counters()
            stats.propagate_memo_hits += memo_hits - memo_hits_before
            stats.propagate_memo_misses += memo_misses - memo_misses_before
            stats.total_time += time.perf_counter() - started

    def _semantic_probe(
        self,
        constraints: List[Expr],
        domains: Dict[str, Interval],
        semantic_key: bytes,
    ) -> Tuple[bool, Optional[Assignment]]:
        """Probe the subsumption index; returns (hit, model).

        A candidate answers only if its box covers the query box over the
        same variables.  UNSAT proofs transfer unconditionally (sound and
        deterministic); SAT models transfer only when allowed *and* the
        model re-validates against this query — a semantic hit is never
        written back under the exact key, so exact-layer determinism is
        untouched.
        """
        stats = self.stats
        stats.semantic_lookups += 1
        candidates = self.cache.get_semantic(semantic_key)
        if not candidates:
            return False, None
        models_allowed = self._semantic_models_allowed
        for wider, entry in candidates:
            if not box_subsumes(wider, domains):
                continue
            if entry[0] == "unsat":
                stats.semantic_hits += 1
                stats.unsat_proved += 1
                return True, None
            if entry[0] == "sat" and models_allowed:
                model = dict(entry[1])
                if search.validate_model(constraints, model, domains):
                    stats.semantic_hits += 1
                    stats.semantic_model_hits += 1
                    stats.sat += 1
                    return True, model
        return False, None

    def _replay_entry(self, entry) -> Optional[Assignment]:
        """Account a cache hit with the same counters a fresh solve would."""
        self.stats.cache_hits += 1
        if entry[0] == "sat":
            self.stats.sat += 1
        elif entry[0] == "unsat":
            self.stats.unsat_proved += 1
        else:
            self.stats.unknown += 1
        return model_from_entry(entry)

    def solve_batch(
        self,
        prefix: Sequence[Expr],
        negations: Sequence[Tuple[int, Expr]],
        domains: Dict[str, Interval],
        hint: Optional[Assignment] = None,
        keys: Optional[Sequence[Optional[bytes]]] = None,
        semantic_keys: Optional[Sequence[Optional[bytes]]] = None,
    ) -> List[Optional[Assignment]]:
        """Solve one execution's sibling negations in one batch.

        ``negations`` holds ``(length, negated_constraint)`` pairs; query
        *j* is the conjunction ``prefix[:length_j] + [negated_j]`` —
        exactly what :meth:`solve` would receive per branch of a negation
        sweep.  ``keys``/``semantic_keys`` (optional, per query) are the
        engine's incrementally derived digests.

        Results, stats, cache traffic and RNG consumption are identical
        to calling :meth:`solve` per query in order.  The win is in the
        propagate stage: the first narrowing pass over the shared prefix
        is computed once and forked per sibling — sound because a
        sequential round's narrowing of prefix constraint *k* sees only
        the writes of constraints ``0..k-1``, never the trailing
        negation, so the round-1 prefix boxes are negation-independent.
        Later rounds run per sibling (the negation's narrowing can feed
        back into the prefix) but hit the per-node interval memos.
        """
        stats = self.stats
        hint_map = dict(hint or {})

        # Shared constant screening over the prefix: the first position
        # folded to false (everything at or past it is UNSAT), and the
        # running count of live (non-Const) prefix constraints.
        kept: List[Expr] = []
        kept_counts: List[int] = [0]
        false_at: Optional[int] = None
        for position, constraint in enumerate(prefix):
            if false_at is None and isinstance(constraint, Const):
                if not constraint.value:
                    false_at = position
            elif false_at is None:
                kept.append(constraint)
            kept_counts.append(len(kept))

        # Shared round-1 narrowing: boxes[k] is the box after one
        # sequential pass over kept[:k], grown lazily; changed_flags[k]
        # records whether narrowing kept[k] moved anything.
        boxes: List[Dict[str, Interval]] = [dict(domains)]
        changed_flags: List[bool] = []
        shared_state = {"none_at": None}

        def extend_shared(upto: int) -> None:
            while len(changed_flags) < upto and shared_state["none_at"] is None:
                position = len(changed_flags)
                box = dict(boxes[position])
                result = narrow(kept[position], box)
                if result is None:
                    shared_state["none_at"] = position
                    return
                boxes.append(box)
                changed_flags.append(bool(result))

        def forked_solve(
            length: int, negation: Expr, rng: Optional[random.Random]
        ) -> Optional[Assignment]:
            mark = time.perf_counter()

            # 1. Constant screening (shared prefix screen + the negation).
            if false_at is not None and false_at < length:
                stats.unsat_proved += 1
                stats.screen_time += time.perf_counter() - mark
                return None
            live_count = kept_counts[length]
            live = kept[:live_count]
            if isinstance(negation, Const):
                if not negation.value:
                    stats.unsat_proved += 1
                    stats.screen_time += time.perf_counter() - mark
                    return None
                trailing: Optional[Expr] = None
            else:
                trailing = negation
                live = live + [negation]
            if not live:
                stats.sat += 1
                stats.hint_hits += 1
                stats.screen_time += time.perf_counter() - mark
                return self._clip(hint_map, domains)
            now = time.perf_counter()
            stats.screen_time += now - mark
            mark = now

            # 2. Propagation, forked from the shared round-1 prefix box.
            extend_shared(live_count)
            none_at = shared_state["none_at"]
            if none_at is not None and none_at < live_count:
                stats.propagate_time += time.perf_counter() - mark
                stats.unsat_proved += 1
                return None
            narrowed = dict(boxes[live_count])
            changed = any(changed_flags[:live_count])
            if trailing is not None:
                result = narrow(trailing, narrowed)
                if result is None:
                    stats.propagate_time += time.perf_counter() - mark
                    stats.unsat_proved += 1
                    return None
                changed = changed or bool(result)
            if changed:
                # Rounds 2..16, mirroring propagate()'s fixpoint loop.
                unsat = False
                for _ in range(15):
                    round_changed = False
                    for constraint in live:
                        result = narrow(constraint, narrowed)
                        if result is None:
                            unsat = True
                            break
                        round_changed = round_changed or bool(result)
                    if unsat or not round_changed:
                        break
                if unsat:
                    stats.propagate_time += time.perf_counter() - mark
                    stats.unsat_proved += 1
                    return None
            stats.propagate_time += time.perf_counter() - mark
            return self._search_stages(live, narrowed, hint_map, rng)

        results: List[Optional[Assignment]] = []
        for index, (length, negation) in enumerate(negations):
            if not 0 <= length <= len(prefix):
                raise ValueError(
                    f"negation {index}: prefix length {length} out of range"
                )
            materialized: List[Optional[List[Expr]]] = [None]

            def constraints_fn(
                length=length, negation=negation, memo=materialized
            ) -> List[Expr]:
                if memo[0] is None:
                    memo[0] = list(prefix[:length]) + [negation]
                return memo[0]

            results.append(
                self._run_query(
                    constraints_fn,
                    domains,
                    hint_map,
                    keys[index] if keys is not None else None,
                    semantic_keys[index] if semantic_keys is not None else None,
                    lambda rng, length=length, negation=negation: forked_solve(
                        length, negation, rng
                    ),
                )
            )
        return results

    def _solve(
        self,
        constraints: List[Expr],
        domains: Dict[str, Interval],
        hint: Assignment,
        rng: Optional[random.Random] = None,
    ) -> Optional[Assignment]:
        stats = self.stats
        mark = time.perf_counter()

        # 1. Constant screening.
        live: List[Expr] = []
        for constraint in constraints:
            if isinstance(constraint, Const):
                if constraint.value:
                    continue
                stats.unsat_proved += 1
                stats.screen_time += time.perf_counter() - mark
                return None
            live.append(constraint)
        if not live:
            stats.sat += 1
            stats.hint_hits += 1
            stats.screen_time += time.perf_counter() - mark
            return self._clip(hint, domains)
        now = time.perf_counter()
        stats.screen_time += now - mark
        mark = now

        # 2. Interval propagation (may prove UNSAT, always narrows).
        narrowed = propagate(live, domains)
        now = time.perf_counter()
        stats.propagate_time += now - mark
        if narrowed is None:
            stats.unsat_proved += 1
            return None

        return self._search_stages(live, narrowed, hint, rng)

    def _search_stages(
        self,
        live: List[Expr],
        narrowed: Dict[str, Interval],
        hint: Assignment,
        rng: Optional[random.Random],
    ) -> Optional[Assignment]:
        """Pipeline stages 3-6 (hint, linear, enumeration, local search).

        Shared verbatim by :meth:`_solve` and the batched sibling path in
        :meth:`solve_batch`, so the two entry points cannot drift.
        """
        stats = self.stats
        mark = time.perf_counter()

        # 3. The clipped hint may already be a model.
        env = self._clip(hint, narrowed)
        satisfied = search.satisfies(live, env)
        now = time.perf_counter()
        stats.hint_time += now - mark
        mark = now
        if satisfied:
            stats.sat += 1
            stats.hint_hits += 1
            return env

        # 4. Linear inversion, repairing one variable of one failing atom.
        repaired = self._linear_repair(live, narrowed, env)
        now = time.perf_counter()
        stats.linear_time += now - mark
        mark = now
        if repaired is not None:
            stats.sat += 1
            stats.linear_hits += 1
            return repaired

        # 5. Bounded exhaustive enumeration of one small variable.
        enumerated = self._enumerate(live, narrowed, env)
        now = time.perf_counter()
        stats.enum_time += now - mark
        mark = now
        if enumerated is not None:
            stats.sat += 1
            stats.enumeration_hits += 1
            return enumerated

        # 6. Guided local search.
        found = search.local_search(
            live, narrowed, env, rng if rng is not None else self.rng,
            max_iters=self.max_search_iters,
        )
        stats.search_time += time.perf_counter() - mark
        if found is not None:
            stats.sat += 1
            stats.search_hits += 1
            return found

        stats.unknown += 1
        return None

    @staticmethod
    def _clip(hint: Assignment, domains: Dict[str, Interval]) -> Assignment:
        """Project the hint into the domain boxes (missing vars -> lo)."""
        env: Assignment = {}
        for name, (lo, hi) in domains.items():
            value = hint.get(name, lo)
            env[name] = min(max(value, lo), hi)
        return env

    def _linear_repair(
        self,
        constraints: List[Expr],
        domains: Dict[str, Interval],
        env: Assignment,
    ) -> Optional[Assignment]:
        """Fix failing constraints by solving atoms one variable at a time.

        Iterates a few rounds because repairing one constraint can break
        another; each accepted repair strictly reduces total penalty, so
        the loop terminates.
        """
        current = dict(env)
        penalty = search.total_penalty(constraints, current)
        for _ in range(8):
            if penalty == 0:
                return current
            progressed = False
            for constraint in constraints:
                if search.branch_distance(constraint, current) == 0:
                    continue
                for atom in _atoms(constraint):
                    for var in sorted(atom.variables()):
                        if var not in domains:
                            continue
                        value = solve_atom(atom, var, current, domains[var], current[var])
                        if value is None:
                            continue
                        trial = dict(current)
                        trial[var] = value
                        trial_penalty = search.total_penalty(constraints, trial)
                        if trial_penalty < penalty:
                            current, penalty = trial, trial_penalty
                            progressed = True
                            break
                    if progressed:
                        break
                if progressed:
                    break
            if not progressed:
                return current if penalty == 0 else None
        return current if penalty == 0 else None

    def _enumerate(
        self,
        constraints: List[Expr],
        domains: Dict[str, Interval],
        env: Assignment,
    ) -> Optional[Assignment]:
        failing_vars: List[str] = []
        for constraint in constraints:
            if search.branch_distance(constraint, env) > 0:
                failing_vars.extend(sorted(constraint.variables()))
        seen = set()
        for var in failing_vars:
            if var in seen or var not in domains:
                continue
            seen.add(var)
            value = search.enumerate_variable(
                constraints, env, var, domains[var], limit=self.enum_limit
            )
            if value is not None:
                model = dict(env)
                model[var] = value
                return model
        return None


def _atoms(constraint: Expr) -> List[Expr]:
    """Decompose nested conjunctions/disjunctions into comparison atoms.

    For a disjunction, each disjunct is an independent repair opportunity;
    for a conjunction, all conjuncts are (the repair loop re-checks the
    full constraint after every candidate fix, so over-approximating the
    atom list is safe).
    """
    if isinstance(constraint, BinOp) and constraint.op in ("land", "lor"):
        return _atoms(constraint.left) + _atoms(constraint.right)
    if isinstance(constraint, UnaryOp) and constraint.op == "lnot":
        from repro.concolic.expr import negate

        return _atoms(negate(constraint.operand))
    return [constraint]
