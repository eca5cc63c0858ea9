"""Tests for constraint-result caching and solver determinism hooks."""

import pickle

import pytest

from repro.concolic.expr import BinOp, Const, Var
from repro.concolic.solver import ConstraintSolver, DictConstraintCache
from repro.concolic.solver.cache import (
    canonical_query_key,
    entry_for_model,
    model_from_entry,
)

X = Var("x", 8)
Y = Var("y", 8)
DOMAINS = {"x": (0, 255), "y": (0, 255)}


def gt(left, value):
    return BinOp("gt", left, Const(value))


class TestCanonicalKey:
    def test_stable_across_calls(self):
        constraints = [gt(X, 10), gt(Y, 20)]
        assert canonical_query_key(constraints, DOMAINS) == canonical_query_key(
            list(constraints), dict(DOMAINS)
        )

    def test_sensitive_to_constraints(self):
        assert canonical_query_key([gt(X, 10)], DOMAINS) != canonical_query_key(
            [gt(X, 11)], DOMAINS
        )

    def test_sensitive_to_constraint_order(self):
        # The conjunction is order-insensitive logically, but negation
        # queries are built positionally; keeping order in the key is the
        # conservative (never wrongly-equal) choice.
        a = canonical_query_key([gt(X, 10), gt(Y, 20)], DOMAINS)
        b = canonical_query_key([gt(Y, 20), gt(X, 10)], DOMAINS)
        assert a != b

    def test_sensitive_to_domains_and_hint(self):
        base = canonical_query_key([gt(X, 10)], DOMAINS)
        assert base != canonical_query_key([gt(X, 10)], {"x": (0, 63), "y": (0, 255)})
        assert base != canonical_query_key([gt(X, 10)], DOMAINS, {"x": 5})
        assert canonical_query_key([gt(X, 10)], DOMAINS, {}) == base

    def test_hint_order_irrelevant(self):
        a = canonical_query_key([gt(X, 10)], DOMAINS, {"x": 1, "y": 2})
        b = canonical_query_key([gt(X, 10)], DOMAINS, {"y": 2, "x": 1})
        assert a == b


class TestEntryCodec:
    def test_sat_round_trip(self):
        entry = entry_for_model({"x": 3, "y": 1}, proved_unsat=False)
        assert entry[0] == "sat"
        assert model_from_entry(entry) == {"x": 3, "y": 1}

    def test_unsat_and_unknown(self):
        assert entry_for_model(None, proved_unsat=True) == ("unsat",)
        assert entry_for_model(None, proved_unsat=False) == ("unknown",)
        assert model_from_entry(("unsat",)) is None

    def test_entries_pickle(self):
        entry = entry_for_model({"x": 3}, proved_unsat=False)
        assert pickle.loads(pickle.dumps(entry)) == entry


class TestCachedSolver:
    def test_second_identical_query_hits(self):
        cache = DictConstraintCache()
        solver = ConstraintSolver(cache=cache)
        constraints = [gt(X, 200), gt(Y, 100)]
        first = solver.solve(constraints, DOMAINS, hint={"x": 0, "y": 0})
        second = solver.solve(constraints, DOMAINS, hint={"x": 0, "y": 0})
        assert first == second
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_misses == 1
        assert solver.stats.sat == 2  # the hit is accounted like a solve

    def test_different_hint_is_a_different_query(self):
        cache = DictConstraintCache()
        solver = ConstraintSolver(cache=cache)
        constraints = [gt(X, 200)]
        solver.solve(constraints, DOMAINS, hint={"x": 0, "y": 0})
        solver.solve(constraints, DOMAINS, hint={"x": 250, "y": 0})
        assert solver.stats.cache_hits == 0
        assert solver.stats.cache_misses == 2

    def test_unsat_results_cached(self):
        cache = DictConstraintCache()
        solver = ConstraintSolver(cache=cache)
        impossible = [BinOp("lt", X, Const(0))]
        assert solver.solve(impossible, DOMAINS) is None
        assert solver.solve(impossible, DOMAINS) is None
        assert solver.stats.cache_hits == 1
        assert solver.stats.unsat_proved == 2

    def test_cache_shared_across_solvers(self):
        cache = DictConstraintCache()
        a = ConstraintSolver(cache=cache, deterministic_rng=True)
        b = ConstraintSolver(cache=cache, deterministic_rng=True)
        constraints = [gt(X, 200), gt(Y, 100)]
        hint = {"x": 0, "y": 0}
        assert a.solve(constraints, DOMAINS, hint=hint) == b.solve(
            constraints, DOMAINS, hint=hint
        )
        assert b.stats.cache_hits == 1

    def test_deterministic_rng_reproducible_across_fresh_solvers(self):
        # Two solvers with *different* query histories must return the
        # same model for the same query — the invariant that makes a
        # shared cache safe.
        constraints = [gt(X, 128), gt(Y, 128)]
        hint = {"x": 0, "y": 0}
        a = ConstraintSolver(deterministic_rng=True)
        b = ConstraintSolver(deterministic_rng=True)
        b.solve([gt(Y, 5)], DOMAINS, hint=hint)  # perturb b's history
        assert a.solve(constraints, DOMAINS, hint=hint) == b.solve(
            constraints, DOMAINS, hint=hint
        )

    def test_uncached_solver_unchanged(self):
        solver = ConstraintSolver()
        model = solver.solve([gt(X, 10)], DOMAINS, hint={"x": 0, "y": 0})
        assert model is not None and model["x"] > 10
        assert solver.stats.cache_hits == 0
        assert solver.stats.cache_misses == 0


class TestDictConstraintCache:
    def test_counters(self):
        cache = DictConstraintCache()
        assert cache.get(b"k") is None
        cache.put(b"k", ("sat", (("x", 1),)))
        assert cache.get(b"k") == ("sat", (("x", 1),))
        info = cache.info()
        assert info["entries"] == 1
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["evictions"] == 0
