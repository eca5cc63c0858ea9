"""The propagate-stage overhaul: node memos, semantic reuse, batching.

Three layers, each pinned against its unoptimized twin:

* **domain-box memoization** — ``eval_interval``/``narrow`` results
  cached on the hash-consed nodes must be observationally identical to
  the plain recursive versions (same narrowed boxes, same changed
  flags, same UNSAT proofs), hit path included;
* **semantic (subsumption) cache lookups** — UNSAT proofs transfer to
  any subsumed box; SAT models transfer only where schedule-independent
  results are not required, and only after re-validation;
* **batched sibling negations** — ``solve_batch`` over a shared prefix
  must return exactly what per-branch ``solve`` calls return.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concolic.expr import Const, Var, make_binary, negate
from repro.concolic.path import PathCondition
from repro.concolic.solver import (
    ConstraintSolver,
    DictConstraintCache,
    SemanticIndex,
    merge_stats_dict,
    narrow,
    propagate,
    propagate_memo_disabled,
    propagate_memo_info,
    semantic_query_key,
)
from repro.concolic.solver import cache as solver_cache
from repro.concolic.solver.cache import box_items, box_subsumes
from repro.concolic.solver.search import validate_model
from repro.concolic.tracer import BranchSite

X = Var("x", 16)
WIDE = {"a": (0, 65535), "b": (0, 65535)}


@st.composite
def comparison(draw):
    """A comparison between an affine var expression and a constant."""
    variable = Var(draw(st.sampled_from(("a", "b"))), 16)
    scale = draw(st.sampled_from((1, 2, 3)))
    offset = draw(st.integers(-50, 50))
    expr = variable if scale == 1 else make_binary("mul", variable, Const(scale))
    if offset:
        expr = make_binary("add", expr, Const(offset))
    op = draw(st.sampled_from(("lt", "le", "gt", "ge", "eq", "ne")))
    bound = Const(draw(st.integers(-100, 70_000)))
    if draw(st.booleans()):
        return make_binary(op, expr, bound)
    return make_binary(op, bound, expr)


@st.composite
def sub_box(draw):
    """A random sub-box of the 16-bit wide domains."""
    box = {}
    for name in ("a", "b"):
        lo = draw(st.integers(0, 60_000))
        hi = lo + draw(st.integers(0, 5_000))
        box[name] = (lo, hi)
    return box


class TestMemoizationIdentity:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(comparison(), min_size=1, max_size=6), sub_box())
    def test_propagate_identical_with_and_without_memo(self, constraints, box):
        with propagate_memo_disabled():
            plain = propagate(list(constraints), dict(box))
        first = propagate(list(constraints), dict(box))  # mostly miss path
        replay = propagate(list(constraints), dict(box))  # hit path
        assert first == plain
        assert replay == plain

    @settings(deadline=None, max_examples=60)
    @given(comparison(), sub_box())
    def test_narrow_replay_identical_including_changed_flag(
        self, constraint, box
    ):
        plain_box, miss_box, hit_box = dict(box), dict(box), dict(box)
        with propagate_memo_disabled():
            plain = narrow(constraint, plain_box)
        miss = narrow(constraint, miss_box)
        hit = narrow(constraint, hit_box)
        assert miss == plain and miss_box == plain_box
        assert hit == plain and hit_box == plain_box

    def test_memo_counters_surface(self):
        constraint = make_binary("le", make_binary("mul", X, Const(3)), Const(99))
        before = propagate_memo_info()
        box = {"x": (0, 65535)}
        narrow(constraint, dict(box))
        narrow(constraint, dict(box))
        after = propagate_memo_info()
        assert set(after) == {
            "eval_hits", "eval_misses", "narrow_hits", "narrow_misses",
        }
        assert after["narrow_hits"] > before["narrow_hits"]


class TestBatchedNegationIdentity:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(comparison(), min_size=1, max_size=8))
    def test_solve_batch_matches_per_branch_solves(self, prefix):
        negations = [(i, negate(prefix[i])) for i in range(len(prefix))]
        hint = {"a": 0, "b": 0}

        serial = ConstraintSolver(deterministic_rng=True)
        with propagate_memo_disabled():
            expected = [
                serial.solve(list(prefix[:i]) + [neg], WIDE, hint=hint)
                for i, neg in negations
            ]
        batched = ConstraintSolver(deterministic_rng=True)
        assert batched.solve_batch(prefix, negations, WIDE, hint=hint) == expected

    def test_batch_counters_match_per_branch(self):
        prefix = [
            make_binary("le", Var(name, 16), Const(bound))
            for name, bound in (("a", 1000), ("b", 900), ("a", 800))
        ]
        negations = [(i, negate(prefix[i])) for i in range(len(prefix))]
        hint = {"a": 0, "b": 0}

        serial = ConstraintSolver(cache=DictConstraintCache(), deterministic_rng=True)
        expected = [
            serial.solve(list(prefix[:i]) + [neg], WIDE, hint=hint)
            for i, neg in negations
        ]
        batched = ConstraintSolver(cache=DictConstraintCache(), deterministic_rng=True)
        models = batched.solve_batch(prefix, negations, WIDE, hint=hint)
        assert models == expected
        for field in ("queries", "sat", "unsat_proved", "unknown"):
            assert getattr(batched.stats, field) == getattr(serial.stats, field)

    def test_solve_batch_rejects_bad_length(self):
        solver = ConstraintSolver()
        with pytest.raises(ValueError):
            solver.solve_batch([], [(1, negate(make_binary("le", X, Const(5))))], {})


class TestSemanticReuse:
    CONTRADICTION = [
        make_binary("lt", X, Const(5)),
        make_binary("gt", X, Const(10)),
    ]

    def test_unsat_proof_transfers_to_subsumed_box(self):
        solver = ConstraintSolver(cache=DictConstraintCache(), deterministic_rng=True)
        assert solver.solve(self.CONTRADICTION, {"x": (0, 65535)}, hint={"x": 0}) is None
        assert solver.solve(self.CONTRADICTION, {"x": (0, 100)}, hint={"x": 0}) is None
        assert solver.stats.semantic_hits == 1
        assert solver.stats.semantic_model_hits == 0
        assert solver.stats.unsat_proved == 2

    def test_model_reuse_on_by_default_for_solo_engines(self):
        solver = ConstraintSolver(cache=DictConstraintCache())
        constraints = [make_binary("ge", X, Const(10))]
        first = solver.solve(constraints, {"x": (0, 65535)}, hint={"x": 0})
        assert first is not None
        # Different box and hint → exact-key miss, semantic model hit.
        second = solver.solve(constraints, {"x": (0, 1000)}, hint={"x": 3})
        assert second == first
        assert solver.stats.semantic_model_hits == 1

    def test_model_reuse_gated_off_under_deterministic_rng(self):
        solver = ConstraintSolver(cache=DictConstraintCache(), deterministic_rng=True)
        constraints = [make_binary("ge", X, Const(10))]
        assert solver.solve(constraints, {"x": (0, 65535)}, hint={"x": 0}) is not None
        assert solver.solve(constraints, {"x": (0, 1000)}, hint={"x": 3}) is not None
        assert solver.stats.semantic_model_hits == 0
        # ...unless explicitly re-enabled.
        forced = ConstraintSolver(
            cache=DictConstraintCache(),
            deterministic_rng=True,
            semantic_model_reuse=True,
        )
        assert forced.solve(constraints, {"x": (0, 65535)}, hint={"x": 0}) is not None
        assert forced.solve(constraints, {"x": (0, 1000)}, hint={"x": 3}) is not None
        assert forced.stats.semantic_model_hits == 1

    def test_stale_model_outside_query_box_is_not_reused(self):
        solver = ConstraintSolver(cache=DictConstraintCache())
        constraints = [make_binary("ge", X, Const(10))]
        first = solver.solve(constraints, {"x": (0, 65535)}, hint={"x": 0})
        assert first is not None
        # A box that excludes the cached model forces a fresh solve.
        second = solver.solve(
            constraints, {"x": (first["x"] + 1, 65535)}, hint={"x": 65535}
        )
        assert second is not None and second["x"] > first["x"]
        assert solver.stats.semantic_model_hits == 0

    def test_semantic_key_matches_rolling_path_digest(self):
        path = PathCondition()
        for i in range(4):
            constraint = make_binary("lt", make_binary("add", X, Const(i)), Const(50))
            path.append(BranchSite("h.py", 10 + i), constraint, taken=bool(i % 2))
        for i in range(4):
            assert path.semantic_negation_key(i) == semantic_query_key(
                path.constraints_to_negate(i)
            )

    def test_stats_surface_new_counters_and_rates(self):
        solver = ConstraintSolver(cache=DictConstraintCache(), deterministic_rng=True)
        solver.solve(self.CONTRADICTION, {"x": (0, 65535)}, hint={"x": 0})
        solver.solve(self.CONTRADICTION, {"x": (0, 9)}, hint={"x": 0})
        stats = solver.stats.as_dict()
        for key in (
            "semantic_lookups",
            "semantic_hits",
            "semantic_model_hits",
            "semantic_hit_rate",
            "propagate_memo_hits",
            "propagate_memo_misses",
            "propagate_memo_hit_rate",
        ):
            assert key in stats
        merged = {}
        merge_stats_dict(merged, stats)
        merge_stats_dict(merged, stats)
        assert merged["semantic_lookups"] == 2 * stats["semantic_lookups"]
        assert merged["semantic_hit_rate"] == pytest.approx(
            stats["semantic_hit_rate"]
        )


class TestValidateModel:
    CONSTRAINTS = [make_binary("ge", X, Const(10))]
    DOMAINS = {"x": (0, 100)}

    def test_accepts_satisfying_in_box_model(self):
        assert validate_model(self.CONSTRAINTS, {"x": 10}, self.DOMAINS)

    def test_rejects_violating_model(self):
        assert not validate_model(self.CONSTRAINTS, {"x": 5}, self.DOMAINS)

    def test_rejects_out_of_box_model(self):
        assert not validate_model(self.CONSTRAINTS, {"x": 200}, self.DOMAINS)

    def test_rejects_wrong_variable_population(self):
        assert not validate_model(self.CONSTRAINTS, {}, self.DOMAINS)
        assert not validate_model(self.CONSTRAINTS, {"x": 10, "y": 1}, self.DOMAINS)


class TestSemanticIndex:
    @pytest.fixture(autouse=True)
    def small_bounds(self, monkeypatch):
        monkeypatch.setattr(solver_cache, "SEMANTIC_KEYS", 2)
        monkeypatch.setattr(solver_cache, "SEMANTIC_BOXES", 2)

    def test_box_buckets_are_bounded(self):
        index = SemanticIndex()
        for hi in (10, 20, 30):
            index.put(b"k1", {"x": (0, hi)}, ("unsat",))
        assert len(index.get(b"k1")) == 2
        assert index.evictions == 1
        # Oldest box dropped, newest kept.
        assert {box for box, _ in index.get(b"k1")} == {
            (("x", (0, 20)),),
            (("x", (0, 30)),),
        }

    def test_keys_evict_fifo(self):
        index = SemanticIndex()
        index.put(b"k1", {"x": (0, 10)}, ("unsat",))
        index.put(b"k2", {"x": (0, 10)}, ("unsat",))
        index.put(b"k3", {"x": (0, 10)}, ("unsat",))
        assert index.get(b"k1") == ()
        assert index.get(b"k2") and index.get(b"k3")

    def test_unknown_outcomes_are_not_indexed(self):
        index = SemanticIndex()
        index.put(b"k", {"x": (0, 10)}, ("unknown",))
        assert index.get(b"k") == ()

    def test_box_subsumption(self):
        wider = box_items({"x": (0, 100), "y": (5, 50)})
        assert box_subsumes(wider, {"x": (10, 90), "y": (5, 50)})
        assert not box_subsumes(wider, {"x": (10, 101), "y": (5, 50)})
        assert not box_subsumes(wider, {"x": (10, 90)})
        assert not box_subsumes(wider, {"x": (10, 90), "z": (5, 50)})


class TestBoundedExactCache:
    def test_fifo_eviction_order_and_counters(self, monkeypatch):
        cache = DictConstraintCache()
        monkeypatch.setattr(cache, "bound", 2)
        cache.put(b"a", ("unsat",))
        cache.put(b"b", ("unsat",))
        assert cache.get(b"a") is not None  # a hit does not refresh a
        cache.put(b"c", ("unsat",))
        assert cache.get(b"a") is None
        assert cache.get(b"b") is not None
        assert cache.get(b"c") is not None
        info = cache.info()
        assert info["evictions"] == 1 and info["entries"] == 2
