"""Property-based tests for the policy interpreter.

The interpreter is the cornerstone of the paper's code+configuration
coverage claim, so it gets its own robustness properties: randomly
generated filter ASTs never crash, evaluate deterministically, and agree
between concrete and symbolic evaluation (the concolic engine sees the
same accept/reject decisions production does).  On symbolic inputs the
interpreter must also record exactly the branches the exception-based
reference in ``reference_policy.py`` records, in the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.policy import (
    AddCommunity,
    And,
    AsPathContains,
    AttrCompare,
    BoolConst,
    CommunityHas,
    FilterAction,
    FilterInterpreter,
    FilterProgram,
    If,
    Not,
    Or,
    OriginAsCompare,
    PrefixIn,
    PrefixSet,
    PrefixSpec,
    Prepend,
    RouteView,
    SetAttr,
    Terminal,
)
from repro.concolic import trace
from repro.concolic.symbolic import SymInt
from repro.util.ip import Prefix

from reference_policy import ReferenceInterpreter

# ---------------------------------------------------------------------------
# Random AST generation.
# ---------------------------------------------------------------------------

_attr_names = st.sampled_from(
    ["net.len", "local-pref", "med", "origin", "as-path.len"]
)
_ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

_leaf_conditions = st.one_of(
    st.builds(BoolConst, st.booleans()),
    st.builds(AttrCompare, _attr_names, _ops, st.integers(0, 300)),
    st.builds(AsPathContains, st.integers(1, 70000)),
    st.builds(OriginAsCompare, st.integers(1, 70000), st.booleans()),
    st.builds(CommunityHas, st.integers(0, 2**32 - 1)),
    st.builds(
        lambda network, length, span: PrefixIn(
            inline=PrefixSet(
                "<gen>",
                (PrefixSpec(
                    Prefix(network, length),
                    min_len=length,
                    max_len=min(32, length + span),
                ),),
            )
        ),
        st.integers(0, 2**32 - 1),
        st.integers(0, 28),
        st.integers(0, 4),
    ),
)

conditions = st.recursive(
    _leaf_conditions,
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=6,
)

_actions = st.one_of(
    st.builds(SetAttr, st.sampled_from(["local-pref", "med", "origin"]),
              st.integers(0, 300)),
    st.builds(AddCommunity, st.integers(0, 2**32 - 1)),
    st.builds(Prepend, st.integers(1, 65535), st.integers(1, 3)),
    st.builds(Terminal, st.sampled_from([FilterAction.ACCEPT, FilterAction.REJECT])),
)

statements = st.recursive(
    _actions,
    lambda children: st.builds(
        If,
        conditions,
        st.lists(children, min_size=1, max_size=3).map(tuple),
        st.lists(children, max_size=2).map(tuple),
    ),
    max_leaves=8,
)

programs = st.lists(statements, min_size=1, max_size=5).map(
    lambda body: FilterProgram("<gen>", tuple(body))
)

route_views = st.builds(
    lambda network, length, asns, pref, med, communities: RouteView.of(
        network, length,
        PathAttributes(
            as_path=AsPath.sequence(asns),
            next_hop=1,
            local_pref=pref,
            med=med,
            communities=tuple(communities),
        ),
    ),
    st.integers(0, 2**32 - 1),
    st.integers(0, 32),
    st.lists(st.integers(1, 70000), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(0, 400)),
    st.one_of(st.none(), st.integers(0, 400)),
    st.lists(st.integers(0, 2**32 - 1), max_size=3),
)


def clone_view(view: RouteView) -> RouteView:
    return RouteView.of(view.network, view.length, view.to_attributes())


def symbolic_view(view: RouteView) -> RouteView:
    """``view`` with its network and length as fresh SymInt inputs."""
    return RouteView.of(
        SymInt.variable("net", int(view.network)),
        SymInt.variable("len", int(view.length), bits=6),
        view.to_attributes(),
    )


def traced_run(interpreter, program, view):
    """The result of a traced run and its path condition, branch by branch."""
    with trace() as recorder:
        result = interpreter.run(program, symbolic_view(view))
    path = [
        (branch.constraint, branch.taken, branch.is_concretization)
        for branch in recorder.path
    ]
    return result, path


class TestInterpreterProperties:
    @settings(max_examples=120, deadline=None)
    @given(programs, route_views)
    def test_never_crashes_and_returns_result(self, program, view):
        result = FilterInterpreter().run(program, clone_view(view))
        assert result.action in (FilterAction.ACCEPT, FilterAction.REJECT)

    @settings(max_examples=80, deadline=None)
    @given(programs, route_views)
    def test_deterministic(self, program, view):
        interpreter = FilterInterpreter()
        first = interpreter.run(program, clone_view(view))
        second = interpreter.run(program, clone_view(view))
        assert first.action == second.action
        assert first.attributes.local_pref == second.attributes.local_pref
        assert first.attributes.communities == second.attributes.communities

    @settings(max_examples=80, deadline=None)
    @given(programs, route_views)
    def test_symbolic_and_concrete_evaluation_agree(self, program, view):
        """The concolic engine must see production's accept/reject decision.

        Evaluating the same filter over a view whose net/len are SymInt
        (inside a trace) must reach the same action as the concrete run —
        the property that makes exploration findings transferable to the
        live system.
        """
        interpreter = FilterInterpreter()
        concrete = interpreter.run(program, clone_view(view))
        symbolic_view = RouteView.of(
            SymInt.variable("net", int(view.network)),
            SymInt.variable("len", int(view.length), bits=6),
            view.to_attributes(),
        )
        with trace() as recorder:
            symbolic = interpreter.run(program, symbolic_view)
        assert symbolic.action == concrete.action
        # And every recorded constraint holds for the concrete inputs.
        env = {"net": int(view.network), "len": int(view.length)}
        for constraint in recorder.path.held_constraints():
            assert bool(constraint.evaluate(env))

    @settings(max_examples=200, deadline=None)
    @given(programs, route_views)
    def test_records_the_reference_interpreters_branches(self, program, view):
        """Same verdict, same attributes, same path condition as the reference.

        The explored handler runs this interpreter on symbolic routes, so
        a change to how it walks a program is only safe if every branch
        it records, and the order it records them in, is unchanged.
        """
        result, path = traced_run(FilterInterpreter(), program, view)
        expected, expected_path = traced_run(ReferenceInterpreter(), program, view)
        assert result == expected
        assert len(path) == len(expected_path)
        for branch, expected_branch in zip(path, expected_path):
            assert branch == expected_branch

    @settings(max_examples=60, deadline=None)
    @given(programs, route_views)
    def test_fallthrough_always_rejects(self, program, view):
        result = FilterInterpreter().run(program, clone_view(view))
        if result.fell_through:
            assert result.action == FilterAction.REJECT

    @settings(max_examples=60, deadline=None)
    @given(route_views, st.integers(1, 65535), st.integers(1, 3))
    def test_prepend_lengthens_path_exactly(self, view, asn, count):
        program = FilterProgram(
            "p", (Prepend(asn, count), Terminal(FilterAction.ACCEPT))
        )
        before = view.as_path.hop_count()
        result = FilterInterpreter().run(program, clone_view(view))
        assert result.attributes.as_path.hop_count() == before + count

    @settings(max_examples=60, deadline=None)
    @given(route_views, st.integers(0, 2**32 - 1))
    def test_add_community_idempotent(self, view, community):
        program = FilterProgram(
            "c",
            (AddCommunity(community), AddCommunity(community),
             Terminal(FilterAction.ACCEPT)),
        )
        result = FilterInterpreter().run(program, clone_view(view))
        added = [
            c for c in result.attributes.communities if int(c) == community
        ]
        original = [c for c in view.communities if int(c) == community]
        assert len(added) - len(original) in (0, 1)
