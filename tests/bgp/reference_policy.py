"""The exception-based filter interpreter the live one is checked against.

This is the interpreter as it was before statements dispatched on their
exact type and verdicts became return values: an ``isinstance`` chain per
statement, a verdict raised as :class:`_Verdict` and caught in
:meth:`ReferenceInterpreter.run`.  It also evaluates conditions itself,
with the bodies the condition classes had then, so a change to the order
in which :mod:`repro.bgp.policy` evaluates a condition shows up as a
difference from this module.  Only the leaf tests (prefix-set matching,
AS-path membership, attribute reads and writes) are shared with the
package.
"""

from typing import Dict, Optional, Tuple

from repro.bgp.policy import (
    AddCommunity,
    And,
    AsPathContains,
    AttrCompare,
    BoolConst,
    CommunityHas,
    Condition,
    FilterAction,
    FilterProgram,
    FilterResult,
    If,
    Not,
    Or,
    OriginAsCompare,
    PrefixIn,
    PrefixSet,
    Prepend,
    RemoveCommunity,
    RouteView,
    SetAttr,
    Statement,
    Terminal,
)
from repro.bgp.wire import as_concrete_int
from repro.util.errors import ConfigError


def evaluate(condition: Condition, view: RouteView, sets: Dict[str, PrefixSet]):
    """``condition.evaluate(view, sets)`` as each condition class wrote it."""
    if isinstance(condition, BoolConst):
        return condition.value
    if isinstance(condition, PrefixIn):
        if condition.inline is not None:
            prefix_set = condition.inline
        else:
            if condition.set_name not in sets:
                raise ConfigError(f"undefined prefix set {condition.set_name!r}")
            prefix_set = sets[condition.set_name]
        return prefix_set.matches(view.network, view.length)
    if isinstance(condition, AsPathContains):
        return view.as_path.contains(condition.asn)
    if isinstance(condition, OriginAsCompare):
        origin = view.as_path.origin_as()
        if origin is None:
            return condition.negated
        if condition.negated:
            return origin != condition.asn
        return origin == condition.asn
    if isinstance(condition, CommunityHas):
        for community in view.communities:
            if community == condition.value:
                return True
        return False
    if isinstance(condition, AttrCompare):
        lhs = view.attribute(condition.attr)
        rhs = condition.value
        if condition.op == "==":
            return lhs == rhs
        if condition.op == "!=":
            return lhs != rhs
        if condition.op == "<":
            return lhs < rhs
        if condition.op == "<=":
            return lhs <= rhs
        if condition.op == ">":
            return lhs > rhs
        return lhs >= rhs
    if isinstance(condition, And):
        return bool(evaluate(condition.left, view, sets)) and bool(
            evaluate(condition.right, view, sets)
        )
    if isinstance(condition, Or):
        return bool(evaluate(condition.left, view, sets)) or bool(
            evaluate(condition.right, view, sets)
        )
    if isinstance(condition, Not):
        return not bool(evaluate(condition.inner, view, sets))
    raise NotImplementedError(type(condition).__name__)


class _Verdict(Exception):
    """Internal control flow: a terminal statement was executed."""

    def __init__(self, action: FilterAction):
        self.action = action


class ReferenceInterpreter:
    """Evaluates filter programs against route views."""

    def __init__(self, prefix_sets: Optional[Dict[str, PrefixSet]] = None):
        self.prefix_sets = dict(prefix_sets or {})

    def run(self, program: FilterProgram, view: RouteView) -> FilterResult:
        """Execute ``program`` on ``view``; the view is mutated by actions."""
        try:
            self._run_block(program.statements, view)
        except _Verdict as verdict:
            return FilterResult(verdict.action, view.to_attributes())
        return FilterResult(FilterAction.REJECT, view.to_attributes(), fell_through=True)

    def _run_block(self, statements: Tuple[Statement, ...], view: RouteView) -> None:
        for statement in statements:
            self._run_statement(statement, view)

    def _run_statement(self, statement: Statement, view: RouteView) -> None:
        if isinstance(statement, Terminal):
            raise _Verdict(statement.action)
        if isinstance(statement, If):
            if bool(evaluate(statement.condition, view, self.prefix_sets)):
                self._run_block(statement.then_branch, view)
            else:
                self._run_block(statement.else_branch, view)
            return
        if isinstance(statement, SetAttr):
            view.set_attribute(statement.attr, statement.value)
            return
        if isinstance(statement, AddCommunity):
            if statement.value not in [as_concrete_int(c) for c in view.communities]:
                view.communities.append(statement.value)
            return
        if isinstance(statement, RemoveCommunity):
            view.communities = [
                c for c in view.communities if as_concrete_int(c) != statement.value
            ]
            return
        if isinstance(statement, Prepend):
            path = view.as_path
            for _ in range(statement.count):
                path = path.prepend(statement.asn)
            view.as_path = path
            return
        raise ConfigError(f"unknown statement {type(statement).__name__}")
