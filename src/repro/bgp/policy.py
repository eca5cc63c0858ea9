"""Routing policy: filter ASTs and their interpreter.

The paper's key observation (section 3.2) is that exploration covers
*configuration* as well as code, "because the source code instrumentation
encompasses BIRD's configuration interpreter and so allows Oasis to
record constraints for the interpreted configuration".  This module is
that interpreter: filters are ASTs built by :mod:`repro.bgp.config`, and
evaluating a condition against a route whose fields are symbolic runs
plain Python ``if``s over :class:`SymInt` values — every configured
``if net in CUSTOMERS`` term becomes a recorded, negatable branch.

The language is a small BIRD-like policy core: prefix-set matching with
length bounds, AS-path and community tests, attribute comparisons and
modifications, and nested if/else.

The same :class:`FilterInterpreter` runs for every route the live router
imports or exports and for every explored execution on a clone, so its
loop is kept cheap: a statement dispatches on its exact type, and a
verdict travels back up the nested blocks as a return value.  A
condition is still evaluated once, through ``bool(...)``, at the point
the program reaches it, so a symbolic run records the same branches in
the same order as any other faithful walk of the program
(``tests/bgp/reference_policy.py`` holds one to compare against).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.wire import as_concrete_int
from repro.concolic.symbolic import SymInt
from repro.util.errors import ConfigError
from repro.util.ip import ADDR_BITS, Prefix

IntLike = Union[int, SymInt]


# ---------------------------------------------------------------------------
# The route view: what filter conditions can observe and actions can modify.
# ---------------------------------------------------------------------------


@dataclass
class RouteView:
    """A mutable view of a route under policy evaluation.

    ``network``/``length`` may be symbolic during exploration; actions
    mutate the attribute fields in place and the interpreter copies the
    result back into a fresh :class:`PathAttributes`.  The view names no
    peer, so no filter can depend on which peer a route is exported to:
    that is what lets the router run an export filter once per update
    group (:meth:`repro.bgp.router.BgpRouter._export_change`).
    """

    network: IntLike
    length: IntLike
    origin: IntLike
    as_path: AsPath
    next_hop: Optional[IntLike]
    med: Optional[IntLike]
    local_pref: Optional[IntLike]
    communities: List[IntLike]

    @classmethod
    def of(
        cls, network: IntLike, length: IntLike, attributes: PathAttributes
    ) -> "RouteView":
        return cls(
            network=network,
            length=length,
            origin=attributes.origin,
            as_path=attributes.as_path,
            next_hop=attributes.next_hop,
            med=attributes.med,
            local_pref=attributes.local_pref,
            communities=list(attributes.communities),
        )

    def to_attributes(self) -> PathAttributes:
        return PathAttributes(
            origin=self.origin,
            as_path=self.as_path,
            next_hop=self.next_hop,
            med=self.med,
            local_pref=self.local_pref,
            communities=tuple(self.communities),
        )

    def attribute(self, name: str) -> IntLike:
        """Read a numeric attribute by its config-language name."""
        if name == "net.len":
            return self.length
        if name == "local-pref":
            return self.local_pref if self.local_pref is not None else 100
        if name == "med":
            return self.med if self.med is not None else 0
        if name == "origin":
            return self.origin
        if name == "as-path.len":
            return self.as_path.hop_count()
        if name == "next-hop":
            return self.next_hop if self.next_hop is not None else 0
        raise ConfigError(f"unknown attribute {name!r}")

    def set_attribute(self, name: str, value: IntLike) -> None:
        """Write a numeric attribute by its config-language name."""
        if name == "local-pref":
            self.local_pref = value
        elif name == "med":
            self.med = value
        elif name == "origin":
            self.origin = value
        elif name == "next-hop":
            self.next_hop = value
        else:
            raise ConfigError(f"attribute {name!r} is not assignable")


# ---------------------------------------------------------------------------
# Prefix sets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixSpec:
    """One prefix-set member: a base prefix with an allowed length range.

    ``10.0.0.0/8 le 24`` matches any prefix inside 10.0.0.0/8 with mask
    length between 8 and 24; without modifiers only the exact prefix
    matches.
    """

    base: Prefix
    min_len: int = -1  # -1 means "the base prefix's own length"
    max_len: int = -1

    def __post_init__(self) -> None:
        min_len = self.base.length if self.min_len < 0 else self.min_len
        max_len = self.base.length if self.max_len < 0 else self.max_len
        if not self.base.length <= min_len <= max_len <= ADDR_BITS:
            raise ConfigError(
                f"invalid length bounds {{{min_len},{max_len}}} for {self.base}"
            )
        object.__setattr__(self, "min_len", min_len)
        object.__setattr__(self, "max_len", max_len)

    def matches(self, network: IntLike, length: IntLike):
        """Whether (network, length) falls in this spec; symbolic-aware.

        Each clause is evaluated as its own branch so the concolic engine
        can negate length bounds independently of the network match.
        """
        if length < self.min_len:
            return False
        if length > self.max_len:
            return False
        if self.base.length == 0:
            return True
        shift = ADDR_BITS - self.base.length
        return (network >> shift) == (self.base.network >> shift)

    def __str__(self) -> str:
        if (self.min_len, self.max_len) == (self.base.length, self.base.length):
            return str(self.base)
        return f"{self.base}{{{self.min_len},{self.max_len}}}"


@dataclass(frozen=True)
class PrefixSet:
    """A named collection of prefix specs; matches if any member matches."""

    name: str
    specs: Tuple[PrefixSpec, ...]

    def matches(self, network: IntLike, length: IntLike):
        for spec in self.specs:
            if spec.matches(network, length):
                return True
        return False


# ---------------------------------------------------------------------------
# Condition AST.
# ---------------------------------------------------------------------------


class Condition:
    """Base class for filter conditions."""

    def evaluate(self, view: RouteView, sets: Dict[str, PrefixSet]):
        raise NotImplementedError


@dataclass(frozen=True)
class BoolConst(Condition):
    value: bool

    def evaluate(self, view, sets):
        return self.value


@dataclass(frozen=True)
class PrefixIn(Condition):
    """``net in NAME`` or an inline prefix set."""

    set_name: Optional[str] = None
    inline: Optional[PrefixSet] = None

    def evaluate(self, view, sets):
        if self.inline is not None:
            prefix_set = self.inline
        else:
            if self.set_name not in sets:
                raise ConfigError(f"undefined prefix set {self.set_name!r}")
            prefix_set = sets[self.set_name]
        return prefix_set.matches(view.network, view.length)


@dataclass(frozen=True)
class AsPathContains(Condition):
    """``as-path contains 65001`` — loop/againt-policy tests."""

    asn: int

    def evaluate(self, view, sets):
        return view.as_path.contains(self.asn)


@dataclass(frozen=True)
class OriginAsCompare(Condition):
    """``origin-as == 65001`` / ``origin-as != 65001``."""

    asn: int
    negated: bool = False

    def evaluate(self, view, sets):
        origin = view.as_path.origin_as()
        if origin is None:
            return self.negated
        if self.negated:
            return origin != self.asn
        return origin == self.asn


@dataclass(frozen=True)
class CommunityHas(Condition):
    """``community has 0xFFFFFF01``."""

    value: int

    def evaluate(self, view, sets):
        for community in view.communities:
            if community == self.value:
                return True
        return False


@dataclass(frozen=True)
class AttrCompare(Condition):
    """Numeric attribute comparison, e.g. ``net.len > 24``."""

    attr: str
    op: str
    value: int

    _OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ConfigError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, view, sets):
        lhs = view.attribute(self.attr)
        rhs = self.value
        if self.op == "==":
            return lhs == rhs
        if self.op == "!=":
            return lhs != rhs
        if self.op == "<":
            return lhs < rhs
        if self.op == "<=":
            return lhs <= rhs
        if self.op == ">":
            return lhs > rhs
        return lhs >= rhs


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition

    def evaluate(self, view, sets):
        # Short-circuit on purpose: evaluating the left operand's truth
        # records its branch; the right operand is only reached (and only
        # constrains the path) when the left held — concolic-faithful.
        return bool(self.left.evaluate(view, sets)) and bool(
            self.right.evaluate(view, sets)
        )


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition

    def evaluate(self, view, sets):
        return bool(self.left.evaluate(view, sets)) or bool(
            self.right.evaluate(view, sets)
        )


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition

    def evaluate(self, view, sets):
        return not bool(self.inner.evaluate(view, sets))


# ---------------------------------------------------------------------------
# Statement AST.
# ---------------------------------------------------------------------------


class FilterAction(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class Statement:
    """Base class for filter statements."""


@dataclass(frozen=True)
class Terminal(Statement):
    """``accept;`` / ``reject;``."""

    action: FilterAction


@dataclass(frozen=True)
class SetAttr(Statement):
    """``set local-pref 200;``."""

    attr: str
    value: int


@dataclass(frozen=True)
class AddCommunity(Statement):
    value: int


@dataclass(frozen=True)
class RemoveCommunity(Statement):
    value: int


@dataclass(frozen=True)
class Prepend(Statement):
    """``prepend 65000 3;`` — AS-path prepending."""

    asn: int
    count: int = 1


@dataclass(frozen=True)
class If(Statement):
    condition: Condition
    then_branch: Tuple[Statement, ...]
    else_branch: Tuple[Statement, ...] = ()


@dataclass(frozen=True)
class FilterProgram:
    """A named filter: an ordered statement list.

    Falling off the end without hitting ``accept``/``reject`` rejects the
    route (fail-closed), and :attr:`fallthrough_count` in the result marks
    it so tests can flag unterminated filters.
    """

    name: str
    statements: Tuple[Statement, ...]


@dataclass
class FilterResult:
    """Outcome of running one filter over one route."""

    action: FilterAction
    attributes: PathAttributes
    fell_through: bool = False

    @property
    def accepted(self) -> bool:
        return self.action == FilterAction.ACCEPT


class FilterInterpreter:
    """Evaluates filter programs against route views.

    A block returns the verdict it reached, or ``None`` while no
    ``accept``/``reject`` has run (see the module docstring for why).
    """

    def __init__(self, prefix_sets: Optional[Dict[str, PrefixSet]] = None):
        self.prefix_sets = dict(prefix_sets or {})

    def run(self, program: FilterProgram, view: RouteView) -> FilterResult:
        """Execute ``program`` on ``view``; the view is mutated by actions."""
        action = self._run_block(program.statements, view)
        if action is None:
            return FilterResult(
                FilterAction.REJECT, view.to_attributes(), fell_through=True
            )
        return FilterResult(action, view.to_attributes())

    def _run_block(
        self, statements: Tuple[Statement, ...], view: RouteView
    ) -> Optional[FilterAction]:
        """Run ``statements`` in order; the verdict reached, or None."""
        for statement in statements:
            kind = type(statement)
            if kind is Terminal:
                return statement.action
            if kind is If:
                if bool(statement.condition.evaluate(view, self.prefix_sets)):
                    action = self._run_block(statement.then_branch, view)
                else:
                    action = self._run_block(statement.else_branch, view)
                if action is not None:
                    return action
            elif kind is SetAttr:
                view.set_attribute(statement.attr, statement.value)
            elif kind is AddCommunity:
                if statement.value not in [as_concrete_int(c) for c in view.communities]:
                    view.communities.append(statement.value)
            elif kind is RemoveCommunity:
                view.communities = [
                    c for c in view.communities if as_concrete_int(c) != statement.value
                ]
            elif kind is Prepend:
                path = view.as_path
                for _ in range(statement.count):
                    path = path.prepend(statement.asn)
                view.as_path = path
            else:
                raise ConfigError(f"unknown statement {kind.__name__}")
        return None


#: A filter that accepts everything — the "no policy" default.
ACCEPT_ALL = FilterProgram("accept-all", (Terminal(FilterAction.ACCEPT),))

#: A filter that rejects everything.
REJECT_ALL = FilterProgram("reject-all", (Terminal(FilterAction.REJECT),))
