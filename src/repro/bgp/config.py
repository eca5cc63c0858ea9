"""The BIRD-like router configuration language.

A router is configured from text: its AS number, router id, originated
networks, named prefix sets, named filters (compiled to the policy ASTs
of :mod:`repro.bgp.policy`), and neighbors with import/export filter
references.  Example::

    router bgp 65010;
    router-id 10.0.0.1;
    network 203.0.113.0/24;

    prefix-set CUSTOMERS {
        10.10.0.0/16 le 24;
        10.20.0.0/16;
    }

    filter customer-in {
        if net in CUSTOMERS then {
            set local-pref 200;
            accept;
        }
        reject;
    }

    neighbor customer1 {
        remote-as 65020;
        import filter customer-in;
        export filter accept-all;
    }

The paper's route-leak experiment hinges on this layer: the provider's
*partially correct* customer filter is ordinary configuration, and DiCE
discovers leaks by exploring the branches this configuration induces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bgp.policy import (
    ACCEPT_ALL,
    AddCommunity,
    And,
    AsPathContains,
    AttrCompare,
    BoolConst,
    CommunityHas,
    Condition,
    FilterAction,
    FilterProgram,
    If,
    Not,
    Or,
    OriginAsCompare,
    PrefixIn,
    PrefixSet,
    PrefixSpec,
    Prepend,
    REJECT_ALL,
    RemoveCommunity,
    SetAttr,
    Statement,
    Terminal,
)
from repro.util.errors import ConfigError
from repro.util.ip import Prefix, ip_to_int
from repro.util.memo import Memo

# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------

_PUNCT = {"{", "}", ";", "(", ")"}
_OPERATORS = {"==", "!=", "<=", ">=", "<", ">"}


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return self.text


def tokenize(source: str) -> List[Token]:
    """Split config text into tokens; ``#`` comments run to end of line."""
    tokens: List[Token] = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        column = 0
        length = len(line)
        while column < length:
            char = line[column]
            if char == "#":
                break
            if char.isspace():
                column += 1
                continue
            if char in _PUNCT:
                tokens.append(Token(char, line_no, column + 1))
                column += 1
                continue
            two = line[column:column + 2]
            if two in _OPERATORS:
                tokens.append(Token(two, line_no, column + 1))
                column += 2
                continue
            if char in "<>":
                tokens.append(Token(char, line_no, column + 1))
                column += 1
                continue
            start = column
            while column < length and not line[column].isspace() and (
                line[column] not in _PUNCT
            ) and line[column] not in "<>!=" :
                column += 1
            # Allow '=' and '!' inside words only as part of operators,
            # which were consumed above; a bare '=' is an error token.
            if column == start:
                raise ConfigError(f"unexpected character {char!r}", line_no, column + 1)
            tokens.append(Token(line[start:column], line_no, start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Configuration objects.
# ---------------------------------------------------------------------------


@dataclass
class NeighborConfig:
    """One configured BGP peering."""

    peer_id: str
    remote_as: int
    import_filter: str = "accept-all"
    export_filter: str = "accept-all"
    passive: bool = False
    hold_time: int = 90


@dataclass
class RouterConfig:
    """A parsed router configuration."""

    asn: int = 0
    router_id: int = 0
    networks: List[Prefix] = field(default_factory=list)
    prefix_sets: Dict[str, PrefixSet] = field(default_factory=dict)
    filters: Dict[str, FilterProgram] = field(default_factory=dict)
    neighbors: Dict[str, NeighborConfig] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.filters.setdefault("accept-all", ACCEPT_ALL)
        self.filters.setdefault("reject-all", REJECT_ALL)

    def fork(self) -> "RouterConfig":
        """A private copy sharing only the frozen filters and prefix sets."""
        return replace(
            self,
            networks=list(self.networks),
            prefix_sets=dict(self.prefix_sets),
            filters=dict(self.filters),
            neighbors={
                peer_id: replace(neighbor)
                for peer_id, neighbor in self.neighbors.items()
            },
        )

    def filter_named(self, name: str) -> FilterProgram:
        if name not in self.filters:
            raise ConfigError(f"undefined filter {name!r}")
        return self.filters[name]

    def validate(self) -> None:
        """Cross-reference checks after parsing."""
        if self.asn <= 0:
            raise ConfigError("missing or invalid 'router bgp <asn>'")
        for neighbor in self.neighbors.values():
            self.filter_named(neighbor.import_filter)
            self.filter_named(neighbor.export_filter)
        for filter_program in self.filters.values():
            _validate_filter_sets(filter_program, self.prefix_sets)


def _validate_filter_sets(
    program: FilterProgram, sets: Dict[str, PrefixSet]
) -> None:
    def check_condition(condition: Condition) -> None:
        if isinstance(condition, PrefixIn) and condition.set_name is not None:
            if condition.set_name not in sets:
                raise ConfigError(
                    f"filter {program.name!r} references undefined prefix set "
                    f"{condition.set_name!r}"
                )
        if isinstance(condition, (And, Or)):
            check_condition(condition.left)
            check_condition(condition.right)
        if isinstance(condition, Not):
            check_condition(condition.inner)

    def check_block(statements: Tuple[Statement, ...]) -> None:
        for statement in statements:
            if isinstance(statement, If):
                check_condition(statement.condition)
                check_block(statement.then_branch)
                check_block(statement.else_branch)

    check_block(program.statements)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

_ATTR_NAMES = {"local-pref", "med", "origin", "net.len", "as-path.len", "next-hop"}
_COMMUNITY_ALIASES = {
    "no-export": 0xFFFFFF01,
    "no-advertise": 0xFFFFFF02,
}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> Optional[Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            last = self._tokens[-1] if self._tokens else Token("", 0, 0)
            raise ConfigError("unexpected end of configuration", last.line, last.column)
        self._pos += 1
        return token

    def _expect(self, text: str) -> Token:
        token = self._next()
        if token.text != text:
            raise ConfigError(
                f"expected {text!r}, found {token.text!r}", token.line, token.column
            )
        return token

    def _accept(self, text: str) -> bool:
        token = self._peek()
        if token is not None and token.text == text:
            self._pos += 1
            return True
        return False

    def _number(self) -> int:
        token = self._next()
        try:
            return int(token.text, 0)
        except ValueError:
            raise ConfigError(
                f"expected a number, found {token.text!r}", token.line, token.column
            ) from None

    def _prefix(self) -> Prefix:
        token = self._next()
        try:
            return Prefix.parse(token.text)
        except Exception:
            raise ConfigError(
                f"expected a prefix, found {token.text!r}", token.line, token.column
            ) from None

    # -- top level ---------------------------------------------------------------

    def parse(self) -> RouterConfig:
        config = RouterConfig()
        while self._peek() is not None:
            token = self._next()
            if token.text == "router":
                self._expect("bgp")
                config.asn = self._number()
                self._expect(";")
            elif token.text == "router-id":
                ip_token = self._next()
                try:
                    config.router_id = ip_to_int(ip_token.text)
                except Exception:
                    raise ConfigError(
                        f"bad router-id {ip_token.text!r}", ip_token.line, ip_token.column
                    ) from None
                self._expect(";")
            elif token.text == "network":
                config.networks.append(self._prefix())
                self._expect(";")
            elif token.text == "prefix-set":
                name_token = self._next()
                config.prefix_sets[name_token.text] = self._prefix_set(name_token.text)
            elif token.text == "filter":
                name_token = self._next()
                if name_token.text in ("accept-all", "reject-all"):
                    raise ConfigError(
                        f"filter name {name_token.text!r} is reserved",
                        name_token.line, name_token.column,
                    )
                config.filters[name_token.text] = FilterProgram(
                    name_token.text, self._block()
                )
            elif token.text == "neighbor":
                name_token = self._next()
                config.neighbors[name_token.text] = self._neighbor(name_token.text)
            else:
                raise ConfigError(
                    f"unknown top-level directive {token.text!r}",
                    token.line, token.column,
                )
        config.validate()
        return config

    # -- sections -------------------------------------------------------------------

    def _prefix_set(self, name: str) -> PrefixSet:
        self._expect("{")
        specs: List[PrefixSpec] = []
        while not self._accept("}"):
            specs.append(self._prefix_spec())
            self._expect(";")
        return PrefixSet(name, tuple(specs))

    def _prefix_spec(self) -> PrefixSpec:
        base = self._prefix()
        min_len, max_len = -1, -1
        while True:
            token = self._peek()
            if token is None:
                break
            if token.text == "le":
                self._next()
                max_len = self._number()
            elif token.text == "ge":
                self._next()
                min_len = self._number()
            else:
                break
        if max_len >= 0 and min_len < 0:
            min_len = base.length
        if min_len >= 0 and max_len < 0:
            max_len = 32
        return PrefixSpec(base, min_len, max_len)

    def _neighbor(self, peer_id: str) -> NeighborConfig:
        self._expect("{")
        neighbor = NeighborConfig(peer_id, remote_as=0)
        while not self._accept("}"):
            token = self._next()
            if token.text == "remote-as":
                neighbor.remote_as = self._number()
                self._expect(";")
            elif token.text == "import":
                self._expect("filter")
                neighbor.import_filter = self._next().text
                self._expect(";")
            elif token.text == "export":
                self._expect("filter")
                neighbor.export_filter = self._next().text
                self._expect(";")
            elif token.text == "passive":
                neighbor.passive = True
                self._expect(";")
            elif token.text == "hold-time":
                neighbor.hold_time = self._number()
                self._expect(";")
            else:
                raise ConfigError(
                    f"unknown neighbor directive {token.text!r}",
                    token.line, token.column,
                )
        if neighbor.remote_as <= 0:
            raise ConfigError(f"neighbor {peer_id!r} missing remote-as")
        return neighbor

    # -- filters -----------------------------------------------------------------------

    def _block(self) -> Tuple[Statement, ...]:
        """``{ stmt* }`` or a single statement."""
        if self._accept("{"):
            statements: List[Statement] = []
            while not self._accept("}"):
                statements.append(self._statement())
            return tuple(statements)
        return (self._statement(),)

    def _statement(self) -> Statement:
        token = self._next()
        if token.text == "accept":
            self._expect(";")
            return Terminal(FilterAction.ACCEPT)
        if token.text == "reject":
            self._expect(";")
            return Terminal(FilterAction.REJECT)
        if token.text == "set":
            attr_token = self._next()
            if attr_token.text not in _ATTR_NAMES:
                raise ConfigError(
                    f"unknown attribute {attr_token.text!r}",
                    attr_token.line, attr_token.column,
                )
            value = self._number()
            self._expect(";")
            return SetAttr(attr_token.text, value)
        if token.text == "add-community":
            value = self._community_value()
            self._expect(";")
            return AddCommunity(value)
        if token.text == "remove-community":
            value = self._community_value()
            self._expect(";")
            return RemoveCommunity(value)
        if token.text == "prepend":
            asn = self._number()
            count = 1
            peeked = self._peek()
            if peeked is not None and peeked.text != ";":
                count = self._number()
            self._expect(";")
            return Prepend(asn, count)
        if token.text == "if":
            condition = self._condition()
            self._expect("then")
            then_branch = self._block()
            else_branch: Tuple[Statement, ...] = ()
            if self._accept("else"):
                else_branch = self._block()
            return If(condition, then_branch, else_branch)
        raise ConfigError(
            f"unknown statement {token.text!r}", token.line, token.column
        )

    def _community_value(self) -> int:
        token = self._peek()
        if token is not None and token.text in _COMMUNITY_ALIASES:
            self._next()
            return _COMMUNITY_ALIASES[token.text]
        return self._number()

    # -- conditions (precedence: or < and < not < atom) ---------------------------------

    def _condition(self) -> Condition:
        return self._or_condition()

    def _or_condition(self) -> Condition:
        left = self._and_condition()
        while self._accept("or"):
            left = Or(left, self._and_condition())
        return left

    def _and_condition(self) -> Condition:
        left = self._not_condition()
        while self._accept("and"):
            left = And(left, self._not_condition())
        return left

    def _not_condition(self) -> Condition:
        if self._accept("not"):
            return Not(self._not_condition())
        return self._atom()

    def _atom(self) -> Condition:
        if self._accept("("):
            condition = self._condition()
            self._expect(")")
            return condition
        token = self._next()
        if token.text == "true":
            return BoolConst(True)
        if token.text == "false":
            return BoolConst(False)
        if token.text == "net":
            self._expect("in")
            peeked = self._peek()
            if peeked is not None and peeked.text == "{":
                self._next()
                specs: List[PrefixSpec] = []
                while not self._accept("}"):
                    specs.append(self._prefix_spec())
                    self._expect(";")
                return PrefixIn(inline=PrefixSet("<inline>", tuple(specs)))
            return PrefixIn(set_name=self._next().text)
        if token.text == "as-path" :
            self._expect("contains")
            return AsPathContains(self._number())
        if token.text == "origin-as":
            op_token = self._next()
            if op_token.text not in ("==", "!="):
                raise ConfigError(
                    f"origin-as supports == and !=, found {op_token.text!r}",
                    op_token.line, op_token.column,
                )
            return OriginAsCompare(self._number(), negated=op_token.text == "!=")
        if token.text == "community":
            self._expect("has")
            return CommunityHas(self._community_value())
        if token.text in _ATTR_NAMES:
            op_token = self._next()
            if op_token.text not in ("==", "!=", "<", "<=", ">", ">="):
                raise ConfigError(
                    f"expected comparison operator, found {op_token.text!r}",
                    op_token.line, op_token.column,
                )
            return AttrCompare(token.text, op_token.text, self._number())
        raise ConfigError(
            f"cannot parse condition at {token.text!r}", token.line, token.column
        )


def parse_config(source: str) -> RouterConfig:
    """Parse configuration text into a validated :class:`RouterConfig`."""
    return _Parser(tokenize(source)).parse()


# ---------------------------------------------------------------------------
# Parse cache.
#
# Scenario construction instantiates many routers from a handful of
# distinct config texts (every stub in a generated federation shares its
# shape; test fixtures rebuild the same Figure 2 text dozens of times).
# Parsing dominates small-budget runs, so identical text is parsed once
# and thereafter revived from its pickled form — ~6x cheaper than a
# re-parse, and each caller still gets a private, freely mutable
# RouterConfig (configs travel inside checkpoints, so sharing one live
# instance across routers would be a correctness trap).  The memo is
# keyed by a content hash and evicts oldest first: scenario builds reuse
# recent texts.
# ---------------------------------------------------------------------------

_PARSED = Memo(256, "bgp.config.parse")


def _content_key(source: str) -> bytes:
    import hashlib

    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).digest()


def parse_config_cached(source: str) -> RouterConfig:
    """:func:`parse_config` with content-hash memoization.

    Returns a fresh :class:`RouterConfig` on every call (revived from the
    cached pickle), never a shared instance.  Parse errors are not
    cached — an invalid text re-raises on each attempt.
    """
    import pickle

    key = _content_key(source)
    blob = _PARSED.get(key)
    if blob is None:
        config = parse_config(source)
        _PARSED.put(key, pickle.dumps(config, pickle.HIGHEST_PROTOCOL))
        return config
    return pickle.loads(blob)
