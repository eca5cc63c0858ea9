"""Tests for the policy interpreter and the configuration language."""

import pytest

from repro.bgp.attributes import AsPath, NO_EXPORT, ORIGIN_IGP, PathAttributes
from repro.bgp.config import parse_config, tokenize
from repro.bgp.policy import (
    ACCEPT_ALL,
    AttrCompare,
    FilterAction,
    FilterInterpreter,
    FilterProgram,
    PrefixIn,
    PrefixSet,
    PrefixSpec,
    REJECT_ALL,
    RouteView,
    Terminal,
)
from repro.concolic.engine import trace
from repro.concolic.symbolic import SymInt
from repro.util.errors import ConfigError
from repro.util.ip import Prefix, ip_to_int

P = Prefix.parse


def view(network="10.10.1.0", length=24, path=(65020,), **kwargs):
    attrs = PathAttributes(
        origin=kwargs.get("origin", ORIGIN_IGP),
        as_path=AsPath.sequence(list(path)),
        next_hop=kwargs.get("next_hop", 1),
        med=kwargs.get("med"),
        local_pref=kwargs.get("local_pref"),
        communities=tuple(kwargs.get("communities", ())),
    )
    return RouteView.of(ip_to_int(network), length, attrs)


class TestPrefixSpec:
    def test_exact_match_only_by_default(self):
        spec = PrefixSpec(P("10.0.0.0/8"))
        assert spec.matches(ip_to_int("10.0.0.0"), 8)
        assert not spec.matches(ip_to_int("10.0.0.0"), 9)
        assert not spec.matches(ip_to_int("11.0.0.0"), 8)

    def test_le_range(self):
        spec = PrefixSpec(P("10.0.0.0/8"), min_len=8, max_len=24)
        assert spec.matches(ip_to_int("10.5.0.0"), 16)
        assert spec.matches(ip_to_int("10.5.5.0"), 24)
        assert not spec.matches(ip_to_int("10.5.5.5"), 32)

    def test_zero_length_base_matches_everything_in_range(self):
        spec = PrefixSpec(P("0.0.0.0/0"), min_len=0, max_len=32)
        assert spec.matches(ip_to_int("200.1.2.3"), 32)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            PrefixSpec(P("10.0.0.0/8"), min_len=24, max_len=16)
        with pytest.raises(ConfigError):
            PrefixSpec(P("10.0.0.0/8"), min_len=4, max_len=8)

    def test_str(self):
        assert str(PrefixSpec(P("10.0.0.0/8"))) == "10.0.0.0/8"
        assert str(PrefixSpec(P("10.0.0.0/8"), 8, 24)) == "10.0.0.0/8{8,24}"

    def test_symbolic_match_records_constraints(self):
        spec = PrefixSpec(P("10.10.0.0/16"), 16, 24)
        network = SymInt.variable("net", ip_to_int("10.10.3.0"))
        length = SymInt.variable("len", 24, bits=6)
        with trace() as recorder:
            assert bool(spec.matches(network, length))
        # Length-low, length-high, and network-shift comparisons recorded.
        assert len(recorder.path) == 3


class TestInterpreter:
    def run(self, source, route_view, filter_name=None):
        config = parse_config(source)
        name = filter_name or next(
            n for n in config.filters if n not in ("accept-all", "reject-all")
        )
        interpreter = FilterInterpreter(config.prefix_sets)
        return interpreter.run(config.filters[name], route_view)

    BASE = """
router bgp 65010;
prefix-set CUSTOMERS { 10.10.0.0/16 le 24; 10.20.0.0/16; }
"""

    def test_prefix_set_accept(self):
        source = self.BASE + """
filter f { if net in CUSTOMERS then accept; reject; }
"""
        assert self.run(source, view("10.10.1.0", 24)).accepted
        assert not self.run(source, view("99.0.0.0", 24)).accepted
        assert self.run(source, view("10.20.0.0", 16)).accepted
        assert not self.run(source, view("10.20.1.0", 24)).accepted  # exact only

    def test_fallthrough_rejects(self):
        source = self.BASE + """
filter f { if net in CUSTOMERS then accept; }
"""
        result = self.run(source, view("99.0.0.0", 24))
        assert not result.accepted
        assert result.fell_through

    def test_set_local_pref(self):
        source = self.BASE + """
filter f { if net in CUSTOMERS then { set local-pref 200; accept; } reject; }
"""
        result = self.run(source, view("10.10.1.0", 24))
        assert result.accepted
        assert result.attributes.local_pref == 200

    def test_else_branch(self):
        source = self.BASE + """
filter f {
    if net.len > 24 then reject;
    else { set med 77; accept; }
}
"""
        result = self.run(source, view("10.10.1.0", 24))
        assert result.accepted and result.attributes.med == 77
        assert not self.run(source, view("10.10.1.0", 25)).accepted

    def test_as_path_and_origin_conditions(self):
        source = self.BASE + """
filter f {
    if as-path contains 666 then reject;
    if origin-as == 65020 then accept;
    reject;
}
"""
        assert self.run(source, view(path=(65020,))).accepted
        assert not self.run(source, view(path=(65021,))).accepted
        assert not self.run(source, view(path=(666, 65020))).accepted

    def test_origin_as_negated(self):
        source = self.BASE + """
filter f { if origin-as != 65020 then reject; accept; }
"""
        assert self.run(source, view(path=(65020,))).accepted
        assert not self.run(source, view(path=(1,))).accepted

    def test_community_condition_and_actions(self):
        source = self.BASE + """
filter f {
    if community has no-export then reject;
    add-community 999;
    accept;
}
"""
        result = self.run(source, view())
        assert result.accepted and 999 in result.attributes.communities
        rejected = self.run(source, view(communities=[NO_EXPORT]))
        assert not rejected.accepted

    def test_remove_community(self):
        source = self.BASE + """
filter f { remove-community 7; accept; }
"""
        result = self.run(source, view(communities=[7, 8]))
        assert result.attributes.communities == (8,)

    def test_prepend(self):
        source = self.BASE + """
filter f { prepend 65010 3; accept; }
"""
        result = self.run(source, view(path=(65020,)))
        assert result.attributes.as_path.as_list() == [65010, 65010, 65010, 65020]

    def test_boolean_connectives(self):
        source = self.BASE + """
filter f {
    if net in CUSTOMERS and net.len <= 20 then accept;
    if not (net.len >= 8) or false then accept;
    reject;
}
"""
        assert self.run(source, view("10.10.0.0", 16)).accepted       # first if
        assert not self.run(source, view("10.10.1.0", 24)).accepted   # len > 20
        assert self.run(source, view("1.0.0.0", 4)).accepted          # second if

    def test_inline_prefix_set(self):
        source = self.BASE + """
filter f { if net in { 192.168.0.0/16 le 32; } then accept; reject; }
"""
        assert self.run(source, view("192.168.3.4", 32)).accepted
        assert not self.run(source, view("10.10.1.0", 24)).accepted

    def test_attr_compare_all_operators(self):
        for op, length, expected in [
            ("==", 24, True), ("!=", 24, False), ("<", 23, True),
            ("<=", 24, True), (">", 25, True), (">=", 24, True),
        ]:
            source = self.BASE + f"""
filter f {{ if net.len {op} 24 then accept; reject; }}
"""
            assert self.run(source, view(length=length)).accepted is expected

    def test_builtin_filters(self):
        interpreter = FilterInterpreter()
        assert interpreter.run(ACCEPT_ALL, view()).accepted
        assert not interpreter.run(REJECT_ALL, view()).accepted

    def test_undefined_prefix_set_in_interpreter(self):
        interpreter = FilterInterpreter({})
        program = FilterProgram(
            "f",
            (Terminal(FilterAction.ACCEPT),),
        )
        # Direct AST with a dangling reference fails at evaluation time.
        from repro.bgp.policy import If

        bad = FilterProgram("bad", (If(PrefixIn(set_name="GHOST"), (Terminal(FilterAction.ACCEPT),)),))
        with pytest.raises(ConfigError):
            interpreter.run(bad, view())
        assert interpreter.run(program, view()).accepted

    def test_symbolic_filter_evaluation_records_config_branches(self):
        """The paper's claim: configuration becomes explorable branches."""
        source = self.BASE + """
filter f { if net in CUSTOMERS then accept; reject; }
"""
        config = parse_config(source)
        interpreter = FilterInterpreter(config.prefix_sets)
        symbolic_view = RouteView.of(
            SymInt.variable("net", ip_to_int("10.10.1.0")),
            SymInt.variable("len", 24, bits=6),
            PathAttributes(as_path=AsPath.sequence([65020]), next_hop=1),
        )
        with trace() as recorder:
            result = interpreter.run(config.filters["f"], symbolic_view)
        assert result.accepted
        assert len(recorder.path) >= 3  # the configured conditions left constraints
        variables = set()
        for branch in recorder.path:
            variables |= branch.constraint.variables()
        assert variables == {"net", "len"}


class TestConfigParser:
    def test_full_config(self):
        config = parse_config("""
# A realistic provider config.
router bgp 65010;
router-id 10.0.0.1;
network 203.0.113.0/24;

prefix-set CUSTOMERS {
    10.10.0.0/16 le 24;
    10.20.0.0/16 ge 16 le 28;
}

filter customer-in {
    if net in CUSTOMERS then accept;
    reject;
}

neighbor customer1 {
    remote-as 65020;
    import filter customer-in;
    export filter accept-all;
    hold-time 180;
}

neighbor transit {
    remote-as 64999;
    passive;
}
""")
        assert config.asn == 65010
        assert config.router_id == ip_to_int("10.0.0.1")
        assert config.networks == [P("203.0.113.0/24")]
        specs = config.prefix_sets["CUSTOMERS"].specs
        assert (specs[0].min_len, specs[0].max_len) == (16, 24)
        assert (specs[1].min_len, specs[1].max_len) == (16, 28)
        assert config.neighbors["customer1"].remote_as == 65020
        assert config.neighbors["customer1"].hold_time == 180
        assert config.neighbors["transit"].passive
        assert "customer-in" in config.filters
        assert "accept-all" in config.filters  # builtin

    def test_comments_and_blank_lines(self):
        config = parse_config("""
# comment line
router bgp 1;   # trailing comment

""")
        assert config.asn == 1

    @pytest.mark.parametrize(
        "source,fragment",
        [
            ("router bgp zero;", "number"),
            ("router bgp 1; bogus;", "unknown top-level"),
            ("router bgp 1; neighbor x { import filter f; }", "remote-as"),
            ("router bgp 1; neighbor x { remote-as 2; import filter nope; }",
             "undefined filter"),
            ("router bgp 1; filter f { accept; } filter f2 { if net in GHOST then accept; }",
             "undefined prefix set"),
            ("router bgp 1; filter accept-all { accept; }", "reserved"),
            ("router bgp 1; filter f { banana; }", "unknown statement"),
            ("router bgp 1; filter f { set banana 1; }", "unknown attribute"),
            ("router bgp 1; router-id not-an-ip;", "router-id"),
            ("filter f { accept; }", "router bgp"),
            ("router bgp 1; filter f { if net.len ~ 3 then accept; }", "operator"),
            ("router bgp 1; filter f { if origin-as > 5 then accept; }", "origin-as"),
            ("router bgp 1; filter f { accept;", "end of configuration"),
        ],
    )
    def test_errors_are_reported(self, source, fragment):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(source)
        assert fragment.lower() in str(excinfo.value).lower()

    def test_error_carries_location(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("router bgp 1;\nbroken;")
        assert "line 2" in str(excinfo.value)

    def test_tokenizer_operators(self):
        tokens = [t.text for t in tokenize("a == b != c <= d >= e < f > g")]
        assert tokens == ["a", "==", "b", "!=", "c", "<=", "d", ">=", "e",
                          "<", "f", ">", "g"]

    def test_tokenizer_punctuation(self):
        tokens = [t.text for t in tokenize("x{y;z}(w)")]
        assert tokens == ["x", "{", "y", ";", "z", "}", "(", "w", ")"]

    def test_community_aliases(self):
        config = parse_config("""
router bgp 1;
filter f { if community has no-export then reject; add-community no-advertise; accept; }
""")
        assert config.asn == 1

    def test_hex_numbers(self):
        config = parse_config("""
router bgp 1;
filter f { add-community 0xFFFFFF01; accept; }
""")
        assert config.asn == 1

    def test_prepend_default_count(self):
        config = parse_config("""
router bgp 1;
filter f { prepend 65000; accept; }
""")
        statement = config.filters["f"].statements[0]
        assert statement.count == 1
