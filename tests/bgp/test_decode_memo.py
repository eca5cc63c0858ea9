"""The decode memo: concrete payloads decode once, symbolic ones never share.

:func:`decode_message` memoizes on ``bytes`` payloads in a bounded,
oldest-first table.  These tests pin its four promises: a malformed
payload is never cached, the bound holds and evictions are counted, the
router never mutates a shared decoded message, and a :class:`SymBytes`
buffer always takes the full parse so exploration records every branch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.fsm import SessionState
from repro.bgp.messages import (
    NotificationMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.nlri import NlriEntry
from repro.bgp.router import BgpRouter
from repro.concolic import trace
from repro.concolic.env import RecordingEnvironment
from repro.core.inputs import WholeMessageModel
from repro.util.errors import WireFormatError
from repro.util.ip import Prefix
from repro.util.memo import registry

CONFIG = """
router bgp 65010;
router-id 10.0.0.1;
prefix-set NARROW { 10.10.0.0/16 le 24; }
filter rewrite-in {
    if net in NARROW then { set local-pref 300; add-community 42; prepend 65001 2; accept; }
    set med 5;
    remove-community 7;
    accept;
}
neighbor alpha { remote-as 65001; passive; import filter rewrite-in; }
neighbor beta { remote-as 65002; passive; }
neighbor gamma { remote-as 65003; passive; }
"""


MEMO = registry()["bgp.decode"]


@pytest.fixture(autouse=True)
def fresh_memo():
    MEMO.clear()
    yield
    MEMO.clear()


def sample_update(prefix="10.10.1.0/24", asns=(65001, 777)):
    return UpdateMessage(
        attributes=PathAttributes(as_path=AsPath.sequence(list(asns)), next_hop=7),
        nlri=[NlriEntry.from_prefix(Prefix.parse(prefix))],
    )


def test_repeated_payload_is_decoded_once():
    payload = sample_update().encode()
    first = decode_message(payload)
    assert decode_message(payload) is first
    assert MEMO.info() == {
        "hits": 1, "misses": 1, "evictions": 0, "size": 1, "bound": 1024,
    }


def test_malformed_payload_raises_twice_and_is_never_cached():
    wire = bytearray(sample_update().encode())
    wire[-4] = 40  # the /24 NLRI entry's length byte: > 32 is invalid
    payload = bytes(wire)
    errors = []
    for _ in range(2):
        with pytest.raises(WireFormatError) as caught:
            decode_message(payload)
        errors.append((type(caught.value), caught.value.code, caught.value.subcode,
                       str(caught.value)))
    assert errors[0] == errors[1]
    assert MEMO.info() == {
        "hits": 0, "misses": 2, "evictions": 0, "size": 0, "bound": 1024,
    }


def test_bound_holds_and_evictions_are_counted(monkeypatch):
    monkeypatch.setattr(MEMO, "bound", 4)
    payloads = [NotificationMessage(6, subcode).encode() for subcode in range(10)]
    for payload in payloads:
        decode_message(payload)
    assert MEMO.info() == {
        "hits": 0, "misses": 10, "evictions": 6, "size": 4, "bound": 4,
    }
    # Oldest first: the last four survive, the first was evicted.
    decode_message(payloads[-1])
    decode_message(payloads[0])
    info = MEMO.info()
    assert (info["hits"], info["misses"], info["evictions"], info["size"]) == (1, 11, 7, 4)


updates = st.builds(
    lambda withdrawn, announced, asns, med, communities: UpdateMessage(
        withdrawn=[NlriEntry.from_prefix(p) for p in withdrawn],
        attributes=PathAttributes(
            as_path=AsPath.sequence(asns),
            next_hop=7,
            med=med,
            communities=tuple(communities),
        ),
        nlri=[NlriEntry.from_prefix(p) for p in announced],
    ),
    st.lists(st.sampled_from([Prefix.parse("10.10.9.0/24"), Prefix.parse("99.0.0.0/8")]),
             max_size=2, unique=True),
    st.lists(st.sampled_from([Prefix.parse("10.10.1.0/24"), Prefix.parse("10.10.0.0/16"),
                              Prefix.parse("20.0.0.0/8")]),
             min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 65535), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 1000)),
    st.lists(st.sampled_from([7, 42, 0xFFFFFF01]), max_size=2, unique=True),
)


@settings(max_examples=100, deadline=None)
@given(updates, st.sampled_from(["alpha", "beta"]))
def test_handle_update_leaves_shared_message_intact(update, peer):
    payload = update.encode()
    routers = []
    for _ in range(2):
        router = BgpRouter("r", RecordingEnvironment(), CONFIG)
        for session in router.sessions.values():
            session.state = SessionState.ESTABLISHED
        routers.append(router)
    shared = decode_message(payload)
    for router in routers:
        router.on_message(peer, payload)  # served the shared object
        # Re-export of what it learned decodes again at its peers.
        for sent in router.env.sent:
            decode_message(sent.payload)
    assert decode_message(payload) is shared
    MEMO.clear()
    fresh = decode_message(payload)
    assert fresh is not shared
    assert fresh == shared


def test_symbolic_buffers_bypass_the_memo():
    observed = sample_update()
    decode_message(observed.encode())  # the concrete twin is memoized
    before = MEMO.info()
    model = WholeMessageModel(observed)
    spec = model.spec()
    runs = []
    for _ in range(2):
        with trace() as recorder:
            message = model.build(spec.symbolize(spec.initial_assignment()))
        runs.append((
            recorder.path.signature(),
            [str(constraint) for constraint in recorder.path.held_constraints()],
        ))
        assert message.nlri[0].to_prefix() == observed.nlri[0].to_prefix()
    assert runs[0] == runs[1]
    assert len(runs[0][1]) > 0, "the symbolic parse must record its branches"
    assert MEMO.info() == before
