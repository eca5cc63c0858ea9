"""Key-level patches between fork templates (``TemplatePatch``).

Random scripts run on a fig2 router between two captures: announcements
of fresh prefixes, replacements and withdrawals of learned routes,
withdraw-then-reannounce (which moves a key to the end of its table),
session resets and new static routes.  The patch, pickled the way it
crosses a process boundary and applied to a pickle-thawed copy of the
earlier template, must rebuild the later one: every table in the same
key order over equal values, every other component byte for byte.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import NotificationMessage, UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.checkpoint.delta import TemplatePatch
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.env import ExplorationEnvironment
from repro.core import get_scenario
from repro.util.errors import CheckpointError
from repro.util.ip import Prefix, ip_to_int

PEERS = ("customer", "internet")


@pytest.fixture(scope="module")
def fig2_template():
    scenario = get_scenario("fig2").build(
        filter_mode="erroneous", prefix_count=120, update_count=10
    )
    scenario.converge()
    return Checkpoint.capture(scenario.provider, "fig2")


def announce(router, peer, prefix, variant):
    remote = router.config.neighbors[peer].remote_as
    router.handle_update(peer, UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([remote, 64600 + variant]),
            next_hop=ip_to_int("10.0.0.2"),
        ),
        nlri=[NlriEntry.from_prefix(prefix)],
    ))


def withdraw(router, peer, prefix):
    router.handle_update(
        peer, UpdateMessage(withdrawn=[NlriEntry.from_prefix(prefix)])
    )


def learned(router):
    """Every ``(peer, prefix)`` the router has learned, in table order."""
    return list(router.adj_rib_in.delta_items())


def run_step(router, step):
    kind, index, variant = step
    if kind == "announce":
        announce(router, PEERS[variant % 2], fresh_prefix(index), variant)
    elif kind == "static":
        router.originate(fresh_prefix(index))
    elif kind == "reset":
        router.handle_notification(PEERS[index % 2], NotificationMessage(6, 4))
    else:
        entries = learned(router)
        if not entries:
            return
        peer, prefix = entries[index % len(entries)]
        if kind == "replace":
            announce(router, peer, prefix, variant)
        elif kind == "withdraw":
            withdraw(router, peer, prefix)
        else:  # withdraw, then announce again: the key moves to the end
            withdraw(router, peer, prefix)
            announce(router, peer, prefix, variant)


def fresh_prefix(index):
    return Prefix.parse(f"96.{index}.0.0/16")


STEPS = st.tuples(
    st.sampled_from(
        ("announce", "replace", "withdraw", "reannounce", "reset", "static")
    ),
    st.integers(min_value=0, max_value=199),
    st.integers(min_value=0, max_value=7),
)


def patched(base, new):
    """``new`` rebuilt the way a process worker does: the patch pickled
    once, applied to a copy of ``base`` thawed from its bytes."""
    patch = TemplatePatch.between(base, new, epoch=1)
    patch.seal()
    shipped = pickle.loads(pickle.dumps(patch))
    thawed = pickle.loads(pickle.dumps(base))
    return patch, shipped.apply(thawed)


def assert_same_template(built, captured):
    ours, theirs = built.frozen_state(), captured.frozen_state()
    assert list(ours) == list(theirs)
    for name, value in theirs.items():
        if hasattr(value, "delta_items"):
            assert list(ours[name].delta_items().items()) == list(
                value.delta_items().items()
            ), name
        else:
            assert pickle.dumps(ours[name]) == pickle.dumps(value), name


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=st.lists(STEPS, min_size=1, max_size=12))
def test_patch_rebuilds_the_later_template(fig2_template, script):
    router = fig2_template.restore(ExplorationEnvironment())
    base = Checkpoint.capture(router, "base")
    for step in script:
        run_step(router, step)
    new = Checkpoint.capture(router, "new")
    patch, built = patched(base, new)
    assert_same_template(built, new)
    assert built.node_time == new.node_time
    # A rebuilt template restores a working router over the same table.
    clone = built.restore(ExplorationEnvironment())
    assert list(clone.loc_rib.items()) == list(router.loc_rib.items())


def test_withdraw_then_reannounce_ships_only_the_moved_tail(fig2_template):
    router = fig2_template.restore(ExplorationEnvironment())
    base = Checkpoint.capture(router, "base")
    peer, prefix = learned(router)[0]
    withdraw(router, peer, prefix)
    announce(router, peer, prefix, 3)
    new = Checkpoint.capture(router, "new")
    patch, built = patched(base, new)
    assert_same_template(built, new)
    _, tables, _ = patch._unsealed()
    changed, removed, tail = tables["loc_rib"]
    assert (list(changed), removed, tail) == ([prefix], (), (prefix,))
    # Per-peer tables flatten peer by peer: the tail runs from the moved
    # key to the end of the flattened order, not over the whole table.
    changed, removed, tail = tables["adj_rib_in"]
    order = list(new.frozen_state()["adj_rib_in"].delta_items())
    assert (list(changed), removed) == ([(peer, prefix)], ())
    assert tail == tuple(order[order.index((peer, prefix)):])
    assert len(tail) < len(order) // 2


def test_quiet_pair_gives_an_empty_patch(fig2_template):
    router = fig2_template.restore(ExplorationEnvironment())
    base = Checkpoint.capture(router, "base")
    new = Checkpoint.capture(router, "new")
    patch, built = patched(base, new)
    assert patch.dirty == 0
    assert patch.entries_shipped == 0
    assert patch._unsealed()[1:] == ({}, {})
    assert patch.entries_total > 0
    assert_same_template(built, new)


def test_dirty_counts_entries_and_components(fig2_template):
    router = fig2_template.restore(ExplorationEnvironment())
    base = Checkpoint.capture(router, "base")
    peer, prefix = learned(router)[-1]
    withdraw(router, peer, prefix)
    patch = TemplatePatch.between(base, Checkpoint.capture(router, "new"))
    keys, tables, components = patch._unsealed()
    assert patch.dirty == len(components) + sum(
        len(changed) + len(removed) for changed, removed, _ in tables.values()
    )
    assert "counters" in components
    assert (peer, prefix) in tables["adj_rib_in"][1]
    # The small parts that did not change stay home.
    assert "config" not in components


def test_patch_refuses_another_node_type(fig2_template):
    class Other:
        pass

    other = Checkpoint.from_state("other", Other, {"x": 1})
    with pytest.raises(CheckpointError):
        TemplatePatch.between(fig2_template, other)
    patch = TemplatePatch.between(fig2_template, fig2_template)
    with pytest.raises(CheckpointError):
        patch.apply(other)
