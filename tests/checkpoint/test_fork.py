"""Fork-style checkpoints: clone isolation, and fork == pickle.

A checkpoint of a :class:`BgpRouter` is a resident template cloned by
structural sharing (``BgpRouter.fork_state``): the live node, the
checkpoint and every clone share :class:`Route` objects.  These tests
pin what that sharing must never let through — a clone's action showing
up anywhere else — with the pickle round trip kept as the oracle.
"""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.fsm import SessionState
from repro.bgp.messages import NotificationMessage, UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.bgp.router import BgpRouter
from repro.checkpoint.delta import CheckpointImage
from repro.checkpoint.manager import snapshot_pages
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.env import ExplorationEnvironment, RecordingEnvironment
from repro.parallel.worker import SessionJob, run_session_job
from repro.util.errors import CheckpointError
from repro.util.ip import Prefix

P = Prefix.parse

CONFIG = """
router bgp 65010;
router-id 10.0.0.1;
network 10.99.0.0/16;
prefix-set NARROW { 10.10.0.0/16 le 24; }
filter narrow-in {
    if net in NARROW then { set local-pref 150; accept; }
    accept;
}
neighbor alpha { remote-as 65001; passive; import filter narrow-in; }
neighbor beta { remote-as 65002; passive; }
neighbor gamma { remote-as 65003; passive; }
"""

#: Same neighbors, stricter policy: what ``apply_config`` swaps in.
STRICT_CONFIG = CONFIG.replace(
    "set local-pref 150; accept;", "reject;"
)

PEERS = ("alpha", "beta", "gamma")
PREFIXES = [P(f"10.10.{i}.0/24") for i in range(6)] + [P("10.99.0.0/16"), P("172.16.0.0/12")]
CLONES = 3


def fresh(text: str) -> str:
    """An equal but distinct ``str``, the way a peer id comes off the wire.

    Pickle memoizes by identity, so a segment's bytes depend on whether a
    new route's ``peer`` *is* the table's key object.  A literal would be
    that object in a forked clone (which shares the live node's strings)
    and not in an unpickled one; a fresh string is it in neither.
    """
    return "".join(list(text))


def announcement(prefix, asns, communities=()):
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence(list(asns)), next_hop=7, communities=communities
        ),
        nlri=[NlriEntry.from_prefix(prefix)],
    )


def live_router():
    router = BgpRouter("r", RecordingEnvironment(), CONFIG)
    for session in router.sessions.values():
        session.state = SessionState.ESTABLISHED
    for index, prefix in enumerate(PREFIXES[:5]):
        for peer, asn in zip(PEERS, (65001, 65002, 65003)):
            if (index + asn) % 3:
                router.handle_update(
                    fresh(peer), announcement(prefix, [asn] + [700 + index] * (asn % 3))
                )
    return router


def clone_view(clone):
    """Everything observable about a clone: its image and its traffic."""
    return clone.snapshot_segments(), list(clone.env.captured)


class ForkIsolation(RuleBasedStateMachine):
    """K forked clones and K unpickled twins, driven in lockstep."""

    @initialize()
    def fork(self):
        self.live = live_router()
        self.live_bytes = pickle.dumps(self.live.checkpoint_state(), pickle.HIGHEST_PROTOCOL)
        self.live_segments = self.live.snapshot_segments()
        self.checkpoint = Checkpoint.capture(self.live, "sm")
        self.clones = [
            self.checkpoint.restore(ExplorationEnvironment()) for _ in range(CLONES)
        ]
        # The oracle: what the pickle round trip of the same state gives.
        self.twins = [
            BgpRouter.restore_from_state(
                pickle.loads(self.live_bytes), ExplorationEnvironment()
            )
            for _ in range(CLONES)
        ]
        self.views = [clone_view(clone) for clone in self.clones]
        self.sent_at_fork = len(self.live.env.sent)

    def act(self, index, action):
        action(self.clones[index])
        action(self.twins[index])
        self.views[index] = clone_view(self.clones[index])

    clone_index = st.integers(0, CLONES - 1)
    peer = st.sampled_from(PEERS)
    prefix = st.sampled_from(PREFIXES)

    @rule(index=clone_index, peer=peer, prefix=prefix,
          path=st.lists(st.integers(1, 65000), min_size=1, max_size=4),
          no_export=st.booleans())
    def announce(self, index, peer, prefix, path, no_export):
        from repro.bgp.attributes import NO_EXPORT

        update = announcement(prefix, path, (NO_EXPORT,) if no_export else ())
        self.act(index, lambda router: router.handle_update(fresh(peer), update))

    @rule(index=clone_index, peer=peer, prefix=prefix)
    def withdraw(self, index, peer, prefix):
        update = UpdateMessage(withdrawn=[NlriEntry.from_prefix(prefix)])
        self.act(index, lambda router: router.handle_update(fresh(peer), update))

    @rule(index=clone_index, peer=peer)
    def teardown_session(self, index, peer):
        self.act(index, lambda router: router.handle_notification(
            fresh(peer), NotificationMessage(6, 0)
        ))

    @rule(index=clone_index, prefix=prefix)
    def originate(self, index, prefix):
        self.act(index, lambda router: router.originate(prefix))

    @rule(index=clone_index, prefix=prefix)
    def withdraw_origination(self, index, prefix):
        self.act(index, lambda router: router.withdraw_origination(prefix))

    @rule(index=clone_index, strict=st.booleans())
    def apply_config(self, index, strict):
        self.act(index, lambda router: router.apply_config(
            STRICT_CONFIG if strict else CONFIG
        ))

    @rule(index=clone_index, seconds=st.sampled_from([1.0, 45.0, 200.0]))
    def tick(self, index, seconds):
        def advance_and_tick(router):
            router.env.advance(seconds)
            router.tick()

        self.act(index, advance_and_tick)

    @invariant()
    def live_node_untouched(self):
        assert pickle.dumps(
            self.live.checkpoint_state(), pickle.HIGHEST_PROTOCOL
        ) == self.live_bytes
        assert self.live.snapshot_segments() == self.live_segments
        assert not self.live.env.sent[self.sent_at_fork:]

    @invariant()
    def checkpoint_untouched(self):
        # A clone taken now still starts from the captured image ...
        late = self.checkpoint.restore(ExplorationEnvironment())
        assert late.snapshot_segments() == self.live_segments
        # ... and the template still pickles to the bytes of the fork moment.
        assert pickle.dumps(late.checkpoint_state(), pickle.HIGHEST_PROTOCOL) == self.live_bytes

    @invariant()
    def siblings_untouched(self):
        for clone, view in zip(self.clones, self.views):
            assert clone_view(clone) == view

    @invariant()
    def fork_equals_pickle(self):
        for clone, twin in zip(self.clones, self.twins):
            assert clone_view(clone) == clone_view(twin)

    def teardown(self):
        # First access: serialized from the template after every clone ran.
        assert self.checkpoint.state_bytes == self.live_bytes


ForkIsolation.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestForkIsolation = ForkIsolation.TestCase


class TestCheckpointForms:
    def test_capture_serializes_nothing_until_asked(self):
        checkpoint = Checkpoint.capture(live_router(), "lazy")
        assert checkpoint._state_bytes is None
        checkpoint.restore(ExplorationEnvironment())
        assert checkpoint._state_bytes is None

    def test_state_bytes_and_pages_are_the_live_nodes(self):
        router = live_router()
        checkpoint = Checkpoint.capture(router, "same")
        assert checkpoint.state_bytes == pickle.dumps(
            router.checkpoint_state(), pickle.HIGHEST_PROTOCOL
        )
        fresh_clone = checkpoint.restore(ExplorationEnvironment())
        assert snapshot_pages(fresh_clone) == snapshot_pages(router)
        assert checkpoint.size_bytes == len(checkpoint.state_bytes)

    def test_pages_are_of_the_capture_instant(self):
        router = live_router()
        before = snapshot_pages(router)
        checkpoint = Checkpoint.capture(router, "instant")
        router.handle_update("alpha", announcement(P("10.10.200.0/24"), [65001]))
        fresh_clone = checkpoint.restore(ExplorationEnvironment())
        assert snapshot_pages(fresh_clone) == before != snapshot_pages(router)

    def test_corrupt_state_bytes_raise_on_restore(self):
        checkpoint = Checkpoint("bad", BgpRouter, state_bytes=b"\x80\x05not a pickle")
        with pytest.raises(CheckpointError):
            checkpoint.restore(ExplorationEnvironment())

    def test_constructor_takes_exactly_one_form_of_the_state(self):
        with pytest.raises(CheckpointError):
            Checkpoint("neither", BgpRouter)
        with pytest.raises(CheckpointError):
            Checkpoint("both", BgpRouter, template=object(), state_bytes=b"")

    def test_checkpoint_in_a_session_job_round_trips_and_restores(self):
        """The batch engine's path: the checkpoint crosses as bytes."""
        router = live_router()
        checkpoint = Checkpoint.capture(router, "job")
        observed = announcement(P("10.10.1.0/24"), [65001, 9])
        job = pickle.loads(pickle.dumps(SessionJob(
            index=0, checkpoint=checkpoint, peer="alpha", observed=observed,
        )))
        shipped = job.checkpoint
        assert shipped._template is None
        assert shipped.state_bytes == checkpoint.state_bytes
        first = shipped.restore(ExplorationEnvironment())
        assert shipped._template is not None  # thawed once, forked from now on
        second = shipped.restore(ExplorationEnvironment())
        first.handle_update("beta", announcement(P("10.10.77.0/24"), [65002]))
        assert second.snapshot_segments() == router.snapshot_segments()
        local = run_session_job(SessionJob(
            index=0, checkpoint=checkpoint, peer="alpha", observed=observed,
        ))
        remote = run_session_job(job)
        assert {f.dedup_key() for f in remote.findings} == {
            f.dedup_key() for f in local.findings
        }
        assert remote.exploration.executions == local.exploration.executions

    def test_image_state_goes_in_as_the_template(self):
        checkpoint = CheckpointImage.capture(live_router(), "img").as_checkpoint()
        assert checkpoint._template is not None and checkpoint._state_bytes is None
        pristine = checkpoint.restore(ExplorationEnvironment()).snapshot_segments()
        clone = checkpoint.restore(ExplorationEnvironment())
        clone.handle_update("beta", announcement(P("10.10.77.0/24"), [65002]))
        assert clone.snapshot_segments() != pristine
        assert (
            checkpoint.restore(ExplorationEnvironment()).snapshot_segments() == pristine
        )


_PAGES_PROBE = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_fork import live_router
from repro.checkpoint.manager import snapshot_pages
print(snapshot_pages(live_router()).pages)
"""


def test_page_image_does_not_depend_on_the_hash_seed():
    """Adj-RIB keys hold peer strings; ``hash(str)`` is salted per process."""
    import repro

    script = _PAGES_PROBE.format(
        src=os.path.dirname(os.path.dirname(repro.__file__)),
        tests=os.path.dirname(__file__),
    )
    images = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        images.append(done.stdout)
    assert images[0] == images[1]
    assert images[0] == repr(snapshot_pages(live_router()).pages) + "\n"
