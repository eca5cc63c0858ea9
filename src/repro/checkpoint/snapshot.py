"""Checkpoints: fork-style snapshots of a node's state.

The paper checkpoints BIRD "by simply using the fork system call",
creating many checkpoints with a small memory footprint thanks to
copy-on-write, and isolates the child "by closing the open sockets"
(section 3.2).  Our equivalent:

* a node separates *state* (RIBs, config, session bookkeeping) from
  *runtime* (environment, live channels) and implements the
  :class:`Checkpointable` protocol;
* :meth:`Checkpoint.capture` — the fork moment — freezes a private copy
  of the state as a resident *template*.  A node that says how to share
  (``fork_state``) is copied structurally, sharing its immutable values
  the way forked processes share unwritten pages; any other node is
  copied through its pickle;
* cloning hands a fresh copy of the template to a new node wired to an
  *isolated* environment, which is exactly "closing the open sockets".

The pickle of a forked state is derived from the template on first
access: only a checkpoint that crosses a process boundary pays for
serialization.  Page images for the section 4.1 accounting are the
:class:`~repro.checkpoint.manager.CheckpointManager`'s business.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, Optional, Protocol, runtime_checkable

from repro.concolic.env import Environment
from repro.util.errors import CheckpointError


@runtime_checkable
class Checkpointable(Protocol):
    """What a node must provide to participate in checkpointing.

    One more hook is optional, and looked up with ``getattr`` so nodes
    without it still satisfy the protocol: ``fork_state(state) -> state``
    returns a private copy of a ``checkpoint_state()`` value that shares
    only immutable parts with it.  A node type that has it is captured
    and cloned by forking; one that has not goes through its pickle.
    """

    def checkpoint_state(self) -> object:
        """A picklable object capturing the node's entire logical state."""

    def snapshot_segments(self) -> Dict[str, bytes]:
        """Serialized state split into independently-paged memory segments.

        Splitting (e.g. RIB vs. config vs. session table) keeps the page
        accounting faithful: growth in one segment must not shift — and
        spuriously dirty — pages of the others.
        """

    @classmethod
    def restore_from_state(cls, state: object, env: Environment) -> "Checkpointable":
        """Rebuild a node from ``checkpoint_state()`` output onto ``env``."""


class Checkpoint:
    """A captured node state: a frozen template, or the pickle of one.

    ``node_time`` is the *node's* clock (simulated seconds) at the fork
    moment; clones get their virtual clock frozen there so explored code
    observes a consistent time.  ``created_at`` is host wall time, used
    only for bookkeeping.

    Build one with :meth:`capture` or :meth:`from_state`; the constructor
    takes whichever form of the state is at hand (``template`` for a node
    type with ``fork_state``, ``state_bytes`` otherwise or on arrival
    from another process).
    """

    def __init__(
        self,
        name: str,
        node_type: type,
        *,
        template: object = None,
        state_bytes: Optional[bytes] = None,
        node_time: float = 0.0,
        sequence: int = 0,
    ):
        if (template is None) == (state_bytes is None):
            raise CheckpointError(f"{name!r}: give one of template / state_bytes")
        self.name = name
        self.node_type = node_type
        self.node_time = node_time
        self.sequence = sequence
        self.created_at = time.monotonic()
        self._template = template
        self._state_bytes = state_bytes

    @classmethod
    def from_state(cls, name: str, node_type: type, state: object, **meta) -> "Checkpoint":
        """Freeze ``state``, which the caller hands over for good."""
        if hasattr(node_type, "fork_state"):
            return cls(name, node_type, template=state, **meta)
        return cls(name, node_type, state_bytes=_dumps(name, state), **meta)

    @classmethod
    def capture(
        cls,
        node: Checkpointable,
        name: str,
        sequence: int = 0,
    ) -> "Checkpoint":
        """The fork moment: snapshot ``node``'s state."""
        state = node.checkpoint_state()
        fork = getattr(node, "fork_state", None)
        return cls.from_state(
            name,
            type(node),
            state if fork is None else fork(state),
            node_time=float(getattr(node, "now", 0.0)),
            sequence=sequence,
        )

    def frozen_state(self) -> object:
        """The captured state, for reading only: never hand it to a node.

        A forkable node's template is thawed from the bytes once (a batch-
        engine job arrives that way) and kept; any other node's state is
        unpickled afresh, so each call returns a private copy.
        """
        if self._template is not None:
            return self._template
        try:
            state = pickle.loads(self.state_bytes)
        except Exception as exc:
            raise CheckpointError(f"checkpoint {self.name!r} is corrupt: {exc}") from exc
        if hasattr(self.node_type, "fork_state"):
            self._template = state
        return state

    def _clone_state(self) -> object:
        """A private state for one clone."""
        fork = getattr(self.node_type, "fork_state", None)
        state = self.frozen_state()
        return state if fork is None else fork(state)

    def restore(self, env: Environment) -> Checkpointable:
        """Materialize a clone of the captured state onto ``env``.

        The clone starts with no live channels — the environment passed in
        is expected to be an isolated one, mirroring the paper's closing of
        inherited sockets in the forked child.
        """
        return self.node_type.restore_from_state(self._clone_state(), env)

    @property
    def state_bytes(self) -> bytes:
        """The state's pickle: what crosses a process boundary."""
        if self._state_bytes is None:
            self._state_bytes = _dumps(self.name, self._template)
        return self._state_bytes

    def __getstate__(self) -> dict:
        # Another process gets the bytes, never the template: it thaws
        # its own on first restore.
        state = dict(self.__dict__)
        state.update(_template=None, _state_bytes=self.state_bytes)
        return state

    @property
    def size_bytes(self) -> int:
        return len(self.state_bytes)


def _dumps(name: str, state: object) -> bytes:
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"state of {name!r} is not picklable: {exc}") from exc


def default_segments(state: object) -> Dict[str, bytes]:
    """Helper for simple nodes: one segment holding the whole state pickle."""
    return {"state": pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)}
