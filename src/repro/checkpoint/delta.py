"""Segment-structured checkpoints and incremental (delta) shipping.

Inside one process a :class:`Checkpoint` is a resident template cloned
by structural sharing and never serialized.  Across processes the batch
engine ships its full pickle inside *every* job — fine for a handful of
seeds, ruinous for a large RIB streamed to long-lived workers.  This
module makes checkpoints *diffable*:

* :class:`CheckpointImage` captures a node's state as independently
  pickled, stably named **segments** (one per ``checkpoint_state()``
  dict key, or a single ``default_segments``-style blob for opaque
  states).  A small RIB change re-pickles — and later re-ships — only
  the RIB segments; config, sessions, and static routes stay byte-for-
  byte identical.
* :meth:`CheckpointImage.diff` compares two images segment by segment,
  byte for byte, and produces a :class:`CheckpointDelta` carrying only
  the changed segments.
* :meth:`CheckpointDelta.apply` reassembles the successor image on the
  receiving side; the result is byte-identical to a fresh capture of the
  same state, so a worker that got "inherited template, deltas after"
  holds exactly what a worker that got the full re-ship would.

The streaming pipeline (:mod:`repro.parallel.stream`) keeps every epoch
as a :class:`Checkpoint` template, which a forked worker inherits copy-
on-write with nothing serialized, and builds an image from it
(:meth:`CheckpointImage.from_checkpoint`) only where bytes must cross a
process boundary: a delta's base, or a full ship to a worker that never
inherited the epoch.  A worker assembles the state once per *shipped*
epoch and hands it to a classic :class:`Checkpoint`
(:meth:`CheckpointImage.as_checkpoint`), whose clone-per-execution loop
then forks it like any local checkpoint.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.checkpoint.snapshot import Checkpoint, Checkpointable, default_segments
from repro.concolic.env import Environment
from repro.util.errors import CheckpointError

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Segment names for dict-shaped states are ``state/<key>`` (monolithic
#: component) or ``state/<key>@<bucket>`` (one hash bucket of a
#: dict-valued component); opaque states fall back to
#: :func:`default_segments`' single ``state`` blob.
_DICT_PREFIX = "state/"
_BUCKET_SEP = "@"

#: Hash buckets per dict-valued component.  Fixed — a count derived from
#: the dict's size would reshuffle every item's bucket as the dict grows
#: and turn a one-route change into a full re-ship.
_ITEM_BUCKETS = 32


def _bucket_of(key_object: object) -> Optional[int]:
    """Stable bucket for one dict item, or None if the key won't pickle."""
    try:
        key_bytes = pickle.dumps(key_object, _PROTOCOL)
    except Exception:
        return None
    digest = hashlib.blake2b(key_bytes, digest_size=2).digest()
    return int.from_bytes(digest, "big") % _ITEM_BUCKETS


def _component_items(value: object):
    """``(items, factory)`` when a component supports item decomposition.

    Plain non-empty dicts decompose directly (``factory=None``).  Richer
    containers (the RIB classes, whose payload hides behind a derived
    index) opt in by implementing ``delta_items() -> dict`` and
    ``from_delta_items(items)`` — the factory re-derives any index
    structure from the items on restore.  Everything else returns
    ``(None, None)`` and ships monolithically.
    """
    if isinstance(value, dict):
        return (value, None) if value else (None, None)
    delta_items = getattr(value, "delta_items", None)
    from_items = getattr(type(value), "from_delta_items", None)
    if callable(delta_items) and callable(from_items):
        items = delta_items()
        if items:
            return items, type(value)
    return None, None


def _bucketize_items(component: Dict) -> Optional[Dict[int, bytes]]:
    """Split a dict component into stable hash buckets of pickled items.

    Every item is pickled *independently* — a monolithic pickle's memo
    numbering shifts on any insertion, dirtying every subsequent byte,
    which is exactly what made whole-component deltas useless.  Items
    carry their insertion position so reassembly rebuilds the dict in
    the original order (iteration-order-dependent behavior stays
    byte-for-byte identical to a restore from a full checkpoint).

    Returns None when any key or value refuses to pickle item-wise; the
    caller then falls back to the monolithic form.
    """
    buckets: Dict[int, list] = {}
    for position, (key, value) in enumerate(component.items()):
        bucket = _bucket_of(key)
        if bucket is None:
            return None
        try:
            item_bytes = pickle.dumps((key, value), _PROTOCOL)
        except Exception:
            return None
        buckets.setdefault(bucket, []).append((position, item_bytes))
    blobs: Dict[int, bytes] = {}
    for bucket, items in buckets.items():
        items.sort(key=lambda item: item[0])
        blobs[bucket] = pickle.dumps(items, _PROTOCOL)
    return blobs


def state_segments(state: object) -> Dict[str, bytes]:
    """Split a node state into independently pickled, stably named segments.

    Dict-shaped states (the common :meth:`checkpoint_state` shape — one
    key per logical component) get one segment per key, and dict-valued
    components (RIB tables, counters, session maps) are further split
    into hash-stable item buckets — so one changed route dirties one
    bucket of one component, leaving every other segment's bytes
    untouched.  Anything else degrades to :func:`default_segments`'
    single-blob form, which still round-trips exactly (it just never
    produces a useful delta).
    """
    if isinstance(state, dict) and state and all(
        isinstance(key, str) and _BUCKET_SEP not in key for key in state
    ):
        segments: Dict[str, bytes] = {}
        try:
            for key, value in sorted(state.items()):
                items, factory = _component_items(value)
                blobs = _bucketize_items(items) if items is not None else None
                if blobs is None:
                    segments[_DICT_PREFIX + key] = pickle.dumps(value, _PROTOCOL)
                else:
                    meta = f"{_DICT_PREFIX}{key}{_BUCKET_SEP}meta"
                    segments[meta] = pickle.dumps(factory, _PROTOCOL)
                    for bucket, blob in sorted(blobs.items()):
                        segments[f"{_DICT_PREFIX}{key}{_BUCKET_SEP}{bucket}"] = blob
            return segments
        except Exception as exc:
            raise CheckpointError(f"state component is not picklable: {exc}") from exc
    try:
        return default_segments(state)
    except Exception as exc:
        raise CheckpointError(f"state is not picklable: {exc}") from exc


def assemble_state(segments: Dict[str, bytes]) -> object:
    """Reconstruct the state object :func:`state_segments` split up."""
    if set(segments) == {"state"}:
        return pickle.loads(segments["state"])
    components: Dict[str, object] = {}
    bucketed: Dict[str, list] = {}
    factories: Dict[str, Optional[type]] = {}
    for name in sorted(segments):
        component, _, bucket = name[len(_DICT_PREFIX):].partition(_BUCKET_SEP)
        if not bucket:
            components[component] = pickle.loads(segments[name])
        elif bucket == "meta":
            factories[component] = pickle.loads(segments[name])
        else:
            bucketed.setdefault(component, []).extend(pickle.loads(segments[name]))
    for component, items in bucketed.items():
        # Position tags restore the original insertion order, so the
        # rebuilt dict iterates exactly like the captured one.
        items.sort(key=lambda item: item[0])
        value: object = dict(pickle.loads(item_bytes) for _, item_bytes in items)
        factory = factories.get(component)
        if factory is not None:
            value = factory.from_delta_items(value)
        components[component] = value
    return components


@dataclass
class CheckpointImage:
    """A captured node state in segment form, ready for delta shipping.

    ``epoch`` is the streaming pipeline's re-checkpoint counter and
    ``node`` names which federation member the image belongs to (empty
    for a single-node stream): workers key their resident images by the
    ``(node, epoch)`` pair, and a :class:`CheckpointDelta` names the
    base epoch it patches *of the same node* — one shared worker pool
    holds every AS's image chain side by side without cross-talk.
    """

    name: str
    node_type: type
    segments: Dict[str, bytes]
    node_time: float = 0.0
    epoch: int = 0
    node: str = ""
    sequence: int = 0
    created_at: float = field(default_factory=time.monotonic)

    @classmethod
    def capture(
        cls,
        node: Checkpointable,
        name: str,
        epoch: int = 0,
        node_id: str = "",
        sequence: int = 0,
    ) -> "CheckpointImage":
        """The fork moment, segment-structured."""
        segments = state_segments(node.checkpoint_state())
        node_time = float(getattr(node, "now", 0.0))
        return cls(
            name=name,
            node_type=type(node),
            segments=segments,
            node_time=node_time,
            epoch=epoch,
            node=node_id,
            sequence=sequence,
        )

    @classmethod
    def from_checkpoint(
        cls, checkpoint: Checkpoint, epoch: int = 0, node_id: str = ""
    ) -> "CheckpointImage":
        """The segments of a captured template.

        A fork pickles to the bytes of its original, so this image is
        byte-identical to a :meth:`capture` of the node at the moment the
        template was taken, on whichever side of a process boundary it is
        built.
        """
        return cls(
            name=checkpoint.name,
            node_type=checkpoint.node_type,
            segments=state_segments(checkpoint.frozen_state()),
            node_time=checkpoint.node_time,
            epoch=epoch,
            node=node_id,
            sequence=checkpoint.sequence,
        )

    @property
    def image_key(self) -> Tuple[str, int]:
        """The ``(node, epoch)`` identity workers index their tables by."""
        return (self.node, self.epoch)

    @property
    def total_bytes(self) -> int:
        """Bytes a full ship of this image costs."""
        return sum(len(blob) for blob in self.segments.values())

    def restore(self, env: Environment) -> Checkpointable:
        """Materialize a clone directly from the segments."""
        try:
            state = assemble_state(self.segments)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint image {self.name!r} is corrupt: {exc}"
            ) from exc
        return self.node_type.restore_from_state(state, env)

    def as_checkpoint(self) -> Checkpoint:
        """A classic :class:`Checkpoint` over the same state.

        Workers rebuild this once per received epoch: the assembled state
        goes straight in as the checkpoint's template, which the clone-
        per-execution loop forks for every exploration input.  The one-
        time assembly cost stays local to the worker — nothing here
        crosses a process boundary.
        """
        return Checkpoint.from_state(
            self.name,
            self.node_type,
            assemble_state(self.segments),
            node_time=self.node_time,
            sequence=self.sequence,
        )

    def _changes_since(
        self, base: "CheckpointImage"
    ) -> Tuple[Dict[str, bytes], Tuple[str, ...]]:
        """Segments whose bytes differ from ``base``'s, and the names of
        ``base``'s segments this image no longer has.

        A re-pickled but unchanged segment compares equal, so it counts
        as clean and ships nothing.
        """
        if base.node != self.node:
            raise CheckpointError(
                f"image for federation node {self.node!r} cannot be "
                f"compared to node {base.node!r}'s"
            )
        theirs = base.segments
        changed = {
            name: blob for name, blob in self.segments.items()
            if theirs.get(name) != blob
        }
        removed = tuple(sorted(set(theirs) - set(self.segments)))
        return changed, removed

    def dirty_segments_since(self, base: "CheckpointImage") -> int:
        """How many segments changed (or vanished) since ``base``.

        The churn probe behind churn-driven epochs: the streaming
        coordinator captures a candidate image and asks this *before*
        building a delta — below the churn threshold the capture is
        discarded, nothing ships, and the node's epoch stands.
        """
        changed, removed = self._changes_since(base)
        return len(changed) + len(removed)

    def diff(self, base: "CheckpointImage") -> "CheckpointDelta":
        """The delta that turns ``base`` into this image."""
        changed, removed = self._changes_since(base)
        return CheckpointDelta(
            name=self.name,
            base_epoch=base.epoch,
            epoch=self.epoch,
            node_type=self.node_type,
            changed=changed,
            removed=removed,
            node_time=self.node_time,
            node=self.node,
            sequence=self.sequence,
            base_segment_count=len(base.segments),
        )


@dataclass
class CheckpointDelta:
    """Only what changed between two checkpoint epochs of one node."""

    name: str
    base_epoch: int
    epoch: int
    node_type: type
    changed: Dict[str, bytes]
    removed: Tuple[str, ...] = ()
    node_time: float = 0.0
    node: str = ""
    sequence: int = 0
    base_segment_count: int = 0

    @property
    def image_key(self) -> Tuple[str, int]:
        """The ``(node, epoch)`` identity of the image this delta builds."""
        return (self.node, self.epoch)

    @property
    def base_key(self) -> Tuple[str, int]:
        """The ``(node, epoch)`` identity of the required base image."""
        return (self.node, self.base_epoch)

    @property
    def bytes_shipped(self) -> int:
        """Payload bytes this delta ships (changed segment blobs)."""
        return sum(len(blob) for blob in self.changed.values())

    @property
    def segments_shipped(self) -> int:
        return len(self.changed)

    @property
    def dirty_segments(self) -> int:
        """Changed plus removed segments — the delta's churn measure."""
        return len(self.changed) + len(self.removed)

    def apply(self, base: CheckpointImage) -> CheckpointImage:
        """Reassemble the successor image from ``base`` plus this delta."""
        if base.node != self.node:
            raise CheckpointError(
                f"delta for node {self.node!r} epoch {self.epoch} applied "
                f"to node {base.node!r}'s image"
            )
        if base.epoch != self.base_epoch:
            raise CheckpointError(
                f"delta for epoch {self.epoch} patches base epoch "
                f"{self.base_epoch}, got image at epoch {base.epoch}"
            )
        segments = dict(base.segments)
        for name in self.removed:
            segments.pop(name, None)
        segments.update(self.changed)
        return CheckpointImage(
            name=self.name,
            node_type=self.node_type,
            segments=segments,
            node_time=self.node_time,
            epoch=self.epoch,
            node=self.node,
            sequence=self.sequence,
        )
