"""Incremental checkpoints: key-level template patches, segment images.

Inside one process a :class:`Checkpoint` is a resident template cloned
by structural sharing and never serialized.  Across processes the batch
engine ships its full pickle inside *every* job — fine for a handful of
seeds, ruinous for a large RIB streamed to long-lived workers.  This
module makes checkpoints *diffable*, two ways.

Two fork templates of one node share every unchanged ``Route`` by
identity, so what changed between them is found without serializing
anything: :class:`TemplatePatch` diffs them key by key (each RIB table
through its ``delta_items()``, the small non-table components by their
pickles) and carries only the changed entries, the removed keys and,
when a key was withdrawn and re-announced, the re-inserted tail of the
key order.  Applied to the earlier template on the receiving side it
builds the later one — same key order, equal values — sharing every
unchanged entry with its base.  The streaming pipeline
(:mod:`repro.parallel.stream`) ships every epoch after the first this
way.

Segment images diff serialized state instead; nothing in the pipeline
uses them any more, and they stay as the byte-level form the tests and
the benchmark tracer pin:

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
  same state, so a receiver of a base image and deltas holds exactly
  what a receiver of every full image would.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

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

    ``epoch`` is a re-checkpoint counter and ``node`` names which
    federation member the image belongs to (empty for a single node):
    a :class:`CheckpointDelta` names the base epoch it patches *of the
    same node*, and refuses any other node's image.
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
    def bytes_shipped(self) -> int:
        """Payload bytes this delta ships (changed segment blobs)."""
        return sum(len(blob) for blob in self.changed.values())

    @property
    def segments_shipped(self) -> int:
        return len(self.changed)

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


# -- key-level patches between fork templates ----------------------------------

_MISSING = object()


def _is_table(value: object) -> bool:
    """Whether ``value`` is a table a patch diffs entry by entry."""
    return callable(getattr(value, "delta_items", None)) and callable(
        getattr(type(value), "from_delta_items", None)
    )


def _dumps_part(name: str, value: object) -> bytes:
    try:
        return pickle.dumps(value, _PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"state component {name!r} is not picklable: {exc}"
        ) from exc


def pickled_components(state: Dict) -> Dict[str, bytes]:
    """Each non-table component of a dict-shaped state, pickled on its
    own: what a :class:`TemplatePatch` compares byte for byte, and ships
    whole when the bytes differ."""
    return {
        name: _dumps_part(name, value)
        for name, value in state.items() if not _is_table(value)
    }


def _order_tail(old: Dict, new: Dict) -> Tuple:
    """The shortest suffix of ``new``'s key order that, re-inserted in
    order, makes ``old`` patched in place iterate exactly like ``new``.

    Patching in place keeps a surviving key at its old position and
    appends an added one, so the two orders differ only where a key was
    removed and added back (a withdraw-then-reannounce).  Every key that
    the patched order cannot keep in ``new``'s order must move; the
    earliest of them, by its position in ``new``, starts the tail.
    """
    patched = [key for key in old if key in new]
    patched.extend(key for key in new if key not in old)
    wanted = list(new)
    if patched == wanted:
        return ()
    position = {key: index for index, key in enumerate(wanted)}
    start, matched = len(wanted), 0
    for key in patched:
        if key == wanted[matched]:
            matched += 1
        else:
            start = min(start, position[key])
    return tuple(wanted[start:])


def _diff_table(old: Dict, new: Dict) -> Tuple[Dict, Tuple, Tuple]:
    """``(changed, removed, tail)`` taking ``old``'s items to ``new``'s.

    A shared entry is unchanged by identity: templates forked from one
    live node share every route neither side rewrote.
    """
    changed = {
        key: value for key, value in new.items()
        if old.get(key, _MISSING) is not value
    }
    removed = tuple(key for key in old if key not in new)
    return changed, removed, _order_tail(old, new)


def _patch_table(table: object, changed: Dict, removed: Iterable, tail: Iterable):
    """``table`` with one :func:`_diff_table` result applied: a new table
    sharing every entry the patch leaves alone."""
    items = dict(table.delta_items())
    for key in removed:
        del items[key]
    items.update(changed)
    for key in tail:
        items[key] = items.pop(key)
    return type(table).from_delta_items(items)


class TemplatePatch:
    """What turns one fork template of a node into its next one, by key.

    For node types with a dict-shaped ``checkpoint_state()``.  Built on
    the coordinator by :meth:`between` from two
    :class:`~repro.checkpoint.snapshot.Checkpoint` templates, pickled
    once by :meth:`seal`, and applied on the receiving side to its copy
    of the earlier template (:meth:`apply`).  Tables — state components
    with ``delta_items()`` / ``from_delta_items()`` — travel as changed
    entries, removed keys and an order tail; every other component
    travels whole, and only when its pickle differs from the base's.
    """

    def __init__(
        self,
        name: str,
        node_type: type,
        changes: Tuple[Tuple, Dict, Dict],
        *,
        node: str = "",
        base_epoch: int = 0,
        epoch: int = 0,
        node_time: float = 0.0,
        sequence: int = 0,
        dirty: int = 0,
        entries_total: int = 0,
    ) -> None:
        self.name = name
        self.node_type = node_type
        self.node = node
        self.base_epoch = base_epoch
        self.epoch = epoch
        self.node_time = node_time
        self.sequence = sequence
        #: Changed + removed entries (or re-ordered ones) + changed
        #: components: the churn measure, 0 for a quiet node.
        self.dirty = dirty
        #: Entries of every table plus non-table components of the
        #: later template: what ``dirty`` is a share of.
        self.entries_total = entries_total
        #: ``(state keys, {table: (changed, removed, tail)},
        #: {component: pickle})`` until sealed, then None on the far side.
        self._changes: Optional[Tuple[Tuple, Dict, Dict]] = changes
        self._payload: Optional[bytes] = None

    @classmethod
    def between(
        cls,
        base: Checkpoint,
        new: Checkpoint,
        *,
        node: str = "",
        base_epoch: int = 0,
        epoch: int = 0,
        base_pickled: Optional[Dict[str, bytes]] = None,
        new_pickled: Optional[Dict[str, bytes]] = None,
    ) -> "TemplatePatch":
        """The patch taking ``base`` to ``new``.  ``*_pickled`` are the
        templates' :func:`pickled_components`, when the caller keeps
        them; nothing else is serialized here."""
        if base.node_type is not new.node_type:
            raise CheckpointError(
                f"cannot patch a {base.node_type.__name__} template into "
                f"a {new.node_type.__name__} one"
            )
        old_state, new_state = base.frozen_state(), new.frozen_state()
        if base_pickled is None:
            base_pickled = pickled_components(old_state)
        if new_pickled is None:
            new_pickled = pickled_components(new_state)
        tables: Dict[str, Tuple[Dict, Tuple, Tuple]] = {}
        components: Dict[str, bytes] = {}
        dirty = total = 0
        for name, value in new_state.items():
            old = old_state.get(name, _MISSING)
            if _is_table(value) and type(old) is type(value):
                old_items, new_items = old.delta_items(), value.delta_items()
                changed, removed, tail = _diff_table(old_items, new_items)
                total += len(new_items)
                if changed or removed or tail:
                    tables[name] = (changed, removed, tail)
                    dirty += len(changed) + len(removed)
                    dirty += sum(1 for key in tail if key not in changed)
                continue
            total += 1
            blob = new_pickled.get(name)
            if blob is None:
                blob = _dumps_part(name, value)
            if base_pickled.get(name) != blob:
                components[name] = blob
                dirty += 1
        dirty += sum(1 for name in old_state if name not in new_state)
        return cls(
            new.name,
            new.node_type,
            (tuple(new_state), tables, components),
            node=node,
            base_epoch=base_epoch,
            epoch=epoch,
            node_time=new.node_time,
            sequence=new.sequence,
            dirty=dirty,
            entries_total=total,
        )

    @property
    def base_key(self) -> Tuple[str, int]:
        """The ``(node, epoch)`` identity of the template it patches."""
        return (self.node, self.base_epoch)

    @property
    def entries_shipped(self) -> int:
        """Changed entries and components the patch carries."""
        _, tables, components = self._unsealed()
        return len(components) + sum(
            len(changed) for changed, _, _ in tables.values()
        )

    def seal(self) -> bytes:
        """The patch's changes, pickled once: every receiver gets these
        bytes, whichever carrier takes them there."""
        if self._payload is None:
            self._payload = _dumps_part(self.name, self._changes)
        return self._payload

    @property
    def bytes_shipped(self) -> int:
        """Payload bytes a ship of this patch costs."""
        return len(self.seal())

    def _unsealed(self) -> Tuple[Tuple, Dict, Dict]:
        if self._changes is None:
            self._changes = pickle.loads(self._payload)
        return self._changes

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.update(_changes=None, _payload=self.seal())
        return state

    def apply(self, base: Checkpoint) -> Checkpoint:
        """The later template, built from ``base`` — the receiver's copy
        of the earlier one, which stays untouched."""
        if base.node_type is not self.node_type:
            raise CheckpointError(
                f"patch for a {self.node_type.__name__} template applied "
                f"to a {base.node_type.__name__} one"
            )
        keys, tables, components = self._unsealed()
        parts = base.frozen_state()
        state: Dict[str, object] = {}
        try:
            for name in keys:
                if name in components:
                    state[name] = pickle.loads(components[name])
                elif name in tables:
                    state[name] = _patch_table(parts[name], *tables[name])
                else:
                    state[name] = parts[name]
        except Exception as exc:
            raise CheckpointError(
                f"patch {self.name!r} does not fit its base: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return Checkpoint.from_state(
            self.name,
            self.node_type,
            state,
            node_time=self.node_time,
            sequence=self.sequence,
        )
