"""The checkpoint manager: lifecycle and memory accounting of clones.

Orchestrates the paper's section 3.2 checkpoint mechanics for DiCE:

* ``checkpoint(node)`` — fork: capture the live node's state;
* ``clone(checkpoint, env)`` — spawn an exploration process from the
  checkpoint onto an isolated environment;
* ``memory_report()`` — the section 4.1 metrics: unique-page fraction of
  the checkpoint vs. its parent, and page growth of each clone vs. the
  checkpoint.

Section 4.1 measures checkpoint cost in *pages*: a ``fork``-based
checkpoint initially shares every page with its parent, and a page
becomes unique only when either side writes to it ("the checkpoint
process has 3.45% unique memory pages"; "processes forked for exploring
... consume on average 36.93% pages more").  We reproduce that
accounting in a content-addressed form: a process image is its
:meth:`~repro.checkpoint.snapshot.Checkpointable.snapshot_segments`,
each segment chopped into fixed-size pages identified by a digest.  Two
images "share" the pages whose digests match.  This over-approximates
real COW slightly (an insertion shifts subsequent bytes), so nodes keep
state components in separate, independently paged segments.

Paging an image serializes all of it, so it happens here and only when
:meth:`CheckpointManager.memory_report` asks: a clone that nobody
reports on costs a fork and nothing more.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.checkpoint.snapshot import Checkpoint, Checkpointable
from repro.concolic.env import Environment, ExplorationEnvironment
from repro.util.errors import CheckpointError
from repro.util.stats import RunningStats

#: Page size, matching the x86 4 KiB page the paper's testbed used.
PAGE_SIZE = 4096


def paginate(data: bytes) -> List[bytes]:
    """Split ``data`` into page digests.

    The last partial page hashes as its own shorter content, which is
    fine for identity comparison.
    """
    return [
        hashlib.blake2b(data[offset:offset + PAGE_SIZE], digest_size=16).digest()
        for offset in range(0, len(data), PAGE_SIZE)
    ]


@dataclass(frozen=True)
class PageSet:
    """The pages of one process image, as a multiset of content digests.

    A multiset (rather than a set) is used so that two identical pages in
    the *same* image still count as two resident pages, as they would in a
    real address space.
    """

    pages: tuple[bytes, ...]

    @classmethod
    def from_segments(cls, segments: Iterable[bytes]) -> "PageSet":
        """Page each segment independently, like distinct memory regions.

        Paging per segment means growth in one segment does not shift (and
        thereby spuriously dirty) the pages of the others, which mirrors how
        a real heap/stack/data-segment layout behaves under COW.
        """
        pages: list[bytes] = []
        for segment in segments:
            pages.extend(paginate(segment))
        return cls(tuple(pages))

    def __len__(self) -> int:
        return len(self.pages)

    def unique_pages(self, other: "PageSet") -> int:
        """Pages of ``self`` not shareable with ``other`` (multiset diff)."""
        ours = Counter(self.pages)
        ours.subtract(Counter(other.pages))
        return sum(count for count in ours.values() if count > 0)

    def unique_fraction(self, other: "PageSet") -> float:
        """Fraction of this image's pages that are unique w.r.t. ``other``.

        This is the paper's "checkpoint process has X% unique memory pages"
        metric, computed against the parent image.
        """
        if not self.pages:
            return 0.0
        return self.unique_pages(other) / len(self.pages)

    def growth_fraction(self, baseline: "PageSet") -> float:
        """Extra resident pages relative to ``baseline``, as a fraction.

        This is the paper's "clones consume on average 36.93% pages more"
        metric: (pages we cannot share with baseline) / (baseline size).
        """
        if not baseline.pages:
            return 0.0
        return self.unique_pages(baseline) / len(baseline)


def snapshot_pages(node: Checkpointable) -> PageSet:
    """The current page image of a live node or clone."""
    return PageSet.from_segments(node.snapshot_segments().values())


def _fork_pages(checkpoint: Checkpoint) -> PageSet:
    """The page image a clone of ``checkpoint`` starts from.

    Equal to a captured *live* node's own image at the fork moment,
    since a fresh clone serializes segment for segment like it.  Not so
    for a captured clone: its environment's message buffers are a
    segment of its image but not of its state.
    """
    return snapshot_pages(
        checkpoint.restore(ExplorationEnvironment(checkpoint_time=checkpoint.node_time))
    )


@dataclass
class CloneRecord:
    """Bookkeeping for one live clone."""

    name: str
    node: Checkpointable
    checkpoint_name: str
    env: Environment


@dataclass
class MemoryReport:
    """The section 4.1 memory-overhead numbers for one manager."""

    live_pages: int
    checkpoint_unique_fraction: float
    clone_growth_mean: float
    clone_growth_max: float
    clone_count: int
    resident_pages: int
    virtual_pages: int
    sharing_ratio: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "live_pages": self.live_pages,
            "checkpoint_unique_fraction": self.checkpoint_unique_fraction,
            "clone_growth_mean": self.clone_growth_mean,
            "clone_growth_max": self.clone_growth_max,
            "clone_count": self.clone_count,
            "resident_pages": self.resident_pages,
            "virtual_pages": self.virtual_pages,
            "sharing_ratio": self.sharing_ratio,
        }


class CheckpointManager:
    """Creates checkpoints and clones, and reports page sharing across them."""

    def __init__(self):
        self.checkpoints: Dict[str, Checkpoint] = {}
        self.clones: Dict[str, CloneRecord] = {}
        self._live_pages: Optional[PageSet] = None
        self._sequence = itertools.count()

    # -- live node -------------------------------------------------------------

    def register_live(self, node: Checkpointable) -> None:
        """Record the live (parent) node's current page image."""
        self._live_pages = snapshot_pages(node)

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self, node: Checkpointable, name: Optional[str] = None) -> Checkpoint:
        """Fork: capture ``node`` (and its image, if no live one is known)."""
        seq = next(self._sequence)
        name = name or f"ckpt-{seq}"
        if name in self.checkpoints:
            raise CheckpointError(f"checkpoint name {name!r} already in use")
        checkpoint = Checkpoint.capture(node, name, sequence=seq)
        self.checkpoints[name] = checkpoint
        if self._live_pages is None:
            self.register_live(node)
        return checkpoint

    def drop_checkpoint(self, name: str) -> None:
        if name not in self.checkpoints:
            raise CheckpointError(f"no checkpoint named {name!r}")
        del self.checkpoints[name]

    # -- clones ------------------------------------------------------------------

    def clone(
        self,
        checkpoint: Checkpoint,
        env: Optional[Environment] = None,
        name: Optional[str] = None,
    ) -> CloneRecord:
        """Spawn an exploration clone from ``checkpoint``.

        The default environment is a fresh :class:`ExplorationEnvironment`
        with the clock frozen at the checkpoint instant — the paper's
        forked child with its inherited sockets closed.
        """
        if checkpoint.name not in self.checkpoints:
            raise CheckpointError(
                f"checkpoint {checkpoint.name!r} is not registered with this manager"
            )
        env = env or ExplorationEnvironment(checkpoint_time=checkpoint.node_time)
        node = checkpoint.restore(env)
        name = name or f"{checkpoint.name}/clone-{next(self._sequence)}"
        if name in self.clones:
            raise CheckpointError(f"clone name {name!r} already in use")
        record = CloneRecord(name, node, checkpoint.name, env)
        self.clones[name] = record
        return record

    def release(self, name: str) -> None:
        """Terminate a clone and release its pages."""
        if name not in self.clones:
            raise CheckpointError(f"no clone named {name!r}")
        del self.clones[name]

    def release_all_clones(self) -> None:
        self.clones.clear()

    # -- accounting ----------------------------------------------------------------

    def memory_report(self) -> MemoryReport:
        """The paper's memory-overhead metrics over the current images.

        Every checkpoint and clone is paged now, as it stands; the live
        image is the one :meth:`register_live` last recorded.
        ``checkpoint_unique_fraction`` compares the most recent checkpoint
        against the live parent image ("the checkpoint process has 3.45%
        unique memory pages"); clone growth compares each clone against its
        checkpoint ("the processes forked for exploring ... consume on
        average 36.93% pages more").  ``resident_pages`` counts the
        distinct pages backing all of those images — what a COW kernel
        would allocate — and ``virtual_pages`` their sum without sharing.
        """
        if self._live_pages is None:
            raise CheckpointError("no live node registered")
        forked = {
            name: _fork_pages(checkpoint)
            for name, checkpoint in self.checkpoints.items()
        }
        checkpoint_fraction = 0.0
        if self.checkpoints:
            latest = max(self.checkpoints.values(), key=lambda c: c.sequence)
            checkpoint_fraction = forked[latest.name].unique_fraction(
                self._live_pages
            )
        images = [self._live_pages, *forked.values()]
        growth = RunningStats()
        for record in self.clones.values():
            pages = snapshot_pages(record.node)
            images.append(pages)
            base = forked.get(record.checkpoint_name)
            if base is not None:
                growth.add(pages.growth_fraction(base))
        resident = len({page for image in images for page in image.pages})
        virtual = sum(len(image) for image in images)
        return MemoryReport(
            live_pages=len(self._live_pages),
            checkpoint_unique_fraction=checkpoint_fraction,
            clone_growth_mean=growth.mean,
            clone_growth_max=growth.maximum or 0.0,
            clone_count=growth.count,
            resident_pages=resident,
            virtual_pages=virtual,
            sharing_ratio=virtual / resident if resident else 1.0,
        )
