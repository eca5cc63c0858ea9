"""The checkpoint manager: lifecycle and memory accounting of clones.

Orchestrates the paper's section 3.2 checkpoint mechanics for DiCE:

* ``checkpoint(node)`` — fork: capture the live node's state;
* ``clone(checkpoint, env)`` — spawn an exploration process from the
  checkpoint onto an isolated environment;
* ``refresh(name, node)`` — re-measure a process image after it ran, so
  dirty pages show up in the copy-on-write accounting;
* ``memory_report()`` — the section 4.1 metrics: unique-page fraction of
  the checkpoint vs. its parent, and page growth of each clone vs. the
  checkpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.snapshot import Checkpoint, Checkpointable, snapshot_pages
from repro.concolic.env import Environment, ExplorationEnvironment
from repro.util.errors import CheckpointError
from repro.util.pages import PAGE_SIZE, PageSet, PageStore
from repro.util.stats import RunningStats


class CloneRecord:
    """Bookkeeping for one live clone.

    ``pages`` is measured lazily: serializing and hashing a clone's
    whole image costs orders of magnitude more than forking the clone,
    and callers that only need the restored node (the streaming
    pipeline's clone-per-execution churn) should not pay it.  The first access snapshots the node *at that moment* and
    registers the image with the manager's page store; accounting
    callers (``memory_report``, ``refresh``) therefore see exactly the
    numbers they ask for, and node-only callers pay nothing.
    """

    def __init__(
        self,
        name: str,
        node: Checkpointable,
        checkpoint_name: str,
        env: Environment,
        page_size: int = PAGE_SIZE,
        store: Optional[PageStore] = None,
    ):
        self.name = name
        self.node = node
        self.checkpoint_name = checkpoint_name
        self.env = env
        self._page_size = page_size
        self._store = store
        self._pages: Optional[PageSet] = None

    @property
    def pages_measured(self) -> bool:
        """Whether this clone's image has been hashed yet."""
        return self._pages is not None

    @property
    def pages(self) -> PageSet:
        if self._pages is None:
            self.remeasure()
        return self._pages

    @pages.setter
    def pages(self, value: PageSet) -> None:
        self._pages = value
        if self._store is not None:
            self._store.register(self.name, value)

    def remeasure(self) -> PageSet:
        """Snapshot the node's current image (and register it)."""
        self.pages = snapshot_pages(self.node, self._page_size)
        return self._pages


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
    """Creates checkpoints and clones, tracking page sharing across them."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.store = PageStore()
        self.checkpoints: Dict[str, Checkpoint] = {}
        self.clones: Dict[str, CloneRecord] = {}
        self._live_pages: Optional[PageSet] = None
        self._sequence = itertools.count()

    # -- live node -------------------------------------------------------------

    def register_live(self, node: Checkpointable) -> None:
        """Record the live (parent) node's current page image."""
        self._live_pages = snapshot_pages(node, self.page_size)
        self.store.register("live", self._live_pages)

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self, node: Checkpointable, name: Optional[str] = None) -> Checkpoint:
        """Fork: capture ``node`` and register its page image."""
        seq = next(self._sequence)
        name = name or f"ckpt-{seq}"
        if name in self.checkpoints:
            raise CheckpointError(f"checkpoint name {name!r} already in use")
        checkpoint = Checkpoint.capture(node, name, self.page_size, sequence=seq)
        self.checkpoints[name] = checkpoint
        self.store.register(name, checkpoint.pages)
        if self._live_pages is None:
            self.register_live(node)
        return checkpoint

    def drop_checkpoint(self, name: str) -> None:
        if name not in self.checkpoints:
            raise CheckpointError(f"no checkpoint named {name!r}")
        del self.checkpoints[name]
        self.store.unregister(name)

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
        # Pages are NOT snapshotted here: the clone is a fork that
        # serializes nothing, measuring its image serializes all of it,
        # and callers that only need the node (streaming workers churning
        # clones per job) never ask.  The first ``record.pages`` access
        # measures and registers.
        record = CloneRecord(
            name, node, checkpoint.name, env, self.page_size, self.store
        )
        self.clones[name] = record
        return record

    def refresh(self, name: str) -> PageSet:
        """Re-measure a clone's image after it executed (dirty pages)."""
        if name not in self.clones:
            raise CheckpointError(f"no clone named {name!r}")
        return self.clones[name].remeasure()

    def release(self, name: str) -> None:
        """Terminate a clone and release its pages."""
        if name not in self.clones:
            raise CheckpointError(f"no clone named {name!r}")
        del self.clones[name]
        self.store.unregister(name)

    def release_all_clones(self) -> None:
        for name in list(self.clones):
            self.release(name)

    # -- accounting ----------------------------------------------------------------

    def memory_report(self) -> MemoryReport:
        """The paper's memory-overhead metrics over current images.

        ``checkpoint_unique_fraction`` compares the most recent checkpoint
        against the live parent image ("the checkpoint process has 3.45%
        unique memory pages"); clone growth compares each clone against its
        checkpoint ("the processes forked for exploring ... consume on
        average 36.93% pages more").
        """
        if self._live_pages is None:
            raise CheckpointError("no live node registered")
        checkpoint_fraction = 0.0
        if self.checkpoints:
            latest = max(self.checkpoints.values(), key=lambda c: c.sequence)
            checkpoint_fraction = latest.pages.unique_fraction(self._live_pages)
        growth = RunningStats()
        for record in self.clones.values():
            base = self.checkpoints.get(record.checkpoint_name)
            if base is None:
                continue
            growth.add(record.pages.growth_fraction(base.pages))
        return MemoryReport(
            live_pages=len(self._live_pages),
            checkpoint_unique_fraction=checkpoint_fraction,
            clone_growth_mean=growth.mean,
            clone_growth_max=growth.maximum or 0.0,
            clone_count=growth.count,
            resident_pages=self.store.resident_pages,
            virtual_pages=self.store.virtual_pages,
            sharing_ratio=self.store.sharing_ratio,
        )
