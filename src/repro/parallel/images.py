"""Checkpoint images: capture, retention, and what gets shipped to whom.

**Epochs travel by fork.**  Every ``(node, epoch)`` is captured as a
:class:`~repro.checkpoint.snapshot.Checkpoint` template — the paper's
fork moment, a structural copy with nothing serialized.  A process
worker is built with every retained template as a process argument, so
under ``fork`` it inherits them copy-on-write and its ledger starts with
their keys; the in-process worker (and the salvage fallback) is handed
the template object itself.  Epoch 0 therefore ships nothing.

**Incremental shipping.**  A
:class:`~repro.checkpoint.delta.CheckpointImage` — the template's
pickled segments — is built lazily
(:meth:`ImageStore.materialize`), only where bytes must cross a process
boundary: a re-checkpoint diffs the node's current image against the
candidate's and ships a
:class:`~repro.checkpoint.delta.CheckpointDelta` carrying only the
segments whose bytes changed (or nothing at all, when the caller finds
:meth:`ImageStore.capture_next`'s dirty-segment count too quiet), and a
process worker whose ledger lacks a key — a node added to a running
pool — is shipped the full image.  A fork pickles to the bytes of its
original, so a lazily built image is byte-identical to one captured
from the live node at the fork moment, and every delta is too.

**Retention** is one rule for both sides of the pipe: an epoch stays
while it is its node's *current* epoch (the next delta's base) or any
live job record — queued or in flight — names it.  The coordinator
keeps those so a lost job can be re-homed anywhere, and every ship tells
the worker the same set (``keep``): a seed bound to epoch *e* at
submission finds *e* resident when it is dispatched, and pays no ship.

:meth:`ImageStore.send_job` is the only way a job reaches a worker: it
ships the job's epoch first if (and only if) the handle's ledger lacks
it — a node added after the worker was built, the salvage worker.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bgp.router import BgpRouter
from repro.checkpoint.delta import CheckpointDelta, CheckpointImage
from repro.checkpoint.snapshot import Checkpoint
from repro.parallel.jobs import ImageKey, JobTable, StreamJob, display_node
from repro.parallel.reports import StreamReport
from repro.parallel.transport import MSG_JOB, _WorkerHandle


class NodeEpoch:
    """One retained ``(node, epoch)``: its fork template, and the
    segment image built from it once something needed the bytes."""

    __slots__ = ("node", "epoch", "template", "image")

    def __init__(self, node: str, epoch: int, template: Checkpoint) -> None:
        self.node = node
        self.epoch = epoch
        self.template = template
        self.image: Optional[CheckpointImage] = None

    @property
    def image_key(self) -> ImageKey:
        return (self.node, self.epoch)


class ImageStore:
    """The registered nodes, their epochs, and every retained one."""

    def __init__(self, report: StreamReport, jobs: JobTable) -> None:
        self._report = report
        self._jobs = jobs
        self.routers: Dict[str, BgpRouter] = {}
        #: Each node's latest epoch — the delta base for the next one.
        self.current: Dict[str, NodeEpoch] = {}
        self.retained: Dict[ImageKey, NodeEpoch] = {}

    def _capture(self, node: str, epoch: int) -> NodeEpoch:
        label = f"stream-ckpt-{display_node(node)}" if node else "stream-ckpt"
        if epoch:
            label += f"-{epoch}"
        return NodeEpoch(
            node, epoch, Checkpoint.capture(self.routers[node], label)
        )

    def materialize(self, entry: NodeEpoch) -> CheckpointImage:
        """``entry``'s segment image, built from its template on first use."""
        if entry.image is None:
            entry.image = CheckpointImage.from_checkpoint(
                entry.template, entry.epoch, entry.node
            )
            self._report.images_materialized += 1
            self._account_full()
        return entry.image

    def _account_full(self) -> None:
        """What a full re-ship of every node's current image costs,
        counting only the images that exist (see the report field)."""
        self._report.full_checkpoint_bytes = sum(
            entry.image.total_bytes
            for entry in self.current.values() if entry.image is not None
        )

    def _install(self, entry: NodeEpoch) -> None:
        previous = self.current.get(entry.node)
        self.current[entry.node] = entry
        self.retained[entry.image_key] = entry
        self._account_full()
        if previous is not None:
            self.release(previous.image_key)

    def register(self, node: str, router: BgpRouter) -> None:
        """A node joins the stream: its epoch 0 is a fork template."""
        started = time.perf_counter()
        self.routers[node] = router
        self._install(self._capture(node, 0))
        self._report.checkpoint_seconds += time.perf_counter() - started

    def capture_next(self, node: str) -> Tuple[NodeEpoch, int]:
        """A candidate next epoch, materialized, and its dirty-segment
        count against the node's current image."""
        started = time.perf_counter()
        entry = self._capture(node, self.current[node].epoch + 1)
        dirty = self.materialize(entry).dirty_segments_since(
            self.materialize(self.current[node])
        )
        self._report.checkpoint_seconds += time.perf_counter() - started
        return entry, dirty

    def commit(self, entry: NodeEpoch) -> CheckpointDelta:
        """Make a captured epoch its node's current one; the delta that
        takes a worker holding the previous epoch there."""
        delta = self.materialize(entry).diff(
            self.materialize(self.current[entry.node])
        )
        self._install(entry)
        return delta

    def release(self, key: ImageKey) -> None:
        """A claim on ``key`` ended (or its epoch was superseded): drop
        the epoch unless the retention rule still holds it."""
        if key[1] not in self.keep(key[0]):
            self.retained.pop(key, None)

    def keep(self, node: str) -> FrozenSet[int]:
        """Epochs of ``node`` a worker must not drop: the rule above."""
        return frozenset(
            self._jobs.claimed_epochs(node) | {self.current[node].epoch}
        )

    def templates(self) -> Dict[ImageKey, Checkpoint]:
        """Every retained template: what a worker is built holding."""
        return {key: entry.template for key, entry in self.retained.items()}

    def ship(
        self,
        worker: _WorkerHandle,
        entry: NodeEpoch,
        delta: Optional[CheckpointDelta] = None,
    ) -> None:
        """Make ``entry`` resident behind ``worker`` by the cheapest
        carrier it takes — the template itself in process, else
        ``delta`` (every dispatchable worker holds its node's current
        epoch, the delta's base), else the full image — and account for
        it."""
        if worker.in_process:
            worker.ship(entry.image_key, entry.template, self.keep(entry.node))
            self._report.images_inherited += 1
            return
        if delta is not None:
            payload, size, segments = (
                delta, delta.bytes_shipped, delta.segments_shipped
            )
        else:
            payload = self.materialize(entry)
            size, segments = payload.total_bytes, len(payload.segments)
        worker.ship(entry.image_key, payload, self.keep(entry.node))
        self._report.checkpoint_bytes_shipped += size
        self._report.checkpoint_segments_shipped += segments

    def prime(self, worker: _WorkerHandle, nodes: List[str]) -> None:
        """Make the current epoch of ``nodes`` resident behind ``worker``."""
        for node in sorted(nodes):
            entry = self.current[node]
            if entry.image_key not in worker.images:
                self.ship(worker, entry)

    def send_job(self, worker: _WorkerHandle, job: StreamJob) -> None:
        """Hand ``job`` to ``worker``, preceded by its epoch if missing."""
        if job.image_key not in worker.images:
            # Retained by construction: the job's record claims it.
            self.ship(worker, self.retained[job.image_key])
        worker.send((MSG_JOB, job))
