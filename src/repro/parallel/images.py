"""Checkpoint images: capture, retention, and what gets shipped to whom.

**Incremental shipping.**  A worker receives a node's full
:class:`~repro.checkpoint.delta.CheckpointImage` once; every
re-checkpoint thereafter ships a
:class:`~repro.checkpoint.delta.CheckpointDelta` carrying only the
segments whose bytes changed — or nothing at all, when the
caller finds :meth:`ImageStore.capture_next`'s dirty-segment count too
quiet (churn-driven epochs).

**Retention** is one rule for both sides of the pipe: an image stays
while it is its node's *current* epoch (the next delta's base) or any
live job record — queued or in flight — names it.  The coordinator
keeps those so a lost job can be re-homed anywhere, and every ship tells
the worker the same set (``keep``): a seed bound to epoch *e* at
submission finds *e* resident when it is dispatched, and pays no ship.

:meth:`ImageStore.send_job` is the only way a job reaches a worker: it
ships the job's image first if (and only if) the handle's ledger lacks
it — a respawned or late-grown worker, the in-process salvage worker.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bgp.router import BgpRouter
from repro.checkpoint.delta import CheckpointDelta, CheckpointImage
from repro.parallel.jobs import ImageKey, JobTable, StreamJob, display_node
from repro.parallel.reports import StreamReport
from repro.parallel.transport import MSG_JOB, _WorkerHandle


class ImageStore:
    """The registered nodes, their epochs, and every retained image."""

    def __init__(self, report: StreamReport, jobs: JobTable) -> None:
        self._report = report
        self._jobs = jobs
        self.routers: Dict[str, BgpRouter] = {}
        #: Each node's latest image — the delta base for the next epoch.
        self.current: Dict[str, CheckpointImage] = {}
        self.retained: Dict[ImageKey, CheckpointImage] = {}

    def _capture(self, node: str, epoch: int) -> CheckpointImage:
        label = f"stream-ckpt-{display_node(node)}" if node else "stream-ckpt"
        if epoch:
            label += f"-{epoch}"
        return CheckpointImage.capture(
            self.routers[node], label, epoch=epoch, node_id=node
        )

    def _install(self, image: CheckpointImage) -> None:
        node = image.node
        previous = self.current.get(node)
        self.current[node] = image
        self.retained[image.image_key] = image
        # The report's view of what a full re-ship of every node costs.
        self._report.full_checkpoint_bytes += image.total_bytes
        if previous is not None:
            self._report.full_checkpoint_bytes -= previous.total_bytes
            self.release(previous.image_key)

    def register(self, node: str, router: BgpRouter) -> None:
        """A node joins the stream: capture and retain its epoch 0."""
        started = time.perf_counter()
        self.routers[node] = router
        self._install(self._capture(node, 0))
        self._report.checkpoint_seconds += time.perf_counter() - started

    def capture_next(self, node: str) -> Tuple[CheckpointImage, int]:
        """A candidate next-epoch image and its dirty-segment count."""
        started = time.perf_counter()
        image = self._capture(node, self.current[node].epoch + 1)
        dirty = image.dirty_segments_since(self.current[node])
        self._report.checkpoint_seconds += time.perf_counter() - started
        return image, dirty

    def commit(self, image: CheckpointImage) -> CheckpointDelta:
        """Make a captured image its node's current epoch; the delta
        that takes a worker holding the previous epoch there."""
        delta = image.diff(self.current[image.node])
        self._install(image)
        return delta

    def release(self, key: ImageKey) -> None:
        """A claim on ``key`` ended (or its epoch was superseded): drop
        the image unless the retention rule still holds it."""
        if key[1] not in self.keep(key[0]):
            self.retained.pop(key, None)

    def keep(self, node: str) -> FrozenSet[int]:
        """Epochs of ``node`` a worker must not drop: the rule above."""
        return frozenset(
            self._jobs.claimed_epochs(node) | {self.current[node].epoch}
        )

    def ship(self, worker: _WorkerHandle, payload) -> None:
        """Send an image or a delta to one worker, and account for it."""
        worker.ship(payload, self.keep(payload.node))
        if isinstance(payload, CheckpointDelta):
            self._report.checkpoint_bytes_shipped += payload.bytes_shipped
            self._report.checkpoint_segments_shipped += payload.segments_shipped
        else:
            self._report.checkpoint_bytes_shipped += payload.total_bytes
            self._report.checkpoint_segments_shipped += len(payload.segments)

    def prime(
        self, worker: _WorkerHandle, nodes: Optional[List[str]] = None
    ) -> None:
        """Ship the current image of ``nodes`` (default: every node)."""
        for node in sorted(self.current if nodes is None else nodes):
            self.ship(worker, self.current[node])

    def send_job(self, worker: _WorkerHandle, job: StreamJob) -> None:
        """Hand ``job`` to ``worker``, preceded by its image if missing."""
        if job.image_key not in worker.images:
            # Retained by construction: the job's record claims it.
            self.ship(worker, self.retained[job.image_key])
        worker.send((MSG_JOB, job))
