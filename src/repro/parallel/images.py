"""Checkpoint images: capture, retention, and what gets shipped to whom.

**Epochs travel by fork.**  Every ``(node, epoch)`` is captured as a
:class:`~repro.checkpoint.snapshot.Checkpoint` template — the paper's
fork moment, a structural copy with nothing serialized.  A process
worker is built with every retained template as a process argument, so
under ``fork`` it inherits them copy-on-write and its ledger starts with
their keys; the in-process worker (and the salvage fallback) is handed
the template object itself.  Epoch 0 therefore ships nothing.

**Later epochs travel as patches.**  Two successive templates of a node
share every unchanged route by identity, so
:meth:`ImageStore.capture_next` diffs them key by key
(:class:`~repro.checkpoint.delta.TemplatePatch`) and pickles nothing;
the churn it counts — changed, removed and re-ordered entries plus
changed components — decides whether a churn-driven boundary ships at
all.  :meth:`ImageStore.commit` pickles the patch's changes once, and
every process worker builds the new template from the one it holds.
Every resident epoch, on both sides of the pipe, is a template.  A
process worker whose ledger lacks a key — a node added to a running
pool — is shipped the template itself, which pickles to its state's
bytes once.

**Retention** is one rule for both sides of the pipe: an epoch stays
while it is its node's *current* epoch (the next patch's base) or any
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
from repro.checkpoint.delta import TemplatePatch, pickled_components
from repro.checkpoint.snapshot import Checkpoint
from repro.parallel.jobs import ImageKey, JobTable, StreamJob, display_node
from repro.parallel.reports import StreamReport
from repro.parallel.transport import MSG_JOB, _WorkerHandle


class NodeEpoch:
    """One retained ``(node, epoch)``: its fork template, and the pickles
    of its non-table components once a patch compared against them."""

    __slots__ = ("node", "epoch", "template", "_pickled")

    def __init__(self, node: str, epoch: int, template: Checkpoint) -> None:
        self.node = node
        self.epoch = epoch
        self.template = template
        self._pickled: Optional[Dict[str, bytes]] = None

    @property
    def image_key(self) -> ImageKey:
        return (self.node, self.epoch)

    @property
    def pickled(self) -> Dict[str, bytes]:
        """The template's :func:`~repro.checkpoint.delta.pickled_components`,
        serialized once for the patches on either side of this epoch."""
        if self._pickled is None:
            self._pickled = pickled_components(self.template.frozen_state())
        return self._pickled


class ImageStore:
    """The registered nodes, their epochs, and every retained one."""

    def __init__(self, report: StreamReport, jobs: JobTable) -> None:
        self._report = report
        self._jobs = jobs
        self.routers: Dict[str, BgpRouter] = {}
        #: Each node's latest epoch — the patch base for the next one.
        self.current: Dict[str, NodeEpoch] = {}
        self.retained: Dict[ImageKey, NodeEpoch] = {}

    def _capture(self, node: str, epoch: int) -> NodeEpoch:
        label = f"stream-ckpt-{display_node(node)}" if node else "stream-ckpt"
        if epoch:
            label += f"-{epoch}"
        return NodeEpoch(
            node, epoch, Checkpoint.capture(self.routers[node], label)
        )

    def _install(self, entry: NodeEpoch) -> None:
        previous = self.current.get(entry.node)
        self.current[entry.node] = entry
        self.retained[entry.image_key] = entry
        if previous is not None:
            self.release(previous.image_key)

    def register(self, node: str, router: BgpRouter) -> None:
        """A node joins the stream: its epoch 0 is a fork template."""
        started = time.perf_counter()
        self.routers[node] = router
        self._install(self._capture(node, 0))
        self._report.checkpoint_seconds += time.perf_counter() - started

    def capture_next(self, node: str) -> Tuple[NodeEpoch, TemplatePatch]:
        """A candidate next epoch and the patch from the node's current
        one; the patch's ``dirty`` is the churn between them."""
        started = time.perf_counter()
        base = self.current[node]
        entry = self._capture(node, base.epoch + 1)
        patch = TemplatePatch.between(
            base.template, entry.template,
            node=node, base_epoch=base.epoch, epoch=entry.epoch,
            base_pickled=base.pickled, new_pickled=entry.pickled,
        )
        self._report.checkpoint_seconds += time.perf_counter() - started
        return entry, patch

    def commit(self, entry: NodeEpoch, patch: TemplatePatch) -> None:
        """Make a captured epoch its node's current one, its patch
        pickled once for every worker that takes it."""
        started = time.perf_counter()
        patch.seal()
        self._install(entry)
        self._report.checkpoint_seconds += time.perf_counter() - started

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
        patch: Optional[TemplatePatch] = None,
    ) -> None:
        """Make ``entry`` resident behind ``worker`` by the cheapest
        carrier it takes — the template by reference in process, else
        ``patch`` (every dispatchable worker holds its node's current
        epoch, the patch's base), else the template's state bytes — and
        account for it."""
        if worker.in_process:
            worker.ship(entry.image_key, entry.template, self.keep(entry.node))
            self._report.images_inherited += 1
            return
        if patch is not None:
            payload, size = patch, patch.bytes_shipped
        else:
            payload, size = entry.template, entry.template.size_bytes
        worker.ship(entry.image_key, payload, self.keep(entry.node))
        self._report.checkpoint_bytes_shipped += size

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
