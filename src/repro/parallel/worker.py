"""Session jobs and the function every worker runs them with.

:class:`SessionJob` is a full DiCE session: restore the checkpoint into
an isolated clone, rebuild the marking model from the observed seed,
explore the UPDATE handler, run the fault checkers — all under one
:class:`~repro.parallel.options.EngineOptions`.  The serial reference
loop the parity tests keep builds one per seed; a stream worker builds
one per :class:`~repro.parallel.jobs.StreamJob` from its resident
checkpoint and the options it was handed when it was built, so no job
carries them.

Workers build their *own* engine, solver, checkers, and strategy from
the options rather than receiving live objects: every stateful
component is private to the session, which is what makes results
independent of how jobs are scheduled onto processes.  The one object
a session shares — its worker's constraint cache, which every session
that worker runs reads and fills — is safe to share because cached
entries are bit-identical to a local solve (see
:mod:`repro.concolic.solver.cache`).

Expression transport: any :class:`~repro.concolic.expr.Expr` crossing
the process boundary (crash records keep their path conditions, options
may carry constraint-bearing checkers) pickles through its constructor
(``Expr.__reduce__``), so nodes *re-intern* into the receiving process's
hash-consing table on arrival — identity fast paths and per-node caches
hold in every worker, not just the process that built the expression.
"""

from __future__ import annotations

import copy
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bgp.messages import UpdateMessage
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import ConcolicEngine
from repro.concolic.solver import ConstraintSolver
from repro.concolic.strategies import make_strategy
from repro.core.checkers import default_checkers
from repro.core.explorer import DiceExplorer
from repro.core.inputs import model_for
from repro.core.isolation import restore_isolated
from repro.core.report import SessionReport
from repro.parallel.options import EngineOptions
from repro.util.rng import derive_seed


class ProgressBeacon:
    """A worker's shared-memory heartbeat: *which* job, stamped *when*.

    Two doubles in a lock-protected :func:`multiprocessing.Array`:
    ``(monotonic_stamp, job_seq)``.  The worker stamps the dispatch
    sequence number just before running a job and clears back to idle
    after; the coordinator's supervision sweep reads both and concludes
    "busy on seq *s* since *t*" — the whole hang-detection protocol.

    ``time.monotonic`` is ``CLOCK_MONOTONIC``, which is system-wide on
    the platforms that can fork workers at all, so stamps written in the
    worker compare directly against the coordinator's clock.  The write
    is two array slots under one lock: cheap enough to pay per job, and
    crash-safe — a worker dying mid-job leaves its last honest stamp in
    place for the supervisor to read.
    """

    #: ``seq`` value meaning "no job running".
    IDLE = -1.0

    def __init__(self) -> None:
        self._cells = multiprocessing.Array("d", [0.0, self.IDLE])

    def stamp(self, seq: int) -> None:
        """Mark this worker busy on dispatch sequence ``seq``, now."""
        with self._cells.get_lock():
            self._cells[0] = time.monotonic()
            self._cells[1] = float(seq)

    def clear(self) -> None:
        """Mark this worker idle (job finished and result written)."""
        with self._cells.get_lock():
            self._cells[0] = time.monotonic()
            self._cells[1] = self.IDLE

    def read(self) -> Tuple[float, int]:
        """``(stamp, seq)``; ``seq`` is -1 when idle."""
        with self._cells.get_lock():
            return self._cells[0], int(self._cells[1])

    @property
    def busy(self) -> bool:
        return self.read()[1] >= 0


@dataclass
class SessionJob:
    """One checkpoint-clone-explore session, ready to run."""

    index: int
    checkpoint: Checkpoint
    peer: str
    observed: UpdateMessage
    options: EngineOptions = field(default_factory=EngineOptions)
    cache: Optional[object] = None
    #: Federation node this session belongs to ("" for single-node runs).
    #: Pure provenance — it never feeds the strategy RNG, so a session is
    #: bit-identical whichever other nodes share its pool.
    node: str = ""


def run_session_job(job: SessionJob) -> SessionReport:
    """Execute one full DiCE session; the worker-process entry point."""
    # A private solver wired to the worker's (optional) cache.
    # ``deterministic_rng`` keeps the solver a pure function of each
    # query, so cached entries equal local solves — the invariant
    # behind worker-count-independent results.
    solver = ConstraintSolver(cache=job.cache, deterministic_rng=True)
    engine = ConcolicEngine(solver=solver, keep_results=False)
    options = job.options
    # Deep copy: in an inline worker (and in a forked one) the options
    # are never pickled, so a plain list() would hand the same (possibly
    # stateful) checker instances to every session — and make serial
    # and multi-process runs diverge for checkers that accumulate state
    # across check().
    checkers = (
        copy.deepcopy(list(options.checkers))
        if options.checkers is not None
        else default_checkers(list(options.anycast_whitelist) or None)
    )
    explorer = DiceExplorer(engine=engine, checkers=checkers)
    # The clone restored here stands in for the live router: same state,
    # same sessions, but isolated — the live node never pauses for a
    # worker (the paper's "off the critical path").
    clone, _env = restore_isolated(job.checkpoint)
    model = model_for(job.observed, options.policy, **dict(options.model_kwargs))
    report = explorer.explore_update(
        clone,
        job.peer,
        job.observed,
        model=model,
        budget=options.budget,
        # Seeded per job *index*, not per worker: placement is irrelevant.
        strategy=make_strategy(
            options.strategy,
            seed=derive_seed(options.strategy_seed, "parallel-job", job.index),
        ),
        checkpoint=job.checkpoint,
    )
    report.solver_stats = engine.solver.stats.as_dict()
    report.node = job.node
    return report.compact()
