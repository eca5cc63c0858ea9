"""Deterministic fault injection for the streaming pipeline.

Resilience code that only runs when the network is unlucky is dead code
until the worst possible moment.  This module makes every recovery path
in :class:`~repro.parallel.stream.StreamingExplorer` exercisable *on
purpose*: a :class:`ChaosPlan` schedules faults against the stream's own
dispatch clock — "kill worker 0 after the 2nd job", "make the 4th job
hang for 30s" — so a test or a CI smoke run replays the exact same
failure at the exact same point every time.

Determinism is the design constraint, matching the rest of the repo:

* faults trigger on the **first-dispatch counter** — the number of seeds
  handed to a worker for the first time.  Retries and salvage re-runs
  never advance the clock, so a plan's later events land on the same
  jobs whether or not an earlier fault forced re-dispatch;
* job-attached faults (hang, drop-result) travel *inside* the
  :class:`~repro.parallel.jobs.StreamJob` as a
  :class:`ChaosDirective`, executed by the worker between dequeue and
  session run — the session itself is untouched, so a recovered job's
  report is bit-identical to an unfaulted run (the parity tests pin
  this);
* the coordinator-side fault (kill worker) fires synchronously inside
  dispatch, not from a timer thread.

A directive is one-shot by default: the coordinator strips it when it
re-dispatches the job after killing the hung worker, so the retry runs
clean.  ``sticky=True`` keeps the fault attached across retries — the
"poison job" that exhausts its retry budget and must land in quarantine
rather than wedging the drain loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Every fault kind a :class:`ChaosEvent` can schedule.
CHAOS_KINDS = ("kill-worker", "hang-job", "drop-result")

#: Event kinds that ride inside the job rather than firing at dispatch.
_ATTACHED_KINDS = ("hang-job", "drop-result")

#: ``kill-worker`` target meaning "the highest live slot at fire time".
HIGHEST_SLOT = -1


@dataclass(frozen=True)
class ChaosDirective:
    """The worker-side payload of a job-attached fault.

    Executed by ``_WorkerState.handle`` around the session run: sleep
    ``hang_seconds`` before running (simulating a wedged solver or a
    livelocked session), and/or swallow the finished result (simulating
    a result lost in the queue).  Frozen so a directive attached to a
    job cannot be mutated into a different fault after scheduling.
    """

    hang_seconds: float = 0.0
    drop_result: bool = False
    #: Survive coordinator stripping on retry — the poison-job case.
    sticky: bool = False


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: *what* happens at which first-dispatched job.

    ``at_job`` is 1-based on the stream's first-dispatch counter; the
    event fires when the counter reaches that value (attached kinds ride
    on exactly that job, coordinator kinds fire right after it ships).
    """

    kind: str
    at_job: int
    #: Worker slot to kill (``kill-worker`` only).  ``HIGHEST_SLOT``
    #: (-1) targets whichever live slot is highest at fire time — under
    #: an autoscaled pool that is the most recently grown (or currently
    #: retiring) worker, which no fixed slot number can name in advance.
    worker: int = 0
    #: Hang duration (``hang-job`` only); sized to dwarf any sane job
    #: deadline so detection — not patience — ends the hang.
    seconds: float = 30.0
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r} (expected one of {CHAOS_KINDS})"
            )
        if self.at_job < 1:
            raise ValueError(f"at_job is 1-based, got {self.at_job}")
        if self.kind == "hang-job" and self.seconds <= 0:
            raise ValueError(f"hang-job needs seconds > 0, got {self.seconds}")
        if self.kind == "kill-worker" and self.worker < HIGHEST_SLOT:
            raise ValueError(
                f"worker slot must be >= 0 (or HIGHEST_SLOT), got {self.worker}"
            )

    @property
    def attaches(self) -> bool:
        """Does this event ride inside the job (vs. fire at dispatch)?"""
        return self.kind in _ATTACHED_KINDS

    def directive(self) -> ChaosDirective:
        """The job payload for an attached event."""
        if not self.attaches:
            raise ValueError(f"{self.kind} events do not attach to jobs")
        return ChaosDirective(
            hang_seconds=self.seconds if self.kind == "hang-job" else 0.0,
            drop_result=self.kind == "drop-result",
            sticky=self.sticky,
        )

    def describe(self) -> str:
        if self.kind == "kill-worker":
            target = (
                "highest live worker" if self.worker == HIGHEST_SLOT
                else f"worker {self.worker}"
            )
            return f"kill {target} after job {self.at_job}"
        if self.kind == "hang-job":
            sticky = " (sticky)" if self.sticky else ""
            return f"hang job {self.at_job} for {self.seconds:g}s{sticky}"
        return f"drop result of job {self.at_job}"


@dataclass(frozen=True)
class ChaosPlan:
    """A named, ordered schedule of faults for one stream run.

    ``job_deadline`` / ``retry_budget``, when set, override the
    supervisor's knobs for the run the plan is injected into — hang
    plans carry a short deadline so tests and smoke runs detect the
    hang in about a second instead of waiting out the service default.
    """

    name: str
    events: Tuple[ChaosEvent, ...]
    description: str = ""
    job_deadline: Optional[float] = None
    retry_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a chaos plan needs a name")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError(
                f"job_deadline override must be > 0, got {self.job_deadline}"
            )
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(
                f"retry_budget override must be >= 0, got {self.retry_budget}"
            )

    def events_at(self, job_number: int) -> List[ChaosEvent]:
        """Every event scheduled for the given first-dispatch count."""
        return [event for event in self.events if event.at_job == job_number]

    @property
    def quarantines(self) -> bool:
        """Does this plan *intend* to exhaust a retry budget?

        Sticky hang/drop faults re-fault every retry, so the job must
        end in quarantine; everything else recovers losslessly.  Parity
        suites use this to decide whether ``finding_keys()`` must match
        the serial run exactly or minus the quarantined job.
        """
        return any(event.sticky for event in self.events if event.attaches)


def _plan(name, description, events, **overrides) -> ChaosPlan:
    return ChaosPlan(
        name=name, description=description, events=tuple(events), **overrides
    )


#: Named plans covering every recovery path once; tests and the CLI's
#: ``--chaos`` flag resolve these via :func:`get_chaos_plan`.  Short
#: ``job_deadline`` overrides keep hang detection ~1s in smoke runs.
CHAOS_PLANS: Dict[str, ChaosPlan] = {
    plan.name: plan
    for plan in (
        _plan(
            "kill-one-worker",
            "kill worker 0 after the 2nd job; supervisor must respawn it",
            [ChaosEvent(kind="kill-worker", at_job=2, worker=0)],
        ),
        _plan(
            "hang-one-worker",
            "hang the 3rd job past its deadline; worker killed, job retried",
            [ChaosEvent(kind="hang-job", at_job=3, seconds=30.0)],
            job_deadline=1.0,
        ),
        _plan(
            "drop-result",
            "swallow the 2nd job's result; deadline sweep must re-dispatch it",
            [ChaosEvent(kind="drop-result", at_job=2)],
            job_deadline=1.0,
        ),
        _plan(
            "poison-job",
            "a sticky hang that re-faults every retry; must end in quarantine",
            [ChaosEvent(kind="hang-job", at_job=2, seconds=30.0, sticky=True)],
            job_deadline=1.0,
            retry_budget=1,
        ),
        _plan(
            "kill-elastic-worker",
            "kill the highest live slot after the 3rd job — under autoscale "
            "that is the most recently grown (or retiring) worker",
            [ChaosEvent(kind="kill-worker", at_job=3, worker=HIGHEST_SLOT)],
        ),
        _plan(
            "kill-and-hang",
            "kill worker 0 after job 2 AND hang job 4; both must recover",
            [
                ChaosEvent(kind="kill-worker", at_job=2, worker=0),
                ChaosEvent(kind="hang-job", at_job=4, seconds=30.0),
            ],
            job_deadline=1.0,
        ),
    )
}


def get_chaos_plan(name: str) -> ChaosPlan:
    """Resolve a registered plan by name (CLI ``--chaos`` entry point)."""
    try:
        return CHAOS_PLANS[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_PLANS))
        raise ValueError(f"unknown chaos plan {name!r} (known: {known})") from None


def list_chaos_plans() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs for help text and docs."""
    return [
        (name, CHAOS_PLANS[name].description) for name in sorted(CHAOS_PLANS)
    ]
