"""The exploration configuration, stated once: two frozen records.

In the paper the exploration agent on a node takes one configuration,
fixed for the run; only the observed input changes between sessions.
:class:`EngineOptions` is that configuration — what every session runs
with, handed to a worker once, when it is built, and never carried by a
job.  :class:`PoolOptions` is how the pool of workers behaves.

The records are the only currency between layers, from the CLI down to
:class:`~repro.parallel.stream.StreamingExplorer`.  Public entry points
also take their fields as flat keywords, folded in by
:func:`resolve_options` right there.  A value that changes at run time
is a :func:`dataclasses.replace`, never a mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from repro.concolic.engine import ExplorationBudget
    from repro.core.checkers import FaultChecker
    from repro.parallel.chaos import ChaosPlan
    from repro.util.ip import Prefix


@dataclass(frozen=True)
class EngineOptions:
    """What every session runs with, whichever worker runs it."""

    policy: str = "selective"  # input marking: or "whole-message"
    #: Marking-model arguments as sorted ``(name, value)`` pairs (a dict
    #: is accepted).
    model_kwargs: Tuple[Tuple[str, object], ...] = ()
    strategy: str = "generational"
    #: Root of every per-job strategy RNG (and of the pool's jitter).
    strategy_seed: int = 0
    budget: Optional[ExplorationBudget] = None
    #: Custom fault checkers, importable classes; ``None``: the defaults.
    checkers: Optional[Tuple[FaultChecker, ...]] = None
    anycast_whitelist: Tuple[Prefix, ...] = ()

    def __post_init__(self) -> None:
        # Store the frozen spellings, so equal configurations are equal.
        pairs = tuple(sorted(dict(self.model_kwargs).items()))
        object.__setattr__(self, "model_kwargs", pairs)
        if self.checkers is not None:
            object.__setattr__(self, "checkers", tuple(self.checkers))
        whitelist = tuple(self.anycast_whitelist or ())
        object.__setattr__(self, "anycast_whitelist", whitelist)


@dataclass(frozen=True)
class PoolOptions:
    """How the pool of workers around the engine behaves."""

    workers: int = 1  # the capacity, under autoscale
    force_serial: bool = False  # one in-process worker, whatever workers says
    constraint_cache: bool = True
    #: Per-``(node, peer)`` pending-seed bound; overflow coalesces the oldest.
    queue_capacity: int = 32
    max_inflight: Optional[int] = None  # None: twice the pool size
    coverage_guided: bool = True
    as_rotation: str = "yield"  # or "round-robin"
    #: Seconds a job may run, or its result be missing, before its worker
    #: is presumed hung; ``None``: no hang sweep.
    job_deadline: Optional[float] = 300.0
    retry_budget: int = 2
    max_restarts: int = 3
    restart_backoff: float = 0.05
    chaos: Optional[ChaosPlan] = None
    autoscale: bool = False
    min_workers: Optional[int] = None  # None: 1
    max_workers: Optional[int] = None  # None: workers
    autoscale_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.as_rotation not in ("yield", "round-robin"):
            raise ValueError(
                f"as_rotation must be 'yield' or 'round-robin', "
                f"got {self.as_rotation!r}"
            )
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError(
                f"job_deadline must be > 0 or None, got {self.job_deadline}"
            )
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if not self.autoscale and (
            self.min_workers is not None or self.max_workers is not None
        ):
            raise ValueError("min_workers/max_workers require autoscale=True")


_ENGINE_FIELDS = frozenset(f.name for f in fields(EngineOptions))
_POOL_FIELDS = frozenset(f.name for f in fields(PoolOptions))


def resolve_options(
    engine: Optional[EngineOptions] = None,
    pool: Optional[PoolOptions] = None,
    **options: object,
) -> Tuple[EngineOptions, PoolOptions]:
    """Fold flat option keywords into the two records.

    Each keyword overrides the field of that name in ``engine`` or
    ``pool`` (default: the records' defaults); a name neither record has
    is a :class:`TypeError`, as it would be for any other call.
    """
    unknown = sorted(set(options) - _ENGINE_FIELDS - _POOL_FIELDS)
    if unknown:
        raise TypeError(f"unknown exploration option(s): {', '.join(unknown)}")
    engine = replace(
        engine or EngineOptions(),
        **{k: v for k, v in options.items() if k in _ENGINE_FIELDS},
    )
    pool = replace(
        pool or PoolOptions(),
        **{k: v for k, v in options.items() if k in _POOL_FIELDS},
    )
    return engine, pool
