"""The DiCE facade: online testing attached to a live router.

"DiCE runs in the Provider's router" (section 4): a
:class:`DiceEnabledRouter` is a stock :class:`BgpRouter` with the
integration hook the paper added to BIRD — every UPDATE the live node
processes is also *observed* by DiCE as a seed input for exploration.

:class:`DiCE` owns the observed-input buffer, the explorer, and the
accumulated findings, and exposes :meth:`run_round` — one checkpoint +
exploration session — which the online scheduler fires periodically
while the deployed system keeps running.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # avoids the runtime core <-> parallel import cycle
    from repro.parallel.options import EngineOptions, PoolOptions
    from repro.parallel.stream import StreamReport, StreamingExplorer

from repro.bgp.messages import UpdateMessage
from repro.bgp.router import BgpRouter
from repro.concolic.coverage import CoverageScheduler
from repro.concolic.engine import ConcolicEngine, ExplorationBudget
from repro.concolic.strategies import SearchStrategy
from repro.core.checkers import FaultChecker, default_checkers
from repro.core.explorer import DiceExplorer
from repro.core.inputs import InputModel, model_for, seed_signature
from repro.core.report import Finding, SessionReport
from repro.util.errors import ExplorationError
from repro.util.ip import Prefix

ObserverHook = Callable[[str, UpdateMessage], None]


class DiceEnabledRouter(BgpRouter):
    """A BGP router with the DiCE observation hook compiled in.

    The hook is runtime-only state: it is intentionally *not* part of
    ``checkpoint_state()``, so clones restored from checkpoints never
    re-enter DiCE (the class attribute default applies to them).
    """

    observer: Optional[ObserverHook] = None

    def handle_update(self, peer_id: str, update: UpdateMessage) -> None:
        if self.observer is not None:
            self.observer(peer_id, update)
        super().handle_update(peer_id, update)


class DiCE:
    """Continuous, automatic exploration of a live node's behavior."""

    def __init__(
        self,
        router: BgpRouter,
        checkers: Optional[Sequence[FaultChecker]] = None,
        policy: str = "selective",
        model_kwargs: Optional[dict] = None,
        engine: Optional[ConcolicEngine] = None,
        observed_capacity: int = 64,
        anycast_whitelist: Optional[List[Prefix]] = None,
    ):
        self.router = router
        # Parallel rounds rebuild checkers inside each worker: default
        # checkers from the whitelist, or the caller's (picklable) list.
        self._custom_checkers = list(checkers) if checkers is not None else None
        self._anycast_whitelist = list(anycast_whitelist or [])
        if checkers is None:
            checkers = default_checkers(anycast_whitelist)
        self.explorer = DiceExplorer(engine=engine, checkers=checkers)
        self.policy = policy
        self.model_kwargs = dict(model_kwargs or {})
        # Per-peer ring buffers: a chatty peer (a full-table dump) must not
        # evict the seeds observed from a quiet one.
        self._observed_capacity = observed_capacity
        self._observed: Dict[str, Deque[UpdateMessage]] = {}
        self._last_served_peer: Optional[str] = None
        # Coverage-guided seed scheduling: every finished session's
        # coverage feeds back into seed scoring (novelty-weighted
        # rotation); with no history it degenerates to pure round-robin.
        self.scheduler = CoverageScheduler()
        self.rounds: List[SessionReport] = []
        self.exploration_wall_seconds = 0.0
        # Streaming state: when a stream is active, observe() forwards
        # every seed into it and harvested reports land in ``rounds``.
        self._stream: Optional["StreamingExplorer"] = None
        self._stream_harvested = 0
        if isinstance(router, DiceEnabledRouter):
            router.observer = self.observe

    # -- input observation ---------------------------------------------------

    def observe(self, peer_id: str, update: UpdateMessage) -> None:
        """Record a live input as a future exploration seed.

        Only announcements are useful seeds (the marking policies derive
        symbolic inputs from NLRI), matching the paper's focus on UPDATE
        messages as "the main drivers for state change".

        With a stream active (:meth:`stream`), every observed seed is
        also enqueued to it immediately — exploration overlaps live
        traffic instead of waiting for a scheduled round.  Enqueueing is
        non-blocking (the stream coalesces under backpressure), so the
        live message path never stalls on exploration.
        """
        if update.nlri:
            buffer = self._observed.setdefault(
                peer_id, deque(maxlen=self._observed_capacity)
            )
            buffer.append(update)
            if self._stream is not None:
                if self._stream.closed:
                    # The caller closed the explorer directly instead of
                    # via stream_stop(); detach rather than raising out
                    # of live message handling.
                    self._stream = None
                else:
                    self._stream.submit(peer_id, update)

    @property
    def observed(self) -> List[Tuple[str, UpdateMessage]]:
        """All buffered (peer, update) seeds, oldest first per peer."""
        return [
            (peer_id, update)
            for peer_id, buffer in self._observed.items()
            for update in buffer
        ]

    def clear_observed(self) -> None:
        self._observed.clear()

    def pick_seed(
        self, peer: Optional[str] = None
    ) -> Optional[Tuple[str, UpdateMessage]]:
        """The most promising observed input, coverage-guided across peers.

        Without an explicit ``peer``, candidates (each peer's most recent
        buffered seed) are scored by :class:`CoverageScheduler` —
        predicted new-branch coverage from each peer's recent sessions,
        boosted for never-scheduled seeds — with ties resolved by the
        original round-robin rotation.  A fresh facade (no exploration
        history) therefore behaves exactly like the old blind rotation;
        once rounds complete, budget concentrates on peers and seeds
        still producing new coverage.
        """
        if peer is not None:
            buffer = self._observed.get(peer)
            if not buffer:
                return None
            self.scheduler.mark_scheduled(seed_signature(buffer[-1]))
            return (peer, buffer[-1])
        candidates = [
            (peer_id, buffer[-1])
            for peer_id, buffer in self._observed.items()
            if buffer
        ]
        if not candidates:
            return None
        signatures = [seed_signature(update) for _, update in candidates]
        choice = self.scheduler.pick(
            [(peer_id, sig) for (peer_id, _), sig in zip(candidates, signatures)],
            after=self._last_served_peer,
        )
        peer_id, update = candidates[choice]
        self._last_served_peer = peer_id
        self.scheduler.mark_scheduled(signatures[choice])
        return (peer_id, update)

    # -- exploration rounds -----------------------------------------------------

    def batch_seeds(
        self, peer: Optional[str] = None, all_seeds: bool = True
    ) -> List[Tuple[str, UpdateMessage]]:
        """The seed batch a parallel round explores, best seeds first.

        ``all_seeds`` takes every buffered input from every peer's ring
        buffer (optionally restricted to one peer); otherwise one seed —
        the most recent — per peer, which still beats the sequential
        round's single seed while keeping the batch small.  Seeds are
        ordered by the coverage scheduler's score (stable, so a facade
        without history returns the plain observation order): callers
        that truncate the batch keep the most promising seeds, and early
        workers start on them first.
        """
        if all_seeds:
            if peer is None:
                seeds = self.observed
            else:
                buffer = self._observed.get(peer)
                seeds = [(peer, update) for update in buffer] if buffer else []
        else:
            seeds = [
                (peer_id, buffer[-1])
                for peer_id, buffer in self._observed.items()
                if buffer and (peer is None or peer_id == peer)
            ]
        scores = [
            self.scheduler.score(peer_id, seed_signature(update))
            for peer_id, update in seeds
        ]
        order = sorted(range(len(seeds)), key=lambda i: (-scores[i], i))
        return [seeds[i] for i in order]

    def run_round(
        self,
        peer: Optional[str] = None,
        budget: Optional[ExplorationBudget] = None,
        strategy: Optional[SearchStrategy] = None,
        model: Optional[InputModel] = None,
        parallel: int = 1,
        all_seeds: bool = False,
    ) -> Union[SessionReport, "StreamReport", None]:
        """One exploration round; parallel when asked.

        The default is the sequential session of the original prototype:
        one checkpoint + exploration from the round-robin-picked seed.
        With ``parallel > 1`` or ``all_seeds=True`` the round becomes a
        batch (:meth:`explore_batch`) — a single checkpoint fanned out
        across the observed seed buffers to ``parallel`` workers — and
        the return value is the aggregated
        :class:`~repro.parallel.reports.StreamReport`.  Every session
        report still lands in :attr:`rounds`, so findings aggregation is
        identical either way.

        Returns None when no input has been observed yet (nothing to
        explore).  Wall-clock time spent is accumulated for the overhead
        accounting in the CPU benchmark.
        """
        if parallel > 1 or all_seeds:
            if strategy is not None or model is not None:
                raise ExplorationError(
                    "parallel rounds build stock per-worker engines, "
                    "strategies, and models (live objects cannot cross the "
                    "process boundary); for custom configurations use "
                    "repro.parallel.explore_batch directly"
                )
            seeds = self.batch_seeds(peer, all_seeds=all_seeds)
            if not seeds:
                return None
            # The whole batch is about to be explored: consume each seed's
            # novelty now so later rounds don't keep boosting it (pick_seed
            # does the same for sequential rounds).
            for _, update in seeds:
                self.scheduler.mark_scheduled(seed_signature(update))
            batch = self.explore_batch(seeds, workers=parallel, budget=budget)
            self.rounds.extend(batch.reports)
            for report in batch.reports:
                self.scheduler.note_session(report.peer, report.exploration.coverage)
            self.exploration_wall_seconds += batch.wall_seconds
            return batch
        seed = self.pick_seed(peer)
        if seed is None:
            return None
        peer_id, observed = seed
        if model is None:
            model = model_for(observed, self.policy, **self.model_kwargs)
        started = time.perf_counter()
        report = self.explorer.explore_update(
            self.router, peer_id, observed, model=model, budget=budget, strategy=strategy
        )
        self.exploration_wall_seconds += time.perf_counter() - started
        self.rounds.append(report)
        self.scheduler.note_session(peer_id, report.exploration.coverage)
        return report

    def explore_batch(
        self,
        seeds: Sequence[Tuple[str, UpdateMessage]],
        pool: Optional["PoolOptions"] = None,
        **options: object,
    ) -> "StreamReport":
        """Checkpoint the live router once and explore ``seeds`` as a batch.

        Runs :func:`repro.parallel.explore_batch` with this DiCE's
        exploration configuration: its policy, model kwargs, custom
        checkers and anycast whitelist become the
        :class:`~repro.parallel.options.EngineOptions` every worker runs
        with; ``pool`` and keywords (any field of either record) add the
        rest.  Reports come back in ``seeds`` order.  Note the worker
        engines are stock: a custom ``engine`` passed to :class:`DiCE`
        applies to sequential rounds only, because live engine/solver
        objects cannot cross the process boundary.
        """
        from repro.parallel.jobs import DEFAULT_NODE, DEFAULT_TENANT
        from repro.parallel.stream import explore_batch

        corpus = {
            DEFAULT_TENANT: ({DEFAULT_NODE: self.router}, {DEFAULT_NODE: seeds})
        }
        return explore_batch(corpus, *self._options(pool, options)).report

    def _options(
        self, pool: Optional["PoolOptions"], options: Dict[str, object]
    ) -> Tuple["EngineOptions", "PoolOptions"]:
        from repro.parallel.options import EngineOptions, resolve_options

        engine = EngineOptions(
            policy=self.policy,
            model_kwargs=self.model_kwargs,
            checkers=self._custom_checkers,
            anycast_whitelist=self._anycast_whitelist,
        )
        return resolve_options(engine, pool, **options)

    # -- streaming ------------------------------------------------------------

    def streaming_explorer(
        self, pool: Optional["PoolOptions"] = None, **options: object
    ) -> "StreamingExplorer":
        """A streaming pipeline carrying this DiCE's exploration config.

        Takes :meth:`explore_batch`'s options; without a ``pool`` record
        the stream's per-peer queue bound defaults to the observation
        buffers' capacity.
        """
        from repro.parallel.options import PoolOptions
        from repro.parallel.stream import StreamingExplorer

        if pool is None:
            pool = PoolOptions(queue_capacity=self._observed_capacity)
        return StreamingExplorer(*self._options(pool, options))

    def stream_start(
        self, pool: Optional["PoolOptions"] = None, **options: object
    ) -> "StreamingExplorer":
        """Open a streaming pipeline over the live router.

        From here until :meth:`stream_stop`, every :meth:`observe`-d
        announcement is auto-enqueued for exploration.  Takes the
        :meth:`streaming_explorer` arguments.
        """
        if self._stream is not None:
            raise ExplorationError("a stream is already active on this DiCE")
        explorer = self.streaming_explorer(pool, **options)
        explorer.start(self.router)
        self._stream = explorer
        self._stream_harvested = 0
        return explorer

    def stream_poll(self) -> List[SessionReport]:
        """Harvest completed stream sessions into :attr:`rounds`.

        Returns only the *newly* harvested reports; cumulative findings
        aggregation happens through :attr:`rounds` exactly as for
        sequential and batch rounds.
        """
        if self._stream is None:
            raise ExplorationError("no active stream (call stream_start)")
        reports = self._stream.poll()
        fresh = reports[self._stream_harvested:]
        self.rounds.extend(fresh)
        for report in fresh:
            self.scheduler.note_session(report.peer, report.exploration.coverage)
        self._stream_harvested = len(reports)
        return fresh

    def stream_epoch(self) -> Dict[str, object]:
        """An epoch boundary: re-checkpoint (shipping the patch) + harvest.

        The streaming scheduler fires this instead of a batch fan-out;
        the returned dict combines the shipping economics with how many
        reports the harvest landed.
        """
        if self._stream is None:
            raise ExplorationError("no active stream (call stream_start)")
        info = self._stream.advance_epoch()
        info["harvested"] = len(self.stream_poll())
        return info

    def stream_stop(self) -> Optional["StreamReport"]:
        """Drain and close the active stream; returns its final report.

        No-op (returning None) when no stream is active, so shutdown
        paths need not track whether a stream was ever started.
        """
        explorer, self._stream = self._stream, None
        if explorer is None:
            return None
        report = explorer.close()
        for session in report.reports[self._stream_harvested:]:
            self.rounds.append(session)
            self.scheduler.note_session(session.peer, session.exploration.coverage)
        self._stream_harvested = 0
        self.exploration_wall_seconds += report.wall_seconds
        return report

    @contextmanager
    def stream(
        self, pool: Optional["PoolOptions"] = None, **options: object
    ) -> Iterator["StreamingExplorer"]:
        """Scoped streaming: ``with dice.stream(workers=4) as s: ...``

        Observation, exploration, and harvest overlap inside the block;
        on exit the stream drains and its findings are aggregated on the
        facade like any other round's.
        """
        explorer = self.stream_start(pool, **options)
        try:
            yield explorer
        finally:
            self.stream_stop()

    # -- aggregation ----------------------------------------------------------------

    def findings(self) -> List[Finding]:
        """Unique findings across all rounds so far."""
        seen: Dict[tuple, Finding] = {}
        for round_report in self.rounds:
            for finding in round_report.findings:
                seen.setdefault(finding.dedup_key(), finding)
        return list(seen.values())

    def leaked_prefixes(self) -> List[Prefix]:
        """All prefix ranges any round found leakable — the operator output."""
        prefixes = set()
        for round_report in self.rounds:
            prefixes.update(round_report.leaked_prefixes())
        return sorted(prefixes)

    def summary(self) -> Dict[str, object]:
        return {
            "rounds": len(self.rounds),
            "observed_inputs": len(self.observed),
            "total_executions": sum(r.exploration.executions for r in self.rounds),
            "total_findings": len(self.findings()),
            "leaked_prefixes": [str(p) for p in self.leaked_prefixes()],
            "exploration_wall_seconds": round(self.exploration_wall_seconds, 4),
        }
