"""Federated exploration: extending DiCE's horizon across the network.

Section 2.4 sketches how single-node exploration becomes system-wide:
"we could intercept all messages and let them go through isolated
communication channels.  In addition, we would enable remote nodes to
checkpoint their state and process these messages in isolation over
their checkpointed states.  Effectively, this would extend the scope of
the concolic execution engine to reach across the network."

This module implements that sketch on our substrates:

* every participating node (across administrative domains) is
  checkpointed and cloned onto an isolated environment;
* an :class:`IsolatedFabric` shuttles the messages clones generate to
  the destination *clones* — never to live nodes — over a private
  :class:`~repro.net.sim.Simulator` event queue whose deliveries honor
  the topology's per-edge latencies, until the exploratory wave
  quiesces or the hop budget runs out (in which case the wave reports
  ``converged=False`` instead of silently stopping);
* per-AS concolic exploration is dispatched through the parallel
  machinery (:meth:`FederatedExploration.explore`), so a generated
  federation of N ASes explores with the same single worker pool,
  shared constraint cache, and determinism guarantees as a single
  node's batch;
* system-wide checks then run over the clone ensemble, using only the
  privacy-preserving digests of :mod:`repro.core.privacy` for
  cross-domain comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # avoids the runtime core <-> topology import cycle
    from repro.core.workload import WorkloadPlan
    from repro.parallel.options import EngineOptions, PoolOptions
    from repro.topology.graph import AsGraph

from repro.bgp.messages import NotificationMessage, UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.bgp.router import BgpRouter
from repro.bgp.wire import as_concrete_int
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.env import ExplorationEnvironment
from repro.core.checkers import WaveContext, get_wave_checker
from repro.core.privacy import OriginDigest, conflict_pairs
from repro.core.report import Finding, SessionReport
from repro.net.sim import Simulator
from repro.util.errors import ExplorationError, IsolationViolation, WorkloadError
from repro.util.ip import Prefix

#: One federated exploration seed: run ``update`` (as if from ``peer``)
#: at the clone of ``node`` — the unit both the per-AS concolic fan-out
#: and the fabric wave consume.
FederatedSeed = Tuple[str, str, UpdateMessage]

#: Hop budget of an exploratory wave: how deep a relayed message may go
#: before the wave is cut short and reported ``converged=False``.
DEFAULT_MAX_ROUNDS = 16


@dataclass(frozen=True)
class InjectionEvent:
    """One timed fault/churn action inside a propagation wave.

    ``at`` is seconds of wave-simulator time (the wave starts at 0);
    ``action`` receives the fabric and may call any of its injection
    surface — :meth:`IsolatedFabric.inject`, :meth:`~IsolatedFabric.fail_link`,
    :meth:`~IsolatedFabric.reset_session`, or the clones' operator
    actions.  After the action runs, every clone's freshly captured
    output is scheduled onto the wave, so a mid-wave fault cascades
    exactly like organic traffic.  Workloads are lists of these.
    """

    at: float
    label: str
    action: Callable[["IsolatedFabric"], None] = field(compare=False)


@dataclass
class FabricStats:
    """Message propagation counters for one exploratory wave.

    ``rounds`` is the deepest hop count any delivered message reached
    (the event-queue analogue of the old fixed propagation rounds);
    ``converged`` is False when the wave was cut off by the hop or
    event budget with messages still in flight — a non-quiescent wave
    previously indistinguishable from a converged one.

    :meth:`IsolatedFabric.propagate` returns a fresh instance *per
    wave*; the fabric's own :attr:`IsolatedFabric.stats` accumulates
    waves via :meth:`merge`.  Before this split, a reused fabric's
    second wave inherited the first wave's ``converged=False``/
    ``rounds``/``sim_seconds`` and every downstream consumer
    (``FederatedReport.summary``, the CLI ``[federated]`` line) reported
    stale verdicts.
    """

    delivered: int = 0
    rounds: int = 0
    dropped_no_target: int = 0
    dropped_link_down: int = 0
    injected_events: int = 0
    events: int = 0
    suppressed_hop_budget: int = 0
    converged: bool = True
    sim_seconds: float = 0.0

    def merge(self, wave: "FabricStats") -> "FabricStats":
        """Fold one wave into a cumulative view.

        Counters add; ``rounds`` keeps the deepest hop any wave reached;
        ``converged`` is the conjunction — a fabric that ever cut a wave
        short has a non-converged history even if later waves quiesced.
        """
        self.delivered += wave.delivered
        self.rounds = max(self.rounds, wave.rounds)
        self.dropped_no_target += wave.dropped_no_target
        self.dropped_link_down += wave.dropped_link_down
        self.injected_events += wave.injected_events
        self.events += wave.events
        self.suppressed_hop_budget += wave.suppressed_hop_budget
        self.converged = self.converged and wave.converged
        self.sim_seconds += wave.sim_seconds
        return self


class IsolatedFabric:
    """Clones of many nodes plus the isolated channels between them.

    Construction checkpoints and clones every node.  ``inject`` runs an
    exploratory input at one clone, then :meth:`propagate` drives the
    captured outbound messages through a private discrete-event queue:
    each delivery is scheduled at the sending clone's virtual time plus
    the edge latency (taken from the scenario's :class:`AsGraph` when
    one is supplied), delivered messages trigger their target's handler,
    and newly captured output is scheduled in turn — the isolated
    communication channels of section 2.4 with real timing, not
    lock-step rounds.
    """

    def __init__(
        self,
        routers: Dict[str, BgpRouter],
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        graph: Optional["AsGraph"] = None,
        default_latency: float = 0.001,
        max_events: int = 1_000_000,
        vectorized: bool = True,
    ):
        self.max_rounds = max_rounds
        self.max_events = max_events
        self.graph = graph
        self.default_latency = default_latency
        #: ``vectorized=False`` restores the original one-closure-per-
        #: delivery scheduling: the wave's reference implementation
        #: (the vectorized-vs-legacy parity test and
        #: ``bench_federation.py``'s throughput comparison run it) and
        #: should not be used otherwise — both paths deliver identical
        #: waves.
        self.vectorized = vectorized
        #: Per-edge latencies, both directions, resolved once at build
        #: time: the hot path must not pay a frozenset + two dict hops
        #: per delivered message.
        self._latency_table: Dict[Tuple[str, str], float] = {}
        if graph is not None:
            for edge in graph.edges:
                self._latency_table[(edge.a, edge.b)] = edge.latency
                self._latency_table[(edge.b, edge.a)] = edge.latency
        self.clones: Dict[str, BgpRouter] = {}
        self.envs: Dict[str, ExplorationEnvironment] = {}
        #: Cumulative across every wave this fabric ran; each
        #: :meth:`propagate` call *returns* its own per-wave snapshot.
        self.stats = FabricStats()
        #: The wave currently being driven (delivery closures write here
        #: so a second wave starts from zeroed counters, not the first
        #: wave's).
        self._wave_stats = FabricStats()
        #: Links an :class:`InjectionEvent` has taken down: messages
        #: crossing a failed link are silently dropped (the isolated
        #: analogue of a cut fibre), counted in ``dropped_link_down``.
        self.failed_links: Set[FrozenSet[str]] = set()
        #: Each clone's frozen clock origin (the checkpoint itself is forked
        #: once and let go, not pinned for the fabric's whole life).
        self._checkpoint_times: Dict[str, float] = {}
        for node_id, router in routers.items():
            checkpoint = Checkpoint.capture(router, f"fed-{node_id}")
            self._checkpoint_times[node_id] = checkpoint.node_time
            env = ExplorationEnvironment(checkpoint_time=checkpoint.node_time)
            clone = checkpoint.restore(env)
            if not isinstance(clone, BgpRouter):
                raise IsolationViolation(
                    f"federated clone of {node_id!r} is not a BgpRouter"
                )
            self.clones[node_id] = clone
            self.envs[node_id] = env
        #: The wave simulator currently driving deliveries (set per
        #: :meth:`propagate` call; batched delivery records re-enter
        #: :meth:`_schedule_outbound` through it).
        self._wave_sim: Optional[Simulator] = None
        #: Per-clone mutation versions backing :meth:`digest_tables`:
        #: bumped by every path that can change a clone's RIBs (inject,
        #: delivery, session reset, and :meth:`clone_of` — the public
        #: handle workload actions mutate through), so cached digests
        #: are reused exactly for clones the wave did not touch.
        self._clone_versions: Dict[str, int] = {
            node_id: 0 for node_id in routers
        }
        self._digest_cache: Dict[bytes, Dict[str, Tuple[int, OriginDigest]]] = {}

    def inject(self, node_id: str, peer_id: str, update: UpdateMessage) -> None:
        """Run an exploratory UPDATE at one clone's handler."""
        if node_id not in self.clones:
            raise ExplorationError(f"no clone for node {node_id!r}")
        self._clone_versions[node_id] += 1
        self.clones[node_id].handle_update(peer_id, update)

    # -- fault-injection surface (used by InjectionEvent actions) ---------

    def fail_link(self, a: str, b: str) -> None:
        """Cut the isolated channel between two clones (both directions).

        Neither endpoint is told — exactly like a silent fibre cut, the
        failure is only observable through traffic that stops arriving.
        Session-level faults (where the peers *do* find out) go through
        :meth:`reset_session` instead.
        """
        for node in (a, b):
            if node not in self.clones:
                raise WorkloadError(f"fail_link: no clone for node {node!r}")
        self.failed_links.add(frozenset((a, b)))

    def restore_link(self, a: str, b: str) -> None:
        """Undo :meth:`fail_link`; no-op if the link is already up."""
        self.failed_links.discard(frozenset((a, b)))

    def reset_session(
        self, node_id: str, peer_id: str, code: int = 6, subcode: int = 0
    ) -> None:
        """Deliver a NOTIFICATION at ``node_id``'s clone, as if from ``peer_id``.

        The clone runs its real teardown path: the session drops to IDLE
        and every route learned from that peer is flushed (RFC 4271
        section 6 — default code 6 is *Cease*).
        """
        if node_id not in self.clones:
            raise WorkloadError(f"reset_session: no clone for node {node_id!r}")
        clone = self.clones[node_id]
        if peer_id not in clone.sessions:
            raise WorkloadError(
                f"reset_session: {node_id!r} has no session with {peer_id!r}"
            )
        self._clone_versions[node_id] += 1
        clone.handle_notification(peer_id, NotificationMessage(code, subcode))

    def _latency(self, a: str, b: str) -> float:
        return self._latency_table.get((a, b), self.default_latency)

    def _schedule_outbound(self, sim: Simulator, source_id: str, hop: int) -> None:
        """Capture ``source_id``'s fresh output as latency-delayed events.

        The vectorized path turns each captured message into one flat
        delivery record ``(src, dst, payload, hop)`` and bulk-enqueues
        the batch through :meth:`Simulator.schedule_batch` — one shared
        bound-method handler, no per-message closure, no
        :class:`~repro.net.sim.EventHandle` (wave deliveries are never
        cancelled).  At 1000-AS wave volumes the per-message closure +
        handle allocation of the original path dominated the queue cost.
        """
        captured = self.envs[source_id].drain_captured()
        if not captured:
            return
        if not self.vectorized:
            self._schedule_outbound_legacy(sim, source_id, hop, captured)
            return
        stats = self._wave_stats
        clones = self.clones
        failed = self.failed_links
        latency = self._latency_table
        default_latency = self.default_latency
        batch = []
        if hop > self.max_rounds:
            # Hop budget exhausted: the wave is being cut short, and
            # that must be visible — a non-converged wave means the
            # post-propagation digest comparison ran on a federation
            # still in motion.
            for message in captured:
                target_id = message.destination
                if target_id not in clones:
                    stats.dropped_no_target += 1
                elif failed and frozenset((source_id, target_id)) in failed:
                    stats.dropped_link_down += 1
                else:
                    stats.suppressed_hop_budget += 1
                    stats.converged = False
            return
        for message in captured:
            target_id = message.destination
            if target_id not in clones:
                stats.dropped_no_target += 1
                continue
            if failed and frozenset((source_id, target_id)) in failed:
                stats.dropped_link_down += 1
                continue
            batch.append((
                latency.get((source_id, target_id), default_latency),
                (source_id, target_id, message.payload, hop),
            ))
        if batch:
            sim.schedule_batch(batch, self._deliver_record)

    def _deliver_record(self, record: Tuple[str, str, bytes, int]) -> None:
        """Deliver one batched wave record and schedule the response."""
        src, dst, data, hop = record
        sim = self._wave_sim
        # Advance the receiving clone's virtual clock to the arrival
        # instant so learned_at timestamps (and any time-observing
        # handler code) see wave time flowing.
        env = self.envs[dst]
        lag = (self._checkpoint_times[dst] + sim.now) - env.now()
        if lag > 0:
            env.advance(lag)
        self._clone_versions[dst] += 1
        self.clones[dst].on_message(src, data)
        stats = self._wave_stats
        stats.delivered += 1
        if hop > stats.rounds:
            stats.rounds = hop
        self._schedule_outbound(sim, dst, hop + 1)

    def _schedule_outbound_legacy(
        self, sim: Simulator, source_id: str, hop: int, captured
    ) -> None:
        """The original per-message-closure scheduling (benchmark baseline)."""
        for message in captured:
            target_id = message.destination
            if target_id not in self.clones:
                self._wave_stats.dropped_no_target += 1
                continue
            if frozenset((source_id, target_id)) in self.failed_links:
                self._wave_stats.dropped_link_down += 1
                continue
            if hop > self.max_rounds:
                self._wave_stats.suppressed_hop_budget += 1
                self._wave_stats.converged = False
                continue
            payload = message.payload

            def deliver(
                src: str = source_id, dst: str = target_id,
                data: bytes = payload, this_hop: int = hop,
            ) -> None:
                env = self.envs[dst]
                lag = (self._checkpoint_times[dst] + sim.now) - env.now()
                if lag > 0:
                    env.advance(lag)
                self._clone_versions[dst] += 1
                self.clones[dst].on_message(src, data)
                self._wave_stats.delivered += 1
                self._wave_stats.rounds = max(self._wave_stats.rounds, this_hop)
                self._schedule_outbound(sim, dst, this_hop + 1)

            sim.schedule(self._latency(source_id, target_id), deliver)

    def propagate(self, events: Sequence[InjectionEvent] = ()) -> FabricStats:
        """Drive captured messages through the event queue to quiescence.

        Returns *this wave's* counters — a fresh :class:`FabricStats`,
        so a reused fabric's second wave reports its own ``converged``/
        ``rounds``/``sim_seconds`` rather than inheriting the first
        wave's.  Cumulative totals across waves live in :attr:`stats`.

        ``events`` interleaves timed fault/churn injections with the
        organic traffic: each :class:`InjectionEvent` fires at its
        wave-time ``at``, its action runs against this fabric, and any
        output the clones produce in response is scheduled back onto the
        same queue at ``hop=1`` (injected faults get a fresh hop budget —
        they model operator/environment actions, not relayed messages).
        """
        wave = FabricStats()
        self._wave_stats = wave
        sim = Simulator()
        self._wave_sim = sim
        for source_id in self.envs:
            self._schedule_outbound(sim, source_id, hop=1)
        for event in events:

            def fire(event: InjectionEvent = event) -> None:
                event.action(self)
                self._wave_stats.injected_events += 1
                for node_id in self.envs:
                    self._schedule_outbound(sim, node_id, hop=1)

            sim.schedule_at(event.at, fire)
        executed = sim.run(max_events=self.max_events)
        wave.events += executed
        wave.sim_seconds = sim.now
        if not sim.idle():
            wave.converged = False
        wave.rounds = max(wave.rounds, 1)
        self.stats.merge(wave)
        return wave

    def clone_of(self, node_id: str) -> BgpRouter:
        # Handing out the clone is the sanctioned mutation surface
        # (workload actions run ``action(clone_of(node))``), so assume
        # the caller changes it and invalidate its cached digests.
        self._clone_versions[node_id] += 1
        return self.clones[node_id]

    def digest_tables(self, salt: bytes) -> Dict[str, OriginDigest]:
        """Every clone's published origin digest, cached per salt.

        A wave's pre- and post-propagation comparisons hash the same
        few hundred RIB entries per *untouched* clone twice; at 200+
        domains that re-hashing dominates the whole wave.  Digests are
        recomputed only for clones whose mutation version moved since
        the last call with this salt — every mutation path (inject,
        delivery, session reset, :meth:`clone_of`) bumps the version,
        so a cached digest is exactly the one ``OriginDigest.
        from_router`` would rebuild.
        """
        cache = self._digest_cache.setdefault(salt, {})
        versions = self._clone_versions
        tables: Dict[str, OriginDigest] = {}
        for node_id, clone in self.clones.items():
            version = versions[node_id]
            cached = cache.get(node_id)
            if cached is None or cached[0] != version:
                cached = (version, OriginDigest.from_router(clone, salt))
                cache[node_id] = cached
            tables[node_id] = cached[1]
        return tables


@dataclass
class GlobalFinding:
    """A cross-domain inconsistency detected over digests.

    ``stage`` records when the disagreement was visible: right after the
    exploratory injection (``"pre-propagation"`` — the inconsistency
    window a hijack opens) or after the wave quiesced
    (``"post-propagation"`` — a standing disagreement like a MOAS
    conflict).
    """

    prefix_digest: bytes
    nodes: Tuple[str, str]
    summary: str
    stage: str = "post-propagation"


@dataclass
class FederatedReport:
    """Outcome of one federated exploratory wave.

    The first three fields keep the original wave-report shape; the
    rest carry the per-AS concolic sessions when the wave was driven by
    :meth:`FederatedExploration.explore` through the parallel/streaming
    engines.
    """

    stats: FabricStats
    global_findings: List[GlobalFinding] = field(default_factory=list)
    per_node_table_delta: Dict[str, int] = field(default_factory=dict)
    sessions: List[SessionReport] = field(default_factory=list)
    per_as_sessions: Dict[str, List[SessionReport]] = field(default_factory=dict)
    workers: int = 1
    streamed: bool = False
    used_processes: bool = False
    wall_seconds: float = 0.0
    #: Worker pools the exploration opened: one shared by the whole
    #: federation, batch or streamed.
    pools: int = 0
    #: Per-AS finding-yield EWMAs from the federation dispatch scheduler
    #: (empty for batch runs or ``as_rotation="round-robin"``).
    scheduler_yield: Dict[str, float] = field(default_factory=dict)
    #: The shared stream's ``StreamReport.summary()`` when streamed —
    #: shipping economics, per-node deltas, drop/recovery counters.
    stream_summary: Optional[Dict[str, object]] = None
    #: Wave-checker findings from the fault-workload wave (empty when no
    #: workload ran).  The workload wave runs on its *own* fresh fabric,
    #: separate from the exploration-corpus wave, so its checkers judge
    #: the injected pathology alone — not corpus-induced state.
    workload_findings: List[Finding] = field(default_factory=list)
    #: The workload wave's own propagation counters (None when no
    #: workload ran).
    workload_stats: Optional[FabricStats] = None
    #: Name of the workload that ran ("" when none).
    workload: str = ""

    @property
    def converged(self) -> bool:
        return self.stats.converged

    def findings(self) -> List[Finding]:
        """Unique findings across every exploration session.

        Deduplication is scoped *per AS*: ``Finding.dedup_key`` carries
        no node identity, and the same fault surfacing in two
        administrative domains (two tier-2s accepting the same hijack
        from a shared customer) is two faults — each domain's operator
        has to fix their own import policy.
        """
        seen: Dict[tuple, Finding] = {}
        for node, reports in self._sessions_by_node():
            for report in reports:
                for finding in report.findings:
                    seen.setdefault((node, finding.dedup_key()), finding)
        for finding in self.workload_findings:
            seen.setdefault((finding.node, finding.dedup_key()), finding)
        return list(seen.values())

    def finding_keys(self) -> List[tuple]:
        """Order-independent identity of the finding set (for parity tests)."""
        keys = {
            (node, finding.dedup_key())
            for node, reports in self._sessions_by_node()
            for report in reports
            for finding in report.findings
        }
        keys.update(
            (finding.node, finding.dedup_key())
            for finding in self.workload_findings
        )
        # FindingKind members are not orderable across kinds; repr gives a
        # total, deterministic order once exploration and workload findings
        # mix in one set.
        return sorted(keys, key=repr)

    def _sessions_by_node(self):
        if self.per_as_sessions:
            return list(self.per_as_sessions.items())
        # Single-wave reports (run()) carry no per-AS sessions; treat the
        # flat list as one scope.
        return [("", self.sessions)] if self.sessions else []

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "ases_explored": len(self.per_as_sessions),
            "sessions": len(self.sessions),
            "findings": len(self.findings()),
            "global_findings": len(self.global_findings),
            "workers": self.workers,
            "pools": self.pools,
            "streamed": self.streamed,
            "used_processes": self.used_processes,
            "delivered": self.stats.delivered,
            "converged": self.stats.converged,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        if self.workload:
            out["workload"] = self.workload
            out["workload_findings"] = len(self.workload_findings)
            if self.workload_stats is not None:
                out["workload_injected"] = self.workload_stats.injected_events
                out["workload_converged"] = self.workload_stats.converged
        return out


class FederatedExploration:
    """Cross-network exploratory waves plus system-wide checking.

    Two entry points:

    * :meth:`run` — the original single-injection wave: one exploratory
      UPDATE at one clone, propagation, digest comparison;
    * :meth:`explore` — the scenario-scale version: a whole seed corpus
      is first explored concolically *per AS* through
      :class:`~repro.parallel.ParallelExplorer` or a
      :class:`~repro.parallel.stream.StreamingExplorer` (either way one
      worker pool and constraint cache across all ASes), then every
      seed is injected into one fabric for the system-wide wave and
      digest check.

    The cross-domain check is the federation-wide origin check: domains
    compare *origin digests* (salted hashes; see
    :mod:`repro.core.privacy`) and any prefix on which two domains'
    views disagree about the origin AS is reported — without either
    domain revealing its table or config.
    """

    def __init__(
        self,
        routers: Dict[str, BgpRouter],
        salt: bytes = b"dice-federation",
        graph: Optional["AsGraph"] = None,
        default_latency: float = 0.001,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ):
        self.routers = routers
        self.salt = salt
        self.graph = graph
        self.default_latency = default_latency
        #: Hop budget of every wave this federation runs.
        self.max_rounds = max_rounds

    def _fabric(self) -> IsolatedFabric:
        return IsolatedFabric(
            self.routers,
            max_rounds=self.max_rounds,
            graph=self.graph,
            default_latency=self.default_latency,
        )

    def run(
        self, inject_at: str, peer_id: str, update: UpdateMessage
    ) -> FederatedReport:
        started = time.perf_counter()
        fabric = self._fabric()
        report = self._wave(fabric, [(inject_at, peer_id, update)])
        report.wall_seconds = time.perf_counter() - started
        return report

    def run_workload(
        self, plan: "WorkloadPlan"
    ) -> Tuple[List[Finding], FabricStats]:
        """Drive one fault/churn workload wave and run its paired checkers.

        A *fresh* fabric is built (clean checkpoints of the live
        routers), the plan's timed :class:`InjectionEvent`\\ s are
        interleaved with organic propagation, and every checker the plan
        names judges the resulting clone ensemble.  Returns the checker
        findings plus the wave's own :class:`FabricStats`.
        """
        fabric = self._fabric()
        baseline: Dict[str, Dict[Prefix, int]] = {}
        for node_id, clone in fabric.clones.items():
            local_asn = as_concrete_int(clone.config.asn)
            origins: Dict[Prefix, int] = {}
            for prefix, route in clone.loc_rib.items():
                origin = route.origin_as()
                origins[prefix] = (
                    local_asn if origin is None else as_concrete_int(origin)
                )
            baseline[node_id] = origins
        stats = fabric.propagate(plan.events)
        context = WaveContext(
            clones=fabric.clones,
            stats=stats,
            baseline=baseline,
            graph=self.graph,
            deadline=plan.deadline,
            failed_links=set(fabric.failed_links),
            workload=plan.name,
        )
        findings: List[Finding] = []
        for name in plan.checkers:
            findings.extend(get_wave_checker(name).check(context))
        return findings, stats

    def explore(
        self,
        seeds: Sequence[FederatedSeed],
        engine: Optional["EngineOptions"] = None,
        pool: Optional["PoolOptions"] = None,
        *,
        stream: bool = False,
        stream_epochs: int = 1,
        epoch_churn: Optional[int] = None,
        workload: Optional["WorkloadPlan"] = None,
        **options: object,
    ) -> FederatedReport:
        """Explore a federated seed corpus, then run the system-wide wave.

        Per-AS exploration goes through the parallel machinery — a
        single :meth:`~repro.parallel.ParallelExplorer.explore_nodes`
        fan-out (the in-process loop for one worker, else all ASes' jobs
        in one pool) or, with ``stream=True``, **one** shared
        :class:`~repro.parallel.stream.StreamingExplorer` whose workers
        hold every AS's ``(node, epoch)`` image and whose dispatch
        budget rotates across ASes (``as_rotation``).  All assign the
        same per-AS job indices, so for a fixed corpus the finding set
        is identical across serial, batch, and streamed runs with any
        worker count.  ``engine`` and ``pool`` configure the sessions
        and the pool; flat keywords name their fields.

        ``stream_epochs`` > 1 splits each AS's seed list into that many
        re-checkpoint epochs: every boundary captures each node again
        and ships only the per-node patch (with ``epoch_churn``, only
        for nodes that many changed entries past their current epoch).
        Those two, a ``chaos`` plan and ``autoscale`` act on the shared
        streaming pool, so they require ``stream=True``.

        ``workload`` additionally runs a fault/churn wave
        (:meth:`run_workload`) after the corpus wave — on its *own*
        fresh fabric, so the workload's paired checkers judge the
        injected pathology in isolation from corpus-induced state.  The
        workload wave is serial and deterministic regardless of
        ``workers``/``stream``, so serial/streamed finding-set parity
        is preserved.
        """
        from repro.parallel.options import resolve_options

        engine, pool = resolve_options(engine, pool, **options)
        for option, given in (
            ("chaos", pool.chaos is not None),
            ("epoch_churn", epoch_churn is not None),
            ("autoscale", pool.autoscale),
            ("stream_epochs", stream_epochs != 1),
        ):
            if given and not stream:
                raise ExplorationError(
                    f"{option} acts on the shared streaming pool; "
                    f"it requires stream=True"
                )
        started = time.perf_counter()
        by_node = self._by_node(seeds, "federated exploration")
        if stream:
            pipeline = _stream_corpora(
                {"": (self, by_node)},  # the default tenant
                engine, pool, stream_epochs, epoch_churn,
            )
            report = self._report(
                seeds, by_node, pool.workers, pipeline.report,
                pipeline.federation_yields(),
            )
        else:
            from repro.parallel.explorer import ParallelExplorer

            batches = ParallelExplorer(engine, pool).explore_nodes(
                [(node, self.routers[node], node_seeds)
                 for node, node_seeds in by_node.items()],
            )
            report = self._report(
                seeds,
                {node: list(batch.reports) for node, batch in batches.items()},
                pool.workers,
            )
            report.used_processes = any(
                batch.used_processes for batch in batches.values()
            )
        if workload is not None:
            report.workload_findings, report.workload_stats = (
                self.run_workload(workload)
            )
            report.workload = workload.name
        report.wall_seconds = time.perf_counter() - started
        return report

    def _by_node(
        self, seeds: Sequence[FederatedSeed], who: str
    ) -> Dict[str, List[Tuple[str, UpdateMessage]]]:
        """``seeds`` grouped by node, once ``who``'s corpus is known to be
        non-empty and to name only this federation's nodes."""
        if not seeds:
            raise ExplorationError(f"{who} has an empty seed corpus")
        unknown = sorted({node for node, _, _ in seeds} - set(self.routers))
        if unknown:
            raise ExplorationError(
                f"{who} seeds reference unknown nodes: {unknown}"
            )
        by_node: Dict[str, List[Tuple[str, UpdateMessage]]] = {}
        for node, peer, update in seeds:
            by_node.setdefault(node, []).append((peer, update))
        return by_node

    def _report(
        self, seeds, per_as, workers, streamed=None, scheduler_yield=None,
    ) -> FederatedReport:
        """The system-wide wave over this federation's own fresh fabric,
        carrying the per-AS sessions — read, with the pool's provenance,
        from the ``streamed`` report when there is one (``per_as`` need
        then only be keyed by the explored nodes)."""
        report = self._wave(self._fabric(), seeds)
        if streamed is not None:
            per_as = {
                node: streamed.reports_in_index_order(node) for node in per_as
            }
            report.streamed = True
            report.used_processes = streamed.used_processes
            report.scheduler_yield = scheduler_yield
            report.stream_summary = streamed.summary()
        report.per_as_sessions = per_as
        report.sessions = [r for reports in per_as.values() for r in reports]
        report.workers = workers
        report.pools = 1
        return report

    def _wave(
        self, fabric: IsolatedFabric, seeds: Sequence[FederatedSeed]
    ) -> FederatedReport:
        baseline_sizes = {
            node_id: clone.table_size() for node_id, clone in fabric.clones.items()
        }
        for node, peer, update in seeds:
            fabric.inject(node, peer, update)
        # Check twice: right after the injections (the inconsistency
        # window the exploratory actions open) and again after the wave
        # quiesces (standing disagreements propagation does not resolve).
        findings = self._compare_digests(fabric, stage="pre-propagation")
        stats = fabric.propagate()
        post = self._compare_digests(fabric, stage="post-propagation")
        seen = {(f.prefix_digest, f.nodes) for f in findings}
        findings.extend(
            f for f in post if (f.prefix_digest, f.nodes) not in seen
        )
        deltas = {
            node_id: fabric.clones[node_id].table_size() - baseline_sizes[node_id]
            for node_id in fabric.clones
        }
        return FederatedReport(stats, findings, deltas)

    def _compare_digests(
        self, fabric: IsolatedFabric, stage: str
    ) -> List[GlobalFinding]:
        """Cross-domain origin check over an inverted digest index.

        One ``prefix digest -> origin digest -> carriers`` index replaces
        the old all-pairs :func:`digest_conflicts` walk, so the check
        costs O(nodes · table + conflicts) instead of O(nodes² · table) —
        the difference between a 1000-AS federation check finishing in
        milliseconds and dominating the whole wave.  The reported
        findings are exactly the old pairwise set, pair-major sorted.
        Digest tables come from :meth:`IsolatedFabric.digest_tables`,
        so the post-propagation pass re-hashes only the clones the wave
        actually touched.
        """
        digests = fabric.digest_tables(self.salt)
        findings: List[GlobalFinding] = []
        for (a, b), conflicts in conflict_pairs(digests).items():
            for conflict in conflicts:
                findings.append(
                    GlobalFinding(
                        prefix_digest=conflict,
                        nodes=(a, b),
                        summary=(
                            f"domains {a!r} and {b!r} disagree on the origin "
                            f"of a prefix (digest {conflict.hex()[:12]}..., "
                            f"{stage})"
                        ),
                        stage=stage,
                    )
                )
        return findings


def _stream_corpora(corpora, engine, pool, epochs, churn_threshold):
    """Feed ``{tenant: (exploration, seeds by node)}`` through **one**
    shared streaming pool; returns the closed pipeline.

    Every AS's epoch-0 template is inherited by the same worker
    processes when they fork; seeds
    enter node-tagged (per-node arrival indices keep batch parity),
    epoch boundaries ship per-node deltas.  Seeds dispatch in per-node
    arrival order: coverage-guided reordering pays on open-ended
    streams, but a federated corpus is finite and parity with the
    serial loop's per-index sessions is what matters here.  Cross-AS
    rotation (``as_rotation``) may still reorder across nodes — indices
    are fixed at submission.
    """
    from repro.parallel.stream import StreamingExplorer

    if epochs < 1:
        raise ExplorationError(f"stream_epochs must be >= 1, got {epochs}")
    pipeline = StreamingExplorer(engine, replace(pool, coverage_guided=False))
    pipeline.explore_corpus(
        {
            tenant: (
                {node: exploration.routers[node] for node in by_node}, by_node
            )
            for tenant, (exploration, by_node) in corpora.items()
        },
        epochs=epochs,
        churn_threshold=churn_threshold,
    )
    return pipeline


def explore_tenants(
    tenants: Dict[str, Tuple[FederatedExploration, Sequence[FederatedSeed]]],
    engine: Optional["EngineOptions"] = None,
    pool: Optional["PoolOptions"] = None,
    *,
    stream_epochs: int = 1,
    epoch_churn: Optional[int] = None,
    **options: object,
) -> Tuple[Dict[str, FederatedReport], Dict[str, object]]:
    """Run several federations through **one** shared streaming pool.

    Service mode's entry point: each item of ``tenants`` maps a tenant
    name to a ``(FederatedExploration, seed corpus)`` pair — typically
    one scenario each.  All tenants' seeds stream through a single
    worker pool (optionally autoscaled), configured as
    :meth:`FederatedExploration.explore` configures its own; node keys,
    worker image tables, scheduler state, and the constraint cache are
    tenant-scoped inside the pool, and cross-tenant dispatch is
    yield-weighted deficit rotation
    (:class:`~repro.concolic.coverage.TenantScheduler`) — a busy tenant
    wins proportionally more slots but can never starve a quiet one.

    Isolation is the contract: each tenant's :class:`FederatedReport`
    (its own sessions, findings, and system-wide wave over its own
    fabric) is byte-identical to the report the same scenario would
    produce running the pool alone.  Returns ``(per-tenant reports,
    shared-pool summary)`` — the summary is the pool's global
    :meth:`~repro.parallel.reports.StreamReport.summary`, where the
    service-level counters (pool sizing, resize events, per-tenant job
    counts) live.
    """
    from repro.parallel.options import resolve_options

    engine, pool = resolve_options(engine, pool, **options)
    if not tenants:
        raise ExplorationError("explore_tenants needs at least one tenant")
    if not all(tenants):
        raise ExplorationError("tenant names must be non-empty")
    started = time.perf_counter()
    corpora = {
        name: (exploration, exploration._by_node(seeds, f"tenant {name!r}"))
        for name, (exploration, seeds) in tenants.items()
    }
    pipeline = _stream_corpora(corpora, engine, pool, stream_epochs, epoch_churn)
    reports: Dict[str, FederatedReport] = {}
    for name, (exploration, by_node) in corpora.items():
        report = exploration._report(
            tenants[name][1], by_node, pool.workers,
            pipeline.tenant_report(name),
            pipeline.federation_yields(tenant=name),
        )
        report.wall_seconds = time.perf_counter() - started
        reports[name] = report
    return reports, pipeline.report.summary()
