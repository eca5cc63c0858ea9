"""The DiCE exploration loop (paper section 2.3).

One exploration session over one observed input:

1. **checkpoint** the live node (fork);
2. run the concolic engine over the node's UPDATE handler — each
   execution restores a **fresh clone** of the checkpoint onto an
   isolated environment, rebuilds the input from the engine's assignment
   through the marking policy, and invokes ``handle_update``;
3. after every execution the **fault checkers** inspect the clone, the
   intercepted traffic, and the exception state;
4. the engine negates recorded branch predicates to derive the next
   inputs until the frontier or the budget is exhausted.

The paper's phrasing maps directly: "DiCE takes a node checkpoint ...
clones this checkpoint and feeds it with a previously observed input ...
the concolic execution engine starts negating constraints one at a time,
resulting in a set of inputs.  To explore a particular input, DiCE makes
a clone of the checkpoint, and then resumes execution with that input."
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.bgp.messages import UpdateMessage
from repro.bgp.router import BgpRouter
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import (
    ConcolicEngine,
    ExplorationBudget,
)
from repro.concolic.strategies import SearchStrategy
from repro.core.checkers import (
    ExecutionContext,
    FaultChecker,
    OriginBaseline,
    default_checkers,
)
from repro.core.inputs import InputModel, SelectiveUpdateModel
from repro.core.isolation import InterceptedTraffic, restore_isolated
from repro.core.report import SessionReport
from repro.util.errors import ExplorationError


class DiceExplorer:
    """Runs exploration sessions against a live router's UPDATE handler."""

    def __init__(
        self,
        engine: Optional[ConcolicEngine] = None,
        checkers: Optional[Sequence[FaultChecker]] = None,
        checkpoint_manager: Optional[CheckpointManager] = None,
        track_clone_limit: int = 32,
    ):
        #: keep_results=False: clone references inside results would pin
        #: every explored RIB copy in memory for the whole session.
        self.engine = engine or ConcolicEngine(keep_results=False)
        self.checkers: List[FaultChecker] = list(
            checkers if checkers is not None else default_checkers()
        )
        self.checkpoint_manager = checkpoint_manager
        self.track_clone_limit = track_clone_limit

    def explore_update(
        self,
        live_router: BgpRouter,
        peer_id: str,
        observed: UpdateMessage,
        model: Optional[InputModel] = None,
        budget: Optional[ExplorationBudget] = None,
        strategy: Optional[SearchStrategy] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> SessionReport:
        """One exploration session seeded by ``observed`` from ``peer_id``.

        ``checkpoint`` lets callers reuse a recently taken checkpoint
        across sessions (DiCE re-checkpoints on a period, not per input);
        by default a fresh one is captured from ``live_router``.
        """
        model = model or SelectiveUpdateModel(observed)
        return self.explore_handler(
            live_router,
            peer_id,
            model,
            invoke=lambda clone, message: clone.handle_update(peer_id, message),
            budget=budget,
            strategy=strategy,
            checkpoint=checkpoint,
        )

    def explore_open(
        self,
        live_router: BgpRouter,
        peer_id: str,
        model: InputModel,
        budget: Optional[ExplorationBudget] = None,
        strategy: Optional[SearchStrategy] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> SessionReport:
        """Explore the session-establishment (OPEN) handler.

        The paper leaves non-UPDATE messages as future work (section 3.2);
        this implements that extension using :class:`OpenMessageModel`.
        """
        return self.explore_handler(
            live_router,
            peer_id,
            model,
            invoke=lambda clone, message: clone.handle_open(peer_id, message),
            budget=budget,
            strategy=strategy,
            checkpoint=checkpoint,
        )

    def explore_handler(
        self,
        live_router: BgpRouter,
        peer_id: str,
        model: InputModel,
        invoke,
        budget: Optional[ExplorationBudget] = None,
        strategy: Optional[SearchStrategy] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> SessionReport:
        """The generic loop: checkpoint, clone per input, invoke, check.

        ``invoke(clone, message)`` is the handler entry point — the
        paper's "we rely on the programmer to identify message handlers".
        """
        if peer_id not in live_router.sessions:
            raise ExplorationError(f"live router has no peer {peer_id!r}")
        budget = budget or ExplorationBudget(max_executions=128)

        checkpoint_started = time.perf_counter()
        if checkpoint is None:
            if self.checkpoint_manager is not None:
                checkpoint = self.checkpoint_manager.checkpoint(live_router)
            else:
                checkpoint = Checkpoint.capture(live_router, "dice-ckpt")
        checkpoint_seconds = time.perf_counter() - checkpoint_started

        baseline = OriginBaseline.from_router(live_router)
        spec = model.spec()
        domains = spec.domains()
        findings = []
        state: Dict[str, object] = {}
        clone_counter = {"count": 0}
        seen_signatures: set = set()
        manager = self.checkpoint_manager

        def program(inputs):
            state.clear()
            if manager is not None and clone_counter["count"] < self.track_clone_limit:
                record = manager.clone(checkpoint)
                clone, env = record.node, record.env
            else:
                clone, env = restore_isolated(checkpoint)
            clone_counter["count"] += 1
            state["clone"], state["env"] = clone, env
            message = model.build(inputs)
            if isinstance(message, UpdateMessage):
                state["update"] = message
            invoke(clone, message)
            return None

        def on_result(result, candidate):
            env = state.get("env")
            traffic = (
                InterceptedTraffic(env.drain_captured())
                if env is not None
                else InterceptedTraffic()
            )
            signature = result.signature()
            is_new = signature not in seen_signatures
            seen_signatures.add(signature)
            ctx = ExecutionContext(
                peer=peer_id,
                assignment=result.assignment,
                baseline=baseline,
                update=state.get("update"),
                clone=state.get("clone"),
                traffic=traffic,
                exception=result.exception,
                path=result.path,
                domains=domains,
                is_new_path=is_new,
                nlri_index=getattr(model, "nlri_index", 0),
            )
            for checker in self.checkers:
                findings.extend(checker.check(ctx))

        exploration = self.engine.explore(
            program,
            spec,
            strategy=strategy,
            budget=budget,
            on_result=on_result,
        )
        report = SessionReport(
            peer=peer_id,
            model_name=model.name,
            exploration=exploration,
            findings=findings,
            checkpoint_seconds=checkpoint_seconds,
            clone_count=clone_counter["count"],
        )
        return report
