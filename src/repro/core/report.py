"""Findings and exploration-session reports.

A *finding* is DiCE's output: a concrete input (derived by the concolic
engine) that drives the node into behavior a checker flags — a potential
prefix hijack, a handler crash, a violated invariant.  The paper stresses
actionability: "DiCE clearly states which prefix ranges can be leaked",
so findings carry the offending prefix and enough context for an operator
to write the missing filter.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.concolic.engine import ExplorationReport
from repro.util.ip import Prefix


class FindingKind(enum.Enum):
    PREFIX_HIJACK = "prefix-hijack"
    HANDLER_CRASH = "handler-crash"
    INVARIANT_VIOLATION = "invariant-violation"
    SESSION_RESET = "session-reset"
    # Wave-level pathologies detected over the whole clone ensemble
    # (the workload subsystem's paired invariant checkers).
    STUCK_ROUTE = "stuck-route"
    BLACKHOLE = "blackhole"
    CONVERGENCE_TIMEOUT = "convergence-timeout"
    ORIGIN_CONFLICT = "origin-conflict"


class Severity(enum.IntEnum):
    INFO = 0
    WARNING = 1
    CRITICAL = 2


@dataclass(frozen=True)
class Finding:
    """One fault DiCE detected during exploration."""

    kind: FindingKind
    severity: Severity
    summary: str
    prefix: Optional[Prefix] = None
    peer: Optional[str] = None
    expected_origin: Optional[int] = None
    observed_origin: Optional[int] = None
    assignment: Tuple[Tuple[str, int], ...] = ()
    details: str = ""
    #: Federation node the finding is about ("" for single-node sessions,
    #: where the session itself carries the node identity).
    node: str = ""
    #: Name of the checker that produced the finding ("" for the classic
    #: per-execution checkers, which predate checker attribution).
    checker: str = ""

    def dedup_key(self) -> tuple:
        """Findings agreeing on this key are the same underlying fault."""
        return (
            self.kind,
            self.prefix,
            self.peer,
            self.expected_origin,
            self.observed_origin,
            self.summary if self.kind == FindingKind.HANDLER_CRASH else "",
            self.node,
            self.checker,
        )

    def describe(self) -> str:
        parts = [f"[{self.severity.name}] {self.kind.value}: {self.summary}"]
        if self.checker:
            parts.append(f"checker={self.checker}")
        if self.node:
            parts.append(f"node={self.node}")
        if self.prefix is not None:
            parts.append(f"prefix={self.prefix}")
        if self.peer is not None:
            parts.append(f"via peer={self.peer}")
        if self.expected_origin is not None or self.observed_origin is not None:
            parts.append(
                f"origin AS{self.expected_origin} -> AS{self.observed_origin}"
            )
        if self.assignment:
            rendered = ", ".join(f"{k}={v}" for k, v in self.assignment)
            parts.append(f"input({rendered})")
        return " ".join(parts)


@dataclass
class SessionReport:
    """Everything one DiCE exploration session produced.

    ``solver_stats`` is populated by parallel workers (each worker owns a
    private solver, so its counters — including constraint-cache hits —
    would otherwise be lost when the worker process exits).
    """

    peer: str
    model_name: str
    exploration: ExplorationReport
    findings: List[Finding] = field(default_factory=list)
    checkpoint_seconds: float = 0.0
    clone_count: int = 0
    solver_stats: Dict[str, float] = field(default_factory=dict)
    #: Federation node the session explored ("" outside federated runs):
    #: lets a shared-pool harvest attribute each report to its AS.
    node: str = ""

    def compact(self) -> "SessionReport":
        """A transport-safe copy for crossing process boundaries."""
        return dataclasses.replace(self, exploration=self.exploration.compact())

    def unique_findings(self) -> List[Finding]:
        seen: Dict[tuple, Finding] = {}
        for finding in self.findings:
            seen.setdefault(finding.dedup_key(), finding)
        return list(seen.values())

    def hijack_findings(self) -> List[Finding]:
        return [
            f for f in self.unique_findings() if f.kind == FindingKind.PREFIX_HIJACK
        ]

    def leaked_prefixes(self) -> List[Prefix]:
        """The actionable output: which prefix ranges can be leaked."""
        return sorted(
            {f.prefix for f in self.hijack_findings() if f.prefix is not None}
        )

    def summary(self) -> Dict[str, object]:
        return {
            "peer": self.peer,
            "model": self.model_name,
            "executions": self.exploration.executions,
            "unique_paths": self.exploration.unique_paths,
            "findings": len(self.unique_findings()),
            "hijacks": len(self.hijack_findings()),
            "clone_count": self.clone_count,
            "stop_reason": self.exploration.stop_reason,
            "wall_seconds": round(self.exploration.wall_seconds, 4),
        }
