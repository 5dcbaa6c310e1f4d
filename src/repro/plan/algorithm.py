"""The ``Algorithm`` protocol: plan an execution, then execute the plan.

Every evaluation strategy in the repository — TKIJ and the three baselines —
implements the same two-step interface so that the experiment harness, figure
drivers and CLI can dispatch through the registry without per-algorithm
branches:

* :meth:`Algorithm.plan` turns a query plus an :class:`ExecutionContext` (and
  optional knobs) into an :class:`ExecutionPlan`, possibly consulting the
  cost-based :class:`~repro.plan.AutoPlanner`;
* :meth:`Algorithm.execute` runs the plan and returns a :class:`RunReport`, the
  algorithm-agnostic execution summary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..mapreduce.cluster import JobMetrics
from ..query.graph import ResultTuple, RTJQuery
from .context import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .planner import PlanExplanation

__all__ = ["Algorithm", "ExecutionPlan", "RunReport"]


@dataclass
class ExecutionPlan:
    """A fully-resolved execution: which algorithm, on what, with which knobs."""

    algorithm: str
    query: RTJQuery
    context: ExecutionContext
    knobs: dict[str, Any] = field(default_factory=dict)
    explanation: "PlanExplanation | None" = None


@dataclass
class RunReport:
    """Algorithm-agnostic execution report (the registry's common currency).

    ``raw`` keeps the algorithm-specific report (a
    :class:`~repro.core.TKIJResult` or a
    :class:`~repro.baselines.BaselineResult`) for callers that need the full
    detail; everything the harness tabulates is available uniformly here.
    """

    algorithm: str
    title: str
    results: list[ResultTuple]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    metrics: list[JobMetrics] = field(default_factory=list)
    explanation: "PlanExplanation | None" = None
    statistics_cached: bool | None = None
    elapsed_seconds: float | None = None
    raw: object | None = None

    @property
    def total_seconds(self) -> float:
        """End-to-end query time (statistics excluded, as in the paper)."""
        if self.elapsed_seconds is not None:
            return self.elapsed_seconds
        return sum(
            seconds for phase, seconds in self.phase_seconds.items() if phase != "statistics"
        )

    @property
    def shuffle_records(self) -> int:
        """Total engine records shuffled across all Map-Reduce phases (TKIJ's join
        ships one record per bucket batch; interval volume is ``shuffle_size``)."""
        return sum(metrics.shuffle_records for metrics in self.metrics)

    @property
    def shuffle_bytes(self) -> int:
        """Total estimated shuffle bytes across all Map-Reduce phases."""
        return sum(metrics.shuffle_bytes for metrics in self.metrics)

    @property
    def bytes_spilled(self) -> int:
        """Total bytes written to on-disk spill runs across all phases."""
        return sum(metrics.bytes_spilled for metrics in self.metrics)

    @property
    def spill_runs(self) -> int:
        """Total sorted runs spilled to disk across all phases."""
        return sum(metrics.spill_runs for metrics in self.metrics)

    @property
    def shm_segments(self) -> int:
        """Total shared-memory segments created across all phases."""
        return sum(metrics.shm_segments for metrics in self.metrics)

    def describe(self) -> dict[str, Any]:
        """Flat summary used by the experiment reports."""
        summary: dict[str, Any] = {
            "algorithm": self.algorithm,
            "results": float(len(self.results)),
            "total_seconds": self.total_seconds,
            "shuffle_records": float(self.shuffle_records),
            "shuffle_bytes": float(self.shuffle_bytes),
            "bytes_spilled": float(self.bytes_spilled),
            "spill_runs": float(self.spill_runs),
            "shm_segments": float(self.shm_segments),
        }
        summary.update(
            {f"seconds_{phase}": seconds for phase, seconds in self.phase_seconds.items()}
        )
        if self.statistics_cached is not None:
            summary["statistics_cached"] = self.statistics_cached
        if self.explanation is not None:
            summary.update(
                {f"plan_{key}": value for key, value in self.explanation.describe().items()}
            )
        return summary


class Algorithm(ABC):
    """One registered evaluation strategy (see :mod:`repro.plan.registry`).

    Class attributes describe the algorithm to generic callers: ``name`` is the
    registry key, ``title`` the display name used in result tables, ``scored``
    whether the algorithm evaluates the scored semantics of a query (``False``
    for the Boolean baselines, which force parameter set PB).
    """

    name: str = "algorithm"
    title: str = "Algorithm"
    scored: bool = True

    @abstractmethod
    def plan(self, query: RTJQuery, context: ExecutionContext, **knobs: Any) -> ExecutionPlan:
        """Resolve a query into an executable plan (validating the knobs)."""

    @abstractmethod
    def execute(self, plan: ExecutionPlan) -> RunReport:
        """Run a plan produced by :meth:`plan` and report the execution."""

    def run(self, query: RTJQuery, context: ExecutionContext, **knobs: Any) -> RunReport:
        """Convenience: plan then execute in one call."""
        return self.execute(self.plan(query, context, **knobs))

    def plan_knobs(self, options: Mapping[str, Any]) -> dict[str, Any]:
        """The subset of generic CLI/driver options this algorithm understands.

        Generic dispatchers (the CLI's ``run`` experiment) collect options that
        not every algorithm accepts; each algorithm picks out its own here so
        the dispatcher stays free of per-algorithm branches.  The default is to
        ignore everything.
        """
        return {}
