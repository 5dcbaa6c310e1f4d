"""The TKIJ query evaluator (the paper's contribution, end to end).

``TKIJ`` composes the phase operators of :mod:`repro.core.operators` exactly as
Figure 5 describes:

(a) statistics collection over the input collections (offline, reusable);
(b) TopBuckets: score bounds for bucket combinations and pruning to ``Ω_k,S``;
(c) DistributeTopBuckets: assignment of combinations (and hence buckets) to
    reducers;
(d) a Map-Reduce join job: mappers route every interval to the reducers that were
    assigned its bucket, reducers run the RTJ query locally and emit their top-k;
(e) a final Map-Reduce job merging the local lists into the global top-k.

The returned :class:`TKIJResult` carries the per-phase timings, shuffle and
balance metrics, pruning statistics and per-reducer result quality that the
paper's figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..mapreduce import ClusterConfig, ExecutionBackend, MapReduceEngine
from ..mapreduce.cluster import JobMetrics
from ..query.graph import ResultTuple, RTJQuery
from ..solver import BranchAndBoundSolver
from ..temporal.interval import IntervalCollection
from .distribution import ASSIGNERS, WorkloadAssignment
from .local_join import LocalJoinConfig, LocalJoinStats
from .operators import (
    DistributeOp,
    JoinOp,
    MergeOp,
    PhaseOperator,
    PhaseState,
    StatisticsOp,
    TopBucketsOp,
    run_pipeline,
)
from .statistics import DatasetStatistics, collect_statistics
from .top_buckets import STRATEGIES, TopBucketsResult

__all__ = ["TKIJ", "TKIJResult"]


@dataclass
class TKIJResult:
    """Full execution report of one RTJ query evaluated by TKIJ."""

    results: list[ResultTuple]
    phase_seconds: dict[str, float]
    top_buckets: TopBucketsResult
    assignment: WorkloadAssignment
    join_metrics: JobMetrics
    merge_metrics: JobMetrics
    local_join_stats: LocalJoinStats
    per_reducer_kth_score: dict[int, float] = field(default_factory=dict)
    plan_explanation: object | None = None
    """A :class:`repro.plan.PlanExplanation` when the configuration was chosen by
    the cost-based planner (``None`` for manually-configured runs)."""

    @property
    def total_seconds(self) -> float:
        """End-to-end query time (statistics excluded, as in the paper)."""
        return sum(
            seconds for phase, seconds in self.phase_seconds.items() if phase != "statistics"
        )

    @property
    def min_kth_score(self) -> float:
        """Minimum k-th-result score across reducers that produced results (Figure 8c)."""
        scores = [s for s in self.per_reducer_kth_score.values() if s is not None]
        return min(scores) if scores else 0.0

    def describe(self) -> dict[str, float]:
        """Flat summary used by the experiment harness."""
        summary: dict[str, float] = {f"seconds_{k}": v for k, v in self.phase_seconds.items()}
        summary["seconds_total"] = self.total_seconds
        summary.update(self.top_buckets.describe())
        summary.update(
            {f"join_{k}": v for k, v in self.join_metrics.describe().items()}
        )
        summary["min_kth_score"] = self.min_kth_score
        summary["tuples_scored"] = float(self.local_join_stats.tuples_scored)
        summary["candidates_examined"] = float(self.local_join_stats.candidates_examined)
        summary["combinations_processed"] = float(self.local_join_stats.combinations_processed)
        explanation = self.plan_explanation
        if explanation is not None and hasattr(explanation, "describe"):
            summary.update(
                {f"plan_{key}": value for key, value in explanation.describe().items()}
            )
        return summary


@dataclass
class TKIJ:
    """Evaluator for Ranked Temporal Join queries on the simulated Map-Reduce cluster.

    Parameters mirror the paper's experimental knobs: the number of granules of the
    statistics, the TopBuckets strategy, the workload-assignment policy, the
    cluster size (including the execution backend running the map/reduce tasks),
    and the local-join configuration.  ``backend`` injects an already-created
    execution backend so several evaluators can share one worker pool (the
    caller keeps ownership and closes it); left ``None``, the engine creates —
    and on ``close()`` releases — its own from the cluster config.
    """

    num_granules: int = 20
    strategy: str = "loose"
    assigner: str = "dtb"
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    join_config: LocalJoinConfig = field(default_factory=LocalJoinConfig)
    solver: BranchAndBoundSolver = field(default_factory=BranchAndBoundSolver)
    backend: "ExecutionBackend | None" = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.assigner not in ASSIGNERS:
            raise ValueError(f"unknown assigner {self.assigner!r}")
        self.engine = MapReduceEngine(self.cluster, self.backend)

    def close(self) -> None:
        """Release the engine's own backend workers (injected backends stay up)."""
        self.engine.close()

    def __enter__(self) -> "TKIJ":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ phases
    def collect_statistics(
        self, collections: Mapping[str, IntervalCollection]
    ) -> DatasetStatistics:
        """Phase (a): bucket matrices for every collection (query-independent)."""
        return collect_statistics(collections, self.num_granules)

    def operators(
        self, statistics: DatasetStatistics | None = None
    ) -> list[PhaseOperator]:
        """The standard five-operator pipeline for this evaluator's configuration.

        ``statistics`` short-circuits phase (a) with precollected (e.g. cached)
        statistics.  Callers may rearrange, replace or extend the returned list
        before handing it to :func:`repro.core.operators.run_pipeline`.
        """
        return [
            StatisticsOp(self.num_granules, statistics),
            TopBucketsOp(self.strategy, self.solver),
            DistributeOp(self.assigner),
            JoinOp(self.join_config),
            MergeOp(),
        ]

    def execute(
        self, query: RTJQuery, statistics: DatasetStatistics | None = None
    ) -> TKIJResult:
        """Evaluate ``query`` end to end and return results plus the execution report."""
        state = PhaseState(
            query=query, engine=self.engine, num_reducers=self.cluster.num_reducers
        )
        run_pipeline(self.operators(statistics), state)
        return TKIJResult(
            results=state.results,
            phase_seconds=state.phase_seconds,
            top_buckets=state.top_buckets,
            assignment=state.assignment,
            join_metrics=state.join_metrics,
            merge_metrics=state.merge_metrics,
            local_join_stats=state.local_join_stats,
            per_reducer_kth_score=state.per_reducer_kth_score(),
        )
