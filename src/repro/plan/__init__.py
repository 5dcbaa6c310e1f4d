"""Plan/operator layer: unified algorithm registry, cost-based planner, caches.

This package is the dispatch substrate of the evaluation stack:

* :class:`Algorithm` — the plan/execute protocol every strategy implements;
* :data:`REGISTRY` / :func:`get_algorithm` — the unified algorithm registry
  (``tkij``, ``tkij-streaming``, ``naive``, ``allmatrix``, ``rccis``,
  ``sql-oracle``) the harness, figure drivers, CLI and query server dispatch
  through;
* :class:`ExecutionContext` — cluster config, shared execution backend and the
  :class:`StatisticsCache` reusing TKIJ's query-independent phase (a) across
  queries (incrementally maintained on updates);
* :class:`AutoPlanner` — granularity and join kernel priced in seconds from
  exact bucket counts and a table of measured unit costs, the priced
  candidates recorded in a :class:`PlanExplanation`;
* :class:`PlanFeedback` — the feedback loop around the planner: a
  :class:`PlanCache` memoizing auto plans by (query, statistics) fingerprint
  and a :class:`CostStore` of observed execution outcomes that calibrates the
  planner's kernel choice once enough evidence accumulates.

The composable phase operators themselves (StatisticsOp ... MergeOp) live in
:mod:`repro.core.operators`; algorithms here assemble them.
"""

from .algorithm import Algorithm, ExecutionPlan, RunReport
from .algorithms import (
    PLAN_MODES,
    AllMatrixAlgorithm,
    NaiveAlgorithm,
    RCCISAlgorithm,
    TKIJAlgorithm,
    resolve_join_config,
)
from .context import ExecutionContext, StatisticsCache, atomic_pickle_dump
from .feedback import (
    CostStore,
    PlanCache,
    PlanFeedback,
    query_fingerprint,
    statistics_fingerprint,
    workload_fingerprint,
)
from .planner import AutoPlanner, PlanExplanation
from .registry import REGISTRY, available_algorithms, get_algorithm, register
from .sql_oracle import SQLOracleAlgorithm

__all__ = [
    "Algorithm",
    "ExecutionPlan",
    "RunReport",
    "PLAN_MODES",
    "TKIJAlgorithm",
    "NaiveAlgorithm",
    "AllMatrixAlgorithm",
    "RCCISAlgorithm",
    "SQLOracleAlgorithm",
    "resolve_join_config",
    "ExecutionContext",
    "StatisticsCache",
    "atomic_pickle_dump",
    "AutoPlanner",
    "PlanExplanation",
    "CostStore",
    "PlanCache",
    "PlanFeedback",
    "query_fingerprint",
    "statistics_fingerprint",
    "workload_fingerprint",
    "REGISTRY",
    "available_algorithms",
    "get_algorithm",
    "register",
]
