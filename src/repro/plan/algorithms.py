"""Registered algorithms: TKIJ plus the three baselines behind one interface.

Each wrapper translates the generic plan/execute protocol onto the underlying
implementation (:class:`repro.core.TKIJ`, :func:`repro.baselines.naive_top_k`,
:class:`repro.baselines.AllMatrixJoin`, :class:`repro.baselines.RCCISJoin`) and
reports through the common :class:`~repro.plan.RunReport`.  All of them draw
the cluster shape and the shared execution backend from the
:class:`~repro.plan.ExecutionContext`; TKIJ additionally reuses the context's
statistics cache so phase (a) runs once per (dataset, granularity).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Mapping

from ..baselines.allmatrix import AllMatrixConfig, AllMatrixJoin
from ..baselines.common import BaselineResult
from ..baselines.naive import naive_top_k
from ..baselines.rccis import RCCISConfig, RCCISJoin
from ..checks import one_of, positive_int
from ..core.distribution import ASSIGNERS
from ..core.local_join import KERNELS, LocalJoinConfig
from ..core.operators import collections_by_name
from ..core.tkij import TKIJ
from ..core.top_buckets import STRATEGIES
from ..query.graph import RTJQuery
from ..solver import BranchAndBoundSolver
from .algorithm import Algorithm, ExecutionPlan, RunReport
from .context import ExecutionContext
from .feedback import query_fingerprint, statistics_fingerprint
from .planner import AutoPlanner
from .registry import register

__all__ = [
    "TKIJAlgorithm",
    "NaiveAlgorithm",
    "AllMatrixAlgorithm",
    "RCCISAlgorithm",
    "resolve_join_config",
]

PLAN_MODES = ("manual", "auto")
"""Valid values of the TKIJ ``mode`` knob (and the CLI ``--plan`` option)."""


def resolve_join_config(knobs: Mapping[str, Any]) -> LocalJoinConfig:
    """The plan's local-join configuration with the ``kernel`` knob applied.

    ``kernel`` may come from the CLI/driver (explicit) or from the planner
    (auto mode); either way it overrides whatever the ``join_config`` object
    carries, so one knob controls the kernel everywhere.  An unknown kernel
    raises ``ValueError`` here (:class:`LocalJoinConfig` validates it).
    """
    join_config: LocalJoinConfig = knobs["join_config"]
    kernel = knobs.get("kernel")
    if kernel is not None and kernel != join_config.kernel:
        join_config = replace(join_config, kernel=kernel)
    return join_config


class TKIJAlgorithm(Algorithm):
    """The paper's contribution, planned manually or by the cost-based planner."""

    name = "tkij"
    title = "TKIJ"
    scored = True
    knobs = {
        "mode": one_of(*PLAN_MODES, what="plan mode"),
        "num_granules": positive_int,
        "strategy": one_of(*STRATEGIES),
        "assigner": one_of(*ASSIGNERS),
        "kernel": one_of(*KERNELS, what="join kernel"),
    }

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        mode: str = "manual",
        num_granules: int = 20,
        strategy: str = "loose",
        assigner: str = "dtb",
        kernel: str | None = None,
        join_config: LocalJoinConfig | None = None,
        solver: BranchAndBoundSolver | None = None,
        planner: AutoPlanner | None = None,
    ) -> ExecutionPlan:
        self.check_knobs(
            mode=mode,
            num_granules=num_granules,
            strategy=strategy,
            assigner=assigner,
            kernel=kernel,
        )
        knobs: dict[str, Any] = {
            "num_granules": num_granules,
            "strategy": strategy,
            "assigner": assigner,
            "join_config": join_config or LocalJoinConfig(),
            "solver": solver or BranchAndBoundSolver(),
        }
        explanation = None
        if mode == "auto":
            plan_cache = context.plan_cache
            cached_plan = None
            if plan_cache is not None:
                # The plan-cache key is (query fingerprint, statistics
                # fingerprint) — exact planning problem over the exact dataset
                # state; volatile explanation inputs (probe_seconds,
                # probe_cached) never participate.
                fingerprints = (
                    query_fingerprint(query),
                    statistics_fingerprint(collections_by_name(query)),
                )
                cached_plan = plan_cache.lookup(*fingerprints)
            if cached_plan is not None:
                # Hot path: the memoized plan is served without re-pricing.
                chosen, explanation = cached_plan
                explanation.reasons.append(
                    "plan reused from the plan cache (query and statistics "
                    "fingerprints matched; nothing recounted or re-priced)"
                )
            else:
                chosen, explanation = (planner or AutoPlanner()).plan(query, context)
                if plan_cache is not None:
                    plan_cache.store(*fingerprints, chosen, explanation)
            knobs.update(chosen)
        if kernel is not None:
            # An explicit kernel always wins over the planner's pick.
            knobs["kernel"] = kernel
            if explanation is not None:
                explanation.reasons.append(
                    f"kernel={kernel}: set explicitly; the priced pick was {explanation.kernel}"
                )
                explanation.kernel = kernel
        knobs["join_config"] = resolve_join_config(knobs)
        return ExecutionPlan(self.name, query, context, knobs, explanation)

    def execute(self, plan: ExecutionPlan) -> RunReport:
        context, knobs = plan.context, plan.knobs
        evaluator = TKIJ(
            num_granules=knobs["num_granules"],
            strategy=knobs["strategy"],
            assigner=knobs["assigner"],
            cluster=context.cluster,
            join_config=knobs["join_config"],
            solver=knobs["solver"],
            backend=context.get_backend(),
        )
        with evaluator:
            # Phase (a) through the context's cache: collected once per
            # (dataset, granularity), reused and incrementally maintained across
            # queries.  The fetch is timed as the statistics phase (~0 on a hit).
            started = time.perf_counter()
            statistics, cached = context.statistics.get_or_collect(
                collections_by_name(plan.query),
                knobs["num_granules"],
                lambda collections, _: evaluator.collect_statistics(collections),
            )
            statistics_seconds = time.perf_counter() - started
            result = evaluator.execute(plan.query, statistics=statistics)
        # Auto mode: the planner did phase (a) work before this fetch (its
        # counting passes, and the fetch that warmed the entry just hit) —
        # attribute it to the statistics phase, and report the run as cached
        # only if the planner's own fetch hit as well.
        if plan.explanation is not None:
            statistics_seconds, cached = plan.explanation.charge_planning(
                statistics_seconds, cached
            )
        result.phase_seconds["statistics"] = statistics_seconds
        result.plan_explanation = plan.explanation
        return RunReport(
            algorithm=self.name,
            title=self.title,
            results=result.results,
            phase_seconds=dict(result.phase_seconds),
            metrics=[result.join_metrics, result.merge_metrics],
            explanation=plan.explanation,
            statistics_cached=cached,
            elapsed_seconds=result.total_seconds,
            raw=result,
        )


class NaiveAlgorithm(Algorithm):
    """Exhaustive in-process enumeration: the exact oracle, usable on small inputs."""

    name = "naive"
    title = "Naive"
    scored = True

    def plan(self, query: RTJQuery, context: ExecutionContext, **knobs: Any) -> ExecutionPlan:
        if knobs:
            raise ValueError(f"naive accepts no knobs, got {sorted(knobs)}")
        return ExecutionPlan(self.name, query, context)

    def execute(self, plan: ExecutionPlan) -> RunReport:
        started = time.perf_counter()
        results = naive_top_k(plan.query)
        elapsed = time.perf_counter() - started
        return RunReport(
            algorithm=self.name,
            title=self.title,
            results=results,
            phase_seconds={"join": elapsed},
            elapsed_seconds=elapsed,
        )


class _BaselineAlgorithm(Algorithm):
    """Common plumbing of the Boolean Map-Reduce baselines."""

    scored = False

    def _make_join(self, plan: ExecutionPlan):
        raise NotImplementedError

    def execute(self, plan: ExecutionPlan) -> RunReport:
        join = self._make_join(plan)
        with join:
            result: BaselineResult = join.execute(plan.query)
        return RunReport(
            algorithm=self.name,
            title=self.title,
            results=result.results,
            phase_seconds=result.phase_seconds(),
            metrics=list(result.phase_metrics),
            elapsed_seconds=result.elapsed_seconds,
            raw=result,
        )


class AllMatrixAlgorithm(_BaselineAlgorithm):
    """All-Matrix (Chawda et al.): Boolean sequence joins over partition tuples."""

    name = "allmatrix"
    title = "All-Matrix"
    knobs = {"num_partitions": positive_int}

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        num_partitions: int = 4,
    ) -> ExecutionPlan:
        self.check_knobs(num_partitions=num_partitions)
        return ExecutionPlan(self.name, query, context, {"num_partitions": num_partitions})

    def _make_join(self, plan: ExecutionPlan) -> AllMatrixJoin:
        return AllMatrixJoin(
            cluster=plan.context.cluster,
            config=AllMatrixConfig(num_partitions=plan.knobs["num_partitions"]),
            backend=plan.context.get_backend(),
        )


class RCCISAlgorithm(_BaselineAlgorithm):
    """RCCIS (Chawda et al.): Boolean colocation joins over time granules."""

    name = "rccis"
    title = "RCCIS"
    knobs = {"num_granules": positive_int}

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        num_granules: int | None = None,
    ) -> ExecutionPlan:
        self.check_knobs(num_granules=num_granules)
        # Default to one granule per reducer, matching the paper's protocol.
        granules = num_granules if num_granules is not None else context.cluster.num_reducers
        return ExecutionPlan(self.name, query, context, {"num_granules": granules})

    def _make_join(self, plan: ExecutionPlan) -> RCCISJoin:
        return RCCISJoin(
            cluster=plan.context.cluster,
            config=RCCISConfig(num_granules=plan.knobs["num_granules"]),
            backend=plan.context.get_backend(),
        )


register(TKIJAlgorithm())
register(NaiveAlgorithm())
register(AllMatrixAlgorithm())
register(RCCISAlgorithm())
