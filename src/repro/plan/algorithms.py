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
from ..core.local_join import LocalJoinConfig
from ..core.operators import collections_by_name
from ..core.tkij import TKIJ
from ..query.graph import RTJQuery
from ..solver import BranchAndBoundSolver
from .algorithm import Algorithm, ExecutionPlan, RunReport
from .context import ExecutionContext
from .feedback import query_fingerprint, statistics_fingerprint, workload_fingerprint
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
    carries, so one knob controls the kernel everywhere.
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

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        mode: str = "manual",
        num_granules: int = 20,
        strategy: str = "loose",
        assigner: str = "dtb",
        kernel: str | None = None,
        transfer: str | None = None,
        memory_budget_bytes: int | None = None,
        join_config: LocalJoinConfig | None = None,
        solver: BranchAndBoundSolver | None = None,
        planner: AutoPlanner | None = None,
    ) -> ExecutionPlan:
        if mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}")
        knobs: dict[str, Any] = {
            "num_granules": num_granules,
            "strategy": strategy,
            "assigner": assigner,
            "join_config": join_config or LocalJoinConfig(),
            "solver": solver or BranchAndBoundSolver(),
        }
        explanation = None
        if mode == "auto":
            planner = planner or AutoPlanner()
            feedback = context.feedback
            fingerprints: tuple[str, str] | None = None
            cached_plan = None
            if feedback is not None:
                # The plan-cache key is (query fingerprint, statistics
                # fingerprint) — exact planning problem over the exact dataset
                # state; volatile explanation inputs (probe_seconds,
                # probe_cached) never participate.
                fingerprints = (
                    query_fingerprint(query),
                    statistics_fingerprint(collections_by_name(query)),
                )
                cached_plan = feedback.plan_cache.lookup(*fingerprints)
            if cached_plan is not None:
                # Hot path: the memoized plan is served without re-pricing.
                chosen, explanation = cached_plan
                explanation.reasons.append(
                    "plan reused from the plan cache (query and statistics "
                    "fingerprints matched; nothing recounted or re-priced)"
                )
            else:
                if (
                    feedback is not None
                    and feedback.cost_store is not None
                    and planner.cost_store is None
                ):
                    planner = replace(planner, cost_store=feedback.cost_store)
                chosen, explanation = planner.plan(query, context)
                if fingerprints is not None:
                    feedback.plan_cache.store(*fingerprints, chosen, explanation)
            knobs.update(chosen)
        if kernel is not None:
            # An explicit kernel always wins over the planner's pick.
            knobs["kernel"] = kernel
            if explanation is not None:
                explanation.kernel = kernel
        if transfer is not None:
            # Same precedence for the shuffle transfer strategy.
            knobs["transfer"] = transfer
            if explanation is not None:
                explanation.transfer = transfer
        if memory_budget_bytes is not None:
            knobs["memory_budget_bytes"] = memory_budget_bytes
        return ExecutionPlan(self.name, query, context, knobs, explanation)

    @staticmethod
    def _resolve_cluster(plan: ExecutionPlan):
        """The context's cluster with the plan's transfer/budget knobs applied.

        The context owns the cluster shape (reducers, mappers, backend); the
        plan may override only how shuffled data moves and when it spills, so
        several plans can share one context (and its worker pool) while
        choosing different transfer strategies.
        """
        cluster = plan.context.cluster
        overrides = {
            knob: plan.knobs[knob]
            for knob in ("transfer", "memory_budget_bytes")
            if plan.knobs.get(knob) is not None
        }
        return replace(cluster, **overrides) if overrides else cluster

    def execute(self, plan: ExecutionPlan) -> RunReport:
        context, knobs = plan.context, plan.knobs
        evaluator = TKIJ(
            num_granules=knobs["num_granules"],
            strategy=knobs["strategy"],
            assigner=knobs["assigner"],
            cluster=self._resolve_cluster(plan),
            join_config=resolve_join_config(knobs),
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
        feedback = context.feedback
        if feedback is not None and feedback.cost_store is not None:
            # Close the loop: the observed outcome of this (workload, knobs)
            # pair feeds the planner's calibration on later plans.
            knob_signature = {
                "num_granules": knobs["num_granules"],
                "strategy": knobs["strategy"],
                "assigner": knobs["assigner"],
                "kernel": resolve_join_config(knobs).kernel,
            }
            outcome = {
                "elapsed_seconds": result.total_seconds,
                "join_seconds": result.phase_seconds.get("join", 0.0),
                **result.join_metrics.observed_costs(),
            }
            feedback.cost_store.record(
                workload_fingerprint(plan.query, collections_by_name(plan.query)),
                knob_signature,
                outcome,
            )
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

    def plan_knobs(self, options: Mapping[str, Any]) -> dict[str, Any]:
        picked = {}
        for knob in (
            "mode",
            "num_granules",
            "strategy",
            "assigner",
            "kernel",
            "transfer",
            "memory_budget_bytes",
        ):
            if options.get(knob) is not None:
                picked[knob] = options[knob]
        return picked


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

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        num_partitions: int = 4,
    ) -> ExecutionPlan:
        return ExecutionPlan(
            self.name, query, context, {"num_partitions": num_partitions}
        )

    def _make_join(self, plan: ExecutionPlan) -> AllMatrixJoin:
        return AllMatrixJoin(
            cluster=plan.context.cluster,
            config=AllMatrixConfig(num_partitions=plan.knobs["num_partitions"]),
            backend=plan.context.get_backend(),
        )

    def plan_knobs(self, options: Mapping[str, Any]) -> dict[str, Any]:
        if options.get("num_partitions") is not None:
            return {"num_partitions": options["num_partitions"]}
        return {}


class RCCISAlgorithm(_BaselineAlgorithm):
    """RCCIS (Chawda et al.): Boolean colocation joins over time granules."""

    name = "rccis"
    title = "RCCIS"

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        num_granules: int | None = None,
    ) -> ExecutionPlan:
        # Default to one granule per reducer, matching the paper's protocol.
        granules = num_granules if num_granules is not None else context.cluster.num_reducers
        return ExecutionPlan(self.name, query, context, {"num_granules": granules})

    def _make_join(self, plan: ExecutionPlan) -> RCCISJoin:
        return RCCISJoin(
            cluster=plan.context.cluster,
            config=RCCISConfig(num_granules=plan.knobs["num_granules"]),
            backend=plan.context.get_backend(),
        )

    def plan_knobs(self, options: Mapping[str, Any]) -> dict[str, Any]:
        if options.get("num_granules") is not None:
            return {"num_granules": options["num_granules"]}
        return {}


register(TKIJAlgorithm())
register(NaiveAlgorithm())
register(AllMatrixAlgorithm())
register(RCCISAlgorithm())
