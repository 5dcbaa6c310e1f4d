"""Cost-based planning: price TKIJ's knobs from exact bucket statistics.

The paper's experiments show that no single configuration dominates: the best
granularity ``g`` depends on data volume and skew (Figure 10), the best
TopBuckets strategy on the size of the combination space (Figure 9), and the
best workload assigner on whether scores are informative (Figure 8).  The
:class:`AutoPlanner` turns those regimes into prices: for every candidate
granularity it counts the buckets exactly (phase (a) is a histogram — there is
nothing to extrapolate), bounds the combination space with the same vectorised
table phase (b) uses, estimates from it how much of the space the join will walk
before its k-th score closes the frontier, and prices every ``(g, kernel)``
candidate in seconds as ``t_b + t_c + t_d`` from the measured :data:`UNIT_COSTS`.
The cheapest candidate wins and the whole priced table is recorded in the
:class:`PlanExplanation`.  The strategy is always ``loose`` (the statistics say
what joint bounds cost, not what they would prune) and the shuffle transfer is
left to the cluster configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.bounds import BoundsEstimator, CombinationSpace, CombinationTable
from ..core.local_join import KERNELS
from ..core.operators import collections_by_name
from ..core.statistics import collect_statistics
from ..core.top_buckets import top_bucket_rows
from ..query.graph import RTJQuery
from ..temporal.comparators import PredicateParams
from .context import ExecutionContext

__all__ = ["AutoPlanner", "PlanExplanation", "PricedPlan", "UNIT_COSTS", "kernel_seconds"]


UNIT_COSTS: dict[str, float] = {
    # Phases (b)+(c), per bucket combination (::bench_unit_bounds_and_dtb).
    "loose_per_combination": 0.17e-6,  # vectorised loose table + Algorithm 1
    "dtb_per_combination": 1.8e-6,  # Algorithms 3-4, one loop over the selected rows
    # Local join, per extension step (one partial tuple bound to its next vertex)
    # and per examined candidate (::bench_unit_kernels).  The vector and sweep
    # kernels share their extension body and differ in how a step resolves its
    # threshold box: the vector kernel masks the whole bucket column, the sweep
    # kernel cuts a window out of endpoint-sorted views that it pays for once
    # per interval (::bench_unit_shuffle_and_sort).
    "scalar_step": 11e-6,
    "scalar_candidate": 2.2e-6,
    "columnar_step": 64e-6,
    "columnar_candidate": 0.48e-6,
    "vector_scan": 1.3e-9,  # per bucket element per step
    "sweep_sort": 0.1e-6,  # per interval
}
"""Measured unit costs in seconds.  Each group cites the arm of
``benchmarks/bench_micro_primitives.py`` that prints its constants under these
names (``pytest benchmarks/bench_micro_primitives.py -k unit -s``).  The planner
relies on their ratios, not on this host's absolute speed."""

def kernel_seconds(kernel: str, steps: float, candidates: float, scanned: float) -> float:
    """Candidate-loop seconds of one local-join kernel.

    ``steps`` extension steps examine ``candidates`` candidates in total; the
    vector kernel additionally masks ``scanned`` bucket elements (each step's
    whole bucket column).  Per candidate this is the kernel's cost *at the batch
    length it actually sees*: ``candidate + step / (candidates / steps)``.
    """
    if kernel == "scalar":
        return steps * UNIT_COSTS["scalar_step"] + candidates * UNIT_COSTS["scalar_candidate"]
    seconds = steps * UNIT_COSTS["columnar_step"] + candidates * UNIT_COSTS["columnar_candidate"]
    if kernel == "vector":
        seconds += scanned * UNIT_COSTS["vector_scan"]
    return seconds


@dataclass(frozen=True)
class PricedPlan:
    """One ``(g, kernel)`` candidate and its price in seconds."""

    num_granules: int
    kernel: str
    combinations: int
    bounds_seconds: float
    """``t_b``: the vectorised loose table and Algorithm 1."""
    distribution_seconds: float
    """``t_c``: assigning the selected combinations to reducers."""
    join_seconds: float
    """``t_d``: candidate loops and per-bucket set-up."""

    @property
    def seconds(self) -> float:
        return self.bounds_seconds + self.distribution_seconds + self.join_seconds

    def knobs(self) -> dict[str, Any]:
        return {"num_granules": self.num_granules, "kernel": self.kernel}


@dataclass
class PlanExplanation:
    """The planner's chosen knobs, the statistics they were derived from, and why."""

    algorithm: str
    num_granules: int
    strategy: str
    assigner: str
    kernel: str = "scalar"
    inputs: dict[str, float] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)
    candidates: list[PricedPlan] = field(default_factory=list)
    """Every candidate the planner priced, cheapest first (the winner leads)."""
    margin: float = 1.0
    """Price of the cheapest candidate at another granularity over the winner's
    (1.0 when only one granularity was priced)."""

    def describe(self) -> dict[str, Any]:
        """Flat summary merged into result tables (prefixed ``plan_`` by callers)."""
        summary: dict[str, Any] = {
            "num_granules": self.num_granules,
            "strategy": self.strategy,
            "assigner": self.assigner,
            "kernel": self.kernel,
        }
        summary.update(self.inputs)
        return summary

    def summary(self) -> str:
        """One-line human-readable account of the plan."""
        choices = (
            f"g={self.num_granules} strategy={self.strategy} assigner={self.assigner} "
            f"kernel={self.kernel}"
        )
        if not self.reasons:
            return choices
        return f"{choices} ({'; '.join(self.reasons)})"

    def charge_planning(self, statistics_seconds: float, cached: bool) -> tuple[float, bool]:
        """Phase (a) as the query paid for it: ``(seconds, cached)`` of the
        evaluator's own fetch plus the planner's counting — cached only if the
        planner's fetch of the chosen granularity hit as well."""
        return (
            statistics_seconds + self.inputs.get("probe_seconds", 0.0),
            cached and self.inputs.get("probe_cached", 1.0) >= 1.0,
        )

    def priced_table(self, limit: int | None = None) -> str:
        """The priced candidates as aligned text, cheapest first."""
        lines = [
            f"{'g':>3} {'kernel':<6} {'combos':>7} "
            f"{'t_b ms':>9} {'t_c ms':>8} {'t_d ms':>9} {'total ms':>9}"
        ]
        for plan in self.candidates[:limit]:
            lines.append(
                f"{plan.num_granules:>3} {plan.kernel:<6} {plan.combinations:>7} "
                f"{plan.bounds_seconds * 1e3:>9.2f} {plan.distribution_seconds * 1e3:>8.2f} "
                f"{plan.join_seconds * 1e3:>9.2f} {plan.seconds * 1e3:>9.2f}"
            )
        return "\n".join(lines)


def _is_boolean(query: RTJQuery) -> bool:
    """Whether every edge predicate carries the Boolean parameter set (PB)."""
    boolean = PredicateParams.boolean()
    return all(edge.predicate.params == boolean for edge in query.edges)


def _share_above(lower: np.ndarray, upper: np.ndarray, frontier: float) -> np.ndarray:
    """Expected share of each row's tuples scoring at least ``frontier``.

    Scores are taken as uniform between a row's bounds; a row whose lower bound
    already reaches the frontier counts whole (that covers ``lower == upper``).
    """
    width = upper - lower
    share = np.where(
        lower >= frontier, 1.0, (upper - frontier) / np.where(width > 0.0, width, 1.0)
    )
    return np.clip(share, 0.0, 1.0)


@dataclass(frozen=True)
class _JoinWork:
    """What the dry run expects one reducer's local join to do."""

    steps: float
    candidates: float
    scanned: float
    """Bucket elements a full-column mask touches: each step's whole bucket."""


def _dry_run(query: RTJQuery, space: CombinationSpace, share: CombinationTable) -> _JoinWork:
    """Expected join work of one reducer over ``share``, its rows by descending upper bound.

    The reducer walks its rows until the expected number of tuples scoring above
    the next row's upper bound reaches ``k`` — its heap is full and the frontier
    closed.  Inside a walked row, a step binding the next join-order vertex
    examines that vertex's bucket thinned by the share of the row's tuples that
    can still beat the closing frontier, spread evenly over the binding depths
    — except in the first row, walked while the heap is still filling.
    """
    upper, lower = share.upper, share.lower
    results = share.nb_res.astype(float)
    low, high = 1, len(share)
    while low < high:  # expected tuples above the frontier grow with every row walked
        middle = (low + high) // 2
        above = results[:middle] * _share_above(lower[:middle], upper[:middle], upper[middle])
        if above.sum() >= query.k:
            high = middle
        else:
            low = middle + 1
    walked = low
    frontier = float(upper[walked]) if walked < len(share) else 0.0
    order = query.join_order()
    depths = max(1, len(order) - 1)
    passing = _share_above(lower[:walked], upper[:walked], frontier) ** (1.0 / depths)
    passing[:1] = 1.0  # the heap is still filling while the first row is walked
    slot = {vertex: at for at, vertex in enumerate(share.vertices)}
    lengths = [
        np.array([space.count(vertex, key) for key in share.keys[slot[vertex]]], dtype=float)[
            share.positions[:walked, slot[vertex]]
        ]
        for vertex in order
    ]
    steps = candidates = scanned = 0.0
    extending = lengths[0]
    for bucket in lengths[1:]:
        steps += extending.sum()
        scanned += (extending * bucket).sum()
        extending = extending * np.maximum(bucket * passing, 1.0)
        candidates += extending.sum()
    return _JoinWork(steps, candidates, scanned)


@dataclass
class AutoPlanner:
    """Chooses granularity and join kernel by price; strategy and assigner by rule.

    For each granularity in :attr:`granule_candidates` the planner reads the
    bucket matrices from the context's statistics cache when they are there —
    so a cached entry is priced exactly as ``execute`` will enumerate it — and
    otherwise counts them itself, in a pass that is *not* retained (later
    ``cache.update`` calls maintain only what some plan executes).  It prices the
    candidates and fetches the winner's granularity through the cache — the entry
    ``execute`` then hits.
    """

    granule_candidates: tuple[int, ...] = (5, 10, 20, 40)
    combination_budget: int = 20_000
    """Memory cap on the combination table phase (b) may build (true counts)."""
    replan_cost_factor: float = 2.0
    """Full replan threshold: replan once the projected incremental cost of the
    next batches exceeds this multiple of a fresh phase (a)+(b) pass."""
    replan_out_of_range_fraction: float = 0.25
    """Fraction of a batch outside the cached granule range that forces a replan.
    A selectivity rule, not a correctness one: out-of-range intervals clamp into
    the border buckets, whose boxes widen to cover them (``BucketMatrix.bucket_box``),
    so every bound stays sound but gets looser and streaming prunes less."""

    def plan(
        self, query: RTJQuery, context: ExecutionContext
    ) -> tuple[dict[str, Any], PlanExplanation]:
        """Return ``(knobs, explanation)`` for evaluating ``query`` in ``context``."""
        collections = collections_by_name(query)
        reasons: list[str] = []
        kernels = self._kernels(query, reasons)
        total_intervals = sum(len(query.collections[vertex]) for vertex in query.vertices)

        priced: list[PricedPlan] = []
        statistics_at = {}
        skipped: list[str] = []
        counting_seconds = 0.0
        finer: tuple[int, float] | None = None
        # Finest first: enumeration shrinks and rows grow as granules coarsen, so
        # the walk stops at the first step that makes the plan dearer
        # (tests/test_plan.py checks the pick against the full argmin).
        for num_granules in sorted(self.granule_candidates, reverse=True):
            started = time.perf_counter()
            statistics = context.statistics.lookup(collections, num_granules)
            if statistics is None:
                statistics = collect_statistics(collections, num_granules)
            counting_seconds += time.perf_counter() - started
            combinations = math.prod(
                statistics.nonempty_bucket_count(query.collections[vertex].name)
                for vertex in query.vertices
            )
            # The coarsest granularity is the fallback when every table would
            # exceed the budget.
            if combinations > self.combination_budget and num_granules != min(
                self.granule_candidates
            ):
                skipped.append(f"g={num_granules}: {combinations} combinations exceed the budget")
                continue
            statistics_at[num_granules] = statistics
            space = CombinationSpace(query, statistics)
            plans = self._price(query, context, space, num_granules, kernels, total_intervals)
            priced.extend(plans)
            price = min(plan.seconds for plan in plans)
            if finer is not None and price > finer[1]:
                skipped.append(
                    f"granularities under {num_granules} not priced: g={num_granules} "
                    f"already costs more than g={finer[0]}"
                )
                break
            finer = (num_granules, price)

        priced.sort(key=lambda plan: plan.seconds)
        best = priced[0]
        others = [plan.seconds for plan in priced if plan.num_granules != best.num_granules]
        margin = min(others) / best.seconds if others and best.seconds > 0 else 1.0

        # The winner's granularity goes through the cache (reusing the counting
        # pass on a miss), so the fetch in execute() is a hit.
        started = time.perf_counter()
        _, probe_cached = context.statistics.get_or_collect(
            collections, best.num_granules, lambda *_: statistics_at[best.num_granules]
        )
        counting_seconds += time.perf_counter() - started

        self._explain(best, priced, margin, skipped, reasons)
        assigner = self._choose_assigner(query, reasons)
        knobs = {**best.knobs(), "strategy": "loose", "assigner": assigner}
        explanation = PlanExplanation(
            algorithm="tkij",
            num_granules=best.num_granules,
            strategy="loose",
            assigner=assigner,
            kernel=best.kernel,
            inputs={
                "total_intervals": float(total_intervals),
                "num_vertices": float(len(query.vertices)),
                "num_edges": float(len(query.edges)),
                "k": float(query.k),
                "estimated_combinations": float(best.combinations),
                "priced_seconds": best.seconds,
                # Phase (a) work spent planning (attributed to the statistics
                # phase by the evaluators, so auto-planned reports stay honest).
                "probe_seconds": counting_seconds,
                "probe_cached": 1.0 if probe_cached else 0.0,
            },
            reasons=reasons,
            candidates=priced,
            margin=margin,
        )
        return knobs, explanation

    # --------------------------------------------------------------- streaming
    def should_replan(
        self,
        *,
        base_size: int,
        appended_since_plan: int,
        batch_size: int,
        out_of_range: int = 0,
    ) -> tuple[bool, str]:
        """Decide between incremental evaluation and a full replan for one batch.

        Batch-size-aware cost term: a full replan costs one fresh phase
        (a)+(b) pass over ``total = base + appended`` intervals, while an
        incremental batch costs roughly ``batch_size * (1 + growth)`` — the
        batch itself plus candidate work that degrades as the dataset outgrows
        the granule boundaries the plan was built on (appended intervals clamp
        into ever-fatter border buckets, so ``growth = appended/base`` measures
        the lost selectivity).  Projected over a dataset-doubling horizon of
        ``total/batch_size`` batches, incremental evaluation stays cheaper
        while ``1 + growth < replan_cost_factor``; past that the amortised
        replan wins, which yields the classic doubling schedule (O(log n)
        replans over an append-only stream).  A batch that mostly falls outside
        the cached granule range forces the replan immediately — clamped
        statistics stay sound (border boxes widen) but cannot discriminate such
        data at all.
        """
        if base_size <= 0:
            return True, "no base plan yet: full evaluation required"
        if (
            batch_size > 0
            and out_of_range / batch_size > self.replan_out_of_range_fraction
        ):
            return True, (
                f"replan: {out_of_range}/{batch_size} batch intervals fall outside "
                f"the cached granule range (> {self.replan_out_of_range_fraction:.0%})"
            )
        growth = appended_since_plan / base_size
        if 1.0 + growth >= self.replan_cost_factor:
            return True, (
                f"replan: appended {appended_since_plan} intervals on a base of "
                f"{base_size} (growth {growth:.2f}); incremental cost "
                f"~batch*(1+growth) now exceeds an amortised fresh pass "
                f"(factor {self.replan_cost_factor})"
            )
        return False, (
            f"incremental: growth {growth:.2f} and batch {batch_size} keep "
            f"per-batch cost under {self.replan_cost_factor}x of an amortised replan"
        )

    # ----------------------------------------------------------------- pricing
    @staticmethod
    def _kernels(query: RTJQuery, reasons: list[str]) -> Sequence[str]:
        """The kernels worth pricing: all of them, except for hybrid queries.

        Hybrid queries stay scalar: attribute constraints force a per-candidate
        Python filter inside the columnar kernels, which voids their premise.
        """
        if query.has_attribute_constraints:
            reasons.append(
                "kernel=scalar: attribute constraints require per-candidate "
                "Python filtering, which the columnar kernels cannot amortise"
            )
            return ("scalar",)
        return KERNELS

    def _price(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        space: CombinationSpace,
        num_granules: int,
        kernels: Sequence[str],
        total_intervals: int,
    ) -> list[PricedPlan]:
        """One candidate per kernel at one granularity."""
        cluster = context.cluster
        table = BoundsEstimator(query, space).loose_table()
        if query.has_attribute_constraints:  # phase (b) keeps every combination
            selected = table.descending(table.upper)
        else:
            selected = top_bucket_rows(table, query.k)
        # DTB deals the selected rows out in score order: one reducer's share is
        # every num_reducers-th of them, and the reducers work alike.
        work = _dry_run(query, space, table.take(selected[:: cluster.num_reducers]))
        reducers = min(cluster.num_reducers, len(selected))

        bounds = len(table) * UNIT_COSTS["loose_per_combination"]
        distribution = len(selected) * UNIT_COSTS["dtb_per_combination"]

        plans = []
        for kernel in kernels:
            join = reducers * kernel_seconds(kernel, work.steps, work.candidates, work.scanned)
            if kernel == "sweep":
                join += total_intervals * UNIT_COSTS["sweep_sort"]
            plans.append(PricedPlan(num_granules, kernel, len(table), bounds, distribution, join))
        return plans

    @staticmethod
    def _explain(
        best: PricedPlan,
        priced: Sequence[PricedPlan],
        margin: float,
        skipped: Sequence[str],
        reasons: list[str],
    ) -> None:
        """One reason line per knob: the winner against its priced alternatives."""
        reasons.append(
            "; ".join(
                [
                    f"g={best.num_granules}: {best.combinations} combinations priced "
                    f"{best.seconds * 1e3:.1f} ms (bounds {best.bounds_seconds * 1e3:.2f} + "
                    f"distribution {best.distribution_seconds * 1e3:.1f} + join "
                    f"{best.join_seconds * 1e3:.1f}), the next granularity {margin:.2f}x that",
                    *skipped,
                ]
            )
        )
        reasons.append(
            "strategy=loose: fixed — joint bounds cost a solver call per combination "
            "(milliseconds each) and the statistics cannot say what they would prune"
        )
        others = ", ".join(
            f"{plan.kernel} {plan.join_seconds * 1e3:.1f}"
            for plan in priced
            if plan.num_granules == best.num_granules and plan.kernel != best.kernel
        )
        if others:
            reasons.append(
                f"kernel={best.kernel}: join priced {best.join_seconds * 1e3:.2f} ms "
                f"against {others}"
            )

    def _choose_assigner(self, query: RTJQuery, reasons: list[str]) -> str:
        if _is_boolean(query):
            reasons.append(
                "assigner=lpt: Boolean predicates make every score 0/1, so DTB's "
                "score-ordered assignment carries no information"
            )
            return "lpt"
        reasons.append(
            "assigner=dtb: scored predicates, spread high-scoring work evenly (Figure 8)"
        )
        return "dtb"
