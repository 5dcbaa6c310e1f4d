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

from ..columnar import combine_scores_v
from ..core.bounds import BoundsEstimator, CombinationSpace, CombinationTable
from ..core.local_join import KERNELS
from ..core.operators import collections_by_name
from ..core.statistics import collect_statistics
from ..core.top_buckets import top_bucket_rows
from ..query.graph import RTJQuery
from ..temporal.comparators import PredicateParams
from ..temporal.comparison_plan import ComparisonPlan
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


_GRID_CELLS = 243
"""Cap on the joint score grid of all edges, ``(levels + 1) ** edges``."""


def _levels(num_edges: int) -> int:
    """Steps of the per-edge score grid: 4, halved while the joint grid of all
    edges would pass :data:`_GRID_CELLS` (2 still holds 0, 1/2 and 1)."""
    levels = 4
    while levels > 2 and (levels + 1) ** num_edges > _GRID_CELLS:
        levels //= 2
    return levels


def _uniform_difference_cdf(x0, x1, y0, y1, t):
    """``P(Y - X <= t)`` for independent ``X ~ U[x0, x1]`` and ``Y ~ U[y0, y1]``
    (broadcasting); a range of zero width is a point."""
    wx, wy = x1 - x0, y1 - y0
    t = np.clip(t, y0 - x1 - 1.0, y1 - x0 + 1.0)  # Y - X never leaves [y0 - x1, y1 - x0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.where(
            wx > 0.0,
            np.where(
                wy > 0.0,
                (_swept(x1 + t - y0, wy) - _swept(x0 + t - y0, wy)) / (wx * wy),
                np.clip(x1 + t - y0, 0.0, wx) / wx,
            ),
            np.where(wy > 0.0, np.clip(x0 + t - y0, 0.0, wy) / wy, y0 - x0 <= t),
        )
    return np.clip(cdf, 0.0, 1.0)


def _swept(z, width):
    """The integral of ``clip(s, 0, width)`` over ``s`` up to ``z``."""
    return np.where(z <= 0.0, 0.0, np.where(z <= width, z * z / 2, width * (z - width / 2)))


def _vertex_starts(box: np.ndarray, length: float) -> tuple[np.ndarray, ...]:
    """``(low, high, length)`` of a bucket's start range when its intervals all
    last the collection's average length, clipped to what the bucket allows."""
    start_low, start_high, end_low, end_high = box
    length = np.clip(length, np.maximum(end_low - start_high, 0.0), end_high - start_low)
    low = np.maximum(start_low, end_low - length)
    return low, np.minimum(start_high, end_high - length), length


def _edge_masses(
    plans: Sequence[ComparisonPlan],
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
    levels: int,
) -> np.ndarray:
    """``(rows, levels + 1)``: each row's share of pairs whose edge score
    rounds to ``j / levels``.

    Scores of 0 and 1 are kept exact, since ties pile up there: 0 off the
    predicate's support and 1 on its plateaus.  A slope score goes to its
    nearest interior grid value.  ``plans`` are the edge predicate's
    conjuncts over ``x`` (the source) and ``y``, and ``source`` and
    ``target`` the two vertices' :func:`_vertex_starts`, so every conjunct
    scores a linear form of two uniform, independent starts.  The forms of the one difference
    ``u = target start - source start`` (every Allen predicate's) intersect
    exactly; any other form counts as an independent factor, its value taken
    as uniform over its range.  An exact equality is one time unit wide.
    """
    (x0, x1, x_length), (y0, y1, y_length) = (
        [column[None, :] for column in side] for side in (source, target)
    )
    # Rows of "score at least": above 0, the interior cell edges, then 1.
    level = np.array([0.0, *((j - 0.5) / levels for j in range(2, levels)), 1.0])[:, None]
    low, high, factor = -math.inf, math.inf, 1.0
    for plan in plans:
        if plan.kind == "equals":
            reach = np.maximum(plan.lam + plan.rho * (1.0 - level), 0.5)
            d_low, d_high = -reach, reach
        else:
            d_low, d_high = plan.lam + plan.rho * level, np.full_like(level, math.inf)
        a, b, c, d = plan.coefficients
        alpha, beta = a + b, c + d
        offset = plan.constant + b * x_length + d * y_length
        if alpha == -beta != 0.0:  # beta * u + offset
            ends = ((d_low - offset) / beta, (d_high - offset) / beta)
            low, high = np.maximum(low, ends[beta < 0.0]), np.minimum(high, ends[beta > 0.0])
            continue
        spread = abs(alpha) * (x1 - x0) + abs(beta) * (y1 - y0)
        d_min = np.minimum(alpha * x0, alpha * x1) + np.minimum(beta * y0, beta * y1) + offset
        inside = np.minimum(d_min + spread, d_high) - np.maximum(d_min, d_low)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = factor * np.where(
                spread > 0.0,
                np.clip(inside / spread, 0.0, 1.0),
                (d_min >= d_low) & (d_min <= d_high),
            )
    bounds = np.stack(np.broadcast_arrays(high, low))
    below_high, below_low = _uniform_difference_cdf(x0, x1, y0, y1, bounds)
    reach = np.where(low <= high, np.maximum(below_high - below_low, 0.0), 0.0) * factor
    rows = reach.shape[1]
    return -np.diff(np.vstack([np.ones(rows), reach, np.zeros(rows)]), axis=0).T


def _grid(masses: Sequence[np.ndarray], levels: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Every joint grid value of some edges: one ``(cells,)`` value column per
    edge and each row's ``(rows, cells)`` probability, edges independent."""
    cells = np.indices((levels + 1,) * len(masses)).reshape(len(masses), -1)
    probability = np.ones((len(masses[0]), cells.shape[1]))
    for mass, index in zip(masses, cells):
        probability = probability * mass[:, index]
    return [index / levels for index in cells], probability


def _combine(query: RTJQuery, parts: Sequence[object], shape: tuple[int, int]) -> np.ndarray:
    """``aggregation.combine`` over broadcast ``(rows, cells)`` edge columns."""
    flat = [np.broadcast_to(np.asarray(part, dtype=float), shape).ravel() for part in parts]
    return combine_scores_v(query.aggregation, flat, flat[0].size).reshape(shape)


@dataclass(frozen=True)
class _JoinWork:
    """What the dry run expects the reducers' local joins to do, summed."""

    steps: float
    candidates: float
    scanned: float
    """Bucket elements a full-column mask touches: each step's whole bucket."""


def _dry_run(
    estimator: BoundsEstimator, table: CombinationTable, selected: np.ndarray, reducers: int
) -> _JoinWork:
    """Expected join work of ``reducers`` reducers dealt the ``selected`` rows
    in turn (DTB deals them out in score order), each walking its own share.

    Each row's edge scores are a grid distribution (:func:`_edge_masses`) with
    the ties at 0 and 1 exact.  A row is walked against the frontier its
    reducer expects by then: the k-th score of the tuples of its earlier rows
    (none while fewer than ``k`` precede; the first row's lower bound, as the
    heap fills there).  A reducer stops at its first row whose upper bound the
    frontier reaches.  A walked row is priced as the strict walk runs it: a
    partial tuple extends only while its estimate *exceeds* the frontier, and
    a step examines the share of the next bucket inside the driver edge's
    threshold box, which is the support when a driver score of 0 leaves the
    estimate at the frontier.  Tuples tied at the frontier cost nothing.
    """
    query, space = estimator.query, estimator.space
    if not len(selected):
        return _JoinWork(0.0, 0.0, 0.0)
    edges = estimator.objective.edges
    levels = _levels(len(edges))
    slot = {vertex: at for at, vertex in enumerate(table.vertices)}
    boxes = {vertex: estimator.box_columns(vertex) for vertex in query.vertices}
    plans = [edge.predicate.comparison_plans() for edge in query.edges]
    average = space.statistics.average_lengths
    lengths = {}
    for vertex in query.vertices:
        name = query.collections[vertex].name
        lengths[vertex] = (
            average[name] if name in average else query.collections[vertex].average_length()
        )

    def masses_of(rows: np.ndarray) -> list[np.ndarray]:
        starts = {
            vertex: _vertex_starts(
                boxes[vertex][:, table.positions[rows, slot[vertex]]], lengths[vertex]
            )
            for vertex in query.vertices
        }
        return [
            _edge_masses(edge_plans, starts[edge.source], starts[edge.target], levels)
            for edge_plans, edge in zip(plans, edges)
        ]

    # Row p of every share at once, (p, reducer) -> selected[p * reducers + reducer],
    # read in doubling prefixes: a walk rarely needs a whole share.
    longest = -(-len(selected) // reducers)
    taken, read = min(16, longest), 0
    masses = [np.empty((0, levels + 1)) for _ in edges]
    values, _ = _grid(masses, levels)
    # The tuple scores the grid can take, descending, and which one each cell is.
    scores, cell_score = np.unique(
        -_combine(query, values, (1, len(values[0])))[0], return_inverse=True
    )
    scores, by_score = -scores, cell_score.ravel()[:, None] == np.arange(len(scores))
    tail = np.empty((0, len(scores)))
    while True:
        index = np.arange(taken * reducers).reshape(taken, reducers)
        valid = index < len(selected)
        rows = selected[np.minimum(index, len(selected) - 1)]
        fresh = masses_of(rows.ravel()[read:])
        masses = [np.vstack([old, new]) for old, new in zip(masses, fresh)]
        tail = np.vstack([tail, np.cumsum(_grid(fresh, levels)[1] @ by_score, axis=1)])
        read = rows.size
        results = np.where(valid, table.nb_res[rows].astype(float), 0.0)[..., None]
        # expected[p, r, j]: tuples of share r's rows before p scoring at least
        # scores[j]; the score where that reaches k is the expected k-th.
        counted = results * tail.reshape(taken, reducers, -1)
        expected = np.cumsum(counted, axis=0) - counted
        reached = expected >= query.k
        frontier = np.where(reached.any(axis=2), scores[reached.argmax(axis=2)], -math.inf)
        frontier[0] = np.where(results[0, :, 0] >= query.k, table.lower[rows[0]], -math.inf)
        stops = frontier >= np.where(valid, table.upper[rows], -math.inf)
        stops[0] = False
        if stops.any(axis=0).all() or taken == longest:
            break
        taken = min(2 * taken, longest)
    walked = np.where(stops.any(axis=0), stops.argmax(axis=0), taken)
    walking = (np.arange(taken)[:, None] < walked[None, :]) & valid
    picked = walking.ravel()
    rows, frontier = rows.ravel()[picked], frontier.ravel()[picked][:, None]
    masses = [mass[picked] for mass in masses]
    ubs = table.edge_bounds[rows, :, 1]

    order = query.join_order()
    counts = [
        np.array([space.count(vertex, key) for key in table.keys[slot[vertex]]], dtype=float)[
            table.positions[rows, slot[vertex]]
        ]
        for vertex in order
    ]
    steps = candidates = scanned = 0.0
    prefix = counts[0]
    resolved: list[int] = []
    for depth in range(1, len(order)):
        vertex, bound = order[depth], order[:depth]
        connecting = [
            index
            for index, edge in enumerate(query.edges)
            if (edge.source == vertex and edge.target in bound)
            or (edge.target == vertex and edge.source in bound)
        ]
        driver = connecting[0]
        grid_values, probability = _grid([masses[index] for index in (*resolved, driver)], levels)
        shape = probability.shape
        value_of = dict(zip((*resolved, driver), grid_values))
        estimate = [value_of[e] if e in resolved else ubs[:, e : e + 1] for e in range(len(edges))]
        alive = _combine(query, estimate, shape) > frontier
        estimate[driver] = value_of[driver]
        reaches = _combine(query, estimate, shape) >= frontier
        estimate[driver] = 0.0
        # The walk boxes nothing at a frontier of 0 or while the heap fills.
        whole = (_combine(query, estimate, shape) > frontier) | (frontier <= 0.0)
        boxed = alive & (whole | (reaches & (value_of[driver] > 0.0)))
        extending = prefix * (probability * alive).sum(axis=1)
        steps += extending.sum()
        scanned += (extending * counts[depth]).sum()
        candidates += (prefix * counts[depth] * (probability * boxed).sum(axis=1)).sum()
        prefix = prefix * counts[depth]
        resolved += connecting
    return _JoinWork(float(steps), float(candidates), float(scanned))


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
        estimator = BoundsEstimator(query, space)
        table = estimator.loose_table()
        if query.has_attribute_constraints:  # phase (b) keeps every combination
            selected = table.descending(table.upper)
        else:
            selected = top_bucket_rows(table, query.k)
        reducers = min(cluster.num_reducers, len(selected))
        work = _dry_run(estimator, table, selected, reducers)

        bounds = len(table) * UNIT_COSTS["loose_per_combination"]
        distribution = len(selected) * UNIT_COSTS["dtb_per_combination"]

        plans = []
        for kernel in kernels:
            join = kernel_seconds(kernel, work.steps, work.candidates, work.scanned)
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
