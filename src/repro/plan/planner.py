"""Cost-based planning: choose TKIJ's knobs from collected statistics.

The paper's experiments show that no single configuration dominates: the best
granularity ``g`` depends on data volume and skew (Figure 10), the best
TopBuckets strategy on the size of the combination space (Figure 9), and the
best workload assigner on whether scores are informative (Figure 8).  The
:class:`AutoPlanner` encodes those regimes as an explicit cost heuristic over
:class:`~repro.core.statistics.DatasetStatistics` — collected once through the
context's :class:`~repro.plan.StatisticsCache`, so probing is amortised — and
records *why* each knob was chosen in a :class:`PlanExplanation`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..core.operators import collections_by_name
from ..core.statistics import DatasetStatistics
from ..query.graph import RTJQuery
from ..temporal.comparators import PredicateParams
from .context import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .feedback import CostStore

__all__ = ["AutoPlanner", "PlanExplanation"]


@dataclass
class PlanExplanation:
    """The planner's chosen knobs, the statistics they were derived from, and why."""

    algorithm: str
    num_granules: int
    strategy: str
    assigner: str
    kernel: str = "scalar"
    transfer: str | None = None
    """Chosen shuffle transfer strategy (``None`` leaves the engine's
    backend-derived default in place)."""
    inputs: dict[str, float] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)

    def describe(self) -> dict[str, Any]:
        """Flat summary merged into result tables (prefixed ``plan_`` by callers)."""
        summary: dict[str, Any] = {
            "num_granules": self.num_granules,
            "strategy": self.strategy,
            "assigner": self.assigner,
            "kernel": self.kernel,
        }
        if self.transfer is not None:
            summary["transfer"] = self.transfer
        summary.update(self.inputs)
        return summary

    def summary(self) -> str:
        """One-line human-readable account of the plan."""
        choices = (
            f"g={self.num_granules} strategy={self.strategy} assigner={self.assigner} "
            f"kernel={self.kernel}"
        )
        if self.transfer is not None:
            choices += f" transfer={self.transfer}"
        if not self.reasons:
            return choices
        return f"{choices} ({'; '.join(self.reasons)})"


def _bucket_skew(statistics: DatasetStatistics) -> float:
    """Max/mean cardinality over non-empty buckets, across collections (>= 1)."""
    skew = 1.0
    for matrix in statistics.matrices.values():
        counts = [count for count in matrix.counts.values() if count > 0]
        if not counts:
            continue
        mean = sum(counts) / len(counts)
        if mean > 0:
            skew = max(skew, max(counts) / mean)
    return skew


def _is_boolean(query: RTJQuery) -> bool:
    """Whether every edge predicate carries the Boolean parameter set (PB)."""
    boolean = PredicateParams.boolean()
    return all(edge.predicate.params == boolean for edge in query.edges)


@dataclass
class AutoPlanner:
    """Chooses granularity, TopBuckets strategy and assigner from statistics.

    The planner probes the dataset once at ``probe_granules`` (through the
    context's statistics cache, so the probe is free when the dataset was seen
    before) and extrapolates the non-empty bucket count to each candidate
    granularity: buckets are 2-D (start granule, end granule), so the count
    scales roughly with ``g**2`` until it saturates at the collection size.
    """

    probe_granules: int = 10
    granule_candidates: tuple[int, ...] = (5, 10, 20, 40)
    combination_budget: int = 20_000
    """Upper bound on the estimated combination count phase (b) may enumerate."""
    brute_force_budget: int = 64
    """Combination spaces at most this large get joint (tight) bounds outright."""
    skew_threshold: float = 4.0
    """Bucket skew above which finer granularities are favoured."""
    vector_candidate_threshold: float = 64.0
    """Expected candidate tuples per bucket combination above which the local
    join switches to the vectorized columnar kernel.  Small combinations are
    dominated by per-batch numpy dispatch overhead; large ones by per-candidate
    Python interpretation, which is exactly what the vector kernel removes."""
    sweep_candidate_threshold: float = 4096.0
    """Expected candidate tuples per bucket combination above which the
    full-column ``box_mask`` scans of the vector kernel start to dominate and
    the sweep kernel's sorted-window resolution pays for its per-bucket sort."""
    sweep_selectivity: float = 0.01
    """``k / est_candidates`` ratio below which threshold boxes are expected to
    stay selective: a small k over a huge candidate space keeps the pruning
    windows narrow, which is where sweeping beats re-scanning.  A large k
    relative to the candidates means most extension steps scan most of the
    bucket anyway, so the vector kernel's single fused mask wins."""
    replan_cost_factor: float = 2.0
    """Full replan threshold: replan once the projected incremental cost of the
    next batches exceeds this multiple of a fresh phase (a)+(b) pass."""
    replan_out_of_range_fraction: float = 0.25
    """Fraction of a batch outside the cached granule range that forces a replan.
    A selectivity rule, not a correctness one: out-of-range intervals clamp into
    the border buckets, whose boxes widen to cover them (``BucketMatrix.bucket_box``),
    so every bound stays sound but gets looser and streaming prunes less."""
    cost_store: "CostStore | None" = None
    """Optional observed-cost store (:class:`~repro.plan.CostStore`).  When it
    holds enough observations for the query's workload fingerprint, learned
    per-candidate kernel cost ratios replace the static
    :attr:`vector_candidate_threshold`/:attr:`sweep_candidate_threshold`
    heuristic; cold workloads fall back to the static rules.  The chosen
    source is recorded in :attr:`PlanExplanation.reasons` either way."""
    calibration_min_observations: int = 3
    """Observations a kernel needs (per workload fingerprint) before its
    observed cost participates in calibration — the cold-start threshold."""

    def plan(
        self, query: RTJQuery, context: ExecutionContext
    ) -> tuple[dict[str, Any], PlanExplanation]:
        """Return ``(knobs, explanation)`` for evaluating ``query`` in ``context``."""
        collections = collections_by_name(query)
        probe_started = time.perf_counter()
        statistics, probe_cached = context.statistics.get_or_collect(
            collections, self.probe_granules
        )
        probe_seconds = time.perf_counter() - probe_started

        sizes = {name: len(collection) for name, collection in collections.items()}
        nonempty = {
            name: max(1, statistics.nonempty_bucket_count(name)) for name in collections
        }
        skew = _bucket_skew(statistics)
        reasons: list[str] = []

        workload: str | None = None
        if self.cost_store is not None:
            from .feedback import workload_fingerprint

            workload = workload_fingerprint(query, collections)

        num_granules, est_combos = self._choose_granularity(
            query, sizes, nonempty, skew, reasons
        )
        strategy = self._choose_strategy(query, est_combos, reasons)
        assigner = self._choose_assigner(query, skew, reasons)
        kernel, est_candidates = self._choose_kernel(
            query, sizes, nonempty, num_granules, reasons, workload=workload
        )
        transfer = self._choose_transfer(context, kernel, reasons)

        inputs = {
            "total_intervals": float(sum(sizes.values())),
            "num_vertices": float(len(query.vertices)),
            "num_edges": float(len(query.edges)),
            "k": float(query.k),
            "bucket_skew": skew,
            "estimated_combinations": float(est_combos),
            "estimated_candidates_per_combination": est_candidates,
            "probe_granules": float(self.probe_granules),
            # Phase (a) work spent probing (attributed to the statistics phase
            # by TKIJAlgorithm.execute, so auto-planned reports stay honest).
            "probe_seconds": probe_seconds,
            "probe_cached": 1.0 if probe_cached else 0.0,
        }
        knobs = {
            "num_granules": num_granules,
            "strategy": strategy,
            "assigner": assigner,
            "kernel": kernel,
        }
        if transfer is not None:
            knobs["transfer"] = transfer
        explanation = PlanExplanation(
            algorithm="tkij",
            num_granules=num_granules,
            strategy=strategy,
            assigner=assigner,
            kernel=kernel,
            transfer=transfer,
            inputs=inputs,
            reasons=reasons,
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

    # ----------------------------------------------------------------- choices
    def _estimated_buckets(
        self, name: str, sizes: Mapping[str, int], nonempty: Mapping[str, int], num_granules: int
    ) -> int:
        """Extrapolated non-empty bucket count of one collection at ``num_granules``."""
        scale = (num_granules / self.probe_granules) ** 2
        return max(
            1,
            min(
                sizes[name],
                num_granules * (num_granules + 1) // 2,
                max(1, round(nonempty[name] * scale)),
            ),
        )

    def _estimated_combinations(
        self,
        query: RTJQuery,
        sizes: Mapping[str, int],
        nonempty: Mapping[str, int],
        num_granules: int,
    ) -> int:
        """Estimated size of the bucket-combination space at ``num_granules``."""
        est = 1
        for vertex in query.vertices:
            name = query.collections[vertex].name
            est *= self._estimated_buckets(name, sizes, nonempty, num_granules)
        return est

    def _choose_kernel(
        self,
        query: RTJQuery,
        sizes: Mapping[str, int],
        nonempty: Mapping[str, int],
        num_granules: int,
        reasons: list[str],
        workload: str | None = None,
    ) -> tuple[str, float]:
        """Pick the local-join kernel from the expected per-combination work.

        The expected candidate-tuple count of one bucket combination is the
        product of the mean bucket cardinalities at the chosen granularity.
        Above :attr:`vector_candidate_threshold` the interpreted per-candidate
        loop dominates and the columnar kernel wins; below it the per-batch
        numpy dispatch overhead does, and the scalar kernel stays faster.
        Very large combinations with a selective top-k (small ``k`` relative to
        the candidate space, :attr:`sweep_selectivity`) go further: there the
        vector kernel's per-step full-column scans dominate and the sweep
        kernel resolves the same threshold boxes as ``O(log n + window)``
        searchsorted windows over endpoint-sorted views (DESIGN.md §11).
        Hybrid queries stay scalar: attribute constraints force a per-candidate
        Python filter inside the columnar kernels, which voids their premise.
        """
        if query.has_attribute_constraints:
            reasons.append(
                "kernel=scalar: attribute constraints require per-candidate "
                "Python filtering, which the columnar kernels cannot amortise"
            )
            return "scalar", 0.0
        est_candidates = 1.0
        for vertex in query.vertices:
            name = query.collections[vertex].name
            buckets = self._estimated_buckets(name, sizes, nonempty, num_granules)
            est_candidates *= sizes[name] / buckets
        if workload is not None and self.cost_store is not None:
            calibration = self.cost_store.calibrated_kernel(
                workload, self.calibration_min_observations
            )
            if calibration is not None:
                kernel, costs = calibration
                ranking = ", ".join(
                    f"{name}={costs[name]:.3g}s" for name in sorted(costs)
                )
                reasons.append(
                    f"kernel={kernel}: observed calibration — lowest mean "
                    f"per-candidate join cost over {len(costs)} observed kernels "
                    f"({ranking}; >= {self.calibration_min_observations} "
                    f"observations each for this workload fingerprint)"
                )
                return kernel, est_candidates
            reasons.append(
                "kernel cost model: static heuristic (cost store cold for this "
                "workload fingerprint)"
            )
        if (
            est_candidates >= self.sweep_candidate_threshold
            and query.k <= self.sweep_selectivity * est_candidates
        ):
            reasons.append(
                f"kernel=sweep: ~{est_candidates:.0f} candidate tuples per "
                f"combination (>= {self.sweep_candidate_threshold:.0f}) with "
                f"k={query.k} keeping threshold boxes selective "
                f"(k/candidates {query.k / est_candidates:.4f} <= "
                f"{self.sweep_selectivity}); sorted-window resolution replaces "
                f"full-bucket scans"
            )
            return "sweep", est_candidates
        if est_candidates >= self.vector_candidate_threshold:
            reasons.append(
                f"kernel=vector: ~{est_candidates:.0f} candidate tuples per "
                f"combination (>= {self.vector_candidate_threshold:.0f}), batch "
                f"scoring amortises the numpy dispatch"
            )
            return "vector", est_candidates
        reasons.append(
            f"kernel=scalar: ~{est_candidates:.0f} candidate tuples per combination "
            f"(< {self.vector_candidate_threshold:.0f}), batches too small to "
            f"amortise vectorization"
        )
        return "scalar", est_candidates

    def _choose_transfer(
        self, context: ExecutionContext, kernel: str, reasons: list[str]
    ) -> str | None:
        """Pick the shuffle transfer strategy, or defer to the engine's default.

        Shared-memory transfer only pays on the process backend (elsewhere the
        inline zero-copy path already wins) and only when the vector kernel
        keeps records in columnar batches — scalar jobs shuffle individual
        intervals, which ``shm`` would ship by value anyway while paying the
        segment bookkeeping.  Sweep jobs ship columnar batches too but stay on
        the pickle default: a segment descriptor carries only the raw columns,
        so ``shm`` would make every reducer replica re-sort its buckets, while
        a pickle ships the map-side endpoint-sorted views with the batch.  An
        explicit ``ClusterConfig.transfer`` is the user's call and is never
        overridden.
        """
        cluster = context.cluster
        if cluster.transfer is not None:
            reasons.append(
                f"transfer={cluster.transfer}: fixed by the cluster configuration"
            )
            return None
        if cluster.backend == "process" and kernel == "vector":
            reasons.append(
                "transfer=shm: process backend with columnar batches, segment "
                "descriptors replace per-record pickles across the boundary"
            )
            return "shm"
        return None

    def _choose_granularity(
        self,
        query: RTJQuery,
        sizes: Mapping[str, int],
        nonempty: Mapping[str, int],
        skew: float,
        reasons: list[str],
    ) -> tuple[int, int]:
        # Enough combinations that the top-k work can be isolated and pruned
        # (skewed data benefits from finer buckets), but never past the budget
        # phase (b) can afford to enumerate.
        target = max(256, 4 * query.k)
        if skew >= self.skew_threshold:
            target *= 4
        best_g, best_est, best_distance = None, None, None
        for candidate in self.granule_candidates:
            est = self._estimated_combinations(query, sizes, nonempty, candidate)
            if est > self.combination_budget:
                continue
            distance = abs(est - target)
            # Tie-break towards the smaller granularity: phase (b) is cheaper.
            if best_distance is None or distance < best_distance:
                best_g, best_est, best_distance = candidate, est, distance
        if best_g is None:
            best_g = min(self.granule_candidates)
            best_est = self._estimated_combinations(query, sizes, nonempty, best_g)
            reasons.append(
                f"g={best_g}: every candidate granularity exceeds the combination "
                f"budget {self.combination_budget}; falling back to the coarsest"
            )
        else:
            reasons.append(
                f"g={best_g}: ~{best_est} combinations, closest to target {target} "
                f"(skew {skew:.1f}) within budget {self.combination_budget}"
            )
        return best_g, int(best_est)

    def _choose_strategy(
        self, query: RTJQuery, est_combos: int, reasons: list[str]
    ) -> str:
        if est_combos <= self.brute_force_budget:
            reasons.append(
                f"strategy=brute-force: ~{est_combos} combinations fit the tight-bounds "
                f"budget {self.brute_force_budget}"
            )
            return "brute-force"
        if len(query.edges) >= 3 or len(query.vertices) >= 4:
            reasons.append(
                "strategy=two-phase: multi-edge query, loose pairwise bounds compound "
                "slack so tight refinement of the survivors pays off (Figure 9)"
            )
            return "two-phase"
        reasons.append(
            "strategy=loose: pairwise bounds suffice for small query graphs (Figure 9)"
        )
        return "loose"

    def _choose_assigner(
        self, query: RTJQuery, skew: float, reasons: list[str]
    ) -> str:
        if _is_boolean(query):
            reasons.append(
                "assigner=lpt: Boolean predicates make every score 0/1, so DTB's "
                "score-ordered assignment carries no information"
            )
            return "lpt"
        reasons.append(
            f"assigner=dtb: scored predicates, spread high-scoring work evenly "
            f"(bucket skew {skew:.1f}, Figure 8)"
        )
        return "dtb"
