"""TopBuckets: pruning the bucket-combination space (TKIJ phase b, part 2).

``getTopBuckets`` (Algorithm 1) keeps the subset ``Ω_k,S`` of combinations that is
sufficient to answer the query exactly: every pruned combination is dominated by
retained combinations holding at least ``k`` results with higher (or equal) scores
(Definition 2).  Three strategies trade bound tightness against solver work
(Algorithm 2):

* ``brute-force`` — joint (tight) bounds for every combination;
* ``loose``       — pairwise bounds per edge, aggregated; a single pruning pass;
* ``two-phase``   — loose pruning first, then tight bounds for the survivors and a
  second pruning pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..query.graph import RTJQuery
from ..solver import BranchAndBoundSolver
from .bounds import BoundsEstimator, BucketCombination, CombinationSpace, CombinationTable
from .statistics import DatasetStatistics

__all__ = [
    "get_top_buckets",
    "top_bucket_rows",
    "TopBucketsResult",
    "TopBucketsSelector",
    "STRATEGIES",
]

STRATEGIES = ("brute-force", "loose", "two-phase")


def top_bucket_rows(table: CombinationTable, k: int) -> np.ndarray:
    """Algorithm 1 as row numbers of ``table``: a sufficient set for the top-k.

    A lower bound ``kthResLB`` on the score of the k-th result is derived from the
    combinations with the highest lower bounds; every combination whose upper bound
    exceeds that threshold is kept (plus enough combinations to cover ``k``
    results).  Rows come back in descending upper-bound order (ties in key
    order) — the order DTB and the local join walk them in.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    live = np.flatnonzero(table.nb_res)
    if not len(live):
        return live
    if len(live) < len(table):
        table = table.take(live)

    by_lower = table.descending(table.lower)
    covered = np.cumsum(table.nb_res[by_lower])
    # First combination at which k results are covered; the last one when never.
    kth_res_lb = table.lower[by_lower[min(np.searchsorted(covered, k), len(table) - 1)]]

    by_upper = table.descending(table.upper)
    sizes = table.nb_res[by_upper]
    collected_before = np.cumsum(sizes) - sizes
    # The paper's Algorithm 1 stops at "UB <= kthResLB"; the strict comparison is
    # required so that, in case of ties at the boundary, the combinations whose
    # lower bounds *support* kthResLB are themselves retained (Definition 2 asks
    # the dominating set to be a subset of the selection).
    stop = (collected_before >= k) & (table.upper[by_upper] < kth_res_lb)
    return live[by_upper[: np.argmax(stop)] if stop.any() else by_upper]


def get_top_buckets(combinations: Sequence[BucketCombination], k: int) -> CombinationTable:
    """Algorithm 1: the sufficient set itself (see :func:`top_bucket_rows`)."""
    table = CombinationTable.of(combinations)
    return table.take(top_bucket_rows(table, k))


@dataclass
class TopBucketsResult:
    """Output of the TopBuckets phase with the statistics the experiments report."""

    selected: Sequence[BucketCombination]
    strategy: str
    total_combinations: int = 0
    total_results: int = 0
    selected_results: int = 0
    pairs_bounded: int = 0
    tight_bounds_computed: int = 0
    elapsed_seconds: float = 0.0

    @property
    def pruned_results_fraction(self) -> float:
        """Fraction of potential results eliminated (the grey curve of Figure 10c)."""
        if self.total_results == 0:
            return 0.0
        return 1.0 - self.selected_results / self.total_results

    @property
    def selected_count(self) -> int:
        """|Ω_k,S| — the number of selected combinations."""
        return len(self.selected)

    def describe(self) -> dict[str, float]:
        """Flat summary used by the experiment reports."""
        return {
            "strategy_combinations": float(self.total_combinations),
            "selected_combinations": float(self.selected_count),
            "total_results": float(self.total_results),
            "selected_results": float(self.selected_results),
            "pruned_results_fraction": self.pruned_results_fraction,
            "pairs_bounded": float(self.pairs_bounded),
            "tight_bounds_computed": float(self.tight_bounds_computed),
            "topbuckets_seconds": self.elapsed_seconds,
        }


@dataclass
class TopBucketsSelector:
    """Runs one TopBuckets strategy for a query over collected statistics."""

    strategy: str = "loose"
    solver: BranchAndBoundSolver = field(default_factory=BranchAndBoundSolver)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")

    def run(
        self,
        query: RTJQuery,
        statistics: DatasetStatistics,
        space: CombinationSpace | None = None,
    ) -> TopBucketsResult:
        """Compute ``Ω_k,S`` for ``query`` with this selector's strategy."""
        started = time.perf_counter()
        space = space or CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space, solver=self.solver)
        table = estimator.loose_table()
        total_combinations = len(table)
        total_results = table.total_results()
        tight_computed = 0
        if query.has_attribute_constraints:
            # Hybrid queries (attribute constraints on edges): the purely-temporal
            # statistics over-count the results a combination can contribute, so the
            # count-based pruning of Definition 2 is no longer sound.  Keep every
            # combination — bounds are still computed so DTB and the local join's
            # early termination retain their score ordering.
            selected = table
        else:
            if self.strategy == "two-phase":
                table = get_top_buckets(table, query.k)
            if self.strategy != "loose":
                table = estimator.tighten(table)
                tight_computed = len(table)
            selected = get_top_buckets(table, query.k)
        return TopBucketsResult(
            selected=selected,
            strategy=self.strategy,
            total_combinations=total_combinations,
            total_results=total_results,
            selected_results=selected.total_results(),
            pairs_bounded=space.pair_count(),
            tight_bounds_computed=tight_computed,
            elapsed_seconds=time.perf_counter() - started,
        )


def validate_selection(
    selected: Iterable[BucketCombination],
    all_combinations: Iterable[BucketCombination],
    k: int,
) -> bool:
    """Check Definition 2: every pruned combination is dominated by >= k retained results.

    Used by the property-based tests; not part of the hot path.
    """
    selected = list(selected)
    selected_keys = {c.key() for c in selected}
    for combo in all_combinations:
        if combo.key() in selected_keys or combo.nb_res == 0:
            continue
        dominating = [c for c in selected if c.lower_bound >= combo.upper_bound]
        if sum(c.nb_res for c in dominating) < k:
            return False
    return True
