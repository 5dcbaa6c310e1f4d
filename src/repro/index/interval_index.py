"""Score-threshold interval lookups.

The local join of TKIJ repeatedly asks: *given an interval ``x_i`` and a score
value ``v``, return the intervals ``x_j`` with ``s-p(x_i, x_j) >= v``* (Section 4,
"Distributed join processing").  This module translates such a request into an
axis-aligned box over the (start, end) plane of the sought interval and answers it
with the :class:`~repro.index.rtree.RTree`.

The translation uses the closed form of the comparators: a comparison scores at
least ``v`` iff its linear difference term lies in a derivable range.  Comparisons
whose difference involves both endpoints of the target variable (e.g. the length
comparison of ``sparks``) cannot be boxed and are left to the exact residual
filter, so the box query always returns a superset of the true candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..temporal.comparators import ComparatorParams
from ..temporal.interval import Interval
from ..temporal.predicates import ScoredPredicate
from .rtree import Rect, RTree

__all__ = [
    "threshold_difference_range",
    "threshold_box",
    "box_window",
    "CompiledPredicateQuery",
    "ThresholdIndex",
]


def threshold_difference_range(
    kind: str, params: ComparatorParams, threshold: float
) -> tuple[float, float]:
    """Range of the difference ``d = left - right`` for which the comparator >= threshold.

    For thresholds at or below zero every difference qualifies; thresholds above one
    are unsatisfiable and yield an empty (inverted) range, which callers treat as
    "no candidates".
    """
    inf = float("inf")
    if threshold <= 0.0:
        return (-inf, inf)
    if threshold > 1.0:
        return (inf, -inf)
    if kind == "equals":
        slack = params.lam + params.rho * (1.0 - threshold)
        return (-slack, slack)
    # greater
    if params.rho == 0.0:
        return (params.lam, inf)
    return (params.lam + params.rho * threshold, inf)


def box_window(
    box: Rect, starts_sorted: np.ndarray, ends_sorted: np.ndarray
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Translate a threshold box into half-open windows over sorted endpoints.

    Returns ``((s_lo, s_hi), (e_lo, e_hi))``: the slice of ``starts_sorted``
    holding exactly the values with ``box.min_x <= start <= box.max_x`` and the
    slice of ``ends_sorted`` holding exactly ``box.min_y <= end <= box.max_y``.
    ``searchsorted(..., side="left")`` on the lower bound is the first index
    with ``value >= bound`` and ``side="right"`` on the upper bound is the
    first index with ``value > bound`` — together the closed-interval test of
    :func:`repro.columnar.box_mask`, so a window is the box-mask candidate set
    of one dimension without touching the other ``n - window`` rows.
    """
    s_lo = int(np.searchsorted(starts_sorted, box.min_x, side="left"))
    s_hi = int(np.searchsorted(starts_sorted, box.max_x, side="right"))
    e_lo = int(np.searchsorted(ends_sorted, box.min_y, side="left"))
    e_hi = int(np.searchsorted(ends_sorted, box.max_y, side="right"))
    return (s_lo, s_hi), (e_lo, e_hi)


class CompiledPredicateQuery:
    """Pre-analysed threshold-box computation for one (predicate, fixed var, target var).

    Splitting every comparison's linear difference into fixed-variable and
    target-variable coefficients once lets the hot path compute the box for a given
    fixed interval and threshold with plain arithmetic.
    """

    def __init__(self, predicate: ScoredPredicate, fixed_var: str, target_var: str) -> None:
        self.predicate = predicate
        self.fixed_var = fixed_var
        self.target_var = target_var
        self._comparisons: list[tuple[str, ComparatorParams, float, float, float, float, float]] = []
        for comparison in predicate.comparisons:
            diff = comparison.left - comparison.right
            fixed_start = fixed_end = target_start = target_end = 0.0
            for ev, coeff in diff.coefficients:
                if ev.var == fixed_var:
                    if ev.endpoint == "start":
                        fixed_start += coeff
                    else:
                        fixed_end += coeff
                elif ev.var == target_var:
                    if ev.endpoint == "start":
                        target_start += coeff
                    else:
                        target_end += coeff
                else:
                    raise ValueError(
                        f"comparison references variable {ev.var!r}, expected only "
                        f"{fixed_var!r} and {target_var!r}"
                    )
            params = comparison.comparator_params(predicate.params)
            self._comparisons.append(
                (comparison.kind, params, fixed_start, fixed_end,
                 target_start, target_end, diff.constant)
            )

    def box(self, fixed_interval: Interval, threshold: float) -> Rect | None:
        """Bounding box of target intervals whose score can reach ``threshold``.

        Returns ``None`` when no interval can qualify.  The box is a superset:
        callers must still evaluate the exact score.
        """
        inf = float("inf")
        min_x, max_x = -inf, inf
        min_y, max_y = -inf, inf
        for kind, params, f_start, f_end, a_start, a_end, base in self._comparisons:
            d_lo, d_hi = threshold_difference_range(kind, params, threshold)
            if d_lo > d_hi:
                return None
            const = base + f_start * fixed_interval.start + f_end * fixed_interval.end
            if a_start != 0.0 and a_end != 0.0:
                # Not axis-aligned (e.g. a length comparison): handled by exact filtering.
                continue
            if a_start == 0.0 and a_end == 0.0:
                # Constant difference: either always satisfiable or never.
                if not (d_lo <= const <= d_hi):
                    return None
                continue
            coeff = a_start if a_start != 0.0 else a_end
            lo = (d_lo - const) / coeff
            hi = (d_hi - const) / coeff
            if coeff < 0:
                lo, hi = hi, lo
            if a_start != 0.0:
                min_x, max_x = max(min_x, lo), min(max_x, hi)
            else:
                min_y, max_y = max(min_y, lo), min(max_y, hi)
        if min_x > max_x or min_y > max_y:
            return None
        return Rect(min_x, max_x, min_y, max_y)


def threshold_box(
    predicate: ScoredPredicate,
    fixed_var: str,
    fixed_interval: Interval,
    target_var: str,
    threshold: float,
) -> Rect | None:
    """Bounding box of target intervals whose predicate score can reach ``threshold``.

    Convenience wrapper over :class:`CompiledPredicateQuery` (which callers on the
    hot path should build once and reuse).
    """
    return CompiledPredicateQuery(predicate, fixed_var, target_var).box(
        fixed_interval, threshold
    )


@dataclass
class ThresholdIndex:
    """An R-tree of intervals answering score-threshold lookups for one variable.

    The index is built once per (reducer, bucket) and queried with a predicate, a
    fixed partner interval and a threshold.  ``exact=True`` additionally filters
    candidates with the true predicate score.

    Query results are returned in the insertion order of the indexed intervals,
    not in tree-traversal order: the local join's pruning thresholds evolve with
    the processing order, so a deterministic order is what makes the scalar and
    vector kernels (and all execution backends) enumerate identical tuples.
    """

    tree: RTree
    positions: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, intervals: Iterable[Interval], leaf_capacity: int = 32) -> "ThresholdIndex":
        rows = list(intervals)
        positions = {interval.uid: position for position, interval in enumerate(rows)}
        return cls(RTree(rows, leaf_capacity=leaf_capacity), positions)

    def __len__(self) -> int:
        return len(self.tree)

    def in_box(self, box: Rect) -> list[Interval]:
        """Indexed intervals whose ``(start, end)`` point lies in ``box``, in insertion order."""
        found = self.tree.query(box)
        if self.positions:
            found.sort(key=lambda interval: self.positions[interval.uid])
        return found

    def candidates_compiled(
        self,
        query: CompiledPredicateQuery,
        fixed_interval: Interval,
        threshold: float,
    ) -> list[Interval]:
        """Intervals whose score against ``fixed_interval`` may reach ``threshold``.

        Variant taking a pre-built :class:`CompiledPredicateQuery`.
        """
        box = query.box(fixed_interval, threshold)
        return [] if box is None else self.in_box(box)

    def candidates(
        self,
        predicate: ScoredPredicate,
        fixed_var: str,
        fixed_interval: Interval,
        target_var: str,
        threshold: float,
        exact: bool = False,
    ) -> list[Interval]:
        """Intervals whose predicate score against ``fixed_interval`` may reach ``threshold``."""
        box = threshold_box(predicate, fixed_var, fixed_interval, target_var, threshold)
        if box is None:
            return []
        found = self.in_box(box)
        if not exact:
            return found
        return [
            candidate
            for candidate in found
            if _exact_score(predicate, fixed_var, fixed_interval, target_var, candidate)
            >= threshold
        ]

    def all(self) -> list[Interval]:
        """Every indexed interval."""
        return self.tree.all()


def _exact_score(
    predicate: ScoredPredicate,
    fixed_var: str,
    fixed_interval: Interval,
    target_var: str,
    candidate: Interval,
) -> float:
    assignment = {fixed_var: fixed_interval, target_var: candidate}
    return min(c.score(assignment, predicate.params) for c in predicate.comparisons)
