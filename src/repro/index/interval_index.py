"""Score-threshold interval lookups.

The local join of TKIJ repeatedly asks: *given an interval ``x_i`` and a score
value ``v``, return the intervals ``x_j`` with ``s-p(x_i, x_j) >= v``* (Section 4,
"Distributed join processing").  This module translates such a request into an
axis-aligned box over the (start, end) plane of the sought interval and answers it
with the candidate rows of a bucket whose ``(start, end)`` point lies in the box.

The translation uses the closed form of the comparators: a comparison scores at
least ``v`` iff its linear difference term lies in a derivable range.  Comparisons
whose difference involves both endpoints of the target variable (e.g. the length
comparison of ``sparks``) cannot be boxed and are left to the exact residual
filter, so the box query always returns a superset of the true candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..temporal.comparators import ComparatorParams
from ..temporal.interval import Interval
from ..temporal.predicates import ScoredPredicate

__all__ = [
    "Rect",
    "threshold_difference_range",
    "box_window",
    "CompiledPredicateQuery",
]

_SMALLEST_POSITIVE = math.ulp(0.0)
"""The smallest subnormal double: every positive score is at least this."""


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


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned threshold box ``[min_x, max_x] x [min_y, max_y]`` over the
    (start, end) plane; either side may be infinite."""

    min_x: float
    max_x: float
    min_y: float
    max_y: float


class CompiledPredicateQuery:
    """Pre-analysed threshold-box computation for one (predicate, fixed var, target var).

    Each comparison's plan (:meth:`ScoredPredicate.comparison_plans` over the
    fixed and target variables) already splits its linear difference into
    fixed-variable and target-variable coefficients, so the hot path computes
    the box for a given fixed interval and threshold with plain arithmetic.
    """

    def __init__(self, predicate: ScoredPredicate, fixed_var: str, target_var: str) -> None:
        self.predicate = predicate
        self.fixed_var = fixed_var
        self.target_var = target_var
        self._comparisons = [
            (plan.kind, ComparatorParams(plan.lam, plan.rho), *plan.coefficients, plan.constant)
            for plan in predicate.comparison_plans(fixed_var, target_var)
        ]

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

    def support_box(self, fixed_interval: Interval) -> Rect | None:
        """Bounding box of target intervals scoring above 0: the predicate's support.

        Every positive score reaches the smallest subnormal, so this is
        :meth:`box` at that threshold, a closed superset like every box.
        """
        return self.box(fixed_interval, _SMALLEST_POSITIVE)
