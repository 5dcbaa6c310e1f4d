"""Vectorized comparator, predicate and aggregation kernels.

These are the columnar counterparts of the scalar hot paths: each kernel
evaluates one operation over a whole candidate array instead of one tuple at a
time, with bit-identical float results.  Parity is load-bearing, not cosmetic —
the local join's pruning decisions compare scores against thresholds, so any
rounding difference would change *which* tuples get enumerated, not just how
fast.  Every formula below therefore applies the exact arithmetic (same
operations, same order) as its scalar twin in
:mod:`repro.temporal.comparators` / :meth:`ScoredPredicate.compile`, and the
hypothesis suite in ``tests/test_columnar.py`` asserts elementwise equality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..index.interval_index import Rect, box_window
from ..temporal.aggregation import (
    Aggregation,
    AverageScore,
    MinScore,
    SumScore,
    WeightedSum,
)
from ..temporal.comparators import ComparatorParams
from ..temporal.predicates import ScoredPredicate
from ..temporal.terms import EndpointVar

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .columns import IntervalColumns

__all__ = [
    "equals_score_v",
    "greater_score_v",
    "compile_vector",
    "score_range_v",
    "combine_scores_v",
    "box_mask",
    "sweep_positions",
    "VectorScorer",
]

VectorScorer = Callable[[object, object, object, object], np.ndarray]
"""``f(x_start, x_end, y_start, y_end) -> scores``; any argument may be an
array (numpy broadcasting), so one compiled scorer serves both orientations
of an edge."""


def _equals_part(value, lam: float, rho: float) -> np.ndarray:
    """``equals`` over a difference array, mirroring the scalar if-cascade.

    The plateau/zero branches are selected exactly like the scalar
    comparator's ``if`` cascade (the slope formula evaluated *on* a plateau
    can round to 0.999…, so clipping alone is not bit-identical).
    """
    distance = np.abs(np.asarray(value, dtype=float))
    if rho == 0.0:
        return (distance <= lam).astype(float)
    edge = lam + rho
    # np.where evaluates the slope formula on plateau elements too, where it
    # may overflow for subnormal rho; those lanes are discarded by the mask.
    with np.errstate(over="ignore"):
        return np.where(
            distance <= lam, 1.0, np.where(distance >= edge, 0.0, (edge - distance) / rho)
        )


def _greater_part(value, lam: float, rho: float) -> np.ndarray:
    """``greater`` over a difference array, mirroring the scalar if-cascade."""
    value = np.asarray(value, dtype=float)
    if rho == 0.0:
        return (value > lam).astype(float)
    edge = lam + rho
    with np.errstate(over="ignore"):
        return np.where(
            value <= lam, 0.0, np.where(value >= edge, 1.0, (value - lam) / rho)
        )


def equals_score_v(d, params: ComparatorParams) -> np.ndarray:
    """Vectorized ``equals`` comparator over an array of differences ``d = a - b``."""
    return _equals_part(d, params.lam, params.rho)


def greater_score_v(d, params: ComparatorParams) -> np.ndarray:
    """Vectorized ``greater`` comparator over an array of differences ``d = a - b``."""
    return _greater_part(d, params.lam, params.rho)


def compile_vector(
    predicate: ScoredPredicate, first_var: str = "x", second_var: str = "y"
) -> VectorScorer:
    """Vectorized counterpart of :meth:`ScoredPredicate.compile`.

    The returned scorer takes the four endpoint operands (scalars or aligned
    arrays) and returns the per-candidate predicate score: the running ``min``
    over the conjunct comparators, each evaluated with the same closed-form
    arithmetic as the scalar closure.
    """
    compiled = predicate.compiled_comparisons(first_var, second_var)

    def score_v(x_start, x_end, y_start, y_end) -> np.ndarray:
        best: np.ndarray | None = None
        for is_equals, (a, b, c, d), constant, lam, rho in compiled:
            value = a * x_start + b * x_end + c * y_start + d * y_end + constant
            part = _equals_part(value, lam, rho) if is_equals else _greater_part(value, lam, rho)
            best = part if best is None else np.minimum(best, part)
        if best is None:
            raise ValueError("predicate has no comparisons")
        return np.asarray(best, dtype=float)

    return score_v


def score_range_v(
    predicate: ScoredPredicate, boxes: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`ScoredPredicate.score_range` over arrays of endpoint boxes.

    ``boxes`` maps each predicate variable to a ``(4, ...)`` array of
    start-low/start-high/end-low/end-high box edges; the trailing shapes
    broadcast against each other, and the result has one element per combination
    of boxes (``(4, S, 1)`` against ``(4, 1, T)`` bounds every pair).  The
    difference range of every conjunct comes from the scalar :meth:`Term.bounds`
    itself (its arithmetic is elementwise on arrays), the comparator images pick
    the closest/farthest difference exactly like ``equals_score_range`` /
    ``greater_score_range``, and the running ``min`` starts from 1.0, so every
    element equals the scalar result bit for bit.
    """
    domains = {}
    for var, sides in zip(boxes, np.broadcast_arrays(*boxes.values())):
        domains[EndpointVar(var, "start")] = (sides[0], sides[1])
        domains[EndpointVar(var, "end")] = (sides[2], sides[3])
    lo: object = 1.0
    hi: object = 1.0
    for comparison in predicate.comparisons:
        d_min, d_max = (comparison.left - comparison.right).bounds(domains)
        params = comparison.comparator_params(predicate.params)
        if comparison.kind == "equals":
            closest = np.where(
                (d_min <= 0.0) & (d_max >= 0.0), 0.0, np.where(d_max < 0.0, d_max, d_min)
            )
            farthest = np.where(np.abs(d_min) >= np.abs(d_max), d_min, d_max)
            c_lo, c_hi = equals_score_v(farthest, params), equals_score_v(closest, params)
        else:
            c_lo, c_hi = greater_score_v(d_min, params), greater_score_v(d_max, params)
        lo = np.minimum(lo, c_lo)
        hi = np.minimum(hi, c_hi)
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def combine_scores_v(
    aggregation: Aggregation, parts: Sequence[object], size: int
) -> np.ndarray:
    """Vectorized ``aggregation.combine`` over per-edge score columns.

    ``parts`` holds one entry per query edge, in edge order; each entry is
    either a scalar (an already-resolved score or an upper bound) or an array of
    per-candidate scores.  Accumulation runs in edge order — the same float
    operation sequence as the scalar ``combine`` — so results are bit-identical.
    Aggregations without a closed vector form fall back to the scalar combine
    per candidate, trading speed for guaranteed parity.
    """
    if isinstance(aggregation, (SumScore, AverageScore)):
        total: object = 0.0
        for part in parts:
            total = total + part
        if isinstance(aggregation, AverageScore):
            if len(parts) != aggregation.num_edges:
                raise ValueError(
                    f"expected {aggregation.num_edges} edge scores, got {len(parts)}"
                )
            total = total / aggregation.num_edges
        return np.broadcast_to(np.asarray(total, dtype=float), (size,))
    if isinstance(aggregation, WeightedSum):
        if len(parts) != len(aggregation.weights):
            raise ValueError(
                f"expected {len(aggregation.weights)} edge scores, got {len(parts)}"
            )
        total = 0.0
        for weight, part in zip(aggregation.weights, parts):
            total = total + weight * part
        return np.broadcast_to(np.asarray(total, dtype=float), (size,))
    if isinstance(aggregation, MinScore):
        best: object | None = None
        for part in parts:
            best = part if best is None else np.minimum(best, part)
        if best is None:
            raise ValueError("cannot combine zero scores")
        return np.broadcast_to(np.asarray(best, dtype=float), (size,))
    # Unknown monotone aggregation: exact fallback, one scalar combine per row.
    columns = [np.broadcast_to(np.asarray(part, dtype=float), (size,)) for part in parts]
    return np.fromiter(
        (aggregation.combine([column[row] for column in columns]) for row in range(size)),
        dtype=float,
        count=size,
    )


def box_mask(box: Rect, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Candidates whose ``(start, end)`` point lies in ``box``.

    The vector kernel's resolver: one boolean range filter over the bucket's
    columns selects the threshold box's candidate rows (a superset of the true
    candidates — see :mod:`repro.index.interval_index`).
    """
    return (
        (starts >= box.min_x)
        & (starts <= box.max_x)
        & (ends >= box.min_y)
        & (ends <= box.max_y)
    )


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


def sweep_positions(box: Rect, columns: "IntervalColumns") -> np.ndarray:
    """Sweep twin of ``flatnonzero(box_mask(...))``: same positions, same order.

    Resolves ``box`` to a candidate window over the batch's endpoint-sorted
    views (:func:`repro.index.box_window`), walks the *narrower* of the start
    and end windows, filters the remaining dimension with a residual mask over
    only those rows, and sorts the surviving insertion-order positions.  Cost
    is ``O(log n + w)`` for window size ``w`` versus the full-column
    ``O(n)`` scan of :func:`box_mask`; the result is identical — the window is
    exactly one dimension of the conjunction, the residual mask is the other,
    and the final sort restores insertion order — so the sweep kernel inherits
    the vector kernel's enumeration order and work counters bit for bit.
    """
    views = columns.sorted_views()
    (s_lo, s_hi), (e_lo, e_hi) = box_window(
        box, views.starts_sorted, views.ends_sorted
    )
    if s_hi <= s_lo or e_hi <= e_lo:
        return _EMPTY_POSITIONS
    if s_hi - s_lo <= e_hi - e_lo:
        window = views.start_order[s_lo:s_hi]
        residual = columns.ends[window]
        keep = (residual >= box.min_y) & (residual <= box.max_y)
    else:
        window = views.end_order[e_lo:e_hi]
        residual = columns.starts[window]
        keep = (residual >= box.min_x) & (residual <= box.max_x)
    positions = window[keep]
    positions.sort()
    return positions
